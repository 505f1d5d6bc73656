//! Hash-interned arenas of dense configurations.
//!
//! Every state-space analysis of the suite (forward exploration, backward
//! coverability, Karp–Miller, the stable-computation verifier) repeatedly
//! asks "have I seen this configuration before?". The sparse
//! [`Multiset`](pp_multiset::Multiset) answers that with a `BTreeMap`
//! lookup allocating tree nodes per configuration; the [`ConfigArena`]
//! instead stores every distinct configuration exactly once as a dense
//! `Vec<u64>` row in one contiguous buffer and answers membership with an
//! Fx-hash probe plus a slice comparison. Configurations are identified by
//! compact [`ConfigId`]s (`u32`), so graph edges cost eight bytes instead
//! of two tree pointers.
//!
//! The parallel exploration engine shares one arena read-only among its
//! worker threads while they compute a level's successors, and interns
//! the new rows on the calling thread afterwards (see
//! [`ReachabilityGraph::build_with`]).
//!
//! Arenas are *layout-aware*: rows are stored in the packed word format
//! of a [`RowLayout`] (one `u64` per place in
//! the uncompressed default, down to one byte per place when the
//! compiled net's counts are provably small), and all hashing, equality
//! and equality probing operate directly on the packed words — the arena
//! never unpacks a row to answer a membership query.
//!
//! [`ReachabilityGraph::build_with`]: crate::ReachabilityGraph::build_with

use crate::packed::{CellWidth, RowLayout};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};

/// Identifier of an interned configuration within one [`ConfigArena`].
///
/// Ids are dense (`0..arena.len()`), assigned in interning order, and only
/// meaningful relative to the arena that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning arena of dense configuration rows.
///
/// All rows share one fixed [`RowLayout`] (chosen per compiled net) and
/// live back-to-back in a single `Vec<u64>` of packed words; per-row
/// agent totals are cached so budget checks don't rescan the row. The
/// historical constructor [`ConfigArena::new`] builds the uncompressed
/// `u64`-per-place layout, for which the stored words *are* the counts.
///
/// # Examples
///
/// ```
/// use pp_petri::arena::ConfigArena;
///
/// let mut arena = ConfigArena::new(3);
/// let a = arena.intern(&[1, 0, 2]);
/// let b = arena.intern(&[0, 1, 2]);
/// assert_ne!(a, b);
/// assert_eq!(arena.intern(&[1, 0, 2]), a); // deduplicated
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.row(a), &[1, 0, 2]);
/// assert_eq!(arena.total(a), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigArena {
    layout: RowLayout,
    /// Stored words per row — cached from `layout` for the hot paths.
    stride: usize,
    data: Vec<u64>,
    totals: Vec<u64>,
    index: FxHashMap<u64, Vec<u32>>,
}

impl ConfigArena {
    /// An empty arena for uncompressed rows of `width` counters (one
    /// `u64` word per place).
    #[must_use]
    pub fn new(width: usize) -> Self {
        ConfigArena::with_layout(RowLayout::uniform(width, CellWidth::U64))
    }

    /// An empty arena for packed rows of the given layout.
    #[must_use]
    pub fn with_layout(layout: RowLayout) -> Self {
        let stride = layout.words_per_row();
        ConfigArena {
            layout,
            stride,
            data: Vec::new(),
            totals: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// The number of places per row (the *logical* width; the stored
    /// word width is [`ConfigArena::stride`]).
    #[must_use]
    pub fn width(&self) -> usize {
        self.layout.places()
    }

    /// The row layout packed rows are stored in.
    #[must_use]
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Stored `u64` words per row.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct interned configurations (also the next id to be
    /// assigned).
    #[must_use]
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Returns `true` if no configuration has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored (packed) row of configuration `id`. Under the
    /// uncompressed `u64` layout this is one count per place; under a
    /// packed layout decode cells through [`ConfigArena::layout`].
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[must_use]
    pub fn row(&self, id: ConfigId) -> &[u64] {
        let start = id.index() * self.stride;
        &self.data[start..start + self.stride]
    }

    /// The cached agent total `|ρ|` of configuration `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[must_use]
    pub fn total(&self, id: ConfigId) -> u64 {
        self.totals[id.index()]
    }

    /// Interns a stored-format `row`, returning the id of the unique
    /// stored copy.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong stored width or the arena is full
    /// (more than `u32::MAX` configurations).
    pub fn intern(&mut self, row: &[u64]) -> ConfigId {
        let hash = hash_row(row);
        self.intern_prehashed(hash, row)
    }

    /// [`intern`](Self::intern) with the row hash already computed, so
    /// the parallel engine, whose workers hash the rows, hashes each row
    /// once.
    pub(crate) fn intern_prehashed(&mut self, hash: u64, row: &[u64]) -> ConfigId {
        assert_eq!(row.len(), self.stride, "row width mismatch");
        debug_assert_eq!(hash, hash_row(row), "stale row hash");
        if let Some(id) = self.lookup_prehashed(hash, row) {
            return id;
        }
        let id = u32::try_from(self.len()).expect("arena full: more than u32::MAX configurations");
        self.data.extend_from_slice(row);
        self.totals.push(if self.layout.is_u64_uniform() {
            row.iter().sum()
        } else {
            self.layout.row_total(row)
        });
        self.index.entry(hash).or_default().push(id);
        ConfigId(id)
    }

    /// The id of a stored-format `row` if it is already interned.
    #[must_use]
    pub fn lookup(&self, row: &[u64]) -> Option<ConfigId> {
        if row.len() != self.stride {
            return None;
        }
        self.lookup_prehashed(hash_row(row), row)
    }

    /// [`lookup`](Self::lookup) with the row hash already computed.
    pub(crate) fn lookup_prehashed(&self, hash: u64, row: &[u64]) -> Option<ConfigId> {
        let candidates = self.index.get(&hash)?;
        candidates
            .iter()
            .copied()
            .map(ConfigId)
            .find(|&id| self.row(id) == row)
    }

    /// Iterates over all rows in id order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.len()).map(move |i| self.row(ConfigId(i as u32)))
    }
}

pub(crate) fn hash_row(row: &[u64]) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut arena = ConfigArena::new(2);
        let a = arena.intern(&[3, 4]);
        let b = arena.intern(&[4, 3]);
        let a2 = arena.intern(&[3, 4]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total(a), 7);
        assert_eq!(arena.total(b), 7);
    }

    #[test]
    fn lookup_without_interning() {
        let mut arena = ConfigArena::new(2);
        assert_eq!(arena.lookup(&[1, 1]), None);
        let id = arena.intern(&[1, 1]);
        assert_eq!(arena.lookup(&[1, 1]), Some(id));
        assert_eq!(arena.lookup(&[1, 2]), None);
        assert_eq!(arena.lookup(&[1]), None);
    }

    #[test]
    fn rows_iterate_in_id_order() {
        let mut arena = ConfigArena::new(3);
        arena.intern(&[1, 0, 0]);
        arena.intern(&[0, 2, 0]);
        arena.intern(&[0, 0, 3]);
        let rows: Vec<&[u64]> = arena.rows().collect();
        assert_eq!(rows, vec![&[1, 0, 0][..], &[0, 2, 0], &[0, 0, 3]]);
    }

    #[test]
    fn zero_width_arena_has_one_distinct_row() {
        let mut arena = ConfigArena::new(0);
        let a = arena.intern(&[]);
        let b = arena.intern(&[]);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.rows().count(), 1);
        assert_eq!(arena.total(a), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut arena = ConfigArena::new(2);
        arena.intern(&[1, 2, 3]);
    }

    #[test]
    fn heavy_interning_stays_consistent() {
        let mut arena = ConfigArena::new(4);
        let mut ids = Vec::new();
        for i in 0..1_000u64 {
            ids.push(arena.intern(&[i % 7, i % 5, i % 3, i]));
        }
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u64;
            assert_eq!(arena.row(id), &[i % 7, i % 5, i % 3, i]);
        }
    }

    #[test]
    fn packed_layout_arena_round_trips_counts() {
        use crate::packed::{CellWidth, RowLayout};
        let layout = RowLayout::uniform(10, CellWidth::U8);
        let mut arena = ConfigArena::with_layout(layout.clone());
        assert_eq!(arena.width(), 10, "logical width is places");
        assert_eq!(arena.stride(), 2, "10 u8 cells pack into 2 words");
        let cells: Vec<u64> = (0..10u64).map(|i| i * 7 % 256).collect();
        let packed = layout.pack(&cells);
        let id = arena.intern(&packed);
        assert_eq!(arena.intern(&packed), id);
        assert_eq!(arena.total(id), cells.iter().sum::<u64>());
        assert_eq!(arena.layout().unpack(arena.row(id)), cells);
        assert_eq!(arena.lookup(&packed), Some(id));
    }
}

//! The seeded generator behind every job list: SplitMix64, so a seed
//! reproduces its inputs on any platform and toolchain.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted with `stream` so the workloads draw
    /// independent sequences from one seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut salt = 0xcbf2_9ce4_8422_2325u64;
        for byte in stream.bytes() {
            salt = (salt ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (rejection sampling, no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A seeded job list: `passes` passes over jobs `0..count`, each pass in
/// its own order drawn from `stream`.
pub fn interleaved_passes(seed: u64, stream: &str, count: usize, passes: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    let mut jobs = Vec::with_capacity(passes * count);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut pass);
        jobs.extend(pass);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, "explore");
        let mut b = Rng::new(7, "explore");
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn seeds_and_streams_differ() {
        let first = |seed, stream| Rng::new(seed, stream).next_u64();
        assert_ne!(first(7, "explore"), first(8, "explore"));
        assert_ne!(first(7, "explore"), first(7, "serve"));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..50).collect();
        Rng::new(1, "t").shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn job_lists_are_deterministic_per_seed() {
        assert_eq!(
            interleaved_passes(11, "w", 5, 6),
            interleaved_passes(11, "w", 5, 6)
        );
        assert_ne!(
            interleaved_passes(11, "w", 5, 6),
            interleaved_passes(12, "w", 5, 6)
        );
    }

    #[test]
    fn every_seed_runs_each_job_once_per_pass() {
        for seed in [0, 1, 99] {
            let jobs = interleaved_passes(seed, "w", 26, 4);
            assert_eq!(jobs.len(), 26 * 4);
            for pass in jobs.chunks(26) {
                let mut sorted = pass.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..26).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(3, "t");
        assert!((0..1000).all(|_| rng.below(7) < 7));
        assert_eq!(rng.below(1), 0);
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.step`), the job identity it belongs to (the
//! repeats of one job share it), its start and end, and the span that was
//! open when it started. Spans stay in memory; the workloads fold them into
//! per-layer metrics when the run ends. A disabled tracer records nothing,
//! so traced and untraced passes run the same calls.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when the tracer is disabled).
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of job `job`, nested under the innermost open span.
    pub fn enter(&mut self, name: &'static str, job: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name, job);
        let result = f();
        self.exit(span);
        result
    }

    /// Self time of every span: its duration minus the parts covered by
    /// its child spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Seconds of self time of `name`, summed over job identities after
    /// taking the median over each identity's repeats.
    pub fn median_sum(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let mut by_job: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if span.name == name {
                by_job.entry(span.job).or_default().push(ns as f64 / 1e9);
            }
        }
        by_job.values().map(|times| median(times)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.time("a.b", 0, || 5);
        assert_eq!(value, 5);
        assert_eq!(tracer.median_sum("a.b"), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("job", 0);
        tracer.time("layer", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.exit(outer);
        let layer = tracer.median_sum("layer");
        let job = tracer.median_sum("job");
        assert!(layer >= 0.020);
        assert!(job < layer, "the job's self time excludes its child");
        assert_eq!(tracer.spans[1].parent, Some(0));
    }

    #[test]
    fn median_sum_groups_repeats_by_job() {
        let mut tracer = Tracer::new(true);
        for job in [0, 1, 0, 1, 0] {
            tracer.time("x", job, || ());
        }
        assert_eq!(tracer.spans.len(), 5);
        assert!(tracer.median_sum("x") >= 0.0);
    }
}

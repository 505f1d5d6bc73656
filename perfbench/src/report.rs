//! What a run reports: attempted and failed operations, metrics with
//! units, and the result line the benchmark ends with.

use crate::stats::{median, nearest_rank, samples_beyond, tail_percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples below which the p90 is not reported: at least ten must lie
/// beyond it.
const MIN_BEYOND_P90: usize = 10;

/// Checks and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.op(false, || format!("metric {name} is not finite ({value})"));
            return;
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints one line per metric, then the result object as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Per-job times of a timed section: every sample, and each job
/// identity's work and repeat times.
#[derive(Debug, Default)]
pub struct Timings {
    samples: Vec<f64>,
    jobs: BTreeMap<usize, (f64, Vec<f64>)>,
}

impl Timings {
    /// Records one repeat of job `job`, worth `work` units, taking `secs`.
    pub fn record(&mut self, job: usize, work: f64, secs: f64) {
        self.samples.push(secs);
        let entry = self.jobs.entry(job).or_insert((work, Vec::new()));
        entry.1.push(secs);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The sum of all samples.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// The same job list with every repeat of a job taking that job's best
    /// (fastest) time: the figures a host that never slowed the run would
    /// give. Throughput is then total work over the summed best times, and
    /// a latency percentile is that of the job mix at best times.
    pub fn at_best(&self) -> Timings {
        let mut best = Timings::default();
        for (&job, (work, times)) in &self.jobs {
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            for _ in times {
                best.record(job, *work, fastest);
            }
        }
        best
    }

    /// Work per second from the median of each job's repeats.
    pub fn work_per_s(&self) -> f64 {
        let jobs: Vec<(f64, Vec<f64>)> = self.jobs.values().cloned().collect();
        crate::stats::median_throughput(&jobs)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn p50_ms(&self) -> f64 {
        nearest_rank(&self.sorted(), 50).unwrap_or(f64::NAN) * 1e3
    }

    /// The p90 in milliseconds; NaN (a failed metric) with fewer than
    /// [`MIN_BEYOND_P90`] samples beyond it.
    pub fn p90_ms(&self) -> f64 {
        tail_percentile(&self.sorted(), 90, MIN_BEYOND_P90).unwrap_or(f64::NAN) * 1e3
    }

    /// Prints the sample count and how many lie beyond the p90.
    pub fn print_samples(&self, what: &str) {
        eprintln!(
            "{what}: {} samples ({} beyond p90)",
            self.len(),
            samples_beyond(self.len(), 90)
        );
    }
}

/// The figures every workload reports with its set-up time, CPU seconds
/// and peak RSS.
pub struct Figures {
    pub work_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

impl Figures {
    /// Throughput and latencies of `timings`, with `streams` concurrent
    /// streams each sustaining its rate.
    pub fn of(timings: &Timings, streams: usize) -> Figures {
        Figures {
            work_per_s: timings.work_per_s() * streams as f64,
            p50_ms: timings.p50_ms(),
            p90_ms: timings.p90_ms(),
        }
    }

    /// Adds the end-to-end metrics.
    pub fn report(&self, report: &mut Report, setup_s: f64, cpu_s: f64) {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        report.metric("cpu_s", cpu_s, "s");
        report.metric("work_per_s", self.work_per_s, "1/s");
        report.metric("latency_p50_ms", self.p50_ms, "ms");
        report.metric("latency_p90_ms", self.p90_ms, "ms");
    }
}

/// Runs `setup` `reps` times and returns the last product with the median
/// duration in seconds. Earlier products are dropped outside the timing.
pub fn setup_median<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let product = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(product);
    }
    (last.expect("at least one setup"), median(&times))
}

/// Relative change, in percent, of the traced figure against the untraced.
pub fn overhead_pct(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    (untraced_per_s / traced_per_s - 1.0) * 100.0
}

/// One timed job: its identity, work, wall and CPU seconds, and whether it
/// was traced.
type Sample = (usize, f64, f64, f64, bool);

/// The timed section of a pass-based workload: `jobs` is a list of passes
/// of `per_pass` jobs, dealt round-robin by pass to `streams` concurrent
/// threads, each running its passes in order and timing every job;
/// `run_job` returns the job's work and counts its checks. With `trace`,
/// every stream's odd passes run with its tracer on. Returns the untraced
/// and the traced wall timings and the untraced jobs' CPU timings.
///
/// A job's CPU time is read from the process clock when one stream runs and
/// from its stream thread's clock otherwise, which sees a job whole only if
/// it runs no threads of its own: a section whose per-job CPU covers less
/// than nine tenths of the process's fails a check.
pub fn timed_passes(
    jobs: &[usize],
    per_pass: usize,
    streams: usize,
    trace: bool,
    report: &mut Report,
    run_job: impl Fn(usize, &mut Tracer, &mut Report) -> f64 + Sync,
) -> ([Timings; 2], Timings) {
    let job_clock: fn() -> f64 = if streams == 1 {
        crate::host::cpu_seconds
    } else {
        crate::host::thread_cpu_seconds
    };
    let passes: Vec<&[usize]> = jobs.chunks(per_pass).collect();
    let cpu_start = crate::host::cpu_seconds();
    let results: Vec<(Report, Vec<Sample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let (passes, run_job) = (&passes, &run_job);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(false);
                    let mut checks = Report::default();
                    let mut samples = Vec::new();
                    for (index, pass) in passes.iter().skip(stream).step_by(streams).enumerate() {
                        let traced = trace && index % 2 == 1;
                        tracer.set_enabled(traced);
                        for &job in *pass {
                            let cpu = job_clock();
                            let start = Instant::now();
                            let work = run_job(job, &mut tracer, &mut checks);
                            let secs = start.elapsed().as_secs_f64();
                            samples.push((job, work, secs, job_clock() - cpu, traced));
                        }
                    }
                    (checks, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("job stream panicked"))
            .collect()
    });
    let section_cpu = crate::host::cpu_seconds() - cpu_start;
    let mut timings = [Timings::default(), Timings::default()];
    let mut cpu = Timings::default();
    let mut jobs_cpu = 0.0;
    for (checks, samples) in results {
        report.attempted += checks.attempted;
        report.failed += checks.failed;
        for (job, work, secs, job_cpu, traced) in samples {
            timings[usize::from(traced)].record(job, work, secs);
            if !traced {
                cpu.record(job, work, job_cpu);
            }
            jobs_cpu += job_cpu;
        }
    }
    eprintln!("per-job CPU {jobs_cpu:.3} s of the section's {section_cpu:.3} s");
    report.op(jobs_cpu >= 0.9 * section_cpu, || {
        format!("per-job CPU {jobs_cpu:.3} s covers too little of the section's {section_cpu:.3} s")
    });
    (timings, cpu)
}

/// Reports a timed section: the tracing overhead when traced, otherwise
/// the end-to-end metrics of the untraced timings, all at each job's best
/// repeat ([`Timings::at_best`]); `cpu_s` is the job list's CPU seconds at
/// each job's least CPU. The host moves between a fast and a slow state for
/// seconds at a time, so a job's median repeat follows how long the run
/// spent in each; its best repeat does not.
/// `streams` concurrent streams each sustain the per-job-best rate, so
/// the reported throughput is that rate times `streams`.
pub fn report_run(
    report: &mut Report,
    trace: bool,
    streams: usize,
    timings: &[Timings; 2],
    setup_s: f64,
    cpu: &Timings,
) {
    let [plain, traced] = timings.each_ref().map(Timings::at_best);
    if trace {
        report.metric(
            "trace.overhead_pct",
            overhead_pct(plain.work_per_s(), traced.work_per_s()),
            "%",
        );
    } else {
        plain.print_samples("timed jobs");
        Figures::of(&plain, streams).report(report, setup_s, cpu.at_best().total());
    }
}

/// Passes in a run of `seconds`: the nominal pass time sets the count,
/// `min` keeps enough samples for the reported percentiles.
pub fn passes_for(seconds: u64, nominal_pass_s: f64, min: usize) -> usize {
    ((seconds as f64 / nominal_pass_s).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_best_gives_every_repeat_its_jobs_fastest_time() {
        let mut timings = Timings::default();
        // Job 0: 10 units, repeats 0.3 s, 0.1 s, 0.9 s. Job 1: 30 units,
        // repeats 0.4 s, 0.2 s.
        for (job, work, secs) in [
            (0, 10.0, 0.3),
            (1, 30.0, 0.4),
            (0, 10.0, 0.1),
            (0, 10.0, 0.9),
            (1, 30.0, 0.2),
        ] {
            timings.record(job, work, secs);
        }
        let best = timings.at_best();
        assert_eq!(best.len(), 5);
        assert_eq!(best.work_per_s(), 40.0 / (0.1 + 0.2));
        // The job mix at best times is 0.1, 0.1, 0.1, 0.2, 0.2 s.
        assert_eq!(best.p50_ms(), 100.0);
        assert!(best.p90_ms().is_nan(), "5 samples leave none beyond p90");
    }
}

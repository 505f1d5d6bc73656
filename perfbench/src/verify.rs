//! `verify-catalog`: `verify_counting_inputs` on every single-initial-state
//! counting protocol of the catalog at n = 3..=8, inputs 0..=2n+2, under
//! the library's default across-input fan-out.
//!
//! Most graphs are small, so per-query fixed costs dominate: compile, the
//! stability and coverability oracles, batch scheduling and the fan-out.
//! The seed orders the protocols inside each pass.

use crate::report::{passes_for, report_run, setup_median, timed_passes, Report};
use crate::rng::interleaved_passes;
use crate::stats::median_secs;
use crate::trace::Tracer;
use pp_multiset::Multiset;
use pp_petri::batch::{Batch, BatchJob};
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::stable::ProtocolStability;
use pp_population::verify::verify_counting_inputs;
use pp_population::{Predicate, Protocol};
use pp_protocols::catalog::counting_entries;
use std::hint::black_box;

const NOMINAL_PASS_S: f64 = 0.045;
/// 4 passes of 26 jobs leave 10 samples beyond the p90.
const MIN_PASSES: usize = 4;
const SETUP_REPS: usize = 9;

/// One protocol job.
struct Entry {
    label: String,
    protocol: Protocol,
    predicate: Predicate,
    max_count: u64,
}

/// The catalog slice: 26 protocols, 366 verdicts per pass.
fn entries() -> Vec<Entry> {
    (3..=8u64)
        .flat_map(|n| {
            counting_entries(n)
                .into_iter()
                .filter(|entry| entry.protocol.initial_states().len() == 1)
                .map(move |entry| Entry {
                    label: format!("{}(n={n})", entry.family),
                    protocol: entry.protocol,
                    predicate: entry.predicate,
                    max_count: 2 * n + 2,
                })
        })
        .collect()
}

struct Inputs {
    entries: Vec<Entry>,
    jobs: Vec<usize>,
}

fn setup(seed: u64, passes: usize) -> Inputs {
    let entries = entries();
    let jobs = interleaved_passes(seed, "verify-catalog", entries.len(), passes);
    let inputs = Inputs { entries, jobs };
    // Warm-up: one untimed pass (starts the fan-out threads, settles the
    // allocator).
    let mut scratch = Report::default();
    for &job in &inputs.jobs[..inputs.entries.len()] {
        verify_job(&inputs, job, &mut Tracer::new(false), &mut scratch);
    }
    inputs
}

/// Verifies one protocol; returns the verdict count and checks it.
fn verify_job(inputs: &Inputs, job: usize, tracer: &mut Tracer, report: &mut Report) -> usize {
    let entry = &inputs.entries[job];
    let result = tracer.time("verify.protocol", job, || {
        verify_counting_inputs(
            &entry.protocol,
            &entry.predicate,
            entry.max_count,
            &ExplorationLimits::default(),
        )
    });
    let expected = entry.max_count as usize + 1;
    report.op(
        result.all_correct() && result.inputs.len() == expected,
        || {
            format!(
                "verify-catalog {}: {} of {} verdicts correct, {} expected",
                entry.label,
                result.inputs.iter().filter(|r| r.is_correct()).count(),
                result.inputs.len(),
                expected
            )
        },
    );
    result.inputs.iter().filter(|r| r.is_correct()).count()
}

/// The end-to-end run. With `trace`, passes alternate between untraced and
/// traced and only the tracing overhead is reported.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let passes = passes_for(seconds, NOMINAL_PASS_S, MIN_PASSES);
    let (inputs, setup_s) = setup_median(SETUP_REPS, || setup(seed, passes));
    let per_pass = inputs.entries.len();
    // One stream: each verification already fans out over both threads.
    let (timings, cpu) = timed_passes(
        &inputs.jobs,
        per_pass,
        1,
        trace,
        report,
        |job, tracer, checks| verify_job(&inputs, job, tracer, checks) as f64,
    );
    report_run(report, trace, 1, &timings, setup_s, &cpu);
}

/// Per-layer metrics: traced verification passes, the stability set-up and
/// coverability oracles it builds, and the batch layer against direct
/// session runs of the same reachability jobs.
pub fn layers(seed: u64, report: &mut Report) {
    const PASSES: usize = 3;
    let inputs = setup(seed, PASSES);
    let mut tracer = Tracer::new(true);
    let mut correct = 0;
    for &job in &inputs.jobs {
        correct += verify_job(&inputs, job, &mut tracer, report);
    }
    let verdicts: usize = inputs
        .entries
        .iter()
        .map(|e| e.max_count as usize + 1)
        .sum();
    report.metric(
        "verify.us_per_input",
        tracer.median_sum("verify.protocol") * 1e6 / verdicts as f64,
        "us",
    );
    report.metric("verify.inputs", verdicts as f64, "count");
    report.metric("verify.correct", (correct / PASSES) as f64, "count");

    let mut stable = Vec::new();
    let mut oracle = Vec::new();
    let mut oracles = 0usize;
    let mut basis = 0usize;
    let mut batch_seq = Vec::new();
    let mut batch_par = Vec::new();
    let mut direct = Vec::new();
    for entry in &inputs.entries {
        stable.push(median_secs(PASSES, || {
            black_box(ProtocolStability::new(&entry.protocol));
        }));
        // The per-place oracles the stability set-up builds, one session.
        let places: Vec<_> = entry.protocol.net().places().iter().copied().collect();
        let base = Analysis::new(entry.protocol.net());
        oracle.push(median_secs(PASSES, || {
            let mut analysis = base.clone();
            for place in &places {
                black_box(analysis.coverability(Multiset::unit(*place)).run());
            }
        }));
        let mut analysis = base.clone();
        for place in &places {
            basis += analysis
                .coverability(Multiset::unit(*place))
                .run()
                .basis()
                .len();
        }
        oracles += places.len();

        let initials: Vec<Multiset<_>> = (0..=entry.max_count)
            .map(|count| entry.protocol.initial_config_with_count(count))
            .collect();
        let batch = |parallelism: Parallelism| {
            let jobs = initials.iter().enumerate().map(|(i, initial)| {
                BatchJob::reachability(
                    format!("input-{i}"),
                    entry.protocol.net().clone(),
                    [initial.clone()],
                )
            });
            let result = Batch::new()
                .seed_session(&base)
                .parallelism(parallelism)
                .jobs(jobs)
                .run();
            black_box(result.jobs.len())
        };
        batch_seq.push(median_secs(PASSES, || {
            batch(Parallelism::Sequential);
        }));
        batch_par.push(median_secs(PASSES, || {
            batch(Parallelism::Parallel(2));
        }));
        direct.push(median_secs(PASSES, || {
            for initial in &initials {
                let mut session = base.clone();
                black_box(session.reachability([initial.clone()]).run());
            }
        }));
    }
    let count = inputs.entries.len() as f64;
    let sum = |times: &[f64]| times.iter().sum::<f64>();
    report.metric("stable.setup_us", sum(&stable) * 1e6 / count, "us");
    report.metric("cover.oracle_us", sum(&oracle) * 1e6 / oracles as f64, "us");
    report.metric("cover.basis", basis as f64, "count");
    report.metric("batch.overhead_ratio", sum(&batch_seq) / sum(&direct), "x");
    report.metric("batch.par2_speedup", sum(&batch_seq) / sum(&batch_par), "x");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_has_26_protocols_and_366_verdicts() {
        let entries = entries();
        assert_eq!(entries.len(), 26);
        let verdicts: u64 = entries.iter().map(|e| e.max_count + 1).sum();
        assert_eq!(verdicts, 366);
    }
}

//! `pipeline-s8`: the paper's Section 8 analysis (`analyze_protocol`:
//! Theorem 6.1 bottom witness, Lemma 7.2 control net and total cycle,
//! Lemma 7.3 shrink) at default limits over a catalog slice.
//!
//! The slice is every catalog entry at n = 2..=4 except
//! binary-threshold(4) (1.9 s alone, which would leave too few analyses in a
//! run for a p90), plus flock-unary(5) and flock-doubling(k=3): 17
//! analyses, about 1.4 s per pass. It is the only workload that exercises
//! `bottom`, `control`, `cycles` and `pp_diophantine`. The seed orders the
//! analyses inside each pass.

use crate::report::{passes_for, report_run, setup_median, timed_passes, Report};
use crate::rng::interleaved_passes;
use crate::trace::Tracer;
use pp_diophantine::HilbertConfig;
use pp_petri::bottom::{find_bottom_witness_in, theorem_6_1_bound};
use pp_petri::control::ControlNet;
use pp_petri::cycles::shrink_multicycle;
use pp_petri::{Analysis, ExplorationLimits};
use pp_population::{Protocol, StateId};
use pp_protocols::catalog::{counting_entries, other_entries};
use pp_protocols::flock;
use pp_statecomplexity::bounds::theorem_4_3_bound_for_protocol;
use pp_statecomplexity::pipeline::analyze_protocol;
use pp_statecomplexity::Section8Constants;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Two analyses at a time, one per hardware thread, for the reason given
/// at `explore::STREAMS`.
const STREAMS: usize = 2;
const NOMINAL_PASS_S: f64 = 0.55;
/// 6 passes of 17 analyses leave 10 samples beyond the p90.
const MIN_PASSES: usize = 6;
const SETUP_REPS: usize = 9;
/// The analyses the set-up warm-up skips.
const HEAVY: [&str; 3] = [
    "binary-threshold(n=2)",
    "binary-threshold(n=3)",
    "flock-unary(n=5)",
];

/// The pinned outcome of one analysis: control-net states and edges, and
/// the total-cycle length.
type Shape = (Option<usize>, Option<usize>, Option<usize>);

/// One analysis of the slice.
struct Entry {
    label: String,
    protocol: Protocol,
    pinned: Shape,
}

fn slice() -> Vec<Entry> {
    let mut protocols: Vec<(String, Protocol)> = Vec::new();
    for n in 2..=4u64 {
        for entry in counting_entries(n) {
            if !(n == 4 && entry.family == "binary-threshold") {
                protocols.push((format!("{}(n={n})", entry.family), entry.protocol));
            }
        }
    }
    for entry in other_entries() {
        protocols.push((entry.family.to_string(), entry.protocol));
    }
    protocols.push(("flock-unary(n=5)".into(), flock::flock_of_birds_unary(5)));
    protocols.push((
        "flock-doubling(k=3)".into(),
        flock::flock_of_birds_doubling(3),
    ));
    protocols
        .into_iter()
        .map(|(label, protocol)| {
            let pinned = pinned(&label);
            Entry {
                label,
                protocol,
                pinned,
            }
        })
        .collect()
}

/// The control-net shape every analysis must reproduce.
fn pinned(label: &str) -> Shape {
    let cycle = |edges: usize| (Some(1), Some(edges), Some(edges));
    match label {
        "example-4.2(n=2)" | "example-4.2(n=3)" | "example-4.2(n=4)" => (Some(1), Some(0), None),
        "example-4.1(n=2)" => cycle(2),
        "example-4.1(n=3)" | "flock-unary(n=2)" | "flock-doubling(n=2)" => cycle(3),
        "example-4.1(n=4)" | "binary-threshold(n=2)" | "binary-threshold(n=3)" | "majority" => {
            cycle(4)
        }
        "flock-doubling(n=4)" => cycle(5),
        "flock-unary(n=3)" => cycle(6),
        "flock-doubling(k=3)" => cycle(7),
        "flock-unary(n=4)" => cycle(10),
        "flock-unary(n=5)" => cycle(15),
        "modulo-3" => (Some(3), Some(9), Some(15)),
        other => unreachable!("no pinned shape for {other}"),
    }
}

struct Inputs {
    entries: Vec<Entry>,
    jobs: Vec<usize>,
}

fn setup(seed: u64, passes: usize) -> Inputs {
    let entries = slice();
    let jobs = interleaved_passes(seed, "pipeline-s8", entries.len(), passes);
    // Warm-up: every analysis but the three that take a third of a second
    // or more each (a whole pass would be 1.4 s per set-up).
    for entry in &entries {
        if !HEAVY.contains(&entry.label.as_str()) {
            black_box(analyze_protocol(
                &entry.protocol,
                &ExplorationLimits::default(),
            ));
        }
    }
    Inputs { entries, jobs }
}

fn check(report: &mut Report, entry: &Entry, complete: bool, shape: Shape) {
    report.op(complete && shape == entry.pinned, || {
        format!(
            "pipeline-s8 {}: complete={complete} (states, edges, cycle)={shape:?}, pinned {:?}",
            entry.label, entry.pinned
        )
    });
}

/// One untraced analysis through the library entry point.
fn analyze(entry: &Entry, report: &mut Report) {
    let result = analyze_protocol(&entry.protocol, &ExplorationLimits::default());
    let shape = (
        result.control_states,
        result.control_edges,
        result.total_cycle_length,
    );
    check(report, entry, result.is_complete(), shape);
}

/// The same steps as `analyze_protocol`, called layer by layer from here
/// so each layer gets its own span.
fn analyze_traced(
    entry: &Entry,
    job: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (bool, Shape) {
    let limits = ExplorationLimits::default();
    let protocol = &entry.protocol;
    let net = protocol.net();
    let non_initial: BTreeSet<StateId> = protocol
        .states()
        .filter(|s| !protocol.initial_states().contains(s))
        .collect();
    let restricted = net.restrict(&non_initial);
    let leaders = protocol.leaders().restrict(&non_initial);
    let witness = tracer.time("bottom.witness", job, || {
        find_bottom_witness_in(&mut Analysis::new(&restricted), &leaders, &limits)
    });
    let mut shape: Shape = (None, None, None);
    if let Some(witness) = &witness {
        let control = tracer.time("control.component", job, || {
            ControlNet::from_component(net, &witness.q_places, &witness.alpha, &limits)
        });
        if let Some(control) = control {
            shape.0 = Some(control.num_control_states());
            shape.1 = Some(control.num_edges());
            let cycle = tracer.time("control.total_cycle", job, || {
                control
                    .control_state_index(&witness.alpha)
                    .and_then(|anchor| control.total_cycle(anchor))
            });
            if let Some(cycle) = cycle {
                shape.2 = Some(cycle.len());
                let mut parikh = control.parikh(&cycle);
                for count in &mut parikh {
                    *count *= 8;
                }
                tracer.time("cycles.shrink", job, || {
                    black_box(
                        shrink_multicycle(
                            &control,
                            &parikh,
                            &BTreeSet::new(),
                            4,
                            &HilbertConfig::default(),
                        )
                        .ok(),
                    )
                });
            }
        }
    }
    tracer.time("pipeline.bounds", job, || {
        black_box(theorem_4_3_bound_for_protocol(protocol));
        black_box(theorem_6_1_bound(&restricted, &leaders));
        black_box(Section8Constants::for_protocol(protocol));
    });
    // `is_complete`: a witness and, when the control net has edges, a
    // total cycle.
    let complete = witness.is_some() && (shape.1.unwrap_or(0) == 0 || shape.2.is_some());
    check(report, entry, complete, shape);
    (complete, shape)
}

/// The end-to-end run. With `trace`, passes alternate between untraced
/// (`analyze_protocol`) and traced (the same steps, spanned) and only the
/// tracing overhead is reported.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let passes = passes_for(seconds, NOMINAL_PASS_S, MIN_PASSES);
    let (inputs, setup_s) = setup_median(SETUP_REPS, || setup(seed, passes));
    let per_pass = inputs.entries.len();
    let (timings, cpu) = timed_passes(
        &inputs.jobs,
        per_pass,
        STREAMS,
        trace,
        report,
        |job, tracer, checks| {
            let entry = &inputs.entries[job];
            if tracer.is_enabled() {
                analyze_traced(entry, job, tracer, checks);
            } else {
                analyze(entry, checks);
            }
            1.0
        },
    );
    report_run(report, trace, STREAMS, &timings, setup_s, &cpu);
}

/// Per-layer metrics from two traced passes over the slice.
pub fn layers(seed: u64, report: &mut Report) {
    const PASSES: usize = 2;
    let inputs = setup(seed, PASSES);
    let mut tracer = Tracer::new(true);
    let (mut complete, mut states, mut edges) = (0usize, 0usize, 0usize);
    for (index, &job) in inputs.jobs.iter().enumerate() {
        let (done, shape) = analyze_traced(&inputs.entries[job], job, &mut tracer, report);
        if index < inputs.entries.len() {
            complete += usize::from(done);
            states += shape.0.unwrap_or(0);
            edges += shape.1.unwrap_or(0);
        }
    }
    let analyses = inputs.entries.len() as f64;
    let per_analysis = |name: &str| tracer.median_sum(name) / analyses;
    report.metric(
        "bottom.witness_ms",
        per_analysis("bottom.witness") * 1e3,
        "ms",
    );
    report.metric(
        "control.component_us",
        per_analysis("control.component") * 1e6,
        "us",
    );
    report.metric(
        "control.total_cycle_us",
        per_analysis("control.total_cycle") * 1e6,
        "us",
    );
    report.metric("control.states", states as f64, "count");
    report.metric("control.edges", edges as f64, "count");
    report.metric(
        "cycles.shrink_ms",
        per_analysis("cycles.shrink") * 1e3,
        "ms",
    );
    report.metric("pipeline.complete", complete as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_has_17_pinned_analyses() {
        let entries = slice();
        assert_eq!(entries.len(), 17);
        let mut labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 17);
    }
}

//! `explore-cold`: single-threaded cold reachability builds of the
//! catalog's largest finite state spaces.
//!
//! Each job compiles the net, builds the graph, reads every node and every
//! successor list once, then drops the graph. The seed orders the jobs
//! inside each pass; the instances are fixed, so every seed does the same
//! work.

use crate::host;
use crate::report::{passes_for, report_run, setup_median, timed_passes, Report};
use crate::rng::interleaved_passes;
use crate::stats::median;
use crate::trace::Tracer;
use pp_multiset::Multiset;
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::{Protocol, StateId};
use pp_protocols::{flock, threshold};
use std::hint::black_box;
use std::time::Instant;

/// One pinned instance and its exact graph shape.
pub struct Instance {
    pub family: &'static str,
    pub n: u64,
    pub agents: u64,
    pub nodes: usize,
    pub edges: usize,
    pub levels: usize,
}

/// The instances, from 4.9k to 51k nodes.
pub const INSTANCES: [Instance; 5] = [
    Instance {
        family: "flock-unary",
        n: 5,
        agents: 30,
        nodes: 27_789,
        edges: 243_939,
        levels: 46,
    },
    Instance {
        family: "flock-unary",
        n: 5,
        agents: 34,
        nodes: 50_982,
        edges: 476_995,
        levels: 52,
    },
    Instance {
        family: "flock-unary",
        n: 6,
        agents: 26,
        nodes: 20_183,
        edges: 173_110,
        levels: 43,
    },
    Instance {
        family: "binary-threshold",
        n: 6,
        agents: 40,
        nodes: 8_366,
        edges: 43_585,
        levels: 41,
    },
    Instance {
        family: "binary-threshold",
        n: 7,
        agents: 36,
        nodes: 4_861,
        edges: 24_151,
        levels: 37,
    },
];

/// The instance with the most nodes (the memory figures use it).
const LARGEST: usize = 1;

/// Two single-threaded builds at a time, one per hardware thread of the
/// 2-vCPU host, so each job gets twice the repeats to find its best time
/// in: over six seeds the best-time throughput spread 0.9% with two
/// streams and 3.1% with one.
const STREAMS: usize = 2;
const NOMINAL_PASS_S: f64 = 0.13;
/// 20 passes of 5 jobs leave 10 samples beyond the p90.
const MIN_PASSES: usize = 20;
const SETUP_REPS: usize = 9;

fn protocol_of(instance: &Instance) -> Protocol {
    match instance.family {
        "flock-unary" => flock::flock_of_birds_unary(instance.n),
        "binary-threshold" => threshold::binary_threshold_with_leader(instance.n),
        other => unreachable!("no pinned family {other}"),
    }
}

struct Inputs {
    /// Per instance: its protocol and initial configuration.
    nets: Vec<(Protocol, Multiset<StateId>)>,
    jobs: Vec<usize>,
}

fn inputs(seed: u64, passes: usize) -> Inputs {
    let nets: Vec<(Protocol, Multiset<StateId>)> = INSTANCES
        .iter()
        .map(|instance| {
            let protocol = protocol_of(instance);
            let initial = protocol.initial_config_with_count(instance.agents);
            (protocol, initial)
        })
        .collect();
    Inputs {
        nets,
        jobs: interleaved_passes(seed, "explore-cold", INSTANCES.len(), passes),
    }
}

/// One untimed pass, so allocator and page state are settled before the
/// first timed job.
fn warm_up(inputs: &Inputs) {
    for &job in &inputs.jobs[..INSTANCES.len()] {
        black_box(cold_job(inputs, job, &mut Tracer::new(false), false));
    }
}

fn setup(seed: u64, passes: usize) -> Inputs {
    let inputs = inputs(seed, passes);
    warm_up(&inputs);
    inputs
}

/// What one job observed.
struct Shape {
    nodes: usize,
    edges: usize,
    levels: usize,
    complete: bool,
    row_bytes: usize,
    rss_growth: u64,
}

/// One cold job: compile, build, first touch of every node view, walk of
/// every successor list, drop. With `measure_rss`, also the growth of the
/// resident set from before the compile to just before the drop.
fn cold_job(inputs: &Inputs, job: usize, tracer: &mut Tracer, measure_rss: bool) -> Shape {
    let (protocol, initial) = &inputs.nets[job];
    let rss_before = if measure_rss { host::rss_bytes() } else { 0 };
    let mut analysis = tracer.time("engine.compile", job, || Analysis::new(protocol.net()));
    let graph = tracer.time("explore.build", job, || {
        analysis
            .reachability([initial.clone()])
            .limits(ExplorationLimits::default())
            .parallelism(Parallelism::Sequential)
            .run()
    });
    tracer.time("explore.view", job, || {
        for id in graph.ids() {
            black_box(graph.node(id));
        }
    });
    let (edges, levels) = tracer.time("explore.walk", job, || {
        let mut edges = 0usize;
        let mut deepest = 0usize;
        for id in graph.ids() {
            edges += black_box(graph.successors(id)).len();
            deepest = deepest.max(graph.depth_of(id));
        }
        (edges, deepest + 1)
    });
    let rss_growth = if measure_rss {
        host::rss_bytes().saturating_sub(rss_before)
    } else {
        0
    };
    let shape = Shape {
        nodes: graph.len(),
        edges,
        levels,
        complete: graph.completion().is_complete(),
        row_bytes: graph.bytes_per_node(),
        rss_growth,
    };
    tracer.time("explore.drop", job, || {
        drop(graph);
        drop(analysis);
    });
    shape
}

fn check(report: &mut Report, job: usize, shape: &Shape) {
    let pinned = &INSTANCES[job];
    report.op(
        shape.complete
            && shape.nodes == pinned.nodes
            && shape.edges == pinned.edges
            && shape.levels == pinned.levels,
        || {
            format!(
                "explore-cold {}(n={})@{}: complete={} nodes={} edges={} levels={}, pinned {} {} {}",
                pinned.family,
                pinned.n,
                pinned.agents,
                shape.complete,
                shape.nodes,
                shape.edges,
                shape.levels,
                pinned.nodes,
                pinned.edges,
                pinned.levels
            )
        },
    );
}

/// The end-to-end run. With `trace`, passes alternate between untraced and
/// traced and only the tracing overhead is reported.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let passes = passes_for(seconds, NOMINAL_PASS_S, MIN_PASSES);
    let (inputs, setup_s) = setup_median(SETUP_REPS, || setup(seed, passes));
    let (timings, cpu) = timed_passes(
        &inputs.jobs,
        INSTANCES.len(),
        STREAMS,
        trace,
        report,
        |job, tracer, checks| {
            let shape = cold_job(&inputs, job, tracer, false);
            check(checks, job, &shape);
            shape.nodes as f64
        },
    );
    report_run(report, trace, STREAMS, &timings, setup_s, &cpu);
}

/// Per-layer metrics from traced passes over the same instances, plus the
/// parallel-engine and session experiments.
pub fn layers(seed: u64, report: &mut Report) {
    const PASSES: usize = 3;
    let inputs = inputs(seed, PASSES);
    // Memory first, while no earlier build has grown the heap: the
    // allocator reuses freed pages, so later builds grow the resident set
    // little or not at all.
    let first = cold_job(&inputs, LARGEST, &mut Tracer::new(false), true);
    check(report, LARGEST, &first);
    let rss_bytes_per_node = first.rss_growth as f64 / first.nodes as f64;
    warm_up(&inputs);
    let mut tracer = Tracer::new(true);
    let mut totals = (0usize, 0usize, 0usize);
    for (index, &job) in inputs.jobs.iter().enumerate() {
        let shape = cold_job(&inputs, job, &mut tracer, false);
        check(report, job, &shape);
        if index < INSTANCES.len() {
            totals.0 += shape.nodes;
            totals.1 += shape.edges;
            totals.2 += shape.levels;
        }
    }
    let (nodes, edges, levels) = totals;
    let per_node = |name: &str| tracer.median_sum(name) * 1e9 / nodes as f64;
    report.metric(
        "engine.compile_us",
        tracer.median_sum("engine.compile") * 1e6 / INSTANCES.len() as f64,
        "us",
    );
    report.metric("explore.build_ns_per_node", per_node("explore.build"), "ns");
    report.metric("explore.view_ns_per_node", per_node("explore.view"), "ns");
    report.metric(
        "explore.walk_ns_per_edge",
        tracer.median_sum("explore.walk") * 1e9 / edges as f64,
        "ns",
    );
    report.metric("explore.drop_ns_per_node", per_node("explore.drop"), "ns");
    report.metric("explore.rss_bytes_per_node", rss_bytes_per_node, "B");
    report.metric("explore.row_bytes_per_node", first.row_bytes as f64, "B");
    report.metric("explore.nodes", nodes as f64, "count");
    report.metric("explore.edges", edges as f64, "count");
    report.metric("explore.levels", levels as f64, "count");
    parallel_and_session(&inputs, report);
}

/// `Sequential` against `Parallel(2)` builds, warm re-queries and resumed
/// half-budget builds, each on a fresh session per repeat.
fn parallel_and_session(inputs: &Inputs, report: &mut Report) {
    const REPS: usize = 3;
    let mut sequential = vec![Vec::new(); INSTANCES.len()];
    let mut parallel = vec![Vec::new(); INSTANCES.len()];
    let mut warm = vec![Vec::new(); INSTANCES.len()];
    let mut resume = vec![Vec::new(); INSTANCES.len()];
    for _ in 0..REPS {
        for (job, (protocol, initial)) in inputs.nets.iter().enumerate() {
            for (mode, times) in [
                (Parallelism::Sequential, &mut sequential[job]),
                (Parallelism::Parallel(2), &mut parallel[job]),
            ] {
                let mut analysis = Analysis::new(protocol.net());
                let start = Instant::now();
                let graph = analysis
                    .reachability([initial.clone()])
                    .parallelism(mode)
                    .run();
                times.push(start.elapsed().as_secs_f64());
                report.op(graph.len() == INSTANCES[job].nodes, || {
                    format!("{mode:?} build of instance {job}: {} nodes", graph.len())
                });
                if mode == Parallelism::Sequential {
                    let start = Instant::now();
                    let again = analysis.reachability([initial.clone()]).run();
                    warm[job].push(start.elapsed().as_secs_f64());
                    report.op(again.len() == graph.len(), || "warm re-query".to_string());
                }
            }
            let nodes = INSTANCES[job].nodes;
            let mut analysis = Analysis::new(protocol.net());
            let half = analysis
                .reachability([initial.clone()])
                .limits(ExplorationLimits::with_max_configurations(nodes / 2))
                .run();
            let stored = half.len();
            drop(half);
            let start = Instant::now();
            let full = analysis.reachability([initial.clone()]).run();
            let secs = start.elapsed().as_secs_f64();
            resume[job].push(secs / (nodes - stored) as f64);
            report.op(
                full.len() == nodes && full.completion().is_complete(),
                || format!("resumed build of instance {job}: {} nodes", full.len()),
            );
        }
    }
    let sum_medians = |times: &[Vec<f64>]| times.iter().map(|t| median(t)).sum::<f64>();
    report.metric(
        "explore.par2_speedup",
        sum_medians(&sequential) / sum_medians(&parallel),
        "x",
    );
    report.metric(
        "session.warm_query_us",
        sum_medians(&warm) * 1e6 / INSTANCES.len() as f64,
        "us",
    );
    report.metric(
        "session.resume_ns_per_node",
        sum_medians(&resume) * 1e9 / INSTANCES.len() as f64,
        "ns",
    );
}

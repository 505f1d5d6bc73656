//! Parallel-vs-sequential exploration ablation (E13).
//!
//! Times full reachability-graph construction on the map-then-commit
//! parallel engine against the sequential dense engine for the catalog's
//! largest instances, prints the comparison table and writes the numbers
//! to `BENCH_parallel_explore.json` so the speedup is tracked across PRs.
//! Each instance is timed sequential and `Parallel(auto)`, and every timed
//! pair is also checked for graph equality — the parallel engine's
//! determinism contract.
//!
//! `--check` skips the timing loops and instead verifies, on moderate
//! instances, that the parallel engine produces node-for-node,
//! edge-for-edge identical graphs for worker counts 2–4, exiting nonzero
//! on any divergence (wired into CI). `Parallel(1)` runs the sequential
//! engine, so it has nothing to check.

use pp_bench::{fmt_f64, Table};
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::Protocol;
use pp_protocols::{flock, leaders_n, threshold};
use std::time::Instant;

struct Row {
    family: &'static str,
    agents: u64,
    nodes: usize,
    /// Stored arena bytes per node under the active (packed) row layout.
    bytes_per_node: usize,
    seq_ns: u128,
    par_ns: u128,
}

/// Best (minimum) wall-clock nanoseconds of `runs` *interleaved* executions
/// of each workload.
///
/// The workloads are timed round-robin and the minimum is kept: on shared
/// or CPU-throttled hosts (this repo's CI containers are both), individual
/// samples vary by multiples, and the interleaved minimum is the standard
/// way to compare workloads under the same — best available — conditions.
fn min_ns_interleaved<const N: usize>(
    runs: usize,
    workloads: &mut [&mut dyn FnMut() -> usize; N],
) -> [u128; N] {
    let mut best = [u128::MAX; N];
    for _ in 0..runs {
        for (workload, best) in workloads.iter_mut().zip(best.iter_mut()) {
            let start = Instant::now();
            std::hint::black_box(workload());
            *best = (*best).min(start.elapsed().as_nanos());
        }
    }
    best
}

/// The `--check` instances: moderate graphs at worker counts 2 (one
/// spawned worker), 3 (an odd count) and 4 (oversubscribed on a 2-thread
/// host).
fn run_check(instances: &[(&'static str, Protocol, Vec<u64>)]) -> bool {
    let limits = ExplorationLimits::default();
    let mut ok = true;
    for (family, protocol, agent_counts) in instances {
        for &agents in agent_counts {
            let initial = protocol.initial_config_with_count(agents);
            let sequential = Analysis::new(protocol.net())
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            for workers in [2usize, 3, 4] {
                let parallel = Analysis::new(protocol.net())
                    .reachability([initial.clone()])
                    .limits(limits)
                    .parallelism(Parallelism::Parallel(workers))
                    .run();
                if sequential.identical_to(&parallel) {
                    println!(
                        "check ok: {family} agents={agents} workers={workers} nodes={}",
                        sequential.len()
                    );
                } else {
                    eprintln!(
                        "CHECK FAILED: {family} agents={agents} workers={workers}: \
                         sequential {} nodes vs parallel {} nodes",
                        sequential.len(),
                        parallel.len()
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() {
    let check_only = std::env::args().any(|arg| arg == "--check");
    let auto = Parallelism::auto();
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    if check_only {
        let instances: Vec<(&'static str, Protocol, Vec<u64>)> = vec![
            ("example-4.2(n=3)", leaders_n::example_4_2(3), vec![20]),
            ("flock-unary(n=5)", flock::flock_of_birds_unary(5), vec![22]),
            (
                "binary-threshold(n=6)",
                threshold::binary_threshold_with_leader(6),
                vec![25],
            ),
        ];
        if run_check(&instances) {
            println!("parallel/sequential equivalence check passed");
        } else {
            eprintln!("parallel/sequential equivalence check FAILED");
            std::process::exit(1);
        }
        return;
    }

    let limits = ExplorationLimits::default();
    // Interleaved minima over many rounds: the container hosts this suite
    // benches on deliver between ~1 and N effective cores unpredictably,
    // and the best window is the only sample where "how fast is each
    // engine" is actually being measured rather than "how throttled was
    // the host at that instant".
    let runs = 9;
    let mut rows: Vec<Row> = Vec::new();

    // The catalog's largest tractable instances: tens of thousands of
    // nodes, the regime `pp_population::verify` switches to within-input
    // parallelism for. One small instance is kept on purpose to document
    // where the sequential path remains the right default.
    let instances: [(&'static str, Protocol, Vec<u64>); 3] = [
        ("example-4.2(n=3)", leaders_n::example_4_2(3), vec![40]),
        (
            "flock-unary(n=5)",
            flock::flock_of_birds_unary(5),
            vec![30, 34],
        ),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            vec![30, 40],
        ),
    ];
    for (family, protocol, agent_counts) in instances {
        for agents in agent_counts {
            let initial = protocol.initial_config_with_count(agents);
            let net = protocol.net();
            let sequential = Analysis::new(net)
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            let parallel = Analysis::new(net)
                .reachability([initial.clone()])
                .limits(limits)
                .parallelism(auto)
                .run();
            assert!(
                sequential.identical_to(&parallel),
                "parallel and sequential graphs diverge on {family} at {agents} agents"
            );
            let nodes = sequential.len();
            let bytes_per_node = sequential.bytes_per_node();
            let [seq_ns, par_ns] = min_ns_interleaved(
                runs,
                &mut [
                    // Cold sessions per sample: each timed build includes
                    // the compile, as the historical entry points did.
                    &mut || {
                        Analysis::new(net)
                            .reachability([initial.clone()])
                            .limits(limits)
                            .run()
                            .len()
                    },
                    &mut || {
                        Analysis::new(net)
                            .reachability([initial.clone()])
                            .limits(limits)
                            .parallelism(auto)
                            .run()
                            .len()
                    },
                ],
            );
            rows.push(Row {
                family,
                agents,
                nodes,
                bytes_per_node,
                seq_ns,
                par_ns,
            });
        }
    }

    let mut table = Table::new([
        "protocol",
        "agents",
        "nodes",
        "B/node",
        "sequential (ms)",
        "parallel (ms)",
        "speedup",
    ]);
    for row in &rows {
        table.row([
            row.family.to_owned(),
            row.agents.to_string(),
            row.nodes.to_string(),
            row.bytes_per_node.to_string(),
            fmt_f64(row.seq_ns as f64 / 1e6),
            fmt_f64(row.par_ns as f64 / 1e6),
            fmt_f64(row.seq_ns as f64 / row.par_ns.max(1) as f64),
        ]);
    }
    table.print(&format!(
        "Sequential vs map-then-commit parallel exploration ({} workers, {host_threads} hardware threads)",
        auto.workers()
    ));

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"family\": \"{}\", \"agents\": {}, \"nodes\": {}, \"bytes_per_node\": {}, \"seq_ns\": {}, \"par_ns\": {}, \"speedup\": {:.3}, \"workers\": {}, \"host_threads\": {}}}{}\n",
            row.family,
            row.agents,
            row.nodes,
            row.bytes_per_node,
            row.seq_ns,
            row.par_ns,
            row.seq_ns as f64 / row.par_ns.max(1) as f64,
            auto.workers(),
            host_threads,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    let path = "BENCH_parallel_explore.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
}

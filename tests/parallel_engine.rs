//! Determinism properties of the parallel engine.
//!
//! The contract of `Parallelism` is that it is *purely* a speed knob:
//! every fixpoint — forward exploration, backward coverability saturation,
//! Karp–Miller construction, and the verifier built on top of them — must
//! return bit-identical results for every mode and worker count. These
//! tests drive the three consumers over the protocol catalog and random
//! nets, including the truncated regimes where nondeterministic numbering
//! would immediately show up.

use pp_multiset::Multiset;
use pp_petri::{
    Analysis, Completion, ExplorationLimits, Parallelism, PetriNet, ReachabilityGraph, Transition,
};
use pp_population::stable::ProtocolStability;
use pp_population::verify::{verify_input, verify_input_with};
use pp_population::Predicate;
use pp_protocols::{counting_entries, flock};
use proptest::prelude::*;
use std::sync::Arc;

/// A cold session build (compile + explore) at the given parallelism.
fn build<P: Clone + Ord>(
    net: &PetriNet<P>,
    initial: &Multiset<P>,
    limits: &ExplorationLimits,
    parallelism: Parallelism,
) -> Arc<ReachabilityGraph<P>> {
    Analysis::new(net)
        .parallelism(parallelism)
        .reachability([initial.clone()])
        .limits(*limits)
        .run()
}

/// A random small net over places `0..places` plus a random initial
/// configuration over the same places (mirrors the generator of
/// `dense_sparse_equivalence.rs`).
fn arb_net_and_initial() -> impl Strategy<Value = (PetriNet<u8>, Multiset<u8>)> {
    (2u8..5).prop_flat_map(|places| {
        let transition = (
            proptest::collection::btree_map(0..places, 1u64..3, 1..3),
            proptest::collection::btree_map(0..places, 1u64..3, 0..3),
        );
        (
            proptest::collection::vec(transition, 1..5),
            proptest::collection::btree_map(0..places, 1u64..4, 1..4),
        )
            .prop_map(|(transitions, initial)| {
                let net = PetriNet::from_transitions(transitions.into_iter().map(|(pre, post)| {
                    Transition::new(Multiset::from_pairs(pre), Multiset::from_pairs(post))
                }));
                (net, Multiset::from_pairs(initial))
            })
    })
}

#[test]
fn catalog_graphs_are_identical_across_worker_counts() {
    let limits = ExplorationLimits::default();
    for entry in counting_entries(2) {
        if entry.protocol.initial_states().len() != 1 {
            continue;
        }
        let initial = entry.protocol.initial_config_with_count(6);
        let net = entry.protocol.net();
        let reference = build(net, &initial, &limits, Parallelism::Parallel(2));
        for workers in [1usize, 3, 7] {
            let other = build(net, &initial, &limits, Parallelism::Parallel(workers));
            assert!(
                reference.identical_to(&other),
                "graphs differ at {workers} workers"
            );
        }
    }
}

/// Asserts that `Parallel(2..=4)` builds of `net` from `initial` under
/// `limits` equal the sequential one, that the sequential one stopped for
/// `expected`, and that the last BFS level it expanded was wide enough
/// (512 nodes) for the parallel engine to map it on its workers.
fn assert_dispatched_truncation_identical<P: Clone + Ord + Send + Sync>(
    net: &PetriNet<P>,
    initial: &Multiset<P>,
    limits: &ExplorationLimits,
    expected: Completion,
) {
    let sequential = build(net, initial, limits, Parallelism::Sequential);
    assert_eq!(sequential.completion(), expected, "{limits:?}");
    let mut level_sizes = Vec::new();
    for id in sequential.ids() {
        let depth = sequential.depth_of(id);
        level_sizes.resize(level_sizes.len().max(depth + 1), 0usize);
        level_sizes[depth] += 1;
    }
    // The deepest level is stored but not expanded (depth cap) or only
    // partly interned (budget); the one before it was expanded last.
    assert!(
        level_sizes.len() >= 2 && level_sizes[level_sizes.len() - 2] >= 512,
        "the last expanded level is too narrow to be mapped under {limits:?}: {level_sizes:?}"
    );
    for workers in [2usize, 3, 4] {
        let parallel = build(net, initial, limits, Parallelism::Parallel(workers));
        assert!(
            sequential.identical_to(&parallel),
            "truncated graphs differ: {limits:?} workers {workers}"
        );
    }
}

#[test]
fn truncated_dispatched_levels_stay_identical() {
    // Levels wide enough that the parallel engine actually maps them on
    // spawned workers (past its minimum level size), with a limit cutting
    // exploration off — the regime where a commit replaying discoveries
    // out of sequential order would keep different nodes or record
    // different dirty nodes. First the configuration budget, running out
    // while the levels of 530 and 590 nodes are committed.
    let protocol = flock::flock_of_birds_unary(5);
    let initial = protocol.initial_config_with_count(22);
    for budget in [2500usize, 3000] {
        let limits = ExplorationLimits::with_max_configurations(budget);
        assert_dispatched_truncation_identical(
            protocol.net(),
            &initial,
            &limits,
            Completion::ConfigBudget,
        );
    }
    // Then the agent and depth caps, on the same protocol plus one
    // agent-creating transition: with an agent cap, every mapped level
    // holds nodes over it (stored, never expanded), and the depth cap
    // stops the search right after a mapped level.
    let seed = *initial.support().next().expect("one initial state");
    let creating =
        PetriNet::from_transitions(protocol.net().transitions().iter().cloned().chain([
            Transition::new(
                Multiset::from_pairs([(seed, 1)]),
                Multiset::from_pairs([(seed, 2)]),
            ),
        ]));
    let capped = [
        (Some(22), Some(16), Completion::AgentCap),
        (Some(23), Some(15), Completion::AgentCap),
        (None, Some(14), Completion::DepthCap),
    ];
    for (max_agents, max_depth, expected) in capped {
        let limits = ExplorationLimits {
            max_agents,
            max_depth,
            ..ExplorationLimits::default()
        };
        assert_dispatched_truncation_identical(&creating, &initial, &limits, expected);
    }
}

#[test]
fn resumed_dispatched_levels_match_cold_builds() {
    // Resume across the budget regimes where the parallel engine actually
    // maps levels on workers: truncate mid-level at a dispatched budget,
    // then raise the budget and compare against cold builds — for the
    // sequential engine and for worker counts whose chunk boundaries do
    // not align with the frontier.
    let protocol = flock::flock_of_birds_unary(5);
    let initial = protocol.initial_config_with_count(22);
    let small = ExplorationLimits::with_max_configurations(1500);
    let large = ExplorationLimits::with_max_configurations(4000);
    for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
        let cold = build(protocol.net(), &initial, &large, parallelism);
        let mut analysis = Analysis::new(protocol.net()).parallelism(parallelism);
        let truncated = analysis.reachability([initial.clone()]).limits(small).run();
        assert!(!truncated.is_complete());
        drop(truncated);
        let resumed = analysis.reachability([initial.clone()]).limits(large).run();
        assert!(
            resumed.identical_to(&cold),
            "resumed graph differs from cold at {parallelism:?}"
        );
    }
}

#[test]
fn parallel_karp_miller_matches_sequential_on_a_large_tree() {
    // flock-of-birds at 12 agents yields waves comfortably past the
    // parallel threshold, so this actually exercises the fan-out path.
    let protocol = flock::flock_of_birds_unary(4);
    let start = protocol.initial_config_with_count(12);
    let sequential = Analysis::new(protocol.net())
        .karp_miller(start.clone())
        .max_nodes(200_000)
        .run();
    let parallel = Analysis::new(protocol.net())
        .karp_miller(start)
        .max_nodes(200_000)
        .parallelism(Parallelism::Parallel(3))
        .run();
    assert_eq!(sequential.markings(), parallel.markings());
    assert_eq!(sequential.is_complete(), parallel.is_complete());
    assert!(sequential.markings().len() > 64);
}

#[test]
fn parallel_verifier_reaches_the_same_verdicts() {
    for entry in counting_entries(2) {
        if entry.protocol.initial_states().len() != 1 {
            continue;
        }
        let protocol = &entry.protocol;
        let stability = ProtocolStability::new(protocol);
        let initial_state = *protocol.initial_states().iter().next().unwrap();
        let predicate = Predicate::counting(protocol.state_name(initial_state), 2);
        let limits = ExplorationLimits::default();
        for count in [0u64, 3, 17] {
            let name = protocol.state_name(initial_state).to_owned();
            let input = Multiset::from_pairs([(name, count)]);
            let sequential = verify_input(protocol, &stability, &predicate, &input, &limits);
            let parallel = verify_input_with(
                protocol,
                &stability,
                &predicate,
                &input,
                &limits,
                Parallelism::Parallel(3),
            );
            assert_eq!(sequential.verdict, parallel.verdict, "input {count}");
            assert_eq!(
                sequential.explored_configurations,
                parallel.explored_configurations
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_truncated_explorations_are_identical((net, initial) in arb_net_and_initial()) {
        // Budget truncation is the adversarial case: a nondeterministic
        // numbering would keep *different nodes* once the budget cuts off.
        for budget in [7usize, 100] {
            let limits = ExplorationLimits {
                max_configurations: budget,
                max_agents: Some(20),
                max_depth: Some(40),
            };
            let sequential = build(&net, &initial, &limits, Parallelism::Sequential);
            for workers in [1usize, 3, 4] {
                let parallel = build(&net, &initial, &limits, Parallelism::Parallel(workers));
                prop_assert!(
                    sequential.identical_to(&parallel),
                    "graphs differ: budget {} workers {}",
                    budget,
                    workers
                );
            }
        }
    }

    #[test]
    fn random_agent_truncated_explorations_are_identical((net, initial) in arb_net_and_initial()) {
        // Agent-budget truncation alone (no configuration budget): nodes
        // over the cap are stored but never expanded, and the parallel
        // commit must record the exact same incompleteness and edges.
        let limits = ExplorationLimits {
            max_configurations: 5_000,
            max_agents: Some(12),
            max_depth: None,
        };
        let sequential = build(&net, &initial, &limits, Parallelism::Sequential);
        for workers in [1usize, 2, 3] {
            let parallel = build(&net, &initial, &limits, Parallelism::Parallel(workers));
            prop_assert!(
                sequential.identical_to(&parallel),
                "agent-truncated graphs differ at {} workers",
                workers
            );
        }
    }

    #[test]
    fn random_karp_miller_trees_are_identical((net, initial) in arb_net_and_initial()) {
        let sequential = Analysis::new(&net).karp_miller(initial.clone()).max_nodes(2_000).run();
        for workers in [1usize, 4] {
            let parallel = Analysis::new(&net)
                .karp_miller(initial.clone())
                .max_nodes(2_000)
                .parallelism(Parallelism::Parallel(workers))
                .run();
            prop_assert_eq!(sequential.markings(), parallel.markings());
            prop_assert_eq!(sequential.completion(), parallel.completion());
        }
    }

    #[test]
    fn random_coverability_bases_are_identical(
        (net, initial) in arb_net_and_initial(),
        target_place in 0u8..5,
        target_count in 1u64..3,
    ) {
        let target = Multiset::from_pairs([(target_place, target_count)]);
        let sequential = Analysis::new(&net).coverability(target.clone()).run();
        for workers in [1usize, 4] {
            let parallel = Analysis::new(&net)
                .coverability(target.clone())
                .parallelism(Parallelism::Parallel(workers))
                .run();
            prop_assert_eq!(sequential.basis(), parallel.basis());
            prop_assert_eq!(
                sequential.is_coverable_from(&initial),
                parallel.is_coverable_from(&initial)
            );
        }
    }

    #[test]
    fn random_resumes_are_identical_across_worker_counts(
        (net, initial) in arb_net_and_initial(),
        budget in 2usize..30,
    ) {
        // Budget-, agent- and depth-capped truncations resumed in two
        // steps, starting from graphs built by either engine: every stop
        // must be bit-identical to a cold build at that stop's limits.
        let stops = [
            ExplorationLimits {
                max_configurations: budget,
                max_agents: Some(8),
                max_depth: Some(3),
            },
            ExplorationLimits {
                max_configurations: budget * 4,
                max_agents: Some(14),
                max_depth: Some(8),
            },
            ExplorationLimits {
                max_configurations: 2_000,
                max_agents: Some(20),
                max_depth: None,
            },
        ];
        for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
            let mut analysis = Analysis::new(&net).parallelism(parallelism);
            for limits in &stops {
                let resumed = analysis
                    .reachability([initial.clone()])
                    .limits(*limits)
                    .run();
                let cold = build(&net, &initial, limits, parallelism);
                prop_assert!(
                    resumed.identical_to(&cold),
                    "stop {:?} diverges under {:?}",
                    limits,
                    parallelism
                );
                drop(resumed);
            }
        }
    }
}

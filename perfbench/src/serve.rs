//! `serve-closed`: two closed-loop clients over loopback TCP against a
//! fresh in-process `pp_serve` (`ServerConfig::default()` on an ephemeral
//! port).
//!
//! Each client sends rounds of 14 requests with a fixed composition, in a
//! seeded order inside the round:
//!
//! * 2 catalog reachability frames of fresh identities (cache inserts);
//! * 6 catalog reachability frames repeating one of the client's earlier
//!   identities (cache hits);
//! * one `karp-miller`, one `coverability` and one `covering-word` frame;
//! * one `net_dsl` payload with seeded `params`;
//! * one truncate-then-resume pair (budget 5, then a resume that hits the
//!   truncated session).
//!
//! So 7 of every 14 responses come from a seeded session: the hot share is
//! the same for every seed. Fresh identities come from a fixed pool split
//! between the clients, so the clients never contend for one session and
//! every seed draws the same set of identities in another order. The
//! pools hold small nets (at most 11 agents where the agents change the
//! state space). A run is a sequence of server epochs, each a fresh server
//! driven through 60 rounds per client (see [`ROUNDS`]).

use crate::host;
use crate::report::{overhead_pct, passes_for, setup_median, Figures, Report, Timings};
use crate::rng::Rng;
use crate::stats::{median, median_secs, nearest_rank};
use crate::trace::Tracer;
use pp_multiset::Multiset;
use pp_petri::batch::{Batch, BatchJob};
use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{Analysis, ExplorationLimits};
use pp_population::{Protocol, StateId};
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use pp_serve::json::{parse, Json};
use pp_serve::proto::parse_request;
use pp_serve::server::{Server, ServerConfig, ServerHandle};
use pp_serve::Client;
use std::hint::black_box;
use std::time::Instant;

const CLIENTS: usize = 2;
/// Every fresh identity stays in the server's session cache until the
/// server stops (the default pool is uncapped), so a run is a sequence of
/// server epochs: each a fresh server, set-up and warm-up, then this many
/// rounds per client, then shutdown. Memory stays at one epoch's cache.
const ROUNDS: usize = 60;
const NOMINAL_EPOCH_S: f64 = 0.45;
const SETUP_REPS: usize = 9;
/// Reachability identities each client submits during set-up, so hot
/// frames have earlier identities to repeat from the first round on.
const WARM_IDENTITIES: usize = 4;
/// Responses re-checked against a solo `Batch` run per run.
const FINGERPRINT_SAMPLES: usize = 16;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReachFresh,
    ReachHot,
    KarpMiller,
    Coverability,
    CoveringWord,
    NetDsl,
    Truncate,
    Resume,
}

/// The composition of one round; the truncate-resume pair stays adjacent.
const ROUND: [Kind; 13] = [
    Kind::ReachFresh,
    Kind::ReachFresh,
    Kind::ReachHot,
    Kind::ReachHot,
    Kind::ReachHot,
    Kind::ReachHot,
    Kind::ReachHot,
    Kind::ReachHot,
    Kind::KarpMiller,
    Kind::Coverability,
    Kind::CoveringWord,
    Kind::NetDsl,
    Kind::Truncate,
];
pub const REQUESTS_PER_ROUND: usize = ROUND.len() + 1;

impl Kind {
    /// Whether the server must answer from a cached session.
    fn hits_cache(self) -> bool {
        matches!(self, Kind::ReachHot | Kind::Resume)
    }
}

/// A job identity: catalog family or `.pnet` family, threshold, agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    pub family: &'static str,
    pub n: u64,
    pub agents: u64,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub identity: Identity,
    /// The frame; `None` for a resume, whose session token comes from the
    /// truncate response before it.
    pub frame: Option<Json>,
}

/// A finite identity pool: every family at every threshold and agent
/// count of the given inclusive ranges.
struct Pool {
    families: &'static [&'static str],
    n: (u64, u64),
    agents: (u64, u64),
}

impl Pool {
    fn capacity(&self) -> usize {
        let span = |(low, high): (u64, u64)| (high - low + 1) as usize;
        self.families.len() * span(self.n) * span(self.agents)
    }

    /// The `index`-th identity: families cycle fastest, then `n`, then
    /// agents.
    fn identity(&self, index: usize) -> Identity {
        assert!(index < self.capacity(), "identity pool exhausted");
        let families = self.families.len();
        let n_span = (self.n.1 - self.n.0 + 1) as usize;
        Identity {
            family: self.families[index % families],
            n: self.n.0 + ((index / families) % n_span) as u64,
            agents: self.agents.0 + (index / (families * n_span)) as u64,
        }
    }
}

/// Catalog reachability identities: the fresh frames draw agents 4..=8,
/// the truncate-then-resume pairs 9..=11, so the two never share a session.
const CATALOG_FAMILIES: [&str; 6] = [
    "majority",
    "modulo-3",
    "example-4.1",
    "example-4.2",
    "flock-unary",
    "binary-threshold",
];
const REACH_POOL: Pool = Pool {
    families: &CATALOG_FAMILIES,
    n: (2, 21),
    agents: (4, 8),
};
/// Without example-4.1, whose state space is a single node below n agents:
/// a budget of 5 must truncate.
const TRUNCATE_POOL: Pool = Pool {
    families: &[
        "majority",
        "modulo-3",
        "example-4.2",
        "flock-unary",
        "binary-threshold",
    ],
    n: (2, 21),
    agents: (9, 11),
};
const KARP_MILLER_POOL: Pool = Pool {
    families: &["flock-unary", "example-4.1", "majority"],
    n: (2, 21),
    agents: (4, 7),
};
/// Coverability cost does not depend on the agents, which only make the
/// identity fresh.
const COVER_POOL: Pool = Pool {
    families: &["flock-unary"],
    n: (3, 10),
    agents: (3, 62),
};
/// The covering word for `a3` has length 2 whatever the agents.
const WORD_POOL: Pool = Pool {
    families: &["flock-unary"],
    n: (3, 10),
    agents: (6, 65),
};
const DSL_POOL: Pool = Pool {
    families: &["flock-unary", "example-4.1", "binary-threshold"],
    n: (3, 22),
    agents: (4, 7),
};

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::object(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value)),
    )
}

fn catalog_frame(
    identity: Identity,
    query: &str,
    target: Option<(&str, u64)>,
    budget: Option<u64>,
) -> Json {
    let mut pairs = vec![
        ("cmd", Json::str("submit")),
        ("protocol", Json::str(identity.family)),
        ("n", Json::uint(identity.n)),
        ("agents", Json::uint(identity.agents)),
        ("query", Json::str(query)),
    ];
    if let Some((place, count)) = target {
        pairs.push(("target", obj(vec![(place, Json::uint(count))])));
    }
    if let Some(budget) = budget {
        pairs.push(("budget", Json::uint(budget)));
    }
    obj(pairs)
}

/// The `.pnet` text of a DSL family at threshold `n`.
fn dsl_def(identity: Identity) -> pp_netdsl::NetDef {
    match identity.family {
        "flock-unary" => pp_netdsl::families::flock_unary(identity.n),
        "example-4.1" => pp_netdsl::families::example_4_1(identity.n),
        "binary-threshold" => pp_netdsl::families::binary_threshold(identity.n),
        other => unreachable!("no DSL family {other}"),
    }
}

fn request(kind: Kind, identity: Identity) -> Request {
    let frame = match kind {
        Kind::ReachFresh | Kind::ReachHot => {
            Some(catalog_frame(identity, "reachability", None, None))
        }
        Kind::KarpMiller => Some(catalog_frame(identity, "karp-miller", None, None)),
        Kind::Coverability => Some(catalog_frame(
            identity,
            "coverability",
            Some((&format!("a{}", identity.n), 2)),
            None,
        )),
        Kind::CoveringWord => Some(catalog_frame(
            identity,
            "covering-word",
            Some(("a3", 1)),
            None,
        )),
        Kind::NetDsl => Some(obj(vec![
            ("cmd", Json::str("submit")),
            ("net_dsl", Json::str(dsl_def(identity).print())),
            ("params", obj(vec![("agents", Json::uint(identity.agents))])),
        ])),
        Kind::Truncate => Some(catalog_frame(identity, "reachability", None, Some(5))),
        Kind::Resume => None,
    };
    Request {
        kind,
        identity,
        frame,
    }
}

/// One client's requests: set-up warm identities, then `rounds` rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPlan {
    pub warm: Vec<Request>,
    pub rounds: Vec<Vec<Request>>,
}

/// The seeded plan of client `client` in server epoch `epoch`.
pub fn plan(seed: u64, epoch: usize, client: usize, rounds: usize) -> ClientPlan {
    let mut rng = Rng::new(seed, &format!("serve-closed/epoch-{epoch}/client-{client}"));
    // Fresh identities: this client's share of each pool, in seeded order.
    let share = |count: usize, rng: &mut Rng, pool: &Pool| {
        let mut ids: Vec<Identity> = (0..count)
            .map(|i| pool.identity(i * CLIENTS + client))
            .collect();
        rng.shuffle(&mut ids);
        ids
    };
    let mut reach = share(WARM_IDENTITIES + 2 * rounds, &mut rng, &REACH_POOL).into_iter();
    let mut karp_miller = share(rounds, &mut rng, &KARP_MILLER_POOL).into_iter();
    let mut cover = share(rounds, &mut rng, &COVER_POOL).into_iter();
    let mut word = share(rounds, &mut rng, &WORD_POOL).into_iter();
    let mut dsl = share(rounds, &mut rng, &DSL_POOL).into_iter();
    let mut truncate = share(rounds, &mut rng, &TRUNCATE_POOL).into_iter();
    let next = |ids: &mut std::vec::IntoIter<Identity>| ids.next().expect("pool sized to the plan");

    let warm: Vec<Request> = (0..WARM_IDENTITIES)
        .map(|_| request(Kind::ReachFresh, next(&mut reach)))
        .collect();
    let mut submitted: Vec<Identity> = warm.iter().map(|r| r.identity).collect();
    let mut planned = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut units = ROUND;
        rng.shuffle(&mut units);
        let mut round = Vec::with_capacity(REQUESTS_PER_ROUND);
        for kind in units {
            match kind {
                Kind::ReachFresh => {
                    let identity = next(&mut reach);
                    submitted.push(identity);
                    round.push(request(kind, identity));
                }
                Kind::ReachHot => {
                    let identity = submitted[rng.below(submitted.len())];
                    round.push(request(kind, identity));
                }
                Kind::KarpMiller => round.push(request(kind, next(&mut karp_miller))),
                Kind::Coverability => round.push(request(kind, next(&mut cover))),
                Kind::CoveringWord => round.push(request(kind, next(&mut word))),
                Kind::NetDsl => round.push(request(kind, next(&mut dsl))),
                Kind::Truncate => {
                    let identity = next(&mut truncate);
                    round.push(request(kind, identity));
                    round.push(request(Kind::Resume, identity));
                }
                Kind::Resume => unreachable!("resumes follow their truncate"),
            }
        }
        planned.push(round);
    }
    ClientPlan {
        warm,
        rounds: planned,
    }
}

/// One answered request.
struct Answer {
    kind: Kind,
    identity: Identity,
    sent: Json,
    result: Json,
    latency_s: f64,
}

/// Sends `request` (completing a resume from the previous answer).
fn submit(client: &mut Client, request: &Request, previous: Option<&Answer>) -> Answer {
    let sent = match &request.frame {
        Some(frame) => frame.clone(),
        None => {
            let session = previous
                .and_then(|answer| answer.result.get("session"))
                .cloned()
                .unwrap_or(Json::Null);
            obj(vec![
                ("cmd", Json::str("resume")),
                ("session", session),
                ("budget", Json::uint(100_000)),
            ])
        }
    };
    let start = Instant::now();
    let result = match client.submit(&sent) {
        Ok(answer) => answer.result,
        Err(error) => obj(vec![
            ("ok", Json::Bool(false)),
            ("client_error", Json::str(error.to_string())),
        ]),
    };
    Answer {
        kind: request.kind,
        identity: request.identity,
        sent,
        result,
        latency_s: start.elapsed().as_secs_f64(),
    }
}

fn check_answer(report: &mut Report, answer: &Answer) {
    let result = &answer.result;
    let ok = result.get("ok") == Some(&Json::Bool(true));
    let seeded = result
        .get("cache")
        .and_then(|cache| cache.get("seeded"))
        .and_then(Json::as_bool);
    let completion = result.get("completion").and_then(Json::as_str);
    let shape_ok = match answer.kind {
        Kind::Truncate => {
            completion == Some("config-budget")
                && result.get("resumable") == Some(&Json::Bool(true))
        }
        Kind::Resume => completion == Some("complete"),
        _ => true,
    };
    report.op(
        ok && seeded == Some(answer.kind.hits_cache()) && shape_ok,
        || {
            format!(
                "serve-closed {:?} {:?}: expected ok, seeded={}; got {result}",
                answer.kind,
                answer.identity,
                answer.kind.hits_cache()
            )
        },
    );
}

struct Inputs {
    plans: Vec<ClientPlan>,
    clients: Vec<Client>,
    server: Option<ServerHandle>,
}

fn setup(seed: u64, epoch: usize, report: &mut Report) -> Inputs {
    let plans: Vec<ClientPlan> = (0..CLIENTS).map(|c| plan(seed, epoch, c, ROUNDS)).collect();
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let mut clients = Vec::with_capacity(CLIENTS);
    for plan in &plans {
        let mut client = Client::connect(server.addr()).expect("connect to the loopback server");
        for request in &plan.warm {
            let answer = submit(&mut client, request, None);
            check_answer(report, &answer);
        }
        clients.push(client);
    }
    Inputs {
        plans,
        clients,
        server: Some(server),
    }
}

impl Inputs {
    /// Closes the connections, then drains and joins the server,
    /// re-raising any server-side panic.
    fn close(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        // Close the connections before the server handle drains on drop.
        self.clients.clear();
    }
}

/// One client round: its answers, its duration in seconds, and whether it
/// was traced.
type Round = (Vec<Answer>, f64, bool);

/// Drives every client through its rounds on its own thread. Returns each
/// client's answers per round with the round's duration; rounds with
/// `traced(round)` get a span per request.
fn drive(inputs: &mut Inputs, traced: impl Fn(usize) -> bool + Sync) -> Vec<Vec<Round>> {
    let clients = std::mem::take(&mut inputs.clients);
    let plans = &inputs.plans;
    let traced = &traced;
    let results: Vec<(Client, Vec<Round>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(plans)
            .enumerate()
            .map(|(index, (mut client, plan))| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(false);
                    let mut rounds = Vec::with_capacity(plan.rounds.len());
                    for (r, round) in plan.rounds.iter().enumerate() {
                        let on = traced(r);
                        tracer.set_enabled(on);
                        let start = Instant::now();
                        let mut answers: Vec<Answer> = Vec::with_capacity(round.len());
                        for request in round {
                            let span = tracer.enter("client.submit", index);
                            let answer = submit(&mut client, request, answers.last());
                            tracer.exit(span);
                            answers.push(answer);
                        }
                        rounds.push((answers, start.elapsed().as_secs_f64(), on));
                    }
                    (client, rounds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let mut per_client = Vec::with_capacity(results.len());
    for (client, rounds) in results {
        inputs.clients.push(client);
        per_client.push(rounds);
    }
    per_client
}

/// The direct fingerprint of an answer's job at its `final_limits`.
fn direct_fingerprint(answer: &Answer) -> Option<String> {
    let limits = answer.result.get("final_limits")?;
    let limits = ExplorationLimits {
        max_configurations: limits.get("max_configurations").and_then(Json::as_usize)?,
        max_agents: limits.get("max_agents").and_then(Json::as_u64),
        max_depth: limits.get("max_depth").and_then(Json::as_usize),
    };
    let identity = answer.identity;
    if answer.kind == Kind::NetDsl {
        let spec =
            pp_netdsl::instantiate(&dsl_def(identity), &[("agents", identity.agents)]).ok()?;
        let places: Vec<String> = spec.net.places().iter().cloned().collect();
        let report = Batch::new()
            .job(BatchJob::reachability("direct", spec.net, spec.initials).limits(limits))
            .run();
        return Some(hex(outcome_fingerprint(&report.jobs[0].outcome, &places)));
    }
    let protocol: Protocol = catalog::all(identity.n)
        .into_iter()
        .find(|e| e.family == identity.family)?
        .protocol;
    let net = protocol.net().clone();
    let initial = spread_input(&protocol, identity.agents);
    let target = |name: &str, count: u64| -> Option<Multiset<StateId>> {
        Some(Multiset::from_pairs([(protocol.state_id(name)?, count)]))
    };
    let job = match answer.kind {
        Kind::ReachFresh | Kind::ReachHot | Kind::Truncate | Kind::Resume => {
            BatchJob::reachability("direct", net.clone(), [initial])
        }
        Kind::KarpMiller => BatchJob::karp_miller("direct", net.clone(), initial),
        Kind::Coverability => BatchJob::coverability(
            "direct",
            net.clone(),
            target(&format!("a{}", identity.n), 2)?,
        ),
        Kind::CoveringWord => {
            BatchJob::covering_word("direct", net.clone(), initial, target("a3", 1)?)
        }
        Kind::NetDsl => unreachable!("handled above"),
    };
    let places: Vec<StateId> = net.places().iter().copied().collect();
    let report = Batch::new().job(job.limits(limits)).run();
    Some(hex(outcome_fingerprint(&report.jobs[0].outcome, &places)))
}

/// Re-checks `samples` seeded picks of `answers` against solo `Batch` runs.
fn check_fingerprints(rng: &mut Rng, samples: usize, answers: &[&Answer], report: &mut Report) {
    for _ in 0..samples.min(answers.len()) {
        let answer = answers[rng.below(answers.len())];
        let served = answer.result.get("fingerprint").and_then(Json::as_str);
        let direct = direct_fingerprint(answer);
        report.op(served.is_some() && served == direct.as_deref(), || {
            format!(
                "serve-closed {:?} {:?}: served fingerprint {served:?}, direct {direct:?}",
                answer.kind, answer.identity
            )
        });
    }
}

/// Prints the median latency and explored count of each request kind.
fn summarize(answers: &[&Answer]) {
    let mut kinds: Vec<Kind> = ROUND.to_vec();
    kinds.dedup();
    kinds.push(Kind::Resume);
    for kind in kinds {
        let of_kind: Vec<&&Answer> = answers.iter().filter(|a| a.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let latency: Vec<f64> = of_kind.iter().map(|a| a.latency_s * 1e3).collect();
        let explored: Vec<f64> = of_kind
            .iter()
            .map(|a| a.result.get("explored").and_then(Json::as_u64).unwrap_or(0) as f64)
            .collect();
        let mut sorted = latency.clone();
        sorted.sort_by(f64::total_cmp);
        eprintln!(
            "{kind:?}: {} requests, latency p50 {:.3} ms, p90 {:.3} ms, median explored {}",
            of_kind.len(),
            median(&latency),
            nearest_rank(&sorted, 90).unwrap_or(0.0),
            median(&explored)
        );
    }
}

/// The end-to-end run. With `trace`, rounds alternate between untraced and
/// traced and only the tracing overhead is reported. Otherwise each figure
/// is that of the tenth-best epoch (each epoch a full replay of the mix on
/// a fresh server), and `cpu_s` is the epochs' CPU seconds at the tenth
/// least an epoch took: the host moves between a fast and a slow state for
/// seconds at a time, and the share of epochs it spends slow varies from
/// run to run. The very best epoch is itself an outlier of a noisy
/// figure: over six seeds, its p50 spread 15% (IQR over median) where the
/// tenth-best epoch's spread 8%.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let epochs = passes_for(seconds, NOMINAL_EPOCH_S, 1);
    let mut setup_checks = Report::default();
    let (first, setup_s) = setup_median(SETUP_REPS, || setup(seed, 0, &mut setup_checks));
    report.attempted += setup_checks.attempted;
    report.failed += setup_checks.failed;
    let mut fingerprints = Rng::new(seed, "serve-closed/fingerprints");
    let mut rounds_by_mode = [Timings::default(), Timings::default()];
    // Per untraced epoch: work per second, p50, p90 and CPU seconds.
    let mut per_epoch: [Vec<f64>; 4] = Default::default();
    let mut next = Some(first);
    for epoch in 0..epochs {
        let mut inputs = next.take().unwrap_or_else(|| setup(seed, epoch, report));
        let cpu_start = host::cpu_seconds();
        let per_client = drive(&mut inputs, |round| trace && round % 2 == 1);
        let epoch_cpu = host::cpu_seconds() - cpu_start;
        inputs.close();

        let mut answers: Vec<&Answer> = Vec::new();
        let mut latencies = Timings::default();
        let mut rounds_of_epoch = Timings::default();
        for rounds in &per_client {
            for (answers_of_round, secs, traced) in rounds {
                let work = (REQUESTS_PER_ROUND * CLIENTS) as f64;
                rounds_by_mode[usize::from(*traced)].record(0, work, *secs);
                if !*traced {
                    rounds_of_epoch.record(0, work, *secs);
                }
                for answer in answers_of_round {
                    check_answer(report, answer);
                    if !*traced {
                        latencies.record(0, 1.0, answer.latency_s);
                    }
                    answers.push(answer);
                }
            }
        }
        if !trace {
            if epoch == 0 {
                latencies.print_samples("requests per epoch");
            }
            let figures = [
                rounds_of_epoch.work_per_s(),
                latencies.p50_ms(),
                latencies.p90_ms(),
                epoch_cpu,
            ];
            for (values, figure) in per_epoch.iter_mut().zip(figures) {
                values.push(figure);
            }
        }
        check_fingerprints(
            &mut fingerprints,
            FINGERPRINT_SAMPLES.div_ceil(epochs),
            &answers,
            report,
        );
        if epoch == 0 {
            summarize(&answers);
        }
    }
    if trace {
        let [plain, traced] = &rounds_by_mode;
        report.metric(
            "trace.overhead_pct",
            overhead_pct(plain.work_per_s(), traced.work_per_s()),
            "%",
        );
    } else {
        let [work_per_s, p50_ms, p90_ms, cpu_s] = per_epoch.map(|mut values| {
            values.sort_by(f64::total_cmp);
            values
        });
        // The tenth-best epoch: nearest-rank p90 of throughput, p10 of the
        // rest.
        let tenth_best =
            |sorted: &[f64], percent| nearest_rank(sorted, percent).unwrap_or(f64::NAN);
        let figures = Figures {
            work_per_s: tenth_best(&work_per_s, 90),
            p50_ms: tenth_best(&p50_ms, 10),
            p90_ms: tenth_best(&p90_ms, 10),
        };
        figures.report(report, setup_s, tenth_best(&cpu_s, 10) * epochs as f64);
    }
}

/// Per-layer metrics from a short traced run of the same mix, plus direct
/// timings of the codec, the frame parser, the engine queries and the DSL
/// on the frames the mix submits.
pub fn layers(seed: u64, report: &mut Report) {
    const REPS: usize = 3;
    let mut inputs = setup(seed, 0, report);
    let per_client = drive(&mut inputs, |_| true);
    inputs.close();
    let answers: Vec<&Answer> = per_client
        .iter()
        .flat_map(|rounds| rounds.iter().flat_map(|(answers, _, _)| answers))
        .collect();
    for answer in &answers {
        check_answer(report, answer);
    }
    let mut fingerprints = Rng::new(seed, "serve-closed/fingerprints");
    check_fingerprints(&mut fingerprints, FINGERPRINT_SAMPLES, &answers, report);

    // Codec and frame parser on the workload's own frames.
    let texts: Vec<String> = answers
        .iter()
        .flat_map(|a| [a.sent.to_text(), a.result.to_text()])
        .collect();
    let frames: Vec<Json> = texts
        .iter()
        .filter_map(|t| parse(t.as_bytes()).ok())
        .collect();
    report.op(frames.len() == texts.len(), || {
        "a frame failed to re-parse".to_string()
    });
    let per_frame = |secs: f64| secs * 1e6 / texts.len() as f64;
    report.metric(
        "json.parse_us",
        per_frame(median_secs(REPS, || {
            for text in &texts {
                black_box(parse(text.as_bytes()).ok());
            }
        })),
        "us",
    );
    report.metric(
        "json.encode_us",
        per_frame(median_secs(REPS, || {
            for frame in &frames {
                black_box(frame.to_text());
            }
        })),
        "us",
    );
    let requests: Vec<&Json> = answers.iter().map(|a| &a.sent).collect();
    report.metric(
        "proto.parse_request_us",
        median_secs(REPS, || {
            for frame in &requests {
                black_box(parse_request(frame).ok());
            }
        }) * 1e6
            / requests.len() as f64,
        "us",
    );

    // Server-side timing fields.
    let field = |answer: &Answer, key: &str| {
        answer.result.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
    };
    let queue: Vec<f64> = answers.iter().map(|a| field(a, "queue_us")).collect();
    let job: Vec<f64> = answers.iter().map(|a| field(a, "wall_us")).collect();
    let wire: Vec<f64> = answers
        .iter()
        .map(|a| a.latency_s * 1e6 - field(a, "queue_us") - field(a, "wall_us"))
        .collect();
    report.metric("server.queue_us_p50", median(&queue), "us");
    report.metric("server.job_us_p50", median(&job), "us");
    report.metric("server.wire_us_p50", median(&wire), "us");
    let seeded = answers
        .iter()
        .filter(|a| a.result.get("cache").and_then(|c| c.get("seeded")) == Some(&Json::Bool(true)))
        .count();
    report.metric(
        "cache.hit_ratio",
        seeded as f64 / answers.len() as f64,
        "ratio",
    );

    // Engine queries and the DSL, timed directly on the submitted nets.
    let of_kind = |kind: Kind| -> Vec<Identity> {
        answers
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.identity)
            .collect()
    };
    let protocol_of = |identity: Identity| -> Protocol {
        catalog::all(identity.n)
            .into_iter()
            .find(|e| e.family == identity.family)
            .expect("catalog family")
            .protocol
    };
    let karp_miller: Vec<(Protocol, Multiset<StateId>)> = of_kind(Kind::KarpMiller)
        .into_iter()
        .map(|identity| {
            let protocol = protocol_of(identity);
            let initial = spread_input(&protocol, identity.agents);
            (protocol, initial)
        })
        .collect();
    let mut markings = 0usize;
    for (protocol, initial) in &karp_miller {
        markings += Analysis::new(protocol.net())
            .karp_miller(initial.clone())
            .max_nodes(ExplorationLimits::default().max_configurations)
            .run()
            .markings()
            .len();
    }
    let km_secs = median_secs(REPS, || {
        for (protocol, initial) in &karp_miller {
            black_box(
                Analysis::new(protocol.net())
                    .karp_miller(initial.clone())
                    .max_nodes(ExplorationLimits::default().max_configurations)
                    .run(),
            );
        }
    });
    report.metric(
        "karp_miller.ns_per_marking",
        km_secs * 1e9 / markings as f64,
        "ns",
    );
    report.metric("karp_miller.markings", markings as f64, "count");

    let words: Vec<(Protocol, Multiset<StateId>, Multiset<StateId>)> = of_kind(Kind::CoveringWord)
        .into_iter()
        .map(|identity| {
            let protocol = protocol_of(identity);
            let initial = spread_input(&protocol, identity.agents);
            let a3 = protocol.state_id("a3").expect("flock-unary has a3");
            (protocol, initial, Multiset::from_pairs([(a3, 1)]))
        })
        .collect();
    let word_secs = median_secs(REPS, || {
        for (protocol, from, target) in &words {
            black_box(
                Analysis::new(protocol.net())
                    .covering_word(from.clone(), target.clone())
                    .run(),
            );
        }
    });
    report.metric("cover.word_us", word_secs * 1e6 / words.len() as f64, "us");

    let dsl: Vec<(String, u64)> = of_kind(Kind::NetDsl)
        .into_iter()
        .map(|identity| (dsl_def(identity).print(), identity.agents))
        .collect();
    let parse_secs = median_secs(REPS, || {
        for (text, _) in &dsl {
            black_box(pp_netdsl::parse_str(text).ok());
        }
    });
    let defs: Vec<(pp_netdsl::NetDef, u64)> = dsl
        .iter()
        .filter_map(|(text, agents)| Some((pp_netdsl::parse_str(text).ok()?, *agents)))
        .collect();
    report.op(defs.len() == dsl.len(), || {
        "a .pnet payload failed to parse".to_string()
    });
    let instantiate_secs = median_secs(REPS, || {
        for (def, agents) in &defs {
            black_box(pp_netdsl::instantiate(def, &[("agents", *agents)]).ok());
        }
    });
    report.metric("netdsl.parse_us", parse_secs * 1e6 / dsl.len() as f64, "us");
    report.metric(
        "netdsl.instantiate_us",
        instantiate_secs * 1e6 / dsl.len() as f64,
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pools_cover_the_longest_run() {
        let per_client = |pool: &Pool| pool.capacity() / CLIENTS;
        assert!(per_client(&REACH_POOL) >= WARM_IDENTITIES + 2 * ROUNDS);
        for pool in [
            &TRUNCATE_POOL,
            &KARP_MILLER_POOL,
            &COVER_POOL,
            &WORD_POOL,
            &DSL_POOL,
        ] {
            assert!(per_client(pool) >= ROUNDS);
        }
        let plan = plan(1, 0, 1, ROUNDS);
        assert_eq!(plan.rounds.len(), ROUNDS);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(plan(9, 0, 0, 5), plan(9, 0, 0, 5));
        assert_ne!(plan(9, 0, 0, 5), plan(10, 0, 0, 5));
        assert_ne!(plan(9, 0, 0, 5), plan(9, 0, 1, 5));
    }

    #[test]
    fn every_seed_keeps_the_round_shape_and_hot_share() {
        for seed in [0, 1, 2, 77] {
            let plan = plan(seed, 1, seed as usize % CLIENTS, 6);
            for round in &plan.rounds {
                assert_eq!(round.len(), REQUESTS_PER_ROUND);
                let hot = round.iter().filter(|r| r.kind.hits_cache()).count();
                assert_eq!(hot, 7);
                let truncate = round.iter().position(|r| r.kind == Kind::Truncate).unwrap();
                assert_eq!(round[truncate + 1].kind, Kind::Resume);
            }
        }
    }

    #[test]
    fn hot_frames_repeat_earlier_identities_and_fresh_ones_never_do() {
        let plan = plan(4, 0, 1, 10);
        let mut seen: Vec<Identity> = plan.warm.iter().map(|r| r.identity).collect();
        for request in plan.rounds.iter().flatten() {
            match request.kind {
                Kind::ReachHot => assert!(seen.contains(&request.identity)),
                Kind::ReachFresh => {
                    assert!(!seen.contains(&request.identity));
                    seen.push(request.identity);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn the_clients_draw_disjoint_identities() {
        let fresh = |client| -> Vec<(Kind, Identity)> {
            let plan = plan(3, 0, client, 10);
            plan.warm
                .iter()
                .chain(plan.rounds.iter().flatten())
                .filter(|r| !r.kind.hits_cache())
                .map(|r| (r.kind, r.identity))
                .collect()
        };
        let (a, b) = (fresh(0), fresh(1));
        assert!(a.iter().all(|request| !b.contains(request)));
    }
}

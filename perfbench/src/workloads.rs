//! The three workloads. Each generates every input from the run seed, runs
//! a closed loop (every caller waits for its reply), checks every output,
//! and returns its samples plus what the layer probes need.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hybrid_core::solver::{solve, Answer, KsspCorollary, Query, Report};
use hybrid_graph::apsp::apsp;
use hybrid_graph::{DeltaBatch, Graph, GraphBuilder, NodeId};
use hybrid_scenarios::churn::{churn_batch, step_seed};
use hybrid_scenarios::verify::{check_report, Contract, Verdict};
use hybrid_serve::protocol::{delta_spec, query_spec};
use hybrid_serve::{report_digest, Broker, BrokerConfig, GraphCatalog, TenantConfig};
use hybrid_sim::{derive_seed, HybridConfig, HybridNet, Recorder, TraceEvent};

use crate::calib::RefClock;
use crate::spans::Tracer;

/// Node count of the `cold-e2` and `serve-repeat` graphs.
const N_E2: usize = 800;
/// Node count of the `serve-churn` cycle.
const N_CHURN: usize = 2400;
/// Client threads of the serving workloads.
const SERVE_CLIENTS: usize = 2;
/// Times `cold-e2` regenerates its graph to time set-up.
const COLD_SETUP_REPS: usize = 7;
/// Times `serve-repeat` rebuilds catalog, broker and warm state.
const REPEAT_SETUP_REPS: usize = 3;
/// Reads per `serve-churn` episode (each episode starts from a fresh broker).
const CHURN_READS: usize = 20;
/// `serve-churn` issues one UPDATE after every this many reads.
const CHURN_READS_PER_UPDATE: usize = 2;
/// Delta operations attempted per `serve-churn` UPDATE.
const CHURN_OPS: usize = 2;
/// Solver seeds `cold-e2` rotates over, one per pass of the mix.
const COLD_SEEDS: usize = 24;
/// Length of one `serve-repeat` measuring segment, s; the host reference
/// is timed between segments, while the clients are idle.
const REPEAT_SEGMENT_S: f64 = 1.0;

/// What a run asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured loop lasts.
    pub seconds: f64,
    /// Record spans on every other unit of work (see [`traced_turn`]).
    pub trace: bool,
}

/// Samples of the untraced or of the traced requests.
#[derive(Debug, Default)]
pub struct Phase {
    /// Read (request) latencies, ms.
    pub lat_ms: Vec<f64>,
    /// UPDATE latencies, ms.
    pub upd_ms: Vec<f64>,
    /// Wall time the loop ran, s.
    pub busy_s: f64,
    /// Requests issued (reads and updates).
    pub attempted: u64,
    /// Requests that failed a check or were shed.
    pub failed: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.lat_ms.extend(other.lat_ms);
        self.upd_ms.extend(other.upd_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Broker counters summed over a workload's brokers (read from `STATS`).
pub type Stats = BTreeMap<String, u64>;

/// Everything a workload run hands back.
#[derive(Debug)]
pub struct Outcome {
    /// Set-up durations, s (one per repetition or episode).
    pub setup_s: Vec<f64>,
    /// The untraced requests (end-to-end metrics come only from here).
    pub plain: Phase,
    /// The traced requests, interleaved with the untraced ones
    /// (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Spans of the traced requests.
    pub tracer: Tracer,
    /// Failed output checks, described.
    pub failures: Vec<String>,
    /// Summed broker `STATS` counters (serving workloads).
    pub stats: Option<Stats>,
    /// Peak resident set of the measured loop, MB.
    pub peak_rss_mb: f64,
    /// The host reference, timed between requests off the clock.
    pub host: RefClock,
    /// Inputs for the layer probes.
    pub probe: ProbeCtx,
}

/// Whether the `turn`-th unit of work (a request, pass or episode) records
/// spans: every other one in a traced run, none otherwise. Interleaving
/// puts traced and untraced work under the same machine conditions, so
/// their difference is the tracing overhead.
fn traced_turn(cfg: RunCfg, turn: usize) -> bool {
    cfg.trace && turn % 2 == 1
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set; `false` where the kernel
/// does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What the layer probes take from the workload.
#[derive(Debug)]
pub struct ProbeCtx {
    /// The workload's primary graph.
    pub g: Graph,
    /// Root seed the workload solves under.
    pub solve_seed: u64,
    /// The workload's distinct queries on `g`, in stream order.
    pub queries: Vec<Query>,
    /// Wire lines the workload sends.
    pub lines: Vec<String>,
    /// A delta batch valid on `g` of the size the workload would send.
    pub batch: DeltaBatch,
    /// Median cold `solve` ms per query label, measured by the workload
    /// itself (`cold-e2`); other workloads leave it to the probes.
    pub label_ms: BTreeMap<String, f64>,
    /// Program exchange sizes (messages) seen by the traced requests.
    pub exchange_sizes: Vec<u64>,
}

/// Reads the broker's `STATS` reply into counters.
fn parse_stats(line: &str) -> Stats {
    line.split_whitespace()
        .filter_map(|t| t.split_once('='))
        .filter_map(|(k, v)| v.parse::<u64>().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// `STATS` checks shared by the serving workloads: no bit-identity
/// mismatch, nothing shed. Returns the counters and adds failures.
fn check_stats(broker: &Broker<'_>, failures: &mut Vec<String>) -> Stats {
    let line = broker.serve_line("STATS");
    let stats = parse_stats(&line);
    for key in ["mismatches", "shed", "deadline_shed"] {
        if stats.get(key).copied() != Some(0) {
            failures.push(format!("STATS {key} is not 0: {line}"));
        }
    }
    stats
}

fn add_stats(total: &mut Stats, s: &Stats) {
    for (k, v) in s {
        *total.entry(k.clone()).or_default() += v;
    }
}

/// The value of `key=` in a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64 draws).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The registry's instance of a scenario's graph at `n` nodes (built from
/// the scenario's own seed): every run seed sees the same graph, and the
/// run seed varies the request streams, solver seeds and deltas.
fn registry_graph(scenario: &str, n: usize) -> Graph {
    hybrid_scenarios::find(scenario).expect("registered scenario").graph(n)
}

/// The same topology with every weight 1.
fn unit_weights(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.len());
    for e in g.edges() {
        b.add_edge(e.u, e.v, 1).expect("edge of a valid graph");
    }
    b.build().expect("valid graph")
}

/// Checks a report against the sequential reference: APSP matrices
/// entry for entry, everything else through the scenario contract. The
/// diameter corollaries estimate the *hop* diameter, so on a weighted
/// graph they are held to the unit-weight copy.
fn check_answer(
    g: &Graph,
    reference: &hybrid_graph::apsp::DistanceMatrix,
    r: &Report,
) -> Result<(), String> {
    let v = match &r.answer {
        Answer::Distances(m) if m.as_flat() == reference.as_flat() => return Ok(()),
        Answer::Distances(_) => {
            return Err(format!(
                "{}: distance matrix differs from the sequential reference",
                r.label()
            ))
        }
        Answer::Diameter { .. } if g.max_weight() > 1 => {
            check_report(&unit_weights(g), r, Contract::Strict)
        }
        _ => check_report(g, r, Contract::Strict),
    };
    if v.verdict == Verdict::Pass {
        Ok(())
    } else {
        Err(format!("{}: {}", r.label(), v.detail))
    }
}

/// The E2 round pins (Thm 1.1 / SODA'20 baseline rounds at the E2
/// instance's own seed), re-checked before any timing.
fn check_e2_pins(failures: &mut Vec<String>) {
    let thm11 = Query::apsp().xi(1.5).build().expect("valid");
    let soda20 = Query::apsp()
        .variant(hybrid_core::solver::ApspVariant::Soda20)
        .xi(1.5)
        .build()
        .expect("valid");
    for (n, want) in [(200usize, (306u64, 305u64)), (400, (529, 529))] {
        let g = hybrid_scenarios::find("e2-er").expect("registered").graph(n);
        let rounds = |q: &Query| {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            solve(&mut net, q, 5).map(|r| r.rounds).unwrap_or(0)
        };
        let got = (rounds(&thm11), rounds(&soda20));
        if got != want {
            failures.push(format!("E2 pin at n={n}: rounds {got:?}, pinned {want:?}"));
        }
    }
}

/// `cold-e2`: one client, cold `solve` on a fresh net per request, cycling
/// the 8-query paper mix on the E2 Erdős–Rényi graph. Each pass over the
/// mix runs under the next of [`COLD_SEEDS`] solver seeds, so one run
/// averages over several skeleton samplings.
pub fn cold_e2(cfg: RunCfg, epoch: Instant) -> Outcome {
    let mut failures = Vec::new();
    check_e2_pins(&mut failures);
    let mut host = RefClock::new(1);
    let mut setup_s = Vec::new();
    let mut g = None;
    for _ in 0..COLD_SETUP_REPS {
        let t = Instant::now();
        let built = registry_graph("e2-er", N_E2);
        setup_s.push(t.elapsed().as_secs_f64());
        g = Some(built);
    }
    let g = g.expect("at least one set-up");
    let queries = hybrid_bench::experiments::mixed_query_batch(8);
    let seeds: Vec<u64> = (0..COLD_SEEDS).map(|k| derive_seed(cfg.seed, 2 + k as u64)).collect();
    let reference = apsp(&g);

    let mut digests: HashMap<(&'static str, usize), u64> = HashMap::new();
    let mut exchange_sizes = Vec::new();
    let mut tracer = Tracer::new(false, epoch);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut by_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut i = 0usize;
    // Whole passes over the mix only, so every query carries the same
    // weight. A run ends inside a cycle of seeds: a whole cycle would add up
    // to a third of the run on top.
    while plain.busy_s + traced.busy_s < cfg.seconds || !i.is_multiple_of(queries.len()) {
        let q = &queries[i % queries.len()];
        let si = (i / queries.len()) % seeds.len();
        // Every other request records spans, shifted by one each pass, so
        // each query is traced under half the seeds even in a short run.
        tracer.set_on(traced_turn(cfg, i + i / queries.len()));
        let request = i as u64;
        let start = Instant::now();
        let result = tracer.span("request", request, |tr| {
            let mut net = HybridNet::new(&g, HybridConfig::default());
            let rec_epoch = tr.on().then(|| {
                let at = tr.now_ns();
                net.set_trace(Recorder::new());
                at
            });
            let r = solve(&mut net, q, seeds[si]);
            if let (Some(at), Some(rec)) = (rec_epoch, net.take_trace()) {
                tr.import(&rec, at, request);
                for ev in rec.events() {
                    if let TraceEvent::Exchange { messages, .. } = ev {
                        exchange_sizes.push(*messages);
                    }
                }
            }
            r
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let ph = if tracer.on() { &mut traced } else { &mut plain };
        ph.busy_s += ms / 1e3;
        ph.lat_ms.push(ms);
        ph.attempted += 1;
        if !tracer.on() {
            by_label.entry(q.label().to_string()).or_default().push(ms);
        }
        i += 1;
        host.tick();
        // Checks run off the clock: the first answer per (query, seed)
        // against the reference, every repetition against the first.
        let ok = match result {
            Ok(r) => {
                let d = report_digest(&r);
                let key = (r.label(), si);
                match digests.get(&key) {
                    Some(&first) if first == d => Ok(()),
                    Some(_) => Err(format!("{}: report differs across repetitions", r.label())),
                    None => check_answer(&g, &reference, &r).map(|()| {
                        digests.insert(key, d);
                    }),
                }
            }
            Err(e) => Err(format!("{}: solve failed: {e}", q.label())),
        };
        if let Err(msg) = ok {
            ph.failed += 1;
            failures.push(msg);
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let label_ms = by_label.iter().map(|(k, v)| (k.clone(), crate::stats::median(v))).collect();
    let traced = cfg.trace.then_some(traced);
    let batch = churn_batch(&g, step_seed(cfg.seed, 0), CHURN_OPS).0;
    let lines = queries
        .iter()
        .enumerate()
        .map(|(i, q)| format!("SOLVE id={i} tenant=t0 graph=er query={}", query_spec(q)))
        .collect();
    Outcome {
        setup_s,
        plain,
        traced,
        tracer,
        failures,
        stats: None,
        peak_rss_mb,
        host,
        probe: ProbeCtx {
            g,
            solve_seed: seeds[0],
            queries,
            lines,
            batch,
            label_ms,
            exchange_sizes,
        },
    }
}

/// A broker configured the way every serving workload runs it: one round
/// thread per net, verification on, two tenants deep enough never to shed.
fn serving_broker(catalog: &GraphCatalog, seed: u64) -> Broker<'_> {
    let mut bcfg = BrokerConfig::new(seed);
    bcfg.round_threads = Some(1);
    let broker = Broker::new(catalog, bcfg);
    for t in ["t0", "t1"] {
        broker.register_tenant(t, TenantConfig::new(4)).expect("trivial tenant");
    }
    broker
}

/// Checks one `SOLVE` reply: echoed id, `OK`, verified, and (when known)
/// the expected digest.
fn check_solve_reply(reply: &str, id: u64, digest: Option<&str>) -> Result<(), String> {
    let ok = reply.starts_with("OK ")
        && field(reply, "id") == Some(&id.to_string())
        && reply.ends_with(" verified=1")
        && digest.is_none_or(|d| field(reply, "digest") == Some(d));
    if ok {
        Ok(())
    } else {
        Err(format!("bad reply to request {id}: {reply}"))
    }
}

/// `serve-repeat`: two clients drive `serve_line` over 2 tenants × 2
/// graphs × the 8-query mix, after one warm-up pass over each distinct
/// request — every timed request hits both the session and referee memos.
/// Each tenant pins its own solver seed on the wire.
pub fn serve_repeat(cfg: RunCfg, epoch: Instant) -> Outcome {
    let queries = hybrid_bench::experiments::mixed_query_batch(8);
    let tenant_seeds = [derive_seed(cfg.seed, 2), derive_seed(cfg.seed, 3)];
    // The distinct requests: (tenant, graph, query) as a wire prefix.
    let mut prefixes = Vec::new();
    let mut keys = Vec::new();
    for (t, seed) in ["t0", "t1"].into_iter().zip(tenant_seeds) {
        for gname in ["er", "grid"] {
            for q in &queries {
                prefixes
                    .push(format!("tenant={t} graph={gname} seed={seed} query={}", query_spec(q)));
                keys.push((gname, seed, q.clone()));
            }
        }
    }
    let mut failures = Vec::new();
    let mut host = RefClock::new(SERVE_CLIENTS);
    let mut setup_s = Vec::new();
    let mut tracer = Tracer::new(false, epoch);
    let mut run = None;
    for rep in 0..REPEAT_SETUP_REPS {
        let start = Instant::now();
        let mut catalog = GraphCatalog::new();
        catalog.insert("er", registry_graph("e2-er", N_E2));
        catalog.insert("grid", registry_graph("sparse-grid-thm11", N_E2));
        let broker = serving_broker(&catalog, tenant_seeds[0]);
        let digests = warm_up(&broker, &prefixes, &mut failures);
        setup_s.push(start.elapsed().as_secs_f64());
        if rep > 0 {
            // Later set-ups are timed only; the first one is measured.
            continue;
        }
        let (plain, traced) =
            repeat_loop(&broker, &prefixes, &digests, cfg, &mut host, &mut tracer, &mut failures);
        let peak = peak_rss_mb();
        let traced = cfg.trace.then_some(traced);
        let stats = check_stats(&broker, &mut failures);
        run = Some((plain, traced, stats, peak, digests));
    }
    let (plain, traced, stats, peak_rss_mb, digests) = run.expect("at least one set-up");
    // Answers behind the digests: one cold solve per distinct request,
    // checked against the sequential reference and against the wire.
    let er = registry_graph("e2-er", N_E2);
    let grid = registry_graph("sparse-grid-thm11", N_E2);
    for (gname, g) in [("er", &er), ("grid", &grid)] {
        let reference = apsp(g);
        for ((kg, seed, q), wire) in keys.iter().zip(&digests) {
            if *kg != gname {
                continue;
            }
            let mut net = HybridNet::new(g, HybridConfig::default());
            match solve(&mut net, q, *seed) {
                Ok(r) => {
                    if let Err(e) = check_answer(g, &reference, &r) {
                        failures.push(format!("{gname}: {e}"));
                    }
                    if wire.as_deref() != Some(format!("{:016x}", report_digest(&r)).as_str()) {
                        failures.push(format!(
                            "{gname}/{}: wire digest is not the cold answer's",
                            q.label()
                        ));
                    }
                }
                Err(e) => failures.push(format!("{gname}/{}: cold solve failed: {e}", q.label())),
            }
        }
    }
    let batch = churn_batch(&er, step_seed(cfg.seed, 0), CHURN_OPS).0;
    let lines = prefixes.iter().enumerate().map(|(i, p)| format!("SOLVE id={i} {p}")).collect();
    Outcome {
        setup_s,
        plain,
        traced,
        tracer,
        failures,
        stats: Some(stats),
        peak_rss_mb,
        host,
        probe: ProbeCtx {
            g: er,
            solve_seed: tenant_seeds[0],
            queries,
            lines,
            batch,
            label_ms: BTreeMap::new(),
            exchange_sizes: Vec::new(),
        },
    }
}

/// The warm-up pass: every distinct request once, split across the
/// clients. Returns the digest each request was answered with.
fn warm_up(
    broker: &Broker<'_>,
    prefixes: &[String],
    failures: &mut Vec<String>,
) -> Vec<Option<String>> {
    let digests: Vec<Mutex<Option<String>>> = prefixes.iter().map(|_| Mutex::new(None)).collect();
    let warm_failures = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..SERVE_CLIENTS {
            let (digests, warm_failures) = (&digests, &warm_failures);
            s.spawn(move || {
                for (i, p) in prefixes.iter().enumerate().skip(c).step_by(SERVE_CLIENTS) {
                    let reply = broker.serve_line(&format!("SOLVE id={i} {p}"));
                    match check_solve_reply(&reply, i as u64, None) {
                        Ok(()) => {
                            *digests[i].lock().expect("digest slot") =
                                field(&reply, "digest").map(str::to_string)
                        }
                        Err(e) => warm_failures.lock().expect("failures").push(e),
                    }
                }
            });
        }
    });
    failures.extend(warm_failures.into_inner().expect("failures"));
    digests.into_iter().map(|d| d.into_inner().expect("digest slot")).collect()
}

/// The measured `serve-repeat` loop, in segments of [`REPEAT_SEGMENT_S`]
/// until the clients have run `cfg.seconds`. The host reference is timed
/// before each segment, while no client runs. In a segment each client runs
/// passes over the distinct requests, each pass in a new seeded order.
/// Returns the untraced and the traced requests.
fn repeat_loop(
    broker: &Broker<'_>,
    prefixes: &[String],
    digests: &[Option<String>],
    cfg: RunCfg,
    host: &mut RefClock,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut segment = 0u64;
    while plain.busy_s < cfg.seconds {
        host.sample();
        let length = REPEAT_SEGMENT_S.min(cfg.seconds - plain.busy_s);
        let start = Instant::now();
        let results: Vec<([Phase; 2], Tracer, Vec<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SERVE_CLIENTS)
                .map(|c| {
                    let mut tr = tracer.fork();
                    s.spawn(move || {
                        // A fresh order every pass over the requests, so the
                        // two clients' passes do not stay in step and meet
                        // the same requests of each other's run after run.
                        let stream = derive_seed(derive_seed(cfg.seed, 100 + c as u64), segment);
                        let mut order = Vec::new();
                        let mut phases = [Phase::default(), Phase::default()];
                        let mut errs = Vec::new();
                        let mut i = 0usize;
                        while start.elapsed().as_secs_f64() < length {
                            if i.is_multiple_of(prefixes.len()) {
                                order = permutation(prefixes.len(), derive_seed(stream, i as u64));
                                tr.set_on(traced_turn(cfg, i / prefixes.len()));
                            }
                            let k = order[i % prefixes.len()];
                            let id = c as u64 * 1_000_000_000 + segment * 1_000_000 + i as u64;
                            let line = format!("SOLVE id={id} {}", prefixes[k]);
                            let t = Instant::now();
                            let reply = tr.span("request", id, |_| broker.serve_line(&line));
                            let ph = &mut phases[usize::from(tr.on())];
                            ph.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            ph.attempted += 1;
                            if let Err(e) = check_solve_reply(&reply, id, digests[k].as_deref()) {
                                ph.failed += 1;
                                errs.push(e);
                            }
                            i += 1;
                        }
                        (phases, tr, errs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let busy_s = start.elapsed().as_secs_f64();
        plain.busy_s += busy_s;
        traced.busy_s += busy_s;
        for ([p, t], tr, errs) in results {
            plain.absorb(p);
            traced.absorb(t);
            tracer.absorb(tr);
            failures.extend(errs);
        }
        segment += 1;
    }
    (plain, traced)
}

/// The read stream of `serve-churn`: distinct sources, alternating exact
/// SSSP (Thm 1.3) and 2-source k-SSP (Cor 4.6), alternating tenants.
fn churn_read(perm: &[usize], r: usize) -> (String, Query) {
    let n = perm.len();
    let q = if r.is_multiple_of(2) {
        Query::sssp(NodeId::new(perm[r % n])).xi(1.5).build().expect("valid")
    } else {
        Query::kssp(KsspCorollary::Cor46)
            .sources(vec![NodeId::new(perm[r % n]), NodeId::new(perm[(r + n / 2) % n])])
            .eps(0.5)
            .xi(1.5)
            .build()
            .expect("valid")
    };
    let tenant = if (r / 2).is_multiple_of(2) { "t0" } else { "t1" };
    (format!("tenant={tenant} graph=ring query={}", query_spec(&q)), q)
}

/// One `serve-churn` input variant: the broker's solver seed and a chain
/// of delta batches, each generated against its predecessor's result.
struct ChurnVariant {
    seed: u64,
    batches: Vec<DeltaBatch>,
    /// The graph after the whole chain.
    last: Graph,
}

fn churn_variant(g0: &Graph, seed: u64) -> ChurnVariant {
    let mut batches = Vec::new();
    let mut g = g0.clone();
    for j in 0..CHURN_READS / CHURN_READS_PER_UPDATE {
        let (b, next) = churn_batch(&g, step_seed(seed, j), CHURN_OPS);
        batches.push(b);
        g = next;
    }
    ChurnVariant { seed, batches, last: g }
}

/// `serve-churn`: two clients drive `serve_line` on the registry cycle with
/// distinct-source reads and one UPDATE after every few reads. The loop
/// runs in fixed-size episodes, each on a fresh catalog and broker, so
/// per-request cost and memory describe the program, not how many
/// requests a fast or slow build managed to pile up. Each episode draws
/// its own input variant from the run seed, and `peak_rss_mb` is the median
/// of the episodes' own peaks.
pub fn serve_churn(cfg: RunCfg, epoch: Instant) -> Outcome {
    let g0 = registry_graph("churn-cycle-diam", N_CHURN);
    let perm = permutation(N_CHURN, derive_seed(cfg.seed, 4));
    let variant = |episode: usize| churn_variant(&g0, derive_seed(cfg.seed, 10 + episode as u64));
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut stats = Stats::new();
    let mut tracer = Tracer::new(false, epoch);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut peaks = Vec::new();
    let mut host = RefClock::new(SERVE_CLIENTS);
    let mut episode = 0usize;
    while plain.busy_s + traced.busy_s < cfg.seconds {
        // Between episodes no client runs, so the reference is timed alone.
        host.tick();
        let variant = variant(episode);
        tracer.set_on(traced_turn(cfg, episode));
        let reset = reset_peak_rss();
        let start = Instant::now();
        let mut catalog = GraphCatalog::new();
        catalog.insert("ring", registry_graph("churn-cycle-diam", N_CHURN));
        let broker = serving_broker(&catalog, variant.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        let (ph, errs) = churn_episode(&broker, &perm, &variant.batches, episode, &mut tracer);
        if tracer.on() {
            traced.busy_s += ph.busy_s;
            traced.absorb(ph);
        } else {
            if reset {
                peaks.push(peak_rss_mb());
            }
            plain.busy_s += ph.busy_s;
            plain.absorb(ph);
        }
        failures.extend(errs);
        add_stats(&mut stats, &check_stats(&broker, &mut failures));
        episode += 1;
    }
    let peak_rss_mb = if peaks.is_empty() { peak_rss_mb() } else { crate::stats::median(&peaks) };
    let traced = cfg.trace.then_some(traced);
    // Answers behind the referee: the first reads solved cold on the
    // initial and final graph versions, held to the scenario contract.
    let v0 = variant(0);
    let mut queries = Vec::new();
    let mut lines = Vec::new();
    for r in 0..8 {
        let (prefix, q) = churn_read(&perm, r);
        lines.push(format!("SOLVE id={r} {prefix}"));
        queries.push(q);
    }
    for gv in [&g0, &v0.last] {
        for q in queries.iter().take(2) {
            let mut net = HybridNet::new(gv, HybridConfig::default());
            match solve(&mut net, q, v0.seed) {
                Ok(r) => {
                    let v = check_report(gv, &r, Contract::Strict);
                    if v.verdict != Verdict::Pass {
                        failures.push(format!("{}: {}", r.label(), v.detail));
                    }
                }
                Err(e) => failures.push(format!("{}: cold solve failed: {e}", q.label())),
            }
        }
    }
    lines.push(format!("UPDATE id=8 tenant=t0 graph=ring ops={}", delta_spec(&v0.batches[0])));
    Outcome {
        setup_s,
        plain,
        traced,
        tracer,
        failures,
        stats: Some(stats),
        peak_rss_mb,
        host,
        probe: ProbeCtx {
            g: g0,
            solve_seed: v0.seed,
            queries,
            lines,
            batch: v0.batches[0].clone(),
            label_ms: BTreeMap::new(),
            exchange_sizes: Vec::new(),
        },
    }
}

/// One `serve-churn` episode: the clients claim operation slots from a
/// shared counter; every `CHURN_READS_PER_UPDATE + 1`-th slot is the next
/// UPDATE in chain order, the rest are reads.
fn churn_episode(
    broker: &Broker<'_>,
    perm: &[usize],
    batches: &[DeltaBatch],
    episode: usize,
    tracer: &mut Tracer,
) -> (Phase, Vec<String>) {
    let ops = CHURN_READS + batches.len();
    let next_op = AtomicUsize::new(0);
    let next_update = Mutex::new(0usize);
    let base = episode * 2 * CHURN_READS;
    let start = Instant::now();
    let results: Vec<(Phase, Tracer, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                let (next_op, next_update) = (&next_op, &next_update);
                let mut tr = tracer.fork();
                tr.set_on(tracer.on());
                s.spawn(move || {
                    let mut ph = Phase::default();
                    let mut errs = Vec::new();
                    loop {
                        let i = next_op.fetch_add(1, Ordering::Relaxed);
                        if i >= ops {
                            break;
                        }
                        let id = (episode * ops + i) as u64;
                        ph.attempted += 1;
                        if i % (CHURN_READS_PER_UPDATE + 1) == CHURN_READS_PER_UPDATE {
                            // Updates go out in chain order: each batch was
                            // generated against its predecessor's result.
                            let mut slot = next_update.lock().expect("update order");
                            let j = *slot;
                            *slot += 1;
                            let line = format!(
                                "UPDATE id={id} tenant=t0 graph=ring ops={}",
                                delta_spec(&batches[j])
                            );
                            let t = Instant::now();
                            let reply = tr.span("update", id, |_| broker.serve_line(&line));
                            ph.upd_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            drop(slot);
                            let ok = reply.starts_with("OK ")
                                && field(&reply, "id") == Some(&id.to_string())
                                && field(&reply, "epoch") == Some(&(j + 1).to_string());
                            if !ok {
                                ph.failed += 1;
                                errs.push(format!("bad reply to update {id}: {reply}"));
                            }
                        } else {
                            let r = i - i / (CHURN_READS_PER_UPDATE + 1);
                            let (prefix, _) = churn_read(perm, base + r);
                            let line = format!("SOLVE id={id} {prefix}");
                            let t = Instant::now();
                            let reply = tr.span("request", id, |_| broker.serve_line(&line));
                            ph.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if let Err(e) = check_solve_reply(&reply, id, None) {
                                ph.failed += 1;
                                errs.push(e);
                            }
                        }
                    }
                    (ph, tr, errs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut phase = Phase { busy_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    let mut failures = Vec::new();
    for (ph, tr, errs) in results {
        phase.absorb(ph);
        tracer.absorb(tr);
        failures.extend(errs);
    }
    (phase, failures)
}

//! Per-layer probes for traced runs. Each probe times calls into one
//! layer's public functions from outside, on inputs taken from the
//! workload: its graph, its queries and wire lines, and the hop budget `h`
//! and skeleton size the solver reports for those queries.

use std::collections::BTreeMap;
use std::time::Instant;

use clique_sim::declared::DeclaredKssp;
use clique_sim::diameter::DeclaredDiameter32;
use clique_sim::{CliqueDiameterAlgorithm, CliqueKsspAlgorithm, CliqueNet};
use hybrid_core::session::{Session, SessionConfig};
use hybrid_core::solver::{solve, Query, Report};
use hybrid_graph::dijkstra::par_lex_rows_with;
use hybrid_graph::limited::mark_within_hops;
use hybrid_graph::minplus::min_plus_into;
use hybrid_graph::skeleton::Skeleton;
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};
use hybrid_serve::protocol::parse_request;
use hybrid_serve::report_digest;
use hybrid_sim::{derive_seed, Envelope, HybridConfig, HybridNet, Recorder, TraceEvent};

use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::workloads::{ProbeCtx, Stats};

/// Request ids of probe spans start here, clear of workload request ids.
const PROBE_ID: u64 = 1 << 48;

/// Times `reps` calls of `f` inside spans named `name`; returns the median
/// in milliseconds.
fn time_ms<T>(tr: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ms = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t = Instant::now();
        let out = tr.span(name, PROBE_ID + rep as u64, |_| f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(out);
    }
    median(&ms)
}

/// One cold solve, configured like the broker's referee (default network,
/// one round thread), traced: the report, its wall ms and its recorder.
fn traced_solve(
    g: &Graph,
    q: &Query,
    seed: u64,
    tr: &mut Tracer,
    request: u64,
) -> (Report, f64, Recorder) {
    let t = Instant::now();
    let (r, rec) = tr.span("request", request, |tr| {
        let mut net = HybridNet::new(g, HybridConfig::default());
        net.set_round_threads(1);
        let at = tr.now_ns();
        net.set_trace(Recorder::new());
        let r = solve(&mut net, q, seed).expect("probe solve succeeds");
        let rec = net.take_trace().expect("recorder installed");
        tr.import(&rec, at, request);
        (r, rec)
    });
    (r, t.elapsed().as_secs_f64() * 1e3, rec)
}

/// Shares of the `request` spans' wall time spent inside `prepare:*`
/// spans, and outside any `solve:*` span (unattributed). `None` unless the
/// tracer holds the program's own solve spans.
fn shares(tr: &Tracer) -> Option<(f64, f64)> {
    let spans = tr.spans();
    let request_ns: u64 = spans.iter().filter(|s| s.name == "request").map(|s| s.dur_ns()).sum();
    if request_ns == 0 || !spans.iter().any(|s| s.name.starts_with("solve:")) {
        return None;
    }
    let kind_ns = |prefix: &str| -> u64 {
        // Outermost spans of the kind only, so nesting is not counted twice.
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter(|s| s.parent.is_none_or(|p| !spans[p].name.starts_with(prefix)))
            .map(|s| s.dur_ns())
            .sum()
    };
    let prepare = kind_ns("prepare:") as f64 / request_ns as f64;
    let solve = kind_ns("solve:") as f64 / request_ns as f64;
    Some((prepare, (1.0 - solve).max(0.0)))
}

/// `k` distinct nodes of `g`, sorted (a skeleton node set of that size).
fn skeleton_nodes(g: &Graph, k: usize, seed: u64) -> Vec<NodeId> {
    let mut nodes = hybrid_scenarios::workloads::random_nodes(g.len(), k.max(1), seed);
    nodes.sort();
    nodes.dedup();
    nodes
}

/// Runs every probe and adds the per-layer metrics to `m`. `workload_tr`
/// holds the spans of the workload's traced requests; `stats` its broker
/// counters.
pub fn run(
    ctx: &ProbeCtx,
    stats: Option<&Stats>,
    workload_tr: &Tracer,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let g = &ctx.g;
    let n = g.len();
    let seed = ctx.solve_seed;
    let mix = hybrid_bench::experiments::mixed_query_batch(8);

    // The paper mix on the workload graph: per-label cold solve time and
    // the (h, skeleton size) shapes the kernel probes below are sized by.
    let mut shape: BTreeMap<&'static str, Report> = BTreeMap::new();
    let mut mix_ms = BTreeMap::new();
    let mut exchange_sizes = ctx.exchange_sizes.clone();
    let mut probe_tr = tr.fork();
    for (i, q) in mix.iter().enumerate() {
        let (r, first_ms, rec) = traced_solve(g, q, seed, &mut probe_tr, PROBE_ID + i as u64);
        // Cheap queries are re-timed for a steadier median.
        let mut times = vec![first_ms];
        if first_ms < 300.0 {
            for rep in 1..3 {
                let t = Instant::now();
                let mut net = HybridNet::new(g, HybridConfig::default());
                net.set_round_threads(1);
                let again = tr.span("core.solve", PROBE_ID + rep, |_| solve(&mut net, q, seed));
                times.push(t.elapsed().as_secs_f64() * 1e3);
                drop(again);
            }
        }
        mix_ms.insert(q.label(), median(&times));
        if ctx.exchange_sizes.is_empty() {
            collect_exchanges(&rec, &mut exchange_sizes);
        }
        shape.insert(q.label(), r);
    }
    // The workload's own distinct queries (the mix itself, except on
    // serve-churn): round bill, messages, referee cost.
    let own: Vec<(Report, f64)> = if ctx.queries == mix {
        mix.iter().map(|q| (shape[q.label()].clone(), mix_ms[q.label()])).collect()
    } else {
        ctx.queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let (r, ms, rec) =
                    traced_solve(g, q, seed, &mut probe_tr, PROBE_ID + 100 + i as u64);
                collect_exchanges(&rec, &mut exchange_sizes);
                (r, ms)
            })
            .collect()
    };
    let h_of = |label: &str| (shape[label].h.max(1), shape[label].skeleton_size.max(1));

    // graph: all-sources Dijkstra rows, as the Thm 1.1 assembly runs them.
    let all: Vec<NodeId> = g.nodes().collect();
    let mut rows = vec![INFINITY; n * n];
    let dij = time_ms(tr, "graph.par_lex_rows_with", 3, || {
        par_lex_rows_with(g, &all, &mut rows, |_, _, dist, _, row| row.copy_from_slice(dist));
    });
    drop(rows);
    m.add("graph.dijkstra_rows_ms", "ms", dij, format!("n={n} sources, median of 3"));

    // graph: the d_h DP at Thm 1.3's shape, and its repair after a delta.
    let (h13, k13) = h_of("sssp-thm13");
    let nodes13 = skeleton_nodes(g, k13, derive_seed(seed, 13));
    let mut skel13 = None;
    let dh = time_ms(tr, "graph.Skeleton::from_nodes", 3, || {
        skel13 = Some(Skeleton::from_nodes(g, nodes13.clone(), h13).expect("skeleton builds"));
    });
    m.add("graph.dh_ms", "ms", dh, format!("h={h13} |S|={}, median of 3", nodes13.len()));
    let g2 = g.apply_delta(&ctx.batch).expect("probe batch validates");
    let touched = ctx.batch.touched_nodes();
    let dirty: Vec<bool> = mark_within_hops(g, &touched, h13)
        .into_iter()
        .zip(mark_within_hops(&g2, &touched, h13))
        .map(|(a, b)| a || b)
        .collect();
    let skel13 = skel13.expect("built above");
    let repair =
        time_ms(tr, "graph.Skeleton::repair", 3, || skel13.repair(&g2, &dirty).expect("repairs"));
    let dirty_frac = dirty.iter().filter(|&&d| d).count() as f64 / n as f64;
    m.add(
        "graph.dh_repair_ms",
        "ms",
        repair,
        format!("dirty fraction {dirty_frac:.3}, median of 3"),
    );
    let apply_us = 1e3 * time_ms(tr, "graph.Graph::apply_delta", 21, || g.apply_delta(&ctx.batch));
    m.add("graph.apply_delta_us", "us", apply_us, format!("{} ops, median of 21", ctx.batch.len()));

    // graph: min-plus and skeleton APSP at Thm 1.1's shape.
    let (h11, k11) = h_of("apsp-thm11");
    let a: Vec<Distance> = (0..n * k11).map(|i| 1 + derive_seed(seed, i as u64) % 64).collect();
    let b: Vec<Distance> = (0..k11 * n).map(|i| 1 + derive_seed(seed ^ 1, i as u64) % 64).collect();
    let mut out = vec![INFINITY; n * n];
    let mp = time_ms(tr, "graph.min_plus_into", 3, || {
        out.fill(INFINITY);
        min_plus_into(&a, &b, &mut out, n, n);
    });
    m.add("graph.minplus_ms", "ms", mp, format!("({n}x{k11})x({k11}x{n}), median of 3"));
    drop(out);
    let skel11 = Skeleton::from_nodes(g, skeleton_nodes(g, k11, derive_seed(seed, 11)), h11)
        .expect("skeleton builds");
    let sapsp = time_ms(tr, "graph.Skeleton::apsp", 3, || skel11.apsp());
    m.add(
        "graph.skeleton_apsp_ms",
        "ms",
        sapsp,
        format!("|S|={} h={h11}, median of 3", skel11.len()),
    );

    // sim: the deterministic bill per request, and the exchange engine.
    let rounds: Vec<f64> = own.iter().map(|(r, _)| r.rounds as f64).collect();
    let msgs: Vec<f64> = own.iter().map(|(r, _)| r.global_messages as f64).collect();
    m.add(
        "sim.rounds",
        "count",
        mean(&rounds),
        format!("mean over {} distinct queries", own.len()),
    );
    m.add(
        "sim.global_messages",
        "count",
        mean(&msgs),
        format!("mean over {} distinct queries", own.len()),
    );
    let sizes: Vec<f64> = exchange_sizes.iter().map(|&s| s as f64).collect();
    let size = if sizes.is_empty() { 1 } else { median(&sizes).round().max(1.0) as usize };
    let ns_per_msg = exchange_ns_per_msg(g, size, seed, tr);
    m.add(
        "sim.exchange_ns_per_msg",
        "ns",
        ns_per_msg,
        format!("batches of {size} (median of {} program exchanges)", sizes.len()),
    );

    // clique: the declared algorithms on the skeleton graph.
    let (h46, k46) = h_of("kssp-cor46");
    let skel46 = Skeleton::from_nodes(g, skeleton_nodes(g, k46, derive_seed(seed, 46)), h46)
        .expect("skeleton builds");
    let sources: Vec<NodeId> = (0..skel46.len().min(2)).map(NodeId::new).collect();
    let kssp_alg = DeclaredKssp::censor_hillel_sqrt_sources(0.5, derive_seed(seed, 46));
    let kssp = time_ms(tr, "clique.DeclaredKssp::run", 3, || {
        kssp_alg.run(&mut CliqueNet::new(skel46.len()), skel46.graph(), &sources).expect("runs")
    });
    m.add(
        "clique.kssp_run_ms",
        "ms",
        kssp,
        format!("|S|={} k={}, median of 3", skel46.len(), sources.len()),
    );
    let (h52, k52) = h_of("diameter-cor52");
    let skel52 = Skeleton::from_nodes(g, skeleton_nodes(g, k52, derive_seed(seed, 52)), h52)
        .expect("skeleton builds");
    let diam_alg = DeclaredDiameter32::new(0.5, derive_seed(seed, 52));
    let diam = time_ms(tr, "clique.DeclaredDiameter32::run", 3, || {
        diam_alg.run(&mut CliqueNet::new(skel52.len()), skel52.graph()).expect("runs")
    });
    m.add("clique.diameter_run_ms", "ms", diam, format!("|S|={}, median of 3", skel52.len()));

    // core: cold solve per label, span shares, memo hits, preambles, repair.
    for q in &mix {
        let (v, src) = match ctx.label_ms.get(q.label()) {
            Some(&v) => (v, "median of the workload's own requests"),
            None => (mix_ms[q.label()], "probe, median of up to 3"),
        };
        m.add(&format!("core.solve_ms.{}", q.label()), "ms", v, src);
    }
    let (share_tr, src) = if shares(workload_tr).is_some() {
        (workload_tr, "workload's traced requests")
    } else {
        (&probe_tr, "probe cold solves")
    };
    let (prepare, unattributed) = shares(share_tr).unwrap_or((0.0, 0.0));
    m.add("core.prepare_share", "ratio", prepare, src);
    m.add("core.unattributed_share", "ratio", unattributed, src);

    let scfg = SessionConfig { round_threads: Some(1), ..SessionConfig::new(seed) };
    let session = Session::new(g, scfg.clone()).expect("session opens");
    let apsp_q = &mix[0];
    let row_q = &mix[2];
    session.solve(apsp_q).expect("apsp solves");
    session.solve(row_q).expect("sssp solves");
    let hit_apsp = 1e3 * time_ms(tr, "core.Session::solve", 21, || session.solve(apsp_q));
    let hit_row = 1e3 * time_ms(tr, "core.Session::solve", 101, || session.solve(row_q));
    m.add("core.memo_hit_us.apsp", "us", hit_apsp, "memoized apsp-thm11, median of 21");
    m.add("core.memo_hit_us.row", "us", hit_row, "memoized sssp-thm13, median of 101");
    drop(session);

    let replay = Session::new(g, scfg).expect("session opens");
    for q in &ctx.queries {
        replay.solve(q).expect("replay solves");
    }
    let st = replay.stats();
    m.add(
        "core.preambles_per_query",
        "ratio",
        st.skeletons_prepared as f64 / st.queries.max(1) as f64,
        format!("{} preambles / {} queries", st.skeletons_prepared, st.queries),
    );
    m.add(
        "core.prepared_mb",
        "MB",
        st.prepared_bytes as f64 / 1e6,
        "after replaying the workload's distinct queries",
    );
    let mut repair_rep = None;
    let repair_ms = time_ms(tr, "core.Session::apply_delta", 3, || {
        let (next, rep) = replay.apply_delta(&ctx.batch).expect("delta applies");
        repair_rep = Some(rep);
        next
    });
    m.add(
        "core.repair_ms",
        "ms",
        repair_ms,
        "replayed session across the workload's delta, median of 3",
    );
    let (patched, full, src) = match stats {
        Some(s)
            if s.get("repair_patched").copied().unwrap_or(0)
                + s.get("repair_full").copied().unwrap_or(0)
                > 0 =>
        {
            (s["repair_patched"], s["repair_full"], "STATS")
        }
        _ => {
            let rep = repair_rep.expect("repaired above");
            (rep.patched as u64, rep.full as u64, "probe repair report")
        }
    };
    m.add(
        "core.repair_patched_frac",
        "ratio",
        patched as f64 / (patched + full).max(1) as f64,
        format!("{src}: patched={patched} full={full}"),
    );

    // serve: digest, referee, wire parsing, broker counters.
    let apsp_report = &shape["apsp-thm11"];
    let digest = time_ms(tr, "serve.report_digest", 5, || report_digest(apsp_report));
    m.add("serve.digest_ms.apsp", "ms", digest, format!("n={n} apsp-thm11 report, median of 5"));
    let referee: Vec<f64> = own.iter().map(|(_, ms)| *ms).collect();
    m.add(
        "serve.referee_ms",
        "ms",
        median(&referee),
        format!("median over {} distinct queries", own.len()),
    );
    let reps = 2000 / ctx.lines.len().max(1) + 1;
    let t = Instant::now();
    tr.span("serve.parse_request", PROBE_ID, |_| {
        for _ in 0..reps {
            for l in &ctx.lines {
                std::hint::black_box(parse_request(std::hint::black_box(l)).is_ok());
            }
        }
    });
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / (reps * ctx.lines.len()) as f64;
    m.add(
        "serve.wire_parse_us",
        "us",
        parse_us,
        format!("mean over {} lines x {reps}", ctx.lines.len()),
    );
    let stat = |k: &str| stats.and_then(|s| s.get(k).copied()).unwrap_or(0);
    let hits = stat("session_hits");
    let lookups = hits + stat("admitted");
    let src = if stats.is_some() { "STATS" } else { "no broker on this workload" };
    m.add(
        "serve.session_hit_rate",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
        format!("{src}: {hits}/{lookups}"),
    );
    m.add("serve.evicted", "count", stat("evicted") as f64, src);
    m.add("serve.shed", "count", (stat("shed") + stat("deadline_shed")) as f64, src);

    tr.absorb(probe_tr);
}

/// Appends the message count of every exchange in `rec`.
fn collect_exchanges(rec: &Recorder, out: &mut Vec<u64>) {
    for ev in rec.events() {
        if let TraceEvent::Exchange { messages, .. } = ev {
            out.push(*messages);
        }
    }
}

/// `HybridNet::exchange` on batches of `size` messages: median ns per
/// message over many calls (batches are built off the clock).
fn exchange_ns_per_msg(g: &Graph, size: usize, seed: u64, tr: &mut Tracer) -> f64 {
    let n = g.len();
    let calls = (200_000 / size).clamp(20, 2000);
    let mut net = HybridNet::new(g, HybridConfig::default());
    net.set_round_threads(1);
    let batch: Vec<Envelope<u64>> = (0..size)
        .map(|i| {
            let d = derive_seed(seed, i as u64);
            Envelope::new(NodeId::new(i % n), NodeId::new((d % n as u64) as usize), d)
        })
        .collect();
    let mut ns = Vec::with_capacity(calls);
    for c in 0..calls {
        let outbox = batch.clone();
        let t = Instant::now();
        let inboxes = tr.span("sim.HybridNet::exchange", PROBE_ID + c as u64, |_| {
            net.exchange("probe", outbox).expect("exchange succeeds")
        });
        ns.push(t.elapsed().as_nanos() as f64);
        drop(inboxes);
    }
    median(&ns) / size as f64
}

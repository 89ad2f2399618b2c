//! The experiment runners E1–E16. Each returns a printable table, which the
//! `experiments` binary prints.
//!
//! Workload construction is delegated to the scenario engine
//! (`hybrid_scenarios`): the shared helpers in
//! [`hybrid_scenarios::workloads`] and, for the scenario matrix (E16) and the
//! perf sweep, the named registry entries themselves.

use clique_sim::declared::DeclaredKssp;
use clique_sim::{Beta, SourceCapacity};
use hybrid_core::helpers::compute_helpers;
use hybrid_core::lower_bound_experiments::{run_diameter_lower_bound, run_kssp_lower_bound};
use hybrid_core::ruling_set::{ruling_set, verify};
use hybrid_core::session::{Session, SessionConfig};
use hybrid_core::solver::{
    solve, ApspVariant, DiameterCorollary, KsspCorollary, Query, SsspVariant,
};
use hybrid_core::token_routing::{mu_for, route_tokens, RoutingRates, Token};
use hybrid_graph::apsp::apsp;
use hybrid_graph::dijkstra::shortest_path_diameter;
use hybrid_graph::generators::{cycle, grid, path_with_heavy_hub};
use hybrid_graph::skeleton::{count_coverage_violations, count_distance_violations};
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};
use hybrid_scenarios::workloads::{er, random_nodes};
use hybrid_scenarios::{
    registry, run_scenario_traced, run_scenario_with, run_scenarios_with, Engine, FaultPlan,
    Scenario, ScenarioReport,
};
use hybrid_sim::{HybridConfig, HybridNet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{f3, Table};

/// Experiment scale: `Small` for CI/benches, `Full` for the recorded tables,
/// `Large` for the n=3200 sweeps (compact-layout stress runs; correctness is
/// sample-verified there to keep one distance matrix in memory at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast sizes for CI and smoke runs.
    Small,
    /// The default sizes of the `experiments` binary.
    Full,
    /// The extended n≤3200 sweeps (`experiments --large`).
    Large,
}

impl Scale {
    fn pick<T: Copy>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full | Scale::Large => full,
        }
    }

    fn pick3<T: Copy>(self, small: T, full: T, large: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
            Scale::Large => large,
        }
    }
}

/// The E2 workload graph, built from the registry's `e2-er` scenario so the
/// experiment tables and the perf sweep benchmark the exact same instance —
/// which is also bit-identical to the pre-registry `er(n, 12.0, 4, 3)`
/// instances recorded in `BENCH_apsp.json`, keeping the perf trajectory
/// comparable across PRs.
fn e2_graph(n: usize) -> Graph {
    hybrid_scenarios::find("e2-er").expect("registered").graph(n)
}

fn ratio_stats(est: &[Vec<Distance>], exact: &[Vec<Distance>]) -> (f64, f64) {
    let (mut worst, mut sum, mut cnt) = (1.0f64, 0.0f64, 0u64);
    for (row, erow) in est.iter().zip(exact) {
        for (&a, &e) in row.iter().zip(erow) {
            if e == 0 || e == INFINITY || a == INFINITY {
                continue;
            }
            let r = a as f64 / e as f64;
            worst = worst.max(r);
            sum += r;
            cnt += 1;
        }
    }
    (worst, if cnt > 0 { sum / cnt as f64 } else { 1.0 })
}

/// E1 — Theorem 2.2: token routing rounds vs the `Õ(K/n + √k_S + √k_R)` shape.
pub fn e1_token_routing(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1: token routing (Thm 2.2) — rounds vs Õ(K/n + √kS + √kR)",
        &["n", "|S|", "|R|", "kS", "kR", "K", "rounds", "K/n+√kS+√kR"],
    );
    let sizes: &[usize] = scale.pick(&[150, 300], &[200, 400, 800, 1600]);
    for &n in sizes {
        let g = er(n, 10.0, 1, 7);
        let s_count = (n as f64).sqrt() as usize;
        let senders = random_nodes(n, s_count, 1);
        let receivers = random_nodes(n, s_count, 2);
        let per = (n as f64).sqrt() as usize;
        let mut rng = StdRng::seed_from_u64(3);
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..per {
                let r = receivers[rng.gen_range(0..receivers.len())];
                tokens.push(Token::new(s, r, i as u32, 0u64));
            }
        }
        let k_total = tokens.len();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let routed = route_tokens(
            &mut net,
            tokens,
            &senders,
            &receivers,
            RoutingRates {
                p_s: senders.len() as f64 / n as f64,
                p_r: receivers.len() as f64 / n as f64,
            },
            11,
            "tr",
        )
        .expect("routing");
        let ks = per;
        let kr = k_total.div_ceil(receivers.len().max(1));
        let pred = k_total as f64 / n as f64 + (ks as f64).sqrt() + (kr as f64).sqrt();
        t.row(vec![
            n.to_string(),
            senders.len().to_string(),
            receivers.len().to_string(),
            ks.to_string(),
            kr.to_string(),
            k_total.to_string(),
            routed.rounds.to_string(),
            f3(pred),
        ]);
    }
    t
}

/// E2 — Theorem 1.1 vs the SODA'20 baseline: exact APSP round scaling.
///
/// At [`Scale::Large`] (n up to 3200) correctness is verified on 16 sampled
/// Dijkstra rows instead of a third full `n × n` matrix, so at most one
/// distance matrix beyond the answers is ever resident — the sweep fits the
/// container at n=3200.
pub fn e2_apsp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2: exact APSP (Thm 1.1, Õ(√n)) vs Augustine et al. baseline (Õ(n^2/3))",
        &["n", "thm1.1 rounds", "soda20 rounds", "√n·ln n", "n^2/3·ln n", "both exact"],
    );
    let sizes: &[usize] = scale.pick3(&[200, 400], &[300, 500, 800, 1200], &[800, 1600, 3200]);
    for &n in sizes {
        let g = e2_graph(n);
        let mut na = HybridNet::new(&g, HybridConfig::default());
        let a = solve(&mut na, &Query::apsp().xi(1.5).build().expect("valid"), 5).expect("apsp");
        let mut nb = HybridNet::new(&g, HybridConfig::default());
        let soda = Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().expect("valid");
        let b = solve(&mut nb, &soda, 5).expect("apsp baseline");
        let (ad, bd) = (a.distances().expect("matrix"), b.distances().expect("matrix"));
        let mut ok = true;
        if scale == Scale::Large {
            // Sampled verification: 16 deterministic source rows.
            let sources: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * (n / 16).max(1))).collect();
            for &u in &sources {
                let truth = hybrid_graph::dijkstra::dijkstra(&g, u);
                for v in g.nodes() {
                    ok &= ad.get(u, v) == truth.dist(v) && bd.get(u, v) == truth.dist(v);
                }
            }
        } else {
            let exact = apsp(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    ok &= ad.get(u, v) == exact.get(u, v) && bd.get(u, v) == exact.get(u, v);
                }
            }
        }
        let ln = (n as f64).ln();
        t.row(vec![
            n.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            f3((n as f64).sqrt() * ln),
            f3((n as f64).powf(2.0 / 3.0) * ln),
            ok.to_string(),
        ]);
    }
    t
}

/// E3 — Theorem 1.2 (Corollaries 4.6–4.8): k-SSP approximation quality and
/// runtime.
pub fn e3_kssp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3: k-SSP (Thm 1.2) — measured approximation vs guarantee",
        &["alg", "graph", "k", "rounds", "max ratio", "mean ratio", "guarantee"],
    );
    let n = scale.pick(150, 400);
    let side = (n as f64).sqrt() as usize;
    // The cycle has D = n/2 ≫ ηh, so the skeleton path (and its approximation
    // error) is actually exercised; on the small-diameter families the local
    // horizon already covers everything and ratios sit at 1.0.
    let cases: Vec<(&str, Graph, bool)> = vec![
        ("grid(unw)", grid(side, side, 1).expect("grid"), true),
        ("cycle(unw)", cycle(n, 1).expect("cycle"), true),
        ("er(w)", er(n, 10.0, 6, 9), false),
    ];
    for (gname, g, _unweighted) in &cases {
        let exact = apsp(g);
        // One serving session per graph: the three corollaries share the
        // session's prepared skeletons (4.6/4.7 sample at the same exponent)
        // with bit-identical reports.
        let session = Session::new(g, SessionConfig::new(31)).expect("session");
        for (cor, k, eps) in [
            (KsspCorollary::Cor46, 3usize, 0.5),
            (KsspCorollary::Cor47, 12, 0.5),
            (KsspCorollary::Cor48, 12, 0.25),
        ] {
            let sources = random_nodes(g.len(), k, 21);
            let exact_rows: Vec<Vec<Distance>> =
                sources.iter().map(|&s| exact.row(s).to_vec()).collect();
            let query =
                Query::kssp(cor).sources(sources.clone()).eps(eps).xi(1.5).build().expect("valid");
            let out = session.solve(&query).expect("kssp");
            let (_, est) = out.distance_rows().expect("rows");
            let (worst, mean) = ratio_stats(est, &exact_rows);
            t.row(vec![
                format!("cor{}", cor.number()),
                gname.to_string(),
                sources.len().to_string(),
                out.rounds.to_string(),
                f3(worst),
                f3(mean),
                f3(out.guarantee.factor()),
            ]);
        }
    }
    t
}

/// E4 — Theorem 1.3: exact SSSP `Õ(n^{2/5})` vs the `Θ(SPD)` local baseline
/// (and the `√SPD` reference of \[3\]).
pub fn e4_sssp(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4: exact SSSP (Thm 1.3, Õ(n^2/5)) on high-SPD graphs",
        &["n", "SPD", "thm1.3 rounds", "local BF rounds", "√SPD ref", "exact"],
    );
    let sizes: &[usize] = scale.pick(&[600], &[800, 1600, 3200]);
    for &n in sizes {
        let g = path_with_heavy_hub(n, (n as u64) * 2).expect("hub graph");
        let spd = if n <= 800 { shortest_path_diameter(&g) } else { (n - 2) as u64 };
        let source = NodeId::new(0);
        let mut na = HybridNet::new(&g, HybridConfig::default());
        // ξ = 3: the Lemma C.1 failure probability is ≈ n^{-2}; the "exact"
        // column reports the Monte Carlo outcome.
        let a =
            solve(&mut na, &Query::sssp(source).xi(3.0).build().expect("valid"), 3).expect("sssp");
        let mut nb = HybridNet::new(&g, HybridConfig::default());
        let bf = Query::sssp(source).variant(SsspVariant::LocalBellmanFord).build().expect("valid");
        let b = solve(&mut nb, &bf, 3).expect("local bf");
        t.row(vec![
            n.to_string(),
            spd.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            f3((spd as f64).sqrt()),
            (a.distance_row().expect("row").1 == b.distance_row().expect("row").1).to_string(),
        ]);
    }
    t
}

/// E5 — Theorem 1.4 (Corollaries 5.2, 5.3): diameter approximation.
pub fn e5_diameter(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5: diameter (Thm 1.4) — (3/2+ε) in Õ(n^1/3), (1+ε) in Õ(n^0.397)",
        &["n", "D", "alg", "estimate", "ratio", "guarantee", "rounds"],
    );
    let sizes: &[usize] = scale.pick(&[300, 600], &[300, 600, 1200, 2400]);
    for &n in sizes {
        let g = cycle(n, 1).expect("cycle");
        let d = (n / 2) as u64;
        // Both corollaries serve from one session over the cycle instance.
        let session =
            Session::new(&g, SessionConfig { xi: 1.2, ..SessionConfig::new(5) }).expect("session");
        for cor in [DiameterCorollary::Cor52, DiameterCorollary::Cor53] {
            let query = Query::diameter(cor).eps(0.5).xi(1.2).build().expect("valid");
            let out = session.solve(&query).expect("diameter");
            let estimate = out.diameter_estimate().expect("estimate");
            t.row(vec![
                n.to_string(),
                d.to_string(),
                format!("cor{}", cor.number()),
                estimate.to_string(),
                f3(estimate as f64 / d as f64),
                f3(out.guarantee.factor()),
                out.rounds.to_string(),
            ]);
        }
    }
    t
}

/// E6 — Theorem 1.5 / Figure 1: the k-SSP information bottleneck.
pub fn e6_kssp_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6: k-SSP lower bound (Thm 1.5, Fig. 1) — entropy vs cut capacity",
        &[
            "k",
            "L",
            "n",
            "entropy bits",
            "cut bits/rd",
            "predicted LB",
            "measured",
            "cut msgs",
            "b decodes",
        ],
    );
    let ks: &[usize] = scale.pick(&[16, 36], &[16, 64, 144, 256]);
    for &k in ks {
        let l = (k as f64).sqrt().ceil() as usize;
        let rep = run_kssp_lower_bound(6 * l, l, k, 0.5, 5).expect("lb run");
        t.row(vec![
            k.to_string(),
            l.to_string(),
            rep.n.to_string(),
            f3(rep.entropy_bits),
            f3(rep.cut_capacity_bits_per_round),
            f3(rep.predicted_round_lb),
            rep.measured_rounds.to_string(),
            rep.measured_cut_messages.to_string(),
            rep.b_decodes_assignment.to_string(),
        ]);
    }
    t
}

/// E7 — Theorem 1.6 / Figure 2: the diameter gap and the implied bound.
pub fn e7_diameter_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7: diameter lower bound (Thm 1.6, Fig. 2) — set-disjointness gap",
        &[
            "k",
            "ell",
            "W",
            "instance",
            "n",
            "diameter",
            "lemma",
            "implied LB",
            "approx est",
            "cut msgs",
        ],
    );
    let ks: &[usize] = scale.pick(&[3, 5], &[4, 8, 12]);
    for &k in ks {
        for disjoint in [true, false] {
            for w in [1u64, 16] {
                let rep = run_diameter_lower_bound(k, 4, w, disjoint, 0.5, 11).expect("lb");
                assert!(rep.true_diameter <= rep.lemma_diameter);
                t.row(vec![
                    k.to_string(),
                    rep.ell.to_string(),
                    w.to_string(),
                    if disjoint { "disjoint" } else { "intersect" }.to_string(),
                    rep.n.to_string(),
                    rep.true_diameter.to_string(),
                    rep.lemma_diameter.to_string(),
                    f3(rep.implied_round_lb),
                    rep.approx_estimate.to_string(),
                    rep.cut_messages.to_string(),
                ]);
            }
        }
    }
    t
}

/// E8 — Lemma 2.2: helper-set invariants.
pub fn e8_helper_sets(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8: helper sets (Lemma 2.2) — size / radius / membership invariants",
        &["n", "|W|", "mu", "min |H_w|", "max radius", "4µ⌈log n⌉", "max member", "rounds"],
    );
    let n = scale.pick(200, 600);
    let g = er(n, 8.0, 1, 13);
    let log = hybrid_graph::graph::log2_ceil(n);
    for mu in [2usize, 4, 8] {
        let w = random_nodes(n, n / 10, 17);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let hs = compute_helpers(&mut net, &w, mu, 19, "helpers");
        let min_size = w.iter().map(|&x| hs.helpers(x).len()).min().unwrap_or(0);
        let mut max_radius = 0u64;
        for &x in &w {
            let d = hybrid_graph::bfs::bfs(&g, x);
            for &h in hs.helpers(x) {
                max_radius = max_radius.max(d.dist(h));
            }
        }
        t.row(vec![
            n.to_string(),
            w.len().to_string(),
            mu.to_string(),
            min_size.to_string(),
            max_radius.to_string(),
            (4 * mu * log).to_string(),
            hs.max_membership().to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E9 — Lemma 2.1: ruling-set contract and round cost.
pub fn e9_ruling_sets(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9: ruling sets (Lemma 2.1) — (2µ+1, 2µ⌈log n⌉) in O(µ log n) rounds",
        &["n", "mu", "|R|", "min pairwise", "α", "max dominate", "β", "rounds"],
    );
    let n = scale.pick(200, 800);
    let g = er(n, 6.0, 1, 23);
    for mu in [1usize, 2, 4, 8] {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let rs = ruling_set(&mut net, mu, "rs");
        let (min_pair, max_dom) = verify(&g, &rs);
        t.row(vec![
            n.to_string(),
            mu.to_string(),
            rs.rulers.len().to_string(),
            if rs.rulers.len() > 1 { min_pair.to_string() } else { "-".into() },
            rs.alpha.to_string(),
            max_dom.to_string(),
            rs.beta.to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E10 — Lemmas C.1 / C.2: skeleton coverage and distance preservation.
pub fn e10_skeletons(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10: skeletons (Lemmas C.1/C.2) — coverage + distance preservation",
        &["n", "x exp", "|V_S|", "h", "coverage viol.", "distance viol."],
    );
    let n = scale.pick(200, 500);
    let g = er(n, 8.0, 5, 29);
    let mut rng = StdRng::seed_from_u64(31);
    for x_exp in [1.0 / 3.0, 0.5, 2.0 / 3.0] {
        let x_lemma = (n as f64).powf(1.0 - x_exp);
        let params = hybrid_graph::skeleton::SkeletonParams::scaled(x_lemma, 1.5);
        let skel =
            hybrid_graph::skeleton::Skeleton::build(&g, params, &[], &mut rng).expect("skeleton");
        let pairs: Vec<(NodeId, NodeId)> = (0..40)
            .map(|i| (NodeId::new((i * 13) % n), NodeId::new((i * 31 + 7) % n)))
            .filter(|(a, b)| a != b)
            .collect();
        let cov = count_coverage_violations(&g, skel.nodes(), skel.h(), &pairs);
        let dist = count_distance_violations(&g, &skel);
        t.row(vec![
            n.to_string(),
            f3(x_exp),
            skel.len().to_string(),
            skel.h().to_string(),
            cov.to_string(),
            dist.to_string(),
        ]);
    }
    t
}

/// E11 — Lemma D.2 / Lemma 2.3: receive-load histogram during token routing.
pub fn e11_congestion(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11: congestion (Lemma D.2) — per-round receive loads stay O(log n)",
        &["n", "K", "recv cap", "max recv load", "p99 load", "stretched"],
    );
    let sizes: &[usize] = scale.pick(&[200], &[200, 500, 1000]);
    for &n in sizes {
        let g = er(n, 10.0, 1, 37);
        let senders = random_nodes(n, n / 8, 41);
        let receivers = random_nodes(n, n / 8, 43);
        let mut rng = StdRng::seed_from_u64(47);
        let mut tokens = Vec::new();
        for &s in &senders {
            for i in 0..12u32 {
                let r = receivers[rng.gen_range(0..receivers.len())];
                tokens.push(Token::new(s, r, i, 0u8));
            }
        }
        let k = tokens.len();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        route_tokens(
            &mut net,
            tokens,
            &senders,
            &receivers,
            RoutingRates { p_s: 0.125, p_r: 0.125 },
            53,
            "tr",
        )
        .expect("routing");
        let m = net.metrics();
        let hist = &m.recv_load_hist;
        let total: u64 = hist.iter().sum();
        let mut acc = 0u64;
        let mut p99 = 0usize;
        for (load, &c) in hist.iter().enumerate() {
            acc += c;
            if acc as f64 >= 0.99 * total as f64 {
                p99 = load;
                break;
            }
        }
        t.row(vec![
            n.to_string(),
            k.to_string(),
            net.recv_cap().to_string(),
            m.max_recv_load.to_string(),
            p99.to_string(),
            m.stretched_exchanges.to_string(),
        ]);
    }
    t
}

/// E12 — Corollary 4.1: HYBRID cost of one simulated CLIQUE round vs
/// `Õ(n^{2x-1} + n^{x/2})`.
pub fn e12_clique_sim(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12: CLIQUE-on-skeleton (Cor 4.1) — one clique round in Õ(n^{2x-1}+n^{x/2})",
        &["n", "x", "|S|", "hybrid rounds/clique round", "n^{2x-1}+n^{x/2}"],
    );
    let n = scale.pick(300, 800);
    let g = er(n, 10.0, 3, 59);
    for x in [0.4f64, 0.5, 0.6, 2.0 / 3.0] {
        // A declared plugin with T_A = 1 makes the report's measured
        // full-round cost the quantity of interest.
        let alg =
            DeclaredKssp::custom("probe", SourceCapacity::Apsp, 0.0, 1.0, 1.0, Beta::Zero, None);
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let skel = hybrid_core::skeleton_ops::compute_skeleton(&mut net, x, 1.0, &[], 61, "s")
            .expect("skeleton");
        let before = net.rounds();
        let sources = vec![NodeId::new(0)];
        let (_, rep) = hybrid_core::clique_on_skeleton::simulate_kssp_on_skeleton(
            &mut net, &skel, &alg, &sources, 67, "cs",
        )
        .expect("clique sim");
        let _ = before;
        let nf = n as f64;
        let pred = nf.powf(2.0 * x - 1.0) + nf.powf(x / 2.0);
        t.row(vec![
            n.to_string(),
            f3(x),
            skel.len().to_string(),
            rep.hybrid_rounds.to_string(),
            f3(pred),
        ]);
    }
    t
}

/// E13 — ablation: the skeleton constant `ξ` (correctness/cost trade-off the
/// w.h.p. Lemma C.1 constant controls).
pub fn e13_xi_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13 (ablation): skeleton constant ξ — h, rounds, exactness of Thm 1.1 APSP",
        &["n", "xi", "|V_S|", "h", "rounds", "exact", "fallbacks"],
    );
    let n = scale.pick(200, 400);
    let g = er(n, 10.0, 4, 71);
    let exact = apsp(&g);
    for xi in [0.25f64, 0.5, 1.0, 1.5, 2.5] {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let out = solve(&mut net, &Query::apsp().xi(xi).build().expect("valid"), 73).expect("apsp");
        let dist = out.distances().expect("matrix");
        let mut ok = true;
        for u in g.nodes() {
            for v in g.nodes() {
                ok &= dist.get(u, v) == exact.get(u, v);
            }
        }
        t.row(vec![
            n.to_string(),
            f3(xi),
            out.skeleton_size.to_string(),
            out.h.to_string(),
            out.rounds.to_string(),
            ok.to_string(),
            out.coverage_fallbacks.to_string(),
        ]);
    }
    t
}

/// E14 — ablation: the helper budget µ (none / rebalanced √k/log n / the
/// paper's √k) on a fixed heavy routing workload.
pub fn e14_mu_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E14 (ablation): helper budget µ — setup vs routing trade-off (Thm 2.2)",
        &["n", "kR", "policy", "µ", "setup rounds", "route rounds", "total"],
    );
    let n = scale.pick(300, 800);
    let g = er(n, 10.0, 1, 79);
    let receivers = random_nodes(n, (n as f64).sqrt() as usize, 83);
    let senders: Vec<NodeId> = g.nodes().collect();
    // Every node sends one token to every receiver: kR = n (the APSP shape).
    let make_tokens = || -> Vec<Token<u8>> {
        let mut tokens = Vec::new();
        for &s in &senders {
            for (i, &r) in receivers.iter().enumerate() {
                if s != r {
                    tokens.push(Token::new(s, r, i as u32, 0));
                }
            }
        }
        tokens
    };
    let k_r = senders.len();
    let policies: Vec<(&str, usize)> = vec![
        ("µ=1 (no helpers)", 1),
        ("µ=√k/log n (default)", mu_for(k_r, receivers.len() as f64 / n as f64, n)),
        ("µ=√k (paper)", ((k_r as f64).sqrt() as usize).max(1)),
    ];
    for (name, mu) in policies {
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let session = hybrid_core::token_routing::RoutingSession::establish_with_budgets(
            &mut net, &senders, &receivers, 1, mu, 89, "tr",
        )
        .expect("session");
        let setup = net.rounds();
        let routed = session.route(&mut net, make_tokens(), "tr").expect("route");
        t.row(vec![
            n.to_string(),
            k_r.to_string(),
            name.to_string(),
            mu.to_string(),
            setup.to_string(),
            routed.rounds.to_string(),
            net.rounds().to_string(),
        ]);
    }
    t
}

/// E15 — ablation: the global bandwidth `γ` (the (λ, γ) spectrum of hybrid
/// networks, footnote 2): scaling the NCC message budget.
pub fn e15_gamma_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15 (ablation): global budget γ — APSP rounds vs NCC cap scaling",
        &["n", "cap factor", "send cap", "rounds", "exact"],
    );
    let n = scale.pick(200, 400);
    let g = er(n, 10.0, 4, 97);
    let exact = apsp(&g);
    for factor in [0.5f64, 1.0, 2.0, 4.0] {
        let cfg = HybridConfig {
            send_cap_factor: factor,
            recv_cap_factor: 4.0 * factor,
            overflow: hybrid_sim::OverflowPolicy::Stretch,
        };
        let mut net = HybridNet::new(&g, cfg);
        let out =
            solve(&mut net, &Query::apsp().xi(1.5).build().expect("valid"), 101).expect("apsp");
        let dist = out.distances().expect("matrix");
        let mut ok = true;
        for u in g.nodes() {
            for v in g.nodes() {
                ok &= dist.get(u, v) == exact.get(u, v);
            }
        }
        t.row(vec![
            n.to_string(),
            f3(factor),
            net.send_cap().to_string(),
            out.rounds.to_string(),
            ok.to_string(),
        ]);
    }
    t
}

/// Times the E2 APSP workload (Theorem 1.1, the SODA'20 baseline, and the
/// sequential reference APSP) and returns machine-readable records for
/// `BENCH_apsp.json` — the perf trajectory future PRs compare against.
/// Solver-backed records carry the canonical query label emitted by the new
/// API; the measured instances and algorithms are unchanged from the pre-facade
/// sweeps (pinned by `bench_apsp_json_pins_instances_and_algorithms`).
pub fn bench_apsp_records(scale: Scale) -> Vec<crate::json::BenchRecord> {
    use crate::json::BenchRecord;
    let sizes: &[usize] = scale.pick3(&[200, 400], &[300, 500, 800, 1200], &[800, 1600, 3200]);
    // Min-of-N interleaved runs (the documented methodology): each benchmark
    // is timed `RUNS` times and the minimum recorded, filtering scheduler
    // noise without changing the measured workload.
    const RUNS: usize = 3;
    let thm11 = Query::apsp().xi(1.5).build().expect("valid");
    let soda20 = Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().expect("valid");
    let mut records = Vec::new();
    for &n in sizes {
        let g = e2_graph(n);
        records.push(BenchRecord::measure_min_of("reference_apsp", n, RUNS, || {
            let m = apsp(&g);
            assert!(!m.is_empty());
            0
        }));
        records.push(
            BenchRecord::measure_min_of("thm11_apsp", n, RUNS, || {
                let mut net = HybridNet::new(&g, HybridConfig::default());
                solve(&mut net, &thm11, 5).expect("apsp").rounds
            })
            .with_query(thm11.label()),
        );
        records.push(
            BenchRecord::measure_min_of("soda20_apsp", n, RUNS, || {
                let mut net = HybridNet::new(&g, HybridConfig::default());
                solve(&mut net, &soda20, 5).expect("apsp baseline").rounds
            })
            .with_query(soda20.label()),
        );
    }
    records
}

/// The standard mixed serving batch: 8 distinct paper queries (both APSP
/// variants, exact and approximate SSSP, two k-SSP corollaries, both
/// diameter corollaries, all at the session's ξ = 1.5) cycled to length `q`
/// — the repeat-heavy shape of serving traffic on one graph.
pub fn mixed_query_batch(q: usize) -> Vec<Query> {
    let base = [
        Query::apsp().xi(1.5).build().expect("valid"),
        Query::apsp().variant(ApspVariant::Soda20).xi(1.5).build().expect("valid"),
        Query::sssp(NodeId::new(0)).xi(1.5).build().expect("valid"),
        Query::sssp(NodeId::new(1))
            .variant(SsspVariant::ApproxSoda20 { eps: 0.5 })
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::kssp(KsspCorollary::Cor46)
            .random_sources(2)
            .eps(0.5)
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::kssp(KsspCorollary::Cor47)
            .random_sources(8)
            .eps(0.5)
            .xi(1.5)
            .build()
            .expect("valid"),
        Query::diameter(DiameterCorollary::Cor52).eps(0.5).xi(1.5).build().expect("valid"),
        Query::diameter(DiameterCorollary::Cor53).eps(0.5).xi(1.5).build().expect("valid"),
    ];
    (0..q).map(|i| base[i % base.len()].clone()).collect()
}

/// Serving-throughput sweep for `BENCH_throughput.json` (schema
/// [`crate::json::SCHEMA_THROUGHPUT`]): a q=32 mixed-query batch on the E2
/// graph, timed cold (32 independent `solve` calls on fresh nets) and
/// through one serving [`Session`]. Records queries/sec for both and the
/// amortized-vs-cold wall-clock ratio on the session record — the headline
/// amortization number, measured in-process so both sides see the same
/// machine noise. Both sides serve *sequentially* (the session side is a
/// plain `solve` loop, not `solve_batch`), so the recorded ratio isolates
/// preprocessing amortization and cannot be inflated by worker threading on
/// a multi-core host.
pub fn bench_throughput_records(scale: Scale) -> Vec<crate::json::BenchRecord> {
    use crate::json::BenchRecord;
    // The recorded instances are the E2 n=200/400 graphs of the perf
    // trajectory (small = the recorded sweep, as for `BENCH_apsp.json`).
    let sizes: &[usize] = scale.pick3(&[200, 400], &[200, 400], &[400, 800]);
    const BATCH: usize = 32;
    let seed = 7u64;
    let mut records = Vec::new();
    for &n in sizes {
        let g = e2_graph(n);
        let queries = mixed_query_batch(BATCH);
        let cold = BenchRecord::measure("mixed32_cold", n, || {
            let mut rounds = 0;
            for q in &queries {
                let mut net = HybridNet::new(&g, HybridConfig::default());
                rounds += solve(&mut net, q, seed).expect("cold solve").rounds;
            }
            rounds
        });
        let session = Session::new(&g, SessionConfig::new(seed)).expect("session");
        let warm = BenchRecord::measure("mixed32_session", n, || {
            let mut rounds = 0;
            for q in &queries {
                rounds += session.solve(q).expect("session solve").rounds;
            }
            rounds
        });
        assert_eq!(cold.rounds, warm.rounds, "session must bill identical simulated rounds");
        let ratio = cold.wall_ns as f64 / warm.wall_ns.max(1) as f64;
        let qps = |ns: u128| BATCH as f64 / (ns as f64 / 1e9);
        let cold_qps = qps(cold.wall_ns);
        let warm_qps = qps(warm.wall_ns);
        records.push(cold.with_throughput("e2-er", BATCH, cold_qps));
        records.push(warm.with_throughput("e2-er", BATCH, warm_qps).with_ratio(ratio));
    }
    records
}

/// Converts one load-generator report into a `serving-v2` record.
fn serving_record(n: usize, r: &hybrid_serve::LoadReport) -> crate::json::BenchRecord {
    crate::json::BenchRecord {
        bench: r.name.clone(),
        n,
        wall_ns: u128::from(r.wall_ns),
        rounds: r.rounds_total,
        peak_rss_bytes: crate::json::peak_rss_bytes(),
        ..crate::json::BenchRecord::default()
    }
    .with_serving(crate::json::ServingFields {
        clients: r.clients,
        issued: r.issued,
        served: r.served,
        shed: r.shed,
        failed: r.failed,
        p50_ns: r.p50_ns,
        p95_ns: r.p95_ns,
        p99_ns: r.p99_ns,
        qps: r.qps,
        shed_rate: r.shed_rate,
        cache_hits: r.stats.session_hits,
        cache_admitted: r.stats.sessions_admitted,
        cache_evicted: r.stats.sessions_evicted,
        cache_bytes: r.stats.session_bytes as u64,
        verified: r.stats.verified,
        mismatches: r.stats.mismatches,
        batches: r.stats.batches,
        max_batch: r.stats.max_batch,
        retries: r.retries,
        deadline_shed: r.deadline_shed,
        breaker_rejected: r.breaker_rejected,
        breaker_opens: r.stats.breaker_opens,
        breaker_probes: r.stats.breaker_probes,
        quarantined: r.stats.quarantined,
        degraded_served: r.degraded_served,
    })
}

/// Closed-loop serving sweep for `BENCH_serving.json` (schema
/// [`crate::json::SCHEMA_SERVING`]): registry workloads driven through the
/// multi-tenant broker by the deterministic load generator. Three workloads:
///
/// * `serve-mixed` — two tenants with comfortable queue depth and a generous
///   session budget over two registry graphs (`e2-er`, `sparse-grid`); the
///   cache-friendly steady state (high hit rate, no shedding expected).
/// * `serve-tight` — three depth-1 tenants under a byte budget of 1.5 times
///   the broker's per-session minimum charge, so any two resident sessions
///   overflow it; admission pressure and LRU eviction churn on the same
///   request mix. Clients retry overloads with deterministic backoff.
/// * `serve-chaos` — the fault-tolerant serving path end to end: a healthy
///   tenant, a lossy+corrupting tenant (drop and bit-flip fault plans run
///   cold through the reliable layer), a crashing tenant whose answers come
///   back explicitly `degraded=`, and a panicking tenant guarded by a
///   circuit breaker, all under tight deadline budgets.
///
/// Every response the broker serves is verified bit-identical to a cold
/// solve online (the chaos referee replays the same fault plan);
/// `mismatches` must be 0, failures must be exactly the contained panics,
/// and every issued request must be accounted
/// served/shed/deadline-shed/breaker-rejected/failed — the smoke driver
/// exits non-zero otherwise.
pub fn bench_serving_records(scale: Scale) -> Vec<crate::json::BenchRecord> {
    use hybrid_graph::NodeId;
    use hybrid_serve::{
        run_load, Broker, BrokerConfig, GraphCatalog, LoadSpec, TenantConfig, MIN_ENTRY_BYTES,
    };
    use hybrid_sim::{Crash, FaultPlan};
    let n = scale.pick3(SMOKE_N, 200, 400);
    let mut catalog = GraphCatalog::new();
    catalog.insert("e2-er", e2_graph(n));
    catalog.insert(
        "sparse-grid",
        hybrid_scenarios::find("sparse-grid-thm11").expect("registered").graph(n),
    );
    let graphs = vec!["e2-er".to_string(), "sparse-grid".to_string()];
    // The 8 distinct queries of the standard mixed serving batch.
    let queries = mixed_query_batch(8);
    let mut records = Vec::new();

    let mixed_broker = Broker::new(&catalog, BrokerConfig::new(7));
    for tenant in ["acme", "globex"] {
        mixed_broker.register_tenant(tenant, TenantConfig::new(4)).expect("trivial tenant");
    }
    let mixed = run_load(
        &mixed_broker,
        &LoadSpec {
            name: "serve-mixed".into(),
            clients: scale.pick(4, 6),
            requests_per_client: scale.pick(6, 32),
            tenants: vec!["acme".into(), "globex".into()],
            graphs: graphs.clone(),
            queries: queries.clone(),
            seed: 7,
            retries: 0,
            retry_backoff_ms: 0,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        },
    );
    records.push(serving_record(n, &mixed));

    // A budget below two sessions' minimum charge: any two resident sessions
    // overflow it, so the 6-session working set (2 graphs × 3 tenants)
    // evicts whatever order the clients interleave in.
    let mut tight_cfg = BrokerConfig::new(7);
    tight_cfg.session_budget_bytes = MIN_ENTRY_BYTES + MIN_ENTRY_BYTES / 2;
    let tight_broker = Broker::new(&catalog, tight_cfg);
    for tenant in ["t0", "t1", "t2"] {
        tight_broker.register_tenant(tenant, TenantConfig::new(1)).expect("trivial tenant");
    }
    let tight = run_load(
        &tight_broker,
        &LoadSpec {
            name: "serve-tight".into(),
            clients: scale.pick(4, 6),
            requests_per_client: scale.pick(6, 16),
            tenants: vec!["t0".into(), "t1".into(), "t2".into()],
            graphs: graphs.clone(),
            queries: queries.clone(),
            seed: 11,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: None,
            updates: Vec::new(),
            update_every: 0,
        },
    );
    records.push(serving_record(n, &tight));

    // The chaos workload: faulty tenants, corruption, a breaker-guarded
    // panicking tenant, and deadline budgets on every request. The referee
    // replays each tenant's fault plan, so bit-identity is still enforced
    // online; failures are exactly the contained panics.
    let chaos_broker = Broker::new(&catalog, BrokerConfig::new(7));
    chaos_broker.register_tenant("steady", TenantConfig::new(4)).expect("trivial tenant");
    let mut lossy = TenantConfig::new(4);
    lossy.faults = Some(FaultPlan { corrupt_prob: 0.15, ..FaultPlan::drops(0.15, 21) });
    chaos_broker.register_tenant("lossy", lossy).expect("valid lossy plan");
    let mut crashy = TenantConfig::new(4);
    crashy.faults =
        Some(FaultPlan::node_crashes(vec![Crash { node: NodeId::new(0), at_round: 2 }]));
    chaos_broker.register_tenant("crashy", crashy).expect("valid crash plan");
    // Every admitted request panics, so the breaker trips deterministically
    // after `breaker_threshold` contained failures and every later request
    // is either breaker-rejected or a failed half-open probe.
    let mut panicky = TenantConfig::new(4);
    panicky.breaker_threshold = Some(2);
    panicky.breaker_cooldown = 2;
    panicky.chaos_panic_every = Some(1);
    chaos_broker.register_tenant("panicky", panicky).expect("trivial tenant");
    let chaos = run_load(
        &chaos_broker,
        &LoadSpec {
            name: "serve-chaos".into(),
            clients: scale.pick(3, 4),
            requests_per_client: scale.pick(4, 8),
            tenants: vec!["steady".into(), "lossy".into(), "crashy".into(), "panicky".into()],
            graphs,
            // The chaos tenants run every query cold through the reliable
            // layer; a leaner mix keeps the sweep's wall clock in check.
            queries: queries.into_iter().take(4).collect(),
            seed: 13,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: Some(2_000),
            updates: Vec::new(),
            update_every: 0,
        },
    );
    records.push(serving_record(n, &chaos));
    records
}

/// Human-readable table over [`bench_serving_records`] output.
pub fn serving_table(records: &[crate::json::BenchRecord]) -> Table {
    let mut t = Table::new(
        "Serving: closed-loop broker load (bit-identity verified online)",
        &[
            "workload", "n", "clients", "issued", "served", "shed", "failed", "p50 ms", "p95 ms",
            "p99 ms", "qps", "hits", "evict", "mismatch", "retry", "dlshed", "brk", "degr",
        ],
    );
    for r in records {
        let s = r.serving.as_ref().expect("serving record");
        let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
        t.row(vec![
            r.bench.clone(),
            r.n.to_string(),
            s.clients.to_string(),
            s.issued.to_string(),
            s.served.to_string(),
            s.shed.to_string(),
            s.failed.to_string(),
            ms(s.p50_ns),
            ms(s.p95_ns),
            ms(s.p99_ns),
            f3(s.qps),
            s.cache_hits.to_string(),
            s.cache_evicted.to_string(),
            s.mismatches.to_string(),
            s.retries.to_string(),
            s.deadline_shed.to_string(),
            s.breaker_rejected.to_string(),
            s.degraded_served.to_string(),
        ]);
    }
    t
}

/// Chaos recovery sweep for `BENCH_chaos.json` (schema
/// [`crate::json::SCHEMA_CHAOS`]): every `chaos-*` registry scenario runs
/// twice — once under its fault plan and once as a fault-free twin on the
/// same graph, seed, and suite — and each record carries both runs, so the
/// renderer can report the recovery overhead in simulated rounds and
/// wall-clock time. The chaos run's golden-verification verdict rides along;
/// a non-`pass` verdict is a recovery-contract regression.
pub fn bench_chaos_records(scale: Scale) -> Vec<crate::json::BenchRecord> {
    use crate::json::BenchRecord;
    let mut records = Vec::new();
    for sc in hybrid_scenarios::by_tag("chaos") {
        let n = match scale {
            Scale::Small => SMOKE_N,
            Scale::Full | Scale::Large => sc.default_n,
        };
        let healthy_twin = Scenario { faults: FaultPlan::None, ..*sc };
        let healthy = run_scenario_with(&healthy_twin, n, Engine::Fresh);
        let chaos = run_scenario_with(sc, n, Engine::Fresh);
        records
            .push(BenchRecord::from_scenario(&chaos).with_healthy(healthy.rounds, healthy.wall_ns));
    }
    records
}

/// Churn repair sweep for `BENCH_churn.json` (schema
/// [`crate::json::SCHEMA_CHURN`]), in three parts:
///
/// * `churn-repair-patch` / `churn-repair-full` — the same single-edge
///   reweight (the canonical localized delta) migrated through
///   [`Session::apply_delta`] under a permissive damage threshold
///   (incremental patch) and under threshold 0 (forced full re-prepare), on
///   a weighted cycle at `n ≥ 400`. Cycles are the bounded-growth family
///   this comparison needs: h-hop balls grow linearly, so the delta dirties
///   a bounded skeleton fraction (`≈ 2h/n`) and the patch path has real work
///   to skip — on an ER graph the ball covers most of the graph and the
///   comparison degenerates. The patch record carries
///   `full_wall / patch_wall` in `amortized_vs_cold`; the smoke gate
///   ([`churn_gate_violations`]) requires ≥ 2×.
/// * `churn-threshold-<t>` — the same migration across a damage-threshold
///   sweep; each record carries its threshold, the delta's dirtied-node
///   fraction, and which path repair took as the verdict. The gate requires
///   the full fallback exactly when the dirty fraction exceeds the
///   threshold.
/// * `churn-serve` — the churn+chaos serving loop: a healthy and a lossy
///   tenant racing reweight updates against queries through the broker,
///   every answer verified bit-identical online against the graph epoch the
///   request landed on. The gate requires zero mismatches and zero failures.
pub fn bench_churn_records(scale: Scale) -> Vec<crate::json::BenchRecord> {
    use crate::json::BenchRecord;
    use hybrid_core::RepairPath;
    use hybrid_graph::{DeltaBatch, GraphDelta};
    use hybrid_serve::{
        run_load, Broker, BrokerConfig, GraphCatalog, LoadSpec, LoadUpdate, TenantConfig,
    };

    // The SSSP preamble's hop budget is h = ξ·n^{2/5}·ln n, so the reweight
    // below dirties ≈ 2h/n of the cycle — about a fifth at n = 2400. Much
    // smaller n and the ball swallows the cycle (no locality left to
    // exploit); this size keeps both repair paths honest at every scale.
    let n = 2400;
    let g = cycle(n, 3).expect("cycle builds");
    let e0 = g.edges()[0];
    let mut batch = DeltaBatch::new();
    batch.push(GraphDelta::Reweight { u: e0.u, v: e0.v, w: 2 });
    let query = Query::sssp(NodeId::new(0)).build().expect("default SSSP query is valid");
    // One prepared session per threshold: `apply_delta` consults the
    // session's own damage threshold, and repair only migrates prepared
    // preambles, so each session solves once before the timed migration.
    let prepared = |threshold: f64| {
        let cfg = SessionConfig { damage_threshold: threshold, ..SessionConfig::new(41) };
        let session = Session::new(&g, cfg).expect("cycle session");
        session.solve(&query).expect("prepare the SSSP preamble");
        session
    };
    let path_label = |p: RepairPath| match p {
        RepairPath::Patched => "patched",
        RepairPath::Full => "full",
    };
    let timed = |bench: &str, threshold: f64| {
        let session = prepared(threshold);
        let mut path = RepairPath::Patched;
        let mut dirty = 0.0;
        let mut rec = BenchRecord::measure_min_of(bench, n, 5, || {
            let (_, rep) = session.apply_delta(&batch).expect("churn batch validates");
            path = rep.path();
            dirty = rep.dirty_fraction;
            rep.rounds
        });
        rec.family = Some("cycle".into());
        rec.query = Some(query.label().into());
        rec.verdict = Some(path_label(path).into());
        rec.damage_threshold = Some(threshold);
        rec.dirty_fraction = Some(dirty);
        rec
    };

    let mut records = Vec::new();
    let patch = timed("churn-repair-patch", 0.75);
    let full = timed("churn-repair-full", 0.0);
    let speedup = full.wall_ns as f64 / patch.wall_ns.max(1) as f64;
    records.push(patch.with_ratio(speedup));
    records.push(full);
    for &t in &[0.0, 0.1, 0.25, 0.5, 1.0] {
        records.push(timed(&format!("churn-threshold-{t:.2}"), t));
    }

    // The serving loop runs at smoke size — the lossy tenant solves every
    // query cold through the reliable layer, so this part is priced like the
    // serving smoke sweep, not like the n ≥ 400 repair measurement above.
    let serve_n = scale.pick(SMOKE_N, 200);
    let gs = cycle(serve_n, 3).expect("cycle builds");
    let mut catalog = GraphCatalog::new();
    catalog.insert("churn-cycle", gs.clone());
    let broker = Broker::new(&catalog, BrokerConfig::new(17));
    broker.register_tenant("steady", TenantConfig::new(4)).expect("trivial tenant");
    let mut lossy = TenantConfig::new(4);
    lossy.faults = Some(hybrid_sim::FaultPlan::drops(0.15, 23));
    broker.register_tenant("lossy", lossy).expect("valid lossy plan");
    // Reweight-only updates stay valid no matter how often or in what order
    // clients land them, so every injection must succeed.
    let updates: Vec<LoadUpdate> = gs
        .edges()
        .iter()
        .step_by(7)
        .take(2)
        .enumerate()
        .map(|(i, e)| {
            let mut b = DeltaBatch::new();
            b.push(GraphDelta::Reweight { u: e.u, v: e.v, w: 2 + i as Distance });
            LoadUpdate { tenant: "steady".into(), graph: "churn-cycle".into(), batch: b }
        })
        .collect();
    let report = run_load(
        &broker,
        &LoadSpec {
            name: "churn-serve".into(),
            clients: scale.pick(3, 4),
            requests_per_client: scale.pick(6, 10),
            tenants: vec!["steady".into(), "lossy".into()],
            graphs: vec!["churn-cycle".into()],
            queries: mixed_query_batch(4),
            seed: 17,
            retries: 2,
            retry_backoff_ms: 1,
            deadline_ms: None,
            updates,
            update_every: 3,
        },
    );
    let mut rec = serving_record(serve_n, &report);
    rec.family = Some("cycle".into());
    rec.updates_applied = Some(report.updates_applied);
    records.push(rec);
    records
}

/// The churn smoke gate over [`bench_churn_records`] output: incremental
/// repair must beat the full re-prepare ≥ 2× at `n ≥ 400`, the full fallback
/// must fire exactly when the dirty fraction exceeds the damage threshold
/// (and the sweep must exercise both paths), and the churn+chaos serving
/// loop must apply updates with zero bit-identity mismatches and zero
/// failures. Returns the violations; empty means the gate holds.
pub fn churn_gate_violations(records: &[crate::json::BenchRecord]) -> Vec<String> {
    let mut v = Vec::new();
    match (
        records.iter().find(|r| r.bench == "churn-repair-patch"),
        records.iter().find(|r| r.bench == "churn-repair-full"),
    ) {
        (Some(p), Some(f)) => {
            if p.n < 400 {
                v.push(format!("patch-vs-full must be measured at n ≥ 400, got n = {}", p.n));
            }
            if p.verdict.as_deref() != Some("patched") {
                v.push(format!("churn-repair-patch took the {:?} path", p.verdict));
            }
            if f.verdict.as_deref() != Some("full") {
                v.push(format!("churn-repair-full took the {:?} path", f.verdict));
            }
            match p.amortized_ratio {
                Some(r) if r >= 2.0 => {}
                r => v.push(format!(
                    "incremental repair must be ≥ 2× faster than the full re-prepare at \
                     n = {}, got {r:?}",
                    p.n
                )),
            }
        }
        _ => v.push("churn sweep is missing the patch/full repair records".into()),
    }
    let sweep: Vec<_> =
        records.iter().filter(|r| r.bench.starts_with("churn-threshold-")).collect();
    let (mut fulls, mut patches) = (0, 0);
    for r in &sweep {
        let (Some(t), Some(d)) = (r.damage_threshold, r.dirty_fraction) else {
            v.push(format!("{}: missing damage_threshold/dirty_fraction", r.bench));
            continue;
        };
        let want = if d > t { "full" } else { "patched" };
        if r.verdict.as_deref() != Some(want) {
            v.push(format!(
                "{}: dirty fraction {d:.4} vs threshold {t:.2} must take the {want} path, \
                 took {:?}",
                r.bench, r.verdict
            ));
        }
        match r.verdict.as_deref() {
            Some("full") => fulls += 1,
            _ => patches += 1,
        }
    }
    if sweep.is_empty() || fulls == 0 || patches == 0 {
        v.push(format!(
            "threshold sweep must exercise both repair paths (full: {fulls}, patched: {patches})"
        ));
    }
    match records.iter().find(|r| r.bench == "churn-serve") {
        Some(s) => match (&s.serving, s.updates_applied) {
            (Some(f), Some(u)) => {
                if f.mismatches > 0 {
                    v.push(format!(
                        "churn-serve: {} bit-identity mismatch(es) under churn+chaos",
                        f.mismatches
                    ));
                }
                if f.failed > 0 {
                    v.push(format!("churn-serve: {} request(s)/update(s) failed", f.failed));
                }
                if f.served == 0 {
                    v.push("churn-serve: no request was served".into());
                }
                if u == 0 {
                    v.push("churn-serve: no update was applied".into());
                }
            }
            _ => v.push("churn-serve record is missing its serving/update fields".into()),
        },
        None => v.push("churn sweep is missing the churn-serve record".into()),
    }
    v
}

/// Node count for smoke-scale scenario runs (tiny-n full-matrix).
pub const SMOKE_N: usize = 48;

/// Runs the scenario registry (optionally filtered by tag) under the
/// [`Engine::Fresh`] path; see [`scenario_reports_with`].
pub fn scenario_reports(scale: Scale, filter: Option<&str>) -> Vec<ScenarioReport> {
    scenario_reports_with(scale, filter, Engine::Fresh)
}

/// Runs the scenario registry (optionally filtered by tag) under the chosen
/// execution engine: at [`Scale::Small`] every scenario runs at [`SMOKE_N`]
/// in one parallel batch; otherwise scenarios run at their own `default_n`,
/// batched by size so the parallel runner still applies.
pub fn scenario_reports_with(
    scale: Scale,
    filter: Option<&str>,
    engine: Engine,
) -> Vec<ScenarioReport> {
    let selected: Vec<&Scenario> = match filter {
        Some(tag) => hybrid_scenarios::by_tag(tag),
        None => registry().iter().collect(),
    };
    match scale {
        Scale::Small => run_scenarios_with(&selected, SMOKE_N, engine),
        Scale::Full | Scale::Large => {
            let mut sizes: Vec<usize> = selected.iter().map(|s| s.default_n).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let mut out = Vec::new();
            for n in sizes {
                let group: Vec<&Scenario> =
                    selected.iter().copied().filter(|s| s.default_n == n).collect();
                out.extend(run_scenarios_with(&group, n, engine));
            }
            out
        }
    }
}

/// Traces each scenario at size `n` and writes two artifacts per run into
/// `dir` (created if needed): `<name>.trace.json`, a Chrome-trace document
/// with simulated rounds as the clock (load it in `chrome://tracing` or
/// Perfetto), and `<name>.rollup.txt`, the per-phase text summary. Returns
/// the number of runs whose golden verification — which folds in trace
/// reconciliation against the metrics counters — failed.
pub fn export_scenario_traces(dir: &std::path::Path, scenarios: &[&Scenario], n: usize) -> usize {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
    let mut failures = 0;
    for sc in scenarios {
        let (report, rec) = run_scenario_traced(sc, n);
        let chrome = rec.chrome_trace();
        let rollup = rec.rollup();
        assert!(
            !rec.is_empty() && !chrome.is_empty() && !rollup.is_empty(),
            "{}: a traced run must emit events",
            sc.name
        );
        let trace_path = dir.join(format!("{}.trace.json", sc.name));
        std::fs::write(&trace_path, &chrome)
            .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
        let rollup_path = dir.join(format!("{}.rollup.txt", sc.name));
        std::fs::write(&rollup_path, &rollup)
            .unwrap_or_else(|e| panic!("write {}: {e}", rollup_path.display()));
        eprintln!(
            "traced {:<22} {:>6} events, top phase {} ({} rounds) -> {}",
            sc.name,
            report.trace_events,
            report.top_phase,
            report.top_phase_rounds,
            trace_path.display(),
        );
        if !report.passed() {
            eprintln!("  verification FAILED: {}", report.detail);
            failures += 1;
        }
    }
    failures
}

/// E16 — the scenario matrix: every registry workload (graph family × fault
/// plan × algorithm suite) with its golden-verification verdict.
pub fn e16_scenarios(scale: Scale) -> Table {
    scenario_table(&scenario_reports(scale, None))
}

/// Renders scenario reports as a printable table.
pub fn scenario_table(reports: &[ScenarioReport]) -> Table {
    let mut t = Table::new(
        "E16: scenario matrix — registry workloads under golden verification",
        &["scenario", "family", "faults", "suite", "n", "rounds", "msgs", "dropped", "verdict"],
    );
    for r in reports {
        t.row(vec![
            r.scenario.clone(),
            r.family.to_string(),
            r.faults.to_string(),
            r.suite.to_string(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.global_messages.to_string(),
            r.dropped_messages.to_string(),
            r.verdict.as_str().to_string(),
        ]);
    }
    t
}

/// Runs every experiment at the given scale, returning all tables.
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        e1_token_routing(scale),
        e2_apsp(scale),
        e3_kssp(scale),
        e4_sssp(scale),
        e5_diameter(scale),
        e6_kssp_lower_bound(scale),
        e7_diameter_lower_bound(scale),
        e8_helper_sets(scale),
        e9_ruling_sets(scale),
        e10_skeletons(scale),
        e11_congestion(scale),
        e12_clique_sim(scale),
        e13_xi_ablation(scale),
        e14_mu_ablation(scale),
        e15_gamma_ablation(scale),
        e16_scenarios(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard};

    /// The churn gate compares two wall-clock timings. Every other test here
    /// runs a heavy workload and holds this lock shared, while the churn test
    /// holds it exclusively, so under libtest's default parallelism its
    /// timing never runs beside them.
    static TIMING: RwLock<()> = RwLock::new(());

    fn shared_timing() -> RwLockReadGuard<'static, ()> {
        TIMING.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn small_scale_experiments_run() {
        let _timing = shared_timing();
        // Smoke: the cheap experiments complete and produce rows.
        for table in [
            e1_token_routing(Scale::Small),
            e8_helper_sets(Scale::Small),
            e9_ruling_sets(Scale::Small),
            e10_skeletons(Scale::Small),
        ] {
            assert!(table.render().lines().count() > 4);
        }
    }

    #[test]
    fn export_scenario_traces_writes_chrome_trace_and_rollup() {
        let _timing = shared_timing();
        let dir = std::env::temp_dir().join(format!("hybrid-trace-test-{}", std::process::id()));
        let sc = hybrid_scenarios::find("sparse-grid-thm11").expect("registered");
        let failures = export_scenario_traces(&dir, &[sc], 36);
        assert_eq!(failures, 0);
        let chrome = std::fs::read_to_string(dir.join("sparse-grid-thm11.trace.json")).unwrap();
        assert!(chrome.trim_start().starts_with('{'));
        assert!(chrome.contains("\"traceEvents\""));
        let rollup = std::fs::read_to_string(dir.join("sparse-grid-thm11.rollup.txt")).unwrap();
        assert!(!rollup.trim().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apsp_records_cover_all_benches_and_sizes() {
        let _timing = shared_timing();
        let records = bench_apsp_records(Scale::Small);
        assert_eq!(records.len(), 6); // 2 sizes x 3 benches
        assert!(records.iter().any(|r| r.bench == "thm11_apsp" && r.rounds > 0));
        assert!(records.iter().any(|r| r.bench == "reference_apsp" && r.rounds == 0));
        assert!(records.iter().all(|r| r.wall_ns > 0));
        // Solver-backed records carry the canonical query label; the
        // sequential reference has no query.
        for r in &records {
            match r.bench.as_str() {
                "thm11_apsp" => assert_eq!(r.query.as_deref(), Some("apsp-thm11")),
                "soda20_apsp" => assert_eq!(r.query.as_deref(), Some("apsp-soda20")),
                _ => assert_eq!(r.query, None),
            }
        }
    }

    #[test]
    fn bench_apsp_json_pins_instances_and_algorithms() {
        let _timing = shared_timing();
        // The recorded perf trajectory must keep benchmarking the same E2
        // graph instances and the same algorithms across the API redesign.
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apsp.json"))
                .expect("BENCH_apsp.json at the repo root");
        assert!(doc.contains(&format!("\"schema\": \"{}\"", crate::json::SCHEMA)));
        for n in [200usize, 400] {
            for bench in ["reference_apsp", "thm11_apsp", "soda20_apsp"] {
                assert!(
                    doc.contains(&format!("\"bench\": \"{bench}\", \"n\": {n}")),
                    "record ({bench}, {n}) missing from BENCH_apsp.json"
                );
            }
        }
        for label in ["apsp-thm11", "apsp-soda20"] {
            assert!(doc.contains(&format!("\"query\": \"{label}\"")), "label {label} missing");
        }
        // The E2 instance is still bit-identical to the pre-registry
        // er(n, 12, 4, 3) graphs the trajectory has recorded since PR 1.
        for n in [200usize, 400] {
            assert_eq!(e2_graph(n).edges(), er(n, 12.0, 4, 3).edges());
        }
    }

    #[test]
    fn throughput_records_measure_cold_and_session() {
        let _timing = shared_timing();
        let records = bench_throughput_records(Scale::Small);
        assert_eq!(records.len(), 4); // 2 sizes × (cold, session)
        for r in &records {
            assert_eq!(r.batch, Some(32));
            assert_eq!(r.family.as_deref(), Some("e2-er"));
            assert!(r.qps.unwrap_or(0.0) > 0.0, "{}: qps missing", r.bench);
        }
        let session =
            records.iter().find(|r| r.bench == "mixed32_session" && r.n == 200).expect("record");
        // The ratio assertion itself lives in tests/session_equivalence.rs;
        // here the sweep must at least show amortization, not regression.
        assert!(session.amortized_ratio.expect("ratio") > 1.0);
    }

    #[test]
    fn serving_records_account_for_every_request() {
        let _timing = shared_timing();
        let records = bench_serving_records(Scale::Small);
        assert_eq!(records.len(), 3); // serve-mixed + serve-tight + serve-chaos
        for r in &records {
            let s = r.serving.as_ref().expect("serving block");
            assert_eq!(
                s.served + s.shed + s.deadline_shed + s.breaker_rejected + s.failed,
                s.issued,
                "{}: every request must be accounted",
                r.bench
            );
            if r.bench != "serve-chaos" {
                assert_eq!(s.failed, 0, "{}: healthy workloads must not fail", r.bench);
            }
            assert_eq!(s.mismatches, 0, "{}: bit-identity must hold", r.bench);
            assert!(s.verified >= s.served, "{}: every served response is verified", r.bench);
            assert!(s.served > 0 && s.qps > 0.0, "{}: the loop must make progress", r.bench);
            assert!(s.breaker_probes <= s.breaker_opens, "{}: probe without open", r.bench);
        }
        let mixed = &records[0];
        assert_eq!(mixed.bench, "serve-mixed");
        let s = mixed.serving.as_ref().unwrap();
        assert!(s.cache_hits > 0, "steady-state mix must hit resident sessions");
        // The tight workload's budget cannot hold two sessions of its
        // 6-session working set, so byte-driven eviction must actually fire.
        let tight = records[1].serving.as_ref().unwrap();
        assert!(tight.cache_evicted > 0, "tight budget must evict");
        // The chaos workload must actually exercise the fault-tolerant path:
        // contained panics are quarantined, and the crashing tenant's served
        // answers come back explicitly degraded.
        let chaos = records[2].serving.as_ref().unwrap();
        assert_eq!(records[2].bench, "serve-chaos");
        assert!(chaos.failed > 0, "the panicking tenant must fail contained");
        assert!(chaos.quarantined > 0, "contained panics must quarantine the session");
        assert!(chaos.degraded_served > 0, "the crashing tenant must serve degraded answers");
        serving_table(&records).render();
    }

    #[test]
    fn chaos_records_measure_recovery_overhead() {
        let _timing = shared_timing();
        let records = bench_chaos_records(Scale::Small);
        assert_eq!(records.len(), hybrid_scenarios::by_tag("chaos").len());
        for r in &records {
            let name = r.scenario.as_deref().expect("scenario name");
            assert!(name.starts_with("chaos-") || name.starts_with("churn-chaos-"), "{name}");
            assert_eq!(r.verdict.as_deref(), Some("pass"), "{name} regressed recovery");
            let healthy = r.healthy_rounds.expect("healthy twin rounds");
            assert!(healthy > 0, "{name}: twin must do work");
            assert!(
                r.rounds >= healthy,
                "{name}: recovery is charged, never discounted ({} < {healthy})",
                r.rounds
            );
            assert!(r.healthy_wall_ns.expect("twin wall clock") > 0);
        }
        // At least one chaos scenario must actually pay a recovery premium.
        assert!(records.iter().any(|r| r.rounds > r.healthy_rounds.unwrap()));
    }

    #[test]
    fn churn_records_pass_the_gate_and_the_gate_bites() {
        let _timing = TIMING.write().unwrap_or_else(PoisonError::into_inner);
        let records = bench_churn_records(Scale::Small);
        let violations = churn_gate_violations(&records);
        assert!(violations.is_empty(), "{violations:#?}");
        // The repair measurement must sit at the gated size even at smoke
        // scale — the ≥ 2× bound is defined at n ≥ 400.
        let patch = records.iter().find(|r| r.bench == "churn-repair-patch").unwrap();
        assert!(patch.n >= 400);
        assert!(patch.amortized_ratio.unwrap() >= 2.0);
        // A doctored record set must trip the gate: a slow patch path …
        let mut doctored = records.clone();
        doctored.iter_mut().filter(|r| r.bench == "churn-repair-patch").for_each(|r| {
            r.amortized_ratio = Some(1.5);
        });
        assert!(!churn_gate_violations(&doctored).is_empty(), "speedup gate must bite");
        // … and a full fallback below the damage threshold.
        let mut doctored = records.clone();
        doctored.iter_mut().filter(|r| r.bench.starts_with("churn-threshold-")).for_each(|r| {
            r.verdict = Some("full".into());
        });
        assert!(!churn_gate_violations(&doctored).is_empty(), "threshold gate must bite");
    }

    #[test]
    fn scenario_smoke_matrix_all_pass() {
        let _timing = shared_timing();
        let reports = scenario_reports(Scale::Small, None);
        assert_eq!(reports.len(), registry().len());
        assert!(reports.iter().all(|r| r.passed()), "{reports:?}");
        let filtered = scenario_reports(Scale::Small, Some("faulty"));
        assert!(!filtered.is_empty() && filtered.len() < reports.len());
        assert!(scenario_table(&reports).render().contains("pass"));
    }
}

//! Golden verification: every scenario run is checked against ground truth
//! computed with the sequential reference algorithms (`hybrid_graph`'s
//! parallel multi-source Dijkstra).
//!
//! Three contracts, chosen by the scenario's fault plan and tags:
//!
//! * **Strict** (healthy or merely degraded-bandwidth networks): exact suites
//!   must match the reference distances pairwise; approximate suites must stay
//!   within the run's own guaranteed factor (Theorem 4.1 / Theorem 5.1) and
//!   never underestimate.
//! * **Lossy** (drop/crash faults, tolerance mode): faults only *remove*
//!   messages, so a run that completes must never underestimate a distance (an
//!   estimate can only miss improvements, not invent shortcuts), and a run
//!   that aborts must do so with a structured [`HybridError`] — never a silent
//!   wrong answer. A clean fault-triggered error is a *pass*: the fault
//!   surfaced.
//! * **Must-recover** (the `chaos-*` family): aborting is no longer
//!   acceptable. The run must *complete* with a correct answer for its
//!   declared — possibly [`Guarantee::Degraded`] — guarantee; degraded
//!   answers come from the exact LOCAL fallbacks and are held to pairwise
//!   equality with the reference.

use hybrid_core::solver::{Answer, Guarantee, Report};
use hybrid_core::HybridError;
use hybrid_graph::apsp::{apsp, eccentricities, DistanceMatrix};
use hybrid_graph::dijkstra::dijkstra;
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};

/// The verification contract a scenario run is held to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Healthy network: answers must meet their guarantee exactly; any error
    /// is a defect.
    Strict,
    /// Lossy faults, tolerance mode: completed runs must never underestimate;
    /// a structured abort after a real drop is a pass.
    Lossy,
    /// Chaos recovery mode: the run must complete with a verified answer for
    /// its declared (possibly degraded) guarantee; aborting is a failure.
    MustRecover,
}

impl Contract {
    /// Whether completed answers may overestimate (the message-loss
    /// allowance). Degraded answers are exempt: their LOCAL fallbacks are
    /// exact and are checked as such.
    fn tolerates_overestimates(self) -> bool {
        !matches!(self, Contract::Strict)
    }

    /// Lower-case label for report details and tables.
    pub fn label(self) -> &'static str {
        match self {
            Contract::Strict => "strict",
            Contract::Lossy => "lossy",
            Contract::MustRecover => "must-recover",
        }
    }
}

/// Outcome of verifying one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The run honored its contract.
    Pass,
    /// The run violated its contract (wrong distances, broken guarantee, an
    /// unexpected error, or a panic).
    Fail,
}

impl Verdict {
    /// Lower-case label for tables and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
        }
    }
}

/// A verdict plus the human-readable reason recorded in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    /// Pass/fail.
    pub verdict: Verdict,
    /// What was checked / what went wrong.
    pub detail: String,
}

impl Verification {
    pub(crate) fn pass(detail: impl Into<String>) -> Self {
        Verification { verdict: Verdict::Pass, detail: detail.into() }
    }

    pub(crate) fn fail(detail: impl Into<String>) -> Self {
        Verification { verdict: Verdict::Fail, detail: detail.into() }
    }
}

/// Verifies a solver [`Report`] against ground truth using the contract the
/// report itself carries ([`Report::guarantee`]) — the verification layer no
/// longer re-derives per-algorithm approximation math.
pub fn check_report(g: &Graph, report: &Report, contract: Contract) -> Verification {
    // Attribution integrity first: the per-phase breakdown must account for
    // every simulated round the report bills, whatever the contract.
    let phase_rounds: u64 = report.phases.iter().map(|(_, s)| s.rounds).sum();
    if phase_rounds != report.rounds {
        return Verification::fail(format!(
            "phase attribution broken: per-phase rounds sum to {phase_rounds} \
             but the report bills {} rounds",
            report.rounds
        ));
    }
    let lossy = contract.tolerates_overestimates();
    if let Guarantee::Degraded { from, to, cause } = &report.guarantee {
        if contract == Contract::Strict {
            return Verification::fail(format!(
                "degraded guarantee ({from} → {to}, {cause}) on a healthy network"
            ));
        }
        // The downgrade is explicit and its fallback is a LOCAL-mode exact
        // algorithm: hold the answer to pairwise equality with the reference.
        let inner = match &report.answer {
            Answer::Distances(m) => check_matrix(g, m, false),
            Answer::DistanceRow { source, dist } => check_sssp(g, *source, dist, false),
            Answer::DistanceRows { sources, est } => check_kssp_rows(g, sources, est, 1.0, false),
            Answer::Diameter { estimate, .. } => check_diameter(g, *estimate, 1.0, false),
        };
        let detail = format!("degraded {from} → {to} ({cause}): {}", inner.detail);
        return Verification { verdict: inner.verdict, detail };
    }
    match (&report.answer, &report.guarantee) {
        (Answer::Distances(m), Guarantee::Exact) => check_matrix(g, m, lossy),
        (Answer::Distances(_), _) => {
            Verification::fail("approximate full-matrix answers carry no verification contract")
        }
        (Answer::DistanceRow { source, dist }, Guarantee::Exact) => {
            check_sssp(g, *source, dist, lossy)
        }
        (Answer::DistanceRow { source, dist }, guarantee) => check_kssp_rows(
            g,
            std::slice::from_ref(source),
            std::slice::from_ref(dist),
            guarantee.factor(),
            lossy,
        ),
        (Answer::DistanceRows { sources, est }, guarantee) => {
            check_kssp_rows(g, sources, est, guarantee.factor(), lossy)
        }
        (Answer::Diameter { estimate, .. }, guarantee) => {
            check_diameter(g, *estimate, guarantee.factor(), lossy)
        }
    }
}

/// Checks a full distance matrix against ground truth.
///
/// `lossy = false` demands pairwise equality; `lossy = true` demands
/// no-underestimates (the message-loss contract).
pub fn check_matrix(g: &Graph, got: &DistanceMatrix, lossy: bool) -> Verification {
    let truth = apsp(g);
    let mut overestimates = 0usize;
    for u in g.nodes() {
        for v in g.nodes() {
            let (a, e) = (got.get(u, v), truth.get(u, v));
            if a < e {
                return Verification::fail(format!("underestimate d({u},{v}): got {a}, truth {e}"));
            }
            if a > e {
                if !lossy {
                    return Verification::fail(format!("inexact d({u},{v}): got {a}, truth {e}"));
                }
                overestimates += 1;
            }
        }
    }
    if overestimates > 0 {
        Verification::pass(format!(
            "lossy run: {overestimates} overestimated pairs, no underestimates"
        ))
    } else {
        Verification::pass(format!("exact on all {} pairs", g.len() * g.len()))
    }
}

/// Checks one SSSP distance vector (from `source`) against ground truth.
pub fn check_sssp(g: &Graph, source: NodeId, got: &[Distance], lossy: bool) -> Verification {
    let truth = dijkstra(g, source);
    let mut overestimates = 0usize;
    for v in g.nodes() {
        let (a, e) = (got[v.index()], truth.dist(v));
        if a < e {
            return Verification::fail(format!(
                "underestimate d({source},{v}): got {a}, truth {e}"
            ));
        }
        if a > e {
            if !lossy {
                return Verification::fail(format!("inexact d({source},{v}): got {a}, truth {e}"));
            }
            overestimates += 1;
        }
    }
    if overestimates > 0 {
        Verification::pass(format!("lossy run: {overestimates} overestimated nodes"))
    } else {
        Verification::pass(format!("exact on all {} nodes", g.len()))
    }
}

/// Checks k-SSP estimate rows: never underestimate, and (strict contract)
/// worst ratio within `factor`.
pub fn check_kssp_rows(
    g: &Graph,
    sources: &[NodeId],
    est: &[Vec<Distance>],
    factor: f64,
    lossy: bool,
) -> Verification {
    let mut worst: f64 = 1.0;
    for (row, &s) in est.iter().zip(sources) {
        let truth = dijkstra(g, s);
        for v in g.nodes() {
            let (a, e) = (row[v.index()], truth.dist(v));
            if a < e {
                return Verification::fail(format!("underestimate d({s},{v}): got {a}, truth {e}"));
            }
            if !lossy {
                // Ratio accumulation skips the degenerate pairs below, so the
                // strict contract must reject them explicitly: a reachable
                // node estimated unreachable, or a nonzero self-distance.
                if e < INFINITY && a == INFINITY {
                    return Verification::fail(format!(
                        "estimate INFINITY for reachable pair d({s},{v}), truth {e}"
                    ));
                }
                if e == 0 && a != 0 {
                    return Verification::fail(format!(
                        "nonzero self-distance d({s},{s}): got {a}"
                    ));
                }
            }
            if e > 0 && e < INFINITY && a < INFINITY {
                worst = worst.max(a as f64 / e as f64);
            }
        }
    }
    if !lossy && worst > factor + 1e-9 {
        return Verification::fail(format!(
            "approximation guarantee broken: worst ratio {worst:.3} > factor {factor:.3}"
        ));
    }
    Verification::pass(format!("worst ratio {worst:.3} (guarantee {factor:.3})"))
}

/// Checks a diameter estimate: `D ≤ estimate`, and (strict contract)
/// `estimate ≤ factor · D`.
pub fn check_diameter(g: &Graph, estimate: Distance, factor: f64, lossy: bool) -> Verification {
    let d = eccentricities(g).into_iter().max().unwrap_or(0);
    if d == INFINITY {
        return Verification::fail("ground-truth diameter is infinite (disconnected graph?)");
    }
    if estimate < d {
        return Verification::fail(format!("diameter underestimated: got {estimate}, D = {d}"));
    }
    if !lossy && (estimate as f64) > factor * d as f64 + 1e-9 {
        return Verification::fail(format!(
            "diameter guarantee broken: got {estimate}, D = {d}, factor {factor:.3}"
        ));
    }
    Verification::pass(format!("estimate {estimate} vs D = {d} (factor {factor:.3})"))
}

/// Classifies an algorithm error under the scenario's contract: expected (and
/// therefore a pass) only under [`Contract::Lossy`] **when the plan actually
/// removed messages** — an error on a run where nothing was dropped is an
/// algorithm defect hiding behind the fault-tolerance contract. Under
/// [`Contract::MustRecover`] an abort is always a failure: chaos workloads
/// must complete (possibly degraded), never bail out.
pub fn check_error(err: &HybridError, contract: Contract, dropped_messages: u64) -> Verification {
    match contract {
        Contract::MustRecover => Verification::fail(format!(
            "aborted under the must-recover contract ({dropped_messages} dropped messages): {err}"
        )),
        Contract::Lossy if dropped_messages > 0 => Verification::pass(format!(
            "fault surfaced as structured error after {dropped_messages} dropped messages: {err}"
        )),
        Contract::Lossy => Verification::fail(format!(
            "error under a lossy plan but no message was dropped — defect, not fault: {err}"
        )),
        Contract::Strict => {
            Verification::fail(format!("unexpected error on healthy network: {err}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::path;
    use std::sync::Arc;

    #[test]
    fn strict_matrix_detects_inexactness_and_underestimates() {
        let g = path(4, 2).unwrap();
        let truth = apsp(&g);
        assert_eq!(check_matrix(&g, &truth, false).verdict, Verdict::Pass);

        let mut over = truth.clone();
        over.set(NodeId::new(0), NodeId::new(3), 100);
        assert_eq!(check_matrix(&g, &over, false).verdict, Verdict::Fail);
        // The lossy contract tolerates overestimates…
        assert_eq!(check_matrix(&g, &over, true).verdict, Verdict::Pass);

        let mut under = truth.clone();
        under.set(NodeId::new(0), NodeId::new(3), 1);
        // …but never underestimates.
        assert_eq!(check_matrix(&g, &under, true).verdict, Verdict::Fail);
    }

    #[test]
    fn sssp_and_kssp_checks() {
        let g = path(5, 1).unwrap();
        let truth = dijkstra(&g, NodeId::new(0));
        assert_eq!(check_sssp(&g, NodeId::new(0), truth.as_slice(), false).verdict, Verdict::Pass);
        let mut wrong = truth.as_slice().to_vec();
        wrong[4] = 2;
        assert_eq!(check_sssp(&g, NodeId::new(0), &wrong, true).verdict, Verdict::Fail);

        let sources = vec![NodeId::new(0), NodeId::new(2)];
        let est: Vec<Vec<Distance>> = sources
            .iter()
            .map(|&s| dijkstra(&g, s).as_slice().iter().map(|&d| d * 2).collect())
            .collect();
        // Doubling every distance is a ratio-2 approximation.
        assert_eq!(check_kssp_rows(&g, &sources, &est, 2.0, false).verdict, Verdict::Pass);
        assert_eq!(check_kssp_rows(&g, &sources, &est, 1.5, false).verdict, Verdict::Fail);
        assert_eq!(check_kssp_rows(&g, &sources, &est, 1.5, true).verdict, Verdict::Pass);
    }

    #[test]
    fn diameter_check() {
        let g = path(6, 1).unwrap(); // D = 5
        assert_eq!(check_diameter(&g, 5, 1.5, false).verdict, Verdict::Pass);
        assert_eq!(check_diameter(&g, 7, 1.5, false).verdict, Verdict::Pass);
        assert_eq!(check_diameter(&g, 4, 1.5, false).verdict, Verdict::Fail);
        assert_eq!(check_diameter(&g, 20, 1.5, false).verdict, Verdict::Fail);
        assert_eq!(check_diameter(&g, 20, 1.5, true).verdict, Verdict::Pass);
    }

    #[test]
    fn errors_pass_only_under_lossy_plans_with_real_drops() {
        let err = HybridError::MissingTokens { receiver: NodeId::new(1), expected: 3, got: 1 };
        assert_eq!(check_error(&err, Contract::Lossy, 7).verdict, Verdict::Pass);
        assert_eq!(
            check_error(&err, Contract::Lossy, 0).verdict,
            Verdict::Fail,
            "no drop, no excuse"
        );
        assert_eq!(check_error(&err, Contract::Strict, 7).verdict, Verdict::Fail);
        assert_eq!(check_error(&err, Contract::Strict, 0).verdict, Verdict::Fail);
        // The chaos contract never accepts an abort, dropped messages or not.
        assert_eq!(check_error(&err, Contract::MustRecover, 7).verdict, Verdict::Fail);
        assert_eq!(check_error(&err, Contract::MustRecover, 0).verdict, Verdict::Fail);
    }

    #[test]
    fn check_report_applies_the_carried_guarantee() {
        use hybrid_core::solver::{solve, Query};
        use hybrid_sim::{HybridConfig, HybridNet};

        let g = path(6, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 3).unwrap();
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert_eq!(check_report(&g, &report, Contract::Strict).verdict, Verdict::Pass);

        // A doctored report with a broken answer must fail under its own
        // contract.
        let mut bad = report.clone();
        if let Answer::Distances(m) = &mut bad.answer {
            Arc::make_mut(m).set(NodeId::new(0), NodeId::new(5), 1);
        }
        assert_eq!(check_report(&g, &bad, Contract::Strict).verdict, Verdict::Fail);

        // A diameter report is checked inside [D, factor·D] from its own
        // guarantee — no per-corollary re-derivation.
        let diam = Report {
            answer: Answer::Diameter { estimate: 7, exact_local: false },
            guarantee: Guarantee::DiameterFactor { factor: 1.5 },
            ..report.clone()
        };
        assert_eq!(check_report(&g, &diam, Contract::Strict).verdict, Verdict::Pass);
        let diam_bad = Report {
            answer: Answer::Diameter { estimate: 20, exact_local: false },
            guarantee: Guarantee::DiameterFactor { factor: 1.5 },
            ..report
        };
        assert_eq!(check_report(&g, &diam_bad, Contract::Strict).verdict, Verdict::Fail);
    }

    #[test]
    fn check_report_rejects_broken_phase_attribution() {
        use hybrid_core::solver::{solve, Query};
        use hybrid_sim::{HybridConfig, HybridNet};

        let g = path(6, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 3).unwrap();
        assert!(report.rounds > 0);
        let mut tampered = report.clone();
        tampered.phases.clear();
        let v = check_report(&g, &tampered, Contract::Strict);
        assert_eq!(v.verdict, Verdict::Fail);
        assert!(v.detail.contains("phase attribution"), "{}", v.detail);
    }

    #[test]
    fn degraded_reports_are_held_to_exactness_and_rejected_on_healthy_nets() {
        use hybrid_core::solver::{solve, DegradeCause, Query};
        use hybrid_sim::{HybridConfig, HybridNet};

        let g = path(6, 1).unwrap();
        let mut net = HybridNet::new(&g, HybridConfig::default());
        let report = solve(&mut net, &Query::apsp().build().unwrap(), 3).unwrap();
        let degraded = Report {
            guarantee: Guarantee::Degraded {
                from: "apsp-thm11",
                to: "apsp-local-flood",
                cause: DegradeCause::CrashDetected,
            },
            ..report.clone()
        };
        // An exact fallback answer passes under both fault contracts …
        for contract in [Contract::Lossy, Contract::MustRecover] {
            let v = check_report(&g, &degraded, contract);
            assert_eq!(v.verdict, Verdict::Pass, "{}", v.detail);
            assert!(v.detail.contains("degraded apsp-thm11 → apsp-local-flood"), "{}", v.detail);
        }
        // … is rejected on a healthy network (nothing may degrade there) …
        assert_eq!(check_report(&g, &degraded, Contract::Strict).verdict, Verdict::Fail);
        // … and the degraded answer itself gets no loss allowance: an
        // overestimate fails even under the lossy contract.
        let mut bad = degraded.clone();
        if let Answer::Distances(m) = &mut bad.answer {
            Arc::make_mut(m).set(NodeId::new(0), NodeId::new(5), 100);
        }
        assert_eq!(check_report(&g, &bad, Contract::Lossy).verdict, Verdict::Fail);
    }

    #[test]
    fn strict_kssp_rejects_degenerate_estimates() {
        let g = path(4, 1).unwrap();
        let sources = vec![NodeId::new(0)];
        let mut est = vec![dijkstra(&g, NodeId::new(0)).as_slice().to_vec()];
        est[0][3] = INFINITY; // reachable node estimated unreachable
        let v = check_kssp_rows(&g, &sources, &est, 10.0, false);
        assert_eq!(v.verdict, Verdict::Fail);
        assert!(v.detail.contains("INFINITY"), "{}", v.detail);
        // The lossy contract tolerates it (a lost message can cost coverage).
        assert_eq!(check_kssp_rows(&g, &sources, &est, 10.0, true).verdict, Verdict::Pass);

        let mut est = vec![dijkstra(&g, NodeId::new(0)).as_slice().to_vec()];
        est[0][0] = 5; // nonzero self-distance
        assert_eq!(check_kssp_rows(&g, &sources, &est, 10.0, false).verdict, Verdict::Fail);
    }
}

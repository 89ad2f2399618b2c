//! Registry smoke test: every shipped scenario runs at `n ≤ 64` through the
//! parallel runner, verifies `Pass` against ground truth, and reproduces
//! deterministically from `(scenario, seed)`.

use hybrid_scenarios::{registry, run_scenarios, Scenario};

const SMOKE_N: usize = 48;

#[test]
fn full_registry_passes_at_smoke_size() {
    let batch: Vec<&Scenario> = registry().iter().collect();
    let reports = run_scenarios(&batch, SMOKE_N);
    assert_eq!(reports.len(), registry().len());
    for r in &reports {
        assert!(
            r.passed(),
            "{} [{} / {} / {}]: {}",
            r.scenario,
            r.family,
            r.faults,
            r.suite,
            r.detail
        );
        assert!(r.n <= 64);
    }
    // The lossy plans actually bit: at least one faulty scenario lost
    // messages (otherwise the fault machinery silently did nothing).
    let dropped: u64 = reports.iter().map(|r| r.dropped_messages).sum();
    assert!(dropped > 0, "drop/crash plans must remove messages at smoke size");
    // Degraded-cap scenarios still deliver everything.
    for r in reports.iter().filter(|r| r.faults == "degraded-caps") {
        assert_eq!(r.dropped_messages, 0, "{}", r.scenario);
    }
}

#[test]
fn runs_are_deterministic_from_scenario_and_seed() {
    let batch: Vec<&Scenario> = registry().iter().collect();
    let first = run_scenarios(&batch, SMOKE_N);
    let second = run_scenarios(&batch, SMOKE_N);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.deterministic_key(),
            b.deterministic_key(),
            "{} must reproduce bit-identically",
            a.scenario
        );
    }
}

#[test]
fn bit_parallel_balls_match_per_node_bfs_on_every_registry_graph() {
    use hybrid_graph::bfs::{local_max_hop, local_max_hops};
    // 70 is not a multiple of 64: the second batch is a partial word. The
    // radii 2 and 3 stop batches while frontiers are still live.
    for s in registry() {
        for n in [SMOKE_N, 70] {
            let g = s.graph(n);
            for r in [0, 1, 2, 3, g.len() + 5] {
                let fast = local_max_hops(&g, r);
                for v in g.nodes() {
                    assert_eq!(fast[v.index()], local_max_hop(&g, v, r), "{} n={n} r={r}", s.name);
                }
            }
        }
    }
}

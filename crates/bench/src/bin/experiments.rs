//! Experiment runner: prints every experiment table, drives the scenario
//! registry, and emits the machine-readable `BENCH_*.json` files.
//!
//! ```sh
//! cargo run --release -p hybrid-bench --bin experiments -- all
//! cargo run --release -p hybrid-bench --bin experiments -- e2 e5 e16
//! cargo run --release -p hybrid-bench --bin experiments -- --small all
//! cargo run --release -p hybrid-bench --bin experiments -- --large e2 e4
//! cargo run --release -p hybrid-bench --bin experiments -- --json
//! cargo run --release -p hybrid-bench --bin experiments -- --list
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --via-session
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --filter faulty
//! cargo run --release -p hybrid-bench --bin experiments -- --trace traces/
//! cargo run --release -p hybrid-bench --bin experiments -- --smoke --trace traces/
//! cargo run --release -p hybrid-bench --bin experiments -- --serve
//! cargo run --release -p hybrid-bench --bin experiments -- --serve --smoke
//! cargo run --release -p hybrid-bench --bin experiments -- --serve --json
//! cargo run --release -p hybrid-bench --bin experiments -- --help
//! ```
//!
//! * `--help` prints the usage and exits. An unknown flag or experiment id,
//!   or a flag the selected mode would not consult, prints the reason and
//!   the usage and exits with status 2.
//! * `--list` prints the scenario registry (names, tags, families, faults).
//! * `--smoke` runs the full registry (or the `--filter <tag>` subset) at
//!   tiny `n` with golden verification, then the chaos recovery sweep
//!   (every `chaos-*` scenario next to its fault-free twin), then the churn
//!   repair sweep (patch-vs-full speedup, damage-threshold sweep, and the
//!   churn+chaos serving loop, gated on ≥ 2× incremental speedup and zero
//!   bit-identity mismatches), and exits non-zero on any `fail` — the CI
//!   gate. With `--json` it also writes `BENCH_scenarios.json`,
//!   `BENCH_chaos.json`, and `BENCH_churn.json`.
//! * `--via-session` makes `--smoke` execute every suite through a serving
//!   `Session` instead of a cold `solve` — the CI guard that the session
//!   path answers bit-identically under golden verification.
//! * `--filter <tag>` restricts scenario selection (for `--smoke` and `e16`).
//! * `--trace <dir>` writes one Chrome-trace JSON (`<name>.trace.json`,
//!   simulated rounds as the clock — load in `chrome://tracing` or Perfetto)
//!   plus a text rollup (`<name>.rollup.txt`) per traced run into `<dir>`.
//!   Alone it traces the E2 workload and one `chaos-*` scenario; with
//!   `--smoke` it traces every scenario in the matrix, and a trace that
//!   fails to reconcile against the metrics counters fails the run.
//! * `--large` extends the E2/E4 sweeps (and the `--json` APSP sweep) to
//!   n = 3200 with sampled verification.
//! * `--json` times the E2 APSP workload (Theorem 1.1, the SODA'20 baseline,
//!   and the sequential reference) and writes `BENCH_apsp.json`, plus the
//!   mixed-batch serving sweep into `BENCH_throughput.json`, the chaos
//!   recovery sweep into `BENCH_chaos.json`, and the churn repair sweep
//!   into `BENCH_churn.json`.
//! * `--serve` drives the multi-tenant broker with the closed-loop load
//!   generator over registry workloads — including the `serve-chaos`
//!   workload with faulty, crashing, and panicking tenants — and prints the
//!   serving record (schema `hybrid-bench/serving-v2`: latency percentiles,
//!   saturation qps, shed rate, cache counters, plus retry, deadline,
//!   breaker, quarantine, and degradation counters). With `--json` it also
//!   writes that record to `BENCH_serving.json`; without it no file is
//!   touched, like every other mode. With `--smoke` it runs the short small-scale loop and exits non-zero on any
//!   bit-identity mismatch (which is also how corruption that slipped past
//!   the checksums would surface), request-accounting hole, breaker
//!   accounting leak, missing degraded service under chaos, or schema
//!   violation — the serving CI gate.

use std::path::PathBuf;

use hybrid_bench::experiments as ex;
use hybrid_bench::{json, Scale};
use hybrid_scenarios::{registry, Engine};

const USAGE: &str = "\
usage: experiments [--small | --large] [--json] [--filter TAG] [EXPERIMENT...]
       experiments --smoke [--via-session] [--filter TAG] [--trace DIR] [--json]
       experiments --serve [--small | --large | --smoke] [--json]
       experiments --trace DIR
       experiments --list
       experiments --help

EXPERIMENT is one of e1 .. e16, or `all` (the default when none is given).
See the crate docs of `src/bin/experiments.rs` for what each mode does.";

type Runner = fn(Scale) -> hybrid_bench::table::Table;

/// The experiment tables, by id.
const RUNS: [(&str, Runner); 16] = [
    ("e1", ex::e1_token_routing),
    ("e2", ex::e2_apsp),
    ("e3", ex::e3_kssp),
    ("e4", ex::e4_sssp),
    ("e5", ex::e5_diameter),
    ("e6", ex::e6_kssp_lower_bound),
    ("e7", ex::e7_diameter_lower_bound),
    ("e8", ex::e8_helper_sets),
    ("e9", ex::e9_ruling_sets),
    ("e10", ex::e10_skeletons),
    ("e11", ex::e11_congestion),
    ("e12", ex::e12_clique_sim),
    ("e13", ex::e13_xi_ablation),
    ("e14", ex::e14_mu_ablation),
    ("e15", ex::e15_gamma_ablation),
    ("e16", ex::e16_scenarios),
];

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// `--help`: print [`USAGE`] and exit successfully.
    Help,
    /// Run the selected mode.
    Run(Options),
}

/// A validated command line.
#[derive(Debug, PartialEq)]
struct Options {
    scale: Scale,
    emit_json: bool,
    list: bool,
    smoke: bool,
    serve: bool,
    engine: Engine,
    filter: Option<String>,
    trace_dir: Option<PathBuf>,
    /// Experiment ids (or `all`), in command-line order.
    wanted: Vec<String>,
}

/// Parses and validates the arguments (without the program name). Every
/// argument must be understood and consulted by the selected mode; anything
/// else is an error carrying the reason.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        scale: Scale::Full,
        emit_json: false,
        list: false,
        smoke: false,
        serve: false,
        engine: Engine::Fresh,
        filter: None,
        trace_dir: None,
        wanted: Vec::new(),
    };
    let (mut small, mut large) = (false, false);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--small" => small = true,
            "--large" => large = true,
            "--json" => opts.emit_json = true,
            "--list" => opts.list = true,
            "--smoke" => opts.smoke = true,
            "--serve" => opts.serve = true,
            "--via-session" => opts.engine = Engine::Session,
            "--filter" => {
                let tag = iter.next().ok_or(
                    "--filter requires a tag (see --list for the registry's tags)".to_string(),
                )?;
                opts.filter = Some(tag.clone());
            }
            "--trace" => {
                let dir = iter.next().ok_or(
                    "--trace requires an output directory for the trace/rollup files".to_string(),
                )?;
                opts.trace_dir = Some(PathBuf::from(dir));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id if id == "all" || RUNS.iter().any(|(known, _)| *known == id) => {
                opts.wanted.push(id.to_string());
            }
            id => return Err(format!("unknown experiment id {id}")),
        }
    }
    // `--small` wins over `--large`.
    opts.scale = if small {
        Scale::Small
    } else if large {
        Scale::Large
    } else {
        Scale::Full
    };
    // Like a dangling --filter: a flag no code path will consult must error,
    // not silently run the Fresh engine.
    if opts.engine == Engine::Session && !opts.smoke {
        return Err("--via-session applies to --smoke runs only; nothing here consults it".into());
    }
    // `--serve`: the closed-loop broker sweep is its own mode; every flag it
    // doesn't consult (experiment ids, --trace, --filter, --via-session,
    // --list) must error, not silently do nothing.
    if opts.serve
        && (!opts.wanted.is_empty()
            || opts.trace_dir.is_some()
            || opts.filter.is_some()
            || opts.list
            || opts.engine != Engine::Fresh)
    {
        return Err("--serve combines only with --small/--large/--smoke/--json".into());
    }
    // `--trace` without `--smoke` is its own mode (trace the E2 workload plus
    // one chaos scenario, then exit); experiment ids or `--json` alongside it
    // would be silently ignored, so they must error like any unconsulted flag.
    if opts.trace_dir.is_some()
        && !opts.smoke
        && (!opts.wanted.is_empty() || opts.emit_json || opts.list)
    {
        return Err("--trace combines only with --smoke; alone it traces the E2 workload and \
                    one chaos scenario"
            .into());
    }
    // A filter that no code path will consult must error, not silently gate
    // nothing: it applies to --smoke and to the e16 scenario matrix.
    let runs_e16 = opts.wanted.iter().any(|w| w == "e16" || w == "all")
        || (opts.wanted.is_empty() && !opts.emit_json);
    if opts.filter.is_some() && !opts.smoke && !opts.list && !runs_e16 {
        return Err(
            "--filter applies to --smoke and e16 runs only; nothing here consults it".into()
        );
    }
    Ok(Command::Run(opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(reason) => {
            eprintln!("error: {reason}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Options { scale, emit_json, list, smoke, serve, engine, filter, trace_dir, wanted } = opts;

    if serve {
        let serve_scale = if smoke { Scale::Small } else { scale };
        let scale_name = match serve_scale {
            Scale::Small => "small",
            Scale::Full => "full",
            Scale::Large => "large",
        };
        eprintln!("running closed-loop serving sweep...");
        let records = ex::bench_serving_records(serve_scale);
        let doc = json::render_with_schema(json::SCHEMA_SERVING, scale_name, &records);
        if emit_json {
            std::fs::write("BENCH_serving.json", &doc).expect("write BENCH_serving.json");
            eprintln!("wrote BENCH_serving.json:");
        }
        print!("{doc}");
        ex::serving_table(&records).print();
        // The serving gate: bit-identity must hold for every response (a
        // corrupted payload that slipped past the reliable layer's checksums
        // would land here as a mismatch), every request must be accounted
        // (served, shed, deadline-shed, breaker-rejected, or failed — no
        // silent loss), breaker counters must be self-consistent, the chaos
        // workload must actually exercise the degradation path, and the
        // emitted document must carry every serving-v2 field.
        let mut violations = Vec::new();
        for r in &records {
            let s = r.serving.as_ref().expect("serving record");
            let chaos = r.bench == "serve-chaos";
            if s.mismatches > 0 {
                violations.push(format!(
                    "{}: {} bit-identity mismatch(es) — possible undetected corruption",
                    r.bench, s.mismatches
                ));
            }
            // Only the chaos workload runs a deliberately panicking tenant;
            // its contained panics must be matched by quarantined sessions.
            if s.failed > 0 && !chaos {
                violations
                    .push(format!("{}: {} request(s) failed unstructured", r.bench, s.failed));
            }
            if chaos && s.failed > 0 && s.quarantined == 0 {
                violations.push(format!(
                    "{}: {} contained failure(s) but no session was quarantined",
                    r.bench, s.failed
                ));
            }
            let accounted = s.served + s.shed + s.deadline_shed + s.breaker_rejected + s.failed;
            if accounted != s.issued {
                violations.push(format!(
                    "{}: issued {} but accounted {} — silent request loss",
                    r.bench, s.issued, accounted
                ));
            }
            if s.verified < s.served {
                violations.push(format!(
                    "{}: only {} of {} served responses verified against a cold solve",
                    r.bench, s.verified, s.served
                ));
            }
            // Breaker accounting leaks: a probe can only follow an open, and
            // a rejection can only come from an open breaker. Healthy
            // workloads register no breaker tenants, so any activity there
            // is a leak outright.
            if s.breaker_probes > s.breaker_opens {
                violations.push(format!(
                    "{}: {} breaker probe(s) but only {} open(s)",
                    r.bench, s.breaker_probes, s.breaker_opens
                ));
            }
            if s.breaker_rejected > 0 && s.breaker_opens == 0 {
                violations.push(format!(
                    "{}: {} breaker rejection(s) without any breaker open",
                    r.bench, s.breaker_rejected
                ));
            }
            if !chaos && (s.breaker_opens > 0 || s.quarantined > 0 || s.degraded_served > 0) {
                violations.push(format!(
                    "{}: healthy workload leaked chaos counters (opens={} quarantined={} \
                     degraded={})",
                    r.bench, s.breaker_opens, s.quarantined, s.degraded_served
                ));
            }
            if chaos && s.degraded_served == 0 {
                violations.push(format!(
                    "{}: the crashing tenant never produced an explicitly degraded answer",
                    r.bench
                ));
            }
        }
        for field in [
            "\"schema\": \"hybrid-bench/serving-v2\"",
            "\"p50_ns\"",
            "\"p95_ns\"",
            "\"p99_ns\"",
            "\"qps\"",
            "\"shed_rate\"",
            "\"cache_hits\"",
            "\"cache_evicted\"",
            "\"retries\"",
            "\"deadline_shed\"",
            "\"breaker_rejected\"",
            "\"breaker_opens\"",
            "\"breaker_probes\"",
            "\"quarantined\"",
            "\"degraded_served\"",
        ] {
            if !doc.contains(field) {
                violations.push(format!("serving-v2 schema violation: missing {field}"));
            }
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("serving gate FAILED: {v}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "serving sweep healthy: every response bit-identical to its cold solve, \
             every request accounted, chaos contained"
        );
        return;
    }

    if list {
        println!(
            "{} registered scenarios (tags: {}):",
            registry().len(),
            hybrid_scenarios::all_tags().join(", ")
        );
        for sc in registry() {
            println!(
                "  {:<22} family={:<16} faults={:<14} suite={:<14} seed={:<4} default_n={:<5} tags=[{}]",
                sc.name,
                sc.family.label(),
                sc.faults.label(),
                sc.suite.label(),
                sc.seed,
                sc.default_n,
                sc.tags.join(", "),
            );
        }
        return;
    }

    if smoke {
        eprintln!(
            "running scenario smoke matrix (n = {}, filter = {}, engine = {:?})...",
            ex::SMOKE_N,
            filter.as_deref().unwrap_or("<none>"),
            engine,
        );
        let reports = ex::scenario_reports_with(Scale::Small, filter.as_deref(), engine);
        if reports.is_empty() {
            eprintln!("no scenarios match filter {:?}", filter);
            std::process::exit(2);
        }
        let failures = reports.iter().filter(|r| !r.passed()).count();
        ex::scenario_table(&reports).print();
        if emit_json {
            let doc = json::render_scenarios("small", &reports);
            std::fs::write("BENCH_scenarios.json", &doc).expect("write BENCH_scenarios.json");
            eprintln!("wrote BENCH_scenarios.json");
        }
        // The chaos recovery sweep rides every smoke run: each chaos-*
        // scenario next to its fault-free twin, gated on the must-recover
        // verdict like the matrix above.
        eprintln!("running chaos recovery sweep...");
        let chaos = ex::bench_chaos_records(Scale::Small);
        let chaos_failures = chaos.iter().filter(|r| r.verdict.as_deref() != Some("pass")).count();
        if emit_json {
            let doc = json::render_with_schema(json::SCHEMA_CHAOS, "small", &chaos);
            std::fs::write("BENCH_chaos.json", &doc).expect("write BENCH_chaos.json");
            eprintln!("wrote BENCH_chaos.json");
        }
        // The churn repair sweep rides every smoke run too: patch-vs-full
        // wall clock, the damage-threshold sweep, and the churn+chaos
        // serving loop, gated by `churn_gate_violations`.
        eprintln!("running churn repair sweep...");
        let churn = ex::bench_churn_records(Scale::Small);
        let churn_violations = ex::churn_gate_violations(&churn);
        for v in &churn_violations {
            eprintln!("churn gate FAILED: {v}");
        }
        if emit_json {
            let doc = json::render_with_schema(json::SCHEMA_CHURN, "small", &churn);
            std::fs::write("BENCH_churn.json", &doc).expect("write BENCH_churn.json");
            eprintln!("wrote BENCH_churn.json");
        }
        // `--smoke --trace <dir>`: one traced run per scenario in the matrix,
        // exporting the Chrome trace + rollup; a reconciliation mismatch
        // fails the verdict and therefore the gate below.
        let trace_failures = if let Some(dir) = &trace_dir {
            eprintln!("exporting smoke-matrix traces into {}...", dir.display());
            let selected: Vec<&hybrid_scenarios::Scenario> = match filter.as_deref() {
                Some(tag) => hybrid_scenarios::by_tag(tag),
                None => registry().iter().collect(),
            };
            ex::export_scenario_traces(dir, &selected, ex::SMOKE_N)
        } else {
            0
        };
        if failures + chaos_failures + churn_violations.len() + trace_failures > 0 {
            eprintln!(
                "{failures} scenario(s), {chaos_failures} chaos sweep run(s), {} churn gate \
                 violation(s), and {trace_failures} traced run(s) FAILED verification",
                churn_violations.len()
            );
            std::process::exit(1);
        }
        eprintln!(
            "all scenarios passed golden verification (chaos recovery and churn repair included)"
        );
        return;
    }

    // Plain `--trace <dir>`: trace the E2 workload (the perf-trajectory
    // anchor) and the first chaos scenario (retransmission waves and
    // degradation events in the stream), then exit.
    if let Some(dir) = &trace_dir {
        let chaos = hybrid_scenarios::by_tag("chaos");
        let chaos_first = chaos.first().copied().expect("registry ships chaos scenarios");
        let e2 = hybrid_scenarios::find("e2-er").expect("registry ships e2-er");
        eprintln!("exporting traces into {}...", dir.display());
        let trace_failures = ex::export_scenario_traces(dir, &[e2, chaos_first], ex::SMOKE_N);
        if trace_failures > 0 {
            eprintln!("{trace_failures} traced run(s) FAILED verification");
            std::process::exit(1);
        }
        return;
    }

    // `--json` alone means "just the JSON sweep"; any experiment id (or `all`)
    // still runs the tables.
    let all = wanted.iter().any(|w| w == "all") || (wanted.is_empty() && !emit_json);
    for (id, f) in RUNS {
        if all || wanted.iter().any(|w| w == id) {
            eprintln!("running {id}...");
            if id == "e16" && filter.is_some() {
                ex::scenario_table(&ex::scenario_reports(scale, filter.as_deref())).print();
            } else {
                f(scale).print();
            }
        }
    }
    if emit_json {
        let scale_name = match scale {
            Scale::Small => "small",
            Scale::Full => "full",
            Scale::Large => "large",
        };
        eprintln!("running APSP wall-clock sweep for BENCH_apsp.json...");
        let records = ex::bench_apsp_records(scale);
        let doc = json::render(scale_name, &records);
        let path = "BENCH_apsp.json";
        std::fs::write(path, &doc).expect("write BENCH_apsp.json");
        eprintln!("wrote {path}:");
        print!("{doc}");
        eprintln!("running mixed-batch serving sweep for BENCH_throughput.json...");
        let records = ex::bench_throughput_records(scale);
        let doc = json::render_with_schema(json::SCHEMA_THROUGHPUT, scale_name, &records);
        let path = "BENCH_throughput.json";
        std::fs::write(path, &doc).expect("write BENCH_throughput.json");
        eprintln!("wrote {path}:");
        print!("{doc}");
        eprintln!("running chaos recovery sweep for BENCH_chaos.json...");
        let records = ex::bench_chaos_records(scale);
        let doc = json::render_with_schema(json::SCHEMA_CHAOS, scale_name, &records);
        let path = "BENCH_chaos.json";
        std::fs::write(path, &doc).expect("write BENCH_chaos.json");
        eprintln!("wrote {path}:");
        print!("{doc}");
        eprintln!("running churn repair sweep for BENCH_churn.json...");
        let records = ex::bench_churn_records(scale);
        let doc = json::render_with_schema(json::SCHEMA_CHURN, scale_name, &records);
        let path = "BENCH_churn.json";
        std::fs::write(path, &doc).expect("write BENCH_churn.json");
        eprintln!("wrote {path}:");
        print!("{doc}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_is_its_own_command() {
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
        assert_eq!(parse(&["--small", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn unknown_flags_and_ids_are_rejected() {
        let err = parse(&["--small", "--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        let err = parse(&["e99"]).unwrap_err();
        assert!(err.contains("e99"), "{err}");
    }

    #[test]
    fn known_arguments_parse() {
        let Ok(Command::Run(opts)) = parse(&["--small", "e2", "e16", "--filter", "chaos"]) else {
            panic!("valid command line rejected");
        };
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(opts.wanted, ["e2", "e16"]);
        assert_eq!(opts.filter.as_deref(), Some("chaos"));
        let Ok(Command::Run(opts)) = parse(&["--smoke", "--via-session", "--trace", "t"]) else {
            panic!("valid smoke command line rejected");
        };
        assert_eq!(opts.engine, Engine::Session);
        assert_eq!(opts.trace_dir, Some(PathBuf::from("t")));
    }

    #[test]
    fn unconsulted_flags_are_rejected() {
        assert!(parse(&["--via-session"]).is_err());
        assert!(parse(&["--trace", "t", "e2"]).is_err());
        assert!(parse(&["--json", "--filter", "chaos"]).is_err());
        assert!(parse(&["--filter"]).is_err());
    }

    #[test]
    fn serve_writes_its_record_only_under_json() {
        let Ok(Command::Run(opts)) = parse(&["--serve", "--smoke", "--json"]) else {
            panic!("--serve --json rejected");
        };
        assert!(opts.serve && opts.smoke && opts.emit_json);
        let Ok(Command::Run(opts)) = parse(&["--serve", "--smoke"]) else {
            panic!("--serve --smoke rejected");
        };
        assert!(!opts.emit_json, "the CI smoke must not rewrite BENCH_serving.json");
    }

    #[test]
    fn serve_rejects_the_flags_it_does_not_consult() {
        for extra in [
            &["e2"][..],
            &["--trace", "t"],
            &["--filter", "chaos"],
            &["--list"],
            &["--smoke", "--via-session"],
        ] {
            let args: Vec<&str> = ["--serve", "--json"].iter().chain(extra).copied().collect();
            assert!(parse(&args).is_err(), "{args:?} accepted");
        }
    }
}

//! The repository benchmark: three closed-loop workloads over the HYBRID
//! shortest-path stack, end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs.
//!
//! ```text
//! perfbench --workload <cold-e2|serve-repeat|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines (host block, every metric with unit and sample
//! count, failed checks) come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any output check failed. Traced runs also
//! write their spans to `.bench_out/trace-<workload>-seed<n>.json`.

mod calib;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::time::Instant;

use report::{json_num, json_str, result_json, Host, Metrics};
use stats::{hd_quantile, mean, median, percentile};
use workloads::{Outcome, RunCfg};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cold-e2", "serve-repeat", "serve-churn"];

/// Thread budgets every workload runs under: one worker per pool, so the
/// serving workloads' two clients × one worker fit a 2-core host.
const BUDGETS: [(&str, usize); 5] = [
    ("HYBRID_ROUND_THREADS", 1),
    ("HYBRID_DIJKSTRA_THREADS", 1),
    ("HYBRID_MINPLUS_THREADS", 1),
    ("HYBRID_SESSION_THREADS", 1),
    ("HYBRID_SCENARIO_THREADS", 1),
];

/// The end-to-end metrics of the result line (`BENCHMARK.json`
/// `end_to_end`); the rest are printed only.
const END_TO_END: [&str; 5] =
    ["throughput_qps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Fixed before any thread exists, so every pool in the process sees them.
    for (k, v) in BUDGETS {
        std::env::set_var(k, v.to_string());
    }
    let host = Host::probe(&BUDGETS);
    println!("{}", host.line());
    println!(
        "workload {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let epoch = Instant::now();
    let cfg = RunCfg { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let mut out = match args.workload.as_str() {
        "cold-e2" => workloads::cold_e2(cfg, epoch),
        "serve-repeat" => workloads::serve_repeat(cfg, epoch),
        _ => workloads::serve_churn(cfg, epoch),
    };

    // End-to-end metrics come only from untraced runs; traced runs report
    // the per-layer metrics.
    println!(
        "host-ref median {:.4} ms over {} samples; end-to-end timings scaled by {:.4} to the {} ms reference host",
        out.host.median_ms(),
        out.host.samples(),
        out.host.scale(),
        calib::REF_NOMINAL_MS
    );
    let mut metrics = Metrics::default();
    if args.trace {
        let mut probe_tr = out.tracer.fork();
        probes::run(&out.probe, out.stats.as_ref(), &out.tracer, &mut probe_tr, &mut metrics);
        if let Some(traced) = &out.traced {
            let (plain, traced) = (mean(&out.plain.lat_ms), mean(&traced.lat_ms));
            metrics.add(
                "trace.overhead_frac",
                "ratio",
                traced / plain - 1.0,
                format!("mean latency traced {traced:.4} ms vs untraced {plain:.4} ms"),
            );
        }
        out.tracer.absorb(probe_tr);
        write_trace(&args, &host, &out, &metrics);
    } else {
        end_to_end(&args.workload, &out, &mut metrics);
    }
    for m in &metrics.0 {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    let phases = std::iter::once(&out.plain).chain(&out.traced);
    let attempted: u64 = phases.clone().map(|p| p.attempted).sum();
    let failed: u64 = phases.map(|p| p.failed).sum();
    for f in out.failures.iter().take(20) {
        println!("check FAILED: {f}");
    }
    if out.failures.len() > 20 {
        println!("check FAILED: ... {} more", out.failures.len() - 20);
    }
    let correct = out.failures.is_empty() && failed == 0;
    println!("checks {}", if correct { "passed" } else { "FAILED" });
    metrics.0.retain(|m| args.trace || END_TO_END.contains(&m.name.as_str()));
    println!("{}", result_json(correct, attempted.max(1), failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}

/// The end-to-end metrics, from the untraced requests, with every timing
/// scaled to the reference host (see `calib`).
fn end_to_end(workload: &str, out: &Outcome, m: &mut Metrics) {
    let ph = &out.plain;
    let k = out.host.scale();
    let scaled = |values: &[f64]| values.iter().map(|v| v * k).collect::<Vec<f64>>();
    m.add(
        "throughput_qps",
        "1/s",
        ph.lat_ms.len() as f64 / (ph.busy_s * k),
        format!(
            "samples={} over {:.3} s, unscaled {:.4} 1/s",
            ph.lat_ms.len(),
            ph.busy_s,
            ph.lat_ms.len() as f64 / ph.busy_s
        ),
    );
    let mut pct = |name: &str, values: &[f64], p: f64| match percentile(values, p) {
        Some(v) => m.add_pct(name, v),
        None => m.add(
            name,
            "ms",
            if values.is_empty() { 0.0 } else { hd_quantile(values, p) },
            format!("samples={} TOO FEW beyond p{}", values.len(), p * 100.0),
        ),
    };
    let (lat_ms, upd_ms) = (scaled(&ph.lat_ms), scaled(&ph.upd_ms));
    pct("latency_p50_ms", &lat_ms, 0.5);
    pct("latency_p90_ms", &lat_ms, 0.9);
    if workload == "serve-repeat" {
        pct("latency_p99_ms", &lat_ms, 0.99);
    }
    if workload == "serve-churn" {
        pct("update_p50_ms", &upd_ms, 0.5);
        pct("update_p90_ms", &upd_ms, 0.9);
    }
    let setup = median(&out.setup_s);
    m.add(
        "setup_s",
        "s",
        setup * k,
        format!("median of {} set-ups, unscaled {setup:.6} s", out.setup_s.len()),
    );
    m.add("peak_rss_mb", "MB", out.peak_rss_mb, "VmHWM of this workload's own process");
    let shed = out.stats.as_ref().map_or(0, |s| s["shed"] + s["deadline_shed"]);
    m.add(
        "error_rate",
        "ratio",
        ph.failed as f64 / ph.attempted.max(1) as f64,
        format!("failed={} (shed={shed}) attempted={}", ph.failed, ph.attempted),
    );
}

/// Writes the traced run's spans, self times and metrics to
/// `.bench_out/trace-<workload>-seed<n>.json` and prints the self times.
fn write_trace(args: &Args, host: &Host, out: &Outcome, metrics: &Metrics) {
    let selfs = out.tracer.self_times();
    println!("spans {} (name count total_ms self_ms)", out.tracer.spans().len());
    for (name, (count, total, own)) in &selfs {
        println!("span {name} {count} {:.3} {:.3}", *total as f64 / 1e6, *own as f64 / 1e6);
    }
    let self_json: Vec<String> = selfs
        .iter()
        .map(|(k, (c, t, s))| {
            format!("{}: {{\"count\": {c}, \"total_ns\": {t}, \"self_ns\": {s}}}", json_str(k))
        })
        .collect();
    let metrics_json: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"metrics\": {{{}}}, \"self_times\": {{{}}}, \"spans\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        host.json(),
        metrics_json.join(", "),
        self_json.join(", "),
        out.tracer.to_json()
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written: {e}"),
    }
}

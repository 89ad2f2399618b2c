//! Machine-readable benchmark output (`BENCH_*.json`).
//!
//! The experiment binary's `--json` flag appends wall-clock records here so
//! the repository accumulates a perf trajectory PR over PR. The format is
//! deliberately tiny and hand-written — the build environment has no serde —
//! and stable: one object with a schema tag and a flat record array.
//!
//! Two record shapes share the machinery: plain perf records (the APSP sweep,
//! schema [`SCHEMA`]) and scenario records carrying the registry name, the
//! root seed, and the golden-verification verdict (schema
//! [`SCHEMA_SCENARIOS`]).

use std::fmt::Write as _;
use std::time::Instant;

use hybrid_scenarios::ScenarioReport;

/// One timed benchmark run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRecord {
    /// Benchmark name (e.g. `"thm11_apsp"`).
    pub bench: String,
    /// Problem size `n`.
    pub n: usize,
    /// Wall-clock nanoseconds of the run.
    pub wall_ns: u128,
    /// Simulated HYBRID rounds of the run (0 for purely sequential
    /// references).
    pub rounds: u64,
    /// Canonical solver query label (`Query::label()`) for records produced
    /// through the solver facade; `None` for sequential reference code.
    pub query: Option<String>,
    /// Registry scenario name, for scenario-engine records.
    pub scenario: Option<String>,
    /// Scenario root seed.
    pub seed: Option<u64>,
    /// Golden-verification verdict (`"pass"` / `"fail"`).
    pub verdict: Option<String>,
    /// Process-lifetime peak resident-set size *as of the end of this run*,
    /// best-effort from `/proc/self/status` (`VmHWM`); `None` where the file
    /// is unavailable. The high-water mark is monotone across a sweep, so
    /// compare successive records (a jump attributes the memory to that
    /// bench) rather than reading any single value as a per-bench footprint.
    pub peak_rss_bytes: Option<u64>,
    /// Graph family label, for throughput records.
    pub family: Option<String>,
    /// Batch size (number of queries), for throughput records.
    pub batch: Option<usize>,
    /// Serving throughput in queries per second, for throughput records.
    pub qps: Option<f64>,
    /// Amortized-vs-cold wall-clock ratio (cold / session), for throughput
    /// records.
    pub amortized_ratio: Option<f64>,
    /// Simulated rounds of the fault-free twin run, for chaos records.
    pub healthy_rounds: Option<u64>,
    /// Wall-clock nanoseconds of the fault-free twin run, for chaos records.
    pub healthy_wall_ns: Option<u128>,
    /// Number of structured trace events the run emitted, for scenario
    /// records (schema v2).
    pub trace_events: Option<u64>,
    /// Name of the phase that consumed the most simulated rounds, for
    /// scenario records (schema v2; omitted when nothing was charged).
    pub top_phase: Option<String>,
    /// Rounds charged under `top_phase` (schema v2).
    pub top_phase_rounds: Option<u64>,
    /// Closed-loop serving-load fields, for broker records (schema
    /// [`SCHEMA_SERVING`]).
    pub serving: Option<ServingFields>,
    /// Damage threshold the repair ran under, for churn records (schema
    /// [`SCHEMA_CHURN`]).
    pub damage_threshold: Option<f64>,
    /// Largest dirtied-node fraction the delta batch produced, for churn
    /// records.
    pub dirty_fraction: Option<f64>,
    /// Graph updates the load generator injected successfully, for churn
    /// serving records.
    pub updates_applied: Option<u64>,
}

/// The serving-load measurement block of one broker workload record
/// ([`SCHEMA_SERVING`]): latency percentiles, saturation throughput, shed
/// rate, and the broker's cache/verification counters. Latencies and qps are
/// wall-clock (nondeterministic); every counter is exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingFields {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Requests issued (`served + shed + failed` must equal this).
    pub issued: u64,
    /// Requests served successfully (each verified bit-identical to a cold
    /// solve).
    pub served: u64,
    /// Requests shed by admission control (structured overload, no silent
    /// loss).
    pub shed: u64,
    /// Requests failed any other way (must be 0 in a healthy run).
    pub failed: u64,
    /// Median served-request latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Served throughput in queries per second (closed-loop saturation rate
    /// at this client count).
    pub qps: f64,
    /// `shed / issued`.
    pub shed_rate: f64,
    /// Session-cache hits (requests landing on a resident session).
    pub cache_hits: u64,
    /// Sessions created over the run.
    pub cache_admitted: u64,
    /// Sessions evicted by the byte budget.
    pub cache_evicted: u64,
    /// Bytes charged against the session budget at the end of the run.
    pub cache_bytes: u64,
    /// Responses checked against the cold referee.
    pub verified: u64,
    /// Bit-identity violations (must be 0).
    pub mismatches: u64,
    /// Coalesced `solve_batch` calls issued by batch leaders.
    pub batches: u64,
    /// Largest single coalesced batch.
    pub max_batch: u64,
    // --- serving-v2 fields (append-only extension; v1 names unchanged) ---
    /// Client-side retry attempts on overload (schema v2).
    pub retries: u64,
    /// Requests shed because a deadline budget expired waiting for admission
    /// (schema v2; disjoint from `shed`).
    pub deadline_shed: u64,
    /// Requests rejected by an open circuit breaker (schema v2).
    pub breaker_rejected: u64,
    /// Circuit-breaker open transitions (schema v2).
    pub breaker_opens: u64,
    /// Half-open breaker probes (schema v2).
    pub breaker_probes: u64,
    /// Sessions quarantined after a contained solve panic (schema v2).
    pub quarantined: u64,
    /// Served responses carrying an explicit degraded guarantee (schema v2;
    /// still verified bit-identical to the cold referee).
    pub degraded_served: u64,
}

impl BenchRecord {
    /// Times `f`, recording its wall clock; `f` returns the simulated round
    /// count (0 for sequential reference code).
    pub fn measure(bench: &str, n: usize, f: impl FnOnce() -> u64) -> Self {
        let mut f = Some(f);
        Self::measure_min_of(bench, n, 1, move || (f.take().expect("one run"))())
    }

    /// Times `runs` executions of `f` and records the minimum wall clock —
    /// the documented bench methodology (minimum of N runs filters scheduler
    /// noise on shared boxes). Simulated rounds are taken from the last run
    /// (deterministic workloads return identical counts every time).
    pub fn measure_min_of(bench: &str, n: usize, runs: usize, mut f: impl FnMut() -> u64) -> Self {
        let mut best = u128::MAX;
        let mut rounds = 0;
        for _ in 0..runs.max(1) {
            let start = Instant::now();
            rounds = f();
            best = best.min(start.elapsed().as_nanos());
        }
        BenchRecord {
            bench: bench.to_string(),
            n,
            wall_ns: best,
            rounds,
            peak_rss_bytes: peak_rss_bytes(),
            ..BenchRecord::default()
        }
    }

    /// Attaches the canonical solver query label (builder-style).
    #[must_use]
    pub fn with_query(mut self, label: &str) -> Self {
        self.query = Some(label.to_string());
        self
    }

    /// Attaches throughput-sweep fields: graph family, batch size, and
    /// queries per second (builder-style).
    #[must_use]
    pub fn with_throughput(mut self, family: &str, batch: usize, qps: f64) -> Self {
        self.family = Some(family.to_string());
        self.batch = Some(batch);
        self.qps = Some(qps);
        self
    }

    /// Attaches the amortized-vs-cold ratio (builder-style).
    #[must_use]
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.amortized_ratio = Some(ratio);
        self
    }

    /// Attaches the fault-free twin's rounds and wall clock (builder-style);
    /// the renderer derives the recovery-overhead ratios from them.
    #[must_use]
    pub fn with_healthy(mut self, rounds: u64, wall_ns: u128) -> Self {
        self.healthy_rounds = Some(rounds);
        self.healthy_wall_ns = Some(wall_ns);
        self
    }

    /// Attaches the serving-load measurement block (builder-style).
    #[must_use]
    pub fn with_serving(mut self, serving: ServingFields) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Converts a scenario-engine report into a record carrying the scenario
    /// name, seed, and verification verdict.
    pub fn from_scenario(r: &ScenarioReport) -> Self {
        BenchRecord {
            bench: r.suite.to_string(),
            n: r.n,
            wall_ns: r.wall_ns,
            rounds: r.rounds,
            scenario: Some(r.scenario.clone()),
            seed: Some(r.seed),
            verdict: Some(r.verdict.as_str().to_string()),
            trace_events: Some(r.trace_events),
            top_phase: (!r.top_phase.is_empty()).then(|| r.top_phase.clone()),
            top_phase_rounds: (!r.top_phase.is_empty()).then_some(r.top_phase_rounds),
            ..BenchRecord::default()
        }
    }
}

/// Schema tag of the plain perf sweep (bump on breaking format changes).
/// v2: records produced through the solver facade carry the canonical
/// `"query"` label. v3: simulator-backed records carry the round-engine
/// `"threads"` budget, and wall clocks are the minimum of N interleaved runs.
/// v4: measured records carry best-effort `"peak_rss_bytes"`. v5: the
/// `"threads"` field is gone with the thread-sharded round engine it
/// reported.
pub const SCHEMA: &str = "hybrid-bench/apsp-v5";

/// Schema tag of scenario-engine records. v2: every record additionally
/// carries the run's `"trace_events"` count and (when anything was charged)
/// the `"top_phase"` name with its `"top_phase_rounds"`; all v1 fields are
/// unchanged.
pub const SCHEMA_SCENARIOS: &str = "hybrid-bench/scenarios-v2";

/// Schema tag of the serving-throughput sweep: cold-vs-session wall clocks
/// for a mixed-query batch on one graph, with queries/sec and the
/// amortized-vs-cold ratio.
pub const SCHEMA_THROUGHPUT: &str = "hybrid-bench/throughput-v1";

/// Schema tag of the chaos recovery sweep: every `chaos-*` registry scenario
/// next to its fault-free twin, with the recovery overhead in simulated
/// rounds and wall-clock time.
pub const SCHEMA_CHAOS: &str = "hybrid-bench/chaos-v1";

/// Schema tag of the churn repair sweep: patch-vs-full
/// `Session::apply_delta` wall clocks on a bounded-growth graph at
/// `n ≥ 400` (the patch record's `amortized_vs_cold` is the full/patch
/// speedup), the damage-threshold sweep (each record carries its
/// `damage_threshold`, the delta's `dirty_fraction`, and the repair path as
/// the verdict), and the churn+chaos serving loop (`updates_applied` next to
/// the serving counters; `mismatches` must be 0).
pub const SCHEMA_CHURN: &str = "hybrid-bench/churn-v1";

/// Schema tag of the closed-loop serving sweep (`experiments --serve`): one
/// record per broker workload with latency percentiles, saturation qps, shed
/// rate, and cache hit/eviction counters (see [`ServingFields`]). v2: every
/// v1 field is unchanged; records additionally carry the fault-tolerant
/// serving counters (`retries`, `deadline_shed`, `breaker_rejected`,
/// `breaker_opens`, `breaker_probes`, `quarantined`, `degraded_served`).
pub const SCHEMA_SERVING: &str = "hybrid-bench/serving-v2";

/// Best-effort peak resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
/// This is the process-lifetime high-water mark — monotone over a sweep; see
/// [`BenchRecord::peak_rss_bytes`] for how to attribute it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Renders records as the `BENCH_*.json` document under the given schema tag.
pub fn render_with_schema(schema: &str, scale: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{schema}\",");
    let _ = writeln!(out, "  \"scale\": \"{scale}\",");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let mut line = format!(
            "    {{\"bench\": \"{}\", \"n\": {}, \"wall_ns\": {}, \"rounds\": {}",
            escape(&r.bench),
            r.n,
            r.wall_ns,
            r.rounds
        );
        if let Some(query) = &r.query {
            let _ = write!(line, ", \"query\": \"{}\"", escape(query));
        }
        if let Some(scenario) = &r.scenario {
            let _ = write!(line, ", \"scenario\": \"{}\"", escape(scenario));
        }
        if let Some(seed) = r.seed {
            let _ = write!(line, ", \"seed\": {seed}");
        }
        if let Some(verdict) = &r.verdict {
            let _ = write!(line, ", \"verdict\": \"{}\"", escape(verdict));
        }
        if let Some(family) = &r.family {
            let _ = write!(line, ", \"family\": \"{}\"", escape(family));
        }
        if let Some(batch) = r.batch {
            let _ = write!(line, ", \"batch\": {batch}");
        }
        if let Some(qps) = r.qps {
            let _ = write!(line, ", \"qps\": {qps:.3}");
        }
        if let Some(ratio) = r.amortized_ratio {
            let _ = write!(line, ", \"amortized_vs_cold\": {ratio:.3}");
        }
        if let (Some(hr), Some(hw)) = (r.healthy_rounds, r.healthy_wall_ns) {
            let _ = write!(line, ", \"healthy_rounds\": {hr}, \"healthy_wall_ns\": {hw}");
            let _ = write!(
                line,
                ", \"rounds_overhead\": {:.3}, \"wall_overhead\": {:.3}",
                r.rounds as f64 / hr.max(1) as f64,
                r.wall_ns as f64 / hw.max(1) as f64
            );
        }
        if let Some(rss) = r.peak_rss_bytes {
            let _ = write!(line, ", \"peak_rss_bytes\": {rss}");
        }
        if let Some(events) = r.trace_events {
            let _ = write!(line, ", \"trace_events\": {events}");
        }
        if let (Some(phase), Some(rounds)) = (&r.top_phase, r.top_phase_rounds) {
            let _ = write!(
                line,
                ", \"top_phase\": \"{}\", \"top_phase_rounds\": {rounds}",
                escape(phase)
            );
        }
        if let Some(s) = &r.serving {
            let _ = write!(
                line,
                ", \"clients\": {}, \"issued\": {}, \"served\": {}, \"shed\": {}, \
                 \"failed\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
                 \"qps\": {:.3}, \"shed_rate\": {:.4}, \"cache_hits\": {}, \
                 \"cache_admitted\": {}, \"cache_evicted\": {}, \"cache_bytes\": {}, \
                 \"verified\": {}, \"mismatches\": {}, \"batches\": {}, \"max_batch\": {}",
                s.clients,
                s.issued,
                s.served,
                s.shed,
                s.failed,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns,
                s.qps,
                s.shed_rate,
                s.cache_hits,
                s.cache_admitted,
                s.cache_evicted,
                s.cache_bytes,
                s.verified,
                s.mismatches,
                s.batches,
                s.max_batch
            );
            let _ = write!(
                line,
                ", \"retries\": {}, \"deadline_shed\": {}, \"breaker_rejected\": {}, \
                 \"breaker_opens\": {}, \"breaker_probes\": {}, \"quarantined\": {}, \
                 \"degraded_served\": {}",
                s.retries,
                s.deadline_shed,
                s.breaker_rejected,
                s.breaker_opens,
                s.breaker_probes,
                s.quarantined,
                s.degraded_served
            );
        }
        if let Some(t) = r.damage_threshold {
            let _ = write!(line, ", \"damage_threshold\": {t:.2}");
        }
        if let Some(d) = r.dirty_fraction {
            let _ = write!(line, ", \"dirty_fraction\": {d:.4}");
        }
        if let Some(u) = r.updates_applied {
            let _ = write!(line, ", \"updates_applied\": {u}");
        }
        let _ = writeln!(out, "{line}}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders plain perf records (the [`SCHEMA`] document).
pub fn render(scale: &str, records: &[BenchRecord]) -> String {
    render_with_schema(SCHEMA, scale, records)
}

/// Renders scenario reports as the [`SCHEMA_SCENARIOS`] document.
pub fn render_scenarios(scale: &str, reports: &[ScenarioReport]) -> String {
    let records: Vec<BenchRecord> = reports.iter().map(BenchRecord::from_scenario).collect();
    render_with_schema(SCHEMA_SCENARIOS, scale, &records)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_shape() {
        let records = vec![
            BenchRecord {
                bench: "a".into(),
                n: 10,
                wall_ns: 123,
                rounds: 7,
                ..BenchRecord::default()
            },
            BenchRecord {
                bench: "b\"x".into(),
                n: 20,
                wall_ns: 456,
                rounds: 0,
                ..BenchRecord::default()
            },
        ];
        let s = render("small", &records);
        assert!(s.contains("\"schema\": \"hybrid-bench/apsp-v5\""));
        assert!(s.contains("\"scale\": \"small\""));
        assert!(s.contains("{\"bench\": \"a\", \"n\": 10, \"wall_ns\": 123, \"rounds\": 7},"));
        assert!(s.contains("\"bench\": \"b\\\"x\""));
        assert!(!s.contains("},\n  ]"), "no trailing comma");
        assert!(!s.contains("scenario"), "plain records omit scenario fields");
        assert!(!s.contains("query"), "records without a query label omit the field");
        assert!(!s.contains("peak_rss"), "records without an RSS reading omit the field");
        assert!(!s.contains("qps"), "records without throughput fields omit them");
    }

    #[test]
    fn throughput_records_render_their_fields() {
        let r = BenchRecord {
            bench: "mixed32_session".into(),
            n: 400,
            wall_ns: 1000,
            rounds: 0,
            ..BenchRecord::default()
        }
        .with_throughput("e2-er", 32, 512.5)
        .with_ratio(3.75);
        let s = render_with_schema(SCHEMA_THROUGHPUT, "full", &[r]);
        assert!(s.contains("\"schema\": \"hybrid-bench/throughput-v1\""));
        assert!(s.contains("\"family\": \"e2-er\""));
        assert!(s.contains("\"batch\": 32"));
        assert!(s.contains("\"qps\": 512.500"));
        assert!(s.contains("\"amortized_vs_cold\": 3.750"));
    }

    #[test]
    fn chaos_records_render_overhead_ratios() {
        let r = BenchRecord {
            bench: "apsp".into(),
            n: 48,
            wall_ns: 3000,
            rounds: 90,
            scenario: Some("chaos-drop-p30-apsp".into()),
            verdict: Some("pass".into()),
            ..BenchRecord::default()
        }
        .with_healthy(60, 1000);
        let s = render_with_schema(SCHEMA_CHAOS, "small", &[r]);
        assert!(s.contains("\"schema\": \"hybrid-bench/chaos-v1\""));
        assert!(s.contains("\"healthy_rounds\": 60"));
        assert!(s.contains("\"healthy_wall_ns\": 1000"));
        assert!(s.contains("\"rounds_overhead\": 1.500"));
        assert!(s.contains("\"wall_overhead\": 3.000"));
    }

    #[test]
    fn churn_records_pin_their_schema_and_fields() {
        // The repair records: path as verdict, full/patch speedup as the
        // ratio, threshold and dirty fraction as churn-v1 fields.
        let patch = BenchRecord {
            bench: "churn-repair-patch".into(),
            n: 441,
            wall_ns: 1_000,
            rounds: 12,
            verdict: Some("patched".into()),
            family: Some("cycle".into()),
            damage_threshold: Some(0.75),
            dirty_fraction: Some(0.1034),
            ..BenchRecord::default()
        }
        .with_ratio(8.0);
        let mut serve = BenchRecord {
            bench: "churn-serve".into(),
            n: 48,
            wall_ns: 2_000,
            rounds: 99,
            ..BenchRecord::default()
        };
        serve.updates_applied = Some(7);
        let doc = render_with_schema(SCHEMA_CHURN, "small", &[patch, serve]);
        assert!(doc.contains("\"schema\": \"hybrid-bench/churn-v1\""));
        for field in [
            "\"bench\": \"churn-repair-patch\"",
            "\"n\": 441",
            "\"verdict\": \"patched\"",
            "\"family\": \"cycle\"",
            "\"amortized_vs_cold\": 8.000",
            "\"damage_threshold\": 0.75",
            "\"dirty_fraction\": 0.1034",
            "\"updates_applied\": 7",
        ] {
            assert!(doc.contains(field), "churn field {field} missing:\n{doc}");
        }
        // Records without the churn fields omit them entirely.
        let plain = BenchRecord {
            bench: "a".into(),
            n: 1,
            wall_ns: 1,
            rounds: 1,
            ..BenchRecord::default()
        };
        let doc = render_with_schema(SCHEMA_CHURN, "small", &[plain]);
        assert!(
            !doc.contains("damage_threshold")
                && !doc.contains("dirty_fraction")
                && !doc.contains("updates_applied"),
            "{doc}"
        );
    }

    #[test]
    fn serving_records_pin_v2_fields_and_preserve_v1_names() {
        let r = BenchRecord {
            bench: "serve-mixed".into(),
            n: 200,
            wall_ns: 5_000_000,
            rounds: 1234,
            ..BenchRecord::default()
        }
        .with_serving(ServingFields {
            clients: 6,
            issued: 120,
            served: 110,
            shed: 10,
            failed: 0,
            p50_ns: 1_000,
            p95_ns: 5_000,
            p99_ns: 9_000,
            qps: 220.5,
            shed_rate: 10.0 / 120.0,
            cache_hits: 100,
            cache_admitted: 4,
            cache_evicted: 2,
            cache_bytes: 65536,
            verified: 110,
            mismatches: 0,
            batches: 30,
            max_batch: 5,
            retries: 17,
            deadline_shed: 3,
            breaker_rejected: 2,
            breaker_opens: 1,
            breaker_probes: 1,
            quarantined: 1,
            degraded_served: 4,
        });
        let doc = render_with_schema(SCHEMA_SERVING, "full", &[r]);
        assert!(doc.contains("\"schema\": \"hybrid-bench/serving-v2\""));
        // Every serving-v1 field renders under its pinned, unchanged name,
        // and the v2 extension appends after them.
        for field in [
            "\"clients\": 6",
            "\"issued\": 120",
            "\"served\": 110",
            "\"shed\": 10",
            "\"failed\": 0",
            "\"p50_ns\": 1000",
            "\"p95_ns\": 5000",
            "\"p99_ns\": 9000",
            "\"qps\": 220.500",
            "\"shed_rate\": 0.0833",
            "\"cache_hits\": 100",
            "\"cache_admitted\": 4",
            "\"cache_evicted\": 2",
            "\"cache_bytes\": 65536",
            "\"verified\": 110",
            "\"mismatches\": 0",
            "\"batches\": 30",
            "\"max_batch\": 5",
            "\"retries\": 17",
            "\"deadline_shed\": 3",
            "\"breaker_rejected\": 2",
            "\"breaker_opens\": 1",
            "\"breaker_probes\": 1",
            "\"quarantined\": 1",
            "\"degraded_served\": 4",
        ] {
            assert!(doc.contains(field), "serving field {field} missing:\n{doc}");
        }
        let v1_prefix = doc.find("\"max_batch\"").expect("v1 tail");
        let v2_start = doc.find("\"retries\"").expect("v2 head");
        assert!(v2_start > v1_prefix, "v2 fields must append after the v1 block");
        // Records without the serving block omit every serving field.
        let plain = BenchRecord {
            bench: "a".into(),
            n: 1,
            wall_ns: 1,
            rounds: 1,
            ..BenchRecord::default()
        };
        let doc = render_with_schema(SCHEMA_SERVING, "small", &[plain]);
        assert!(!doc.contains("clients") && !doc.contains("shed_rate"), "{doc}");
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // Best-effort: when procfs exists the reading must be a sane
        // process-sized number (more than a page, less than a terabyte).
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 4096 && rss < (1u64 << 40), "rss = {rss}");
        }
    }

    #[test]
    fn measure_times_and_captures_rounds() {
        let r = BenchRecord::measure("x", 5, || 42);
        assert_eq!(r.bench, "x");
        assert_eq!(r.n, 5);
        assert_eq!(r.rounds, 42);
        assert!(r.scenario.is_none() && r.seed.is_none() && r.verdict.is_none());
        assert!(r.query.is_none());
        let r = r.with_query("apsp-thm11");
        assert_eq!(r.query.as_deref(), Some("apsp-thm11"));
        let min3 = BenchRecord::measure_min_of("y", 3, 3, || 9);
        assert_eq!((min3.rounds, min3.n), (9, 3));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\nb"), "a\\u000ab");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
    }

    #[test]
    fn scenario_records_carry_name_seed_verdict() {
        let sc = hybrid_scenarios::find("sparse-grid-thm11").unwrap();
        let report = hybrid_scenarios::run_scenario(sc, 36);
        let doc = render_scenarios("small", &[report]);
        assert!(doc.contains("\"schema\": \"hybrid-bench/scenarios-v2\""));
        assert!(doc.contains("\"scenario\": \"sparse-grid-thm11\""));
        assert!(doc.contains(&format!("\"seed\": {}", sc.seed)));
        assert!(doc.contains("\"verdict\": \"pass\""));
    }

    #[test]
    fn scenarios_v2_pins_v1_fields_and_adds_trace_summary() {
        let sc = hybrid_scenarios::find("sparse-grid-thm11").unwrap();
        let report = hybrid_scenarios::run_scenario(sc, 36);
        let doc = render_scenarios("small", std::slice::from_ref(&report));
        // Every v1 field renders under its unchanged name …
        for field in [
            "\"bench\"",
            "\"n\"",
            "\"wall_ns\"",
            "\"rounds\"",
            "\"scenario\"",
            "\"seed\"",
            "\"verdict\"",
        ] {
            assert!(doc.contains(field), "v1 field {field} missing from v2 document");
        }
        // … and the v2 trace summary is present and consistent with the run.
        assert!(report.trace_events > 0);
        assert!(doc.contains(&format!("\"trace_events\": {}", report.trace_events)));
        assert!(doc.contains(&format!("\"top_phase\": \"{}\"", report.top_phase)));
        assert!(doc.contains(&format!("\"top_phase_rounds\": {}", report.top_phase_rounds)));
        assert!(report.top_phase_rounds <= report.rounds);
    }
}

//! Result assembly: named metrics with units and sample counts, the host
//! block, the human-readable lines and the final one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::stats::Percentile;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Human-readable provenance: sample count, tail count, source.
    pub note: String,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric with a provenance note.
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.0.push(Metric { name: name.to_string(), unit, value, note: note.into() });
    }

    /// Adds a percentile metric, noting its sample and tail counts.
    pub fn add_pct(&mut self, name: &str, p: Percentile) {
        self.add(name, "ms", p.value, format!("samples={} beyond={}", p.samples, p.beyond));
    }
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit `{}` prints (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The host block every run records: cores, compiler, code identity and
/// the thread budgets the workload runs under.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or a content hash of the sources when the
    /// checkout is not a git repository.
    pub sha: String,
    /// `HYBRID_*_THREADS` budgets as set for this run.
    pub budgets: Vec<(String, String)>,
}

impl Host {
    /// Probes the host. Child processes are waited for.
    pub fn probe(budgets: &[(&str, usize)]) -> Host {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // Only a checkout's own `.git` counts: git would otherwise
            // report whatever repository encloses the directory.
            sha: Path::new(".git")
                .exists()
                .then(|| run("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| format!("tree-fnv:{:016x}", tree_hash(Path::new(".")))),
            budgets: budgets
                .iter()
                .map(|(k, _)| (k.to_string(), std::env::var(k).unwrap_or_default()))
                .collect(),
        }
    }

    /// One `host ...` line.
    pub fn line(&self) -> String {
        let budgets: Vec<String> = self.budgets.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "host nproc={} rustc={} sha={} budgets={}",
            self.nproc,
            json_str(&self.rustc),
            self.sha,
            budgets.join(",")
        )
    }

    /// The host block as a JSON object.
    pub fn json(&self) -> String {
        let budgets: Vec<String> =
            self.budgets.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"sha\": {}, \"budgets\": {{{}}}}}",
            self.nproc,
            json_str(&self.rustc),
            json_str(&self.sha),
            budgets.join(", ")
        )
    }
}

/// FNV-1a over the relative paths and contents of every file under the
/// source directories — a stand-in for the commit id outside git.
fn tree_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    for f in ["Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(data) = std::fs::read(&f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&data);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

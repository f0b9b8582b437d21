//! BENCH schema v2: one emission path for every bench artifact.
//!
//! Before PR 7 each `mosc-bench` binary hand-rolled its own JSONL and the
//! resulting `BENCH_*.json` files carried no provenance — two artifacts
//! from different machines or commits compared as if interchangeable.
//! Schema v2 routes every artifact through [`BenchLog`], which stamps a
//! `{"type":"bench_meta","schema":2,...}` header (bench name, git sha,
//! host, logical CPU count, and the options that shaped the run) ahead of
//! the records. `mosc-bench compare` refuses artifacts whose metadata is
//! missing, and the `M100` analyzer lint fails deny-mode CI on them.
//!
//! The stamps degrade gracefully: outside a git checkout the sha falls
//! back to the `MOSC_GIT_SHA` environment variable and then `"unknown"`,
//! so artifacts are still well-formed (compare warns about unknown shas
//! instead of refusing).

use mosc_obs::json_string;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Run provenance stamped into every schema-v2 artifact header.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Which bench produced the artifact (`"loadgen"`, `"serve"`, ...).
    pub bench: String,
    /// Abbreviated commit hash of the workspace, or `"unknown"`.
    pub git_sha: String,
    /// Hostname the run executed on, or `"unknown"`.
    pub host: String,
    /// Logical CPUs visible to the process.
    pub threads: usize,
    /// The knobs that shaped the run, as ordered key/value pairs.
    pub options: Vec<(String, String)>,
}

impl RunMeta {
    /// Captures the current environment for the named bench.
    #[must_use]
    pub fn capture(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            git_sha: git_sha(),
            host: hostname(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            options: Vec::new(),
        }
    }

    /// Records one run option (builder-style).
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // builder ergonomics: `.option("rate", 150)`
    pub fn option(mut self, key: &str, value: impl ToString) -> Self {
        self.options.push((key.to_string(), value.to_string()));
        self
    }

    /// The schema-v2 header line (no trailing newline).
    #[must_use]
    pub fn header(&self) -> String {
        let mut opts = String::new();
        for (i, (k, v)) in self.options.iter().enumerate() {
            if i > 0 {
                opts.push(',');
            }
            let _ = write!(opts, "{}:{}", json_string(k), json_string(v));
        }
        format!(
            "{{\"type\":\"bench_meta\",\"schema\":2,\"bench\":{},\
             \"git_sha\":{},\"host\":{},\"threads\":{},\"options\":{{{opts}}}}}",
            json_string(&self.bench),
            json_string(&self.git_sha),
            json_string(&self.host),
            self.threads
        )
    }
}

/// A schema-v2 JSONL artifact under construction: the meta header followed
/// by the records the caller pushes.
#[derive(Debug)]
pub struct BenchLog {
    lines: String,
}

impl BenchLog {
    /// Starts an artifact with the given provenance header.
    #[must_use]
    pub fn new(meta: &RunMeta) -> Self {
        let mut lines = meta.header();
        lines.push('\n');
        Self { lines }
    }

    /// Appends one record line (the caller supplies a full JSON object
    /// without the trailing newline).
    pub fn push(&mut self, line: &str) {
        self.lines.push_str(line);
        self.lines.push('\n');
    }

    /// Appends a pre-rendered block of JSONL (already newline-terminated),
    /// e.g. a drained timeline.
    pub fn push_block(&mut self, block: &str) {
        self.lines.push_str(block);
    }

    /// The accumulated artifact.
    #[must_use]
    pub fn render(&self) -> &str {
        &self.lines
    }

    /// Writes the artifact as `dir/name` (same reporting behavior as
    /// [`crate::write_csv`]: failures warn, never panic).
    pub fn write(&self, dir: &PathBuf, name: &str) {
        crate::write_csv(dir, name, &self.lines);
    }
}

/// The abbreviated commit hash: `git rev-parse`, then the `MOSC_GIT_SHA`
/// environment variable, then `"unknown"`.
fn git_sha() -> String {
    if let Ok(out) = Command::new("git").args(["rev-parse", "--short", "HEAD"]).output() {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    std::env::var("MOSC_GIT_SHA").ok().filter(|s| !s.is_empty()).unwrap_or_else(unknown)
}

/// The machine name: `HOSTNAME`, then the `hostname` utility, then
/// `"unknown"`.
fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return h;
        }
    }
    if let Ok(out) = Command::new("hostname").output() {
        if out.status.success() {
            let h = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !h.is_empty() {
                return h;
            }
        }
    }
    unknown()
}

fn unknown() -> String {
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_analyze::json::Value;

    /// Hostile strings: quote, backslash, the named control escapes, a
    /// bare control character and non-ASCII must all survive the header.
    const HOSTILE: &str = "ci-\"box\"\\\n\r\t\u{1}é";

    #[test]
    fn header_is_valid_schema_v2_json() {
        let meta = RunMeta {
            bench: "loadgen".into(),
            git_sha: "abc1234".into(),
            host: HOSTILE.into(),
            threads: 8,
            options: vec![
                ("rate".into(), "300".into()),
                ("seed".into(), "42".into()),
                (HOSTILE.into(), HOSTILE.into()),
            ],
        };
        let doc = Value::parse(&meta.header()).expect("header parses");
        assert_eq!(doc.get("type").and_then(Value::as_str), Some("bench_meta"));
        assert_eq!(doc.get("schema").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("loadgen"));
        assert_eq!(doc.get("git_sha").and_then(Value::as_str), Some("abc1234"));
        assert_eq!(doc.get("host").and_then(Value::as_str), Some(HOSTILE));
        assert_eq!(doc.get("threads").and_then(Value::as_f64), Some(8.0));
        let opts = doc.get("options").expect("options object");
        assert_eq!(opts.get("rate").and_then(Value::as_str), Some("300"));
        assert_eq!(opts.get("seed").and_then(Value::as_str), Some("42"));
        assert_eq!(opts.get(HOSTILE).and_then(Value::as_str), Some(HOSTILE));
    }

    #[test]
    fn capture_stamps_something_everywhere() {
        let meta = RunMeta::capture("micro").option("iters", 100);
        assert_eq!(meta.bench, "micro");
        assert!(!meta.git_sha.is_empty());
        assert!(!meta.host.is_empty());
        assert!(meta.threads >= 1);
        assert_eq!(meta.options, vec![("iters".to_string(), "100".to_string())]);
        // Whatever the environment provided, the header must stay parseable.
        assert!(Value::parse(&meta.header()).is_ok());
    }

    #[test]
    fn log_passes_the_bench_analyzer_lints() {
        let meta = RunMeta {
            bench: "serve".into(),
            git_sha: "abc1234".into(),
            host: "ci".into(),
            threads: 4,
            options: Vec::new(),
        };
        let mut log = BenchLog::new(&meta);
        log.push(
            "{\"type\":\"serve\",\"mode\":\"closed\",\"clients\":4,\"requests\":160,\
             \"wall_s\":0.1,\"req_per_s\":1600.0,\"p50_ms\":1.0,\"p99_ms\":2.0}",
        );
        let report = mosc_analyze::analyze_telemetry(log.render()).expect("parses");
        assert!(report.is_clean(), "findings:\n{report}");
    }
}

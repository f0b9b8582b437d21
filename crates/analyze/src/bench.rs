//! Lints over bench artifacts (`M100`-series): the `BENCH_*.json` JSONL
//! streams the `mosc-bench` binaries emit through the schema-v2 recorder.
//!
//! PR 7 made bench artifacts first-class: every emitting binary stamps one
//! `{"type":"bench_meta","schema":2,...}` header (git sha, host, thread
//! count, options) ahead of its records, the open-loop load generator
//! writes `{"type":"bench",...}` summaries plus `{"type":"timeline",...}`
//! windows, rate sweeps write `{"type":"sweep",...}` points, and artifacts
//! of the retired closed-loop harness (`{"type":"serve",...}`, labelled
//! `"mode":"closed"`) still lint. These lints replace the `grep -q '"p99_ms":'`-style
//! CI checks with structural ones:
//!
//! * `M100` — bench records with no schema-v2 meta header, a meta header
//!   missing its stamps, or a record missing the fields its type requires.
//! * `M101` — latency quantiles out of order (`p50 ≤ p90 ≤ p99 ≤ p999 ≤
//!   max` must hold; they are read off one histogram).
//! * `M102` — an empty measurement window: a summary with zero measured
//!   samples, or a timeline whose windows are all empty.
//! * `M103` — achieved-rate collapse: an open-loop summary achieving less
//!   than half its offered rate (the latency figures describe saturation).
//! * `M104` — sweep sanity: offered rates must strictly increase and the
//!   achieved rate must not collapse far below its running maximum.
//!
//! All lints are inert on streams without bench-family records, so access
//! logs and solver telemetry are unaffected.

use crate::diag::{Code, Report, Severity};
use crate::json::Value;
use crate::telemetry::StreamRecord;

/// Record types that make a stream a bench artifact (and so require the
/// schema-v2 meta header). `timeline` is deliberately absent: the serve
/// daemon's `--timeline` stream carries the same records as live
/// telemetry, with no bench run to stamp — timelines still get the
/// field, quantile and emptiness checks, just not the meta requirement.
const BENCH_TYPES: [&str; 5] = ["bench", "serve", "sweep", "periodmap", "batch"];

/// Open-loop achieved/offered ratio below which the offered rate was
/// unserious (`M103`).
const COLLAPSE_RATIO: f64 = 0.5;

/// Fields every schema-v2 `bench_meta` header must stamp.
const META_FIELDS: [&str; 4] = ["bench", "git_sha", "host", "threads"];

/// Required fields per bench record type.
fn required_fields(ty: &str) -> &'static [&'static str] {
    match ty {
        "bench" => &[
            "mode",
            "offered_req_per_s",
            "achieved_req_per_s",
            "count",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
        ],
        "serve" => &["mode", "clients", "requests", "req_per_s", "p50_ms", "p99_ms"],
        "timeline" => &["window", "start_s", "len_s", "count", "req_per_s", "p50_ms", "p999_ms"],
        "sweep" => &["offered_req_per_s", "achieved_req_per_s", "p99_ms"],
        "periodmap" => &["m", "fast_wall_s", "dense_wall_s", "fast_ops", "dense_ops"],
        "batch" => &["mode", "variants", "count", "p50_ms", "max_ms"],
        _ => &[],
    }
}

/// One parsed sweep point, in stream order.
struct SweepPoint {
    lineno: usize,
    offered: f64,
    achieved: f64,
}

/// Runs the `M100`–`M104` bench lints over pre-parsed stream records.
pub fn bench_lints(records: &[StreamRecord], report: &mut Report) {
    let mut saw_bench_record = false;
    let mut saw_meta = false;
    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut timeline_windows = 0usize;
    let mut timeline_nonempty = 0usize;
    let mut first_timeline_line = 0usize;

    for rec in records {
        let (value, lineno) = (&rec.value, rec.lineno);
        let Some(ty) = value.get("type").and_then(Value::as_str) else { continue };
        if ty == "bench_meta" {
            saw_meta = true;
            check_meta(value, lineno, report);
            continue;
        }
        let is_bench = BENCH_TYPES.contains(&ty);
        if !is_bench && ty != "timeline" {
            continue;
        }
        saw_bench_record |= is_bench;
        check_required(ty, value, lineno, report);
        check_quantile_order(ty, value, lineno, report);
        match ty {
            "bench" => {
                let count = field(value, "count").unwrap_or(f64::NAN);
                if count == 0.0 {
                    report.push(
                        Code::BenchWindowEmpty,
                        format!("line {lineno}"),
                        "bench summary measured zero samples — the measurement window \
                         is empty, its quantiles are meaningless",
                    );
                }
                check_rate_collapse(value, lineno, report);
            }
            "timeline" => {
                if timeline_windows == 0 {
                    first_timeline_line = lineno;
                }
                timeline_windows += 1;
                if field(value, "count").unwrap_or(0.0) > 0.0 {
                    timeline_nonempty += 1;
                }
            }
            "sweep" => {
                if let (Some(offered), Some(achieved)) =
                    (field(value, "offered_req_per_s"), field(value, "achieved_req_per_s"))
                {
                    sweep.push(SweepPoint { lineno, offered, achieved });
                }
            }
            _ => {}
        }
    }

    if saw_bench_record && !saw_meta {
        report.push(
            Code::BenchMetaMissing,
            "",
            "bench records with no schema-v2 bench_meta header — run metadata \
             (git sha, host, threads) is unrecoverable, the artifact cannot be \
             compared across runs",
        );
    }
    if timeline_windows > 0 && timeline_nonempty == 0 {
        report.push_with(
            Severity::Warning,
            Code::BenchWindowEmpty,
            format!("line {first_timeline_line}"),
            format!(
                "all {timeline_windows} timeline window(s) are empty — the run \
                 completed no requests inside the sampled span"
            ),
        );
    }
    check_sweep(&sweep, report);
}

/// Numeric field accessor.
fn field(value: &Value, key: &str) -> Option<f64> {
    value.get(key).and_then(Value::as_f64)
}

/// `M100` on the meta header itself: schema ≥ 2 and the stamps present.
fn check_meta(value: &Value, lineno: usize, report: &mut Report) {
    let schema = field(value, "schema").unwrap_or(0.0);
    if schema < 2.0 {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("bench_meta declares schema {schema}, expected 2 or newer"),
        );
    }
    let missing: Vec<&str> =
        META_FIELDS.iter().copied().filter(|f| value.get(f).is_none()).collect();
    if !missing.is_empty() {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("bench_meta is missing required stamp(s): {}", missing.join(", ")),
        );
    }
}

/// `M100` on a bench record: every field its type requires is present.
fn check_required(ty: &str, value: &Value, lineno: usize, report: &mut Report) {
    let missing: Vec<&str> =
        required_fields(ty).iter().copied().filter(|f| value.get(f).is_none()).collect();
    if !missing.is_empty() {
        report.push(
            Code::BenchMetaMissing,
            format!("line {lineno}"),
            format!("'{ty}' record is missing required field(s): {}", missing.join(", ")),
        );
    }
}

/// `M101`: the present members of `p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` hold.
fn check_quantile_order(ty: &str, value: &Value, lineno: usize, report: &mut Report) {
    let chain = ["p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"];
    let present: Vec<(&str, f64)> =
        chain.iter().filter_map(|&k| field(value, k).map(|v| (k, v))).collect();
    for pair in present.windows(2) {
        let ((lo_name, lo), (hi_name, hi)) = (pair[0], pair[1]);
        // One histogram produced these; only float formatting can separate
        // equal bucket bounds, so the tolerance is tiny and relative.
        if lo > hi * (1.0 + 1e-9) + 1e-12 {
            report.push(
                Code::BenchQuantileOrder,
                format!("line {lineno}"),
                format!(
                    "'{ty}' record reports {lo_name} = {lo} above {hi_name} = {hi} — \
                     quantiles of one histogram cannot decrease"
                ),
            );
        }
    }
}

/// `M103`: open-loop summaries achieving under half their offered rate.
fn check_rate_collapse(value: &Value, lineno: usize, report: &mut Report) {
    if value.get("mode").and_then(Value::as_str) != Some("open") {
        return;
    }
    let (Some(offered), Some(achieved)) =
        (field(value, "offered_req_per_s"), field(value, "achieved_req_per_s"))
    else {
        return;
    };
    if offered > 0.0 && achieved < COLLAPSE_RATIO * offered {
        report.push(
            Code::BenchRateCollapse,
            format!("line {lineno}"),
            format!(
                "open-loop run achieved {achieved:.1} req/s of {offered:.1} offered \
                 ({:.0}%) — the generator outran the server, latency quantiles \
                 describe saturation, not service",
                100.0 * achieved / offered
            ),
        );
    }
}

/// `M104`: offered rates strictly increase; achieved never collapses far
/// below its running maximum.
fn check_sweep(points: &[SweepPoint], report: &mut Report) {
    let mut best_achieved = f64::NEG_INFINITY;
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            let prev = &points[i - 1];
            if p.offered <= prev.offered {
                report.push(
                    Code::BenchSweepNonMonotone,
                    format!("line {}", p.lineno),
                    format!(
                        "sweep offered rate {:.1} does not increase past the previous \
                         point's {:.1} — the sweep schedule is out of order",
                        p.offered, prev.offered
                    ),
                );
            }
        }
        if p.achieved < COLLAPSE_RATIO * best_achieved {
            report.push(
                Code::BenchSweepNonMonotone,
                format!("line {}", p.lineno),
                format!(
                    "sweep point at {:.1} req/s offered achieved {:.1} req/s, under \
                     half the {best_achieved:.1} an earlier point sustained — the \
                     server collapsed mid-sweep instead of plateauing at capacity",
                    p.offered, p.achieved
                ),
            );
        }
        best_achieved = best_achieved.max(p.achieved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::analyze_telemetry;

    const META: &str = r#"{"type":"bench_meta","schema":2,"bench":"loadgen","git_sha":"abc1234","host":"ci","threads":8,"options":{"rate":"300"}}"#;

    fn bench_line(extra: &str) -> String {
        format!(
            "{{\"type\":\"bench\",\"mode\":\"open\",\"process\":\"poisson\",\
             \"offered_req_per_s\":300.0,\"achieved_req_per_s\":298.5,\"count\":597,\
             \"p50_ms\":1.0,\"p90_ms\":2.0,\"p99_ms\":3.0,\"p999_ms\":4.0,\
             \"max_ms\":5.0{extra}}}"
        )
    }

    #[test]
    fn healthy_v2_artifact_is_clean() {
        let text = format!(
            "{META}\n{}\n\
             {{\"type\":\"timeline\",\"window\":0,\"start_s\":0.0,\"len_s\":0.5,\
             \"count\":150,\"req_per_s\":300.0,\"hits\":140,\"cache_hit_rate\":0.93,\
             \"queue_depth_peak\":2,\"p50_ms\":1.0,\"p90_ms\":2.0,\"p99_ms\":3.0,\
             \"p999_ms\":4.0,\"max_ms\":5.0}}\n",
            bench_line("")
        );
        let r = analyze_telemetry(&text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }

    #[test]
    fn serve_daemon_timeline_stream_needs_no_meta() {
        // `mosc-cli serve --timeline` emits bare timeline records — live
        // telemetry, not a bench artifact; M100 must stay quiet.
        let text = "{\"type\":\"timeline\",\"window\":0,\"start_s\":0.0,\"len_s\":1.0,\
                    \"count\":12,\"req_per_s\":12.0,\"hits\":10,\"cache_hit_rate\":0.83,\
                    \"queue_depth_peak\":1,\"p50_ms\":1.0,\"p90_ms\":2.0,\"p99_ms\":3.0,\
                    \"p999_ms\":4.0,\"max_ms\":5.0}\n";
        let r = analyze_telemetry(text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }

    #[test]
    fn missing_meta_is_m100() {
        let r = analyze_telemetry(&format!("{}\n", bench_line(""))).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn stale_schema_and_missing_stamps_are_m100() {
        let stale =
            r#"{"type":"bench_meta","schema":1,"bench":"x","git_sha":"a","host":"h","threads":1}"#;
        let r = analyze_telemetry(&format!("{stale}\n{}\n", bench_line(""))).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");

        let gutted = r#"{"type":"bench_meta","schema":2,"bench":"x"}"#;
        let r = analyze_telemetry(&format!("{gutted}\n{}\n", bench_line(""))).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");
    }

    #[test]
    fn missing_required_fields_are_m100() {
        let gutted = r#"{"type":"serve","clients":8,"p50_ms":1.0}"#;
        let r = analyze_telemetry(&format!("{META}\n{gutted}\n")).unwrap();
        let m100: Vec<_> =
            r.diagnostics().iter().filter(|d| d.code == Code::BenchMetaMissing).collect();
        assert_eq!(m100.len(), 1, "findings:\n{r}");
        assert!(m100[0].message.contains("mode"), "{r}");
        assert!(m100[0].message.contains("p99_ms"), "{r}");
    }

    #[test]
    fn quantile_disorder_is_m101() {
        let bad = bench_line("").replace("\"p99_ms\":3.0", "\"p99_ms\":1.5");
        let r = analyze_telemetry(&format!("{META}\n{bad}\n")).unwrap();
        assert!(r.has_code(Code::BenchQuantileOrder), "findings:\n{r}");
        assert!(r.has_errors());

        // Equal quantiles (coarse buckets) are legal.
        let flat = bench_line("")
            .replace("\"p90_ms\":2.0", "\"p90_ms\":1.0")
            .replace("\"p99_ms\":3.0", "\"p99_ms\":1.0");
        let r = analyze_telemetry(&format!("{META}\n{flat}\n")).unwrap();
        assert!(!r.has_code(Code::BenchQuantileOrder), "findings:\n{r}");
    }

    #[test]
    fn empty_measurement_window_is_m102() {
        let empty = bench_line("").replace("\"count\":597", "\"count\":0");
        let r = analyze_telemetry(&format!("{META}\n{empty}\n")).unwrap();
        assert!(r.has_code(Code::BenchWindowEmpty), "findings:\n{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn all_empty_timeline_is_m102_warning() {
        let window = r#"{"type":"timeline","window":0,"start_s":0.0,"len_s":0.5,"count":0,"req_per_s":0.0,"hits":0,"cache_hit_rate":0.0,"queue_depth_peak":0,"p50_ms":0.0,"p90_ms":0.0,"p99_ms":0.0,"p999_ms":0.0,"max_ms":0.0}"#;
        let r = analyze_telemetry(&format!("{META}\n{window}\n{window}\n")).unwrap();
        assert!(r.has_code(Code::BenchWindowEmpty), "findings:\n{r}");
        assert!(!r.has_errors(), "all-empty timeline is a warning:\n{r}");
    }

    #[test]
    fn achieved_rate_collapse_is_m103() {
        let collapsed =
            bench_line("").replace("\"achieved_req_per_s\":298.5", "\"achieved_req_per_s\":100.0");
        let r = analyze_telemetry(&format!("{META}\n{collapsed}\n")).unwrap();
        assert!(r.has_code(Code::BenchRateCollapse), "findings:\n{r}");
        assert!(!r.has_errors(), "M103 is a warning:\n{r}");

        // A closed-loop record has no offered rate to collapse from.
        let closed = r#"{"type":"serve","mode":"closed","clients":8,"requests":320,"req_per_s":40000.0,"p50_ms":1.0,"p99_ms":3.0}"#;
        let r = analyze_telemetry(&format!("{META}\n{closed}\n")).unwrap();
        assert!(!r.has_code(Code::BenchRateCollapse), "findings:\n{r}");
    }

    #[test]
    fn sweep_sanity_is_m104() {
        let point = |offered: f64, achieved: f64| {
            format!(
                "{{\"type\":\"sweep\",\"offered_req_per_s\":{offered:?},\
                 \"achieved_req_per_s\":{achieved:?},\"p99_ms\":2.0}}"
            )
        };
        // A healthy sweep plateaus at capacity past the knee.
        let good = format!(
            "{META}\n{}\n{}\n{}\n{}\n",
            point(100.0, 99.0),
            point(200.0, 198.0),
            point(400.0, 310.0),
            point(800.0, 305.0)
        );
        let r = analyze_telemetry(&good).unwrap();
        assert!(!r.has_code(Code::BenchSweepNonMonotone), "findings:\n{r}");

        // Offered rates out of order.
        let unordered = format!("{META}\n{}\n{}\n", point(200.0, 198.0), point(100.0, 99.0));
        let r = analyze_telemetry(&unordered).unwrap();
        assert!(r.has_code(Code::BenchSweepNonMonotone), "findings:\n{r}");
        assert!(!r.has_errors(), "M104 is a warning:\n{r}");

        // Achieved collapse far below the running maximum.
        let collapsed = format!(
            "{META}\n{}\n{}\n{}\n",
            point(100.0, 99.0),
            point(200.0, 198.0),
            point(400.0, 50.0)
        );
        let r = analyze_telemetry(&collapsed).unwrap();
        assert!(r.has_code(Code::BenchSweepNonMonotone), "findings:\n{r}");
    }

    #[test]
    fn batch_records_are_first_class_bench_records() {
        let batch = r#"{"type":"batch","mode":"batch_warm","variants":6,"count":48,"wall_s":0.01,"p50_ms":0.2,"p90_ms":0.3,"p99_ms":0.4,"max_ms":0.5,"speedup_x":12.5}"#;
        let r = analyze_telemetry(&format!("{META}\n{batch}\n")).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");

        // No meta header: a bare batch record is a bench artifact too.
        let r = analyze_telemetry(&format!("{batch}\n")).unwrap();
        assert!(r.has_code(Code::BenchMetaMissing), "findings:\n{r}");

        // Missing its typed fields.
        let gutted = r#"{"type":"batch","mode":"batch_warm","p50_ms":0.2}"#;
        let r = analyze_telemetry(&format!("{META}\n{gutted}\n")).unwrap();
        let m100: Vec<_> =
            r.diagnostics().iter().filter(|d| d.code == Code::BenchMetaMissing).collect();
        assert_eq!(m100.len(), 1, "findings:\n{r}");
        assert!(m100[0].message.contains("variants"), "{r}");
    }

    #[test]
    fn non_bench_streams_are_unaffected() {
        let text = r#"{"type":"counter","name":"expm.calls","value":123}
{"type":"profile","solver":"AO","wall_s":0.1}
"#;
        let r = analyze_telemetry(text).unwrap();
        assert!(r.is_clean(), "findings:\n{r}");
    }
}

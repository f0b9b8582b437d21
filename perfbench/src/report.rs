//! The metric catalogue and the result a run prints.
//!
//! Every workload reports every end-to-end metric (untraced runs) and
//! every per-layer metric (traced runs). A per-layer metric of a layer the
//! workload does not exercise reads 0: no work was done there.

/// End-to-end metrics, gated by `BENCHMARK.json`: `(name, unit)`. What
/// each means per workload is in the README.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_op.low", "ms"),
    ("cpu_ms_per_op.high", "ms"),
    ("quality_vs_lns", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end wall-clock figures, printed with every untraced run but left
/// out of the JSON result: on a 2-vCPU host shared with other tenants one
/// run in four or five can read 1.5–3× slower, a spread wider than the
/// largest bound a gated metric may have. CPU time per operation, which
/// time stolen by the host does not inflate, is gated in their place.
pub const PRINTED: &[(&str, &str)] = &[
    ("lat_ms.p50.low", "ms"),
    ("lat_ms.p90.low", "ms"),
    ("lat_ms.p50.high", "ms"),
    ("lat_ms.p90.high", "ms"),
    ("max_rate_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const LAYER: &[(&str, &str)] = &[
    ("linalg.expm_calls", "count"),
    ("linalg.eigen_calls", "count"),
    ("linalg.matmuls", "count"),
    ("sched.build_ms.p50", "ms"),
    ("sched.steady_state_calls", "count"),
    ("sched.period_map_matmuls", "count"),
    ("sched.peak_evals", "count"),
    ("sched.peak_exact_share", "ratio"),
    ("core.tpt_ms", "ms"),
    ("core.tpt_share", "ratio"),
    ("core.tpt_rounds", "count"),
    ("core.sweep_m_ms", "ms"),
    ("core.m_candidates", "count"),
    ("core.phase_search_ms", "ms"),
    ("core.refill_ms", "ms"),
    ("core.phases_tried", "count"),
    ("core.cpu_over_wall", "ratio"),
    ("core.registry_hit_ratio", "ratio"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.pre_queue_ms.p50", "ms"),
    ("serve.outside_ms.p50", "ms"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("client.send_lag_ms.p99", "ms"),
    ("client.achieved_rps", "1/s"),
    ("obs.trace_overhead_x", "ratio"),
];

/// Metric values by name, in the order they were set.
#[derive(Debug, Default)]
pub struct Layer(Vec<(&'static str, f64)>);

impl Layer {
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        self.0.retain(|(n, _)| n != name);
        // `+ 0.0` turns a -0 from an empty sum into 0.
        self.0.push((name, value + 0.0));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations without a correct answer: errors, refusals, panics,
    /// unanswered requests and wrong answers.
    pub failed: u64,
    /// Operations whose answer was wrong (a subset of `failed`).
    pub wrong: u64,
    e2e: Vec<(&'static str, f64)>,
    pub layer: Layer,
    notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        let (name, _) = E2E
            .iter()
            .chain(PRINTED)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.e2e.push((name, value));
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes, every metric as `name value unit`, and last the
    /// one-line JSON result: the end-to-end metrics for an untraced run,
    /// the per-layer metrics for a traced one.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("# {n}");
        }
        let mut json = Vec::new();
        if trace {
            for (name, unit) in LAYER {
                let v = self.layer.get(name);
                let shown =
                    v.map_or_else(|| "0 (layer not exercised)".to_owned(), |v| v.to_string());
                println!("{name} {shown} {unit}");
                json.push(metric_json(name, v.unwrap_or(0.0), unit));
            }
        } else {
            for (name, unit) in E2E.iter().chain(PRINTED) {
                let v = self.e2e.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                let v = v.unwrap_or_else(|| panic!("workload did not report {name}"));
                println!("{name} {v} {unit}");
                if E2E.iter().any(|(n, _)| n == name) {
                    json.push(metric_json(name, v, unit));
                }
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a value that is not finite is reported
    // as -1, which no metric can take.
    let value = if value.is_finite() { value } else { -1.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

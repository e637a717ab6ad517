//! Metric names, units and the two output forms: a table for people
//! and, as the last line of standard output, one JSON object for the
//! driver.
//!
//! The lists here and in `../BENCHMARK.json` must agree; a unit test
//! checks that they do.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// `(name, unit)` of every per-layer metric that every workload
/// measures, printed with `--trace 1`. Layer names are crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_s", "s"),
    ("lang.analyze_s", "s"),
    ("pattern.classify_s", "s"),
    ("pattern.fast_share", "ratio"),
    ("graph.lower_s", "s"),
    ("graph.nodes", "count"),
    ("inductor.build_plan_s", "s"),
    ("inductor.codegen_s", "s"),
    ("inductor.triton_lines", "count"),
    ("inductor.autotune_s", "s"),
    ("inductor.autotune_configs", "count"),
    ("inductor.cache_hits", "count"),
    ("inductor.cache_misses", "count"),
    ("inductor.run_overhead_s", "s"),
    ("gpu.program_compile_s", "s"),
    ("gpu.launch_execute_s", "s"),
    ("gpu.launch_analytic_s", "s"),
    ("gpu.launch_sharded_s", "s"),
    ("gpu.instances", "count"),
    ("gpu.instances_per_s", "1/s"),
    ("gpu.instructions", "count"),
    ("gpu.dram_sectors", "count"),
    ("gpu.atomics", "count"),
    ("gpu.atomic_conflicts", "count"),
    ("gpu.cost_units", "count"),
    ("gpu.sim_time_s", "sim_s"),
    ("core.compile_default_s", "s"),
    ("core.compile_tuned_s", "s"),
    ("core.run_s", "s"),
    ("core.time_s", "s"),
    ("core.run_batch8_s", "s"),
    ("core.dispatch_overhead_s", "s"),
    ("core.compile_coverage_share", "ratio"),
    ("core.run_coverage_share", "ratio"),
    ("serve.engine_start_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.registry_hit_share", "ratio"),
    ("serve.retried", "count"),
    ("serve.overhead_s", "s"),
    ("serve.shutdown_s", "s"),
    ("tensor.fingerprint_s", "s"),
    ("tensor.fingerprint_bytes_per_s", "bytes/s"),
    ("tensor.deep_copies", "count"),
    ("formats.build_s", "s"),
    ("formats.heuristic_s", "s"),
    ("formats.indirect_accesses", "count"),
    ("formats.padding_share", "ratio"),
    ("kernel.fingerprint_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.warm_compile_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer metrics whose value is an exact count of the program's own
/// work: with the same seed they must repeat exactly from run to run,
/// and a change meant only to speed up the host must leave them as they
/// are. `run.sh --repeat` asserts the first, a reviewer the second.
pub const EXACT: &[&str] = &[
    "pattern.fast_share",
    "graph.nodes",
    "inductor.triton_lines",
    "inductor.autotune_configs",
    "inductor.cache_hits",
    "inductor.cache_misses",
    "gpu.instances",
    "gpu.instructions",
    "gpu.dram_sectors",
    "gpu.atomics",
    "gpu.atomic_conflicts",
    "gpu.cost_units",
    "gpu.sim_time_s",
    "tensor.deep_copies",
    "formats.indirect_accesses",
    "formats.padding_share",
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    /// Samples the value summarises (1 for a count read once).
    pub n: usize,
    pub note: String,
}

#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<String, Value>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &str, value: f64, n: usize, note: impl Into<String>) {
        let v = Value {
            value,
            unit: unit.to_string(),
            n,
            note: note.into(),
        };
        assert!(
            self.values.insert(name.to_string(), v).is_none(),
            "metric {name} reported twice"
        );
    }

    /// The unit `declared` gives `name`, for metrics of the fixed lists.
    pub fn put_declared(
        &mut self,
        declared: &[(&str, &str)],
        name: &str,
        value: f64,
        n: usize,
        note: impl Into<String>,
    ) {
        let unit = declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1;
        self.put(name, unit, value, n, note);
    }

    /// The table for people: every metric by name, with its unit and
    /// sample count. Metrics outside `declared` are this workload's
    /// extras.
    pub fn print_table(&self, title: &str, declared: &[(&str, &str)]) {
        println!("== {title} ==");
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        let row = |name: &str, v: &Value| {
            println!(
                "  {name:<width$}  {:>16}  {:<8} n={:<7} {}",
                format_value(v.value),
                v.unit,
                v.n,
                v.note
            );
        };
        for (name, _) in declared {
            row(name, &self.values[*name]);
        }
        let extras: Vec<_> = self
            .values
            .iter()
            .filter(|(name, _)| !declared.iter().any(|(d, _)| d == name))
            .collect();
        if !extras.is_empty() {
            println!("  -- this workload only --");
            for (name, v) in extras {
                row(name, v);
            }
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over exactly `declared`.
    pub fn json_object(&self, declared: &[(&str, &str)]) -> String {
        let fields: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(*name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(v.unit, *unit, "unit of {name}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v.value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Every metric, extras included, with sample counts — the file kept
    /// beside the trace.
    pub fn json_full(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                format!(
                    "  \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                    json_number(v.value),
                    v.unit,
                    v.n
                )
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// A measured number with all its digits (Rust prints the shortest
/// string that reads back as the same `f64`).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() >= 1e-3 {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_telemetry::json;

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(json::Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .expect("string field")
                };
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        assert_eq!(declared_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn exact_metrics_are_declared() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", "ms", 1.2034, 10, "");
        let line = result_line(true, 1000, 0, &m.json_object(&[("latency_ms", "ms")]));
        let doc = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = doc.get("metrics").and_then(|m| m.get("latency_ms"));
        assert_eq!(
            v.and_then(|v| v.get("value")).and_then(json::Value::as_f64),
            Some(1.2034)
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3");
    }
}

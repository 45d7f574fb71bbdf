//! The metric table and the record a run prints.
//!
//! Every metric has one row here (name, unit, direction). A run with
//! tracing off reports every end-to-end metric; a traced run reports
//! every per-layer metric. `BENCHMARK.json` at the repository root lists
//! the same names and units; the benchmark's own tests hold the two
//! together.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One metric row: `(name, unit)`. Directions and bounds live in
/// `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("solve_ms", "ms"),
    ("solve_seq_ms", "ms"),
    ("peak_heap_mib", "MiB"),
    ("num_colors", "count"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("batch_ms", "ms"),
    ("batch_tail_ms", "ms"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    ("assign.ms", "ms"),
    ("candidates.index_ms", "ms"),
    ("packed.pack_ms", "ms"),
    ("conflict.scan_ms", "ms"),
    ("graph.csr_ms", "ms"),
    ("listcolor.color_ms", "ms"),
    ("solver.other_ms", "ms"),
    ("solver.traced_ms", "ms"),
    ("conflict.build_par_ms", "ms"),
    ("graph.csr_par_ms", "ms"),
    ("conflict.scan_par_ms_derived", "ms"),
    ("solver.iterations", "count"),
    ("candidates.pairs", "count"),
    ("conflict.edges", "count"),
    ("conflict.edge_yield", "ratio"),
    ("packed.skip_ratio", "ratio"),
    ("packed.iterations_packed", "count"),
    ("listcolor.conflicted_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("shape.second_seed_match", "ratio"),
    ("service.admission_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.solve_ms", "ms"),
    ("service.overhead_share", "ratio"),
];

/// Checked operations that passed ÷ attempted (1 − the failed fraction;
/// reported this way round so the metric is never 0 on a clean run).
const OK_FRAC: &str = "ok_frac";

/// Failures kept verbatim in a record (the count is always exact).
const FAILURES_KEPT: usize = 20;

/// What one run measured and checked.
pub struct Record {
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    details: BTreeMap<String, Value>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Record {
    /// An empty record for a traced (`trace`) or untraced run.
    pub fn new(trace: bool) -> Record {
        Record {
            trace,
            metrics: BTreeMap::new(),
            details: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// The metric table this run reports.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a metric; the name must be in this run's table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table().iter().any(|d| d.0 == name),
            "{name} is not a metric of this run"
        );
        self.metrics.insert(name, value);
    }

    /// Records supporting detail (sample counts, percentiles, spreads).
    pub fn detail(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.details.insert(key.into(), value.into());
    }

    /// Counts one checked operation; `ok == false` is a failure,
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(what());
            }
        }
    }

    /// Checked operations and failures so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Whether every operation checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Closes the record: a metric the run did not measure is a
    /// failure, and `ok_frac` (untraced runs) is set from the final
    /// counts.
    pub fn finish(&mut self) {
        let missing: Vec<&'static str> = self
            .table()
            .iter()
            .map(|d| d.0)
            .filter(|&n| n != OK_FRAC && !self.metrics.contains_key(n))
            .collect();
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.detail("failed_frac", failed_frac);
        if !self.trace {
            self.set(OK_FRAC, 1.0 - failed_frac);
        }
    }

    /// The full record: provenance, metrics with units, details, and
    /// the failures kept.
    pub fn full(&self, head: Value) -> Value {
        let mut out = match head {
            Value::Object(map) => map,
            _ => BTreeMap::new(),
        };
        out.insert("metrics".into(), self.metric_map());
        out.insert(
            "details".into(),
            Value::Object(self.details.clone().into_iter().collect()),
        );
        out.insert(
            "failures".into(),
            Value::Array(
                self.failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect(),
            ),
        );
        out.insert("attempted".into(), Value::from(self.attempted));
        out.insert("failed".into(), Value::from(self.failed));
        Value::Object(out)
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn envelope(&self) -> Value {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metric_map(),
        })
    }

    /// Human-readable lines, one per metric.
    pub fn table_lines(&self) -> Vec<String> {
        self.table()
            .iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(v) => format!("  {name:<30} {v:>14.4} {unit}"),
                None => format!("  {name:<30} {:>14} {unit}", "-"),
            })
            .collect()
    }

    fn metric_map(&self) -> Value {
        let mut map = BTreeMap::new();
        for &(name, unit) in self.table() {
            if let Some(&v) = self.metrics.get(name) {
                map.insert(name.to_string(), json!({"value": v, "unit": unit}));
            }
        }
        Value::Object(map)
    }
}

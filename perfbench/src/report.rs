//! Result collection and the output contract: a table for people, then
//! one JSON line for tools.

use serde_json::Value;

/// Failed operations listed by name; the rest are counted.
const MAX_LISTED: usize = 100;

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 2] = ["setup_s", "latency_ms"];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 40] = [
    "serve.http.parse_us",
    "serve.request.self_us",
    "serve.cache.hit_ratio",
    "online.feedback.accepted",
    "online.reservoir.inserted",
    "serve.boot_s",
    "loadgen.late_share",
    "matrix.mm.parse_us",
    "matrix.mm.parse_mb_s",
    "matrix.coo.to_csr_us",
    "matrix.row_stats_us",
    "features.extract_us",
    "core.model_us",
    "core.render_us",
    "ml.train_s",
    "exec.prep_ns_per_nnz.COO",
    "exec.prep_ns_per_nnz.ELL",
    "exec.prep_ns_per_nnz.CSR",
    "exec.prep_ns_per_nnz.HYB",
    "exec.prep_ns_per_nnz.merge-CSR",
    "exec.prep_ns_per_nnz.CSR5",
    "exec.gflops.COO",
    "exec.gflops.ELL",
    "exec.gflops.CSR",
    "exec.gflops.HYB",
    "exec.gflops.merge-CSR",
    "exec.gflops.CSR5",
    "exec.csr_gb_s",
    "advice.speedup_vs_csr",
    "advice.oracle_share",
    "advice.oracle_match_ratio",
    "advice.overhead_share",
    "advice.prep_fallbacks",
    "corpus.gen_ns_per_nnz",
    "matrix.structure.build_ns_per_nnz",
    "gpusim.profile_ns_per_nnz",
    "gpusim.profile_cache.hit_ratio",
    "labels.cells_measured",
    "labels.failures",
    "observe.trace_overhead",
];

/// One reported metric with the number of samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Names of failed operations.
    pub failures: Vec<String>,
    /// Reasons the whole run is invalid (generator fell behind, repo
    /// files changed); an invalid run is not `correct`.
    pub invalid: Vec<String>,
    /// Every figure measured. Those the mode's list names go into the
    /// result line; the rest are printed in the table only.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record one failed operation (it must also have been attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn invalid(&mut self, why: &str) {
        self.invalid.push(why.to_string());
    }

    /// Record a figure. The first figure recorded under a name wins, so a
    /// workload records what its own run measured before it runs the
    /// probes that fill in the layers it does not exercise.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        if self.metrics.iter().any(|m| m.name == name) {
            return;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Print the table and failures, then the JSON result as the last
    /// stdout line. Fails, printing no result, when a metric of the
    /// mode's list was not measured or is not a finite number.
    pub fn print(&self, workload: &str, trace: bool) -> Result<(), String> {
        let (mode, names): (_, &[&str]) = if trace {
            ("per-layer (traced)", &PER_LAYER)
        } else {
            ("end-to-end", &END_TO_END)
        };
        println!("perfbench {workload}: {mode} metrics");
        println!("  {:<36} {:>16} {:<8} samples", "metric", "value", "unit");
        for m in &self.metrics {
            let note = if names.contains(&m.name.as_str()) {
                ""
            } else {
                " (table only)"
            };
            println!(
                "  {:<36} {:>16.6} {:<8} {}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<36} {:>16.6} {:<8} {}",
            "error_rate", error_rate, "ratio", self.attempted
        );
        for f in self.failures.iter().take(MAX_LISTED) {
            println!("  FAILED: {f}");
        }
        if self.failures.len() > MAX_LISTED {
            println!(
                "  ... and {} more failed operations",
                self.failures.len() - MAX_LISTED
            );
        }
        for why in &self.invalid {
            println!("  INVALID RUN: {why}");
        }
        let mut metrics = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {}", m.value));
            }
            let entry = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            metrics.push((m.name.clone(), Value::Map(entry)));
        }
        let result = Value::Map(vec![
            (
                "correct".into(),
                Value::Bool(self.failed == 0 && self.invalid.is_empty()),
            ),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        let line =
            serde_json::to_string(&result).map_err(|e| format!("rendering the result: {e}"))?;
        println!("{line}");
        Ok(())
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` at `q` in [0, 1].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

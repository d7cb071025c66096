//! Metric names, the result record every workload returns, and the output
//! format: a human-readable report followed by one JSON line.
//!
//! The JSON line carries the gated metrics: with tracing off, the
//! end-to-end metrics [`E2E`]; with tracing on, every per-layer metric of
//! [`per_layer_names`]. Every workload emits the full set, reporting zero
//! for a layer it bypasses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;
use crate::trace::{Layer, Trace};

/// Benchmarks with per-benchmark epoch and evaluation metrics, in registry
/// order.
pub const CODES: [&str; 24] = [
    "DC-AI-C1",
    "DC-AI-C2",
    "DC-AI-C3",
    "DC-AI-C4",
    "DC-AI-C5",
    "DC-AI-C6",
    "DC-AI-C7",
    "DC-AI-C8",
    "DC-AI-C9",
    "DC-AI-C10",
    "DC-AI-C11",
    "DC-AI-C12",
    "DC-AI-C13",
    "DC-AI-C14",
    "DC-AI-C15",
    "DC-AI-C16",
    "DC-AI-C17",
    "MLPerf-IC",
    "MLPerf-OD-Heavy",
    "MLPerf-OD-Light",
    "MLPerf-Trans-Rec",
    "MLPerf-Trans-NonRec",
    "MLPerf-Rec",
    "MLPerf-RL",
];

/// The RPR subset (§5.4): the three benchmarks that preserve the suite's
/// ranking.
pub const RPR: [&str; 3] = ["DC-AI-C1", "DC-AI-C9", "DC-AI-C16"];

/// Benchmarks whose epochs are also split into `forward_backward` and
/// `apply_update` through the data-parallel hooks.
pub const DP_CODES: [&str; 3] = ["DC-AI-C1", "MLPerf-IC", "DC-AI-C15"];

/// End-to-end metrics: name and unit. `work_s` is wall seconds per unit
/// of the workload's work (see `METRICS.md`).
pub const E2E: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_s", "s")];

/// Every per-layer metric: name and unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for code in CODES {
        out.push((format!("models.epoch_ms.{code}"), "ms"));
    }
    for code in CODES {
        out.push((format!("models.eval_ms.{code}"), "ms"));
    }
    for code in DP_CODES {
        out.push((format!("models.fwd_bwd_ms.{code}"), "ms"));
    }
    for code in DP_CODES {
        out.push((format!("nn.optimizer_ms.{code}"), "ms"));
    }
    let fixed: [(&str, &'static str); 41] = [
        ("tensor.matmul_gflops", "GFLOP/s"),
        ("tensor.batch_matmul_gflops", "GFLOP/s"),
        ("tensor.conv2d_gflops", "GFLOP/s"),
        ("tensor.conv2d_bwd_weight_gflops", "GFLOP/s"),
        ("parallel.epoch_speedup", "ratio"),
        ("core.build_ms", "ms"),
        ("core.restore_ms", "ms"),
        ("serve.submit_us", "us"),
        ("serve.step_ms.p50", "ms"),
        ("serve.step_ms.p99", "ms"),
        ("serve.ticks", "count"),
        ("serve.queue_ms.p50", "ms"),
        ("serve.queue_ms.p99", "ms"),
        ("serve.run_ms.p50", "ms"),
        ("serve.run_ms.p99", "ms"),
        ("serve.parked_ms", "ms"),
        ("serve.parks", "count"),
        ("serve.sheds", "count"),
        ("fault.epoch_yield", "ratio"),
        ("fault.recoveries", "count"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.bytes_per_session", "bytes"),
        ("ckpt.save_us.p50", "us"),
        ("ckpt.load_us.p50", "us"),
        ("ckpt.saves", "count"),
        ("ckpt.loads", "count"),
        ("ckpt.bytes_per_save", "bytes"),
        ("dist.fwd_bwd_ms", "ms"),
        ("dist.optimizer_ms", "ms"),
        ("dist.engine_self_ms", "ms"),
        ("dist.reshards", "count"),
        ("dist.logical_time", "count"),
        ("dist.allreduce_bytes", "bytes"),
        ("dist.w4_over_w1", "ratio"),
        ("gen.late_ms.p99", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.residue_ms", "ms"),
        ("trace.traced_ms", "ms"),
        ("trace.untraced_ms", "ms"),
        ("trace.spans", "count"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for layer in Layer::ALL {
        out.push((format!("self_ms.{}", layer.name()), "ms"));
    }
    out
}

/// One reported number: name, unit, value, the samples it summarizes, and
/// their interquartile spread as a share of the median (when defined).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Interquartile distance over median of those samples.
    pub spread: Option<f64>,
}

impl Metric {
    /// The median of `samples`, with count and spread.
    pub fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(samples),
            n: samples.len(),
            spread: stats::iqr_share(samples),
        }
    }

    /// A single value (one sample, no spread).
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            spread: None,
        }
    }
}

/// Operations of one workload phase: sent, succeeded, failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Phase (or the whole workload).
    pub phase: String,
    /// Operations attempted.
    pub sent: u64,
    /// Operations that completed and passed their output check.
    pub ok: u64,
    /// Operations that failed, were refused (shed), or produced a wrong
    /// result.
    pub failed: u64,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Output-check failures (any entry makes the run incorrect).
    pub errors: Vec<String>,
    /// Operation accounting, per phase.
    pub accounting: Vec<Accounting>,
    /// The workload's named end-to-end metrics (report only).
    pub named: Vec<Metric>,
    /// The `work_s` metric.
    pub work: Option<Metric>,
    /// Per-layer metrics measured by a traced run (absent names report 0).
    pub layers: BTreeMap<String, f64>,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<Trace>,
}

impl RunOutput {
    /// Operations attempted over all phases.
    pub fn attempted(&self) -> u64 {
        self.accounting.iter().map(|a| a.sent).sum()
    }

    /// Operations failed over all phases.
    pub fn failed(&self) -> u64 {
        self.accounting.iter().map(|a| a.failed).sum()
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Records a traced run: per-layer self time, span count, the work
    /// metric untraced and traced (their difference is the tracing
    /// overhead), and the traced time no span covers; keeps the trace for
    /// writing out.
    pub fn record_trace(
        &mut self,
        trace: Trace,
        untraced_ms: f64,
        traced_ms: f64,
        residue_ms: f64,
    ) {
        self.layer("trace.untraced_ms", untraced_ms);
        self.layer("trace.traced_ms", traced_ms);
        self.layer("trace.overhead_ms", traced_ms - untraced_ms);
        self.layer("trace.residue_ms", residue_ms);
        self.layer("trace.spans", trace.spans.len() as f64);
        for (layer, ms) in trace.self_ms() {
            self.layer(format!("self_ms.{}", layer.name()), ms);
        }
        self.trace = Some(trace);
    }
}

/// Formats a number for JSON: every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become `0`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final JSON line.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// One report line for a metric.
pub fn describe(m: &Metric) -> String {
    let spread = m
        .spread
        .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
    format!(
        "  {:<28} {:>14.6} {:<8} n={:<5} iqr/median={}",
        m.name, m.value, m.unit, m.n, spread
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(names.len() <= 128);
    }

    #[test]
    fn json_line_has_the_four_top_level_keys() {
        let line = json_line(true, 3, 0, &[("setup_s".into(), "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

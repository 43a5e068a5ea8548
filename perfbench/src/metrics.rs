//! The metric catalogue and the report every run prints.
//!
//! Both lists must match `BENCHMARK.json` name for name and unit for
//! unit (the `catalogue` test checks it). Every run emits every metric of
//! its mode on every workload: a per-layer metric of a layer the workload
//! does not exercise reads 0 (the simulator does no work in a training
//! step, and no quantizer runs in a daemon sweep).

use cq_obs::json_escape;
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. An "op" is one train
/// step (on `train_seq_int8`: four rounds of one Transformer step plus
/// one LSTM step) or one sweep request, timed from send to its `done`
/// frame. Throughput and latency are scaled to the reference host speed
/// (`stats::run_stats`); the wall-clock figures are in the notes.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_ref_s", "1/ref_s"),
    ("op_ref_ms_p50", "ref_ms"),
    ("op_ref_ms_p90", "ref_ms"),
];

/// Per-layer metrics, from the traced run. "Per step" means per op.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("ops_traced", "count"),
    ("failed_share", "ratio"),
    ("train_loss_end", "nats"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("nn.phase_coverage", "ratio"),
    ("nn.layer.conv1.fw_ms", "ms"),
    ("nn.layer.conv1.bw_ms", "ms"),
    ("nn.layer.fc.fw_ms", "ms"),
    ("nn.layer.fc.bw_ms", "ms"),
    ("nn.layer.attn.fw_ms", "ms"),
    ("nn.layer.attn.bw_ms", "ms"),
    ("nn.layer.lstm.fw_ms", "ms"),
    ("nn.layer.lstm.bw_ms", "ms"),
    ("nn.layer.cls.fw_ms", "ms"),
    ("nn.layer.cls.bw_ms", "ms"),
    ("quant.self_ms_per_step", "ms"),
    ("quant.calls_per_step", "count"),
    ("quant.blocks_per_step", "count"),
    ("intpath.ladder_hit_rate", "ratio"),
    ("intpath.fallbacks_per_step", "count"),
    ("par.regions_per_step", "count"),
    ("par.chunks_per_step", "count"),
    ("par.busy_share", "ratio"),
    ("kernel.macs_per_step", "MAC"),
    ("kernel.gmacs_per_s", "GMAC/s"),
    ("serve.parse_us", "us"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_parse_us", "us"),
    ("serve.coalesced_per_sweep", "count"),
    ("serve.queue_peak", "count"),
    ("accel.cache_key_us", "us"),
    ("accel.simulate_hit_us", "us"),
    ("accel.simulate_miss_ms", "ms"),
    ("sim.host_us_per_mcycle", "us/Mcycle"),
    ("sim.hwcost.hit_ratio", "ratio"),
    ("sim.simulated_ms_total", "ms"),
    ("sim.simulated_energy_mj_total", "mJ"),
    ("mem.transactions_per_cell", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("host.cal_us", "us"),
];

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The resolved run configuration.
    pub header: Vec<(&'static str, String)>,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (train steps, or sweep cells).
    pub attempted: u64,
    /// Operations that failed a check, errored, or were refused.
    pub failed: u64,
    /// Every metric of the run's mode, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines (sample counts, failed checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Builds a report, taking the metric list for `trace`'s mode from
    /// the catalogue. A missing end-to-end metric is a bug in the
    /// workload runner; a missing per-layer metric is a layer the
    /// workload leaves idle and reads 0.
    pub fn new(
        header: Vec<(&'static str, String)>,
        trace: bool,
        measured: &BTreeMap<&'static str, f64>,
        checks: &Checks,
        notes: Vec<String>,
    ) -> Report {
        let catalogue: &[(&'static str, &'static str)] =
            if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match measured.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("workload runner did not measure end-to-end metric {name}"),
                };
                (name, value, unit)
            })
            .collect();
        let mut notes = notes;
        notes.extend(checks.errors.iter().map(|e| format!("FAILED CHECK: {e}")));
        Report {
            header,
            correct: checks.failed == 0,
            attempted: checks.attempted.max(1),
            failed: checks.failed,
            metrics,
            notes,
        }
    }

    /// The `# config {...}` header line.
    pub fn header_line(&self) -> String {
        format!("# config {}", header_json(&self.header))
    }

    /// The final machine-readable line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_escape(name),
                    json_number(*value),
                    json_escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The whole report: header, notes, one line per metric, then the
    /// JSON line last.
    pub fn render(&self) -> String {
        let mut out = vec![self.header_line()];
        out.extend(self.notes.iter().map(|n| format!("# {n}")));
        for (name, value, unit) in &self.metrics {
            out.push(format!("{name:<32} {value:>16.6} {unit}"));
        }
        out.push(self.to_json());
        out.join("\n")
    }
}

/// Renders the config header as one JSON object.
pub fn header_json(header: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite value in full round-trip precision. Non-finite values cannot
/// appear in JSON; the workload runners only divide by counts they
/// checked, so one here is a bug.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Operation accounting plus the failed correctness checks of one run.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// What failed, one line per failed whole-run check.
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts one whole-run check as an operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(msg());
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

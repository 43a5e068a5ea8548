//! `perfbench` — the end-to-end benchmark of the two user-facing jobs:
//! a quantized (HQT, `QuantPath::Int8`) training step and a closed-loop
//! load on the in-process `cq-serve` simulator daemon.
//!
//! Every workload runs in two modes. The untraced run (`--trace 0`)
//! measures the end-to-end metrics with no sink installed. The traced run
//! (`--trace 1`) installs a `cq_obs::MemorySink`, records benchmark-side
//! spans around each public call, takes counter deltas, and attributes
//! the time layer by layer. Both modes check that the outputs are correct.
//! See `README.md` in this directory for the metric table.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod sim;
pub mod stats;
pub mod train;

use std::io::Write;
use std::path::{Path, PathBuf};

pub use metrics::{Report, END_TO_END, PER_LAYER};

/// The four workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bench-CNN train steps on `QuantPath::Int8`.
    TrainCnnInt8,
    /// Alternating Transformer-proxy and LSTM-proxy train steps.
    TrainSeqInt8,
    /// Closed-loop sweeps on the daemon, every cell a memo hit.
    SimWarm,
    /// Closed-loop sweeps on the daemon, every cell a memo miss.
    SimCold,
}

impl Workload {
    /// Every workload the command runs. `BENCHMARK.json` lists the ones
    /// whose spread on a shared host stays inside their bounds.
    pub const ALL: [Workload; 4] = [
        Workload::TrainCnnInt8,
        Workload::TrainSeqInt8,
        Workload::SimWarm,
        Workload::SimCold,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainCnnInt8 => "train_cnn_int8",
            Workload::TrainSeqInt8 => "train_seq_int8",
            Workload::SimWarm => "sim_warm",
            Workload::SimCold => "sim_cold",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no sink. `true`: per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its header and spans (`None`: nowhere).
    pub trace_out: Option<PathBuf>,
}

/// Why the benchmark refused to run or could not finish.
#[derive(Debug)]
pub enum BenchError {
    /// A `CQ_*` knob that changes what a workload computes is set, so the
    /// numbers would not be comparable with another host's.
    KnobSet {
        /// The variable.
        name: &'static str,
        /// Its value.
        value: String,
    },
    /// The command line was malformed.
    Usage(String),
    /// The workload could not be set up or driven (I/O, bind, build).
    Setup(String),
    /// The trace file could not be written.
    Io(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::KnobSet { name, value } => write!(
                f,
                "{name}={value:?} is set; it changes what the workloads compute, \
                 so unset it to get comparable numbers"
            ),
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Setup(msg) => write!(f, "setup failed: {msg}"),
            BenchError::Io(msg) => write!(f, "trace output: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Knobs that change a workload: the mapping policy and memo settings of
/// the simulator, the quantized compute path, the tensor backend, and the
/// pool width (training runs the pool at one worker, the daemon at
/// `nproc`).
pub const REFUSED_KNOBS: [&str; 6] = [
    "CQ_MAPPING",
    "CQ_HWCACHE",
    "CQ_HWCACHE_CAP",
    "CQ_QUANT_PATH",
    "CQ_BACKEND",
    "CQ_THREADS",
];

/// Refuses to run when any [`REFUSED_KNOBS`] entry is set (to anything,
/// even an empty string), reading variables through `get`.
pub fn check_knobs(get: impl Fn(&str) -> Option<String>) -> Result<(), BenchError> {
    for name in REFUSED_KNOBS {
        if let Some(value) = get(name) {
            return Err(BenchError::KnobSet { name, value });
        }
    }
    Ok(())
}

/// Runs one workload in the mode `opts.trace` selects.
pub fn run(opts: &RunOptions) -> Result<Report, BenchError> {
    check_knobs(|k| std::env::var(k).ok())?;
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err(BenchError::Usage(format!(
            "--seconds must be positive, got {}",
            opts.seconds
        )));
    }
    match opts.workload {
        Workload::TrainCnnInt8 | Workload::TrainSeqInt8 => train::run(opts),
        Workload::SimWarm | Workload::SimCold => sim::run(opts),
    }
}

/// The resolved run configuration every report and trace starts with.
pub fn config_header(opts: &RunOptions, quant_path: &str) -> Vec<(&'static str, String)> {
    let cap = cq_sim::hwcache_cap().map_or_else(|| "unbounded".to_string(), |c| c.to_string());
    vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("host.nproc", stats::nproc().to_string()),
        ("host.cpu", stats::cpu_model()),
        ("simd", cq_par::simd_level().name().to_string()),
        ("pool_threads", cq_par::Pool::global().threads().to_string()),
        ("quant_path", quant_path.to_string()),
        ("mapping", cq_sim::mapping::env_policy().name()),
        (
            "memo",
            if cq_sim::hwcache_enabled() {
                "on"
            } else {
                "off"
            }
            .to_string(),
        ),
        ("memo_capacity", cap),
        ("tune_profile", cq_par::describe_active_plan()),
    ]
}

/// Writes a traced run's file: the config header, the benchmark spans
/// kept in memory, and the per-layer result, one JSON object per line.
pub fn write_trace(
    path: &Path,
    report: &Report,
    spans: &[cq_obs::Event],
) -> Result<(), BenchError> {
    let io = |e: std::io::Error| BenchError::Io(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    writeln!(
        out,
        "{{\"kind\":\"config\",\"config\":{}}}",
        metrics::header_json(&report.header)
    )
    .map_err(io)?;
    for ev in spans {
        writeln!(out, "{}", ev.to_jsonl()).map_err(io)?;
    }
    writeln!(
        out,
        "{{\"kind\":\"result\",\"result\":{}}}",
        report.to_json()
    )
    .map_err(io)?;
    out.flush().map_err(io)
}

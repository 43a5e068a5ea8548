//! The training workloads: `train_cnn_int8` and `train_seq_int8`.
//!
//! Each op mirrors `Sequential::train_step` (zero grads → forward →
//! softmax cross-entropy → backward → optimizer) but calls the public
//! pieces one by one, so a benchmark span can sit around each phase. The
//! same code runs untraced and traced; with no sink installed a span is
//! one relaxed atomic load.

use crate::metrics::{Checks, Report};
use crate::stats::{
    calibration_us, counters, host_factor, median, median_lat, median_secs, peak_rss_mib,
    run_stats, Op, Slice, CAL_REF_US, MIN_OPS, SLICE_S,
};
use crate::{config_header, write_trace, BenchError, RunOptions, Workload};
use cq_nn::loss::softmax_cross_entropy;
use cq_nn::{
    Adam, Conv2d, Dense, Flatten, Layer, Lstm, MaxPool2d, NnError, Param, QuantCtx, QuantPath,
    Relu, SelfAttention, Sequential,
};
use cq_obs::{ArgValue, Event, EventKind, MemorySink};
use cq_quant::TrainingQuantizer;
use cq_tensor::{Backend, Tensor};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Train steps per model whose losses form the loss check and
/// `train_loss_end`: a fixed count, so the value depends on the seed
/// alone, not on host speed.
pub const LOSS_STEPS: usize = 60;

/// Fewest ops in each segment of a traced run.
const MIN_TRACED_OPS: usize = 20;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Ops of the traced segment whose benchmark spans are kept for the
/// trace file (the metrics use every op).
const KEEP_OPS: u64 = 64;

/// Layer span name → the metric it feeds, for the reported layers.
const LAYER_METRICS: [(&str, &str); 10] = [
    ("conv1:fw", "nn.layer.conv1.fw_ms"),
    ("conv1:bw", "nn.layer.conv1.bw_ms"),
    ("fc:fw", "nn.layer.fc.fw_ms"),
    ("fc:bw", "nn.layer.fc.bw_ms"),
    ("attn:fw", "nn.layer.attn.fw_ms"),
    ("attn:bw", "nn.layer.attn.bw_ms"),
    ("lstm:fw", "nn.layer.lstm.fw_ms"),
    ("lstm:bw", "nn.layer.lstm.bw_ms"),
    ("cls:fw", "nn.layer.cls.fw_ms"),
    ("cls:bw", "nn.layer.cls.bw_ms"),
];

/// The train-step phases, in order.
const PHASES: [&str; 4] = ["forward", "loss", "backward", "optimizer"];

/// Id of the op in flight, attached to every benchmark span so spans of
/// one op share it.
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);

/// Timing adapter over the public `Layer` trait: one benchmark span per
/// forward and per backward call, nothing else.
#[derive(Debug)]
struct Timed<L>(L);

impl<L: Layer> Layer for Timed<L> {
    fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let mut sp = cq_obs::span!("bench.layer", "{}:fw", self.0.name());
        sp.arg("op", CURRENT_OP.load(Ordering::Relaxed));
        self.0.forward(x, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let mut sp = cq_obs::span!("bench.layer", "{}:bw", self.0.name());
        sp.arg("op", CURRENT_OP.load(Ordering::Relaxed));
        self.0.backward(grad_out, ctx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.0.params_mut()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// One model with its batch and optimizer.
struct Proxy {
    model: Sequential,
    x: Tensor,
    labels: Vec<usize>,
    opt: Adam,
    /// Multiply-accumulates of one train step, computed from the layer
    /// shapes: forward GEMM MACs × 3 (forward, input gradient, weight
    /// gradient).
    macs: u64,
    /// Loss of each step after set-up, up to [`LOSS_STEPS`].
    losses: Vec<f32>,
}

impl Proxy {
    fn step(&mut self, ctx: &QuantCtx, op: u64) -> Result<f32, NnError> {
        let span = |name: &'static str| {
            let mut sp = cq_obs::span!("bench", "{name}");
            sp.arg("op", op);
            sp
        };
        self.model.zero_grads();
        let logits = {
            let _sp = span("forward");
            self.model.forward(&self.x, ctx)?
        };
        let out = {
            let _sp = span("loss");
            softmax_cross_entropy(&logits, &self.labels)?
        };
        {
            let _sp = span("backward");
            self.model.backward(&out.grad, ctx)?;
        }
        {
            let _sp = span("optimizer");
            self.model.step_optimizer(&mut self.opt);
        }
        if self.losses.len() < LOSS_STEPS {
            self.losses.push(out.loss);
        }
        Ok(out.loss)
    }
}

/// A training workload's models and their shared quantization context.
pub struct TrainBench {
    proxies: Vec<Proxy>,
    ctx: QuantCtx,
    /// Rounds of one step per proxy in one op.
    rounds: usize,
}

impl TrainBench {
    /// Builds the models and inputs of `workload` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not a training workload.
    pub fn build(workload: Workload, seed: u64) -> TrainBench {
        let s = |k: u64| seed.wrapping_add(k);
        let ctx = QuantCtx::new(TrainingQuantizer::zhang2020_hqt())
            .with_backend(Backend::Fast)
            .with_path(QuantPath::Int8);
        let proxy = |model, data: cq_data::Dataset, macs| Proxy {
            model,
            x: data.x,
            labels: data.labels,
            opt: Adam::with_defaults(1e-3),
            macs,
            losses: Vec::new(),
        };
        let proxies = match workload {
            Workload::TrainCnnInt8 => {
                // conv 3→32 (k3, p1) → relu → pool → dense 8192→10 on
                // 32 textures of 3×32×32.
                let mut m = Sequential::new();
                m.add(Timed(Conv2d::new("conv1", 3, 32, 3, 1, 1, s(0))))
                    .add(Timed(Relu::new()))
                    .add(Timed(MaxPool2d::new(2)))
                    .add(Timed(Flatten::new()))
                    .add(Timed(Dense::new("fc", 32 * 16 * 16, 10, s(1))));
                let conv = 32 * 32 * 32 * 32 * 3 * 9;
                let fc = 32 * 8192 * 10;
                vec![proxy(
                    m,
                    cq_data::textures(32, 3, 32, 10, 0.25, s(10)),
                    3 * (conv + fc),
                )]
            }
            Workload::TrainSeqInt8 => {
                // Transformer proxy: attention d=12 over 6 steps + Dense.
                let mut tf = Sequential::new();
                tf.add(Timed(SelfAttention::new("attn", 12, s(0))))
                    .add(Timed(Dense::new("cls", 12, 4, s(1))));
                let (b, t, d) = (128, 6, 12);
                let attn = b * t * d * 3 * d + 2 * b * t * t * d + b * t * d * d;
                // LSTM proxy: 5 → 16 over 9 steps + Dense.
                let mut l = Sequential::new();
                l.add(Timed(Lstm::new("lstm", 5, 16, s(2))))
                    .add(Timed(Dense::new("cls", 16, 5, s(3))));
                let lstm = 9 * b * (5 + 16) * 4 * 16;
                vec![
                    proxy(
                        tf,
                        cq_data::sequence_needle(128, 6, 12, 4, s(10), s(11)),
                        3 * (attn + b * 12 * 4),
                    ),
                    proxy(
                        l,
                        cq_data::sequence_majority(128, 9, 5, s(12)),
                        3 * (lstm + b * 16 * 5),
                    ),
                ]
            }
            Workload::SimWarm | Workload::SimCold => {
                panic!("{} is not a training workload", workload.name())
            }
        };
        // A sequence step takes a few milliseconds, short enough that a
        // single one lands wholly in a fast or a slow stretch of a shared
        // host; four rounds per op keep the op latency unimodal.
        let rounds = if workload == Workload::TrainSeqInt8 {
            4
        } else {
            1
        };
        TrainBench {
            proxies,
            ctx,
            rounds,
        }
    }

    /// One op: `rounds` rounds of one train step per proxy, in turn.
    /// Returns the losses.
    pub fn op(&mut self, id: u64) -> Result<Vec<f32>, NnError> {
        CURRENT_OP.store(id, Ordering::Relaxed);
        let mut sp = cq_obs::span!("bench", "op");
        sp.arg("op", id);
        let mut losses = Vec::with_capacity(self.rounds * self.proxies.len());
        for _ in 0..self.rounds {
            for p in &mut self.proxies {
                losses.push(p.step(&self.ctx, id)?);
            }
        }
        Ok(losses)
    }

    fn samples_per_op(&self) -> usize {
        self.rounds * self.proxies.iter().map(|p| p.labels.len()).sum::<usize>()
    }

    fn macs_per_op(&self) -> u64 {
        self.rounds as u64 * self.proxies.iter().map(|p| p.macs).sum::<u64>()
    }

    /// The loss check over each proxy's first [`LOSS_STEPS`] steps: every
    /// loss finite, and the mean of the last tenth below the mean of the
    /// first tenth.
    pub fn check_losses(&self, checks: &mut Checks) {
        for (i, p) in self.proxies.iter().enumerate() {
            let result = check_losses(&p.losses);
            checks.check(result.is_ok(), || {
                format!("model {i}: {}", result.clone().unwrap_err())
            });
        }
    }

    /// Mean over the proxies of the last-tenth mean loss.
    fn loss_end(&self) -> f64 {
        let ends: Vec<f64> = self
            .proxies
            .iter()
            .map(|p| tenth_means(&p.losses).1)
            .collect();
        ends.iter().sum::<f64>() / ends.len() as f64
    }
}

/// Means of the first and last tenth of `losses`.
fn tenth_means(losses: &[f32]) -> (f64, f64) {
    let n = (losses.len() / 10).max(1).min(losses.len());
    let mean = |s: &[f32]| s.iter().map(|&v| f64::from(v)).sum::<f64>() / s.len().max(1) as f64;
    (mean(&losses[..n]), mean(&losses[losses.len() - n..]))
}

/// The training correctness check on one model's fixed-length loss
/// series: all finite, exactly [`LOSS_STEPS`] long, and falling.
pub fn check_losses(losses: &[f32]) -> Result<(), String> {
    if losses.len() != LOSS_STEPS {
        return Err(format!(
            "{} losses recorded, expected {LOSS_STEPS}",
            losses.len()
        ));
    }
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("loss at step {i} is {}", losses[i]));
    }
    let (first, last) = tenth_means(losses);
    if last >= first {
        return Err(format!(
            "loss did not fall: last-tenth mean {last} >= first-tenth mean {first}"
        ));
    }
    Ok(())
}

/// The ops of a driven segment and its slices.
struct Driven {
    ops: Vec<Op>,
    slices: Vec<Slice>,
}

/// Runs ops in slices of [`SLICE_S`] until `secs` have passed and at
/// least `min_ops` ran (and until every proxy has its [`LOSS_STEPS`]
/// losses). One calibration loop runs after each op, while the pool is
/// idle; a slice's host factor is the median of its loops. `after_op`
/// runs outside the timed op.
fn drive(
    bench: &mut TrainBench,
    next_id: &mut u64,
    secs: f64,
    min_ops: usize,
    checks: &mut Checks,
    mut after_op: impl FnMut(),
) -> Driven {
    let items = bench.samples_per_op() as f64;
    let start = Instant::now();
    let mut out = Driven {
        ops: Vec::new(),
        slices: Vec::new(),
    };
    loop {
        let slice_start = Instant::now();
        let (mut cal_us, mut busy_s) = (Vec::new(), 0.0);
        let finished = loop {
            let t = Instant::now();
            let result = bench.op(*next_id);
            let lat_s = t.elapsed().as_secs_f64();
            busy_s += lat_s;
            out.ops.push(Op {
                lat_ms: lat_s * 1e3,
                items,
                slice: out.slices.len(),
            });
            after_op();
            cal_us.push(calibration_us());
            *next_id += 1;
            checks.attempted += 1;
            match result {
                Ok(losses) if losses.iter().all(|l| l.is_finite()) => {}
                Ok(losses) => {
                    checks.failed += 1;
                    checks
                        .errors
                        .push(format!("op {}: non-finite loss {losses:?}", *next_id - 1));
                }
                Err(e) => {
                    checks.failed += 1;
                    checks.errors.push(format!("op {}: {e}", *next_id - 1));
                }
            }
            let losses_done = bench.proxies.iter().all(|p| p.losses.len() >= LOSS_STEPS);
            if start.elapsed().as_secs_f64() >= secs && out.ops.len() >= min_ops && losses_done {
                break true;
            }
            if slice_start.elapsed().as_secs_f64() >= SLICE_S {
                break false;
            }
        };
        // Ops run back to back on this thread, so the slice's time is
        // the sum of their latencies, without the loops between them.
        out.slices.push(Slice {
            wall_s: busy_s,
            host: median(&cal_us) / CAL_REF_US,
        });
        if finished {
            return out;
        }
    }
}

/// Benchmark-side attribution of the traced segment, folded op by op so
/// the sink never holds more than one op's events.
#[derive(Default)]
struct TrainAgg {
    ops: u64,
    op_us: f64,
    phase_us: BTreeMap<String, f64>,
    layer_us: BTreeMap<String, f64>,
    quant_self_us: f64,
    /// Bands (chunks) the step thread's parallel regions fanned out.
    par_chunks: u64,
    /// Σ region wall time × bands: worker time the regions held.
    par_held_us: f64,
    kept: Vec<Event>,
}

impl TrainAgg {
    fn fold(&mut self, events: Vec<Event>, step_tid: u64) {
        let mut quant = Vec::new();
        let mut others = Vec::new();
        for ev in events {
            let EventKind::Span { dur_us } = ev.kind else {
                continue;
            };
            let interval = (ev.ts_us, ev.ts_us + dur_us);
            match ev.cat {
                "bench" if ev.name == "op" => self.op_us += dur_us,
                "bench" => *self.phase_us.entry(ev.name.to_string()).or_default() += dur_us,
                "bench.layer" => *self.layer_us.entry(ev.name.to_string()).or_default() += dur_us,
                "quant" if ev.tid == step_tid => quant.push(interval),
                "par" if ev.tid == step_tid => {
                    let bands = region_width(&ev);
                    self.par_chunks += bands;
                    self.par_held_us += dur_us * bands as f64;
                    others.push(interval);
                }
                _ if ev.tid == step_tid => others.push(interval),
                _ => {}
            }
            if ev.cat.starts_with("bench") && self.ops < KEEP_OPS {
                self.kept.push(ev);
            }
        }
        self.quant_self_us += self_time(&quant, &others);
        self.ops += 1;
    }
}

/// How many workers a `cq-par` region span fanned out to: its `chunks`
/// (`parallel_for`) or `bands` (row/block chunks), or for
/// `parallel_map` its `tasks` capped at `max_workers`.
fn region_width(ev: &Event) -> u64 {
    let arg = |key: &str| {
        ev.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    arg("chunks")
        .or_else(|| arg("bands"))
        .or_else(|| Some(arg("tasks")?.min(arg("max_workers")?)))
        .unwrap_or(0)
}

/// Time covered by `parents` minus the part of it covered by the spans
/// of `others` that nest inside a parent (its children). Spans that
/// enclose a parent are its ancestors and are ignored.
pub fn self_time(parents: &[(f64, f64)], others: &[(f64, f64)]) -> f64 {
    let covered = merge(parents.to_vec());
    // Span timestamps are rounded to the microsecond clock; allow that
    // much slack when testing containment.
    const SLACK_US: f64 = 0.5;
    let children: Vec<(f64, f64)> = others
        .iter()
        .filter(|c| {
            covered
                .iter()
                .any(|p| c.0 >= p.0 - SLACK_US && c.1 <= p.1 + SLACK_US && c.1 - c.0 < p.1 - p.0)
        })
        .copied()
        .collect();
    let total = |v: &[(f64, f64)]| v.iter().map(|(a, b)| b - a).sum::<f64>();
    (total(&covered) - total(&merge(children))).max(0.0)
}

/// Sorted, disjoint union of intervals.
fn merge(mut v: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Makes the process-wide pool one worker wide.
///
/// On a shared host with few vCPUs, other tenants slow one vCPU at a
/// time. A fork/join step split over two workers then runs at the slower
/// one's pace, which the calibration loop on the step thread does not
/// see: a CPU hog pinned to the second of two vCPUs cut bench-CNN
/// throughput by 28% with the host factor unchanged, and ten runs taken
/// in such a stretch spread past the 0.25 bound. With one worker, step
/// and calibration run on the same thread. The pool reads its width
/// once, from `CQ_THREADS`, which the benchmark refuses from the caller;
/// it is set only for that first read.
fn one_worker_pool() -> Result<(), BenchError> {
    std::env::set_var("CQ_THREADS", "1");
    let threads = cq_par::Pool::global().threads();
    std::env::remove_var("CQ_THREADS");
    if threads == 1 {
        Ok(())
    } else {
        Err(BenchError::Setup(format!(
            "the pool was already {threads} workers wide; training workloads run it at one"
        )))
    }
}

/// Runs a training workload.
pub fn run(opts: &RunOptions) -> Result<Report, BenchError> {
    one_worker_pool()?;
    let header = config_header(opts, QuantPath::Int8.name());
    let (setup_s, (mut bench, warm)) = median_secs(SETUP_REPS, || {
        // Set-up includes one warm-up op, so lazy allocations and plan
        // resolution are paid before timing starts.
        let mut b = TrainBench::build(opts.workload, opts.seed);
        let warm = b.op(0).map(|_| ());
        for p in &mut b.proxies {
            p.losses.clear();
        }
        (b, warm)
    });
    warm.map_err(|e| BenchError::Setup(format!("warm-up train step failed: {e}")))?;
    let mut checks = Checks::default();
    let mut next_id = 1;
    let mut measured = BTreeMap::new();
    let mut notes = Vec::new();
    if !opts.trace {
        let run = drive(
            &mut bench,
            &mut next_id,
            opts.seconds,
            MIN_OPS,
            &mut checks,
            || {},
        );
        bench.check_losses(&mut checks);
        let st = run_stats(&run.ops, &run.slices).expect("drive runs at least MIN_OPS ops");
        measured.insert("setup_s", setup_s);
        measured.insert("items_per_ref_s", st.items_per_ref_s);
        measured.insert("op_ref_ms_p50", st.p50_ref_ms);
        measured.insert("op_ref_ms_p90", st.p90_ref_ms);
        measured.insert("peak_rss_mb", peak_rss_mib());
        notes.push(format!(
            "ops measured: {} ops of {} samples in {} slices ({} beyond p90); \
             train_loss_end {:.6} over each model's first {LOSS_STEPS} steps",
            st.ops,
            bench.samples_per_op(),
            run.slices.len(),
            st.beyond_p90,
            bench.loss_end()
        ));
        notes.push(st.wall_clock_note());
    } else {
        let secs = opts.seconds;
        let plain = drive(
            &mut bench,
            &mut next_id,
            secs / 4.0,
            MIN_TRACED_OPS,
            &mut checks,
            || {},
        );
        let sink = Arc::new(MemorySink::new());
        cq_obs::install(sink.clone());
        let step_tid = cq_obs::thread_tid();
        let stats = bench.ctx.int_stats();
        let (h0, f0, c0) = (stats.hits(), stats.fallbacks(), counters());
        let mut agg = TrainAgg::default();
        let traced = drive(
            &mut bench,
            &mut next_id,
            secs * 3.0 / 4.0,
            MIN_TRACED_OPS,
            &mut checks,
            || agg.fold(sink.take(), step_tid),
        );
        cq_obs::uninstall();
        let host = host_factor();
        let (dh, df, c1) = (stats.hits() - h0, stats.fallbacks() - f0, counters());
        let delta = |name: &str| {
            (c1.get(name).copied().unwrap_or(0) - c0.get(name).copied().unwrap_or(0)) as f64
        };
        bench.check_losses(&mut checks);
        let ops = agg.ops as f64;
        let per_op_ms = |us: f64| us / ops / 1e3;
        let phase = |name: &str| agg.phase_us.get(name).copied().unwrap_or(0.0);
        measured.insert("ops_traced", ops);
        measured.insert("train_loss_end", bench.loss_end());
        for (metric, name) in [
            ("nn.forward_ms", "forward"),
            ("nn.loss_ms", "loss"),
            ("nn.backward_ms", "backward"),
            ("nn.optimizer_ms", "optimizer"),
        ] {
            measured.insert(metric, per_op_ms(phase(name)));
        }
        let phases: f64 = PHASES.iter().map(|p| phase(p)).sum();
        measured.insert("nn.phase_coverage", phases / agg.op_us);
        for (span, metric) in LAYER_METRICS {
            if let Some(us) = agg.layer_us.get(span) {
                measured.insert(metric, per_op_ms(*us));
            }
        }
        measured.insert("quant.self_ms_per_step", per_op_ms(agg.quant_self_us));
        measured.insert("quant.calls_per_step", delta("quant.calls") / ops);
        measured.insert("quant.blocks_per_step", delta("quant.blocks") / ops);
        let attempts = (dh + df) as f64;
        if attempts > 0.0 {
            measured.insert("intpath.ladder_hit_rate", dh as f64 / attempts);
        }
        measured.insert("intpath.fallbacks_per_step", df as f64 / ops);
        measured.insert("par.regions_per_step", delta("par.regions") / ops);
        measured.insert("par.chunks_per_step", agg.par_chunks as f64 / ops);
        let threads = cq_par::Pool::global().threads() as f64;
        measured.insert("par.busy_share", agg.par_held_us / (threads * agg.op_us));
        let macs = bench.macs_per_op() as f64;
        measured.insert("kernel.macs_per_step", macs);
        measured.insert("kernel.gmacs_per_s", macs * ops / agg.op_us / 1e3);
        measured.insert(
            "obs.overhead_ratio",
            median_lat(&traced.ops) / median_lat(&plain.ops),
        );
        measured.insert("host.cal_us", host * CAL_REF_US);
        measured.insert("failed_share", checks.failed_share());
        notes.push(format!(
            "ops: {} untraced then {} traced; kernel.macs_per_step is computed from \
             layer shapes (forward GEMM MACs x 3)",
            plain.ops.len(),
            traced.ops.len()
        ));
        let report = Report::new(header.clone(), true, &measured, &checks, notes);
        if let Some(path) = &opts.trace_out {
            write_trace(path, &report, &agg.kept)?;
        }
        return Ok(report);
    }
    Ok(Report::new(header, false, &measured, &checks, notes))
}

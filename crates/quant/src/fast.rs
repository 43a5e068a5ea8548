//! Fused single-pass quantization kernels — the quantization fast path.
//!
//! The reference (naive) implementations in [`crate::ldq`] and
//! [`crate::e2bqm`] mirror the paper's four-step procedure literally:
//! slice a block into a fresh tensor, scan it for θ, quantize it into a
//! fresh candidate, dequantize into another fresh tensor, estimate.
//! That costs N quantize→dequantize→estimate round trips per block for an
//! N-way multiplex and roughly 3N heap allocations — on the training hot
//! path, quantization dominates the step the way the paper's Fig. 3 says
//! it does on GPUs.
//!
//! This module provides the fused equivalents:
//!
//! * **LDQ**: θ and the quantized codes are produced while the block is
//!   cache-resident — one read of the source slice, codes written straight
//!   to the destination, no intermediate block tensors.
//! * **E²BQM shared statistics**: each candidate's *dequantized* values
//!   land in a reused f32 scratch matrix, then the estimators fold all
//!   ways in one pass over the block, one accumulator per way; the winner
//!   is emitted by copying its row.
//! * **[`QuantScratch`]**: an arena holding the candidate parameter set,
//!   the value matrix and the accumulators, so steady-state calls
//!   allocate nothing.
//!
//! The element loops themselves — divide, round, clamp, dequantize — are
//! the `cq_par` quantize kernels (`fake_quantize`, `fake_quantize_scaled`,
//! `quantize_codes`), which clamp in f32 and dispatch to AVX2 where the
//! CPU has it; this crate stays free of `unsafe`.
//!
//! # Bit-identity contract
//!
//! Every kernel here reproduces the naive path's arithmetic *and
//! accumulation order* exactly: per-accumulator contributions arrive in
//! ascending element order, θ uses the same `f32::max` fold, candidate
//! generation the same [`QuantParams`] construction, and arbitration the
//! same first-minimum [`f64::total_cmp`] rule. Block-level parallelism is
//! safe because blocks are independent; *within* a block (or a layer-wise
//! tensor) evaluation stays sequential, which is why results are identical
//! for every thread count. The `fast_parity` proptest suite enforces this.

use crate::e2bqm::ErrorEstimator;
use crate::format::QuantParams;
use cq_par::QuantGrid;

/// How large a tensor must be before block quantization fans out over the
/// worker pool. Below this the pool's spawn cost (~tens of µs per region)
/// exceeds the quantization work itself.
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// Minimum number of blocks handed to one pool worker.
pub const PAR_MIN_BLOCKS: usize = 4;

/// Reusable scratch arena for the fused quantization kernels.
///
/// Thread one instance through repeated quantization calls (e.g. per
/// training step) and the steady state performs zero heap allocations:
/// the candidate parameter set, the per-candidate value matrix, the error
/// accumulators and the error vector are all reused across calls.
///
/// # Examples
///
/// ```
/// use cq_quant::{QuantScratch, TrainingQuantizer};
/// use cq_tensor::init;
///
/// let q = TrainingQuantizer::zhong2020();
/// let x = init::long_tailed(&[2048], 0.1, 0.01, 20.0, 3);
/// let mut scratch = QuantScratch::default();
/// let mut out = Vec::new();
/// q.fake_quantize_into(&x, &mut out, &mut scratch);
/// assert_eq!(out.len(), 2048);
/// ```
#[derive(Debug, Default)]
pub struct QuantScratch {
    /// Candidate parameter set (ways entries), regenerated per block but
    /// never reallocated.
    pub(crate) params: Vec<QuantParams>,
    /// Candidate value matrix, way-major: `qvals[w * n + i]` is candidate
    /// `w`'s dequantized value for element `i`, bitwise
    /// `p.dequantize(p.quantize(x[i]))`.
    pub(crate) qvals: Vec<f32>,
    /// Shared quotients `x[i] / scale₀` when the candidate set admits the
    /// one-division path (see [`pow2_multiplier`]).
    pub(crate) ybuf: Vec<f32>,
    /// Per-way power-of-two multipliers for the one-division path.
    pub(crate) mults: Vec<f32>,
    /// Per-candidate error accumulators.
    pub(crate) acc: Vec<EstAcc>,
    /// Per-candidate estimated errors (the `E2bqmSelection::errors` data).
    pub(crate) errors: Vec<f64>,
}

impl QuantScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

/// One candidate's error accumulator. Which fields are live depends on the
/// estimator; all updates happen in ascending element order so the f32/f64
/// sums are bitwise equal to the naive path's iterator folds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EstAcc {
    /// Rectilinear: Σ|x−x'|. Cosine: Σ x·x'. MeanBias: Σ x'.
    a32: f32,
    /// Cosine: Σ x'².
    b32: f32,
    /// Mse: Σ (x−x')² in f64.
    a64: f64,
}

/// θ = max|x|, bit-identical to [`cq_tensor::Tensor::max_abs`]'s
/// sequential fold (`f32::max` ignores NaN, empty slices give 0.0).
///
/// Computed with eight lane accumulators so the reduction vectorizes —
/// the sequential fold is a 4-cycle-latency dependency chain that caps
/// the naive path. Reassociating is sound here (unlike the error-sum
/// folds, which must stay sequential): after `abs` every operand is
/// non-negative or NaN, `f32::max` drops NaN in favor of the other
/// operand, and the accumulators start at the fold's own 0.0 identity —
/// so any association yields the same value, the largest non-NaN operand
/// (or 0.0).
#[inline]
pub fn block_theta(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = x.chunks_exact(8);
    for c in chunks.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    lanes.iter().fold(tail, |m, &v| m.max(v))
}

/// The θ the quantizer actually uses: degenerate statistics (zero,
/// negative, or non-finite) clamp to 0.0, matching
/// [`QuantParams::symmetric`]'s sentinel handling.
#[inline]
pub fn effective_theta(theta: f32) -> f32 {
    if theta.is_finite() && theta > 0.0 {
        theta
    } else {
        0.0
    }
}

/// Returns the multiplier `m` such that `v / scale_w == (v / scale0) * m`
/// **bitwise for every input `v`**, or `None` when no such multiplier is
/// provable.
///
/// The proof obligation is `scale_w * 2^k == scale0` exactly, checked at
/// runtime: `m = scale0 / scale_w` must be a finite power of two ≥ 1
/// (zero mantissa bits) that multiplies back bitwise. When it holds,
/// `fl(v / scale_w) = fl(v·2^k / scale0) = fl(v / scale0)·2^k` because
/// scaling by 2^k maps representable values to representable values and
/// scales every rounding boundary exactly (k ≥ 0 moves *away* from the
/// subnormal range, so gradual underflow cannot break the commutation).
/// The one place the shortcut can produce different bits — a subnormal
/// quotient `v/scale0` losing low bits before the scale-up — only yields
/// values below 2⁻¹⁰⁰, which round to code 0 either way, so the codes
/// (and the dequantized values, which depend only on them) are still
/// identical. Degenerate or subnormal scales simply fail the check and
/// take the per-way division path.
///
/// This predicate is the **bitwise acceptance condition** shared by every
/// power-of-two shortcut in the workspace: the shared-quotient E²BQM path
/// here, and the [`crate::intdomain`] ladder guard (whose exact-rescale
/// proof leans on the same commutation argument). Its edge behavior —
/// subnormal operands, ratios at the f32 exponent boundaries, overflowing
/// ratios — is pinned by the `pow2_guard` proptest suite.
#[inline]
pub fn pow2_multiplier(scale0: f32, scale_w: f32) -> Option<f32> {
    let m = scale0 / scale_w;
    let pow2 = m.to_bits() & 0x007f_ffff == 0;
    if m.is_finite() && m >= 1.0 && pow2 && scale_w * m == scale0 {
        Some(m)
    } else {
        None
    }
}

/// The cq-par kernel grid of `params`: its scale, offset and code range.
#[inline]
fn grid(params: QuantParams) -> QuantGrid {
    QuantGrid {
        scale: params.scale,
        offset: params.offset,
        qmin: params.format.qmin(),
        qmax: params.format.qmax(),
    }
}

/// Fused LDQ block kernel: quantizes `x` with `params`, appending the
/// codes to `codes` — bitwise [`QuantParams::quantize`] per element.
#[inline]
pub(crate) fn quantize_codes_into(x: &[f32], params: QuantParams, codes: &mut Vec<i32>) {
    let start = codes.len();
    codes.resize(start + x.len(), 0);
    cq_par::quantize_codes(x, grid(params), &mut codes[start..]);
}

/// Fused LDQ fake-quantize kernel: writes `dequantize(quantize(x))` for
/// one block straight into `out` (no intermediate codes).
#[inline]
pub(crate) fn fake_quantize_block(x: &[f32], params: QuantParams, out: &mut [f32]) {
    cq_par::fake_quantize(x, grid(params), out);
}

/// Shared-statistics E²BQM evaluation: one pass over `x` computes every
/// candidate's dequantized values (into `scratch.qvals`, way-major) and
/// estimated error (into `scratch.errors`), then returns the winning way.
///
/// `scratch.params` must already hold the candidate set (see
/// [`crate::E2bqmQuantizer::candidate_params_into`]).
///
/// The per-candidate accumulators receive contributions in ascending
/// element order — the same order as the naive path's per-candidate
/// passes — so the estimated errors are bitwise identical to N separate
/// quantize→dequantize→estimate round trips. Arbitration uses the same
/// first-minimum `total_cmp` rule (NaN errors rank last).
pub(crate) fn eval_candidates_shared(
    x: &[f32],
    estimator: ErrorEstimator,
    scratch: &mut QuantScratch,
) -> usize {
    let ways = scratch.params.len();
    let n = x.len();
    // Same-size resize is a no-op, so steady-state calls (equal-sized
    // blocks) never touch the allocator or re-zero the matrix — every
    // in-range slot is overwritten below.
    scratch.qvals.resize(ways * n, 0.0);
    scratch.acc.clear();
    scratch.acc.resize(ways, EstAcc::default());

    // Statistic over the original data, shared by all candidates. The
    // naive path recomputes it per candidate (`x.norm()`, `x.mean()`);
    // one fold over the same elements in the same order gives the same
    // bits, so computing it once is free of divergence.
    let xstat = match estimator {
        ErrorEstimator::Cosine => x.iter().fold(0.0f32, |s, &v| s + v * v),
        ErrorEstimator::MeanBias => x.iter().fold(0.0f32, |s, &v| s + v),
        _ => 0.0,
    };

    // One-division detection: a symmetric candidate ladder (all offsets
    // zero, every scale an exact power-of-two divisor of candidate 0's —
    // which is what `ClipSweep` produces by construction) lets a single
    // `x[i] / scale₀` quotient serve all N ways via an exact multiply.
    // Division is the longest-latency op in the store pass, so this turns
    // the N-way evaluation's N divisions per element into one. The check
    // is bitwise at runtime (see [`pow2_multiplier`]); ladders that don't
    // qualify (ShiftableFxp's fractional exponents, FormatSweep, manual
    // parameter sets) keep the per-way division below, so the shortcut is
    // provably code-identical wherever it is taken.
    let shared = {
        let params = &scratch.params;
        let mults = &mut scratch.mults;
        mults.clear();
        match params.first() {
            Some(p0) if params.iter().all(|p| p.offset == 0.0) => {
                params
                    .iter()
                    .all(|p| match pow2_multiplier(p0.scale, p.scale) {
                        Some(m) => {
                            mults.push(m);
                            true
                        }
                        None => false,
                    })
            }
            _ => false,
        }
    };
    if shared {
        let s0 = scratch.params[0].scale;
        scratch.ybuf.resize(n, 0.0);
        for (y, &v) in scratch.ybuf.iter_mut().zip(x) {
            *y = v / s0;
        }
    }

    // Store passes: each way's dequantized values, written by the cq-par
    // kernels (no loop-carried dependency, so they run at full SIMD
    // width). Each value is bitwise `p.dequantize(p.quantize(x[i]))`.
    for (w, &p) in scratch.params.iter().enumerate() {
        let row = &mut scratch.qvals[w * n..(w + 1) * n];
        if shared {
            cq_par::fake_quantize_scaled(&scratch.ybuf, scratch.mults[w], grid(p), row);
        } else {
            cq_par::fake_quantize(x, grid(p), row);
        }
    }

    // Fold passes: the estimator's serial accumulations, up to four ways
    // per pass over the block so their latency chains overlap. Each
    // accumulator still receives its contributions in ascending element
    // order, so the sums are bitwise those of the naive per-candidate
    // round trips.
    let mut w0 = 0;
    while w0 < ways {
        let k = (ways - w0).min(FOLD_WAYS);
        let rows = &scratch.qvals[w0 * n..(w0 + k) * n];
        let acc = &mut scratch.acc[w0..w0 + k];
        match k {
            4 => fold_ways::<4>(x, rows, estimator, acc),
            3 => fold_ways::<3>(x, rows, estimator, acc),
            2 => fold_ways::<2>(x, rows, estimator, acc),
            _ => fold_ways::<1>(x, rows, estimator, acc),
        }
        w0 += k;
    }

    scratch.errors.clear();
    for a in &scratch.acc {
        let err = match estimator {
            ErrorEstimator::Rectilinear => a.a32 as f64,
            ErrorEstimator::Cosine => {
                // Replicates Tensor::cosine_similarity including its
                // zero-norm special cases.
                let na = xstat.sqrt();
                let nb = a.b32.sqrt();
                let cos = if na == 0.0 && nb == 0.0 {
                    1.0
                } else if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    a.a32 / (na * nb)
                };
                1.0 - cos as f64
            }
            ErrorEstimator::MeanBias => {
                // Replicates Tensor::mean (0.0 for empty tensors).
                let mx = if n == 0 { 0.0 } else { xstat / n as f32 };
                let md = if n == 0 { 0.0 } else { a.a32 / n as f32 };
                (mx as f64 - md as f64).abs()
            }
            ErrorEstimator::Mse => a.a64 / n.max(1) as f64,
        };
        scratch.errors.push(err);
    }

    scratch
        .errors
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Most ways one fold pass carries.
const FOLD_WAYS: usize = 4;

/// Folds `K` ways' dequantized rows (`rows`, way-major, `K · x.len()`
/// values) into their accumulators in one pass over the block.
#[inline]
fn fold_ways<const K: usize>(
    x: &[f32],
    rows: &[f32],
    estimator: ErrorEstimator,
    acc: &mut [EstAcc],
) {
    let n = x.len();
    let rows: [&[f32]; K] = std::array::from_fn(|j| &rows[j * n..][..n]);
    match estimator {
        ErrorEstimator::Rectilinear => {
            let mut s = [0.0f32; K];
            for (i, &v) in x.iter().enumerate() {
                for j in 0..K {
                    s[j] += (v - rows[j][i]).abs();
                }
            }
            for (a, s) in acc.iter_mut().zip(s) {
                a.a32 = s;
            }
        }
        ErrorEstimator::Cosine => {
            let (mut dot, mut nsq) = ([0.0f32; K], [0.0f32; K]);
            for (i, &v) in x.iter().enumerate() {
                for j in 0..K {
                    let d = rows[j][i];
                    dot[j] += v * d;
                    nsq[j] += d * d;
                }
            }
            for (a, (dot, nsq)) in acc.iter_mut().zip(dot.into_iter().zip(nsq)) {
                a.a32 = dot;
                a.b32 = nsq;
            }
        }
        ErrorEstimator::MeanBias => {
            for (a, row) in acc.iter_mut().zip(rows) {
                a.a32 = row.iter().fold(0.0f32, |s, &d| s + d);
            }
        }
        ErrorEstimator::Mse => {
            let mut s = [0.0f64; K];
            for (i, &v) in x.iter().enumerate() {
                for j in 0..K {
                    let e = (v - rows[j][i]) as f64;
                    s[j] += e * e;
                }
            }
            for (a, s) in acc.iter_mut().zip(s) {
                a.a64 = s;
            }
        }
    }
}

/// Copies candidate `way`'s dequantized values (from the scratch matrix)
/// into `out` — the zero-allocation winner emission used by the fused
/// fake-quantize path.
#[inline]
pub(crate) fn emit_winner(scratch: &QuantScratch, way: usize, n: usize, out: &mut [f32]) {
    out.copy_from_slice(&scratch.qvals[way * n..(way + 1) * n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2bqm::E2bqmQuantizer;
    use crate::format::IntFormat;
    use cq_tensor::Tensor;

    #[test]
    fn block_theta_matches_tensor_max_abs() {
        let data = vec![0.5f32, -3.0, 2.9, 0.0, f32::NAN];
        let t = Tensor::from_vec(data.clone(), &[5]).unwrap();
        assert_eq!(block_theta(&data), t.max_abs());
        assert_eq!(block_theta(&[]), 0.0);
    }

    #[test]
    fn quantize_one_matches_quant_params() {
        for p in [
            QuantParams::symmetric(1.0, IntFormat::Int8),
            QuantParams::symmetric(37.5, IntFormat::Int4),
            QuantParams::symmetric(1e-30, IntFormat::Int16),
            QuantParams::symmetric(3e30, IntFormat::Int12),
        ] {
            // Every 2¹⁶th bit pattern, so NaN, ±∞, ±0 and subnormals all
            // appear, through both the code and the fake-quantize kernels.
            let x: Vec<f32> = (0..(1u64 << 16))
                .map(|step| f32::from_bits((step << 16) as u32))
                .collect();
            let mut codes = Vec::new();
            quantize_codes_into(&x, p, &mut codes);
            let mut fake = vec![0.0; x.len()];
            fake_quantize_block(&x, p, &mut fake);
            for ((&v, &c), &f) in x.iter().zip(&codes).zip(&fake) {
                assert_eq!(c, p.quantize(v), "v={v:e} p={p:?}");
                let want = p.dequantize(p.quantize(v));
                assert_eq!(f.to_bits(), want.to_bits(), "v={v:e} p={p:?}");
            }
        }
    }

    #[test]
    fn effective_theta_clamps_degenerates() {
        assert_eq!(effective_theta(2.5), 2.5);
        assert_eq!(effective_theta(0.0), 0.0);
        assert_eq!(effective_theta(-1.0), 0.0);
        assert_eq!(effective_theta(f32::NAN), 0.0);
        assert_eq!(effective_theta(f32::INFINITY), 0.0);
    }

    #[test]
    fn shared_eval_matches_naive_selection() {
        // Spot-check on one block; the proptest parity suite covers the
        // full cross product of estimators/strategies/shapes.
        let q = E2bqmQuantizer::hardware_default();
        let data: Vec<f32> = (0..257)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let t = Tensor::from_vec(data.clone(), &[257]).unwrap();
        let naive = q.quantize(&t);

        let mut scratch = QuantScratch::new();
        let theta = block_theta(&data);
        q.candidate_params_into(theta, &mut scratch.params);
        let way = eval_candidates_shared(&data, q.estimator(), &mut scratch);
        assert_eq!(way, naive.way);
        assert_eq!(scratch.errors, naive.errors);
        let n = data.len();
        assert_eq!(
            &scratch.qvals[way * n..(way + 1) * n],
            naive.selected.dequantize().data()
        );
    }

    #[test]
    fn scratch_buffers_are_reused_not_reallocated() {
        let q = E2bqmQuantizer::hardware_default();
        let data = vec![0.25f32; 512];
        let mut scratch = QuantScratch::new();
        q.candidate_params_into(1.0, &mut scratch.params);
        let _ = eval_candidates_shared(&data, q.estimator(), &mut scratch);
        let (p0, q0) = (scratch.params.as_ptr(), scratch.qvals.as_ptr());
        for _ in 0..4 {
            q.candidate_params_into(0.7, &mut scratch.params);
            let _ = eval_candidates_shared(&data, q.estimator(), &mut scratch);
        }
        assert_eq!(scratch.params.as_ptr(), p0, "params buffer reallocated");
        assert_eq!(scratch.qvals.as_ptr(), q0, "value matrix reallocated");
    }
}

//! Quantize kernels: the element loops of the cq-quant fast path.
//!
//! Every quantizer in cq-quant ends in the same per-element step,
//! `clamp(round((x − offset) / scale), qmin, qmax)`, followed either by
//! a dequantize (`c·scale + offset`, the fake-quantize training path) or
//! by a store of the integer code. Three safe entry points cover the
//! loops that step runs in:
//!
//! * [`fake_quantize`] — quotient by division, dequantized output;
//! * [`fake_quantize_scaled`] — quotient from a shared `x / scale₀`
//!   times an exact power-of-two multiplier, dequantized output;
//! * [`quantize_codes`] — quotient by division, i32 codes.
//!
//! # Bit-identity with the integer cast
//!
//! The reference form is `(round(q) as i32).clamp(qmin, qmax)`, with
//! Rust's saturating f32→i32 cast, which baseline x86-64 lowers to scalar
//! code. The kernels clamp in f32 instead: `r = fast_round(q)` is
//! integral (or ±∞ or NaN), and `qmin`/`qmax` are exact in f32, so
//! `clamp(r, qmin, qmax)` is exactly the clamped integer. Infinities
//! clamp to the bounds, as the saturating cast does, and NaN maps to 0,
//! as the cast does. Adding `+0.0` turns a `-0.0` into the `+0.0` that
//! `0i32 as f32` gives. The dequantize is a separate multiply and add
//! (never a fused multiply-add), so fake-quantized values are bitwise
//! `dequantize(code)`.
//!
//! # Dispatch
//!
//! The arm is chosen by [`crate::simd_level`], like the GEMM
//! micro-kernels: AVX2 intrinsics over eight lanes, or the portable
//! loop (which LLVM vectorizes at the target's baseline width). Both
//! arms perform the same IEEE operations per element, so their results
//! are bitwise equal, and the AVX2 arm finishes ragged tails with the
//! portable loop.

// The AVX2 arm uses `std::arch` intrinsics, which are only callable
// from `#[target_feature]` functions; those are unsafe to call. Every
// call is guarded by `simd_level()`, which resolves to Avx2 only after
// runtime feature detection.
#![allow(unsafe_code)]

use crate::microkernel::{simd_level, SimdLevel};

/// 2²³ — above this every f32 magnitude is already integral.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// Branch-free round-half-away-from-zero, bit-identical to [`f32::round`]
/// over the entire f32 bit space (verified exhaustively — all 2³²
/// patterns — when this kernel was written; `round_matches_std_round`
/// keeps a stratified sample of that check in the suite).
///
/// `f32::round` lowers to `llvm.round.f32`, which the x86-64 baseline
/// expands to a scalar sequence the auto-vectorizer refuses to touch.
/// This formulation (magic-number round-to-nearest-even, then pushing
/// exact .5 ties away from zero with a select) is all adds, compares and
/// selects, which LLVM vectorizes and the AVX2 arm mirrors lane by lane.
#[inline]
pub(crate) fn fast_round(y: f32) -> f32 {
    let a = y.abs();
    let t = (a + ROUND_MAGIC) - ROUND_MAGIC;
    let u = if a - t == 0.5 { t + 1.0 } else { t };
    let r = if a < ROUND_MAGIC { u } else { a };
    r.copysign(y)
}

/// An affine integer grid: codes are clamped to `[qmin, qmax]` and code
/// `c` stands for the value `c·scale + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantGrid {
    /// Step between adjacent codes.
    pub scale: f32,
    /// Value of code 0.
    pub offset: f32,
    /// Smallest code.
    pub qmin: i32,
    /// Largest code.
    pub qmax: i32,
}

/// Largest code magnitude the f32 clamp represents exactly.
const MAX_CODE: u32 = 1 << 24;

impl QuantGrid {
    /// The clamp bounds as f32, after checking they are ordered and exact.
    fn bounds(&self) -> (f32, f32) {
        assert!(
            self.qmin <= self.qmax
                && self.qmin.unsigned_abs() <= MAX_CODE
                && self.qmax.unsigned_abs() <= MAX_CODE,
            "quantize grid bounds [{}, {}] must be ordered and within ±2^24",
            self.qmin,
            self.qmax
        );
        (self.qmin as f32, self.qmax as f32)
    }
}

/// Fake-quantizes `x` into `out`: `out[i] = clamp(round((x[i] − offset) /
/// scale)) · scale + offset`, bitwise equal to dequantizing the code
/// [`quantize_codes`] emits.
///
/// # Panics
///
/// Panics if the lengths differ or the grid bounds are unordered or
/// beyond ±2²⁴.
pub fn fake_quantize(x: &[f32], grid: QuantGrid, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "fake_quantize length mismatch");
    let (lo, hi) = grid.bounds();
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only after runtime detection
        // confirmed AVX2.
        SimdLevel::Avx2 => unsafe { avx2::fake_quantize(x, grid.scale, grid.offset, lo, hi, out) },
        _ => scalar::fake_quantize(x, grid.scale, grid.offset, lo, hi, out),
    }
}

/// Fake-quantizes shared quotients into `out`: `out[i] = clamp(round(y[i]
/// · m)) · scale + offset`. With `y[i] = x[i] / scale₀` and `m` a proven
/// power-of-two ratio `scale₀ / scale`, this is [`fake_quantize`] of `x`
/// with one division per element shared by every grid of the ladder.
///
/// # Panics
///
/// Panics if the lengths differ or the grid bounds are unordered or
/// beyond ±2²⁴.
pub fn fake_quantize_scaled(y: &[f32], m: f32, grid: QuantGrid, out: &mut [f32]) {
    assert_eq!(y.len(), out.len(), "fake_quantize_scaled length mismatch");
    let (lo, hi) = grid.bounds();
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only after runtime detection
        // confirmed AVX2.
        SimdLevel::Avx2 => unsafe {
            avx2::fake_quantize_scaled(y, m, grid.scale, grid.offset, lo, hi, out)
        },
        _ => scalar::fake_quantize_scaled(y, m, grid.scale, grid.offset, lo, hi, out),
    }
}

/// Quantizes `x` into codes: `out[i] = clamp(round((x[i] − offset) /
/// scale), qmin, qmax)`, bitwise equal to `(round(q) as i32).clamp(qmin,
/// qmax)` (NaN quotients give 0).
///
/// # Panics
///
/// Panics if the lengths differ or the grid bounds are unordered or
/// beyond ±2²⁴.
pub fn quantize_codes(x: &[f32], grid: QuantGrid, out: &mut [i32]) {
    assert_eq!(x.len(), out.len(), "quantize_codes length mismatch");
    let (lo, hi) = grid.bounds();
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only after runtime detection
        // confirmed AVX2.
        SimdLevel::Avx2 => unsafe { avx2::quantize_codes(x, grid.scale, grid.offset, lo, hi, out) },
        _ => scalar::quantize_codes(x, grid.scale, grid.offset, lo, hi, out),
    }
}

/// The portable arm, also used for the AVX2 arm's ragged tails.
mod scalar {
    use super::fast_round;

    /// The clamped code of quotient `q` as an f32: integral, within
    /// `[lo, hi]`, NaN mapped to 0 and `-0.0` to `+0.0` (module docs).
    #[inline]
    pub(super) fn code(q: f32, lo: f32, hi: f32) -> f32 {
        let r = fast_round(q);
        (if r.is_nan() { 0.0 } else { r.clamp(lo, hi) }) + 0.0
    }

    pub(super) fn fake_quantize(x: &[f32], s: f32, o: f32, lo: f32, hi: f32, out: &mut [f32]) {
        for (d, &v) in out.iter_mut().zip(x) {
            *d = code((v - o) / s, lo, hi) * s + o;
        }
    }

    pub(super) fn fake_quantize_scaled(
        y: &[f32],
        m: f32,
        s: f32,
        o: f32,
        lo: f32,
        hi: f32,
        out: &mut [f32],
    ) {
        for (d, &v) in out.iter_mut().zip(y) {
            *d = code(v * m, lo, hi) * s + o;
        }
    }

    pub(super) fn quantize_codes(x: &[f32], s: f32, o: f32, lo: f32, hi: f32, out: &mut [i32]) {
        for (d, &v) in out.iter_mut().zip(x) {
            *d = code((v - o) / s, lo, hi) as i32;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, ROUND_MAGIC};
    use std::arch::x86_64::*;

    /// Eight lanes of [`super::scalar::code`], op for op: `fast_round`,
    /// clamp, NaN → 0, `+0.0`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn code8(q: __m256, lo: __m256, hi: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let a = _mm256_andnot_ps(sign, q);
        let t = _mm256_sub_ps(_mm256_add_ps(a, magic), magic);
        let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(a, t), _mm256_set1_ps(0.5));
        let u = _mm256_blendv_ps(t, _mm256_add_ps(t, _mm256_set1_ps(1.0)), tie);
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(a, magic);
        let r = _mm256_or_ps(_mm256_blendv_ps(a, u, small), _mm256_and_ps(sign, q));
        // max/min return their second operand when the first is NaN, so
        // the clamp alone would send NaN to `lo`; the ordered mask zeroes
        // those lanes instead.
        let c = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
        let c = _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(r, r));
        _mm256_add_ps(c, _mm256_setzero_ps())
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. (Unequal lengths are memory-safe: the
    /// chunks and the tail loop stop at the shorter slice.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fake_quantize(
        x: &[f32],
        s: f32,
        o: f32,
        lo: f32,
        hi: f32,
        out: &mut [f32],
    ) {
        let (vs, vo) = (_mm256_set1_ps(s), _mm256_set1_ps(o));
        let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut src = x.chunks_exact(8);
        let mut dst = out.chunks_exact_mut(8);
        for (d, v) in dst.by_ref().zip(src.by_ref()) {
            // SAFETY: `v` and `d` are 8-element chunks, so the unaligned
            // 256-bit load and store stay in bounds.
            let q = _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(v.as_ptr()), vo), vs);
            let c = code8(q, vlo, vhi);
            _mm256_storeu_ps(d.as_mut_ptr(), _mm256_add_ps(_mm256_mul_ps(c, vs), vo));
        }
        scalar::fake_quantize(src.remainder(), s, o, lo, hi, dst.into_remainder());
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. (Unequal lengths are memory-safe, as
    /// above.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fake_quantize_scaled(
        y: &[f32],
        m: f32,
        s: f32,
        o: f32,
        lo: f32,
        hi: f32,
        out: &mut [f32],
    ) {
        let (vm, vs, vo) = (_mm256_set1_ps(m), _mm256_set1_ps(s), _mm256_set1_ps(o));
        let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut src = y.chunks_exact(8);
        let mut dst = out.chunks_exact_mut(8);
        for (d, v) in dst.by_ref().zip(src.by_ref()) {
            // SAFETY: `v` and `d` are 8-element chunks, so the unaligned
            // 256-bit load and store stay in bounds.
            let c = code8(_mm256_mul_ps(_mm256_loadu_ps(v.as_ptr()), vm), vlo, vhi);
            _mm256_storeu_ps(d.as_mut_ptr(), _mm256_add_ps(_mm256_mul_ps(c, vs), vo));
        }
        scalar::fake_quantize_scaled(src.remainder(), m, s, o, lo, hi, dst.into_remainder());
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. (Unequal lengths are memory-safe: the
    /// chunks and the tail loop stop at the shorter slice.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_codes(
        x: &[f32],
        s: f32,
        o: f32,
        lo: f32,
        hi: f32,
        out: &mut [i32],
    ) {
        let (vs, vo) = (_mm256_set1_ps(s), _mm256_set1_ps(o));
        let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut src = x.chunks_exact(8);
        let mut dst = out.chunks_exact_mut(8);
        for (d, v) in dst.by_ref().zip(src.by_ref()) {
            // SAFETY: `v` and `d` are 8-element chunks, so the unaligned
            // 256-bit load and store stay in bounds. The codes are
            // integral and within ±2^24, so the truncating convert is
            // exact.
            let q = _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(v.as_ptr()), vo), vs);
            let c = _mm256_cvttps_epi32(code8(q, vlo, vhi));
            _mm256_storeu_si256(d.as_mut_ptr().cast(), c);
        }
        scalar::quantize_codes(src.remainder(), s, o, lo, hi, dst.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_matches_std_round() {
        // Stratified sample of the exhaustive (all 2³²) verification run
        // when the kernel was written: every 2¹⁰th bit pattern plus the
        // known-treacherous neighborhoods of .5 ties and the 2²³ integral
        // boundary.
        let check = |y: f32| {
            let (a, b) = (y.round(), fast_round(y));
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "fast_round({y:e}) = {b:e}, f32::round = {a:e}"
            );
        };
        for step in 0..(1u64 << 22) {
            check(f32::from_bits((step << 10) as u32));
        }
        for base in [0.5f32, 1.5, 2.5, 0.499_999_97, 8_388_607.5, ROUND_MAGIC] {
            for delta in [-1, 0, 1i32] {
                let v = f32::from_bits(base.to_bits().wrapping_add_signed(delta));
                check(v);
                check(-v);
            }
        }
        for special in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            check(special);
        }
    }

    /// The grids the quantizers use: each format's symmetric range at a
    /// power-of-two scale (exact half-step ties), at awkward scales, a
    /// nonzero offset, a `-0.0` offset, and the int-domain base grid.
    fn grids() -> Vec<QuantGrid> {
        let mut out = Vec::new();
        for qmax in [7, 127, 2047, 32767] {
            for scale in [0.125f32, 1.0, 37.5 / qmax as f32, 1e-30, 3e30, 1.3e-40] {
                out.push(QuantGrid {
                    scale,
                    offset: 0.0,
                    qmin: -qmax,
                    qmax,
                });
            }
        }
        out.push(QuantGrid {
            scale: 0.25,
            offset: 1.5,
            qmin: -127,
            qmax: 127,
        });
        out.push(QuantGrid {
            scale: 0.25,
            offset: -0.0,
            qmin: -127,
            qmax: 127,
        });
        out.push(QuantGrid {
            scale: 2f32.powi(-10),
            offset: 0.0,
            qmin: -1016,
            qmax: 1016,
        });
        out
    }

    /// Special and edge inputs for `grid`: NaN, ±∞, ±0, subnormals, ±1e30,
    /// exact half-step ties and their neighbours, the clamp bounds, and a
    /// bit-pattern sweep. 1021 elements: not a multiple of the lane width.
    fn inputs(grid: QuantGrid) -> Vec<f32> {
        let mut v = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
        ];
        for k in [0, 1, 2, 5, grid.qmax - 1, grid.qmax, grid.qmax + 1] {
            let tie = (k as f32 + 0.5) * grid.scale + grid.offset;
            for x in [tie, -tie, k as f32 * grid.scale + grid.offset] {
                v.push(x);
                v.push(f32::from_bits(x.to_bits().wrapping_add(1)));
                v.push(f32::from_bits(x.to_bits().wrapping_sub(1)));
            }
        }
        let mut bits = 0x9e37_79b9u32;
        while v.len() < 1021 {
            bits = bits.wrapping_mul(0x0101_0101).wrapping_add(0x2545_f491);
            v.push(f32::from_bits(bits));
        }
        v
    }

    /// The reference expression the kernels replace.
    fn reference_code(g: QuantGrid, q: f32) -> i32 {
        (fast_round(q) as i32).clamp(g.qmin, g.qmax)
    }

    fn dequantize(g: QuantGrid, c: i32) -> f32 {
        c as f32 * g.scale + g.offset
    }

    /// Both arms, so the AVX2 arm is checked whenever the CPU has it,
    /// whatever `CQ_SIMD` selects for the process.
    fn levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
        levels
    }

    fn run_codes(level: SimdLevel, x: &[f32], g: QuantGrid) -> Vec<i32> {
        let (lo, hi) = g.bounds();
        let mut out = vec![i32::MIN; x.len()];
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `levels()` yields Avx2 only when the CPU has AVX2;
            // the lengths match.
            SimdLevel::Avx2 => unsafe {
                avx2::quantize_codes(x, g.scale, g.offset, lo, hi, &mut out)
            },
            _ => scalar::quantize_codes(x, g.scale, g.offset, lo, hi, &mut out),
        }
        out
    }

    fn run_fake(level: SimdLevel, x: &[f32], g: QuantGrid) -> Vec<f32> {
        let (lo, hi) = g.bounds();
        let mut out = vec![f32::NAN; x.len()];
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `run_codes`.
            SimdLevel::Avx2 => unsafe {
                avx2::fake_quantize(x, g.scale, g.offset, lo, hi, &mut out)
            },
            _ => scalar::fake_quantize(x, g.scale, g.offset, lo, hi, &mut out),
        }
        out
    }

    fn run_scaled(level: SimdLevel, y: &[f32], m: f32, g: QuantGrid) -> Vec<f32> {
        let (lo, hi) = g.bounds();
        let mut out = vec![f32::NAN; y.len()];
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `run_codes`.
            SimdLevel::Avx2 => unsafe {
                avx2::fake_quantize_scaled(y, m, g.scale, g.offset, lo, hi, &mut out)
            },
            _ => scalar::fake_quantize_scaled(y, m, g.scale, g.offset, lo, hi, &mut out),
        }
        out
    }

    #[test]
    fn codes_match_the_saturating_cast_on_both_arms() {
        for g in grids() {
            let x = inputs(g);
            let want: Vec<i32> = x
                .iter()
                .map(|&v| reference_code(g, (v - g.offset) / g.scale))
                .collect();
            for level in levels() {
                // Every prefix length up to two vectors exercises the tail.
                for len in (0..17).chain([x.len()]) {
                    let got = run_codes(level, &x[..len], g);
                    assert_eq!(got, want[..len], "{level:?} {g:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn fake_quantize_matches_dequantized_codes_on_both_arms() {
        for g in grids() {
            let x = inputs(g);
            let want: Vec<u32> = x
                .iter()
                .map(|&v| dequantize(g, reference_code(g, (v - g.offset) / g.scale)).to_bits())
                .collect();
            for level in levels() {
                for len in (0..17).chain([x.len()]) {
                    let got: Vec<u32> = run_fake(level, &x[..len], g)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(got, want[..len], "{level:?} {g:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn scaled_fake_quantize_matches_dequantized_codes_on_both_arms() {
        for g in grids() {
            let y = inputs(g);
            for m in [1.0f32, 2.0, 8.0, 1024.0] {
                let want: Vec<u32> = y
                    .iter()
                    .map(|&v| dequantize(g, reference_code(g, v * m)).to_bits())
                    .collect();
                for level in levels() {
                    for len in (0..17).chain([y.len()]) {
                        let got: Vec<u32> = run_scaled(level, &y[..len], m, g)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(got, want[..len], "{level:?} {g:?} m {m} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn public_entry_points_agree_with_the_reference() {
        let g = QuantGrid {
            scale: 0.125,
            offset: 0.0,
            qmin: -127,
            qmax: 127,
        };
        let x = inputs(g);
        let mut codes = vec![0; x.len()];
        quantize_codes(&x, g, &mut codes);
        let mut fake = vec![0.0; x.len()];
        fake_quantize(&x, g, &mut fake);
        let mut scaled = vec![0.0; x.len()];
        fake_quantize_scaled(&x, 8.0, g, &mut scaled);
        for (i, &v) in x.iter().enumerate() {
            let c = reference_code(g, v / g.scale);
            assert_eq!(codes[i], c, "x = {v:e}");
            assert_eq!(fake[i].to_bits(), dequantize(g, c).to_bits(), "x = {v:e}");
            let c8 = reference_code(g, v * 8.0);
            assert_eq!(
                scaled[i].to_bits(),
                dequantize(g, c8).to_bits(),
                "x = {v:e}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be ordered")]
    fn inverted_grid_panics() {
        let g = QuantGrid {
            scale: 1.0,
            offset: 0.0,
            qmin: 5,
            qmax: -5,
        };
        quantize_codes(&[1.0], g, &mut [0]);
    }
}

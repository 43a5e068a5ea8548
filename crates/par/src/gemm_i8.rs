//! Dequantization-free i8×i8→i32 GEMM: the integer compute path.
//!
//! Same three-level BLIS nest, banding and plan as [`crate::gemm`], but
//! the operands are quantized `i8` codes and the output is the exact
//! `i32` accumulation — no dequantize-to-f32 round trip. The caller
//! (`cq-nn`'s int path) applies a single scale at the output.
//!
//! # Packing layout
//!
//! Both operands are packed **sign-extended to `i16` in k-pairs** so the
//! AVX2 kernel can retire two reduction steps per `vpmaddwd`:
//!
//! * A panels: `ap[pp·MR·2 + i·2 + s] = A[i, 2pp+s]` — each 32-bit lane
//!   of a broadcast holds one row's `(k, k+1)` pair.
//! * B panels: `bp[pp·NR·2 + j·2 + s] = B[2pp+s, j]` — one 256-bit load
//!   covers 8 columns × 2 k-steps.
//!
//! The odd tail of `k` and ragged tile edges are zero-padded; padded
//! lanes contribute exact zeros to the integer accumulators.
//!
//! # Determinism
//!
//! Stronger than the f32 path: i32 addition is associative, so results
//! are **bitwise identical across SIMD levels, thread counts, tile
//! shapes and blockings** — the scalar kernel reproduces `vpmaddwd` +
//! `vpaddd` (wrapping) semantics exactly. For i8-ranged operands no
//! intermediate saturates; accumulator wraparound needs `k ≥ 2^17` at
//! worst-case magnitudes, far beyond any layer here, and even then both
//! families wrap identically.

// Micro-kernel invocations are raw-pointer calls (see microkernel.rs);
// every call site documents the bounds that make it sound.
#![allow(unsafe_code)]

use crate::gemm::PAR_MIN_MACS;
use crate::microkernel::{kernel_i8_for, KernI8Fn, MAX_MR, MAX_NR};
use crate::pool::Pool;
use crate::tune::{active_plan, GemmPlan};

/// A 64-byte-aligned i16 chunk: panel buffers built from these keep the
/// 512-bit B-panel loads on cache-line boundaries (a `Vec<i16>` is only
/// 2-aligned, which would split every zmm load across two lines).
#[derive(Clone, Copy)]
#[repr(align(64))]
struct AlignedChunk(#[allow(dead_code)] [i16; 32]); // read via raw pointer only

/// A 64-byte-aligned, zero-initialized i16 buffer for packed panels.
struct PanelBuf(Vec<AlignedChunk>);

impl PanelBuf {
    fn new(len: usize) -> PanelBuf {
        PanelBuf(vec![AlignedChunk([0; 32]); len.div_ceil(32)])
    }

    fn as_mut(&mut self) -> &mut [i16] {
        // SAFETY: AlignedChunk is exactly 32 contiguous i16s (align only
        // raises the start address), so the Vec's storage is a valid
        // i16 slice of 32·len chunks.
        unsafe {
            std::slice::from_raw_parts_mut(self.0.as_mut_ptr() as *mut i16, self.0.len() * 32)
        }
    }
}

/// A strided read-only i8 matrix view: element `(r, c)` lives at
/// `data[off + r·rs + c·cs]` (the i8 twin of `gemm::MatRef`).
#[derive(Clone, Copy)]
struct MatRefI8<'a> {
    data: &'a [i8],
    off: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRefI8<'a> {
    fn row_major(data: &'a [i8], cols: usize) -> Self {
        MatRefI8 {
            data,
            off: 0,
            rs: cols,
            cs: 1,
        }
    }

    /// View of the same matrix starting `r0` rows down.
    fn band(self, r0: usize) -> Self {
        MatRefI8 {
            off: self.off + r0 * self.rs,
            ..self
        }
    }

    #[inline(always)]
    fn idx(&self, r: usize, c: usize) -> usize {
        self.off + r * self.rs + c * self.cs
    }
}

/// Packs the `mcb × kcb` block of `a` at `(i0, p0)` into `MR`-interleaved
/// k-pair panels of sign-extended i16: panel `ib` holds rows
/// `i0 + ib·mr ..`, laid out `dst[ib·kp·mr·2 + pp·mr·2 + ii·2 + s]` for
/// k-pair `pp` (`kp = ⌈kcb/2⌉`). Ragged final panels and the odd-`k`
/// tail are zero-padded.
fn pack_a_i8(
    a: MatRefI8<'_>,
    i0: usize,
    p0: usize,
    mcb: usize,
    kcb: usize,
    mr: usize,
    dst: &mut [i16],
) {
    let kp = kcb.div_ceil(2);
    for ib in 0..mcb.div_ceil(mr) {
        let panel = &mut dst[ib * kp * mr * 2..(ib + 1) * kp * mr * 2];
        let rows_here = mr.min(mcb - ib * mr);
        if rows_here < mr {
            panel.fill(0);
        }
        for ii in 0..rows_here {
            let row = i0 + ib * mr + ii;
            let mut src = a.idx(row, p0);
            for pp in 0..kp {
                panel[pp * mr * 2 + ii * 2] = a.data[src] as i16;
                panel[pp * mr * 2 + ii * 2 + 1] = if 2 * pp + 1 < kcb {
                    a.data[src + a.cs] as i16
                } else {
                    0
                };
                src += 2 * a.cs;
            }
        }
    }
}

/// Packs the `kcb × ncb` block of `b` at `(p0, j0)` into `NR`-column
/// k-pair panels: panel `jb` holds columns `j0 + jb·nr ..`, laid out
/// `dst[jb·kp·nr·2 + pp·nr·2 + jj·2 + s]`, zero-padded on the ragged
/// column edge and the odd-`k` tail.
fn pack_b_i8(
    b: MatRefI8<'_>,
    p0: usize,
    j0: usize,
    kcb: usize,
    ncb: usize,
    nr: usize,
    dst: &mut [i16],
) {
    let kp = kcb.div_ceil(2);
    for jb in 0..ncb.div_ceil(nr) {
        let panel = &mut dst[jb * kp * nr * 2..(jb + 1) * kp * nr * 2];
        let cols_here = nr.min(ncb - jb * nr);
        if cols_here < nr {
            panel.fill(0);
        }
        for pp in 0..kp {
            let row = &mut panel[pp * nr * 2..(pp + 1) * nr * 2];
            let (p, odd_tail) = (2 * pp, 2 * pp + 1 >= kcb);
            if b.cs == 1 && !odd_tail {
                // Contiguous fast path: interleave the two source rows
                // in one pass (vectorizes to sign-extend + unpack).
                let s0 = b.idx(p0 + p, j0 + jb * nr);
                let s1 = b.idx(p0 + p + 1, j0 + jb * nr);
                let (r0, r1) = (&b.data[s0..s0 + cols_here], &b.data[s1..s1 + cols_here]);
                for (jj, pair) in row.chunks_exact_mut(2).take(cols_here).enumerate() {
                    pair[0] = r0[jj] as i16;
                    pair[1] = r1[jj] as i16;
                }
            } else {
                for s in 0..2 {
                    if p + s < kcb {
                        let mut src = b.idx(p0 + p + s, j0 + jb * nr);
                        for jj in 0..cols_here {
                            row[jj * 2 + s] = b.data[src] as i16;
                            src += b.cs;
                        }
                    } else {
                        for jj in 0..cols_here {
                            row[jj * 2 + s] = 0;
                        }
                    }
                }
            }
        }
    }
}

/// The serial three-level loop nest over one band of output rows.
/// `out` is the row-major `rows × n` band; `a` covers exactly those rows.
#[allow(clippy::too_many_arguments)]
fn gemm_i8_blocked(
    plan: &GemmPlan,
    kern: KernI8Fn,
    rows: usize,
    k: usize,
    n: usize,
    a: MatRefI8<'_>,
    b: MatRefI8<'_>,
    out: &mut [i32],
) {
    let cfg = plan.cfg;
    let (mr, nr, kc, mc, nc) = (cfg.mr, cfg.nr, cfg.kc, cfg.mc, cfg.nc);
    let kp_max = kc.min(k).div_ceil(2);

    let mut bp_buf = PanelBuf::new(kp_max * 2 * nc.min(n).div_ceil(nr) * nr);
    let mut ap_buf = PanelBuf::new(kp_max * 2 * mc.min(rows).div_ceil(mr) * mr);
    let (bp, ap) = (bp_buf.as_mut(), ap_buf.as_mut());
    let mut scratch = [0i32; MAX_MR * MAX_NR];

    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        let mut pci = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            let kp = kcb.div_ceil(2);
            pack_b_i8(b, pc, jc, kcb, ncb, nr, bp);
            // After the first reduction block, micro-kernels add into C.
            let acc = pci > 0;
            let mut ic = 0;
            while ic < rows {
                let mcb = mc.min(rows - ic);
                pack_a_i8(a, ic, pc, mcb, kcb, mr, ap);
                let mut jr = 0;
                while jr < ncb {
                    let nrb = nr.min(ncb - jr);
                    let bpanel = &bp[(jr / nr) * kp * nr * 2..];
                    let mut ir = 0;
                    while ir < mcb {
                        let mrb = mr.min(mcb - ir);
                        let apanel = &ap[(ir / mr) * kp * mr * 2..];
                        let (row, col) = (ic + ir, jc + jr);
                        if mrb == mr && nrb == nr {
                            // SAFETY: apanel/bpanel hold ≥ kp·mr·2 /
                            // kp·nr·2 i16s (full panels exist for full
                            // tiles); rows row..row+mr and cols
                            // col..col+nr are in bounds, so every write
                            // `i·n + j` from the tile base stays inside
                            // `out`.
                            unsafe {
                                kern(
                                    kp,
                                    apanel.as_ptr(),
                                    bpanel.as_ptr(),
                                    out.as_mut_ptr().add(row * n + col),
                                    n,
                                    acc,
                                );
                            }
                        } else {
                            // Ragged edge: compute the full zero-padded
                            // tile into scratch, then copy/add the valid
                            // `mrb × nrb` corner.
                            // SAFETY: panels as above (zero-padded to
                            // full size); scratch holds MAX_MR·MAX_NR ≥
                            // mr·nr i32s at ldc = nr.
                            unsafe {
                                kern(
                                    kp,
                                    apanel.as_ptr(),
                                    bpanel.as_ptr(),
                                    scratch.as_mut_ptr(),
                                    nr,
                                    false,
                                );
                            }
                            for ii in 0..mrb {
                                let o = (row + ii) * n + col;
                                let s = &scratch[ii * nr..ii * nr + nrb];
                                if acc {
                                    for (ov, &sv) in out[o..o + nrb].iter_mut().zip(s) {
                                        *ov = ov.wrapping_add(sv);
                                    }
                                } else {
                                    out[o..o + nrb].copy_from_slice(s);
                                }
                            }
                        }
                        ir += mr;
                    }
                    jr += nr;
                }
                ic += mc;
            }
            pc += kc;
            pci += 1;
        }
        jc += nc;
    }
}

/// Shared entry: handles degenerate shapes and the serial/banded split.
#[allow(clippy::too_many_arguments)]
fn run_i8(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: MatRefI8<'_>,
    b: MatRefI8<'_>,
    out: &mut [i32],
    pool: &Pool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    // Every supported tile has an i8 kernel at both levels, so a valid
    // plan always resolves one (GemmPlan::new proved the tile+level).
    let kern = kernel_i8_for(plan.simd, plan.cfg.mr, plan.cfg.nr)
        .unwrap_or_else(|| panic!("no {} i8 micro-kernel for plan", plan.simd.name()));
    let min_rows = 4 * plan.cfg.mr;
    if pool.threads() == 1 || m * n * k < PAR_MIN_MACS {
        gemm_i8_blocked(plan, kern, m, k, n, a, b, out);
    } else {
        pool.parallel_row_chunks(out, n, min_rows, |first_row, band| {
            let rows = band.len() / n;
            gemm_i8_blocked(plan, kern, rows, k, n, a.band(first_row), b, band);
        });
    }
}

/// `out[m,n] = a[m,k] × b[k,n]` over `i8` codes with exact `i32`
/// accumulation, all row-major, using the process-wide [`active_plan`].
///
/// Results are bitwise identical across SIMD levels and thread counts
/// (integer accumulation is exact — see the module docs).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
///
/// # Examples
///
/// ```
/// use cq_par::{gemm_i8, Pool};
/// let a = [1i8, 2, 3, 4, 5, 6]; // 2x3
/// let b = [7i8, 8, 9, 10, 11, 12]; // 3x2
/// let mut out = [0i32; 4];
/// gemm_i8(2, 3, 2, &a, &b, &mut out, Pool::global());
/// assert_eq!(out, [58, 64, 139, 154]);
/// ```
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32], pool: &Pool) {
    gemm_i8_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm_i8`] with an explicit plan (used by parity tests and benches).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_with_plan(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    pool: &Pool,
) {
    assert_eq!(a.len(), m * k, "gemm_i8: a length");
    assert_eq!(b.len(), k * n, "gemm_i8: b length");
    assert_eq!(out.len(), m * n, "gemm_i8: out length");
    run_i8(
        plan,
        m,
        k,
        n,
        MatRefI8::row_major(a, k),
        MatRefI8::row_major(b, n),
        out,
        pool,
    );
}

/// `out[m,n] = aᵀ × b` for `a[k,m]`, `b[k,n]` over `i8` codes (the
/// weight-gradient shape). Aᵀ is packed directly from its `[k, m]`
/// storage — no transpose materialization.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_i8_at(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32], pool: &Pool) {
    gemm_i8_at_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm_i8_at`] with an explicit plan.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_at_with_plan(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    pool: &Pool,
) {
    assert_eq!(a.len(), k * m, "gemm_i8_at: a length");
    assert_eq!(b.len(), k * n, "gemm_i8_at: b length");
    assert_eq!(out.len(), m * n, "gemm_i8_at: out length");
    // Element (i, p) of Aᵀ is a[p·m + i]: row stride 1, column stride m.
    let at = MatRefI8 {
        data: a,
        off: 0,
        rs: 1,
        cs: m,
    };
    run_i8(plan, m, k, n, at, MatRefI8::row_major(b, n), out, pool);
}

/// `out[m,n] = a × bᵀ` for `a[m,k]`, `b[n,k]` over `i8` codes (the
/// neuron-gradient shape, and the Dense forward layout: weights stored
/// `[out, in]`). Bᵀ is packed directly from its `[n, k]` storage.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_i8_bt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32], pool: &Pool) {
    gemm_i8_bt_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm_i8_bt`] with an explicit plan.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_bt_with_plan(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    pool: &Pool,
) {
    assert_eq!(a.len(), m * k, "gemm_i8_bt: a length");
    assert_eq!(b.len(), n * k, "gemm_i8_bt: b length");
    assert_eq!(out.len(), m * n, "gemm_i8_bt: out length");
    // Element (p, j) of Bᵀ is b[j·k + p]: row stride 1, column stride k.
    let bt = MatRefI8 {
        data: b,
        off: 0,
        rs: 1,
        cs: k,
    };
    run_i8(plan, m, k, n, MatRefI8::row_major(a, k), bt, out, pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{SimdLevel, SUPPORTED_TILES};
    use crate::tune::TileConfig;
    use proptest::prelude::*;

    fn naive_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[i * k + p] as i32 * b[p * n + j] as i32);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn fill_i8(len: usize, seed: u32) -> Vec<i8> {
        // Full i8 range including -128/127: integer accumulation is
        // exact, so no value restriction is needed (unlike the f32 fill).
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 24) as i8
            })
            .collect()
    }

    fn transpose_i8(src: &[i8], rows: usize, cols: usize) -> Vec<i8> {
        let mut dst = vec![0i8; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
        dst
    }

    /// Plans covering all supported tiles, degenerate blocking (every
    /// block boundary and the odd-k tail exercised) and the active
    /// level's defaults — mirrors `gemm::tests::test_plans`.
    fn test_plans() -> Vec<GemmPlan> {
        let mut levels = vec![SimdLevel::Scalar];
        let detected = crate::microkernel::simd_level();
        if detected != SimdLevel::Scalar {
            levels.push(detected);
        }
        let mut plans = Vec::new();
        for level in levels {
            for &(mr, nr) in &SUPPORTED_TILES {
                // Odd kc: the zero-padded k-pair tail fires every block.
                plans.push(
                    GemmPlan::new(
                        level,
                        TileConfig {
                            mr,
                            nr,
                            kc: 3,
                            mc: mr,
                            nc: nr,
                        },
                    )
                    .unwrap(),
                );
                plans.push(
                    GemmPlan::new(
                        level,
                        TileConfig {
                            mr,
                            nr,
                            kc: 16,
                            mc: 2 * mr + 1,
                            nc: 2 * nr + 3,
                        },
                    )
                    .unwrap(),
                );
            }
            plans.push(GemmPlan::new(level, crate::tune::default_profile(level).1).unwrap());
        }
        plans
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 7, 9),
            (13, 1, 17),
            (1, 64, 1),
            (33, 12, 41),
            (8, 100, 3),
        ] {
            let a = fill_i8(m * k, 1 + m as u32);
            let b = fill_i8(k * n, 99 + n as u32);
            let mut out = vec![0i32; m * n];
            for threads in [1, 4] {
                gemm_i8(m, k, n, &a, &b, &mut out, &Pool::new(threads));
                assert_eq!(out, naive_i8(m, k, n, &a, &b), "{m}x{k}x{n} t{threads}");
            }
        }
    }

    /// Every plan — scalar and detected level, all tiles, odd/even kc —
    /// produces the *same bits*: the i8 parity acceptance condition.
    #[test]
    fn all_plans_agree_bitwise_with_naive() {
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (17, 23, 19), (33, 40, 31)] {
            let a = fill_i8(m * k, 2 + m as u32);
            let b = fill_i8(k * n, 7 + n as u32);
            let want = naive_i8(m, k, n, &a, &b);
            for plan in test_plans() {
                let mut out = vec![-1i32; m * n];
                gemm_i8_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
                assert_eq!(out, want, "{m}x{k}x{n} plan {}", plan.describe());
            }
        }
    }

    #[test]
    fn zero_k_yields_zero_output() {
        let mut out = vec![1i32; 6];
        gemm_i8(2, 0, 3, &[], &[], &mut out, &Pool::new(2));
        assert_eq!(out, vec![0; 6]);
    }

    #[test]
    fn empty_output_is_noop() {
        let mut out = vec![];
        gemm_i8(0, 5, 3, &[], &fill_i8(15, 3), &mut out, &Pool::new(2));
        gemm_i8(3, 5, 0, &fill_i8(15, 3), &[], &mut out, &Pool::new(2));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let (m, k, n) = (9, 11, 7);
        let a_t = fill_i8(k * m, 5); // a stored as [k, m]
        let b = fill_i8(k * n, 6);
        let b_t = fill_i8(n * k, 7); // b stored as [n, k]
        let a = fill_i8(m * k, 8);
        let pool = Pool::new(2);

        let at = transpose_i8(&a_t, k, m);
        let mut got = vec![0i32; m * n];
        gemm_i8_at(m, k, n, &a_t, &b, &mut got, &pool);
        assert_eq!(got, naive_i8(m, k, n, &at, &b));

        let bt = transpose_i8(&b_t, n, k);
        gemm_i8_bt(m, k, n, &a, &b_t, &mut got, &pool);
        assert_eq!(got, naive_i8(m, k, n, &a, &bt));
    }

    #[test]
    fn transposed_variants_match_across_plans() {
        let (m, k, n) = (13, 19, 11);
        let a_t = fill_i8(k * m, 15);
        let b = fill_i8(k * n, 16);
        let b_t = fill_i8(n * k, 17);
        let a = fill_i8(m * k, 18);
        let want_at = naive_i8(m, k, n, &transpose_i8(&a_t, k, m), &b);
        let want_bt = naive_i8(m, k, n, &a, &transpose_i8(&b_t, n, k));
        for plan in test_plans() {
            let mut got = vec![0i32; m * n];
            gemm_i8_at_with_plan(&plan, m, k, n, &a_t, &b, &mut got, &Pool::new(1));
            assert_eq!(got, want_at, "gemm_i8_at plan {}", plan.describe());
            gemm_i8_bt_with_plan(&plan, m, k, n, &a, &b_t, &mut got, &Pool::new(1));
            assert_eq!(got, want_bt, "gemm_i8_bt plan {}", plan.describe());
        }
    }

    #[test]
    fn large_gemm_parallel_matches_serial_bitwise() {
        let (m, k, n) = (70, 91, 65); // > PAR_MIN_MACS, odd k, all edges
        let a = fill_i8(m * k, 11);
        let b = fill_i8(k * n, 12);
        let mut serial = vec![0i32; m * n];
        let mut par = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut serial, &Pool::new(1));
        gemm_i8(m, k, n, &a, &b, &mut par, &Pool::new(8));
        assert_eq!(serial, par);
    }

    /// Extreme magnitudes: every element ±128/±127 for maximal partial
    /// products — guards the `pmaddwd` saturation analysis (no i16
    /// saturation can occur with sign-extended i8 pairs).
    #[test]
    fn extreme_values_stay_exact() {
        let (m, k, n) = (8, 33, 16);
        let a: Vec<i8> = (0..m * k)
            .map(|i| if i % 2 == 0 { -128 } else { 127 })
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 3 == 0 { 127 } else { -128 })
            .collect();
        let want = naive_i8(m, k, n, &a, &b);
        for plan in test_plans() {
            let mut out = vec![0i32; m * n];
            gemm_i8_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
            assert_eq!(out, want, "plan {}", plan.describe());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pair-packing invariant for A on ragged/odd-k blocks:
        /// `panel[pp·mr·2 + ii·2 + s]` is `a[(i0+ib·mr+ii), (p0+2pp+s)]`
        /// inside the block and exactly 0 in padded lanes (rows past the
        /// block and the odd-k tail).
        #[test]
        fn pack_a_i8_layout_invariant(
            (rows, k) in (0usize..12, 1usize..15),
            (mri, frac_i, frac_p) in (0usize..SUPPORTED_TILES.len(), 0.0f32..1.0, 0.0f32..1.0),
            seed in 0u32..1000,
        ) {
            let mr = SUPPORTED_TILES[mri].0;
            let a = fill_i8(rows * k, seed);
            let v = MatRefI8::row_major(&a, k);
            let i0 = ((rows as f32 * frac_i) as usize).min(rows);
            let p0 = ((k as f32 * frac_p) as usize).min(k - 1);
            let mcb = rows - i0;
            let kcb = k - p0;
            let kp = kcb.div_ceil(2);
            let mut dst = vec![i16::MIN; mcb.div_ceil(mr) * kp * mr * 2];
            pack_a_i8(v, i0, p0, mcb, kcb, mr, &mut dst);
            for ib in 0..mcb.div_ceil(mr) {
                for pp in 0..kp {
                    for ii in 0..mr {
                        for s in 0..2 {
                            let got = dst[ib * kp * mr * 2 + pp * mr * 2 + ii * 2 + s];
                            let row = i0 + ib * mr + ii;
                            let p = 2 * pp + s;
                            if ib * mr + ii < mcb && p < kcb {
                                prop_assert_eq!(got, a[row * k + p0 + p] as i16);
                            } else {
                                prop_assert_eq!(got, 0);
                            }
                        }
                    }
                }
            }
        }

        /// Same invariant for B panels, including the strided (cs > 1)
        /// path used by `gemm_i8_bt`.
        #[test]
        fn pack_b_i8_layout_invariant(
            (k, n) in (1usize..15, 0usize..20),
            (nri, strided) in (0usize..SUPPORTED_TILES.len(), any::<bool>()),
            seed in 0u32..1000,
        ) {
            let nr = SUPPORTED_TILES[nri].1;
            let b = fill_i8(k * n, seed);
            let bt: Vec<i8>;
            let v = if !strided {
                MatRefI8::row_major(&b, n)
            } else {
                bt = transpose_i8(&b, k, n);
                MatRefI8 { data: &bt, off: 0, rs: 1, cs: k }
            };
            let kp = k.div_ceil(2);
            let mut dst = vec![i16::MIN; n.div_ceil(nr) * kp * nr * 2];
            pack_b_i8(v, 0, 0, k, n, nr, &mut dst);
            for jb in 0..n.div_ceil(nr) {
                for pp in 0..kp {
                    for jj in 0..nr {
                        for s in 0..2 {
                            let got = dst[jb * kp * nr * 2 + pp * nr * 2 + jj * 2 + s];
                            let col = jb * nr + jj;
                            let p = 2 * pp + s;
                            if col < n && p < k {
                                prop_assert_eq!(got, b[p * n + col] as i16, "p={} col={}", p, col);
                            } else {
                                prop_assert_eq!(got, 0);
                            }
                        }
                    }
                }
            }
        }

        /// Blocked i8 GEMM equals naive bitwise on arbitrary small shapes
        /// for every plan.
        #[test]
        fn gemm_i8_matches_naive_proptest(
            (m, k, n) in (0usize..12, 0usize..12, 0usize..12),
            seed in 0u32..1000,
        ) {
            let a = fill_i8(m * k, seed);
            let b = fill_i8(k * n, seed ^ 0xabcd);
            let want = naive_i8(m, k, n, &a, &b);
            for plan in test_plans() {
                let mut out = vec![-1i32; m * n];
                gemm_i8_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
                prop_assert_eq!(&out, &want, "{}x{}x{} plan {}", m, k, n, plan.describe());
            }
        }
    }
}

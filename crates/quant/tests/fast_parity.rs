//! Bit-exactness parity suite: the fused/parallel quantization fast path
//! must produce *identical* results to the naive reference — same codes,
//! same params, same θ records, same selection ways, bitwise-equal
//! estimated errors — across formats, block sizes (including ragged tails
//! and empty tensors), estimators, candidate strategies, and worker
//! counts.
//!
//! Run under `--test-threads 1` and `--test-threads 4` in CI (mirroring
//! the PR 2 backend-parity suite); the pool-explicit `*_fast_on` /
//! `*_on`-style entry points additionally pin worker counts to 1 and 4
//! inside each test, so parity holds regardless of the ambient
//! `CQ_THREADS` / global pool configuration.

use cq_par::Pool;
use cq_quant::{
    CandidateStrategy, E2bqmQuantizer, E2bqmSelection, ErrorEstimator, IntFormat, LdqConfig,
    LdqTensor, QuantScratch, TrainingQuantizer,
};
use cq_tensor::{Backend, Tensor};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-100.0f32..100.0),
        (-0.01f32..0.01),
        (-1e4f32..1e4),
        Just(0.0f32),
    ]
}

/// Tensors from empty up to a few blocks' worth, so ragged tails, exact
/// multiples and sub-block tensors all appear.
fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(finite_f32(), 0..max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("len matches")
    })
}

fn any_format() -> impl Strategy<Value = IntFormat> {
    prop_oneof![
        Just(IntFormat::Int4),
        Just(IntFormat::Int8),
        Just(IntFormat::Int12),
        Just(IntFormat::Int16),
    ]
}

fn any_estimator() -> impl Strategy<Value = ErrorEstimator> {
    prop_oneof![
        Just(ErrorEstimator::Rectilinear),
        Just(ErrorEstimator::Cosine),
        Just(ErrorEstimator::MeanBias),
        Just(ErrorEstimator::Mse),
    ]
}

fn any_strategy() -> impl Strategy<Value = CandidateStrategy> {
    prop_oneof![
        Just(CandidateStrategy::ClipSweep),
        Just(CandidateStrategy::ShiftableFxp),
        Just(CandidateStrategy::FormatSweep),
    ]
}

proptest! {
    /// LDQ: fused serial and pooled (1 and 4 workers) paths are
    /// structurally equal to naive — blocks, params, codes, θ records.
    #[test]
    fn ldq_fast_matches_naive(
        t in tensor_strategy(700),
        block in 1usize..300,
        fmt in any_format(),
    ) {
        let cfg = LdqConfig::new(block, fmt);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize_with(&t, cfg, Backend::Fast);
        prop_assert_eq!(&naive, &fast);
        for threads in [1usize, 4] {
            let pooled = LdqTensor::quantize_fast_on(&Pool::new(threads), &t, cfg);
            prop_assert_eq!(&naive, &pooled);
        }
        // θ records agree bit-for-bit with a direct recomputation of the
        // effective statistic on the raw block data.
        for (i, &theta) in naive.block_thetas().iter().enumerate() {
            let start = i * block;
            let end = (start + block).min(t.len());
            let raw = t.data()[start..end]
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let expected = if raw.is_finite() && raw > 0.0 { raw } else { 0.0 };
            prop_assert_eq!(theta.to_bits(), expected.to_bits());
        }
    }

    /// E²BQM: fused evaluation reproduces the naive selections exactly —
    /// same winning way, bitwise-equal error vector, identical codes.
    #[test]
    fn e2bqm_fast_matches_naive(
        t in tensor_strategy(520),
        block in 1usize..260,
        ways in 1usize..5,
        strategy in any_strategy(),
        estimator in any_estimator(),
        fmt in any_format(),
    ) {
        let q = E2bqmQuantizer::new(ways, strategy, estimator, fmt);
        let naive = q.quantize_blocks_naive(&t, block);
        let fast = q.quantize_blocks_with(&t, block, Backend::Fast);
        prop_assert_eq!(&naive, &fast);
        for threads in [1usize, 4] {
            let pooled = q.quantize_blocks_fast_on(&Pool::new(threads), &t, block);
            prop_assert_eq!(&naive, &pooled);
        }
        // Errors are compared bitwise, not approximately.
        for (a, b) in naive.iter().zip(&fast) {
            for (ea, eb) in a.errors.iter().zip(&b.errors) {
                prop_assert_eq!(ea.to_bits(), eb.to_bits());
            }
        }
    }

    /// Training quantizers: every preset's fast path (including the
    /// scratch-reusing `fake_quantize_into`) is bit-identical to naive.
    #[test]
    fn fake_quantize_fast_matches_naive(
        t in tensor_strategy(900),
        which in 0usize..7,
    ) {
        let q = match which {
            0 => TrainingQuantizer::fp32(),
            1 => TrainingQuantizer::zhu2019(),
            2 => TrainingQuantizer::zhu2019_hqt(),
            3 => TrainingQuantizer::zhang2020(),
            4 => TrainingQuantizer::zhang2020_hqt(),
            5 => TrainingQuantizer::zhong2020(),
            _ => TrainingQuantizer::ldq_only(96, IntFormat::Int8),
        };
        let naive = q.fake_quantize_naive(&t);
        let fast = q.fake_quantize_fast(&t);
        prop_assert_eq!(naive.data(), fast.data());

        // Scratch reuse across calls must not change results.
        let mut out = Vec::new();
        let mut scratch = QuantScratch::new();
        for _ in 0..2 {
            q.fake_quantize_into(&t, &mut out, &mut scratch);
            prop_assert_eq!(naive.data(), out.as_slice());
        }
    }

    /// Degenerate blocks (all-zero, and tensors shorter than one block)
    /// agree between backends, including the recorded θ.
    #[test]
    fn degenerate_blocks_agree(len in 0usize..40, block in 1usize..70) {
        let t = Tensor::zeros(&[len]);
        let cfg = LdqConfig::new(block, IntFormat::Int8);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize_with(&t, cfg, Backend::Fast);
        prop_assert_eq!(&naive, &fast);
        prop_assert!(naive.block_thetas().iter().all(|&th| th == 0.0));
    }
}

/// Non-finite contamination (NaN / ±∞) must take the same degenerate-θ
/// path on both backends.
#[test]
fn non_finite_blocks_agree() {
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut data = vec![0.5f32; 10];
        data[3] = poison;
        let t = Tensor::from_vec(data, &[10]).unwrap();
        let cfg = LdqConfig::new(4, IntFormat::Int8);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize_with(&t, cfg, Backend::Fast);
        assert_eq!(naive, fast, "poison {poison}");

        let q = E2bqmQuantizer::hardware_default();
        let sel_naive = q.quantize_blocks_naive(&t, 4);
        let sel_fast = q.quantize_blocks_with(&t, 4, Backend::Fast);
        // NaN estimated errors are legitimate here (poisoned inputs), so
        // `PartialEq` on the error vectors would reject even identical
        // results — compare bitwise instead.
        assert_eq!(sel_naive.len(), sel_fast.len(), "poison {poison}");
        for (i, (a, b)) in sel_naive.iter().zip(&sel_fast).enumerate() {
            assert_eq!(a.selected, b.selected, "poison {poison} block {i}");
            assert_eq!(a.way, b.way, "poison {poison} block {i}");
            let ea: Vec<u64> = a.errors.iter().map(|e| e.to_bits()).collect();
            let eb: Vec<u64> = b.errors.iter().map(|e| e.to_bits()).collect();
            assert_eq!(ea, eb, "poison {poison} block {i}");
        }
    }
}

/// Subnormal-magnitude blocks: θ (and hence every candidate scale) lands
/// in or near the f32 subnormal range, where the fused path's one-division
/// shortcut is *not* provably exact — its runtime power-of-two check must
/// reject the ladder and fall back to per-way division, keeping results
/// bit-identical to naive.
#[test]
fn subnormal_blocks_agree() {
    let data: Vec<f32> = (0..96)
        .map(|i| (i as f32 - 48.0) * 1.3e-40 + if i % 7 == 0 { 4.7e-41 } else { 0.0 })
        .collect();
    let t = Tensor::from_vec(data, &[96]).unwrap();

    let cfg = LdqConfig::new(24, IntFormat::Int8);
    assert_eq!(
        LdqTensor::quantize_naive(&t, cfg),
        LdqTensor::quantize_with(&t, cfg, Backend::Fast)
    );

    for strategy in [
        CandidateStrategy::ClipSweep,
        CandidateStrategy::ShiftableFxp,
        CandidateStrategy::FormatSweep,
    ] {
        for estimator in [
            ErrorEstimator::Rectilinear,
            ErrorEstimator::Cosine,
            ErrorEstimator::MeanBias,
            ErrorEstimator::Mse,
        ] {
            let q = E2bqmQuantizer::new(4, strategy, estimator, IntFormat::Int8);
            let naive = q.quantize_blocks_naive(&t, 24);
            let fast = q.quantize_blocks_with(&t, 24, Backend::Fast);
            assert_eq!(naive, fast, "{strategy:?}/{estimator:?}");
            for (a, b) in naive.iter().zip(&fast) {
                for (ea, eb) in a.errors.iter().zip(&b.errors) {
                    assert_eq!(ea.to_bits(), eb.to_bits(), "{strategy:?}/{estimator:?}");
                }
            }
        }
    }
}

/// A tensor large enough to cross the parallel threshold must still match
/// naive exactly through the public dispatching entry points.
#[test]
fn large_tensor_crosses_parallel_threshold() {
    let n = (1 << 16) + 333; // > PAR_MIN_ELEMS, ragged tail
    let t = cq_tensor::init::long_tailed(&[n], 0.1, 0.01, 30.0, 17);
    let cfg = LdqConfig::new(1024, IntFormat::Int8);
    assert_eq!(
        LdqTensor::quantize_naive(&t, cfg),
        LdqTensor::quantize_with(&t, cfg, Backend::Fast)
    );
    let q = E2bqmQuantizer::hardware_default();
    assert_eq!(
        q.quantize_blocks_naive(&t, 1024),
        q.quantize_blocks_with(&t, 1024, Backend::Fast)
    );
    let tq = TrainingQuantizer::zhang2020_hqt();
    assert_eq!(
        tq.fake_quantize_naive(&t).data(),
        tq.fake_quantize_fast(&t).data()
    );
}

/// Special and edge values: NaN, ±∞, ±0, subnormals and ±1e30 mixed into
/// ordinary magnitudes. θ ignores NaN, degenerates on ±∞ and saturates
/// every narrow grid on ±1e30, so these reach every clamp and NaN branch
/// of the kernels.
fn edge_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        finite_f32(),
        finite_f32(),
        finite_f32(),
        finite_f32(),
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(-0.0f32),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        (1u32..0x0080_0000).prop_map(|b| -f32::from_bits(b)),
        Just(1e30f32),
        Just(-1e30f32),
    ]
}

fn edge_tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(edge_f32(), 0..max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("len matches")
    })
}

/// Selections compared bit for bit: codes, params, way, and the error
/// vector by `to_bits` (NaN errors from poisoned blocks are legitimate,
/// and `PartialEq` would reject identical NaNs).
fn selections_bitwise_equal(a: &[E2bqmSelection], b: &[E2bqmSelection]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} vs {} blocks", a.len(), b.len()));
    }
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        let ea: Vec<u64> = a.errors.iter().map(|e| e.to_bits()).collect();
        let eb: Vec<u64> = b.errors.iter().map(|e| e.to_bits()).collect();
        if a.selected != b.selected || a.way != b.way || ea != eb {
            return Err(format!("block {i}: {a:?} vs {b:?}"));
        }
    }
    Ok(())
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The six published presets.
fn presets() -> [TrainingQuantizer; 6] {
    [
        TrainingQuantizer::zhu2019(),
        TrainingQuantizer::zhu2019_hqt(),
        TrainingQuantizer::zhang2020(),
        TrainingQuantizer::zhang2020_hqt(),
        TrainingQuantizer::yang2020(),
        TrainingQuantizer::zhong2020(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// E²BQM on edge inputs, every estimator × strategy × format: the
    /// fused path (serial and pooled) matches naive bit for bit. Up to
    /// six ways, so the estimator folds also run a partial second group
    /// of ways.
    #[test]
    fn e2bqm_fast_matches_naive_on_edge_inputs(
        t in edge_tensor_strategy(300),
        block in 1usize..130,
        ways in 1usize..7,
        strategy in any_strategy(),
        estimator in any_estimator(),
        fmt in any_format(),
    ) {
        let q = E2bqmQuantizer::new(ways, strategy, estimator, fmt);
        let naive = q.quantize_blocks_naive(&t, block);
        let fast = q.quantize_blocks_with(&t, block, Backend::Fast);
        prop_assert_eq!(selections_bitwise_equal(&naive, &fast), Ok(()));
        let pooled = q.quantize_blocks_fast_on(&Pool::new(4), &t, block);
        prop_assert_eq!(selections_bitwise_equal(&naive, &pooled), Ok(()));
    }

    /// LDQ and every training preset on edge inputs: bitwise equal
    /// outputs (`to_bits`, so a `-0.0` for `+0.0` fails too).
    #[test]
    fn fake_quantize_fast_matches_naive_on_edge_inputs(
        t in edge_tensor_strategy(600),
        block in 1usize..300,
        fmt in any_format(),
    ) {
        let cfg = LdqConfig::new(block, fmt);
        prop_assert_eq!(
            LdqTensor::quantize_naive(&t, cfg),
            LdqTensor::quantize_with(&t, cfg, Backend::Fast)
        );
        let ldq = TrainingQuantizer::ldq_only(block, fmt);
        for q in presets().into_iter().chain([ldq]) {
            let naive = q.fake_quantize_naive(&t);
            let fast = q.fake_quantize_fast(&t);
            prop_assert_eq!(bits(naive.data()), bits(fast.data()), "{}", q.name());
        }
    }
}

/// Blocks whose θ makes `fmt`'s scale an exact power of two, so
/// `(k + ½)·scale` divides to an exact half-step tie: ties and their
/// one-ulp neighbours for the whole code range, plus −0.0, subnormals,
/// NaN and ±∞-free filler. Odd length, so no kernel sees a whole number
/// of vectors.
fn tie_block(fmt: IntFormat, exp: i32) -> Tensor {
    let scale = 2f32.powi(exp);
    let qmax = fmt.qmax();
    let mut v = vec![qmax as f32 * scale, -0.0, f32::from_bits(3), f32::NAN];
    let step = (qmax / 40).max(1);
    let mut k = -qmax;
    while k < qmax {
        let tie = (k as f32 + 0.5) * scale;
        v.extend([
            tie,
            f32::from_bits(tie.to_bits() + 1),
            f32::from_bits(tie.to_bits() - 1),
        ]);
        k += step;
    }
    if v.len() % 2 == 0 {
        v.push(0.5 * scale);
    }
    let n = v.len();
    Tensor::from_vec(v, &[n]).expect("len matches")
}

/// Exact half-step ties at every format's scale, through every
/// estimator × strategy × format and every preset: fused equals naive
/// bit for bit.
#[test]
fn half_step_ties_agree_for_every_format() {
    let strategies = [
        CandidateStrategy::ClipSweep,
        CandidateStrategy::ShiftableFxp,
        CandidateStrategy::FormatSweep,
    ];
    let estimators = [
        ErrorEstimator::Rectilinear,
        ErrorEstimator::Cosine,
        ErrorEstimator::MeanBias,
        ErrorEstimator::Mse,
    ];
    for tie_fmt in IntFormat::ALL {
        for exp in [-12, 0, 7] {
            let t = tie_block(tie_fmt, exp);
            let n = t.len();
            for fmt in IntFormat::ALL {
                let cfg = LdqConfig::new(n, fmt);
                assert_eq!(
                    LdqTensor::quantize_naive(&t, cfg),
                    LdqTensor::quantize_with(&t, cfg, Backend::Fast),
                    "ldq {tie_fmt}@2^{exp} {fmt}"
                );
                for strategy in strategies {
                    for estimator in estimators {
                        let q = E2bqmQuantizer::new(4, strategy, estimator, fmt);
                        let naive = q.quantize_blocks_naive(&t, n);
                        let fast = q.quantize_blocks_with(&t, n, Backend::Fast);
                        assert_eq!(
                            selections_bitwise_equal(&naive, &fast),
                            Ok(()),
                            "{tie_fmt}@2^{exp} {strategy:?}/{estimator:?}/{fmt}"
                        );
                    }
                }
            }
            for q in presets() {
                assert_eq!(
                    bits(q.fake_quantize_naive(&t).data()),
                    bits(q.fake_quantize_fast(&t).data()),
                    "{} {tie_fmt}@2^{exp}",
                    q.name()
                );
            }
        }
    }
}

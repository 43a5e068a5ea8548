//! The `CQ_QUANT_PATH` knob: dequantization-free integer forward passes.
//!
//! With [`QuantPath::Int8`] selected, [`crate::QuantCtx`] routes
//! [`crate::Dense`] and [`crate::Conv2d`] forward passes through the
//! integer-domain pipeline: one [`cq_quant::IntDomainQuantizer`] pass per
//! operand emits i8 codes plus an exact power-of-two scale, the MAC runs
//! in `cq_par::gemm_i8` / `cq_par::conv::conv2d_i8` (i8×i8→i32), and a
//! single `acc · (s_x·s_w)` rescale lands the f32 output — no per-element
//! dequantize between quantization and compute. Layers whose block
//! statistics fall off the power-of-two ladder (subnormal θ, non-exact
//! base scale) fall back to the f32 fake-quantize path for that pass and
//! are counted in [`IntPathStats`].
//!
//! The knob is strictly validated: `CQ_QUANT_PATH` must be unset, empty,
//! `"fp32"` or `"int8"` — anything else aborts the process at first use
//! rather than silently training on the wrong path.

use cq_obs::knob::{knob, Blank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which arithmetic domain quantized layer forwards execute in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantPath {
    /// Quantize-dequantize to f32 and run the f32 kernels (the
    /// conventional fake-quantization dataflow). Default.
    #[default]
    Fp32,
    /// Integer-domain forward: i8 codes straight into i8×i8→i32 kernels,
    /// one rescale at the output. Falls back to [`QuantPath::Fp32`]
    /// per layer-pass when the scale ladder guard rejects a block.
    Int8,
}

impl QuantPath {
    /// Parses `"fp32"` / `"int8"` (case-insensitive).
    pub fn parse(s: &str) -> Option<QuantPath> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fp32" => Some(QuantPath::Fp32),
            "int8" => Some(QuantPath::Int8),
            _ => None,
        }
    }

    /// Short display name (`"fp32"` / `"int8"`).
    pub fn name(&self) -> &'static str {
        match self {
            QuantPath::Fp32 => "fp32",
            QuantPath::Int8 => "int8",
        }
    }
}

/// What `CQ_QUANT_PATH` accepts.
const QUANT_PATH_EXPECTED: &str = "\"fp32\" or \"int8\"";

/// The process-wide default quant path from `CQ_QUANT_PATH`, resolved
/// once. Panics on an invalid value.
pub fn env_quant_path() -> QuantPath {
    static ENV: OnceLock<QuantPath> = OnceLock::new();
    *ENV.get_or_init(|| {
        knob(
            "CQ_QUANT_PATH",
            Blank::Unset,
            QUANT_PATH_EXPECTED,
            QuantPath::parse,
        )
        .unwrap_or_default()
    })
}

/// Counters for the integer path, shared by every clone of a
/// [`crate::QuantCtx`]: how many layer passes ran fully in the integer
/// domain vs fell back to f32 because an operand fell off the
/// power-of-two ladder.
#[derive(Debug, Default)]
pub struct IntPathStats {
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl IntPathStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        IntPathStats::default()
    }

    /// Records one layer pass that ran on the integer path.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one layer pass that fell back to f32.
    pub(crate) fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Layer passes that ran fully in the integer domain.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Layer passes that fell back to the f32 fake-quantize path.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Fraction of attempted integer-path passes that stayed on the
    /// ladder, `None` before any attempt.
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.hits();
        let total = h + self.fallbacks();
        (total > 0).then(|| h as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_names() {
        assert_eq!(QuantPath::parse("fp32"), Some(QuantPath::Fp32));
        assert_eq!(QuantPath::parse(" Int8 "), Some(QuantPath::Int8));
        assert_eq!(QuantPath::parse("INT8"), Some(QuantPath::Int8));
        assert_eq!(QuantPath::parse("int4"), None);
        assert_eq!(QuantPath::Fp32.name(), "fp32");
        assert_eq!(QuantPath::Int8.name(), "int8");
    }

    #[test]
    fn env_resolution_rejects_unknown_values() {
        let read = |v: &str| {
            cq_obs::knob::parse_knob(
                "CQ_QUANT_PATH",
                Some(v.into()),
                Blank::Unset,
                QUANT_PATH_EXPECTED,
                QuantPath::parse,
            )
        };
        assert_eq!(QuantPath::default(), QuantPath::Fp32);
        assert_eq!(read("  "), Ok(None));
        assert_eq!(read(" FP32 "), Ok(Some(QuantPath::Fp32)));
        let err = read("int7").unwrap_err().to_string();
        assert!(err.contains("invalid CQ_QUANT_PATH"), "{err}");
        assert!(err.contains("int7"), "{err}");
        assert!(err.contains("fp32"), "{err}");
        assert!(err.contains("int8"), "{err}");
    }

    #[test]
    fn stats_hit_rate() {
        let s = IntPathStats::new();
        assert_eq!(s.hit_rate(), None);
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_fallback();
        assert_eq!(s.hits(), 3);
        assert_eq!(s.fallbacks(), 1);
        assert_eq!(s.hit_rate(), Some(0.75));
    }
}

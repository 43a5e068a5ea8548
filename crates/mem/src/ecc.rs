//! SECDED ECC and transient-fault modeling on the DDR path.
//!
//! Training runs are long enough that DRAM soft errors matter: a multi-day
//! run at realistic bit-error rates sees many single-bit upsets, and a
//! quantized-training accelerator is particularly exposed because a flipped
//! exponent bit in a gradient or quantizer statistic is amplified by the
//! scale arithmetic. This module adds two orthogonal, plain-data knobs to
//! [`DdrConfig`](crate::DdrConfig):
//!
//! * [`EccConfig`] — a SECDED (single-error-correct, double-error-detect)
//!   Hamming(72,64) side-band model. Every 8-byte word moved over the bus
//!   is checked; the checker pipeline, correction stalls and check-bit
//!   transfer energy are charged per access into [`EccStats`] *and* into
//!   the model's ordinary [`MemStats`](crate::MemStats) totals.
//! * [`FaultModel`] — a deterministic, seedable transient-fault process
//!   that samples bit flips on transferred data at a configured bit error
//!   rate (BER). Sampling is counter-based (hash of `seed` + draw index),
//!   so a given seed and access sequence always produces the same faults,
//!   independent of global state.
//!
//! Both default to off, and the off path is **exactly** zero cost: no extra
//! cycles, no extra energy, no statistics — a model with `EccMode::Off` and
//! no fault process is bit-identical to one built before this module
//! existed.

use cq_sim::{CanonicalKey, KeyBytes};
use std::hash::Hash;

/// Bytes per ECC word (Hamming(72,64) protects 64 data bits).
pub const ECC_WORD_BYTES: usize = 8;

/// ECC protection mode of the DDR interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccMode {
    /// No protection: injected faults pass through silently.
    #[default]
    Off,
    /// SECDED Hamming(72,64): 8 check bits per 64 data bits. Single-bit
    /// errors are corrected, double-bit errors detected, wider errors can
    /// alias (miscorrect or be detected, by flip parity).
    Secded,
}

/// Cost constants of the ECC side band.
///
/// Cycles are memory-controller cycles; energies are pJ and are charged on
/// top of the ordinary per-byte DRAM transfer energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Protection mode.
    pub mode: EccMode,
    /// Extra cycles per column access for the (pipelined) syndrome check.
    pub check_cycles: u64,
    /// Extra cycles to correct a single-bit error.
    pub correct_cycles: u64,
    /// Encode/check logic energy per protected data byte, pJ.
    pub check_pj_per_byte: f64,
    /// Energy per corrected word, pJ.
    pub correct_pj: f64,
    /// Fractional extra transfer energy for moving the check bits
    /// (8 check bits per 64 data bits = 0.125 for SECDED).
    pub storage_overhead: f64,
}

impl EccConfig {
    /// ECC disabled; all cost constants zero.
    pub fn off() -> Self {
        EccConfig {
            mode: EccMode::Off,
            check_cycles: 0,
            correct_cycles: 0,
            check_pj_per_byte: 0.0,
            correct_pj: 0.0,
            storage_overhead: 0.0,
        }
    }

    /// SECDED with default cost constants: a 1-cycle pipelined checker per
    /// column access, 3 cycles per correction, 2 pJ/B of check logic and
    /// 12.5% check-bit transfer overhead.
    pub fn secded() -> Self {
        EccConfig {
            mode: EccMode::Secded,
            check_cycles: 1,
            correct_cycles: 3,
            check_pj_per_byte: 2.0,
            correct_pj: 500.0,
            storage_overhead: ECC_WORD_BYTES as f64 / 64.0,
        }
    }

    /// Whether the mode is [`EccMode::Secded`].
    pub fn is_on(&self) -> bool {
        self.mode == EccMode::Secded
    }
}

impl CanonicalKey for EccConfig {
    fn write_key(&self, out: &mut KeyBytes) {
        let EccConfig {
            mode,
            check_cycles,
            correct_cycles,
            check_pj_per_byte,
            correct_pj,
            storage_overhead,
        } = self;
        (mode, check_cycles, correct_cycles).hash(out);
        let floats = [check_pj_per_byte, correct_pj, storage_overhead];
        floats.map(|f| f.to_bits()).hash(out);
    }
}

impl Default for EccConfig {
    fn default() -> Self {
        EccConfig::off()
    }
}

/// A deterministic transient-fault process on the DDR data path.
///
/// Plain data (`Copy + PartialEq`) so it can live inside
/// [`DdrConfig`](crate::DdrConfig) and survive the `Clone`/comparison uses
/// the simulator relies on. The draw counter lives in the
/// [`DdrModel`](crate::DdrModel), not here, so two models built from the
/// same config replay identical fault streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Bit error rate: probability that any single transferred bit flips.
    pub ber: f64,
    /// Seed of the counter-based sampling stream.
    pub seed: u64,
}

impl FaultModel {
    /// A fault process with the given bit error rate and seed.
    pub fn new(ber: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ber) && ber.is_finite(),
            "bit error rate must be in [0, 1], got {ber}"
        );
        FaultModel { ber, seed }
    }
}

impl CanonicalKey for FaultModel {
    fn write_key(&self, out: &mut KeyBytes) {
        let FaultModel { ber, seed } = self;
        (ber.to_bits(), seed).hash(out);
    }
}

/// Per-access ECC and fault accounting.
///
/// `energy_pj` here is an attribution breakdown: the same energy is also
/// included in [`MemStats::energy_pj`](crate::MemStats), so totals read
/// from `MemStats` already contain the ECC overhead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EccStats {
    /// 8-byte words that passed through the checker.
    pub words_checked: u64,
    /// Bit flips the fault process injected.
    pub bit_flips_injected: u64,
    /// Single-bit errors corrected by SECDED.
    pub corrected: u64,
    /// Double-bit (and even wider even-parity) errors detected but not
    /// correctable.
    pub detected_uncorrectable: u64,
    /// Odd ≥3-bit errors that alias to a valid single-bit syndrome and are
    /// "corrected" wrongly (silent data corruption under ECC).
    pub miscorrected: u64,
    /// Bit flips that passed through unprotected (ECC off).
    pub silent_bit_flips: u64,
    /// Extra cycles spent in the syndrome checker.
    pub check_cycles: u64,
    /// Extra cycles spent correcting.
    pub correct_cycles: u64,
    /// ECC-attributed energy in pJ (subset of `MemStats::energy_pj`).
    pub energy_pj: f64,
}

impl EccStats {
    /// Total extra cycles the ECC path added.
    pub fn total_cycles(&self) -> u64 {
        self.check_cycles + self.correct_cycles
    }

    /// Errors that corrupt data despite (or because of) the ECC setting:
    /// silent flips when off, plus miscorrections when on.
    pub fn silent_corruptions(&self) -> u64 {
        self.silent_bit_flips + self.miscorrected
    }

    /// Whether any activity (check or fault) was recorded.
    pub fn is_empty(&self) -> bool {
        *self == EccStats::default()
    }
}

/// Stateless SplitMix64 finalizer used for counter-based fault sampling.
pub(crate) fn hash64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash word to a uniform f64 in `[0, 1)`.
pub(crate) fn hash_to_unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_free() {
        let e = EccConfig::default();
        assert_eq!(e.mode, EccMode::Off);
        assert!(!e.is_on());
        assert_eq!(e.check_cycles, 0);
        assert_eq!(e.correct_pj, 0.0);
    }

    #[test]
    fn secded_costs_nonzero() {
        let e = EccConfig::secded();
        assert!(e.is_on());
        assert!(e.check_cycles > 0);
        assert!((e.storage_overhead - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bit error rate")]
    fn fault_model_rejects_bad_ber() {
        FaultModel::new(1.5, 0);
    }

    #[test]
    fn hash_is_deterministic_and_unit_bounded() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(42), hash64(43));
        for i in 0..1000 {
            let u = hash_to_unit(hash64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn stats_helpers() {
        let mut s = EccStats::default();
        assert!(s.is_empty());
        s.check_cycles = 2;
        s.correct_cycles = 3;
        s.silent_bit_flips = 1;
        s.miscorrected = 2;
        assert_eq!(s.total_cycles(), 5);
        assert_eq!(s.silent_corruptions(), 3);
        assert!(!s.is_empty());
    }
}

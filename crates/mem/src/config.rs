//! DDR geometry and timing configuration.

use crate::ecc::{EccConfig, FaultModel};
use cq_sim::{CanonicalKey, KeyBytes};
use std::fmt;
use std::hash::Hash;

/// Timing parameters of the DDR device, in memory-controller clock cycles.
///
/// Defaults model a DDR3-1066-class part (the paper's 17.06 GB/s
/// configuration is an 8-byte bus at 2133 MT/s, i.e. a 1066 MHz DDR clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DdrTiming {
    /// RAS-to-CAS delay (row activate to column access).
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Column access (CAS) latency.
    pub t_cl: u64,
    /// Minimum row-active time (ACT to PRE).
    pub t_ras: u64,
    /// Cycles to transfer one burst (BL8 on a DDR bus = 4 controller cycles).
    pub t_burst: u64,
    /// Refresh interval (average cycles between REF commands).
    pub t_refi: u64,
    /// Refresh cycle time (cycles the device is blocked per REF).
    pub t_rfc: u64,
}

impl Default for DdrTiming {
    fn default() -> Self {
        // DDR3-2133-ish timings at a 1066 MHz controller clock.
        DdrTiming {
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            t_ras: 36,
            t_burst: 4,
            t_refi: 8320, // 7.8 us
            t_rfc: 187,   // 175 ns
        }
    }
}

/// Geometry + bandwidth configuration of the memory system.
///
/// # Examples
///
/// ```
/// use cq_mem::DdrConfig;
///
/// let c = DdrConfig::cambricon_q();
/// assert!((c.peak_bandwidth_gbps() - 17.06).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Number of independent banks.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: usize,
    /// Data-bus width in bytes.
    pub bus_bytes: usize,
    /// Memory-controller clock in MHz (data rate is 2× for DDR).
    pub freq_mhz: f64,
    /// Timing parameters.
    pub timing: DdrTiming,
    /// ECC protection of the data path (off by default, exactly free).
    pub ecc: EccConfig,
    /// Optional transient-fault process on transferred data. `None` (the
    /// default) means the fault path is never sampled.
    pub fault: Option<FaultModel>,
}

impl DdrConfig {
    /// The paper's edge configuration: 17.06 GB/s (8-byte bus, 1066 MHz DDR).
    pub fn cambricon_q() -> Self {
        DdrConfig {
            banks: 8,
            row_bytes: 2048,
            bus_bytes: 8,
            freq_mhz: 1066.0,
            timing: DdrTiming::default(),
            ecc: EccConfig::off(),
            fault: None,
        }
    }

    /// The same configuration with the given ECC setting.
    pub fn with_ecc(mut self, ecc: EccConfig) -> Self {
        self.ecc = ecc;
        self
    }

    /// The same configuration with a transient-fault process attached.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = Some(fault);
        self
    }

    /// A configuration with bandwidth scaled by an integer factor, used for
    /// Cambricon-Q-T (4×: 68.24 GB/s) and Cambricon-Q-V (16×: 272.96 GB/s)
    /// in Fig. 13. Scaling widens the bus (more channels) rather than the
    /// clock, like the paper's multi-channel scaling.
    pub fn scaled_bandwidth(&self, factor: usize) -> Self {
        let mut c = *self;
        c.bus_bytes *= factor;
        c.banks *= factor;
        c
    }

    /// Peak bandwidth in GB/s (DDR: two transfers per clock).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.bus_bytes as f64 * self.freq_mhz * 2.0 * 1e6 / 1e9
    }

    /// Bytes transferred per controller clock at peak.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bus_bytes as f64 * 2.0
    }

    /// Bytes per burst (BL8).
    pub fn burst_bytes(&self) -> usize {
        self.bus_bytes * 8
    }
}

impl CanonicalKey for DdrConfig {
    fn write_key(&self, out: &mut KeyBytes) {
        let DdrConfig {
            banks,
            row_bytes,
            bus_bytes,
            freq_mhz,
            timing,
            ecc,
            fault,
        } = self;
        (banks, row_bytes, bus_bytes, freq_mhz.to_bits(), timing).hash(out);
        ecc.write_key(out);
        fault.is_some().hash(out);
        if let Some(fault) = fault {
            fault.write_key(out);
        }
    }
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig::cambricon_q()
    }
}

impl fmt::Display for DdrConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DDR {:.2} GB/s ({} banks, {} B rows)",
            self.peak_bandwidth_gbps(),
            self.banks,
            self.row_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cambricon_q_bandwidth() {
        let c = DdrConfig::cambricon_q();
        assert!((c.peak_bandwidth_gbps() - 17.056).abs() < 0.01);
        assert_eq!(c.bytes_per_cycle(), 16.0);
        assert_eq!(c.burst_bytes(), 64);
    }

    #[test]
    fn scaling_matches_fig13() {
        let base = DdrConfig::cambricon_q();
        let t = base.scaled_bandwidth(4);
        let v = base.scaled_bandwidth(16);
        assert!((t.peak_bandwidth_gbps() - 68.2).abs() < 0.1);
        assert!((v.peak_bandwidth_gbps() - 272.9).abs() < 0.5);
    }

    #[test]
    fn timing_defaults_sane() {
        let t = DdrTiming::default();
        assert!(t.t_ras >= t.t_rcd);
        assert!(t.t_refi > t.t_rfc);
    }

    #[test]
    fn display_mentions_bandwidth() {
        assert!(DdrConfig::cambricon_q().to_string().contains("GB/s"));
    }
}

//! Cambricon-Q hardware configuration.

use cq_mem::DdrConfig;
use cq_quant::IntFormat;
use cq_sim::{CanonicalKey, KeyBytes};
use std::fmt;
use std::hash::Hash;

/// Scaling variants of the architecture (paper §VII.A, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleVariant {
    /// The edge configuration: one 64×64 PE array, 17.06 GB/s.
    Edge,
    /// Cambricon-Q-T: eight PE arrays (16 TOPS INT8), 68.24 GB/s —
    /// compared against GTX 1080Ti.
    T,
    /// Cambricon-Q-V: an 8×8 mesh of PE arrays (128 TOPS INT8),
    /// 272.96 GB/s — compared against V100.
    V,
}

impl ScaleVariant {
    /// Number of 64×64 PE arrays.
    pub fn pe_arrays(&self) -> usize {
        match self {
            ScaleVariant::Edge => 1,
            ScaleVariant::T => 8,
            ScaleVariant::V => 64,
        }
    }

    /// Memory bandwidth scale factor over the edge configuration.
    pub fn bandwidth_factor(&self) -> usize {
        match self {
            ScaleVariant::Edge => 1,
            ScaleVariant::T => 4,
            ScaleVariant::V => 16,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ScaleVariant::Edge => "Cambricon-Q",
            ScaleVariant::T => "Cambricon-Q-T",
            ScaleVariant::V => "Cambricon-Q-V",
        }
    }
}

impl fmt::Display for ScaleVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of a Cambricon-Q chip instance.
///
/// # Examples
///
/// ```
/// use cq_accel::CqConfig;
///
/// let c = CqConfig::edge();
/// // 64x64 INT4 PEs at 1 GHz = 8 TOPS INT4 = 2 TOPS INT8.
/// assert!((c.peak_tops_int8() - 2.048).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CqConfig {
    /// PE array rows (N).
    pub pe_rows: usize,
    /// PE array columns (M).
    pub pe_cols: usize,
    /// Number of PE arrays (scaling variants).
    pub pe_arrays: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// NBin capacity in KiB.
    pub nbin_kb: usize,
    /// SB capacity in KiB.
    pub sb_kb: usize,
    /// NBout capacity in KiB.
    pub nbout_kb: usize,
    /// SQU buffer size in bytes (each of the two double buffers).
    pub squ_buf_bytes: usize,
    /// SQU vector lanes (elements processed per cycle per unit). Sized so
    /// the 4-way multiplexed Quant Unit keeps pace with the DDR bus
    /// (64 lanes / 4 ways = 16 elements/cycle ≈ 17 B/cycle at INT8).
    pub squ_lanes: usize,
    /// E²BQM candidate ways (time-multiplexed in the SQU).
    pub e2bqm_ways: usize,
    /// Parallel SQU instances (one per memory channel; scaled variants
    /// replicate the SQU alongside the widened memory system).
    pub squ_units: usize,
    /// QBC buffer-line width in 8-bit words.
    pub qbc_line_words: usize,
    /// Training data format for activations/weights/gradients.
    pub train_format: IntFormat,
    /// Whether the NDP engine performs weight update in memory.
    pub ndp_enabled: bool,
    /// Memory configuration.
    pub ddr: DdrConfig,
}

impl CqConfig {
    /// The paper's edge configuration (§V.B): 64×64 4-bit PE array at
    /// 1 GHz, 256 KB NBin / 512 KB SB / 256 KB NBout, 17.06 GB/s DDR,
    /// INT8 training, NDP enabled.
    pub fn edge() -> Self {
        CqConfig {
            pe_rows: 64,
            pe_cols: 64,
            pe_arrays: 1,
            freq_ghz: 1.0,
            nbin_kb: 256,
            sb_kb: 512,
            nbout_kb: 256,
            squ_buf_bytes: 4096,
            squ_lanes: 64,
            e2bqm_ways: 4,
            squ_units: 1,
            qbc_line_words: 32,
            train_format: IntFormat::Int8,
            ndp_enabled: true,
            ddr: DdrConfig::cambricon_q(),
        }
    }

    /// A scaled variant (Fig. 13).
    pub fn scaled(variant: ScaleVariant) -> Self {
        let mut c = CqConfig::edge();
        c.pe_arrays = variant.pe_arrays();
        c.squ_units = variant.bandwidth_factor();
        c.ddr = c.ddr.scaled_bandwidth(variant.bandwidth_factor());
        c
    }

    /// The same configuration with the NDP engine disabled (§VII.D
    /// ablation: weight update runs through the acceleration core).
    pub fn without_ndp(mut self) -> Self {
        self.ndp_enabled = false;
        self
    }

    /// The same configuration trained at a different width (§VII.C).
    pub fn with_format(mut self, format: IntFormat) -> Self {
        self.train_format = format;
        self
    }

    /// INT4 MACs per cycle across all PE arrays.
    pub fn macs_per_cycle_int4(&self) -> u64 {
        (self.pe_rows * self.pe_cols * self.pe_arrays) as u64
    }

    /// Serial passes the 4-bit PEs need per MAC at the training width
    /// (both operands split into 4-bit nibbles: (bits/4)² partial
    /// products).
    pub fn passes_per_mac(&self) -> u64 {
        let nibbles = (self.train_format.bits() / 4) as u64;
        nibbles * nibbles
    }

    /// Effective MACs per cycle at the training width.
    pub fn macs_per_cycle(&self) -> f64 {
        self.macs_per_cycle_int4() as f64 / self.passes_per_mac() as f64
    }

    /// Peak throughput in TOPS at INT8 (2 ops per MAC).
    pub fn peak_tops_int8(&self) -> f64 {
        let int8_macs = self.macs_per_cycle_int4() as f64 / 4.0;
        int8_macs * 2.0 * self.freq_ghz * 1e9 / 1e12
    }

    /// The mapping-model view of this configuration: buffer capacities,
    /// element widths (quantized operands in NBin/SB, FP32 partial sums
    /// in NBout) and PE geometry. See [`cq_sim::mapping`].
    pub fn mem_hierarchy(&self) -> cq_sim::mapping::MemHierarchy {
        cq_sim::mapping::MemHierarchy {
            nbin_bytes: (self.nbin_kb * 1024) as u64,
            sb_bytes: (self.sb_kb * 1024) as u64,
            nbout_bytes: (self.nbout_kb * 1024) as u64,
            elem_bytes: self.train_format.bytes(),
            acc_bytes: 4.0,
            pe_rows: self.pe_rows as u64,
            pe_cols: self.pe_cols as u64,
            pe_arrays: self.pe_arrays as u64,
        }
    }
}

impl CanonicalKey for CqConfig {
    fn write_key(&self, out: &mut KeyBytes) {
        let CqConfig {
            pe_rows,
            pe_cols,
            pe_arrays,
            freq_ghz,
            nbin_kb,
            sb_kb,
            nbout_kb,
            squ_buf_bytes,
            squ_lanes,
            e2bqm_ways,
            squ_units,
            qbc_line_words,
            train_format,
            ndp_enabled,
            ddr,
        } = self;
        (pe_rows, pe_cols, pe_arrays, freq_ghz.to_bits()).hash(out);
        (nbin_kb, sb_kb, nbout_kb, squ_buf_bytes).hash(out);
        (squ_lanes, e2bqm_ways, squ_units, qbc_line_words).hash(out);
        (train_format, ndp_enabled).hash(out);
        ddr.write_key(out);
    }
}

impl Default for CqConfig {
    fn default() -> Self {
        CqConfig::edge()
    }
}

impl fmt::Display for CqConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CqConfig[{}x {}x{} PEs @ {} GHz, {}, {}, NDP {}]",
            self.pe_arrays,
            self.pe_rows,
            self.pe_cols,
            self.freq_ghz,
            self.train_format,
            self.ddr,
            if self.ndp_enabled { "on" } else { "off" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_peak_matches_paper() {
        let c = CqConfig::edge();
        // 8 TOPS INT4 / 2 TOPS INT8.
        assert!((c.peak_tops_int8() - 2.048).abs() < 0.01);
        assert_eq!(c.macs_per_cycle_int4(), 4096);
        assert_eq!(c.passes_per_mac(), 4); // INT8 on 4-bit PEs
        assert_eq!(c.macs_per_cycle(), 1024.0);
    }

    #[test]
    fn int4_mode_quadruples_throughput() {
        let c = CqConfig::edge().with_format(IntFormat::Int4);
        assert_eq!(c.passes_per_mac(), 1);
        assert_eq!(c.macs_per_cycle(), 4096.0);
    }

    #[test]
    fn int16_mode_needs_sixteen_passes() {
        let c = CqConfig::edge().with_format(IntFormat::Int16);
        assert_eq!(c.passes_per_mac(), 16);
    }

    #[test]
    fn scaled_variants_match_fig13() {
        let t = CqConfig::scaled(ScaleVariant::T);
        assert!((t.peak_tops_int8() - 16.38).abs() < 0.1); // ~16 TOPS
        assert!((t.ddr.peak_bandwidth_gbps() - 68.2).abs() < 0.2);
        let v = CqConfig::scaled(ScaleVariant::V);
        assert!((v.peak_tops_int8() - 131.0).abs() < 1.0); // ~128 TOPS
        assert!((v.ddr.peak_bandwidth_gbps() - 272.9).abs() < 0.5);
    }

    #[test]
    fn ablation_flag() {
        let c = CqConfig::edge().without_ndp();
        assert!(!c.ndp_enabled);
    }

    #[test]
    fn display_and_names() {
        assert_eq!(ScaleVariant::T.name(), "Cambricon-Q-T");
        assert!(CqConfig::edge().to_string().contains("64x64"));
    }
}

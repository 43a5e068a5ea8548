//! # cq-sim — simulation kernel shared by every hardware model
//!
//! Provides the accounting primitives that the Cambricon-Q accelerator
//! model (`cq-accel`), NDP engine (`cq-ndp`), and baselines (`cq-baselines`)
//! all charge against:
//!
//! * [`EnergyModel`] — per-operation energies seeded with the paper's
//!   Table I (Horowitz 45 nm) constants;
//! * [`Phase`]/[`PhaseBreakdown`] — the six-phase training-iteration split
//!   of Fig. 12(b) (FW/NG/WG/WU/S/Q);
//! * [`Component`]/[`EnergyBreakdown`] — the Fig. 12(d) component split
//!   (ACC/BUF/DDR-SB/DDR-DY);
//! * [`SimResult`] — the uniform per-workload, per-platform result;
//! * [`hwcost`] — the Table VII static area/power model;
//! * [`report`] — plain-text table rendering for the experiment binaries.
//!
//! # Examples
//!
//! ```
//! use cq_sim::{EnergyModel, Phase, PhaseBreakdown};
//!
//! let e = EnergyModel::tsmc45();
//! let mut phases = PhaseBreakdown::new();
//! // Charge a 64x64 INT8 matmul tile to the forward pass.
//! let macs = 64u64 * 64 * 64;
//! phases.charge(Phase::Forward, 64, macs as f64 * e.fixed_mac(8));
//! assert!(phases.total_energy_pj() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod breakdown;
pub mod cache;
mod energy;
pub mod hwcost;
pub mod mapping;
mod phase;
pub mod report;
mod result;
pub mod trace;

pub use breakdown::{Component, EnergyBreakdown};
pub use cache::{
    hwcache_cap, hwcache_enabled, set_hwcache_enabled, CacheStats, CanonicalKey, HwCostCache,
    HwCostKey, KeyBytes, DEFAULT_SHARDS,
};
pub use energy::{table1_rows, EnergyModel, HwCostError, Table1Row};
pub use mapping::{Mapping, MappingEval, MappingPolicy, MappingTable, MatShape, MemHierarchy};
pub use phase::{Phase, PhaseBreakdown};
pub use result::{geomean, SimResult};
pub use trace::{Trace, TraceRecord};

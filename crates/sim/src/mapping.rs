//! Hierarchical mapping model for the cycle simulator.
//!
//! A *mapping* describes how one matmul `m×k · k×n` is laid onto the
//! memory hierarchy (DRAM → NBin/SB/NBout on-chip buffers → PE array):
//! a loop order over the (M, N, K) tile loops at the DRAM level, an
//! on-chip tile size per dimension, and a PE-level reduction fold. From
//! the mapping this module *derives* — rather than hard-codes — the
//! quantities the cost model charges:
//!
//! * **per-level traffic**: how many times each operand crosses the
//!   DRAM bus (reload factors from the classic tiled-loop-nest reuse
//!   analysis, FactorFlow/CoSA-style) and how many partial-sum spill
//!   round trips the output incurs;
//! * **buffer occupancy**: bytes each tile pins in NBin (inputs), SB
//!   (weights) and NBout (partial sums), checked against the
//!   configured capacities for *capacity legality*;
//! * **PE utilization**: the fraction of MAC slots a tiled sweep
//!   actually fills, including the k-fold trick that maps reduction
//!   chunks onto PE rows an undersized output tile would leave idle
//!   (the adder tree sums across rows, so folding trades row
//!   parallelism for reduction parallelism).
//!
//! The committed [`Mapping::streaming_default`] reproduces the
//! pre-mapping simulator byte-for-byte: whole-problem tiles (reload
//! factor 1 for every operand, no spills) and fold 1 — the legacy
//! "stream every operand once per phase" contract, *idealized* in that
//! it is exempt from the capacity check. Searched mappings live in the
//! honest capacity-legal space, so a search win is conservative: the
//! searched mapping beats the default even though the default is never
//! charged for its residency violations.
//!
//! The `CQ_MAPPING` environment knob selects the policy process-wide
//! (`default` | `search` | a mapping-table file path) and is validated
//! eagerly in `profiling::init_for_bin` like `CQ_BACKEND`/`CQ_SIMD`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// One matmul dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Output rows (batch / spatial positions).
    M,
    /// Output columns (filters / features).
    N,
    /// The reduction dimension.
    K,
}

impl Dim {
    /// Lower-case letter used in the mapping-file format.
    pub fn letter(self) -> char {
        match self {
            Dim::M => 'm',
            Dim::N => 'n',
            Dim::K => 'k',
        }
    }
}

/// A DRAM-level tile loop order, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopOrder(pub [Dim; 3]);

impl LoopOrder {
    /// All six permutations of the (M, N, K) tile loops.
    pub const ALL: [LoopOrder; 6] = [
        LoopOrder([Dim::M, Dim::N, Dim::K]),
        LoopOrder([Dim::M, Dim::K, Dim::N]),
        LoopOrder([Dim::N, Dim::M, Dim::K]),
        LoopOrder([Dim::N, Dim::K, Dim::M]),
        LoopOrder([Dim::K, Dim::M, Dim::N]),
        LoopOrder([Dim::K, Dim::N, Dim::M]),
    ];

    /// The file-format spelling, e.g. `mnk`.
    pub fn name(&self) -> String {
        self.0.iter().map(|d| d.letter()).collect()
    }

    /// Parses a three-letter permutation of `m`, `n`, `k`.
    pub fn parse(s: &str) -> Result<LoopOrder, String> {
        let mut dims = [Dim::M; 3];
        let chars: Vec<char> = s.trim().chars().collect();
        if chars.len() != 3 {
            return Err(format!("loop order {s:?} must be 3 letters of m/n/k"));
        }
        for (i, c) in chars.iter().enumerate() {
            dims[i] = match c.to_ascii_lowercase() {
                'm' => Dim::M,
                'n' => Dim::N,
                'k' => Dim::K,
                other => return Err(format!("loop order {s:?}: unknown dim {other:?}")),
            };
        }
        for d in [Dim::M, Dim::N, Dim::K] {
            if !dims.contains(&d) {
                return Err(format!(
                    "loop order {s:?} must mention each of m, n, k once"
                ));
            }
        }
        Ok(LoopOrder(dims))
    }

    /// Position of `dim` in the nest (0 = outermost), or `None` when the
    /// order does not mention it. [`LoopOrder::parse`] only produces
    /// permutations, but the tuple field is public, so a hand-built
    /// order can omit a dimension — callers must not assume presence
    /// (this used to be an `unwrap` that aborted on such orders).
    fn position(&self, dim: Dim) -> Option<usize> {
        self.0.iter().position(|&d| d == dim)
    }

    /// Whether the order mentions each of M, N, K exactly once. Anything
    /// else has no defined reuse analysis and is rejected by
    /// [`Mapping::validate`].
    pub fn is_permutation(&self) -> bool {
        [Dim::M, Dim::N, Dim::K]
            .into_iter()
            .all(|d| self.0.contains(&d))
    }
}

impl fmt::Display for LoopOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// One matmul shape `m×k · k×n` (no serial-repeat factor: repeats reuse
/// the same mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatShape {
    /// Output rows.
    pub m: u64,
    /// Output columns.
    pub n: u64,
    /// Reduction length.
    pub k: u64,
}

impl MatShape {
    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.m * self.n * self.k
    }
}

/// The memory hierarchy a mapping is laid onto: buffer capacities and
/// PE-array geometry, taken from the chip configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemHierarchy {
    /// NBin capacity in bytes (holds the input tile, `Tm × Tk`).
    pub nbin_bytes: u64,
    /// SB capacity in bytes (holds the weight tile, `Tk × Tn`).
    pub sb_bytes: u64,
    /// NBout capacity in bytes (holds the partial-sum tile, `Tm × Tn`).
    pub nbout_bytes: u64,
    /// Quantized element size in bytes (0.5 at INT4, 1 at INT8, ...).
    pub elem_bytes: f64,
    /// Partial-sum width in bytes held in NBout (32-bit accumulators).
    pub acc_bytes: f64,
    /// PE array rows.
    pub pe_rows: u64,
    /// PE array columns.
    pub pe_cols: u64,
    /// Number of PE arrays tiles distribute over.
    pub pe_arrays: u64,
}

impl MemHierarchy {
    /// Cycles of a PE-array sweep over `shape` at `kfold` with the given
    /// bit-serial pass count (see [`pe_sweep_cycles`]).
    pub fn pe_sweep_cycles(&self, shape: MatShape, kfold: u64, passes: u64) -> u64 {
        pe_sweep_cycles(
            self.pe_rows,
            self.pe_cols,
            self.pe_arrays,
            kfold,
            shape,
            passes,
        )
    }

    /// Fraction of MAC slots the sweep fills: `macs / (slot cycles ×
    /// array MACs per pass-cycle)`. 1.0 means every PE is busy every
    /// cycle; partial tiles and fold padding lower it.
    pub fn pe_utilization(&self, shape: MatShape, kfold: u64, passes: u64) -> f64 {
        let cycles = self.pe_sweep_cycles(shape, kfold, passes);
        if cycles == 0 {
            return 0.0;
        }
        let slots =
            cycles as f64 / passes as f64 * (self.pe_rows * self.pe_cols * self.pe_arrays) as f64;
        shape.macs() as f64 / slots
    }
}

/// Cycles to drain `shape` through a `rows × cols` PE array replicated
/// `arrays` times: the array computes one output tile per sweep,
/// streaming the reduction one element per cycle per serial `pass`.
/// Partial tiles still occupy the full array (padding).
///
/// `kfold` maps `kfold` reduction chunks across the row dimension
/// (output-row groups of `rows / kfold` physical rows; the adder tree
/// sums the chunks), so a skinny matmul (`m < rows`) can trade idle
/// rows for `kfold`× shorter reduction sweeps. `kfold = 1` is exactly
/// the legacy output-stationary sweep.
pub fn pe_sweep_cycles(
    rows: u64,
    cols: u64,
    arrays: u64,
    kfold: u64,
    shape: MatShape,
    passes: u64,
) -> u64 {
    if shape.m == 0 || shape.n == 0 || shape.k == 0 {
        return 0;
    }
    let fold = kfold.clamp(1, rows.max(1));
    let row_group = (rows / fold).max(1);
    let row_tiles = shape.m.div_ceil(row_group);
    let col_tiles = shape.n.div_ceil(cols.max(1));
    let tiles_per_array = (row_tiles * col_tiles).div_ceil(arrays.max(1));
    tiles_per_array * shape.k.div_ceil(fold) * passes
}

/// Sentinel tile size meaning "the whole problem dimension".
pub const FULL: u64 = u64::MAX;

/// A hierarchical mapping: DRAM-level loop order, on-chip tile sizes
/// over (M, N, K), and the PE-level reduction fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// DRAM-level tile loop order, outermost first.
    pub order: LoopOrder,
    /// On-chip tile size along M ([`FULL`] = whole dimension).
    pub tile_m: u64,
    /// On-chip tile size along N.
    pub tile_n: u64,
    /// On-chip tile size along K.
    pub tile_k: u64,
    /// PE-level reduction fold (1 = legacy sweep).
    pub kfold: u64,
}

impl Mapping {
    /// The committed default: the legacy idealized dataflow — whole-
    /// problem tiles (every operand streams exactly once per phase,
    /// no partial-sum spills) and no fold. Reproduces the pre-mapping
    /// simulator byte-identically; exempt from the capacity check.
    pub fn streaming_default() -> Mapping {
        Mapping {
            order: LoopOrder([Dim::M, Dim::N, Dim::K]),
            tile_m: FULL,
            tile_n: FULL,
            tile_k: FULL,
            kfold: 1,
        }
    }

    /// Whether this is [`Mapping::streaming_default`].
    pub fn is_streaming_default(&self) -> bool {
        *self == Mapping::streaming_default()
    }

    /// Structural sanity: the loop order is a permutation of (M, N, K),
    /// no zero tiles, fold ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if !self.order.is_permutation() {
            return Err(format!(
                "mapping loop order {:?} must mention each of m, n, k once",
                self.order.name()
            ));
        }
        if self.tile_m == 0 || self.tile_n == 0 || self.tile_k == 0 {
            return Err(format!("mapping {self} has a zero tile size"));
        }
        if self.kfold == 0 {
            return Err(format!("mapping {self} has fold 0"));
        }
        Ok(())
    }

    /// Derives traffic, occupancy and utilization inputs for `shape`
    /// under `hier`.
    ///
    /// Reload factors follow the single-buffered tiled-loop-nest reuse
    /// rule: an operand's tile is re-fetched once per iteration of every
    /// loop that does not index it but runs *outside* a loop that does.
    pub fn evaluate(&self, shape: MatShape, hier: &MemHierarchy) -> MappingEval {
        let tm = self.tile_m.min(shape.m).max(1);
        let tn = self.tile_n.min(shape.n).max(1);
        let tk = self.tile_k.min(shape.k).max(1);
        let trips = |extent: u64, tile: u64| extent.div_ceil(tile);
        let (nm, nn, nk) = (trips(shape.m, tm), trips(shape.n, tn), trips(shape.k, tk));
        let trip_of = |d: Dim| match d {
            Dim::M => nm,
            Dim::N => nn,
            Dim::K => nk,
        };
        // f_X = Π trip(d) over irrelevant dims d that have a relevant
        // dim strictly inside them in the nest.
        let reload = |relevant: [Dim; 2], irrelevant: Dim| -> u64 {
            // A non-permutation order only reaches here through the
            // public struct fields (validate() rejects it at every parse
            // boundary); a dimension missing from the nest contributes no
            // reload rather than a panic.
            let Some(pos) = self.order.position(irrelevant) else {
                return 1;
            };
            let inner_relevant = relevant
                .iter()
                .any(|&r| self.order.position(r).is_some_and(|p| p > pos));
            if inner_relevant {
                trip_of(irrelevant)
            } else {
                1
            }
        };
        let reload_in = reload([Dim::M, Dim::K], Dim::N);
        let reload_w = reload([Dim::K, Dim::N], Dim::M);
        // Output partial sums spill once per extra K trip when the
        // K loop encloses an output-relevant loop.
        let k_spills = reload([Dim::M, Dim::N], Dim::K).saturating_sub(1);
        let psum_spill_elems = shape.m * shape.n * k_spills;

        let kfold = self.kfold.clamp(1, hier.pe_rows.max(1));
        MappingEval {
            shape,
            tile_m: tm,
            tile_n: tn,
            tile_k: tk,
            reload_in,
            reload_w,
            psum_spill_elems,
            kfold,
            nbin_occupancy: tm as f64 * tk as f64 * hier.elem_bytes,
            sb_occupancy: tk as f64 * tn as f64 * hier.elem_bytes,
            nbout_occupancy: tm as f64 * tn as f64 * hier.acc_bytes,
        }
    }

    /// Whether the mapping's tiles fit the hierarchy for `shape` (and
    /// the fold fits the row dimension). The streaming default is
    /// deliberately *not* legal for shapes whose operands exceed the
    /// buffers — it is the idealized legacy contract, not a candidate.
    pub fn is_capacity_legal(&self, shape: MatShape, hier: &MemHierarchy) -> bool {
        let e = self.evaluate(shape, hier);
        self.kfold >= 1
            && self.kfold <= hier.pe_rows.max(1)
            && e.nbin_occupancy <= hier.nbin_bytes as f64
            && e.sb_occupancy <= hier.sb_bytes as f64
            && e.nbout_occupancy <= hier.nbout_bytes as f64
    }

    /// One-line file-format rendering, e.g.
    /// `order=mnk tm=full tn=256 tk=512 fold=2`.
    pub fn render(&self) -> String {
        let t = |v: u64| {
            if v == FULL {
                "full".to_string()
            } else {
                v.to_string()
            }
        };
        format!(
            "order={} tm={} tn={} tk={} fold={}",
            self.order.name(),
            t(self.tile_m),
            t(self.tile_n),
            t(self.tile_k),
            self.kfold
        )
    }

    /// Parses the [`Mapping::render`] format (fields in any order).
    pub fn parse(s: &str) -> Result<Mapping, String> {
        let mut m = Mapping::streaming_default();
        let mut seen = [false; 5];
        for field in s.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("mapping field {field:?} is not key=value"))?;
            let tile = |v: &str| -> Result<u64, String> {
                if v.eq_ignore_ascii_case("full") {
                    return Ok(FULL);
                }
                v.parse::<u64>().ok().filter(|&t| t >= 1).ok_or_else(|| {
                    format!("mapping tile {v:?} must be 'full' or a positive integer")
                })
            };
            match key {
                "order" => {
                    m.order = LoopOrder::parse(value)?;
                    seen[0] = true;
                }
                "tm" => {
                    m.tile_m = tile(value)?;
                    seen[1] = true;
                }
                "tn" => {
                    m.tile_n = tile(value)?;
                    seen[2] = true;
                }
                "tk" => {
                    m.tile_k = tile(value)?;
                    seen[3] = true;
                }
                "fold" => {
                    m.kfold = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&f| f >= 1)
                        .ok_or_else(|| {
                            format!("mapping fold {value:?} must be a positive integer")
                        })?;
                    seen[4] = true;
                }
                other => return Err(format!("unknown mapping field {other:?}")),
            }
        }
        if seen != [true; 5] {
            return Err(format!("mapping {s:?} must set all of order/tm/tn/tk/fold"));
        }
        m.validate()?;
        Ok(m)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Everything the cost model needs from a mapping for one shape:
/// clamped tiles, DRAM reload factors, spill traffic, fold, occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingEval {
    /// The evaluated shape.
    pub shape: MatShape,
    /// Clamped on-chip tile along M.
    pub tile_m: u64,
    /// Clamped on-chip tile along N.
    pub tile_n: u64,
    /// Clamped on-chip tile along K.
    pub tile_k: u64,
    /// Times the input operand crosses the DRAM bus (≥ 1).
    pub reload_in: u64,
    /// Times the weight operand crosses the DRAM bus (≥ 1).
    pub reload_w: u64,
    /// Extra output elements spilled as partial sums (each one write +
    /// one re-read at accumulator width). 0 when the K loop is inside
    /// both output loops or `Tk` covers K.
    pub psum_spill_elems: u64,
    /// PE-level reduction fold, clamped to the row dimension.
    pub kfold: u64,
    /// Bytes the input tile pins in NBin.
    pub nbin_occupancy: f64,
    /// Bytes the weight tile pins in SB.
    pub sb_occupancy: f64,
    /// Bytes the partial-sum tile pins in NBout.
    pub nbout_occupancy: f64,
}

impl MappingEval {
    /// DRAM traffic in elements for the input operand (`m×k` loaded
    /// [`MappingEval::reload_in`] times). Never below the compulsory
    /// each-element-once bound.
    pub fn dram_in_elems(&self) -> u64 {
        self.shape.m * self.shape.k * self.reload_in
    }

    /// DRAM traffic in elements for the weight operand.
    pub fn dram_w_elems(&self) -> u64 {
        self.shape.k * self.shape.n * self.reload_w
    }

    /// DRAM traffic in elements for the final output store.
    pub fn dram_out_elems(&self) -> u64 {
        self.shape.m * self.shape.n
    }

    /// Identity used by the conservation property: the mapping never
    /// changes how many MACs the matmul executes.
    pub fn macs(&self) -> u64 {
        self.shape.macs()
    }
}

/// A per-layer mapping table, keyed `network/layer`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MappingTable {
    entries: BTreeMap<String, Mapping>,
}

/// Header line of the mapping-table file format.
const TABLE_HEADER: &str = "# cq mapping table v1";

impl MappingTable {
    /// An empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Adds or replaces the mapping for `network`'s `layer`.
    pub fn insert(&mut self, network: &str, layer: &str, mapping: Mapping) {
        self.entries.insert(format!("{network}/{layer}"), mapping);
    }

    /// The mapping for `network`'s `layer`, if present.
    pub fn get(&self, network: &str, layer: &str) -> Option<&Mapping> {
        self.entries.get(&format!("{network}/{layer}"))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(network/layer, mapping)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Mapping)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the table in the `CQ_MAPPING=<file>` format.
    pub fn render(&self) -> String {
        let mut out = String::from(TABLE_HEADER);
        out.push('\n');
        for (key, mapping) in &self.entries {
            out.push_str(&format!("{key}: {}\n", mapping.render()));
        }
        out
    }

    /// Parses a mapping-table file: the v1 header, then one
    /// `network/layer: order=.. tm=.. tn=.. tk=.. fold=..` line per
    /// entry. Blank lines and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<MappingTable, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == TABLE_HEADER => {}
            other => {
                return Err(format!(
                    "mapping table must start with {TABLE_HEADER:?}, got {other:?}"
                ))
            }
        }
        let mut table = MappingTable::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, spec) = line
                .split_once(':')
                .ok_or_else(|| format!("mapping table line {}: missing ':': {line:?}", i + 2))?;
            let key = key.trim();
            if !key.contains('/') {
                return Err(format!(
                    "mapping table line {}: key {key:?} must be network/layer",
                    i + 2
                ));
            }
            let mapping =
                Mapping::parse(spec).map_err(|e| format!("mapping table line {}: {e}", i + 2))?;
            table.entries.insert(key.to_string(), mapping);
        }
        Ok(table)
    }
}

/// Process-wide mapping policy selected by `CQ_MAPPING`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// The committed streaming default for every layer (byte-identical
    /// to the pre-mapping simulator).
    Default,
    /// Per-layer two-stage mapping search over the capacity-legal space.
    Search,
    /// Fixed per-layer mappings from a table (see [`MappingTable`]);
    /// a layer missing from the table aborts the run.
    Table(MappingTable),
}

impl MappingPolicy {
    /// Short name for reports (`default` / `search` / `table[n]`).
    pub fn name(&self) -> String {
        match self {
            MappingPolicy::Default => "default".into(),
            MappingPolicy::Search => "search".into(),
            MappingPolicy::Table(t) => format!("table[{}]", t.len()),
        }
    }
}

/// Raw resolution of a `CQ_MAPPING` value, before any file I/O. Pure so
/// it can be unit tested; unknown keywords become file paths, which
/// [`env_policy`] then validates (an unreadable or unparsable path
/// aborts rather than silently falling back to the default mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvMapping {
    /// Use [`MappingPolicy::Default`].
    Default,
    /// Use [`MappingPolicy::Search`].
    Search,
    /// Load a [`MappingTable`] from this path.
    File(String),
}

/// Resolves a raw `CQ_MAPPING` value. `None`/empty means "unset"
/// (default mapping).
pub fn resolve_env_mapping(raw: Option<&str>) -> EnvMapping {
    let Some(v) = raw else {
        return EnvMapping::Default;
    };
    let t = v.trim();
    if t.is_empty() {
        return EnvMapping::Default;
    }
    match t.to_ascii_lowercase().as_str() {
        "default" => EnvMapping::Default,
        "search" => EnvMapping::Search,
        _ => EnvMapping::File(t.to_string()),
    }
}

/// The validated process-wide `CQ_MAPPING` policy (cached for the
/// process lifetime). A path that cannot be read or parsed aborts the
/// run: a typo like `CQ_MAPPING=serach` silently simulating the default
/// mapping would invalidate any mapping comparison.
pub fn env_policy() -> &'static MappingPolicy {
    static CACHED: OnceLock<MappingPolicy> = OnceLock::new();
    CACHED.get_or_init(|| {
        let raw = std::env::var("CQ_MAPPING").ok();
        match resolve_env_mapping(raw.as_deref()) {
            EnvMapping::Default => MappingPolicy::Default,
            EnvMapping::Search => MappingPolicy::Search,
            EnvMapping::File(path) => {
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    panic!(
                        "invalid CQ_MAPPING value {path:?}: expected default, search, \
                         or a readable mapping-table file ({e})"
                    )
                });
                let table = MappingTable::parse(&text)
                    .unwrap_or_else(|e| panic!("invalid CQ_MAPPING table {path:?}: {e}"));
                MappingPolicy::Table(table)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_hier() -> MemHierarchy {
        MemHierarchy {
            nbin_bytes: 256 * 1024,
            sb_bytes: 512 * 1024,
            nbout_bytes: 256 * 1024,
            elem_bytes: 1.0,
            acc_bytes: 4.0,
            pe_rows: 64,
            pe_cols: 64,
            pe_arrays: 1,
        }
    }

    fn shape(m: u64, n: u64, k: u64) -> MatShape {
        MatShape { m, n, k }
    }

    #[test]
    fn default_mapping_is_ideal_everywhere() {
        let hier = edge_hier();
        let d = Mapping::streaming_default();
        for s in [shape(32, 4096, 9216), shape(3025, 96, 363), shape(1, 1, 1)] {
            let e = d.evaluate(s, &hier);
            assert_eq!(e.reload_in, 1);
            assert_eq!(e.reload_w, 1);
            assert_eq!(e.psum_spill_elems, 0);
            assert_eq!(e.kfold, 1);
            assert_eq!(e.dram_in_elems(), s.m * s.k);
            assert_eq!(e.dram_w_elems(), s.k * s.n);
            assert_eq!(e.dram_out_elems(), s.m * s.n);
        }
    }

    #[test]
    fn default_mapping_is_not_capacity_legal_for_big_layers() {
        let hier = edge_hier();
        let d = Mapping::streaming_default();
        // AlexNet fc6: 37.7 MB of weights >> 512 KB SB.
        assert!(!d.is_capacity_legal(shape(32, 4096, 9216), &hier));
        // A tiny matmul fits outright.
        assert!(d.is_capacity_legal(shape(64, 64, 64), &hier));
    }

    #[test]
    fn reload_factors_follow_loop_order() {
        let hier = edge_hier();
        let s = shape(512, 512, 512);
        let tiled = |order: &str| Mapping {
            order: LoopOrder::parse(order).unwrap(),
            tile_m: 128,
            tile_n: 128,
            tile_k: 512,
            kfold: 1,
        };
        // n innermost: the input tile stays resident across the n sweep.
        let e = tiled("mkn").evaluate(s, &hier);
        assert_eq!((e.reload_in, e.reload_w), (1, 4));
        // m innermost: the weight tile stays resident across the m sweep.
        let e = tiled("nkm").evaluate(s, &hier);
        assert_eq!((e.reload_in, e.reload_w), (4, 1));
        // k fully tiled (Tk = 512): no partial-sum spills anywhere.
        assert_eq!(e.psum_spill_elems, 0);
        // Split k outside the output loops: partials spill per extra trip.
        let spilled = Mapping {
            order: LoopOrder::parse("kmn").unwrap(),
            tile_m: 128,
            tile_n: 128,
            tile_k: 128,
            kfold: 1,
        }
        .evaluate(s, &hier);
        assert_eq!(spilled.psum_spill_elems, 512 * 512 * 3);
    }

    #[test]
    fn irrelevant_innermost_loop_does_not_reload() {
        // Order mkn with the n loop innermost: even with many n trips the
        // input tile is fetched once per (m, k) tile.
        let hier = edge_hier();
        let m = Mapping {
            order: LoopOrder::parse("mkn").unwrap(),
            tile_m: 64,
            tile_n: 64,
            tile_k: 256,
            kfold: 1,
        };
        let e = m.evaluate(shape(256, 4096, 256), &hier);
        assert_eq!(e.reload_in, 1);
        // The weight operand reloads once per m trip (k or n inside m).
        assert_eq!(e.reload_w, 4);
    }

    #[test]
    fn occupancy_uses_elem_and_acc_widths() {
        let mut hier = edge_hier();
        hier.elem_bytes = 0.5; // INT4
        let m = Mapping {
            order: LoopOrder::ALL[0],
            tile_m: 100,
            tile_n: 200,
            tile_k: 400,
            kfold: 1,
        };
        let e = m.evaluate(shape(1000, 1000, 1000), &hier);
        assert_eq!(e.nbin_occupancy, 100.0 * 400.0 * 0.5);
        assert_eq!(e.sb_occupancy, 400.0 * 200.0 * 0.5);
        assert_eq!(e.nbout_occupancy, 100.0 * 200.0 * 4.0);
    }

    #[test]
    fn kfold_shortens_skinny_sweeps() {
        let hier = edge_hier();
        let s = shape(20, 2600, 1950);
        let base = hier.pe_sweep_cycles(s, 1, 4);
        let folded = hier.pe_sweep_cycles(s, 3, 4);
        // fold 3: row groups of 21 ≥ m=20, reduction 650 per sweep.
        assert_eq!(base, 41 * 1950 * 4);
        assert_eq!(folded, 41 * 650 * 4);
        // Utilization rises accordingly.
        assert!(hier.pe_utilization(s, 3, 4) > 2.9 * hier.pe_utilization(s, 1, 4));
    }

    #[test]
    fn kfold_one_matches_legacy_formula() {
        let hier = edge_hier();
        for s in [
            shape(64, 64, 1000),
            shape(65, 64, 100),
            shape(512, 512, 512),
        ] {
            let rows = 64u64;
            let legacy = s.m.div_ceil(rows) * s.n.div_ceil(64) * s.k * 4;
            assert_eq!(hier.pe_sweep_cycles(s, 1, 4), legacy, "{s:?}");
        }
    }

    #[test]
    fn mapping_render_parse_round_trip() {
        let mappings = [
            Mapping::streaming_default(),
            Mapping {
                order: LoopOrder::parse("kNm").unwrap(),
                tile_m: 32,
                tile_n: 806,
                tile_k: 1950,
                kfold: 3,
            },
        ];
        for m in mappings {
            let rendered = m.render();
            assert_eq!(Mapping::parse(&rendered).unwrap(), m, "{rendered}");
        }
    }

    #[test]
    fn mapping_parse_rejects_garbage() {
        for bad in [
            "",
            "order=mnk",
            "order=mm tm=1 tn=1 tk=1 fold=1",
            "order=mnk tm=0 tn=1 tk=1 fold=1",
            "order=mnk tm=1 tn=1 tk=1 fold=0",
            "order=mnk tm=1 tn=1 tk=1 fold=1 bogus=2",
            "order=mnk tm=one tn=1 tk=1 fold=1",
        ] {
            assert!(Mapping::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn table_round_trip_and_lookup() {
        let mut t = MappingTable::new();
        t.insert("PTB-LSTM", "lstm1", Mapping::streaming_default());
        let custom = Mapping {
            order: LoopOrder::parse("nkm").unwrap(),
            tile_m: 20,
            tile_n: 650,
            tile_k: 1950,
            kfold: 3,
        };
        t.insert("PTB-LSTM", "lstm2", custom);
        let text = t.render();
        let parsed = MappingTable::parse(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.get("PTB-LSTM", "lstm2"), Some(&custom));
        assert_eq!(parsed.get("PTB-LSTM", "nope"), None);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn table_parse_rejects_garbage() {
        assert!(MappingTable::parse("").is_err());
        assert!(MappingTable::parse("net/layer: order=mnk ...").is_err());
        let no_slash = format!("{TABLE_HEADER}\nlayeronly: order=mnk tm=1 tn=1 tk=1 fold=1\n");
        assert!(MappingTable::parse(&no_slash).is_err());
        let ok = format!("{TABLE_HEADER}\n\n# comment\na/b: order=mnk tm=1 tn=1 tk=1 fold=1\n");
        assert_eq!(MappingTable::parse(&ok).unwrap().len(), 1);
    }

    #[test]
    fn env_mapping_resolution() {
        assert_eq!(resolve_env_mapping(None), EnvMapping::Default);
        assert_eq!(resolve_env_mapping(Some("")), EnvMapping::Default);
        assert_eq!(resolve_env_mapping(Some("  ")), EnvMapping::Default);
        assert_eq!(resolve_env_mapping(Some("Default")), EnvMapping::Default);
        assert_eq!(resolve_env_mapping(Some(" SEARCH ")), EnvMapping::Search);
        assert_eq!(
            resolve_env_mapping(Some("maps/resnet.map")),
            EnvMapping::File("maps/resnet.map".into())
        );
    }

    #[test]
    fn hand_built_non_permutation_order_errors_instead_of_panicking() {
        // The tuple field is public, so a caller can build an order that
        // no parser would produce. This used to abort inside evaluate()
        // via `.position().unwrap()`; now validate() rejects it and
        // evaluate() degrades gracefully.
        let hier = edge_hier();
        let m = Mapping {
            order: LoopOrder([Dim::M, Dim::M, Dim::K]),
            tile_m: 64,
            tile_n: 64,
            tile_k: 64,
            kfold: 1,
        };
        assert!(!m.order.is_permutation());
        let err = m.validate().unwrap_err();
        assert!(err.contains("must mention each of m, n, k once"), "{err}");
        // Must not panic even though N is absent from the nest; the
        // missing dimension contributes no reload.
        let e = m.evaluate(shape(512, 512, 512), &hier);
        assert_eq!(e.reload_in, 1);
        assert!(e.reload_w >= 1);
    }

    #[test]
    fn hostile_mapping_table_duplicate_dim_is_typed_error() {
        // A hand-edited CQ_MAPPING file whose order references a
        // dimension twice (so one is absent) must surface the typed
        // parse error with its line number, not abort the process.
        let hostile = format!("{TABLE_HEADER}\nnet/conv1: order=mmk tm=64 tn=64 tk=64 fold=1\n");
        let err = MappingTable::parse(&hostile).unwrap_err();
        assert!(err.starts_with("mapping table line 2:"), "{err}");
        assert!(err.contains("must mention each of m, n, k once"), "{err}");
    }

    #[test]
    fn loop_order_parse_all_and_reject() {
        for o in LoopOrder::ALL {
            assert_eq!(LoopOrder::parse(&o.name()).unwrap(), o);
        }
        for bad in ["mn", "mnkx", "mmk", "abc"] {
            assert!(LoopOrder::parse(bad).is_err(), "{bad}");
        }
    }
}

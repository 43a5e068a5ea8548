//! Compute-backend selection for the dense kernels in [`crate::ops`].
//!
//! Two backends exist:
//!
//! * [`Backend::Naive`] — the original single-threaded scalar triple
//!   loops, kept as the bit-accurate reference.
//! * [`Backend::Fast`] — `cq-par`'s three-level blocked GEMM (SIMD
//!   micro-kernel under KC/MC/NC panel blocking, selected by `CQ_SIMD` /
//!   `CQ_TUNE_FILE` — see [`cq_par::describe_active_plan`]) and im2col
//!   convolution,
//!   parallelized over the global worker pool.
//!
//! Both accumulate every output element over the reduction dimension in
//! the same (ascending) order. The bit-identity contract belongs to the
//! Naive path alone: Fast's AVX2 micro-kernels use fused multiply-add,
//! which skips one rounding per step and shifts results within the
//! tolerance enforced by the `backend_parity` test suite
//! (`k · amax · bmax · 8ε`); Fast's scalar micro-kernel rounds like the
//! naive loops.
//!
//! The process-wide default is [`Backend::Fast`], overridable by the
//! `CQ_BACKEND` environment variable (`naive` or `fast`). Any other
//! `CQ_BACKEND` value aborts with a diagnostic rather than silently
//! falling back. Worker count comes from `CQ_THREADS` (see
//! [`cq_par::Pool::global`]).

use cq_obs::knob::{knob, Blank};
use std::sync::OnceLock;

/// Which implementation the dense kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Reference scalar loops: single-threaded, unblocked.
    Naive,
    /// Tiled, pooled kernels from `cq-par` (the default).
    #[default]
    Fast,
}

impl Backend {
    /// Parses `"naive"` / `"fast"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(Backend::Naive),
            "fast" => Some(Backend::Fast),
            _ => None,
        }
    }

    /// Short display name (`"naive"` / `"fast"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Fast => "fast",
        }
    }
}

/// What `CQ_BACKEND` accepts.
const BACKEND_EXPECTED: &str = "\"naive\" or \"fast\"";

/// The backend used by the plain `ops::*` entry points: `CQ_BACKEND`,
/// else [`Backend::Fast`]. Resolved once.
pub fn default_backend() -> Backend {
    static ENV: OnceLock<Backend> = OnceLock::new();
    *ENV.get_or_init(|| {
        knob("CQ_BACKEND", Blank::Unset, BACKEND_EXPECTED, Backend::parse).unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_names() {
        assert_eq!(Backend::parse("naive"), Some(Backend::Naive));
        assert_eq!(Backend::parse(" Fast "), Some(Backend::Fast));
        assert_eq!(Backend::parse("gpu"), None);
        assert_eq!(Backend::Naive.name(), "naive");
        assert_eq!(Backend::Fast.name(), "fast");
    }

    #[test]
    fn env_resolution_rejects_unknown_values() {
        let read = |v: &str| {
            cq_obs::knob::parse_knob(
                "CQ_BACKEND",
                Some(v.into()),
                Blank::Unset,
                BACKEND_EXPECTED,
                Backend::parse,
            )
        };
        assert_eq!(Backend::default(), Backend::Fast);
        assert_eq!(read("  "), Ok(None));
        assert_eq!(read(" FAST "), Ok(Some(Backend::Fast)));
        let err = read("bogus").unwrap_err().to_string();
        assert!(err.contains("invalid CQ_BACKEND"), "{err}");
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("naive"), "{err}");
    }
}

//! The NDP Optimizer (NDPO) datapath — the unified formula of the paper's
//! Eq. 1, which subsumes all four Table IV optimizers:
//!
//! ```text
//! m_t = c1·m_{t-1} + c2·g        v_t = c3·v_{t-1} + c4·g²
//! t1  = m_t or g   (s1)          t2  = v_t^(-1/2) or 1   (s2)
//! w_t = w_{t-1} − c5·t1·t2
//! ```
//!
//! The constants c₁..c₅ and selectors s₁/s₂ live in configuration registers
//! written by the `CROSET` instruction; the controller may rewrite them
//! every step (which is how Adam's time-varying bias correction is
//! realized: `c5_t = η·√(1−β2ᵗ)/(1−β1ᵗ)`).

use crate::error::NdpError;
use cq_sim::{CanonicalKey, KeyBytes};
use std::fmt;
use std::hash::Hash;

/// Which optimizer the NDPO is configured as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD with learning rate η.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// AdaGrad.
    AdaGrad {
        /// Learning rate.
        lr: f32,
    },
    /// RMSProp with decay β.
    RmsProp {
        /// Learning rate.
        lr: f32,
        /// Decay rate.
        beta: f32,
    },
    /// Adam with decays β₁/β₂ (bias correction folded into c₅ per step).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
    },
}

impl CanonicalKey for OptimizerKind {
    fn write_key(&self, out: &mut KeyBytes) {
        std::mem::discriminant(self).hash(out);
        match *self {
            OptimizerKind::Sgd { lr } | OptimizerKind::AdaGrad { lr } => lr.to_bits().hash(out),
            OptimizerKind::RmsProp { lr, beta } => (lr.to_bits(), beta.to_bits()).hash(out),
            OptimizerKind::Adam { lr, beta1, beta2 } => {
                [lr, beta1, beta2].map(f32::to_bits).hash(out)
            }
        }
    }
}

impl OptimizerKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgd { .. } => "SGD",
            OptimizerKind::AdaGrad { .. } => "AdaGrad",
            OptimizerKind::RmsProp { .. } => "RMSProp",
            OptimizerKind::Adam { .. } => "Adam",
        }
    }

    /// How many optimizer parameter words (m/v) the NDPO must co-locate
    /// with each weight in DRAM.
    pub fn state_words(&self) -> usize {
        match self {
            OptimizerKind::Sgd { .. } => 0,
            OptimizerKind::AdaGrad { .. } | OptimizerKind::RmsProp { .. } => 1,
            OptimizerKind::Adam { .. } => 2,
        }
    }

    /// FP32 arithmetic operations (mul+add) per weight update, used for
    /// NDPO energy accounting.
    pub fn flops_per_weight(&self) -> u32 {
        match self {
            OptimizerKind::Sgd { .. } => 2,     // c5*g, w-..
            OptimizerKind::AdaGrad { .. } => 6, // g^2, v+, rsqrt, mults
            OptimizerKind::RmsProp { .. } => 8,
            OptimizerKind::Adam { .. } => 12,
        }
    }
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The NDPO configuration-register file (written by `CROSET`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NdpoRegs {
    /// m-decay constant c₁.
    pub c1: f32,
    /// m-gradient constant c₂.
    pub c2: f32,
    /// v-decay constant c₃.
    pub c3: f32,
    /// v-gradient² constant c₄.
    pub c4: f32,
    /// Step-size constant c₅.
    pub c5: f32,
    /// Selector s₁: true → t1 = m, false → t1 = g.
    pub s1: bool,
    /// Selector s₂: true → t2 = v^(−1/2), false → t2 = 1.
    pub s2: bool,
}

/// Numerical floor inside the reciprocal square root.
pub const NDPO_EPS: f32 = 1e-8;

impl NdpoRegs {
    /// Register settings for an optimizer at step `t` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` (steps are 1-based, matching Adam's bias
    /// correction).
    pub fn for_optimizer(kind: OptimizerKind, t: u32) -> Self {
        assert!(t >= 1, "NDPO steps are 1-based");
        match kind {
            OptimizerKind::Sgd { lr } => NdpoRegs {
                c5: lr,
                ..Default::default()
            },
            OptimizerKind::AdaGrad { lr } => NdpoRegs {
                c3: 1.0,
                c4: 1.0,
                c5: lr,
                s1: false,
                s2: true,
                ..Default::default()
            },
            OptimizerKind::RmsProp { lr, beta } => NdpoRegs {
                c3: beta,
                c4: 1.0 - beta,
                c5: lr,
                s1: false,
                s2: true,
                ..Default::default()
            },
            OptimizerKind::Adam { lr, beta1, beta2 } => {
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                NdpoRegs {
                    c1: beta1,
                    c2: 1.0 - beta1,
                    c3: beta2,
                    c4: 1.0 - beta2,
                    c5: lr * bc2.sqrt() / bc1,
                    s1: true,
                    s2: true,
                }
            }
        }
    }

    /// Writes one configuration register by `CROSET` index (0..=6:
    /// c1..c5, s1, s2 — selectors take the immediate's nonzero-ness).
    ///
    /// # Panics
    ///
    /// Panics on an index greater than 6; use [`NdpoRegs::try_set`] to
    /// handle that as a value.
    pub fn set(&mut self, creg: u8, raw: u32) {
        if let Err(e) = self.try_set(creg, raw) {
            panic!("{e}");
        }
    }

    /// Fallible [`NdpoRegs::set`]: rejects out-of-range indices with
    /// [`NdpError::RegisterOutOfRange`] instead of panicking (the ISA
    /// decoder path uses this so a corrupted instruction cannot crash the
    /// engine).
    pub fn try_set(&mut self, creg: u8, raw: u32) -> Result<(), NdpError> {
        let val = f32::from_bits(raw);
        match creg {
            0 => self.c1 = val,
            1 => self.c2 = val,
            2 => self.c3 = val,
            3 => self.c4 = val,
            4 => self.c5 = val,
            5 => self.s1 = raw != 0,
            6 => self.s2 = raw != 0,
            other => return Err(NdpError::RegisterOutOfRange { creg: other }),
        }
        Ok(())
    }

    /// Executes the Eq. 1 datapath for one weight: returns the updated
    /// `(w, m, v)`.
    pub fn update(&self, w: f32, m: f32, v: f32, g: f32) -> (f32, f32, f32) {
        let m_t = self.c1 * m + self.c2 * g;
        let v_t = self.c3 * v + self.c4 * g * g;
        let t1 = if self.s1 { m_t } else { g };
        let t2 = if self.s2 {
            1.0 / (v_t.sqrt() + NDPO_EPS)
        } else {
            1.0
        };
        (w - self.c5 * t1 * t2, m_t, v_t)
    }

    /// Vectorized [`NdpoRegs::update`] over parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ; use [`NdpoRegs::try_update_slice`]
    /// to handle that as a value.
    pub fn update_slice(&self, w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]) {
        if let Err(e) = self.try_update_slice(w, m, v, g) {
            panic!("{e}");
        }
    }

    /// Fallible [`NdpoRegs::update_slice`]: rejects mismatched slice
    /// lengths with [`NdpError::SliceLengthMismatch`].
    pub fn try_update_slice(
        &self,
        w: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
    ) -> Result<(), NdpError> {
        if w.len() != m.len() || w.len() != v.len() || w.len() != g.len() {
            return Err(NdpError::SliceLengthMismatch {
                weights: w.len(),
                grads: g.len().min(m.len()).min(v.len()),
            });
        }
        for i in 0..w.len() {
            let (nw, nm, nv) = self.update(w[i], m[i], v[i], g[i]);
            w[i] = nw;
            m[i] = nm;
            v[i] = nv;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_nn::{AdaGrad, Adam, Optimizer, Param, RmsProp, Sgd};
    use cq_tensor::init;

    /// Drives both the reference optimizer and the NDPO datapath over the
    /// same gradient stream and compares trajectories.
    fn compare(kind: OptimizerKind, reference: &mut dyn Optimizer, steps: u32, tol: f32) {
        let n = 64;
        let mut p = Param::new(init::normal(&[n], 0.0, 1.0, 1));
        let mut w: Vec<f32> = p.value.data().to_vec();
        let mut m = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        for t in 1..=steps {
            let g = init::normal(&[n], 0.0, 0.5, 100 + t as u64);
            p.grad = g.clone();
            reference.step(&mut [&mut p]);
            let regs = NdpoRegs::for_optimizer(kind, t);
            regs.update_slice(&mut w, &mut m, &mut v, g.data());
        }
        for i in 0..n {
            let (a, b) = (p.value.data()[i], w[i]);
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs()),
                "{}: idx {i}: reference {a} vs NDPO {b}",
                kind.name()
            );
        }
    }

    #[test]
    fn ndpo_matches_sgd() {
        compare(OptimizerKind::Sgd { lr: 0.1 }, &mut Sgd::new(0.1), 20, 1e-6);
    }

    #[test]
    fn ndpo_matches_adagrad() {
        compare(
            OptimizerKind::AdaGrad { lr: 0.05 },
            &mut AdaGrad::new(0.05),
            20,
            1e-4,
        );
    }

    #[test]
    fn ndpo_matches_rmsprop() {
        compare(
            OptimizerKind::RmsProp {
                lr: 0.01,
                beta: 0.9,
            },
            &mut RmsProp::new(0.01, 0.9),
            20,
            1e-4,
        );
    }

    #[test]
    fn ndpo_matches_adam_with_bias_correction() {
        compare(
            OptimizerKind::Adam {
                lr: 0.001,
                beta1: 0.9,
                beta2: 0.999,
            },
            &mut Adam::with_defaults(0.001),
            30,
            1e-3,
        );
    }

    #[test]
    fn croset_register_writes() {
        let mut regs = NdpoRegs::default();
        regs.set(4, 0.5f32.to_bits());
        assert_eq!(regs.c5, 0.5);
        regs.set(5, 1);
        regs.set(6, 0);
        assert!(regs.s1);
        assert!(!regs.s2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn croset_bad_register() {
        NdpoRegs::default().set(7, 0);
    }

    #[test]
    fn state_words_per_optimizer() {
        assert_eq!(OptimizerKind::Sgd { lr: 0.1 }.state_words(), 0);
        assert_eq!(OptimizerKind::AdaGrad { lr: 0.1 }.state_words(), 1);
        assert_eq!(
            OptimizerKind::Adam {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999
            }
            .state_words(),
            2
        );
    }

    #[test]
    fn update_slice_length_mismatch_panics() {
        let regs = NdpoRegs::for_optimizer(OptimizerKind::Sgd { lr: 0.1 }, 1);
        let mut w = vec![0.0; 2];
        let mut m = vec![0.0; 2];
        let mut v = vec![0.0; 2];
        let g = vec![0.0; 3];
        let result = std::panic::catch_unwind(move || {
            regs.update_slice(&mut w, &mut m, &mut v, &g);
        });
        assert!(result.is_err());
    }

    #[test]
    fn sgd_regs_do_not_touch_state() {
        let regs = NdpoRegs::for_optimizer(OptimizerKind::Sgd { lr: 0.1 }, 1);
        let (w, m, v) = regs.update(1.0, 0.25, 0.75, 2.0);
        assert!((w - 0.8).abs() < 1e-6);
        assert_eq!(m, 0.0 * 0.25 + 0.0); // c1 = c2 = 0
        assert_eq!(v, 0.0);
    }
}

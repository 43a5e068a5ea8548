//! Regression tests for the float inputs of [`CambriconQ::cache_key`].
//!
//! A text rendering of the key inputs aliases floats: every NaN payload
//! renders as `NaN`, and a formatting change could collapse `-0.0` into
//! `0.0`. Two configs differing only in such a field would then
//! cross-serve each other's cached cost. The keys are canonical bytes
//! (floats via `to_bits`), so they must differ exactly when the float
//! fields are not bit-identical.
//!
//! [`CambriconQ::cache_key`]: crate::CambriconQ::cache_key

#[cfg(test)]
mod tests {
    use cq_ndp::OptimizerKind;
    use cq_sim::HwCostKey;
    use cq_workloads::models;

    use crate::{CambriconQ, CqConfig};

    fn key(config: &CqConfig, optimizer: OptimizerKind) -> HwCostKey {
        CambriconQ::new(config.clone()).cache_key(&models::squeezenet_v1(), optimizer)
    }

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { lr: 0.1 }
    }

    #[test]
    fn signed_zero_config_fields_key_differently() {
        // Two configs identical except for a -0.0/0.0 ECC energy field
        // must not share a cache key.
        let mut pos = CqConfig::edge();
        pos.ddr.ecc.check_pj_per_byte = 0.0;
        let mut neg = pos.clone();
        neg.ddr.ecc.check_pj_per_byte = -0.0;
        assert_ne!(key(&pos, sgd()), key(&neg, sgd()));
        // Bit-identical configs agree.
        assert_eq!(key(&pos, sgd()), key(&pos.clone(), sgd()));
    }

    #[test]
    fn nan_payload_optimizer_fields_key_differently() {
        // Debug renders every NaN as "NaN"; the key must not.
        let quiet = f32::NAN;
        let payload = f32::from_bits(quiet.to_bits() ^ 0x1);
        let a = OptimizerKind::Sgd { lr: quiet };
        let b = OptimizerKind::Sgd { lr: payload };
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let config = CqConfig::edge();
        assert_ne!(key(&config, a), key(&config, b));
    }

    #[test]
    fn every_optimizer_float_is_covered() {
        let bump = |v: f32| f32::from_bits(v.to_bits() ^ 0x1);
        let pairs: [(OptimizerKind, OptimizerKind); 5] = [
            (
                OptimizerKind::Sgd { lr: 0.1 },
                OptimizerKind::Sgd { lr: bump(0.1) },
            ),
            (
                OptimizerKind::AdaGrad { lr: 0.1 },
                OptimizerKind::AdaGrad { lr: bump(0.1) },
            ),
            (
                OptimizerKind::RmsProp { lr: 0.1, beta: 0.9 },
                OptimizerKind::RmsProp {
                    lr: 0.1,
                    beta: bump(0.9),
                },
            ),
            (
                OptimizerKind::Adam {
                    lr: 0.1,
                    beta1: 0.9,
                    beta2: 0.999,
                },
                OptimizerKind::Adam {
                    lr: 0.1,
                    beta1: 0.9,
                    beta2: bump(0.999),
                },
            ),
            (
                OptimizerKind::Adam {
                    lr: 0.1,
                    beta1: 0.9,
                    beta2: 0.999,
                },
                OptimizerKind::Adam {
                    lr: 0.1,
                    beta1: bump(0.9),
                    beta2: 0.999,
                },
            ),
        ];
        let config = CqConfig::edge();
        for (a, b) in pairs {
            assert_ne!(key(&config, a), key(&config, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fault_ber_participates_in_the_fragment() {
        use cq_mem::FaultModel;
        let base = CqConfig::edge();
        let with_fault = |ber: f64| {
            let mut c = base.clone();
            c.ddr = c.ddr.with_fault(FaultModel::new(ber, 7));
            c
        };
        let none = key(&base, sgd());
        let low = key(&with_fault(1e-9), sgd());
        let high = key(&with_fault(1e-6), sgd());
        assert_ne!(none, low);
        assert_ne!(low, high);
    }
}

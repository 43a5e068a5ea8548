//! `CambriconQ::cache_key` keys every simulation input bit-exactly.
//!
//! Each case flips one bit of one float field (or changes one mapping
//! table entry or one layer dimension) of a base input set; every case
//! must key apart from the base and from every other case. A float
//! field missing from its `CanonicalKey` impl, or keyed through a text
//! rendering that aliases signed zeros or NaN payloads, collides here.

use cq_accel::{CambriconQ, CqConfig};
use cq_mem::FaultModel;
use cq_ndp::OptimizerKind;
use cq_sim::mapping::{Mapping, MappingPolicy, MappingTable};
use cq_sim::HwCostKey;
use cq_workloads::{conv, linear, LayerKind, Network};
use std::collections::HashMap;

struct Inputs {
    config: CqConfig,
    mapping: MappingTable,
    net: Network,
    optimizer: OptimizerKind,
}

impl Inputs {
    fn key(&self) -> HwCostKey {
        CambriconQ::with_mapping(
            self.config.clone(),
            MappingPolicy::Table(self.mapping.clone()),
        )
        .cache_key(&self.net, self.optimizer)
    }
}

/// Flips the lowest mantissa bit.
fn bump64(v: f64) -> f64 {
    f64::from_bits(v.to_bits() ^ 1)
}

fn bump32(v: f32) -> f32 {
    f32::from_bits(v.to_bits() ^ 1)
}

/// Flips the sign bit: on the base's zero ECC fields this is the
/// `0.0` vs `-0.0` pair a text key would alias.
fn negate(v: &mut f64) {
    *v = f64::from_bits(v.to_bits() ^ (1 << 63));
}

fn adam(lr: f32, beta1: f32, beta2: f32) -> OptimizerKind {
    OptimizerKind::Adam { lr, beta1, beta2 }
}

fn base() -> Inputs {
    let net = Network::new(
        "tiny",
        "synthetic",
        8,
        vec![conv("conv1", 3, 16, 3, 32, 32), linear("fc", 1024, 10)],
    );
    let mut mapping = MappingTable::new();
    mapping.insert("tiny", "conv1", Mapping::streaming_default());
    mapping.insert("tiny", "fc", Mapping::streaming_default());
    let mut config = CqConfig::edge();
    config.ddr = config.ddr.with_fault(FaultModel::new(1e-9, 7));
    Inputs {
        config,
        mapping,
        net,
        optimizer: adam(1e-3, 0.9, 0.999),
    }
}

#[test]
fn cache_key_separates_every_input() {
    let with = |f: &dyn Fn(&mut Inputs)| {
        let mut inputs = base();
        f(&mut inputs);
        inputs
    };
    let sgd = |lr| OptimizerKind::Sgd { lr };
    let adagrad = |lr| OptimizerKind::AdaGrad { lr };
    let rmsprop = |lr, beta| OptimizerKind::RmsProp { lr, beta };
    let nan_payload = bump32(f32::NAN);
    let cases: Vec<(&str, Inputs)> = vec![
        ("base", base()),
        (
            "freq_ghz",
            with(&|i| i.config.freq_ghz = bump64(i.config.freq_ghz)),
        ),
        (
            "ddr.freq_mhz",
            with(&|i| i.config.ddr.freq_mhz = bump64(i.config.ddr.freq_mhz)),
        ),
        (
            "ecc.check_pj_per_byte",
            with(&|i| negate(&mut i.config.ddr.ecc.check_pj_per_byte)),
        ),
        (
            "ecc.correct_pj",
            with(&|i| negate(&mut i.config.ddr.ecc.correct_pj)),
        ),
        (
            "ecc.storage_overhead",
            with(&|i| negate(&mut i.config.ddr.ecc.storage_overhead)),
        ),
        ("no fault", with(&|i| i.config.ddr.fault = None)),
        (
            "fault.ber",
            with(&|i| {
                let fault = i.config.ddr.fault.as_mut().unwrap();
                fault.ber = bump64(fault.ber);
            }),
        ),
        ("sgd", with(&|i| i.optimizer = sgd(0.1))),
        ("sgd.lr", with(&|i| i.optimizer = sgd(bump32(0.1)))),
        ("sgd.lr NaN", with(&|i| i.optimizer = sgd(f32::NAN))),
        (
            "sgd.lr NaN payload",
            with(&|i| i.optimizer = sgd(nan_payload)),
        ),
        ("adagrad", with(&|i| i.optimizer = adagrad(0.1))),
        ("adagrad.lr", with(&|i| i.optimizer = adagrad(bump32(0.1)))),
        ("rmsprop", with(&|i| i.optimizer = rmsprop(0.1, 0.9))),
        (
            "rmsprop.lr",
            with(&|i| i.optimizer = rmsprop(bump32(0.1), 0.9)),
        ),
        (
            "rmsprop.beta",
            with(&|i| i.optimizer = rmsprop(0.1, bump32(0.9))),
        ),
        (
            "adam.lr",
            with(&|i| i.optimizer = adam(bump32(1e-3), 0.9, 0.999)),
        ),
        (
            "adam.beta1",
            with(&|i| i.optimizer = adam(1e-3, bump32(0.9), 0.999)),
        ),
        (
            "adam.beta2",
            with(&|i| i.optimizer = adam(1e-3, 0.9, bump32(0.999))),
        ),
        (
            "mapping table entry",
            with(&|i| {
                let mut m = Mapping::streaming_default();
                m.kfold = 2;
                i.mapping.insert("tiny", "fc", m);
            }),
        ),
        (
            "layer dimension",
            with(&|i| {
                if let LayerKind::Linear { out_f, .. } = &mut i.net.layers[1].kind {
                    *out_f += 1;
                }
            }),
        ),
    ];

    // Bit-identical inputs share a key: the memo still hits.
    assert_eq!(base().key(), base().key());
    let mut seen: HashMap<HwCostKey, &str> = HashMap::new();
    for (name, inputs) in &cases {
        if let Some(other) = seen.insert(inputs.key(), name) {
            panic!("{name} keys the same as {other}");
        }
    }
}

//! Cross-validation of the two timing models: the analytical whole-chip
//! simulator ([`cq_accel::CambriconQ`]), which is the chip's one account
//! of time, versus the instruction-driven [`cq_accel::TimingExecutor`]
//! running compiled forward programs.
//!
//! The two models share the PE/SQU/DDR component models but schedule work
//! completely differently (closed-form per layer vs. per-instruction), so
//! agreement is meaningful evidence neither is mis-accounting. They also
//! overlap the engines at different granularity: the analytical model
//! takes `max(compute, memory, squ)` per layer phase, the executor once
//! over the whole program. Layer by layer the two agree to within 1%
//! (the tests pin it); over a whole network the executor reads lower
//! wherever memory-bound layers hide under other layers' compute.

use cq_accel::{compile_network_forward, CambriconQ, CqConfig, TimingExecutor};
use cq_ndp::OptimizerKind;
use cq_sim::report::TextTable;
use cq_sim::Phase;
use cq_workloads::models;

/// One benchmark's forward-pass cycles under both models.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheckRow {
    /// Benchmark name.
    pub network: String,
    /// Analytical model's forward-phase cycles.
    pub analytical: u64,
    /// Instruction-driven executor's total cycles for the same work.
    pub executor: u64,
}

impl CrossCheckRow {
    /// Ratio executor/analytical (1.0 = perfect agreement).
    pub fn ratio(&self) -> f64 {
        self.executor as f64 / self.analytical.max(1) as f64
    }
}

/// Runs the cross-check over all benchmarks.
pub fn run_crosscheck() -> Vec<CrossCheckRow> {
    let config = CqConfig::edge();
    let chip = CambriconQ::new(config.clone());
    let sgd = OptimizerKind::Sgd { lr: 0.01 };
    models::all_benchmarks()
        .into_iter()
        .map(|net| {
            let analytical = chip.simulate(&net, sgd).phases.cycles(Phase::Forward);
            let program = compile_network_forward(&config, &net);
            let executor = TimingExecutor::new(config.clone()).run(&program).cycles;
            CrossCheckRow {
                network: net.name,
                analytical,
                executor,
            }
        })
        .collect()
}

/// Renders the cross-check table.
pub fn crosscheck_table(rows: &[CrossCheckRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "analytical FW (cycles)",
        "executor (cycles)",
        "ratio",
    ]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            r.analytical.to_string(),
            r.executor.to_string(),
            format!("{:.2}", r.ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_workloads::Network;

    /// Executor/analytical FW cycles are 0.97–1.00 on five networks and
    /// 0.87 on SqueezeNet. The gap is overlap granularity, not cost: the
    /// executor overlaps engines once over the whole program, the
    /// analytical model per layer. SqueezeNet's squeeze and expand1x1
    /// layers are memory-bound, so in one program their memory time hides
    /// under other layers' compute. Layer by layer the models agree
    /// (`models_agree_layer_by_layer`).
    #[test]
    fn models_agree_within_a_small_factor() {
        for r in run_crosscheck() {
            let ratio = r.ratio();
            assert!(
                (0.85..=1.05).contains(&ratio),
                "{}: executor/analytical = {ratio:.2}",
                r.network
            );
        }
    }

    /// Each layer compiled alone: the executor's busiest engine is
    /// 0.99..=1.0 of that layer's analytical forward cycles on every
    /// layer of all six networks (0.9974 at worst, GoogLeNet
    /// `5a.5x5red`).
    #[test]
    fn models_agree_layer_by_layer() {
        let config = CqConfig::edge();
        let chip = CambriconQ::new(config.clone());
        for net in models::all_benchmarks() {
            let (_, profile) = chip.simulate_profiled(&net, OptimizerKind::Sgd { lr: 0.01 });
            for (layer, (name, phases)) in net.layers.iter().zip(&profile) {
                let alone = Network {
                    layers: vec![layer.clone()],
                    ..net.clone()
                };
                let program = compile_network_forward(&config, &alone);
                let t = TimingExecutor::new(config.clone()).run(&program);
                let busiest = t.compute_cycles.max(t.memory_cycles).max(t.squ_cycles);
                let analytical = phases.cycles(Phase::Forward);
                let ratio = busiest as f64 / analytical.max(1) as f64;
                assert!(
                    (0.99..=1.0).contains(&ratio),
                    "{}/{name}: executor {busiest} / analytical {analytical} = {ratio:.6}",
                    net.name
                );
            }
        }
    }

    #[test]
    fn table_renders() {
        let rows = run_crosscheck();
        assert!(crosscheck_table(&rows).to_string().contains("ratio"));
    }
}

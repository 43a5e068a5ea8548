//! Whole-network workload descriptions.

use crate::layer::Layer;
use std::fmt;

/// A benchmark network: its layers, dataset and minibatch size (Table VI).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Network {
    /// Network name ("AlexNet", ...).
    pub name: String,
    /// Dataset name ("ImageNet", ...).
    pub dataset: String,
    /// Minibatch size used in the paper's evaluation.
    pub batch_size: usize,
    /// Compute layers, in forward order (pooling/activation layers are
    /// folded into the producing layer's traffic and excluded here — their
    /// MAC contribution is negligible).
    pub layers: Vec<Layer>,
}

impl Network {
    /// Creates a network.
    pub fn new(
        name: impl Into<String>,
        dataset: impl Into<String>,
        batch_size: usize,
        layers: Vec<Layer>,
    ) -> Self {
        Network {
            name: name.into(),
            dataset: dataset.into(),
            batch_size,
            layers,
        }
    }

    /// Total weight count.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Total forward MACs for one minibatch.
    pub fn forward_macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward_macs() * self.batch_size as u64)
            .sum()
    }

    /// Total MACs (FW + NG + WG) for one training minibatch.
    pub fn training_macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                (l.forward_macs() + l.neuron_grad_macs() + l.weight_grad_macs())
                    * self.batch_size as u64
            })
            .sum()
    }

    /// Total activation elements (inputs + outputs) per minibatch.
    pub fn activation_elems(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.input_count() + l.output_count()) * self.batch_size as u64)
            .sum()
    }

    /// Ratio of weight-update work to total compute work: networks with
    /// many weights relative to MACs (AlexNet, Transformer) are WU-heavy,
    /// the paper's motivation for the NDP engine.
    pub fn wu_intensity(&self) -> f64 {
        self.total_weights() as f64 / self.training_macs().max(1) as f64
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, batch {}): {} layers, {:.1}M weights, {:.2}G training MACs/batch",
            self.name,
            self.dataset,
            self.batch_size,
            self.layers.len(),
            self.total_weights() as f64 / 1e6,
            self.training_macs() as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv, linear};

    fn tiny() -> Network {
        Network::new(
            "Tiny",
            "Synthetic",
            4,
            vec![conv("c1", 3, 8, 3, 8, 8), linear("fc", 512, 10)],
        )
    }

    #[test]
    fn totals() {
        let n = tiny();
        assert_eq!(n.total_weights(), 3 * 8 * 9 + 512 * 10);
        let fw = n.forward_macs();
        assert_eq!(fw, (3 * 8 * 9 * 64 + 512 * 10) as u64 * 4);
        assert_eq!(n.training_macs(), fw * 3);
    }

    #[test]
    fn wu_intensity_ordering() {
        // A pure-FC net is far more WU-intense than a conv net of equal MACs.
        let fc_net = Network::new("FC", "S", 1, vec![linear("fc", 1024, 1024)]);
        let conv_net = Network::new("Conv", "S", 1, vec![conv("c", 16, 16, 3, 64, 64)]);
        assert!(fc_net.wu_intensity() > conv_net.wu_intensity() * 100.0);
    }

    #[test]
    fn display_contains_stats() {
        let s = tiny().to_string();
        assert!(s.contains("Tiny"));
        assert!(s.contains("layers"));
    }
}

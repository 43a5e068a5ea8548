//! Layer descriptions and work accounting.
//!
//! A [`Layer`] records the tensor dimensions of one network layer; from
//! those it derives the quantities every simulator needs: multiply-
//! accumulate counts for the three compute passes (FW/NG/WG), element
//! counts for inputs/weights/outputs, and the weight-update footprint.

use std::fmt;

/// The kind of a network layer, with its dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution: `in_c × in_h × in_w` inputs, `out_c` filters of
    /// `kh × kw`, producing `out_c × out_h × out_w`.
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Input spatial height.
        in_h: usize,
        /// Input spatial width.
        in_w: usize,
        /// Output spatial height.
        out_h: usize,
        /// Output spatial width.
        out_w: usize,
    },
    /// Fully-connected layer `in_f → out_f`.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// A linear projection applied independently to every token of a
    /// sequence (e.g. the vocabulary softmax projection of language
    /// models): weights are shared, MACs scale with `seq_len`.
    TokenLinear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Tokens per sample.
        seq_len: usize,
    },
    /// An LSTM stack: `layers` layers of hidden size `hidden` unrolled over
    /// `seq_len` timesteps (input size = `input`).
    Lstm {
        /// Input feature size.
        input: usize,
        /// Hidden state size.
        hidden: usize,
        /// Sequence length (timesteps).
        seq_len: usize,
    },
    /// Scaled-dot-product attention projections + FFN of one transformer
    /// layer over a sequence.
    TransformerLayer {
        /// Model dimension.
        d_model: usize,
        /// Feed-forward inner dimension.
        d_ff: usize,
        /// Sequence length.
        seq_len: usize,
        /// Number of attention matmuls (4 for self-attention only,
        /// 8 when a cross-attention block is present).
        attn_projections: usize,
    },
}

/// A named layer of a network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Layer name ("conv1", "fc6", "inception3a.1x1", ...).
    pub name: String,
    /// Dimensions.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }

    /// Number of synaptic weights.
    pub fn weight_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kh,
                kw,
                ..
            } => (in_c * out_c * kh * kw) as u64,
            LayerKind::Linear { in_f, out_f } => (in_f * out_f) as u64,
            LayerKind::TokenLinear { in_f, out_f, .. } => (in_f * out_f) as u64,
            // 4 gates, input + recurrent weights.
            LayerKind::Lstm { input, hidden, .. } => (4 * hidden * (input + hidden)) as u64,
            LayerKind::TransformerLayer {
                d_model,
                d_ff,
                attn_projections,
                ..
            } => (attn_projections * d_model * d_model + 2 * d_model * d_ff) as u64,
        }
    }

    /// Input activation elements for one sample.
    pub fn input_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_c, in_h, in_w, ..
            } => (in_c * in_h * in_w) as u64,
            LayerKind::Linear { in_f, .. } => in_f as u64,
            LayerKind::TokenLinear { in_f, seq_len, .. } => (in_f * seq_len) as u64,
            LayerKind::Lstm { input, seq_len, .. } => (input * seq_len) as u64,
            LayerKind::TransformerLayer {
                d_model, seq_len, ..
            } => (d_model * seq_len) as u64,
        }
    }

    /// Output activation elements for one sample.
    pub fn output_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                out_c,
                out_h,
                out_w,
                ..
            } => (out_c * out_h * out_w) as u64,
            LayerKind::Linear { out_f, .. } => out_f as u64,
            LayerKind::TokenLinear { out_f, seq_len, .. } => (out_f * seq_len) as u64,
            LayerKind::Lstm {
                hidden, seq_len, ..
            } => (hidden * seq_len) as u64,
            LayerKind::TransformerLayer {
                d_model, seq_len, ..
            } => (d_model * seq_len) as u64,
        }
    }

    /// Multiply-accumulates of the forward pass for one sample.
    pub fn forward_macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kh,
                kw,
                out_h,
                out_w,
                ..
            } => (in_c * out_c * kh * kw * out_h * out_w) as u64,
            LayerKind::Linear { in_f, out_f } => (in_f * out_f) as u64,
            LayerKind::TokenLinear {
                in_f,
                out_f,
                seq_len,
            } => (seq_len * in_f * out_f) as u64,
            LayerKind::Lstm {
                input,
                hidden,
                seq_len,
            } => (seq_len * 4 * hidden * (input + hidden)) as u64,
            LayerKind::TransformerLayer {
                d_model,
                d_ff,
                seq_len,
                attn_projections,
            } => {
                // Projections + FFN matmuls plus the seq×seq attention
                // score/context products.
                let proj = seq_len * (attn_projections * d_model * d_model + 2 * d_model * d_ff);
                let attn = 2 * seq_len * seq_len * d_model;
                (proj + attn) as u64
            }
        }
    }

    /// MACs of the neuron-gradient pass (≈ forward for dense layers).
    pub fn neuron_grad_macs(&self) -> u64 {
        self.forward_macs()
    }

    /// MACs of the weight-gradient pass (≈ forward for dense layers).
    pub fn weight_grad_macs(&self) -> u64 {
        self.forward_macs()
    }
}

/// Matrix-multiply dimensions `m×k · k×n` (one PE-array work unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulDims {
    /// Output rows.
    pub m: u64,
    /// Output columns.
    pub n: u64,
    /// Inner (reduction) dimension.
    pub k: u64,
    /// How many times this matmul repeats *serially* (timestep
    /// dependencies: LSTM steps cannot overlap on one array).
    pub serial_repeats: u64,
}

impl MatmulDims {
    /// Total MACs of all repeats.
    pub fn macs(&self) -> u64 {
        self.m * self.n * self.k * self.serial_repeats
    }
}

impl Layer {
    /// Decomposes the forward pass into matrix multiplies for a minibatch
    /// of `batch` samples — the form the PE-array models consume. The
    /// backward passes reuse the same shapes (transposed operands have
    /// identical tiling cost).
    pub fn as_matmuls(&self, batch: usize) -> Vec<MatmulDims> {
        let b = batch as u64;
        match self.kind {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kh,
                kw,
                out_h,
                out_w,
                ..
            } => vec![MatmulDims {
                m: b * (out_h * out_w) as u64,
                n: out_c as u64,
                k: (in_c * kh * kw) as u64,
                serial_repeats: 1,
            }],
            LayerKind::Linear { in_f, out_f } => vec![MatmulDims {
                m: b,
                n: out_f as u64,
                k: in_f as u64,
                serial_repeats: 1,
            }],
            LayerKind::TokenLinear {
                in_f,
                out_f,
                seq_len,
            } => vec![MatmulDims {
                m: b * seq_len as u64,
                n: out_f as u64,
                k: in_f as u64,
                serial_repeats: 1,
            }],
            LayerKind::Lstm {
                input,
                hidden,
                seq_len,
            } => vec![MatmulDims {
                m: b,
                n: 4 * hidden as u64,
                k: (input + hidden) as u64,
                serial_repeats: seq_len as u64,
            }],
            LayerKind::TransformerLayer {
                d_model,
                d_ff,
                seq_len,
                attn_projections,
            } => vec![
                // Q/K/V/output (+cross) projections and the FFN, batched
                // over all tokens.
                MatmulDims {
                    m: b * seq_len as u64,
                    n: (attn_projections * d_model + 2 * d_ff) as u64,
                    k: d_model as u64,
                    serial_repeats: 1,
                },
                // Attention scores and context: per-sample seq×seq
                // products, batch-concatenated along m (batch-parallel);
                // the score and context stages serialize (2 repeats).
                MatmulDims {
                    m: b * seq_len as u64,
                    n: seq_len as u64,
                    k: d_model as u64,
                    serial_repeats: 2,
                },
            ],
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} weights, {} MACs/sample]",
            self.name,
            self.weight_count(),
            self.forward_macs()
        )
    }
}

/// Convenience constructor for square-kernel convolutions with explicit
/// output size.
pub fn conv(name: &str, in_c: usize, out_c: usize, k: usize, in_hw: usize, out_hw: usize) -> Layer {
    Layer::new(
        name,
        LayerKind::Conv2d {
            in_c,
            out_c,
            kh: k,
            kw: k,
            in_h: in_hw,
            in_w: in_hw,
            out_h: out_hw,
            out_w: out_hw,
        },
    )
}

/// Convenience constructor for fully-connected layers.
pub fn linear(name: &str, in_f: usize, out_f: usize) -> Layer {
    Layer::new(name, LayerKind::Linear { in_f, out_f })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_counts() {
        // AlexNet conv1: 3->96, 11x11, 227 -> 55.
        let l = conv("conv1", 3, 96, 11, 227, 55);
        assert_eq!(l.weight_count(), 3 * 96 * 11 * 11);
        assert_eq!(l.forward_macs(), (3 * 96 * 11 * 11 * 55 * 55) as u64);
        assert_eq!(l.input_count(), 3 * 227 * 227);
        assert_eq!(l.output_count(), 96 * 55 * 55);
    }

    #[test]
    fn linear_counts() {
        let l = linear("fc6", 9216, 4096);
        assert_eq!(l.weight_count(), 9216 * 4096);
        assert_eq!(l.forward_macs(), 9216 * 4096);
        assert_eq!(l.input_count(), 9216);
        assert_eq!(l.output_count(), 4096);
    }

    #[test]
    fn lstm_counts() {
        let l = Layer::new(
            "lstm",
            LayerKind::Lstm {
                input: 650,
                hidden: 650,
                seq_len: 35,
            },
        );
        assert_eq!(l.weight_count(), 4 * 650 * 1300);
        assert_eq!(l.forward_macs(), 35 * 4 * 650 * 1300);
    }

    #[test]
    fn transformer_counts() {
        let l = Layer::new(
            "enc1",
            LayerKind::TransformerLayer {
                d_model: 512,
                d_ff: 2048,
                seq_len: 25,
                attn_projections: 4,
            },
        );
        assert_eq!(l.weight_count(), 4 * 512 * 512 + 2 * 512 * 2048);
        assert!(l.forward_macs() > l.weight_count() * 20);
    }

    #[test]
    fn backward_macs_mirror_forward() {
        let l = conv("c", 16, 32, 3, 28, 28);
        assert_eq!(l.neuron_grad_macs(), l.forward_macs());
        assert_eq!(l.weight_grad_macs(), l.forward_macs());
    }

    #[test]
    fn display_has_name() {
        assert!(linear("fc", 10, 10).to_string().contains("fc"));
    }
}

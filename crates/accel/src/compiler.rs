//! Lowering of dense-layer work to Cambricon-Q instruction streams.
//!
//! The compiler tiles a matrix multiply to the 64×64 PE array, emits
//! quantized loads (`QLOAD`) for the operand tiles, an accumulating `MM`
//! chain over the k dimension, a quantized store of the outputs, and —
//! for the weight-update step — the `CROSET` + `WGSTORE` sequence that
//! drives the NDP engine. [`compile_network_forward`] lowers a whole
//! network (or one layer of it) to the stream the
//! [`crate::TimingExecutor`] costs against the analytical simulator.

use crate::config::CqConfig;
use cq_isa::{Instruction, Operand, Program, QuantWidth};
use cq_ndp::{NdpoRegs, OptimizerKind};
use cq_quant::IntFormat;
use cq_workloads::Network;

/// DRAM layout of one dense layer's tensors (element indices × 4 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseLayout {
    /// Input activations `[m, k]` base address (bytes).
    pub input: u32,
    /// Weights `[k, n]` base address (bytes).
    pub weight: u32,
    /// Outputs `[m, n]` base address (bytes).
    pub output: u32,
}

/// DRAM layout for a weight update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateLayout {
    /// Weight base address (bytes).
    pub weight: u32,
    /// Optimizer parameter m base address (bytes).
    pub m: u32,
    /// Optimizer parameter v base address (bytes).
    pub v: u32,
    /// Gradient source base address (bytes, in DRAM before staging).
    pub grad: u32,
}

fn width_of(format: IntFormat) -> QuantWidth {
    match format {
        IntFormat::Int4 => QuantWidth::W4,
        IntFormat::Int8 => QuantWidth::W8,
        IntFormat::Int12 => QuantWidth::W12,
        IntFormat::Int16 => QuantWidth::W16,
    }
}

/// Compiles a dense forward pass `y[m,n] = x[m,k] · w[k,n]` into a tiled
/// instruction stream.
///
/// Row-major operands; tiles are `tile × tile` (the PE array dimension).
/// Partial edge tiles are emitted with their true sizes — the functional
/// machine handles any `m/n/k`, while the timing model charges padded
/// tiles, matching the utilization loss of real hardware.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn compile_dense_forward(
    config: &CqConfig,
    layout: DenseLayout,
    m: u32,
    k: u32,
    n: u32,
) -> Program {
    assert!(m > 0 && k > 0 && n > 0, "degenerate matmul");
    let width = width_of(config.train_format);
    let tile = config.pe_rows as u32;
    let mut p = Program::new();
    for mt in (0..m).step_by(tile as usize) {
        let mm = tile.min(m - mt);
        // Load the x row-block [mm, k] once per row tile; it stays in
        // NBin across all column tiles (operand reuse).
        p.push(Instruction::Sload {
            dest: Operand::nbin(0),
            src: Operand::dram(layout.input + (mt * k) * 4),
            dest_stride: k * 4,
            src_stride: k * 4,
            size: k,
            n: mm,
        });
        p.push(Instruction::Qmove {
            dest: Operand::nbin(0),
            src: Operand::nbin(0),
            size: mm * k,
            width,
        });
        for nt in (0..n).step_by(tile as usize) {
            let nn = tile.min(n - nt);
            // Load the w column-block [k, nn].
            p.push(Instruction::Sload {
                dest: Operand::sb(0),
                src: Operand::dram(layout.weight + nt * 4),
                dest_stride: nn * 4,
                src_stride: n * 4,
                size: nn,
                n: k,
            });
            p.push(Instruction::Qmove {
                dest: Operand::sb(0),
                src: Operand::sb(0),
                size: k * nn,
                width,
            });
            // Zero the accumulator tile, then accumulate the product.
            p.push(Instruction::Vec {
                op: cq_isa::VecOp::ScalarMul,
                dest: Operand::nbout(0),
                src1: Operand::nbout(0),
                src2: Operand::new(cq_isa::MemSpace::NBout, 0.0f32.to_bits()),
                size: mm * nn,
            });
            p.push(Instruction::Mm {
                dest: Operand::nbout(0),
                lsrc: Operand::nbin(0),
                rsrc: Operand::sb(0),
                m: mm,
                n: nn,
                k,
            });
            // Store the output tile back, quantized on the way out.
            p.push(Instruction::Qmove {
                dest: Operand::nbout(0),
                src: Operand::nbout(0),
                size: mm * nn,
                width,
            });
            p.push(Instruction::Sstore {
                dest: Operand::dram(layout.output + (mt * n + nt) * 4),
                src: Operand::nbout(0),
                dest_stride: n * 4,
                src_stride: nn * 4,
                size: nn,
                n: mm,
            });
        }
    }
    p
}

/// DRAM layout of a convolution layer's tensors (byte addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayout {
    /// Input activations `[N, C, H, W]` base address (bytes).
    pub input: u32,
    /// Weights `[F, C, K, K]` base address (bytes).
    pub weight: u32,
    /// Outputs `[N, F, OH, OW]` base address (bytes).
    pub output: u32,
}

/// Geometry of a compiled convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size N.
    pub batch: u32,
    /// Input channels C.
    pub in_channels: u32,
    /// Output channels F.
    pub out_channels: u32,
    /// Input spatial height/width (square).
    pub in_hw: u32,
    /// Kernel height/width (square).
    pub kernel: u32,
    /// Stride.
    pub stride: u32,
    /// Zero padding.
    pub padding: u32,
}

impl ConvShape {
    /// Output spatial size.
    pub fn out_hw(&self) -> u32 {
        (self.in_hw + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Input element count.
    pub fn input_elems(&self) -> u32 {
        self.batch * self.in_channels * self.in_hw * self.in_hw
    }

    /// Weight element count.
    pub fn weight_elems(&self) -> u32 {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Output element count.
    pub fn output_elems(&self) -> u32 {
        self.batch * self.out_channels * self.out_hw() * self.out_hw()
    }
}

/// Compiles a convolution forward pass: quantized loads of the input and
/// weight tensors, one `CONV` on the PE array, and a quantized store of
/// the outputs.
///
/// # Panics
///
/// Panics if the kernel exceeds the padded input.
pub fn compile_conv_forward(config: &CqConfig, layout: ConvLayout, shape: ConvShape) -> Program {
    assert!(
        shape.kernel <= shape.in_hw + 2 * shape.padding,
        "kernel larger than padded input"
    );
    let width = width_of(config.train_format);
    let mut p = Program::new();
    p.push(Instruction::Qload {
        dest: Operand::nbin(0),
        src: Operand::dram(layout.input),
        size: shape.input_elems(),
        width,
    });
    p.push(Instruction::Qload {
        dest: Operand::sb(0),
        src: Operand::dram(layout.weight),
        size: shape.weight_elems(),
        width,
    });
    p.push(Instruction::Conv {
        dest: Operand::nbout(0),
        weight: Operand::sb(0),
        src: Operand::nbin(0),
        batch: shape.batch,
        in_channels: shape.in_channels,
        out_channels: shape.out_channels,
        in_hw: shape.in_hw,
        kernel: shape.kernel,
        stride: shape.stride,
        padding: shape.padding,
    });
    p.push(Instruction::Qstore {
        dest: Operand::dram(layout.output),
        src: Operand::nbout(0),
        size: shape.output_elems(),
        width,
    });
    p
}

/// Compiles the weight-update step: configure the NDPO via `CROSET` for
/// the optimizer at step `t`, stage the gradients on chip, and issue
/// `WGSTORE`s in SQU-buffer-sized chunks.
pub fn compile_weight_update(
    config: &CqConfig,
    layout: UpdateLayout,
    n_weights: u32,
    optimizer: OptimizerKind,
    t: u32,
) -> Program {
    let regs = NdpoRegs::for_optimizer(optimizer, t);
    let mut p = Program::new();
    p.push(Instruction::Croset {
        creg: 0,
        imm: regs.c1.to_bits(),
    });
    p.push(Instruction::Croset {
        creg: 1,
        imm: regs.c2.to_bits(),
    });
    p.push(Instruction::Croset {
        creg: 2,
        imm: regs.c3.to_bits(),
    });
    p.push(Instruction::Croset {
        creg: 3,
        imm: regs.c4.to_bits(),
    });
    p.push(Instruction::Croset {
        creg: 4,
        imm: regs.c5.to_bits(),
    });
    p.push(Instruction::Croset {
        creg: 5,
        imm: regs.s1 as u32,
    });
    p.push(Instruction::Croset {
        creg: 6,
        imm: regs.s2 as u32,
    });
    let chunk = (config.squ_buf_bytes / 4) as u32;
    let mut done = 0u32;
    while done < n_weights {
        let len = chunk.min(n_weights - done);
        p.push(Instruction::Vload {
            dest: Operand::nbout(0),
            src: Operand::dram(layout.grad + done * 4),
            size: len,
        });
        p.push(Instruction::Wgstore {
            dest: Operand::dram(layout.weight + done * 4),
            dest2: Operand::dram(layout.m + done * 4),
            dest3: Operand::dram(layout.v + done * 4),
            src: Operand::nbout(0),
            size: len,
        });
        done += len;
    }
    p
}

/// Compiles the forward pass of a whole workload network into one
/// program: for every layer, quantized loads of inputs and weights, the
/// matmul work units from [`cq_workloads::Layer::as_matmuls`] (serial
/// repeats unrolled), and a quantized store of the outputs.
///
/// This is the coarse-grained stream used for timing cross-checks (see
/// the `cq-experiments` timing cross-check). Compiled from a one-layer
/// network, the [`crate::TimingExecutor`]'s busiest engine lands within
/// 1% of that layer's analytical forward cycles. Over a whole network the
/// executor overlaps engines across layers, so its total reads lower
/// where memory-bound layers hide under other layers' compute.
pub fn compile_network_forward(config: &CqConfig, net: &Network) -> Program {
    let width = width_of(config.train_format);
    let mut p = Program::new();
    let mut addr = 0u32;
    let batch = net.batch_size;
    for layer in &net.layers {
        let inputs = (layer.input_count() as u32).saturating_mul(batch as u32);
        let weights = layer.weight_count() as u32;
        let outputs = (layer.output_count() as u32).saturating_mul(batch as u32);
        p.push(Instruction::Qload {
            dest: Operand::nbin(0),
            src: Operand::dram(addr),
            size: inputs,
            width,
        });
        p.push(Instruction::Qload {
            dest: Operand::sb(0),
            src: Operand::dram(addr.wrapping_add(inputs)),
            size: weights,
            width,
        });
        for mm in layer.as_matmuls(batch) {
            for _ in 0..mm.serial_repeats {
                p.push(Instruction::Mm {
                    dest: Operand::nbout(0),
                    lsrc: Operand::nbin(0),
                    rsrc: Operand::sb(0),
                    m: mm.m as u32,
                    n: mm.n as u32,
                    k: mm.k as u32,
                });
            }
        }
        p.push(Instruction::Qstore {
            dest: Operand::dram(addr.wrapping_add(inputs).wrapping_add(weights)),
            src: Operand::nbout(0),
            size: outputs,
            width,
        });
        addr = addr
            .wrapping_add(inputs)
            .wrapping_add(weights)
            .wrapping_add(outputs);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use cq_tensor::{init, ops, Tensor};

    #[test]
    fn compiled_matmul_matches_reference() {
        let config = CqConfig::edge();
        // 80x48 · 48x72: exercises partial tiles on both dims.
        let (m, k, n) = (80u32, 48u32, 72u32);
        let x = init::normal(&[m as usize, k as usize], 0.0, 1.0, 1);
        let w = init::normal(&[k as usize, n as usize], 0.0, 0.2, 2);
        let layout = DenseLayout {
            input: 0,
            weight: (m * k) * 4,
            output: (m * k + k * n) * 4,
        };
        let mut machine = Machine::new(config.clone(), (m * k + k * n + m * n) as usize);
        machine.dram_mut()[..(m * k) as usize].copy_from_slice(x.data());
        machine.dram_mut()[(m * k) as usize..(m * k + k * n) as usize].copy_from_slice(w.data());
        let p = compile_dense_forward(&config, layout, m, k, n);
        machine.run(&p).unwrap();
        let out = Tensor::from_vec(
            machine.dram()[(m * k + k * n) as usize..].to_vec(),
            &[m as usize, n as usize],
        )
        .unwrap();
        let reference = ops::matmul(&x, &w).unwrap();
        // Quantized compute: close in direction, small relative error.
        let cos = reference.cosine_similarity(&out).unwrap();
        assert!(cos > 0.999, "cosine {cos}");
    }

    #[test]
    fn compiled_update_matches_reference_optimizer() {
        use cq_nn::{Optimizer, Param, Sgd};
        let config = CqConfig::edge();
        let n = 3000u32;
        let w0 = init::normal(&[n as usize], 0.0, 1.0, 3);
        let g = init::normal(&[n as usize], 0.0, 0.1, 4);
        let layout = UpdateLayout {
            weight: 0,
            m: n * 4,
            v: 2 * n * 4,
            grad: 3 * n * 4,
        };
        let mut machine = Machine::new(config.clone(), 4 * n as usize);
        machine.dram_mut()[..n as usize].copy_from_slice(w0.data());
        machine.dram_mut()[3 * n as usize..4 * n as usize].copy_from_slice(g.data());
        let p = compile_weight_update(&config, layout, n, OptimizerKind::Sgd { lr: 0.1 }, 1);
        let stats = machine.run(&p).unwrap();
        assert_eq!(stats.weights_updated, n as u64);
        // Reference.
        let mut param = Param::new(w0.clone());
        param.grad = g.clone();
        Sgd::new(0.1).step(&mut [&mut param]);
        for i in 0..n as usize {
            assert!(
                (machine.dram()[i] - param.value.data()[i]).abs() < 1e-6,
                "weight {i}"
            );
        }
    }

    #[test]
    fn compiled_conv_matches_reference() {
        let config = CqConfig::edge();
        let shape = ConvShape {
            batch: 2,
            in_channels: 3,
            out_channels: 4,
            in_hw: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, 11);
        let w = init::normal(&[4, 3, 3, 3], 0.0, 0.3, 12);
        let layout = ConvLayout {
            input: 0,
            weight: shape.input_elems() * 4,
            output: (shape.input_elems() + shape.weight_elems()) * 4,
        };
        let total = (shape.input_elems() + shape.weight_elems() + shape.output_elems()) as usize;
        let mut machine = Machine::new(config.clone(), total);
        machine.dram_mut()[..shape.input_elems() as usize].copy_from_slice(x.data());
        machine.dram_mut()
            [shape.input_elems() as usize..(shape.input_elems() + shape.weight_elems()) as usize]
            .copy_from_slice(w.data());
        let p = compile_conv_forward(&config, layout, shape);
        machine.run(&p).unwrap();
        let out = Tensor::from_vec(
            machine.dram()[(shape.input_elems() + shape.weight_elems()) as usize..].to_vec(),
            &[2, 4, 8, 8],
        )
        .unwrap();
        let reference = ops::conv2d(&x, &w, ops::Conv2dParams::new(1, 1)).unwrap();
        let cos = reference.cosine_similarity(&out).unwrap();
        assert!(cos > 0.999, "cosine {cos}");
    }

    #[test]
    fn network_forward_compiles_all_benchmarks() {
        let config = CqConfig::edge();
        for net in cq_workloads::models::all_benchmarks() {
            let p = compile_network_forward(&config, &net);
            assert!(
                p.count(|i| matches!(i, Instruction::Mm { .. })) >= net.layers.len(),
                "{}",
                net.name
            );
            // Every layer loads two operands and stores one result.
            assert_eq!(
                p.count(|i| i.uses_squ()),
                net.layers.len() * 3,
                "{}",
                net.name
            );
        }
    }

    #[test]
    fn conv_shape_arithmetic() {
        let shape = ConvShape {
            batch: 1,
            in_channels: 3,
            out_channels: 96,
            in_hw: 227,
            kernel: 11,
            stride: 4,
            padding: 0,
        };
        assert_eq!(shape.out_hw(), 55);
        assert_eq!(shape.weight_elems(), 3 * 96 * 121);
        assert_eq!(shape.output_elems(), 96 * 55 * 55);
    }

    #[test]
    fn instruction_mix_is_sensible() {
        let config = CqConfig::edge();
        let p = compile_dense_forward(
            &config,
            DenseLayout {
                input: 0,
                weight: 4096,
                output: 8192,
            },
            128,
            64,
            128,
        );
        // 2x2 tiles → 4 MMs; x quantized once per row tile (2), w and the
        // output once per tile (4 + 4 QMOVEs).
        assert_eq!(p.count(|i| matches!(i, Instruction::Mm { .. })), 4);
        assert_eq!(p.count(|i| i.uses_squ()), 10);
        let update = compile_weight_update(
            &config,
            UpdateLayout {
                weight: 0,
                m: 4,
                v: 8,
                grad: 12,
            },
            2048,
            OptimizerKind::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
            },
            1,
        );
        assert_eq!(update.count(|i| matches!(i, Instruction::Croset { .. })), 7);
        assert_eq!(
            update.count(|i| matches!(i, Instruction::Wgstore { .. })),
            2
        );
    }
}

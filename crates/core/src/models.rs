//! Software fault models — Table II of the paper.
//!
//! A [`SoftwareFaultModel`] is the per-FF-category recipe for reproducing a
//! hardware transient fault purely in software: which stored value to
//! corrupt, how (an equivalent bit flip for datapath FFs, a random value for
//! local control), and which output neurons of the executing MAC layer are
//! affected (per Reuse Factor Analysis).
//!
//! [`apply_model`] executes a sampled instance of a model against one MAC
//! layer of a deployed network, producing the faulty layer output that the
//! injection flow then propagates to the application output.

use fidelity_accel::arch::{AcceleratorConfig, DataflowKind};
use fidelity_accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{MacSpec, OperandKind, Operands, Substitution};
use fidelity_dnn::precision::ValueCodec;
use fidelity_dnn::tensor::Tensor;
use fidelity_dnn::workspace::Workspace;
use fidelity_dnn::DnnError;

/// The 2-D extent of the output-neuron window a buffer-to-MAC operand fault
/// can corrupt, in (position, channel) coordinates. Derived from the reuse
/// factor analysis of the accelerator's dataflow.
///
/// The extents are `u32` (they are dataflow reuse factors): the window sits
/// in every [`CellStats`](crate::campaign::CellStats) of a campaign result,
/// and `u32` keeps the fault model, and so each cell, compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperandWindow {
    /// Consecutive output positions affected (temporal reuse).
    pub positions: u32,
    /// Consecutive output channels affected (spatial reuse across lanes).
    pub channels: u32,
}

impl OperandWindow {
    /// A window from dataflow reuse factors; an extent past `u32::MAX`
    /// saturates, which still covers every neuron of any layer.
    pub fn new(positions: usize, channels: usize) -> Self {
        let clamp = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
        OperandWindow {
            positions: clamp(positions),
            channels: clamp(channels),
        }
    }
}

/// A software fault model: one row of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftwareFaultModel {
    /// A fault before the on-chip buffer manifests as one incorrect stored
    /// value; every output neuron consuming it is faulty.
    BeforeBuffer {
        /// Which operand the value belongs to.
        kind: OperandKind,
    },
    /// A fault between the buffer and the MAC units corrupts one operand
    /// value for the window of neurons the dataflow reuses it across.
    Operand {
        /// Which operand the value belongs to.
        kind: OperandKind,
        /// Reuse window.
        window: OperandWindow,
        /// When the FF holds its value for multiple cycles, a random fault
        /// cycle truncates the affected position window to a random suffix
        /// (the paper's random `p` over `FF_value_cycles`).
        random_suffix: bool,
    },
    /// A fault in an output / partial-sum FF: one bit flip in one output
    /// neuron (RF = 1).
    OutputValue,
    /// A local-control fault: one output neuron takes a non-deterministic
    /// value, modeled as random.
    LocalControl,
    /// An active global-control fault always results in application error or
    /// system anomaly.
    GlobalControl,
}

/// Maps an FF category to its software fault model under a given accelerator
/// configuration (the Table II derivation).
///
/// Returns `None` for category/stage combinations the architecture does not
/// have (e.g. partial sums before the buffer).
pub fn model_for(cat: FfCategory, cfg: &AcceleratorConfig) -> Option<SoftwareFaultModel> {
    let (input_window, weight_window) = match cfg.dataflow {
        DataflowKind::Nvdla(d) => (
            // Broadcast input: one position × `lanes` channels (target a4).
            OperandWindow::new(1, d.lanes),
            // Weight-stationary: `weight_hold` positions × 1 channel (a2).
            OperandWindow::new(d.weight_hold, 1),
        ),
        DataflowKind::Eyeriss(d) => (
            // Diagonal + channel reuse: k positions × `channel_reuse`
            // channels (target b2).
            OperandWindow::new(d.k, d.channel_reuse),
            // Column-travelling weights: k positions × 1 channel (b1).
            OperandWindow::new(d.k, 1),
        ),
    };
    match cat {
        FfCategory::Datapath { stage, var } => match (stage, var) {
            (PipelineStage::BeforeBuffer, VarType::Input) => {
                Some(SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Input,
                })
            }
            (PipelineStage::BeforeBuffer, VarType::Weight | VarType::Bias) => {
                Some(SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Weight,
                })
            }
            (PipelineStage::BufferToMac, VarType::Input) => Some(SoftwareFaultModel::Operand {
                kind: OperandKind::Input,
                window: input_window,
                random_suffix: false,
            }),
            (PipelineStage::BufferToMac, VarType::Weight | VarType::Bias) => {
                Some(SoftwareFaultModel::Operand {
                    kind: OperandKind::Weight,
                    window: weight_window,
                    random_suffix: true,
                })
            }
            (PipelineStage::AfterMac, VarType::Output | VarType::PartialSum | VarType::Bias) => {
                Some(SoftwareFaultModel::OutputValue)
            }
            _ => None,
        },
        FfCategory::LocalControl => Some(SoftwareFaultModel::LocalControl),
        FfCategory::GlobalControl => Some(SoftwareFaultModel::GlobalControl),
    }
}

/// The effect of one sampled model application on the executing layer.
#[derive(Debug, Clone)]
pub enum ModelEffect {
    /// The sampled fault cannot change any value (e.g. it hit a value whose
    /// flip decodes to the same number).
    Masked,
    /// The layer finishes with corrupted output neurons.
    Layer(FaultApplication),
    /// Global control: the framework models this as system failure without
    /// simulating (Prob_SWmask = 0).
    SystemFailure,
}

/// A concrete corrupted-layer outcome.
#[derive(Debug, Clone)]
pub struct FaultApplication {
    /// Target node index in the network.
    pub node: usize,
    /// Flat offsets of faulty neurons in the layer's output tensor.
    pub faulty_neurons: Vec<usize>,
    /// The faulty values, parallel to `faulty_neurons`.
    pub faulty_values: Vec<f32>,
    /// The full corrupted layer output (clean output with the faulty values
    /// spliced in).
    pub layer_output: Tensor,
    /// Largest |faulty − clean| over the faulty neurons (infinite when a
    /// NaN/Inf was produced). Drives the Key-Result-5 analysis.
    pub max_perturbation: f32,
}

/// [`ModelEffect`] without the dense corrupted tensor: just the sparse
/// (offset, value) patch. This is all the batched delta resume path needs —
/// materializing the dense `layer_output` is deferred to
/// [`apply_model_pooled`], which splices it on demand for the full-resume
/// path. Sampling and RNG consumption are identical between the two forms.
#[derive(Debug, Clone)]
pub enum SparseEffect {
    /// The sampled fault cannot change any value.
    Masked,
    /// Global control: modeled system failure, no simulation.
    SystemFailure,
    /// The layer finishes with the given sparse corruption.
    Layer(SparseFault),
}

/// The sparse form of a corrupted-layer outcome.
#[derive(Debug, Clone)]
pub struct SparseFault {
    /// Target node index in the network.
    pub node: usize,
    /// Flat offsets of faulty neurons in the layer's output tensor.
    pub neurons: Vec<usize>,
    /// The faulty values, parallel to `neurons`.
    pub values: Vec<f32>,
    /// Largest |faulty − clean| over the faulty neurons.
    pub max_perturbation: f32,
}

/// Operand tensors and codecs of a MAC node.
struct MacOperands<'a> {
    spec: MacSpec,
    operands: Operands<'a>,
    input_codec: ValueCodec,
    weight_codec: ValueCodec,
}

fn mac_operands<'a>(engine: &'a Engine, trace: &'a Trace, node: usize) -> Option<MacOperands<'a>> {
    let spec = engine.mac_spec(node, trace)?;
    let operands = engine.mac_operands(node, trace)?;
    let weight_codec = if matches!(spec, MacSpec::MatMul(_)) {
        engine.node_input_codec_at(node, 1)
    } else {
        // Conv / Dense keep their weight in the layer; codec index 0 is the
        // main weight.
        engine.weight_codec(node, 0)?
    };
    Some(MacOperands {
        spec,
        operands,
        input_codec: engine.node_input_codec_at(node, 0),
        weight_codec,
    })
}

/// Measured worst-case [`MacTier::Fast`] kernel divergence of one MAC node
/// over its traced operands (see [`MacSpec::fast_divergence`]): both tiers
/// are fully evaluated and compared element-wise, so the returned bound is
/// exact for this workload, not an estimate. `None` when `node` is not a
/// MAC layer.
///
/// [`MacTier::Fast`]: fidelity_dnn::macspec::MacTier::Fast
pub fn node_fast_divergence(engine: &Engine, trace: &Trace, node: usize) -> Option<f32> {
    let ops = mac_operands(engine, trace, node)?;
    Some(ops.spec.fast_divergence(&ops.operands))
}

/// Applies one sampled instance of `model` to MAC node `node` of a deployed
/// engine.
///
/// # Errors
///
/// Returns [`DnnError`] if `node` is not a MAC layer.
pub fn apply_model(
    model: SoftwareFaultModel,
    engine: &Engine,
    trace: &Trace,
    node: usize,
    rng: &mut SplitMix64,
) -> Result<ModelEffect, DnnError> {
    let mut ws = Workspace::new();
    apply_model_pooled(model, engine, trace, node, rng, &mut ws)
}

/// [`apply_model`] drawing the corrupted layer output from a caller-owned
/// [`Workspace`] instead of the global allocator — the campaign hot path.
/// Sampling, RNG consumption, and every produced value are identical to
/// [`apply_model`]; only the memory source differs.
///
/// # Errors
///
/// Returns [`DnnError`] if `node` is not a MAC layer.
pub fn apply_model_pooled(
    model: SoftwareFaultModel,
    engine: &Engine,
    trace: &Trace,
    node: usize,
    rng: &mut SplitMix64,
    ws: &mut Workspace,
) -> Result<ModelEffect, DnnError> {
    match apply_model_sparse(model, engine, trace, node, rng, ws)? {
        SparseEffect::Masked => Ok(ModelEffect::Masked),
        SparseEffect::SystemFailure => Ok(ModelEffect::SystemFailure),
        SparseEffect::Layer(sf) => {
            let mut layer_output = ws.clone_of(&trace.node_outputs[sf.node]);
            for (&off, &v) in sf.neurons.iter().zip(&sf.values) {
                layer_output.data_mut()[off] = v;
            }
            Ok(ModelEffect::Layer(FaultApplication {
                node: sf.node,
                faulty_neurons: sf.neurons,
                faulty_values: sf.values,
                layer_output,
                max_perturbation: sf.max_perturbation,
            }))
        }
    }
}

/// The sparse core of [`apply_model_pooled`]: samples the model, computes
/// the changed neurons, but never materializes the dense corrupted tensor.
/// This is the form the batched delta resume path consumes directly. The
/// corrupted neurons are evaluated with [`MacSpec::compute_neurons`] in
/// `ws`'s kernel scratch.
///
/// # Errors
///
/// Returns [`DnnError`] if `node` is not a MAC layer.
pub fn apply_model_sparse(
    model: SoftwareFaultModel,
    engine: &Engine,
    trace: &Trace,
    node: usize,
    rng: &mut SplitMix64,
    ws: &mut Workspace,
) -> Result<SparseEffect, DnnError> {
    if matches!(model, SoftwareFaultModel::GlobalControl) {
        return Ok(SparseEffect::SystemFailure);
    }
    let ops = mac_operands(engine, trace, node).ok_or_else(|| DnnError::InvalidConfig {
        message: format!("node {node} is not a MAC layer"),
    })?;
    let clean_out = &trace.node_outputs[node];
    let out_codec = engine.node_codec(node);

    let (neurons, values) = match model {
        SoftwareFaultModel::BeforeBuffer { kind } => {
            sample_value_fault(&ops, kind, None, false, out_codec, rng, ws)
        }
        SoftwareFaultModel::Operand {
            kind,
            window,
            random_suffix,
        } => sample_value_fault(&ops, kind, Some(window), random_suffix, out_codec, rng, ws),
        SoftwareFaultModel::OutputValue => {
            let off = rng.next_below(clean_out.len() as u64) as usize;
            let bit = rng.next_below(u64::from(out_codec.precision().bits())) as u32;
            let faulty = out_codec.flip_bit(clean_out.data()[off], bit);
            (vec![off], vec![faulty])
        }
        SoftwareFaultModel::LocalControl => {
            let off = rng.next_below(clean_out.len() as u64) as usize;
            let width = out_codec.precision().bits();
            let bits = (rng.next_u64() as u32) & width_mask(width);
            (vec![off], vec![out_codec.decode(bits)])
        }
        SoftwareFaultModel::GlobalControl => unreachable!("handled above"),
    };

    // Keep only neurons whose value actually changed.
    let mut faulty_neurons = Vec::new();
    let mut faulty_values = Vec::new();
    let mut max_pert = 0.0f32;
    for (off, val) in neurons.into_iter().zip(values) {
        let clean = clean_out.data()[off];
        let differs = val.is_nan() || clean.is_nan() || (val - clean).abs() > 0.0;
        if differs {
            let pert = if val.is_finite() && clean.is_finite() {
                (val - clean).abs()
            } else {
                f32::INFINITY
            };
            max_pert = max_pert.max(pert);
            faulty_neurons.push(off);
            faulty_values.push(val);
        }
    }
    if faulty_neurons.is_empty() {
        return Ok(SparseEffect::Masked);
    }
    Ok(SparseEffect::Layer(SparseFault {
        node,
        neurons: faulty_neurons,
        values: faulty_values,
        max_perturbation: max_pert,
    }))
}

fn width_mask(width: u32) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    }
}

/// Samples a value fault in one operand element and computes the affected
/// neurons: the whole use set for before-buffer faults, or a dataflow window
/// of it for operand-register faults.
fn sample_value_fault(
    ops: &MacOperands<'_>,
    kind: OperandKind,
    window: Option<OperandWindow>,
    random_suffix: bool,
    out_codec: ValueCodec,
    rng: &mut SplitMix64,
    ws: &mut Workspace,
) -> (Vec<usize>, Vec<f32>) {
    let (tensor, codec) = match kind {
        OperandKind::Input => (ops.operands.input, ops.input_codec),
        OperandKind::Weight => (ops.operands.weight, ops.weight_codec),
    };
    if tensor.is_empty() || ops.spec.out_len() == 0 {
        return (Vec::new(), Vec::new());
    }
    let elem = rng.next_below(tensor.len() as u64) as usize;
    let bit = rng.next_below(u64::from(codec.precision().bits())) as u32;
    let clean_value = tensor.data()[elem];
    let faulty_value = codec.flip_bit(clean_value, bit);

    let users = match kind {
        OperandKind::Input => ops.spec.neurons_using_input(elem),
        OperandKind::Weight => ops.spec.neurons_using_weight(elem),
    };
    if users.is_empty() {
        return (Vec::new(), Vec::new());
    }

    let selected: Vec<usize> = match window {
        None => users,
        Some(w) => select_window(&ops.spec, &users, w, random_suffix, rng),
    };

    let subst = Substitution {
        kind,
        offset: elem,
        value: faulty_value,
    };
    let mut values = vec![0.0f32; selected.len()];
    ops.spec.compute_neurons(
        &ops.operands,
        &subst,
        &selected,
        &mut values,
        ws.kernel_scratch(),
    );
    for v in &mut values {
        *v = out_codec.quantize(*v);
    }
    (selected, values)
}

/// Restricts a full use set to one dataflow reuse window: a block of
/// `window.positions` consecutive positions (in computation order) × one
/// lane-aligned group of `window.channels` channels, optionally truncated to
/// a random position suffix (random fault cycle within the hold).
fn select_window(
    spec: &MacSpec,
    users: &[usize],
    window: OperandWindow,
    random_suffix: bool,
    rng: &mut SplitMix64,
) -> Vec<usize> {
    // Unique positions in computation order (first appearance); unique
    // channels ascending. Two bitsets replace linear `contains` scans.
    let mut seen_pos = vec![0u64; spec.position_count().div_ceil(64)];
    let mut seen_ch = vec![0u64; spec.channel_count().div_ceil(64)];
    let mut positions: Vec<usize> = Vec::new();
    for &off in users {
        let (p, c) = spec.coords_of(off);
        if seen_pos[p / 64] >> (p % 64) & 1 == 0 {
            seen_pos[p / 64] |= 1 << (p % 64);
            positions.push(p);
        }
        seen_ch[c / 64] |= 1 << (c % 64);
    }
    let channels: Vec<usize> = (0..spec.channel_count())
        .filter(|&c| seen_ch[c / 64] >> (c % 64) & 1 == 1)
        .collect();

    let (win_pos, win_ch) = (window.positions as usize, window.channels as usize);
    // Position block: computation-order chunks of `window.positions`.
    let n_pos_blocks = positions.len().div_ceil(win_pos);
    let pb = rng.next_below(n_pos_blocks as u64) as usize;
    let pos_block = &positions[pb * win_pos..((pb + 1) * win_pos).min(positions.len())];
    let pos_block = if random_suffix && pos_block.len() > 1 {
        let start = rng.next_below(pos_block.len() as u64) as usize;
        &pos_block[start..]
    } else {
        pos_block
    };

    // Channel block: aligned groups of `window.channels` by absolute channel
    // id (MAC lanes process aligned channel groups).
    let groups: Vec<usize> = {
        let mut g: Vec<usize> = channels.iter().map(|c| c / win_ch).collect();
        g.dedup();
        g
    };
    let gsel = groups[rng.next_below(groups.len() as u64) as usize];
    // The selected group's channels are one contiguous run of the sorted
    // channel list.
    let lo = channels.partition_point(|&c| c / win_ch < gsel);
    let hi = channels.partition_point(|&c| c / win_ch <= gsel);

    // `neurons_using_input` / `neurons_using_weight` emit offsets in strictly
    // ascending order for every MacSpec kind (their loops walk batch, then
    // channel, then position with monotone offset formulas), so membership is
    // a binary search — no per-injection hash set.
    debug_assert!(users.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::new();
    for &p in pos_block {
        for &c in &channels[lo..hi] {
            let off = spec.offset_of(p, c);
            if users.binary_search(&off).is_ok() {
                out.push(off);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Conv2d, Dense};
    use fidelity_dnn::precision::Precision;

    fn conv_engine() -> (Engine, Trace) {
        let weight = uniform_tensor(7, vec![8, 3, 3, 3], 0.5);
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(
                Conv2d::new("conv", weight).unwrap().with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(3, vec![1, 3, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    #[test]
    fn table2_model_mapping() {
        let cfg = presets::nvdla_like();
        let cat = FfCategory::Datapath {
            stage: PipelineStage::BufferToMac,
            var: VarType::Input,
        };
        match model_for(cat, &cfg) {
            Some(SoftwareFaultModel::Operand {
                kind,
                window,
                random_suffix,
            }) => {
                assert_eq!(kind, OperandKind::Input);
                assert_eq!(window.channels, 16);
                assert_eq!(window.positions, 1);
                assert!(!random_suffix);
            }
            other => panic!("unexpected model {other:?}"),
        }
        assert_eq!(
            model_for(FfCategory::GlobalControl, &cfg),
            Some(SoftwareFaultModel::GlobalControl)
        );
    }

    #[test]
    fn before_buffer_weight_faults_whole_channel() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(11);
        let mut saw_fault = false;
        for _ in 0..32 {
            let effect = apply_model(
                SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Weight,
                },
                &engine,
                &trace,
                0,
                &mut rng,
            )
            .unwrap();
            if let ModelEffect::Layer(app) = effect {
                saw_fault = true;
                // All faulty neurons share one output channel.
                let spec = engine.mac_spec(0, &trace).unwrap();
                let chans: std::collections::HashSet<usize> = app
                    .faulty_neurons
                    .iter()
                    .map(|&off| spec.coords_of(off).1)
                    .collect();
                assert_eq!(chans.len(), 1);
                // And values can affect up to the whole channel (36 positions).
                assert!(app.faulty_neurons.len() <= 36);
            }
        }
        assert!(saw_fault);
    }

    #[test]
    fn operand_input_fault_spans_lane_channels() {
        let (engine, trace) = conv_engine();
        let cfg = presets::nvdla_like();
        let model = model_for(
            FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Input,
            },
            &cfg,
        )
        .unwrap();
        let mut rng = SplitMix64::new(5);
        let spec = engine.mac_spec(0, &trace).unwrap();
        for _ in 0..32 {
            if let ModelEffect::Layer(app) =
                apply_model(model, &engine, &trace, 0, &mut rng).unwrap()
            {
                // One spatial position, several consecutive channels.
                let coords: Vec<(usize, usize)> = app
                    .faulty_neurons
                    .iter()
                    .map(|&off| spec.coords_of(off))
                    .collect();
                let positions: std::collections::HashSet<usize> =
                    coords.iter().map(|&(p, _)| p).collect();
                assert_eq!(positions.len(), 1);
                assert!(coords.len() <= 16);
            }
        }
    }

    #[test]
    fn operand_weight_fault_is_position_suffix() {
        let (engine, trace) = conv_engine();
        let cfg = presets::nvdla_like();
        let model = model_for(
            FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Weight,
            },
            &cfg,
        )
        .unwrap();
        let mut rng = SplitMix64::new(6);
        let spec = engine.mac_spec(0, &trace).unwrap();
        let mut sizes = std::collections::HashSet::new();
        for _ in 0..64 {
            if let ModelEffect::Layer(app) =
                apply_model(model, &engine, &trace, 0, &mut rng).unwrap()
            {
                let chans: std::collections::HashSet<usize> = app
                    .faulty_neurons
                    .iter()
                    .map(|&off| spec.coords_of(off).1)
                    .collect();
                assert_eq!(chans.len(), 1, "weight fault stays in one channel");
                assert!(app.faulty_neurons.len() <= 16);
                sizes.insert(app.faulty_neurons.len());
            }
        }
        // The random suffix makes different sizes appear.
        assert!(sizes.len() > 2, "sizes seen: {sizes:?}");
    }

    #[test]
    fn output_value_fault_is_single_neuron() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(8);
        match apply_model(
            SoftwareFaultModel::OutputValue,
            &engine,
            &trace,
            0,
            &mut rng,
        )
        .unwrap()
        {
            ModelEffect::Layer(app) => {
                assert_eq!(app.faulty_neurons.len(), 1);
            }
            ModelEffect::Masked => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_control_is_system_failure() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(9);
        assert!(matches!(
            apply_model(
                SoftwareFaultModel::GlobalControl,
                &engine,
                &trace,
                0,
                &mut rng
            )
            .unwrap(),
            ModelEffect::SystemFailure
        ));
    }

    #[test]
    fn non_mac_node_is_rejected() {
        use fidelity_dnn::layers::{Activation, ActivationKind};
        let w = uniform_tensor(1, vec![4, 4], 0.5);
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc", w).unwrap(), &["x"])
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["fc"])
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let trace = engine.trace(&[uniform_tensor(2, vec![1, 4], 1.0)]).unwrap();
        let mut rng = SplitMix64::new(3);
        assert!(apply_model(
            SoftwareFaultModel::OutputValue,
            &engine,
            &trace,
            1,
            &mut rng
        )
        .is_err());
    }
}

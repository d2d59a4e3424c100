//! Network graphs, the executor, and precision-aware engines.
//!
//! A [`Network`] is a DAG of named layers. An [`Engine`] binds a network to a
//! [`Precision`], calibrating per-tensor quantization scales from a
//! fault-free run and rounding weights onto the representable grid — the
//! software analogue of deploying a trained model onto an accelerator with a
//! given datapath width.
//!
//! The engine exposes the two primitives fault injection needs:
//!
//! * [`Engine::trace`] — a fault-free run that records every intermediate
//!   tensor, and
//! * [`Engine::resume`] — re-execution from a corrupted intermediate tensor,
//!   recomputing only downstream nodes (this is why software fault injection
//!   is orders of magnitude faster than register-level simulation).

use std::collections::HashMap;
use std::time::Instant;

use crate::error::DnnError;
use crate::layers::{for_each_window_row, plane_dims, Layer, LayerKind, Window};
use crate::macspec::{MacSpec, MacTier, Operands};
use crate::precision::{calibrate_scale, Precision, ValueCodec};
use crate::tensor::Tensor;
use crate::workspace::{GoldenOverlay, Region, Workspace};

/// Where a node input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The i-th graph input.
    Input(usize),
    /// The output of the i-th node.
    Node(usize),
}

/// One node of a network: a layer plus its resolved input sources.
struct Node {
    layer: Box<dyn Layer>,
    sources: Vec<Source>,
}

/// A directed acyclic graph of layers.
///
/// Build with [`NetworkBuilder`]; run through an [`Engine`].
pub struct Network {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    output: Source,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network(name={}, inputs={:?}, nodes={})",
            self.name,
            self.input_names,
            self.nodes.len()
        )
    }
}

impl Network {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the graph inputs, in binding order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Number of layer nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The layer at node `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.nodes[idx].layer.as_ref()
    }

    /// Index of the node with the given layer name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.layer.name() == name)
    }

    /// Iterates over `(index, layer)` pairs in topological order.
    pub fn iter_layers(&self) -> impl Iterator<Item = (usize, &dyn Layer)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i, n.layer.as_ref()))
    }
}

/// Incrementally builds a [`Network`].
///
/// # Examples
///
/// ```
/// use fidelity_dnn::graph::NetworkBuilder;
/// use fidelity_dnn::layers::{Activation, ActivationKind, Dense};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let net = NetworkBuilder::new("mlp")
///     .input("x")
///     .layer(Dense::new("fc", Tensor::full(vec![2, 2], 0.5))?, &["x"])?
///     .layer(Activation::new("relu", ActivationKind::Relu), &["fc"])?
///     .build()?;
/// assert_eq!(net.node_count(), 2);
/// # Ok(())
/// # }
/// ```
pub struct NetworkBuilder {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    names: HashMap<String, Source>,
    output: Option<Source>,
}

impl std::fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NetworkBuilder(name={}, inputs={:?}, nodes={})",
            self.name,
            self.input_names,
            self.nodes.len()
        )
    }
}

impl NetworkBuilder {
    /// Starts a new network.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkBuilder {
            name: name.into(),
            input_names: Vec::new(),
            nodes: Vec::new(),
            names: HashMap::new(),
            output: None,
        }
    }

    /// Declares a graph input.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (builder misuse is a programming error in
    /// the network definition, surfaced eagerly).
    pub fn input(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate graph name `{name}`"
        );
        self.names
            .insert(name.clone(), Source::Input(self.input_names.len()));
        self.input_names.push(name);
        self
    }

    /// Appends a layer consuming the named tensors.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::DuplicateName`] / [`DnnError::UnknownName`] /
    /// [`DnnError::ArityMismatch`] on malformed wiring.
    pub fn layer<L: Layer + 'static>(
        mut self,
        layer: L,
        inputs: &[&str],
    ) -> Result<Self, DnnError> {
        let lname = layer.name().to_owned();
        if self.names.contains_key(&lname) {
            return Err(DnnError::DuplicateName { name: lname });
        }
        if let Some(expected) = layer.arity() {
            if expected != inputs.len() {
                return Err(DnnError::ArityMismatch {
                    layer: lname,
                    expected,
                    actual: inputs.len(),
                });
            }
        }
        let mut sources = Vec::with_capacity(inputs.len());
        for &inp in inputs {
            let src = self.names.get(inp).ok_or_else(|| DnnError::UnknownName {
                name: inp.to_owned(),
            })?;
            sources.push(*src);
        }
        let idx = self.nodes.len();
        self.names.insert(lname, Source::Node(idx));
        self.nodes.push(Node {
            layer: Box::new(layer),
            sources,
        });
        Ok(self)
    }

    /// Marks the named tensor as the network output (defaults to the last
    /// layer added).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownName`] when the name is not defined.
    pub fn output(mut self, name: &str) -> Result<Self, DnnError> {
        let src = self.names.get(name).ok_or_else(|| DnnError::UnknownName {
            name: name.to_owned(),
        })?;
        self.output = Some(*src);
        Ok(self)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for an empty network.
    pub fn build(self) -> Result<Network, DnnError> {
        if self.nodes.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: "network has no layers".into(),
            });
        }
        let output = self.output.unwrap_or(Source::Node(self.nodes.len() - 1));
        Ok(Network {
            name: self.name,
            input_names: self.input_names,
            nodes: self.nodes,
            output,
        })
    }
}

/// Recorded intermediates of one fault-free execution.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Quantized graph inputs, in binding order.
    pub inputs: Vec<Tensor>,
    /// Output tensor of every node, in topological order.
    pub node_outputs: Vec<Tensor>,
    /// The network output.
    pub output: Tensor,
    /// The MAC geometry of every node under the recorded shapes (`None`
    /// for non-MAC nodes), derived once here so per-injection lookups
    /// through [`Engine::mac_spec`] neither allocate nor re-derive it.
    mac_specs: Vec<Option<MacSpec>>,
}

/// A cheap process-local identity key for a [`Trace`], used to pair a
/// worker's installed golden overlay with the trace it mirrors.
///
/// The key hashes every recorded tensor's buffer address, length, shape and
/// boundary element bits. Two calls on the same live `Trace` always agree;
/// a different trace object — even one with equal values — hashes different
/// buffer addresses and so yields a different key, which is exactly the
/// discipline needed: an overlay is a copy of one concrete trace's buffers.
/// Never persist this value (addresses are not stable across runs).
pub fn golden_key(trace: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_step(h, trace.inputs.len() as u64);
    for t in &trace.inputs {
        h = fnv_tensor(h, t);
    }
    h = fnv_step(h, trace.node_outputs.len() as u64);
    for t in &trace.node_outputs {
        h = fnv_tensor(h, t);
    }
    fnv_tensor(h, &trace.output)
}

fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

fn fnv_tensor(mut h: u64, t: &Tensor) -> u64 {
    h = fnv_step(h, t.data().as_ptr() as usize as u64);
    h = fnv_step(h, t.len() as u64);
    for &d in t.shape() {
        h = fnv_step(h, d as u64);
    }
    if let (Some(f), Some(l)) = (t.data().first(), t.data().last()) {
        h = fnv_step(h, u64::from(f.to_bits()));
        h = fnv_step(h, u64::from(l.to_bits()));
    }
    h
}

/// Bounding region of the flat `offsets` into a tensor of `shape`: `None`
/// when there are none, the row × column bounding box over every plane of a
/// rank-4 NCHW or rank-2 `[rows, cols]` tensor (see [`plane_dims`]),
/// `Region::All` for other ranks (no windows to exploit).
fn offsets_region(shape: &[usize], offsets: impl IntoIterator<Item = usize>) -> Option<Region> {
    let mut offsets = offsets.into_iter().peekable();
    offsets.peek()?;
    let Some((_, hh, ww)) = plane_dims(shape) else {
        return Some(Region::All);
    };
    let (mut h0, mut h1, mut w0, mut w1) = (usize::MAX, 0usize, usize::MAX, 0usize);
    for off in offsets {
        let r = (off / ww) % hh;
        let c = off % ww;
        h0 = h0.min(r);
        h1 = h1.max(r + 1);
        w0 = w0.min(c);
        w1 = w1.max(c + 1);
    }
    Some(Region::Window {
        h: (h0, h1),
        w: (w0, w1),
    })
}

/// The tight divergence region of `cur` from `gold` within the window
/// `h × w` of every plane of a rank-4 NCHW or rank-2 `[rows, cols]` tensor
/// (clamped to the shape; see [`plane_dims`]): the bounding box of every
/// element whose bits differ, or `None` when the window is bit-identical.
/// Other ranks have no windows and report `Region::All` when any element
/// differs.
///
/// Bits, not floats: `-0.0` vs `+0.0` and NaN payloads count as
/// differences, so the region never under-covers what repair must restore
/// or what a consumer might see.
fn diff_region(
    cur: &Tensor,
    gold: &Tensor,
    h: (usize, usize),
    w: (usize, usize),
) -> Option<Region> {
    let (a, b) = (cur.data(), gold.data());
    let differs = |(x, y): (&f32, &f32)| x.to_bits() != y.to_bits();
    let Some((planes, hh, ww)) = plane_dims(cur.shape()) else {
        return a.iter().zip(b).any(differs).then_some(Region::All);
    };
    let (h0, h1) = (h.0.min(hh), h.1.min(hh));
    let (w0, w1) = (w.0.min(ww), w.1.min(ww));
    let (mut r0, mut r1, mut c0, mut c1) = (usize::MAX, 0usize, usize::MAX, 0usize);
    'scan: for plane in 0..planes {
        for r in h0..h1 {
            let row = plane * hh * ww + r * ww;
            let (ra, rb) = (&a[row + w0..row + w1], &b[row + w0..row + w1]);
            let Some(first) = ra.iter().zip(rb).position(differs) else {
                continue;
            };
            let last = ra.iter().zip(rb).rposition(differs).unwrap_or(first);
            r0 = r0.min(r);
            r1 = r1.max(r + 1);
            c0 = c0.min(w0 + first);
            c1 = c1.max(w0 + last + 1);
            if (r0, r1, c0, c1) == (h0, h1, w0, w1) {
                break 'scan; // the box already spans the window
            }
        }
    }
    (r0 < r1).then_some(Region::Window {
        h: (r0, r1),
        w: (c0, c1),
    })
}

/// Copies every dirty region of the overlay back from the golden trace,
/// restoring bit-exact golden slots and clearing the worklist. Nodes whose
/// value lives in a `side` slot (whole-tensor recomputes) never wrote to
/// their overlay slot, so they need no copy.
fn repair_overlay(overlay: &mut GoldenOverlay, side: &[Option<Tensor>], trace: &Trace) {
    for (idx, dirty) in overlay.dirty.iter_mut().enumerate() {
        let Some(region) = dirty.take() else {
            continue;
        };
        if side[idx].is_some() {
            continue;
        }
        let src = trace.node_outputs[idx].data();
        let dst = overlay.slots[idx].data_mut();
        match region {
            Region::All => dst.copy_from_slice(src),
            Region::Window { h, w } => {
                for_each_window_row(trace.node_outputs[idx].shape(), h, w, |a, b| {
                    dst[a..b].copy_from_slice(&src[a..b]);
                });
            }
        }
    }
}

/// Per-tensor quantization scales calibrated from a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct QuantScheme {
    /// Scale for each graph input.
    pub input_scales: Vec<f32>,
    /// Scale for each node's output tensor.
    pub node_scales: Vec<f32>,
    /// Scales for each node's weight tensors.
    pub weight_scales: Vec<Vec<f32>>,
}

/// A network bound to a precision, with calibrated codecs and quantized
/// weights: the runnable deployment that fault injection targets.
pub struct Engine {
    network: Network,
    precision: Precision,
    input_codecs: Vec<ValueCodec>,
    node_codecs: Vec<ValueCodec>,
    weight_codecs: Vec<Vec<ValueCodec>>,
    node_bounds: Option<Vec<f32>>,
    /// Transitive-dependents bitset per node, built once at construction:
    /// bit `j` of `downstream[i]` is set iff node `j` must be recomputed
    /// when node `i`'s output changes. Lets `resume` skip unaffected nodes
    /// without re-walking the graph per injection.
    downstream: Vec<Vec<u64>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(net={}, precision={}, nodes={})",
            self.network.name(),
            self.precision,
            self.network.node_count()
        )
    }
}

impl Engine {
    /// Prepares a network for execution at `precision`.
    ///
    /// For the integer formats, per-tensor scales are calibrated by running
    /// the network once in FP32 on `calibration_inputs` and taking the
    /// dynamic range of every intermediate (the paper quantized its
    /// INT16/INT8 networks with TensorFlow's min/max scheme); weights are
    /// then rounded onto the representable grid in place.
    ///
    /// # Errors
    ///
    /// Propagates any shape error from the calibration run.
    pub fn new(
        mut network: Network,
        precision: Precision,
        calibration_inputs: &[Vec<Tensor>],
    ) -> Result<Self, DnnError> {
        let n_nodes = network.node_count();
        let n_inputs = network.input_names.len();

        // Track dynamic ranges over all calibration runs (FP32, no codecs).
        let mut input_max = vec![0.0f32; n_inputs];
        let mut node_max = vec![0.0f32; n_nodes];
        if !precision.is_float() {
            let mut ws = Workspace::new();
            for sample in calibration_inputs {
                let trace = run(&network, sample, None, None, None, None, None, &mut ws)?.1;
                for (m, t) in input_max.iter_mut().zip(&trace.inputs) {
                    *m = m.max(t.max_abs());
                }
                for (m, t) in node_max.iter_mut().zip(&trace.node_outputs) {
                    *m = m.max(t.max_abs());
                }
            }
        }

        let make = |max_abs: f32| -> ValueCodec {
            ValueCodec::new(precision, calibrate_scale(precision, max_abs))
        };
        let input_codecs: Vec<ValueCodec> = input_max.iter().map(|&m| make(m)).collect();
        let node_codecs: Vec<ValueCodec> = node_max.iter().map(|&m| make(m)).collect();

        // Weight codecs from weight dynamic range; quantize weights in place.
        let mut weight_codecs = Vec::with_capacity(n_nodes);
        for node in &mut network.nodes {
            let codecs: Vec<ValueCodec> = node
                .layer
                .weights()
                .iter()
                .map(|w| make(w.max_abs()))
                .collect();
            if precision != Precision::Fp32 {
                // Every weight tensor of a layer shares the layer's grid in
                // our model; use the per-layer max for a single codec call.
                if let Some(max_codec) = codecs
                    .iter()
                    .max_by(|a, b| a.scale().total_cmp(&b.scale()))
                    .copied()
                {
                    node.layer.quantize_weights(&max_codec);
                }
            }
            weight_codecs.push(codecs);
        }

        let downstream = build_downstream(&network);
        Ok(Engine {
            network,
            precision,
            input_codecs,
            node_codecs,
            weight_codecs,
            node_bounds: None,
            downstream,
        })
    }

    /// Enables per-layer output range bounding — the hardware/software
    /// co-design mitigation the paper proposes from its Key Result 5
    /// ("bounding the values of output neurons"): a writeback-stage clamp
    /// at `slack ×` each layer's fault-free dynamic range. Large faulty
    /// values (the ones most likely to flip the application output) are
    /// clipped; fault-free behaviour is unchanged because every clean value
    /// is within its own range.
    ///
    /// Calibrates from a fault-free run on `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the calibration run. Returns
    /// [`DnnError::InvalidConfig`] when `slack < 1` (which would alter
    /// fault-free behaviour).
    pub fn enable_range_bounding(&mut self, inputs: &[Tensor], slack: f32) -> Result<(), DnnError> {
        // Negated comparison is deliberate: it rejects NaN slack too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(slack >= 1.0) {
            return Err(DnnError::InvalidConfig {
                message: format!("range-bounding slack must be >= 1, got {slack}"),
            });
        }
        self.node_bounds = None; // calibrate unbounded
        let trace = self.trace(inputs)?;
        self.node_bounds = Some(
            trace
                .node_outputs
                .iter()
                .map(|t| t.max_abs() * slack)
                .collect(),
        );
        Ok(())
    }

    /// Disables range bounding.
    pub fn disable_range_bounding(&mut self) {
        self.node_bounds = None;
    }

    /// The calibrated clamp bound of node `idx`, when bounding is enabled.
    pub fn node_bound(&self, idx: usize) -> Option<f32> {
        self.node_bounds.as_ref().map(|b| b[idx])
    }

    /// The deployed precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Output codec of node `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn node_codec(&self, idx: usize) -> ValueCodec {
        self.node_codecs[idx]
    }

    /// Codec of weight tensor `widx` of node `idx`, when it exists.
    pub fn weight_codec(&self, idx: usize, widx: usize) -> Option<ValueCodec> {
        self.weight_codecs
            .get(idx)
            .and_then(|v| v.get(widx))
            .copied()
    }

    /// Codec of graph input `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn input_codec(&self, idx: usize) -> ValueCodec {
        self.input_codecs[idx]
    }

    /// Runs the network and returns the output.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers.
    pub fn forward(&self, inputs: &[Tensor]) -> Result<Tensor, DnnError> {
        Ok(self.run(inputs, None, None)?.0)
    }

    /// [`Engine::forward`] drawing temporaries from a caller-held
    /// [`Workspace`], so repeated inference reuses buffers instead of
    /// allocating. Results are bit-identical to [`Engine::forward`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers.
    pub fn forward_pooled(
        &self,
        inputs: &[Tensor],
        ws: &mut Workspace,
    ) -> Result<Tensor, DnnError> {
        Ok(run(
            &self.network,
            inputs,
            Some(&self.input_codecs),
            Some(&self.node_codecs),
            None,
            self.node_bounds.as_deref(),
            None,
            ws,
        )?
        .0)
    }

    /// Runs the network recording all intermediates.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers.
    pub fn trace(&self, inputs: &[Tensor]) -> Result<Trace, DnnError> {
        self.run(inputs, None, None).map(|(_, t)| t)
    }

    /// Re-runs from a fault-free [`Trace`] with the output of node
    /// `node_idx` replaced by `replacement`, recomputing only nodes that
    /// transitively depend on it.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers. Returns
    /// [`DnnError::InvalidConfig`] when `node_idx` is out of range.
    pub fn resume(
        &self,
        trace: &Trace,
        node_idx: usize,
        replacement: Tensor,
    ) -> Result<Tensor, DnnError> {
        self.resume_with_deadline(trace, node_idx, replacement, None)
    }

    /// [`Engine::resume`] under a cooperative wall-clock deadline.
    ///
    /// The executor checks the deadline at every node boundary; a runaway
    /// propagation is cut short with [`DnnError::DeadlineExceeded`] instead
    /// of hanging the campaign worker. `None` disables the watchdog.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers. Returns
    /// [`DnnError::InvalidConfig`] when `node_idx` is out of range and
    /// [`DnnError::DeadlineExceeded`] when the deadline fires.
    pub fn resume_with_deadline(
        &self,
        trace: &Trace,
        node_idx: usize,
        replacement: Tensor,
        deadline: Option<Instant>,
    ) -> Result<Tensor, DnnError> {
        let mut ws = Workspace::new();
        Ok(self
            .resume_pooled(trace, node_idx, replacement, deadline, &mut ws)?
            .into_owned())
    }

    /// The allocation-free injection hot path: like
    /// [`Engine::resume_with_deadline`], but every recomputed tensor is drawn
    /// from `ws` and clean nodes are *borrowed* from the trace instead of
    /// cloned. After a warm-up injection the steady state performs zero heap
    /// allocation (measurable via [`Workspace::hit_rate`]).
    ///
    /// Which nodes to recompute comes from the transitive-dependents bitsets
    /// built at engine construction — no per-injection graph walk.
    ///
    /// Results are bit-identical to [`Engine::resume_with_deadline`]: the
    /// accumulation order, quantization and bounding of every recomputed
    /// value are unchanged; only the provenance of the memory differs.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers. Returns
    /// [`DnnError::InvalidConfig`] when `node_idx` is out of range and
    /// [`DnnError::DeadlineExceeded`] when the deadline fires.
    pub fn resume_pooled<'t>(
        &self,
        trace: &'t Trace,
        node_idx: usize,
        replacement: Tensor,
        deadline: Option<Instant>,
        ws: &mut Workspace,
    ) -> Result<ResumedOutput<'t>, DnnError> {
        let n = self.network.node_count();
        if node_idx >= n {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "resume node index {node_idx} out of range (network has {n} nodes)"
                ),
            });
        }
        if let Some(d) = deadline {
            if fidelity_obs::clock::now() >= d {
                fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                return Err(DnnError::DeadlineExceeded);
            }
        }

        let down = &self.downstream[node_idx];
        let mut slots = ws.take_slots(n);

        // The corrupted writeback passes through the same bounding hardware
        // as a clean one; it is deliberately NOT re-quantized (matching the
        // fault model: the corruption is what the datapath wrote back).
        let mut repl = replacement;
        if let Some(bounds) = &self.node_bounds {
            let bound = bounds[node_idx];
            repl.map_inplace(|v| clamp_to_bound(v, bound));
        }
        slots[node_idx] = Some(repl);

        let mut failure: Option<DnnError> = None;
        for idx in node_idx + 1..n {
            if down[idx / 64] >> (idx % 64) & 1 == 0 {
                continue; // not downstream of the corruption: trace is valid
            }
            if let Some(d) = deadline {
                if fidelity_obs::clock::now() >= d {
                    fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                    failure = Some(DnnError::DeadlineExceeded);
                    break;
                }
            }
            let node = &self.network.nodes[idx];
            let resolve = |src: &Source| -> &Tensor {
                match src {
                    Source::Input(i) => &trace.inputs[*i],
                    Source::Node(j) => match &slots[*j] {
                        Some(t) => t,
                        None => &trace.node_outputs[*j],
                    },
                }
            };
            // Input refs live on the stack for the common arities; a node
            // wider than the buffer (huge concat) falls back to a Vec.
            let mut ref_buf: [&Tensor; 8] = [&trace.output; 8];
            let ref_vec: Vec<&Tensor>;
            let in_refs: &[&Tensor] = if node.sources.len() <= ref_buf.len() {
                for (k, src) in node.sources.iter().enumerate() {
                    ref_buf[k] = resolve(src);
                }
                &ref_buf[..node.sources.len()]
            } else {
                ref_vec = node.sources.iter().map(resolve).collect();
                &ref_vec
            };
            match node.layer.forward(in_refs, ws) {
                Ok(mut raw) => {
                    let codec = self.node_codecs[idx];
                    // Same on-grid skip as the full executor: value-
                    // preserving layers whose sources share this codec emit
                    // values the quantizer maps to themselves.
                    let on_grid = self.node_bounds.is_none()
                        && node.layer.values_preserved()
                        && node.sources.iter().all(|src| match src {
                            Source::Input(i) => self.input_codecs[*i] == codec,
                            Source::Node(j) => self.node_codecs[*j] == codec,
                        });
                    if codec.precision() != Precision::Fp32 && !on_grid {
                        raw.map_inplace(|v| codec.quantize(v));
                    }
                    if let Some(bounds) = &self.node_bounds {
                        let bound = bounds[idx];
                        raw.map_inplace(|v| clamp_to_bound(v, bound));
                    }
                    slots[idx] = Some(raw);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            ws.put_slots(slots);
            return Err(e);
        }

        let out = match self.network.output {
            Source::Input(i) => ResumedOutput::Borrowed(&trace.inputs[i]),
            Source::Node(i) => match slots[i].take() {
                Some(t) => ResumedOutput::Owned(t),
                None => ResumedOutput::Borrowed(&trace.node_outputs[i]),
            },
        };
        ws.put_slots(slots);
        Ok(out)
    }

    /// The batched-injection hot path: evaluates one sparse fault as a pure
    /// delta over the golden overlay installed in `ws` (see
    /// [`Workspace::install_golden`] and [`golden_key`]).
    ///
    /// `neurons`/`values` describe the corrupted output of node `node_idx`
    /// as "offset `neurons[i]` holds `values[i]` instead of its clean
    /// value". The engine patches the overlay's copy of that node and walks
    /// the downstream cone. Each affected node is recomputed over a
    /// conservative spatial window wherever the layer's
    /// [`Layer::region_map`] provides one, and as a full forward otherwise.
    /// The walk then calls `judge` on the resulting network output, repairs
    /// every touched overlay region back to golden bits and returns the
    /// judge's verdict.
    ///
    /// The cone is *value-exact*: after each recompute, the node's dirty
    /// region shrinks to the bounding box of the elements whose bits differ
    /// from the golden trace, and to nothing when none do. A node whose
    /// sources are all clean again is skipped, so a perturbation that a
    /// ReLU, a max-pool or quantization masks ends the walk at that layer.
    /// Full forwards land in side slots drawn from the workspace rather
    /// than in the overlay, so repair never copies a whole tensor back.
    ///
    /// Results are bit-identical to building the dense replacement tensor
    /// and calling [`Engine::resume_pooled`]:
    /// * windows are conservative supersets of the true fault cone, and
    ///   recomputing a *clean* neuron reproduces its golden bits exactly
    ///   (kernels are deterministic and quantization/bounding are idempotent
    ///   on already-quantized, already-bounded values), so a node fed only
    ///   golden bits needs no recompute;
    /// * under [`MacTier::Fast`] a Dense/MatMul node fed golden bits need
    ///   not reproduce its (bitwise-tier) golden output, so the walk always
    ///   recomputes downstream Dense/MatMul nodes under that tier, as the
    ///   dense path does;
    /// * each recomputed neuron sees the identical accumulation order
    ///   ([`MacSpec::forward_region_into_scratch`] only narrows loop
    ///   bounds);
    /// * the sparse patch plus per-offset bounding equals splicing the
    ///   faulty values into a clean clone and bounding the whole tensor,
    ///   because every clean value is within its own calibrated bound.
    ///
    /// The one exception is NaN *payload* bits: which elements are NaN is
    /// identical, but a window pass may accumulate a given neuron at a
    /// different code location (lane body vs. tail) than the full pass, and
    /// NaN payloads are the single IEEE-754 artifact the compiler may
    /// legally vary between locations (see [`MacTier`]). All campaign
    /// statistics are NaN-payload-insensitive, so this never surfaces in
    /// results. The cone compares bits, so a differing payload keeps the
    /// node dirty.
    ///
    /// Cone work is counted in the workspace's [`crate::workspace::DeltaWalk`]
    /// counters ([`Workspace::take_delta_walk`]).
    ///
    /// [`MacTier`]: crate::macspec::MacTier
    /// [`MacTier::Fast`]: crate::macspec::MacTier::Fast
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when `node_idx` is out of range,
    /// when `neurons` and `values` differ in length, or when no golden
    /// overlay (with one slot per node) is installed. Returns
    /// [`DnnError::DeadlineExceeded`] when the deadline fires mid-walk; the
    /// overlay is repaired before returning, so the next injection can
    /// reuse it.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_delta<R>(
        &self,
        trace: &Trace,
        node_idx: usize,
        neurons: &[usize],
        values: &[f32],
        deadline: Option<Instant>,
        ws: &mut Workspace,
        judge: impl FnOnce(&Tensor) -> R,
    ) -> Result<R, DnnError> {
        let n = self.network.node_count();
        if node_idx >= n {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "resume node index {node_idx} out of range (network has {n} nodes)"
                ),
            });
        }
        if neurons.len() != values.len() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "sparse fault arity mismatch: {} neurons vs {} values",
                    neurons.len(),
                    values.len()
                ),
            });
        }
        if let Some(d) = deadline {
            if fidelity_obs::clock::now() >= d {
                fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                return Err(DnnError::DeadlineExceeded);
            }
        }
        let mut overlay = ws.take_golden();
        if overlay.key.is_none() || overlay.slots.len() != n || overlay.dirty.len() != n {
            ws.put_golden(overlay);
            return Err(DnnError::InvalidConfig {
                message: "delta resume requires an installed golden overlay".into(),
            });
        }
        let mut side = ws.take_slots(n);
        let walked = self.delta_walk(
            trace,
            node_idx,
            neurons,
            values,
            deadline,
            ws,
            &mut overlay,
            &mut side,
        );
        let verdict = walked.map(|()| match self.network.output {
            Source::Input(i) => judge(&trace.inputs[i]),
            Source::Node(i) => judge(side[i].as_ref().unwrap_or(&overlay.slots[i])),
        });
        repair_overlay(&mut overlay, &side, trace);
        ws.put_slots(side);
        ws.put_golden(overlay);
        verdict
    }

    /// The walk behind [`Engine::resume_delta`]: patches the injected node
    /// into `overlay` and recomputes its value-exact cone. On return, node
    /// `j`'s value is `side[j]` when set (a full forward) and
    /// `overlay.slots[j]` otherwise; `overlay.dirty[j]` bounds where that
    /// value differs from golden, and everything outside it holds golden
    /// bits. The caller repairs the overlay whether or not the walk failed.
    #[allow(clippy::too_many_arguments)]
    fn delta_walk(
        &self,
        trace: &Trace,
        node_idx: usize,
        neurons: &[usize],
        values: &[f32],
        deadline: Option<Instant>,
        ws: &mut Workspace,
        overlay: &mut GoldenOverlay,
        side: &mut [Option<Tensor>],
    ) -> Result<(), DnnError> {
        // Patch the injected node sparsely. Bounding only the patched
        // offsets equals bounding the whole spliced tensor: clean values
        // satisfy |v| ≤ bound by calibration (slack ≥ 1), so the clamp is
        // the identity on them. Offsets whose patched bits equal golden
        // (a clamp back onto the clean value) start the cone clean.
        let bound = self.node_bounds.as_ref().map(|b| b[node_idx]);
        {
            let slot = &mut overlay.slots[node_idx];
            let data = slot.data_mut();
            for (&off, &v) in neurons.iter().zip(values) {
                data[off] = match bound {
                    Some(b) => clamp_to_bound(v, b),
                    None => v,
                };
            }
            let gold = trace.node_outputs[node_idx].data();
            let data = slot.data();
            overlay.dirty[node_idx] = offsets_region(
                slot.shape(),
                neurons
                    .iter()
                    .copied()
                    .filter(|&off| data[off].to_bits() != gold[off].to_bits()),
            );
        }

        let fast_tier = ws.mac_tier() == MacTier::Fast;
        let down = &self.downstream[node_idx];
        let mut result = Ok(());
        for idx in node_idx + 1..self.network.node_count() {
            if down[idx / 64] >> (idx % 64) & 1 == 0 {
                continue; // not downstream of the corruption
            }
            if let Some(d) = deadline {
                if fidelity_obs::clock::now() >= d {
                    fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                    result = Err(DnnError::DeadlineExceeded);
                    break;
                }
            }
            let node = &self.network.nodes[idx];

            // Where each source diverges from golden. All-clean sources
            // mean every upstream perturbation was masked (or its window
            // fell off the grid): the node is provably clean. A source
            // dirty as a whole dirties the whole output; otherwise the
            // layer maps the sources' windows to its output window when it
            // has locality, and to `All` when it does not.
            let mut window_buf: [Option<Window>; 8] = [None; 8];
            let mut window_vec: Vec<Option<Window>>;
            let windows: &mut [Option<Window>] = if node.sources.len() <= window_buf.len() {
                &mut window_buf[..node.sources.len()]
            } else {
                window_vec = vec![None; node.sources.len()];
                &mut window_vec
            };
            let (mut any_dirty, mut all) = (false, false);
            for (k, src) in node.sources.iter().enumerate() {
                if let Source::Node(j) = src {
                    match overlay.dirty[*j] {
                        None => continue,
                        Some(Region::All) => all = true,
                        Some(Region::Window { h, w }) => windows[k] = Some((h, w)),
                    }
                    any_dirty = true;
                }
            }
            let forced =
                fast_tier && matches!(node.layer.kind(), LayerKind::Dense | LayerKind::MatMul);
            if !any_dirty && !forced {
                continue;
            }
            let out_region = if all || forced {
                Region::All
            } else {
                let mut shape_buf: [&[usize]; 8] = [&[]; 8];
                let shape_vec: Vec<&[usize]>;
                let shape_of = |src: &Source| -> &[usize] {
                    match src {
                        Source::Input(i) => trace.inputs[*i].shape(),
                        Source::Node(j) => trace.node_outputs[*j].shape(),
                    }
                };
                let shapes: &[&[usize]] = if node.sources.len() <= shape_buf.len() {
                    for (k, src) in node.sources.iter().enumerate() {
                        shape_buf[k] = shape_of(src);
                    }
                    &shape_buf[..node.sources.len()]
                } else {
                    shape_vec = node.sources.iter().map(shape_of).collect();
                    &shape_vec
                };
                match node.layer.region_map(shapes, windows) {
                    Some((h, w)) => Region::Window { h, w },
                    None => Region::All,
                }
            };

            let codec = self.node_codecs[idx];
            let on_grid = self.node_bounds.is_none()
                && node.layer.values_preserved()
                && node.sources.iter().all(|src| match src {
                    Source::Input(i) => self.input_codecs[*i] == codec,
                    Source::Node(j) => self.node_codecs[*j] == codec,
                });
            let needs_quant = codec.precision() != Precision::Fp32 && !on_grid;
            let gold = &trace.node_outputs[idx];

            let mut handled = false;
            if let Region::Window { h, w } = out_region {
                if h.0 >= h.1 || w.0 >= w.1 {
                    continue; // window fell off the grid: provably clean
                }
                // Topological order guarantees every source index < idx, so
                // the split cleanly separates inputs from the output slot.
                let (head, tail) = overlay.slots.split_at_mut(idx);
                let out_t = &mut tail[0];
                let resolve = |src: &Source| -> &Tensor {
                    match src {
                        Source::Input(i) => &trace.inputs[*i],
                        Source::Node(j) => side[*j].as_ref().unwrap_or(&head[*j]),
                    }
                };
                let mut ref_buf: [&Tensor; 8] = [&trace.output; 8];
                let ref_vec: Vec<&Tensor>;
                let in_refs: &[&Tensor] = if node.sources.len() <= ref_buf.len() {
                    for (k, src) in node.sources.iter().enumerate() {
                        ref_buf[k] = resolve(src);
                    }
                    &ref_buf[..node.sources.len()]
                } else {
                    ref_vec = node.sources.iter().map(resolve).collect();
                    &ref_vec
                };
                match node.layer.forward_region(in_refs, h, w, out_t, ws) {
                    Ok(true) => {
                        let data = out_t.data_mut();
                        if needs_quant {
                            for_each_window_row(gold.shape(), h, w, |a, b| {
                                for v in &mut data[a..b] {
                                    *v = codec.quantize(*v);
                                }
                            });
                        }
                        if let Some(bounds) = &self.node_bounds {
                            let node_bound = bounds[idx];
                            for_each_window_row(gold.shape(), h, w, |a, b| {
                                for v in &mut data[a..b] {
                                    *v = clamp_to_bound(*v, node_bound);
                                }
                            });
                        }
                        overlay.dirty[idx] = diff_region(out_t, gold, h, w);
                        ws.delta_walk.windowed += 1;
                        handled = true;
                    }
                    Ok(false) => {} // fall through to the full forward
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if !handled {
                let resolve = |src: &Source| -> &Tensor {
                    match src {
                        Source::Input(i) => &trace.inputs[*i],
                        Source::Node(j) => side[*j].as_ref().unwrap_or(&overlay.slots[*j]),
                    }
                };
                let mut ref_buf: [&Tensor; 8] = [&trace.output; 8];
                let ref_vec: Vec<&Tensor>;
                let in_refs: &[&Tensor] = if node.sources.len() <= ref_buf.len() {
                    for (k, src) in node.sources.iter().enumerate() {
                        ref_buf[k] = resolve(src);
                    }
                    &ref_buf[..node.sources.len()]
                } else {
                    ref_vec = node.sources.iter().map(resolve).collect();
                    &ref_vec
                };
                match node.layer.forward(in_refs, ws) {
                    Ok(mut raw) => {
                        if needs_quant {
                            raw.map_inplace(|v| codec.quantize(v));
                        }
                        if let Some(bounds) = &self.node_bounds {
                            let node_bound = bounds[idx];
                            raw.map_inplace(|v| clamp_to_bound(v, node_bound));
                        }
                        // The whole tensor is compared, so an `All` region
                        // can shrink back to a window (or to clean).
                        overlay.dirty[idx] =
                            diff_region(&raw, gold, (0, usize::MAX), (0, usize::MAX));
                        if overlay.dirty[idx].is_some() {
                            side[idx] = Some(raw);
                        } else {
                            ws.recycle(raw);
                        }
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            ws.delta_walk.recomputed += 1;
            if overlay.dirty[idx].is_none() {
                ws.delta_walk.reconverged += 1;
            }
        }
        result
    }

    /// Whether node `dependent` transitively consumes node `of`'s output
    /// (from the precomputed downstream bitsets).
    pub fn depends_on(&self, dependent: usize, of: usize) -> bool {
        self.downstream
            .get(of)
            .is_some_and(|d| d[dependent / 64] >> (dependent % 64) & 1 == 1)
    }

    /// Number of nodes that must be recomputed when node `idx` is corrupted.
    pub fn downstream_count(&self, idx: usize) -> usize {
        self.downstream[idx]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The MAC geometry of node `idx` given the input shapes recorded in
    /// `trace`, when the node is a MAC layer.
    pub fn mac_spec(&self, idx: usize, trace: &Trace) -> Option<MacSpec> {
        trace.mac_specs.get(idx).cloned().flatten()
    }

    /// The operand tensors of MAC node `idx` as `trace` recorded them: the
    /// traced activation, and as weight the traced second activation for a
    /// MatMul or the layer's stored weight for Conv / Dense. `None` for
    /// non-MAC nodes. Allocation-free, for per-injection use.
    pub fn mac_operands<'a>(&'a self, idx: usize, trace: &'a Trace) -> Option<Operands<'a>> {
        let spec = trace.mac_specs.get(idx)?.as_ref()?;
        let sources = &self.network.nodes[idx].sources;
        let weight = match spec {
            MacSpec::MatMul(_) if sources.len() >= 2 => self.node_input_at(idx, 1, trace),
            MacSpec::MatMul(_) => return None,
            _ => self.network.nodes[idx].layer.mac_weight()?,
        };
        Some(Operands {
            input: self.node_input_at(idx, 0, trace),
            weight,
        })
    }

    /// The codecs of node `idx`'s input tensors (graph-input or producing
    /// node codecs, in input order).
    pub fn node_input_codecs(&self, idx: usize) -> Vec<ValueCodec> {
        self.network.nodes[idx]
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => self.input_codecs[*i],
                Source::Node(i) => self.node_codecs[*i],
            })
            .collect()
    }

    /// The input tensors of node `idx` as recorded in `trace`.
    pub fn node_inputs<'t>(&self, idx: usize, trace: &'t Trace) -> Vec<&'t Tensor> {
        self.network.nodes[idx]
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => &trace.inputs[*i],
                Source::Node(i) => &trace.node_outputs[*i],
            })
            .collect()
    }

    /// Number of input tensors node `idx` consumes.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn node_source_count(&self, idx: usize) -> usize {
        self.network.nodes[idx].sources.len()
    }

    /// The `k`-th input tensor of node `idx` as recorded in `trace` — the
    /// allocation-free counterpart of [`Engine::node_inputs`] for hot loops.
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `k` is out of range.
    pub fn node_input_at<'t>(&self, idx: usize, k: usize, trace: &'t Trace) -> &'t Tensor {
        match self.network.nodes[idx].sources[k] {
            Source::Input(i) => &trace.inputs[i],
            Source::Node(i) => &trace.node_outputs[i],
        }
    }

    /// The codec of the `k`-th input tensor of node `idx` — the
    /// allocation-free counterpart of [`Engine::node_input_codecs`].
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `k` is out of range.
    pub fn node_input_codec_at(&self, idx: usize, k: usize) -> ValueCodec {
        match self.network.nodes[idx].sources[k] {
            Source::Input(i) => self.input_codecs[i],
            Source::Node(i) => self.node_codecs[i],
        }
    }

    fn run(
        &self,
        inputs: &[Tensor],
        replace: Option<(usize, Tensor)>,
        base: Option<&Trace>,
    ) -> Result<(Tensor, Trace), DnnError> {
        // A replacement without a base trace cannot happen: the only caller
        // that passes `replace` is `resume_with_deadline`, which supplies the
        // trace alongside it. Dropping the replacement is safe either way.
        let replace = match (replace, base) {
            (Some((i, t)), Some(trace)) => Some((i, t, trace)),
            _ => None,
        };
        let mut ws = Workspace::new();
        run(
            &self.network,
            inputs,
            Some(&self.input_codecs),
            Some(&self.node_codecs),
            replace,
            self.node_bounds.as_deref(),
            None,
            &mut ws,
        )
    }
}

/// The result of a pooled resume: the network output, either borrowed from
/// the clean trace (the corruption never reached it) or owned (recomputed).
#[derive(Debug)]
pub enum ResumedOutput<'t> {
    /// The output was unaffected by the corruption; this borrows the clean
    /// trace's tensor without copying.
    Borrowed(&'t Tensor),
    /// The output was recomputed (its buffer came from the workspace pool;
    /// hand it back via [`Workspace::recycle`] when done).
    Owned(Tensor),
}

impl ResumedOutput<'_> {
    /// The output tensor.
    pub fn tensor(&self) -> &Tensor {
        match self {
            ResumedOutput::Borrowed(t) => t,
            ResumedOutput::Owned(t) => t,
        }
    }

    /// Converts to an owned tensor, cloning when borrowed.
    pub fn into_owned(self) -> Tensor {
        match self {
            ResumedOutput::Borrowed(t) => t.clone(),
            ResumedOutput::Owned(t) => t,
        }
    }

    /// Returns the output's buffers to `ws` when owned (no-op when
    /// borrowed) — the steady-state epilogue of an injection.
    pub fn recycle_into(self, ws: &mut Workspace) {
        if let ResumedOutput::Owned(t) = self {
            ws.recycle(t);
        }
    }
}

/// Builds the transitive-dependents bitset for every node: walking nodes in
/// reverse topological order, each consumer folds its own downstream set
/// into its producers'.
fn build_downstream(network: &Network) -> Vec<Vec<u64>> {
    let n = network.nodes.len();
    let words = n.div_ceil(64);
    let mut down = vec![vec![0u64; words]; n];
    for j in (0..n).rev() {
        for src in &network.nodes[j].sources {
            if let Source::Node(i) = src {
                // Topological order guarantees i < j, so the split is safe.
                let (head, tail) = down.split_at_mut(j);
                let di = &mut head[*i];
                for (a, b) in di.iter_mut().zip(tail[0].iter()) {
                    *a |= *b;
                }
                di[j / 64] |= 1 << (j % 64);
            }
        }
    }
    down
}

/// Clamps a value to `[-bound, bound]`; non-finite values saturate to the
/// bound (a magnitude comparator on the exponent field catches Inf/NaN).
fn clamp_to_bound(v: f32, bound: f32) -> f32 {
    if !v.is_finite() {
        return if v.is_sign_negative() { -bound } else { bound };
    }
    v.clamp(-bound, bound)
}

/// Core executor shared by calibration (no codecs) and engine runs. The
/// deadline, when set, is checked at every node boundary.
#[allow(clippy::too_many_arguments)]
fn run(
    network: &Network,
    inputs: &[Tensor],
    input_codecs: Option<&[ValueCodec]>,
    node_codecs: Option<&[ValueCodec]>,
    replace: Option<(usize, Tensor, &Trace)>,
    bounds: Option<&[f32]>,
    deadline: Option<Instant>,
    ws: &mut Workspace,
) -> Result<(Tensor, Trace), DnnError> {
    if inputs.len() != network.input_names.len() {
        return Err(DnnError::ArityMismatch {
            layer: network.name.clone(),
            expected: network.input_names.len(),
            actual: inputs.len(),
        });
    }

    let quantize = |t: &Tensor, codec: Option<&ValueCodec>| -> Tensor {
        match codec {
            Some(c) if c.precision() != Precision::Fp32 => t.map(|v| c.quantize(v)),
            _ => t.clone(),
        }
    };

    let q_inputs: Vec<Tensor> = inputs
        .iter()
        .enumerate()
        .map(|(i, t)| quantize(t, input_codecs.map(|c| &c[i])))
        .collect();

    // When resuming, mark which nodes must be recomputed: the replaced node's
    // dependents only. All others reuse the base trace.
    let mut dirty = vec![false; network.nodes.len()];
    if let Some((ridx, _, _)) = replace {
        dirty[ridx] = true;
        for i in ridx + 1..network.nodes.len() {
            if network.nodes[i].sources.iter().any(|s| match s {
                Source::Node(j) => dirty[*j],
                Source::Input(_) => false,
            }) {
                dirty[i] = true;
            }
        }
    }

    let apply_bound = |idx: usize, mut t: Tensor| -> Tensor {
        if let Some(b) = bounds {
            let bound = b[idx];
            t.map_inplace(|v| clamp_to_bound(v, bound));
        }
        t
    };

    let mut outputs: Vec<Tensor> = Vec::with_capacity(network.nodes.len());
    for (idx, node) in network.nodes.iter().enumerate() {
        if let Some(d) = deadline {
            // Monotonic watchdog deadline via the obs clock (the workspace's
            // sanctioned wall-clock site); never feeds campaign statistics.
            if fidelity_obs::clock::now() >= d {
                fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                return Err(DnnError::DeadlineExceeded);
            }
        }
        if let Some((ridx, ref replacement, base)) = replace {
            if idx == ridx {
                // The corrupted writeback passes through the same bounding
                // hardware as a clean one.
                outputs.push(apply_bound(idx, replacement.clone()));
                continue;
            }
            if !dirty[idx] {
                outputs.push(base.node_outputs[idx].clone());
                continue;
            }
        }
        let in_refs: Vec<&Tensor> = node
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => &q_inputs[*i],
                Source::Node(i) => &outputs[*i],
            })
            .collect();
        let mut raw = node.layer.forward(&in_refs, ws)?;
        if let Some(c) = node_codecs.map(|cs| &cs[idx]) {
            // Value-preserving layers (concat, reshape, max-pool, ReLU) fed
            // exclusively by sources already on this codec's grid emit
            // values the quantizer would map to themselves — skip the
            // per-element pass. Bounding clamps can move values off-grid, so
            // the skip only applies unbounded.
            let on_grid = bounds.is_none()
                && node.layer.values_preserved()
                && node.sources.iter().all(|src| match src {
                    Source::Input(i) => input_codecs.is_some_and(|ic| ic[*i] == *c),
                    Source::Node(j) => node_codecs.is_some_and(|nc| nc[*j] == *c),
                });
            if c.precision() != Precision::Fp32 && !on_grid {
                raw.map_inplace(|v| c.quantize(v));
            }
        }
        outputs.push(apply_bound(idx, raw));
    }

    let out = match network.output {
        Source::Input(i) => q_inputs[i].clone(),
        Source::Node(i) => outputs[i].clone(),
    };
    let mac_specs = network
        .nodes
        .iter()
        .map(|node| {
            if !node.layer.kind().is_mac() {
                return None;
            }
            let shapes: Vec<&[usize]> = node
                .sources
                .iter()
                .map(|src| match src {
                    Source::Input(i) => q_inputs[*i].shape(),
                    Source::Node(i) => outputs[*i].shape(),
                })
                .collect();
            node.layer.mac_spec(&shapes)
        })
        .collect();
    let trace = Trace {
        inputs: q_inputs,
        node_outputs: outputs,
        output: out.clone(),
        mac_specs,
    };
    Ok((out, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{union_windows, Activation, ActivationKind, Add, Dense, Mul};
    use crate::workspace::DeltaWalk;

    fn two_layer_net() -> Network {
        let w1 = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let w2 = Tensor::from_vec(vec![2, 2], vec![2.0, 0.0, 0.0, 2.0]).unwrap();
        NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc1", w1).unwrap(), &["x"])
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["fc1"])
            .unwrap()
            .layer(Dense::new("fc2", w2).unwrap(), &["relu"])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn forward_chains_layers() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -3.0]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        assert_eq!(y.data(), &[2.0, 0.0]);
    }

    #[test]
    fn builder_rejects_bad_wiring() {
        let w = Tensor::zeros(vec![2, 2]);
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Dense::new("fc", w.clone()).unwrap(), &["nope"]),
            Err(DnnError::UnknownName { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Dense::new("x", w.clone()).unwrap(), &["x"]),
            Err(DnnError::DuplicateName { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Add::new("add"), &["x"]),
            Err(DnnError::ArityMismatch { .. })
        ));
        assert!(NetworkBuilder::new("t").input("x").build().is_err());
    }

    #[test]
    fn resume_matches_full_run_with_replacement() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();

        // Corrupt fc1's output and resume.
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 100.0;
        let y = engine.resume(&trace, 0, corrupted).unwrap();
        assert_eq!(y.data(), &[200.0, 4.0]);
        // Clean trace is untouched.
        assert_eq!(trace.output.data(), &[2.0, 4.0]);
    }

    #[test]
    fn resume_skips_untouched_branches() {
        // Diamond: x -> a; x -> b; add(a, b). Corrupting `a` must keep `b`
        // from the base trace (same values).
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let net = NetworkBuilder::new("d")
            .input("x")
            .layer(Dense::new("a", w.clone()).unwrap(), &["x"])
            .unwrap()
            .layer(Dense::new("b", w).unwrap(), &["x"])
            .unwrap()
            .layer(Add::new("add"), &["a", "b"])
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[1] = -4.0;
        let y = engine.resume(&trace, 0, corrupted).unwrap();
        assert_eq!(y.data(), &[6.0, 0.0]);
    }

    #[test]
    fn int8_quantization_bounds_error() {
        let net = two_layer_net();
        let x = Tensor::from_vec(vec![1, 2], vec![0.5, -0.25]).unwrap();
        let engine = Engine::new(net, Precision::Int8, &[vec![x.clone()]]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        // Identity->relu->2x with small values: quantization error is bounded
        // by a few grid steps.
        assert!((y.data()[0] - 1.0).abs() < 0.05);
        assert_eq!(y.data()[1], 0.0);
    }

    #[test]
    fn fp16_quantization_rounds_outputs() {
        let net = two_layer_net();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![0.1, 0.2]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        for &v in y.data() {
            assert_eq!(crate::f16::round_to_f16(v), v);
        }
    }

    /// Backs the value-preserving quantize skip: every traced node output —
    /// including those of skipped layers (ReLU, max-pool, concat, flatten) —
    /// must already sit on its codec's grid, i.e. re-quantization is a
    /// bitwise no-op. Runs both precisions the executors skip under.
    #[test]
    fn trace_outputs_are_quantize_idempotent() {
        use crate::layers::{Concat, Conv2d, Flatten, Pool2d, PoolKind};

        let net = || {
            let conv_w = crate::init::uniform_tensor(11, vec![4, 2, 3, 3], 0.6);
            let fc_w = crate::init::uniform_tensor(12, vec![3, 32], 0.6);
            NetworkBuilder::new("grid")
                .input("x")
                .layer(
                    Conv2d::new("conv", conv_w).unwrap().with_padding(1, 1),
                    &["x"],
                )
                .unwrap()
                .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
                .unwrap()
                .layer(
                    Pool2d::new("pool", PoolKind::Max, 2).with_stride(2),
                    &["relu"],
                )
                .unwrap()
                .layer(Concat::new("cat", 1), &["pool", "pool"])
                .unwrap()
                .layer(Flatten::new("flat"), &["cat"])
                .unwrap()
                .layer(Dense::new("fc", fc_w).unwrap(), &["flat"])
                .unwrap()
                .build()
                .unwrap()
        };
        let x = crate::init::uniform_tensor(13, vec![1, 2, 4, 4], 1.0);
        for precision in [Precision::Fp16, Precision::Int8] {
            let engine = Engine::new(net(), precision, &[vec![x.clone()]]).unwrap();
            let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
            for idx in 0..engine.network().node_count() {
                let codec = engine.node_codec(idx);
                for (k, &v) in trace.node_outputs[idx].data().iter().enumerate() {
                    assert_eq!(
                        codec.quantize(v).to_bits(),
                        v.to_bits(),
                        "{precision:?} node {idx} elem {k} off-grid"
                    );
                }
            }
        }
    }

    #[test]
    fn range_bounding_clamps_corrupted_values() {
        let mut engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        engine
            .enable_range_bounding(std::slice::from_ref(&x), 2.0)
            .unwrap();
        // Clean behaviour unchanged.
        let trace = engine.trace(&[x]).unwrap();
        assert_eq!(trace.output.data(), &[2.0, 4.0]);
        // A huge injected value is clamped at the corrupted layer
        // (fc1's clean max-abs is 2, slack 2 → bound 4).
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 1e9;
        let y = engine.resume(&trace, 0, corrupted.clone()).unwrap();
        assert_eq!(y.data(), &[8.0, 4.0]); // 4 (clamped) × 2
                                           // NaN saturates to the bound instead of propagating.
        corrupted.data_mut()[0] = f32::NAN;
        let y = engine.resume(&trace, 0, corrupted).unwrap();
        assert_eq!(y.data(), &[8.0, 4.0]);
        // Disabled bounding lets the corruption through again.
        engine.disable_range_bounding();
        let trace = engine
            .trace(&[Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap()])
            .unwrap();
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 1e9;
        let y = engine.resume(&trace, 0, corrupted).unwrap();
        assert_eq!(y.data()[0], 2e9);
    }

    #[test]
    fn range_bounding_rejects_sub_unit_slack() {
        let mut engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        assert!(engine
            .enable_range_bounding(std::slice::from_ref(&x), 0.5)
            .is_err());
        assert!(engine.enable_range_bounding(&[x], f32::NAN).is_err());
    }

    #[test]
    fn named_output_selects_intermediate() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc1", w.clone()).unwrap(), &["x"])
            .unwrap()
            .layer(Dense::new("fc2", w).unwrap(), &["fc1"])
            .unwrap()
            .output("fc1")
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![5.0, 6.0]).unwrap();
        assert_eq!(engine.forward(&[x]).unwrap().data(), &[5.0, 6.0]);
    }

    /// Deterministic pseudo-random fill for delta-path fixtures.
    fn lcg_fill(seed: &mut u64, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to a small signed range with a fractional part.
            let v = ((*seed >> 40) as i64 - (1 << 23)) as f32 / (1 << 21) as f32;
            data.push(v);
        }
        Tensor::from_vec(shape, data).unwrap()
    }

    /// A little inception-style rank-4 network exercising every region-aware
    /// layer (conv, pool, activation, concat, bias-add, scale) plus a
    /// region-less tail (global-avg-pool → dense) that forces the delta walk
    /// through its `All` fallback.
    fn branchy_conv_net(seed: u64) -> Network {
        use crate::layers::{BiasAdd, Concat, Conv2d, GlobalAvgPool, Pool2d, PoolKind, Scale};
        let mut s = seed;
        NetworkBuilder::new("branchy")
            .input("x")
            .layer(
                Conv2d::new("stem", lcg_fill(&mut s, vec![4, 2, 3, 3]))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["stem"])
            .unwrap()
            .layer(
                Conv2d::new("b0", lcg_fill(&mut s, vec![2, 4, 1, 1])).unwrap(),
                &["relu"],
            )
            .unwrap()
            .layer(
                Pool2d::new("b1p", PoolKind::Max, 3)
                    .with_stride(1)
                    .with_padding(1),
                &["relu"],
            )
            .unwrap()
            .layer(
                Conv2d::new("b1c", lcg_fill(&mut s, vec![2, 4, 1, 1])).unwrap(),
                &["b1p"],
            )
            .unwrap()
            .layer(Concat::new("cat", 1), &["b0", "b1c"])
            .unwrap()
            .layer(
                BiasAdd::new("bias", lcg_fill(&mut s, vec![4])).unwrap(),
                &["cat"],
            )
            .unwrap()
            .layer(Scale::new("scale", 0.75), &["bias"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["scale"])
            .unwrap()
            .layer(
                Dense::new("head", lcg_fill(&mut s, vec![3, 4])).unwrap(),
                &["gap"],
            )
            .unwrap()
            .build()
            .unwrap()
    }

    /// A rank-2 attention block over a `[6, 8]` sequence: Dense Q/K/V, the
    /// transposed (`Q·Kᵀ`) and plain (`attn·V`) MatMul forms, Scale,
    /// Softmax, a column Concat, Dense projection, residual Add and
    /// LayerNorm, then a ReLU / BiasAdd / Mul gate and a Dense head. Every
    /// tensor is `[rows, cols]`, so the delta walk runs on row windows.
    fn attention_block_net(seed: u64) -> Network {
        use crate::layers::{BiasAdd, Concat, LayerNorm, MatMul, Scale, Softmax};
        let mut s = seed;
        NetworkBuilder::new("attention")
            .input("x")
            .layer(
                Dense::new("q", lcg_fill(&mut s, vec![4, 8])).unwrap(),
                &["x"],
            )
            .unwrap()
            .layer(
                Dense::new("k", lcg_fill(&mut s, vec![4, 8])).unwrap(),
                &["x"],
            )
            .unwrap()
            .layer(
                Dense::new("v", lcg_fill(&mut s, vec![4, 8])).unwrap(),
                &["x"],
            )
            .unwrap()
            .layer(MatMul::transposed("scores"), &["q", "k"])
            .unwrap()
            .layer(Scale::new("scaled", 0.5), &["scores"])
            .unwrap()
            .layer(Softmax::new("attn"), &["scaled"])
            .unwrap()
            .layer(MatMul::new("ctx"), &["attn", "v"])
            .unwrap()
            .layer(Concat::new("heads", 1), &["ctx", "q"])
            .unwrap()
            .layer(
                Dense::new("proj", lcg_fill(&mut s, vec![8, 8])).unwrap(),
                &["heads"],
            )
            .unwrap()
            .layer(Add::new("res"), &["proj", "x"])
            .unwrap()
            .layer(
                LayerNorm::new(
                    "ln",
                    lcg_fill(&mut s, vec![8]).map(|v| 1.0 + v / 4.0),
                    lcg_fill(&mut s, vec![8]),
                )
                .unwrap(),
                &["res"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["ln"])
            .unwrap()
            .layer(
                BiasAdd::new("bias", lcg_fill(&mut s, vec![8])).unwrap(),
                &["relu"],
            )
            .unwrap()
            .layer(Mul::new("gate"), &["bias", "ln"])
            .unwrap()
            .layer(
                Dense::new("head", lcg_fill(&mut s, vec![5, 8])).unwrap(),
                &["gate"],
            )
            .unwrap()
            .build()
            .unwrap()
    }

    /// The delta-walk fixtures: the rank-4 conv network and the rank-2
    /// attention block, each with an input.
    fn delta_fixture(attention: bool, seed: u64) -> (Network, Tensor) {
        let mut s = seed ^ 0xD00D;
        if attention {
            (attention_block_net(seed), lcg_fill(&mut s, vec![6, 8]))
        } else {
            (branchy_conv_net(seed), lcg_fill(&mut s, vec![1, 2, 6, 6]))
        }
    }

    /// Bit image with NaN payloads canonicalized: NaN *positions* are part
    /// of the bitwise contract, NaN *payloads* are compiler-location
    /// dependent (see the `resume_delta` docs) and must compare equal.
    fn bits_of(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.shape().to_vec(),
            t.data()
                .iter()
                .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
                .collect(),
        )
    }

    /// The delta path must be byte-identical to the dense `resume_pooled`
    /// oracle for every injection node, patch shape (NaN, ±∞ and −0
    /// included), precision, and range-bounding mode, on the rank-4 conv
    /// network and the rank-2 attention block — and must leave the overlay
    /// repaired to golden bits afterwards.
    #[test]
    fn resume_delta_matches_resume_pooled_bitwise() {
        for attention in [false, true] {
            for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
                for bounded in [false, true] {
                    let (net, x) = delta_fixture(attention, 7);
                    let mut engine = Engine::new(net, precision, &[vec![x.clone()]]).unwrap();
                    if bounded {
                        engine
                            .enable_range_bounding(std::slice::from_ref(&x), 1.5)
                            .unwrap();
                    }
                    check_delta_matches_pooled(&engine, &x, bounded);
                }
            }
        }
    }

    fn check_delta_matches_pooled(engine: &Engine, x: &Tensor, bounded: bool) {
        let precision = engine.precision();
        let trace = engine.trace(std::slice::from_ref(x)).unwrap();
        let n = engine.network().node_count();
        let mut ws = Workspace::new();
        ws.install_golden(golden_key(&trace), &trace.node_outputs);

        for node in 0..n {
            let len = trace.node_outputs[node].len();
            let patches: Vec<(Vec<usize>, Vec<f32>)> = vec![
                (vec![0], vec![64.0]),
                (vec![len - 1], vec![-1.0e30]),
                (
                    vec![0, len / 2, len - 1],
                    vec![f32::NAN, f32::INFINITY, 3.5],
                ),
                (vec![len / 3, len / 2], vec![-0.0, f32::NEG_INFINITY]),
            ];
            for (neurons, values) in patches {
                let delta = engine
                    .resume_delta(&trace, node, &neurons, &values, None, &mut ws, bits_of)
                    .unwrap();

                let mut repl = trace.node_outputs[node].clone();
                for (&off, &v) in neurons.iter().zip(&values) {
                    repl.data_mut()[off] = v;
                }
                let mut ws2 = Workspace::new();
                let dense = engine
                    .resume_pooled(&trace, node, repl, None, &mut ws2)
                    .unwrap();
                assert_eq!(
                    delta,
                    bits_of(dense.tensor()),
                    "delta != pooled on {} at node {node} (precision {precision:?}, \
                     bounded {bounded})",
                    engine.network().name()
                );

                // Overlay must be bit-golden again, worklist empty.
                let overlay = ws.take_golden();
                assert_eq!(overlay.key, Some(golden_key(&trace)));
                for (slot, gold) in overlay.slots.iter().zip(&trace.node_outputs) {
                    assert_eq!(bits_of(slot), bits_of(gold), "overlay not repaired");
                }
                assert!(overlay.dirty.iter().all(Option::is_none));
                ws.put_golden(overlay);
            }
        }
    }

    /// Row windows on the attention block: a fault in one query row stays
    /// in that row all the way to the head, through both MatMul forms,
    /// Softmax, Concat and LayerNorm, and every recompute is windowed. A
    /// fault in one key row reaches every query row at one score column.
    /// A fault in V reaches `attn·V` as a whole-tensor recompute, whose
    /// compared output shrinks back to a window of the one dirty column.
    #[test]
    fn attention_faults_take_row_windows() {
        let (net, x) = delta_fixture(true, 7);
        let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
        let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
        let n = engine.network().node_count();
        let idx = |name: &str| engine.network().node_index(name).unwrap();
        // Patches row 2, column 1 of a `[6, 4]` projection.
        let walk = |node: usize| {
            let mut ws = Workspace::new();
            ws.install_golden(golden_key(&trace), &trace.node_outputs);
            let mut overlay = ws.take_golden();
            let mut side = ws.take_slots(n);
            engine
                .delta_walk(
                    &trace,
                    node,
                    &[9],
                    &[100.0],
                    None,
                    &mut ws,
                    &mut overlay,
                    &mut side,
                )
                .unwrap();
            (overlay.dirty, ws.take_delta_walk())
        };
        let rows_of = |region: Option<Region>| match region {
            Some(Region::Window { h, .. }) => h,
            other => panic!("expected a window, got {other:?}"),
        };

        let (dirty, counters) = walk(idx("q"));
        for name in [
            "scores", "scaled", "attn", "ctx", "heads", "proj", "res", "ln", "head",
        ] {
            assert_eq!(rows_of(dirty[idx(name)]), (2, 3), "{name}");
        }
        assert!(counters.recomputed >= 12);
        assert_eq!(counters.windowed, counters.recomputed);

        let (dirty, _) = walk(idx("k"));
        assert_eq!(
            dirty[idx("scores")],
            Some(Region::Window {
                h: (0, 6),
                w: (2, 3)
            })
        );

        let (dirty, counters) = walk(idx("v"));
        assert!(
            matches!(dirty[idx("ctx")], Some(Region::Window { w: (1, 2), .. })),
            "{:?}",
            dirty[idx("ctx")]
        );
        assert!(counters.windowed < counters.recomputed);
    }

    #[test]
    fn resume_delta_requires_installed_overlay() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();
        let mut ws = Workspace::new();
        let r = engine.resume_delta(&trace, 0, &[0], &[9.0], None, &mut ws, |_| ());
        assert!(matches!(r, Err(DnnError::InvalidConfig { .. })));
        // Arity mismatch between neurons and values is rejected up front.
        ws.install_golden(golden_key(&trace), &trace.node_outputs);
        let r = engine.resume_delta(&trace, 0, &[0, 1], &[9.0], None, &mut ws, |_| ());
        assert!(matches!(r, Err(DnnError::InvalidConfig { .. })));
    }

    #[test]
    fn golden_key_is_trace_instance_identity() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let t1 = engine.trace(std::slice::from_ref(&x)).unwrap();
        let t2 = engine.trace(std::slice::from_ref(&x)).unwrap();
        assert_eq!(golden_key(&t1), golden_key(&t1), "key must be stable");
        // Equal values, different buffers: different identity.
        assert_ne!(golden_key(&t1), golden_key(&t2));
    }

    #[test]
    fn sparse_and_union_region_geometry() {
        // Bounding box over scattered rank-4 offsets.
        let r = offsets_region(&[1, 2, 4, 5], [7, 13]);
        // 7 -> (row 1, col 2); 13 -> (row 2, col 3).
        assert_eq!(
            r,
            Some(Region::Window {
                h: (1, 3),
                w: (2, 4)
            })
        );
        // A rank-2 `[rows, cols]` tensor is one plane: 3 -> (row 0, col 3),
        // 17 -> (row 1, col 7).
        assert_eq!(
            offsets_region(&[2, 10], [3, 17]),
            Some(Region::Window {
                h: (0, 2),
                w: (3, 8)
            })
        );
        assert_eq!(offsets_region(&[2, 2, 10], [3]), Some(Region::All));
        assert_eq!(offsets_region(&[1, 1, 4, 4], []), None);

        let w1 = ((0, 2), (3, 4));
        let w2 = ((1, 3), (0, 1));
        assert_eq!(
            union_windows(&[Some(w1), None, Some(w2)]),
            Some(((0, 3), (0, 4)))
        );
        assert_eq!(union_windows(&[None, Some(w1)]), Some(w1));
        assert_eq!(union_windows(&[None, None]), None);
    }

    #[test]
    fn diff_region_is_tight_and_bitwise() {
        let gold = Tensor::zeros(vec![1, 2, 4, 5]);
        let mut cur = gold.clone();
        // Plane 0 (row 0, col 1) flips only the sign bit; plane 1 (row 2,
        // col 3) differs by value.
        cur.data_mut()[1] = -0.0;
        cur.data_mut()[20 + 2 * 5 + 3] = 1.0;
        let all = (0, usize::MAX);
        assert_eq!(
            diff_region(&cur, &gold, all, all),
            Some(Region::Window {
                h: (0, 3),
                w: (1, 4)
            })
        );
        // Restricted to a window, only the differences inside it count.
        assert_eq!(
            diff_region(&cur, &gold, (2, 4), (0, 5)),
            Some(Region::Window {
                h: (2, 3),
                w: (3, 4)
            })
        );
        assert_eq!(diff_region(&gold, &gold, all, all), None);
        // NaN payloads are bits like any other.
        let nan_a = Tensor::full(vec![2, 3], f32::from_bits(0x7FC0_0001));
        let nan_b = Tensor::full(vec![2, 3], f32::from_bits(0x7FC0_0002));
        assert_eq!(
            diff_region(&nan_a, &nan_b, all, all),
            Some(Region::Window {
                h: (0, 2),
                w: (0, 3)
            })
        );
        assert_eq!(diff_region(&nan_a, &nan_a, all, all), None);
        // Rank 2 is one plane; ranks without planes report `All`.
        let mut rows = Tensor::zeros(vec![4, 6]);
        rows.data_mut()[2 * 6 + 1] = -0.0;
        assert_eq!(
            diff_region(&rows, &Tensor::zeros(vec![4, 6]), all, all),
            Some(Region::Window {
                h: (2, 3),
                w: (1, 2)
            })
        );
        let cube = Tensor::full(vec![2, 2, 2], 1.0);
        assert_eq!(
            diff_region(&cube, &Tensor::zeros(vec![2, 2, 2]), all, all),
            Some(Region::All)
        );
    }

    /// Whether flat offset `off` of a tensor of `shape` lies in `region`.
    fn in_region(shape: &[usize], off: usize, region: Option<Region>) -> bool {
        match region {
            None => false,
            Some(Region::All) => true,
            Some(Region::Window { h, w }) => {
                let (_, rows, cols) = plane_dims(shape).expect("windows have planes");
                let (r, c) = ((off / cols) % rows, off % cols);
                (h.0..h.1).contains(&r) && (w.0..w.1).contains(&c)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The value-exact cone's invariants, node by node, against the
        /// dense executor: every offset outside a node's reported dirty
        /// region holds golden bits, a node is dirty iff its dense value
        /// differs from golden, and every node's value equals the dense one.
        #[test]
        fn delta_walk_regions_are_exact(
            attention in proptest::prelude::prop_oneof![
                proptest::prelude::Just(false),
                proptest::prelude::Just(true)
            ],
            net_seed in 1u64..50,
            precision_idx in 0usize..3,
            bounded in proptest::prelude::prop_oneof![
                proptest::prelude::Just(false),
                proptest::prelude::Just(true)
            ],
            node in 0usize..16,
            flips in proptest::collection::vec((0usize..100_000, 0u32..32), 1..4),
            special in 0usize..5,
        ) {
            let precision = [Precision::Fp32, Precision::Fp16, Precision::Int8][precision_idx];
            let (net, x) = delta_fixture(attention, net_seed);
            let mut engine = Engine::new(net, precision, &[vec![x.clone()]]).unwrap();
            if bounded {
                engine
                    .enable_range_bounding(std::slice::from_ref(&x), 1.5)
                    .unwrap();
            }
            let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
            let n = engine.network().node_count();
            let node = node % n;
            let gold_node = trace.node_outputs[node].data();
            let neurons: Vec<usize> = flips.iter().map(|&(o, _)| o % gold_node.len()).collect();
            let mut values: Vec<f32> = neurons
                .iter()
                .zip(&flips)
                .map(|(&o, &(_, bit))| f32::from_bits(gold_node[o].to_bits() ^ (1 << bit)))
                .collect();
            // Optionally overwrite the first patch with a special value.
            if special > 0 {
                values[0] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][special - 1];
            }

            // Dense oracle: every node of the resumed network.
            let mut repl = trace.node_outputs[node].clone();
            for (&off, &v) in neurons.iter().zip(&values) {
                repl.data_mut()[off] = v;
            }
            let dense = engine
                .run(std::slice::from_ref(&x), Some((node, repl.clone())), Some(&trace))
                .unwrap()
                .1;
            let pooled = engine
                .resume_pooled(&trace, node, repl, None, &mut Workspace::new())
                .unwrap();
            proptest::prelude::prop_assert_eq!(bits_of(pooled.tensor()), bits_of(&dense.output));

            let mut ws = Workspace::new();
            ws.install_golden(golden_key(&trace), &trace.node_outputs);
            let mut overlay = ws.take_golden();
            let mut side = ws.take_slots(n);
            engine
                .delta_walk(&trace, node, &neurons, &values, None, &mut ws, &mut overlay, &mut side)
                .unwrap();
            for (j, computed) in side.iter().enumerate() {
                let value = computed.as_ref().unwrap_or(&overlay.slots[j]);
                let gold = &trace.node_outputs[j];
                let region = overlay.dirty[j];
                for (off, (v, g)) in value.data().iter().zip(gold.data()).enumerate() {
                    proptest::prelude::prop_assert!(
                        in_region(gold.shape(), off, region) || v.to_bits() == g.to_bits(),
                        "node {j} offset {off} differs outside its region {region:?}"
                    );
                }
                proptest::prelude::prop_assert_eq!(
                    region.is_some(),
                    bits_of(&dense.node_outputs[j]) != bits_of(gold),
                    "node {} dirty flag disagrees with the dense executor", j
                );
                proptest::prelude::prop_assert_eq!(
                    bits_of(value),
                    bits_of(&dense.node_outputs[j]),
                    "node {} value diverges from the dense executor", j
                );
            }
            repair_overlay(&mut overlay, &side, &trace);
            ws.put_slots(side);
            for (slot, gold) in overlay.slots.iter().zip(&trace.node_outputs) {
                proptest::prelude::prop_assert_eq!(bits_of(slot), bits_of(gold), "overlay not repaired");
            }
            proptest::prelude::prop_assert!(overlay.dirty.iter().all(Option::is_none));
        }
    }

    /// A ReLU that zeroes a negative perturbation ends the cone: the ReLU
    /// is the only node recomputed, nothing downstream of it is touched,
    /// and the output keeps its golden bits. Under the Fast tier the dense
    /// head is recomputed as well, matching the dense path's Fast forward.
    #[test]
    fn relu_masked_perturbation_stops_the_cone() {
        let x = lcg_fill(&mut 0xD00D_u64, vec![1, 2, 6, 6]);
        let engine = Engine::new(branchy_conv_net(7), Precision::Fp32, &[]).unwrap();
        let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
        let stem = engine.network().node_index("stem").unwrap();
        let off = trace.node_outputs[stem]
            .data()
            .iter()
            .position(|&v| v < 0.0)
            .expect("the stem has a negative pre-activation");
        let faulty = trace.node_outputs[stem].data()[off] * 4.0 - 1.0;

        let mut ws = Workspace::new();
        ws.install_golden(golden_key(&trace), &trace.node_outputs);
        let out = engine
            .resume_delta(&trace, stem, &[off], &[faulty], None, &mut ws, bits_of)
            .unwrap();
        assert_eq!(out, bits_of(&trace.output));
        assert_eq!(
            ws.take_delta_walk(),
            DeltaWalk {
                recomputed: 1,
                windowed: 1,
                reconverged: 1
            },
            "only the ReLU may be recomputed"
        );

        ws.set_mac_tier(MacTier::Fast);
        let fast = engine
            .resume_delta(&trace, stem, &[off], &[faulty], None, &mut ws, bits_of)
            .unwrap();
        let mut repl = trace.node_outputs[stem].clone();
        repl.data_mut()[off] = faulty;
        let mut dense_ws = Workspace::new();
        dense_ws.set_mac_tier(MacTier::Fast);
        let dense = engine
            .resume_pooled(&trace, stem, repl, None, &mut dense_ws)
            .unwrap();
        assert_eq!(fast, bits_of(dense.tensor()));
        assert_eq!(
            ws.take_delta_walk().recomputed,
            2,
            "ReLU and the dense head"
        );
    }
}

//! Layer implementations and the [`Layer`] trait.
//!
//! MAC layers (convolution, fully-connected, matrix multiplication) expose a
//! [`MacSpec`] so the fault-injection engine can map operand elements to
//! output neurons and recompute individual neurons with substituted faulty
//! values.

mod activation;
mod conv;
mod dense;
mod elementwise;
mod embedding;
mod norm;
mod pool;
mod recurrent;
mod shape_ops;

pub use activation::{Activation, ActivationKind, Softmax};
pub use conv::Conv2d;
pub use dense::{Dense, MatMul};
pub use elementwise::{Add, BiasAdd, Concat, Mul, Scale};
pub use embedding::Embedding;
pub use norm::{LayerNorm, ScaleShift};
pub use pool::{GlobalAvgPool, Pool2d, PoolKind};
pub use recurrent::Lstm;
pub use shape_ops::{Flatten, Reshape, Slice, Transpose2d};

use crate::error::DnnError;
use crate::macspec::MacSpec;
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Broad family of a layer, used by the resilience framework to decide which
/// software fault models apply and by the performance model to cost layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerKind {
    /// 2-D convolution (MAC layer).
    Conv,
    /// Fully-connected (MAC layer).
    Dense,
    /// Matrix multiplication (MAC layer).
    MatMul,
    /// Bias addition.
    Bias,
    /// Pointwise non-linearity.
    Activation,
    /// Softmax.
    Softmax,
    /// Spatial pooling.
    Pool,
    /// Normalization (batch-norm fold, layer-norm).
    Norm,
    /// Element-wise arithmetic / concatenation.
    Elementwise,
    /// Embedding lookup.
    Embedding,
    /// Recurrent cell.
    Recurrent,
    /// Pure data-movement (reshape, flatten, slice, transpose).
    Shape,
}

impl LayerKind {
    /// Whether the layer family performs multiply-accumulate computation on
    /// the accelerator's MAC array (the layers of Table II).
    pub fn is_mac(self) -> bool {
        matches!(self, LayerKind::Conv | LayerKind::Dense | LayerKind::MatMul)
    }
}

/// A network layer.
///
/// Layers are immutable during inference; weights can be quantized once via
/// [`Layer::quantize_weights`] when an engine is prepared for a reduced
/// precision.
pub trait Layer: Send + Sync {
    /// Unique layer name within its network.
    fn name(&self) -> &str;

    /// Layer family.
    fn kind(&self) -> LayerKind;

    /// Number of input tensors the layer consumes, or `None` when variadic.
    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    /// The layer's weight tensors (empty for weightless layers).
    fn weights(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// The weight operand of a Conv / Dense MAC layer — the first entry of
    /// [`Layer::weights`], without allocating. `None` for every other layer
    /// (a MatMul takes its second operand from the graph).
    fn mac_weight(&self) -> Option<&Tensor> {
        None
    }

    /// Runs the layer, drawing the output tensor and any temporaries from
    /// `ws` so hot loops (campaign injections) never touch the global
    /// allocator in steady state. Pooling never affects values — outputs are
    /// bit-identical to an allocating run.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] when input shapes are incompatible with the
    /// layer's configuration.
    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError>;

    /// Runs the layer with a throwaway workspace — the convenient form for
    /// one-off calls and tests, where allocation cost is irrelevant.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::forward`].
    fn forward_alloc(&self, inputs: &[&Tensor]) -> Result<Tensor, DnnError> {
        let mut ws = Workspace::new();
        self.forward(inputs, &mut ws)
    }

    /// MAC geometry for this layer given its input shapes, when the layer is
    /// a MAC layer.
    fn mac_spec(&self, input_shapes: &[&[usize]]) -> Option<MacSpec> {
        let _ = input_shapes;
        None
    }

    /// Whether every output element is bitwise one of the input elements or
    /// `+0.0` (for any inputs and shapes). For such layers re-quantization is
    /// a no-op whenever the inputs already lie on the consumer codec's grid:
    /// grids are closed under round-to-grid, and `+0.0` quantizes to itself
    /// under every codec. The engine uses this to skip the per-element
    /// quantize pass on data-movement and selection layers (concat, reshape,
    /// max-pool, ReLU) when producer and consumer codecs are equal.
    ///
    /// Only return `true` when the property holds for *all* inputs, including
    /// non-finite values: a max-pool window of NaNs yields `-inf`, which is
    /// on the binary16 grid, and integer grids cannot contain non-finite
    /// inputs in the first place.
    fn values_preserved(&self) -> bool {
        false
    }

    /// Rounds the layer's weights onto the codec's representable grid.
    ///
    /// Engines call this once when preparing a reduced-precision deployment,
    /// mirroring post-training quantization of a trained model.
    fn quantize_weights(&mut self, codec: &ValueCodec) {
        let _ = codec;
    }

    /// Number of multiply-accumulate operations for the given inputs
    /// (0 for non-MAC layers).
    fn macs(&self, input_shapes: &[&[usize]]) -> u64 {
        self.mac_spec(input_shapes).map_or(0, |s| s.macs())
    }

    /// Maps the dirty windows of the layer's inputs to the (conservative
    /// superset) window of outputs that can depend on them, for layers whose
    /// dataflow is local in rows and columns. Windows index a tensor's
    /// planes: every batch and channel of a rank-4 NCHW tensor, or the one
    /// `[rows, cols]` plane of a rank-2 tensor (see
    /// [`Region`](crate::workspace::Region)).
    ///
    /// `dirty[k]` is the window in which input `k` differs from its golden
    /// value, or `None` when it is clean; at least one entry is `Some`.
    /// Layers whose inputs play one role map the windows' bounding box; a
    /// layer whose inputs play different roles (`MatMul`'s A and B) maps
    /// each by its own rule.
    ///
    /// `None` (the default) means "no locality": a changed input window may
    /// affect the whole output, and the delta resume path falls back to a
    /// full recompute of this layer.
    fn region_map(&self, input_shapes: &[&[usize]], dirty: &[Option<Window>]) -> Option<Window> {
        let _ = (input_shapes, dirty);
        None
    }

    /// Recomputes only the output elements in the window `h × w` of every
    /// plane, writing them into `out` and leaving every other element
    /// untouched. Returns `Ok(false)` — without writing — when the layer
    /// does not support windowed recomputation for these shapes; the caller
    /// then falls back to a full [`Layer::forward`].
    ///
    /// Implementations must produce values byte-identical to what
    /// [`Layer::forward`] would place at the same offsets.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::forward`].
    fn forward_region(
        &self,
        inputs: &[&Tensor],
        h: (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = (inputs, h, w, out, ws);
        Ok(false)
    }
}

/// A half-open `([h0, h1), [w0, w1))` row × column window of every plane of
/// a tensor: each batch × channel plane of a rank-4 NCHW tensor, or the one
/// plane of a rank-2 `[rows, cols]` tensor.
pub type Window = ((usize, usize), (usize, usize));

/// The planes a [`Window`] indexes: `(planes, rows, cols)` of a rank-4 NCHW
/// tensor (`n·c` planes of `h × w`) or of a rank-2 `[rows, cols]` tensor
/// (one plane). `None` for every other rank, which has no windows.
pub(crate) fn plane_dims(shape: &[usize]) -> Option<(usize, usize, usize)> {
    match *shape {
        [n, c, h, w] => Some((n * c, h, w)),
        [rows, cols] => Some((1, rows, cols)),
        _ => None,
    }
}

/// The bounding box of the dirty windows (`None` entries are clean inputs),
/// or `None` when every input is clean — the [`Layer::region_map`] input
/// rule of layers whose inputs all map to the output alike.
pub(crate) fn union_windows(dirty: &[Option<Window>]) -> Option<Window> {
    dirty.iter().flatten().fold(None, |acc, &(h, w)| {
        Some(match acc {
            None => (h, w),
            Some((ah, aw)) => (
                (ah.0.min(h.0), ah.1.max(h.1)),
                (aw.0.min(w.0), aw.1.max(w.1)),
            ),
        })
    })
}

/// [`Layer::region_map`] of a pointwise layer: the union of the input
/// windows, when the inputs have planes at all.
pub(crate) fn pointwise_region(
    input_shapes: &[&[usize]],
    dirty: &[Option<Window>],
) -> Option<Window> {
    plane_dims(input_shapes.first()?)?;
    union_windows(dirty)
}

/// [`Layer::region_map`] of a row-wise layer on `[rows, cols]` tensors
/// (softmax, layer norm): each output row depends on every column of its
/// input row, so the dirty rows widen to every column.
pub(crate) fn row_wise_region(
    input_shapes: &[&[usize]],
    dirty: &[Option<Window>],
) -> Option<Window> {
    match **input_shapes.first()? {
        [_, cols] => Some((union_windows(dirty)?.0, (0, cols))),
        _ => None,
    }
}

/// The windowed forward of a row-wise layer (softmax, layer norm) on
/// `[rows, cols]` tensors: copies input rows `h` (clamped) into `out` and
/// applies the layer's per-row routine `f` to each, as `forward` does to
/// every row. Only a window spanning every column can be recomputed this
/// way; returns `false` without writing otherwise, or when the shapes
/// disagree.
pub(crate) fn recompute_rows(
    x: &Tensor,
    h: (usize, usize),
    w: (usize, usize),
    out: &mut Tensor,
    f: impl FnMut(&mut [f32]),
) -> bool {
    let [rows, cols] = *x.shape() else {
        return false;
    };
    if cols == 0 || w.0 != 0 || w.1 < cols || out.shape() != x.shape() {
        return false;
    }
    let (h0, h1) = (h.0.min(rows), h.1.min(rows));
    if h0 < h1 {
        let span = h0 * cols..h1 * cols;
        let dst = &mut out.data_mut()[span.clone()];
        dst.copy_from_slice(&x.data()[span]);
        dst.chunks_exact_mut(cols).for_each(f);
    }
    true
}

/// Calls `f(start, end)` with the flat index range of each row segment in
/// the window `h × w` of every plane of a rank-4 or rank-2 tensor (see
/// [`plane_dims`]). Ranges are clamped to the shape; an empty window calls
/// `f` zero times.
pub(crate) fn for_each_window_row(
    shape: &[usize],
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
    mut f: impl FnMut(usize, usize),
) {
    let Some((planes, hh, ww)) = plane_dims(shape) else {
        debug_assert!(false, "no windows on shape {shape:?}");
        return;
    };
    let (h0, h1) = (h0.min(hh), h1.min(hh));
    let (w0, w1) = (w0.min(ww), w1.min(ww));
    if h0 >= h1 || w0 >= w1 {
        return;
    }
    for plane in 0..planes {
        let base = plane * hh * ww;
        for r in h0..h1 {
            let row = base + r * ww;
            f(row + w0, row + w1);
        }
    }
}

pub(crate) fn check_arity(layer: &str, expected: usize, actual: usize) -> Result<(), DnnError> {
    if expected != actual {
        return Err(DnnError::ArityMismatch {
            layer: layer.to_owned(),
            expected,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_kinds() {
        assert!(LayerKind::Conv.is_mac());
        assert!(LayerKind::Dense.is_mac());
        assert!(LayerKind::MatMul.is_mac());
        assert!(!LayerKind::Pool.is_mac());
        assert!(!LayerKind::Bias.is_mac());
    }
}

//! Geometry of multiply-accumulate layers (Conv / FC / MatMul).
//!
//! Fault injection needs three questions answered about a MAC layer
//! (Accelerator Properties 2–3 of the paper):
//!
//! 1. which output neurons consume a given input or weight value,
//! 2. in what value does an output neuron result when one operand element is
//!    substituted with a faulty value, and
//! 3. what is the canonical computation order of output neurons.
//!
//! [`MacSpec`] answers all three with the exact accumulation order also used
//! by the register-level simulator (`fidelity-rtl`), which is what makes
//! software fault models bit-exact against the golden reference.

use crate::error::DnnError;
use crate::tensor::Tensor;

/// Numeric tier of the packed MAC kernels.
///
/// `Bitwise` is the default and the only tier the fault models may run
/// under implicitly: every kernel is byte-for-byte identical to the scalar
/// [`MacSpec::compute_at`] oracle (terms per output neuron in ascending
/// kernel-step order, padding steps genuinely skipped). Its lane kernels
/// vectorize *across* independent output neurons, which cannot change any
/// neuron's accumulation order.
///
/// `Fast` is opt-in and may split the contraction of one neuron into four
/// lanes combined by a fixed tree reduction — faster, but a different (still
/// deterministic) rounding order. Its divergence from `Bitwise` is itself a
/// measured, reported quantity ([`MacSpec::fast_divergence`]), never an
/// estimate.
///
/// One caveat applies to both tiers: *which* outputs are NaN is fully
/// deterministic, but a NaN's payload bits are the single part of IEEE-754
/// arithmetic the compiler may legally vary between code locations (float
/// add/mul commute in LLVM, and x86 NaN propagation picks the surviving
/// payload by operand order). Differential comparisons must therefore treat
/// all NaNs as equal; every campaign statistic (outcomes, masking bits,
/// checkpoint bytes) is already NaN-payload-insensitive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MacTier {
    /// Byte-identical to the scalar `compute_at` oracle. Default.
    #[default]
    Bitwise,
    /// 4-lane tree-reduced contraction for dense/matmul-transposed dots.
    /// Opt-in; divergence vs. `Bitwise` is measured exactly and reported.
    Fast,
}

impl MacTier {
    /// Canonical lowercase name (CLI / JSON / fingerprint form).
    pub fn as_str(&self) -> &'static str {
        match self {
            MacTier::Bitwise => "bitwise",
            MacTier::Fast => "fast",
        }
    }

    /// Parses the canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<MacTier> {
        match s {
            "bitwise" => Some(MacTier::Bitwise),
            "fast" => Some(MacTier::Fast),
            _ => None,
        }
    }
}

/// Which operand of a MAC layer a substitution applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// The activation operand (first input).
    Input,
    /// The weight / second operand.
    Weight,
}

/// A single-element override of one MAC operand: "element `offset` of the
/// `kind` operand has value `value` instead of its stored value".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Substitution {
    /// Operand the faulty value lives in.
    pub kind: OperandKind,
    /// Flat offset of the element within that operand tensor.
    pub offset: usize,
    /// The faulty value.
    pub value: f32,
}

/// A validated transient accumulator bit flip: IEEE-754 f32 bit `bit` of
/// the running accumulator is flipped just before the term of kernel step
/// `flip_before_step` is accumulated (a step count of `kernel_steps()` or
/// more flips after the final term).
///
/// Construction rejects out-of-range bit indices, so downstream code never
/// has to clamp silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccFlip {
    flip_before_step: usize,
    bit: u32,
}

impl AccFlip {
    /// Validates and builds an accumulator flip.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when `bit` is not a valid f32 bit
    /// index (`0..=31`). The flip step needs no validation: any value at or
    /// past `kernel_steps()` means "flip after the final term".
    pub fn new(flip_before_step: usize, bit: u32) -> Result<AccFlip, DnnError> {
        if bit >= 32 {
            return Err(DnnError::InvalidConfig {
                message: format!("accumulator flip bit {bit} out of range for f32 (0..=31)"),
            });
        }
        Ok(AccFlip {
            flip_before_step,
            bit,
        })
    }

    /// Kernel step before which the flip is applied.
    pub fn flip_before_step(&self) -> usize {
        self.flip_before_step
    }

    /// The flipped f32 bit index (`0..=31`).
    pub fn bit(&self) -> u32 {
        self.bit
    }
}

/// The two operand tensors of a MAC layer.
#[derive(Clone, Copy, Debug)]
pub struct Operands<'a> {
    /// Activation operand.
    pub input: &'a Tensor,
    /// Weight operand (for MatMul, the second activation).
    pub weight: &'a Tensor,
}

impl<'a> Operands<'a> {
    fn fetch(&self, kind: OperandKind, offset: usize, subst: Option<&Substitution>) -> f32 {
        if let Some(s) = subst {
            if s.kind == kind && s.offset == offset {
                return s.value;
            }
        }
        match kind {
            OperandKind::Input => self.input.data()[offset],
            OperandKind::Weight => self.weight.data()[offset],
        }
    }
}

/// Geometry of a 2-D convolution (NCHW input, OIHW weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// (vertical, horizontal) stride.
    pub stride: (usize, usize),
    /// (vertical, horizontal) zero padding.
    pub padding: (usize, usize),
    /// (vertical, horizontal) dilation.
    pub dilation: (usize, usize),
    /// Channel groups (`in_c` for depthwise).
    pub groups: usize,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> usize {
        conv_out_dim(
            self.in_h,
            self.kh,
            self.stride.0,
            self.padding.0,
            self.dilation.0,
        )
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        conv_out_dim(
            self.in_w,
            self.kw,
            self.stride.1,
            self.padding.1,
            self.dilation.1,
        )
    }

    /// Input channels per group.
    pub fn group_in_c(&self) -> usize {
        self.in_c / self.groups
    }

    /// Output channels per group.
    pub fn group_out_c(&self) -> usize {
        self.out_c / self.groups
    }
}

/// The output rows (or columns) of a conv/pool dimension whose receptive
/// field intersects the input rows `[lo, hi)` — the forward image of an
/// input window, used by the delta resume path to narrow recomputation.
/// Exact for the geometry (every returned output can touch the window, and
/// no output outside the range can).
pub fn conv_out_window(
    (lo, hi): (usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
    out_dim: usize,
) -> (usize, usize) {
    if lo >= hi || out_dim == 0 {
        return (0, 0);
    }
    // Output `o` reads input rows `o·stride − pad ..= o·stride − pad + reach`.
    let reach = dilation * (k - 1);
    let out_lo = if lo + pad > reach {
        (lo + pad - reach).div_ceil(stride)
    } else {
        0
    };
    let out_hi = ((hi - 1 + pad) / stride + 1).min(out_dim);
    (out_lo.min(out_hi), out_hi)
}

/// Output spatial size of a convolution/pooling dimension.
pub fn conv_out_dim(inp: usize, k: usize, stride: usize, pad: usize, dilation: usize) -> usize {
    let eff_k = dilation * (k - 1) + 1;
    let padded = inp + 2 * pad;
    if padded < eff_k {
        0
    } else {
        (padded - eff_k) / stride + 1
    }
}

/// Geometry of a fully-connected layer (`[batch, in] × [out, in]ᵀ`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseSpec {
    /// Batch size.
    pub batch: usize,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

/// Geometry of a (optionally batched) matrix multiplication `A·B`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatMulSpec {
    /// Leading batch dimension (1 for plain 2-D matmul).
    pub batch: usize,
    /// Rows of `A` / the output.
    pub m: usize,
    /// Contraction length.
    pub k: usize,
    /// Columns of `B` / the output.
    pub n: usize,
    /// When true, `B` is stored `[n, k]` and used transposed.
    pub transpose_b: bool,
}

/// Geometry of one of the three MAC layer families of Table II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MacSpec {
    /// Convolution.
    Conv(ConvSpec),
    /// Fully-connected.
    Dense(DenseSpec),
    /// Matrix multiplication.
    MatMul(MatMulSpec),
}

impl MacSpec {
    /// Shape of the output tensor.
    pub fn out_shape(&self) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => vec![c.batch, c.out_c, c.out_h(), c.out_w()],
            MacSpec::Dense(d) => vec![d.batch, d.out_features],
            MacSpec::MatMul(m) => {
                if m.batch == 1 {
                    vec![m.m, m.n]
                } else {
                    vec![m.batch, m.m, m.n]
                }
            }
        }
    }

    /// Total number of output neurons.
    pub fn out_len(&self) -> usize {
        self.out_shape().iter().product()
    }

    /// Number of multiply-accumulate operations performed by the layer.
    pub fn macs(&self) -> u64 {
        match self {
            MacSpec::Conv(c) => {
                (c.batch * c.out_c * c.out_h() * c.out_w() * c.group_in_c() * c.kh * c.kw) as u64
            }
            MacSpec::Dense(d) => (d.batch * d.out_features * d.in_features) as u64,
            MacSpec::MatMul(m) => (m.batch * m.m * m.n * m.k) as u64,
        }
    }

    /// Number of output "positions": batch·oh·ow for conv, batch for dense,
    /// batch·rows for matmul. Together with [`MacSpec::channel_count`] this
    /// is the position/channel coordinate system accelerator dataflows
    /// schedule over (positions stream temporally, channels map to parallel
    /// MAC lanes).
    pub fn position_count(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.batch * c.out_h() * c.out_w(),
            MacSpec::Dense(d) => d.batch,
            MacSpec::MatMul(m) => m.batch * m.m,
        }
    }

    /// Number of output "channels": out_c for conv, features for dense,
    /// columns for matmul.
    pub fn channel_count(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.out_c,
            MacSpec::Dense(d) => d.out_features,
            MacSpec::MatMul(m) => m.n,
        }
    }

    /// Flat output offset of the neuron at (position, channel).
    pub fn offset_of(&self, position: usize, channel: usize) -> usize {
        match self {
            MacSpec::Conv(c) => {
                let hw = c.out_h() * c.out_w();
                let b = position / hw;
                let pos = position % hw;
                (b * c.out_c + channel) * hw + pos
            }
            MacSpec::Dense(d) => position * d.out_features + channel,
            MacSpec::MatMul(m) => position * m.n + channel,
        }
    }

    /// Inverse of [`MacSpec::offset_of`].
    pub fn coords_of(&self, out_offset: usize) -> (usize, usize) {
        match self {
            MacSpec::Conv(c) => {
                let hw = c.out_h() * c.out_w();
                let b = out_offset / (c.out_c * hw);
                let rem = out_offset % (c.out_c * hw);
                let channel = rem / hw;
                (b * hw + rem % hw, channel)
            }
            MacSpec::Dense(d) => (out_offset / d.out_features, out_offset % d.out_features),
            MacSpec::MatMul(m) => (out_offset / m.n, out_offset % m.n),
        }
    }

    /// Number of kernel/contraction steps per output neuron (including
    /// padding-gated steps for conv).
    pub fn kernel_steps(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.group_in_c() * c.kh * c.kw,
            MacSpec::Dense(d) => d.in_features,
            MacSpec::MatMul(m) => m.k,
        }
    }

    /// Computes one output neuron with a transient accumulator bit flip
    /// ([`AccFlip`]) applied just before the term of its kernel step is
    /// accumulated.
    ///
    /// Accumulation order is identical to [`MacSpec::compute_at`] and to the
    /// register-level simulator, so the result is bit-exact against a
    /// hardware accumulator flip.
    pub fn compute_at_acc_flip(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        flip: AccFlip,
    ) -> f32 {
        self.accumulate(operands, out_offset, None, Some(flip))
    }

    /// The one definition of the per-neuron accumulation loop. Every other
    /// evaluator — [`MacSpec::compute_at`], [`MacSpec::compute_at_acc_flip`],
    /// and (by bit-equality tests) the packed [`MacSpec::forward_into`]
    /// kernels — reduces to this term order: gated (padding) steps are
    /// genuinely skipped, never accumulated as `+0.0`, and terms are added
    /// in ascending kernel-step order.
    fn accumulate(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        subst: Option<&Substitution>,
        flip: Option<AccFlip>,
    ) -> f32 {
        let mut acc = 0.0f32;
        let mut flipped = false;
        let total = self.kernel_steps();
        for step in 0..total {
            if let Some(f) = flip {
                if step == f.flip_before_step {
                    acc = f32::from_bits(acc.to_bits() ^ (1 << f.bit));
                    flipped = true;
                }
            }
            if let Some((in_off, w_off)) = self.term_offsets(out_offset, step) {
                let x = operands.fetch(OperandKind::Input, in_off, subst);
                let w = operands.fetch(OperandKind::Weight, w_off, subst);
                acc += x * w;
            }
        }
        if let Some(f) = flip {
            if !flipped {
                acc = f32::from_bits(acc.to_bits() ^ (1 << f.bit));
            }
        }
        acc
    }

    /// The (input, weight) flat offsets of kernel step `step` of the given
    /// output neuron, or `None` when the step is gated (conv padding).
    pub fn term_offsets(&self, out_offset: usize, step: usize) -> Option<(usize, usize)> {
        match self {
            MacSpec::Conv(c) => conv_term_offsets(c, out_offset, step),
            MacSpec::Dense(d) => {
                let b = out_offset / d.out_features;
                let o = out_offset % d.out_features;
                Some((b * d.in_features + step, o * d.in_features + step))
            }
            MacSpec::MatMul(m) => {
                let per_batch = m.m * m.n;
                let g = out_offset / per_batch;
                let rem = out_offset % per_batch;
                let r = rem / m.n;
                let cc = rem % m.n;
                let a_off = (g * m.m + r) * m.k + step;
                let b_off = if m.transpose_b {
                    (g * m.n + cc) * m.k + step
                } else {
                    (g * m.k + step) * m.n + cc
                };
                Some((a_off, b_off))
            }
        }
    }

    /// Computes the whole output tensor into `out` (flat row-major) with a
    /// temporary [`KernelScratch`]. Hot paths should prefer
    /// [`MacSpec::forward_into_scratch`] with a reused scratch so the panel
    /// and accumulator buffers are not reallocated per call.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.out_len()`.
    pub fn forward_into(&self, operands: &Operands<'_>, out: &mut [f32]) {
        let mut scratch = KernelScratch::default();
        self.forward_into_scratch(operands, out, &mut scratch);
    }

    /// Computes the whole output tensor into `out` (flat row-major) using
    /// packed kernels: padding-valid `kh`/`ow` ranges are hoisted out of the
    /// inner loops, conv input rows are packed once per (batch, group,
    /// output row) into an im2col-style panel reused across the group's
    /// output channels, and the inner loops run over contiguous slices with
    /// no bounds checks.
    ///
    /// The accumulation order per neuron is byte-for-byte identical to
    /// [`MacSpec::compute_at`] — gated padding terms are skipped outright
    /// (never accumulated as `+0.0`, which would perturb signed zeros and
    /// non-finite values) and terms are added in ascending kernel-step order
    /// — so layer forwards and per-neuron fault recomputation never diverge.
    /// Tests assert bit-equality per neuron.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.out_len()`.
    pub fn forward_into_scratch(
        &self,
        operands: &Operands<'_>,
        out: &mut [f32],
        scratch: &mut KernelScratch,
    ) {
        assert_eq!(out.len(), self.out_len(), "output buffer size mismatch");
        let x = operands.input.data();
        let w = operands.weight.data();
        match self {
            MacSpec::Conv(c) => conv_forward_packed(c, x, w, out, scratch),
            MacSpec::Dense(d) => {
                for b in 0..d.batch {
                    let x_row = &x[b * d.in_features..(b + 1) * d.in_features];
                    let out_row = &mut out[b * d.out_features..(b + 1) * d.out_features];
                    dot_rows_bitwise(x_row, w, d.in_features, out_row, (0, d.out_features));
                }
            }
            MacSpec::MatMul(m) => {
                if m.transpose_b {
                    for g in 0..m.batch {
                        let b_mat = &w[g * m.n * m.k..][..m.n * m.k];
                        for r in 0..m.m {
                            let a_row = &x[(g * m.m + r) * m.k..][..m.k];
                            let out_row = &mut out[(g * m.m + r) * m.n..][..m.n];
                            dot_rows_bitwise(a_row, b_mat, m.k, out_row, (0, m.n));
                        }
                    }
                } else {
                    // B is walked row-contiguously by interchanging the
                    // loops: a row of accumulators (one per output column)
                    // receives the `kk`-th term of every column before the
                    // next `kk` — per neuron this is still ascending
                    // contraction order, identical to `compute_at`.
                    scratch.acc.clear();
                    scratch.acc.resize(m.n, 0.0);
                    let acc = &mut scratch.acc[..m.n];
                    for g in 0..m.batch {
                        let b_mat = &w[g * m.k * m.n..][..m.k * m.n];
                        for r in 0..m.m {
                            let a_row = &x[(g * m.m + r) * m.k..][..m.k];
                            acc.fill(0.0);
                            for (kk, av) in a_row.iter().enumerate() {
                                let b_row = &b_mat[kk * m.n..][..m.n];
                                axpy_lanes(acc, b_row, *av);
                            }
                            out[(g * m.m + r) * m.n..][..m.n].copy_from_slice(acc);
                        }
                    }
                }
            }
        }
    }

    /// Tier-dispatching variant of [`MacSpec::forward_into_scratch`].
    ///
    /// `MacTier::Bitwise` is exactly `forward_into_scratch`. `MacTier::Fast`
    /// replaces the dense / transposed-matmul dot products with a 4-lane
    /// tree-reduced contraction ([`dot_fast`]); conv and non-transposed
    /// matmul kernels are already vectorized across independent outputs and
    /// keep their bitwise accumulation order, so their `Fast` divergence is
    /// exactly zero by construction.
    pub fn forward_tier_into_scratch(
        &self,
        operands: &Operands<'_>,
        out: &mut [f32],
        scratch: &mut KernelScratch,
        tier: MacTier,
    ) {
        if tier == MacTier::Bitwise {
            self.forward_into_scratch(operands, out, scratch);
            return;
        }
        assert_eq!(out.len(), self.out_len(), "output buffer size mismatch");
        let x = operands.input.data();
        let w = operands.weight.data();
        match self {
            MacSpec::Dense(d) => {
                for b in 0..d.batch {
                    let x_row = &x[b * d.in_features..(b + 1) * d.in_features];
                    let out_row = &mut out[b * d.out_features..(b + 1) * d.out_features];
                    for (o, out_v) in out_row.iter_mut().enumerate() {
                        *out_v = dot_fast(x_row, &w[o * d.in_features..][..d.in_features]);
                    }
                }
            }
            MacSpec::MatMul(m) if m.transpose_b => {
                for g in 0..m.batch {
                    for r in 0..m.m {
                        let a_row = &x[(g * m.m + r) * m.k..][..m.k];
                        let out_row = &mut out[(g * m.m + r) * m.n..][..m.n];
                        for (cc, out_v) in out_row.iter_mut().enumerate() {
                            *out_v = dot_fast(a_row, &w[(g * m.n + cc) * m.k..][..m.k]);
                        }
                    }
                }
            }
            _ => self.forward_into_scratch(operands, out, scratch),
        }
    }

    /// Computes only the output elements in the window `h = [h0, h1)` ×
    /// `w = [w0, w1)` (clamped to the output), leaving every other element
    /// of `out` untouched. For a conv the window is spatial, over all
    /// batches and channels; for a dense layer or an unbatched matmul it is
    /// rows × columns of the `[rows, cols]` output. Returns `false` —
    /// without writing anything — for a batched (rank-3) matmul, which has
    /// no window; callers then fall back to a full forward.
    ///
    /// Within the window the values are byte-identical to
    /// [`MacSpec::forward_into_scratch`]: the same kernels with the same
    /// per-neuron ascending-step accumulation order, restricted to a
    /// sub-range of output rows and columns. Dense and transposed-matmul
    /// columns run in the forward pass's own 8-wide lane groups, and a
    /// non-transposed matmul row accumulates every column before the window
    /// is copied out, so each neuron is computed by the same code as in the
    /// full pass.
    pub fn forward_region_into_scratch(
        &self,
        operands: &Operands<'_>,
        out: &mut [f32],
        scratch: &mut KernelScratch,
        h: (usize, usize),
        w_win: (usize, usize),
    ) -> bool {
        assert_eq!(out.len(), self.out_len(), "output buffer size mismatch");
        let x = operands.input.data();
        let w = operands.weight.data();
        match self {
            MacSpec::Conv(c) => conv_forward_window(c, x, w, out, scratch, h, w_win),
            MacSpec::Dense(d) => {
                let (k, n) = (d.in_features, d.out_features);
                for r in h.0..h.1.min(d.batch) {
                    dot_rows_bitwise(&x[r * k..][..k], w, k, &mut out[r * n..][..n], w_win);
                }
            }
            MacSpec::MatMul(m) if m.batch != 1 => return false,
            MacSpec::MatMul(m) if m.transpose_b => {
                for r in h.0..h.1.min(m.m) {
                    let out_row = &mut out[r * m.n..][..m.n];
                    dot_rows_bitwise(&x[r * m.k..][..m.k], w, m.k, out_row, w_win);
                }
            }
            MacSpec::MatMul(m) => {
                let (c0, c1) = (w_win.0.min(m.n), w_win.1.min(m.n));
                if c0 >= c1 {
                    return true;
                }
                scratch.acc.clear();
                scratch.acc.resize(m.n, 0.0);
                let acc = &mut scratch.acc[..m.n];
                for r in h.0..h.1.min(m.m) {
                    acc.fill(0.0);
                    for (kk, av) in x[r * m.k..][..m.k].iter().enumerate() {
                        axpy_lanes(acc, &w[kk * m.n..][..m.n], *av);
                    }
                    out[r * m.n + c0..r * m.n + c1].copy_from_slice(&acc[c0..c1]);
                }
            }
        }
        true
    }

    /// Exact maximum absolute divergence of the `Fast` tier from the
    /// `Bitwise` tier over every output neuron for these operands.
    ///
    /// This is a measurement, not a bound: both tiers are fully evaluated
    /// and compared element-wise. Bit-identical elements (including NaNs
    /// with equal payloads) contribute `0.0`; a NaN mismatch contributes
    /// `+∞` so it can never be mistaken for a small rounding delta.
    pub fn fast_divergence(&self, operands: &Operands<'_>) -> f32 {
        let mut scratch = KernelScratch::default();
        let mut bitwise = vec![0.0f32; self.out_len()];
        let mut fast = vec![0.0f32; self.out_len()];
        self.forward_into_scratch(operands, &mut bitwise, &mut scratch);
        self.forward_tier_into_scratch(operands, &mut fast, &mut scratch, MacTier::Fast);
        let mut max = 0.0f32;
        for (a, b) in bitwise.iter().zip(&fast) {
            if a.to_bits() == b.to_bits() {
                continue;
            }
            let d = (a - b).abs();
            max = max.max(if d.is_nan() { f32::INFINITY } else { d });
        }
        max
    }

    /// Computes the value of one output neuron (identified by flat offset
    /// into the output tensor) from the operands, applying an optional
    /// single-element substitution.
    ///
    /// The accumulation order is fixed (channel-major, then kernel row, then
    /// kernel column for conv; contraction index for dense/matmul) and is
    /// shared with the register-level simulator.
    pub fn compute_at(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        subst: Option<&Substitution>,
    ) -> f32 {
        self.accumulate(operands, out_offset, subst, None)
    }

    /// Computes the output neurons `neurons` (distinct flat offsets, in any
    /// order; runs of consecutive offsets are what the lanes batch) under
    /// the single-element substitution `subst`, writing the value of
    /// `neurons[i]` to `out[i]` — the corrupted-layer evaluator of the
    /// fault models.
    ///
    /// Every value is byte-identical to
    /// `compute_at(operands, neurons[i], Some(subst))`: each neuron's terms
    /// are added in ascending kernel-step order and padding steps are
    /// skipped, never added as `+0.0`. What changes is the overhead around
    /// the terms. Each neuron's coordinates are decoded once, conv steps run
    /// as nested `ic → kh → kw` loops over padding-valid ranges, dense and
    /// matmul steps as contiguous rows, and neurons that share an operand
    /// row advance in independent accumulator lanes. The substitution is a
    /// patched copy of the one affected input row or weight row in
    /// `scratch`, or a per-lane fix-up; the operands are never cloned.
    ///
    /// Which kernel runs follows the shape of the fault models' neuron
    /// sets. Conv input faults reach every output channel at a few
    /// positions, so those neurons are grouped by position and share one
    /// gathered tap list across channel lanes. Conv weight faults reach one
    /// channel at many positions, so consecutive neurons of an output row
    /// accumulate as column lanes. Any neuron set is exact under either.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != neurons.len()` or a neuron is out of range.
    pub fn compute_neurons(
        &self,
        operands: &Operands<'_>,
        subst: &Substitution,
        neurons: &[usize],
        out: &mut [f32],
        scratch: &mut KernelScratch,
    ) {
        assert_eq!(out.len(), neurons.len(), "one output slot per neuron");
        let x = operands.input.data();
        let w = operands.weight.data();
        match self {
            MacSpec::Conv(c) => match subst.kind {
                OperandKind::Input => {
                    conv_neurons_by_position(c, x, w, subst, neurons, out, scratch);
                }
                OperandKind::Weight => conv_neurons_by_row(c, x, w, subst, neurons, out, scratch),
            },
            MacSpec::Dense(d) => {
                let rows = DotNeurons {
                    k: d.in_features,
                    cols: d.out_features,
                    // All batch rows share one weight matrix.
                    w_row: |_, o| o * d.in_features,
                };
                rows.compute(x, w, subst, neurons, out, scratch);
            }
            MacSpec::MatMul(m) if m.transpose_b => {
                let rows = DotNeurons {
                    k: m.k,
                    cols: m.n,
                    w_row: |row, cc| ((row / m.m) * m.n + cc) * m.k,
                };
                rows.compute(x, w, subst, neurons, out, scratch);
            }
            MacSpec::MatMul(m) => matmul_neurons(m, x, w, subst, neurons, out, scratch),
        }
    }

    /// Flat output offsets of every neuron that consumes the weight-operand
    /// element at `weight_offset`, in canonical computation order.
    ///
    /// This realizes the "before on-chip memory" weight rows of Table II:
    /// conv → the whole output channel, FC → one neuron per batch, matmul →
    /// the output column.
    pub fn neurons_using_weight(&self, weight_offset: usize) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => {
                let w_per_oc = c.group_in_c() * c.kh * c.kw;
                let oc = weight_offset / w_per_oc;
                let (oh, ow) = (c.out_h(), c.out_w());
                let mut v = Vec::with_capacity(c.batch * oh * ow);
                for b in 0..c.batch {
                    let base = (b * c.out_c + oc) * oh * ow;
                    v.extend(base..base + oh * ow);
                }
                v
            }
            MacSpec::Dense(d) => {
                let o = weight_offset / d.in_features;
                (0..d.batch).map(|b| b * d.out_features + o).collect()
            }
            MacSpec::MatMul(mm) => {
                // B is [batch, k, n] or [batch, n, k] when transposed.
                let per_batch = mm.k * mm.n;
                let g = weight_offset / per_batch;
                let rem = weight_offset % per_batch;
                let n0 = if mm.transpose_b {
                    rem / mm.k
                } else {
                    rem % mm.n
                };
                let base = g * mm.m * mm.n;
                (0..mm.m).map(|r| base + r * mm.n + n0).collect()
            }
        }
    }

    /// Flat output offsets of every neuron that consumes the input-operand
    /// element at `input_offset`, in canonical computation order.
    pub fn neurons_using_input(&self, input_offset: usize) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => conv_neurons_using_input(c, input_offset),
            MacSpec::Dense(d) => {
                let b = input_offset / d.in_features;
                let base = b * d.out_features;
                (base..base + d.out_features).collect()
            }
            MacSpec::MatMul(mm) => {
                let per_batch = mm.m * mm.k;
                let g = input_offset / per_batch;
                let rem = input_offset % per_batch;
                let m0 = rem / mm.k;
                let base = g * mm.m * mm.n + m0 * mm.n;
                (base..base + mm.n).collect()
            }
        }
    }
}

/// Reusable scratch buffers for the packed [`MacSpec::forward_into_scratch`]
/// kernels: the im2col-style panel, the per-output-row accumulator, and the
/// hoisted per-`kw` valid output-column ranges.
///
/// Contents are transient — every kernel invocation fully re-derives what it
/// reads — so one scratch can be reused across layers and specs of any
/// shape. Reuse only saves the allocations.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Packed input panel: `kernel_steps × out_w` values per (batch, group,
    /// output row). Only padding-valid regions are written and read.
    panel: Vec<f32>,
    /// One accumulator per output column (conv) / output column (matmul).
    acc: Vec<f32>,
    /// Per-`kw` valid `[lo, hi)` output-column ranges.
    ranges: Vec<(usize, usize)>,
    /// Narrow-window tap compaction: gathered input values for one output
    /// position, ascending (ic, kh, kw) over the padding-valid taps.
    tap_x: Vec<f32>,
    /// Kernel-step index (`ic·kh·kw` flat) of each gathered tap, parallel
    /// to `tap_x`.
    tap_step: Vec<usize>,
    /// [`MacSpec::compute_neurons`]: the weight row holding the substituted
    /// element, patched.
    row: Vec<f32>,
    /// [`MacSpec::compute_neurons`]: indices into the neuron list, grouped
    /// by output position (counting sort; `bucket` holds the group starts).
    order: Vec<usize>,
    /// Counting-sort bucket boundaries, one per output position plus one.
    bucket: Vec<usize>,
}

impl KernelScratch {
    /// A scratch with empty buffers; they grow on first use.
    pub fn new() -> Self {
        KernelScratch::default()
    }
}

/// Unroll width of the bitwise lane kernels: eight independent output
/// accumulators advance together, which breaks the floating-point add
/// latency chain without touching any single neuron's accumulation order.
const LANES: usize = 8;

/// `acc[i] += xs[i] * wv` over equal-length slices, eight outputs per
/// unrolled step. Every `acc[i]` is an independent accumulator, so the
/// result is bit-identical to the scalar loop for any chunking.
#[inline]
fn axpy_lanes(acc: &mut [f32], xs: &[f32], wv: f32) {
    let n = acc.len().min(xs.len());
    let main = n - n % LANES;
    let (a_main, a_tail) = acc[..n].split_at_mut(main);
    let (x_main, x_tail) = xs[..n].split_at(main);
    for (a, xv) in a_main
        .chunks_exact_mut(LANES)
        .zip(x_main.chunks_exact(LANES))
    {
        a[0] += xv[0] * wv;
        a[1] += xv[1] * wv;
        a[2] += xv[2] * wv;
        a[3] += xv[3] * wv;
        a[4] += xv[4] * wv;
        a[5] += xv[5] * wv;
        a[6] += xv[6] * wv;
        a[7] += xv[7] * wv;
    }
    for (a, xv) in a_tail.iter_mut().zip(x_tail) {
        *a += xv * wv;
    }
}

/// One dot product per row of `w` (rows of `k = x_row.len()` values at
/// stride `stride`), eight rows advanced in lock-step. Each output's terms
/// are added in ascending contraction order into its own accumulator —
/// bit-identical to eight scalar dots — but the eight independent adds
/// break the fadd latency chain that serializes the scalar loop.
///
/// Only the outputs in the column window `[c0, c1)` are written. The lane
/// groups are always the aligned groups of the whole row, so an output is
/// computed by the same code whatever the window.
#[inline]
fn dot_rows_bitwise(
    x_row: &[f32],
    w: &[f32],
    stride: usize,
    out: &mut [f32],
    (c0, c1): (usize, usize),
) {
    let k = x_row.len();
    let c1 = c1.min(out.len());
    if c0 >= c1 {
        return;
    }
    for o in (c0 - c0 % LANES..c1).step_by(LANES) {
        let l = LANES.min(out.len() - o);
        let rows: [&[f32]; LANES] =
            core::array::from_fn(|j| &w[(o + j.min(l - 1)) * stride..][..k]);
        let acc = dot_lanes(x_row, &rows, l);
        let (lo, hi) = (c0.max(o), c1.min(o + l));
        out[lo..hi].copy_from_slice(&acc[lo - o..hi - o]);
    }
}

/// The dot products of `x` with `rows[..l]`, each summed in ascending index
/// order into its own accumulator. With all [`LANES`] rows live they
/// advance in lock-step (independent adds, so each result is bit-identical
/// to its scalar dot); fewer rows run one after another, and lanes at or
/// past `l` are left at zero.
#[inline]
fn dot_lanes(x: &[f32], rows: &[&[f32]; LANES], l: usize) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    if l == LANES {
        for (i, &xv) in x.iter().enumerate() {
            acc[0] += xv * rows[0][i];
            acc[1] += xv * rows[1][i];
            acc[2] += xv * rows[2][i];
            acc[3] += xv * rows[3][i];
            acc[4] += xv * rows[4][i];
            acc[5] += xv * rows[5][i];
            acc[6] += xv * rows[6][i];
            acc[7] += xv * rows[7][i];
        }
    } else {
        for (a, row) in acc[..l].iter_mut().zip(rows) {
            for (xv, wv) in x.iter().zip(*row) {
                *a += xv * wv;
            }
        }
    }
    acc
}

/// The tap-list form of [`dot_lanes`]: lane `j` sums
/// `tap_x[t] · rows[j][tap_step[t]]` in tap order. Lanes at or past `l`
/// must alias a live row; their accumulators are discarded by the caller.
#[inline]
fn tap_dot_lanes(
    tap_x: &[f32],
    tap_step: &[usize],
    rows: &[&[f32]; LANES],
    l: usize,
) -> [f32; LANES] {
    let mut accs = [0.0f32; LANES];
    if l == LANES {
        for (&xv, &st) in tap_x.iter().zip(tap_step) {
            accs[0] += xv * rows[0][st];
            accs[1] += xv * rows[1][st];
            accs[2] += xv * rows[2][st];
            accs[3] += xv * rows[3][st];
            accs[4] += xv * rows[4][st];
            accs[5] += xv * rows[5][st];
            accs[6] += xv * rows[6][st];
            accs[7] += xv * rows[7][st];
        }
    } else if l == 4 {
        for (&xv, &st) in tap_x.iter().zip(tap_step) {
            accs[0] += xv * rows[0][st];
            accs[1] += xv * rows[1][st];
            accs[2] += xv * rows[2][st];
            accs[3] += xv * rows[3][st];
        }
    } else {
        for (&xv, &st) in tap_x.iter().zip(tap_step) {
            for (a, row) in accs[..l].iter_mut().zip(&rows[..l]) {
                *a += xv * row[st];
            }
        }
    }
    accs
}

/// The kernel taps `[lo, hi)` of one conv dimension whose input coordinate
/// `base + tap·dilation − pad` (with `base = out·stride`) lands in
/// `[0, len)`. The coordinate is monotone in the tap, so the valid taps
/// form one contiguous range.
#[inline]
fn valid_taps(base: usize, pad: usize, dilation: usize, len: usize, k: usize) -> (usize, usize) {
    let lo = if base >= pad {
        0
    } else {
        (pad - base).div_ceil(dilation)
    };
    let hi = if len + pad <= base {
        0
    } else {
        ((len + pad - base - 1) / dilation + 1).min(k)
    };
    (lo.min(hi), hi)
}

/// Fills `ranges` with, per kernel column, the output columns `[lo, hi)`
/// within `[w0, w1)` whose input column `ow·s1 + kw·d1 − p1` lands in
/// `[0, in_w)` — contiguous, by the same monotonicity as [`valid_taps`].
fn column_ranges(c: &ConvSpec, (w0, w1): (usize, usize), ranges: &mut Vec<(usize, usize)>) {
    let (s1, p1, d1) = (c.stride.1, c.padding.1, c.dilation.1);
    let ow_dim = c.out_w();
    ranges.clear();
    for kw_i in 0..c.kw {
        let shift = kw_i * d1;
        let lo = if shift >= p1 {
            0
        } else {
            (p1 - shift).div_ceil(s1)
        };
        let hi = if c.in_w + p1 <= shift {
            0
        } else {
            ((c.in_w + p1 - shift - 1) / s1 + 1).min(ow_dim)
        };
        let (lo, hi) = (lo.max(w0), hi.min(w1));
        ranges.push((lo.min(hi), hi));
    }
}

/// 4-lane tree-reduced dot product — the `Fast` tier contraction. Lane `l`
/// accumulates terms `l, l+4, l+8, …`; the lanes combine as
/// `(l0 + l1) + (l2 + l3)` and any tail terms are then added in ascending
/// order. Deterministic, but a different rounding order than the bitwise
/// oracle — which is exactly what [`MacSpec::fast_divergence`] measures.
#[inline]
fn dot_fast(xs: &[f32], ws: &[f32]) -> f32 {
    let n = xs.len().min(ws.len());
    let main = n - n % 4;
    let (xm, xt) = xs[..n].split_at(main);
    let (wm, wt) = ws[..n].split_at(main);
    let mut l = [0.0f32; 4];
    for (xc, wc) in xm.chunks_exact(4).zip(wm.chunks_exact(4)) {
        l[0] += xc[0] * wc[0];
        l[1] += xc[1] * wc[1];
        l[2] += xc[2] * wc[2];
        l[3] += xc[3] * wc[3];
    }
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for (xv, wv) in xt.iter().zip(wt) {
        acc += xv * wv;
    }
    acc
}

/// Packed conv kernel. See [`MacSpec::forward_into_scratch`] for the
/// bit-identity contract.
fn conv_forward_packed(c: &ConvSpec, x: &[f32], w: &[f32], out: &mut [f32], s: &mut KernelScratch) {
    conv_forward_window(c, x, w, out, s, (0, usize::MAX), (0, usize::MAX));
}

/// Packed conv kernel restricted to the output window `h = [h0, h1)` ×
/// `w = [w0, w1)` (clamped to the output dims; all batches and channels).
/// Elements outside the window are left untouched; elements inside it are
/// byte-identical to the full [`conv_forward_packed`] pass, because the
/// window only narrows the `oh` loop and the hoisted per-`kw` column
/// ranges — each computed neuron still sees the identical term sequence.
fn conv_forward_window(
    c: &ConvSpec,
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    s: &mut KernelScratch,
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
) {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let (h0, h1) = (h0.min(oh_dim), h1.min(oh_dim));
    let (w0, w1) = (w0.min(ow_dim), w1.min(ow_dim));
    if h0 >= h1 || w0 >= w1 {
        return;
    }
    let gic = c.group_in_c();
    let goc = c.group_out_c();
    let (s0, s1) = c.stride;
    let (p0, p1) = c.padding;
    let (d0, d1) = c.dilation;
    let khw = c.kh * c.kw;
    let steps = gic * khw;

    if w1 - w0 < LANES {
        conv_window_narrow(c, x, w, out, s, (h0, h1), (w0, w1));
        return;
    }

    // Valid output columns for each kernel column, hoisted out of every
    // loop below: `iw = ow·s1 + kw·d1 − p1` must land in `[0, in_w)`, and
    // because `iw` is monotone in `ow` the valid set is one contiguous
    // range.
    let KernelScratch {
        panel, acc, ranges, ..
    } = s;
    // Window clamp: columns outside [w0, w1) are neither packed nor
    // accumulated nor written, so they cannot affect window columns.
    column_ranges(c, (w0, w1), ranges);

    acc.clear();
    acc.resize(ow_dim, 0.0);
    let acc = &mut acc[..ow_dim];
    // Packing pays off only when the panel is reused across several output
    // channels; depthwise groups (one output channel each) read the input
    // directly.
    let pack = goc > 1;
    if pack {
        panel.clear();
        panel.resize(steps * ow_dim, 0.0);
    }

    for b in 0..c.batch {
        for group in 0..c.groups {
            let ic_base = group * gic;
            for oh in h0..h1 {
                // Valid kernel rows for this output row, by the same
                // monotonicity argument as the column ranges.
                let row0 = oh * s0;
                let (kh_lo, kh_hi) = valid_taps(row0, p0, d0, c.in_h, c.kh);

                if pack {
                    // Pack every padding-valid (ic, kh, kw) input row
                    // segment once; the panel row for kernel step
                    // (ic, kh, kw) holds the input value each output column
                    // would read.
                    for ic in 0..gic {
                        let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
                        for kh_i in kh_lo..kh_hi {
                            let ih = row0 + kh_i * d0 - p0;
                            let in_row = (in_plane + ih) * c.in_w;
                            for (kw_i, &(lo, hi)) in ranges.iter().enumerate() {
                                if lo >= hi {
                                    continue;
                                }
                                let dst_base = (ic * khw + kh_i * c.kw + kw_i) * ow_dim;
                                let dst = &mut panel[dst_base + lo..dst_base + hi];
                                let src_start = in_row + lo * s1 + kw_i * d1 - p1;
                                if s1 == 1 {
                                    dst.copy_from_slice(&x[src_start..src_start + (hi - lo)]);
                                } else {
                                    for (dv, sv) in
                                        dst.iter_mut().zip(x[src_start..].iter().step_by(s1))
                                    {
                                        *dv = *sv;
                                    }
                                }
                            }
                        }
                    }
                }

                for oc_g in 0..goc {
                    let oc = group * goc + oc_g;
                    let w_base = oc * steps;
                    acc.fill(0.0);
                    for ic in 0..gic {
                        let w_plane = w_base + ic * khw;
                        let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
                        for kh_i in kh_lo..kh_hi {
                            let w_row = w_plane + kh_i * c.kw;
                            let in_row = (in_plane + (row0 + kh_i * d0 - p0)) * c.in_w;
                            for (kw_i, &(lo, hi)) in ranges.iter().enumerate() {
                                if lo >= hi {
                                    continue;
                                }
                                let wv = w[w_row + kw_i];
                                if pack {
                                    let src = (ic * khw + kh_i * c.kw + kw_i) * ow_dim;
                                    axpy_lanes(&mut acc[lo..hi], &panel[src + lo..src + hi], wv);
                                } else {
                                    let src_start = in_row + lo * s1 + kw_i * d1 - p1;
                                    if s1 == 1 {
                                        axpy_lanes(
                                            &mut acc[lo..hi],
                                            &x[src_start..src_start + (hi - lo)],
                                            wv,
                                        );
                                    } else {
                                        for (a, xv) in acc[lo..hi]
                                            .iter_mut()
                                            .zip(x[src_start..].iter().step_by(s1))
                                        {
                                            *a += xv * wv;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let out_base = ((b * c.out_c + oc) * oh_dim + oh) * ow_dim;
                    out[out_base + w0..out_base + w1].copy_from_slice(&acc[w0..w1]);
                }
            }
        }
    }
}

/// Narrow-window conv kernel: when fewer than [`LANES`] output columns are
/// requested, the packed kernel's per-tap `axpy` calls over 1–7-element
/// column segments are almost pure call overhead. Here each output position
/// instead compacts its padding-valid taps once (value + kernel-step index,
/// ascending `(ic, kh, kw)`) and up to [`LANES`] output channels accumulate
/// over that tap list in lock-step — independent accumulators, so every
/// neuron still sums its terms in the canonical ascending-step order and
/// the result is byte-identical to the packed kernel and to
/// [`MacSpec::compute_at`].
fn conv_window_narrow(
    c: &ConvSpec,
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    s: &mut KernelScratch,
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
) {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let gic = c.group_in_c();
    let goc = c.group_out_c();
    let (s0, s1) = c.stride;
    let (p0, p1) = c.padding;
    let (d0, d1) = c.dilation;
    let khw = c.kh * c.kw;
    let steps = gic * khw;
    let KernelScratch {
        tap_x, tap_step, ..
    } = s;

    for b in 0..c.batch {
        for group in 0..c.groups {
            let ic_base = group * gic;
            for oh in h0..h1 {
                let row0 = oh * s0;
                let (kh_lo, kh_hi) = valid_taps(row0, p0, d0, c.in_h, c.kh);

                for ow in w0..w1 {
                    let col0 = ow * s1;
                    tap_x.clear();
                    tap_step.clear();
                    for ic in 0..gic {
                        let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
                        let step_plane = ic * khw;
                        for kh_i in kh_lo..kh_hi {
                            let in_row = (in_plane + (row0 + kh_i * d0 - p0)) * c.in_w;
                            let step_row = step_plane + kh_i * c.kw;
                            for kw_i in 0..c.kw {
                                let iw = col0 + kw_i * d1;
                                if iw < p1 || iw - p1 >= c.in_w {
                                    continue;
                                }
                                tap_x.push(x[in_row + iw - p1]);
                                tap_step.push(step_row + kw_i);
                            }
                        }
                    }

                    let mut oc_g = 0;
                    while oc_g < goc {
                        let l = LANES.min(goc - oc_g);
                        // Unused lanes alias lane 0; their accumulators are
                        // computed and discarded, never written out.
                        let rows: [&[f32]; LANES] = core::array::from_fn(|j| {
                            let oc = group * goc + oc_g + j.min(l - 1);
                            &w[oc * steps..][..steps]
                        });
                        let accs = tap_dot_lanes(tap_x, tap_step, &rows, l);
                        for (j, &a) in accs[..l].iter().enumerate() {
                            let oc = group * goc + oc_g + j;
                            let out_base = ((b * c.out_c + oc) * oh_dim + oh) * ow_dim;
                            out[out_base + ow] = a;
                        }
                        oc_g += l;
                    }
                }
            }
        }
    }
}

/// [`MacSpec::compute_neurons`] for a conv input substitution: neurons are
/// grouped by output position (a stable counting sort, so each group keeps
/// ascending channel order), each (position, conv group) gathers its
/// padding-valid taps once — the substituted input patched in as it is
/// gathered — and up to [`LANES`] output channels accumulate over that tap
/// list in lock-step, exactly as [`conv_window_narrow`] does.
fn conv_neurons_by_position(
    c: &ConvSpec,
    x: &[f32],
    w: &[f32],
    subst: &Substitution,
    neurons: &[usize],
    out: &mut [f32],
    s: &mut KernelScratch,
) {
    debug_assert_eq!(subst.kind, OperandKind::Input);
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let hw = oh_dim * ow_dim;
    let chw = c.out_c * hw;
    let gic = c.group_in_c();
    let goc = c.group_out_c();
    let (s0, s1) = c.stride;
    let (p0, p1) = c.padding;
    let (d0, d1) = c.dilation;
    let khw = c.kh * c.kw;
    let steps = gic * khw;
    let position = |off: usize| off / chw * hw + off % hw;
    let KernelScratch {
        tap_x,
        tap_step,
        order,
        bucket,
        ..
    } = s;

    bucket.clear();
    bucket.resize(c.batch * hw + 1, 0);
    for &off in neurons {
        bucket[position(off) + 1] += 1;
    }
    for p in 1..bucket.len() {
        bucket[p] += bucket[p - 1];
    }
    order.clear();
    order.resize(neurons.len(), 0);
    for (i, &off) in neurons.iter().enumerate() {
        let slot = &mut bucket[position(off)];
        order[*slot] = i;
        *slot += 1;
    }

    let mut start = 0;
    while start < order.len() {
        // One run: same output position and same conv group.
        let first = neurons[order[start]];
        let p = position(first);
        let group = (first % chw) / hw / goc;
        let mut end = start + 1;
        while end < order.len() {
            let off = neurons[order[end]];
            if position(off) != p || (off % chw) / hw / goc != group {
                break;
            }
            end += 1;
        }

        let (b, pos) = (p / hw, p % hw);
        let (row0, col0) = ((pos / ow_dim) * s0, (pos % ow_dim) * s1);
        let (kh_lo, kh_hi) = valid_taps(row0, p0, d0, c.in_h, c.kh);
        let (kw_lo, kw_hi) = valid_taps(col0, p1, d1, c.in_w, c.kw);
        tap_x.clear();
        tap_step.clear();
        for ic in 0..gic {
            let in_plane = (b * c.in_c + group * gic + ic) * c.in_h;
            for kh_i in kh_lo..kh_hi {
                let in_row = (in_plane + row0 + kh_i * d0 - p0) * c.in_w + col0;
                let step_row = ic * khw + kh_i * c.kw;
                for kw_i in kw_lo..kw_hi {
                    let at = in_row + kw_i * d1 - p1;
                    tap_x.push(if at == subst.offset {
                        subst.value
                    } else {
                        x[at]
                    });
                    tap_step.push(step_row + kw_i);
                }
            }
        }

        for lanes in order[start..end].chunks(LANES) {
            let l = lanes.len();
            let rows: [&[f32]; LANES] = core::array::from_fn(|j| {
                let oc = (neurons[lanes[j.min(l - 1)]] % chw) / hw;
                &w[oc * steps..][..steps]
            });
            let accs = tap_dot_lanes(tap_x, tap_step, &rows, l);
            for (&i, &a) in lanes.iter().zip(&accs) {
                out[i] = a;
            }
        }
        start = end;
    }
}

/// [`MacSpec::compute_neurons`] for a conv weight substitution: each run of
/// consecutive neurons along one output row (same batch, channel and `oh`)
/// accumulates as column lanes, the padded kernel rows and per-`kw` valid
/// column ranges hoisted out of the step loops — the loop nest of
/// [`conv_forward_window`], without packing. The substituted weight's
/// output channel reads a patched copy of its weight row.
fn conv_neurons_by_row(
    c: &ConvSpec,
    x: &[f32],
    w: &[f32],
    subst: &Substitution,
    neurons: &[usize],
    out: &mut [f32],
    s: &mut KernelScratch,
) {
    debug_assert_eq!(subst.kind, OperandKind::Weight);
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let gic = c.group_in_c();
    let goc = c.group_out_c();
    let (s0, s1) = c.stride;
    let (p0, p1) = c.padding;
    let (d0, d1) = c.dilation;
    let khw = c.kh * c.kw;
    let steps = gic * khw;
    let KernelScratch {
        acc, ranges, row, ..
    } = s;
    let s_oc = subst.offset / steps;
    let s_row = patched(
        row,
        &w[s_oc * steps..][..steps],
        subst.offset % steps,
        subst.value,
    );

    let mut i = 0;
    while i < neurons.len() {
        let out_row = neurons[i] / ow_dim;
        let mut j = i + 1;
        while j < neurons.len()
            && neurons[j] == neurons[j - 1] + 1
            && neurons[j] / ow_dim == out_row
        {
            j += 1;
        }
        let (ow0, ow1) = (neurons[i] % ow_dim, neurons[i] % ow_dim + (j - i));
        let (oh, oc, b) = (
            out_row % oh_dim,
            (out_row / oh_dim) % c.out_c,
            out_row / (oh_dim * c.out_c),
        );
        let ic_base = oc / goc * gic;
        let w_row: &[f32] = if oc == s_oc {
            s_row
        } else {
            &w[oc * steps..][..steps]
        };
        let row0 = oh * s0;
        let (kh_lo, kh_hi) = valid_taps(row0, p0, d0, c.in_h, c.kh);
        column_ranges(c, (ow0, ow1), ranges);
        acc.clear();
        acc.resize(ow1 - ow0, 0.0);
        for ic in 0..gic {
            let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
            for kh_i in kh_lo..kh_hi {
                let in_row = (in_plane + row0 + kh_i * d0 - p0) * c.in_w;
                let w_at = ic * khw + kh_i * c.kw;
                for (kw_i, &(lo, hi)) in ranges.iter().enumerate() {
                    if lo >= hi {
                        continue;
                    }
                    let wv = w_row[w_at + kw_i];
                    let src = in_row + lo * s1 + kw_i * d1 - p1;
                    let lanes = &mut acc[lo - ow0..hi - ow0];
                    if s1 == 1 {
                        axpy_lanes(lanes, &x[src..src + (hi - lo)], wv);
                    } else {
                        for (a, xv) in lanes.iter_mut().zip(x[src..].iter().step_by(s1)) {
                            *a += xv * wv;
                        }
                    }
                }
            }
        }
        out[i..j].copy_from_slice(acc);
        i = j;
    }
}

/// Copies `src` into `buf` with element `at` replaced by `value` — the one
/// operand row a substitution touches, so the rest of the operand is read
/// in place.
fn patched<'b>(buf: &'b mut Vec<f32>, src: &[f32], at: usize, value: f32) -> &'b [f32] {
    buf.clear();
    buf.extend_from_slice(src);
    buf[at] = value;
    buf
}

/// [`MacSpec::compute_neurons`] for dense and transposed-matmul layers:
/// neuron `(row, col)` (flat `row·cols + col`) is the dot of input row
/// `row` (`k` contiguous values at `row·k`) with the `k` contiguous weight
/// values at `w_row(row, col)`. Neurons of one input row advance as
/// [`dot_lanes`]; a substituted input row or weight row is read from a
/// patched copy.
struct DotNeurons<F> {
    k: usize,
    cols: usize,
    w_row: F,
}

impl<F: Fn(usize, usize) -> usize> DotNeurons<F> {
    fn compute(
        &self,
        x: &[f32],
        w: &[f32],
        subst: &Substitution,
        neurons: &[usize],
        out: &mut [f32],
        s: &mut KernelScratch,
    ) {
        let (k, cols) = (self.k, self.cols);
        let KernelScratch { tap_x, row, .. } = s;
        let s_base = subst.offset - subst.offset % k;
        let w_patched: &[f32] = match subst.kind {
            OperandKind::Weight => {
                patched(row, &w[s_base..][..k], subst.offset - s_base, subst.value)
            }
            OperandKind::Input => &[],
        };
        let mut i = 0;
        while i < neurons.len() {
            let r = neurons[i] / cols;
            let mut j = i + 1;
            while j < neurons.len() && neurons[j] / cols == r {
                j += 1;
            }
            let x_row: &[f32] = if subst.kind == OperandKind::Input && s_base == r * k {
                patched(tap_x, &x[s_base..][..k], subst.offset - s_base, subst.value)
            } else {
                &x[r * k..][..k]
            };
            for (lanes, out_l) in neurons[i..j].chunks(LANES).zip(out[i..j].chunks_mut(LANES)) {
                let l = lanes.len();
                let rows: [&[f32]; LANES] = core::array::from_fn(|t| {
                    let base = (self.w_row)(r, lanes[t.min(l - 1)] % cols);
                    if subst.kind == OperandKind::Weight && base == s_base {
                        w_patched
                    } else {
                        &w[base..][..k]
                    }
                });
                out_l.copy_from_slice(&dot_lanes(x_row, &rows, l)[..l]);
            }
            i = j;
        }
    }
}

/// [`MacSpec::compute_neurons`] for a non-transposed matmul: each run of
/// consecutive columns of one output row accumulates as column lanes over
/// the contiguous rows of `B`, as the forward kernel does. A substituted
/// `A` row is read from a patched copy; a substituted `B` element is one
/// term of one lane, replaced after the lane step that would have read it.
fn matmul_neurons(
    m: &MatMulSpec,
    x: &[f32],
    w: &[f32],
    subst: &Substitution,
    neurons: &[usize],
    out: &mut [f32],
    s: &mut KernelScratch,
) {
    let (k, n) = (m.k, m.n);
    let KernelScratch { acc, tap_x, .. } = s;
    let mut i = 0;
    while i < neurons.len() {
        let r = neurons[i] / n;
        let mut j = i + 1;
        while j < neurons.len() && neurons[j] == neurons[j - 1] + 1 && neurons[j] / n == r {
            j += 1;
        }
        let (c0, c1) = (neurons[i] % n, neurons[i] % n + (j - i));
        let g = r / m.m;
        let a_row: &[f32] = if subst.kind == OperandKind::Input && subst.offset / k == r {
            patched(tap_x, &x[r * k..][..k], subst.offset % k, subst.value)
        } else {
            &x[r * k..][..k]
        };
        // The (contraction step, lane) of a substituted B element inside
        // this run, if any.
        let b_base = g * k * n;
        let fix = match subst.kind {
            OperandKind::Weight if (b_base..b_base + k * n).contains(&subst.offset) => {
                let (kk, cc) = ((subst.offset - b_base) / n, (subst.offset - b_base) % n);
                (c0..c1).contains(&cc).then(|| (kk, cc - c0))
            }
            _ => None,
        };
        acc.clear();
        acc.resize(c1 - c0, 0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &w[b_base + kk * n + c0..][..c1 - c0];
            match fix {
                Some((fk, lane)) if fk == kk => {
                    let before = acc[lane];
                    axpy_lanes(acc, b_row, av);
                    acc[lane] = before + subst.value * av;
                }
                _ => axpy_lanes(acc, b_row, av),
            }
        }
        out[i..j].copy_from_slice(acc);
        i = j;
    }
}

fn conv_term_offsets(c: &ConvSpec, out_offset: usize, step: usize) -> Option<(usize, usize)> {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let hw = oh_dim * ow_dim;
    let b = out_offset / (c.out_c * hw);
    let rem = out_offset % (c.out_c * hw);
    let oc = rem / hw;
    let oh = (rem % hw) / ow_dim;
    let ow = rem % ow_dim;

    let gic = c.group_in_c();
    let group = oc / c.group_out_c();
    let ic_base = group * gic;

    // Step decomposition: channel-major, then kernel row, then kernel column
    // — the same order the register-level simulator sequences.
    let kw_i = step % c.kw;
    let kh_i = (step / c.kw) % c.kh;
    let ic = step / (c.kw * c.kh);
    if ic >= gic {
        return None;
    }

    let ih = (oh * c.stride.0 + kh_i * c.dilation.0) as isize - c.padding.0 as isize;
    if ih < 0 || ih as usize >= c.in_h {
        return None;
    }
    let iw = (ow * c.stride.1 + kw_i * c.dilation.1) as isize - c.padding.1 as isize;
    if iw < 0 || iw as usize >= c.in_w {
        return None;
    }
    let in_off = ((b * c.in_c + ic_base + ic) * c.in_h + ih as usize) * c.in_w + iw as usize;
    let w_off = ((oc * gic + ic) * c.kh + kh_i) * c.kw + kw_i;
    Some((in_off, w_off))
}

fn conv_neurons_using_input(c: &ConvSpec, input_offset: usize) -> Vec<usize> {
    let chw = c.in_c * c.in_h * c.in_w;
    let b = input_offset / chw;
    let rem = input_offset % chw;
    let ic = rem / (c.in_h * c.in_w);
    let ih = (rem % (c.in_h * c.in_w)) / c.in_w;
    let iw = rem % c.in_w;

    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let goc = c.group_out_c();
    let group = ic / c.group_in_c();

    // The receptive-field test is separable: output (oh, ow) reads (ih, iw)
    // exactly when some kernel row lands on `ih` and some kernel column on
    // `iw`. `conv_out_window` bounds each axis to the outputs whose window
    // spans the coordinate; stride and dilation leave gaps inside it, which
    // the per-axis tap test removes.
    let rows = axis_users(ih, c.kh, c.stride.0, c.padding.0, c.dilation.0, oh_dim);
    let cols = axis_users(iw, c.kw, c.stride.1, c.padding.1, c.dilation.1, ow_dim);
    let mut out = Vec::with_capacity(goc * rows.len() * cols.len());
    // Computation order (ascending offsets): channel, then row, then
    // column, over the input channel's group.
    for oc in group * goc..(group + 1) * goc {
        for &oh in &rows {
            let base = ((b * c.out_c + oc) * oh_dim + oh) * ow_dim;
            out.extend(cols.iter().map(|&ow| base + ow));
        }
    }
    out
}

/// The outputs, ascending, of one conv dimension whose kernel taps read
/// input coordinate `i`: output `o` reads `o·stride + tap·dilation − pad`.
fn axis_users(
    i: usize,
    k: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
    out_dim: usize,
) -> Vec<usize> {
    let (lo, hi) = conv_out_window((i, i + 1), k, stride, pad, dilation, out_dim);
    (lo..hi)
        .filter(|&o| {
            let start = o * stride;
            let ip = i + pad;
            ip >= start && (ip - start).is_multiple_of(dilation) && (ip - start) / dilation < k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_conv() -> ConvSpec {
        ConvSpec {
            batch: 1,
            in_c: 2,
            in_h: 4,
            in_w: 4,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        }
    }

    #[test]
    fn conv_out_dims() {
        let c = small_conv();
        assert_eq!(c.out_h(), 4);
        assert_eq!(c.out_w(), 4);
        assert_eq!(conv_out_dim(5, 3, 2, 0, 1), 2);
        assert_eq!(conv_out_dim(2, 3, 1, 0, 1), 0); // kernel larger than input
    }

    #[test]
    fn conv_compute_matches_manual() {
        let c = ConvSpec {
            batch: 1,
            in_c: 1,
            in_h: 3,
            in_w: 3,
            out_c: 1,
            kh: 2,
            kw: 2,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
        };
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let spec = MacSpec::Conv(c);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        // Output (0,0): 1*1 + 5*1 = 6. Output (1,1): 5 + 9 = 14.
        assert_eq!(spec.compute_at(&ops, 0, None), 6.0);
        assert_eq!(spec.compute_at(&ops, 3, None), 14.0);
    }

    #[test]
    fn conv_substitution_changes_only_users() {
        let spec = MacSpec::Conv(small_conv());
        let input = Tensor::full(vec![1, 2, 4, 4], 1.0);
        let weight = Tensor::full(vec![3, 2, 3, 3], 0.5);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        let subst = Substitution {
            kind: OperandKind::Weight,
            offset: 0, // oc=0, ic=0, kh=0, kw=0
            value: 100.0,
        };
        let users = spec.neurons_using_weight(0);
        // Weight 0 belongs to output channel 0: all 16 neurons of channel 0.
        assert_eq!(users.len(), 16);
        for off in 0..spec.out_len() {
            let clean = spec.compute_at(&ops, off, None);
            let faulty = spec.compute_at(&ops, off, Some(&subst));
            if users.contains(&off) {
                // Corner/edge neurons may not touch kernel position (0,0) due
                // to padding, so only assert the non-affected direction below
                // for non-users; users may or may not change.
                if faulty != clean {
                    assert!(faulty > clean);
                }
            } else {
                assert_eq!(clean, faulty, "non-user neuron {off} changed");
            }
        }
    }

    #[test]
    fn conv_neurons_using_input_respects_receptive_field() {
        let c = ConvSpec {
            batch: 1,
            in_c: 1,
            in_h: 4,
            in_w: 4,
            out_c: 2,
            kh: 2,
            kw: 2,
            stride: (2, 2),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
        };
        let spec = MacSpec::Conv(c);
        // Input (0,0,1,1) is used only by output position (0,0) — stride 2,
        // no overlap — in both output channels.
        let off = 4 + 1;
        let users = spec.neurons_using_input(off);
        assert_eq!(users, vec![0, 4]);
    }

    #[test]
    fn depthwise_conv_groups_limit_users() {
        let c = ConvSpec {
            batch: 1,
            in_c: 4,
            in_h: 2,
            in_w: 2,
            out_c: 4,
            kh: 1,
            kw: 1,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 4,
        };
        let spec = MacSpec::Conv(c);
        // Input channel 2 only feeds output channel 2.
        let off = 2 * 4; // (c=2, h=0, w=0)
        let users = spec.neurons_using_input(off);
        assert_eq!(users, vec![2 * 4]);
    }

    #[test]
    fn dense_users() {
        let d = DenseSpec {
            batch: 2,
            in_features: 3,
            out_features: 4,
        };
        let spec = MacSpec::Dense(d);
        // Weight (o=1, i=2) → one neuron per batch.
        assert_eq!(spec.neurons_using_weight(3 + 2), vec![1, 5]);
        // Input (b=1, i=0) → all 4 neurons of batch 1.
        assert_eq!(spec.neurons_using_input(3), vec![4, 5, 6, 7]);
    }

    #[test]
    fn dense_compute() {
        let d = DenseSpec {
            batch: 1,
            in_features: 2,
            out_features: 2,
        };
        let input = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let weight = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let spec = MacSpec::Dense(d);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        assert_eq!(spec.compute_at(&ops, 0, None), 11.0);
        assert_eq!(spec.compute_at(&ops, 1, None), 17.0);
    }

    #[test]
    fn matmul_users_row_and_column() {
        let m = MatMulSpec {
            batch: 1,
            m: 2,
            k: 3,
            n: 4,
            transpose_b: false,
        };
        let spec = MacSpec::MatMul(m);
        // A element (m=1, k=0) → output row 1.
        assert_eq!(spec.neurons_using_input(3), vec![4, 5, 6, 7]);
        // B element (k=0, n=2) → output column 2.
        assert_eq!(spec.neurons_using_weight(2), vec![2, 6]);
    }

    #[test]
    fn matmul_transposed_b() {
        let m = MatMulSpec {
            batch: 1,
            m: 2,
            k: 2,
            n: 2,
            transpose_b: true,
        };
        let spec = MacSpec::MatMul(m.clone());
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap(); // stored [n, k]
        let ops = Operands {
            input: &a,
            weight: &b,
        };
        // out[0][0] = 1*5 + 2*6 = 17; out[0][1] = 1*7 + 2*8 = 23.
        assert_eq!(spec.compute_at(&ops, 0, None), 17.0);
        assert_eq!(spec.compute_at(&ops, 1, None), 23.0);
        // B element (n=1, k=0) at flat offset 2 → output column 1.
        assert_eq!(spec.neurons_using_weight(2), vec![1, 3]);
    }

    #[test]
    fn forward_into_matches_compute_at_bitwise() {
        use crate::init::uniform_tensor;
        // Exercise padding, stride, dilation and groups.
        let specs = vec![
            MacSpec::Conv(small_conv()),
            MacSpec::Conv(ConvSpec {
                batch: 2,
                in_c: 4,
                in_h: 7,
                in_w: 5,
                out_c: 6,
                kh: 3,
                kw: 2,
                stride: (2, 1),
                padding: (1, 0),
                dilation: (1, 2),
                groups: 2,
            }),
            MacSpec::Dense(DenseSpec {
                batch: 3,
                in_features: 11,
                out_features: 5,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 2,
                m: 4,
                k: 6,
                n: 3,
                transpose_b: false,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 1,
                m: 5,
                k: 4,
                n: 7,
                transpose_b: true,
            }),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let (in_shape, w_shape) = match &spec {
                MacSpec::Conv(c) => (
                    vec![c.batch, c.in_c, c.in_h, c.in_w],
                    vec![c.out_c, c.group_in_c(), c.kh, c.kw],
                ),
                MacSpec::Dense(d) => (
                    vec![d.batch, d.in_features],
                    vec![d.out_features, d.in_features],
                ),
                MacSpec::MatMul(m) => {
                    let b = if m.transpose_b {
                        vec![m.batch, m.n, m.k]
                    } else {
                        vec![m.batch, m.k, m.n]
                    };
                    (vec![m.batch, m.m, m.k], b)
                }
            };
            let input = uniform_tensor(i as u64, in_shape, 1.0);
            let weight = uniform_tensor(i as u64 ^ 99, w_shape, 1.0);
            let ops = Operands {
                input: &input,
                weight: &weight,
            };
            let mut fused = vec![0.0f32; spec.out_len()];
            spec.forward_into(&ops, &mut fused);
            for (off, fused_value) in fused.iter().enumerate() {
                let per_neuron = spec.compute_at(&ops, off, None);
                assert_eq!(
                    per_neuron.to_bits(),
                    fused_value.to_bits(),
                    "spec {i}, neuron {off}"
                );
            }
        }
    }

    #[test]
    fn acc_flip_rejects_out_of_range_bit() {
        assert!(AccFlip::new(0, 31).is_ok());
        assert!(AccFlip::new(usize::MAX, 0).is_ok());
        for bad in [32u32, 33, 64, u32::MAX] {
            let err = AccFlip::new(3, bad).expect_err("bit out of range must be rejected");
            assert!(
                matches!(err, DnnError::InvalidConfig { .. }),
                "expected InvalidConfig, got {err:?}"
            );
        }
    }

    #[test]
    fn acc_flip_matches_manual_flip_positions() {
        let spec = MacSpec::Dense(DenseSpec {
            batch: 1,
            in_features: 3,
            out_features: 1,
        });
        let input = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let weight = Tensor::from_vec(vec![1, 3], vec![4.0, 5.0, 6.0]).unwrap();
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        // Flip bit 1 before step 1: acc = 4 → flip → then + 10 + 18.
        let flipped = f32::from_bits(4.0f32.to_bits() ^ 0b10);
        let want = flipped + 10.0 + 18.0;
        let got = spec.compute_at_acc_flip(&ops, 0, AccFlip::new(1, 1).unwrap());
        assert_eq!(got.to_bits(), want.to_bits());
        // Flip past the last step: flip the clean result.
        let clean = spec.compute_at(&ops, 0, None);
        let got = spec.compute_at_acc_flip(&ops, 0, AccFlip::new(99, 7).unwrap());
        assert_eq!(
            got.to_bits(),
            f32::from_bits(clean.to_bits() ^ (1 << 7)).to_bits()
        );
    }

    #[test]
    fn forward_into_scratch_reuse_is_bit_identical() {
        use crate::init::uniform_tensor;
        // One scratch reused across different specs must give the same bits
        // as a fresh scratch per call.
        let specs = [
            MacSpec::Conv(small_conv()),
            MacSpec::Dense(DenseSpec {
                batch: 2,
                in_features: 9,
                out_features: 4,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 2,
                m: 3,
                k: 5,
                n: 4,
                transpose_b: false,
            }),
        ];
        let mut reused = KernelScratch::new();
        for (i, spec) in specs.iter().enumerate() {
            let (in_shape, w_shape) = match spec {
                MacSpec::Conv(c) => (
                    vec![c.batch, c.in_c, c.in_h, c.in_w],
                    vec![c.out_c, c.group_in_c(), c.kh, c.kw],
                ),
                MacSpec::Dense(d) => (
                    vec![d.batch, d.in_features],
                    vec![d.out_features, d.in_features],
                ),
                MacSpec::MatMul(m) => (vec![m.batch, m.m, m.k], vec![m.batch, m.k, m.n]),
            };
            let input = uniform_tensor(7 + i as u64, in_shape, 1.0);
            let weight = uniform_tensor(13 + i as u64, w_shape, 1.0);
            let ops = Operands {
                input: &input,
                weight: &weight,
            };
            let mut fresh = vec![0.0f32; spec.out_len()];
            spec.forward_into(&ops, &mut fresh);
            let mut pooled = vec![0.0f32; spec.out_len()];
            spec.forward_into_scratch(&ops, &mut pooled, &mut reused);
            for (off, (a, b)) in fresh.iter().zip(&pooled).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "spec {i}, neuron {off}");
            }
        }
    }

    #[test]
    fn macs_counts() {
        let spec = MacSpec::Conv(small_conv());
        assert_eq!(spec.macs(), (3 * 4 * 4 * 2 * 3 * 3) as u64);
        let d = MacSpec::Dense(DenseSpec {
            batch: 2,
            in_features: 10,
            out_features: 5,
        });
        assert_eq!(d.macs(), 100);
    }
}

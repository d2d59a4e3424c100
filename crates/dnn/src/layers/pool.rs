//! Spatial pooling layers.

use crate::error::DnnError;
use crate::layers::{check_arity, union_windows, Layer, LayerKind, Window};
use crate::macspec::conv_out_dim;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Pooling reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Mean over the window (padding positions excluded from the count).
    Avg,
}

/// 2-D max/average pooling over NCHW input.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{Layer, Pool2d, PoolKind};
/// use fidelity_dnn::tensor::Tensor;
///
/// let pool = Pool2d::new("p", PoolKind::Max, 2).with_stride(2);
/// let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]).unwrap();
/// assert_eq!(pool.forward_alloc(&[&x]).unwrap().data(), &[5.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Pool2d {
    name: String,
    kind: PoolKind,
    k: usize,
    stride: usize,
    padding: usize,
}

impl Pool2d {
    /// Creates a square pooling window of size `k` with stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(name: impl Into<String>, kind: PoolKind, k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        Pool2d {
            name: name.into(),
            kind,
            k,
            stride: k,
            padding: 0,
        }
    }

    /// Sets the stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// Sets symmetric zero padding.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// One pooled output element from the input `h × w` plane. The reduction
    /// visits the same padding-valid taps in the same ky→kx order as the
    /// packed forward loop, so the value is bit-identical wherever computed.
    fn pool_at(&self, plane: &[f32], h: usize, w: usize, y: usize, xx: usize) -> f32 {
        let (k, s, p) = (self.k, self.stride, self.padding);
        let y0 = y * s;
        let ky_lo = p.saturating_sub(y0);
        let ky_hi = k.min((h + p).saturating_sub(y0));
        let x0 = xx * s;
        let kx_lo = p.saturating_sub(x0);
        let kx_hi = k.min((w + p).saturating_sub(x0));
        if ky_lo >= ky_hi || kx_lo >= kx_hi {
            return 0.0; // window entirely in padding
        }
        let seg = x0 + kx_lo - p..x0 + kx_hi - p;
        match self.kind {
            PoolKind::Max => {
                let mut acc = f32::NEG_INFINITY;
                for ky in ky_lo..ky_hi {
                    let row = &plane[(y0 + ky - p) * w..][..w];
                    for &v in &row[seg.clone()] {
                        acc = acc.max(v);
                    }
                }
                acc
            }
            PoolKind::Avg => {
                let mut acc = 0.0f32;
                for ky in ky_lo..ky_hi {
                    let row = &plane[(y0 + ky - p) * w..][..w];
                    for &v in &row[seg.clone()] {
                        acc += v;
                    }
                }
                acc / ((ky_hi - ky_lo) * (kx_hi - kx_lo)) as f32
            }
        }
    }
}

impl Layer for Pool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pool
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if x.rank() != 4 {
            return Err(DnnError::ShapeMismatch {
                context: "Pool2d::forward",
                expected: "rank-4 NCHW input".into(),
                actual: format!("{:?}", x.shape()),
            });
        }
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = conv_out_dim(h, self.k, self.stride, self.padding, 1);
        let ow = conv_out_dim(w, self.k, self.stride, self.padding, 1);
        // Padding-valid window bounds are clamped inside `pool_at`: the
        // window rows touch `iy = y·s + ky − p ∈ [0, h)`, a contiguous `ky`
        // range (and likewise for columns), so the inner loops walk plain
        // slices. Per output the reduction visits the same values in the
        // same ky→kx order as the naive quadruple loop, so results —
        // including the single-chain Avg accumulation — are bit-identical.
        let xd = x.data();
        let mut out = ws.zeros(&[b, c, oh, ow]);
        let od = out.data_mut();
        for plane_idx in 0..b * c {
            let plane = &xd[plane_idx * h * w..][..h * w];
            let out_plane = &mut od[plane_idx * oh * ow..][..oh * ow];
            for y in 0..oh {
                let out_row = &mut out_plane[y * ow..][..ow];
                for (xx, out_v) in out_row.iter_mut().enumerate() {
                    *out_v = self.pool_at(plane, h, w, y, xx);
                }
            }
        }
        Ok(out)
    }

    fn region_map(&self, input_shapes: &[&[usize]], dirty: &[Option<Window>]) -> Option<Window> {
        use crate::macspec::conv_out_window;
        let s = *input_shapes.first()?;
        if s.len() != 4 {
            return None;
        }
        let (h, w) = union_windows(dirty)?;
        let oh = conv_out_dim(s[2], self.k, self.stride, self.padding, 1);
        let ow = conv_out_dim(s[3], self.k, self.stride, self.padding, 1);
        Some((
            conv_out_window(h, self.k, self.stride, self.padding, 1, oh),
            conv_out_window(w, self.k, self.stride, self.padding, 1, ow),
        ))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        (h0, h1): (usize, usize),
        (w0, w1): (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if x.rank() != 4 || out.rank() != 4 {
            return Ok(false);
        }
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (out.shape()[2], out.shape()[3]);
        let (h0, h1) = (h0.min(oh), h1.min(oh));
        let (w0, w1) = (w0.min(ow), w1.min(ow));
        let xd = x.data();
        let od = out.data_mut();
        for plane_idx in 0..b * c {
            let plane = &xd[plane_idx * h * w..][..h * w];
            let out_plane = &mut od[plane_idx * oh * ow..][..oh * ow];
            for y in h0..h1 {
                for xx in w0..w1 {
                    out_plane[y * ow + xx] = self.pool_at(plane, h, w, y, xx);
                }
            }
        }
        Ok(true)
    }

    fn values_preserved(&self) -> bool {
        // Max selects an input (or emits 0.0 / −inf for degenerate windows,
        // both grid-closed); Avg divides and produces new values.
        self.kind == PoolKind::Max
    }
}

/// Global average pooling: NCHW → `[batch, channels]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    name: String,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool { name: name.into() }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pool
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if x.rank() != 4 {
            return Err(DnnError::ShapeMismatch {
                context: "GlobalAvgPool::forward",
                expected: "rank-4 NCHW input".into(),
                actual: format!("{:?}", x.shape()),
            });
        }
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let hw = (h * w).max(1) as f32;
        let xd = x.data();
        let mut out = ws.zeros(&[b, c]);
        let od = out.data_mut();
        for (plane_idx, out_v) in od.iter_mut().enumerate() {
            // Row-major plane walk: same single-chain accumulation order as
            // the nested y/x loop.
            let mut s = 0.0f32;
            for &v in &xd[plane_idx * h * w..][..h * w] {
                s += v;
            }
            *out_v = s / hw;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2() {
        let p = Pool2d::new("p", PoolKind::Max, 2);
        let x = Tensor::from_vec(vec![1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let y = p.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_excludes_padding() {
        let p = Pool2d::new("p", PoolKind::Avg, 3)
            .with_stride(1)
            .with_padding(1);
        let x = Tensor::full(vec![1, 1, 3, 3], 9.0);
        let y = p.forward_alloc(&[&x]).unwrap();
        // Every window averages only in-bounds values, so all outputs are 9.
        assert!(y.data().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool() {
        let g = GlobalAvgPool::new("g");
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let y = g.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn pool_rejects_non_4d() {
        let p = Pool2d::new("p", PoolKind::Max, 2);
        assert!(p.forward_alloc(&[&Tensor::zeros(vec![4, 4])]).is_err());
    }

    /// The naive quadruple loop the packed forward replaced; kept as the
    /// semantic reference for the differential test below.
    fn pool_reference(pool: &Pool2d, x: &Tensor) -> Tensor {
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = conv_out_dim(h, pool.k, pool.stride, pool.padding, 1);
        let ow = conv_out_dim(w, pool.k, pool.stride, pool.padding, 1);
        let mut out = Tensor::zeros(vec![b, c, oh, ow]);
        for n in 0..b {
            for ch in 0..c {
                for y in 0..oh {
                    for xx in 0..ow {
                        let mut acc = match pool.kind {
                            PoolKind::Max => f32::NEG_INFINITY,
                            PoolKind::Avg => 0.0,
                        };
                        let mut count = 0usize;
                        for ky in 0..pool.k {
                            let iy = (y * pool.stride + ky) as isize - pool.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..pool.k {
                                let ix = (xx * pool.stride + kx) as isize - pool.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let v = x.at4(n, ch, iy as usize, ix as usize);
                                match pool.kind {
                                    PoolKind::Max => acc = acc.max(v),
                                    PoolKind::Avg => acc += v,
                                }
                                count += 1;
                            }
                        }
                        let v = if count == 0 {
                            0.0
                        } else {
                            match pool.kind {
                                PoolKind::Max => acc,
                                PoolKind::Avg => acc / count as f32,
                            }
                        };
                        out.set4(n, ch, y, xx, v);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn packed_pool_matches_naive_reference_bitwise() {
        use crate::init::{uniform_tensor, SplitMix64};
        let mut seed = SplitMix64::new(0x9001_1234_5678);
        let configs = [
            // (k, stride, padding, h, w) — includes windows fully in padding
            // (k=3, p=3 corners), stride > k gaps, and stride 1 overlaps.
            (2, 2, 0, 6, 6),
            (3, 1, 1, 5, 7),
            (3, 2, 1, 7, 7),
            (3, 3, 3, 4, 4),
            (2, 3, 0, 7, 5),
            (4, 2, 2, 8, 8),
            (1, 1, 0, 3, 3),
        ];
        for (i, &(k, s, p, h, w)) in configs.iter().enumerate() {
            let x = uniform_tensor(seed.next_u64(), vec![2, 3, h, w], 4.0);
            for kind in [PoolKind::Max, PoolKind::Avg] {
                let pool = Pool2d::new(format!("p{i}"), kind, k)
                    .with_stride(s)
                    .with_padding(p);
                let fast = pool.forward_alloc(&[&x]).unwrap();
                let naive = pool_reference(&pool, &x);
                assert_eq!(fast.shape(), naive.shape());
                for (a, b) in fast.data().iter().zip(naive.data()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} k={k} s={s} p={p} h={h} w={w}"
                    );
                }
            }
        }
    }
}

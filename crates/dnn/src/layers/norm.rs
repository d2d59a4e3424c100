//! Normalization layers.

use crate::error::DnnError;
use crate::layers::{check_arity, recompute_rows, row_wise_region, Layer, LayerKind, Window};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Per-channel affine transform `y = gamma·x + beta`, i.e. an inference-time
/// (folded) batch normalization.
#[derive(Debug, Clone)]
pub struct ScaleShift {
    name: String,
    gamma: Tensor,
    beta: Tensor,
}

impl ScaleShift {
    /// Creates a folded batch-norm from per-channel `gamma` and `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "scale/shift must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(ScaleShift {
            name: name.into(),
            gamma,
            beta,
        })
    }
}

impl Layer for ScaleShift {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let n = self.gamma.len();
        let mut out = ws.clone_of(x);
        match x.rank() {
            4 => {
                let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
                if c != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "ScaleShift::forward",
                        expected: format!("{n} channels"),
                        actual: format!("{c}"),
                    });
                }
                let hw = h * w;
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    let ch = (off / hw) % c;
                    *v = self.gamma.data()[ch] * *v + self.beta.data()[ch];
                }
            }
            2 => {
                let last = x.shape()[1];
                if last != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "ScaleShift::forward",
                        expected: format!("{n} features"),
                        actual: format!("{last}"),
                    });
                }
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    let fidx = off % last;
                    *v = self.gamma.data()[fidx] * *v + self.beta.data()[fidx];
                }
            }
            r => {
                return Err(DnnError::ShapeMismatch {
                    context: "ScaleShift::forward",
                    expected: "rank 2 or 4 input".into(),
                    actual: format!("rank {r}"),
                })
            }
        }
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        self.gamma.map_inplace(|v| codec.quantize(v));
        self.beta.map_inplace(|v| codec.quantize(v));
    }
}

/// Layer normalization over the last dimension (Transformer blocks).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm with learned per-feature `gamma`/`beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "layernorm params must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(LayerNorm {
            name: name.into(),
            gamma,
            beta,
            eps: 1e-5,
        })
    }

    /// Normalizes one row of `gamma.len()` features in place.
    fn normalize_row(&self, row: &mut [f32]) {
        let last = row.len();
        let mean: f32 = row.iter().sum::<f32>() / last as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let denom = (var + self.eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = self.gamma.data()[i] * ((*v - mean) / denom) + self.beta.data()[i];
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let last = *x.shape().last().unwrap_or(&0);
        if last != self.gamma.len() || last == 0 {
            return Err(DnnError::ShapeMismatch {
                context: "LayerNorm::forward",
                expected: format!("last dim {}", self.gamma.len()),
                actual: format!("{last}"),
            });
        }
        let mut out = ws.clone_of(x);
        for row in out.data_mut().chunks_exact_mut(last) {
            self.normalize_row(row);
        }
        Ok(out)
    }

    fn region_map(&self, input_shapes: &[&[usize]], dirty: &[Option<Window>]) -> Option<Window> {
        row_wise_region(input_shapes, dirty)
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        h: (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if x.shape().last() != Some(&self.gamma.len()) {
            return Ok(false);
        }
        Ok(recompute_rows(x, h, w, out, |row| self.normalize_row(row)))
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        self.gamma.map_inplace(|v| codec.quantize(v));
        self.beta.map_inplace(|v| codec.quantize(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shift_4d() {
        let ss = ScaleShift::new(
            "bn",
            Tensor::from_slice(&[2.0, 0.5]),
            Tensor::from_slice(&[1.0, 0.0]),
        )
        .unwrap();
        let x = Tensor::full(vec![1, 2, 1, 1], 4.0);
        let y = ss.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.at4(0, 0, 0, 0), 9.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
    }

    #[test]
    fn scale_shift_validates() {
        assert!(ScaleShift::new(
            "bn",
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.0, 2.0])
        )
        .is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let d = 8;
        let ln = LayerNorm::new("ln", Tensor::full(vec![d], 1.0), Tensor::zeros(vec![d])).unwrap();
        let x = Tensor::from_vec(vec![1, d], (0..d).map(|v| v as f32).collect()).unwrap();
        let y = ln.forward_alloc(&[&x]).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / d as f32;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d as f32;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_wrong_width() {
        let ln = LayerNorm::new(
            "ln",
            Tensor::from_slice(&[1.0, 1.0]),
            Tensor::from_slice(&[0.0, 0.0]),
        )
        .unwrap();
        assert!(ln.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }
}

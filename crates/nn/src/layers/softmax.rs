use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{cached, Layer, Mode};

/// Row-wise softmax over `[N, classes]` score matrices.
///
/// Numerically stabilised by subtracting each row's maximum before
/// exponentiation. The training losses in [`crate::loss`] fuse softmax
/// with cross-entropy; this standalone layer exists for inference-time
/// probability outputs and for the DMU's probability calibration.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Softmax, Layer, Mode};
/// use mp_tensor::Tensor;
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut sm = Softmax::new();
/// let y = sm.forward(&Tensor::from_vec([1, 2], vec![0.0, 0.0])?, Mode::Infer)?;
/// assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies row-wise softmax to a `[N, classes]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `scores` is not rank-2.
    pub fn eval(scores: &Tensor) -> Result<Tensor, ShapeError> {
        Self::eval_into(scores, Vec::new())
    }

    /// [`Softmax::eval`] written into `out`, which is cleared and
    /// resized, reusing its capacity.
    fn eval_into(scores: &Tensor, mut out: Vec<f32>) -> Result<Tensor, ShapeError> {
        if scores.shape().rank() != 2 {
            return Err(ShapeError::new(
                "Softmax",
                format!("expected [N,classes] input, got {}", scores.shape()),
            ));
        }
        let (n, k) = (scores.shape().dim(0), scores.shape().dim(1));
        out.clear();
        out.resize(n * k, 0.0);
        for row in 0..n {
            let src = &scores.as_slice()[row * k..(row + 1) * k];
            let max = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let dst = &mut out[row * k..(row + 1) * k];
            let mut denom = 0.0f32;
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = (s - max).exp();
                denom += *d;
            }
            for d in dst.iter_mut() {
                *d /= denom;
            }
        }
        Tensor::from_vec(Shape::matrix(n, k), out)
    }
}

impl Layer for Softmax {
    fn name(&self) -> String {
        "softmax".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        if input.rank() != 2 {
            return Err(ShapeError::new(
                "Softmax",
                format!("expected [N,classes] input, got {input}"),
            ));
        }
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let out = Self::eval(input)?;
        if mode.is_train() {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Self::eval_into(input, ws.take(input.len()))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let y = cached(&self.cached_output, "Softmax")?;
        if grad_output.shape() != y.shape() {
            return Err(ShapeError::new(
                "Softmax",
                format!("expected grad {}, got {}", y.shape(), grad_output.shape()),
            ));
        }
        let (n, k) = (y.shape().dim(0), y.shape().dim(1));
        let mut grad_in = Tensor::zeros(y.shape().clone());
        for row in 0..n {
            let yr = &y.as_slice()[row * k..(row + 1) * k];
            let gr = &grad_output.as_slice()[row * k..(row + 1) * k];
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            let dst = &mut grad_in.as_mut_slice()[row * k..(row + 1) * k];
            for ((d, &yv), &gv) in dst.iter_mut().zip(yr).zip(gr) {
                *d = yv * (gv - dot);
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let y = Softmax::eval(&x).unwrap();
        for row in 0..2 {
            let s: f32 = y.as_slice()[row * 3..(row + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn monotone_in_scores() {
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = Softmax::eval(&x).unwrap();
        assert!(y.as_slice()[0] < y.as_slice()[1]);
        assert!(y.as_slice()[1] < y.as_slice()[2]);
    }

    #[test]
    fn stable_under_large_scores() {
        let x = Tensor::from_vec([1, 2], vec![1000.0, 1001.0]).unwrap();
        let y = Softmax::eval(&x).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_check() {
        let mut sm = Softmax::new();
        let x = Tensor::from_vec([1, 3], vec![0.5, -0.2, 0.9]).unwrap();
        sm.forward(&x, Mode::Train).unwrap();
        let w = Tensor::from_vec([1, 3], vec![1.0, 2.0, -1.0]).unwrap();
        let dx = sm.backward(&w).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let f = |t: &Tensor| {
                Softmax::eval(t)
                    .unwrap()
                    .iter()
                    .zip(w.iter())
                    .map(|(&a, &b)| a * b)
                    .sum::<f32>()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_non_matrix() {
        assert!(Softmax::eval(&Tensor::zeros([3])).is_err());
    }
}

use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};

/// Batch normalisation over the channel axis (NCHW) or feature axis (NF).
///
/// This is the layer the binarised network's training path relies on: FINN
/// folds each batch-norm's affine transform into the integer *threshold*
/// of the following sign activation (paper §II), and
/// [`BatchNorm::fold_threshold`] exposes exactly the quantities that
/// folding needs.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::BatchNorm, Layer, Mode};
/// use mp_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut bn = BatchNorm::new(8, 0.9, 1e-5)?;
/// let x = Tensor::zeros(Shape::nchw(4, 8, 2, 2));
/// let y = bn.forward(&x, Mode::Infer)?;
/// assert_eq!(y.shape(), x.shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchNorm {
    features: usize,
    momentum: f32,
    eps: f32,
    gamma: Tensor,
    beta: Tensor,
    gamma_grad: Tensor,
    beta_grad: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    normalised: Tensor,
    inv_std: Vec<f32>,
    input_shape: Shape,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `features` channels.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `features` is zero or `eps` is not
    /// positive.
    pub fn new(features: usize, momentum: f32, eps: f32) -> Result<Self, ShapeError> {
        if features == 0 {
            return Err(ShapeError::new(
                "BatchNorm::new",
                "features must be positive",
            ));
        }
        if eps <= 0.0 {
            return Err(ShapeError::new("BatchNorm::new", "eps must be positive"));
        }
        Ok(Self {
            features,
            momentum,
            eps,
            gamma: Tensor::ones([features]),
            beta: Tensor::zeros([features]),
            gamma_grad: Tensor::zeros([features]),
            beta_grad: Tensor::zeros([features]),
            running_mean: Tensor::zeros([features]),
            running_var: Tensor::ones([features]),
            cache: None,
        })
    }

    /// Number of normalised channels/features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Per-channel scale γ.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// Per-channel shift β.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Running mean used at inference time.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance used at inference time.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Numerical-stability epsilon added to the variance. Exporters
    /// need it to reproduce `σ = sqrt(var + eps)` bit-exactly when
    /// re-deriving thresholds outside this layer.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Folds this layer into per-channel sign-activation thresholds.
    ///
    /// A binarised activation computes `sign(bn(x))`. Since
    /// `bn(x) = γ·(x − μ)/σ + β`, the sign flips at
    /// `x = μ − β·σ/γ`, so a FINN engine can replace the batch-norm +
    /// sign pair with an integer comparison against this threshold
    /// (negated when `γ < 0`). Returns `(threshold, negate)` per channel.
    pub fn fold_threshold(&self) -> Vec<(f32, bool)> {
        (0..self.features)
            .map(|c| {
                let mu = self.running_mean.as_slice()[c];
                let var = self.running_var.as_slice()[c];
                let sigma = (var + self.eps).sqrt();
                let gamma = self.gamma.as_slice()[c];
                let beta = self.beta.as_slice()[c];
                if gamma.abs() < f32::EPSILON {
                    // Degenerate: bn output is constant β; the sign is fixed.
                    (
                        if beta >= 0.0 {
                            f32::NEG_INFINITY
                        } else {
                            f32::INFINITY
                        },
                        false,
                    )
                } else {
                    (mu - beta * sigma / gamma, gamma < 0.0)
                }
            })
            .collect()
    }

    /// Channel geometry: (per-channel group count, elements per group).
    fn geometry(&self, shape: &Shape) -> Result<(usize, usize), ShapeError> {
        match shape.rank() {
            2 if shape.dim(1) == self.features => Ok((shape.dim(0), 1)),
            4 if shape.dim(1) == self.features => Ok((shape.dim(0), shape.dim(2) * shape.dim(3))),
            _ => Err(ShapeError::new(
                "BatchNorm",
                format!(
                    "expected [N,{f}] or [N,{f},H,W] input, got {shape}",
                    f = self.features
                ),
            )),
        }
    }

    fn channel_offsets(shape: &Shape, channel: usize) -> (usize, usize, usize) {
        // Returns (batch stride, channel offset, plane length).
        if shape.rank() == 2 {
            (shape.dim(1), channel, 1)
        } else {
            let plane = shape.dim(2) * shape.dim(3);
            (shape.dim(1) * plane, channel * plane, plane)
        }
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> String {
        format!("batchnorm-{}", self.features)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        self.geometry(input)?;
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let (n, plane) = self.geometry(input.shape())?;
        let count = (n * plane) as f32;
        let shape = input.shape().clone();
        let mut out = Tensor::zeros(shape.clone());
        let mut normalised = Tensor::zeros(shape.clone());
        let mut inv_stds = vec![0.0f32; self.features];
        #[allow(clippy::needless_range_loop)] // c indexes stats and params alike
        for c in 0..self.features {
            let (bstride, coff, p) = Self::channel_offsets(&shape, c);
            let (mean, var) = if mode.is_train() {
                let mut sum = 0.0f32;
                let mut sq = 0.0f32;
                for img in 0..n {
                    let base = img * bstride + coff;
                    for &x in &input.as_slice()[base..base + p] {
                        sum += x;
                        sq += x * x;
                    }
                }
                let mean = sum / count;
                let var = (sq / count - mean * mean).max(0.0);
                // Update running statistics.
                let m = self.momentum;
                self.running_mean.as_mut_slice()[c] =
                    m * self.running_mean.as_slice()[c] + (1.0 - m) * mean;
                self.running_var.as_mut_slice()[c] =
                    m * self.running_var.as_slice()[c] + (1.0 - m) * var;
                (mean, var)
            } else {
                (
                    self.running_mean.as_slice()[c],
                    self.running_var.as_slice()[c],
                )
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[c] = inv_std;
            let gamma = self.gamma.as_slice()[c];
            let beta = self.beta.as_slice()[c];
            for img in 0..n {
                let base = img * bstride + coff;
                for i in base..base + p {
                    let xhat = (input.as_slice()[i] - mean) * inv_std;
                    normalised.as_mut_slice()[i] = xhat;
                    out.as_mut_slice()[i] = gamma * xhat + beta;
                }
            }
        }
        if mode.is_train() {
            self.cache = Some(BnCache {
                normalised,
                inv_std: inv_stds,
                input_shape: shape,
            });
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let (n, _) = self.geometry(input.shape())?;
        let shape = input.shape().clone();
        let mut out = ws.take(input.len());
        out.clear();
        out.resize(input.len(), 0.0);
        #[allow(clippy::needless_range_loop)] // c indexes stats and params alike
        for c in 0..self.features {
            let (bstride, coff, p) = Self::channel_offsets(&shape, c);
            let mean = self.running_mean.as_slice()[c];
            let var = self.running_var.as_slice()[c];
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let gamma = self.gamma.as_slice()[c];
            let beta = self.beta.as_slice()[c];
            for img in 0..n {
                let base = img * bstride + coff;
                for i in base..base + p {
                    let xhat = (input.as_slice()[i] - mean) * inv_std;
                    out[i] = gamma * xhat + beta;
                }
            }
        }
        Tensor::from_vec(shape, out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let cache = self.cache.take().ok_or_else(|| {
            ShapeError::new(
                "BatchNorm",
                "backward called without a preceding training-mode forward",
            )
        })?;
        if grad_output.shape() != &cache.input_shape {
            return Err(ShapeError::new(
                "BatchNorm",
                format!(
                    "expected grad {}, got {}",
                    cache.input_shape,
                    grad_output.shape()
                ),
            ));
        }
        let (n, plane) = self.geometry(&cache.input_shape)?;
        let count = (n * plane) as f32;
        let mut grad_in = Tensor::zeros(cache.input_shape.clone());
        for c in 0..self.features {
            let (bstride, coff, p) = Self::channel_offsets(&cache.input_shape, c);
            let gamma = self.gamma.as_slice()[c];
            let inv_std = cache.inv_std[c];
            // Channel reductions.
            let mut dbeta = 0.0f32;
            let mut dgamma = 0.0f32;
            for img in 0..n {
                let base = img * bstride + coff;
                for i in base..base + p {
                    dbeta += grad_output.as_slice()[i];
                    dgamma += grad_output.as_slice()[i] * cache.normalised.as_slice()[i];
                }
            }
            self.beta_grad.as_mut_slice()[c] += dbeta;
            self.gamma_grad.as_mut_slice()[c] += dgamma;
            // dx = γ·inv_std/count · (count·g − dβ − x̂·dγ)
            for img in 0..n {
                let base = img * bstride + coff;
                for i in base..base + p {
                    let g = grad_output.as_slice()[i];
                    let xhat = cache.normalised.as_slice()[i];
                    grad_in.as_mut_slice()[i] =
                        gamma * inv_std / count * (count * g - dbeta - xhat * dgamma);
                }
            }
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.gamma, &mut self.gamma_grad);
        visitor(&mut self.beta, &mut self.beta_grad);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.gamma);
        visitor(&self.beta);
        // Running statistics feed inference directly; a NaN here
        // poisons outputs just like a NaN weight, so the read-only
        // scan includes them.
        visitor(&self.running_mean);
        visitor(&self.running_var);
    }

    fn zero_grads(&mut self) {
        self.gamma_grad.map_inplace(|_| 0.0);
        self.beta_grad.map_inplace(|_| 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_tensor::init::TensorRng;

    #[test]
    fn training_output_is_normalised() {
        let mut bn = BatchNorm::new(2, 0.9, 1e-5).unwrap();
        let mut rng = TensorRng::seed_from(20);
        let x = rng.normal(Shape::nchw(8, 2, 4, 4), 3.0, 2.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1.
        for c in 0..2 {
            let mut vals = Vec::new();
            for img in 0..8 {
                let base = (img * 2 + c) * 16;
                vals.extend_from_slice(&y.as_slice()[base..base + 16]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm::new(1, 0.0, 1e-5).unwrap(); // momentum 0: running = last batch
        let mut rng = TensorRng::seed_from(21);
        let x = rng.normal(Shape::nchw(16, 1, 2, 2), 5.0, 1.0);
        bn.forward(&x, Mode::Train).unwrap();
        assert!((bn.running_mean().as_slice()[0] - 5.0).abs() < 0.2);
        let y = bn.forward(&x, Mode::Infer).unwrap();
        assert!(y.mean().abs() < 0.1);
    }

    #[test]
    fn rank2_inputs_supported() {
        let mut bn = BatchNorm::new(3, 0.9, 1e-5).unwrap();
        let x = Tensor::from_fn([4, 3], |i| i as f32);
        let y = bn.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape().dims(), &[4, 3]);
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm::new(2, 0.9, 1e-3).unwrap();
        let mut rng = TensorRng::seed_from(22);
        let x = rng.normal([4, 2], 0.0, 1.0);
        // Non-trivial gamma/beta.
        bn.gamma = Tensor::from_vec([2], vec![1.5, -0.5]).unwrap();
        bn.beta = Tensor::from_vec([2], vec![0.2, 0.1]).unwrap();
        bn.forward(&x, Mode::Train).unwrap();
        // Weighted sum so the gradient is not identically zero (a plain sum
        // of a normalised batch has near-zero input gradient).
        let w = Tensor::from_fn([4, 2], |i| (i as f32 * 0.7).sin());
        let dx = bn.backward(&w).unwrap();
        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train).unwrap();
            bn.cache = None;
            y.iter().zip(w.iter()).map(|(&a, &b)| a * b).sum()
        };
        for idx in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (analytic - numeric).abs() < 3e-2 * (1.0 + numeric.abs()),
                "dx[{idx}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn fold_threshold_matches_sign_flip() {
        let mut bn = BatchNorm::new(1, 0.0, 1e-5).unwrap();
        bn.running_mean = Tensor::from_vec([1], vec![2.0]).unwrap();
        bn.running_var = Tensor::from_vec([1], vec![4.0]).unwrap();
        bn.gamma = Tensor::from_vec([1], vec![0.5]).unwrap();
        bn.beta = Tensor::from_vec([1], vec![-1.0]).unwrap();
        let thr = bn.fold_threshold();
        let (t, neg) = thr[0];
        assert!(!neg);
        // bn(x) = 0.5·(x−2)/2 − 1 = 0 → x = 6
        assert!((t - 6.0).abs() < 1e-2, "threshold {t}");
        // Verify the fold: bn(x) ≥ 0 ⟺ x ≥ t.
        for x in [-10.0f32, 0.0, 5.9, 6.1, 20.0] {
            let bn_out = 0.5 * (x - 2.0) / (4.0f32 + 1e-5).sqrt() - 1.0;
            assert_eq!(bn_out >= 0.0, x >= t, "x = {x}");
        }
    }

    #[test]
    fn fold_threshold_negates_for_negative_gamma() {
        let mut bn = BatchNorm::new(1, 0.0, 1e-5).unwrap();
        bn.gamma = Tensor::from_vec([1], vec![-1.0]).unwrap();
        let (_, neg) = bn.fold_threshold()[0];
        assert!(neg);
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut bn = BatchNorm::new(4, 0.9, 1e-5).unwrap();
        assert!(bn.forward(&Tensor::zeros([2, 3]), Mode::Infer).is_err());
        assert!(BatchNorm::new(0, 0.9, 1e-5).is_err());
        assert!(BatchNorm::new(4, 0.9, 0.0).is_err());
    }
}

use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};
use crate::LayerCost;

/// Cross-channel local response normalisation (cuda-convnet style).
///
/// For channel `c` with a window of `size` channels centred on `c`:
///
/// ```text
/// y_c = x_c / (k + α/size · Σ_{j∈window(c)} x_j²)^β
/// ```
///
/// The paper's Model A (Krizhevsky's cuda-convnet CIFAR-10 network)
/// interleaves two LRN layers with its pooling stages.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::LocalResponseNorm, Layer, Mode};
/// use mp_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut lrn = LocalResponseNorm::new(3, 1e-4, 0.75, 1.0)?;
/// let x = Tensor::ones(Shape::nchw(1, 4, 2, 2));
/// let y = lrn.forward(&x, Mode::Infer)?;
/// assert_eq!(y.shape(), x.shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LocalResponseNorm {
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    cache: Option<LrnCache>,
}

#[derive(Debug)]
struct LrnCache {
    input: Tensor,
    /// Per-element normaliser `S = k + α/size · Σ x²` over the channel window.
    scale: Tensor,
}

impl LocalResponseNorm {
    /// Creates an LRN layer with window `size` (number of channels) and
    /// the usual `alpha`, `beta`, `k` hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `size` is zero or even (the window must
    /// centre on a channel).
    pub fn new(size: usize, alpha: f32, beta: f32, k: f32) -> Result<Self, ShapeError> {
        if size == 0 || size.is_multiple_of(2) {
            return Err(ShapeError::new(
                "LocalResponseNorm::new",
                format!("window size {size} must be odd and positive"),
            ));
        }
        Ok(Self {
            size,
            alpha,
            beta,
            k,
            cache: None,
        })
    }

    /// Writes the per-element normaliser `S = k + α/size · Σ x²` of the
    /// NCHW `input` into `scale`, which is cleared and resized.
    fn scale_into(&self, input: &Tensor, scale: &mut Vec<f32>) {
        let shape = input.shape();
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let plane = h * w;
        let half = self.size / 2;
        let coeff = self.alpha / self.size as f32;
        scale.clear();
        scale.resize(input.len(), self.k);
        let xv = input.as_slice();
        for img in 0..n {
            for ch in 0..c {
                let lo = ch.saturating_sub(half);
                let hi = (ch + half).min(c - 1);
                let dst = (img * c + ch) * plane;
                for j in lo..=hi {
                    let src = (img * c + j) * plane;
                    for p in 0..plane {
                        let x = xv[src + p];
                        scale[dst + p] += coeff * x * x;
                    }
                }
            }
        }
    }
}

impl Layer for LocalResponseNorm {
    fn name(&self) -> String {
        format!("LRN(size={})", self.size)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        if input.rank() != 4 {
            return Err(ShapeError::new(
                "LocalResponseNorm",
                format!("expected NCHW input, got {input}"),
            ));
        }
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        self.output_shape(input.shape())?;
        let mut scale = Vec::new();
        self.scale_into(input, &mut scale);
        let scale = Tensor::from_vec(input.shape().clone(), scale)?;
        let beta = self.beta;
        let out = input.zip_with(&scale, |x, s| x * s.powf(-beta))?;
        if mode.is_train() {
            self.cache = Some(LrnCache {
                input: input.clone(),
                scale,
            });
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let shape = self.output_shape(input.shape())?;
        // The normaliser buffer becomes the output in place.
        let mut out = ws.take(input.len());
        self.scale_into(input, &mut out);
        for (s, &x) in out.iter_mut().zip(input.iter()) {
            *s = x * s.powf(-self.beta);
        }
        Tensor::from_vec(shape, out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let cache = self.cache.take().ok_or_else(|| {
            ShapeError::new(
                "LocalResponseNorm",
                "backward called without a preceding training-mode forward",
            )
        })?;
        if grad_output.shape() != cache.input.shape() {
            return Err(ShapeError::new(
                "LocalResponseNorm",
                format!(
                    "expected grad {}, got {}",
                    cache.input.shape(),
                    grad_output.shape()
                ),
            ));
        }
        let shape = cache.input.shape();
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let plane = h * w;
        let half = self.size / 2;
        let coeff = 2.0 * self.alpha * self.beta / self.size as f32;
        let xv = cache.input.as_slice();
        let sv = cache.scale.as_slice();
        let gv = grad_output.as_slice();
        // dx_i = g_i·S_i^{-β} − coeff·x_i·Σ_{c: i∈window(c)} g_c·x_c·S_c^{-β-1}
        let mut grad_in = Tensor::zeros(shape.clone());
        let dv = grad_in.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                for p in 0..plane {
                    dv[base + p] += gv[base + p] * sv[base + p].powf(-self.beta);
                }
                // Scatter the second term to every channel in this window.
                let lo = ch.saturating_sub(half);
                let hi = (ch + half).min(c - 1);
                for j in lo..=hi {
                    let dst = (img * c + j) * plane;
                    for p in 0..plane {
                        let contrib =
                            gv[base + p] * xv[base + p] * sv[base + p].powf(-self.beta - 1.0);
                        dv[dst + p] -= coeff * xv[dst + p] * contrib;
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        let out = self.output_shape(input)?;
        // Squared-sum over the window plus the power: ≈ size+2 MACs/element.
        let elems = out.len() / out.dim(0).max(1);
        Ok(LayerCost::new(
            ((self.size + 2) * elems) as u64,
            0,
            elems as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_tensor::init::TensorRng;

    #[test]
    fn identity_when_alpha_zero() {
        let mut lrn = LocalResponseNorm::new(3, 0.0, 0.75, 1.0).unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 4, 2, 2), |i| i as f32);
        let y = lrn.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn suppresses_high_energy_neighbourhoods() {
        let mut lrn = LocalResponseNorm::new(3, 1.0, 0.75, 1.0).unwrap();
        // Channel 1 has large neighbours, channel 3 does not.
        let mut x = Tensor::zeros(Shape::nchw(1, 4, 1, 1));
        x.as_mut_slice().copy_from_slice(&[10.0, 1.0, 10.0, 1.0]);
        let y = lrn.forward(&x, Mode::Infer).unwrap();
        assert!(y.as_slice()[1] < y.as_slice()[3]);
    }

    #[test]
    fn window_size_must_be_odd() {
        assert!(LocalResponseNorm::new(2, 1.0, 0.75, 1.0).is_err());
        assert!(LocalResponseNorm::new(0, 1.0, 0.75, 1.0).is_err());
        assert!(LocalResponseNorm::new(5, 1.0, 0.75, 1.0).is_ok());
    }

    #[test]
    fn gradient_check() {
        let mut lrn = LocalResponseNorm::new(3, 0.5, 0.75, 2.0).unwrap();
        let mut rng = TensorRng::seed_from(10);
        let x = rng.normal(Shape::nchw(1, 4, 2, 2), 0.0, 1.0);
        lrn.forward(&x, Mode::Train).unwrap();
        let dx = lrn.backward(&Tensor::ones(x.shape().clone())).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 9, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let plus = lrn.forward(&xp, Mode::Infer).unwrap().sum();
            let minus = lrn.forward(&xm, Mode::Infer).unwrap().sum();
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dx[{idx}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn rejects_non_nchw() {
        let lrn = LocalResponseNorm::new(3, 1.0, 0.75, 1.0).unwrap();
        assert!(lrn.output_shape(&Shape::matrix(2, 3)).is_err());
    }
}

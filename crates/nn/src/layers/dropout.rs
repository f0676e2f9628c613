use mp_tensor::init::TensorRng;
use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{cached, Layer, Mode};

/// Inverted dropout.
///
/// During training each activation is zeroed with probability `p` and the
/// survivors are scaled by `1/(1-p)`, so inference is the identity — the
/// convention used by Caffe for the paper's Models B and C.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Dropout, Layer, Mode};
/// use mp_tensor::Tensor;
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut drop = Dropout::new(0.5, 42)?;
/// let x = Tensor::ones([8]);
/// // Inference leaves activations untouched.
/// assert_eq!(drop.forward(&x, Mode::Infer)?, x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer that drops with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Result<Self, ShapeError> {
        if !(0.0..1.0).contains(&p) {
            return Err(ShapeError::new(
                "Dropout::new",
                format!("drop probability {p} must be in [0, 1)"),
            ));
        }
        Ok(Self {
            p,
            rng: TensorRng::seed_from(seed),
            cached_mask: None,
        })
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout({})", self.p)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        if !mode.is_train() || self.p == 0.0 {
            return Ok(input.clone());
        }
        let keep_scale = 1.0 / (1.0 - self.p);
        let p = self.p;
        let rng = &mut self.rng;
        let mask = Tensor::from_fn(input.shape().clone(), |_| {
            if rng.next_bool(p) {
                0.0
            } else {
                keep_scale
            }
        });
        let out = input.zip_with(&mask, |x, m| x * m)?;
        self.cached_mask = Some(mask);
        Ok(out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Ok(input.map_with(ws, |x| x))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        if self.p == 0.0 {
            return Ok(grad_output.clone());
        }
        let mask = cached(&self.cached_mask, "Dropout")?;
        mask.zip_with(grad_output, |m, g| m * g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.9, 0).unwrap();
        let x = Tensor::ones([100]);
        assert_eq!(d.forward(&x, Mode::Infer).unwrap(), x);
    }

    #[test]
    fn training_zeroes_about_p_fraction() {
        let mut d = Dropout::new(0.5, 1).unwrap();
        let x = Tensor::ones([10_000]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let zeros = y.iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.05);
        // survivors are scaled to keep the expectation
        assert!(y.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 2).unwrap();
        let x = Tensor::ones([64]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let dx = d.backward(&Tensor::ones([64])).unwrap();
        for (a, b) in y.iter().zip(dx.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_probability_passes_through_training() {
        let mut d = Dropout::new(0.0, 3).unwrap();
        let x = Tensor::ones([8]);
        assert_eq!(d.forward(&x, Mode::Train).unwrap(), x);
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
    }
}

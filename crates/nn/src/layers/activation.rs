use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{cached, Layer, Mode};

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Relu, Layer, Mode};
/// use mp_tensor::Tensor;
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0])?;
/// assert_eq!(relu.forward(&x, Mode::Infer)?.as_slice(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "ReLU".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        if mode.is_train() {
            self.cached_input = Some(input.clone());
        }
        Ok(input.map(|x| x.max(0.0)))
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Ok(input.map_with(ws, |x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let input = cached(&self.cached_input, "Relu")?;
        input.zip_with(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{-x})`.
///
/// Used by the paper's DMU, whose trained Softmax layer applies "a Sigmoid
/// positive transfer function" to produce the success probability (§III-B).
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scalar sigmoid function.
    pub fn eval(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> String {
        "Sigmoid".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let out = input.map(Self::eval);
        if mode.is_train() {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Ok(input.map_with(ws, Self::eval))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let out = cached(&self.cached_output, "Sigmoid")?;
        out.zip_with(grad_output, |y, g| g * y * (1.0 - y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec([4], vec![-2.0, -0.1, 0.1, 5.0]).unwrap();
        let y = relu.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.1, 5.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec([3], vec![-1.0, 2.0, 0.0]).unwrap();
        relu.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec([3], vec![10.0, 10.0, 10.0]).unwrap();
        let dx = relu.backward(&g).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros([1])).is_err());
    }

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec([3], vec![0.0, 10.0, -10.0]).unwrap();
        let y = s.forward(&x, Mode::Infer).unwrap();
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[1] > 0.9999);
        assert!(y.as_slice()[2] < 0.0001);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec([2], vec![0.3, -1.2]).unwrap();
        s.forward(&x, Mode::Train).unwrap();
        let dx = s.backward(&Tensor::ones([2])).unwrap();
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (s.forward(&xp, Mode::Infer).unwrap().sum()
                - s.forward(&xm, Mode::Infer).unwrap().sum())
                / (2.0 * eps);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn shapes_pass_through() {
        let relu = Relu::new();
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(relu.output_shape(&s).unwrap(), s);
    }
}

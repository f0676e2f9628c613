use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};

/// Reshapes `[N, d1, d2, …]` activations to `[N, d1·d2·…]` for FC layers.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Flatten, Layer, Mode};
/// use mp_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut flat = Flatten::new();
/// let y = flat.forward(&Tensor::zeros(Shape::nchw(2, 3, 4, 4)), Mode::Infer)?;
/// assert_eq!(y.shape().dims(), &[2, 48]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    cached_input_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        if input.rank() < 2 {
            return Err(ShapeError::new(
                "Flatten",
                format!("expected at least rank-2 input, got {input}"),
            ));
        }
        // Features from the trailing dims, so an empty batch keeps them.
        Ok(Shape::matrix(
            input.dim(0),
            input.dims()[1..].iter().product(),
        ))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let out_shape = self.output_shape(input.shape())?;
        if mode.is_train() {
            self.cached_input_shape = Some(input.shape().clone());
        }
        input.reshape(out_shape)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let shape = self.output_shape(input.shape())?;
        input.map_with(ws, |x| x).into_reshaped(shape)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let in_shape = self.cached_input_shape.take().ok_or_else(|| {
            ShapeError::new(
                "Flatten",
                "backward called without a preceding training-mode forward",
            )
        })?;
        grad_output.reshape(in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shapes() {
        let mut flat = Flatten::new();
        let x = Tensor::from_fn(Shape::nchw(2, 2, 2, 2), |i| i as f32);
        let y = flat.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8]);
        let dx = flat.backward(&y).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dx.as_slice(), x.as_slice());
    }

    #[test]
    fn an_empty_batch_keeps_its_feature_count() {
        let flat = Flatten::new();
        let empty = Shape::nchw(0, 3, 4, 5);
        assert_eq!(flat.output_shape(&empty).unwrap().dims(), &[0, 60]);
        let y = flat
            .infer(&Tensor::zeros(empty), &mut Workspace::new())
            .unwrap();
        assert_eq!(y.shape().dims(), &[0, 60]);
    }

    #[test]
    fn rejects_vectors_and_missing_forward() {
        let mut flat = Flatten::new();
        assert!(flat.output_shape(&Shape::vector(4)).is_err());
        assert!(flat.backward(&Tensor::zeros([2, 4])).is_err());
    }
}

use std::fmt;

use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::LayerCost;

/// Whether a forward pass is part of training or inference.
///
/// Training mode enables stochastic behaviour (dropout masks, batch-norm
/// batch statistics) and caches the activations backpropagation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Forward pass caches intermediates and uses batch statistics.
    Train,
    /// Forward pass uses running statistics; no dropout.
    Infer,
}

impl Mode {
    /// Returns `true` in [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// An object-safe neural-network layer with forward and backward passes.
///
/// Layers own their parameters and accumulated gradients. The container
/// ([`Network`](crate::Network)) drives the lifecycle:
/// `forward` → `backward` → optimizer calls [`Layer::visit_params`] to
/// update weights from gradients → [`Layer::zero_grads`].
///
/// `backward` may rely on state cached by the *most recent* `forward` in
/// [`Mode::Train`]; calling it in any other sequence is an error.
///
/// Layers are `Send + Sync`: [`Layer::infer`] takes `&self`, so a shared
/// network can run batch shards on several scoped threads at once.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Human-readable layer label (e.g. `"conv3x3-64"`).
    fn name(&self) -> String;

    /// Output shape for a given input shape, without running the layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the layer cannot accept `input`.
    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError>;

    /// Runs the layer on a batch.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on a shape mismatch.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError>;

    /// Read-only inference pass.
    ///
    /// Must produce bit-identical output to `forward(input, Mode::Infer)`
    /// but never mutates the layer, so a shared `&Network` can serve many
    /// threads. The output and any scratch come from `ws` instead of a
    /// fresh allocation per call; a taken buffer keeps its last user's
    /// contents, so the layer clears or overwrites it first.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on a shape mismatch.
    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError>;

    /// Backpropagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `grad_output` does not match the shape
    /// produced by the most recent training-mode [`Layer::forward`], or when
    /// no such forward pass has run.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError>;

    /// Visits each `(parameter, gradient)` pair for the optimizer.
    ///
    /// The default implementation visits nothing, which is correct for
    /// parameter-free layers.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        let _ = visitor;
    }

    /// Visits each parameter (and persistent statistic) tensor
    /// read-only, for analyses that scan a shared `&Network` — e.g.
    /// mp-verify's NaN/Inf taint pass. No gradients are visited.
    ///
    /// The default implementation visits nothing, which is correct for
    /// parameter-free layers.
    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        let _ = visitor;
    }

    /// Clears accumulated gradients.
    ///
    /// The default implementation does nothing, which is correct for
    /// parameter-free layers.
    fn zero_grads(&mut self) {}

    /// Compute/memory cost of one single-image inference through this layer
    /// for the given input shape (batch dimension ignored).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the layer cannot accept `input`.
    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        // Parameter-free, compute-light layers default to activation-only
        // cost; compute-heavy layers override.
        let out = self.output_shape(input)?;
        Ok(LayerCost::new(0, 0, out.len() as u64))
    }
}

/// Helper shared by layers that cache their training-mode input.
pub(crate) fn cached<'t>(cache: &'t Option<Tensor>, layer: &str) -> Result<&'t Tensor, ShapeError> {
    cache.as_ref().ok_or_else(|| {
        ShapeError::new(
            layer,
            "backward called without a preceding training-mode forward",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Infer.is_train());
    }

    #[test]
    fn cached_reports_missing_forward() {
        let none: Option<Tensor> = None;
        let err = cached(&none, "relu").unwrap_err();
        assert!(err.to_string().contains("relu"));
        let some = Some(Tensor::zeros([1]));
        assert!(cached(&some, "relu").is_ok());
    }
}

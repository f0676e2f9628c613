use std::fmt;

use mp_obs::{now_ns, Recorder};
use mp_tensor::init::TensorRng;
use mp_tensor::{nan_aware_argmax, Parallelism, Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};
use crate::layers::{
    AvgPool2d, BatchNorm, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, LocalResponseNorm,
    MaxPool2d, Relu, Sigmoid, Softmax,
};
use crate::LayerCost;

/// A sequential network of [`Layer`]s.
///
/// Built with [`Network::builder`], which tracks the activation shape so
/// convolution and fully-connected layers infer their input sizes — the
/// layer listings in the paper's Tables I and III transcribe directly into
/// builder chains.
///
/// # Example
///
/// ```
/// use mp_nn::Network;
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = Network::builder(Shape::nchw(1, 3, 8, 8))
///     .conv2d(4, 3, 1, 1, &mut rng)?
///     .relu()
///     .global_avg_pool()
///     .linear(10, &mut rng)?
///     .build();
/// let scores = net.forward(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))?;
/// assert_eq!(scores.shape().dims(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    input_shape: Shape,
    layers: Vec<Box<dyn Layer>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("input_shape", &self.input_shape)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Starts building a network for inputs of `input_shape`
    /// (the batch dimension is a placeholder; any batch size runs).
    pub fn builder(input_shape: impl Into<Shape>) -> NetworkBuilder {
        let shape = input_shape.into();
        NetworkBuilder {
            input_shape: shape.clone(),
            current: Ok(shape),
            layers: Vec::new(),
        }
    }

    /// The per-image input shape the network was built for.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in execution order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Inference-mode forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `input` does not fit the first layer.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, ShapeError> {
        self.forward_mode(input, Mode::Infer)
    }

    /// Forward pass in an explicit [`Mode`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when shapes do not fit.
    pub fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs one image (a `[1, …]` tensor of `dims`) through every layer
    /// on `ws` and writes its output into `out`, recording one span per
    /// layer into `obs` when present. Every layer draws its output and
    /// scratch from `ws` and hands its input back once the next layer
    /// has run, so a warm `ws` serves further images without allocating.
    fn infer_image(
        &self,
        image: &[f32],
        dims: &[usize],
        ws: &mut Workspace,
        obs: Option<(&dyn Recorder, &[String])>,
        out: &mut [f32],
    ) -> Result<(), ShapeError> {
        let mut buf = ws.take(image.len());
        buf.clear();
        buf.extend_from_slice(image);
        let mut x = Tensor::from_vec(Shape::new(dims), buf)?;
        for (i, layer) in self.layers.iter().enumerate() {
            let t0 = obs.map(|_| now_ns());
            let y = layer.infer(&x, ws)?;
            if let (Some((rec, names)), Some(start)) = (obs, t0) {
                rec.record_span(&names[i], start, now_ns());
            }
            ws.put(std::mem::replace(&mut x, y).into_vec());
        }
        if x.len() != out.len() {
            let detail = format!("{} outputs, output_shape says {}", x.len(), out.len());
            return Err(ShapeError::new("Network::infer_batch_with", detail));
        }
        out.copy_from_slice(x.as_slice());
        ws.put(x.into_vec());
        Ok(())
    }

    /// Stable span names for per-layer host timing:
    /// `host.layer<i>.<name>`, with any character outside the obs schema
    /// alphabet replaced by `-`.
    fn layer_span_names(&self) -> Vec<String> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let name: String = l
                    .name()
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                            c
                        } else {
                            '-'
                        }
                    })
                    .collect();
                format!("host.layer{i}.{name}")
            })
            .collect()
    }

    /// Batched inference on one thread.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `input` does not fit the first layer.
    pub fn infer_batch(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        self.infer_batch_with(input, Parallelism::sequential())
    }

    /// Batched inference, sharding the images of `input` across `par`
    /// threads (see [`Parallelism::map_images`]).
    ///
    /// Each shard walks its images one at a time through every layer on
    /// one reused [`Workspace`], so an image's activations and patch
    /// buffers (at most a few MB on the paper's models) stay cache-resident
    /// and the shard's scratch does not grow with the batch. Every layer
    /// computes each image with the same kernels as [`Network::forward`],
    /// so the result is bit-identical to it at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `input` does not fit the first layer.
    pub fn infer_batch_with(&self, input: &Tensor, par: Parallelism) -> Result<Tensor, ShapeError> {
        self.infer_batch_obs(input, par, &mp_obs::NULL_RECORDER)
    }

    /// [`Network::infer_batch_with`] with per-layer wall-time spans
    /// recorded into `rec` (names `host.layer<i>.<name>`, see
    /// `mp_obs::schema::SPAN_HOST_LAYER_PREFIX`).
    ///
    /// Recording is strictly passive: results are bit-identical to the
    /// uninstrumented path, and a disabled recorder costs one branch.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `input` does not fit the first layer.
    pub fn infer_batch_obs(
        &self,
        input: &Tensor,
        par: Parallelism,
        rec: &dyn Recorder,
    ) -> Result<Tensor, ShapeError> {
        let names;
        let obs: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            names = self.layer_span_names();
            Some((rec, names.as_slice()))
        } else {
            None
        };
        let Some((&n, rest)) = input.shape().dims().split_first() else {
            return Err(ShapeError::new(
                "Network::infer_batch_with",
                "expected a batch",
            ));
        };
        let image = [&[1], rest].concat();
        let out_shape = self.output_shape(input.shape())?;
        let out_len = out_shape.dims().iter().skip(1).product();
        let data = par.map_images(input.as_slice(), n, out_len, |x, ws, out| {
            self.infer_image(x, &image, ws, obs, out)
        })?;
        Tensor::from_vec(out_shape, data)
    }

    /// Backpropagates a loss gradient through all layers.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when no training-mode forward preceded this
    /// call or the gradient shape is wrong.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Visits every `(parameter, gradient)` pair in a fixed order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    /// Visits every parameter (and persistent statistic) tensor
    /// read-only, tagged with its layer index — the scan mp-verify's
    /// NaN/Inf taint pass runs over a shared `&Network`.
    pub fn visit_layer_params(&self, visitor: &mut dyn FnMut(usize, &Tensor)) {
        for (i, layer) in self.layers.iter().enumerate() {
            layer.visit_params_ref(&mut |t| visitor(i, t));
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Output shape for a given input shape without running the network.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when shapes do not fit.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let mut s = input.clone();
        for layer in &self.layers {
            s = layer.output_shape(&s)?;
        }
        Ok(s)
    }

    /// Per-layer `(name, cost)` for one single-image inference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the stored input shape no longer fits.
    pub fn layer_costs(&self) -> Result<Vec<(String, LayerCost)>, ShapeError> {
        let mut s = self.input_shape.clone();
        let mut out = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            out.push((layer.name(), layer.cost(&s)?));
            s = layer.output_shape(&s)?;
        }
        Ok(out)
    }

    /// Total single-image inference cost.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the stored input shape no longer fits.
    pub fn total_cost(&self) -> Result<LayerCost, ShapeError> {
        Ok(self.layer_costs()?.into_iter().map(|(_, c)| c).sum())
    }

    /// Predicted class (argmax) per row of a `[N, classes]` score matrix.
    ///
    /// NaN scores are skipped rather than poisoning the comparison; a row
    /// with no comparable score at all (empty or all-NaN) is an error
    /// instead of silently predicting class 0.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `scores` is not rank-2 or a row contains
    /// no comparable (non-NaN) score.
    pub fn argmax_rows(scores: &Tensor) -> Result<Vec<usize>, ShapeError> {
        if scores.shape().rank() != 2 {
            return Err(ShapeError::new(
                "argmax_rows",
                format!("expected [N,classes], got {}", scores.shape()),
            ));
        }
        let (n, k) = (scores.shape().dim(0), scores.shape().dim(1));
        let mut out = Vec::with_capacity(n);
        for row in 0..n {
            let slice = &scores.as_slice()[row * k..(row + 1) * k];
            let best = nan_aware_argmax(slice).ok_or_else(|| {
                ShapeError::new(
                    "argmax_rows",
                    format!("row {row} has no comparable score (empty or all NaN)"),
                )
            })?;
            out.push(best);
        }
        Ok(out)
    }
}

/// Incremental builder for [`Network`], tracking the activation shape.
///
/// Fallible steps (those that must fit the current shape) return
/// `Result<NetworkBuilder, ShapeError>` so chains read naturally with `?`.
pub struct NetworkBuilder {
    input_shape: Shape,
    current: Result<Shape, ShapeError>,
    layers: Vec<Box<dyn Layer>>,
}

impl fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkBuilder")
            .field("input_shape", &self.input_shape)
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl NetworkBuilder {
    fn current(&self) -> Result<&Shape, ShapeError> {
        self.current.as_ref().map_err(Clone::clone)
    }

    /// Appends an arbitrary layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the layer rejects the current shape.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Result<Self, ShapeError> {
        let next = layer.output_shape(self.current()?)?;
        self.current = Ok(next);
        self.layers.push(layer);
        Ok(self)
    }

    /// Appends a [`Conv2d`] layer, inferring the input channel count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the current shape is not NCHW or the
    /// kernel does not fit.
    pub fn conv2d(
        self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Result<Self, ShapeError> {
        let shape = self.current()?;
        if shape.rank() != 4 {
            return Err(ShapeError::new(
                "NetworkBuilder::conv2d",
                format!("expected NCHW activations, got {shape}"),
            ));
        }
        let conv = Conv2d::new(shape.dim(1), out_channels, kernel, stride, padding, rng)?;
        self.push(Box::new(conv))
    }

    /// Appends a [`Linear`] layer, inferring the input feature count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the current shape is not `[N, features]`.
    pub fn linear(self, out_features: usize, rng: &mut TensorRng) -> Result<Self, ShapeError> {
        let shape = self.current()?;
        if shape.rank() != 2 {
            return Err(ShapeError::new(
                "NetworkBuilder::linear",
                format!("expected flattened activations, got {shape}; call flatten() first"),
            ));
        }
        let fc = Linear::new(shape.dim(1), out_features, rng)?;
        self.push(Box::new(fc))
    }

    /// Appends a ReLU activation.
    pub fn relu(self) -> Self {
        self.push_infallible(Box::new(Relu::new()))
    }

    /// Appends a sigmoid activation.
    pub fn sigmoid(self) -> Self {
        self.push_infallible(Box::new(Sigmoid::new()))
    }

    /// Appends a softmax output layer.
    pub fn softmax(self) -> Self {
        self.push_infallible(Box::new(Softmax::new()))
    }

    /// Appends non-overlapping `k×k` max pooling.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the window does not fit.
    pub fn max_pool(self, k: usize) -> Result<Self, ShapeError> {
        self.push(Box::new(MaxPool2d::new(k, k)?))
    }

    /// Appends `k×k` max pooling with explicit `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the window does not fit.
    pub fn max_pool_stride(self, k: usize, stride: usize) -> Result<Self, ShapeError> {
        self.push(Box::new(MaxPool2d::new(k, stride)?))
    }

    /// Appends `k×k` average pooling with explicit `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the window does not fit.
    pub fn avg_pool(self, k: usize, stride: usize) -> Result<Self, ShapeError> {
        self.push(Box::new(AvgPool2d::new(k, stride)?))
    }

    /// Appends global average pooling (`[N,C,H,W] → [N,C]`).
    pub fn global_avg_pool(self) -> Self {
        self.push_infallible(Box::new(GlobalAvgPool::new()))
    }

    /// Appends a flatten layer.
    pub fn flatten(self) -> Self {
        self.push_infallible(Box::new(Flatten::new()))
    }

    /// Appends batch normalisation over the current channel/feature axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the current shape is not rank-2/4.
    pub fn batch_norm(self) -> Result<Self, ShapeError> {
        let shape = self.current()?;
        let features = match shape.rank() {
            2 | 4 => shape.dim(1),
            _ => {
                return Err(ShapeError::new(
                    "NetworkBuilder::batch_norm",
                    format!("expected rank-2/4 activations, got {shape}"),
                ))
            }
        };
        self.push(Box::new(BatchNorm::new(features, 0.9, 1e-5)?))
    }

    /// Appends cross-channel local response normalisation.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `size` is invalid or activations are
    /// not NCHW.
    pub fn lrn(self, size: usize, alpha: f32, beta: f32, k: f32) -> Result<Self, ShapeError> {
        self.push(Box::new(LocalResponseNorm::new(size, alpha, beta, k)?))
    }

    /// Appends inverted dropout with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `p` is outside `[0, 1)`.
    pub fn dropout(self, p: f32, seed: u64) -> Result<Self, ShapeError> {
        self.push(Box::new(Dropout::new(p, seed)?))
    }

    fn push_infallible(mut self, layer: Box<dyn Layer>) -> Self {
        match layer.output_shape(match &self.current {
            Ok(s) => s,
            Err(_) => return self,
        }) {
            Ok(next) => {
                self.current = Ok(next);
                self.layers.push(layer);
            }
            Err(e) => self.current = Err(e),
        }
        self
    }

    /// The activation shape after the layers added so far.
    ///
    /// # Errors
    ///
    /// Returns the first deferred [`ShapeError`] from an infallible-style
    /// step ([`relu`](Self::relu) etc. defer their errors to here or to
    /// [`build`](Self::build)-time forward passes).
    pub fn shape(&self) -> Result<Shape, ShapeError> {
        self.current.clone()
    }

    /// Finishes the network.
    ///
    /// # Panics
    ///
    /// Panics if a deferred shape error from an infallible-style step is
    /// pending; use [`try_build`](Self::try_build) (or check
    /// [`shape`](Self::shape)) to handle it gracefully.
    pub fn build(self) -> Network {
        match self.try_build() {
            Ok(net) => net,
            Err(e) => panic!("network builder has a deferred shape error: {e}"),
        }
    }

    /// Finishes the network, surfacing any deferred shape error as a
    /// typed result instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShapeError`] recorded by an infallible-style
    /// builder step.
    pub fn try_build(self) -> Result<Network, ShapeError> {
        self.current?;
        Ok(Network {
            input_shape: self.input_shape,
            layers: self.layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(33)
    }

    #[test]
    fn builder_tracks_shapes() {
        let mut r = rng();
        let b = Network::builder(Shape::nchw(1, 3, 32, 32))
            .conv2d(64, 3, 1, 0, &mut r)
            .unwrap()
            .relu()
            .max_pool(2)
            .unwrap()
            .flatten();
        assert_eq!(b.shape().unwrap().dims(), &[1, 64 * 15 * 15]);
    }

    #[test]
    fn forward_backward_roundtrip() {
        let mut r = rng();
        let mut net = Network::builder(Shape::nchw(1, 1, 6, 6))
            .conv2d(2, 3, 1, 0, &mut r)
            .unwrap()
            .relu()
            .flatten()
            .linear(3, &mut r)
            .unwrap()
            .build();
        let x = r.normal(Shape::nchw(2, 1, 6, 6), 0.0, 1.0);
        let y = net.forward_mode(&x, Mode::Train).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        let dx = net.backward(&Tensor::ones([2, 3])).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn visit_params_counts_layers() {
        let mut r = rng();
        let mut net = Network::builder(Shape::nchw(1, 1, 6, 6))
            .conv2d(2, 3, 1, 0, &mut r)
            .unwrap()
            .flatten()
            .linear(3, &mut r)
            .unwrap()
            .build();
        let mut count = 0;
        net.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 4); // conv w+b, linear w+b
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut r = rng();
        let mut net = Network::builder(Shape::nchw(1, 3, 16, 16))
            .conv2d(8, 3, 1, 1, &mut r)
            .unwrap()
            .max_pool(2)
            .unwrap()
            .global_avg_pool()
            .build();
        let input = Shape::nchw(5, 3, 16, 16);
        let predicted = net.output_shape(&input).unwrap();
        let actual = net.forward(&Tensor::zeros(input)).unwrap();
        assert_eq!(&predicted, actual.shape());
    }

    #[test]
    fn costs_accumulate() {
        let mut r = rng();
        let net = Network::builder(Shape::nchw(1, 3, 8, 8))
            .conv2d(4, 3, 1, 0, &mut r)
            .unwrap()
            .flatten()
            .linear(10, &mut r)
            .unwrap()
            .build();
        let per_layer = net.layer_costs().unwrap();
        assert_eq!(per_layer.len(), 3);
        let total = net.total_cost().unwrap();
        assert_eq!(
            total.macs,
            per_layer.iter().map(|(_, c)| c.macs).sum::<u64>()
        );
        assert!(total.macs > 0);
    }

    #[test]
    fn argmax_rows_basic() {
        let scores = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3]).unwrap();
        assert_eq!(Network::argmax_rows(&scores).unwrap(), vec![1, 0]);
        assert!(Network::argmax_rows(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn argmax_rows_skips_nan_and_rejects_all_nan_rows() {
        // A NaN score must not hijack the comparison: the best finite
        // score wins even when class 0 is NaN.
        let scores =
            Tensor::from_vec([2, 3], vec![f32::NAN, 0.2, 0.9, -1.0, f32::NAN, -2.0]).unwrap();
        assert_eq!(Network::argmax_rows(&scores).unwrap(), vec![2, 0]);
        // An all-NaN row used to silently predict class 0; now it errors.
        let poisoned = Tensor::from_vec([1, 2], vec![f32::NAN, f32::NAN]).unwrap();
        let err = Network::argmax_rows(&poisoned).unwrap_err();
        assert!(err.to_string().contains("NaN"));
    }

    fn sample_net(r: &mut TensorRng) -> Network {
        Network::builder(Shape::nchw(1, 2, 8, 8))
            .conv2d(4, 3, 1, 1, r)
            .unwrap()
            .batch_norm()
            .unwrap()
            .relu()
            .max_pool(2)
            .unwrap()
            .conv2d(6, 3, 1, 0, r)
            .unwrap()
            .relu()
            .flatten()
            .linear(10, r)
            .unwrap()
            .softmax()
            .build()
    }

    #[test]
    fn infer_batch_is_bit_identical_to_forward() {
        let mut r = rng();
        let mut net = sample_net(&mut r);
        for n in [0, 5] {
            let x = r.normal(Shape::nchw(n, 2, 8, 8), 0.0, 1.0);
            let expected = net.forward(&x).unwrap();
            let got = net.infer_batch(&x).unwrap();
            assert_eq!(expected.shape(), got.shape());
            assert_eq!(expected.as_slice(), got.as_slice());
        }
    }

    /// Model A's layer list (`mp_host::zoo`) at a quarter of its
    /// channels, on 32×32 inputs.
    fn model_a_shaped(r: &mut TensorRng) -> Network {
        Network::builder(Shape::nchw(1, 3, 32, 32))
            .conv2d(8, 5, 1, 2, r)
            .unwrap()
            .max_pool_stride(3, 2)
            .unwrap()
            .relu()
            .lrn(3, 5e-5, 0.75, 1.0)
            .unwrap()
            .conv2d(8, 5, 1, 2, r)
            .unwrap()
            .relu()
            .avg_pool(3, 2)
            .unwrap()
            .lrn(3, 5e-5, 0.75, 1.0)
            .unwrap()
            .conv2d(16, 5, 1, 2, r)
            .unwrap()
            .relu()
            .avg_pool(3, 2)
            .unwrap()
            .flatten()
            .linear(10, r)
            .unwrap()
            .build()
    }

    #[test]
    fn shard_working_set_is_one_image_and_a_warm_shard_allocates_nothing() {
        let mut r = rng();
        let net = model_a_shaped(&mut r);
        let one = r.normal(Shape::nchw(1, 3, 32, 32), 0.0, 1.0);
        let eight = r.normal(Shape::nchw(8, 3, 32, 32), 0.0, 1.0);
        // One shard: the per-image walk over every image on one `ws`.
        let shard = |x: &Tensor, ws: &mut Workspace| {
            let mut scores = vec![0.0; x.shape().dim(0) * 10];
            let images = x.as_slice().chunks_exact(3 * 32 * 32);
            for (image, out) in images.zip(scores.chunks_exact_mut(10)) {
                net.infer_image(image, &[1, 3, 32, 32], ws, None, out)
                    .unwrap();
            }
            scores
        };
        let mut ws_one = Workspace::new();
        shard(&one, &mut ws_one);
        let mut ws = Workspace::new();
        let first = shard(&eight, &mut ws);
        // The largest buffer is one image's, however many images the
        // shard walks: the first conv's 8×32×32 output where it runs on
        // channel lanes (whose padded copy of the image is smaller), else
        // its 5×5 patch matrix.
        let largest = |ws: &Workspace| ws.capacities().last();
        let lanes = mp_tensor::simd::FloatConv::lanes(mp_tensor::simd::Tier::detected(
            mp_tensor::simd::Family::Gemm,
        ));
        let image = if lanes.is_some() { 8 } else { 3 * 5 * 5 } * 32 * 32;
        assert_eq!(largest(&ws), Some(image));
        assert_eq!(largest(&ws), largest(&ws_one));
        let warm: Vec<usize> = ws.capacities().collect();
        let second = shard(&eight, &mut ws);
        assert_eq!(ws.capacities().collect::<Vec<_>>(), warm);
        assert_eq!(first, second);
    }

    #[test]
    fn parallel_batched_inference_matches_sequential_bit_for_bit() {
        let mut r = rng();
        let net = sample_net(&mut r);
        for batch in [1usize, 2, 5, 8] {
            let x = r.normal(Shape::nchw(batch, 2, 8, 8), 0.0, 1.0);
            let sequential = net.infer_batch(&x).unwrap();
            for threads in [2usize, 3, 7] {
                let parallel = net.infer_batch_with(&x, Parallelism::new(threads)).unwrap();
                assert_eq!(sequential.shape(), parallel.shape());
                assert_eq!(
                    sequential.as_slice(),
                    parallel.as_slice(),
                    "batch {batch} × {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn instrumented_inference_is_bit_identical_and_records_layers() {
        let mut r = rng();
        let net = sample_net(&mut r);
        let x = r.normal(Shape::nchw(5, 2, 8, 8), 0.0, 1.0);
        let plain = net.infer_batch(&x).unwrap();
        let rec = mp_obs::SharedRecorder::new();
        let obs = net.infer_batch_obs(&x, Parallelism::new(2), &rec).unwrap();
        assert_eq!(plain.as_slice(), obs.as_slice());
        let report = rec.report();
        assert_eq!(report.spans.len(), net.num_layers());
        assert!(report.span("host.layer0.3x3-conv-4").is_some());
        // One span per image and layer.
        for name in net.layer_span_names() {
            assert_eq!(report.span(&name).map(|s| s.count), Some(5), "{name}");
        }
        mp_obs::schema::validate_report(&report).unwrap();
    }

    #[test]
    fn linear_requires_flattened_input() {
        let mut r = rng();
        let res = Network::builder(Shape::nchw(1, 1, 4, 4)).linear(10, &mut r);
        assert!(res.is_err());
    }

    #[test]
    #[should_panic(expected = "deferred shape error")]
    fn deferred_error_panics_at_build() {
        // Softmax on NCHW activations is invalid; error surfaces at build.
        let _ = Network::builder(Shape::nchw(1, 1, 4, 4)).softmax().build();
    }

    #[test]
    fn debug_output_lists_layers() {
        let mut r = rng();
        let net = Network::builder(Shape::nchw(1, 1, 6, 6))
            .conv2d(2, 3, 1, 0, &mut r)
            .unwrap()
            .build();
        assert!(format!("{net:?}").contains("3x3-conv-2"));
    }
}

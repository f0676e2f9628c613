//! Straight-through-estimator (STE) training layers.
//!
//! Binarised networks train on real-valued "latent" weights: the forward
//! pass sees only `sign(w)` and `sign(activation)`, while gradients flow
//! straight through the non-differentiable sign with the hard-tanh clip
//! of Courbariaux & Bengio (the paper's reference \[2\]). Latent weights
//! are clamped to `[-1, 1]` so the estimator stays in its valid region.

use mp_nn::{Layer, LayerCost, Mode};
use mp_tensor::conv::{col2im, im2col, im2col_slice_into, ConvGeometry};
use mp_tensor::init::TensorRng;
use mp_tensor::{linalg, Shape, ShapeError, Tensor, Workspace};

/// `sign(x)` with `sign(0) = +1`, the BinaryNet convention.
pub fn binarize(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Sign activation with the hard-tanh straight-through estimator.
///
/// Forward: `y = sign(x) ∈ {−1, +1}`. Backward: `dx = dy · 1{|x| ≤ 1}`.
///
/// # Example
///
/// ```
/// use mp_bnn::ste::SignActivation;
/// use mp_nn::{Layer, Mode};
/// use mp_tensor::Tensor;
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut sign = SignActivation::new();
/// let x = Tensor::from_vec([3], vec![-0.3, 0.0, 2.5])?;
/// assert_eq!(sign.forward(&x, Mode::Infer)?.as_slice(), &[-1.0, 1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SignActivation {
    cached_input: Option<Tensor>,
}

impl SignActivation {
    /// Creates a sign activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for SignActivation {
    fn name(&self) -> String {
        "sign".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        if mode.is_train() {
            self.cached_input = Some(input.clone());
        }
        Ok(input.map(binarize))
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Ok(input.map_with(ws, binarize))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let input = self.cached_input.take().ok_or_else(|| {
            ShapeError::new(
                "SignActivation",
                "backward called without a preceding training-mode forward",
            )
        })?;
        input.zip_with(grad_output, |x, g| if x.abs() <= 1.0 { g } else { 0.0 })
    }
}

/// Binarised 2-D convolution (no bias; FINN thresholds absorb offsets).
///
/// Owns real-valued latent weights; the forward pass binarises them.
#[derive(Debug)]
pub struct BinConv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    weight: Tensor,
    weight_grad: Tensor,
    cached_cols: Option<Vec<Tensor>>,
    cached_input_shape: Option<Shape>,
}

impl BinConv2d {
    /// Creates a binarised convolution with uniform latent weights in
    /// `(−1, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a channel count is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Result<Self, ShapeError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(ShapeError::new(
                "BinConv2d::new",
                "channel counts must be positive",
            ));
        }
        let geom = ConvGeometry::new(kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        Ok(Self {
            in_channels,
            out_channels,
            geom,
            weight: rng.uniform([out_channels, fan_in], -1.0, 1.0),
            weight_grad: Tensor::zeros([out_channels, fan_in]),
            cached_cols: None,
            cached_input_shape: None,
        })
    }

    /// The real-valued latent weight matrix `[out_channels, fan_in]`.
    pub fn latent_weight(&self) -> &Tensor {
        &self.weight
    }

    /// The binarised weights the forward pass uses.
    pub fn binary_weight(&self) -> Tensor {
        self.weight.map(binarize)
    }

    /// Convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    fn check_input(&self, input: &Shape) -> Result<(usize, usize, usize), ShapeError> {
        if input.rank() != 4 || input.dim(1) != self.in_channels {
            return Err(ShapeError::new(
                "BinConv2d",
                format!("expected [N,{},H,W] input, got {input}", self.in_channels),
            ));
        }
        let oh = self.geom.output_dim(input.dim(2));
        let ow = self.geom.output_dim(input.dim(3));
        if oh == 0 || ow == 0 {
            return Err(ShapeError::new(
                "BinConv2d",
                format!("kernel does not fit input {input}"),
            ));
        }
        Ok((input.dim(0), oh, ow))
    }
}

impl Layer for BinConv2d {
    fn name(&self) -> String {
        format!("{0}x{0}-binconv-{1}", self.geom.kernel, self.out_channels)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, oh, ow) = self.check_input(input)?;
        Ok(Shape::nchw(n, self.out_channels, oh, ow))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        // Keep latent weights in the STE's valid region.
        self.weight.map_inplace(|w| w.clamp(-1.0, 1.0));
        let (n, oh, ow) = self.check_input(input.shape())?;
        let wb = self.binary_weight();
        let mut out = Vec::with_capacity(n * self.out_channels * oh * ow);
        let mut cols_cache = mode.is_train().then(|| Vec::with_capacity(n));
        for img in 0..n {
            let image = input.batch_item(img)?;
            let cols = im2col(&image, self.geom)?;
            let y = linalg::matmul(&wb, &cols)?;
            out.extend_from_slice(y.as_slice());
            if let Some(cache) = &mut cols_cache {
                cache.push(cols);
            }
        }
        if mode.is_train() {
            self.cached_cols = cols_cache;
            self.cached_input_shape = Some(input.shape().clone());
        }
        Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        // `forward` clamps latent weights before binarising; clamping to
        // [-1, 1] never changes a weight's sign (and preserves zero), so
        // binarising unclamped weights is bit-identical without mutation.
        let (n, oh, ow) = self.check_input(input.shape())?;
        let (c, h, w) = (
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let pixels = oh * ow;
        let image_len = c * h * w;
        let mut wb = ws.take(self.weight.len());
        wb.clear();
        wb.extend(self.weight.iter().map(|&w| binarize(w)));
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        let mut out = ws.take(n * self.out_channels * pixels);
        out.clear();
        out.resize(n * self.out_channels * pixels, 0.0);
        let mut cols = ws.take(fan_in * pixels);
        let xv = input.as_slice();
        for (img, dst) in out.chunks_exact_mut(self.out_channels * pixels).enumerate() {
            let image = &xv[img * image_len..][..image_len];
            im2col_slice_into(image, c, h, w, self.geom, &mut cols)?;
            linalg::gemm(self.out_channels, fan_in, pixels, &wb, &cols, dst)?;
        }
        ws.put(cols);
        ws.put(wb);
        Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let cols = self.cached_cols.take().ok_or_else(|| {
            ShapeError::new(
                "BinConv2d",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let in_shape = self
            .cached_input_shape
            .clone()
            .ok_or_else(|| ShapeError::new("BinConv2d", "missing cached input shape"))?;
        let (n, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let oh = self.geom.output_dim(h);
        let ow = self.geom.output_dim(w);
        let want = Shape::nchw(n, self.out_channels, oh, ow);
        if grad_output.shape() != &want {
            return Err(ShapeError::new(
                "BinConv2d",
                format!("expected grad {want}, got {}", grad_output.shape()),
            ));
        }
        let pixels = oh * ow;
        let wb = self.binary_weight();
        let mut grad_in = Vec::with_capacity(n * c * h * w);
        #[allow(clippy::needless_range_loop)] // index drives several containers
        for img in 0..n {
            let g = grad_output.batch_item(img)?;
            let g = g.into_reshaped([self.out_channels, pixels])?;
            // STE: dW_latent = dW_binary (weights already clamped).
            let dw = linalg::matmul_transpose_b(&g, &cols[img])?;
            self.weight_grad.axpy(1.0, &dw)?;
            let dcols = linalg::matmul_transpose_a(&wb, &g)?;
            let dx = col2im(&dcols, c, h, w, self.geom)?;
            grad_in.extend_from_slice(dx.as_slice());
        }
        Tensor::from_vec(in_shape, grad_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight, &mut self.weight_grad);
    }

    fn zero_grads(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
    }

    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        let (_, oh, ow) = self.check_input(input)?;
        let fan_in = self.in_channels * self.geom.kernel * self.geom.kernel;
        Ok(LayerCost::new(
            (self.out_channels * fan_in * oh * ow) as u64,
            (self.out_channels * fan_in) as u64,
            (self.out_channels * oh * ow) as u64,
        ))
    }
}

/// Binarised fully-connected layer (no bias).
#[derive(Debug)]
pub struct BinLinear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    weight_grad: Tensor,
    cached_input: Option<Tensor>,
}

impl BinLinear {
    /// Creates a binarised FC layer with uniform latent weights.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a feature count is zero.
    pub fn new(
        in_features: usize,
        out_features: usize,
        rng: &mut TensorRng,
    ) -> Result<Self, ShapeError> {
        if in_features == 0 || out_features == 0 {
            return Err(ShapeError::new(
                "BinLinear::new",
                "feature counts must be positive",
            ));
        }
        Ok(Self {
            in_features,
            out_features,
            weight: rng.uniform([out_features, in_features], -1.0, 1.0),
            weight_grad: Tensor::zeros([out_features, in_features]),
            cached_input: None,
        })
    }

    /// The real-valued latent weight matrix `[out_features, in_features]`.
    pub fn latent_weight(&self) -> &Tensor {
        &self.weight
    }

    /// The binarised weights the forward pass uses.
    pub fn binary_weight(&self) -> Tensor {
        self.weight.map(binarize)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn check_input(&self, input: &Shape) -> Result<usize, ShapeError> {
        if input.rank() != 2 || input.dim(1) != self.in_features {
            return Err(ShapeError::new(
                "BinLinear",
                format!("expected [N,{}] input, got {input}", self.in_features),
            ));
        }
        Ok(input.dim(0))
    }
}

impl Layer for BinLinear {
    fn name(&self) -> String {
        format!("binFC-{}", self.out_features)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let n = self.check_input(input)?;
        Ok(Shape::matrix(n, self.out_features))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        self.weight.map_inplace(|w| w.clamp(-1.0, 1.0));
        self.check_input(input.shape())?;
        let wb = self.binary_weight();
        let y = linalg::matmul_transpose_b(input, &wb)?;
        if mode.is_train() {
            self.cached_input = Some(input.clone());
        }
        Ok(y)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        // See BinConv2d::infer: skipping the latent clamp is bit-safe.
        let n = self.check_input(input.shape())?;
        let mut wb_buf = ws.take(self.weight.len());
        wb_buf.clear();
        wb_buf.extend(self.weight.iter().map(|&w| binarize(w)));
        let wb = Tensor::from_vec(self.weight.shape().clone(), wb_buf)?;
        let mut y = ws.take(n * self.out_features);
        linalg::matmul_transpose_b_into(input, &wb, &mut y)?;
        ws.put(wb.into_vec());
        Tensor::from_vec(Shape::matrix(n, self.out_features), y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let input = self.cached_input.take().ok_or_else(|| {
            ShapeError::new(
                "BinLinear",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let n = input.shape().dim(0);
        let want = Shape::matrix(n, self.out_features);
        if grad_output.shape() != &want {
            return Err(ShapeError::new(
                "BinLinear",
                format!("expected grad {want}, got {}", grad_output.shape()),
            ));
        }
        let dw = linalg::matmul_transpose_a(grad_output, &input)?;
        self.weight_grad.axpy(1.0, &dw)?;
        linalg::matmul(grad_output, &self.binary_weight())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight, &mut self.weight_grad);
    }

    fn zero_grads(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
    }

    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        self.check_input(input)?;
        Ok(LayerCost::new(
            (self.out_features * self.in_features) as u64,
            (self.out_features * self.in_features) as u64,
            self.out_features as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binarize_convention() {
        assert_eq!(binarize(0.0), 1.0);
        assert_eq!(binarize(-0.001), -1.0);
        assert_eq!(binarize(7.0), 1.0);
    }

    #[test]
    fn sign_activation_outputs_plus_minus_one() {
        let mut s = SignActivation::new();
        let x = Tensor::from_vec([4], vec![-3.0, -0.5, 0.5, 3.0]).unwrap();
        let y = s.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn sign_ste_clips_gradient() {
        let mut s = SignActivation::new();
        let x = Tensor::from_vec([4], vec![-3.0, -0.5, 0.5, 3.0]).unwrap();
        s.forward(&x, Mode::Train).unwrap();
        let dx = s.backward(&Tensor::ones([4])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn binconv_forward_uses_binarized_weights() {
        let mut rng = TensorRng::seed_from(50);
        let mut conv = BinConv2d::new(1, 1, 2, 1, 0, &mut rng).unwrap();
        // Latent weights with mixed magnitudes all binarise to their sign.
        conv.weight = Tensor::from_vec([1, 4], vec![0.3, -0.7, 0.01, -0.99]).unwrap();
        let x = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let y = conv.forward(&x, Mode::Infer).unwrap();
        // 1 − 1 + 1 − 1 = 0
        assert_eq!(y.as_slice(), &[0.0]);
    }

    #[test]
    fn binconv_output_is_integer_valued() {
        let mut rng = TensorRng::seed_from(51);
        let mut conv = BinConv2d::new(2, 3, 3, 1, 0, &mut rng).unwrap();
        let x = Tensor::from_fn(
            Shape::nchw(1, 2, 5, 5),
            |i| {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            },
        );
        let y = conv.forward(&x, Mode::Infer).unwrap();
        for &v in y.iter() {
            assert_eq!(v, v.round(), "binary conv output must be integral, got {v}");
        }
        // Parity: dot of 18 ±1 values is even.
        for &v in y.iter() {
            assert_eq!((v as i32).rem_euclid(2), 0);
        }
    }

    #[test]
    fn binconv_latent_weights_clamped() {
        let mut rng = TensorRng::seed_from(52);
        let mut conv = BinConv2d::new(1, 1, 2, 1, 0, &mut rng).unwrap();
        conv.weight = Tensor::from_vec([1, 4], vec![5.0, -5.0, 0.5, -0.5]).unwrap();
        conv.forward(&Tensor::ones(Shape::nchw(1, 1, 2, 2)), Mode::Infer)
            .unwrap();
        assert_eq!(conv.latent_weight().as_slice(), &[1.0, -1.0, 0.5, -0.5]);
    }

    #[test]
    fn binconv_gradients_flow_to_latent_weights() {
        let mut rng = TensorRng::seed_from(53);
        let mut conv = BinConv2d::new(1, 2, 2, 1, 0, &mut rng).unwrap();
        let x = rng.normal(Shape::nchw(1, 1, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!(conv.weight_grad.iter().any(|&g| g != 0.0));
        conv.zero_grads();
        assert!(conv.weight_grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn binlinear_matches_xnor_arithmetic() {
        let mut rng = TensorRng::seed_from(54);
        let mut fc = BinLinear::new(8, 4, &mut rng).unwrap();
        let x_signs: Vec<f32> = (0..8)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let x = Tensor::from_vec([1, 8], x_signs.clone()).unwrap();
        let y = fc.forward(&x, Mode::Infer).unwrap();
        // Compare against BitVec xnor_dot per output row.
        use crate::bits::{BitMatrix, BitVec};
        let wb = fc.binary_weight();
        let m = BitMatrix::from_signs(4, 8, wb.as_slice());
        let xv = BitVec::from_signs(&x_signs);
        let ints = m.xnor_matvec(&xv);
        for (f, i) in y.iter().zip(ints) {
            assert_eq!(*f as i32, i);
        }
    }

    #[test]
    fn binlinear_backward_requires_forward() {
        let mut rng = TensorRng::seed_from(55);
        let mut fc = BinLinear::new(4, 2, &mut rng).unwrap();
        assert!(fc.backward(&Tensor::zeros([1, 2])).is_err());
    }

    #[test]
    fn costs_count_binary_params() {
        let mut rng = TensorRng::seed_from(56);
        let conv = BinConv2d::new(3, 64, 3, 1, 0, &mut rng).unwrap();
        let cost = conv.cost(&Shape::nchw(1, 3, 32, 32)).unwrap();
        assert_eq!(cost.params, 64 * 27);
        let fc = BinLinear::new(256, 64, &mut rng).unwrap();
        assert_eq!(fc.cost(&Shape::matrix(1, 256)).unwrap().params, 256 * 64);
    }

    #[test]
    fn rejects_zero_dims() {
        let mut rng = TensorRng::seed_from(57);
        assert!(BinConv2d::new(0, 1, 3, 1, 0, &mut rng).is_err());
        assert!(BinLinear::new(1, 0, &mut rng).is_err());
    }
}

/// Uniform symmetric quantisation to `2^bits` levels on `[-1, 1]` with
/// the straight-through estimator.
///
/// With `bits = 1` this is exactly [`SignActivation`] (levels `{−1, +1}`
/// with the `x = 0 → +1` convention); wider settings give the
/// partially-binarised inner layers of the paper's §II and future-work
/// discussion. Weights stay binary either way — only activations widen.
///
/// # Example
///
/// ```
/// use mp_bnn::ste::QuantActivation;
/// use mp_nn::{Layer, Mode};
/// use mp_tensor::Tensor;
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut q2 = QuantActivation::new(2)?; // levels −1, −1/3, 1/3, 1
/// let x = Tensor::from_vec([3], vec![-0.2, 0.1, 0.9])?;
/// let y = q2.forward(&x, Mode::Infer)?;
/// assert!((y.as_slice()[0] + 1.0 / 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QuantActivation {
    bits: usize,
    cached_input: Option<Tensor>,
}

impl QuantActivation {
    /// Creates an activation with `2^bits` levels.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `bits` is zero or above 16.
    pub fn new(bits: usize) -> Result<Self, ShapeError> {
        if bits == 0 || bits > 16 {
            return Err(ShapeError::new(
                "QuantActivation::new",
                format!("activation width {bits} must be in 1..=16"),
            ));
        }
        Ok(Self {
            bits,
            cached_input: None,
        })
    }

    /// Activation width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Quantises one value.
    pub fn quantize(&self, x: f32) -> f32 {
        let levels = (1u32 << self.bits) as f32 - 1.0;
        let unit = (x.clamp(-1.0, 1.0) + 1.0) / 2.0; // [0,1]
        let q = (unit * levels).round() / levels;
        2.0 * q - 1.0
    }
}

impl Layer for QuantActivation {
    fn name(&self) -> String {
        format!("quant{}", self.bits)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        if mode.is_train() {
            self.cached_input = Some(input.clone());
        }
        Ok(input.map(|x| self.quantize(x)))
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        Ok(input.map_with(ws, |x| self.quantize(x)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let input = self.cached_input.take().ok_or_else(|| {
            ShapeError::new(
                "QuantActivation",
                "backward called without a preceding training-mode forward",
            )
        })?;
        input.zip_with(grad_output, |x, g| if x.abs() <= 1.0 { g } else { 0.0 })
    }
}

#[cfg(test)]
mod quant_tests {
    use super::*;

    #[test]
    fn one_bit_matches_sign() {
        let q = QuantActivation::new(1).unwrap();
        for x in [-5.0f32, -0.3, 0.0, 0.3, 5.0] {
            assert_eq!(q.quantize(x), binarize(x), "x = {x}");
        }
    }

    #[test]
    fn levels_are_uniform() {
        let q = QuantActivation::new(2).unwrap();
        let outputs: Vec<f32> = [-1.0f32, -0.4, 0.4, 1.0]
            .iter()
            .map(|&x| q.quantize(x))
            .collect();
        let third = 1.0 / 3.0;
        assert!((outputs[0] + 1.0).abs() < 1e-6);
        assert!((outputs[1] + third).abs() < 1e-6);
        assert!((outputs[2] - third).abs() < 1e-6);
        assert!((outputs[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn wide_quantisation_approaches_identity() {
        let q = QuantActivation::new(8).unwrap();
        for x in [-0.9f32, -0.25, 0.1, 0.77] {
            assert!((q.quantize(x) - x).abs() < 0.01, "x = {x}");
        }
    }

    #[test]
    fn values_clamp_to_unit_range() {
        let q = QuantActivation::new(4).unwrap();
        assert_eq!(q.quantize(10.0), 1.0);
        assert_eq!(q.quantize(-10.0), -1.0);
    }

    #[test]
    fn ste_clips_like_sign() {
        let mut q = QuantActivation::new(3).unwrap();
        let x = Tensor::from_vec([3], vec![-2.0, 0.5, 2.0]).unwrap();
        q.forward(&x, Mode::Train).unwrap();
        let dx = q.backward(&Tensor::ones([3])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(QuantActivation::new(0).is_err());
        assert!(QuantActivation::new(17).is_err());
        assert!(QuantActivation::new(16).is_ok());
    }

    #[test]
    fn quantisation_is_idempotent() {
        let q = QuantActivation::new(3).unwrap();
        for x in [-0.8f32, -0.1, 0.3, 0.9] {
            let once = q.quantize(x);
            assert_eq!(q.quantize(once), once);
        }
    }
}

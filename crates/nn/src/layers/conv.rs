use std::sync::OnceLock;

use mp_tensor::conv::{col2im, im2col, im2col_slice_into, ConvGeometry};
use mp_tensor::init::TensorRng;
use mp_tensor::simd::{Family, FloatConv, Tier};
use mp_tensor::{linalg, Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};
use crate::LayerCost;

/// 2-D convolution.
///
/// Weights are stored as a `[out_channels, in_channels·K·K]` matrix.
/// [`Layer::forward`], the reference, computes each image as one matrix
/// product over its `im2col` patch matrix — the matrix–matrix lowering
/// of Chellapilla et al. (paper §II). [`Layer::infer`] computes the same
/// bits two ways, chosen once per layer from the CPU's SIMD tier and the
/// layer's geometry: where `channel_lanes_pay` holds, the channel-lane
/// kernel [`FloatConv`] (output channels in SIMD lanes with their weights
/// packed once and cached in the layer, each patch value broadcast from
/// where it lies in the image, as FINN's processing elements share one
/// sliding window); elsewhere, and on CPUs without AVX2, `im2col` +
/// `linalg::gemm` into the image's slice of the output.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Conv2d, Layer, Mode};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(1);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 0, &mut rng)?;
/// let x = Tensor::zeros(Shape::nchw(2, 3, 16, 16));
/// let y = conv.forward(&x, Mode::Infer)?;
/// assert_eq!(y.shape().dims(), &[2, 8, 14, 14]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cached_cols: Option<Vec<Tensor>>,
    cached_input_shape: Option<Shape>,
    /// `weight` and `bias` packed for [`FloatConv`] on the detected GEMM
    /// tier, for the first input size `infer` saw; `None` where that size
    /// runs `im2col` + GEMM. Built on first use and dropped by
    /// `set_weight` and `visit_params`, the only `&mut` routes to the
    /// parameters.
    lanes: OnceLock<Option<FloatConv>>,
}

/// Whether [`FloatConv`] on `tier` beats `im2col` + the packed GEMM on
/// a layer with a `kernel × kernel` window and an output map of
/// `out_pixels` pixels.
///
/// Measured per layer of the paper's Models A and B on one pinned thread
/// (DESIGN.md §8). On AVX-512 channel lanes win on every layer: most on
/// the small maps, where the GEMM's 32-pixel panels run part empty
/// (225 = 7·32 + 1, 49 → 64) and the short row copies of `im2col` cost
/// as much as a fifth of the layer. On AVX2 they win everywhere but on
/// 1×1 layers over maps of more than 256 pixels: there `im2col` is one
/// copy, the GEMM's 24-pixel panels are full, and each 8-lane channel
/// block broadcasts the whole map again.
// Off x86-64 only the portable tier exists, and the geometry goes unread.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn channel_lanes_pay(tier: Tier, kernel: usize, out_pixels: usize) -> bool {
    match tier {
        Tier::Portable => false,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => kernel > 1 || out_pixels <= 256,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => true,
        // The `Gemm` family has no tile build, so `Tier::detected` never
        // hands this tier to a float convolution.
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        Tier::Amx => false,
    }
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `in_channels` or `out_channels` is zero.
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
                "Conv2d::new",
                "channel counts must be positive",
            ));
        }
        let geom = ConvGeometry::new(kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        Ok(Self {
            in_channels,
            out_channels,
            geom,
            weight: rng.he([out_channels, fan_in], fan_in),
            bias: Tensor::zeros([out_channels]),
            weight_grad: Tensor::zeros([out_channels, fan_in]),
            bias_grad: Tensor::zeros([out_channels]),
            cached_cols: None,
            cached_input_shape: None,
            lanes: OnceLock::new(),
        })
    }

    /// The convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// The `[out_channels, in_channels·K·K]` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The `[out_channels]` bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the weight matrix (e.g. with binarised weights).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `weight` has a different shape.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<(), ShapeError> {
        if weight.shape() != self.weight.shape() {
            return Err(ShapeError::new(
                "Conv2d::set_weight",
                format!("expected {}, got {}", self.weight.shape(), weight.shape()),
            ));
        }
        self.weight = weight;
        self.lanes = OnceLock::new();
        Ok(())
    }

    /// Number of input channels this layer expects.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels this layer produces.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Shape) -> Result<(usize, usize, usize, usize), ShapeError> {
        if input.rank() != 4 || input.dim(1) != self.in_channels {
            return Err(ShapeError::new(
                "Conv2d",
                format!("expected [N,{},H,W] input, got {input}", self.in_channels),
            ));
        }
        let oh = self.geom.output_dim(input.dim(2));
        let ow = self.geom.output_dim(input.dim(3));
        if oh == 0 || ow == 0 {
            return Err(ShapeError::new(
                "Conv2d",
                format!("kernel does not fit input {input}"),
            ));
        }
        Ok((input.dim(0), input.dim(1), oh, ow))
    }

    /// The channel-lane pack for `(c, h, w)` images, built on first use
    /// when the geometry pays and the CPU has a channel-lane tier; `None`
    /// sends the images to `im2col` + GEMM. A pack serves only the input
    /// size it was built for.
    fn lanes(&self, input: (usize, usize, usize), out_pixels: usize) -> Option<&FloatConv> {
        self.lanes
            .get_or_init(|| {
                let tier = Tier::detected(Family::Gemm);
                channel_lanes_pay(tier, self.geom.kernel, out_pixels)
                    .then(|| {
                        let (w, b) = (self.weight.as_slice(), self.bias.as_slice());
                        // `Err` only for an image too large for `u32`
                        // tap offsets.
                        FloatConv::new(tier, input, self.geom, w, b).ok()
                    })
                    .flatten()
            })
            .as_ref()
            .filter(|lanes| lanes.input() == input)
    }

    /// [`Layer::infer`] on the channel-lane pack `lanes` (which must be
    /// this layer's, for `input`'s image size), or on `im2col` + GEMM
    /// where `None`.
    fn infer_on(
        &self,
        input: &Tensor,
        lanes: Option<&FloatConv>,
        ws: &mut Workspace,
    ) -> Result<Tensor, ShapeError> {
        let (n, c, oh, ow) = self.check_input(input.shape())?;
        let (h, w) = (input.shape().dim(2), input.shape().dim(3));
        let (image_len, pixels) = (c * h * w, oh * ow);
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        let mut out = ws.take(n * self.out_channels * pixels);
        out.clear();
        out.resize(n * self.out_channels * pixels, 0.0);
        let images = out.chunks_exact_mut(self.out_channels * pixels).enumerate();
        if let Some(lanes) = lanes {
            // Per image: one copy into a reused zero-padded buffer, then
            // register tiles of pixels × output channels, summed in
            // `gemm_kernel`'s order and biased, straight into the image's
            // `[oc, pixels]` slice.
            let mut padded = ws.take(lanes.padded_len());
            for (img, dst) in images {
                lanes.run(
                    &input.as_slice()[img * image_len..][..image_len],
                    &mut padded,
                    dst,
                );
            }
            ws.put(padded);
            return Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out);
        }
        // Per image: lower into one reused `[fan_in, pixels]` patch buffer
        // and multiply straight into the image's `[oc, pixels]` slice of
        // the NCHW output, then add the bias. Each element sums the same
        // `fan_in` products in the same order as `forward`, then adds the
        // bias once, so the two are bit-identical.
        let mut cols = ws.take(fan_in * pixels);
        for (img, dst) in images {
            let image = &input.as_slice()[img * image_len..][..image_len];
            im2col_slice_into(image, c, h, w, self.geom, &mut cols)?;
            linalg::gemm(
                self.out_channels,
                fan_in,
                pixels,
                self.weight.as_slice(),
                &cols,
                dst,
            )?;
            for (row, &b) in dst.chunks_exact_mut(pixels).zip(self.bias.as_slice()) {
                for v in row {
                    *v += b;
                }
            }
        }
        ws.put(cols);
        Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!("{0}x{0}-conv-{1}", self.geom.kernel, self.out_channels)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, _, oh, ow) = self.check_input(input)?;
        Ok(Shape::nchw(n, self.out_channels, oh, ow))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let (n, _, oh, ow) = self.check_input(input.shape())?;
        let mut out = Vec::with_capacity(n * self.out_channels * oh * ow);
        let mut cols_cache = mode.is_train().then(|| Vec::with_capacity(n));
        for img in 0..n {
            let image = input.batch_item(img)?;
            let cols = im2col(&image, self.geom)?;
            let mut y = linalg::matmul(&self.weight, &cols)?;
            let pixels = oh * ow;
            for oc in 0..self.out_channels {
                let b = self.bias.as_slice()[oc];
                for v in &mut y.as_mut_slice()[oc * pixels..(oc + 1) * pixels] {
                    *v += b;
                }
            }
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
        let (_, c, oh, ow) = self.check_input(input.shape())?;
        let (h, w) = (input.shape().dim(2), input.shape().dim(3));
        self.infer_on(input, self.lanes((c, h, w), oh * ow), ws)
    }
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let cols = self.cached_cols.take().ok_or_else(|| {
            ShapeError::new(
                "Conv2d",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let in_shape = self
            .cached_input_shape
            .clone()
            .ok_or_else(|| ShapeError::new("Conv2d", "missing cached input shape"))?;
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
                "Conv2d",
                format!("expected grad {want}, got {}", grad_output.shape()),
            ));
        }
        let pixels = oh * ow;
        let mut grad_in = Vec::with_capacity(n * c * h * w);
        #[allow(clippy::needless_range_loop)] // index drives several containers
        for img in 0..n {
            let g = grad_output.batch_item(img)?;
            let g = g.into_reshaped([self.out_channels, pixels])?;
            // dW += g × colsᵀ
            let dw = linalg::matmul_transpose_b(&g, &cols[img])?;
            self.weight_grad.axpy(1.0, &dw)?;
            // db += row sums of g
            for oc in 0..self.out_channels {
                let row_sum: f32 = g.as_slice()[oc * pixels..(oc + 1) * pixels].iter().sum();
                self.bias_grad.as_mut_slice()[oc] += row_sum;
            }
            // dx = col2im(Wᵀ × g)
            let dcols = linalg::matmul_transpose_a(&self.weight, &g)?;
            let dx = col2im(&dcols, c, h, w, self.geom)?;
            grad_in.extend_from_slice(dx.as_slice());
        }
        Tensor::from_vec(in_shape, grad_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.lanes = OnceLock::new();
        visitor(&mut self.weight, &mut self.weight_grad);
        visitor(&mut self.bias, &mut self.bias_grad);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn zero_grads(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
        self.bias_grad.map_inplace(|_| 0.0);
    }

    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        let (_, _, oh, ow) = self.check_input(input)?;
        let fan_in = self.in_channels * self.geom.kernel * self.geom.kernel;
        Ok(LayerCost::new(
            (self.out_channels * fan_in * oh * ow) as u64,
            (self.out_channels * (fan_in + 1)) as u64,
            (self.out_channels * oh * ow) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(11)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, &mut r).unwrap();
        conv.set_weight(Tensor::zeros([2, 4])).unwrap();
        conv.bias = Tensor::from_vec([2], vec![1.5, -2.0]).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let y = conv.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(y.as_slice()[0..4], [1.5; 4]);
        assert_eq!(y.as_slice()[4..8], [-2.0; 4]);
    }

    #[test]
    fn rejects_wrong_channels_and_small_inputs() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 4, 3, 1, 0, &mut r).unwrap();
        assert!(conv
            .forward(&Tensor::zeros(Shape::nchw(1, 2, 8, 8)), Mode::Infer)
            .is_err());
        assert!(conv
            .forward(&Tensor::zeros(Shape::nchw(1, 3, 2, 2)), Mode::Infer)
            .is_err());
        assert!(Conv2d::new(0, 1, 3, 1, 0, &mut r).is_err());
    }

    #[test]
    fn known_convolution_value() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        conv.set_weight(Tensor::from_vec([1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 2, 2), |i| i as f32);
        let y = conv.forward(&x, Mode::Infer).unwrap();
        // 1*0 + 2*1 + 3*2 + 4*3 = 20
        assert_eq!(y.as_slice(), &[20.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        assert!(conv
            .backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1)))
            .is_err());
    }

    #[test]
    fn gradient_check_weights() {
        // Finite differences on a tiny conv: d(sum(y))/dw.
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(2, 2, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        conv.backward(&ones).unwrap();
        let analytic = conv.weight_grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 3, 5] {
            let orig = conv.weight.as_slice()[idx];
            conv.weight.as_mut_slice()[idx] = orig + eps;
            let plus = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.weight.as_mut_slice()[idx] = orig - eps;
            let minus = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.weight.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(1, 1, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let dx = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 4, 8] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let plus = conv.forward(&xp, Mode::Infer).unwrap().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let minus = conv.forward(&xm, Mode::Infer).unwrap().sum();
            let numeric = (plus - minus) / (2.0 * eps);
            let a = dx.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dx[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn cost_matches_hand_count() {
        let mut r = rng();
        let conv = Conv2d::new(3, 64, 3, 1, 0, &mut r).unwrap();
        let cost = conv.cost(&Shape::nchw(1, 3, 32, 32)).unwrap();
        // OH=OW=30, fan_in=27: macs = 64*27*900
        assert_eq!(cost.macs, 64 * 27 * 900);
        assert_eq!(cost.params, 64 * 28);
        assert_eq!(cost.activations, 64 * 900);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(1, 1, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!(conv.weight_grad.iter().any(|&g| g != 0.0));
        conv.zero_grads();
        assert!(conv.weight_grad.iter().all(|&g| g == 0.0));
        assert!(conv.bias_grad.iter().all(|&g| g == 0.0));
    }

    /// Both inference paths, `im2col` + GEMM and (where this CPU has a
    /// channel-lane tier) [`FloatConv`], equal `forward` bit for bit from
    /// a workspace of stale NaN buffers, whichever path the layer's rule
    /// would pick: skipping `out.clear()` or adding the bias twice fails
    /// this on every CPU.
    #[test]
    fn both_inference_paths_match_forward_from_stale_scratch() {
        let mut r = rng();
        let tier = Tier::detected(Family::Gemm);
        for (c, od, k, stride, pad, h, w) in [
            (3, 8, 5, 1, 2, 9, 7),
            (2, 40, 3, 2, 1, 8, 8),
            (4, 33, 1, 1, 0, 6, 5),
            (1, 1, 2, 1, 0, 3, 3),
            (5, 17, 4, 2, 3, 5, 6),
        ] {
            let mut conv = Conv2d::new(c, od, k, stride, pad, &mut r).unwrap();
            conv.bias = r.normal([od], 0.0, 0.5);
            let x = r.normal(Shape::nchw(3, c, h, w), 0.0, 1.0);
            let want = conv.forward(&x, Mode::Infer).unwrap();
            let (weight, bias) = (conv.weight.as_slice(), conv.bias.as_slice());
            let packed = FloatConv::new(tier, (c, h, w), conv.geom, weight, bias).ok();
            assert_eq!(packed.is_some(), FloatConv::lanes(tier).is_some());
            for lanes in [None, packed.as_ref()] {
                let mut ws = Workspace::new();
                for len in [1, 64, 4096] {
                    ws.put(vec![f32::NAN; len]);
                }
                let got = conv.infer_on(&x, lanes, &mut ws).unwrap();
                assert_eq!(got.shape(), want.shape());
                let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "lanes {} k {k}", lanes.is_some());
            }
        }
    }

    #[test]
    fn name_mentions_geometry() {
        let mut r = rng();
        let conv = Conv2d::new(3, 64, 3, 1, 0, &mut r).unwrap();
        assert_eq!(conv.name(), "3x3-conv-64");
    }
}

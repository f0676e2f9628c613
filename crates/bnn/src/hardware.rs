//! The folded hardware view of a trained BNN.
//!
//! [`HardwareBnn`] is functionally what FINN synthesises onto the FPGA:
//! bit-packed ±1 weight memories, integer threshold memories (each
//! batch-norm + sign pair folded into one comparison, paper §II), an
//! 8-bit fixed-point first stage, OR-based max-pooling over binary
//! activations, and a final accumulate-only engine whose integer scores
//! feed the DMU. `mp-fpga` attaches timing and memory models to this
//! structure; here it executes functionally, bit-exactly.

use serde::{Deserialize, Error, Serialize, Value};

use mp_obs::{now_ns, Recorder};
use mp_tensor::simd::{Family, Tier};
use mp_tensor::{Parallelism, Shape, ShapeError, Tensor};

use crate::bin_conv::PackedConv;
use crate::bits::{BitMatrix, BitVec};
use crate::classifier::{BnnClassifier, Stage};
use crate::{EngineSpec, FinnTopology};

/// Fixed-point scale of the first engine's pixel inputs (Q2.6: range ±2,
/// 1/64 resolution — the paper's first stage uses wider 24-bit threshold
/// words to absorb this scaling).
pub const INPUT_QUANT_SCALE: f32 = 64.0;

/// Clamp range of first-stage pixel inputs.
pub const INPUT_QUANT_RANGE: f32 = 2.0;

/// A folded threshold: the integer comparison that replaces
/// `sign(batch_norm(acc))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwThreshold {
    /// Comparison bound on the integer accumulation.
    pub bound: i64,
    /// `false`: activation fires when `acc >= bound` (positive γ);
    /// `true`: fires when `acc <= bound` (negative γ).
    pub negate: bool,
}

impl HwThreshold {
    /// Folds a float threshold `(t, negate)` at integer `scale`.
    pub fn fold(t: f32, negate: bool, scale: f32) -> Self {
        let scaled = t * scale;
        if scaled.is_infinite() || scaled.is_nan() {
            // Degenerate batch-norm (γ = 0): constant activation.
            let bound = if (scaled < 0.0) != negate {
                i64::MIN // always fires for >=; never for <=
            } else {
                i64::MAX
            };
            return Self { bound, negate };
        }
        let bound = if negate {
            scaled.floor() as i64
        } else {
            scaled.ceil() as i64
        };
        Self { bound, negate }
    }

    /// Evaluates the activation for an integer accumulation.
    pub fn fires(&self, acc: i64) -> bool {
        if self.negate {
            acc <= self.bound
        } else {
            acc >= self.bound
        }
    }
}

/// Observed accumulator extremes of one engine during a traced
/// inference ([`HardwareBnn::infer_image_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccRange {
    /// Smallest accumulation seen.
    pub min: i64,
    /// Largest accumulation seen.
    pub max: i64,
}

impl AccRange {
    /// The empty range (`min > max`), before any observation.
    pub fn empty() -> Self {
        Self {
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Whether no accumulation was observed.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Widens the range to include `acc`.
    pub fn observe(&mut self, acc: i64) {
        self.min = self.min.min(acc);
        self.max = self.max.max(acc);
    }

    /// Merges another observed range into this one.
    pub fn merge(&mut self, other: AccRange) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Structural facts about one synthesised engine, exposed for static
/// analysis (mp-verify) without handing out the weight memories.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Weight-matrix columns: the engine's accumulation fan-in.
    pub fan_in: usize,
    /// Weight-matrix rows: output channels (or features).
    pub out_channels: usize,
    /// Fixed-point first stage (Q2.6 pixels) rather than ±1 inputs.
    pub first: bool,
    /// Accumulate-only output stage (no thresholds by design).
    pub output: bool,
    /// Whether a 2×2 OR-pool follows the engine.
    pub pool: bool,
    /// Folded thresholds, one per output channel (empty for the output
    /// stage).
    pub thresholds: Vec<HwThreshold>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum HwStage {
    /// First engine: fixed-point pixels × binary weights.
    FirstConv {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner binary convolution engine.
    BinConv {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner binary FC engine.
    BinFc {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
    },
    /// Final accumulate-only FC engine.
    OutputFc { weights: BitMatrix },
}

impl HwStage {
    /// The `<kind>` of the stage's `bnn.stage<i>.<kind>` span.
    fn kind_name(&self) -> &'static str {
        match self {
            HwStage::FirstConv { .. } => "first_conv",
            HwStage::BinConv { .. } => "bin_conv",
            HwStage::BinFc { .. } => "bin_fc",
            HwStage::OutputFc { .. } => "output_fc",
        }
    }

    /// Checks stage `i` of `engines` total (`convs` of them convolutions)
    /// against its topology engine: kind and position, weight shape,
    /// conv geometry and one threshold per weight row.
    fn check(
        &self,
        i: usize,
        engine: &EngineSpec,
        convs: usize,
        engines: usize,
    ) -> Result<(), String> {
        let want = if i == 0 {
            "first_conv"
        } else if i < convs {
            "bin_conv"
        } else if i + 1 < engines {
            "bin_fc"
        } else {
            "output_fc"
        };
        if self.kind_name() != want {
            return Err(format!(
                "stage {i} is {}, engine needs {want}",
                self.kind_name()
            ));
        }
        let (weights, thresholds, geometry) = match self {
            HwStage::FirstConv {
                weights,
                thresholds,
                in_channels,
                kernel,
                pool,
            }
            | HwStage::BinConv {
                weights,
                thresholds,
                in_channels,
                kernel,
                pool,
            } => (
                weights,
                Some(thresholds),
                Some((*in_channels, *kernel, *pool)),
            ),
            HwStage::BinFc {
                weights,
                thresholds,
            } => (weights, Some(thresholds), None),
            HwStage::OutputFc { weights } => (weights, None, None),
        };
        let (rows, cols) = (engine.weight_rows(), engine.weight_cols());
        if (weights.num_rows(), weights.num_cols()) != (rows, cols) {
            return Err(format!(
                "stage {i} weights are {}×{}, engine needs {rows}×{cols}",
                weights.num_rows(),
                weights.num_cols()
            ));
        }
        if let Some(geometry) = geometry {
            if geometry != (engine.in_channels, engine.kernel, engine.pool_after) {
                return Err(format!(
                    "stage {i} (in_channels, kernel, pool) = {geometry:?} does not match its engine"
                ));
            }
        }
        if let Some(thresholds) = thresholds {
            if thresholds.len() != rows {
                return Err(format!(
                    "stage {i} has {} thresholds for {rows} weight rows",
                    thresholds.len()
                ));
            }
        }
        // The first engine's i32 lanes hold sums of up to `fan_in`
        // pixels of magnitude ≤ 128 (see `first_conv_block`).
        if i == 0 && cols > (i32::MAX / 256) as usize {
            return Err(format!(
                "stage 0 fan-in {cols} overflows the first engine's i32 lanes"
            ));
        }
        // A `BinConv` row's popcount range lies in `0..=fan_in` and is
        // stored in u32 lanes (see `PackedConv`).
        if matches!(self, HwStage::BinConv { .. }) && u32::try_from(cols).is_err() {
            return Err(format!(
                "stage {i} fan-in {cols} overflows the BinConv popcount ranges' u32 lanes"
            ));
        }
        Ok(())
    }
}

/// Bit-exact functional model of the synthesised FINN accelerator.
///
/// Serialises as its topology and stages only; deserialization checks
/// them against each other (the same checked constructor as
/// [`Self::from_classifier`]) and rebuilds the batch path's packed
/// weights.
///
/// # Example
///
/// ```
/// use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(0);
/// let bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng)?;
/// let hw = HardwareBnn::from_classifier(&bnn)?;
/// let scores = hw.infer_image(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))?;
/// assert_eq!(scores.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HardwareBnn {
    topology: FinnTopology,
    stages: Vec<HwStage>,
    /// The first engine's tap-offset tables, built at construction.
    first_plan: FirstConvPlan,
    /// Per `BinConv` stage, in order: its weights repacked and its
    /// thresholds folded into popcount ranges at construction.
    convs: Vec<PackedConv>,
}

impl Serialize for HardwareBnn {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("topology".to_owned(), self.topology.to_value()),
            ("stages".to_owned(), self.stages.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for HardwareBnn {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let topology = FinnTopology::from_value(value.get_field("topology")?)?;
        let stages = Vec::<HwStage>::from_value(value.get_field("stages")?)?;
        Self::checked(topology, stages).map_err(Error::custom)
    }
}

impl HardwareBnn {
    /// Folds a trained [`BnnClassifier`] into its hardware form.
    ///
    /// Batch-norm running statistics become integer thresholds; latent
    /// weights become bit-packed signs.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the classifier is structurally
    /// inconsistent (which indicates a bug).
    pub fn from_classifier(classifier: &BnnClassifier) -> Result<Self, ShapeError> {
        if classifier.activation_bits() != 1 {
            return Err(ShapeError::new(
                "HardwareBnn::from_classifier",
                format!(
                    "only fully-binarised classifiers fold to the XNOR datapath; \
                     this one has {}-bit activations (the area of wider datapaths \
                     is modelled by mp-fpga's partial-binarisation support)",
                    classifier.activation_bits()
                ),
            ));
        }
        let mut stages = Vec::new();
        let mut first = true;
        for stage in &classifier.stages {
            match stage {
                Stage::Conv { conv, bn, pool, .. } => {
                    let wb = conv.binary_weight();
                    let weights = BitMatrix::from_signs(
                        conv.out_channels(),
                        wb.shape().dim(1),
                        wb.as_slice(),
                    );
                    let scale = if first { INPUT_QUANT_SCALE } else { 1.0 };
                    let thresholds = bn
                        .fold_threshold()
                        .into_iter()
                        .map(|(t, neg)| HwThreshold::fold(t, neg, scale))
                        .collect();
                    stages.push(if first {
                        HwStage::FirstConv {
                            weights,
                            thresholds,
                            in_channels: conv.in_channels(),
                            kernel: conv.geometry().kernel,
                            pool: pool.is_some(),
                        }
                    } else {
                        HwStage::BinConv {
                            weights,
                            thresholds,
                            in_channels: conv.in_channels(),
                            kernel: conv.geometry().kernel,
                            pool: pool.is_some(),
                        }
                    });
                    first = false;
                }
                Stage::Fc { fc, bn, .. } => {
                    let wb = fc.binary_weight();
                    let weights =
                        BitMatrix::from_signs(fc.out_features(), fc.in_features(), wb.as_slice());
                    let thresholds = bn
                        .fold_threshold()
                        .into_iter()
                        .map(|(t, neg)| HwThreshold::fold(t, neg, 1.0))
                        .collect();
                    stages.push(HwStage::BinFc {
                        weights,
                        thresholds,
                    });
                }
                Stage::Output { fc, .. } => {
                    let wb = fc.binary_weight();
                    let weights =
                        BitMatrix::from_signs(fc.out_features(), fc.in_features(), wb.as_slice());
                    stages.push(HwStage::OutputFc { weights });
                }
                Stage::Flatten { .. } => {}
            }
        }
        Self::checked(classifier.topology().clone(), stages)
    }

    /// The one constructor behind [`Self::from_classifier`] and
    /// deserialization: checks the stages against the topology's engines
    /// (`FirstConv`, then `BinConv`*, `BinFc`*, `OutputFc`, one per
    /// engine, each with its engine's weight shape, geometry and one
    /// threshold per row), then builds the batch path's construction-time
    /// data. Inference relies on these checks instead of repeating them.
    fn checked(topology: FinnTopology, stages: Vec<HwStage>) -> Result<Self, ShapeError> {
        let engines = topology.try_engines()?;
        if stages.len() != engines.len() {
            return Err(ShapeError::new(
                "HardwareBnn",
                format!("{} stages for {} engines", stages.len(), engines.len()),
            ));
        }
        let convs = topology.conv_channels().len();
        for (i, (stage, engine)) in stages.iter().zip(&engines).enumerate() {
            stage
                .check(i, engine, convs, engines.len())
                .map_err(|msg| ShapeError::new("HardwareBnn", msg))?;
        }
        let mut first_plan = FirstConvPlan::default();
        let mut convs = Vec::new();
        for stage in &stages {
            match stage {
                HwStage::FirstConv {
                    weights,
                    in_channels,
                    kernel,
                    ..
                } => {
                    first_plan = FirstConvPlan::new(
                        weights,
                        (*in_channels, topology.height(), topology.width()),
                        *kernel,
                    );
                }
                HwStage::BinConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    ..
                } => convs.push(PackedConv::new(weights, thresholds, *in_channels, *kernel)),
                HwStage::BinFc { .. } | HwStage::OutputFc { .. } => {}
            }
        }
        Ok(Self {
            topology,
            stages,
            first_plan,
            convs,
        })
    }

    /// The network topology.
    pub fn topology(&self) -> &FinnTopology {
        &self.topology
    }

    /// Engine dimension records (for the FPGA timing/memory model).
    pub fn engines(&self) -> Vec<EngineSpec> {
        self.topology.engines()
    }

    /// Per-engine structural summaries for static analysis: fan-in,
    /// output width, threshold tables, and stage role.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.stages
            .iter()
            .map(|stage| match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    pool,
                    ..
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: true,
                    output: false,
                    pool: *pool,
                    thresholds: thresholds.clone(),
                },
                HwStage::BinConv {
                    weights,
                    thresholds,
                    pool,
                    ..
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: false,
                    pool: *pool,
                    thresholds: thresholds.clone(),
                },
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: false,
                    pool: false,
                    thresholds: thresholds.clone(),
                },
                HwStage::OutputFc { weights } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: true,
                    pool: false,
                    thresholds: Vec::new(),
                },
            })
            .collect()
    }

    /// Quantises one pixel to the first engine's fixed-point grid.
    pub fn quantize_pixel(x: f32) -> i64 {
        (x.clamp(-INPUT_QUANT_RANGE, INPUT_QUANT_RANGE) * INPUT_QUANT_SCALE).round() as i64
    }

    /// Runs one `[1, C, H, W]` image through the accelerator, returning
    /// the `classes` integer scores of the final engine.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image(&self, image: &Tensor) -> Result<Vec<i64>, ShapeError> {
        self.infer_image_obs(image, &mut |_, _| {})
    }

    /// [`Self::infer_image`] with per-engine accumulator extremes
    /// recorded: returns the scores plus one observed [`AccRange`] per
    /// engine. The soundness property tests compare these runtime
    /// ranges against mp-verify's static intervals.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image_traced(
        &self,
        image: &Tensor,
    ) -> Result<(Vec<i64>, Vec<AccRange>), ShapeError> {
        let mut ranges = vec![AccRange::empty(); self.stages.len()];
        let scores = self.infer_image_obs(image, &mut |stage, acc| ranges[stage].observe(acc))?;
        Ok((scores, ranges))
    }

    /// Reference inference with an observer called on every integer
    /// accumulation `(stage index, acc)` before thresholding. The no-op
    /// observer of [`Self::infer_image`] monomorphises away.
    fn infer_image_obs<F: FnMut(usize, i64)>(
        &self,
        image: &Tensor,
        obs: &mut F,
    ) -> Result<Vec<i64>, ShapeError> {
        let want = Shape::nchw(
            1,
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if image.shape() != &want {
            return Err(ShapeError::new(
                "HardwareBnn::infer_image",
                format!("expected {want}, got {}", image.shape()),
            ));
        }
        let mut bits: Vec<bool> = Vec::new();
        let mut dims = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        let mut scores: Option<Vec<i64>> = None;
        for (si, stage) in self.stages.iter().enumerate() {
            match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    // Quantise pixels once.
                    let q: Vec<i64> = image.iter().map(|&x| Self::quantize_pixel(x)).collect();
                    let mut out = vec![false; od * oh * ow];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // Gather the fixed-point patch in im2col row order.
                            let mut patch = Vec::with_capacity(c * k * k);
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(q[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            for oc in 0..od {
                                let row = weights.row(oc);
                                let mut acc = 0i64;
                                for (i, &x) in patch.iter().enumerate() {
                                    acc += if row.get(i) { x } else { -x };
                                }
                                obs(si, acc);
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].fires(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    bits = out;
                    if *pool {
                        let (nb, nd) = or_pool(&bits, dims);
                        bits = nb;
                        dims = nd;
                    }
                }
                HwStage::BinConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    let mut out = vec![false; od * oh * ow];
                    let mut patch = BitVec::zeros(c * k * k);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut idx = 0;
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.set(idx, bits[(ch * h + oy + ky) * w + ox + kx]);
                                        idx += 1;
                                    }
                                }
                            }
                            for oc in 0..od {
                                let acc = weights.row(oc).xnor_dot(&patch) as i64;
                                obs(si, acc);
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].fires(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    bits = out;
                    if *pool {
                        let (nb, nd) = or_pool(&bits, dims);
                        bits = nb;
                        dims = nd;
                    }
                }
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => {
                    let x = BitVec::from_bools(&bits);
                    let acc = weights.xnor_matvec(&x);
                    bits = acc
                        .iter()
                        .zip(thresholds)
                        .map(|(&a, t)| {
                            obs(si, a as i64);
                            t.fires(a as i64)
                        })
                        .collect();
                    dims = (bits.len(), 1, 1);
                }
                HwStage::OutputFc { weights } => {
                    let x = BitVec::from_bools(&bits);
                    let acc = weights.xnor_matvec(&x);
                    for &a in &acc {
                        obs(si, i64::from(a));
                    }
                    scores = Some(
                        acc.into_iter()
                            .take(self.topology.classes())
                            .map(i64::from)
                            .collect(),
                    );
                }
            }
        }
        scores.ok_or_else(|| ShapeError::new("HardwareBnn::infer_image", "no output engine"))
    }

    /// Classifies one image (argmax of the integer scores, first index
    /// on ties).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn classify(&self, image: &Tensor) -> Result<usize, ShapeError> {
        let scores = self.infer_image(image)?;
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Runs a `[N, C, H, W]` batch, returning `[N, classes]` scores as
    /// floats (for the DMU, which consumes BNN class scores).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch(&self, images: &Tensor) -> Result<Tensor, ShapeError> {
        let n = images.shape().dim(0);
        let classes = self.topology.classes();
        let mut data = Vec::with_capacity(n * classes);
        for i in 0..n {
            let img = images.batch_item(i)?;
            let scores = self.infer_image(&img)?;
            data.extend(scores.into_iter().map(|s| s as f32));
        }
        Tensor::from_vec(Shape::matrix(n, classes), data)
    }

    /// Optimised batched inference, bit-identical to [`Self::infer_batch`],
    /// sharding images across `par` scoped worker threads.
    ///
    /// Per shard, scratch buffers are reused across images. The first
    /// engine runs blocks of images over its tap-offset plan, and every
    /// binary map stays channel-packed between engines, so each
    /// `BinConv` patch is `k` runs of contiguous words dotted against
    /// weights repacked once at construction. Integer arithmetic keeps
    /// every accumulation exact.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch_with(
        &self,
        images: &Tensor,
        par: Parallelism,
    ) -> Result<Tensor, ShapeError> {
        self.infer_batch_obs(images, par, &mp_obs::NULL_RECORDER)
    }

    /// [`Self::infer_batch_with`] with per-stage wall-time spans recorded
    /// against `rec` (`bnn.stage<i>.<kind>`, see `mp_obs::schema`).
    ///
    /// Recording is passive — scores are bit-identical to the
    /// uninstrumented path — and with a disabled recorder the overhead
    /// is one branch per stage boundary (no clock reads).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch_obs(
        &self,
        images: &Tensor,
        par: Parallelism,
        rec: &dyn Recorder,
    ) -> Result<Tensor, ShapeError> {
        let shape = images.shape();
        let (c, h, w) = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if shape.rank() != 4 || (shape.dim(1), shape.dim(2), shape.dim(3)) != (c, h, w) {
            return Err(ShapeError::new(
                "HardwareBnn::infer_batch_with",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let n = shape.dim(0);
        let classes = self.topology.classes();
        let image_len = c * h * w;
        let xv = images.as_slice();
        let names;
        let obs_ref: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            names = self.stage_span_names();
            Some((rec, names.as_slice()))
        } else {
            None
        };
        let chunks = par.chunks(n);
        let tier = Tier::detected(Family::Popcount);
        if chunks.len() <= 1 {
            let mut ctx = HwInferCtx::default();
            let mut data = Vec::with_capacity(n * classes);
            self.infer_range_inner(xv, &mut ctx, obs_ref, tier, &mut data);
            return Tensor::from_vec(Shape::matrix(n, classes), data);
        }
        let parts: Vec<Vec<f32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(start, end)| {
                    let slice = &xv[start * image_len..end * image_len];
                    scope.spawn(move || {
                        let mut ctx = HwInferCtx::default();
                        let mut part = Vec::new();
                        self.infer_range_inner(slice, &mut ctx, obs_ref, tier, &mut part);
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("BNN inference worker panicked"))
                .collect()
        });
        Tensor::from_vec(Shape::matrix(n, classes), parts.concat())
    }

    /// Creates a reusable single-thread block-inference stream: the
    /// producer side of the overlapped stage-graph executor. See
    /// [`BnnBlockStream`].
    pub fn block_stream(&self) -> BnnBlockStream<'_> {
        BnnBlockStream {
            hw: self,
            ctx: HwInferCtx::default(),
            names: self.stage_span_names(),
        }
    }

    /// Stable per-stage span names: `bnn.stage<i>.<kind>`.
    fn stage_span_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| format!("bnn.stage{i}.{}", stage.kind_name()))
            .collect()
    }

    /// Runs a contiguous run of images (raw `C·H·W` planes) through the
    /// accelerator, appending `classes` float scores per image to `out`.
    /// All scratch state (activation maps, lane buffers) lives in `ctx`,
    /// so repeated calls on one context are allocation-free in steady
    /// state. With `obs` present, every stage's wall time is recorded as
    /// a span (the names indexed by global stage position): the first
    /// engine's block compute as [`SPAN_FIRST_CONV_BLOCK`], and each
    /// image's stage-0 map hand-off (copy or fused OR-pool) under the
    /// stage-0 name, so every `bnn.stage<i>.<kind>` counts one span per
    /// image. The `BinConv` engines run on `tier`.
    fn infer_range_inner(
        &self,
        images: &[f32],
        ctx: &mut HwInferCtx,
        obs: Option<(&dyn Recorder, &[String])>,
        tier: Tier,
        out: &mut Vec<f32>,
    ) {
        let HwStage::FirstConv {
            thresholds,
            kernel,
            pool,
            ..
        } = &self.stages[0]
        else {
            unreachable!("checked construction puts a FirstConv first");
        };
        let (h, w) = (self.topology.height(), self.topology.width());
        let image_len = self.topology.channels() * h * w;
        let (od, oh, ow) = (thresholds.len(), h - kernel + 1, w - kernel + 1);
        let plane = oh * ow * od.div_ceil(64);
        let HwInferCtx {
            scratch,
            qt,
            block_maps,
        } = ctx;
        out.reserve(images.len() / image_len * self.topology.classes());
        for block in images.chunks(IMG_BLOCK * image_len) {
            let t0 = obs.map(|_| now_ns());
            self.first_conv_block(thresholds, *kernel, block, qt, block_maps);
            if let (Some((rec, _)), Some(start)) = (obs, t0) {
                rec.record_span(SPAN_FIRST_CONV_BLOCK, start, now_ns());
            }
            for i in 0..block.len() / image_len {
                let tc = obs.map(|_| now_ns());
                let map = &block_maps[i * plane..(i + 1) * plane];
                let mut dims = (od, oh, ow);
                if *pool {
                    dims = or_pool_words(map, dims, &mut scratch.map);
                } else {
                    scratch.map.clear();
                    scratch.map.extend_from_slice(map);
                }
                if let (Some((rec, names)), Some(start)) = (obs, tc) {
                    rec.record_span(&names[0], start, now_ns());
                }
                self.infer_tail(dims, scratch, out, obs, tier);
            }
        }
    }

    /// First-engine pass over a block of `b <= IMG_BLOCK` images,
    /// writing each image's channel-packed output map (before pooling)
    /// into `block_maps`.
    ///
    /// The quantised planes are stored transposed (`qt[pixel][image]`),
    /// so each tap of the `2 * pos_sum - total` dot (see
    /// [`FirstConvPlan`]) is one contiguous `IMG_BLOCK`-lane integer add
    /// that the compiler vectorises across images. The i32 lanes are
    /// exact: |q| <= 128, so every partial sum is bounded by
    /// `fan_in * 128`, far inside i32 range (checked at construction) —
    /// bit-identical to the i64 reference path.
    fn first_conv_block(
        &self,
        thresholds: &[HwThreshold],
        k: usize,
        images: &[f32],
        qt: &mut Vec<i32>,
        block_maps: &mut Vec<u64>,
    ) {
        let plan = &self.first_plan;
        let (h, w) = (self.topology.height(), self.topology.width());
        let (oh, ow) = (h - k + 1, w - k + 1);
        let image_len = self.topology.channels() * h * w;
        let b = images.len() / image_len;
        let ocw = thresholds.len().div_ceil(64);
        let plane = oh * ow * ocw;
        qt.clear();
        qt.resize(image_len * IMG_BLOCK, 0);
        for i in 0..b {
            let src = &images[i * image_len..(i + 1) * image_len];
            for (p, &x) in src.iter().enumerate() {
                qt[p * IMG_BLOCK + i] = Self::quantize_pixel(x) as i32;
            }
        }
        block_maps.clear();
        block_maps.resize(b * plane, 0);
        for oy in 0..oh {
            for ox in 0..ow {
                let p0 = oy * w + ox;
                let mut total = [0i32; IMG_BLOCK];
                for &d in &plan.all {
                    let src = &qt[(p0 + d as usize) * IMG_BLOCK..][..IMG_BLOCK];
                    for (t, &x) in total.iter_mut().zip(src) {
                        *t += x;
                    }
                }
                let pix = (oy * ow + ox) * ocw;
                for (oc, t) in thresholds.iter().enumerate() {
                    let taps =
                        &plan.pos[plan.pos_start[oc] as usize..plan.pos_start[oc + 1] as usize];
                    let mut pos_sum = [0i32; IMG_BLOCK];
                    for &d in taps {
                        let src = &qt[(p0 + d as usize) * IMG_BLOCK..][..IMG_BLOCK];
                        for (s, &x) in pos_sum.iter_mut().zip(src) {
                            *s += x;
                        }
                    }
                    let (word, bit) = (pix + oc / 64, oc % 64);
                    for i in 0..b {
                        let dot = 2 * pos_sum[i] - total[i];
                        block_maps[i * plane + word] |= u64::from(t.fires(i64::from(dot))) << bit;
                    }
                }
            }
        }
    }

    /// Runs the engines after the first through one image's
    /// channel-packed map (`scratch.map`, `dims` = `(c, h, w)`),
    /// computing every accumulation [`Self::infer_image`] computes, so
    /// results are bit-identical.
    ///
    /// Channel `ch` of pixel `(y, x)` is bit `ch % 64` of word
    /// `(y·w + x)·⌈c/64⌉ + ch/64`, padding bits zero. A `BinConv` patch
    /// is then `k` runs of `k·⌈c/64⌉` contiguous map words, in the
    /// `(ky, kx, ch)` order of the repacked weights, and its dot is
    /// `fan_in − 2·Σ popcount(w ^ x)`: padding bits are zero in both
    /// operands, and an integer sum does not depend on the order of the
    /// `(ch, ky, kx)` → `(ky, kx, ch)` permutation. `BinConv` engines run
    /// on `tier` (see [`PackedConv::run`]). The last map is unpacked once
    /// into the reference `(ch, y, x)` bit order for the FC engines.
    fn infer_tail(
        &self,
        dims: (usize, usize, usize),
        scratch: &mut HwScratch,
        scores_out: &mut Vec<f32>,
        obs: Option<(&dyn Recorder, &[String])>,
        tier: Tier,
    ) {
        let HwScratch {
            map,
            next,
            patch,
            fc_out,
            fc_in,
            acc,
        } = scratch;
        // `Some` while the activations are still a packed map.
        let mut map_dims = Some(dims);
        let mut convs = self.convs.iter();
        for (si, stage) in self.stages.iter().enumerate().skip(1) {
            let t0 = obs.map(|_| now_ns());
            match stage {
                HwStage::FirstConv { .. } => {
                    unreachable!("checked construction allows one FirstConv, first")
                }
                HwStage::BinConv { pool, .. } => {
                    let conv = convs
                        .next()
                        .expect("checked construction packs every BinConv");
                    let dims = map_dims.expect("checked construction puts convs first");
                    let mut out_dims = conv.run(tier, map, dims, patch, next);
                    std::mem::swap(map, next);
                    if *pool {
                        out_dims = or_pool_words(map, out_dims, next);
                        std::mem::swap(map, next);
                    }
                    map_dims = Some(out_dims);
                }
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => {
                    if let Some(dims) = map_dims.take() {
                        unpack_map(map, dims, fc_in);
                    }
                    // Threshold comparison fused into the accumulate loop:
                    // each ×4 popcount lane feeds its comparator directly.
                    fc_out.clear();
                    weights.xnor_matvec_for_each(fc_in, |r, dot| {
                        fc_out.push(thresholds[r].fires(i64::from(dot)));
                    });
                    fc_in.refill_from_bools(fc_out);
                }
                HwStage::OutputFc { weights } => {
                    if let Some(dims) = map_dims.take() {
                        unpack_map(map, dims, fc_in);
                    }
                    weights.xnor_matvec_into(fc_in, acc);
                    scores_out.extend(acc.iter().take(self.topology.classes()).map(|&s| s as f32));
                }
            }
            if let (Some((rec, names)), Some(start)) = (obs, t0) {
                rec.record_span(&names[si], start, now_ns());
            }
        }
    }
}

/// How many images the first engine processes per SIMD block in
/// [`HardwareBnn::infer_batch_with`] (the lane count of its transposed
/// integer accumulators).
const IMG_BLOCK: usize = 8;

/// Span: the first engine's compute over one block of up to
/// [`IMG_BLOCK`] images (one span per block, not per image).
const SPAN_FIRST_CONV_BLOCK: &str = "bnn.stage0.first_conv_block";

/// Tap-offset tables for the first engine: the ±1 dot of a patch is
/// `2 * (sum at positive-weight taps) - (sum over all taps)`, so each
/// output channel is a sparse gather-sum over the quantised image plane.
/// Depends only on the weights and the topology, so it is built once at
/// construction.
#[derive(Debug, Clone, Default)]
struct FirstConvPlan {
    /// Offsets of every patch tap relative to the window origin.
    all: Vec<u32>,
    /// Positive-weight tap offsets, concatenated per output channel.
    pos: Vec<u32>,
    /// Range bounds into `pos` per output channel (`od + 1` entries).
    pos_start: Vec<u32>,
}

impl FirstConvPlan {
    /// Builds the plan for first-engine `weights` over `(c, h, w)` images
    /// with a `k`×`k` kernel.
    fn new(weights: &BitMatrix, (c, h, w): (usize, usize, usize), k: usize) -> Self {
        let mut plan = Self::default();
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    plan.all.push((ch * h * w + ky * w + kx) as u32);
                }
            }
        }
        plan.pos_start.push(0);
        for r in 0..weights.num_rows() {
            let row = weights.row(r);
            for (i, &d) in plan.all.iter().enumerate() {
                if row.get(i) {
                    plan.pos.push(d);
                }
            }
            plan.pos_start.push(plan.pos.len() as u32);
        }
        plan
    }
}

/// Reusable per-thread scratch for [`HardwareBnn::infer_batch_with`].
#[derive(Debug)]
struct HwScratch {
    /// Current channel-packed activation map.
    map: Vec<u64>,
    /// Next channel-packed activation map (swapped each stage).
    next: Vec<u64>,
    /// One `BinConv` im2col patch: `k` runs of `k·⌈c/64⌉` map words.
    patch: Vec<u64>,
    /// Threshold outputs of an inner FC engine.
    fc_out: Vec<bool>,
    /// Bit-packed FC input vector.
    fc_in: BitVec,
    /// Integer accumulator row for the output engine.
    acc: Vec<i32>,
}

impl Default for HwScratch {
    fn default() -> Self {
        Self {
            map: Vec::new(),
            next: Vec::new(),
            patch: Vec::new(),
            fc_out: Vec::new(),
            fc_in: BitVec::zeros(0),
            acc: Vec::new(),
        }
    }
}

/// Reusable per-thread inference context: every scratch buffer. Built
/// once per shard or [`BnnBlockStream`] so steady-state block inference
/// performs no heap allocation.
#[derive(Debug, Default)]
struct HwInferCtx {
    scratch: HwScratch,
    /// Transposed quantised pixel lanes (`qt[pixel][image]`).
    qt: Vec<i32>,
    /// First-engine output maps for the whole block, channel-packed.
    block_maps: Vec<u64>,
}

/// A reusable single-thread block-inference stream: the FPGA side of the
/// overlapped stage-graph executor (`Concurrency::Threaded`).
///
/// Holds the per-stage span names and all scratch buffers across calls,
/// so inferring block after block of one workload is allocation-free in
/// steady state. Scores land in a caller-owned buffer and are
/// bit-identical per image to [`HardwareBnn::infer_batch`] — batching
/// never changes results.
pub struct BnnBlockStream<'a> {
    hw: &'a HardwareBnn,
    ctx: HwInferCtx,
    names: Vec<String>,
}

impl BnnBlockStream<'_> {
    /// Runs images `start..end` of a `[N, C, H, W]` batch through the
    /// accelerator, replacing the contents of `out` with
    /// `(end - start) * classes` float scores. With `rec` enabled,
    /// per-stage spans are recorded exactly as
    /// [`HardwareBnn::infer_batch_obs`] records them.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology
    /// or the range falls outside it.
    pub fn infer_block_into(
        &mut self,
        images: &Tensor,
        start: usize,
        end: usize,
        rec: &dyn Recorder,
        out: &mut Vec<f32>,
    ) -> Result<(), ShapeError> {
        let shape = images.shape();
        let topo = self.hw.topology();
        let (c, h, w) = (topo.channels(), topo.height(), topo.width());
        if shape.rank() != 4 || (shape.dim(1), shape.dim(2), shape.dim(3)) != (c, h, w) {
            return Err(ShapeError::new(
                "BnnBlockStream::infer_block_into",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let n = shape.dim(0);
        if start > end || end > n {
            return Err(ShapeError::new(
                "BnnBlockStream::infer_block_into",
                format!("image range {start}..{end} outside batch of {n}"),
            ));
        }
        let image_len = c * h * w;
        let obs_ref: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            Some((rec, self.names.as_slice()))
        } else {
            None
        };
        out.clear();
        let slice = &images.as_slice()[start * image_len..end * image_len];
        self.hw.infer_range_inner(
            slice,
            &mut self.ctx,
            obs_ref,
            Tier::detected(Family::Popcount),
            out,
        );
        Ok(())
    }
}

/// 2×2 OR pooling over binary activations (`max` of ±1 values).
fn or_pool(bits: &[bool], (c, h, w): (usize, usize, usize)) -> (Vec<bool>, (usize, usize, usize)) {
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![false; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut v = false;
                for ky in 0..2 {
                    for kx in 0..2 {
                        v |= bits[(ch * h + 2 * oy + ky) * w + 2 * ox + kx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = v;
            }
        }
    }
    (out, (c, oh, ow))
}

/// 2×2 OR pooling over a channel-packed map: each output pixel's words
/// are the OR of its four input pixels' words.
fn or_pool_words(
    map: &[u64],
    (c, h, w): (usize, usize, usize),
    out: &mut Vec<u64>,
) -> (usize, usize, usize) {
    let (cw, oh, ow) = (c.div_ceil(64), h / 2, w / 2);
    out.clear();
    for oy in 0..oh {
        for ox in 0..ow {
            let top = (2 * oy * w + 2 * ox) * cw;
            let bottom = top + w * cw;
            for j in 0..cw {
                out.push(map[top + j] | map[top + cw + j] | map[bottom + j] | map[bottom + cw + j]);
            }
        }
    }
    (c, oh, ow)
}

/// Unpacks a channel-packed `(c, h, w)` map into `out` in the reference
/// `(ch, y, x)` bit order of the FC engines' input vector.
fn unpack_map(map: &[u64], (c, h, w): (usize, usize, usize), out: &mut BitVec) {
    let (cw, hw) = (c.div_ceil(64), h * w);
    out.refill_with(c * hw, |i| {
        let (ch, p) = (i / hw, i % hw);
        map[p * cw + ch / 64] >> (ch % 64) & 1 == 1
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_nn::train::Model;
    use mp_tensor::init::TensorRng;

    fn trained_tiny(seed: u64) -> BnnClassifier {
        use mp_nn::Mode;
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        // A few training-mode forwards to populate batch-norm statistics.
        for _ in 0..4 {
            let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        bnn
    }

    #[test]
    fn threshold_fold_semantics() {
        // Positive gamma: fires when acc >= ceil(t).
        let t = HwThreshold::fold(2.3, false, 1.0);
        assert!(!t.fires(2));
        assert!(t.fires(3));
        // Negative gamma: fires when acc <= floor(t).
        let t = HwThreshold::fold(2.3, true, 1.0);
        assert!(t.fires(2));
        assert!(!t.fires(3));
        // Integer threshold boundary is inclusive for >=.
        let t = HwThreshold::fold(2.0, false, 1.0);
        assert!(t.fires(2));
    }

    #[test]
    fn threshold_fold_handles_degenerate_gamma() {
        let always = HwThreshold::fold(f32::NEG_INFINITY, false, 1.0);
        assert!(always.fires(i64::MIN + 1) && always.fires(0));
        let never = HwThreshold::fold(f32::INFINITY, false, 1.0);
        assert!(!never.fires(i64::MAX - 1) && !never.fires(0));
    }

    #[test]
    fn quantize_pixel_grid() {
        assert_eq!(HardwareBnn::quantize_pixel(0.0), 0);
        assert_eq!(HardwareBnn::quantize_pixel(1.0), 64);
        assert_eq!(HardwareBnn::quantize_pixel(-1.0), -64);
        assert_eq!(HardwareBnn::quantize_pixel(100.0), 128); // clamped to ±2
        assert_eq!(HardwareBnn::quantize_pixel(-100.0), -128);
    }

    #[test]
    fn or_pool_is_max_of_signs() {
        let bits = vec![
            false, false, true, false, // 2×4 plane, channel 0
            false, false, false, false,
        ];
        let (out, dims) = or_pool(&bits, (1, 2, 4));
        assert_eq!(dims, (1, 1, 2));
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn export_and_infer_shapes() {
        let bnn = trained_tiny(70);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(71);
        let img = rng.normal(Shape::nchw(1, 3, 8, 8), 0.0, 1.0);
        let scores = hw.infer_image(&img).unwrap();
        assert_eq!(scores.len(), 10);
        let batch = rng.normal(Shape::nchw(3, 3, 8, 8), 0.0, 1.0);
        let t = hw.infer_batch(&batch).unwrap();
        assert_eq!(t.shape().dims(), &[3, 10]);
    }

    #[test]
    fn batched_path_is_bit_identical_to_reference_across_threads() {
        let bnn = trained_tiny(80);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(81);
        for n in [1usize, 4, 7] {
            let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
            let reference = hw.infer_batch(&batch).unwrap();
            for threads in [1usize, 2, 5] {
                let got = hw
                    .infer_batch_with(&batch, mp_tensor::Parallelism::new(threads))
                    .unwrap();
                assert_eq!(reference.shape(), got.shape());
                assert_eq!(reference.as_slice(), got.as_slice());
            }
        }
    }

    #[test]
    fn block_stream_matches_infer_batch_across_splits() {
        let bnn = trained_tiny(80);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(84);
        let n = 21;
        let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        let reference = hw.infer_batch(&batch).unwrap();
        // One stream reused across every split: exercises plan + scratch
        // reuse across block sizes that straddle IMG_BLOCK and n.
        let mut stream = hw.block_stream();
        let mut scores = Vec::new();
        for block in [1usize, 3, IMG_BLOCK, 10, n, n + 5] {
            let mut got = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + block).min(n);
                stream
                    .infer_block_into(&batch, start, end, &mp_obs::NULL_RECORDER, &mut scores)
                    .unwrap();
                got.extend_from_slice(&scores);
                start = end;
            }
            assert_eq!(got.as_slice(), reference.as_slice(), "block={block}");
        }
        // Empty range is well-formed and clears the output buffer.
        stream
            .infer_block_into(&batch, 5, 5, &mp_obs::NULL_RECORDER, &mut scores)
            .unwrap();
        assert!(scores.is_empty());
        // Out-of-bounds and inverted ranges are rejected.
        assert!(stream
            .infer_block_into(&batch, 0, n + 1, &mp_obs::NULL_RECORDER, &mut scores)
            .is_err());
        assert!(stream
            .infer_block_into(&batch, 4, 2, &mp_obs::NULL_RECORDER, &mut scores)
            .is_err());
    }

    #[test]
    fn stage_spans_count_one_per_image_and_first_conv_blocks_per_shard() {
        let bnn = trained_tiny(85);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(86);
        let n = 19;
        let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        let reference = hw.infer_batch(&batch).unwrap();
        for threads in [1usize, 3] {
            let par = mp_tensor::Parallelism::new(threads);
            let rec = mp_obs::SharedRecorder::new();
            let got = hw.infer_batch_obs(&batch, par, &rec).unwrap();
            assert_eq!(got.as_slice(), reference.as_slice());
            let untraced = hw
                .infer_batch_obs(&batch, par, &mp_obs::NULL_RECORDER)
                .unwrap();
            assert_eq!(untraced.as_slice(), reference.as_slice());
            let blocks: usize = par
                .chunks(n)
                .iter()
                .map(|&(start, end)| (end - start).div_ceil(IMG_BLOCK))
                .sum();
            let spans = rec.report().spans;
            let stage_names = hw.stage_span_names();
            assert_eq!(spans.len(), stage_names.len() + 1, "threads={threads}");
            for s in &spans {
                let want = if s.name == SPAN_FIRST_CONV_BLOCK {
                    blocks
                } else {
                    assert!(stage_names.contains(&s.name), "{}", s.name);
                    n
                };
                assert_eq!(s.count, want as u64, "{} threads={threads}", s.name);
            }
        }
    }

    /// `HardwareBnn`'s JSON value with `edit` applied to stage `stage`'s
    /// externally tagged `(variant, payload)` pair.
    fn forged(hw: &HardwareBnn, stage: usize, edit: impl FnOnce(&mut String, &mut Value)) -> Value {
        let mut value = hw.to_value();
        let Value::Map(fields) = &mut value else {
            panic!("HardwareBnn serialises to an object")
        };
        let (_, Value::Seq(stages)) = fields.iter_mut().find(|(k, _)| k == "stages").unwrap()
        else {
            panic!("stages is an array")
        };
        let Value::Map(tagged) = &mut stages[stage] else {
            panic!("stages are tagged objects")
        };
        let (variant, payload) = &mut tagged[0];
        edit(variant, payload);
        value
    }

    fn payload_field<'a>(payload: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Map(fields) = payload else {
            panic!("stage payload is an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    #[test]
    fn serialises_topology_and_stages_only_and_round_trips() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        let value = hw.to_value();
        let Value::Map(fields) = &value else {
            panic!("HardwareBnn serialises to an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["topology", "stages"]);
        let back = HardwareBnn::from_value(&value).unwrap();
        assert_eq!(back.to_value(), value);
        let mut rng = TensorRng::seed_from(88);
        let batch = rng.normal(Shape::nchw(3, 3, 8, 8), 0.0, 1.0);
        let par = mp_tensor::Parallelism::new(2);
        assert_eq!(
            back.infer_batch_with(&batch, par).unwrap().as_slice(),
            hw.infer_batch_with(&batch, par).unwrap().as_slice()
        );
    }

    #[test]
    fn deserialize_rejects_forged_stages() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(89)).unwrap();
        // One BinConv threshold removed: the batch path would index
        // past the thresholds.
        let missing_threshold = forged(&hw, 1, |_, payload| {
            let Value::Seq(t) = payload_field(payload, "thresholds") else {
                panic!("thresholds is an array")
            };
            t.pop();
        });
        // A well-formed weight matrix one column too wide for its engine.
        let wrong_cols = forged(&hw, 1, |_, payload| {
            let weights = payload_field(payload, "weights");
            let m = BitMatrix::from_value(weights).unwrap();
            let (rows, cols) = (m.num_rows(), m.num_cols() + 1);
            *weights = BitMatrix::from_signs(rows, cols, &vec![1.0; rows * cols]).to_value();
        });
        // A second FirstConv in place of the BinConv: shapes all match,
        // only the stage order is wrong.
        let out_of_order = forged(&hw, 1, |variant, _| *variant = "FirstConv".to_owned());
        for (value, want) in [
            (missing_threshold, "thresholds"),
            (wrong_cols, "weights are"),
            (out_of_order, "stage 1 is first_conv"),
        ] {
            let err = HardwareBnn::from_value(&value).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    /// `hw` with every `BinConv` threshold redrawn: a random `negate` and
    /// a bound within `±√fan_in` of zero, where the dot of random signs
    /// concentrates, so every row fires on some patches and not on others
    /// and the bound's edges are hit at both parities.
    fn with_random_bin_conv_thresholds(hw: &HardwareBnn, rng: &mut TensorRng) -> HardwareBnn {
        let mut stages = hw.stages.clone();
        for stage in &mut stages {
            if let HwStage::BinConv {
                weights,
                thresholds,
                ..
            } = stage
            {
                let spread = (weights.num_cols() as f64).sqrt() as usize;
                for t in thresholds.iter_mut() {
                    t.bound = rng.next_index(2 * spread + 1) as i64 - spread as i64;
                    t.negate = rng.next_bool(0.5);
                }
            }
        }
        HardwareBnn::checked(hw.topology.clone(), stages).unwrap()
    }

    /// Batch-path scores of `images` with the `BinConv` engines on `tier`.
    fn batch_scores_on(hw: &HardwareBnn, images: &Tensor, tier: Tier) -> Vec<f32> {
        let mut scores = Vec::new();
        let mut ctx = HwInferCtx::default();
        hw.infer_range_inner(images.as_slice(), &mut ctx, None, tier, &mut scores);
        scores
    }

    #[test]
    fn every_supported_tier_matches_infer_image_and_the_portable_tier() {
        let mut rng = TensorRng::seed_from(90);
        // The paper topology, whose maps fill whole 8-row groups, and one
        // of 70-channel maps: a partial last group (rows 64..70 of group
        // 8, rows 70..72 never fire) and two words per pixel.
        let seventy = FinnTopology::new(
            3,
            12,
            12,
            vec![8, 70, 70, 70],
            vec![false, false, true, false],
            vec![16, 16],
            10,
        );
        for (topo, n) in [(FinnTopology::paper(), 3), (seventy, 6)] {
            let bnn = BnnClassifier::new(topo.clone(), &mut rng).unwrap();
            let hw = HardwareBnn::from_classifier(&bnn).unwrap();
            let hw = with_random_bin_conv_thresholds(&hw, &mut rng);
            let images = rng.normal(Shape::nchw(n, 3, topo.height(), topo.width()), 0.0, 1.0);
            let mut reference = Vec::new();
            for i in 0..n {
                let scores = hw.infer_image(&images.batch_item(i).unwrap()).unwrap();
                reference.extend(scores.iter().map(|&s| s as f32));
            }
            let portable = batch_scores_on(&hw, &images, Tier::Portable);
            assert_eq!(portable, reference, "portable tier, {}", topo.height());
            for tier in Tier::supported(Family::Popcount) {
                let got = batch_scores_on(&hw, &images, tier);
                assert_eq!(got, reference, "{tier:?} vs infer_image, {}", topo.height());
                assert_eq!(got, portable, "{tier:?} vs portable, {}", topo.height());
            }
        }
    }

    #[test]
    fn batched_path_rejects_mismatched_batch_shape() {
        let bnn = trained_tiny(82);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(83);
        let bad = rng.normal(Shape::nchw(2, 3, 4, 4), 0.0, 1.0);
        assert!(hw
            .infer_batch_with(&bad, mp_tensor::Parallelism::sequential())
            .is_err());
    }

    #[test]
    fn hardware_matches_float_classifier() {
        // On inputs already on the fixed-point grid, the first stage is
        // exact, so hardware and float paths must agree (up to f32
        // borderline rounding in thresholds, which is measure-zero here).
        let mut bnn = trained_tiny(72);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(73);
        let n = 24;
        let raw = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        let quantised = raw.map(|x| HardwareBnn::quantize_pixel(x) as f32 / INPUT_QUANT_SCALE);
        let float_scores = bnn.infer(&quantised).unwrap();
        let float_preds = mp_nn::Network::argmax_rows(&float_scores).unwrap();
        let mut agree = 0;
        #[allow(clippy::needless_range_loop)] // i selects both image and prediction
        for i in 0..n {
            let img = quantised.batch_item(i).unwrap();
            let hw_pred = hw.classify(&img).unwrap();
            if hw_pred == float_preds[i] {
                agree += 1;
            }
        }
        assert!(
            agree >= n - 1,
            "hardware and float paths disagree on {}/{n} images",
            n - agree
        );
    }

    #[test]
    fn hardware_scores_match_float_scores_exactly_on_grid_inputs() {
        let mut bnn = trained_tiny(74);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(75);
        let raw = rng.normal(Shape::nchw(4, 3, 8, 8), 0.0, 1.0);
        let quantised = raw.map(|x| HardwareBnn::quantize_pixel(x) as f32 / INPUT_QUANT_SCALE);
        // Float classifier scores are scaled by 1/sqrt(fan_in); undo it.
        let float_scores = bnn.infer(&quantised).unwrap();
        let fan_in = bnn.topology().fc_sizes()[bnn.topology().fc_sizes().len() - 2] as f32;
        let mut exact = 0;
        let total = 4 * 10;
        for i in 0..4 {
            let img = quantised.batch_item(i).unwrap();
            let hw_scores = hw.infer_image(&img).unwrap();
            for (j, &s) in hw_scores.iter().enumerate() {
                let f = float_scores.as_slice()[i * 10 + j] * fan_in.sqrt();
                if (f - s as f32).abs() < 0.5 {
                    exact += 1;
                }
            }
        }
        assert!(
            exact as f32 >= total as f32 * 0.9,
            "only {exact}/{total} scores match"
        );
    }

    #[test]
    fn rejects_wrong_image_shape() {
        let bnn = trained_tiny(76);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        assert!(hw
            .infer_image(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .is_err());
        assert!(hw
            .infer_image(&Tensor::zeros(Shape::nchw(2, 3, 8, 8)))
            .is_err());
    }

    #[test]
    fn output_parity_matches_xnor_arithmetic() {
        // Final engine scores are ±1 dots of fan_in entries: parity fixed.
        let bnn = trained_tiny(77);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(78);
        let img = rng.normal(Shape::nchw(1, 3, 8, 8), 0.0, 1.0);
        let scores = hw.infer_image(&img).unwrap();
        let fan_in = bnn.topology().fc_sizes()[bnn.topology().fc_sizes().len() - 2] as i64;
        for &s in &scores {
            assert_eq!((s - fan_in).rem_euclid(2), 0, "score {s} has wrong parity");
        }
    }
}

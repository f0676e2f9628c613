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
use mp_tensor::simd::{Family, LaneLadder, LaneWeights, Tier};
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

    /// The `i32` lane key of this threshold over the lane sum `S` of an
    /// engine whose accumulation is `acc = α·S − β` (`α ≥ 1`): it fires
    /// iff `(S > key) ^ negate`, the `(key, negate)` pair a
    /// `mp_tensor::simd::LaneLadder` compares.
    /// `acc ≥ b ⟺ S ≥ ⌈(b + β)/α⌉ ⟺ S > ⌈(b + β)/α⌉ − 1` and
    /// `acc ≤ b ⟺ S ≤ ⌊(b + β)/α⌋ ⟺ ¬(S > ⌊(b + β)/α⌋)`, computed in
    /// `i128` because `b` may be `i64::MIN`/`i64::MAX`. For
    /// `|S| ≤ i32::MAX`, clamping the key to the `i32` range keeps an
    /// out-of-range bound always or never firing.
    pub fn fold_key(&self, alpha: i64, beta: i64) -> (i32, bool) {
        debug_assert!(alpha >= 1, "α = {alpha}");
        let (v, alpha) = (i128::from(self.bound) + i128::from(beta), i128::from(alpha));
        let key = if self.negate {
            v.div_euclid(alpha)
        } else {
            (v + alpha - 1).div_euclid(alpha) - 1
        };
        let key = key.clamp(i128::from(i32::MIN), i128::from(i32::MAX));
        (
            i32::try_from(key).expect("clamped to the i32 range"),
            self.negate,
        )
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
        // The first engine's i32 lanes hold partial sums of up to
        // `fan_in` ±1-weighted pixels of magnitude ≤ 128 (see
        // `FirstLanes`).
        if i == 0 && cols > (i32::MAX / 128) as usize {
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
    /// The first engine in the integer lane layout, built at
    /// construction.
    first: FirstLanes,
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
        let mut first = None;
        let mut convs = Vec::new();
        for stage in &stages {
            match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    ..
                } => first = Some(FirstLanes::new(weights, thresholds, *in_channels, *kernel)?),
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
        let first = first.ok_or_else(|| ShapeError::new("HardwareBnn", "no first engine"))?;
        Ok(Self {
            topology,
            stages,
            first,
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

    /// Quantises one pixel to the first engine's fixed-point grid:
    /// `round(clamp(x)·64)`, halves away from zero.
    pub fn quantize_pixel(x: f32) -> i64 {
        let y = x.clamp(-INPUT_QUANT_RANGE, INPUT_QUANT_RANGE) * INPUT_QUANT_SCALE;
        // `f32::round` without its libm call: `y` is an `f32` of
        // magnitude ≤ 128, so `|y| + 0.5` in `f64` rounds only where it
        // lies far below the next integer, and truncating it rounds `|y|`
        // half up.
        let magnitude = (f64::from(y).abs() + 0.5) as i64;
        if y < 0.0 {
            -magnitude
        } else {
            magnitude
        }
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
    /// engine runs `mp_tensor::simd`'s channel-lane pair kernel over
    /// each image's `i16` pixels and stores each pixel's threshold
    /// compare mask as its channel-packed map word. Every binary map
    /// stays channel-packed between engines, so each `BinConv` patch is
    /// `k` runs of contiguous words dotted against weights repacked once
    /// at construction. Integer arithmetic keeps every accumulation
    /// exact.
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
        let tiers = Tiers::detected();
        if chunks.len() <= 1 {
            let mut scratch = HwScratch::default();
            let mut data = Vec::with_capacity(n * classes);
            self.infer_range_inner(xv, &mut scratch, obs_ref, tiers, &mut data);
            return Tensor::from_vec(Shape::matrix(n, classes), data);
        }
        let parts: Vec<Vec<f32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(start, end)| {
                    let slice = &xv[start * image_len..end * image_len];
                    scope.spawn(move || {
                        let mut scratch = HwScratch::default();
                        let mut part = Vec::new();
                        self.infer_range_inner(slice, &mut scratch, obs_ref, tiers, &mut part);
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
            scratch: HwScratch::default(),
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
    /// All scratch state (pixel lanes, activation maps) lives in
    /// `scratch`, so repeated calls on one scratch are allocation-free in
    /// steady state. With `obs` present, every stage's wall time is
    /// recorded as one span per image (the names indexed by stage
    /// position).
    fn infer_range_inner(
        &self,
        images: &[f32],
        scratch: &mut HwScratch,
        obs: Option<(&dyn Recorder, &[String])>,
        tiers: Tiers,
        out: &mut Vec<f32>,
    ) {
        let image_len = self.topology.channels() * self.topology.height() * self.topology.width();
        out.reserve(images.len() / image_len * self.topology.classes());
        for image in images.chunks_exact(image_len) {
            self.infer_packed(image, scratch, out, obs, tiers);
        }
    }

    /// Runs one image (its `C·H·W` pixels) through every engine,
    /// computing every accumulation [`Self::infer_image`] computes, so
    /// results are bit-identical.
    ///
    /// Binary activations stay a channel-packed map until the FC
    /// engines: channel `ch` of pixel `(y, x)` is bit `ch % 64` of word
    /// `(y·w + x)·⌈c/64⌉ + ch/64`, padding bits zero.
    ///
    /// - The first engine reads the pixels quantised to `i16` in
    ///   `(y, x, ch)` order, so a patch is `k` runs of `k·c` pixels, in
    ///   the `(ky, kx, ch)` order its ±1 weights were packed in
    ///   ([`FirstLanes`]). Per output row, one `LaneWeights::row_sums`
    ///   call sums every output channel of every pixel in `i32` lanes
    ///   on `tiers.int`, and the one-bound ladder's compare mask of each
    ///   pixel is its map word.
    /// - A `BinConv` patch is `k` runs of `k·⌈c/64⌉` contiguous map
    ///   words, in the `(ky, kx, ch)` order of the repacked weights, and
    ///   its dot is `fan_in − 2·Σ popcount(w ^ x)`: padding bits are
    ///   zero in both operands. `BinConv` engines run on
    ///   `tiers.popcount` (see [`PackedConv::run`]).
    /// - The last map is unpacked once into the reference `(ch, y, x)`
    ///   bit order for the FC engines.
    ///
    /// Both permutations are exact because an integer sum does not
    /// depend on its order.
    fn infer_packed(
        &self,
        image: &[f32],
        scratch: &mut HwScratch,
        scores_out: &mut Vec<f32>,
        obs: Option<(&dyn Recorder, &[String])>,
        tiers: Tiers,
    ) {
        let HwScratch {
            pixels,
            pairs,
            sums,
            map,
            next,
            patch,
            fc_out,
            fc_in,
            acc,
        } = scratch;
        let (c, h, w) = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        // `Some` while the activations are still a packed map.
        let mut map_dims = None;
        let mut convs = self.convs.iter();
        for (si, stage) in self.stages.iter().enumerate() {
            let t0 = obs.map(|_| now_ns());
            match stage {
                HwStage::FirstConv { kernel, pool, .. } => {
                    let FirstLanes { weights, ladder } = &self.first;
                    let k = *kernel;
                    Self::quantize_image(image, c, pixels);
                    let words = if *pool { &mut *next } else { &mut *map };
                    words.clear();
                    for oy in 0..h - k + 1 {
                        weights.row_sums(tiers.int, pixels, (c, w, k), oy, pairs, sums);
                        ladder.words(tiers.int, sums, weights.lanes(), words);
                    }
                    let mut dims = (weights.rows(), h - k + 1, w - k + 1);
                    if *pool {
                        dims = or_pool_words(next, dims, map);
                    }
                    map_dims = Some(dims);
                }
                HwStage::BinConv { pool, .. } => {
                    let conv = convs
                        .next()
                        .expect("checked construction packs every BinConv");
                    let dims = map_dims.expect("checked construction puts convs first");
                    let mut out_dims = conv.run(tiers.popcount, map, dims, patch, next);
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

    /// Quantises one image's `C·H·W` pixels with [`Self::quantize_pixel`]
    /// into `out` as `i16` in `(y, x, ch)` order: the pixel map whose
    /// patches the integer lane engines (this first engine and
    /// `mp-int`'s) gather. `|q| ≤ 128`, so every level is exact.
    pub fn quantize_image(image: &[f32], channels: usize, out: &mut Vec<i16>) {
        let hw = image.len() / channels;
        out.clear();
        out.resize(image.len(), 0);
        for (ch, plane) in image.chunks_exact(hw).enumerate() {
            for (p, &x) in plane.iter().enumerate() {
                out[p * channels + ch] = Self::quantize_pixel(x) as i16;
            }
        }
    }
}

/// The SIMD tiers one batch runs on: the first engine's integer lanes
/// and the `BinConv` popcount body. Each family has its own tier: a CPU
/// may run AVX-512 VNNI without VPOPCNTDQ.
#[derive(Debug, Clone, Copy)]
struct Tiers {
    int: Tier,
    popcount: Tier,
}

impl Tiers {
    /// The widest tier of each family the running CPU supports.
    fn detected() -> Self {
        Self {
            int: Tier::detected(Family::Int),
            popcount: Tier::detected(Family::Popcount),
        }
    }
}

/// The first engine in `mp_tensor::simd`'s channel-lane layout, built
/// once at construction: the ±1 weights as `i16` pairs with columns
/// reordered from the reference `(ch, ky, kx)` to `(ky, kx, ch)`, and
/// each threshold folded onto the lane sum (`acc = S`, so
/// [`HwThreshold::fold_key`] at α = 1, β = 0) as a one-bound ladder,
/// whose compare mask over a pixel's lanes is its channel-packed map
/// word. Rows past the output channels never fire, so padding bits stay
/// zero for the next `BinConv`. Pixels are `|q| ≤ 128`, so every partial
/// sum is bounded by `fan_in·128`, which `HwStage::check` keeps within
/// `i32`.
#[derive(Debug, Clone)]
struct FirstLanes {
    weights: LaneWeights<i16>,
    ladder: LaneLadder,
}

impl FirstLanes {
    /// Packs the first engine's `weights` (over `c` input channels and a
    /// `k×k` kernel) and folds its `thresholds`.
    fn new(
        weights: &BitMatrix,
        thresholds: &[HwThreshold],
        c: usize,
        k: usize,
    ) -> Result<Self, ShapeError> {
        let (rows, cols) = (weights.num_rows(), weights.num_cols());
        let signs: Vec<i64> = (0..rows)
            .flat_map(|r| (0..cols).map(move |i| if weights.row(r).get(i) { 1 } else { -1 }))
            .collect();
        let keys: Vec<(i32, bool)> = thresholds.iter().map(|t| t.fold_key(1, 0)).collect();
        Ok(Self {
            weights: LaneWeights::new(rows, (c, k * k), &signs)?,
            ladder: LaneLadder::new(rows, 1, &keys)?,
        })
    }
}

/// Reusable per-thread scratch for [`HardwareBnn::infer_batch_with`] and
/// [`BnnBlockStream`], so steady-state inference performs no heap
/// allocation.
#[derive(Debug)]
struct HwScratch {
    /// The image's quantised pixels, `(y, x, ch)`.
    pixels: Vec<i16>,
    /// One output row's first-engine patches.
    pairs: Vec<i16>,
    /// One output row's first-engine lane sums.
    sums: Vec<i32>,
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
            pixels: Vec::new(),
            pairs: Vec::new(),
            sums: Vec::new(),
            map: Vec::new(),
            next: Vec::new(),
            patch: Vec::new(),
            fc_out: Vec::new(),
            fc_in: BitVec::zeros(0),
            acc: Vec::new(),
        }
    }
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
    scratch: HwScratch,
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
        self.hw
            .infer_range_inner(slice, &mut self.scratch, obs_ref, Tiers::detected(), out);
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

    /// The folded keys must agree with `HwThreshold::fires` on
    /// `acc = α·S − β` for every lane sum `|S| ≤ i32::MAX`: bounds
    /// outside the `i32` range and degenerate always/never bounds, row-sum
    /// offsets of both signs and parities, sums at the edges of the lane
    /// range and on both sides of each key.
    #[test]
    fn folded_keys_match_the_i64_ladder() {
        let edges = [
            i64::MIN,
            i64::from(i32::MIN),
            i64::from(i32::MIN) + 1,
            -5,
            0,
            7,
            i64::from(i32::MAX),
            i64::from(i32::MAX) + 1,
            i64::MAX,
        ];
        let reach = 576 * 15 * 15;
        let cases = [
            (1, vec![0]),
            (2, vec![-reach, -1, 0, 1, 4, reach, i64::from(i32::MAX)]),
        ];
        for (alpha, betas) in cases {
            for &beta in &betas {
                for &bound in &edges {
                    for negate in [false, true] {
                        let t = HwThreshold { bound, negate };
                        let (key, flip) = t.fold_key(alpha, beta);
                        assert_eq!(flip, negate);
                        let mut sums = vec![
                            -i32::MAX,
                            -i32::MAX + 1,
                            -6,
                            -5,
                            -4,
                            0,
                            6,
                            7,
                            8,
                            i32::MAX - 1,
                            i32::MAX,
                        ];
                        sums.extend([key.saturating_sub(1), key, key.saturating_add(1)]);
                        for s in sums.into_iter().filter(|&s| s != i32::MIN) {
                            let acc = alpha * i64::from(s) - beta;
                            assert_eq!(
                                (s > key) ^ flip,
                                t.fires(acc),
                                "α {alpha} β {beta} bound {bound} negate {negate} S {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_pixel_grid() {
        assert_eq!(HardwareBnn::quantize_pixel(0.0), 0);
        assert_eq!(HardwareBnn::quantize_pixel(1.0), 64);
        assert_eq!(HardwareBnn::quantize_pixel(-1.0), -64);
        assert_eq!(HardwareBnn::quantize_pixel(100.0), 128); // clamped to ±2
        assert_eq!(HardwareBnn::quantize_pixel(-100.0), -128);
    }

    /// `quantize_pixel` rounds exactly as `f32::round` does: at every
    /// half step of the grid and the floats next to it, at the clamp
    /// edges, on tiny and non-finite inputs.
    #[test]
    fn quantize_pixel_rounds_like_f32_round() {
        let mut xs = vec![0.0, -0.0, 1e-30, -1e-30, f32::MIN_POSITIVE, f32::NAN];
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, 2.0, -2.0, 2.5, -2.5]);
        for half in -300..=300 {
            let x = half as f32 / 128.0;
            for d in -2i32..=2 {
                xs.push(f32::from_bits(x.to_bits().wrapping_add_signed(d)));
            }
        }
        for x in xs {
            let want = (x.clamp(-INPUT_QUANT_RANGE, INPUT_QUANT_RANGE) * INPUT_QUANT_SCALE).round();
            assert_eq!(HardwareBnn::quantize_pixel(x), want as i64, "x = {x:e}");
        }
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
        // One stream reused across every split: exercises scratch reuse
        // across block sizes up to and past n.
        let mut stream = hw.block_stream();
        let mut scores = Vec::new();
        for block in [1usize, 3, 8, 10, n, n + 5] {
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
    fn stage_spans_count_one_per_image() {
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
            let recorded: Vec<(String, u64)> = rec
                .report()
                .spans
                .into_iter()
                .map(|s| (s.name, s.count))
                .collect();
            let want: Vec<(String, u64)> = hw
                .stage_span_names()
                .into_iter()
                .map(|name| (name, n as u64))
                .collect();
            assert_eq!(recorded, want, "threads={threads}");
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

    /// `hw` with every convolution threshold redrawn: a random `negate`
    /// and a bound within `±√fan_in` of zero (times 64, the pixel scale,
    /// in the first engine), where the dot of random signs concentrates,
    /// so every row fires on some patches and not on others and the
    /// bound's edges are hit at both parities.
    fn with_random_conv_thresholds(hw: &HardwareBnn, rng: &mut TensorRng) -> HardwareBnn {
        let mut stages = hw.stages.clone();
        for stage in &mut stages {
            let (weights, thresholds, scale) = match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    ..
                } => (weights, thresholds, 64),
                HwStage::BinConv {
                    weights,
                    thresholds,
                    ..
                } => (weights, thresholds, 1),
                HwStage::BinFc { .. } | HwStage::OutputFc { .. } => continue,
            };
            let spread = (weights.num_cols() as f64).sqrt() as usize * scale;
            for t in thresholds.iter_mut() {
                t.bound = rng.next_index(2 * spread + 1) as i64 - spread as i64;
                t.negate = rng.next_bool(0.5);
            }
        }
        HardwareBnn::checked(hw.topology.clone(), stages).unwrap()
    }

    /// Batch-path scores of `images` on `tiers`.
    fn batch_scores_on(hw: &HardwareBnn, images: &Tensor, tiers: Tiers) -> Vec<f32> {
        let mut scores = Vec::new();
        let mut scratch = HwScratch::default();
        hw.infer_range_inner(images.as_slice(), &mut scratch, None, tiers, &mut scores);
        scores
    }

    #[test]
    fn every_supported_tier_matches_infer_image_and_the_portable_tier() {
        let mut rng = TensorRng::seed_from(90);
        // The paper topology, whose maps fill whole 8-row groups, and one
        // of 70-channel maps: two words per pixel, the second partial
        // (rows 70..128 of the first engine's lanes never fire), and a
        // partial last `BinConv` group (rows 64..70 of group 8, rows
        // 70..72 never fire).
        let seventy = FinnTopology::new(
            3,
            12,
            12,
            vec![70, 70, 70, 70],
            vec![false, false, true, false],
            vec![16, 16],
            10,
        );
        for (topo, n) in [(FinnTopology::paper(), 3), (seventy, 6)] {
            let bnn = BnnClassifier::new(topo.clone(), &mut rng).unwrap();
            let hw = HardwareBnn::from_classifier(&bnn).unwrap();
            let hw = with_random_conv_thresholds(&hw, &mut rng);
            let images = rng.normal(Shape::nchw(n, 3, topo.height(), topo.width()), 0.0, 1.0);
            let mut reference = Vec::new();
            for i in 0..n {
                let scores = hw.infer_image(&images.batch_item(i).unwrap()).unwrap();
                reference.extend(scores.iter().map(|&s| s as f32));
            }
            let portable = Tiers {
                int: Tier::Portable,
                popcount: Tier::Portable,
            };
            let portable = batch_scores_on(&hw, &images, portable);
            assert_eq!(portable, reference, "portable tiers, {}", topo.height());
            // The first engine on every int tier, the `BinConv` engines on
            // every popcount tier: the two families are detected apart.
            for int in Tier::supported(Family::Int) {
                for popcount in Tier::supported(Family::Popcount) {
                    let got = batch_scores_on(&hw, &images, Tiers { int, popcount });
                    let tiers = format!("{int:?}/{popcount:?}, {}", topo.height());
                    assert_eq!(got, reference, "{tiers} vs infer_image");
                    assert_eq!(got, portable, "{tiers} vs portable");
                }
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

//! The multi-precision integer inference network.
//!
//! [`QuantBnn`] is the `b`-bit generalisation of `mp_bnn::HardwareBnn`:
//! each layer runs at its own `(a_bits, w_bits) ∈ {1, 2, 4, 8}²`
//! precision (a [`NetworkPrecision`]), weights are quantized latent
//! floats packed into signed bit planes ([`PlaneMatrix`]), activations
//! are odd integer levels in `[−L, L]`, and every batch-norm + quantize
//! pair folds into a ladder of integer threshold comparisons
//! ([`LevelThresholds`]) — the multi-level FINN fold the paper's §II
//! describes for its partially-binarised variants.
//!
//! # Two datapaths, one accumulation
//!
//! [`QuantBnn::infer_image`] is the bit-serial hardware reference: every
//! dot product is `a_bits · w_bits` XNOR-popcount plane pairs recombined
//! by shift-add. [`QuantBnn::infer_batch_obs`] computes the same exact
//! integers with dense arithmetic: the planes encode
//! `q = Σ_p 2^p·s_p = 2u − L`, so
//! `Σ_p 2^p·Σ_i s_{p,i}·x_i = Σ_i q_i·x_i`.
//!
//! The dense path stores each activation as its level index
//! `u = (q + L_a)/2 ∈ [0, L_a]`, a `u8` in `(y, x, ch)` order, so a
//! convolution patch is `k` contiguous runs of the map. One pass of the
//! `mp_tensor::simd` lane kernel computes `S = Σ w·u` for every output
//! channel of a pixel in `i32` lanes (`u8 × i8` quads at `w_bits ≤ 4`,
//! `i16` pairs at 8-bit weights and for the pixel-fed first stage, whose
//! `|q| ≤ 128` inputs it reads whole), and `acc = 2·S − L_a·Σw`. Each
//! ladder bound is folded once, at construction, onto `S`: the row sum
//! moves into the key (`HwThreshold::fold_key`), so a ladder is a run of lane
//! compares whose fired count is the next stage's `u` directly. Because
//! `0 ≤ u ≤ L_a`, every partial sum of `S` is still bounded by
//! `fan_in·L_a·L_w`, which construction proves fits an `i32`, so scores
//! are bit-identical on every SIMD tier.
//!
//! # The 1-bit corner is the BNN
//!
//! At [`NetworkPrecision::one_bit`] every piece of this path degenerates
//! to the XNOR datapath by construction:
//!
//! - a 1-plane [`PlaneMatrix`] is the `BitMatrix` sign packing (weights
//!   quantize by sign, exactly like `binary_weight()`);
//! - a 1-level [`LevelThresholds`] is one [`HwThreshold`] whose bound is
//!   IEEE-bit-identical to `BatchNorm::fold_threshold` (the single
//!   boundary sits at `x = 0`, so `v₀ = μ − β·σ/γ` evaluates the same
//!   float expression);
//! - max-pooling over `{−1, +1}` levels is OR-pooling.
//!
//! The property tests pin this: `QuantBnn` at `one_bit` produces scores
//! bit-identical to `HardwareBnn`.
//!
//! # Score scale
//!
//! A `q_a·q_w` integer product at levels `(L_a, L_w)` represents the
//! real product scaled by `L_a·L_w`, so [`QuantBnn::infer_batch`]
//! divides the output accumulations by [`QuantBnn::scores_scale`] to
//! keep scores comparable across precisions (at 1 bit the scale is 1
//! and the scores equal the hardware integers).

use serde::{Deserialize, Error, Serialize, Value};

use mp_bnn::hardware::{HwThreshold, INPUT_QUANT_RANGE, INPUT_QUANT_SCALE};
use mp_bnn::planes::{levels, quantize_level, PlaneMatrix, PlaneVec};
use mp_bnn::{
    BnFold, BnnClassifier, EngineKind, EngineSpec, FinnTopology, HardwareBnn, LatentKind,
};
use mp_obs::{now_ns, Recorder};
use mp_tensor::simd::{Family, LaneLadder, LaneWeights, Tier};
use mp_tensor::{Parallelism, Shape, ShapeError, Tensor};

use crate::cost::CostLut;
use crate::precision::{NetworkPrecision, PrecisionSpec};

/// A folded multi-level activation for one output channel: the
/// `L' = 2^out_bits − 1` boundary comparisons that replace
/// `quantize(batch_norm(acc))`.
///
/// Boundary `u` separates level index `u` from `u + 1`; by
/// monotonicity of the batch-norm affine, the fired boundaries are
/// always a prefix (γ > 0) or suffix (γ < 0) of the ladder, so the
/// quantized activation is just the *count* of fired boundaries mapped
/// back to the odd-level grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelThresholds {
    bounds: Vec<HwThreshold>,
}

impl LevelThresholds {
    /// Folds one channel's batch-norm parameters into `2^out_bits − 1`
    /// integer bounds at accumulator scale `scale`.
    ///
    /// Boundary `u` of the quantizer sits at
    /// `x_u = 2·(u + 0.5)/L' − 1` in batch-norm output space; solving
    /// `γ·(y − μ)/σ + β ≥ x_u` for the pre-norm value `y = acc/scale`
    /// gives the integer comparison. Degenerate γ (constant β output)
    /// folds each boundary to always/never.
    pub fn from_fold(fold: &BnFold, out_bits: usize, scale: f32) -> Self {
        let lp = levels(out_bits);
        let degenerate = fold.gamma.abs() < f32::EPSILON;
        let negate = fold.gamma < 0.0;
        let bounds = (0..lp)
            .map(|u| {
                let x_u = 2.0 * (u as f32 + 0.5) / lp as f32 - 1.0;
                if degenerate {
                    let bound = if fold.beta >= x_u { i64::MIN } else { i64::MAX };
                    HwThreshold {
                        bound,
                        negate: false,
                    }
                } else {
                    let v_u = fold.mean + (x_u - fold.beta) * fold.sigma / fold.gamma;
                    HwThreshold::fold(v_u, negate, scale)
                }
            })
            .collect();
        Self { bounds }
    }

    /// Number of boundaries (`2^out_bits − 1`).
    pub fn num_bounds(&self) -> usize {
        self.bounds.len()
    }

    /// Evaluates the quantized activation of an accumulation: the count
    /// of fired boundaries, mapped to the odd level `2·count − L'`.
    pub fn level(&self, acc: i64) -> i64 {
        let fired = self.bounds.iter().filter(|t| t.fires(acc)).count() as i64;
        2 * fired - self.bounds.len() as i64
    }
}

/// Quantizes latent float weights to `bits`-wide odd levels.
///
/// At 1 bit this is the *sign* (non-negative → `+1`), matching
/// `BitMatrix::from_signs` exactly; `quantize_level` agrees except for
/// latents within one f32 ulp below zero, so the corner case is pinned
/// here rather than left to rounding.
fn weight_levels(values: &[f32], bits: usize) -> Vec<i64> {
    if bits == 1 {
        values
            .iter()
            .map(|&x| if x >= 0.0 { 1 } else { -1 })
            .collect()
    } else {
        values.iter().map(|&x| quantize_level(x, bits)).collect()
    }
}

/// Unpacks a plane matrix to row-major levels, `q = 2u − L` with bit
/// `p` of `u` read from plane `p`. Only deserialization needs it:
/// [`QuantBnn::from_classifier`] still holds the levels it packed.
fn plane_levels(weights: &PlaneMatrix) -> Vec<i64> {
    let (rows, cols) = (weights.num_rows(), weights.num_cols());
    let mut u = vec![0i64; rows * cols];
    for p in 0..weights.bits() {
        let plane = weights.plane(p);
        for r in 0..rows {
            let row = plane.row(r);
            for (c, slot) in u[r * cols..(r + 1) * cols].iter_mut().enumerate() {
                if row.get(c) {
                    *slot += 1 << p;
                }
            }
        }
    }
    let l = levels(weights.bits());
    u.into_iter().map(|u| 2 * u - l).collect()
}

/// Largest first-stage input magnitude: `HardwareBnn::quantize_pixel`
/// clamps pixels to `±INPUT_QUANT_RANGE` on a `1/INPUT_QUANT_SCALE` grid.
const PIXEL_LEVEL_MAX: i64 = (INPUT_QUANT_RANGE * INPUT_QUANT_SCALE) as i64;

/// A dense stage's weights in the `mp_tensor::simd` lane layout: `u8 ×
/// i8` quads for stages reading `u` levels at `w_bits ≤ 4`, `i16` pairs
/// for 8-bit weights and for the pixel-fed first stage.
#[derive(Debug, Clone)]
enum Lanes {
    Quads(LaneWeights<u8>),
    Pairs(LaneWeights<i16>),
}

/// What a dense stage does with its lane sums `S`.
#[derive(Debug, Clone)]
enum Tail {
    /// The threshold ladders folded onto `S` ([`HwThreshold::fold_key`]):
    /// the fired count is the next stage's `u`.
    Ladder(LaneLadder),
    /// The output stage's scores `acc_r = 2·S_r − offsets[r]`.
    Scores(Vec<i64>),
}

/// One stage of the dense datapath, derived from its [`QuantStage`] at
/// construction and never serialized.
#[derive(Debug, Clone)]
struct DenseStage {
    lanes: Lanes,
    tail: Tail,
}

impl DenseStage {
    /// Builds stage `stage` from its reference-order weight levels
    /// (`rows × c·hw`, columns `(ch, p)` with `p` one of `hw` kernel taps
    /// or map pixels), reordering the columns to the `(p, ch)` order of
    /// `(h, w, c)` maps.
    fn new(
        stage: &QuantStage,
        quantized: &[i64],
        (c, hw): (usize, usize),
    ) -> Result<Self, ShapeError> {
        let weights = stage.weights();
        let (rows, cols) = (weights.num_rows(), weights.num_cols());
        if c * hw != cols {
            return Err(ShapeError::new(
                "QuantBnn",
                format!("a {rows}×{cols} stage reads a {c}×{hw} input"),
            ));
        }
        // acc = α·S − L_a·Σw: the first stage reads pixels (α = 1, no
        // offset), the others `u = (q + L_a)/2` (α = 2).
        let (first, l_a) = match stage {
            QuantStage::FirstConv { .. } => (true, 0),
            QuantStage::Conv { a_bits, .. }
            | QuantStage::Fc { a_bits, .. }
            | QuantStage::Output { a_bits, .. } => (false, levels(*a_bits)),
        };
        let lanes = if first || weights.bits() > 4 {
            Lanes::Pairs(LaneWeights::new(rows, (c, hw), quantized)?)
        } else {
            Lanes::Quads(LaneWeights::new(rows, (c, hw), quantized)?)
        };
        let alpha = if first { 1 } else { 2 };
        let offsets: Vec<i64> = quantized
            .chunks_exact(cols)
            .map(|row| l_a * row.iter().sum::<i64>())
            .collect();
        let tail = match stage.thresholds() {
            [] => Tail::Scores(offsets),
            ladders => {
                let keys: Vec<(i32, bool)> = ladders
                    .iter()
                    .zip(&offsets)
                    .flat_map(|(ladder, &beta)| {
                        ladder.bounds.iter().map(move |t| t.fold_key(alpha, beta))
                    })
                    .collect();
                Tail::Ladder(LaneLadder::new(rows, ladders[0].num_bounds(), &keys)?)
            }
        };
        Ok(Self { lanes, tail })
    }

    /// Runs the stage over an `(h, w, c)` map of `u` levels, writing
    /// the output levels into `next` as an `(h, w, c)` map and returning
    /// its dims: a `k×k` convolution for conv stages, `k = 1` over the
    /// flattened map for FC stages.
    fn conv(
        &self,
        tier: Tier,
        map: &[u8],
        dims: (usize, usize, usize),
        k: usize,
        scratch: &mut LaneScratch,
        next: &mut Vec<u8>,
    ) -> (usize, usize, usize) {
        let Tail::Ladder(ladder) = &self.tail else {
            unreachable!("checked construction gives every stage but the output a ladder")
        };
        let LaneScratch { quads, pairs, sums } = scratch;
        match &self.lanes {
            Lanes::Quads(w) => w.conv_levels(tier, ladder, map, dims, k, quads, sums, next),
            Lanes::Pairs(w) => w.conv_rows(tier, ladder, map, dims, k, pairs, sums, next),
        }
    }

    /// [`Self::conv`] of the first stage, over the image's pixel levels.
    fn conv_pixels(
        &self,
        tier: Tier,
        pixels: &[i16],
        dims: (usize, usize, usize),
        k: usize,
        scratch: &mut LaneScratch,
        next: &mut Vec<u8>,
    ) -> (usize, usize, usize) {
        let (Lanes::Pairs(w), Tail::Ladder(ladder)) = (&self.lanes, &self.tail) else {
            unreachable!("checked construction gives the pixel stage pairs and a ladder")
        };
        let LaneScratch { pairs, sums, .. } = scratch;
        w.conv_rows(tier, ladder, pixels, dims, k, pairs, sums, next)
    }
}

/// Per-shard scratch of the dense batch path, reused across images so
/// the steady state does not allocate.
#[derive(Debug, Default)]
struct DenseScratch {
    /// The image's pixel levels in `(y, x, ch)` order.
    pixels: Vec<i16>,
    /// Current `u`-level map, `(y, x, ch)`.
    map: Vec<u8>,
    /// Next stage's map (swapped each stage).
    next: Vec<u8>,
    lanes: LaneScratch,
}

/// Patch rows and lane sums: one output row's, or one band of tile sums
/// (`LaneWeights::conv_levels` on AMX).
#[derive(Debug, Default)]
struct LaneScratch {
    quads: Vec<u8>,
    pairs: Vec<i16>,
    sums: Vec<i32>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum QuantStage {
    /// First engine: Q2.6 fixed-point pixels × multi-plane weights.
    FirstConv {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner multi-precision convolution engine.
    Conv {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
        a_bits: usize,
    },
    /// Inner multi-precision FC engine.
    Fc {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        a_bits: usize,
    },
    /// Final accumulate-only FC engine.
    Output { weights: PlaneMatrix, a_bits: usize },
}

impl QuantStage {
    fn kind_name(&self) -> &'static str {
        match self {
            QuantStage::FirstConv { .. } => "first_conv",
            QuantStage::Conv { .. } => "conv",
            QuantStage::Fc { .. } => "fc",
            QuantStage::Output { .. } => "output",
        }
    }

    fn weights(&self) -> &PlaneMatrix {
        match self {
            QuantStage::FirstConv { weights, .. }
            | QuantStage::Conv { weights, .. }
            | QuantStage::Fc { weights, .. }
            | QuantStage::Output { weights, .. } => weights,
        }
    }

    /// The per-channel ladders (none for the output stage).
    fn thresholds(&self) -> &[LevelThresholds] {
        match self {
            QuantStage::FirstConv { thresholds, .. }
            | QuantStage::Conv { thresholds, .. }
            | QuantStage::Fc { thresholds, .. } => thresholds,
            QuantStage::Output { .. } => &[],
        }
    }

    /// Checks this stage against engine `i` of its topology, the layer's
    /// precision `spec` and `out_bits`, the next layer's activation
    /// width (`None` for the last engine), so that both datapaths can
    /// index every weight, ladder and activation without panicking.
    fn check(
        &self,
        i: usize,
        engine: &EngineSpec,
        spec: PrecisionSpec,
        out_bits: Option<usize>,
        classes: usize,
    ) -> Result<(), String> {
        let want = match (i == 0, out_bits.is_some(), engine.kind) {
            (true, true, EngineKind::Conv) => "first_conv",
            (false, true, EngineKind::Conv) => "conv",
            (false, true, EngineKind::Fc) => "fc",
            (false, false, EngineKind::Fc) => "output",
            _ => {
                return Err(format!(
                    "engine {i} is {:?}; the first engine must be a convolution \
                     and the last a fully-connected output",
                    engine.kind
                ))
            }
        };
        if self.kind_name() != want {
            return Err(format!(
                "stage {i} is {}, engine needs {want}",
                self.kind_name()
            ));
        }
        let weights = self.weights();
        let (rows, cols) = (engine.weight_rows(), engine.weight_cols());
        if weights.bits() != spec.w_bits() {
            return Err(format!(
                "stage {i} has {} weight planes, precision says w_bits = {}",
                weights.bits(),
                spec.w_bits()
            ));
        }
        if (weights.num_rows(), weights.num_cols()) != (rows, cols) {
            return Err(format!(
                "stage {i} weights are {}×{}, engine needs {rows}×{cols}",
                weights.num_rows(),
                weights.num_cols()
            ));
        }
        let (geometry, a_bits) = match self {
            QuantStage::FirstConv {
                in_channels,
                kernel,
                pool,
                ..
            } => (Some((*in_channels, *kernel, *pool)), None),
            QuantStage::Conv {
                in_channels,
                kernel,
                pool,
                a_bits,
                ..
            } => (Some((*in_channels, *kernel, *pool)), Some(*a_bits)),
            QuantStage::Fc { a_bits, .. } | QuantStage::Output { a_bits, .. } => {
                (None, Some(*a_bits))
            }
        };
        if let Some(geometry) = geometry {
            if geometry != (engine.in_channels, engine.kernel, engine.pool_after) {
                return Err(format!(
                    "stage {i} (in_channels, kernel, pool) = {geometry:?} does not match its engine"
                ));
            }
        }
        if let Some(out_bits) = out_bits {
            let (ladders, bounds) = (self.thresholds(), levels(out_bits) as usize);
            if ladders.len() != rows {
                return Err(format!(
                    "stage {i} has {} threshold ladders for {rows} output channels",
                    ladders.len()
                ));
            }
            if let Some(ch) = ladders.iter().position(|t| t.num_bounds() != bounds) {
                return Err(format!(
                    "stage {i} channel {ch} ladder has {} bounds, {out_bits}-bit outputs need {bounds}",
                    ladders[ch].num_bounds()
                ));
            }
        }
        if let Some(a) = a_bits.filter(|&a| a != spec.a_bits()) {
            return Err(format!(
                "stage {i} consumes {a}-bit activations, precision says {}",
                spec.a_bits()
            ));
        }
        if out_bits.is_none() && rows < classes {
            return Err(format!(
                "output engine has {rows} rows for {classes} classes"
            ));
        }
        // The dense path's i32 lanes must hold every partial sum.
        let l_a = if i == 0 {
            PIXEL_LEVEL_MAX
        } else {
            levels(spec.a_bits())
        };
        let bound = (cols as i64)
            .checked_mul(l_a)
            .and_then(|b| b.checked_mul(levels(spec.w_bits())));
        if bound.is_none_or(|b| b > i64::from(i32::MAX)) {
            return Err(format!(
                "stage {i}: fan-in {cols} × {l_a} × {} exceeds the i32 accumulator",
                levels(spec.w_bits())
            ));
        }
        Ok(())
    }
}

/// Functional model of a multi-precision integer accelerator: per-layer
/// `(a_bits, w_bits)` quantized inference over bit-plane decomposed
/// weights and level-coded activations.
///
/// Batches run the channel-lane integer kernel ([`Self::infer_batch_obs`]);
/// [`Self::infer_image`] is the bit-serial plane reference they are
/// pinned against. Serialization carries the topology, precision and
/// plane-packed stages; deserializing validates them and rebuilds the
/// lane weights and folded ladders.
///
/// # Example
///
/// ```
/// use mp_bnn::{BnnClassifier, FinnTopology};
/// use mp_int::{NetworkPrecision, QuantBnn};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(0);
/// let bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng)?;
/// let layers = bnn.export_latent().len();
/// let precision = NetworkPrecision::uniform(layers, 4, 4).unwrap();
/// let q = QuantBnn::from_classifier(&bnn, precision)?;
/// let scores = q.infer_batch(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))?;
/// assert_eq!(scores.shape().dims(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantBnn {
    topology: FinnTopology,
    precision: NetworkPrecision,
    stages: Vec<QuantStage>,
    /// The dense datapath per stage, derived from `stages`.
    dense: Vec<DenseStage>,
}

impl Serialize for QuantBnn {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("topology".to_owned(), self.topology.to_value()),
            ("precision".to_owned(), self.precision.to_value()),
            ("stages".to_owned(), self.stages.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for QuantBnn {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let topology = FinnTopology::from_value(value.get_field("topology")?)?;
        let precision = NetworkPrecision::from_value(value.get_field("precision")?)?;
        let stages = Vec::<QuantStage>::from_value(value.get_field("stages")?)?;
        Self::checked(topology, precision, stages, |_, weights| {
            plane_levels(weights)
        })
        .map_err(Error::custom)
    }
}

impl QuantBnn {
    /// Quantizes a trained [`BnnClassifier`] to `precision`: latent
    /// weights become plane-packed levels, batch-norm + quantize pairs
    /// become level-threshold ladders.
    ///
    /// Layer `i`'s *output* width is layer `i + 1`'s `a_bits` (the
    /// precision at which the next layer consumes activations); the
    /// output stage produces raw accumulations.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `precision.len()` does not match the
    /// classifier's engine count, the classifier is structurally
    /// inconsistent, or a stage's `fan_in·L_a·L_w` exceeds `i32::MAX`
    /// (`L_a = 128` for the pixel-fed first stage).
    pub fn from_classifier(
        classifier: &BnnClassifier,
        precision: NetworkPrecision,
    ) -> Result<Self, ShapeError> {
        let latent = classifier.export_latent();
        if latent.len() != precision.len() {
            return Err(ShapeError::new(
                "QuantBnn::from_classifier",
                format!(
                    "precision covers {} layers, network has {} engines",
                    precision.len(),
                    latent.len()
                ),
            ));
        }
        let mut stages = Vec::new();
        let mut stage_levels = Vec::new();
        for (i, (stage, &spec)) in latent.iter().zip(precision.layers()).enumerate() {
            let w_bits = spec.w_bits();
            let quantized = weight_levels(&stage.weights, w_bits);
            let weights = PlaneMatrix::from_levels(stage.rows, stage.cols, &quantized, w_bits);
            stage_levels.push(quantized);
            let out_bits = precision.layers().get(i + 1).map(|s| s.a_bits());
            let fold_ladder =
                |bn: &[BnFold], scale: f32| -> Result<Vec<LevelThresholds>, ShapeError> {
                    let out_bits = out_bits.ok_or_else(|| {
                        ShapeError::new(
                            "QuantBnn::from_classifier",
                            format!("engine {i} has an activation but no consumer layer"),
                        )
                    })?;
                    Ok(bn
                        .iter()
                        .map(|f| LevelThresholds::from_fold(f, out_bits, scale))
                        .collect())
                };
            let lw = levels(w_bits) as f32;
            match (&stage.kind, &stage.bn) {
                (
                    LatentKind::Conv {
                        in_channels,
                        kernel,
                        pool,
                        first,
                    },
                    Some(bn),
                ) => {
                    let scale = if *first {
                        INPUT_QUANT_SCALE * lw
                    } else {
                        levels(spec.a_bits()) as f32 * lw
                    };
                    let thresholds = fold_ladder(bn, scale)?;
                    stages.push(if *first {
                        QuantStage::FirstConv {
                            weights,
                            thresholds,
                            in_channels: *in_channels,
                            kernel: *kernel,
                            pool: *pool,
                        }
                    } else {
                        QuantStage::Conv {
                            weights,
                            thresholds,
                            in_channels: *in_channels,
                            kernel: *kernel,
                            pool: *pool,
                            a_bits: spec.a_bits(),
                        }
                    });
                }
                (LatentKind::Fc, Some(bn)) => {
                    let scale = levels(spec.a_bits()) as f32 * lw;
                    stages.push(QuantStage::Fc {
                        weights,
                        thresholds: fold_ladder(bn, scale)?,
                        a_bits: spec.a_bits(),
                    });
                }
                (LatentKind::Output, None) => {
                    stages.push(QuantStage::Output {
                        weights,
                        a_bits: spec.a_bits(),
                    });
                }
                _ => {
                    return Err(ShapeError::new(
                        "QuantBnn::from_classifier",
                        format!("engine {i}: batch-norm presence does not match stage kind"),
                    ));
                }
            }
        }
        Self::checked(classifier.topology().clone(), precision, stages, |i, _| {
            std::mem::take(&mut stage_levels[i])
        })
    }

    /// The one checked constructor behind [`Self::from_classifier`] and
    /// `Deserialize`: validates every stage against its engine and the
    /// precision chain ([`QuantStage::check`]), then builds the dense
    /// stages from `stage_levels(i, weights)`, stage `i`'s row-major
    /// weight levels.
    fn checked(
        topology: FinnTopology,
        precision: NetworkPrecision,
        stages: Vec<QuantStage>,
        mut stage_levels: impl FnMut(usize, &PlaneMatrix) -> Vec<i64>,
    ) -> Result<Self, ShapeError> {
        let engines = topology.engines();
        if stages.len() != precision.len() || precision.len() != engines.len() {
            return Err(ShapeError::new(
                "QuantBnn",
                format!(
                    "{} stages and {} precision layers for {} engines",
                    stages.len(),
                    precision.len(),
                    engines.len()
                ),
            ));
        }
        let layers = precision.layers();
        for (i, (stage, engine)) in stages.iter().zip(&engines).enumerate() {
            let out_bits = layers.get(i + 1).map(|s| s.a_bits());
            stage
                .check(i, engine, layers[i], out_bits, topology.classes())
                .map_err(|msg| ShapeError::new("QuantBnn", msg))?;
        }
        // Each stage's input as (channels, taps or pixels per channel).
        let (mut c, mut h, mut w) = (topology.channels(), topology.height(), topology.width());
        let mut dense = Vec::with_capacity(stages.len());
        for (i, stage) in stages.iter().enumerate() {
            let input = match stage {
                QuantStage::FirstConv { kernel, pool, .. }
                | QuantStage::Conv { kernel, pool, .. } => {
                    let input = (c, kernel * kernel);
                    (c, h, w) = (stage.weights().num_rows(), h - kernel + 1, w - kernel + 1);
                    if *pool {
                        (h, w) = (h / 2, w / 2);
                    }
                    input
                }
                QuantStage::Fc { .. } | QuantStage::Output { .. } => {
                    let input = (c, h * w);
                    (c, h, w) = (stage.weights().num_rows(), 1, 1);
                    input
                }
            };
            dense.push(DenseStage::new(
                stage,
                &stage_levels(i, stage.weights()),
                input,
            )?);
        }
        Ok(Self {
            topology,
            precision,
            stages,
            dense,
        })
    }

    /// The network topology.
    pub fn topology(&self) -> &FinnTopology {
        &self.topology
    }

    /// The per-layer precision this network was quantized to.
    pub fn precision(&self) -> &NetworkPrecision {
        &self.precision
    }

    /// Integer-to-real score scale of the output stage: `L_a·L_w`.
    /// Raw output accumulations divided by this are comparable across
    /// precisions; at the 1-bit corner the scale is 1.
    pub fn scores_scale(&self) -> f32 {
        let spec = self.precision.layers()[self.precision.len() - 1];
        (levels(spec.a_bits()) * levels(spec.w_bits())) as f32
    }

    /// Per-engine MAC counts (one entry per precision layer), from the
    /// topology's engine records.
    pub fn layer_macs(&self) -> Vec<u64> {
        self.topology
            .engines()
            .iter()
            .map(|e| e.macs_per_image())
            .collect()
    }

    /// Binary plane-MACs per image: each engine's MACs times its
    /// shift-add decomposition width — `w_bits` planes for the
    /// fixed-point first engine (pixels are consumed whole), and
    /// `a_bits·w_bits` plane pairs elsewhere.
    pub fn plane_macs_per_image(&self) -> u64 {
        self.layer_macs()
            .iter()
            .zip(self.precision.layers())
            .enumerate()
            .map(|(i, (&macs, spec))| {
                let planes = if i == 0 {
                    spec.w_bits()
                } else {
                    spec.a_bits() * spec.w_bits()
                };
                macs * planes as u64
            })
            .sum()
    }

    /// MAC-weighted cycle-cost multiplier of this precision relative to
    /// the 1-bit datapath, per `lut` (1.0 at the 1-bit corner).
    pub fn network_cost_factor(&self, lut: &CostLut) -> f64 {
        lut.network_factor(&self.precision, &self.layer_macs())
    }

    /// Runs one `[1, C, H, W]` image through the bit-serial hardware
    /// reference, returning the `classes` raw integer output
    /// accumulations (scaled by [`Self::scores_scale`]).
    ///
    /// Every dot product is the shift-add of `a_bits·w_bits` XNOR-popcount
    /// plane pairs (`w_bits` planes against whole pixels in the first
    /// engine), the datapath a multi-precision engine builds in hardware.
    /// The dense batch path is pinned against it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image(&self, image: &Tensor) -> Result<Vec<i64>, ShapeError> {
        let want = Shape::nchw(
            1,
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if image.shape() != &want {
            return Err(ShapeError::new(
                "QuantBnn::infer_image",
                format!("expected {want}, got {}", image.shape()),
            ));
        }
        let mut acts: Vec<i64> = Vec::new();
        let mut dims = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        let mut scores: Option<Vec<i64>> = None;
        for stage in &self.stages {
            match stage {
                QuantStage::FirstConv {
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
                    let q: Vec<i64> = image
                        .iter()
                        .map(|&x| HardwareBnn::quantize_pixel(x))
                        .collect();
                    let mut out = vec![0i64; od * oh * ow];
                    let mut patch = Vec::with_capacity(c * k * k);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            patch.clear();
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(q[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            for oc in 0..od {
                                // Fixed-point pixels are consumed whole;
                                // only the weights decompose into planes.
                                let mut acc = 0i64;
                                for p in 0..weights.bits() {
                                    let row = weights.plane(p).row(oc);
                                    let mut partial = 0i64;
                                    for (i, &x) in patch.iter().enumerate() {
                                        partial += if row.get(i) { x } else { -x };
                                    }
                                    acc += partial << p;
                                }
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].level(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    acts = out;
                    if *pool {
                        let mut next = Vec::new();
                        dims = max_pool_levels(&acts, dims, &mut next);
                        acts = next;
                    }
                }
                QuantStage::Conv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                    a_bits,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    let mut out = vec![0i64; od * oh * ow];
                    let mut patch = Vec::with_capacity(c * k * k);
                    let mut accs = Vec::new();
                    for oy in 0..oh {
                        for ox in 0..ow {
                            patch.clear();
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(acts[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            let pv = PlaneVec::from_levels(&patch, *a_bits);
                            weights.matvec_into(&pv, &mut accs);
                            for (oc, &acc) in accs.iter().enumerate() {
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].level(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    acts = out;
                    if *pool {
                        let mut next = Vec::new();
                        dims = max_pool_levels(&acts, dims, &mut next);
                        acts = next;
                    }
                }
                QuantStage::Fc {
                    weights,
                    thresholds,
                    a_bits,
                } => {
                    let x = PlaneVec::from_levels(&acts, *a_bits);
                    let accs = weights.matvec(&x);
                    acts = accs
                        .iter()
                        .zip(thresholds)
                        .map(|(&a, t)| t.level(a))
                        .collect();
                    dims = (acts.len(), 1, 1);
                }
                QuantStage::Output { weights, a_bits } => {
                    let x = PlaneVec::from_levels(&acts, *a_bits);
                    let accs = weights.matvec(&x);
                    scores = Some(accs.into_iter().take(self.topology.classes()).collect());
                }
            }
        }
        scores.ok_or_else(|| ShapeError::new("QuantBnn::infer_image", "no output engine"))
    }

    /// Classifies one image (argmax of the raw scores, first index on
    /// ties).
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

    /// Runs a `[N, C, H, W]` batch, returning `[N, classes]` float
    /// scores normalised by [`Self::scores_scale`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch(&self, images: &Tensor) -> Result<Tensor, ShapeError> {
        self.infer_batch_obs(images, Parallelism::sequential(), &mp_obs::NULL_RECORDER)
    }

    /// [`Self::infer_batch`] sharded across `par` threads (see
    /// [`Parallelism::map_images`]) with per-stage wall-time spans
    /// (`quant.stage<i>.<kind>`, one per image and stage) and the
    /// `quant.images` / `quant.plane_macs` counters recorded against
    /// `rec`. Plane MACs are the modeled
    /// bit-serial work, whichever datapath computes the scores.
    /// Recording is passive: scores are bit-identical to the unobserved
    /// path, and to [`Self::infer_image`] divided by
    /// [`Self::scores_scale`].
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
                "QuantBnn::infer_batch",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let (n, classes) = (shape.dim(0), self.topology.classes());
        let names;
        let obs: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            names = self.stage_span_names();
            rec.add(mp_obs::schema::CTR_QUANT_IMAGES, n as u64);
            rec.add(
                mp_obs::schema::CTR_QUANT_PLANE_MACS,
                self.plane_macs_per_image() * n as u64,
            );
            Some((rec, names.as_slice()))
        } else {
            None
        };
        let tier = Tier::detected(Family::Int);
        let scores = par.map_images(images.as_slice(), n, classes, |image, scratch, out| {
            self.infer_dense(tier, image, scratch, obs, out);
            Ok(())
        })?;
        Tensor::from_vec(Shape::matrix(n, classes), scores)
    }

    /// Dense inference of one image (its `C·H·W` pixels) on `tier`,
    /// writing the `classes` scores divided by [`Self::scores_scale`]
    /// into `out`. With `obs` present every stage records one span. The
    /// checked constructor guarantees stage 0 is the first convolution
    /// and the last stage the output engine.
    fn infer_dense(
        &self,
        tier: Tier,
        image: &[f32],
        scratch: &mut DenseScratch,
        obs: Option<(&dyn Recorder, &[String])>,
        out: &mut [f32],
    ) {
        let DenseScratch {
            pixels,
            map,
            next,
            lanes,
        } = scratch;
        let mut dims = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        HardwareBnn::quantize_image(image, dims.0, pixels);
        let scale = self.scores_scale();
        for (si, (stage, dense)) in self.stages.iter().zip(&self.dense).enumerate() {
            let t0 = obs.map(|_| now_ns());
            match stage {
                QuantStage::FirstConv { kernel, pool, .. } => {
                    dims = dense.conv_pixels(tier, pixels, dims, *kernel, lanes, next);
                    std::mem::swap(map, next);
                    if *pool {
                        dims = max_pool_hwc(map, dims, next);
                        std::mem::swap(map, next);
                    }
                }
                QuantStage::Conv { kernel, pool, .. } => {
                    dims = dense.conv(tier, map, dims, *kernel, lanes, next);
                    std::mem::swap(map, next);
                    if *pool {
                        dims = max_pool_hwc(map, dims, next);
                        std::mem::swap(map, next);
                    }
                }
                QuantStage::Fc { .. } => {
                    let flat = (dims.0 * dims.1 * dims.2, 1, 1);
                    dims = dense.conv(tier, map, flat, 1, lanes, next);
                    std::mem::swap(map, next);
                }
                QuantStage::Output { .. } => {
                    let Tail::Scores(offsets) = &dense.tail else {
                        unreachable!("checked construction gives the output stage scores")
                    };
                    let flat = (dims.0 * dims.1 * dims.2, 1, 1);
                    let LaneScratch { quads, pairs, sums } = lanes;
                    match &dense.lanes {
                        Lanes::Quads(w) => w.row_sums(tier, map, flat, 0, quads, sums),
                        Lanes::Pairs(w) => w.row_sums(tier, map, flat, 0, pairs, sums),
                    }
                    for ((score, &s), &off) in out.iter_mut().zip(sums.iter()).zip(offsets) {
                        *score = (2 * i64::from(s) - off) as f32 / scale;
                    }
                }
            }
            if let (Some((rec, names)), Some(start)) = (obs, t0) {
                rec.record_span(&names[si], start, now_ns());
            }
        }
    }

    /// Stable per-stage span names: `quant.stage<i>.<kind>`.
    fn stage_span_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                format!(
                    "{}{i}.{}",
                    mp_obs::schema::SPAN_QUANT_STAGE_PREFIX,
                    stage.kind_name()
                )
            })
            .collect()
    }
}

/// 2×2 max pooling over an `(h, w, c)` map of `u` levels into `out`:
/// `u = (q + L)/2` is monotone in the level `q`, so this is
/// [`max_pool_levels`] on the levels. Returns the pooled dimensions.
fn max_pool_hwc(
    map: &[u8],
    (c, h, w): (usize, usize, usize),
    out: &mut Vec<u8>,
) -> (usize, usize, usize) {
    let (oh, ow) = (h / 2, w / 2);
    out.clear();
    out.resize(oh * ow * c, 0);
    for (i, dst) in out.chunks_exact_mut(c).enumerate() {
        let (oy, ox) = (i / ow, i % ow);
        let at = |ky: usize, kx: usize| &map[((2 * oy + ky) * w + 2 * ox + kx) * c..][..c];
        let quads = at(0, 0)
            .iter()
            .zip(at(0, 1))
            .zip(at(1, 0).iter().zip(at(1, 1)));
        for (o, ((&a, &b), (&c, &d))) in dst.iter_mut().zip(quads) {
            *o = a.max(b).max(c).max(d);
        }
    }
    (c, oh, ow)
}

/// 2×2 max pooling over level-coded activations into `out` (the `b`-bit
/// generalisation of OR pooling: `max` over odd levels, which at 1 bit
/// is OR over `{−1, +1}`). Returns the pooled dimensions.
fn max_pool_levels<T: Copy + Ord>(
    acts: &[T],
    (c, h, w): (usize, usize, usize),
    out: &mut Vec<T>,
) -> (usize, usize, usize) {
    let (oh, ow) = (h / 2, w / 2);
    out.clear();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let at = |ky: usize, kx: usize| acts[(ch * h + 2 * oy + ky) * w + 2 * ox + kx];
                out.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
            }
        }
    }
    (c, oh, ow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_nn::train::Model;
    use mp_nn::Mode;
    use mp_tensor::init::TensorRng;

    fn trained_tiny(seed: u64) -> BnnClassifier {
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        for _ in 0..4 {
            let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        bnn
    }

    fn layer_count(bnn: &BnnClassifier) -> usize {
        bnn.export_latent().len()
    }

    #[test]
    fn level_thresholds_count_boundaries() {
        let fold = BnFold {
            gamma: 1.0,
            beta: 0.0,
            mean: 0.0,
            sigma: 1.0,
        };
        // 2-bit output, unit scale: boundaries at bn-space −2/3, 0, 2/3.
        let t = LevelThresholds::from_fold(&fold, 2, 3.0);
        assert_eq!(t.num_bounds(), 3);
        assert_eq!(t.level(-3), -3);
        assert_eq!(t.level(-1), -1);
        assert_eq!(t.level(0), 1); // bn(0) = 0 fires the middle bound
        assert_eq!(t.level(3), 3);
    }

    #[test]
    fn one_bit_threshold_matches_hardware_fold() {
        // The single boundary of a 1-bit ladder must be the BNN's
        // folded threshold, bit for bit.
        let folds = [
            BnFold {
                gamma: 0.7,
                beta: -0.3,
                mean: 0.11,
                sigma: 1.9,
            },
            BnFold {
                gamma: -1.3,
                beta: 0.45,
                mean: -2.0,
                sigma: 0.33,
            },
            BnFold {
                gamma: 0.0,
                beta: 0.2,
                mean: 1.0,
                sigma: 1.0,
            },
            BnFold {
                gamma: 0.0,
                beta: -0.2,
                mean: 1.0,
                sigma: 1.0,
            },
        ];
        for fold in &folds {
            for scale in [1.0f32, 64.0] {
                let ladder = LevelThresholds::from_fold(fold, 1, scale);
                let degenerate = fold.gamma.abs() < f32::EPSILON;
                let expect = if degenerate {
                    let t = if fold.beta >= 0.0 {
                        f32::NEG_INFINITY
                    } else {
                        f32::INFINITY
                    };
                    HwThreshold::fold(t, false, scale)
                } else {
                    HwThreshold::fold(
                        fold.mean - fold.beta * fold.sigma / fold.gamma,
                        fold.gamma < 0.0,
                        scale,
                    )
                };
                assert_eq!(ladder.bounds[0], expect, "fold {fold:?} scale {scale}");
            }
        }
    }

    #[test]
    fn one_bit_corner_is_bit_identical_to_hardware() {
        let bnn = trained_tiny(90);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let precision = NetworkPrecision::one_bit(layer_count(&bnn)).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        assert_eq!(q.scores_scale(), 1.0);
        let mut rng = TensorRng::seed_from(91);
        let batch = rng.normal(Shape::nchw(5, 3, 8, 8), 0.0, 1.0);
        let hw_scores: Vec<f32> = (0..5)
            .flat_map(|i| hw.infer_image(&batch.batch_item(i).unwrap()).unwrap())
            .map(|s| s as f32)
            .collect();
        let q_scores = q.infer_batch(&batch).unwrap();
        assert_eq!(q_scores.shape().dims(), &[5, 10]);
        assert_eq!(q_scores.as_slice(), hw_scores);
    }

    #[test]
    fn quantized_inference_shapes_and_determinism() {
        let bnn = trained_tiny(92);
        let n = layer_count(&bnn);
        let mut rng = TensorRng::seed_from(93);
        let batch = rng.normal(Shape::nchw(3, 3, 8, 8), 0.0, 1.0);
        for (a, w) in [(2usize, 2usize), (4, 4), (8, 8), (2, 8)] {
            let precision = NetworkPrecision::uniform(n, a, w).unwrap();
            let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
            let scores = q.infer_batch(&batch).unwrap();
            assert_eq!(scores.shape().dims(), &[3, 10]);
            let again = q.infer_batch(&batch).unwrap();
            assert_eq!(scores.as_slice(), again.as_slice());
        }
    }

    #[test]
    fn parallel_batches_are_bit_identical() {
        let bnn = trained_tiny(94);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 4, 2).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut rng = TensorRng::seed_from(95);
        let batch = rng.normal(Shape::nchw(7, 3, 8, 8), 0.0, 1.0);
        let reference = q.infer_batch(&batch).unwrap();
        for threads in [2usize, 5] {
            let got = q
                .infer_batch_obs(&batch, Parallelism::new(threads), &mp_obs::NULL_RECORDER)
                .unwrap();
            assert_eq!(reference.as_slice(), got.as_slice());
        }
    }

    #[test]
    fn rejects_layer_count_mismatch_and_bad_shapes() {
        let bnn = trained_tiny(96);
        let precision = NetworkPrecision::uniform(3, 4, 4).unwrap();
        assert!(QuantBnn::from_classifier(&bnn, precision).is_err());
        let good = NetworkPrecision::uniform(layer_count(&bnn), 4, 4).unwrap();
        let q = QuantBnn::from_classifier(&bnn, good).unwrap();
        assert!(q
            .infer_image(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .is_err());
        assert!(q
            .infer_batch(&Tensor::zeros(Shape::nchw(2, 1, 8, 8)))
            .is_err());
    }

    #[test]
    fn plane_macs_scale_with_precision() {
        let bnn = trained_tiny(97);
        let n = layer_count(&bnn);
        let one = QuantBnn::from_classifier(&bnn, NetworkPrecision::one_bit(n).unwrap()).unwrap();
        let wide =
            QuantBnn::from_classifier(&bnn, NetworkPrecision::uniform(n, 8, 8).unwrap()).unwrap();
        let macs: u64 = one.layer_macs().iter().sum();
        assert_eq!(one.plane_macs_per_image(), macs);
        assert!(wide.plane_macs_per_image() > 32 * one.plane_macs_per_image());
        // Cost factors order the same way.
        let lut = CostLut::mpic();
        assert_eq!(one.network_cost_factor(&lut), 1.0);
        assert!(wide.network_cost_factor(&lut) > 2.0);
    }

    #[test]
    fn spans_and_counters_are_recorded() {
        let bnn = trained_tiny(98);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 2).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let n = 3;
        let mut rng = TensorRng::seed_from(99);
        let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        let rec = mp_obs::SharedRecorder::new();
        let par = Parallelism::new(2);
        let traced = q.infer_batch_obs(&batch, par, &rec).unwrap();
        let quiet = q
            .infer_batch_obs(&batch, par, &mp_obs::NULL_RECORDER)
            .unwrap();
        assert_eq!(traced.as_slice(), quiet.as_slice());

        // One span per image and stage, under the stable names only.
        let report = rec.report();
        let names = [
            "quant.stage0.first_conv",
            "quant.stage1.conv",
            "quant.stage2.fc",
            "quant.stage3.fc",
            "quant.stage4.output",
        ];
        let recorded: Vec<(&str, u64)> = report
            .spans
            .iter()
            .filter(|s| s.name.starts_with(mp_obs::schema::SPAN_QUANT_STAGE_PREFIX))
            .map(|s| (s.name.as_str(), s.count))
            .collect();
        let expected: Vec<(&str, u64)> = names.iter().map(|&name| (name, n as u64)).collect();
        assert_eq!(recorded, expected);

        // Plane MACs stay the modeled bit-serial work: w_bits planes in
        // the pixel-fed first engine, a_bits·w_bits plane pairs elsewhere.
        let engines = bnn.topology().engines();
        let per_image: u64 = engines
            .iter()
            .enumerate()
            .map(|(i, e)| e.macs_per_image() * if i == 0 { 2 } else { 4 })
            .sum();
        assert_eq!(per_image, q.plane_macs_per_image());
        assert_eq!(report.counter(mp_obs::schema::CTR_QUANT_IMAGES), n as u64);
        assert_eq!(
            report.counter(mp_obs::schema::CTR_QUANT_PLANE_MACS),
            n as u64 * per_image
        );
    }

    #[test]
    fn every_supported_tier_matches_the_portable_tier_at_paper_scale() {
        let mut rng = TensorRng::seed_from(107);
        let bnn = BnnClassifier::new(FinnTopology::paper(), &mut rng).unwrap();
        let images = rng.normal(Shape::nchw(2, 3, 32, 32), 0.0, 1.0);
        for bits in [4usize, 8] {
            let precision = NetworkPrecision::uniform(layer_count(&bnn), bits, bits).unwrap();
            let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
            let scores_on = |tier: Tier| {
                let (mut scratch, mut scores) = (DenseScratch::default(), vec![0.0; 2 * 10]);
                let pixels = images.as_slice().chunks_exact(3 * 32 * 32);
                for (image, out) in pixels.zip(scores.chunks_exact_mut(10)) {
                    q.infer_dense(tier, image, &mut scratch, None, out);
                }
                scores
            };
            let portable = scores_on(Tier::Portable);
            for tier in Tier::supported(Family::Int) {
                assert_eq!(scores_on(tier), portable, "{tier:?} a{bits}w{bits}");
            }
        }
    }

    #[test]
    fn dense_batches_match_bit_plane_reference_at_paper_scale() {
        let mut rng = TensorRng::seed_from(104);
        let bnn = BnnClassifier::new(FinnTopology::paper(), &mut rng).unwrap();
        let image = rng.normal(Shape::nchw(1, 3, 32, 32), 0.0, 1.0);
        for bits in [4usize, 8] {
            let precision = NetworkPrecision::uniform(layer_count(&bnn), bits, bits).unwrap();
            let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
            let reference: Vec<f32> = q
                .infer_image(&image)
                .unwrap()
                .iter()
                .map(|&s| s as f32 / q.scores_scale())
                .collect();
            assert_eq!(q.infer_batch(&image).unwrap().as_slice(), &reference[..]);
        }
    }

    #[test]
    fn i32_lanes_are_proven_at_construction() {
        // FC fan-in 64·28·28 = 50 176: a8w8 needs 50 176·255² > i32::MAX.
        let topology = FinnTopology::new(3, 32, 32, vec![64, 64], vec![false, false], vec![16], 10);
        let mut rng = TensorRng::seed_from(105);
        let bnn = BnnClassifier::new(topology, &mut rng).unwrap();
        let layers = layer_count(&bnn);
        let wide = NetworkPrecision::uniform(layers, 8, 8).unwrap();
        let err = QuantBnn::from_classifier(&bnn, wide).unwrap_err();
        assert!(err.to_string().contains("i32"), "{err}");
        let narrow = NetworkPrecision::uniform(layers, 4, 4).unwrap();
        assert!(QuantBnn::from_classifier(&bnn, narrow).is_ok());
    }

    #[test]
    fn serde_round_trip_preserves_scores() {
        let bnn = trained_tiny(100);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 4).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantBnn = serde_json::from_str(&json).unwrap();
        let mut rng = TensorRng::seed_from(101);
        let batch = rng.normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        assert_eq!(
            q.infer_batch(&batch).unwrap().as_slice(),
            back.infer_batch(&batch).unwrap().as_slice()
        );
    }

    /// The map entry `key` of an object value.
    fn entry<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
        match value {
            Value::Map(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .expect("field present"),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn seq(value: &mut Value) -> &mut Vec<Value> {
        match value {
            Value::Seq(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn forged_payloads_are_rejected() {
        let bnn = trained_tiny(106);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 4).unwrap();
        let good = QuantBnn::from_classifier(&bnn, precision)
            .unwrap()
            .to_value();
        assert!(QuantBnn::from_value(&good).is_ok());
        // Stage 1 is `{"Conv": {...}}`.
        let forgeries: [fn(&mut Value); 3] = [
            // One channel's ladder removed.
            |v| {
                let stage = entry(&mut seq(entry(v, "stages"))[1], "Conv");
                seq(entry(stage, "thresholds")).pop();
            },
            // One weight plane removed.
            |v| {
                let stage = entry(&mut seq(entry(v, "stages"))[1], "Conv");
                seq(entry(entry(stage, "weights"), "planes")).pop();
            },
            // A precision chain one layer short.
            |v| {
                seq(entry(entry(v, "precision"), "layers")).pop();
            },
        ];
        for (i, forge) in forgeries.iter().enumerate() {
            let mut value = good.clone();
            forge(&mut value);
            assert!(QuantBnn::from_value(&value).is_err(), "forgery {i}");
        }
    }

    #[test]
    fn mixed_precision_per_layer_is_respected() {
        let bnn = trained_tiny(102);
        let n = layer_count(&bnn);
        let mut layers = vec![PrecisionSpec::try_new(8, 2).unwrap()];
        for i in 1..n {
            let spec = if i % 2 == 0 {
                PrecisionSpec::try_new(2, 4).unwrap()
            } else {
                PrecisionSpec::try_new(4, 2).unwrap()
            };
            layers.push(spec);
        }
        let precision = NetworkPrecision::try_new(layers).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut rng = TensorRng::seed_from(103);
        let batch = rng.normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        let scores = q.infer_batch(&batch).unwrap();
        assert_eq!(scores.shape().dims(), &[2, 10]);
    }
}

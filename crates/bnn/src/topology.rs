use mp_tensor::ShapeError;
use serde::{Deserialize, Error, Serialize, Value};

/// Whether an engine implements a convolution or a fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// Matrix–matrix engine over unrolled convolution patches.
    Conv,
    /// Matrix–vector engine.
    Fc,
}

/// Dimensions of one FINN engine (one network layer).
///
/// These are the quantities the paper's §III-A folding analysis operates
/// on: kernel `K`, input/output channel counts and spatial extents, and
/// the bit widths of weights, thresholds and activations. The FPGA model
/// in `mp-fpga` derives clock cycles (eqs. 3–4) and memory footprints
/// from this record.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Engine label, e.g. `"3x3-conv-64"`.
    pub name: String,
    /// Convolution or fully-connected.
    pub kind: EngineKind,
    /// Kernel edge `K` (1 for FC engines).
    pub kernel: usize,
    /// Input channels `ID` (input features for FC).
    pub in_channels: usize,
    /// Output channels `OD` (output features for FC).
    pub out_channels: usize,
    /// Input spatial height `IH` (1 for FC).
    pub in_height: usize,
    /// Input spatial width `IW` (1 for FC).
    pub in_width: usize,
    /// Output spatial height `OH` (1 for FC).
    pub out_height: usize,
    /// Output spatial width `OW` (1 for FC).
    pub out_width: usize,
    /// Activation input bit width (8 for the first engine's fixed-point
    /// pixels, 1 elsewhere).
    pub input_bits: usize,
    /// Threshold precision in bits (paper: 24 for the first stage, 16 for
    /// inner stages, 0 for the final no-activation stage).
    pub threshold_bits: usize,
    /// Whether a 2×2 max-pool follows this engine.
    pub pool_after: bool,
}

impl EngineSpec {
    /// Rows of the engine's weight matrix (`OD`).
    pub fn weight_rows(&self) -> usize {
        self.out_channels
    }

    /// Columns of the engine's weight matrix (`K·K·ID`).
    pub fn weight_cols(&self) -> usize {
        self.kernel * self.kernel * self.in_channels
    }

    /// Total single-bit weight count: `OD·(K·K·ID)` for conv engines and
    /// `OD·ID` for FC engines (paper §III-A "total weight size").
    pub fn total_weight_bits(&self) -> u64 {
        (self.weight_rows() * self.weight_cols()) as u64
    }

    /// Output pixels per image (`OH·OW`; 1 for FC engines).
    pub fn output_pixels(&self) -> usize {
        self.out_height * self.out_width
    }

    /// Binary multiply–accumulate operations per image.
    pub fn macs_per_image(&self) -> u64 {
        self.total_weight_bits() * self.output_pixels() as u64
    }
}

/// The FINN network topology of the paper's Table I, parameterised so
/// reduced-scale variants can train quickly.
///
/// The paper's network (for 32×32 RGB CIFAR-10 inputs, no zero padding):
///
/// ```text
/// 3×3-conv-64, 3×3-conv-64, pool,
/// 3×3-conv-128, 3×3-conv-128, pool,
/// 3×3-conv-256, 3×3-conv-256,
/// FC-64, FC-64, FC-64 (no activation)
/// ```
///
/// The final FC engine is 64 wide (FINN pads the 10-class output to a
/// foldable width); classification reads the first
/// [`classes`](Self::classes) scores.
///
/// # Example
///
/// ```
/// use mp_bnn::FinnTopology;
///
/// let topo = FinnTopology::paper();
/// let engines = topo.engines();
/// // First engine: 3×3 conv over 3 channels, 30×30 outputs.
/// assert_eq!(engines[0].weight_cols(), 27);
/// assert_eq!(engines[0].out_height, 30);
/// // Last engine: FC-64 with no thresholding.
/// assert_eq!(engines[8].threshold_bits, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FinnTopology {
    channels: usize,
    height: usize,
    width: usize,
    conv_channels: Vec<usize>,
    pool_after: Vec<bool>,
    fc_sizes: Vec<usize>,
    classes: usize,
}

impl<'de> Deserialize<'de> for FinnTopology {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Self::try_new(
            usize::from_value(value.get_field("channels")?)?,
            usize::from_value(value.get_field("height")?)?,
            usize::from_value(value.get_field("width")?)?,
            Vec::from_value(value.get_field("conv_channels")?)?,
            Vec::from_value(value.get_field("pool_after")?)?,
            Vec::from_value(value.get_field("fc_sizes")?)?,
            usize::from_value(value.get_field("classes")?)?,
        )
        .map_err(Error::custom)
    }
}

impl FinnTopology {
    /// The paper's exact Table I network for 32×32 RGB inputs.
    pub fn paper() -> Self {
        Self {
            channels: 3,
            height: 32,
            width: 32,
            conv_channels: vec![64, 64, 128, 128, 256, 256],
            pool_after: vec![false, true, false, true, false, false],
            fc_sizes: vec![64, 64, 64],
            classes: 10,
        }
    }

    /// A reduced-scale variant for fast training: the paper's layer
    /// pattern truncated to what fits `height × width` inputs, with conv
    /// widths divided by `divisor`.
    ///
    /// Inputs of 32 pixels and up keep all six conv layers; 16-pixel
    /// inputs keep four; smaller inputs keep two.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or the spatial size is too small for
    /// even the two-conv stack (checked when engines are derived).
    pub fn scaled(height: usize, width: usize, divisor: usize) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        let scale = |c: usize| (c / divisor).max(8);
        let edge = height.min(width);
        let (conv_channels, pool_after) = if edge >= 32 {
            (
                vec![
                    scale(64),
                    scale(64),
                    scale(128),
                    scale(128),
                    scale(256),
                    scale(256),
                ],
                vec![false, true, false, true, false, false],
            )
        } else if edge >= 16 {
            (
                vec![scale(64), scale(64), scale(128), scale(128)],
                vec![false, true, false, false],
            )
        } else {
            (vec![scale(64), scale(64)], vec![false, true])
        };
        Self {
            channels: 3,
            height,
            width,
            conv_channels,
            pool_after,
            fc_sizes: vec![scale(64).max(16), scale(64).max(16), 16],
            classes: 10,
        }
    }

    /// A custom topology.
    ///
    /// `conv_channels[i]` is the width of conv layer `i`; `pool_after[i]`
    /// appends a 2×2 max-pool after it. `fc_sizes` lists the FC engine
    /// widths; the last is the (possibly padded) output engine.
    ///
    /// # Panics
    ///
    /// Panics if the layer lists are empty or inconsistent, or if
    /// `classes` exceeds the final FC width. [`Self::try_new`] returns
    /// these as errors instead.
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        conv_channels: Vec<usize>,
        pool_after: Vec<bool>,
        fc_sizes: Vec<usize>,
        classes: usize,
    ) -> Self {
        let topo = Self {
            channels,
            height,
            width,
            conv_channels,
            pool_after,
            fc_sizes,
            classes,
        };
        if let Err(e) = topo.check_layers() {
            panic!("{}", e.detail());
        }
        topo
    }

    /// A custom topology, checked: [`Self::new`] with every condition it
    /// asserts returned as an error, plus a conv stack that does not fit
    /// the image (which [`Self::engines`] would panic on). Deserialization
    /// goes through this constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the layer lists are empty or
    /// inconsistent, `classes` exceeds the final FC width, or the image is
    /// too small for the conv stack.
    pub fn try_new(
        channels: usize,
        height: usize,
        width: usize,
        conv_channels: Vec<usize>,
        pool_after: Vec<bool>,
        fc_sizes: Vec<usize>,
        classes: usize,
    ) -> Result<Self, ShapeError> {
        let topo = Self {
            channels,
            height,
            width,
            conv_channels,
            pool_after,
            fc_sizes,
            classes,
        };
        topo.check_layers()?;
        topo.try_engines()?;
        Ok(topo)
    }

    /// The layer-list conditions [`Self::new`] asserts.
    fn check_layers(&self) -> Result<(), ShapeError> {
        let detail = if self.conv_channels.is_empty() {
            "need at least one conv layer"
        } else if self.conv_channels.len() != self.pool_after.len() {
            "pool_after must match conv_channels"
        } else if self.fc_sizes.is_empty() {
            "need at least one FC layer"
        } else if self
            .fc_sizes
            .last()
            .is_some_and(|&last| self.classes > last)
        {
            "classes must fit in the final FC engine"
        } else {
            return Ok(());
        };
        Err(ShapeError::new("FinnTopology", detail))
    }

    /// Input image channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Input image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Input image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of classes read from the final engine's scores.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Conv layer widths.
    pub fn conv_channels(&self) -> &[usize] {
        &self.conv_channels
    }

    /// Which conv layers are followed by a 2×2 max-pool.
    pub fn pool_flags(&self) -> &[bool] {
        &self.pool_after
    }

    /// FC engine widths (last entry is the output engine).
    pub fn fc_sizes(&self) -> &[usize] {
        &self.fc_sizes
    }

    /// Derives the per-engine dimension records (paper Table I plus the
    /// §III-A feature sizes).
    ///
    /// # Panics
    ///
    /// Panics if the image is too small for the layer stack (a 3×3 valid
    /// convolution needs ≥3 pixels at every stage).
    pub fn engines(&self) -> Vec<EngineSpec> {
        self.try_engines()
            .unwrap_or_else(|e| panic!("{}", e.detail()))
    }

    /// [`Self::engines`], with an image too small for the conv stack
    /// returned as an error.
    pub(crate) fn try_engines(&self) -> Result<Vec<EngineSpec>, ShapeError> {
        let mut specs = Vec::new();
        let (mut c, mut h, mut w) = (self.channels, self.height, self.width);
        for (i, (&oc, &pool)) in self.conv_channels.iter().zip(&self.pool_after).enumerate() {
            if h < 3 || w < 3 {
                return Err(ShapeError::new(
                    "FinnTopology",
                    format!("image too small for conv layer {i}: {h}x{w}"),
                ));
            }
            let (oh, ow) = (h - 2, w - 2); // 3×3 valid convolution
            specs.push(EngineSpec {
                name: format!("3x3-conv-{oc}"),
                kind: EngineKind::Conv,
                kernel: 3,
                in_channels: c,
                out_channels: oc,
                in_height: h,
                in_width: w,
                out_height: oh,
                out_width: ow,
                input_bits: if i == 0 { 8 } else { 1 },
                threshold_bits: if i == 0 { 24 } else { 16 },
                pool_after: pool,
            });
            c = oc;
            h = oh;
            w = ow;
            if pool {
                h /= 2;
                w /= 2;
            }
        }
        let mut features = c * h * w;
        let last = self.fc_sizes.len() - 1;
        for (i, &of) in self.fc_sizes.iter().enumerate() {
            specs.push(EngineSpec {
                name: format!("FC-{of}"),
                kind: EngineKind::Fc,
                kernel: 1,
                in_channels: features,
                out_channels: of,
                in_height: 1,
                in_width: 1,
                out_height: 1,
                out_width: 1,
                input_bits: 1,
                threshold_bits: if i == last { 0 } else { 16 },
                pool_after: false,
            });
            features = of;
        }
        Ok(specs)
    }

    /// Total single-bit parameter count across all engines.
    pub fn total_weight_bits(&self) -> u64 {
        self.engines().iter().map(|e| e.total_weight_bits()).sum()
    }

    /// Engine records for a **partially-binarised** variant (the paper's
    /// §II note that "non-binarised operations can also be extended to
    /// handle inputs and outputs in inner layers" and its future-work
    /// direction of mixed precision on the FPGA): inner-layer
    /// activations carry `inner_bits` bits instead of 1. Weight
    /// memories are unchanged (weights stay binary); inter-layer stream
    /// buffers and datapaths grow with the activation width.
    ///
    /// # Panics
    ///
    /// Panics if `inner_bits` is zero or the image is too small for the
    /// layer stack.
    pub fn engines_partially_binarised(&self, inner_bits: usize) -> Vec<EngineSpec> {
        assert!(inner_bits > 0, "activation width must be positive");
        let mut engines = self.engines();
        for (i, e) in engines.iter_mut().enumerate() {
            if i > 0 {
                e.input_bits = inner_bits;
            }
        }
        engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_table1() {
        let engines = FinnTopology::paper().engines();
        let names: Vec<&str> = engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "3x3-conv-64",
                "3x3-conv-64",
                "3x3-conv-128",
                "3x3-conv-128",
                "3x3-conv-256",
                "3x3-conv-256",
                "FC-64",
                "FC-64",
                "FC-64",
            ]
        );
        // Spatial walk: 32→30→28→(pool)14→12→10→(pool)5→3→1.
        assert_eq!(engines[0].in_height, 32);
        assert_eq!(engines[1].out_height, 28);
        assert!(engines[1].pool_after);
        assert_eq!(engines[2].in_height, 14);
        assert_eq!(engines[4].in_height, 5);
        assert_eq!(engines[5].out_height, 1);
        // First FC sees 256 flattened features.
        assert_eq!(engines[6].in_channels, 256);
    }

    #[test]
    fn weight_sizes_follow_paper_formulas() {
        let engines = FinnTopology::paper().engines();
        // Conv layer: OD·(K·K·ID).
        assert_eq!(engines[0].total_weight_bits(), 64 * 27);
        assert_eq!(engines[2].total_weight_bits(), (128 * 9 * 64) as u64);
        // FC layer: OD·ID.
        assert_eq!(engines[6].total_weight_bits(), (64 * 256) as u64);
        assert_eq!(engines[8].total_weight_bits(), (64 * 64) as u64);
    }

    #[test]
    fn threshold_bit_widths_follow_paper() {
        let engines = FinnTopology::paper().engines();
        assert_eq!(engines[0].threshold_bits, 24);
        for e in &engines[1..8] {
            assert_eq!(e.threshold_bits, 16);
        }
        assert_eq!(engines[8].threshold_bits, 0);
        assert_eq!(engines[0].input_bits, 8);
        assert_eq!(engines[1].input_bits, 1);
    }

    #[test]
    fn scaled_topology_shrinks_channels() {
        let topo = FinnTopology::scaled(16, 16, 4);
        assert_eq!(topo.conv_channels(), &[16, 16, 32, 32]);
        // Walk: 16→14→12→(pool)6→4→2 then three FC engines.
        let engines = topo.engines();
        assert_eq!(engines.len(), 7);
        assert_eq!(engines[3].out_height, 2);
        assert_eq!(engines[4].in_channels, 32 * 2 * 2);
    }

    #[test]
    fn scaled_eight_pixel_variant_fits() {
        // 8→6→4→(pool)2 then FC.
        let engines = FinnTopology::scaled(8, 8, 8).engines();
        assert_eq!(engines.len(), 5);
        assert_eq!(engines[2].in_channels, 8 * 2 * 2);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_images_rejected() {
        let _ = FinnTopology::scaled(4, 4, 4).engines();
    }

    #[test]
    fn macs_per_image_counts_pixels() {
        let e = &FinnTopology::paper().engines()[0];
        assert_eq!(e.macs_per_image(), (64 * 27 * 30 * 30) as u64);
    }

    #[test]
    #[should_panic(expected = "classes must fit")]
    fn classes_must_fit_final_engine() {
        let _ = FinnTopology::new(3, 32, 32, vec![8], vec![false], vec![8], 10);
    }

    #[test]
    fn try_new_returns_what_new_asserts_and_a_stack_too_deep_for_the_image() {
        let fc = || vec![16, 16];
        let cases = [
            (
                FinnTopology::try_new(3, 8, 8, vec![], vec![], fc(), 10),
                "conv layer",
            ),
            (
                FinnTopology::try_new(3, 8, 8, vec![8], vec![false, true], fc(), 10),
                "pool_after",
            ),
            (
                FinnTopology::try_new(3, 8, 8, vec![8], vec![false], vec![], 10),
                "FC layer",
            ),
            (
                FinnTopology::try_new(3, 8, 8, vec![8], vec![false], vec![8], 10),
                "classes must fit",
            ),
            (
                FinnTopology::try_new(3, 4, 4, vec![8, 8], vec![false, false], fc(), 10),
                "too small for conv layer 1",
            ),
        ];
        for (result, want) in cases {
            let err = result.expect_err(want);
            assert!(err.detail().contains(want), "{err}");
        }
        assert_eq!(
            FinnTopology::try_new(3, 8, 8, vec![8, 8], vec![false, true], fc(), 10).unwrap(),
            FinnTopology::new(3, 8, 8, vec![8, 8], vec![false, true], fc(), 10)
        );
    }

    #[test]
    fn deserialize_round_trips_and_rejects_an_image_too_small() {
        let paper = FinnTopology::paper();
        assert_eq!(FinnTopology::from_value(&paper.to_value()).unwrap(), paper);
        let mut forged = paper.to_value();
        if let Value::Map(entries) = &mut forged {
            for (key, field) in entries.iter_mut() {
                if key == "height" {
                    *field = Value::UInt(3);
                }
            }
        }
        let err = FinnTopology::from_value(&forged).unwrap_err();
        assert!(err.to_string().contains("too small"), "{err}");
    }

    #[test]
    fn partially_binarised_widens_inner_activations() {
        let topo = FinnTopology::paper();
        let engines = topo.engines_partially_binarised(4);
        assert_eq!(engines[0].input_bits, 8, "first engine keeps pixels");
        for e in &engines[1..] {
            assert_eq!(e.input_bits, 4);
        }
        // Weights unchanged: still single-bit totals.
        assert_eq!(
            engines.iter().map(|e| e.total_weight_bits()).sum::<u64>(),
            topo.total_weight_bits()
        );
    }

    #[test]
    fn total_weight_bits_sums_engines() {
        let topo = FinnTopology::paper();
        let total: u64 = topo.engines().iter().map(|e| e.total_weight_bits()).sum();
        assert_eq!(topo.total_weight_bits(), total);
        // The full CIFAR-10 FINN network is ~1.5 Mbit of weights.
        assert!(total > 1_000_000 && total < 2_500_000, "total {total}");
    }
}

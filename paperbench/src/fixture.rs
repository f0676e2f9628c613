//! The seeded, paper-shaped fixture every workload runs on: the Table I
//! BNN, a Model A or B host, a DMU whose confidence varies between
//! images, and gates placed at the confidence quantiles that send
//! Table II's share of images on to the next stage.

use std::sync::Arc;

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_core::{
    gate_accepts, CascadePolicy, CascadeStage, Dmu, MultiPrecisionPipeline, PipelineResult,
    PipelineTiming, RunOptions, StageClassifier,
};
use mp_dataset::{Dataset, SynthSpec};
use mp_host::zoo::{self, ModelId};
use mp_int::{NetworkPrecision, QuantBnn};
use mp_nn::{Mode, Model, Network};
use mp_obs::NULL_RECORDER;
use mp_tensor::init::TensorRng;
use mp_tensor::{nan_aware_argmax, Parallelism, Shape};

use crate::trace::{SpanId, Trace};

/// Error type of the benchmark: every layer's error converts into it.
pub type BenchError = Box<dyn std::error::Error>;

/// Share of images the DMU sends back to the host at Table II's
/// operating point (threshold 0.84 on the paper's trained DMU).
pub const RERUN_FRAC: f64 = 0.251;

/// The Table I FINN design's measured rate on the ZC702, images/s: the
/// BNN side of the modeled timing.
const PAPER_BNN_IMG_PER_S: f64 = 430.15;

/// DMU margin weights over the sorted standardised BNN scores. Every
/// weight is non-zero so that confidences differ between images; the
/// untrained `[0.1; 10]` weights score every image 0.5.
const DMU_WEIGHTS: [f32; 10] = [
    2.0, -1.0, -0.5, -0.2, -0.1, -0.05, -0.02, -0.01, -0.005, -0.002,
];

/// Random batches that set the BNN's batch-norm statistics.
const BN_BATCHES: usize = 3;
const BN_BATCH: usize = 8;

/// Datasets drawn per seed before giving up on one whose confidences do
/// not tie at a gate.
const DATA_ATTEMPTS: u64 = 8;

/// Images per FPGA batch of the modeled timing and per block of the
/// overlapped executor.
const PIPELINE_BATCH: usize = 32;

/// Images per accepting stage that the reference check re-derives
/// through the per-image paths.
const SAMPLE_PER_STAGE: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I BNN + Model A, 25.1 % reruns, `Concurrency::Modeled`.
    PaperAModeled,
    /// Table I BNN + Model B, 25.1 % reruns, `Concurrency::Threaded`.
    PaperBOverlap,
    /// 1-bit → uniform int4 → Model A cascade, `Concurrency::Modeled`.
    Cascade3Int4,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::PaperAModeled, Self::PaperBOverlap, Self::Cascade3Int4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperAModeled => "paper_a_modeled",
            Self::PaperBOverlap => "paper_b_overlap",
            Self::Cascade3Int4 => "cascade3_int4",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Images classified per timed rep: 251, so that `round(0.251·n)`
    /// reruns are 0.251 of the images to three decimals.
    pub fn images(self) -> usize {
        251
    }

    fn host_model(self) -> ModelId {
        match self {
            Self::PaperBOverlap => ModelId::B,
            Self::PaperAModeled | Self::Cascade3Int4 => ModelId::A,
        }
    }

    /// Whether the workload runs the overlapped `Concurrency::Threaded`
    /// executor.
    pub fn threaded(self) -> bool {
        self == Self::PaperBOverlap
    }

    /// Whether the int4 stage sits between the BNN and the host.
    pub fn has_int4(self) -> bool {
        self == Self::Cascade3Int4
    }

    /// Images configured to enter each cascade stage out of `n`:
    /// everything, then `round(0.251·n)`, then (int4 cascade) half of
    /// those.
    pub fn configured_entered(self, n: usize) -> Vec<usize> {
        let reruns = (RERUN_FRAC * n as f64).round() as usize;
        if self.has_int4() {
            vec![n, reruns, reruns / 2]
        } else {
            vec![n, reruns]
        }
    }
}

/// What a run produced for every image.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Final class per image.
    pub predictions: Vec<usize>,
    /// Index of the cascade stage that accepted each image (0 = BNN).
    pub stage_of: Vec<usize>,
    /// Images entering each stage.
    pub entered: Vec<usize>,
}

/// Times the calls of [`Fixture::run_layers`] when a trace is attached.
pub struct Tracer<'a>(pub Option<(&'a mut Trace, SpanId, usize)>);

impl Tracer<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.0 {
            Some((trace, parent, rep)) => trace.span(name, Some(*parent), *rep, f),
            None => f(),
        }
    }
}

/// The models, inputs and calibrated gates of one workload.
pub struct Fixture {
    pub workload: Workload,
    pub par: Parallelism,
    pub data: Dataset,
    bnn: BnnClassifier,
    pub hw: HardwareBnn,
    pub quant: Arc<QuantBnn>,
    pub dmu: Dmu,
    pub host: Network,
    /// One gate per non-terminal stage.
    pub gates: Vec<f32>,
    /// The standalone layers' outcome under `gates`.
    pub expected: Outcome,
}

impl Fixture {
    /// Builds the workload's fixture from `seed`, with `workload.images()`
    /// images.
    pub fn build(workload: Workload, seed: u64, par: Parallelism) -> Result<Self, BenchError> {
        Self::build_n(workload, seed, par, workload.images())
    }

    /// [`build`](Self::build) with `n` images.
    pub fn build_n(
        workload: Workload,
        seed: u64,
        par: Parallelism,
        n: usize,
    ) -> Result<Self, BenchError> {
        // Timing does not need trained weights: random weights with
        // batch-norm statistics from a few random batches.
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(FinnTopology::paper(), &mut rng)?;
        for _ in 0..BN_BATCHES {
            let x = rng.normal(Shape::nchw(BN_BATCH, 3, 32, 32), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train)?;
        }
        let hw = HardwareBnn::from_classifier(&bnn)?;
        let layers = bnn.topology().engines().len();
        let quant = QuantBnn::from_classifier(&bnn, NetworkPrecision::uniform(layers, 4, 4)?)?;
        let host = zoo::build_paper(workload.host_model(), &mut rng)?;
        let mut fixture = Self {
            workload,
            par,
            data: dataset(seed, 0, n)?,
            bnn,
            hw,
            quant: Arc::new(quant),
            dmu: Dmu::with_weights(DMU_WEIGHTS.to_vec(), 0.0),
            host,
            gates: Vec::new(),
            expected: Outcome::default(),
        };
        for attempt in 0..DATA_ATTEMPTS {
            if attempt > 0 {
                fixture.data = dataset(seed, attempt, n)?;
            }
            if let Some((outcome, gates)) = fixture.run_layers(None, Tracer(None))? {
                fixture.gates = gates;
                fixture.expected = outcome;
                return Ok(fixture);
            }
        }
        Err(format!("seed {seed}: tied confidences straddle a gate in every dataset drawn").into())
    }

    /// Runs the workload's layers as standalone calls into their public
    /// functions: the BNN on every image, the DMU, then each later stage
    /// on the images the previous gate let through. Gate `s` comes from
    /// `gates`, or, when `gates` is `None`, is placed at the confidence
    /// quantile that lets exactly the configured count through —
    /// `Ok(None)` when tied confidences straddle that quantile.
    pub fn run_layers(
        &self,
        gates: Option<&[f32]>,
        mut tracer: Tracer<'_>,
    ) -> Result<Option<(Outcome, Vec<f32>)>, BenchError> {
        let n = self.data.len();
        let configured = self.workload.configured_entered(n);
        let scores = tracer.time("bnn", || {
            self.hw.infer_batch_with(self.data.images(), self.par)
        })?;
        let mut conf = tracer.time("dmu", || self.dmu.predict_batch(&scores))?;
        let mut predictions = Network::argmax_rows(&scores)?;
        let mut stage_of = vec![0; n];
        let mut entered = vec![n];
        let mut used = Vec::new();
        let mut active: Vec<usize> = (0..n).collect();
        for stage in 1..configured.len() {
            let gate = match gates {
                Some(g) => g[stage - 1],
                None => match gate_letting_through(&conf, configured[stage]) {
                    Some(g) => g,
                    None => return Ok(None),
                },
            };
            used.push(gate);
            active = active
                .iter()
                .zip(&conf)
                .filter(|&(_, &p)| !gate_accepts(p, gate))
                .map(|(&i, _)| i)
                .collect();
            entered.push(active.len());
            for &i in &active {
                stage_of[i] = stage;
            }
            if active.is_empty() {
                break;
            }
            let stage_preds = if stage + 1 < configured.len() {
                let scores = tracer.time("quant", || -> Result<_, BenchError> {
                    let subset = self.data.select(&active)?;
                    Ok(self
                        .quant
                        .infer_batch_obs(subset.images(), self.par, &NULL_RECORDER)?)
                })?;
                conf = tracer.time("dmu", || self.dmu.predict_batch(&scores))?;
                Network::argmax_rows(&scores)?
            } else {
                let scores = tracer.time("host", || -> Result<_, BenchError> {
                    let subset = self.data.select(&active)?;
                    Ok(self.host.infer_batch_with(subset.images(), self.par)?)
                })?;
                Network::argmax_rows(&scores)?
            };
            for (&i, p) in active.iter().zip(stage_preds) {
                predictions[i] = p;
            }
        }
        let outcome = Outcome {
            predictions,
            stage_of,
            entered,
        };
        Ok(Some((outcome, used)))
    }

    /// The pipeline under test, at the calibrated stage-0 gate.
    pub fn pipeline(&self) -> MultiPrecisionPipeline<'_> {
        MultiPrecisionPipeline::new(&self.hw, &self.dmu, self.gates[0]).with_parallelism(self.par)
    }

    /// The run options of the workload: its cascade at the calibrated
    /// gates, its executor, `nproc` threads, and the paper's timing
    /// constants for the modeled time.
    pub fn run_options(&self) -> Result<RunOptions<'static>, BenchError> {
        let model = self.workload.host_model();
        let timing = PipelineTiming::new(
            1.0 / PAPER_BNN_IMG_PER_S,
            1.0 / model.paper_images_per_sec(),
            PIPELINE_BATCH,
        );
        let policy = if self.workload.has_int4() {
            CascadePolicy::try_new(vec![
                CascadeStage::gated(StageClassifier::Primary, self.gates[0]),
                CascadeStage::gated(
                    StageClassifier::Quantized(self.quant.clone()),
                    self.gates[1],
                ),
                CascadeStage::terminal(StageClassifier::HostFloat),
            ])?
        } else {
            CascadePolicy::dmu(self.gates[0])
        };
        let opts = RunOptions::new(timing)
            .with_cascade(policy)
            .with_parallelism(self.par)
            .with_host_accuracy(f64::from(model.paper_accuracy()));
        Ok(if self.workload.threaded() {
            opts.threaded()
        } else {
            opts
        })
    }

    /// Images of `result` whose prediction or flag differs from the
    /// expected outcome; every image when the stage traffic differs.
    pub fn mismatches(&self, result: &PipelineResult) -> usize {
        let n = self.data.len();
        let entered: Vec<usize> = result.stage_traffic.iter().map(|t| t.entered).collect();
        if entered != self.expected.entered
            || result.predictions.len() != n
            || result.flagged.len() != n
        {
            return n;
        }
        (0..n)
            .filter(|&i| {
                result.predictions[i] != self.expected.predictions[i]
                    || result.flagged[i] != (self.expected.stage_of[i] > 0)
            })
            .count()
    }

    /// Re-derives a sample of images — the first few accepted by each
    /// stage — through the per-image reference paths
    /// (`HardwareBnn::infer_image`, the 1-bit `QuantBnn` corner,
    /// `Dmu::predict`, `QuantBnn::infer_image`, `Network::forward`) and
    /// returns `(sampled, mismatched)` against the expected outcome.
    pub fn reference_mismatches(&mut self) -> Result<(usize, usize), BenchError> {
        let layers = self.bnn.topology().engines().len();
        let one_bit = QuantBnn::from_classifier(&self.bnn, NetworkPrecision::one_bit(layers)?)?;
        let stages = self.expected.entered.len();
        let stage_of = &self.expected.stage_of;
        let sample: Vec<usize> = (0..stages)
            .flat_map(|s| {
                (0..stage_of.len())
                    .filter(move |&i| stage_of[i] == s)
                    .take(SAMPLE_PER_STAGE)
            })
            .collect();
        let mut bad = 0;
        for &i in &sample {
            let image = self.data.images().batch_item(i)?;
            let raw = self.hw.infer_image(&image)?;
            let corner_agrees = one_bit.infer_image(&image)? == raw;
            let scores: Vec<f32> = raw.iter().map(|&s| s as f32).collect();
            let mut pred = nan_aware_argmax(&scores).ok_or("BNN scores have no maximum")?;
            let mut stage = 0;
            let mut conf = self.dmu.predict(&scores);
            while stage + 1 < stages && !gate_accepts(conf, self.gates[stage]) {
                stage += 1;
                if stage + 1 < stages {
                    let scale = self.quant.scores_scale();
                    let q: Vec<f32> = self
                        .quant
                        .infer_image(&image)?
                        .iter()
                        .map(|&s| s as f32 / scale)
                        .collect();
                    pred = nan_aware_argmax(&q).ok_or("int4 scores have no maximum")?;
                    conf = self.dmu.predict(&q);
                } else {
                    pred = Network::argmax_rows(&self.host.forward(&image)?)?[0];
                }
            }
            if !corner_agrees
                || pred != self.expected.predictions[i]
                || stage != self.expected.stage_of[i]
            {
                bad += 1;
            }
        }
        Ok((sample.len(), bad))
    }
}

/// The `attempt`-th dataset of `seed`: `n` CIFAR-shaped 32×32×3 images.
fn dataset(seed: u64, attempt: u64, n: usize) -> Result<Dataset, BenchError> {
    let spec = SynthSpec {
        seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt),
        ..SynthSpec::default()
    };
    Ok(spec.generate(n)?)
}

/// The gate that lets exactly `k` of the confidences `conf` through to
/// the next stage (those strictly below it, see [`gate_accepts`]), or
/// `None` when equal confidences straddle that boundary.
pub fn gate_letting_through(conf: &[f32], k: usize) -> Option<f32> {
    let mut sorted = conf.to_vec();
    sorted.sort_by(f32::total_cmp);
    match k {
        0 => Some(0.0),
        k if k >= sorted.len() => None,
        k => (sorted[k - 1] < sorted[k]).then_some(sorted[k]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_lets_exactly_k_through_or_refuses_a_tie() {
        let conf = [0.9, 0.1, 0.5, 0.3, 0.7];
        for k in 0..conf.len() {
            let g = gate_letting_through(&conf, k).expect("no ties");
            assert_eq!(conf.iter().filter(|&&p| !gate_accepts(p, g)).count(), k);
        }
        assert_eq!(gate_letting_through(&[0.2, 0.4, 0.4, 0.6], 2), None);
        assert_eq!(gate_letting_through(&[0.2, 0.4, 0.4, 0.6], 3), Some(0.6));
    }

    #[test]
    fn fixture_hits_the_configured_traffic_exactly_for_two_seeds() {
        let par = Parallelism::available();
        for seed in [3, 11] {
            for workload in [Workload::PaperAModeled, Workload::Cascade3Int4] {
                let mut f = Fixture::build_n(workload, seed, par, 64).expect("fixture");
                assert_eq!(f.expected.entered, workload.configured_entered(64));
                let flagged = f.expected.stage_of.iter().filter(|&&s| s > 0).count();
                assert_eq!(flagged, (RERUN_FRAC * 64.0).round() as usize);
                let result = f
                    .pipeline()
                    .execute(&f.host, &f.data, &f.run_options().expect("options"))
                    .expect("execute");
                assert_eq!(f.mismatches(&result), 0, "{workload:?} seed {seed}");
                let (sampled, bad) = f.reference_mismatches().expect("reference");
                assert!(sampled > 0);
                assert_eq!(bad, 0, "{workload:?} seed {seed}");
            }
        }
    }
}

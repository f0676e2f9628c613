//! End-to-end experiment orchestration.
//!
//! [`TrainedSystem::prepare`] reproduces the paper's workflow on the
//! synthetic dataset: train the binarised FINN network, fold it into its
//! hardware form, classify the training set to build the DMU's
//! (scores → correct) dataset, train the DMU, train the three host
//! models, and evaluate everything — producing the ingredients of
//! Tables II, IV and V and Fig. 5.

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_dataset::{Dataset, SynthSpec};
use mp_host::zoo::{self, ModelId};
use mp_host::ArmHost;
use mp_nn::train::{Adam, Optimizer, Trainer};
use mp_nn::Network;
use mp_tensor::init::TensorRng;
use mp_tensor::{Shape, Tensor};

use crate::dmu::Dmu;
use crate::pipeline::{MultiPrecisionPipeline, PipelineResult, PipelineTiming};
use crate::run::RunOptions;
use crate::CoreError;

/// Configuration of a full multi-precision experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Root seed; every stochastic component derives from it.
    pub seed: u64,
    /// Synthetic dataset specification.
    pub synth: SynthSpec,
    /// Training images.
    pub train_images: usize,
    /// Test images.
    pub test_images: usize,
    /// BNN training epochs.
    pub bnn_epochs: usize,
    /// Host model training epochs.
    pub host_epochs: usize,
    /// DMU training epochs.
    pub dmu_epochs: usize,
    /// DMU operating threshold. The paper selects 0.84 for its score
    /// distribution; profiles pick the balanced point for *their* BNN by
    /// the same eq. (6)/(7) procedure (see `mp_core::dmu::selection`).
    pub threshold: f32,
    /// FPGA batch size in the pipelined loop.
    pub batch_size: usize,
}

impl ExperimentConfig {
    /// The `Fast` profile: 16×16 synthetic images, reduced topologies,
    /// a few thousand images — the whole suite runs in minutes while
    /// exercising exactly the paper's code path.
    pub fn fast_profile(seed: u64) -> Self {
        Self {
            seed,
            synth: SynthSpec::fast(),
            train_images: 2500,
            test_images: 1000,
            bnn_epochs: 20,
            host_epochs: 12,
            dmu_epochs: 30,
            threshold: 0.55,
            batch_size: 100,
        }
    }

    /// A minimal smoke profile for tests: 8×8 images, tiny budgets.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            synth: SynthSpec::tiny(),
            train_images: 120,
            test_images: 60,
            bnn_epochs: 2,
            host_epochs: 2,
            dmu_epochs: 5,
            threshold: 0.55,
            batch_size: 20,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for empty datasets, a bad
    /// threshold, or an image size without a matching topology.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.train_images == 0 || self.test_images == 0 {
            return Err(CoreError::InvalidConfig(
                "datasets must be non-empty".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(CoreError::InvalidConfig(format!(
                "threshold {} outside [0,1]",
                self.threshold
            )));
        }
        if self.synth.height < 8 || self.synth.width < 8 {
            return Err(CoreError::InvalidConfig(
                "images must be at least 8x8 for the scaled FINN topology".into(),
            ));
        }
        Ok(())
    }
}

/// Everything the evaluation section needs, trained and ready.
#[derive(Debug)]
pub struct TrainedSystem {
    /// The configuration used.
    pub config: ExperimentConfig,
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// The trained binarised classifier (float/STE view).
    pub bnn: BnnClassifier,
    /// The folded hardware network.
    pub hw: HardwareBnn,
    /// The trained decision-making unit.
    pub dmu: Dmu,
    /// Host networks with their measured standalone test accuracies.
    pub hosts: Vec<(ModelId, Network, f64)>,
    /// Hardware BNN accuracy on the test set.
    pub bnn_test_accuracy: f64,
    /// Hardware BNN scores on the training set (the DMU's dataset).
    pub bnn_train_scores: Tensor,
    /// Per-training-image correctness of the hardware BNN.
    pub bnn_train_correct: Vec<bool>,
    /// Hardware BNN scores on the test set.
    pub bnn_test_scores: Tensor,
    /// Per-test-image correctness of the hardware BNN.
    pub bnn_test_correct: Vec<bool>,
}

impl TrainedSystem {
    /// Trains the whole system per `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid configuration or internal shape
    /// errors.
    pub fn prepare(config: &ExperimentConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let mut rng = TensorRng::seed_from(config.seed);
        // Data.
        let mut spec = config.synth.clone();
        spec.seed = config.seed ^ 0xDA7A;
        let mut gen = spec.build()?;
        let train = gen.generate(config.train_images)?;
        let test = gen.generate(config.test_images)?;
        // Binarised network.
        let topology = FinnTopology::scaled(spec.height, spec.width, scale_divisor(spec.height));
        let mut bnn = BnnClassifier::new(topology, &mut rng.fork())?;
        // BinaryNet trains with Adam: plain SGD's updates are too small
        // to flip latent-weight signs (see mp_nn::train::Adam).
        let mut bnn_trainer = Trainer::new(Adam::new(0.003), 32);
        let mut train_rng = rng.fork();
        for epoch in 0..config.bnn_epochs {
            if epoch == config.bnn_epochs * 3 / 4 {
                bnn_trainer.optimizer_mut().set_learning_rate(0.001);
            }
            bnn_trainer.train_epoch(&mut bnn, train.images(), train.labels(), &mut train_rng)?;
        }
        // Fold to hardware and score both splits.
        let hw = HardwareBnn::from_classifier(&bnn)?;
        let bnn_train_scores = hw.infer_batch(train.images())?;
        let bnn_train_correct = correctness(&bnn_train_scores, train.labels())?;
        let bnn_test_scores = hw.infer_batch(test.images())?;
        let bnn_test_correct = correctness(&bnn_test_scores, test.labels())?;
        let bnn_test_accuracy = fraction(&bnn_test_correct);
        // DMU, trained on the training-set scores (paper §III-B).
        let mut dmu = Dmu::new(test.num_classes());
        dmu.train(
            &bnn_train_scores,
            &bnn_train_correct,
            config.dmu_epochs,
            0.05,
            &mut rng.fork(),
        )?;
        // Host models. Deeper networks get proportionally more epochs,
        // mirroring how the paper's Caffe recipes train B and C far
        // longer than the shallow Model A.
        let mut hosts = Vec::new();
        for id in ModelId::ALL {
            let mut net = build_host(id, &spec, &mut rng.fork())?;
            let mut trainer = Trainer::new(Adam::new(host_lr(id)), 32);
            let mut host_rng = rng.fork();
            let epochs = config.host_epochs * host_epoch_factor(id);
            for epoch in 0..epochs {
                if epoch == epochs * 3 / 4 {
                    trainer.optimizer_mut().set_learning_rate(host_lr(id) * 0.3);
                }
                trainer.train_epoch(&mut net, train.images(), train.labels(), &mut host_rng)?;
            }
            let acc = trainer.evaluate(&mut net, test.images(), test.labels())? as f64;
            hosts.push((id, net, acc));
        }
        Ok(Self {
            config: config.clone(),
            train,
            test,
            bnn,
            hw,
            dmu,
            hosts,
            bnn_test_accuracy,
            bnn_train_scores,
            bnn_train_correct,
            bnn_test_scores,
            bnn_test_correct,
        })
    }

    /// The measured standalone test accuracy of a host model.
    ///
    /// # Panics
    ///
    /// Panics if `id` is missing (cannot happen for systems produced by
    /// [`prepare`](Self::prepare)).
    pub fn host_accuracy(&self, id: ModelId) -> f64 {
        self.hosts
            .iter()
            .find(|(h, _, _)| *h == id)
            .map(|(_, _, acc)| *acc)
            .expect("host model present")
    }

    /// Ready-to-run [`RunOptions`] for host model `id`: the paper-scale
    /// [`paper_timing`](Self::paper_timing) and the model's measured
    /// standalone accuracy prefilled, everything else at its default
    /// (modelled concurrency, no faults, null recorder). Chain builder
    /// calls — `.threaded()`, `.with_faults(..)`, `.with_recorder(..)` —
    /// before passing it to [`execute`](Self::execute).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the full-size host model behind the
    /// timing cannot be built.
    pub fn run_options(&self, id: ModelId) -> Result<RunOptions<'static>, CoreError> {
        Ok(RunOptions::new(self.paper_timing(id)?).with_host_accuracy(self.host_accuracy(id)))
    }

    /// Runs the multi-precision pipeline with host model `id` at the
    /// configured threshold, as configured by `opts`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on shape inconsistencies, invalid options,
    /// or real (non-injected) host errors.
    pub fn execute(&self, id: ModelId, opts: &RunOptions<'_>) -> Result<PipelineResult, CoreError> {
        MultiPrecisionPipeline::new(&self.hw, &self.dmu, self.config.threshold).execute(
            self.host(id),
            &self.test,
            opts,
        )
    }

    /// The trained host network for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is missing (cannot happen for systems produced by
    /// [`prepare`](Self::prepare)).
    pub fn host(&self, id: ModelId) -> &Network {
        self.hosts
            .iter()
            .find(|(h, _, _)| *h == id)
            .map(|(_, net, _)| net)
            .expect("host model present")
    }

    /// Paper-scale timing for host model `id`: the ZC702's measured
    /// Table IV host rate (via the calibrated ARM cost model on the
    /// full-size topology) against the selected 430 img/s FINN design.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the full-size host model cannot be
    /// built.
    pub fn paper_timing(&self, id: ModelId) -> Result<PipelineTiming, CoreError> {
        let host = ArmHost::calibrated_zc702()?;
        let mut rng = TensorRng::seed_from(0);
        let cost = zoo::build_paper(id, &mut rng)?.total_cost()?;
        Ok(PipelineTiming::new(
            1.0 / 430.15,
            host.seconds_per_image(&cost),
            self.config.batch_size,
        ))
    }
}

/// Scaled-topology channel divisor for a given image edge.
fn scale_divisor(edge: usize) -> usize {
    if edge >= 32 {
        1
    } else if edge >= 16 {
        2
    } else {
        4
    }
}

/// Builds the host model appropriate to the image geometry: the paper
/// topologies at 32 px, the `fast` variants at 16 px, and bespoke tiny
/// networks (with the same A < B < C depth ordering) at 8 px.
fn build_host(id: ModelId, spec: &SynthSpec, rng: &mut TensorRng) -> Result<Network, CoreError> {
    let edge = spec.height.min(spec.width);
    if edge >= 32 {
        return Ok(zoo::build_paper(id, rng)?);
    }
    if edge >= 16 {
        return Ok(zoo::build_fast(id, rng)?);
    }
    // 8×8 smoke hosts.
    let input = Shape::nchw(1, spec.channels, spec.height, spec.width);
    let net = match id {
        ModelId::A => Network::builder(input)
            .conv2d(8, 3, 1, 1, rng)?
            .relu()
            .global_avg_pool()
            .linear(10, rng)?
            .build(),
        ModelId::B => Network::builder(input)
            .conv2d(12, 3, 1, 1, rng)?
            .relu()
            .conv2d(12, 1, 1, 0, rng)?
            .relu()
            .global_avg_pool()
            .linear(10, rng)?
            .build(),
        ModelId::C => Network::builder(input)
            .conv2d(12, 3, 1, 1, rng)?
            .relu()
            .conv2d(12, 3, 1, 1, rng)?
            .relu()
            .conv2d(10, 1, 1, 0, rng)?
            .global_avg_pool()
            .build(),
    };
    Ok(net)
}

/// Epoch multiplier per host model (deeper nets train longer).
fn host_epoch_factor(id: ModelId) -> usize {
    match id {
        ModelId::A => 1,
        ModelId::B | ModelId::C => 2,
    }
}

/// Learning rate per host model (deeper nets need gentler steps).
fn host_lr(id: ModelId) -> f32 {
    match id {
        ModelId::A => 0.003,
        ModelId::B => 0.002,
        ModelId::C => 0.002,
    }
}

fn correctness(scores: &Tensor, labels: &[usize]) -> Result<Vec<bool>, CoreError> {
    let preds = Network::argmax_rows(scores)?;
    Ok(preds.iter().zip(labels).map(|(p, l)| p == l).collect())
}

fn fraction(flags: &[bool]) -> f64 {
    flags.iter().filter(|&&f| f).count() as f64 / flags.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_trains_end_to_end() {
        let system = TrainedSystem::prepare(&ExperimentConfig::smoke(7)).unwrap();
        assert_eq!(system.train.len(), 120);
        assert_eq!(system.test.len(), 60);
        assert_eq!(system.hosts.len(), 3);
        assert!(system.bnn_test_accuracy >= 0.0 && system.bnn_test_accuracy <= 1.0);
        // Pipeline runs through the unified options API.
        let opts = system.run_options(ModelId::A).unwrap();
        let r = system.execute(ModelId::A, &opts).unwrap();
        assert_eq!(r.total_images, 60);
        assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
    }

    #[test]
    fn paper_timing_uses_table4_rates() {
        let system = TrainedSystem::prepare(&ExperimentConfig::smoke(8)).unwrap();
        let a = system.paper_timing(ModelId::A).unwrap();
        assert!((1.0 / a.t_fp_img_s - 29.68).abs() < 0.1);
        assert!((1.0 / a.t_bnn_img_s - 430.15).abs() < 0.1);
        let b = system.paper_timing(ModelId::B).unwrap();
        assert!(b.t_fp_img_s > a.t_fp_img_s);
    }

    #[test]
    fn config_validation() {
        let mut c = ExperimentConfig::smoke(0);
        c.train_images = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::smoke(0);
        c.threshold = 1.5;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::smoke(0);
        c.synth.height = 4;
        assert!(c.validate().is_err());
        assert!(ExperimentConfig::fast_profile(0).validate().is_ok());
    }

    #[test]
    fn same_seed_reproduces_bnn_accuracy() {
        let a = TrainedSystem::prepare(&ExperimentConfig::smoke(9)).unwrap();
        let b = TrainedSystem::prepare(&ExperimentConfig::smoke(9)).unwrap();
        assert_eq!(a.bnn_test_accuracy, b.bnn_test_accuracy);
        assert_eq!(a.bnn_test_correct, b.bnn_test_correct);
    }

    #[test]
    fn host_accuracy_lookup() {
        let system = TrainedSystem::prepare(&ExperimentConfig::smoke(10)).unwrap();
        for id in ModelId::ALL {
            let acc = system.host_accuracy(id);
            assert!((0.0..=1.0).contains(&acc));
        }
    }
}

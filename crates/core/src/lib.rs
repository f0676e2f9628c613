//! # mp-core
//!
//! The paper's primary contribution: the **multi-precision CNN** — a
//! binarised network on the FPGA classifying every image, a
//! floating-point network on the CPU re-classifying the hard ones, and a
//! light-weight trained **Decision-Making Unit** in between (paper
//! Fig. 1).
//!
//! - [`dmu`]: the DMU — a trained single "Softmax" unit (ten
//!   multiplications, a bias, a sigmoid; §III-B) over the BNN's class
//!   scores, its threshold sweep (Fig. 5), and the FS/F̄S̄/F̄S/FS̄
//!   quadrant accounting (Table II);
//! - [`model`]: the analytic throughput and accuracy models, eqs. (1)
//!   and (2);
//! - [`pipeline`]: the heterogeneous executor — both a modelled-time
//!   batch pipeline following the paper's `async(1)`/`wait(1)`
//!   pseudo-code and a real two-thread implementation where the FPGA
//!   simulator and the host network run concurrently (Fig. 2);
//! - [`run`]: the unified [`RunOptions`] builder consumed by
//!   [`MultiPrecisionPipeline::execute`] — execution mode, cascade
//!   policy and parallelism overrides, fault plan, degradation policy,
//!   and an attachable `mp_obs` recorder for passive instrumentation;
//! - [`cascade`]: the first-class decision API — an N-stage
//!   [`CascadePolicy`] of increasing-precision classifiers with
//!   validated confidence gates, subsuming the DMU threshold as its
//!   canonical 2-stage instance ([`CascadePolicy::dmu`]), plus the
//!   cost-aware gate tuner ([`cascade::tune_gates`]);
//! - [`experiment`]: end-to-end orchestration that trains the BNN, the
//!   host models and the DMU on the synthetic dataset and produces the
//!   records behind Tables II, IV and V;
//! - [`fault`]: deterministic fault injection (seeded host errors,
//!   latency spikes, worker death, FPGA stream faults) and the graceful
//!   degradation policy — retries, deadlines, and a circuit breaker
//!   that trips the pipeline into BNN-only mode.
//!
//! # Example
//!
//! ```no_run
//! use mp_core::experiment::{ExperimentConfig, TrainedSystem};
//!
//! # fn main() -> Result<(), mp_core::CoreError> {
//! let system = TrainedSystem::prepare(&ExperimentConfig::fast_profile(0))?;
//! println!("BNN accuracy: {:.3}", system.bnn_test_accuracy);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod error;

pub mod cascade;
pub mod dmu;
pub mod experiment;
pub mod fault;
pub mod model;
pub mod pipeline;
pub mod run;
pub mod stats;

pub use cascade::{
    gate_accepts, CascadePolicy, CascadeShape, CascadeStage, StageClassifier, StageShape,
};
pub use dmu::{ConfusionQuadrants, Dmu};
pub use error::CoreError;
pub use fault::{
    CircuitBreaker, DegradationPolicy, DegradationStats, FaultEvent, FaultInjector, FaultKind,
    FaultPlan, FleetFaultPlan, ReplicaFault, ReplicaFaultEvent,
};
pub use pipeline::{
    modeled_batch_time, modeled_cascade_time, MultiPrecisionPipeline, PipelineResult,
    PipelineTiming, StageTraffic,
};
pub use run::{Concurrency, RunOptions};
pub use stats::nearest_rank_percentile;

//! # mp-fleet
//!
//! Fault-tolerant multi-replica serving over the multi-precision
//! pipeline: a **virtual-time cluster simulator** that puts N pipeline
//! replicas — mixing FPGA-profile and host-only timing — behind a
//! router, and keeps the paper's "always return a prediction" guarantee
//! when whole replicas die.
//!
//! - [`replica`]: replica descriptions ([`ReplicaSpec`], FPGA-profile
//!   vs host-only) and the per-replica **virtual-time circuit breaker**
//!   ([`FleetBreaker`]: closed → open on consecutive failures → a
//!   half-open probe after a cooldown);
//! - [`router`]: pluggable [`RoutingPolicy`] — round-robin,
//!   join-shortest-queue, and precision-aware (cheap BNN replicas
//!   first, spill to host-only replicas under load);
//! - [`sim`]: the discrete-event engine ([`FleetSim`]) — one
//!   `mp_serve::Batcher` per replica (the dynamic batcher and bounded
//!   admission queue `BatchServer` drives), replica crash /
//!   slowdown / recovery from a seeded
//!   [`FleetFaultPlan`](mp_core::FleetFaultPlan), explicit re-enqueue
//!   or shed of orphaned requests, and hedged retries with
//!   deterministic dedup of the losing copy;
//! - [`report`]: per-request completions, per-replica stats, the
//!   crash/breaker timeline, and latency percentiles.
//!
//! Everything is deterministic: the same trace, specs, config and fault
//! plan replay byte-identically, and the functional predictions are
//! bit-identical to a single unfaulted pipeline run (replicas differ in
//! *timing only* — a host-only replica runs the same functional
//! pipeline with its BNN stage priced at host speed).
//!
//! # Example
//!
//! ```
//! use mp_core::{FleetFaultPlan, PipelineTiming};
//! use mp_fleet::{
//!     FleetConfig, FleetSim, PredictionCache, ReplicaSpec, RoutingPolicy,
//! };
//! use mp_serve::Request;
//!
//! # fn main() -> Result<(), mp_fleet::FleetError> {
//! // Functional results from one real pipeline run over a 4-image store.
//! let cache = PredictionCache::new(vec![3, 1, 4, 1], vec![false, true, false, false])?;
//! let timing = PipelineTiming::new(0.001, 0.01, 4);
//! let specs = vec![
//!     ReplicaSpec::fpga("fpga0", timing, 4, 0.005, 64)?,
//!     ReplicaSpec::host_only("host0", 0.01, 4, 0.005, 64)?,
//! ];
//! let sim = FleetSim::new(specs, FleetConfig::new(RoutingPolicy::JoinShortestQueue), cache)?;
//! let trace: Vec<Request> = (0..8).map(|i| Request::new(i, i as usize % 4, 0.002 * i as f64)).collect();
//! let report = sim.run(&trace, &FleetFaultPlan::none(), &mp_obs::NULL_RECORDER)?;
//! assert_eq!(report.served() + report.shed.len(), trace.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod error;

pub mod replica;
pub mod report;
pub mod router;
pub mod sim;

pub use error::FleetError;
pub use replica::{BreakerConfig, BreakerState, FleetBreaker, ReplicaKind, ReplicaSpec};
pub use report::{FleetCompletion, FleetReport, FleetTimelineEvent, ReplicaStats, TimelineKind};
pub use router::RoutingPolicy;
pub use sim::{FleetConfig, FleetSim, PredictionCache};

//! Request-level serving front-end for the multi-precision pipeline.
//!
//! Every other entry point in the workspace
//! ([`MultiPrecisionPipeline::execute`](mp_core::MultiPrecisionPipeline::execute),
//! [`TrainedSystem::execute`](mp_core::experiment::TrainedSystem::execute))
//! takes a whole [`Dataset`](mp_dataset::Dataset) up front. This crate
//! models the missing production shape: individual requests arriving
//! over time and a **dynamic batcher** ([`Batcher`]) that admits them
//! into a queue with a hard bound (overload sheds instead of growing
//! memory) and coalesces them into pipeline batches — batch-of-1 under
//! light load, full batches under heavy load — exactly the
//! latency/throughput trade-off the paper's `async(1)`/`wait(1)` loop
//! (eqs. 1–2) is about. Every `mp-fleet` replica drives the same
//! `Batcher`, and [`validate_trace`] checks traces for both front-ends.
//!
//! Time is **virtual** throughout: requests carry a deterministic
//! arrival timestamp, batch service time is the pipeline's modelled
//! `async`/`wait` batch time, and the whole serve loop is a replayable
//! discrete-event simulation. Same request trace + same seed ⇒
//! byte-identical [`ServeReport`]. Batching is latency-only by
//! construction: every layer of the pipeline treats batch rows
//! independently, so predictions are bit-identical to a single
//! dataset-mode `execute` over the same images (pinned by a property
//! test in `tests/props.rs`).
//!
//! # Example
//!
//! ```no_run
//! use mp_serve::{BatchServer, BatcherConfig, Request};
//! # fn run(
//! #     pipeline: &mp_core::MultiPrecisionPipeline<'_>,
//! #     host: &mp_nn::Network,
//! #     store: &mp_dataset::Dataset,
//! #     opts: &mp_core::RunOptions<'_>,
//! # ) -> Result<(), mp_serve::ServeError> {
//! let cfg = BatcherConfig::try_new(8, 5e-3, 64)?;
//! let server = BatchServer::new(pipeline, host, store, cfg);
//! let requests: Vec<Request> = (0..100)
//!     .map(|i| Request::new(i, i as usize % store.len(), i as f64 * 1e-3))
//!     .collect();
//! let report = server.serve(&requests, opts)?;
//! println!(
//!     "{} served, {} shed, p99 {:.3} ms",
//!     report.served(),
//!     report.shed.len(),
//!     report.percentile_latency_s(99.0).unwrap_or(0.0) * 1e3,
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

mod batcher;
mod report;
mod request;

pub use batcher::{BatchServer, Batcher, BatcherConfig, Enqueue, ServeError};
pub use report::{BatchRecord, Completion, ServeReport};
pub use request::{validate_trace, Request};

//! The heterogeneous multi-precision executor (paper Figs. 1–2).
//!
//! The FPGA (the [`HardwareBnn`] functional model) classifies every
//! image; the DMU flags low-confidence classifications; the host network
//! re-infers the flagged subset. That is the 2-stage
//! [`CascadePolicy::dmu`], and every run executes one cascade policy:
//! the [`RunOptions::with_cascade`] policy, or else `dmu` of the
//! constructor threshold. All execution variants are driven by
//! [`MultiPrecisionPipeline::execute`] with a [`RunOptions`] builder:
//!
//! - [`Concurrency::Modeled`] walks the cascade stage by stage and
//!   computes a **modelled** execution time that replays the paper's
//!   `async(1)`/`wait(1)` batch overlap: while the FPGA processes batch
//!   `i`, the host re-infers the images flagged in batch `i−1`;
//! - [`Concurrency::Threaded`] actually executes the two stages of the
//!   `dmu` cascade on separate threads connected by a **bounded**
//!   channel, demonstrating the concurrent structure of Fig. 2 (its
//!   wall-clock time reflects this machine, not the ZC702).
//!
//! The executors differ only in *when* stages run: both run one host
//! stage body and hand their routing to one result assembly, so every
//! [`PipelineResult`] field means the same thing under either.
//!
//! That host stage is built for a *misbehaving* host:
//! [`RunOptions::with_faults`] injects a seeded
//! [`FaultPlan`](crate::fault::FaultPlan) under a
//! [`RunOptions::with_degradation`] policy under either executor, and
//! the pipeline guarantees that every image still receives a
//! prediction — recoverable host faults (errors, latency spikes, even
//! the death of the host stage) degrade an image that entered the host
//! to the prediction of the stage before it instead of aborting the
//! run, with the degradation fully accounted in the [`PipelineResult`].
//!
//! Every run is observable: [`RunOptions::with_recorder`] attaches an
//! [`mp_obs::Recorder`] that receives spans (whole run, BNN+DMU stage,
//! host rerun batches, per-engine and per-layer timings), counters,
//! latency histograms and typed events — with bit-identical predictions
//! and fault accounting whether recording is on or off.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::channel::{self, TrySendError};

use mp_bnn::HardwareBnn;
use mp_dataset::Dataset;
use mp_nn::Network;
use mp_obs::{now_ns, schema, ObsEvent, Recorder};
use mp_tensor::{Parallelism, Tensor};

use crate::cascade::{gate_accepts, CascadePolicy, StageClassifier};
use crate::dmu::{ConfusionQuadrants, Dmu};
use crate::fault::{
    CircuitBreaker, DegradationStats, FaultEvent, FaultInjector, FaultKind, INJECTED_DEATH_MSG,
};
use crate::model;
use crate::run::{Concurrency, RunOptions};
use crate::CoreError;

/// Timing constants of the two heterogeneous processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineTiming {
    /// Seconds per image on the FPGA BNN (e.g. `1/430.15`).
    pub t_bnn_img_s: f64,
    /// Seconds per image on the host float network (e.g. `1/29.68`).
    pub t_fp_img_s: f64,
    /// Images per FPGA batch in the `async`/`wait` loop. Under
    /// [`Concurrency::Threaded`] it is also the producer's block: each
    /// block is scored on one thread, and the channel of flagged image
    /// indices to the host worker holds at most this many, so a stalled
    /// host back-pressures the producer instead of growing memory.
    pub batch_size: usize,
}

impl PipelineTiming {
    /// Creates a timing record.
    ///
    /// # Panics
    ///
    /// Panics if a time is non-positive or `batch_size` is zero.
    pub fn new(t_bnn_img_s: f64, t_fp_img_s: f64, batch_size: usize) -> Self {
        assert!(
            t_bnn_img_s > 0.0 && t_fp_img_s > 0.0,
            "times must be positive"
        );
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            t_bnn_img_s,
            t_fp_img_s,
            batch_size,
        }
    }
}

/// Per-stage traffic accounting of one run, in cascade order. Counts
/// reflect **gate decisions**: `entered` is how many images reached the
/// stage, `accepted` how many its gate kept (the terminal stage accepts
/// everything it receives). Host-side degradation under faults is *not*
/// folded in here — it stays in
/// [`PipelineResult::degraded_count`] — so a faulted run reports the
/// same traffic as a fault-free one.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct StageTraffic {
    /// Stage label (shared with [`StageClassifier::label`] /
    /// [`CascadePolicy::labels`]).
    pub label: String,
    /// Images that entered this stage.
    pub entered: usize,
    /// Images this stage's gate accepted.
    pub accepted: usize,
    /// `entered / total_images` — the `f_s` of the generalised eq. (1).
    pub entered_frac: f64,
    /// `accepted / total_images`.
    pub accepted_frac: f64,
    /// Modeled seconds per image on this stage (cost-factor scaled).
    pub unit_cost_s: f64,
}

/// Outcome of one multi-precision classification run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Images classified.
    pub total_images: usize,
    /// Final multi-precision accuracy.
    pub accuracy: f64,
    /// Standalone BNN accuracy on the same set.
    pub bnn_accuracy: f64,
    /// Host accuracy on the successfully rerun subset (the paper reports
    /// 65/79/83 % for Models A/B/C — lower than their global accuracies
    /// because the subset is hard). `None` when nothing was rerun.
    pub host_subset_accuracy: Option<f64>,
    /// DMU quadrants at the operating threshold.
    pub quadrants: ConfusionQuadrants,
    /// Images successfully re-inferred on the host.
    pub rerun_count: usize,
    /// Modelled execution time of the batch-overlapped pipeline.
    pub modeled_time_s: f64,
    /// Throughput from the modelled time.
    pub modeled_images_per_sec: f64,
    /// Eq. (1) prediction with the measured rerun ratio.
    pub analytic_images_per_sec: f64,
    /// Eq. (2) prediction with the host's *global* accuracy (the paper's
    /// optimistic form).
    pub analytic_accuracy_eq2: f64,
    /// Final per-image class predictions.
    pub predictions: Vec<usize>,
    /// Per-image DMU decision: `true` where the image was flagged for
    /// host re-inference, `false` where the BNN prediction was kept.
    /// Downstream service-time models (`mp-fleet`) replay batches from
    /// this mask without re-running inference.
    pub flagged: Vec<bool>,
    /// Per-stage traffic and modeled unit cost, in cascade order. A
    /// threshold run reports its 2-stage cascade here (low-precision
    /// stage, then `float32`).
    pub stage_traffic: Vec<StageTraffic>,
    /// Wall-clock seconds when run with [`Concurrency::Threaded`].
    pub wall_seconds: Option<f64>,
    /// Images that entered the host stage but kept the prediction of the
    /// stage before it because the host misbehaved (fault-injected or
    /// real).
    pub degraded_count: usize,
    /// Host inference retries performed under the degradation policy.
    pub retries: usize,
    /// Times the circuit breaker tripped into fallback-only mode.
    pub breaker_trips: usize,
    /// Host inference attempts (first tries, retries and recovery probes).
    pub host_attempts: usize,
    /// Producer-side sends that found the bounded channel full.
    pub backpressure_events: usize,
    /// Virtual seconds charged to retry backoff.
    pub virtual_backoff_s: f64,
    /// Ordered fault log; empty on a fault-free run. Same seed ⇒
    /// byte-identical log.
    pub fault_log: Vec<FaultEvent>,
}

/// The multi-precision system: BNN + DMU + a default decision policy.
#[derive(Debug)]
pub struct MultiPrecisionPipeline<'a> {
    hw: &'a HardwareBnn,
    dmu: &'a Dmu,
    policy: CascadePolicy,
    parallelism: Parallelism,
}

impl<'a> MultiPrecisionPipeline<'a> {
    /// Creates a pipeline whose default decision policy is
    /// [`CascadePolicy::dmu`]`(threshold)`: the BNN keeps images with
    /// DMU confidence `>= threshold` and the host re-infers the rest.
    /// [`RunOptions::with_cascade`] overrides it per run.
    ///
    /// Host re-inference runs sequentially by default; see
    /// [`with_parallelism`](Self::with_parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn new(hw: &'a HardwareBnn, dmu: &'a Dmu, threshold: f32) -> Self {
        Self {
            hw,
            dmu,
            policy: CascadePolicy::dmu(threshold),
            parallelism: Parallelism::sequential(),
        }
    }

    /// Shards each stage's batches across `parallelism` threads (under
    /// [`Concurrency::Threaded`], the host reruns; its producer scores
    /// each block on one thread). Predictions are bit-identical for every setting, and the
    /// fault log stays seed-deterministic: fault decisions depend only on
    /// arrival order, `(image, attempt)` and breaker state, never on how
    /// the deferred inference batch is sharded.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The host-side data parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs the pipeline as configured by `opts` — the single entry
    /// point behind every execution variant.
    ///
    /// The run executes one [`CascadePolicy`]: the
    /// [`RunOptions::with_cascade`] policy, or else the constructor's
    /// [`CascadePolicy::dmu`]`(threshold)`. With [`Concurrency::Modeled`]
    /// (the [`RunOptions::new`] default) the cascade runs stage by stage
    /// and the result carries the paper's modelled `async(1)`/`wait(1)`
    /// batch time. With [`Concurrency::Threaded`] the FPGA simulator and
    /// the host network run on separate threads connected by a channel
    /// **bounded** by [`PipelineTiming::batch_size`] (a stalled host
    /// back-pressures the producer, counted in
    /// [`PipelineResult::backpressure_events`]), and wall-clock time is
    /// reported.
    ///
    /// Under either executor an injected
    /// [`FaultPlan`](crate::fault::FaultPlan) exercises the host stage's
    /// [`DegradationPolicy`](crate::fault::DegradationPolicy):
    ///
    /// - a failed host attempt is retried with exponential (virtual)
    ///   backoff within the policy's budget; exhaustion falls the image
    ///   back to the prediction of the stage before the host;
    /// - an injected latency spike beyond the policy's
    ///   `host_deadline_s` is a timeout fault;
    /// - after `breaker_threshold` consecutive failures the circuit
    ///   breaker trips to fallback-only mode, probing the host every
    ///   `breaker_probe_every` images that reach it;
    /// - host-stage death (injected, or a real panic of the Threaded
    ///   worker) can never take the pipeline down: it is recorded as the
    ///   typed [`CoreError::HostWorker`] in the fault log, every
    ///   undelivered image falls back, and the run completes.
    ///
    /// Every image therefore always receives a prediction, and the two
    /// executors are functionally identical, faults included.
    ///
    /// The recorder attached via [`RunOptions::with_recorder`] receives
    /// the whole-run span, the BNN+DMU stage span, per-stage cascade
    /// spans, host-rerun batch spans, per-image BNN / backoff /
    /// queue-depth histograms, the outcome counters and the typed event
    /// log. Recording is strictly passive: predictions and fault
    /// accounting are bit-identical with any recorder, and the disabled
    /// [`mp_obs::NullRecorder`] costs one branch per site.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`], before any inference, for a
    /// host accuracy outside `[0, 1]` (NaN included), an invalid fault
    /// plan or degradation policy, a fault plan on a cascade without a
    /// float host terminal stage and a stage before it to fall back to
    /// (the host-only and host-less chains), and a
    /// [`Concurrency::Threaded`] run whose policy is not the
    /// [`CascadePolicy::dmu`]`(t)` shape; otherwise [`CoreError`] on
    /// shape inconsistencies or *real* (non-injected) host inference
    /// errors — never for recoverable injected faults.
    pub fn execute(
        &self,
        host: &Network,
        data: &Dataset,
        opts: &RunOptions<'_>,
    ) -> Result<PipelineResult, CoreError> {
        let policy = opts.cascade().unwrap_or(&self.policy);
        let par = opts.parallelism().unwrap_or(self.parallelism);
        let rec = opts.recorder();
        let host_accuracy = opts.host_accuracy();
        if !(0.0..=1.0).contains(&host_accuracy) {
            return Err(CoreError::InvalidConfig(format!(
                "host accuracy {host_accuracy} outside [0,1]"
            )));
        }
        opts.fault_plan().validate()?;
        opts.degradation_policy().validate()?;
        let host_has_fallback = matches!(
            policy.stages(),
            [_, .., last] if matches!(last.classifier, StageClassifier::HostFloat)
        );
        if !opts.fault_plan().is_none() && !host_has_fallback {
            return Err(CoreError::InvalidConfig(format!(
                "cascade [{}] cannot take host faults: they need a float32 \
                 terminal stage with a stage before it to fall back to",
                policy.labels().join(", ")
            )));
        }
        let t_exec = rec.enabled().then(now_ns);
        let result = match (opts.concurrency(), policy.dmu_threshold()) {
            (Concurrency::Modeled, _) => self.execute_cascade(host, data, opts, policy, par)?,
            (Concurrency::Threaded, None) => {
                return Err(CoreError::InvalidConfig(format!(
                    "cascade [{}] requires the modeled executor: only the \
                     dmu(t) shape [1bit gated at t, float32] runs threaded",
                    policy.labels().join(", ")
                )));
            }
            (Concurrency::Threaded, Some(threshold)) => {
                self.execute_threaded(host, data, opts, policy, threshold, par)?
            }
        };
        if let Some(start) = t_exec {
            rec.record_span(schema::SPAN_PIPELINE_EXECUTE, start, now_ns());
            record_result(rec, &result);
        }
        Ok(result)
    }

    /// The [`Concurrency::Modeled`] executor: walks `policy` stage by
    /// stage.
    ///
    /// Each stage scores exactly the images escalated to it, the DMU
    /// estimates a confidence from the stage's normalised scores, and
    /// the stage's gate accepts via [`gate_accepts`] (NaN never
    /// passes — a poisoned confidence escalates). The terminal stage
    /// accepts everything; a float host there runs [`host_stage`] over
    /// the escalated images. Stage 0 always sees every image, so it
    /// scores the dataset in place.
    fn execute_cascade(
        &self,
        host: &Network,
        data: &Dataset,
        opts: &RunOptions<'_>,
        policy: &CascadePolicy,
        par: Parallelism,
    ) -> Result<PipelineResult, CoreError> {
        let rec = opts.recorder();
        let mut ledger = Ledger::new(data.labels());
        let mut stats = DegradationStats::default();
        let mut active: Vec<usize> = (0..data.len()).collect();
        for (s, stage) in policy.stages().iter().enumerate() {
            let t0 = (rec.enabled() && !active.is_empty()).then(now_ns);
            if matches!(stage.classifier, StageClassifier::HostFloat) {
                // The float host is always the terminal stage.
                let run = host_stage(host, data, active.iter().copied(), opts, par, rec);
                if let Some(start) = t0 {
                    rec.record_span(&schema::cascade_stage_span(s), start, now_ns());
                }
                stats = settle_host(&mut ledger, &active, run)?;
                break;
            }
            let (preds, conf) = if active.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                let subset;
                let images = if s == 0 {
                    data.images()
                } else {
                    subset = data.select(&active)?;
                    subset.images()
                };
                self.route(&self.stage_scores(&stage.classifier, images, par, rec)?)?
            };
            if let Some(start) = t0 {
                let end = now_ns();
                if s == 0 {
                    rec.record_span(schema::SPAN_PIPELINE_BNN_STAGE, start, end);
                }
                rec.record_span(&schema::cascade_stage_span(s), start, end);
            }
            active = ledger.gate(&active, &preds, |j| {
                stage.gate.is_none_or(|g| gate_accepts(conf[j], g))
            });
        }
        Ok(assemble(opts, policy, ledger, None, stats))
    }

    /// A non-host stage's `[N, classes]` scores of `images`: its
    /// quantized net, or else the pipeline's own BNN.
    fn stage_scores(
        &self,
        classifier: &StageClassifier,
        images: &Tensor,
        par: Parallelism,
        rec: &dyn Recorder,
    ) -> Result<Tensor, CoreError> {
        match classifier {
            StageClassifier::Quantized(q) => q.infer_batch_obs(images, par, rec),
            _ => self.hw.infer_batch_obs(images, par, rec),
        }
        .map_err(CoreError::fpga)
    }

    /// Each score row's prediction and DMU confidence, which the
    /// stage's gate turns into accept or escalate.
    fn route(&self, scores: &Tensor) -> Result<(Vec<usize>, Vec<f32>), CoreError> {
        Ok((
            Network::argmax_rows(scores)?,
            self.dmu.predict_batch(scores)?,
        ))
    }

    /// The [`Concurrency::Threaded`] executor: the dmu-shaped `policy`
    /// gated at `threshold`, its two stages on two threads joined by a
    /// bounded channel of flagged image indices (paper Fig. 2).
    ///
    /// The producer scores each block of [`PipelineTiming::batch_size`]
    /// images with [`Self::execute_cascade`]'s stage bodies on one thread
    /// and sends the block's flagged images in index order while the host
    /// worker runs [`host_stage`] over them as they arrive: the
    /// real-thread mirror of [`modeled_batch_time`]'s
    /// `async(1)`/`wait(1)` overlap.
    #[allow(clippy::disallowed_methods)] // the Fig. 2 producer/worker pair
    fn execute_threaded(
        &self,
        host: &Network,
        data: &Dataset,
        opts: &RunOptions<'_>,
        policy: &CascadePolicy,
        threshold: f32,
        par: Parallelism,
    ) -> Result<PipelineResult, CoreError> {
        let timing = opts.timing();
        let rec = opts.recorder();
        if opts.fault_plan().host_death_after.is_some() {
            // A planned kill is expected noise, not a crash report.
            crate::fault::silence_injected_panics();
        }
        let start = std::time::Instant::now();
        let n = data.len();
        // Bounded by the block size, so a stalled host back-pressures the
        // producer instead of queueing flagged images without limit.
        let (tx, rx) = channel::bounded::<usize>(timing.batch_size);
        // The crossbeam stub channel exposes no occupancy, so the queue
        // depth is mirrored in an atomic — maintained only while a
        // recorder is attached (it never influences control flow).
        let queue_depth = AtomicUsize::new(0);
        let depth_obs = rec.enabled().then_some(&queue_depth);
        let (bnn_preds, kept, backpressure_events, host_run) = std::thread::scope(
            |scope| -> Result<(Vec<usize>, Vec<bool>, usize, HostRun), CoreError> {
                let worker = scope.spawn(move || {
                    let arrivals = rx.into_iter().inspect(|_| {
                        if let Some(depth) = depth_obs {
                            depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    });
                    match host_stage(host, data, arrivals, opts, par, rec) {
                        // A planned death kills the thread for real, so the
                        // join below meets a genuinely dead worker.
                        Err(CoreError::HostWorker(detail)) => std::panic::panic_any(detail),
                        run => run,
                    }
                });
                let mut bnn_preds = Vec::with_capacity(n);
                let mut kept = Vec::with_capacity(n);
                let mut backpressure_events = 0usize;
                let mut worker_gone = false;
                for (images, _) in data.iter_batches(timing.batch_size) {
                    let t_blk = rec.enabled().then(now_ns);
                    let scores = self.stage_scores(
                        &StageClassifier::Primary,
                        &images,
                        Parallelism::sequential(),
                        rec,
                    )?;
                    if let Some(t0) = t_blk {
                        let t1 = now_ns();
                        // The block span is pure BNN compute: routing,
                        // flagged sends and any backpressure stall happen
                        // after it closes, so queue waits never inflate it.
                        rec.record_span(schema::SPAN_PIPELINE_BNN_BLOCK, t0, t1);
                        let b = scores.shape().dim(0);
                        let per_image_s = t1.saturating_sub(t0) as f64 * 1e-9 / b as f64;
                        for _ in 0..b {
                            rec.observe(schema::HIST_BNN_IMAGE_S, per_image_s);
                        }
                    }
                    let (preds, conf) = self.route(&scores)?;
                    for (pred, p) in preds.into_iter().zip(conf) {
                        let i = bnn_preds.len();
                        let keep = gate_accepts(p, threshold);
                        bnn_preds.push(pred);
                        kept.push(keep);
                        if keep || worker_gone {
                            continue;
                        }
                        // Counted before the send makes it visible to the
                        // worker, whose decrement could otherwise come
                        // first and take the mirror below zero.
                        if let Some(depth) = depth_obs {
                            depth.fetch_add(1, Ordering::Relaxed);
                        }
                        let delivered = match tx.try_send(i) {
                            Ok(()) => true,
                            Err(TrySendError::Full(msg)) => {
                                backpressure_events += 1;
                                // The blocking wait is backpressure, not BNN
                                // time: one histogram entry per event, so
                                // its count matches the counter.
                                let t_stall = rec.enabled().then(now_ns);
                                let sent = tx.send(msg).is_ok();
                                if let Some(t0) = t_stall {
                                    rec.observe(
                                        schema::HIST_BACKPRESSURE_WAIT_S,
                                        now_ns().saturating_sub(t0) as f64 * 1e-9,
                                    );
                                }
                                // A send error means the worker died; its
                                // fate is classified at join below.
                                worker_gone = !sent;
                                sent
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                worker_gone = true;
                                false
                            }
                        };
                        if let Some(depth) = depth_obs {
                            if delivered {
                                // The worker may already have consumed the
                                // item, so clamp: depth was ≥ 1 at delivery.
                                let d = depth.load(Ordering::Relaxed).max(1);
                                rec.observe(schema::HIST_QUEUE_DEPTH, d as f64);
                            } else {
                                depth.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                drop(tx);
                // A worker panic (injected death included) becomes the
                // typed error that `settle_host` degrades.
                let host_run = worker.join().unwrap_or_else(|payload| {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "host worker panicked".into());
                    Err(CoreError::HostWorker(detail))
                });
                Ok((bnn_preds, kept, backpressure_events, host_run))
            },
        )?;
        let mut ledger = Ledger::new(data.labels());
        let all: Vec<usize> = (0..n).collect();
        let flagged = ledger.gate(&all, &bnn_preds, |j| kept[j]);
        let stats = DegradationStats {
            backpressure_events,
            ..settle_host(&mut ledger, &flagged, host_run)?
        };
        let wall = start.elapsed().as_secs_f64();
        Ok(assemble(opts, policy, ledger, Some(wall), stats))
    }
}

/// What [`host_stage`] hands back: each arrival's host prediction
/// (`None` where the degradation policy fell back), and its retries,
/// attempts, breaker trips, backoff and fault log; or the error that
/// ended the stage.
type HostRun = Result<(Vec<Option<usize>>, DegradationStats), CoreError>;

/// Images the host stage accumulates before a batched flush, so both
/// executors build identical host batches.
const HOST_BATCH: usize = 32;

/// The one host stage of both executors: takes the images that reach
/// the float host in arrival order and applies the run's fault plan,
/// retry/backoff budget, per-image deadline and circuit breaker
/// (`opts`). A planned death returns [`CoreError::HostWorker`] at its
/// arrival.
///
/// Fault decisions depend only on arrival order, `(image, attempt)` and
/// breaker state — never on inference results — so images that survive
/// the policy are *deferred* and re-inferred [`HOST_BATCH`] at a time
/// through [`flush`]. The fault log is therefore the same for every
/// `par` setting, and each prediction is bit-identical because every
/// layer treats batch rows independently.
fn host_stage(
    host: &Network,
    data: &Dataset,
    arrivals: impl IntoIterator<Item = usize>,
    opts: &RunOptions<'_>,
    par: Parallelism,
    rec: &dyn Recorder,
) -> HostRun {
    let policy = opts.degradation_policy();
    let injector = FaultInjector::new(opts.fault_plan().clone())?;
    let mut breaker = CircuitBreaker::new(policy);
    let mut stats = DegradationStats::default();
    let mut preds = Vec::new();
    // `(arrival, image)` of the survivors awaiting the next flush.
    let mut pending = Vec::new();
    for (arrival, image) in arrivals.into_iter().enumerate() {
        if injector.host_death_after() == Some(arrival) {
            return Err(CoreError::HostWorker(INJECTED_DEATH_MSG.into()));
        }
        preds.push(None);
        let log = &mut stats.fault_log;
        if !breaker.should_attempt() {
            log.push(FaultEvent::Fallback {
                image,
                kind: FaultKind::BreakerOpen,
            });
            continue;
        }
        let mut attempt: u32 = 0;
        let mut backoff_spent = 0.0f64;
        let survived = loop {
            stats.host_attempts += 1;
            let Some(kind) = injector.host_fault(image, attempt, policy.host_deadline_s) else {
                if attempt > 0 {
                    log.push(FaultEvent::Recovered {
                        image,
                        retries: attempt,
                    });
                }
                if breaker.record_success() {
                    log.push(FaultEvent::BreakerClosed { image });
                }
                break true;
            };
            log.push(FaultEvent::HostFault {
                image,
                attempt,
                kind,
            });
            let next_backoff = policy.backoff_base_s * f64::from(1u32 << attempt.min(20));
            if attempt < policy.max_retries
                && backoff_spent + next_backoff <= policy.backoff_budget_s
            {
                backoff_spent += next_backoff;
                stats.retries += 1;
                attempt += 1;
                continue;
            }
            if breaker.record_failure() {
                log.push(FaultEvent::BreakerOpened {
                    image,
                    consecutive_failures: breaker.consecutive_failures(),
                });
            }
            log.push(FaultEvent::Fallback { image, kind });
            break false;
        };
        stats.virtual_backoff_s += backoff_spent;
        if backoff_spent > 0.0 {
            rec.observe(schema::HIST_BACKOFF_S, backoff_spent);
        }
        if survived {
            pending.push((arrival, image));
            if pending.len() >= HOST_BATCH {
                flush(host, data, &mut pending, &mut preds, par, rec)?;
            }
        }
    }
    flush(host, data, &mut pending, &mut preds, par, rec)?;
    stats.breaker_trips = breaker.trips();
    Ok((preds, stats))
}

/// Re-infers the `pending` `(arrival, image)` pairs as one host batch
/// sharded across `par` threads inside a `pipeline.host_rerun` span
/// (also observed into `pipeline.host_batch_s`), and writes each
/// prediction into its arrival's slot of `preds`.
fn flush(
    host: &Network,
    data: &Dataset,
    pending: &mut Vec<(usize, usize)>,
    preds: &mut [Option<usize>],
    par: Parallelism,
    rec: &dyn Recorder,
) -> Result<(), CoreError> {
    if pending.is_empty() {
        return Ok(());
    }
    let images: Vec<usize> = pending.iter().map(|&(_, image)| image).collect();
    let batch = data.select(&images)?;
    let t0 = rec.enabled().then(now_ns);
    let scores = host
        .infer_batch_obs(batch.images(), par, rec)
        .map_err(CoreError::host)?;
    if let Some(start) = t0 {
        let end = now_ns();
        rec.record_span(schema::SPAN_PIPELINE_HOST_RERUN, start, end);
        rec.observe(
            schema::HIST_HOST_BATCH_S,
            end.saturating_sub(start) as f64 * 1e-9,
        );
    }
    for ((arrival, _), pred) in pending.drain(..).zip(Network::argmax_rows(&scores)?) {
        preds[arrival] = Some(pred);
    }
    Ok(())
}

/// Books the host stage into `ledger` for either executor: `flagged`
/// are the images that entered it, in arrival order, and `run` is what
/// [`host_stage`] made of them. Host predictions become reruns; an image
/// the policy fell back on, or that a dead host stage left undelivered
/// (logged as a [`FaultKind::HostWorkerDeath`] fallback), keeps the
/// prediction of the stage before the host and counts as degraded. Real
/// host errors propagate.
fn settle_host(
    ledger: &mut Ledger<'_>,
    flagged: &[usize],
    run: HostRun,
) -> Result<DegradationStats, CoreError> {
    let (delivered, mut stats) = match run {
        Ok(run) => run,
        Err(CoreError::HostWorker(detail)) => (
            Vec::new(),
            DegradationStats {
                fault_log: vec![FaultEvent::WorkerDied { detail }],
                ..DegradationStats::default()
            },
        ),
        Err(other) => return Err(other),
    };
    let preds: Vec<usize> = flagged
        .iter()
        .enumerate()
        .map(|(j, &i)| match delivered.get(j) {
            Some(&Some(pred)) => {
                ledger.reruns.push((i, pred));
                pred
            }
            slot => {
                stats.degraded_count += 1;
                if slot.is_none() {
                    stats.fault_log.push(FaultEvent::Fallback {
                        image: i,
                        kind: FaultKind::HostWorkerDeath,
                    });
                }
                ledger.final_preds[i]
            }
        })
        .collect();
    ledger.gate(flagged, &preds, |_| true);
    Ok(stats)
}

/// Writes a finished run's outcome counters and typed event log into
/// `rec`. Centralising this after the result is assembled keeps the
/// modelled and threaded paths (and every parallelism setting)
/// observationally consistent without touching worker control flow.
fn record_result(rec: &dyn Recorder, r: &PipelineResult) {
    rec.add(schema::CTR_IMAGES, r.total_images as u64);
    rec.add(
        schema::CTR_FLAGGED,
        (r.rerun_count + r.degraded_count) as u64,
    );
    rec.add(schema::CTR_RERUN_OK, r.rerun_count as u64);
    rec.add(schema::CTR_DEGRADED, r.degraded_count as u64);
    rec.add(schema::CTR_RETRIES, r.retries as u64);
    rec.add(schema::CTR_BREAKER_TRIPS, r.breaker_trips as u64);
    rec.add(schema::CTR_BACKPRESSURE, r.backpressure_events as u64);
    rec.add(schema::CTR_HOST_ATTEMPTS, r.host_attempts as u64);
    for (s, t) in r.stage_traffic.iter().enumerate() {
        rec.add(&schema::cascade_entered_counter(s), t.entered as u64);
        rec.add(&schema::cascade_accepted_counter(s), t.accepted as u64);
    }
    for event in &r.fault_log {
        let obs_event = match event {
            FaultEvent::HostFault {
                image,
                attempt,
                kind,
            } => ObsEvent::Fault {
                image: *image,
                attempt: *attempt,
                kind: format!("{kind:?}"),
            },
            FaultEvent::Recovered { image, .. } => ObsEvent::Rerun { image: *image },
            FaultEvent::Fallback { image, kind } => ObsEvent::Degraded {
                image: *image,
                kind: format!("{kind:?}"),
            },
            FaultEvent::BreakerOpened { image, .. } => ObsEvent::BreakerTrip { image: *image },
            FaultEvent::BreakerClosed { image } => ObsEvent::BreakerClose { image: *image },
            FaultEvent::WorkerDied { detail } => ObsEvent::WorkerDeath {
                detail: detail.clone(),
            },
        };
        rec.record_event(obs_event);
    }
}

/// Routing and gate tallies of one run, filled stage by stage by either
/// executor and turned into its [`PipelineResult`] by [`assemble`].
#[derive(Debug)]
struct Ledger<'d> {
    labels: &'d [usize],
    /// Stage-0 prediction of every image.
    stage0_preds: Vec<usize>,
    /// Whether stage 0's gate kept each image.
    kept0: Vec<bool>,
    /// Prediction of the last stage each image entered: the stage that
    /// accepted it, or the stage before a host that failed it.
    final_preds: Vec<usize>,
    /// `entered[s][i]`: image `i` reached stage `s`.
    entered: Vec<Vec<bool>>,
    tallies: Vec<StageTally>,
    /// `(image, prediction)` of every successful host re-inference.
    reruns: Vec<(usize, usize)>,
}

/// One stage's gate decisions, counted over the images that entered it.
#[derive(Debug, Default)]
struct StageTally {
    entered: usize,
    accepted: usize,
    /// Entering images the stage classified correctly.
    correct: usize,
    /// Escalated images the stage classified wrongly / correctly.
    escalated_wrong: usize,
    escalated_right: usize,
}

impl<'d> Ledger<'d> {
    fn new(labels: &'d [usize]) -> Self {
        let n = labels.len();
        Self {
            labels,
            stage0_preds: vec![0; n],
            kept0: vec![false; n],
            final_preds: vec![0; n],
            entered: Vec::new(),
            tallies: Vec::new(),
            reruns: Vec::new(),
        }
    }

    /// Records the next stage's gate decisions: `preds[j]` is its
    /// prediction for image `active[j]` and `accepts(j)` its gate. Every
    /// entering image's prediction becomes its final one until a later
    /// stage overwrites it. Returns the escalated images, in order.
    fn gate(
        &mut self,
        active: &[usize],
        preds: &[usize],
        accepts: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let first = self.tallies.is_empty();
        let mut mask = vec![false; self.labels.len()];
        let mut tally = StageTally {
            entered: active.len(),
            ..StageTally::default()
        };
        let mut escalated = Vec::new();
        for (j, (&i, &pred)) in active.iter().zip(preds).enumerate() {
            mask[i] = true;
            self.final_preds[i] = pred;
            let right = pred == self.labels[i];
            let accept = accepts(j);
            if first {
                self.stage0_preds[i] = pred;
                self.kept0[i] = accept;
            }
            tally.correct += usize::from(right);
            if accept {
                tally.accepted += 1;
            } else {
                if right {
                    tally.escalated_right += 1;
                } else {
                    tally.escalated_wrong += 1;
                }
                escalated.push(i);
            }
        }
        self.entered.push(mask);
        self.tallies.push(tally);
        escalated
    }
}

/// The one result assembly of both executors: DMU quadrants and BNN
/// accuracy from stage 0, final accuracy from the accepting stages,
/// [`modeled_cascade_time`], eqs. (1)/(2) over the stage tallies, and
/// per-stage traffic.
fn assemble(
    opts: &RunOptions<'_>,
    policy: &CascadePolicy,
    ledger: Ledger<'_>,
    wall_seconds: Option<f64>,
    stats: DegradationStats,
) -> PipelineResult {
    let Ledger {
        labels,
        stage0_preds,
        kept0,
        final_preds,
        entered,
        tallies,
        reruns,
    } = ledger;
    let n = labels.len();
    let denom = n.max(1) as f64;
    let frac = |count: usize| count as f64 / denom;
    let bnn_correct: Vec<bool> = stage0_preds
        .iter()
        .zip(labels)
        .map(|(p, l)| p == l)
        .collect();
    let bnn_accuracy = frac(bnn_correct.iter().filter(|&&c| c).count());
    let accuracy = frac(
        final_preds
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count(),
    );
    let host_hits = reruns.iter().filter(|&&(i, p)| p == labels[i]).count();
    // `None` rather than a misleading `0.0` when nothing reran.
    let host_subset_accuracy = (!reruns.is_empty()).then(|| host_hits as f64 / reruns.len() as f64);
    let shape = policy.shape(opts.timing());
    let unit_costs: Vec<f64> = shape.stages.iter().map(|s| s.unit_cost_s).collect();
    let modeled_time_s = modeled_cascade_time(&entered, &unit_costs, opts.timing().batch_size);
    // Eqs. (1)/(2) generalised. f_0 = 1 (stage 0 sees the full stream in
    // steady state). For s ≥ 1, f_s adds the wrong and the right mass
    // stage s−1 escalated, so f_1 is bit-for-bit the quadrant ratio
    // R_rerun = F̄S̄ + FS̄ of the 2-stage forms.
    let mut fracs = vec![1.0];
    let mut upgrades = Vec::new();
    for (s, pair) in tallies.windows(2).enumerate() {
        let (prev, tally) = (&pair[0], &pair[1]);
        let f = frac(prev.escalated_wrong) + frac(prev.escalated_right);
        // Host stages use the caller's global host accuracy (the paper's
        // optimistic eq. (2) form); other stages use their measured
        // entering-subset accuracy.
        let acc = if matches!(
            policy.stages()[s + 1].classifier,
            StageClassifier::HostFloat
        ) {
            opts.host_accuracy()
        } else if tally.entered == 0 {
            0.0
        } else {
            tally.correct as f64 / tally.entered as f64
        };
        fracs.push(f);
        upgrades.push((acc, f, frac(prev.escalated_right)));
    }
    let stage_traffic = tallies
        .iter()
        .zip(shape.stages)
        .map(|(t, stage)| StageTraffic {
            label: stage.label,
            entered: t.entered,
            accepted: t.accepted,
            entered_frac: frac(t.entered),
            accepted_frac: frac(t.accepted),
            unit_cost_s: stage.unit_cost_s,
        })
        .collect();
    PipelineResult {
        total_images: n,
        accuracy,
        bnn_accuracy,
        host_subset_accuracy,
        quadrants: ConfusionQuadrants::tally(&bnn_correct, &kept0),
        rerun_count: reruns.len(),
        modeled_time_s,
        modeled_images_per_sec: n as f64 / modeled_time_s.max(f64::MIN_POSITIVE),
        analytic_images_per_sec: 1.0 / model::interval_per_image_n(&unit_costs, &fracs),
        analytic_accuracy_eq2: model::accuracy_eq2_n(bnn_accuracy, &upgrades),
        predictions: final_preds,
        flagged: kept0.iter().map(|&k| !k).collect(),
        stage_traffic,
        wall_seconds,
        degraded_count: stats.degraded_count,
        retries: stats.retries,
        breaker_trips: stats.breaker_trips,
        host_attempts: stats.host_attempts,
        backpressure_events: stats.backpressure_events,
        virtual_backoff_s: stats.virtual_backoff_s,
        fault_log: stats.fault_log,
    }
}

/// Replays the paper's `async(1)`/`wait(1)` loop: iteration `i` runs
/// FPGA batch `i` concurrently with host re-inference of the images
/// flagged in batch `i−1`; a final host pass drains the last batch. This
/// is the 2-stage `[all, flagged]` instance of [`modeled_cascade_time`].
///
/// `kept[i]` is `true` where image `i` keeps its BNN prediction and
/// `false` where it is flagged for host re-inference (the complement of
/// [`PipelineResult::flagged`]). Public so virtual-time servers
/// (`mp-serve` comparisons, `mp-fleet` replicas) can price a batch with
/// the same model the pipeline reports.
pub fn modeled_batch_time(kept: &[bool], timing: &PipelineTiming) -> f64 {
    let flagged = kept.iter().map(|&k| !k).collect();
    modeled_cascade_time(
        &[vec![true; kept.len()], flagged],
        &[timing.t_bnn_img_s, timing.t_fp_img_s],
        timing.batch_size,
    )
}

/// The overlapped batch model of an N-stage cascade: the image
/// stream is cut into windows of `batch_size`, and while stage `s`
/// processes its share of window `w`, stage `s+1` processes its share
/// of window `w−1` — the paper's `async(1)`/`wait(1)` overlap extended
/// down the chain. Virtual tick `v` therefore costs
/// `max_s(count_s[v−s] · unit_costs[s])`, and the total is the sum over
/// the `W + S − 1` ticks of the software pipeline.
///
/// `entered[s][i]` is `true` where image `i` enters stage `s` (stage 0
/// is all-true on a full run).
///
/// # Panics
///
/// Panics on mismatched mask/cost arities or a zero `batch_size`.
pub fn modeled_cascade_time(entered: &[Vec<bool>], unit_costs: &[f64], batch_size: usize) -> f64 {
    assert_eq!(
        entered.len(),
        unit_costs.len(),
        "one unit cost per cascade stage"
    );
    assert!(batch_size > 0, "batch size must be positive");
    let s_count = entered.len();
    if s_count == 0 {
        return 0.0;
    }
    let n = entered[0].len();
    if n == 0 {
        return 0.0;
    }
    let windows = n.div_ceil(batch_size);
    let counts: Vec<Vec<usize>> = entered
        .iter()
        .map(|mask| {
            assert_eq!(mask.len(), n, "stage mask length mismatch");
            mask.chunks(batch_size)
                .map(|c| c.iter().filter(|&&e| e).count())
                .collect()
        })
        .collect();
    let mut total = 0.0;
    for v in 0..(windows + s_count - 1) {
        let mut worst = 0.0f64;
        for (s, cost) in unit_costs.iter().enumerate() {
            if v >= s && v - s < windows {
                worst = worst.max(counts[s][v - s] as f64 * cost);
            }
        }
        total += worst;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::CascadeStage;
    use crate::fault::{silence_injected_panics, DegradationPolicy, FaultPlan};
    use mp_bnn::{BnnClassifier, FinnTopology};
    use mp_int::{CostLut, NetworkPrecision, QuantBnn};
    use mp_nn::train::Model;
    use mp_nn::Mode;
    use mp_tensor::init::TensorRng;
    use mp_tensor::{nan_aware_argmax, Shape};
    use std::sync::Arc;

    fn tiny_system() -> (HardwareBnn, Dmu, Dataset, Network) {
        let (_, hw, dmu, data, host) = tiny_system_full();
        (hw, dmu, data, host)
    }

    fn tiny_system_full() -> (BnnClassifier, HardwareBnn, Dmu, Dataset, Network) {
        let mut rng = TensorRng::seed_from(100);
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        // Populate batch-norm stats.
        for _ in 0..3 {
            let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        // Margin weights: confidences differ between images, so
        // mid-range thresholds flag a strict subset.
        let dmu = Dmu::with_weights(
            vec![
                2.0, -1.0, -0.5, -0.2, -0.1, -0.05, -0.02, -0.01, -0.005, -0.002,
            ],
            0.0,
        );
        let spec = mp_dataset::SynthSpec::tiny();
        let data = spec.generate(40).unwrap();
        let host = Network::builder(Shape::nchw(1, 3, 8, 8))
            .conv2d(8, 3, 1, 1, &mut rng)
            .unwrap()
            .relu()
            .global_avg_pool()
            .linear(10, &mut rng)
            .unwrap()
            .build();
        (bnn, hw, dmu, data, host)
    }

    fn timing() -> PipelineTiming {
        PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 10)
    }

    fn modeled_opts() -> RunOptions<'static> {
        RunOptions::new(timing()).with_host_accuracy(0.5)
    }

    fn threaded_opts() -> RunOptions<'static> {
        modeled_opts().threaded()
    }

    fn chaos_opts(plan: &FaultPlan, policy: &DegradationPolicy) -> RunOptions<'static> {
        threaded_opts()
            .with_faults(plan.clone())
            .with_degradation(*policy)
    }

    /// The quantized corner: `quant` gated at `gate`, then the host.
    fn quant_policy(quant: &Arc<QuantBnn>, gate: f32) -> CascadePolicy {
        CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Quantized(Arc::clone(quant)), gate),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .unwrap()
    }

    /// The float32 corner: the host-only chain.
    fn host_only_policy() -> CascadePolicy {
        CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::HostFloat)]).unwrap()
    }

    fn quantized(bnn: &BnnClassifier, precision: NetworkPrecision) -> Arc<QuantBnn> {
        Arc::new(QuantBnn::from_classifier(bnn, precision).unwrap())
    }

    #[test]
    fn run_produces_consistent_accounting() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        let r = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        assert_eq!(r.total_images, 40);
        assert_eq!(r.predictions.len(), 40);
        // Quadrants sum to 1.
        let q = r.quadrants;
        assert!((q.fs + q.fbar_sbar + q.fbar_s + q.fs_bar - 1.0).abs() < 1e-9);
        // Rerun count matches the quadrants.
        assert_eq!(r.rerun_count, (q.rerun_ratio() * 40.0).round() as usize);
        // Accuracy bounded by the DMU cap.
        assert!(r.accuracy <= q.max_achievable_accuracy() + 1e-9);
        assert!(r.modeled_time_s > 0.0);
        assert!(r.wall_seconds.is_none());
        // No degradation on the sequential path.
        assert_eq!(r.degraded_count, 0);
        assert!(r.fault_log.is_empty());
    }

    #[test]
    fn threshold_extremes() {
        let (hw, dmu, data, host) = tiny_system();
        // Threshold 0: nothing reruns — accuracy equals the BNN's.
        let none = MultiPrecisionPipeline::new(&hw, &dmu, 0.0)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        assert_eq!(none.rerun_count, 0);
        assert!(none.host_subset_accuracy.is_none());
        assert!((none.accuracy - none.bnn_accuracy).abs() < 1e-9);
        // Threshold 1: everything reruns — accuracy equals the host's.
        let all = MultiPrecisionPipeline::new(&hw, &dmu, 1.0)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        assert_eq!(all.rerun_count, 40);
        let subset = all.host_subset_accuracy.expect("everything reran");
        assert!((all.accuracy - subset).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_yields_well_formed_zero_result() {
        let (hw, dmu, data, host) = tiny_system();
        let empty = data.take(0).unwrap();
        assert!(empty.is_empty());
        for opts in [modeled_opts(), threaded_opts()] {
            let r = MultiPrecisionPipeline::new(&hw, &dmu, 0.5)
                .execute(&host, &empty, &opts)
                .unwrap();
            assert_eq!(r.total_images, 0);
            assert!(r.predictions.is_empty());
            assert_eq!(r.rerun_count, 0);
            assert_eq!(r.degraded_count, 0);
            assert_eq!(r.modeled_time_s, 0.0);
            assert_eq!(r.modeled_images_per_sec, 0.0);
            assert!(r.host_subset_accuracy.is_none());
            assert!(r.fault_log.is_empty());
        }
    }

    #[test]
    fn rerun_ratio_boundaries_are_exact() {
        let (hw, dmu, data, host) = tiny_system();
        // Threshold 0 ⇒ R_rerun == 0 exactly; threshold 1 ⇒ 1 exactly.
        let none = MultiPrecisionPipeline::new(&hw, &dmu, 0.0)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        assert_eq!(none.quadrants.rerun_ratio(), 0.0);
        let all = MultiPrecisionPipeline::new(&hw, &dmu, 1.0)
            .execute(&host, &data, &threaded_opts())
            .unwrap();
        assert!((all.quadrants.rerun_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(all.rerun_count, data.len());
    }

    #[test]
    fn parallel_matches_sequential_functionally() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.6);
        let seq = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        let par = pipeline.execute(&host, &data, &threaded_opts()).unwrap();
        assert_eq!(seq.predictions, par.predictions);
        assert_eq!(seq.rerun_count, par.rerun_count);
        assert!((seq.accuracy - par.accuracy).abs() < 1e-12);
        assert!(par.wall_seconds.is_some());
        // Zero-fault plan degrades nothing and logs nothing.
        assert_eq!(par.degraded_count, 0);
        assert_eq!(par.breaker_trips, 0);
        assert!(par.fault_log.is_empty());
        assert_eq!(seq.host_subset_accuracy, par.host_subset_accuracy);
    }

    /// `execute` predicts what one image at a time through
    /// `HardwareBnn::infer_image`, `Dmu::predict` and `Network::forward`
    /// predicts, on both executors and with sharded engines.
    #[test]
    fn execute_matches_a_per_image_reference_loop() {
        let (hw, dmu, data, mut host) = tiny_system();
        let threshold = 0.6;
        let (mut reference, mut reruns) = (Vec::new(), 0);
        for i in 0..data.len() {
            let image = data.images().batch_item(i).unwrap();
            let scores: Vec<f32> = hw
                .infer_image(&image)
                .unwrap()
                .into_iter()
                .map(|s| s as f32)
                .collect();
            if dmu.predict(&scores) >= threshold {
                reference.push(nan_aware_argmax(&scores).unwrap());
            } else {
                reruns += 1;
                let scores = host.forward(&image).unwrap();
                reference.push(Network::argmax_rows(&scores).unwrap()[0]);
            }
        }
        assert!(0 < reruns && reruns < data.len(), "a strict subset reruns");
        for opts in [modeled_opts(), threaded_opts()] {
            for threads in [1, 2] {
                let r = MultiPrecisionPipeline::new(&hw, &dmu, threshold)
                    .with_parallelism(Parallelism::new(threads))
                    .execute(&host, &data, &opts)
                    .unwrap();
                assert_eq!(r.predictions, reference, "threads={threads}");
                assert_eq!(r.rerun_count, reruns);
            }
        }
    }

    #[test]
    fn quantized_one_bit_corner_matches_default_path() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::one_bit(layers).unwrap());
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.6);
        let base = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        let corner = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(quant_policy(&quant, 0.6)),
            )
            .unwrap();
        // The 1-bit quantized corner is bit-identical: same predictions,
        // same flags, same modeled time (network factor is exactly 1).
        assert_eq!(base.predictions, corner.predictions);
        assert_eq!(base.flagged, corner.flagged);
        assert_eq!(base.rerun_count, corner.rerun_count);
        assert_eq!(base.modeled_time_s, corner.modeled_time_s);
    }

    #[test]
    fn quantized_precision_scales_modeled_time_by_cost_factor() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::uniform(layers, 8, 8).unwrap());
        let factor = quant.network_cost_factor(&CostLut::mpic());
        assert!(factor > 1.0);
        // Gate 0 keeps everything on the low-precision side, so the
        // modeled time is exactly n · t_bnn · factor.
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.0);
        let base = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        let quantized = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(quant_policy(&quant, 0.0)),
            )
            .unwrap();
        assert_eq!(quantized.rerun_count, 0);
        assert!((quantized.modeled_time_s / base.modeled_time_s - factor).abs() < 1e-9);
    }

    #[test]
    fn float32_corner_reruns_everything_on_host() {
        let (hw, dmu, data, host) = tiny_system();
        let n = data.len();
        let float = MultiPrecisionPipeline::new(&hw, &dmu, 0.5)
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(host_only_policy()),
            )
            .unwrap();
        // Every prediction is the host model's standalone prediction.
        let scores = host
            .infer_batch_with(data.images(), Parallelism::sequential())
            .unwrap();
        assert_eq!(float.predictions, Network::argmax_rows(&scores).unwrap());
        assert_eq!(float.rerun_count, n);
        assert_eq!(float.host_subset_accuracy, Some(float.accuracy));
        // One stage, priced at the host's rate alone: no BNN pass.
        assert_eq!(float.stage_traffic.len(), 1);
        assert_eq!(float.stage_traffic[0].label, "float32");
        assert_eq!(float.stage_traffic[0].entered, n);
        let host_rate = 1.0 / timing().t_fp_img_s;
        let rel = (float.modeled_images_per_sec - host_rate).abs() / host_rate;
        assert!(
            rel < 1e-9,
            "{} vs {host_rate}",
            float.modeled_images_per_sec
        );
    }

    #[test]
    fn non_one_bit_precision_requires_modeled_executor() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap());
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        for policy in [quant_policy(&quant, 0.5), host_only_policy()] {
            let err = pipeline
                .execute(&host, &data, &threaded_opts().with_cascade(policy))
                .unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
            assert!(err.to_string().contains("dmu(t)"), "{err}");
        }
    }

    #[test]
    fn invalid_host_accuracy_is_invalid_config_before_inference() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.6);
        for accuracy in [-0.1, 1.5, 81.4, f64::NAN] {
            for opts in [modeled_opts(), threaded_opts()] {
                let rec = mp_obs::SharedRecorder::new();
                let opts = opts.with_host_accuracy(accuracy).with_recorder(&rec);
                let err = pipeline.execute(&host, &data, &opts).unwrap_err();
                assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
                // Rejected up front: no stage ran, so nothing was recorded.
                assert!(rec.report().spans.is_empty(), "accuracy {accuracy}");
            }
        }
    }

    #[test]
    fn worker_death_degrades_instead_of_aborting() {
        silence_injected_panics();
        let (hw, dmu, data, host) = tiny_system();
        // Threshold 1: every image is flagged for the host.
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 1.0);
        let plan = FaultPlan::seeded(1).with_host_death_after(3);
        let r = pipeline
            .execute(
                &host,
                &data,
                &chaos_opts(&plan, &DegradationPolicy::default()),
            )
            .expect("worker death must be recoverable");
        assert_eq!(r.predictions.len(), 40);
        // The panic loses every host result: all flagged images degrade
        // to their BNN predictions.
        assert_eq!(r.degraded_count, 40);
        assert_eq!(r.rerun_count, 0);
        assert!((r.accuracy - r.bnn_accuracy).abs() < 1e-12);
        assert!(r
            .fault_log
            .iter()
            .any(|e| matches!(e, FaultEvent::WorkerDied { .. })));
    }

    #[test]
    fn total_host_failure_trips_breaker_and_falls_back() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 1.0);
        let plan = FaultPlan::seeded(2).with_host_error_rate(1.0);
        let policy = DegradationPolicy {
            max_retries: 1,
            breaker_threshold: 3,
            ..DegradationPolicy::default()
        };
        let r = pipeline
            .execute(&host, &data, &chaos_opts(&plan, &policy))
            .unwrap();
        assert_eq!(r.degraded_count, 40);
        assert_eq!(r.rerun_count, 0);
        assert!(r.breaker_trips >= 1);
        // BNN-only mode: output equals the standalone BNN.
        assert!((r.accuracy - r.bnn_accuracy).abs() < 1e-12);
        assert!(r
            .fault_log
            .iter()
            .any(|e| matches!(e, FaultEvent::BreakerOpened { .. })));
    }

    #[test]
    fn latency_spikes_beyond_deadline_degrade() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 1.0);
        // Every attempt spikes to 2 s against a 0.25 s deadline.
        let plan = FaultPlan::seeded(3).with_host_spikes(1.0, 2.0);
        let r = pipeline
            .execute(
                &host,
                &data,
                &chaos_opts(&plan, &DegradationPolicy::default()),
            )
            .unwrap();
        assert_eq!(r.degraded_count, 40);
        assert!(r.fault_log.iter().any(|e| matches!(
            e,
            FaultEvent::HostFault {
                kind: FaultKind::HostTimeout,
                ..
            }
        )));
    }

    #[test]
    fn spikes_under_deadline_are_harmless() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.6);
        let plan = FaultPlan::seeded(4).with_host_spikes(1.0, 0.01);
        let faulty = pipeline
            .execute(
                &host,
                &data,
                &chaos_opts(&plan, &DegradationPolicy::default()),
            )
            .unwrap();
        let clean = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        assert_eq!(faulty.predictions, clean.predictions);
        assert_eq!(faulty.degraded_count, 0);
    }

    #[test]
    fn transient_faults_recover_with_retries() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 1.0);
        let plan = FaultPlan::seeded(5).with_host_error_rate(0.4);
        let policy = DegradationPolicy {
            max_retries: 6,
            backoff_base_s: 1e-4,
            backoff_budget_s: 10.0,
            ..DegradationPolicy::default()
        };
        let r = pipeline
            .execute(&host, &data, &chaos_opts(&plan, &policy))
            .unwrap();
        // With a generous retry budget most images recover.
        assert!(r.retries > 0);
        assert!(r.rerun_count + r.degraded_count == 40);
        assert!(r.rerun_count > 0, "some image should survive retries");
        assert!(r.host_attempts >= 40);
        assert!(r.virtual_backoff_s > 0.0);
    }

    #[test]
    fn parallel_host_inference_is_bit_identical_to_sequential() {
        let (hw, dmu, data, host) = tiny_system();
        let base = MultiPrecisionPipeline::new(&hw, &dmu, 0.6)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        for threads in [2usize, 3, 5] {
            let par = MultiPrecisionPipeline::new(&hw, &dmu, 0.6)
                .with_parallelism(Parallelism::new(threads))
                .execute(&host, &data, &modeled_opts())
                .unwrap();
            assert_eq!(base.predictions, par.predictions, "threads={threads}");
            assert_eq!(base.rerun_count, par.rerun_count);
            assert_eq!(base.host_subset_accuracy, par.host_subset_accuracy);
        }
    }

    #[test]
    fn fault_accounting_is_invariant_under_parallelism() {
        let (hw, dmu, data, host) = tiny_system();
        let plan = FaultPlan::seeded(7)
            .with_host_error_rate(0.3)
            .with_host_spikes(0.2, 2.0);
        let policy = DegradationPolicy::default();
        let run_at = |threads: usize| {
            MultiPrecisionPipeline::new(&hw, &dmu, 0.9)
                .with_parallelism(Parallelism::new(threads))
                .execute(&host, &data, &chaos_opts(&plan, &policy))
                .unwrap()
        };
        let seq = run_at(1);
        for threads in [2usize, 4] {
            let par = run_at(threads);
            assert_eq!(seq.fault_log, par.fault_log, "threads={threads}");
            assert_eq!(seq.predictions, par.predictions);
            assert_eq!(seq.degraded_count, par.degraded_count);
            assert_eq!(seq.retries, par.retries);
            assert_eq!(seq.breaker_trips, par.breaker_trips);
            assert_eq!(seq.host_attempts, par.host_attempts);
        }
    }

    #[test]
    fn same_plan_is_byte_identical() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.9);
        let plan = FaultPlan::seeded(6)
            .with_host_error_rate(0.3)
            .with_host_spikes(0.2, 2.0);
        let policy = DegradationPolicy::default();
        let a = pipeline
            .execute(&host, &data, &chaos_opts(&plan, &policy))
            .unwrap();
        let b = pipeline
            .execute(&host, &data, &chaos_opts(&plan, &policy))
            .unwrap();
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.degraded_count, b.degraded_count);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }

    #[test]
    fn modeled_time_overlaps_host_and_fpga() {
        // 20 images, batch 10, flag everything: host work (20·t_fp)
        // dominates; with overlap the first batch's FPGA time is the
        // only non-overlapped FPGA contribution.
        let t = PipelineTiming::new(0.001, 0.01, 10);
        let kept = vec![false; 20];
        let total = modeled_batch_time(&kept, &t);
        // Iter 0: fpga(10) = 0.01. Iter 1: max(fpga 0.01, host 10·0.01) =
        // 0.1. Drain: 0.1. Total 0.21.
        assert!((total - 0.21).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn modeled_time_single_oversized_batch() {
        // Batch larger than the set: one FPGA pass, then the host drain.
        let t = PipelineTiming::new(0.001, 0.01, 100);
        let kept = vec![false, true, false, true];
        let total = modeled_batch_time(&kept, &t);
        assert!((total - (4.0 * 0.001 + 2.0 * 0.01)).abs() < 1e-12);
    }

    #[test]
    fn modeled_time_empty_set_is_zero() {
        let t = PipelineTiming::new(0.001, 0.01, 10);
        assert_eq!(modeled_batch_time(&[], &t), 0.0);
    }

    #[test]
    fn modeled_time_bnn_bound_when_no_reruns() {
        let t = PipelineTiming::new(0.002, 0.01, 10);
        let kept = vec![true; 30];
        let total = modeled_batch_time(&kept, &t);
        assert!((total - 0.06).abs() < 1e-12);
    }

    /// A host fault falls an image back to the stage before the host, so
    /// a faulted run needs one: both executors reject the host-only and
    /// the host-less chains before any inference.
    #[test]
    fn faults_need_a_stage_before_the_host() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap());
        let host_less = CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, 0.5),
            CascadeStage::terminal(StageClassifier::Quantized(quant)),
        ])
        .unwrap();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        let plan = FaultPlan::seeded(1).with_host_error_rate(0.5);
        for policy in [host_only_policy(), host_less] {
            for opts in [modeled_opts(), threaded_opts()] {
                let rec = mp_obs::SharedRecorder::new();
                let opts = opts
                    .with_faults(plan.clone())
                    .with_cascade(policy.clone())
                    .with_recorder(&rec);
                let err = pipeline.execute(&host, &data, &opts).unwrap_err();
                assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
                assert!(err.to_string().contains("fall back"), "{err}");
                assert!(rec.report().spans.is_empty(), "rejected up front");
            }
        }
    }

    /// Under faults a cascade's host stage keeps the prediction of the
    /// stage before it: with every host attempt failing, the 3-stage
    /// cascade predicts what the same chain ending at int4 predicts.
    #[test]
    fn failed_host_falls_back_to_the_previous_stage() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap());
        let with_host = CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, 0.9),
            CascadeStage::gated(StageClassifier::Quantized(Arc::clone(&quant)), 0.9),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .unwrap();
        let int4_last = CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, 0.9),
            CascadeStage::terminal(StageClassifier::Quantized(quant)),
        ])
        .unwrap();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        let failed = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts()
                    .with_cascade(with_host)
                    .with_faults(FaultPlan::seeded(3).with_host_error_rate(1.0)),
            )
            .unwrap();
        let reference = pipeline
            .execute(&host, &data, &modeled_opts().with_cascade(int4_last))
            .unwrap();
        assert_eq!(failed.predictions, reference.predictions);
        assert_eq!(failed.flagged, reference.flagged);
        assert_eq!(failed.rerun_count, 0);
        assert!(failed.stage_traffic[2].entered > 0, "the host sees images");
        assert_eq!(failed.degraded_count, failed.stage_traffic[2].entered);
        assert_eq!(failed.accuracy, reference.accuracy);
    }

    #[test]
    fn dmu_cascade_is_bit_identical_to_threshold_path() {
        let (hw, dmu, data, host) = tiny_system();
        for t in [0.0f32, 0.4, 0.6, 1.0] {
            let legacy = MultiPrecisionPipeline::new(&hw, &dmu, t)
                .execute(&host, &data, &modeled_opts())
                .unwrap();
            // A different constructor threshold proves the policy wins.
            let cascade = MultiPrecisionPipeline::new(&hw, &dmu, 0.5)
                .execute(
                    &host,
                    &data,
                    &modeled_opts().with_cascade(CascadePolicy::dmu(t)),
                )
                .unwrap();
            assert_eq!(legacy, cascade, "threshold {t}");
        }
    }

    #[test]
    fn dmu_cascade_runs_threaded_and_matches_legacy() {
        let (hw, dmu, data, host) = tiny_system();
        let legacy = MultiPrecisionPipeline::new(&hw, &dmu, 0.6)
            .execute(&host, &data, &threaded_opts())
            .unwrap();
        let cascade = MultiPrecisionPipeline::new(&hw, &dmu, 0.6)
            .execute(
                &host,
                &data,
                &threaded_opts().with_cascade(CascadePolicy::dmu(0.6)),
            )
            .unwrap();
        assert_eq!(legacy.predictions, cascade.predictions);
        assert_eq!(legacy.flagged, cascade.flagged);
        assert_eq!(legacy.degraded_count, cascade.degraded_count);
        assert_eq!(legacy.fault_log, cascade.fault_log);
    }

    fn three_stage_policy(bnn: &BnnClassifier, g0: f32, g1: f32) -> CascadePolicy {
        let layers = bnn.export_latent().len();
        let quant = quantized(bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap());
        CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, g0),
            CascadeStage::gated(StageClassifier::Quantized(quant), g1),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .unwrap()
    }

    #[test]
    fn three_stage_cascade_accounts_traffic_and_cost() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let policy = three_stage_policy(&bnn, 0.6, 0.4);
        let r = MultiPrecisionPipeline::new(&hw, &dmu, 0.5)
            .execute(&host, &data, &modeled_opts().with_cascade(policy.clone()))
            .unwrap();
        assert_eq!(r.stage_traffic.len(), 3);
        let n = data.len();
        // Stage 0 sees everything; traffic is monotone down the chain;
        // accepted counts partition the set.
        assert_eq!(r.stage_traffic[0].entered, n);
        assert!(r.stage_traffic[1].entered <= n);
        assert!(r.stage_traffic[2].entered <= r.stage_traffic[1].entered);
        let accepted: usize = r.stage_traffic.iter().map(|t| t.accepted).sum();
        assert_eq!(accepted, n);
        // Escalation chain: entered[s+1] == entered[s] - accepted[s].
        for w in r.stage_traffic.windows(2) {
            assert_eq!(w[1].entered, w[0].entered - w[0].accepted);
        }
        // Traffic carries the policy's stage labels.
        assert_eq!(
            r.stage_traffic
                .iter()
                .map(|t| t.label.clone())
                .collect::<Vec<_>>(),
            policy.labels()
        );
        // Modeled time matches the exported window model.
        let masks: Vec<Vec<bool>> = {
            let mut masks = vec![vec![true; n], vec![false; n], vec![false; n]];
            // Reconstruct entering sets from flags: stage1 = flagged,
            // stage2 = flagged minus stage1-accepted.
            let mut entered1 = 0;
            for (slot, &flag) in masks[1].iter_mut().zip(&r.flagged) {
                if flag {
                    *slot = true;
                    entered1 += 1;
                }
            }
            assert_eq!(entered1, r.stage_traffic[1].entered);
            masks
        };
        let _ = masks; // stage-2 membership isn't recoverable from flags alone
        assert!(r.modeled_time_s > 0.0);
        assert!(r.wall_seconds.is_none());
        // Host traffic is the rerun count.
        assert_eq!(r.stage_traffic[2].accepted, r.rerun_count);
        // Flags mark exactly the images that escalated past stage 0.
        assert_eq!(
            r.flagged.iter().filter(|&&f| f).count(),
            r.stage_traffic[1].entered
        );
    }

    #[test]
    fn three_stage_gate_extremes_degenerate_sensibly() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        // Gate 0.0 everywhere: stage 0 keeps everything.
        let keep_all = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(three_stage_policy(&bnn, 0.0, 0.0)),
            )
            .unwrap();
        assert_eq!(keep_all.stage_traffic[0].accepted, data.len());
        assert_eq!(keep_all.rerun_count, 0);
        assert!((keep_all.accuracy - keep_all.bnn_accuracy).abs() < 1e-12);
        // Gate 1.0 everywhere (confidences < 1): everything reaches the
        // host, so predictions equal the legacy threshold-1.0 run.
        let escalate_all = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(three_stage_policy(&bnn, 1.0, 1.0)),
            )
            .unwrap();
        let legacy_all = MultiPrecisionPipeline::new(&hw, &dmu, 1.0)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        if escalate_all.rerun_count == data.len() {
            assert_eq!(escalate_all.predictions, legacy_all.predictions);
        }
    }

    #[test]
    fn multi_stage_cascade_rejects_threaded_runs() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        let opts = threaded_opts().with_cascade(three_stage_policy(&bnn, 0.5, 0.5));
        let err = pipeline.execute(&host, &data, &opts).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn cascade_empty_dataset_is_well_formed() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let empty = data.take(0).unwrap();
        let r = MultiPrecisionPipeline::new(&hw, &dmu, 0.5)
            .execute(
                &host,
                &empty,
                &modeled_opts().with_cascade(three_stage_policy(&bnn, 0.5, 0.5)),
            )
            .unwrap();
        assert_eq!(r.total_images, 0);
        assert_eq!(r.modeled_time_s, 0.0);
        assert_eq!(r.stage_traffic.len(), 3);
        assert!(r.stage_traffic.iter().all(|t| t.entered == 0));
    }

    #[test]
    fn threshold_runs_report_two_stage_traffic() {
        let (hw, dmu, data, host) = tiny_system();
        let r = MultiPrecisionPipeline::new(&hw, &dmu, 0.6)
            .execute(&host, &data, &modeled_opts())
            .unwrap();
        assert_eq!(r.stage_traffic.len(), 2);
        assert_eq!(r.stage_traffic[0].label, "1bit");
        assert_eq!(r.stage_traffic[1].label, "float32");
        assert_eq!(r.stage_traffic[0].entered, 40);
        assert_eq!(r.stage_traffic[1].entered, r.rerun_count);
        assert_eq!(r.stage_traffic[0].accepted + r.stage_traffic[1].entered, 40);
        let t = timing();
        assert_eq!(r.stage_traffic[0].unit_cost_s, t.t_bnn_img_s);
        assert_eq!(r.stage_traffic[1].unit_cost_s, t.t_fp_img_s);
    }

    /// The paper's `async(1)`/`wait(1)` loop written out directly: batch
    /// `i`'s FPGA time overlaps the host time of batch `i−1`'s flags,
    /// then a final host pass drains the last batch.
    fn paper_loop_time(kept: &[bool], t: &PipelineTiming) -> f64 {
        let flagged: Vec<usize> = kept
            .chunks(t.batch_size)
            .map(|c| c.iter().filter(|&&k| !k).count())
            .collect();
        let mut total = 0.0;
        for (i, chunk) in kept.chunks(t.batch_size).enumerate() {
            let host = if i > 0 {
                flagged[i - 1] as f64 * t.t_fp_img_s
            } else {
                0.0
            };
            total += (chunk.len() as f64 * t.t_bnn_img_s).max(host);
        }
        total + flagged.last().map_or(0.0, |&f| f as f64 * t.t_fp_img_s)
    }

    #[test]
    fn modeled_cascade_time_matches_two_stage_model() {
        // Every (n, batch, flagged count) of a small grid, with the flags
        // at the front, at the back, and spread evenly.
        for batch in [1usize, 3, 7, 10, 64] {
            let t = PipelineTiming::new(1.0 / 430.15, 1.0 / 29.68, batch);
            for n in 0..=40usize {
                for flagged in 0..=n {
                    let mut spread = vec![true; n];
                    for k in 0..flagged {
                        spread[k * n / flagged] = false;
                    }
                    let front = (0..n).map(|i| i >= flagged).collect();
                    let back = (0..n).map(|i| i < n - flagged).collect();
                    for kept in [front, back, spread] {
                        let reference = paper_loop_time(&kept, &t);
                        let masks = [vec![true; n], kept.iter().map(|&k| !k).collect()];
                        let costs = [t.t_bnn_img_s, t.t_fp_img_s];
                        let time = modeled_batch_time(&kept, &t);
                        assert_eq!(time, reference, "batch={batch} kept={kept:?}");
                        let time = modeled_cascade_time(&masks, &costs, batch);
                        assert_eq!(time, reference, "batch={batch} kept={kept:?}");
                    }
                }
            }
        }
    }

    /// A threshold run's eqs. (1)/(2) equal the paper's 2-stage closed
    /// forms over its DMU quadrants, to the bit, under both executors
    /// and at the precision corners.
    #[test]
    fn two_stage_analytics_match_closed_forms_exactly() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let layers = bnn.export_latent().len();
        let quant = quantized(&bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap());
        let mut partial = 0;
        for threshold in [0.0f32, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, threshold);
            for opts in [
                modeled_opts(),
                threaded_opts(),
                modeled_opts().with_cascade(quant_policy(&quant, threshold)),
                modeled_opts().with_cascade(host_only_policy()),
            ] {
                let r = pipeline.execute(&host, &data, &opts).unwrap();
                let q = r.quadrants;
                let t = r.stage_traffic[0].unit_cost_s;
                let t_fp = opts.timing().t_fp_img_s;
                let ctx = format!(
                    "threshold {threshold}, {:?}",
                    opts.cascade().map(CascadePolicy::labels)
                );
                assert_eq!(
                    r.analytic_images_per_sec,
                    model::images_per_sec(t_fp, t, q.rerun_ratio()),
                    "{ctx}"
                );
                assert_eq!(
                    r.analytic_accuracy_eq2,
                    model::accuracy_eq2(r.bnn_accuracy, 0.5, q.rerun_ratio(), q.rerun_err_ratio()),
                    "{ctx}"
                );
                let flagged = r.flagged.iter().filter(|&&f| f).count();
                if 0 < flagged && flagged < data.len() {
                    partial += 1;
                }
            }
        }
        assert!(partial > 0, "no threshold flagged a strict subset");
    }

    #[test]
    fn cascade_recording_emits_stage_spans_and_counters() {
        let (bnn, hw, dmu, data, host) = tiny_system_full();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
        let policy = three_stage_policy(&bnn, 0.6, 0.4);
        let plain = pipeline
            .execute(&host, &data, &modeled_opts().with_cascade(policy.clone()))
            .unwrap();
        let rec = mp_obs::SharedRecorder::new();
        let obs = pipeline
            .execute(
                &host,
                &data,
                &modeled_opts().with_cascade(policy).with_recorder(&rec),
            )
            .unwrap();
        assert_eq!(plain.predictions, obs.predictions, "recording is passive");
        let report = rec.report();
        mp_obs::schema::validate_report(&report).unwrap();
        for (s, t) in obs.stage_traffic.iter().enumerate() {
            assert_eq!(
                report.counter(&schema::cascade_entered_counter(s)),
                t.entered as u64
            );
            assert_eq!(
                report.counter(&schema::cascade_accepted_counter(s)),
                t.accepted as u64
            );
            if t.entered > 0 {
                assert!(
                    report.span(&schema::cascade_stage_span(s)).is_some(),
                    "missing span for stage {s}"
                );
            }
        }
    }

    #[test]
    fn recording_is_passive_and_counts_match_result() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.6);
        let plain = pipeline.execute(&host, &data, &modeled_opts()).unwrap();
        let rec = mp_obs::SharedRecorder::new();
        let obs = pipeline
            .execute(&host, &data, &modeled_opts().with_recorder(&rec))
            .unwrap();
        assert_eq!(plain.predictions, obs.predictions);
        assert_eq!(plain.rerun_count, obs.rerun_count);
        assert_eq!(plain.fault_log, obs.fault_log);
        let report = rec.report();
        mp_obs::schema::validate_report(&report).unwrap();
        assert_eq!(report.counter(schema::CTR_IMAGES), 40);
        assert_eq!(report.counter(schema::CTR_RERUN_OK), obs.rerun_count as u64);
        assert_eq!(report.counter(schema::CTR_DEGRADED), 0);
        assert_eq!(report.span(schema::SPAN_PIPELINE_EXECUTE).unwrap().count, 1);
        assert_eq!(
            report.span(schema::SPAN_PIPELINE_BNN_STAGE).unwrap().count,
            1
        );
        if obs.rerun_count > 0 {
            assert!(report.span(schema::SPAN_PIPELINE_HOST_RERUN).is_some());
            assert!(report
                .spans
                .iter()
                .any(|s| s.name.starts_with(schema::SPAN_HOST_LAYER_PREFIX)));
        }
        assert!(report
            .spans
            .iter()
            .any(|s| s.name.starts_with(schema::SPAN_BNN_STAGE_PREFIX)));
    }

    #[test]
    fn threaded_recording_logs_faults_and_queue_depth() {
        let (hw, dmu, data, host) = tiny_system();
        let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 1.0);
        let plan = FaultPlan::seeded(5).with_host_error_rate(0.4);
        let policy = DegradationPolicy {
            max_retries: 6,
            backoff_base_s: 1e-4,
            backoff_budget_s: 10.0,
            ..DegradationPolicy::default()
        };
        let plain = pipeline
            .execute(&host, &data, &chaos_opts(&plan, &policy))
            .unwrap();
        let rec = mp_obs::SharedRecorder::new();
        let obs = pipeline
            .execute(
                &host,
                &data,
                &chaos_opts(&plan, &policy).with_recorder(&rec),
            )
            .unwrap();
        assert_eq!(plain.predictions, obs.predictions);
        assert_eq!(plain.fault_log, obs.fault_log);
        let report = rec.report();
        mp_obs::schema::validate_report(&report).unwrap();
        assert_eq!(report.counter(schema::CTR_IMAGES), 40);
        assert_eq!(
            report.counter(schema::CTR_RETRIES),
            obs.retries as u64,
            "retry counter mirrors the result"
        );
        assert_eq!(
            report.counter(schema::CTR_RERUN_OK) + report.counter(schema::CTR_DEGRADED),
            40
        );
        assert_eq!(
            report.histogram(schema::HIST_BNN_IMAGE_S).unwrap().count,
            40
        );
        // Overlapped executor: one pure-compute span per BNN block
        // (40 images / batch_size 10).
        assert_eq!(
            report.span(schema::SPAN_PIPELINE_BNN_BLOCK).unwrap().count,
            4
        );
        // Backpressure stalls are charged to their own histogram, one
        // entry per counted event — never folded into BNN span time.
        assert_eq!(
            report
                .histogram(schema::HIST_BACKPRESSURE_WAIT_S)
                .map_or(0, |h| h.count),
            report.counter(schema::CTR_BACKPRESSURE),
        );
        assert_eq!(
            report.counter(schema::CTR_BACKPRESSURE),
            obs.backpressure_events as u64
        );
        assert!(report.histogram(schema::HIST_QUEUE_DEPTH).is_some());
        assert!(report.histogram(schema::HIST_BACKOFF_S).is_some());
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::Fault { .. })));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let (hw, dmu, _, _) = tiny_system();
        let _ = MultiPrecisionPipeline::new(&hw, &dmu, 1.5);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn bad_timing_rejected() {
        let _ = PipelineTiming::new(1.0, 1.0, 0);
    }
}

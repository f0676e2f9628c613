//! The dynamic batcher and the serving loop that drives it.
//!
//! [`Batcher`] holds the one dispatch rule of both serving front-ends:
//! a batch dispatches at the first virtual instant when the server is
//! free **and** either `max_batch` requests are queued or the head
//! request has waited `max_delay_s`. Under light load that degenerates
//! to batch-of-1 at arrival (plus the delay window); under heavy load
//! the queue fills while the server is busy and every dispatch carries
//! a full batch, which is exactly when the pipeline's `async`/`wait`
//! overlap pays off. [`BatchServer`] replays a trace through one
//! `Batcher` and runs each batch on the real pipeline; each `mp-fleet`
//! replica drives its own. Arrivals landing at the same instant a batch
//! closes join the *next* batch — a fixed tie-break that keeps the
//! replay deterministic.

use std::collections::VecDeque;
use std::fmt;

use mp_core::{CoreError, MultiPrecisionPipeline, PipelineResult, RunOptions};
use mp_dataset::{Dataset, DatasetError};
use mp_nn::Network;
use mp_obs::schema;
use serde::{Deserialize, Error, Serialize, Value};

use crate::report::{BatchRecord, Completion, ServeReport};
use crate::request::{validate_trace, Request};

/// Dynamic-batching knobs.
///
/// [`try_new`](Self::try_new) is the only constructor and
/// deserialization routes through it, so an invalid config is a typed
/// error, never a later panic or hang. The fields are private, so a
/// struct literal cannot skip the checks:
///
/// ```compile_fail,E0451
/// let cfg = mp_serve::BatcherConfig { max_batch: 0, max_delay_s: 0.0, queue_capacity: 4 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatcherConfig {
    max_batch: usize,
    max_delay_s: f64,
    queue_capacity: usize,
}

impl BatcherConfig {
    /// Creates a config, rejecting invalid values with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `max_batch` or
    /// `queue_capacity` is zero, or `max_delay_s` is negative or
    /// non-finite.
    pub fn try_new(
        max_batch: usize,
        max_delay_s: f64,
        queue_capacity: usize,
    ) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::Config("max_batch must be positive".into()));
        }
        if !max_delay_s.is_finite() || max_delay_s < 0.0 {
            return Err(ServeError::Config(format!(
                "max_delay_s {max_delay_s} must be finite and non-negative"
            )));
        }
        if queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be positive".into()));
        }
        Ok(Self {
            max_batch,
            max_delay_s,
            queue_capacity,
        })
    }

    /// Dispatch as soon as this many requests are queued (and the
    /// server is free). `1` forces batch-of-1 serving.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Dispatch a partial batch once the head request has waited this
    /// long (seconds). `0.0` dispatches whatever is queued the moment
    /// the server frees up.
    pub fn max_delay_s(&self) -> f64 {
        self.max_delay_s
    }

    /// Admission-queue bound; arrivals beyond it are shed.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

impl<'de> Deserialize<'de> for BatcherConfig {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let max_batch = usize::from_value(value.get_field("max_batch")?)?;
        let max_delay_s = f64::from_value(value.get_field("max_delay_s")?)?;
        let queue_capacity = usize::from_value(value.get_field("queue_capacity")?)?;
        BatcherConfig::try_new(max_batch, max_delay_s, queue_capacity).map_err(Error::custom)
    }
}

/// Outcome of offering a request to a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Enqueue {
    /// The request was admitted and will be served in a future batch.
    Accepted,
    /// The queue was full: the request is dropped (explicit
    /// backpressure — overload sheds instead of growing memory).
    Shed,
}

/// The dynamic batcher: a validated [`BatcherConfig`], the bounded FIFO
/// of admitted requests, and the virtual time at which the server
/// frees up.
///
/// Admission is all-or-nothing at [`offer`](Self::offer) time; once a
/// request is in, it leaves only through [`take_batch`](Self::take_batch)
/// or [`drain`](Self::drain), never silently. The batcher decides *when*
/// the next batch leaves; the caller runs it and reports the server's
/// next free instant with [`busy_until`](Self::busy_until).
#[derive(Debug, Clone)]
pub struct Batcher {
    config: BatcherConfig,
    queue: VecDeque<Request>,
    free_s: f64,
}

impl Batcher {
    /// An empty batcher whose server is free from time zero.
    pub fn new(config: BatcherConfig) -> Self {
        Self {
            config,
            queue: VecDeque::with_capacity(config.queue_capacity.min(1024)),
            free_s: 0.0,
        }
    }

    /// Offers a request: admitted if there is room, shed otherwise.
    pub fn offer(&mut self, request: Request) -> Enqueue {
        if self.has_room() {
            self.queue.push_back(request);
            Enqueue::Accepted
        } else {
            Enqueue::Shed
        }
    }

    /// Whether the next [`offer`](Self::offer) would be admitted.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.config.queue_capacity
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Virtual time at which the queued head batch dispatches, `None`
    /// when nothing is queued: `max(server_free, min(head arrival +
    /// max_delay_s, arrival of the max_batch-th request))`.
    pub fn next_dispatch_s(&self) -> Option<f64> {
        let deadline = self.queue.front()?.arrival_s + self.config.max_delay_s;
        let ready = match self.queue.get(self.config.max_batch - 1) {
            Some(full) => deadline.min(full.arrival_s),
            None => deadline,
        };
        Some(self.free_s.max(ready))
    }

    /// Removes and returns the next batch: up to `max_batch` requests
    /// from the head, in FIFO order.
    pub fn take_batch(&mut self) -> Vec<Request> {
        let take = self.config.max_batch.min(self.queue.len());
        self.queue.drain(..take).collect()
    }

    /// Marks the server busy until `free_s`, the completion time of the
    /// batch just dispatched (or when a recovered replica restarts).
    pub fn busy_until(&mut self, free_s: f64) {
        self.free_s = free_s;
    }

    /// Removes and returns *every* queued request, emptying the queue.
    ///
    /// This is the replica-death primitive: when a replica dies, its
    /// backlog must be handed back to the router to be re-enqueued
    /// elsewhere or shed *explicitly* — the admission guarantee ("once
    /// admitted, never silently dropped") transfers to the caller with
    /// the returned requests.
    pub fn drain(&mut self) -> Vec<Request> {
        self.queue.drain(..).collect()
    }
}

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid batcher configuration.
    Config(String),
    /// A request trace violated an invariant (ordering, finiteness,
    /// image bounds or id uniqueness).
    Trace(String),
    /// A batch execution failed in the pipeline.
    Core(CoreError),
    /// Batch assembly failed in the dataset layer.
    Dataset(DatasetError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid batcher config: {msg}"),
            ServeError::Trace(msg) => write!(f, "invalid request trace: {msg}"),
            ServeError::Core(e) => write!(f, "pipeline error: {e}"),
            ServeError::Dataset(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<DatasetError> for ServeError {
    fn from(e: DatasetError) -> Self {
        ServeError::Dataset(e)
    }
}

/// The serving front-end: pipeline + host + image store + batcher.
///
/// The store plays the role of the request payloads: a [`Request`]
/// carries an index into it, and the batcher gathers the indices of
/// each dispatched batch into a contiguous [`Dataset`] via
/// [`Dataset::select`].
#[derive(Debug)]
pub struct BatchServer<'a> {
    pipeline: &'a MultiPrecisionPipeline<'a>,
    host: &'a Network,
    store: &'a Dataset,
    config: BatcherConfig,
}

impl<'a> BatchServer<'a> {
    /// Creates a server over `pipeline`/`host` serving images from
    /// `store`.
    pub fn new(
        pipeline: &'a MultiPrecisionPipeline<'a>,
        host: &'a Network,
        store: &'a Dataset,
        config: BatcherConfig,
    ) -> Self {
        Self {
            pipeline,
            host,
            store,
            config,
        }
    }

    /// The batcher configuration.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Serves a request trace to completion and returns the full
    /// per-request/per-batch accounting.
    ///
    /// `requests` is an open-loop trace: arrival times must be finite,
    /// non-negative and sorted non-decreasing (ties allowed), ids
    /// unique, and images inside the store (see [`validate_trace`]).
    /// Each batch runs through
    /// [`MultiPrecisionPipeline::execute`] with `opts` — faults,
    /// degradation, threshold overrides and recorders all apply per
    /// batch. The virtual clock advances by each batch's modelled
    /// `async`/`wait` time, so the report is deterministic even when
    /// `opts` selects the threaded executor.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on a malformed trace or a pipeline
    /// failure; shed requests are not errors (they are reported in
    /// [`ServeReport::shed`]).
    pub fn serve(
        &self,
        requests: &[Request],
        opts: &RunOptions<'_>,
    ) -> Result<ServeReport, ServeError> {
        validate_trace(requests, self.store.len())?;
        let rec = opts.recorder();
        let mut batcher = Batcher::new(self.config);
        let mut report = ServeReport {
            completions: Vec::with_capacity(requests.len()),
            shed: Vec::new(),
            batches: Vec::new(),
        };

        for r in requests {
            // Everything due strictly before (or at) this arrival
            // dispatches first; only then does the arrival contend for
            // a queue slot.
            self.dispatch_due(&mut batcher, r.arrival_s, opts, &mut report)?;
            if rec.enabled() {
                rec.add(schema::CTR_SERVE_REQUESTS, 1);
            }
            match batcher.offer(*r) {
                Enqueue::Accepted => {}
                Enqueue::Shed => {
                    if rec.enabled() {
                        rec.add(schema::CTR_SERVE_SHED, 1);
                    }
                    report.shed.push(r.id);
                }
            }
        }
        // Drain: no more arrivals, dispatch everything left.
        self.dispatch_due(&mut batcher, f64::INFINITY, opts, &mut report)?;
        debug_assert!(batcher.is_empty(), "drain left requests queued");
        Ok(report)
    }

    /// Dispatches every batch whose dispatch instant is `<= until`.
    fn dispatch_due(
        &self,
        batcher: &mut Batcher,
        until: f64,
        opts: &RunOptions<'_>,
        report: &mut ServeReport,
    ) -> Result<(), ServeError> {
        while let Some(dispatch_s) = batcher.next_dispatch_s().filter(|&t| t <= until) {
            let members = batcher.take_batch();
            let result = self.run_batch(&members, opts)?;
            let completion_s = dispatch_s + result.modeled_time_s;
            batcher.busy_until(completion_s);
            self.record_batch(&members, &result, dispatch_s, completion_s, opts, report);
        }
        Ok(())
    }

    fn run_batch(
        &self,
        members: &[Request],
        opts: &RunOptions<'_>,
    ) -> Result<PipelineResult, ServeError> {
        let indices: Vec<usize> = members.iter().map(|m| m.image).collect();
        let batch = self.store.select(&indices)?;
        Ok(self.pipeline.execute(self.host, &batch, opts)?)
    }

    fn record_batch(
        &self,
        members: &[Request],
        result: &PipelineResult,
        dispatch_s: f64,
        completion_s: f64,
        opts: &RunOptions<'_>,
        report: &mut ServeReport,
    ) {
        let rec = opts.recorder();
        if rec.enabled() {
            rec.add(schema::CTR_SERVE_BATCHES, 1);
            rec.observe(schema::HIST_SERVE_BATCH_SIZE, members.len() as f64);
            rec.record_span(
                schema::SPAN_SERVE_BATCH,
                virt_ns(dispatch_s),
                virt_ns(completion_s),
            );
        }
        for (k, m) in members.iter().enumerate() {
            report.completions.push(Completion {
                id: m.id,
                image: m.image,
                prediction: result.predictions[k],
                arrival_s: m.arrival_s,
                dispatch_s,
                completion_s,
            });
            if rec.enabled() {
                rec.observe(schema::HIST_SERVE_QUEUE_WAIT_S, dispatch_s - m.arrival_s);
                rec.observe(schema::HIST_SERVE_LATENCY_S, completion_s - m.arrival_s);
            }
        }
        report.batches.push(BatchRecord {
            dispatch_s,
            completion_s,
            size: members.len(),
            rerun_count: result.rerun_count,
            degraded_count: result.degraded_count,
        });
    }
}

/// Virtual seconds → virtual nanoseconds for span timestamps (the same
/// convention `StreamSim` uses).
fn virt_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, max_delay_s: f64, queue_capacity: usize) -> Batcher {
        Batcher::new(BatcherConfig::try_new(max_batch, max_delay_s, queue_capacity).unwrap())
    }

    #[test]
    fn config_rejects_degenerate_values() {
        assert!(BatcherConfig::try_new(0, 1e-3, 8).is_err());
        assert!(BatcherConfig::try_new(4, -1.0, 8).is_err());
        assert!(BatcherConfig::try_new(4, f64::NAN, 8).is_err());
        assert!(BatcherConfig::try_new(4, f64::INFINITY, 8).is_err());
        assert!(BatcherConfig::try_new(4, 1e-3, 0).is_err());
        assert!(BatcherConfig::try_new(1, 0.0, 1).is_ok());
    }

    #[test]
    fn config_deserialize_routes_through_try_new() {
        let good = BatcherConfig::try_new(8, 5e-3, 64).unwrap();
        let round = BatcherConfig::from_value(&good.to_value()).expect("valid config");
        assert_eq!(round, good);
        let bad = Value::Map(vec![
            ("max_batch".into(), Value::UInt(0)),
            ("max_delay_s".into(), Value::Float(5e-3)),
            ("queue_capacity".into(), Value::UInt(64)),
        ]);
        let err = BatcherConfig::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("max_batch"), "{err}");
    }

    #[test]
    fn next_dispatch_waits_for_a_full_batch_or_the_head_deadline_and_a_free_server() {
        let mut b = batcher(3, 0.5, 8);
        assert_eq!(b.next_dispatch_s(), None, "nothing queued");
        b.offer(Request::new(0, 0, 1.0));
        b.offer(Request::new(1, 1, 1.25));
        assert_eq!(b.next_dispatch_s(), Some(1.5), "head deadline");
        b.offer(Request::new(2, 2, 1.375));
        assert_eq!(b.next_dispatch_s(), Some(1.375), "batch full");
        b.busy_until(2.0);
        assert_eq!(b.next_dispatch_s(), Some(2.0), "server busy");
        let ids: Vec<u64> = b.take_batch().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(b.next_dispatch_s(), None);
    }

    #[test]
    fn offer_admits_until_full_then_sheds() {
        let mut q = batcher(1, 0.0, 2);
        assert_eq!(q.offer(Request::new(0, 0, 0.0)), Enqueue::Accepted);
        assert_eq!(q.offer(Request::new(1, 1, 0.1)), Enqueue::Accepted);
        assert!(!q.has_room());
        assert_eq!(q.offer(Request::new(2, 2, 0.2)), Enqueue::Shed);
        assert_eq!(q.len(), 2);
        // Taking a batch frees capacity again.
        let batch = q.take_batch();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 0);
        assert_eq!(q.offer(Request::new(3, 3, 0.3)), Enqueue::Accepted);
    }

    #[test]
    fn take_batch_is_fifo_and_clamped() {
        let mut q = batcher(2, 0.0, 8);
        for i in 0..5 {
            q.offer(Request::new(i, i as usize, i as f64));
        }
        let mut batches = Vec::new();
        while !q.is_empty() {
            batches.push(q.take_batch().iter().map(|r| r.id).collect::<Vec<u64>>());
        }
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn drain_empties_in_fifo_order_and_frees_capacity() {
        let mut q = batcher(1, 0.0, 3);
        for i in 0..3 {
            assert_eq!(
                q.offer(Request::new(i, i as usize, i as f64)),
                Enqueue::Accepted
            );
        }
        let all: Vec<u64> = q.drain().iter().map(|r| r.id).collect();
        assert_eq!(all, vec![0, 1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.drain().len(), 0, "draining an empty queue is a no-op");
        assert_eq!(q.offer(Request::new(9, 9, 9.0)), Enqueue::Accepted);
    }

    /// Shed accounting must stay exact across a drain + re-enqueue
    /// cycle (the replica-death path): every admitted id ends up either
    /// re-admitted or explicitly shed, exactly once — no double count,
    /// no lost id.
    #[test]
    fn requeue_after_drain_partitions_ids_exactly() {
        let mut dead = batcher(1, 0.0, 4);
        let mut shed = Vec::new();
        for i in 0..6u64 {
            if dead.offer(Request::new(i, i as usize, 0.1 * i as f64)) == Enqueue::Shed {
                shed.push(i);
            }
        }
        assert_eq!(shed, vec![4, 5], "bounded admission sheds the overflow");
        // The replica dies: its backlog moves to a smaller survivor.
        let orphans = dead.drain();
        assert!(dead.is_empty());
        let mut survivor = batcher(1, 0.0, 3);
        let mut redirected = Vec::new();
        for r in orphans {
            match survivor.offer(r) {
                Enqueue::Accepted => redirected.push(r.id),
                Enqueue::Shed => shed.push(r.id),
            }
        }
        // Exact partition of the offered ids: re-admitted ∪ shed, with
        // no id in both and none missing.
        let mut seen: Vec<u64> = redirected.iter().chain(shed.iter()).copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<u64>>());
        assert_eq!(redirected.len() + shed.len(), 6);
        assert_eq!(redirected, vec![0, 1, 2], "FIFO order survives the move");
        assert_eq!(shed, vec![4, 5, 3], "overflow shed exactly once");
    }
}

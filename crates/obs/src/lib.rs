//! Observability for the multi-precision pipeline (`mp-obs`).
//!
//! The paper's headline numbers — 430 img/s on the FINN BNN, 90.82 img/s
//! combined, the rerun ratios of the threshold sweep — are measurements
//! of a *running* pipeline. This crate provides the measurement layer:
//!
//! - [`Recorder`]: the sink trait — completed spans with monotonic
//!   nanosecond timestamps, monotonic counters, fixed-bucket latency
//!   histograms, and typed [`ObsEvent`]s (rerun, degradation,
//!   breaker-trip, fault, stream);
//! - [`SharedRecorder`]: a clonable, thread-safe recorder for the scoped
//!   worker threads of the parallel executor (one short-held mutex; hot
//!   paths batch their recording so the lock is not contended);
//! - [`NullRecorder`]: the default sink. Its [`Recorder::enabled`] hook
//!   returns `false`, letting instrumented code skip clock reads
//!   entirely, so its cost is one branch per instrumentation site;
//! - [`ObsReport`]: a deterministic snapshot with a stable JSON schema
//!   (see [`schema`]) exported to `results/obs_<tag>.json`.
//!
//! Recording is strictly passive: recorders observe timing and emit
//! nothing back into control flow, so an instrumented run produces
//! bit-identical predictions and fault accounting to an uninstrumented
//! one (a property-tested guarantee of the pipeline).
//!
//! This crate depends only on the standard library (plus the workspace's
//! offline `serde` stubs for the JSON export).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod report;
pub mod schema;

pub use report::{CounterStat, HistogramStat, ObsReport, SpanStat};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Nanoseconds since a fixed, process-global monotonic origin.
///
/// All recorders in one process share the origin, so spans recorded on
/// different threads are directly comparable.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A typed, structured event. Unlike spans/counters/histograms (which
/// aggregate), events are kept in order, capped at
/// [`SharedRecorder::MAX_EVENTS`] with an overflow count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A flagged image was successfully re-inferred on the host.
    Rerun {
        /// Dataset index of the image.
        image: usize,
    },
    /// A flagged image fell back to its BNN prediction.
    Degraded {
        /// Dataset index of the image.
        image: usize,
        /// The exhausting fault kind (stable string, e.g. `"HostTransient"`).
        kind: String,
    },
    /// One host inference attempt failed.
    Fault {
        /// Dataset index of the image.
        image: usize,
        /// Zero-based attempt number.
        attempt: u32,
        /// Fault kind (stable string).
        kind: String,
    },
    /// The circuit breaker opened (tripped into BNN-only mode).
    BreakerTrip {
        /// Image whose failure tripped the breaker.
        image: usize,
    },
    /// The circuit breaker closed again after a successful probe.
    BreakerClose {
        /// Image whose success closed the breaker.
        image: usize,
    },
    /// The host worker thread died (injected or a real panic).
    WorkerDeath {
        /// Human-readable detail from the panic payload.
        detail: String,
    },
    /// One image's passage through the stream simulator (virtual time).
    Stream {
        /// Image index within the simulated batch.
        image: usize,
        /// Virtual arrival time at the source, in seconds.
        arrival_s: f64,
        /// Virtual departure time from the last stage, in seconds.
        departure_s: f64,
    },
}

/// The observability sink. Implementations must be cheap and passive:
/// they may aggregate and store, but must never feed back into the
/// control flow of the instrumented code.
///
/// All methods take `&self`; the trait is `Send + Sync` so one recorder
/// reference can be shared across scoped worker threads.
pub trait Recorder: Send + Sync {
    /// Whether recording is active. Instrumented code gates every clock
    /// read and value computation on this, so a disabled recorder costs
    /// one branch per site.
    fn enabled(&self) -> bool;

    /// Records a completed span `[start_ns, end_ns]` (from [`now_ns`],
    /// or virtual nanoseconds for simulator spans).
    fn record_span(&self, name: &str, start_ns: u64, end_ns: u64);

    /// Adds `delta` to the monotonic counter `name`.
    fn add(&self, name: &str, delta: u64);

    /// Records `value` into the fixed-bucket histogram `name` (bucket
    /// edges are determined by the name; see [`schema::bucket_edges`]).
    fn observe(&self, name: &str, value: f64);

    /// Appends a typed event.
    fn record_event(&self, event: ObsEvent);
}

/// The do-nothing recorder: [`Recorder::enabled`] is `false` and every
/// sink method is an empty body, so instrumentation overhead reduces to
/// the caller's `enabled()` branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

/// A `'static` [`NullRecorder`] for default `&dyn Recorder` fields.
pub static NULL_RECORDER: NullRecorder = NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record_span(&self, _name: &str, _start_ns: u64, _end_ns: u64) {}
    fn add(&self, _name: &str, _delta: u64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn record_event(&self, _event: ObsEvent) {}
}

/// RAII span helper: reads the clock at construction (only if the
/// recorder is enabled) and records the span on drop.
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    name: &'a str,
    start_ns: Option<u64>,
}

impl<'a> SpanGuard<'a> {
    /// Starts a span named `name` against `rec`.
    pub fn start(rec: &'a dyn Recorder, name: &'a str) -> Self {
        let start_ns = rec.enabled().then(now_ns);
        Self {
            rec,
            name,
            start_ns,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start_ns {
            self.rec.record_span(self.name, start, now_ns());
        }
    }
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("start_ns", &self.start_ns)
            .finish()
    }
}

/// Per-name span aggregate.
#[derive(Debug, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Per-name fixed-bucket histogram (edges picked once from the name).
#[derive(Debug, Clone)]
struct HistAgg {
    edges: &'static [f64],
    /// `edges.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

#[derive(Debug, Default)]
struct RecState {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistAgg>,
    events: Vec<ObsEvent>,
    events_dropped: u64,
}

/// A clonable, thread-safe recorder.
///
/// "Lock-free enough": state lives behind one mutex whose critical
/// sections are a map lookup and a few additions. The pipeline's hot
/// loops record once per image or per batch — microseconds of real work
/// per lock acquisition — so contention is negligible next to inference.
/// Cloning shares the underlying state.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    inner: Arc<Mutex<RecState>>,
}

impl SharedRecorder {
    /// Events kept per recorder before further events are counted in
    /// [`ObsReport::events_dropped`] instead of stored (no silent cap).
    pub const MAX_EVENTS: usize = 4096;

    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RecState> {
        // A panicking instrumented thread must not wedge the report.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A deterministic snapshot: entries sorted by name, events in
    /// arrival order. Taking a report does not reset the recorder.
    pub fn report(&self) -> ObsReport {
        let st = self.state();
        ObsReport {
            schema_version: schema::SCHEMA_VERSION,
            spans: st
                .spans
                .iter()
                .map(|(name, a)| SpanStat {
                    name: name.clone(),
                    count: a.count,
                    total_s: a.total_ns as f64 / 1e9,
                    min_s: a.min_ns as f64 / 1e9,
                    max_s: a.max_ns as f64 / 1e9,
                })
                .collect(),
            counters: st
                .counters
                .iter()
                .map(|(name, &value)| CounterStat {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: st
                .histograms
                .iter()
                .map(|(name, h)| HistogramStat {
                    name: name.clone(),
                    bucket_edges: h.edges.to_vec(),
                    bucket_counts: h.buckets.clone(),
                    count: h.count,
                    sum: h.sum,
                })
                .collect(),
            events: st.events.clone(),
            events_dropped: st.events_dropped,
        }
    }
}

impl Recorder for SharedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, name: &str, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let mut st = self.state();
        match st.spans.get_mut(name) {
            Some(a) => {
                a.count += 1;
                a.total_ns = a.total_ns.saturating_add(dur);
                a.min_ns = a.min_ns.min(dur);
                a.max_ns = a.max_ns.max(dur);
            }
            None => {
                st.spans.insert(
                    name.to_owned(),
                    SpanAgg {
                        count: 1,
                        total_ns: dur,
                        min_ns: dur,
                        max_ns: dur,
                    },
                );
            }
        }
    }

    fn add(&self, name: &str, delta: u64) {
        let mut st = self.state();
        match st.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                st.counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn observe(&self, name: &str, value: f64) {
        let mut st = self.state();
        let h = match st.histograms.get_mut(name) {
            Some(h) => h,
            None => {
                let edges = schema::bucket_edges(name);
                st.histograms.insert(
                    name.to_owned(),
                    HistAgg {
                        edges,
                        buckets: vec![0; edges.len() + 1],
                        count: 0,
                        sum: 0.0,
                    },
                );
                st.histograms.get_mut(name).expect("just inserted")
            }
        };
        // Bucket b holds values <= edges[b]; the last bucket overflows.
        let b = h.edges.partition_point(|&e| e < value);
        h.buckets[b] += 1;
        h.count += 1;
        h.sum += value;
    }

    fn record_event(&self, event: ObsEvent) {
        let mut st = self.state();
        if st.events.len() < Self::MAX_EVENTS {
            st.events.push(event);
        } else {
            st.events_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        rec.record_span("x", 0, 10);
        rec.add("c", 1);
        rec.observe("h_s", 0.1);
        rec.record_event(ObsEvent::Rerun { image: 0 });
    }

    #[test]
    fn span_guard_skips_clock_when_disabled() {
        let g = SpanGuard::start(&NULL_RECORDER, "x");
        assert!(g.start_ns.is_none());
    }

    #[test]
    fn shared_recorder_aggregates_spans() {
        let rec = SharedRecorder::new();
        rec.record_span("a", 0, 1_000);
        rec.record_span("a", 10, 3_010);
        rec.record_span("b", 5, 6);
        let r = rec.report();
        assert_eq!(r.spans.len(), 2);
        let a = &r.spans[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.count, 2);
        assert!((a.total_s - 4e-6).abs() < 1e-12);
        assert!((a.min_s - 1e-6).abs() < 1e-12);
        assert!((a.max_s - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let rec = SharedRecorder::new();
        rec.add("c", 2);
        rec.add("c", 3);
        rec.add("d", 1);
        let r = rec.report();
        assert_eq!(r.counters.len(), 2);
        assert_eq!(r.counters[0].value, 5);
        assert_eq!(r.counters[1].value, 1);
    }

    #[test]
    fn histogram_buckets_by_latency_edges() {
        let rec = SharedRecorder::new();
        rec.observe("x_s", 0.0); // first bucket
        rec.observe("x_s", 1e30); // overflow bucket
        let r = rec.report();
        let h = &r.histograms[0];
        assert_eq!(h.bucket_edges, schema::LATENCY_BUCKET_EDGES_S.to_vec());
        assert_eq!(h.bucket_counts.len(), h.bucket_edges.len() + 1);
        assert_eq!(h.bucket_counts[0], 1);
        assert_eq!(*h.bucket_counts.last().unwrap(), 1);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn events_cap_counts_drops() {
        let rec = SharedRecorder::new();
        for i in 0..SharedRecorder::MAX_EVENTS + 5 {
            rec.record_event(ObsEvent::Rerun { image: i });
        }
        let r = rec.report();
        assert_eq!(r.events.len(), SharedRecorder::MAX_EVENTS);
        assert_eq!(r.events_dropped, 5);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // raw threads, to race the clones
    fn clones_share_state_across_threads() {
        let rec = SharedRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = rec.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        r.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(rec.report().counters[0].value, 400);
    }
}

//! Discrete-event simulation of the FINN streaming pipeline.
//!
//! FINN is "a streaming multi-layer pipeline architecture where every
//! layer is composed of a compute engine surrounded by input/output
//! buffers" (paper §II). [`StreamSim`] models each engine as a single
//! server with a fixed per-image service time (its folded cycle count at
//! the device clock) connected by finite FIFOs, and replays a batch
//! through the pipeline. This produces the *obtained* performance next
//! to the cycle model's *expected* values: ramp-up/ramp-down, FIFO
//! back-pressure, and the serialised input-transfer overhead all show up
//! here — the effects the paper attributes its expected/obtained gap and
//! batch-size behaviour to.

use std::fmt;

use mp_obs::{schema, ObsEvent, Recorder};
use mp_tensor::init::unit_hash;
use serde::{Deserialize, Error, Serialize, Value};

/// An invalid streaming-pipeline or stream-fault configuration.
///
/// The checked constructors ([`StreamSim::try_new`],
/// [`StreamFaults::try_new`]) return this instead of panicking, and the
/// `Deserialize` impls route through them so a config read back from
/// disk cannot smuggle an invariant-violating value past validation
/// (the same pattern `BitVec` and `Folding` use).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamConfigError {
    /// The pipeline has no stages.
    EmptyPipeline,
    /// A stage's service time is negative (or NaN).
    BadServiceTime {
        /// Index of the offending stage.
        stage: usize,
        /// The rejected value.
        value: f64,
    },
    /// The inter-stage FIFO capacity is zero.
    ZeroFifoCapacity,
    /// The source interval is negative (or NaN).
    BadSourceInterval(f64),
    /// The stall probability is outside `[0, 1]` (or NaN).
    BadStallRate(f64),
    /// The stall duration is negative (or NaN).
    BadStallDuration(f64),
    /// The jitter fraction is outside `[0, 1]` (or NaN).
    BadJitterFraction(f64),
}

impl fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPipeline => write!(f, "pipeline needs at least one stage"),
            Self::BadServiceTime { stage, value } => {
                write!(
                    f,
                    "stage {stage}: service time {value} must be non-negative"
                )
            }
            Self::ZeroFifoCapacity => write!(f, "FIFO capacity must be positive"),
            Self::BadSourceInterval(v) => {
                write!(f, "source interval {v} must be non-negative")
            }
            Self::BadStallRate(v) => write!(f, "stall rate {v} must be in [0,1]"),
            Self::BadStallDuration(v) => {
                write!(f, "stall duration {v} must be non-negative")
            }
            Self::BadJitterFraction(v) => write!(f, "jitter {v} must be in [0,1]"),
        }
    }
}

impl std::error::Error for StreamConfigError {}

/// Deterministic fault model for [`StreamSim`]: seeded source stalls and
/// source-interval jitter.
///
/// The paper's obtained-vs-expected gap (§III-A) is dominated by the
/// serialised input transfer; in deployment that transfer also
/// *misbehaves* — DMA contention stalls the source, and arrival spacing
/// jitters around its nominal interval. `StreamFaults` injects both,
/// keyed purely on `(seed, image index)` so the same plan replays
/// byte-identically regardless of when or where it runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamFaults {
    /// Root seed; all per-image decisions derive from it.
    pub seed: u64,
    /// Probability that an image's arrival is preceded by a stall.
    pub stall_rate: f64,
    /// Duration of each injected stall, in seconds.
    pub stall_s: f64,
    /// Source-interval jitter as a fraction of the nominal interval:
    /// each inter-arrival gap is scaled by a factor drawn uniformly from
    /// `[1 − jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
}

impl StreamFaults {
    /// A fault-free plan: [`StreamSim::run_with_faults`] with this plan
    /// is byte-identical to [`StreamSim::run`].
    pub fn none() -> Self {
        Self {
            seed: 0,
            stall_rate: 0.0,
            stall_s: 0.0,
            jitter_frac: 0.0,
        }
    }

    /// Creates a fault-free plan carrying only a seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Creates a fully-specified plan, validating every invariant the
    /// builder methods assert.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError`] if `stall_rate` or `jitter_frac`
    /// is outside `[0, 1]` or `stall_s` is negative (NaN fails every
    /// range check).
    pub fn try_new(
        seed: u64,
        stall_rate: f64,
        stall_s: f64,
        jitter_frac: f64,
    ) -> Result<Self, StreamConfigError> {
        if !(0.0..=1.0).contains(&stall_rate) {
            return Err(StreamConfigError::BadStallRate(stall_rate));
        }
        if stall_s.is_nan() || stall_s < 0.0 {
            return Err(StreamConfigError::BadStallDuration(stall_s));
        }
        if !(0.0..=1.0).contains(&jitter_frac) {
            return Err(StreamConfigError::BadJitterFraction(jitter_frac));
        }
        Ok(Self {
            seed,
            stall_rate,
            stall_s,
            jitter_frac,
        })
    }

    /// Sets the stall process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `stall_s` is negative;
    /// use [`Self::try_new`] to handle invalid values gracefully.
    pub fn with_stalls(self, rate: f64, stall_s: f64) -> Self {
        match Self::try_new(self.seed, rate, stall_s, self.jitter_frac) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets the source-interval jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`; use [`Self::try_new`] to
    /// handle invalid values gracefully.
    pub fn with_jitter(self, frac: f64) -> Self {
        match Self::try_new(self.seed, self.stall_rate, self.stall_s, frac) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        (self.stall_rate == 0.0 || self.stall_s == 0.0) && self.jitter_frac == 0.0
    }

    /// The injected stall before image `index`, in seconds (0 if none).
    pub fn stall_before(&self, index: usize) -> f64 {
        if self.stall_rate > 0.0 && unit_hash(self.seed, index as u64, 0, 0) < self.stall_rate {
            self.stall_s
        } else {
            0.0
        }
    }

    /// The jitter factor applied to the gap before image `index`.
    pub fn gap_factor(&self, index: usize) -> f64 {
        if self.jitter_frac == 0.0 {
            1.0
        } else {
            1.0 + self.jitter_frac * (2.0 * unit_hash(self.seed, index as u64, 0, 1) - 1.0)
        }
    }
}

impl Default for StreamFaults {
    fn default() -> Self {
        Self::none()
    }
}

// Manual Deserialize: a plan read back from disk must re-validate the
// ranges `with_stalls`/`with_jitter` assert, or a corrupted record
// would misbehave (negative stalls rewind virtual time, a >1 rate is
// nonsense) long after the load site.
impl<'de> Deserialize<'de> for StreamFaults {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let seed = u64::from_value(value.get_field("seed")?)?;
        let stall_rate = f64::from_value(value.get_field("stall_rate")?)?;
        let stall_s = f64::from_value(value.get_field("stall_s")?)?;
        let jitter_frac = f64::from_value(value.get_field("jitter_frac")?)?;
        StreamFaults::try_new(seed, stall_rate, stall_s, jitter_frac).map_err(Error::custom)
    }
}

/// Result of simulating one batch through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Time from first input to last output, in seconds.
    pub makespan_s: f64,
    /// Batch throughput: images per second over the makespan.
    pub throughput_fps: f64,
    /// Latency of the first image (pipeline ramp-up), in seconds.
    pub first_latency_s: f64,
    /// Mean per-image latency, in seconds.
    pub mean_latency_s: f64,
}

/// A streaming pipeline of single-server stages with finite FIFOs.
///
/// # Example
///
/// ```
/// use mp_fpga::stream_sim::StreamSim;
///
/// // Three balanced stages of 1 ms each, generous FIFOs.
/// let sim = StreamSim::new(vec![1e-3, 1e-3, 1e-3], 4, 0.0);
/// let r = sim.run(100);
/// // Steady state: one image per bottleneck interval.
/// assert!((r.throughput_fps - 1000.0).abs() / 1000.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamSim {
    service_s: Vec<f64>,
    fifo_capacity: usize,
    source_interval_s: f64,
}

// Manual Deserialize: the asserted invariants (non-empty stage list,
// non-negative service times, positive FIFO capacity) must hold for
// data read back from disk too, or `run` panics — or worse, silently
// simulates nonsense — far from the load site.
impl<'de> Deserialize<'de> for StreamSim {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let service_s = Vec::<f64>::from_value(value.get_field("service_s")?)?;
        let fifo_capacity = usize::from_value(value.get_field("fifo_capacity")?)?;
        let source_interval_s = f64::from_value(value.get_field("source_interval_s")?)?;
        StreamSim::try_new(service_s, fifo_capacity, source_interval_s).map_err(Error::custom)
    }
}

impl StreamSim {
    /// Creates a pipeline.
    ///
    /// `service_s` is the per-image service time of each stage;
    /// `fifo_capacity` is the number of images each inter-stage FIFO
    /// holds; `source_interval_s` is the minimum spacing between input
    /// images (0 for an always-ready source).
    ///
    /// # Panics
    ///
    /// Panics if there are no stages, a service time is negative, or
    /// `fifo_capacity` is zero; use [`Self::try_new`] to handle the
    /// invalid cases gracefully.
    pub fn new(service_s: Vec<f64>, fifo_capacity: usize, source_interval_s: f64) -> Self {
        match Self::try_new(service_s, fifo_capacity, source_interval_s) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a pipeline, rejecting invalid configurations with a
    /// typed error.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError`] if there are no stages, a service
    /// time is negative, `fifo_capacity` is zero, or the source
    /// interval is negative (NaN fails every range check).
    pub fn try_new(
        service_s: Vec<f64>,
        fifo_capacity: usize,
        source_interval_s: f64,
    ) -> Result<Self, StreamConfigError> {
        if service_s.is_empty() {
            return Err(StreamConfigError::EmptyPipeline);
        }
        let bad = |s: f64| s.is_nan() || s < 0.0;
        if let Some((stage, &value)) = service_s.iter().enumerate().find(|&(_, &s)| bad(s)) {
            return Err(StreamConfigError::BadServiceTime { stage, value });
        }
        if fifo_capacity == 0 {
            return Err(StreamConfigError::ZeroFifoCapacity);
        }
        if bad(source_interval_s) {
            return Err(StreamConfigError::BadSourceInterval(source_interval_s));
        }
        Ok(Self {
            service_s,
            fifo_capacity,
            source_interval_s,
        })
    }

    /// Builds a pipeline from per-engine cycle counts at a device clock.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamSim::new`]; additionally `clock_hz`
    /// must be positive.
    pub fn from_cycles(cycles: &[u64], clock_hz: f64, fifo_capacity: usize) -> Self {
        assert!(clock_hz > 0.0, "clock must be positive");
        Self::new(
            cycles.iter().map(|&c| c as f64 / clock_hz).collect(),
            fifo_capacity,
            0.0,
        )
    }

    /// Sets the source interval (e.g. DMA transfer time per image).
    pub fn with_source_interval(mut self, interval_s: f64) -> Self {
        assert!(interval_s >= 0.0, "source interval must be non-negative");
        self.source_interval_s = interval_s;
        self
    }

    /// The pipeline's steady-state initiation interval: the slowest of
    /// the source and any stage.
    pub fn bottleneck_interval_s(&self) -> f64 {
        self.service_s
            .iter()
            .copied()
            .fold(self.source_interval_s, f64::max)
    }

    /// Replays `batch` images through the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn run(&self, batch: usize) -> SimResult {
        self.run_with_faults(batch, &StreamFaults::none())
    }

    /// Replays `batch` images with `faults` perturbing the source: each
    /// image's arrival is delayed by seeded stalls and its inter-arrival
    /// gap scaled by seeded jitter. With [`StreamFaults::none`] this is
    /// byte-identical to [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn run_with_faults(&self, batch: usize, faults: &StreamFaults) -> SimResult {
        self.run_with_faults_obs(batch, faults, &mp_obs::NULL_RECORDER)
    }

    /// [`StreamSim::run_with_faults`] with the simulated schedule written
    /// into `rec` as **virtual-time** observations: one `stream.stage<i>`
    /// span per image per stage (timestamps are virtual nanoseconds since
    /// the batch start, not wall time), a `stream.latency_s` histogram of
    /// per-image latencies, a `stream.images` counter, and one
    /// [`ObsEvent::Stream`] per image (oldest dropped beyond the event
    /// cap).
    ///
    /// Recording is strictly passive: the returned [`SimResult`] is
    /// byte-identical to the uninstrumented path.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn run_with_faults_obs(
        &self,
        batch: usize,
        faults: &StreamFaults,
        rec: &dyn Recorder,
    ) -> SimResult {
        assert!(batch > 0, "batch must be positive");
        let m = self.service_s.len();
        let cap = self.fifo_capacity;
        let fault_free = faults.is_none();
        let stage_names;
        let obs: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            stage_names = (0..m)
                .map(|i| format!("{}{i}", schema::SPAN_STREAM_STAGE_PREFIX))
                .collect::<Vec<_>>();
            Some((rec, stage_names.as_slice()))
        } else {
            None
        };
        let virt_ns = |s: f64| (s.max(0.0) * 1e9) as u64;
        // departures[j][i]: when image j leaves stage i (it has also
        // secured a slot downstream — blocking-after-service).
        let mut departures = vec![vec![0.0f64; m]; batch];
        let mut latencies = Vec::with_capacity(batch);
        let mut prev_arrival = 0.0f64;
        for j in 0..batch {
            let arrival = if fault_free {
                j as f64 * self.source_interval_s
            } else if j == 0 {
                faults.stall_before(0)
            } else {
                prev_arrival
                    + self.source_interval_s * faults.gap_factor(j)
                    + faults.stall_before(j)
            };
            prev_arrival = arrival;
            let mut upstream = arrival;
            for i in 0..m {
                // Server free after the previous image left.
                let server_free = if j > 0 { departures[j - 1][i] } else { 0.0 };
                let start = upstream.max(server_free);
                let mut t = start + self.service_s[i];
                // Back-pressure: a slot frees downstream once image
                // j-cap has left stage i+1.
                if i + 1 < m && j >= cap {
                    t = t.max(departures[j - cap][i + 1]);
                }
                departures[j][i] = t;
                upstream = t;
                if let Some((rec, names)) = obs {
                    rec.record_span(&names[i], virt_ns(start), virt_ns(t));
                }
            }
            let latency = departures[j][m - 1] - arrival;
            latencies.push(latency);
            if let Some((rec, _)) = obs {
                rec.observe(schema::HIST_STREAM_LATENCY_S, latency);
                rec.record_event(ObsEvent::Stream {
                    image: j,
                    arrival_s: arrival,
                    departure_s: departures[j][m - 1],
                });
            }
        }
        if let Some((rec, _)) = obs {
            rec.add(schema::CTR_STREAM_IMAGES, batch as u64);
        }
        let makespan = departures[batch - 1][m - 1];
        SimResult {
            makespan_s: makespan,
            throughput_fps: batch as f64 / makespan,
            first_latency_s: latencies[0],
            mean_latency_s: latencies.iter().sum::<f64>() / batch as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_throughput_is_inverse_service() {
        let sim = StreamSim::new(vec![2e-3], 2, 0.0);
        let r = sim.run(500);
        assert!((r.throughput_fps - 500.0).abs() < 1.0);
        assert!((r.first_latency_s - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_stage_sets_steady_state() {
        let sim = StreamSim::new(vec![1e-3, 5e-3, 1e-3], 4, 0.0);
        let r = sim.run(1000);
        // ≈ 200 fps from the 5 ms stage.
        assert!((r.throughput_fps - 200.0).abs() / 200.0 < 0.02);
    }

    #[test]
    fn ramp_up_latency_is_sum_of_services() {
        let sim = StreamSim::new(vec![1e-3, 2e-3, 3e-3], 8, 0.0);
        let r = sim.run(1);
        assert!((r.first_latency_s - 6e-3).abs() < 1e-9);
        assert!((r.makespan_s - 6e-3).abs() < 1e-9);
    }

    #[test]
    fn slow_source_limits_throughput() {
        let sim = StreamSim::new(vec![1e-3], 2, 4e-3);
        let r = sim.run(200);
        assert!((r.throughput_fps - 250.0).abs() / 250.0 < 0.05);
        assert!((sim.bottleneck_interval_s() - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn tight_fifos_create_back_pressure() {
        // Fast stage feeding a slow one: with a 1-slot FIFO the fast
        // stage blocks, so per-image latency in the fast stage grows.
        let tight = StreamSim::new(vec![1e-3, 10e-3], 1, 0.0).run(50);
        let loose = StreamSim::new(vec![1e-3, 10e-3], 64, 0.0).run(50);
        // Throughput is bottleneck-bound either way…
        assert!((tight.throughput_fps - loose.throughput_fps).abs() / loose.throughput_fps < 0.05);
        // …but generous FIFOs let later images queue longer upstream.
        assert!(loose.mean_latency_s >= tight.mean_latency_s * 0.9);
    }

    #[test]
    fn larger_batches_amortise_ramp() {
        // The paper: larger batch ⇒ slightly better throughput (ramp is
        // amortised) but higher per-image latency.
        let sim = StreamSim::new(vec![1e-3, 2e-3, 1e-3], 2, 0.0);
        let small = sim.run(4);
        let large = sim.run(400);
        assert!(large.throughput_fps > small.throughput_fps);
        assert!(large.mean_latency_s >= small.mean_latency_s);
    }

    #[test]
    fn from_cycles_converts_clock() {
        let sim = StreamSim::from_cycles(&[100_000, 200_000], 100e6, 2);
        assert!((sim.bottleneck_interval_s() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn no_faults_is_byte_identical_to_run() {
        let sim = StreamSim::new(vec![1e-3, 2e-3, 1e-3], 2, 5e-4);
        let plain = sim.run(100);
        let faulty = sim.run_with_faults(100, &StreamFaults::seeded(42));
        assert_eq!(plain, faulty);
    }

    #[test]
    fn stalls_reduce_throughput() {
        let sim = StreamSim::new(vec![1e-3], 2, 0.0);
        let clean = sim.run(200);
        let stalled = sim.run_with_faults(200, &StreamFaults::seeded(7).with_stalls(0.5, 5e-3));
        assert!(stalled.throughput_fps < clean.throughput_fps);
        assert!(stalled.makespan_s > clean.makespan_s);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let sim = StreamSim::new(vec![1e-3, 2e-3], 4, 1e-3);
        let f = StreamFaults::seeded(11).with_jitter(0.5);
        let a = sim.run_with_faults(300, &f);
        let b = sim.run_with_faults(300, &f);
        assert_eq!(a, b);
        let c = sim.run_with_faults(300, &StreamFaults::seeded(12).with_jitter(0.5));
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_cannot_make_gaps_negative() {
        let f = StreamFaults::seeded(3).with_jitter(1.0);
        for j in 0..1000 {
            let g = f.gap_factor(j);
            assert!((0.0..=2.0).contains(&g), "gap factor {g}");
        }
    }

    #[test]
    fn instrumented_run_is_passive_and_logs_virtual_time() {
        let sim = StreamSim::new(vec![1e-3, 2e-3, 1e-3], 2, 5e-4);
        let faults = StreamFaults::seeded(5)
            .with_stalls(0.2, 3e-3)
            .with_jitter(0.3);
        let plain = sim.run_with_faults(40, &faults);
        let rec = mp_obs::SharedRecorder::new();
        let obs = sim.run_with_faults_obs(40, &faults, &rec);
        assert_eq!(plain, obs);
        let report = rec.report();
        mp_obs::schema::validate_report(&report).unwrap();
        assert_eq!(report.counter(schema::CTR_STREAM_IMAGES), 40);
        for i in 0..3 {
            let span = report.span(&format!("stream.stage{i}")).unwrap();
            assert_eq!(span.count, 40);
        }
        let lat = report.histogram(schema::HIST_STREAM_LATENCY_S).unwrap();
        assert_eq!(lat.count, 40);
        assert!((lat.sum - plain.mean_latency_s * 40.0).abs() < 1e-9);
        assert_eq!(report.events.len(), 40);
    }

    #[test]
    #[should_panic(expected = "stall rate")]
    fn bad_stall_rate_rejected() {
        let _ = StreamFaults::none().with_stalls(1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = StreamSim::new(vec![], 2, 0.0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let _ = StreamSim::new(vec![1.0], 1, 0.0).run(0);
    }

    #[test]
    fn stream_sim_deserialize_round_trips() {
        let sim = StreamSim::new(vec![1e-3, 2e-3], 4, 5e-4);
        let round = StreamSim::from_value(&sim.to_value()).expect("valid sim");
        assert_eq!(round, sim);
        let faults = StreamFaults::seeded(7)
            .with_stalls(0.2, 3e-3)
            .with_jitter(0.4);
        let round = StreamFaults::from_value(&faults.to_value()).expect("valid faults");
        assert_eq!(round, faults);
    }

    #[test]
    fn stream_sim_deserialize_rejects_invalid() {
        // Smuggled-invalid structs (constructed directly, bypassing
        // try_new) must fail to deserialize with a typed error, not
        // panic later in run().
        let empty = StreamSim {
            service_s: vec![],
            fifo_capacity: 2,
            source_interval_s: 0.0,
        };
        let err = StreamSim::from_value(&empty.to_value()).unwrap_err();
        assert!(err.to_string().contains("at least one stage"), "{err}");

        let zero_fifo = StreamSim {
            service_s: vec![1e-3],
            fifo_capacity: 0,
            source_interval_s: 0.0,
        };
        let err = StreamSim::from_value(&zero_fifo.to_value()).unwrap_err();
        assert!(err.to_string().contains("FIFO capacity"), "{err}");

        let negative_service = StreamSim {
            service_s: vec![1e-3, -2e-3],
            fifo_capacity: 2,
            source_interval_s: 0.0,
        };
        let err = StreamSim::from_value(&negative_service.to_value()).unwrap_err();
        assert!(err.to_string().contains("stage 1"), "{err}");

        let negative_source = StreamSim {
            service_s: vec![1e-3],
            fifo_capacity: 2,
            source_interval_s: -1.0,
        };
        assert!(StreamSim::from_value(&negative_source.to_value()).is_err());
    }

    #[test]
    fn stream_faults_deserialize_rejects_invalid() {
        let bad_rate = StreamFaults {
            seed: 1,
            stall_rate: 1.5,
            stall_s: 0.0,
            jitter_frac: 0.0,
        };
        let err = StreamFaults::from_value(&bad_rate.to_value()).unwrap_err();
        assert!(err.to_string().contains("stall rate"), "{err}");

        let bad_stall = StreamFaults {
            seed: 1,
            stall_rate: 0.1,
            stall_s: -2.0,
            jitter_frac: 0.0,
        };
        let err = StreamFaults::from_value(&bad_stall.to_value()).unwrap_err();
        assert!(err.to_string().contains("stall duration"), "{err}");

        let bad_jitter = StreamFaults {
            seed: 1,
            stall_rate: 0.1,
            stall_s: 0.0,
            jitter_frac: f64::NAN,
        };
        assert!(StreamFaults::from_value(&bad_jitter.to_value()).is_err());
    }

    #[test]
    fn try_new_matches_new_on_valid_input() {
        let a = StreamSim::try_new(vec![1e-3, 2e-3], 4, 0.0).unwrap();
        let b = StreamSim::new(vec![1e-3, 2e-3], 4, 0.0);
        assert_eq!(a, b);
        let f = StreamFaults::try_new(9, 0.25, 1e-3, 0.5).unwrap();
        let g = StreamFaults::seeded(9)
            .with_stalls(0.25, 1e-3)
            .with_jitter(0.5);
        assert_eq!(f, g);
    }
}

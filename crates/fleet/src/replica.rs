//! Replica descriptions and the per-replica virtual-time circuit
//! breaker.

use serde::Serialize;

use mp_core::PipelineTiming;
use mp_serve::BatcherConfig;

use crate::FleetError;

/// What hardware profile a replica models. Both kinds run the *same
/// functional* multi-precision pipeline — predictions are bit-identical
/// across the fleet — and differ only in how batches are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ReplicaKind {
    /// FPGA-profile replica: the BNN stage runs at accelerator speed
    /// (`t_bnn ≪ t_fp`) — the cheap, high-throughput tier.
    Fpga,
    /// Host-only replica: the BNN stage is emulated at host speed
    /// (`t_bnn = t_fp`) — the expensive spill tier the precision-aware
    /// router uses under load.
    HostOnly,
}

/// Static description of one fleet replica: its service-time profile
/// and its dynamic-batching / admission knobs (an
/// `mp_serve::BatcherConfig`, the same type `BatchServer` takes).
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    name: String,
    kind: ReplicaKind,
    timing: PipelineTiming,
    batcher: BatcherConfig,
}

impl ReplicaSpec {
    /// Creates a replica spec, validating the batching knobs with
    /// [`BatcherConfig::try_new`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] if `max_batch` or
    /// `queue_capacity` is zero, or `max_delay_s` is negative or
    /// non-finite.
    pub fn try_new(
        name: impl Into<String>,
        kind: ReplicaKind,
        timing: PipelineTiming,
        max_batch: usize,
        max_delay_s: f64,
        queue_capacity: usize,
    ) -> Result<Self, FleetError> {
        let batcher = BatcherConfig::try_new(max_batch, max_delay_s, queue_capacity)
            .map_err(|e| FleetError::Config(e.to_string()))?;
        Ok(Self {
            name: name.into(),
            kind,
            timing,
            batcher,
        })
    }

    /// An FPGA-profile replica from the pipeline's timing record.
    ///
    /// # Errors
    ///
    /// Same as [`try_new`](Self::try_new).
    pub fn fpga(
        name: impl Into<String>,
        timing: PipelineTiming,
        max_batch: usize,
        max_delay_s: f64,
        queue_capacity: usize,
    ) -> Result<Self, FleetError> {
        Self::try_new(
            name,
            ReplicaKind::Fpga,
            timing,
            max_batch,
            max_delay_s,
            queue_capacity,
        )
    }

    /// A host-only replica: the same functional pipeline with the BNN
    /// stage priced at host speed (`t_bnn = t_fp = t_fp_img_s`).
    ///
    /// # Errors
    ///
    /// Same as [`try_new`](Self::try_new); additionally rejects a
    /// non-positive `t_fp_img_s`.
    pub fn host_only(
        name: impl Into<String>,
        t_fp_img_s: f64,
        max_batch: usize,
        max_delay_s: f64,
        queue_capacity: usize,
    ) -> Result<Self, FleetError> {
        if !t_fp_img_s.is_finite() || t_fp_img_s <= 0.0 {
            return Err(FleetError::Config(format!(
                "t_fp_img_s {t_fp_img_s} must be finite and positive"
            )));
        }
        // `try_new` turns a zero `max_batch` into a typed error;
        // `PipelineTiming::new` would panic on it first.
        let timing = PipelineTiming::new(t_fp_img_s, t_fp_img_s, max_batch.max(1));
        Self::try_new(
            name,
            ReplicaKind::HostOnly,
            timing,
            max_batch,
            max_delay_s,
            queue_capacity,
        )
    }

    /// The replica's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The replica's hardware profile.
    pub fn kind(&self) -> ReplicaKind {
        self.kind
    }

    /// The replica's service-time profile.
    pub fn timing(&self) -> &PipelineTiming {
        &self.timing
    }

    /// The replica's dynamic-batching and admission knobs.
    pub fn batcher(&self) -> BatcherConfig {
        self.batcher
    }
}

/// Virtual-time circuit-breaker knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BreakerConfig {
    /// Consecutive failures (deadline-missed batches) that open the
    /// breaker.
    pub failure_threshold: u32,
    /// Virtual seconds the breaker stays open before it admits a
    /// half-open probe.
    pub cooldown_s: f64,
}

impl BreakerConfig {
    /// Creates a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] on a zero threshold or a
    /// non-positive/non-finite cooldown.
    pub fn try_new(failure_threshold: u32, cooldown_s: f64) -> Result<Self, FleetError> {
        if failure_threshold == 0 {
            return Err(FleetError::Config(
                "failure_threshold must be positive".into(),
            ));
        }
        if !cooldown_s.is_finite() || cooldown_s <= 0.0 {
            return Err(FleetError::Config(format!(
                "cooldown_s {cooldown_s} must be finite and positive"
            )));
        }
        Ok(Self {
            failure_threshold,
            cooldown_s,
        })
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_s: 0.5,
        }
    }
}

/// Breaker state in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum BreakerState {
    /// Normal admission.
    Closed,
    /// Rejecting new work until the embedded virtual time.
    Open {
        /// Virtual time at which a half-open probe becomes admissible.
        until_s: f64,
    },
    /// One probe is (or may be) in flight; its outcome decides.
    HalfOpen,
}

/// The fleet's per-replica circuit breaker — unlike the per-image
/// count-based [`mp_core::CircuitBreaker`] inside one pipeline, this
/// one runs in *virtual time*: it opens on consecutive batch failures
/// (deadline misses), stays open for a cooldown, then admits a single
/// half-open probe whose outcome closes or re-opens it.
#[derive(Debug, Clone)]
pub struct FleetBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_in_flight: bool,
}

impl FleetBreaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_in_flight: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the router may send this replica new work at `now_s`.
    /// Pure — policies may consult every candidate; call
    /// [`on_admitted`](Self::on_admitted) for the replica actually
    /// chosen.
    pub fn would_admit(&self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until_s } => now_s >= until_s,
            BreakerState::HalfOpen => !self.probe_in_flight,
        }
    }

    /// Marks an actual admission at `now_s`. An open breaker past its
    /// cooldown transitions to half-open and the admitted request
    /// becomes the probe.
    pub fn on_admitted(&mut self, now_s: f64) {
        match self.state {
            BreakerState::Closed => {}
            BreakerState::Open { until_s } => {
                debug_assert!(now_s >= until_s, "admission while still open");
                self.state = BreakerState::HalfOpen;
                self.probe_in_flight = true;
            }
            BreakerState::HalfOpen => self.probe_in_flight = true,
        }
    }

    /// Records a successful batch (every member within deadline).
    /// Returns `true` if this closed a non-closed breaker.
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
        match self.state {
            BreakerState::Closed => false,
            _ => {
                self.state = BreakerState::Closed;
                true
            }
        }
    }

    /// Records a failed batch (some member past deadline) finishing at
    /// `now_s`. Returns `true` if this tripped a closed breaker open; a
    /// failed half-open probe re-opens silently, and a failure while
    /// already open extends the cooldown.
    pub fn record_failure(&mut self, now_s: f64) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.probe_in_flight = false;
        let reopen_until = now_s + self.cfg.cooldown_s;
        match self.state {
            BreakerState::Closed => {
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open {
                        until_s: reopen_until,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open {
                    until_s: reopen_until,
                };
                false
            }
            BreakerState::Open { until_s } => {
                self.state = BreakerState::Open {
                    until_s: until_s.max(reopen_until),
                };
                false
            }
        }
    }

    /// Forces the breaker shut with no memory — the replica-recovery
    /// path (a recovered replica starts fresh). Unlike a successful
    /// probe, it is not reported as a close.
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A breaker plus the opens and closes its `record_*` calls report,
    /// tallied the way the engine fills `ReplicaStats`.
    struct Counted {
        breaker: FleetBreaker,
        opens: usize,
        closes: usize,
    }

    impl Counted {
        fn record_failure(&mut self, now_s: f64) -> bool {
            let opened = self.breaker.record_failure(now_s);
            self.opens += usize::from(opened);
            opened
        }

        fn record_success(&mut self) -> bool {
            let closed = self.breaker.record_success();
            self.closes += usize::from(closed);
            closed
        }
    }

    impl std::ops::Deref for Counted {
        type Target = FleetBreaker;
        fn deref(&self) -> &FleetBreaker {
            &self.breaker
        }
    }

    impl std::ops::DerefMut for Counted {
        fn deref_mut(&mut self) -> &mut FleetBreaker {
            &mut self.breaker
        }
    }

    fn breaker(threshold: u32, cooldown_s: f64) -> Counted {
        Counted {
            breaker: FleetBreaker::new(BreakerConfig::try_new(threshold, cooldown_s).unwrap()),
            opens: 0,
            closes: 0,
        }
    }

    #[test]
    fn opens_after_threshold_and_probes_after_cooldown() {
        let mut b = breaker(2, 1.0);
        assert!(b.would_admit(0.0));
        assert!(!b.record_failure(0.1));
        assert!(b.record_failure(0.2), "second failure trips");
        assert_eq!(b.opens, 1);
        assert_eq!(b.state(), BreakerState::Open { until_s: 1.2 });
        // Cooling down: rejects…
        assert!(!b.would_admit(1.0));
        // …until the cooldown elapses, then exactly one probe.
        assert!(b.would_admit(1.3));
        b.on_admitted(1.3);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.would_admit(1.4), "only one probe in flight");
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes, 1);
    }

    #[test]
    fn failed_probe_reopens_without_counting_a_fresh_open() {
        let mut b = breaker(1, 0.5);
        assert!(b.record_failure(0.0));
        assert!(b.would_admit(0.6));
        b.on_admitted(0.6);
        assert!(!b.record_failure(0.7), "failed probe is not a new open");
        assert_eq!(b.opens, 1);
        assert_eq!(b.state(), BreakerState::Open { until_s: 1.2 });
        // Second probe succeeds.
        assert!(b.would_admit(1.2));
        b.on_admitted(1.2);
        assert!(b.record_success());
        assert_eq!(b.closes, 1);
        // A fresh failure streak counts a second open.
        assert!(b.record_failure(1.5));
        assert_eq!(b.opens, 2);
    }

    #[test]
    fn failure_while_open_extends_the_cooldown() {
        let mut b = breaker(1, 1.0);
        assert!(b.record_failure(0.0));
        assert_eq!(b.state(), BreakerState::Open { until_s: 1.0 });
        // A straggler batch (dispatched before the trip) fails late:
        // the cooldown extends, no new open counted.
        assert!(!b.record_failure(0.8));
        assert_eq!(b.state(), BreakerState::Open { until_s: 1.8 });
        assert_eq!(b.opens, 1);
    }

    #[test]
    fn reset_clears_state_without_counting_a_close() {
        let mut b = breaker(1, 1.0);
        b.record_failure(0.0);
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes, 0);
        assert!(b.would_admit(0.0));
    }

    #[test]
    fn spec_validation() {
        let timing = PipelineTiming::new(0.001, 0.01, 4);
        assert!(ReplicaSpec::fpga("a", timing, 4, 0.01, 16).is_ok());
        assert!(ReplicaSpec::fpga("a", timing, 0, 0.01, 16).is_err());
        assert!(ReplicaSpec::fpga("a", timing, 4, -0.01, 16).is_err());
        assert!(ReplicaSpec::fpga("a", timing, 4, 0.01, 0).is_err());
        assert!(ReplicaSpec::host_only("h", 0.0, 4, 0.01, 16).is_err());
        let host = ReplicaSpec::host_only("h", 0.02, 4, 0.01, 16).unwrap();
        assert_eq!(host.kind(), ReplicaKind::HostOnly);
        assert_eq!(host.timing().t_bnn_img_s, host.timing().t_fp_img_s);
    }

    #[test]
    fn host_only_spec_sizes_its_timing_from_a_validated_batcher() {
        let host = ReplicaSpec::host_only("h", 0.02, 8, 0.01, 32).unwrap();
        assert_eq!(host.batcher(), BatcherConfig::try_new(8, 0.01, 32).unwrap());
        assert_eq!(host.timing().batch_size, 8);
        assert!(ReplicaSpec::host_only("h", 0.02, 0, 0.01, 32).is_err());
    }

    #[test]
    fn breaker_config_validation() {
        assert!(BreakerConfig::try_new(0, 1.0).is_err());
        assert!(BreakerConfig::try_new(1, 0.0).is_err());
    }
}

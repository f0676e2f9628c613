//! Deterministic fault injection and graceful degradation.
//!
//! The paper's throughput guarantee (eq. (1)) holds only while the slow
//! host keeps up with its rerun stream; CascadeCNN and FINN both frame
//! the two-stage hand-off as a system that must survive the
//! high-precision side misbehaving. This module makes that testable:
//!
//! - [`FaultPlan`] describes *what goes wrong* — transient host
//!   inference errors, per-image latency spikes and host-worker death —
//!   all keyed on a seed so a chaos run replays byte-identically;
//! - [`FaultInjector`] turns the plan into per-image, per-attempt
//!   decisions with a stateless hash (no RNG state to share across the
//!   pipeline's threads);
//! - [`DegradationPolicy`] describes *what the pipeline does about it* —
//!   a retry budget with exponential backoff, a per-image host deadline,
//!   and a circuit breaker that trips to fallback-only mode after `N`
//!   consecutive host failures, with periodic recovery probing;
//! - [`CircuitBreaker`] is the policy's state machine;
//! - [`FaultEvent`] / [`DegradationStats`] are the audit trail surfaced
//!   in [`PipelineResult`](crate::PipelineResult).
//!
//! Injected latency is *virtual*: the injector compares what the latency
//! would have been with the policy's deadline, so chaos tests stay fast
//! and deterministic while exercising exactly the timeout/degradation
//! control path.

use std::fmt;

use mp_tensor::init::unit_hash;
use serde::{Deserialize, Serialize};

use crate::CoreError;

/// A seeded description of the faults to inject into one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed; every per-image decision derives from it.
    pub seed: u64,
    /// Probability that a host inference attempt fails transiently.
    pub host_error_rate: f64,
    /// Probability that a host inference attempt suffers a latency
    /// spike of [`host_spike_latency_s`](Self::host_spike_latency_s).
    pub host_spike_rate: f64,
    /// Virtual latency of a spiked attempt, in seconds. Compared with
    /// [`DegradationPolicy::host_deadline_s`]; a spike above the
    /// deadline is a timeout fault.
    pub host_spike_latency_s: f64,
    /// Kill the host stage after it has processed this many images (under
    /// the threaded executor, a panic of its worker thread); the pipeline
    /// must degrade, not abort.
    pub host_death_after: Option<usize>,
}

impl FaultPlan {
    /// The fault-free plan: a threaded `execute` under it is
    /// functionally identical to the modelled executor.
    pub fn none() -> Self {
        Self {
            seed: 0,
            host_error_rate: 0.0,
            host_spike_rate: 0.0,
            host_spike_latency_s: 1.0,
            host_death_after: None,
        }
    }

    /// A fault-free plan carrying only a seed (faults added via the
    /// `with_*` builders).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Sets the transient host error rate.
    pub fn with_host_error_rate(mut self, rate: f64) -> Self {
        self.host_error_rate = rate;
        self
    }

    /// Sets the host latency-spike process.
    pub fn with_host_spikes(mut self, rate: f64, latency_s: f64) -> Self {
        self.host_spike_rate = rate;
        self.host_spike_latency_s = latency_s;
        self
    }

    /// Kills the host stage after `processed` images.
    pub fn with_host_death_after(mut self, processed: usize) -> Self {
        self.host_death_after = Some(processed);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.host_error_rate == 0.0
            && self.host_spike_rate == 0.0
            && self.host_death_after.is_none()
    }

    /// Validates rates and durations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a rate is outside
    /// `[0, 1]` or a duration is negative.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (name, rate) in [
            ("host_error_rate", self.host_error_rate),
            ("host_spike_rate", self.host_spike_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} {rate} outside [0,1]"
                )));
            }
        }
        if self.host_spike_latency_s < 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "host_spike_latency_s {} negative",
                self.host_spike_latency_s
            )));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// How the pipeline degrades when the host misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Retries allowed per flagged image beyond the first attempt.
    pub max_retries: u32,
    /// Base of the exponential (virtual) backoff: retry `k` costs
    /// `backoff_base_s · 2^k` from the budget.
    pub backoff_base_s: f64,
    /// Total virtual backoff budget per image; retrying stops once the
    /// next backoff would exceed it, even if retries remain.
    pub backoff_budget_s: f64,
    /// Per-image host deadline: an attempt whose (injected) latency
    /// exceeds this is a timeout fault.
    pub host_deadline_s: f64,
    /// Consecutive host failures that trip the circuit breaker into
    /// fallback-only mode.
    pub breaker_threshold: u32,
    /// While the breaker is open, probe the host once every this many
    /// flagged images; a successful probe closes the breaker.
    pub breaker_probe_every: u32,
}

impl DegradationPolicy {
    /// Validates the policy knobs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on non-positive thresholds,
    /// deadline, or probe interval.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.breaker_threshold == 0 {
            return Err(CoreError::InvalidConfig(
                "breaker_threshold must be positive".into(),
            ));
        }
        if self.breaker_probe_every == 0 {
            return Err(CoreError::InvalidConfig(
                "breaker_probe_every must be positive".into(),
            ));
        }
        if self.host_deadline_s <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "host_deadline_s must be positive".into(),
            ));
        }
        if self.backoff_base_s < 0.0 || self.backoff_budget_s < 0.0 {
            return Err(CoreError::InvalidConfig(
                "backoff parameters must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_s: 0.005,
            backoff_budget_s: 0.1,
            host_deadline_s: 0.25,
            breaker_threshold: 5,
            breaker_probe_every: 8,
        }
    }
}

/// The kind of an injected or observed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A transient host inference error.
    HostTransient,
    /// A host latency spike that exceeded the per-image deadline.
    HostTimeout,
    /// The host worker thread died.
    HostWorkerDeath,
    /// The circuit breaker was open, so the host was not attempted.
    BreakerOpen,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::HostTransient => "transient host error",
            FaultKind::HostTimeout => "host deadline exceeded",
            FaultKind::HostWorkerDeath => "host worker death",
            FaultKind::BreakerOpen => "circuit breaker open",
        };
        f.write_str(s)
    }
}

/// One entry of the pipeline's fault log. Same seed ⇒ byte-identical
/// log (the chaos property tests assert this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A host inference attempt failed.
    HostFault {
        /// Image index.
        image: usize,
        /// Zero-based attempt number.
        attempt: u32,
        /// What went wrong.
        kind: FaultKind,
    },
    /// A flagged image succeeded after at least one retry.
    Recovered {
        /// Image index.
        image: usize,
        /// Retries it took.
        retries: u32,
    },
    /// An image that reached the host kept the prediction of the stage
    /// before it.
    Fallback {
        /// Image index.
        image: usize,
        /// The fault that exhausted the policy.
        kind: FaultKind,
    },
    /// The breaker tripped open: subsequent images that reach the host
    /// fall back without an attempt.
    BreakerOpened {
        /// Image index at which it tripped.
        image: usize,
        /// Consecutive failures observed.
        consecutive_failures: u32,
    },
    /// A recovery probe succeeded and closed the breaker.
    BreakerClosed {
        /// Image index of the successful probe.
        image: usize,
    },
    /// The host stage died (under the threaded executor, its worker
    /// thread); every image it did not deliver falls back.
    WorkerDied {
        /// Panic payload or failure description.
        detail: String,
    },
}

/// Degradation accounting for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Images that reached the host and fell back to the prediction of
    /// the stage before it.
    pub degraded_count: usize,
    /// Host inference retries performed.
    pub retries: usize,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Host inference attempts (first tries, retries and probes).
    pub host_attempts: usize,
    /// Producer-side sends that found the bounded channel full. Timing
    /// dependent, hence excluded from determinism comparisons.
    pub backpressure_events: usize,
    /// Virtual seconds spent in retry backoff.
    pub virtual_backoff_s: f64,
    /// The ordered fault log.
    pub fault_log: Vec<FaultEvent>,
}

/// Turns a [`FaultPlan`] into deterministic per-image decisions.
///
/// Decisions are pure functions of `(seed, image, attempt)`, so they do
/// not depend on thread interleaving, wall-clock time, or how many
/// images were processed before — the property the chaos determinism
/// tests rely on.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the plan is invalid.
    pub fn new(plan: FaultPlan) -> Result<Self, CoreError> {
        plan.validate()?;
        Ok(Self { plan })
    }

    /// The fault (if any) that attempt `attempt` of re-running image
    /// `image` on the host suffers under a per-image deadline of
    /// `deadline_s`. Transient errors take precedence over spikes; a
    /// spike is a [`FaultKind::HostTimeout`] only when its latency
    /// exceeds the deadline, and completes normally otherwise. Retries
    /// re-roll both, so an image can recover.
    pub fn host_fault(&self, image: usize, attempt: u32, deadline_s: f64) -> Option<FaultKind> {
        let draw = |salt| unit_hash(self.plan.seed, image as u64, u64::from(attempt), salt);
        if self.plan.host_error_rate > 0.0 && draw(0) < self.plan.host_error_rate {
            Some(FaultKind::HostTransient)
        } else if self.plan.host_spike_rate > 0.0
            && draw(1) < self.plan.host_spike_rate
            && self.plan.host_spike_latency_s > deadline_s
        {
            Some(FaultKind::HostTimeout)
        } else {
            None
        }
    }

    /// After how many processed images the host stage dies.
    pub fn host_death_after(&self) -> Option<usize> {
        self.plan.host_death_after
    }
}

/// The degradation policy's circuit-breaker state machine.
///
/// Closed → (N consecutive failures) → Open → (every `probe_every`
/// flagged images, one half-open probe) → Closed on probe success.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    probe_every: u32,
    consecutive_failures: u32,
    open: bool,
    skipped_since_probe: u32,
    trips: usize,
}

impl CircuitBreaker {
    /// Creates a breaker following `policy`.
    pub fn new(policy: &DegradationPolicy) -> Self {
        Self {
            threshold: policy.breaker_threshold.max(1),
            probe_every: policy.breaker_probe_every.max(1),
            consecutive_failures: 0,
            open: false,
            skipped_since_probe: 0,
            trips: 0,
        }
    }

    /// Whether the breaker is open (fallback-only mode).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Consecutive failures observed since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Decides whether the next flagged image should attempt the host.
    /// Closed: always. Open: only every `probe_every`-th image (a
    /// half-open recovery probe).
    pub fn should_attempt(&mut self) -> bool {
        if !self.open {
            return true;
        }
        self.skipped_since_probe += 1;
        if self.skipped_since_probe >= self.probe_every {
            self.skipped_since_probe = 0;
            true
        } else {
            false
        }
    }

    /// Records a successful host inference. Returns `true` if this
    /// closed an open breaker (a recovery).
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        let recovered = self.open;
        self.open = false;
        recovered
    }

    /// Records a failed host inference. Returns `true` if this tripped
    /// the breaker open.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if !self.open && self.consecutive_failures >= self.threshold {
            self.open = true;
            self.trips += 1;
            self.skipped_since_probe = 0;
            true
        } else {
            false
        }
    }
}

/// A fleet-level fault: something that happens to a whole pipeline
/// replica rather than to one image. Consumed by `mp-fleet`'s
/// virtual-time cluster simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplicaFault {
    /// The replica crashes. Its queued and in-flight requests must be
    /// re-routed or shed explicitly — never silently dropped.
    Crash,
    /// A crashed replica comes back up with an empty queue and a fresh
    /// (closed) circuit breaker.
    Recover,
    /// Every batch dispatched after this point takes `factor` times its
    /// modelled service time (a slow replica, or a stall for very large
    /// factors).
    Slowdown {
        /// Service-time multiplier, `>= 1` and finite.
        factor: f64,
    },
    /// Clears a previous [`ReplicaFault::Slowdown`].
    Restore,
}

/// One scheduled fleet fault: which replica, when (virtual seconds),
/// and what happens to it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaFaultEvent {
    /// Index of the replica the fault hits.
    pub replica: usize,
    /// Virtual time at which it hits, in seconds.
    pub at_s: f64,
    /// What happens.
    pub fault: ReplicaFault,
}

/// The fleet-level extension of [`FaultPlan`]: a seeded schedule of
/// replica crashes, slowdowns and recoveries for one fleet run. Same
/// seed and builders ⇒ byte-identical schedule ⇒ byte-identical fleet
/// replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultPlan {
    /// Root seed; the generated-schedule builders derive from it.
    pub seed: u64,
    /// The scheduled events, in insertion order. Consumers process them
    /// sorted by time (ties broken by replica index, then insertion
    /// order).
    pub events: Vec<ReplicaFaultEvent>,
}

impl FleetFaultPlan {
    /// The fault-free plan: a fleet run under it matches the unfaulted
    /// baseline exactly.
    pub fn none() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// An empty plan carrying only a seed (events added via the
    /// `with_*` builders).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedules a crash of `replica` at `at_s`.
    #[must_use]
    pub fn with_crash(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(ReplicaFaultEvent {
            replica,
            at_s,
            fault: ReplicaFault::Crash,
        });
        self
    }

    /// Schedules a recovery of `replica` at `at_s`.
    #[must_use]
    pub fn with_recovery(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(ReplicaFaultEvent {
            replica,
            at_s,
            fault: ReplicaFault::Recover,
        });
        self
    }

    /// Schedules a service-time slowdown of `replica` from `at_s` on.
    #[must_use]
    pub fn with_slowdown(mut self, replica: usize, at_s: f64, factor: f64) -> Self {
        self.events.push(ReplicaFaultEvent {
            replica,
            at_s,
            fault: ReplicaFault::Slowdown { factor },
        });
        self
    }

    /// Clears a slowdown of `replica` at `at_s`.
    #[must_use]
    pub fn with_restore(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(ReplicaFaultEvent {
            replica,
            at_s,
            fault: ReplicaFault::Restore,
        });
        self
    }

    /// Adds `kills` seeded crash+recover pairs over `[0, horizon_s)`:
    /// each kill picks a replica and a crash time from the plan's seed
    /// and recovers it `mttr_s` later. Crash times land in the first 80%
    /// of the horizon so the recovery is observable within it.
    #[must_use]
    pub fn with_random_kills(
        mut self,
        replicas: usize,
        horizon_s: f64,
        kills: usize,
        mttr_s: f64,
    ) -> Self {
        for k in 0..kills {
            let at_s = unit_hash(self.seed, k as u64, 0, 20) * horizon_s * 0.8;
            let replica = ((unit_hash(self.seed, k as u64, 1, 21) * replicas as f64) as usize)
                .min(replicas.saturating_sub(1));
            self = self
                .with_crash(replica, at_s)
                .with_recovery(replica, at_s + mttr_s);
        }
        self
    }

    /// Whether the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by `(at_s, replica)`, ties keeping insertion
    /// order — the canonical processing order for a deterministic fleet
    /// replay.
    pub fn sorted_events(&self) -> Vec<ReplicaFaultEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                .expect("validated finite times")
                .then(a.replica.cmp(&b.replica))
        });
        events
    }

    /// Validates times and slowdown factors (`replica` bounds are the
    /// consumer's job — the plan does not know the fleet size).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a non-finite or negative
    /// event time, or a slowdown factor below `1` or non-finite.
    pub fn validate(&self) -> Result<(), CoreError> {
        for ev in &self.events {
            if !ev.at_s.is_finite() || ev.at_s < 0.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "replica fault time {} invalid",
                    ev.at_s
                )));
            }
            if let ReplicaFault::Slowdown { factor } = ev.fault {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(CoreError::InvalidConfig(format!(
                        "slowdown factor {factor} must be finite and >= 1"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for FleetFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Panic message used for injected host-worker death; the pipeline
/// recognises real panics by the same join-path, this constant only
/// lets test harnesses silence the expected noise.
pub const INJECTED_DEATH_MSG: &str = "injected host worker death";

/// Installs (once) a panic hook that suppresses the backtrace noise of
/// *injected* worker deaths while forwarding every other panic to the
/// previous hook. Chaos tests and the `chaos_ablation` binary call this
/// so expected kills don't flood stderr.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.contains(INJECTED_DEATH_MSG)) {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default policy's per-image host deadline.
    const DEADLINE_S: f64 = 0.25;

    #[test]
    fn none_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::none()).unwrap();
        for image in 0..200 {
            assert_eq!(inj.host_fault(image, 0, DEADLINE_S), None);
        }
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::seeded(1).with_host_error_rate(0.1).is_none());
    }

    #[test]
    fn injection_is_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::seeded(42).with_host_error_rate(0.3)).unwrap();
        let b = FaultInjector::new(FaultPlan::seeded(42).with_host_error_rate(0.3)).unwrap();
        let c = FaultInjector::new(FaultPlan::seeded(43).with_host_error_rate(0.3)).unwrap();
        let faults = |inj: &FaultInjector| -> Vec<bool> {
            (0..500)
                .map(|i| inj.host_fault(i, 0, DEADLINE_S).is_some())
                .collect()
        };
        assert_eq!(faults(&a), faults(&b));
        assert_ne!(faults(&a), faults(&c));
    }

    #[test]
    fn error_rate_is_roughly_honoured() {
        let inj = FaultInjector::new(FaultPlan::seeded(7).with_host_error_rate(0.25)).unwrap();
        let hits = (0..4000)
            .filter(|&i| inj.host_fault(i, 0, DEADLINE_S).is_some())
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn retries_reroll_faults() {
        let inj = FaultInjector::new(FaultPlan::seeded(9).with_host_error_rate(0.5)).unwrap();
        // Some image that faults on attempt 0 must pass on a later
        // attempt (each attempt is an independent draw).
        let recovered = (0..200).any(|i| {
            inj.host_fault(i, 0, DEADLINE_S).is_some()
                && (1..4).any(|a| inj.host_fault(i, a, DEADLINE_S).is_none())
        });
        assert!(recovered);
    }

    #[test]
    fn spikes_time_out_only_past_the_deadline() {
        let inj = FaultInjector::new(FaultPlan::seeded(5).with_host_spikes(1.0, 2.5)).unwrap();
        assert_eq!(inj.host_fault(0, 0, 2.0), Some(FaultKind::HostTimeout));
        // A spike at or under the deadline completes normally.
        assert_eq!(inj.host_fault(0, 0, 2.5), None);
        assert_eq!(inj.host_fault(0, 0, 3.0), None);
        // Transient errors take precedence over a spike past the deadline.
        let both = FaultPlan::seeded(5)
            .with_host_error_rate(1.0)
            .with_host_spikes(1.0, 2.5);
        let inj = FaultInjector::new(both).unwrap();
        assert_eq!(inj.host_fault(0, 0, 2.0), Some(FaultKind::HostTransient));
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(FaultPlan::seeded(0)
            .with_host_error_rate(1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_host_spikes(-0.1, 1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0)
            .with_host_spikes(0.1, -1.0)
            .validate()
            .is_err());
        assert!(FaultInjector::new(FaultPlan::seeded(0).with_host_error_rate(2.0)).is_err());
    }

    #[test]
    fn invalid_policies_rejected() {
        let ok = DegradationPolicy::default();
        assert!(ok.validate().is_ok());
        assert!(DegradationPolicy {
            breaker_threshold: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(DegradationPolicy {
            breaker_probe_every: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(DegradationPolicy {
            host_deadline_s: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(DegradationPolicy {
            backoff_base_s: -1.0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn breaker_trips_and_recovers() {
        let policy = DegradationPolicy {
            breaker_threshold: 3,
            breaker_probe_every: 2,
            ..DegradationPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        assert!(b.should_attempt());
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        // Third consecutive failure trips it.
        assert!(b.record_failure());
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        // Open: skip one, probe on the second.
        assert!(!b.should_attempt());
        assert!(b.should_attempt());
        // Probe succeeds → closed again.
        assert!(b.record_success());
        assert!(!b.is_open());
        assert!(b.should_attempt());
    }

    #[test]
    fn open_breaker_failure_does_not_double_trip() {
        let policy = DegradationPolicy {
            breaker_threshold: 1,
            ..DegradationPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        assert!(b.record_failure());
        assert!(!b.record_failure());
        assert_eq!(b.trips(), 1);
    }

    // Satellite audit (PR 6): the half-open/reset semantics below were
    // reviewed line by line and found sound; these tests pin them so a
    // future edit cannot regress the recovery path silently.

    /// The breaker must not stay open forever once faults stop: after a
    /// trip, a probe is admitted within `probe_every` flagged images and
    /// a successful probe closes it again.
    #[test]
    fn breaker_closes_after_faults_stop() {
        let policy = DegradationPolicy {
            breaker_threshold: 2,
            breaker_probe_every: 4,
            ..DegradationPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.record_failure();
        assert!(b.record_failure(), "second consecutive failure trips");
        assert!(b.is_open());
        // Faults stop here. The breaker must offer a probe within
        // `probe_every` images, never later.
        let skipped = (0..8).take_while(|_| !b.should_attempt()).count();
        assert_eq!(skipped, 3, "probe admitted on the probe_every-th image");
        assert!(b.record_success(), "successful probe closes the breaker");
        assert!(!b.is_open());
        assert!(b.should_attempt(), "closed breaker admits everything");
        assert_eq!(b.consecutive_failures(), 0, "success resets the streak");
    }

    /// A failed half-open probe re-opens the breaker without counting a
    /// new trip, and the *next* probe window starts from the failed
    /// probe (no immediate retry storm).
    #[test]
    fn failed_probe_reopens_without_double_counting_trips() {
        let policy = DegradationPolicy {
            breaker_threshold: 1,
            breaker_probe_every: 3,
            ..DegradationPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        assert!(b.record_failure());
        assert_eq!(b.trips(), 1);
        // First probe arrives after probe_every - 1 skips…
        assert!(!b.should_attempt());
        assert!(!b.should_attempt());
        assert!(b.should_attempt());
        // …and fails: still open, still one trip.
        assert!(!b.record_failure(), "failed probe is not a fresh trip");
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        // The probe interval restarts — no immediate second probe.
        assert!(!b.should_attempt());
        assert!(!b.should_attempt());
        assert!(b.should_attempt());
        assert!(b.record_success());
        assert!(!b.is_open());
        // A fresh failure streak after recovery counts a *second* trip.
        assert!(b.record_failure());
        assert_eq!(b.trips(), 2);
    }

    /// Trip counts are a pure function of the (seeded) fault sequence:
    /// replaying the identical sequence yields identical trips and
    /// identical open/closed trajectories.
    #[test]
    fn breaker_trip_counts_are_seed_deterministic() {
        let inj = FaultInjector::new(FaultPlan::seeded(31).with_host_error_rate(0.45)).unwrap();
        let run = || {
            let mut b = CircuitBreaker::new(&DegradationPolicy::default());
            let mut trajectory = Vec::new();
            for image in 0..400 {
                if !b.should_attempt() {
                    trajectory.push((image, b.is_open()));
                    continue;
                }
                if inj.host_fault(image, 0, DEADLINE_S).is_some() {
                    b.record_failure();
                } else {
                    b.record_success();
                }
                trajectory.push((image, b.is_open()));
            }
            (b.trips(), trajectory)
        };
        let (trips_a, traj_a) = run();
        let (trips_b, traj_b) = run();
        assert_eq!(trips_a, trips_b);
        assert_eq!(traj_a, traj_b);
        assert!(trips_a > 0, "a 45% error rate must trip the breaker");
    }

    #[test]
    fn fleet_plan_builders_schedule_and_sort() {
        let plan = FleetFaultPlan::seeded(5)
            .with_recovery(1, 3.0)
            .with_crash(1, 1.0)
            .with_slowdown(0, 2.0, 8.0)
            .with_restore(0, 2.5);
        assert!(!plan.is_none());
        plan.validate().unwrap();
        let sorted = plan.sorted_events();
        let times: Vec<f64> = sorted.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 2.5, 3.0]);
        assert_eq!(sorted[0].fault, ReplicaFault::Crash);
        assert!(FleetFaultPlan::none().is_none());
    }

    #[test]
    fn fleet_plan_random_kills_are_seeded_and_paired() {
        let a = FleetFaultPlan::seeded(9).with_random_kills(4, 100.0, 3, 5.0);
        let b = FleetFaultPlan::seeded(9).with_random_kills(4, 100.0, 3, 5.0);
        let c = FleetFaultPlan::seeded(10).with_random_kills(4, 100.0, 3, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events.len(), 6, "each kill is a crash + recovery");
        a.validate().unwrap();
        for pair in a.events.chunks(2) {
            assert_eq!(pair[0].fault, ReplicaFault::Crash);
            assert_eq!(pair[1].fault, ReplicaFault::Recover);
            assert_eq!(pair[0].replica, pair[1].replica);
            assert!(pair[1].at_s > pair[0].at_s);
            assert!(pair[0].at_s < 80.0, "crashes land in the first 80%");
        }
    }

    #[test]
    fn fleet_plan_rejects_bad_events() {
        assert!(FleetFaultPlan::seeded(0)
            .with_crash(0, -1.0)
            .validate()
            .is_err());
        assert!(FleetFaultPlan::seeded(0)
            .with_crash(0, f64::NAN)
            .validate()
            .is_err());
        assert!(FleetFaultPlan::seeded(0)
            .with_slowdown(0, 1.0, 0.5)
            .validate()
            .is_err());
        assert!(FleetFaultPlan::seeded(0)
            .with_slowdown(0, 1.0, f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn fleet_plan_serialises() {
        let plan = FleetFaultPlan::seeded(3)
            .with_crash(2, 1.5)
            .with_slowdown(0, 0.5, 4.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn fault_log_serialises() {
        let log = vec![
            FaultEvent::HostFault {
                image: 3,
                attempt: 0,
                kind: FaultKind::HostTransient,
            },
            FaultEvent::Fallback {
                image: 3,
                kind: FaultKind::HostTransient,
            },
            FaultEvent::WorkerDied {
                detail: INJECTED_DEATH_MSG.into(),
            },
        ];
        let json = serde_json::to_string(&log).unwrap();
        let back: Vec<FaultEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }
}

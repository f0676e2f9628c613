//! The virtual-time fleet simulator: N replicas behind a router,
//! discrete-event execution of arrivals, dispatches, completions,
//! replica faults and hedge timers.
//!
//! # Functional model
//!
//! Every replica runs the *same functional* multi-precision pipeline,
//! so predictions are bit-identical across the fleet and to a
//! single-replica run; replicas differ only in how long a batch takes.
//! The functional results come from one real `execute` over the image
//! store (a [`PredictionCache`]); a dispatched batch is then priced
//! with the paper's `async`/`wait` overlap model
//! ([`mp_core::modeled_batch_time`]) under the replica's own
//! [`PipelineTiming`](mp_core::PipelineTiming) — a host-only replica is
//! simply one whose BNN stage runs at host speed.
//!
//! # Event ordering
//!
//! Events are processed in `(time, kind, replica)` order with a fixed
//! kind priority — completions, then scheduled faults, then hedge
//! timers, then dispatches — so a run is a pure function of `(trace,
//! specs, config, fault plan)` and replays byte-identically.
//!
//! # Exactly-once guarantee
//!
//! Every offered request ends in exactly one of two ledgers: a winning
//! completion or an explicit shed. Copies (hedges, crash re-routes) are
//! deduplicated deterministically — the first completed copy wins, the
//! losers are discarded and counted, and a crash hands every orphaned
//! copy back to the router (re-enqueue or shed, never a silent drop).

use std::collections::{HashMap, VecDeque};

use mp_core::fault::{FleetFaultPlan, ReplicaFault, ReplicaFaultEvent};
use mp_core::{modeled_batch_time, PipelineResult};
use mp_obs::{schema, Recorder};
use mp_serve::{validate_trace, Batcher, Enqueue, Request};

use crate::replica::{FleetBreaker, ReplicaSpec};
use crate::report::{FleetCompletion, FleetReport, FleetTimelineEvent, ReplicaStats, TimelineKind};
use crate::router::{Candidate, Router, RoutingPolicy};
use crate::FleetError;

/// Functional results of the pipeline over the image store, computed
/// once by a real run and looked up per request: the prediction each
/// image gets, and whether the DMU flags it for host re-inference
/// (which drives the batch service-time model).
#[derive(Debug, Clone)]
pub struct PredictionCache {
    predictions: Vec<usize>,
    flagged: Vec<bool>,
}

impl PredictionCache {
    /// Creates a cache from parallel per-image vectors.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] when the vectors are empty or of
    /// different lengths.
    pub fn new(predictions: Vec<usize>, flagged: Vec<bool>) -> Result<Self, FleetError> {
        if predictions.is_empty() {
            return Err(FleetError::Config("prediction cache is empty".into()));
        }
        if predictions.len() != flagged.len() {
            return Err(FleetError::Config(format!(
                "predictions ({}) and flagged ({}) lengths differ",
                predictions.len(),
                flagged.len()
            )));
        }
        Ok(Self {
            predictions,
            flagged,
        })
    }

    /// Builds the cache from a finished pipeline run — the canonical
    /// path: run `MultiPrecisionPipeline::execute` once over the store,
    /// then serve millions of requests against its results.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] when the result carries no images.
    pub fn from_result(result: &PipelineResult) -> Result<Self, FleetError> {
        Self::new(result.predictions.clone(), result.flagged.clone())
    }

    /// Number of images in the store.
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// Whether the cache is empty (never true for a constructed cache).
    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }

    /// The pipeline's prediction for `image`.
    pub fn prediction(&self, image: usize) -> usize {
        self.predictions[image]
    }

    /// Whether the DMU flags `image` for host re-inference.
    pub fn is_flagged(&self, image: usize) -> bool {
        self.flagged[image]
    }
}

/// Fleet-wide configuration: routing policy, breaker knobs, the
/// latency deadline, and optional hedging.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How the router picks replicas.
    pub policy: RoutingPolicy,
    /// Per-replica circuit-breaker knobs.
    pub breaker: crate::replica::BreakerConfig,
    /// Per-request latency deadline in virtual seconds (p99-derived in
    /// the load generator): a completed batch containing a request over
    /// deadline counts as a breaker failure on its replica.
    pub deadline_s: f64,
    /// Hedge a request still unserved this long after arrival: issue
    /// one duplicate copy on a different replica and let the first
    /// completion win. `None` disables hedging.
    pub hedge_after_s: Option<f64>,
}

impl FleetConfig {
    /// A config under `policy` with default breaker, a 1 s deadline and
    /// hedging off.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self {
            policy,
            breaker: crate::replica::BreakerConfig::default(),
            deadline_s: 1.0,
            hedge_after_s: None,
        }
    }

    /// Sets the breaker knobs.
    #[must_use]
    pub fn with_breaker(mut self, breaker: crate::replica::BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the per-request latency deadline.
    #[must_use]
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// Enables hedging after `hedge_after_s` virtual seconds.
    #[must_use]
    pub fn with_hedge_after_s(mut self, hedge_after_s: f64) -> Self {
        self.hedge_after_s = Some(hedge_after_s);
        self
    }

    fn validate(&self) -> Result<(), FleetError> {
        if !self.deadline_s.is_finite() || self.deadline_s <= 0.0 {
            return Err(FleetError::Config(format!(
                "deadline_s {} must be finite and positive",
                self.deadline_s
            )));
        }
        if let Some(h) = self.hedge_after_s {
            if !h.is_finite() || h <= 0.0 {
                return Err(FleetError::Config(format!(
                    "hedge_after_s {h} must be finite and positive"
                )));
            }
        }
        Ok(())
    }
}

/// The fleet: replica specs + fleet config + the functional cache.
/// [`run`](Self::run) is pure — the same inputs replay byte-identically.
#[derive(Debug, Clone)]
pub struct FleetSim {
    specs: Vec<ReplicaSpec>,
    config: FleetConfig,
    cache: PredictionCache,
}

impl FleetSim {
    /// Creates a fleet.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] on an empty spec list or invalid
    /// config.
    pub fn new(
        specs: Vec<ReplicaSpec>,
        config: FleetConfig,
        cache: PredictionCache,
    ) -> Result<Self, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::Config(
                "fleet needs at least one replica".into(),
            ));
        }
        config.validate()?;
        Ok(Self {
            specs,
            config,
            cache,
        })
    }

    /// The replica specs.
    pub fn specs(&self) -> &[ReplicaSpec] {
        &self.specs
    }

    /// The fleet config.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the trace through the fleet under `plan`, recording
    /// `fleet.*` metrics on `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] on an invalid fault plan (bad
    /// times/factors or replica index out of bounds) and
    /// [`FleetError::Trace`] on an invalid trace (unsorted or
    /// non-finite arrivals, duplicate ids, image out of range).
    pub fn run(
        &self,
        trace: &[Request],
        plan: &FleetFaultPlan,
        rec: &dyn Recorder,
    ) -> Result<FleetReport, FleetError> {
        plan.validate()
            .map_err(|e| FleetError::Config(e.to_string()))?;
        for ev in &plan.events {
            if ev.replica >= self.specs.len() {
                return Err(FleetError::Config(format!(
                    "fault plan names replica {} but the fleet has {}",
                    ev.replica,
                    self.specs.len()
                )));
            }
        }
        validate_trace(trace, self.cache.len()).map_err(|e| FleetError::Trace(e.to_string()))?;
        let mut engine = Engine::new(self, plan.sorted_events(), rec, trace.len());
        for r in trace {
            engine.advance(r.arrival_s);
            engine.admit(r);
        }
        engine.advance(f64::INFINITY);
        Ok(engine.into_report())
    }
}

/// A batch in flight on one replica.
#[derive(Debug)]
struct InFlight {
    members: Vec<Request>,
    dispatch_s: f64,
    completion_s: f64,
}

/// Runtime state of one replica.
struct ReplicaRt {
    batcher: Batcher,
    breaker: FleetBreaker,
    up: bool,
    slow_factor: f64,
    in_flight: Option<InFlight>,
    stats: ReplicaStats,
}

/// Replica indices holding live copies of one request (at most two:
/// the original and one hedge).
#[derive(Debug, Clone, Copy)]
struct Copies {
    slots: [usize; 2],
}

const NO_REPLICA: usize = usize::MAX;

impl Copies {
    fn none() -> Self {
        Self {
            slots: [NO_REPLICA; 2],
        }
    }

    fn add(&mut self, replica: usize) {
        for s in &mut self.slots {
            if *s == NO_REPLICA {
                *s = replica;
                return;
            }
        }
        unreachable!("a request never has more than two live copies");
    }

    fn remove(&mut self, replica: usize) {
        for s in &mut self.slots {
            if *s == replica {
                *s = NO_REPLICA;
                return;
            }
        }
    }

    fn count(&self) -> usize {
        self.slots.iter().filter(|&&s| s != NO_REPLICA).count()
    }

    fn contains(&self, replica: usize) -> bool {
        self.slots.contains(&replica)
    }
}

/// Per-request ledger entry.
struct Track {
    id: u64,
    image: usize,
    arrival_s: f64,
    copies: Copies,
    hedged: bool,
    hedge_replica: usize,
    done: bool,
    shed: bool,
}

/// Event kinds in processing-priority order at equal times.
const KIND_COMPLETION: u8 = 0;
const KIND_FAULT: u8 = 1;
const KIND_HEDGE: u8 = 2;
const KIND_DISPATCH: u8 = 3;

struct Engine<'a> {
    specs: &'a [ReplicaSpec],
    cfg: &'a FleetConfig,
    cache: &'a PredictionCache,
    rec: &'a dyn Recorder,
    reps: Vec<ReplicaRt>,
    router: Router,
    tracks: Vec<Track>,
    index_of: HashMap<u64, usize>,
    fault_events: Vec<ReplicaFaultEvent>,
    next_fault: usize,
    hedge_fifo: VecDeque<usize>,
    replica_ctrs: Vec<(String, String)>,
    completions: Vec<FleetCompletion>,
    shed: Vec<u64>,
    timeline: Vec<FleetTimelineEvent>,
    requests: usize,
    redirected: usize,
    hedges: usize,
    hedge_wins: usize,
    duplicates_discarded: usize,
    now_s: f64,
}

impl<'a> Engine<'a> {
    fn new(
        sim: &'a FleetSim,
        fault_events: Vec<ReplicaFaultEvent>,
        rec: &'a dyn Recorder,
        trace_len: usize,
    ) -> Self {
        let reps = sim
            .specs
            .iter()
            .map(|spec| ReplicaRt {
                batcher: Batcher::new(spec.batcher()),
                breaker: FleetBreaker::new(sim.config.breaker),
                up: true,
                slow_factor: 1.0,
                in_flight: None,
                stats: ReplicaStats {
                    name: spec.name().to_string(),
                    ..ReplicaStats::default()
                },
            })
            .collect();
        let replica_ctrs = (0..sim.specs.len())
            .map(|i| {
                let prefix = schema::CTR_FLEET_REPLICA_PREFIX;
                (
                    format!("{prefix}{i}.served"),
                    format!("{prefix}{i}.redirected"),
                )
            })
            .collect();
        Self {
            specs: &sim.specs,
            cfg: &sim.config,
            cache: &sim.cache,
            rec,
            reps,
            router: Router::new(sim.config.policy, sim.specs.len()),
            tracks: Vec::with_capacity(trace_len),
            index_of: HashMap::with_capacity(trace_len),
            fault_events,
            next_fault: 0,
            hedge_fifo: VecDeque::new(),
            replica_ctrs,
            completions: Vec::new(),
            shed: Vec::new(),
            timeline: Vec::new(),
            requests: 0,
            redirected: 0,
            hedges: 0,
            hedge_wins: 0,
            duplicates_discarded: 0,
            now_s: 0.0,
        }
    }

    fn ix(&self, id: u64) -> usize {
        *self.index_of.get(&id).expect("tracked request id")
    }

    /// Healthy routable candidates at `now`, excluding replicas already
    /// holding a copy of the request (`exclude`).
    fn candidates(&self, exclude: &Copies) -> Vec<Candidate> {
        self.reps
            .iter()
            .enumerate()
            .filter(|(i, rep)| {
                rep.up
                    && !exclude.contains(*i)
                    && rep.breaker.would_admit(self.now_s)
                    && rep.batcher.has_room()
            })
            .map(|(i, rep)| Candidate {
                index: i,
                kind: self.specs[i].kind(),
                outstanding: rep.batcher.len()
                    + rep.in_flight.as_ref().map_or(0, |f| f.members.len()),
            })
            .collect()
    }

    /// Routes a copy of the tracked request onto a healthy replica and
    /// enqueues it there. Returns the chosen replica.
    fn place_copy(&mut self, track_idx: usize, enqueue_s: f64) -> Option<usize> {
        let exclude = self.tracks[track_idx].copies;
        let cands = self.candidates(&exclude);
        let chosen = self.router.route(&cands)?;
        let tr = &mut self.tracks[track_idx];
        let request = Request::new(tr.id, tr.image, enqueue_s);
        tr.copies.add(chosen);
        let rep = &mut self.reps[chosen];
        rep.breaker.on_admitted(enqueue_s);
        let outcome = rep.batcher.offer(request);
        debug_assert_eq!(outcome, Enqueue::Accepted, "candidate had room");
        Some(chosen)
    }

    fn admit(&mut self, r: &Request) {
        self.now_s = self.now_s.max(r.arrival_s);
        self.requests += 1;
        if self.rec.enabled() {
            self.rec.add(schema::CTR_FLEET_REQUESTS, 1);
        }
        let track_idx = self.tracks.len();
        self.tracks.push(Track {
            id: r.id,
            image: r.image,
            arrival_s: r.arrival_s,
            copies: Copies::none(),
            hedged: false,
            hedge_replica: NO_REPLICA,
            done: false,
            shed: false,
        });
        self.index_of.insert(r.id, track_idx);
        if self.place_copy(track_idx, r.arrival_s).is_some() {
            if self.cfg.hedge_after_s.is_some() {
                self.hedge_fifo.push_back(track_idx);
            }
        } else {
            self.tracks[track_idx].shed = true;
            self.shed.push(r.id);
            if self.rec.enabled() {
                self.rec.add(schema::CTR_FLEET_SHED, 1);
            }
        }
    }

    /// Time at which replica `i` would dispatch its next batch, if it
    /// can: its batcher's rule, for a replica that is up and idle,
    /// never before the event clock.
    fn dispatch_due(&self, i: usize) -> Option<f64> {
        let rep = &self.reps[i];
        if !rep.up || rep.in_flight.is_some() {
            return None;
        }
        rep.batcher.next_dispatch_s().map(|t| t.max(self.now_s))
    }

    /// Earliest hedge deadline among live, unhedged requests (the FIFO
    /// is deadline-sorted because deadlines are arrival + a constant).
    fn peek_hedge(&mut self) -> Option<(f64, usize)> {
        let hedge_after = self.cfg.hedge_after_s?;
        while let Some(&idx) = self.hedge_fifo.front() {
            let tr = &self.tracks[idx];
            if tr.done || tr.shed || tr.hedged || tr.copies.count() == 0 {
                self.hedge_fifo.pop_front();
                continue;
            }
            return Some((tr.arrival_s + hedge_after, idx));
        }
        None
    }

    /// Picks and processes the next due event at or before `until`,
    /// repeating until nothing is due.
    fn advance(&mut self, until: f64) {
        loop {
            let mut best: Option<(f64, u8, usize)> = None;
            let consider = |cand: (f64, u8, usize), best: &mut Option<(f64, u8, usize)>| {
                if best.is_none_or(|b| (cand.0, cand.1, cand.2) < b) {
                    *best = Some(cand);
                }
            };
            for (i, rep) in self.reps.iter().enumerate() {
                if let Some(inf) = &rep.in_flight {
                    consider((inf.completion_s, KIND_COMPLETION, i), &mut best);
                }
            }
            if let Some(ev) = self.fault_events.get(self.next_fault) {
                consider((ev.at_s, KIND_FAULT, ev.replica), &mut best);
            }
            if let Some((deadline, idx)) = self.peek_hedge() {
                consider((deadline, KIND_HEDGE, idx), &mut best);
            }
            for i in 0..self.reps.len() {
                if let Some(t) = self.dispatch_due(i) {
                    consider((t, KIND_DISPATCH, i), &mut best);
                }
            }
            let Some((t, kind, idx)) = best else { return };
            if t > until {
                return;
            }
            self.now_s = self.now_s.max(t);
            match kind {
                KIND_COMPLETION => self.complete(idx),
                KIND_FAULT => self.apply_fault(),
                KIND_HEDGE => self.hedge(idx),
                KIND_DISPATCH => self.dispatch(idx),
                _ => unreachable!(),
            }
        }
    }

    fn dispatch(&mut self, i: usize) {
        let t = self.dispatch_due(i).expect("dispatch event was due");
        let spec = &self.specs[i];
        let raw = self.reps[i].batcher.take_batch();
        let mut members = Vec::with_capacity(raw.len());
        for m in raw {
            let idx = self.ix(m.id);
            let tr = &mut self.tracks[idx];
            if tr.done {
                // A copy of an already-served request (its hedge or
                // redirect twin won elsewhere): discard deterministically.
                tr.copies.remove(i);
                self.duplicates_discarded += 1;
                continue;
            }
            members.push(m);
        }
        if members.is_empty() {
            return;
        }
        let kept: Vec<bool> = members
            .iter()
            .map(|m| !self.cache.is_flagged(m.image))
            .collect();
        let service_s = modeled_batch_time(&kept, spec.timing()) * self.reps[i].slow_factor;
        let completion_s = t + service_s;
        let rep = &mut self.reps[i];
        rep.batcher.busy_until(completion_s);
        rep.in_flight = Some(InFlight {
            members,
            dispatch_s: t,
            completion_s,
        });
    }

    fn complete(&mut self, i: usize) {
        let inf = self.reps[i].in_flight.take().expect("completion was due");
        let enabled = self.rec.enabled();
        {
            let stats = &mut self.reps[i].stats;
            stats.batches += 1;
            stats.busy_s += inf.completion_s - inf.dispatch_s;
        }
        if enabled {
            self.rec.record_span(
                schema::SPAN_FLEET_BATCH,
                virt_ns(inf.dispatch_s),
                virt_ns(inf.completion_s),
            );
            self.rec
                .observe(schema::HIST_FLEET_BATCH_SIZE, inf.members.len() as f64);
        }
        let mut any_late = false;
        for m in &inf.members {
            let idx = self.ix(m.id);
            let tr = &mut self.tracks[idx];
            tr.copies.remove(i);
            if tr.done {
                self.duplicates_discarded += 1;
                continue;
            }
            tr.done = true;
            let latency_s = inf.completion_s - tr.arrival_s;
            if latency_s > self.cfg.deadline_s {
                any_late = true;
            }
            let hedge_won = tr.hedge_replica == i;
            if hedge_won {
                self.hedge_wins += 1;
            }
            self.completions.push(FleetCompletion {
                id: tr.id,
                image: tr.image,
                prediction: self.cache.prediction(tr.image),
                arrival_s: tr.arrival_s,
                dispatch_s: inf.dispatch_s,
                completion_s: inf.completion_s,
                replica: i,
                hedge_won,
            });
            self.reps[i].stats.served += 1;
            if enabled {
                self.rec.add(schema::CTR_FLEET_SERVED, 1);
                self.rec.add(&self.replica_ctrs[i].0, 1);
                if hedge_won {
                    self.rec.add(schema::CTR_FLEET_HEDGE_WINS, 1);
                }
                self.rec.observe(schema::HIST_FLEET_LATENCY_S, latency_s);
                self.rec.observe(
                    schema::HIST_FLEET_QUEUE_WAIT_S,
                    inf.dispatch_s - m.arrival_s,
                );
            }
        }
        let rep = &mut self.reps[i];
        if any_late {
            if rep.breaker.record_failure(inf.completion_s) {
                rep.stats.breaker_opens += 1;
                self.timeline.push(FleetTimelineEvent {
                    at_s: inf.completion_s,
                    replica: i,
                    kind: TimelineKind::BreakerOpened,
                });
                if enabled {
                    self.rec.add(schema::CTR_FLEET_BREAKER_OPENS, 1);
                }
            }
        } else if rep.breaker.record_success() {
            rep.stats.breaker_closes += 1;
            self.timeline.push(FleetTimelineEvent {
                at_s: inf.completion_s,
                replica: i,
                kind: TimelineKind::BreakerClosed,
            });
            if enabled {
                self.rec.add(schema::CTR_FLEET_BREAKER_CLOSES, 1);
            }
        }
    }

    fn apply_fault(&mut self) {
        let ev = self.fault_events[self.next_fault];
        self.next_fault += 1;
        let enabled = self.rec.enabled();
        match ev.fault {
            ReplicaFault::Crash => {
                if !self.reps[ev.replica].up {
                    return;
                }
                let rep = &mut self.reps[ev.replica];
                rep.up = false;
                rep.stats.crashes += 1;
                self.timeline.push(FleetTimelineEvent {
                    at_s: ev.at_s,
                    replica: ev.replica,
                    kind: TimelineKind::Crash,
                });
                if enabled {
                    self.rec.add(schema::CTR_FLEET_CRASHES, 1);
                }
                // Orphans: the aborted in-flight batch plus the whole
                // backlog. Each must be re-admitted elsewhere or shed
                // explicitly — never silently dropped.
                let mut orphans: Vec<Request> = Vec::new();
                if let Some(inf) = rep.in_flight.take() {
                    orphans.extend(inf.members);
                }
                orphans.extend(rep.batcher.drain());
                for m in orphans {
                    let idx = self.ix(m.id);
                    let tr = &mut self.tracks[idx];
                    tr.copies.remove(ev.replica);
                    if tr.done {
                        self.duplicates_discarded += 1;
                        continue;
                    }
                    if tr.copies.count() > 0 {
                        // Another live copy (a hedge) survives; the
                        // request is still in play.
                        continue;
                    }
                    if self.place_copy(idx, ev.at_s).is_some() {
                        self.redirected += 1;
                        self.reps[ev.replica].stats.redirected_out += 1;
                        if enabled {
                            self.rec.add(schema::CTR_FLEET_REDIRECTED, 1);
                            self.rec.add(&self.replica_ctrs[ev.replica].1, 1);
                        }
                    } else {
                        let tr = &mut self.tracks[idx];
                        tr.shed = true;
                        self.shed.push(tr.id);
                        if enabled {
                            self.rec.add(schema::CTR_FLEET_SHED, 1);
                        }
                    }
                }
            }
            ReplicaFault::Recover => {
                let rep = &mut self.reps[ev.replica];
                if rep.up {
                    return;
                }
                rep.up = true;
                rep.batcher.busy_until(ev.at_s);
                rep.slow_factor = 1.0;
                rep.breaker.reset();
                rep.stats.recoveries += 1;
                self.timeline.push(FleetTimelineEvent {
                    at_s: ev.at_s,
                    replica: ev.replica,
                    kind: TimelineKind::Recover,
                });
                if enabled {
                    self.rec.add(schema::CTR_FLEET_RECOVERIES, 1);
                }
            }
            ReplicaFault::Slowdown { factor } => {
                self.reps[ev.replica].slow_factor = factor;
                self.timeline.push(FleetTimelineEvent {
                    at_s: ev.at_s,
                    replica: ev.replica,
                    kind: TimelineKind::Slowdown,
                });
            }
            ReplicaFault::Restore => {
                self.reps[ev.replica].slow_factor = 1.0;
                self.timeline.push(FleetTimelineEvent {
                    at_s: ev.at_s,
                    replica: ev.replica,
                    kind: TimelineKind::Restore,
                });
            }
        }
    }

    fn hedge(&mut self, track_idx: usize) {
        self.hedge_fifo.pop_front();
        // One hedge per request, whether or not a target exists — the
        // original copy stays live either way.
        self.tracks[track_idx].hedged = true;
        if let Some(chosen) = self.place_copy(track_idx, self.now_s) {
            self.tracks[track_idx].hedge_replica = chosen;
            self.hedges += 1;
            if self.rec.enabled() {
                self.rec.add(schema::CTR_FLEET_HEDGES, 1);
            }
        }
    }

    fn into_report(self) -> FleetReport {
        debug_assert!(
            self.reps.iter().all(|r| r.in_flight.is_none()),
            "advance(∞) drains every batch"
        );
        let horizon_s = self
            .completions
            .iter()
            .map(|c| c.completion_s)
            .fold(0.0, f64::max);
        FleetReport {
            completions: self.completions,
            shed: self.shed,
            replicas: self.reps.into_iter().map(|r| r.stats).collect(),
            timeline: self.timeline,
            requests: self.requests,
            redirected: self.redirected,
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            duplicates_discarded: self.duplicates_discarded,
            horizon_s,
        }
    }
}

/// Virtual seconds → virtual nanoseconds (the serving span convention).
fn virt_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::BreakerConfig;
    use mp_core::PipelineTiming;
    use mp_obs::NULL_RECORDER;

    fn cache(n: usize) -> PredictionCache {
        PredictionCache::new(
            (0..n).map(|i| i % 10).collect(),
            (0..n).map(|i| i % 3 == 0).collect(),
        )
        .unwrap()
    }

    fn fpga_timing() -> PipelineTiming {
        PipelineTiming::new(0.001, 0.01, 4)
    }

    fn two_fpga_fleet(policy: RoutingPolicy) -> FleetSim {
        let specs = vec![
            ReplicaSpec::fpga("fpga0", fpga_timing(), 4, 0.002, 64).unwrap(),
            ReplicaSpec::fpga("fpga1", fpga_timing(), 4, 0.002, 64).unwrap(),
        ];
        FleetSim::new(specs, FleetConfig::new(policy), cache(12)).unwrap()
    }

    fn trace(n: usize, gap_s: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i as u64, i % 12, gap_s * i as f64))
            .collect()
    }

    /// served ∪ shed must partition the offered ids exactly.
    fn assert_partition(report: &FleetReport, offered: &[Request]) {
        let mut ids: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.id)
            .chain(report.shed.iter().copied())
            .collect();
        ids.sort_unstable();
        let mut want: Vec<u64> = offered.iter().map(|r| r.id).collect();
        want.sort_unstable();
        assert_eq!(ids, want, "served ∪ shed must partition the trace");
    }

    #[test]
    fn healthy_fleet_serves_everything_with_cache_predictions() {
        let sim = two_fpga_fleet(RoutingPolicy::JoinShortestQueue);
        let t = trace(24, 0.003);
        let report = sim
            .run(&t, &FleetFaultPlan::none(), &NULL_RECORDER)
            .unwrap();
        assert_partition(&report, &t);
        assert!(
            report.shed.is_empty(),
            "healthy fleet under load sheds nothing"
        );
        assert_eq!(report.requests, 24);
        assert_eq!(report.duplicates_discarded, 0);
        for c in &report.completions {
            assert_eq!(c.prediction, sim.cache.prediction(c.image));
            assert!(c.completion_s > c.arrival_s);
            assert!(c.dispatch_s >= c.arrival_s);
        }
    }

    #[test]
    fn round_robin_spreads_isolated_requests_evenly() {
        let sim = two_fpga_fleet(RoutingPolicy::RoundRobin);
        // Requests far apart: each replica alternates.
        let t = trace(10, 1.0);
        let report = sim
            .run(&t, &FleetFaultPlan::none(), &NULL_RECORDER)
            .unwrap();
        assert_eq!(report.replicas[0].served, 5);
        assert_eq!(report.replicas[1].served, 5);
    }

    #[test]
    fn precision_aware_spills_to_host_only_under_pressure() {
        let specs = vec![
            // A tiny FPGA queue that a burst overflows.
            ReplicaSpec::fpga("fpga0", fpga_timing(), 2, 0.001, 2).unwrap(),
            ReplicaSpec::host_only("host0", 0.01, 4, 0.001, 64).unwrap(),
        ];
        let sim = FleetSim::new(
            specs,
            FleetConfig::new(RoutingPolicy::PrecisionAware),
            cache(12),
        )
        .unwrap();
        // A simultaneous burst: the FPGA tier fills, the rest spills.
        let t: Vec<Request> = (0..8).map(|i| Request::new(i, i as usize, 0.0)).collect();
        let report = sim
            .run(&t, &FleetFaultPlan::none(), &NULL_RECORDER)
            .unwrap();
        assert_partition(&report, &t);
        assert!(report.shed.is_empty());
        assert!(
            report.replicas[1].served >= 4,
            "burst beyond the FPGA queue must spill to the host tier \
             (host served {})",
            report.replicas[1].served
        );
        assert!(report.replicas[0].served >= 1);
    }

    #[test]
    fn crash_redirects_backlog_and_recovery_restores_capacity() {
        let sim = two_fpga_fleet(RoutingPolicy::JoinShortestQueue);
        let t = trace(40, 0.003);
        let plan = FleetFaultPlan::seeded(1)
            .with_crash(0, 0.03)
            .with_recovery(0, 0.08);
        let report = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        assert_partition(&report, &t);
        assert!(report.shed.is_empty(), "survivor capacity suffices");
        assert_eq!(report.replicas[0].crashes, 1);
        assert_eq!(report.replicas[0].recoveries, 1);
        assert!(report.redirected > 0, "crash orphans were re-routed");
        let kinds: Vec<TimelineKind> = report.timeline.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TimelineKind::Crash));
        assert!(kinds.contains(&TimelineKind::Recover));
        // The recovered replica takes new work again.
        assert!(
            report
                .completions
                .iter()
                .any(|c| c.replica == 0 && c.dispatch_s > 0.08),
            "replica 0 must serve again after recovery"
        );
        for c in &report.completions {
            assert_eq!(c.prediction, sim.cache.prediction(c.image));
        }
    }

    #[test]
    fn crash_with_no_survivors_sheds_explicitly() {
        let specs = vec![ReplicaSpec::fpga("only", fpga_timing(), 4, 0.002, 64).unwrap()];
        let sim = FleetSim::new(
            specs,
            FleetConfig::new(RoutingPolicy::RoundRobin),
            cache(12),
        )
        .unwrap();
        let t = trace(20, 0.003);
        let plan = FleetFaultPlan::seeded(0).with_crash(0, 0.02);
        let report = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        assert_partition(&report, &t);
        assert!(
            !report.shed.is_empty(),
            "orphans with nowhere to go are shed"
        );
        assert!(report.served() > 0, "pre-crash work completed");
        assert_eq!(report.redirected, 0);
    }

    #[test]
    fn slow_replica_trips_breaker_then_probe_recloses_it() {
        // One replica so the scripted timeline is exact. Nothing is
        // flagged, so a solo batch costs t_bnn (0.001) healthy and 0.1
        // under the 100x slowdown — well past the 0.05 deadline.
        let cfg = FleetConfig::new(RoutingPolicy::JoinShortestQueue)
            .with_breaker(BreakerConfig::try_new(2, 0.1).unwrap())
            .with_deadline_s(0.05);
        let specs = vec![ReplicaSpec::fpga("solo", fpga_timing(), 4, 0.002, 64).unwrap()];
        let flagless = PredictionCache::new(vec![0; 12], vec![false; 12]).unwrap();
        let sim = FleetSim::new(specs, cfg, flagless).unwrap();
        // Arrivals spaced so each rides its own batch: two slow batches
        // trip the breaker (opens at ~0.302, cooldown to ~0.402); the
        // restore at 0.35 lands before the probe at 0.45, which succeeds
        // and closes the breaker; 0.5 is served normally.
        let t = vec![
            Request::new(0, 0, 0.0),
            Request::new(1, 1, 0.2),
            Request::new(2, 2, 0.45),
            Request::new(3, 3, 0.5),
        ];
        let plan = FleetFaultPlan::seeded(0)
            .with_slowdown(0, 0.0, 100.0)
            .with_restore(0, 0.35);
        let report = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        assert_partition(&report, &t);
        assert!(
            report.shed.is_empty(),
            "no arrival lands inside the open window"
        );
        assert_eq!(
            report.replicas[0].breaker_opens, 1,
            "two consecutive deadline misses must open the breaker"
        );
        assert_eq!(
            report.replicas[0].breaker_closes, 1,
            "the half-open probe after the restore must re-close it"
        );
        let opened_at = report
            .timeline
            .iter()
            .find(|e| e.kind == TimelineKind::BreakerOpened)
            .expect("opened")
            .at_s;
        let closed_at = report
            .timeline
            .iter()
            .find(|e| e.kind == TimelineKind::BreakerClosed)
            .expect("closed")
            .at_s;
        assert!(closed_at > opened_at);
    }

    #[test]
    fn hedge_rescues_requests_stuck_on_a_stalled_replica() {
        let cfg = FleetConfig::new(RoutingPolicy::JoinShortestQueue)
            .with_deadline_s(0.05)
            .with_hedge_after_s(0.05);
        let specs = vec![
            ReplicaSpec::fpga("fpga0", fpga_timing(), 4, 0.002, 64).unwrap(),
            ReplicaSpec::fpga("fpga1", fpga_timing(), 4, 0.002, 64).unwrap(),
        ];
        let sim = FleetSim::new(specs, cfg, cache(12)).unwrap();
        let t = trace(20, 0.003);
        // Replica 0 stalls from the start and never restores.
        let plan = FleetFaultPlan::seeded(0).with_slowdown(0, 0.0, 2000.0);
        let report = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        assert_partition(&report, &t);
        assert!(report.shed.is_empty());
        assert!(report.hedges > 0, "stuck requests must hedge");
        assert!(report.hedge_wins > 0, "hedge copies must win on the stall");
        assert!(
            report.duplicates_discarded > 0,
            "the stalled copies lose the race and are discarded"
        );
        // Every id still served exactly once.
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.served());
    }

    #[test]
    fn full_queues_shed_at_admission() {
        let specs = vec![ReplicaSpec::fpga("tiny", fpga_timing(), 2, 0.01, 2).unwrap()];
        let sim = FleetSim::new(
            specs,
            FleetConfig::new(RoutingPolicy::JoinShortestQueue),
            cache(12),
        )
        .unwrap();
        let t: Vec<Request> = (0..10).map(|i| Request::new(i, i as usize, 0.0)).collect();
        let report = sim
            .run(&t, &FleetFaultPlan::none(), &NULL_RECORDER)
            .unwrap();
        assert_partition(&report, &t);
        assert!(!report.shed.is_empty(), "burst beyond capacity sheds");
    }

    #[test]
    fn replay_is_byte_identical() {
        let cfg = FleetConfig::new(RoutingPolicy::PrecisionAware)
            .with_deadline_s(0.04)
            .with_hedge_after_s(0.04)
            .with_breaker(BreakerConfig::try_new(2, 0.05).unwrap());
        let specs = vec![
            ReplicaSpec::fpga("fpga0", fpga_timing(), 4, 0.002, 32).unwrap(),
            ReplicaSpec::fpga("fpga1", fpga_timing(), 4, 0.002, 32).unwrap(),
            ReplicaSpec::host_only("host0", 0.01, 4, 0.002, 32).unwrap(),
        ];
        let sim = FleetSim::new(specs, cfg, cache(12)).unwrap();
        let t = trace(200, 0.002);
        let plan = FleetFaultPlan::seeded(7)
            .with_random_kills(3, 0.4, 2, 0.05)
            .with_slowdown(1, 0.1, 30.0)
            .with_restore(1, 0.2);
        let a = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        let b = sim.run(&t, &plan, &NULL_RECORDER).unwrap();
        assert_eq!(a, b, "same inputs must replay byte-identically");
        assert_partition(&a, &t);
    }

    #[test]
    fn invalid_traces_and_plans_are_rejected() {
        let sim = two_fpga_fleet(RoutingPolicy::RoundRobin);
        let unsorted = vec![Request::new(0, 0, 1.0), Request::new(1, 0, 0.5)];
        assert!(matches!(
            sim.run(&unsorted, &FleetFaultPlan::none(), &NULL_RECORDER),
            Err(FleetError::Trace(_))
        ));
        let dup = vec![Request::new(3, 0, 0.0), Request::new(3, 1, 0.1)];
        assert!(matches!(
            sim.run(&dup, &FleetFaultPlan::none(), &NULL_RECORDER),
            Err(FleetError::Trace(_))
        ));
        let oob = vec![Request::new(0, 99, 0.0)];
        assert!(matches!(
            sim.run(&oob, &FleetFaultPlan::none(), &NULL_RECORDER),
            Err(FleetError::Trace(_))
        ));
        let bad_plan = FleetFaultPlan::seeded(0).with_crash(9, 0.1);
        assert!(matches!(
            sim.run(&trace(2, 0.1), &bad_plan, &NULL_RECORDER),
            Err(FleetError::Config(_))
        ));
    }

    #[test]
    fn cache_validation() {
        assert!(PredictionCache::new(vec![], vec![]).is_err());
        assert!(PredictionCache::new(vec![1], vec![true, false]).is_err());
        let c = PredictionCache::new(vec![4, 2], vec![true, false]).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.is_flagged(0));
        assert_eq!(c.prediction(1), 2);
    }
}

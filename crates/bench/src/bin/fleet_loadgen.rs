//! Fleet load generator: drives the `mp-fleet` virtual-time cluster
//! simulator — FPGA-profile and host-only replicas behind a
//! health-aware router — through Poisson, burst and diurnal traces with
//! replica-kill, slowdown and recovery schedules, reporting per-scenario
//! latency percentiles, shed/redirect/hedge accounting and the
//! failure/recovery timeline.
//!
//! The sweep doubles as a regression gate for the fleet's
//! fault-tolerance contract:
//!
//! - **exactly-once**: served ∪ shed partitions every offered trace —
//!   no request is lost or double-served, even across crashes, hedges
//!   and re-routes;
//! - **functional equivalence**: every served prediction is
//!   bit-identical to the unfaulted single-replica run that built the
//!   prediction cache;
//! - **no gratuitous shedding**: a healthy fleet whose capacity exceeds
//!   the offered load sheds nothing;
//! - **bounded degradation**: killing one replica keeps p99 within a
//!   bounded factor of the healthy p99 (and the orphaned work is
//!   redirected, not dropped);
//! - **determinism**: the same seed replays every scenario byte for
//!   byte.

#![deny(deprecated)]

use mp_bench::{poisson_trace, CliOptions, TextTable};
use mp_core::experiment::TrainedSystem;
use mp_core::fault::FleetFaultPlan;
use mp_core::{MultiPrecisionPipeline, PipelineTiming, RunOptions};
use mp_fleet::{
    FleetConfig, FleetReport, FleetSim, PredictionCache, ReplicaSpec, RoutingPolicy, TimelineKind,
};
use mp_host::zoo::ModelId;
use mp_obs::{schema, SharedRecorder, NULL_RECORDER};
use mp_serve::Request;
use serde::Serialize;

/// One scenario's outcome for the JSON record.
#[derive(Serialize)]
struct ScenarioOut {
    name: String,
    policy: String,
    offered: usize,
    served: usize,
    shed: usize,
    shed_rate: f64,
    redirected: usize,
    hedges: usize,
    hedge_wins: usize,
    duplicates_discarded: usize,
    breaker_opens: usize,
    breaker_closes: usize,
    crashes: usize,
    recoveries: usize,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
    mean_latency_s: f64,
    throughput_rps: f64,
    horizon_s: f64,
}

#[derive(Serialize)]
struct Record {
    seed: u64,
    model: String,
    requests_per_scenario: usize,
    replicas: Vec<String>,
    cap_fpga_rps: f64,
    cap_host_rps: f64,
    aggregate_capacity_rps: f64,
    deadline_s: f64,
    healthy_p99_s: f64,
    one_killed_p99_s: f64,
    killed_over_healthy_p99: f64,
    p99_degradation_bound: f64,
    healthy_counters: Vec<(String, u64)>,
    scenarios: Vec<ScenarioOut>,
}

/// Gate: served ∪ shed must partition the offered ids exactly.
fn assert_exactly_once(name: &str, report: &FleetReport, trace: &[Request]) {
    assert_eq!(
        report.served() + report.shed.len(),
        trace.len(),
        "[{name}] served ({}) + shed ({}) must equal offered ({})",
        report.served(),
        report.shed.len(),
        trace.len()
    );
    let mut ids: Vec<u64> = report
        .completions
        .iter()
        .map(|c| c.id)
        .chain(report.shed.iter().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        trace.len(),
        "[{name}] no id may be served or shed twice"
    );
    assert!(
        ids.iter().zip(trace.iter()).all(|(&a, b)| a == b.id),
        "[{name}] served ∪ shed must be exactly the offered ids"
    );
}

/// Gate: every served prediction matches the unfaulted single-replica
/// run the cache was built from.
fn assert_predictions(name: &str, report: &FleetReport, cache: &PredictionCache) {
    for c in &report.completions {
        assert_eq!(
            c.prediction,
            cache.prediction(c.image),
            "[{name}] request {} image {}: fleet prediction diverged from \
             the single-replica run",
            c.id,
            c.image
        );
    }
}

fn scenario_out(name: &str, policy: RoutingPolicy, report: &FleetReport) -> ScenarioOut {
    ScenarioOut {
        name: name.to_string(),
        policy: format!("{policy:?}"),
        offered: report.requests,
        served: report.served(),
        shed: report.shed.len(),
        shed_rate: report.shed_rate(),
        redirected: report.redirected,
        hedges: report.hedges,
        hedge_wins: report.hedge_wins,
        duplicates_discarded: report.duplicates_discarded,
        breaker_opens: report.replicas.iter().map(|r| r.breaker_opens).sum(),
        breaker_closes: report.replicas.iter().map(|r| r.breaker_closes).sum(),
        crashes: report.replicas.iter().map(|r| r.crashes).sum(),
        recoveries: report.replicas.iter().map(|r| r.recoveries).sum(),
        p50_s: report.percentile_latency_s(50.0).unwrap_or(0.0),
        p95_s: report.percentile_latency_s(95.0).unwrap_or(0.0),
        p99_s: report.percentile_latency_s(99.0).unwrap_or(0.0),
        mean_latency_s: report.mean_latency_s().unwrap_or(0.0),
        throughput_rps: report.throughput_rps(),
        horizon_s: report.horizon_s,
    }
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    eprintln!("training system (seed {})…", opts.seed);
    let system = TrainedSystem::prepare(&config).expect("system trains");
    let id = ModelId::A;
    let paper = system.paper_timing(id).expect("paper timing");
    let timing = PipelineTiming::new(paper.t_bnn_img_s, paper.t_fp_img_s, 4);
    let run_opts = RunOptions::new(timing).with_host_accuracy(system.host_accuracy(id));
    let pipeline = MultiPrecisionPipeline::new(&system.hw, &system.dmu, system.config.threshold);
    let store = &system.test;
    let host = system.host(id);

    // One real run over the store: its predictions and flagged mask are
    // the functional ground truth every fleet scenario must reproduce,
    // and its modelled throughput prices one FPGA replica.
    let baseline = pipeline
        .execute(host, store, &run_opts)
        .expect("baseline single-replica run");
    let cache = PredictionCache::from_result(&baseline).expect("prediction cache");
    let cap_fpga = baseline.modeled_images_per_sec;
    let flag_rate =
        baseline.flagged.iter().filter(|&&f| f).count() as f64 / baseline.flagged.len() as f64;
    // A host-only replica pays host speed in the first stage too, plus
    // the same flagged re-inference tail.
    let cap_host = 1.0 / (paper.t_fp_img_s * (1.0 + flag_rate));
    let aggregate = 2.0 * cap_fpga + cap_host;

    // Fleet: two FPGA-profile replicas plus one host-only spill tier —
    // the paper's heterogeneous deployment in miniature.
    let max_batch = 16usize;
    let max_delay_s = 2.0 / cap_fpga;
    let queue_capacity = 512usize;
    let specs = vec![
        ReplicaSpec::fpga("fpga0", timing, max_batch, max_delay_s, queue_capacity)
            .expect("fpga0 spec"),
        ReplicaSpec::fpga("fpga1", timing, max_batch, max_delay_s, queue_capacity)
            .expect("fpga1 spec"),
        ReplicaSpec::host_only(
            "host0",
            paper.t_fp_img_s,
            max_batch,
            max_delay_s,
            queue_capacity,
        )
        .expect("host0 spec"),
    ];
    let replica_names: Vec<String> = specs.iter().map(|s| s.name().to_string()).collect();

    let n_req = if opts.smoke { 500 } else { 250_000 };
    let offered_rate = 0.5 * aggregate;
    // Losing one FPGA replica must still leave headroom, so the
    // one-killed scenario degrades latency without losing work.
    assert!(
        offered_rate < cap_fpga + cap_host,
        "survivor capacity ({:.1} rps) must exceed offered load ({:.1} rps)",
        cap_fpga + cap_host,
        offered_rate
    );

    // Pass 1: measure the healthy p99 under a non-binding deadline, then
    // derive the real deadline (and hedge trigger) from it.
    let probe_cfg = FleetConfig::new(RoutingPolicy::JoinShortestQueue).with_deadline_s(1e3);
    let probe_sim = FleetSim::new(specs.clone(), probe_cfg, cache.clone()).expect("probe fleet");
    let healthy_trace = poisson_trace(opts.seed, n_req, store.len(), |_| offered_rate);
    let probe = probe_sim
        .run(&healthy_trace, &FleetFaultPlan::none(), &NULL_RECORDER)
        .expect("healthy probe run");
    let healthy_p99 = probe.percentile_latency_s(99.0).expect("served requests");
    let deadline_s = (3.0 * healthy_p99).max(1e-4);
    let breaker = mp_fleet::BreakerConfig::try_new(8, 2.0 * deadline_s).expect("breaker config");
    let base_cfg = |policy: RoutingPolicy| {
        FleetConfig::new(policy)
            .with_deadline_s(deadline_s)
            .with_breaker(breaker)
    };
    let horizon = healthy_trace.last().expect("non-empty trace").arrival_s;

    let mut table = TextTable::new(&[
        "scenario",
        "offered",
        "served",
        "shed",
        "redir",
        "hedge",
        "p50 (ms)",
        "p99 (ms)",
        "thru req/s",
        "faults",
    ]);
    let mut scenarios = Vec::new();
    let push = |name: &str,
                policy: RoutingPolicy,
                report: &FleetReport,
                table: &mut TextTable,
                scenarios: &mut Vec<ScenarioOut>| {
        let s = scenario_out(name, policy, report);
        table.row(&[
            s.name.clone(),
            format!("{}", s.offered),
            format!("{}", s.served),
            format!("{}", s.shed),
            format!("{}", s.redirected),
            format!("{}", s.hedges),
            format!("{:.3}", 1e3 * s.p50_s),
            format!("{:.3}", 1e3 * s.p99_s),
            format!("{:.1}", s.throughput_rps),
            format!("{}c/{}o", s.crashes, s.breaker_opens),
        ]);
        scenarios.push(s);
    };

    // Scenario 1: healthy Poisson at half the aggregate capacity,
    // join-shortest-queue, recorded against the stable `fleet.*` schema.
    let rec = SharedRecorder::new();
    let healthy_sim = FleetSim::new(
        specs.clone(),
        base_cfg(RoutingPolicy::JoinShortestQueue),
        cache.clone(),
    )
    .expect("healthy fleet");
    let healthy = healthy_sim
        .run(&healthy_trace, &FleetFaultPlan::none(), &rec)
        .expect("healthy run");
    let healthy_replay = healthy_sim
        .run(&healthy_trace, &FleetFaultPlan::none(), &NULL_RECORDER)
        .expect("healthy replay");
    assert_eq!(
        healthy, healthy_replay,
        "healthy run must replay byte-identically"
    );
    assert_exactly_once("healthy", &healthy, &healthy_trace);
    assert_predictions("healthy", &healthy, &cache);
    assert!(
        healthy.shed.is_empty(),
        "a healthy fleet with {:.1} rps of capacity must not shed at {:.1} rps",
        aggregate,
        offered_rate
    );
    let obs = rec.report();
    let ctr = |name: &str| {
        obs.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(
        ctr(schema::CTR_FLEET_REQUESTS) as usize,
        healthy.requests,
        "fleet.requests counter must match the report"
    );
    assert_eq!(
        ctr(schema::CTR_FLEET_SERVED) as usize,
        healthy.served(),
        "fleet.served counter must match the report"
    );
    assert_eq!(ctr(schema::CTR_FLEET_SHED), 0);
    let healthy_counters: Vec<(String, u64)> = obs
        .counters
        .iter()
        .filter(|c| c.name.starts_with("fleet."))
        .map(|c| (c.name.clone(), c.value))
        .collect();
    push(
        "healthy",
        RoutingPolicy::JoinShortestQueue,
        &healthy,
        &mut table,
        &mut scenarios,
    );

    // Scenario 2: the same trace with one FPGA replica killed mid-run
    // and recovered later. Orphans must be redirected, latency must
    // degrade within a bounded factor, and the replica must serve again.
    let kill_plan = FleetFaultPlan::seeded(opts.seed)
        .with_crash(0, 0.25 * horizon)
        .with_recovery(0, 0.65 * horizon);
    let killed = healthy_sim
        .run(&healthy_trace, &kill_plan, &NULL_RECORDER)
        .expect("one-killed run");
    let killed_replay = healthy_sim
        .run(&healthy_trace, &kill_plan, &NULL_RECORDER)
        .expect("one-killed replay");
    assert_eq!(
        killed, killed_replay,
        "one-killed run must replay byte-identically"
    );
    assert_exactly_once("one_killed", &killed, &healthy_trace);
    assert_predictions("one_killed", &killed, &cache);
    assert!(
        killed.redirected > 0,
        "the crash must orphan work that gets redirected"
    );
    assert!(
        killed
            .timeline
            .iter()
            .any(|e| e.kind == TimelineKind::Crash && e.replica == 0),
        "timeline must record the crash"
    );
    assert!(
        killed
            .timeline
            .iter()
            .any(|e| e.kind == TimelineKind::Recover && e.replica == 0),
        "timeline must record the recovery"
    );
    assert!(
        killed
            .completions
            .iter()
            .any(|c| c.replica == 0 && c.dispatch_s > 0.65 * horizon),
        "the recovered replica must take work again"
    );
    assert!(
        killed.shed_rate() <= 0.01,
        "with survivor capacity above offered load, the one-killed run \
         must shed at most 1% (shed {:.3}%)",
        100.0 * killed.shed_rate()
    );
    let killed_p99 = killed.percentile_latency_s(99.0).expect("served requests");
    let p99_bound = 30.0;
    assert!(
        killed_p99 <= p99_bound * healthy_p99,
        "one-killed p99 ({killed_p99:.6}s) must stay within {p99_bound}x \
         of healthy p99 ({healthy_p99:.6}s)"
    );
    push(
        "one_killed",
        RoutingPolicy::JoinShortestQueue,
        &killed,
        &mut table,
        &mut scenarios,
    );

    // Scenario 3: a 4x burst for a tenth of the horizon under the
    // precision-aware policy — the FPGA tier saturates and spills to the
    // host replica; shedding is allowed but everything stays accounted.
    let burst_trace = poisson_trace(opts.seed ^ 0xB0B5, n_req, store.len(), |t| {
        if (0.4 * horizon..0.5 * horizon).contains(&t) {
            4.0 * 0.4 * aggregate
        } else {
            0.4 * aggregate
        }
    });
    let burst_sim = FleetSim::new(
        specs.clone(),
        base_cfg(RoutingPolicy::PrecisionAware),
        cache.clone(),
    )
    .expect("burst fleet");
    let burst = burst_sim
        .run(&burst_trace, &FleetFaultPlan::none(), &NULL_RECORDER)
        .expect("burst run");
    let burst_replay = burst_sim
        .run(&burst_trace, &FleetFaultPlan::none(), &NULL_RECORDER)
        .expect("burst replay");
    assert_eq!(
        burst, burst_replay,
        "burst run must replay byte-identically"
    );
    assert_exactly_once("burst", &burst, &burst_trace);
    assert_predictions("burst", &burst, &cache);
    if !opts.smoke {
        assert!(
            burst.replicas[2].served > 0,
            "a sustained burst past the FPGA tier must spill to the host replica"
        );
    }
    push(
        "burst",
        RoutingPolicy::PrecisionAware,
        &burst,
        &mut table,
        &mut scenarios,
    );

    // Scenario 4: a diurnal (sinusoidal) rate under round-robin with a
    // seeded random kill/recover schedule.
    let diurnal_trace = poisson_trace(opts.seed ^ 0xD1A1, n_req, store.len(), |t| {
        let phase = 2.0 * std::f64::consts::PI * t / (0.5 * horizon).max(1e-9);
        0.45 * aggregate * (1.0 + 0.6 * phase.sin())
    });
    let diurnal_horizon = diurnal_trace.last().expect("non-empty").arrival_s;
    let diurnal_plan = FleetFaultPlan::seeded(opts.seed).with_random_kills(
        3,
        diurnal_horizon,
        2,
        0.1 * diurnal_horizon,
    );
    let diurnal_sim = FleetSim::new(
        specs.clone(),
        base_cfg(RoutingPolicy::RoundRobin),
        cache.clone(),
    )
    .expect("diurnal fleet");
    let diurnal = diurnal_sim
        .run(&diurnal_trace, &diurnal_plan, &NULL_RECORDER)
        .expect("diurnal run");
    assert_exactly_once("diurnal", &diurnal, &diurnal_trace);
    assert_predictions("diurnal", &diurnal, &cache);
    push(
        "diurnal",
        RoutingPolicy::RoundRobin,
        &diurnal,
        &mut table,
        &mut scenarios,
    );

    // Scenario 5: a replica stalls (50x slowdown) mid-run; hedged
    // retries rescue the stuck requests and the losing copies are
    // deduplicated, never double-served.
    let stall_cfg = base_cfg(RoutingPolicy::JoinShortestQueue).with_hedge_after_s(deadline_s);
    let stall_sim = FleetSim::new(specs.clone(), stall_cfg, cache.clone()).expect("stall fleet");
    let stall_plan = FleetFaultPlan::seeded(opts.seed)
        .with_slowdown(0, 0.3 * horizon, 50.0)
        .with_restore(0, 0.5 * horizon);
    let stall = stall_sim
        .run(&healthy_trace, &stall_plan, &NULL_RECORDER)
        .expect("stall run");
    assert_exactly_once("hedged_stall", &stall, &healthy_trace);
    assert_predictions("hedged_stall", &stall, &cache);
    assert!(
        stall.hedges > 0,
        "requests stuck on the stalled replica must hedge"
    );
    assert!(
        stall.hedge_wins > 0,
        "some hedge copies must win against the stall"
    );
    push(
        "hedged_stall",
        RoutingPolicy::JoinShortestQueue,
        &stall,
        &mut table,
        &mut scenarios,
    );

    table.print(&format!(
        "Fleet scenarios (2x FPGA + host-only, {n_req} requests each, \
         capacity {aggregate:.1} req/s, deadline {:.2} ms)",
        1e3 * deadline_s
    ));
    println!(
        "\none-killed p99 {:.3} ms vs healthy p99 {:.3} ms ({:.2}x, bound {p99_bound}x)",
        1e3 * killed_p99,
        1e3 * healthy_p99,
        killed_p99 / healthy_p99
    );

    mp_bench::write_record(
        "fleet_latency",
        &Record {
            seed: opts.seed,
            model: format!("{id:?}"),
            requests_per_scenario: n_req,
            replicas: replica_names,
            cap_fpga_rps: cap_fpga,
            cap_host_rps: cap_host,
            aggregate_capacity_rps: aggregate,
            deadline_s,
            healthy_p99_s: healthy_p99,
            one_killed_p99_s: killed_p99,
            killed_over_healthy_p99: killed_p99 / healthy_p99,
            p99_degradation_bound: p99_bound,
            healthy_counters,
            scenarios,
        },
    );
}

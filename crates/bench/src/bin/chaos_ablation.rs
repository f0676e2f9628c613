//! Chaos ablation: sweeps injected fault intensity against delivered
//! accuracy and modelled throughput for the heterogeneous pipeline.
//!
//! Three sweeps, all fully deterministic per `--seed`:
//!
//! 1. **Host transient faults** — the host worker's inference fails with
//!    probability `rate`; the degradation policy retries with an
//!    exponential-backoff budget, then falls back to the BNN prediction.
//!    A circuit breaker trips the pipeline into BNN-only mode under
//!    sustained failure.
//! 2. **Latency spikes and worker death** — spikes beyond the per-image
//!    deadline degrade individual images; killing the host worker thread
//!    mid-batch must degrade the remaining flagged images without
//!    panicking or losing predictions.
//! 3. **FPGA stream stalls** — the discrete-event `StreamSim` replays the
//!    FINN feed with seeded source stalls, quantifying throughput loss.
//!
//! The graceful-degradation contract checked here: **every image always
//! gets a prediction**, and accuracy cannot fall below the standalone-BNN
//! floor minus the (reported) degraded fraction.

// Every run goes through `execute` + `RunOptions`; no deprecated API
// may creep in.
#![deny(deprecated)]

use mp_bench::{CliOptions, TextTable};
use mp_core::experiment::TrainedSystem;
use mp_core::model;
use mp_core::{DegradationPolicy, FaultPlan};
use mp_fpga::{StreamFaults, StreamSim};
use mp_host::zoo::ModelId;
use serde::Serialize;

/// One point of the host-fault-rate sweep.
#[derive(Serialize)]
struct HostFaultPoint {
    fault_rate: f64,
    accuracy: f64,
    bnn_accuracy: f64,
    degraded_count: usize,
    degraded_frac: f64,
    rerun_count: usize,
    retries: usize,
    breaker_trips: usize,
    host_attempts: usize,
    virtual_backoff_s: f64,
    modeled_images_per_sec: f64,
    retry_adjusted_images_per_sec: f64,
    fault_log_events: usize,
}

/// One scenario of the spike / worker-death table.
#[derive(Serialize)]
struct ScenarioPoint {
    scenario: String,
    accuracy: f64,
    degraded_count: usize,
    rerun_count: usize,
    retries: usize,
    breaker_trips: usize,
    predictions: usize,
}

/// One point of the FPGA stream-stall sweep.
#[derive(Serialize)]
struct StreamPoint {
    stall_rate: f64,
    throughput_fps: f64,
    clean_throughput_fps: f64,
    throughput_frac: f64,
    mean_latency_s: f64,
}

#[derive(Serialize)]
struct Record {
    seed: u64,
    model: String,
    host_fault_sweep: Vec<HostFaultPoint>,
    scenarios: Vec<ScenarioPoint>,
    stream_stall_sweep: Vec<StreamPoint>,
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    eprintln!("training system (seed {})…", opts.seed);
    let system = TrainedSystem::prepare(&config).expect("system trains");
    let id = ModelId::A;
    let timing = system.paper_timing(id).expect("paper timing");
    let policy = DegradationPolicy::default();
    let base_opts = system.run_options(id).expect("run options");
    let n = {
        let clean = system.execute(id, &base_opts).expect("clean pipeline");
        clean.total_images
    };

    // ---- Sweep 1: host transient fault rate ----
    let mut table = TextTable::new(&[
        "fault rate",
        "accuracy",
        "degraded",
        "retries",
        "breaker trips",
        "img/s (retry-adj)",
    ]);
    let mut host_points = Vec::new();
    for rate in [0.0, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let plan = FaultPlan::seeded(opts.seed).with_host_error_rate(rate);
        let r = system
            .execute(
                id,
                &base_opts.clone().with_faults(plan).with_degradation(policy),
            )
            .expect("chaos pipeline degrades instead of failing");
        assert_eq!(
            r.predictions.len(),
            r.total_images,
            "every image must keep a prediction under faults"
        );
        // Retries multiply the host's service demand; eq. (1) with the
        // attempt ratio in place of the rerun ratio models the resulting
        // throughput under load.
        let attempt_ratio = (r.host_attempts as f64 / r.total_images as f64).min(1.0);
        let retry_adjusted =
            model::images_per_sec(timing.t_fp_img_s, timing.t_bnn_img_s, attempt_ratio);
        table.row(&[
            format!("{rate:.2}"),
            format!("{:.3}", r.accuracy),
            format!("{}", r.degraded_count),
            format!("{}", r.retries),
            format!("{}", r.breaker_trips),
            format!("{retry_adjusted:.2}"),
        ]);
        host_points.push(HostFaultPoint {
            fault_rate: rate,
            accuracy: r.accuracy,
            bnn_accuracy: r.bnn_accuracy,
            degraded_count: r.degraded_count,
            degraded_frac: r.degraded_count as f64 / r.total_images as f64,
            rerun_count: r.rerun_count,
            retries: r.retries,
            breaker_trips: r.breaker_trips,
            host_attempts: r.host_attempts,
            virtual_backoff_s: r.virtual_backoff_s,
            modeled_images_per_sec: r.modeled_images_per_sec,
            retry_adjusted_images_per_sec: retry_adjusted,
            fault_log_events: r.fault_log.len(),
        });
    }
    table.print("Chaos sweep: host transient fault rate (Model A + FINN)");

    // ---- Sweep 2: spike and worker-death scenarios ----
    let mut table = TextTable::new(&["scenario", "accuracy", "degraded", "rerun", "retries"]);
    let mut scenarios = Vec::new();
    let spike = policy.host_deadline_s * 8.0;
    let cases: Vec<(String, FaultPlan)> = vec![
        (
            "spikes 20% over deadline".to_string(),
            FaultPlan::seeded(opts.seed).with_host_spikes(0.2, spike),
        ),
        (
            "spikes 100% under deadline".to_string(),
            FaultPlan::seeded(opts.seed).with_host_spikes(1.0, policy.host_deadline_s * 0.1),
        ),
        (
            "worker death at image 0".to_string(),
            FaultPlan::seeded(opts.seed).with_host_death_after(0),
        ),
        (
            format!("worker death mid-batch ({})", n / 2),
            FaultPlan::seeded(opts.seed).with_host_death_after(n / 2),
        ),
        (
            "errors 30% + spikes 10%".to_string(),
            FaultPlan::seeded(opts.seed)
                .with_host_error_rate(0.3)
                .with_host_spikes(0.1, spike),
        ),
    ];
    for (name, plan) in cases {
        let r = system
            .execute(
                id,
                &base_opts.clone().with_faults(plan).with_degradation(policy),
            )
            .expect("chaos pipeline degrades instead of failing");
        table.row(&[
            name.clone(),
            format!("{:.3}", r.accuracy),
            format!("{}", r.degraded_count),
            format!("{}", r.rerun_count),
            format!("{}", r.retries),
        ]);
        scenarios.push(ScenarioPoint {
            scenario: name,
            accuracy: r.accuracy,
            degraded_count: r.degraded_count,
            rerun_count: r.rerun_count,
            retries: r.retries,
            breaker_trips: r.breaker_trips,
            predictions: r.predictions.len(),
        });
    }
    table.print("Chaos scenarios: latency spikes and host-worker death");

    // ---- Sweep 3: FPGA stream stalls ----
    // FINN's modelled per-image interval feeds a 3-stage pipeline; stalls
    // freeze the source for 10 intervals with the given probability.
    let interval = timing.t_bnn_img_s;
    let sim = StreamSim::new(vec![interval, interval * 0.6, interval * 0.3], 4, interval);
    let batch = 512;
    let clean = sim.run(batch);
    let mut table = TextTable::new(&["stall rate", "img/s", "of clean", "mean latency (ms)"]);
    let mut stream_points = Vec::new();
    for rate in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let faults = StreamFaults::seeded(opts.seed).with_stalls(rate, 10.0 * interval);
        let r = sim.run_with_faults(batch, &faults);
        table.row(&[
            format!("{rate:.2}"),
            format!("{:.2}", r.throughput_fps),
            format!("{:.1}%", 100.0 * r.throughput_fps / clean.throughput_fps),
            format!("{:.3}", 1e3 * r.mean_latency_s),
        ]);
        stream_points.push(StreamPoint {
            stall_rate: rate,
            throughput_fps: r.throughput_fps,
            clean_throughput_fps: clean.throughput_fps,
            throughput_frac: r.throughput_fps / clean.throughput_fps,
            mean_latency_s: r.mean_latency_s,
        });
    }
    table.print("Chaos sweep: FINN stream source stalls (StreamSim)");

    println!(
        "\nexpected: accuracy decays from the multi-precision level toward the \
         BNN floor as faults force fallbacks, never below it minus the degraded \
         fraction; throughput degrades smoothly with stall rate"
    );
    mp_bench::write_record(
        "chaos_ablation",
        &Record {
            seed: opts.seed,
            model: format!("{id:?}"),
            host_fault_sweep: host_points,
            scenarios,
            stream_stall_sweep: stream_points,
        },
    );
}

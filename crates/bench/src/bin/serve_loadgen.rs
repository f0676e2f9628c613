//! Open-loop serving load generator: sweeps deterministic Poisson
//! arrival rates from well under to well over the pipeline's capacity
//! through the `mp-serve` front-end, reporting per-rate p50/p95/p99
//! latency, throughput, shed rate and mean batch size.
//!
//! Everything is virtual-time: arrivals come from a seeded SplitMix64
//! hash, batch service time is the pipeline's modelled `async`/`wait`
//! batch time, and the same `--seed` reproduces the output byte for
//! byte. The sweep doubles as a regression gate:
//!
//! - p99 latency must be monotone non-decreasing in the arrival rate
//!   until shedding engages, and saturated (above every no-shed
//!   point's p99) thereafter — the bounded queue caps tail latency
//!   under overload instead of letting it diverge;
//! - no request may be shed below capacity (backpressure is an
//!   overload mechanism, not a steady-state one);
//! - at the highest rate, dynamic batching must beat a forced
//!   batch-of-1 server on throughput (the whole point of coalescing).

use mp_bench::{poisson_trace, CliOptions, TextTable};
use mp_core::experiment::TrainedSystem;
use mp_core::{MultiPrecisionPipeline, PipelineTiming, RunOptions};
use mp_host::zoo::ModelId;
use mp_serve::{BatchServer, BatcherConfig, ServeReport};
use serde::Serialize;

/// One arrival-rate point of the sweep.
#[derive(Serialize)]
struct RatePoint {
    rate_multiplier: f64,
    rate_rps: f64,
    offered: usize,
    served: usize,
    shed: usize,
    shed_rate: f64,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
    mean_queue_wait_s: f64,
    throughput_rps: f64,
    mean_batch_size: f64,
}

#[derive(Serialize)]
struct Record {
    seed: u64,
    model: String,
    capacity_ips: f64,
    max_batch: usize,
    max_delay_s: f64,
    queue_capacity: usize,
    requests_per_point: usize,
    points: Vec<RatePoint>,
    batch1_highest_rate_throughput_rps: f64,
    dynamic_highest_rate_throughput_rps: f64,
    dynamic_over_batch1: f64,
}

fn point_from(mult: f64, rate_rps: f64, report: &ServeReport) -> RatePoint {
    let wait: f64 = report.completions.iter().map(|c| c.queue_wait_s()).sum();
    RatePoint {
        rate_multiplier: mult,
        rate_rps,
        offered: report.offered(),
        served: report.served(),
        shed: report.shed.len(),
        shed_rate: report.shed_rate(),
        p50_s: report.percentile_latency_s(50.0).unwrap_or(0.0),
        p95_s: report.percentile_latency_s(95.0).unwrap_or(0.0),
        p99_s: report.percentile_latency_s(99.0).unwrap_or(0.0),
        mean_queue_wait_s: wait / report.served().max(1) as f64,
        throughput_rps: report.throughput_rps(),
        mean_batch_size: report.mean_batch_size(),
    }
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    eprintln!("training system (seed {})…", opts.seed);
    let system = TrainedSystem::prepare(&config).expect("system trains");
    let id = ModelId::A;
    let paper = system.paper_timing(id).expect("paper timing");
    // A small pipeline chunk keeps the `async`/`wait` overlap busy
    // inside a single serving batch: a full 16-request batch spans four
    // overlapped chunks, which is where coalescing beats batch-of-1.
    let timing = PipelineTiming::new(paper.t_bnn_img_s, paper.t_fp_img_s, 4);
    let run_opts = RunOptions::new(timing).with_host_accuracy(system.host_accuracy(id));
    let pipeline = MultiPrecisionPipeline::new(&system.hw, &system.dmu, system.config.threshold);
    let store = &system.test;
    let host = system.host(id);

    // Capacity estimate: the modelled steady-state throughput of one
    // whole-store run. Serving capacity is a little lower (per-batch
    // pipeline ramp), so the 0.9× point still counts as "below".
    let capacity = pipeline
        .execute(host, store, &run_opts)
        .expect("capacity probe")
        .modeled_images_per_sec;
    let max_batch = 16usize;
    let max_delay_s = 2.0 / capacity;
    let queue_capacity = 64usize;
    let cfg = BatcherConfig::try_new(max_batch, max_delay_s, queue_capacity).expect("valid config");
    let server = BatchServer::new(&pipeline, host, store, cfg);
    let n_req = if opts.smoke { 120 } else { 600 };

    let mults = [0.25, 0.5, 0.75, 0.9, 1.5, 3.0];
    let mut table = TextTable::new(&[
        "rate ×cap",
        "req/s",
        "served",
        "shed",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "thru req/s",
        "mean batch",
    ]);
    let mut points = Vec::new();
    for &mult in &mults {
        let rate = mult * capacity;
        let trace = poisson_trace(opts.seed, n_req, store.len(), |_| rate);
        let report = server.serve(&trace, &run_opts).expect("serve run");
        // Same trace, same seed ⇒ byte-identical replay.
        let replay = server.serve(&trace, &run_opts).expect("serve replay");
        assert_eq!(report, replay, "serve run must be deterministic");
        let p = point_from(mult, rate, &report);
        table.row(&[
            format!("{mult:.2}"),
            format!("{rate:.1}"),
            format!("{}", p.served),
            format!("{}", p.shed),
            format!("{:.3}", 1e3 * p.p50_s),
            format!("{:.3}", 1e3 * p.p95_s),
            format!("{:.3}", 1e3 * p.p99_s),
            format!("{:.1}", p.throughput_rps),
            format!("{:.2}", p.mean_batch_size),
        ]);
        points.push(p);
    }
    table.print(&format!(
        "Serving latency sweep (Model A + FINN, capacity {capacity:.1} img/s, \
         max_batch {max_batch}, max_delay {:.2} ms, queue {queue_capacity})",
        1e3 * max_delay_s
    ));

    // Gates. While the queue accepts every request, p99 must be
    // monotone non-decreasing in the arrival rate. Once shedding
    // engages, the bounded queue *saturates* the tail instead — wait is
    // capped by the backlog the queue can hold, so p99 plateaus (and
    // may wiggle slightly between over-capacity points); there we
    // require saturation: at least as high as every no-shed point.
    let first_shed = points
        .iter()
        .position(|p| p.shed > 0)
        .unwrap_or(points.len());
    for w in points[..first_shed].windows(2) {
        assert!(
            w[1].p99_s >= w[0].p99_s - 1e-12,
            "p99 must be monotone non-decreasing below saturation: \
             {:.6}s at {:.2}x then {:.6}s at {:.2}x",
            w[0].p99_s,
            w[0].rate_multiplier,
            w[1].p99_s,
            w[1].rate_multiplier,
        );
    }
    let max_noshed_p99 = points[..first_shed]
        .iter()
        .fold(0.0f64, |m, p| m.max(p.p99_s));
    for p in &points[first_shed..] {
        assert!(
            p.p99_s >= max_noshed_p99 - 1e-12,
            "p99 under shedding must saturate above every no-shed point: \
             {:.6}s at {:.2}x vs {max_noshed_p99:.6}s",
            p.p99_s,
            p.rate_multiplier,
        );
    }
    for p in points.iter().filter(|p| p.rate_multiplier < 1.0) {
        assert_eq!(
            p.shed, 0,
            "no shedding below capacity (rate {:.2}x shed {})",
            p.rate_multiplier, p.shed
        );
    }
    let over = points
        .iter()
        .find(|p| p.rate_multiplier > 1.0)
        .expect("over-capacity point present");
    assert!(
        over.shed > 0 || points.last().unwrap().shed > 0,
        "over-capacity load must engage shedding"
    );

    // Dynamic batching vs forced batch-of-1 at the highest rate.
    let highest = *mults.last().unwrap() * capacity;
    let trace = poisson_trace(opts.seed, n_req, store.len(), |_| highest);
    let batch1_cfg = BatcherConfig::try_new(1, max_delay_s, queue_capacity).expect("valid config");
    let batch1 = BatchServer::new(&pipeline, host, store, batch1_cfg)
        .serve(&trace, &run_opts)
        .expect("batch-of-1 run");
    let dynamic_thru = points.last().unwrap().throughput_rps;
    let batch1_thru = batch1.throughput_rps();
    println!(
        "\nhighest rate ({:.1} req/s): dynamic batching {:.1} req/s vs \
         batch-of-1 {:.1} req/s ({:.2}x)",
        highest,
        dynamic_thru,
        batch1_thru,
        dynamic_thru / batch1_thru
    );
    assert!(
        dynamic_thru > batch1_thru,
        "dynamic batching must beat batch-of-1 at the highest rate \
         ({dynamic_thru:.2} vs {batch1_thru:.2} req/s)"
    );

    mp_bench::write_record(
        "serve_latency",
        &Record {
            seed: opts.seed,
            model: format!("{id:?}"),
            capacity_ips: capacity,
            max_batch,
            max_delay_s,
            queue_capacity,
            requests_per_point: n_req,
            points,
            batch1_highest_rate_throughput_rps: batch1_thru,
            dynamic_highest_rate_throughput_rps: dynamic_thru,
            dynamic_over_batch1: dynamic_thru / batch1_thru,
        },
    );
}

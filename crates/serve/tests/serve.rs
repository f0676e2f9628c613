//! End-to-end serving tests over a real (tiny) multi-precision system.

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_core::dmu::Dmu;
use mp_core::{MultiPrecisionPipeline, PipelineTiming, RunOptions};
use mp_dataset::{Dataset, SynthSpec};
use mp_nn::train::Model;
use mp_nn::{Mode, Network};
use mp_obs::SharedRecorder;
use mp_serve::{BatchServer, BatcherConfig, Request, ServeError};
use mp_tensor::init::TensorRng;
use mp_tensor::Shape;

fn tiny_system() -> (HardwareBnn, Dmu, Dataset, Network) {
    let mut rng = TensorRng::seed_from(100);
    let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
    for _ in 0..3 {
        let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
        bnn.forward_mode(&x, Mode::Train).unwrap();
    }
    let hw = HardwareBnn::from_classifier(&bnn).unwrap();
    let dmu = Dmu::with_weights(vec![0.1; 10], 0.0);
    let data = SynthSpec::tiny().generate(32).unwrap();
    let host = Network::builder(Shape::nchw(1, 3, 8, 8))
        .conv2d(8, 3, 1, 1, &mut rng)
        .unwrap()
        .relu()
        .global_avg_pool()
        .linear(10, &mut rng)
        .unwrap()
        .build();
    (hw, dmu, data, host)
}

fn opts() -> RunOptions<'static> {
    RunOptions::new(PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 4)).with_host_accuracy(0.5)
}

/// Poisson-free deterministic trace: `n` requests, fixed inter-arrival
/// gap, images cycling through the store.
fn uniform_trace(n: usize, gap_s: f64, store_len: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(i as u64, i % store_len, i as f64 * gap_s))
        .collect()
}

#[test]
fn light_load_serves_everything_batch_of_one() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    // Arrivals far slower than service: every request should dispatch
    // alone the moment its delay window closes.
    let cfg = BatcherConfig::try_new(8, 1e-4, 16).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    let trace = uniform_trace(10, 10.0, data.len());
    let report = server.serve(&trace, &opts()).unwrap();
    assert_eq!(report.served(), 10);
    assert!(report.shed.is_empty());
    assert_eq!(report.batches.len(), 10, "light load must not coalesce");
    assert!(report.batches.iter().all(|b| b.size == 1));
    for c in &report.completions {
        assert!(
            (c.queue_wait_s() - 1e-4).abs() < 1e-12,
            "{}",
            c.queue_wait_s()
        );
        assert!(c.latency_s() > 0.0);
    }
}

#[test]
fn burst_coalesces_into_full_batches() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    let cfg = BatcherConfig::try_new(4, 1.0, 64).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    // 12 requests all arriving at t=0: three full batches of 4.
    let trace: Vec<Request> = (0..12).map(|i| Request::new(i, i as usize, 0.0)).collect();
    let report = server.serve(&trace, &opts()).unwrap();
    assert_eq!(report.served(), 12);
    assert_eq!(report.batches.len(), 3);
    assert!(report.batches.iter().all(|b| b.size == 4));
    // Batches execute back-to-back on the single virtual server.
    for w in report.batches.windows(2) {
        assert!((w[1].dispatch_s - w[0].completion_s).abs() < 1e-12);
    }
}

#[test]
fn overload_sheds_instead_of_growing_the_queue() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    let cfg = BatcherConfig::try_new(4, 1e-3, 4).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    // A huge instantaneous burst against a capacity-4 queue.
    let trace: Vec<Request> = (0..64)
        .map(|i| Request::new(i, i as usize % data.len(), 0.0))
        .collect();
    let report = server.serve(&trace, &opts()).unwrap();
    assert!(!report.shed.is_empty(), "burst must shed");
    assert_eq!(report.served() + report.shed.len(), 64);
    // Served and shed ids partition the trace (nothing lost, nothing
    // double-counted).
    let mut ids: Vec<u64> = report
        .completions
        .iter()
        .map(|c| c.id)
        .chain(report.shed.iter().copied())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    // Bounded queue ⇒ bounded wait: nobody waits longer than the whole
    // backlog of min-size batches ahead of them.
    let makespan = report.makespan_s();
    for c in &report.completions {
        assert!(c.queue_wait_s() <= makespan);
        assert!(c.queue_wait_s() >= 0.0);
    }
}

#[test]
fn serve_is_deterministic_and_matches_dataset_execute() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    let cfg = BatcherConfig::try_new(3, 2e-3, 32).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    let trace = uniform_trace(20, 1e-3, data.len());
    let a = server.serve(&trace, &opts()).unwrap();
    let b = server.serve(&trace, &opts()).unwrap();
    assert_eq!(a, b, "same trace must replay byte-identically");
    // Predictions are bit-identical to one dataset-mode execute over
    // the same images, whatever the batch grouping was.
    let whole = pipeline.execute(&host, &data, &opts()).unwrap();
    for c in &a.completions {
        assert_eq!(c.prediction, whole.predictions[c.image]);
    }
}

#[test]
fn recorder_sees_requests_batches_and_latencies() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    let cfg = BatcherConfig::try_new(4, 1e-3, 4).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    let trace: Vec<Request> = (0..16)
        .map(|i| Request::new(i, i as usize % data.len(), 0.0))
        .collect();
    let rec = SharedRecorder::new();
    let base = opts();
    let with_rec = base.clone().with_recorder(&rec);
    let report = server.serve(&trace, &with_rec).unwrap();
    // Recording is passive.
    let plain = server.serve(&trace, &base).unwrap();
    assert_eq!(report, plain);
    let obs = rec.report();
    mp_obs::schema::validate_report(&obs).unwrap();
    assert_eq!(obs.counter(mp_obs::schema::CTR_SERVE_REQUESTS), 16);
    assert_eq!(
        obs.counter(mp_obs::schema::CTR_SERVE_SHED),
        report.shed.len() as u64
    );
    assert_eq!(
        obs.counter(mp_obs::schema::CTR_SERVE_BATCHES),
        report.batches.len() as u64
    );
    let lat = obs
        .histogram(mp_obs::schema::HIST_SERVE_LATENCY_S)
        .expect("latency histogram present");
    assert_eq!(lat.count, report.served() as u64);
    let span = obs
        .span(mp_obs::schema::SPAN_SERVE_BATCH)
        .expect("batch span present");
    assert_eq!(span.count, report.batches.len() as u64);
}

#[test]
fn malformed_traces_are_typed_errors() {
    let (hw, dmu, data, host) = tiny_system();
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, 0.5);
    let cfg = BatcherConfig::try_new(4, 1e-3, 8).unwrap();
    let server = BatchServer::new(&pipeline, &host, &data, cfg);
    let o = opts();
    // Out-of-order arrivals.
    let unsorted = vec![Request::new(0, 0, 1.0), Request::new(1, 1, 0.5)];
    assert!(server.serve(&unsorted, &o).is_err());
    // Non-finite arrival.
    let nan = vec![Request::new(0, 0, f64::NAN)];
    assert!(server.serve(&nan, &o).is_err());
    // Image index out of the store.
    let oob = vec![Request::new(0, data.len(), 0.0)];
    assert!(server.serve(&oob, &o).is_err());
    // A reused id: the report could no longer split the offered ids
    // into served and shed.
    let dup = vec![Request::new(3, 0, 0.0), Request::new(3, 1, 0.1)];
    assert!(matches!(server.serve(&dup, &o), Err(ServeError::Trace(_))));
    // Empty trace is fine and yields an empty report.
    let empty = server.serve(&[], &o).unwrap();
    assert_eq!(empty.offered(), 0);
    assert_eq!(empty.makespan_s(), 0.0);
}

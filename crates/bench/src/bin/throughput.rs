//! Observability overhead on the combined pipeline: the default
//! (null-recorder) [`MultiPrecisionPipeline::execute`] against a
//! hand-rolled uninstrumented replica of the same batched computation,
//! and against a fully instrumented run with a [`SharedRecorder`] whose
//! report is written to `results/obs_throughput.json`.
//!
//! The replica and the instrumented run must predict exactly what the
//! pipeline predicts before any time is reported. Appends
//! `results/throughput.json`. With `--gate-overhead` the process exits
//! non-zero if the null-recorder overhead (the median, over interleaved
//! pairs, of each pair's NullRecorder / uninstrumented time ratio)
//! exceeds 3% (the CI smoke gate). The system is a scaled topology;
//! paperbench measures the paper-shaped workloads.

use std::time::Instant;

use serde::Serialize;

use mp_bench::{results_dir, write_record, CliOptions, TextTable};
use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_core::dmu::Dmu;
use mp_core::{nearest_rank_percentile, MultiPrecisionPipeline, PipelineTiming, RunOptions};
use mp_dataset::{Dataset, SynthSpec};
use mp_nn::train::Model;
use mp_nn::{Mode, Network};
use mp_obs::SharedRecorder;
use mp_tensor::init::TensorRng;
use mp_tensor::{Parallelism, Shape, Tensor};

/// The null-recorder overhead the CI gate tolerates.
const OVERHEAD_GATE: f64 = 0.03;

#[derive(Debug, Serialize)]
struct ThroughputRecord {
    seed: u64,
    smoke: bool,
    images: usize,
    pairs: usize,
    threads: usize,
    obs: ObsArmRecord,
}

/// Observability cost on the combined pipeline. Rates are each side's
/// best run, in images per second. Overheads are the median over pairs
/// of `t_side / t_uninstrumented − 1`, each ratio taken within one pair
/// of adjacent runs, so a noisy stretch of the run moves both times of
/// a ratio together and the median drops the pairs it hit hardest.
#[derive(Debug, Serialize)]
struct ObsArmRecord {
    uninstrumented_img_per_s: f64,
    null_recorder_img_per_s: f64,
    shared_recorder_img_per_s: f64,
    /// Median per-pair time overhead of the NullRecorder run; negative
    /// values (null side faster) are clamped to zero.
    null_overhead_frac: f64,
    shared_overhead_frac: f64,
}

impl ObsArmRecord {
    /// Builds the record from per-pair times, `raw_s[i]` paired with
    /// `null_s[i]` and `shared_s[i]`.
    fn new(n_images: usize, raw_s: &[f64], null_s: &[f64], shared_s: &[f64]) -> Self {
        let rate = |secs: &[f64]| {
            let best = secs.iter().copied().fold(f64::MAX, f64::min);
            n_images as f64 / best.max(f64::MIN_POSITIVE)
        };
        let overhead = |secs: &[f64]| {
            let ratios: Vec<f64> = secs
                .iter()
                .zip(raw_s)
                .map(|(&s, &raw)| s / raw.max(f64::MIN_POSITIVE) - 1.0)
                .collect();
            nearest_rank_percentile(&ratios, 50.0)
                .expect("at least one rep, and times are never NaN")
                .max(0.0)
        };
        Self {
            uninstrumented_img_per_s: rate(raw_s),
            null_recorder_img_per_s: rate(null_s),
            shared_recorder_img_per_s: rate(shared_s),
            null_overhead_frac: overhead(null_s),
            shared_overhead_frac: overhead(shared_s),
        }
    }
}

/// The pipeline's batched computation hand-rolled from the public engine
/// APIs with no `RunOptions` / recorder plumbing at all — the
/// uninstrumented side of the observability-overhead comparison.
fn combined_uninstrumented(
    hw: &HardwareBnn,
    dmu: &Dmu,
    host: &Network,
    data: &Dataset,
    threshold: f32,
    par: Parallelism,
) -> Vec<usize> {
    let scores = hw.infer_batch_with(data.images(), par).expect("bnn batch");
    let mut preds = Network::argmax_rows(&scores).expect("argmax");
    let keep = dmu.estimate_batch(&scores, threshold).expect("dmu");
    let flagged: Vec<usize> = (0..data.len()).filter(|&i| !keep[i]).collect();
    for chunk in flagged.chunks(32) {
        let images: Vec<Tensor> = chunk
            .iter()
            .map(|&i| data.images().batch_item(i).expect("image"))
            .collect();
        let batch = Tensor::stack_batch(&images).expect("stack");
        let scores = host.infer_batch_with(&batch, par).expect("host batch");
        for (&i, p) in chunk
            .iter()
            .zip(Network::argmax_rows(&scores).expect("argmax"))
        {
            preds[i] = p;
        }
    }
    preds
}

fn main() {
    let opts_cli = CliOptions::parse();
    // A smoke run of the combined pipeline lasts well under a
    // millisecond, so the median needs many pairs to settle below the
    // gate's 3 %.
    let (n_images, pairs) = if opts_cli.smoke {
        (200, 200)
    } else {
        (600, 800)
    };
    let par = Parallelism::available();
    let threshold = 0.5f32;

    // A trained-shape (not trained-to-accuracy) system: throughput does
    // not depend on the weight values, only on the topology.
    let mut rng = TensorRng::seed_from(opts_cli.seed);
    let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).expect("bnn");
    for _ in 0..3 {
        let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
        bnn.forward_mode(&x, Mode::Train).expect("bn stats");
    }
    let hw = HardwareBnn::from_classifier(&bnn).expect("hardware export");
    let dmu = Dmu::with_weights(vec![0.1; 10], 0.0);
    let data = SynthSpec::tiny().generate(n_images).expect("dataset");
    let host = Network::builder(Shape::nchw(1, 3, 8, 8))
        .conv2d(16, 3, 1, 1, &mut rng)
        .expect("conv1")
        .batch_norm()
        .expect("bn")
        .relu()
        .max_pool(2)
        .expect("pool")
        .conv2d(16, 3, 1, 1, &mut rng)
        .expect("conv2")
        .relu()
        .flatten()
        .linear(10, &mut rng)
        .expect("fc")
        .softmax()
        .build();

    let timing = PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 32);
    let pipeline = MultiPrecisionPipeline::new(&hw, &dmu, threshold).with_parallelism(par);
    let opts = RunOptions::new(timing).with_host_accuracy(0.5);
    let result = pipeline.execute(&host, &data, &opts).expect("pipeline");
    // The replica must agree with the pipeline before its time means
    // anything.
    let replica = combined_uninstrumented(&hw, &dmu, &host, &data, threshold, par);
    assert_eq!(
        replica, result.predictions,
        "uninstrumented replica must match the pipeline predictions"
    );
    let rec = SharedRecorder::new();
    let obs_opts = opts.clone().with_recorder(&rec);
    let obs_result = pipeline
        .execute(&host, &data, &obs_opts)
        .expect("instrumented");
    assert_eq!(
        obs_result.predictions, result.predictions,
        "recording must be passive"
    );
    // Each pair times the uninstrumented replica and the NullRecorder run
    // back to back, alternating which runs first, then the
    // SharedRecorder run; the overheads are medians of per-pair ratios.
    let (mut raw_s, mut null_s, mut shared_s) = (Vec::new(), Vec::new(), Vec::new());
    let time = |run: &dyn Fn()| {
        let t = Instant::now();
        run();
        t.elapsed().as_secs_f64()
    };
    let raw = || {
        std::hint::black_box(combined_uninstrumented(
            &hw, &dmu, &host, &data, threshold, par,
        ));
    };
    let null = || {
        std::hint::black_box(pipeline.execute(&host, &data, &opts).expect("null"));
    };
    for pair in 0..pairs {
        if pair % 2 == 0 {
            raw_s.push(time(&raw));
            null_s.push(time(&null));
        } else {
            null_s.push(time(&null));
            raw_s.push(time(&raw));
        }
        shared_s.push(time(&|| {
            std::hint::black_box(pipeline.execute(&host, &data, &obs_opts).expect("shared"));
        }));
    }

    let report = rec.report();
    mp_obs::schema::validate_report(&report).expect("obs report validates");
    match mp_obs::report::write_report(&report, &results_dir(), "throughput") {
        Ok(path) => println!("(obs report written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write obs report: {e}"),
    }

    let record = ThroughputRecord {
        seed: opts_cli.seed,
        smoke: opts_cli.smoke,
        images: n_images,
        pairs,
        threads: par.threads(),
        obs: ObsArmRecord::new(n_images, &raw_s, &null_s, &shared_s),
    };

    let mut obs_table = TextTable::new(&[
        "pipeline variant",
        "img/s (min-rep)",
        "overhead (median pair)",
    ]);
    obs_table.row(&[
        "uninstrumented replica".into(),
        format!("{:.1}", record.obs.uninstrumented_img_per_s),
        "—".into(),
    ]);
    obs_table.row(&[
        "execute + NullRecorder".into(),
        format!("{:.1}", record.obs.null_recorder_img_per_s),
        format!("{:.2}%", 100.0 * record.obs.null_overhead_frac),
    ]);
    obs_table.row(&[
        "execute + SharedRecorder".into(),
        format!("{:.1}", record.obs.shared_recorder_img_per_s),
        format!("{:.2}%", 100.0 * record.obs.shared_overhead_frac),
    ]);
    obs_table.print(&format!(
        "observability overhead (combined pipeline, {n_images} images x {pairs} pairs, {} thread(s))",
        par.threads()
    ));

    write_record("throughput", &record);

    if opts_cli.gate_overhead && record.obs.null_overhead_frac > OVERHEAD_GATE {
        eprintln!(
            "FAIL: NullRecorder overhead {:.2}% exceeds the {:.0}% gate",
            100.0 * record.obs.null_overhead_frac,
            100.0 * OVERHEAD_GATE
        );
        std::process::exit(1);
    }
}

//! `quant_sweep`: accuracy and modeled throughput of the multi-precision
//! integer path across the `(a_bits, w_bits) ∈ {2, 4, 8}²` sweep, with
//! both end-points of the precision axis pinned against the shipped
//! implementations:
//!
//! - the **1-bit corner** (`NetworkPrecision::one_bit`) must be
//!   bit-identical to the shipped `HardwareBnn` pipeline — same
//!   predictions, same DMU flags, same modeled batch time (the MPIC
//!   network cost factor is exactly 1 there);
//! - the **float32 corner** (the host-only cascade
//!   `[terminal(HostFloat)]`) must reproduce the host model's standalone
//!   predictions exactly (every image reruns on the host), at the host's
//!   own modeled rate `1/t_fp`.
//!
//! Both gates are asserted on every run (the CI smoke step runs this
//! binary with `--smoke`); a violation exits non-zero. Writes
//! `results/quant_lut.json` with the MPIC MACs/cycle table and one
//! record per corner (accuracy, modeled throughput, rerun count, and an
//! FNV-1a checksum of the predictions so regressions are detectable
//! without storing every label).

use std::sync::Arc;

use serde::Serialize;

use mp_bench::{pct, write_record, CliOptions, TextTable};
use mp_core::experiment::TrainedSystem;
use mp_core::{CascadePolicy, CascadeStage, StageClassifier};
use mp_host::zoo::ModelId;
use mp_int::{CostLut, NetworkPrecision, QuantBnn};
use mp_nn::Network;
use mp_tensor::Parallelism;

/// One precision corner of the sweep.
#[derive(Debug, Serialize)]
struct CornerRecord {
    /// `1bit`, `float32`, or the per-layer precision string.
    label: String,
    a_bits: usize,
    w_bits: usize,
    /// MAC-weighted MPIC multiplier on the 1-bit modeled batch time.
    network_cost_factor: f64,
    /// Final pipeline accuracy at this precision.
    accuracy: f64,
    /// Accuracy of the low-precision stage alone.
    stage_accuracy: f64,
    rerun_count: usize,
    modeled_time_s: f64,
    modeled_images_per_sec: f64,
    /// FNV-1a over the final predictions.
    prediction_checksum: u64,
}

#[derive(Debug, Serialize)]
struct QuantSweepRecord {
    seed: u64,
    smoke: bool,
    test_images: usize,
    threshold: f32,
    host_model: String,
    /// `(a_bits, w_bits, macs_per_cycle)` — the MPIC cost LUT.
    lut_macs_per_cycle: Vec<(usize, usize, f64)>,
    /// Gate: the quantized 1-bit corner reproduced the shipped pipeline
    /// bit-for-bit.
    one_bit_corner_identical: bool,
    /// Gate: the float corner reproduced the host model's standalone
    /// predictions bit-for-bit, at the host's modeled rate `1/t_fp`.
    float_corner_matches_host: bool,
    corners: Vec<CornerRecord>,
}

/// The quantized corner: `quant` gated at `threshold`, then the host.
fn quantized_policy(quant: QuantBnn, threshold: f32) -> CascadePolicy {
    CascadePolicy::try_new(vec![
        CascadeStage::gated(StageClassifier::Quantized(Arc::new(quant)), threshold),
        CascadeStage::terminal(StageClassifier::HostFloat),
    ])
    .expect("quantized corner policy")
}

/// FNV-1a over the predictions, so the JSON pins exact outputs compactly.
fn checksum(preds: &[usize]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &p in preds {
        for byte in (p as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn corner_record(
    label: String,
    a_bits: usize,
    w_bits: usize,
    factor: f64,
    stage_accuracy: f64,
    result: &mp_core::PipelineResult,
) -> CornerRecord {
    CornerRecord {
        label,
        a_bits,
        w_bits,
        network_cost_factor: factor,
        accuracy: result.accuracy,
        stage_accuracy,
        rerun_count: result.rerun_count,
        modeled_time_s: result.modeled_time_s,
        modeled_images_per_sec: result.modeled_images_per_sec,
        prediction_checksum: checksum(&result.predictions),
    }
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    println!(
        "quant_sweep: training system (seed {}, smoke {})",
        opts.seed, opts.smoke
    );
    let sys = TrainedSystem::prepare(&config).expect("system preparation");
    let id = ModelId::ALL[0];
    let run_opts = sys.run_options(id).expect("run options");
    let threshold = sys.config.threshold;
    let layers = sys.bnn.export_latent().len();
    let lut = CostLut::mpic();
    let mut corners = Vec::new();

    // Shipped 1-bit baseline.
    let base = sys.execute(id, &run_opts).expect("1-bit baseline");

    // Gate 1: the quantized path at the 1-bit corner is bit-identical.
    let one_bit = QuantBnn::from_classifier(
        &sys.bnn,
        NetworkPrecision::one_bit(layers).expect("1-bit precision"),
    )
    .expect("1-bit quantisation");
    let one_factor = one_bit.network_cost_factor(&lut);
    let one = sys
        .execute(
            id,
            &run_opts
                .clone()
                .with_cascade(quantized_policy(one_bit, threshold)),
        )
        .expect("1-bit corner");
    let one_bit_identical = one.predictions == base.predictions
        && one.flagged == base.flagged
        && one.modeled_time_s == base.modeled_time_s
        && one_factor == 1.0;
    corners.push(corner_record(
        "1bit".to_owned(),
        1,
        1,
        one_factor,
        one.bnn_accuracy,
        &one,
    ));

    // Gate 2: the float corner reruns everything on the host alone: the
    // host model's standalone predictions at the host's modeled rate.
    let host_only =
        CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::HostFloat)])
            .expect("host-only policy");
    let float = sys
        .execute(id, &run_opts.clone().with_cascade(host_only))
        .expect("float corner");
    let host_scores = sys
        .host(id)
        .infer_batch_with(sys.test.images(), Parallelism::sequential())
        .expect("host batch");
    let host_preds = Network::argmax_rows(&host_scores).expect("host argmax");
    let host_rate = 1.0 / run_opts.timing().t_fp_img_s;
    let float_matches_host = float.predictions == host_preds
        && float.rerun_count == sys.test.len()
        && ((float.modeled_images_per_sec - host_rate) / host_rate).abs() < 1e-9;
    corners.push(corner_record(
        "float32".to_owned(),
        32,
        32,
        1.0,
        float.host_subset_accuracy.unwrap_or(0.0),
        &float,
    ));

    // The quantized {2,4,8}² sweep (the first layer stays on its 8-bit
    // pixels, as NetworkPrecision::uniform pins it).
    for a in [2usize, 4, 8] {
        for w in [2usize, 4, 8] {
            let precision = NetworkPrecision::uniform(layers, a, w).expect("supported widths");
            let label = format!("a{a}w{w}");
            let quant = QuantBnn::from_classifier(&sys.bnn, precision).expect("quantisation");
            let factor = quant.network_cost_factor(&lut);
            let result = sys
                .execute(
                    id,
                    &run_opts
                        .clone()
                        .with_cascade(quantized_policy(quant, threshold)),
                )
                .expect("quantized corner");
            corners.push(corner_record(
                label,
                a,
                w,
                factor,
                result.bnn_accuracy,
                &result,
            ));
        }
    }

    let mut table = TextTable::new(&[
        "corner",
        "cost x",
        "stage acc",
        "final acc",
        "reruns",
        "modeled img/s",
    ]);
    for c in &corners {
        table.row(&[
            c.label.clone(),
            format!("{:.3}", c.network_cost_factor),
            pct(c.stage_accuracy),
            pct(c.accuracy),
            format!("{}", c.rerun_count),
            format!("{:.1}", c.modeled_images_per_sec),
        ]);
    }
    table.print("multi-precision sweep (MPIC-priced)");
    println!(
        "1-bit corner bit-identical: {one_bit_identical}; float corner matches host: \
         {float_matches_host}"
    );

    let record = QuantSweepRecord {
        seed: opts.seed,
        smoke: opts.smoke,
        test_images: sys.test.len(),
        threshold,
        host_model: id.name().to_owned(),
        lut_macs_per_cycle: lut.entries(),
        one_bit_corner_identical: one_bit_identical,
        float_corner_matches_host: float_matches_host,
        corners,
    };
    write_record("quant_lut", &record);

    if !one_bit_identical || !float_matches_host {
        eprintln!("quant_sweep: corner gate failed");
        std::process::exit(1);
    }
}

//! Cross-crate property tests on the system's core invariants.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use multiprec::bnn::bits::{BitMatrix, BitVec};
use multiprec::bnn::hardware::HwThreshold;
use multiprec::bnn::planes::{quantize_level, PlaneMatrix, PlaneVec};
use multiprec::bnn::{BnnClassifier, HardwareBnn};
use multiprec::bnn::{EngineKind, EngineSpec, FinnTopology};
use multiprec::core::dmu::{ConfusionQuadrants, Dmu};
use multiprec::core::fault::{
    silence_injected_panics, DegradationPolicy, FaultPlan, FleetFaultPlan,
};
use multiprec::core::model;
use multiprec::core::{
    gate_accepts, CascadePolicy, MultiPrecisionPipeline, PipelineTiming, RunOptions,
};
use multiprec::dataset::{Dataset, SynthSpec};
use multiprec::fleet::{FleetConfig, FleetSim, PredictionCache, ReplicaSpec, RoutingPolicy};
use multiprec::fpga::cycle_model::{divisors, engine_cycles};
use multiprec::fpga::device::Device;
use multiprec::fpga::folding::{EngineFolding, Folding, FoldingSearch};
use multiprec::fpga::memory::{allocate_array, best_partition};
use multiprec::fpga::stream_sim::StreamSim;
use multiprec::int::{NetworkPrecision, PrecisionSpec, QuantBnn};
use multiprec::nn::train::Model;
use multiprec::nn::{Mode, Network};
use multiprec::obs::SharedRecorder;
use multiprec::serve::{BatchServer, BatcherConfig, Request};
use multiprec::tensor::conv::{col2im, im2col, im2col_batch_into, ConvGeometry};
use multiprec::tensor::init::TensorRng;
use multiprec::tensor::{linalg, Parallelism, Shape, Tensor};
use multiprec::verify::{verify, Candidate, Oracle, VerifyTarget};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- tensor substrate ----

    #[test]
    fn gemm_is_linear_in_first_argument(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, scale in -3.0f32..3.0
    ) {
        let a = Tensor::from_fn([m, k], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn([k, n], |i| (i as f32 * 0.3).cos());
        let scaled = a.map(|x| x * scale);
        let left = linalg::matmul(&scaled, &b).unwrap();
        let mut right = linalg::matmul(&a, &b).unwrap();
        right.scale(scale);
        for (x, y) in left.iter().zip(right.iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..3, h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2
    ) {
        let geom = ConvGeometry::new(k, stride, pad);
        prop_assume!(geom.output_dim(h) > 0 && geom.output_dim(w) > 0);
        let x = Tensor::from_fn(Shape::nchw(1, c, h, w), |i| ((i * 31) % 17) as f32 - 8.0);
        let cols = im2col(&x, geom).unwrap();
        let y = Tensor::from_fn(cols.shape().clone(), |i| ((i * 13) % 11) as f32 - 5.0);
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, c, h, w, geom).unwrap();
        let rhs: f32 = x.iter().zip(back.iter()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-1 * (1.0 + lhs.abs()));
    }

    // ---- bit arithmetic ----

    #[test]
    fn xnor_dot_equals_float_dot(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        let signs_a: Vec<f32> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let signs_b: Vec<f32> = bits.iter().rev().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let expect: f32 = signs_a.iter().zip(&signs_b).map(|(&a, &b)| a * b).sum();
        let dot = BitVec::from_signs(&signs_a).xnor_dot(&BitVec::from_signs(&signs_b));
        prop_assert_eq!(dot, expect as i32);
    }

    #[test]
    fn bitvec_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.len(), bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), b);
        }
    }

    #[test]
    fn bitmatrix_matvec_bounds(rows in 1usize..8, cols in 1usize..64) {
        let values: Vec<f32> = (0..rows * cols).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let m = BitMatrix::from_signs(rows, cols, &values);
        let x = BitVec::from_signs(&values[..cols]);
        for acc in m.xnor_matvec(&x) {
            prop_assert!(acc.unsigned_abs() as usize <= cols);
            // Parity: dot of `cols` ±1 terms has cols' parity.
            prop_assert_eq!(acc.rem_euclid(2), (cols as i32).rem_euclid(2));
        }
    }

    // ---- FPGA models ----

    #[test]
    fn folding_meets_any_reachable_target(target in 2_000u64..5_000_000) {
        let engines = FinnTopology::paper().engines();
        let folding = FoldingSearch::new(&engines).balanced(target);
        for (cycles, spec) in folding.cycles(&engines).iter().zip(&engines) {
            let max_parallel = engine_cycles(spec, spec.weight_rows(), spec.weight_cols());
            prop_assert!(
                *cycles <= target.max(max_parallel),
                "{}: {} cycles for target {}", spec.name, cycles, target
            );
        }
    }

    #[test]
    fn divisors_divide(n in 1usize..10_000) {
        for d in divisors(n) {
            prop_assert_eq!(n % d, 0);
        }
    }

    #[test]
    fn cycle_model_monotone_in_parallelism(p in 1usize..64, s in 1usize..64) {
        let spec = EngineSpec {
            name: "test".into(),
            kind: EngineKind::Conv,
            kernel: 3,
            in_channels: 64,
            out_channels: 64,
            in_height: 16,
            in_width: 16,
            out_height: 14,
            out_width: 14,
            input_bits: 1,
            threshold_bits: 16,
            pool_after: false,
        };
        prop_assert!(engine_cycles(&spec, p + 1, s) <= engine_cycles(&spec, p, s));
        prop_assert!(engine_cycles(&spec, p, s + 1) <= engine_cycles(&spec, p, s));
    }

    #[test]
    fn allocator_never_loses_bits(depth in 1u64..10_000, width in 1u64..64, blocks in 1u64..9) {
        let alloc = allocate_array(depth, width, blocks);
        prop_assert_eq!(alloc.stored_bits, depth * width);
        if alloc.bram_18k > 0 {
            prop_assert!(alloc.bram_capacity_bits() >= alloc.stored_bits / blocks.max(1));
        }
    }

    #[test]
    fn best_partition_never_increases_bram(depth in 1u64..20_000, width in 1u64..64) {
        let naive = allocate_array(depth, width, 1);
        let best = allocate_array(depth, width, best_partition(depth, width));
        prop_assert!(best.bram_18k <= naive.bram_18k);
    }

    #[test]
    fn stream_sim_conserves_throughput_bound(
        services in proptest::collection::vec(1e-4f64..1e-2, 1..6),
        batch in 1usize..200
    ) {
        let sim = StreamSim::new(services.clone(), 2, 0.0);
        let r = sim.run(batch);
        let bottleneck = services.iter().cloned().fold(0.0f64, f64::max);
        // Can never beat the bottleneck rate; makespan at least the work
        // of the slowest stage.
        prop_assert!(r.throughput_fps <= 1.0 / bottleneck + 1e-9);
        prop_assert!(r.makespan_s >= bottleneck * batch as f64 - 1e-12);
        prop_assert!(r.first_latency_s >= services.iter().sum::<f64>() - 1e-12);
    }

    // ---- DMU / analytic models ----

    #[test]
    fn quadrants_partition_unit_mass(
        flags in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..200)
    ) {
        let f: Vec<bool> = flags.iter().map(|x| x.0).collect();
        let s: Vec<bool> = flags.iter().map(|x| x.1).collect();
        let q = ConfusionQuadrants::tally(&f, &s);
        prop_assert!((q.fs + q.fbar_sbar + q.fbar_s + q.fs_bar - 1.0).abs() < 1e-9);
        prop_assert!((q.rerun_ratio() + q.fs + q.fbar_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dmu_threshold_monotone(
        weights in proptest::collection::vec(-2.0f32..2.0, 10),
        bias in -2.0f32..2.0,
        raw in proptest::collection::vec(-20.0f32..20.0, 40)
    ) {
        let dmu = Dmu::with_weights(weights, bias);
        let scores = Tensor::from_vec([4, 10], raw).unwrap();
        let lo = dmu.estimate_batch(&scores, 0.3).unwrap();
        let hi = dmu.estimate_batch(&scores, 0.8).unwrap();
        // Raising the threshold can only turn "kept" into "rerun".
        for (l, h) in lo.iter().zip(&hi) {
            prop_assert!(*l || !*h, "kept at 0.8 but rerun at 0.3");
        }
    }

    #[test]
    fn eq1_bounds(t_fp in 1e-4f64..1.0, t_bnn in 1e-4f64..1.0, r in 0.0f64..1.0) {
        let t = model::interval_per_image(t_fp, t_bnn, r);
        prop_assert!(t >= t_bnn);
        prop_assert!(t >= t_fp * r);
        prop_assert!(t <= t_bnn.max(t_fp));
    }

    #[test]
    fn eq2_exact_accuracy_is_valid_probability(
        fs in 0.0f64..1.0, fbsb in 0.0f64..1.0, fbs in 0.0f64..1.0, fsb in 0.0f64..1.0,
        host_acc in 0.0f64..1.0
    ) {
        // Normalise a random quadrant split.
        let total = fs + fbsb + fbs + fsb;
        prop_assume!(total > 1e-6);
        let q = ConfusionQuadrants {
            fs: fs / total,
            fbar_sbar: fbsb / total,
            fbar_s: fbs / total,
            fs_bar: fsb / total,
        };
        let bnn_acc = q.fs + q.fs_bar;
        let acc = model::accuracy_exact(bnn_acc, host_acc, q.rerun_ratio(), q.rerun_err_ratio());
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&acc), "acc {acc} from {q:?}");
    }
}

// ---- host fast path: packed GEMM and batch lowering ----

/// Mostly finite entries with `-0.0` and subnormals sprinkled in, and
/// NaN / ±∞ at a few positions only, so most outputs stay finite.
fn awkward_entries(len: usize, seed: u64) -> Vec<f32> {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    (0..len as u64)
        .map(|i| {
            let h = (i ^ seed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
            match h % 97 {
                0 if h.is_multiple_of(13) => specials[(h / 97 % 3) as usize],
                1..=4 => -0.0,
                5..=8 => -f32::from_bits((h >> 40) as u32 & 0x007f_ffff),
                _ => ((h >> 40) % 2001) as f32 / 250.0 - 4.0,
            }
        })
        .collect()
}

/// Equal bits, except that any two NaNs match: Rust leaves NaN payloads
/// unspecified.
fn same_bits(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul` runs the packed SIMD kernel on AVX2 / AVX-512F CPUs;
    /// `matmul_transpose_a` always runs the portable order it must keep.
    /// Shapes cross the 4-row tile, the 24- and 32-column tiles, the
    /// 256-deep k-block and every `k % 4` tail.
    #[test]
    fn packed_matmul_keeps_the_reference_summation_order(
        m in 1usize..71, k in 1usize..301, n in 1usize..81,
        seed in any::<u64>(), zero_row in any::<usize>()
    ) {
        let mut av = awkward_entries(m * k, seed);
        // An all -0.0 row still sums to +0.0 from the zeroed output.
        let r = zero_row % m;
        av[r * k..(r + 1) * k].fill(-0.0);
        let a = Tensor::from_vec([m, k], av).unwrap();
        let b = Tensor::from_vec([k, n], awkward_entries(k * n, seed.rotate_left(17))).unwrap();
        let packed = linalg::matmul(&a, &b).unwrap();
        let reference = linalg::matmul_transpose_a(&linalg::transpose(&a).unwrap(), &b).unwrap();
        prop_assert!(
            same_bits(packed.as_slice(), reference.as_slice()),
            "({m},{k},{n}) seed {seed}"
        );
    }

    /// `im2col_batch_into` writes exactly the im2col definition, padding
    /// zeros included, and a one-conv network's batched path equals its
    /// per-image `forward` at any thread count.
    #[test]
    fn batch_lowering_matches_its_definition(
        c in 1usize..3, h in 1usize..9, w in 1usize..9,
        k in 1usize..5, stride in 1usize..3, pad in 0usize..3,
        n in 0usize..5, threads in 1usize..4, seed in any::<u64>()
    ) {
        let geom = ConvGeometry::new(k, stride, pad);
        let (oh, ow) = (geom.output_dim(h), geom.output_dim(w));
        prop_assume!(oh > 0 && ow > 0);
        // Nonzero pixels, so a zero in the patch matrix is padding.
        let images: Vec<f32> = (0..n * c * h * w).map(|i| i as f32 + 1.0).collect();
        let mut cols = vec![f32::NAN; 3];
        let dims = im2col_batch_into(&images, n, c, h, w, geom, &mut cols).unwrap();
        let pixels = oh * ow;
        prop_assert_eq!(dims, (c * k * k, n * pixels));
        prop_assert_eq!(cols.len(), c * k * k * n * pixels);
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ch * k + ky) * k + kx;
                    for img in 0..n {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let inside = (0..h as isize).contains(&iy)
                                    && (0..w as isize).contains(&ix);
                                let want = if inside {
                                    images[((img * c + ch) * h + iy as usize) * w + ix as usize]
                                } else {
                                    0.0
                                };
                                let got = cols[row * n * pixels + img * pixels + oy * ow + ox];
                                prop_assert_eq!(
                                    got.to_bits(), want.to_bits(),
                                    "row {} img {} ({}, {})", row, img, oy, ox
                                );
                            }
                        }
                    }
                }
            }
        }

        let mut rng = TensorRng::seed_from(seed);
        let od = 1 + (seed % 5) as usize;
        let mut net = Network::builder(Shape::nchw(1, c, h, w))
            .conv2d(od, k, stride, pad, &mut rng)
            .unwrap()
            .build();
        let x = rng.normal(Shape::nchw(n, c, h, w), 0.0, 1.0);
        let batched = net.infer_batch_with(&x, Parallelism::new(threads)).unwrap();
        prop_assert_eq!(batched.shape().dims(), &[n, od, oh, ow][..]);
        let per_image = od * pixels;
        for img in 0..n {
            let one = net.forward(&x.batch_item(img).unwrap()).unwrap();
            prop_assert!(
                same_bits(one.as_slice(), &batched.as_slice()[img * per_image..][..per_image]),
                "image {img} of {n} on {threads} threads"
            );
        }
    }
}

// ---- chaos: fault injection and graceful degradation ----

/// Trained-once components shared across chaos cases.
fn chaos_fixture() -> &'static (HardwareBnn, Dmu, Dataset) {
    static FIXTURE: OnceLock<(HardwareBnn, Dmu, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = TensorRng::seed_from(2018);
        let mut bnn =
            BnnClassifier::new(multiprec::bnn::FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        for _ in 0..3 {
            let x = rng.normal(multiprec::tensor::Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        // Margin weights over the sorted standardised scores, so that
        // confidences differ between images. Uniform weights score every
        // image exactly 0.5, and every threshold then flags all or none.
        let dmu = Dmu::with_weights(
            vec![
                2.0, -1.0, -0.5, -0.2, -0.1, -0.05, -0.02, -0.01, -0.005, -0.002,
            ],
            0.0,
        );
        let data = SynthSpec::tiny().generate(40).unwrap();
        (hw, dmu, data)
    })
}

/// The chaos properties compare executors on partial flag sets: a
/// mid-range threshold must flag some images but not all of them, and
/// every confidence stays below 1 so that threshold 1.0 flags all.
#[test]
fn chaos_fixture_flags_a_strict_subset() {
    let (hw, dmu, data) = chaos_fixture();
    let scores = hw.infer_batch(data.images()).unwrap();
    let conf = dmu.predict_batch(&scores).unwrap();
    assert!(conf.iter().all(|&p| p < 1.0));
    for t in [0.6f32, 0.9] {
        let flagged = conf.iter().filter(|&&p| !gate_accepts(p, t)).count();
        assert!(
            0 < flagged && flagged < data.len(),
            "threshold {t} flags {flagged} of {}",
            data.len()
        );
    }
}

fn chaos_host() -> Network {
    let mut rng = TensorRng::seed_from(77);
    Network::builder(multiprec::tensor::Shape::nchw(1, 3, 8, 8))
        .conv2d(8, 3, 1, 1, &mut rng)
        .unwrap()
        .relu()
        .global_avg_pool()
        .linear(10, &mut rng)
        .unwrap()
        .build()
}

fn chaos_timing() -> PipelineTiming {
    PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 10)
}

fn chaos_opts(plan: FaultPlan, policy: DegradationPolicy) -> RunOptions<'static> {
    RunOptions::new(chaos_timing())
        .with_host_accuracy(0.5)
        .with_faults(plan)
        .with_degradation(policy)
}

/// Deterministic edges of the overlapped executor: an empty dataset and
/// one smaller than the pipeline block stay bit-identical to Modeled.
#[test]
fn overlapped_executor_handles_empty_and_sub_block_datasets() {
    let (hw, dmu, data) = chaos_fixture();
    let pipeline = MultiPrecisionPipeline::new(hw, dmu, 0.9);
    let policy = DegradationPolicy::default();
    for n in [0usize, 5] {
        let subset = data.take(n).unwrap();
        let host = chaos_host();
        let modeled = pipeline
            .execute(
                &host,
                &subset,
                &RunOptions::new(chaos_timing())
                    .with_host_accuracy(0.5)
                    .modeled(),
            )
            .unwrap();
        let host = chaos_host();
        let threaded = pipeline
            .execute(
                &host,
                &subset,
                &RunOptions::new(chaos_timing())
                    .with_host_accuracy(0.5)
                    .with_faults(FaultPlan::none())
                    .with_degradation(policy),
            )
            .unwrap();
        assert_eq!(threaded.total_images, n);
        assert_eq!(threaded.predictions, modeled.predictions, "n={n}");
        assert_eq!(threaded.flagged, modeled.flagged, "n={n}");
        assert_eq!(threaded.rerun_count, modeled.rerun_count, "n={n}");
        assert_eq!(threaded.degraded_count, 0);
        assert!(threaded.fault_log.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_every_image_always_predicted(
        error_rate in 0.0f64..1.0,
        spike_rate in 0.0f64..0.5,
        death in proptest::option::of(0usize..30),
        threshold in 0.3f32..1.0
    ) {
        silence_injected_panics();
        let (hw, dmu, data) = chaos_fixture();
        let host = chaos_host();
        let mut plan = FaultPlan::seeded(9)
            .with_host_error_rate(error_rate)
            .with_host_spikes(spike_rate, 10.0);
        if let Some(after) = death {
            plan = plan.with_host_death_after(after);
        }
        let r = MultiPrecisionPipeline::new(hw, dmu, threshold)
            .execute(&host, data, &chaos_opts(plan, DegradationPolicy::default()))
            .expect("recoverable faults must not surface as errors");
        prop_assert_eq!(r.predictions.len(), r.total_images);
        prop_assert!(r.predictions.iter().all(|&p| p < 10));
        prop_assert!((0.0..=1.0).contains(&r.accuracy));
        prop_assert!(r.degraded_count <= r.total_images);
    }

    #[test]
    fn chaos_accuracy_floor_holds(
        error_rate in 0.0f64..1.0,
        threshold in 0.3f32..1.0
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, threshold);
        let policy = DegradationPolicy::default();
        let host = chaos_host();
        let clean = pipeline
            .execute(&host, data, &chaos_opts(FaultPlan::none(), policy))
            .unwrap();
        let host = chaos_host();
        let plan = FaultPlan::seeded(13).with_host_error_rate(error_rate);
        let faulty = pipeline
            .execute(&host, data, &chaos_opts(plan, policy))
            .unwrap();
        let n = faulty.total_images as f64;
        // Faults only change degraded images, each worth at most 1/n of
        // accuracy relative to the fault-free run…
        let degraded_frac = faulty.degraded_count as f64 / n;
        prop_assert!(
            faulty.accuracy >= clean.accuracy - degraded_frac - 1e-9,
            "acc {} vs clean {} with {:.3} degraded",
            faulty.accuracy, clean.accuracy, degraded_frac
        );
        // …and only rerun images can ever fall back, so the BNN floor
        // minus the rerun fraction bounds any run from below.
        let rerun_frac = faulty.rerun_count as f64 / n;
        prop_assert!(faulty.accuracy >= faulty.bnn_accuracy - rerun_frac - 1e-9);
    }

    /// The cascade API's subsumption contract under chaos:
    /// `CascadePolicy::dmu(t)` must be bit-identical to the legacy
    /// constructor threshold `t` — predictions, flags, degradation and
    /// fault accounting alike — for any threshold and fault plan. The
    /// cascade run deliberately uses a *different* constructor threshold
    /// to prove the policy, not the constructor, decides.
    #[test]
    fn chaos_dmu_cascade_bit_identical_to_legacy_threshold(
        error_rate in 0.0f64..1.0,
        spike_rate in 0.0f64..0.5,
        threshold in 0.0f32..1.0,
        seed in any::<u64>()
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let policy = DegradationPolicy::default();
        let plan = FaultPlan::seeded(seed)
            .with_host_error_rate(error_rate)
            .with_host_spikes(spike_rate, 10.0);
        let host = chaos_host();
        let legacy = MultiPrecisionPipeline::new(hw, dmu, threshold)
            .execute(&host, data, &chaos_opts(plan.clone(), policy))
            .unwrap();
        let host = chaos_host();
        let cascade = MultiPrecisionPipeline::new(hw, dmu, 0.5)
            .execute(
                &host,
                data,
                &chaos_opts(plan, policy).with_cascade(CascadePolicy::dmu(threshold)),
            )
            .unwrap();
        prop_assert_eq!(&legacy.predictions, &cascade.predictions);
        prop_assert_eq!(&legacy.flagged, &cascade.flagged);
        prop_assert_eq!(legacy.accuracy, cascade.accuracy);
        prop_assert_eq!(legacy.rerun_count, cascade.rerun_count);
        prop_assert_eq!(legacy.degraded_count, cascade.degraded_count);
        prop_assert_eq!(legacy.retries, cascade.retries);
        prop_assert_eq!(legacy.host_attempts, cascade.host_attempts);
        prop_assert_eq!(legacy.breaker_trips, cascade.breaker_trips);
        prop_assert_eq!(legacy.modeled_time_s, cascade.modeled_time_s);
        prop_assert_eq!(
            serde_json::to_string(&legacy.fault_log).unwrap(),
            serde_json::to_string(&cascade.fault_log).unwrap()
        );
        prop_assert_eq!(&legacy.stage_traffic, &cascade.stage_traffic);
    }

    /// ROADMAP item 4's executor contract: the overlapped block-pipelined
    /// Threaded executor is bit-identical to Modeled — predictions,
    /// flags, rerun/degraded partition, stage traffic — for any
    /// threshold and block size (including blocks that do not divide n
    /// and blocks larger than n), and under faults it still degrades
    /// only flagged images while keeping a deterministic fault log.
    #[test]
    fn chaos_overlapped_threaded_bit_identical_to_modeled(
        threshold in 0.0f32..1.0,
        block in 1usize..48,
        error_rate in 0.0f64..1.0,
        death in proptest::option::of(0usize..30),
        seed in any::<u64>()
    ) {
        silence_injected_panics();
        let (hw, dmu, data) = chaos_fixture();
        let timing = PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, block);
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, threshold);
        let policy = DegradationPolicy::default();
        let host = chaos_host();
        let modeled = pipeline
            .execute(
                &host,
                data,
                &RunOptions::new(timing).with_host_accuracy(0.5).modeled(),
            )
            .unwrap();
        // Fault-free overlapped run: fully bit-identical to Modeled.
        let host = chaos_host();
        let clean = pipeline
            .execute(
                &host,
                data,
                &RunOptions::new(timing)
                    .with_host_accuracy(0.5)
                    .with_faults(FaultPlan::none())
                    .with_degradation(policy),
            )
            .unwrap();
        prop_assert_eq!(&clean.predictions, &modeled.predictions);
        prop_assert_eq!(&clean.flagged, &modeled.flagged);
        prop_assert_eq!(clean.rerun_count, modeled.rerun_count);
        prop_assert_eq!(clean.degraded_count, 0);
        prop_assert_eq!(clean.accuracy, modeled.accuracy);
        prop_assert_eq!(clean.bnn_accuracy, modeled.bnn_accuracy);
        prop_assert_eq!(clean.host_subset_accuracy, modeled.host_subset_accuracy);
        prop_assert_eq!(clean.quadrants, modeled.quadrants);
        prop_assert_eq!(&clean.stage_traffic, &modeled.stage_traffic);
        prop_assert!(clean.fault_log.is_empty());
        // Faulted overlapped run: the flags are BNN+DMU state computed
        // before any host fault can act, so they never change; the
        // flagged set partitions exactly into reruns and degradations;
        // kept images keep their modeled predictions; and the whole run
        // — fault log included — is deterministic per plan.
        let mut plan = FaultPlan::seeded(seed).with_host_error_rate(error_rate);
        if let Some(after) = death {
            plan = plan.with_host_death_after(after);
        }
        let faulted_opts = || RunOptions::new(timing)
            .with_host_accuracy(0.5)
            .with_faults(plan.clone())
            .with_degradation(policy);
        let host = chaos_host();
        let faulty = pipeline.execute(&host, data, &faulted_opts()).unwrap();
        prop_assert_eq!(&faulty.flagged, &modeled.flagged);
        let flagged_count = faulty.flagged.iter().filter(|&&f| f).count();
        prop_assert_eq!(faulty.rerun_count + faulty.degraded_count, flagged_count);
        for i in 0..faulty.predictions.len() {
            if !faulty.flagged[i] {
                prop_assert_eq!(
                    faulty.predictions[i], modeled.predictions[i],
                    "kept image {} must keep its BNN prediction", i
                );
            }
        }
        let host = chaos_host();
        let again = pipeline.execute(&host, data, &faulted_opts()).unwrap();
        prop_assert_eq!(&again.predictions, &faulty.predictions);
        prop_assert_eq!(again.degraded_count, faulty.degraded_count);
        prop_assert_eq!(
            serde_json::to_string(&again.fault_log).unwrap(),
            serde_json::to_string(&faulty.fault_log).unwrap()
        );
    }

    #[test]
    fn chaos_fault_log_is_byte_identical_per_seed(
        seed in any::<u64>(),
        error_rate in 0.0f64..1.0
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, 0.9);
        let policy = DegradationPolicy::default();
        let plan = FaultPlan::seeded(seed)
            .with_host_error_rate(error_rate)
            .with_host_spikes(0.1, 10.0);
        let host = chaos_host();
        let a = pipeline
            .execute(&host, data, &chaos_opts(plan.clone(), policy))
            .unwrap();
        let host = chaos_host();
        let b = pipeline
            .execute(&host, data, &chaos_opts(plan, policy))
            .unwrap();
        let log_a = serde_json::to_string(&a.fault_log).unwrap();
        let log_b = serde_json::to_string(&b.fault_log).unwrap();
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(a.predictions, b.predictions);
        prop_assert_eq!(a.degraded_count, b.degraded_count);
        prop_assert_eq!(a.retries, b.retries);
        prop_assert_eq!(a.breaker_trips, b.breaker_trips);
    }

    /// The redesigned run API's core contract: recording is strictly
    /// passive. A fully instrumented run (`SharedRecorder`) and the
    /// default null-recorder run must produce identical
    /// `PipelineResult`s — predictions, fault log, degradation
    /// accounting — under the same seed, chaos plan included. Only the
    /// wall clock (`wall_seconds`) and channel-timing-dependent
    /// `backpressure_events` may differ between the two runs.
    #[test]
    fn obs_recording_is_passive_under_chaos(
        error_rate in 0.0f64..1.0,
        spike_rate in 0.0f64..0.5,
        threshold in 0.3f32..1.0,
        seed in any::<u64>()
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, threshold);
        let policy = DegradationPolicy::default();
        let plan = FaultPlan::seeded(seed)
            .with_host_error_rate(error_rate)
            .with_host_spikes(spike_rate, 10.0);
        let host = chaos_host();
        let null_run = pipeline
            .execute(&host, data, &chaos_opts(plan.clone(), policy))
            .unwrap();
        let rec = SharedRecorder::new();
        let host = chaos_host();
        let obs_run = pipeline
            .execute(&host, data, &chaos_opts(plan, policy).with_recorder(&rec))
            .unwrap();
        prop_assert_eq!(&null_run.predictions, &obs_run.predictions);
        prop_assert_eq!(
            serde_json::to_string(&null_run.fault_log).unwrap(),
            serde_json::to_string(&obs_run.fault_log).unwrap()
        );
        prop_assert_eq!(null_run.accuracy, obs_run.accuracy);
        prop_assert_eq!(null_run.quadrants, obs_run.quadrants);
        prop_assert_eq!(null_run.rerun_count, obs_run.rerun_count);
        prop_assert_eq!(null_run.degraded_count, obs_run.degraded_count);
        prop_assert_eq!(null_run.retries, obs_run.retries);
        prop_assert_eq!(null_run.host_attempts, obs_run.host_attempts);
        prop_assert_eq!(null_run.breaker_trips, obs_run.breaker_trips);
        prop_assert_eq!(null_run.host_subset_accuracy, obs_run.host_subset_accuracy);
        // And the record the run left behind is schema-valid with
        // counters that mirror the result.
        let report = rec.report();
        prop_assert!(multiprec::obs::schema::validate_report(&report).is_ok());
        prop_assert_eq!(
            report.counter(multiprec::obs::schema::CTR_IMAGES),
            obs_run.total_images as u64
        );
        prop_assert_eq!(
            report.counter(multiprec::obs::schema::CTR_DEGRADED),
            obs_run.degraded_count as u64
        );
    }

    // ---- data-parallel batched inference ----

    #[test]
    fn parallel_batched_inference_bit_identical_to_per_image(
        n in 1usize..9,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        let host = chaos_host();
        let mut rng = TensorRng::seed_from(seed);
        let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        // Reference: one image at a time through the workspace engine
        // (itself bit-identical to `forward` in Infer mode, tested in
        // mp-nn).
        let mut reference: Vec<f32> = Vec::new();
        for i in 0..n {
            let img = batch.batch_item(i).unwrap();
            reference.extend(host.infer(&img).unwrap().iter());
        }
        let sharded = host
            .infer_batch_with(&batch, Parallelism::new(threads))
            .unwrap();
        prop_assert_eq!(sharded.as_slice(), &reference[..]);
    }

    #[test]
    fn chaos_fault_accounting_invariant_under_parallelism(
        error_rate in 0.0f64..1.0,
        spike_rate in 0.0f64..0.5,
        threads in 2usize..6,
        seed in any::<u64>()
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let policy = DegradationPolicy::default();
        let plan = FaultPlan::seeded(seed)
            .with_host_error_rate(error_rate)
            .with_host_spikes(spike_rate, 10.0);
        let host = chaos_host();
        let seq = MultiPrecisionPipeline::new(hw, dmu, 0.9)
            .execute(&host, data, &chaos_opts(plan.clone(), policy))
            .unwrap();
        let par = MultiPrecisionPipeline::new(hw, dmu, 0.9)
            .with_parallelism(Parallelism::new(threads))
            .execute(&host, data, &chaos_opts(plan, policy))
            .unwrap();
        // Sharding the deferred host batches must not perturb fault
        // accounting or predictions in any way.
        let log_seq = serde_json::to_string(&seq.fault_log).unwrap();
        let log_par = serde_json::to_string(&par.fault_log).unwrap();
        prop_assert_eq!(log_seq, log_par);
        prop_assert_eq!(seq.predictions, par.predictions);
        prop_assert_eq!(seq.degraded_count, par.degraded_count);
        prop_assert_eq!(seq.retries, par.retries);
        prop_assert_eq!(seq.host_attempts, par.host_attempts);
        prop_assert_eq!(seq.breaker_trips, par.breaker_trips);
    }
}

// ---- mp-verify: static interval soundness ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness contract of mp-verify's abstract interpretation: every
    /// accumulator value the bit-exact hardware model observes at
    /// runtime — including for images far outside the training
    /// distribution, which the first stage must clamp — lies inside the
    /// interval derived statically from fan-in and input width alone.
    #[test]
    fn verify_static_intervals_contain_runtime_accumulators(
        seed in any::<u64>(), mean in -4.0f32..4.0, sigma in 0.01f32..16.0
    ) {
        let (hw, _, _) = chaos_fixture();
        let mut rng = TensorRng::seed_from(seed);
        let image = rng.normal(multiprec::tensor::Shape::nchw(1, 3, 8, 8), mean, sigma);
        let (scores, ranges) = hw.infer_image_traced(&image).unwrap();
        // Tracing must not perturb the scores themselves.
        prop_assert_eq!(&scores, &hw.infer_image(&image).unwrap());
        let summaries = hw.stage_summaries();
        prop_assert_eq!(ranges.len(), summaries.len());
        for (stage, (range, summary)) in ranges.iter().zip(&summaries).enumerate() {
            prop_assert!(!range.is_empty(), "stage {} observed no accumulations", stage);
            let bound = multiprec::verify::interval::accumulator_interval(
                summary.fan_in,
                if summary.first { 8 } else { 1 },
            ).expect("fixture fan-ins are small");
            prop_assert!(
                bound.contains(range.min) && bound.contains(range.max),
                "stage {}: runtime range [{}, {}] escapes static interval [{}, {}]",
                stage, range.min, range.max, bound.lo, bound.hi
            );
        }
    }
}

// ---- mp-serve: dynamic batching is latency-only ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serving layer's core contract: batching decisions (driven by
    /// arrival gaps, `max_batch`, `max_delay_s` and queue pressure) may
    /// only move *when* an image is classified, never *what* it is
    /// classified as. Every served prediction must be bit-identical to
    /// a single dataset-mode `execute` over the same images, and shed
    /// requests must never be silently counted as served.
    #[test]
    fn serve_predictions_bit_identical_to_dataset_execute(
        gaps in proptest::collection::vec(0.0f64..0.02, 1..40),
        max_batch in 1usize..9,
        max_delay_ms in 0.0f64..10.0,
        queue_capacity in 1usize..32
    ) {
        let (hw, dmu, data) = chaos_fixture();
        let host = chaos_host();
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, 0.5);
        let cfg = BatcherConfig::try_new(max_batch, max_delay_ms * 1e-3, queue_capacity)
            .expect("generated config is valid");
        let server = BatchServer::new(&pipeline, &host, data, cfg);
        let mut t = 0.0f64;
        let trace: Vec<Request> = gaps
            .iter()
            .enumerate()
            .map(|(i, g)| {
                t += g;
                Request::new(i as u64, (i * 7) % data.len(), t)
            })
            .collect();
        let opts = RunOptions::new(chaos_timing()).with_host_accuracy(0.5);
        let report = server.serve(&trace, &opts).unwrap();
        let whole = pipeline.execute(&host, data, &opts).unwrap();
        for c in &report.completions {
            prop_assert_eq!(
                c.prediction,
                whole.predictions[c.image],
                "request {} (image {}) diverged from the dataset-mode run",
                c.id,
                c.image
            );
        }
        // Served and shed partition the trace exactly: nothing lost,
        // nothing double-counted, no shed id among the completions.
        prop_assert_eq!(report.served() + report.shed.len(), trace.len());
        let served_ids: std::collections::HashSet<u64> =
            report.completions.iter().map(|c| c.id).collect();
        prop_assert_eq!(served_ids.len(), report.served());
        for id in &report.shed {
            prop_assert!(!served_ids.contains(id), "shed request {} also served", id);
        }
        // Timeline sanity: causality per request, batch sizes within
        // bounds, virtual clock monotone across batches.
        for c in &report.completions {
            prop_assert!(c.dispatch_s >= c.arrival_s);
            prop_assert!(c.completion_s >= c.dispatch_s);
        }
        for b in &report.batches {
            prop_assert!(b.size >= 1 && b.size <= max_batch);
        }
        for w in report.batches.windows(2) {
            prop_assert!(w[1].dispatch_s >= w[0].completion_s - 1e-12);
        }
    }
}

// ---- one batcher: serving is the one-replica fleet ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BatchServer` and every fleet replica drive the same `Batcher`,
    /// so a healthy one-replica fleet with the serve run's timing and
    /// batching knobs must reproduce that run exactly: every completion
    /// field for field and the shed list. Serve prices each batch by
    /// its own `execute`; the fleet prices it from a whole-store
    /// `execute` through `modeled_batch_time`.
    #[test]
    fn one_replica_fleet_reproduces_batch_server(
        gaps in proptest::collection::vec(0.0f64..0.02, 1..60),
        max_batch in 1usize..9,
        max_delay_ms in 0.0f64..10.0,
        queue_capacity in 1usize..32,
        threshold in 0.6f32..0.9,
        pipeline_batch in 1usize..11
    ) {
        // Thresholds in [0.6, 0.9] flag a strict subset of the fixture
        // (`chaos_fixture_flags_a_strict_subset`), so batches mix
        // BNN-only and host-rerun images.
        let (hw, dmu, data) = chaos_fixture();
        let host = chaos_host();
        let pipeline = MultiPrecisionPipeline::new(hw, dmu, threshold);
        let timing = PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, pipeline_batch);
        let opts = RunOptions::new(timing).with_host_accuracy(0.5);
        let max_delay_s = max_delay_ms * 1e-3;
        let mut t = 0.0f64;
        let trace: Vec<Request> = gaps
            .iter()
            .enumerate()
            .map(|(i, g)| {
                t += g;
                Request::new(i as u64, (i * 7) % data.len(), t)
            })
            .collect();

        let cfg = BatcherConfig::try_new(max_batch, max_delay_s, queue_capacity).unwrap();
        let served = BatchServer::new(&pipeline, &host, data, cfg)
            .serve(&trace, &opts)
            .unwrap();
        let cache = PredictionCache::from_result(&pipeline.execute(&host, data, &opts).unwrap())
            .unwrap();
        let spec = ReplicaSpec::fpga("solo", timing, max_batch, max_delay_s, queue_capacity)
            .unwrap();
        let config = FleetConfig::new(RoutingPolicy::JoinShortestQueue).with_deadline_s(1e9);
        let fleet = FleetSim::new(vec![spec], config, cache)
            .unwrap()
            .run(&trace, &FleetFaultPlan::none(), &multiprec::obs::NULL_RECORDER)
            .unwrap();

        let serve_rows: Vec<_> = served
            .completions
            .iter()
            .map(|c| (c.id, c.image, c.prediction, c.arrival_s, c.dispatch_s, c.completion_s))
            .collect();
        let fleet_rows: Vec<_> = fleet
            .completions
            .iter()
            .map(|c| (c.id, c.image, c.prediction, c.arrival_s, c.dispatch_s, c.completion_s))
            .collect();
        prop_assert_eq!(fleet_rows, serve_rows);
        prop_assert_eq!(fleet.shed, served.shed);
    }
}

// ---- mp-fleet: exactly-once delivery and deterministic replay ----

/// A fabricated functional ground truth: fleet behaviour is independent
/// of how the cache was produced, so property tests skip training.
fn fleet_cache() -> PredictionCache {
    PredictionCache::new(
        (0..16).map(|i| i % 10).collect(),
        (0..16).map(|i| i % 3 == 0).collect(),
    )
    .unwrap()
}

fn fleet_fixture(policy: RoutingPolicy, queue_capacity: usize, hedge: bool) -> FleetSim {
    let timing = PipelineTiming::new(0.001, 0.01, 4);
    let specs = vec![
        ReplicaSpec::fpga("f0", timing, 4, 0.002, queue_capacity).unwrap(),
        ReplicaSpec::fpga("f1", timing, 4, 0.002, queue_capacity).unwrap(),
        ReplicaSpec::host_only("h0", 0.01, 4, 0.002, queue_capacity).unwrap(),
    ];
    let mut cfg = FleetConfig::new(policy).with_deadline_s(0.05);
    if hedge {
        cfg = cfg.with_hedge_after_s(0.04);
    }
    FleetSim::new(specs, cfg, fleet_cache()).unwrap()
}

fn fleet_trace(gaps: &[f64]) -> Vec<multiprec::serve::Request> {
    let mut t = 0.0f64;
    gaps.iter()
        .enumerate()
        .map(|(i, g)| {
            t += g;
            multiprec::serve::Request::new(i as u64, (i * 7) % 16, t)
        })
        .collect()
}

/// Sorted (served ∪ shed) ids of a fleet run.
fn fleet_outcome_ids(report: &multiprec::fleet::FleetReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report
        .completions
        .iter()
        .map(|c| c.id)
        .chain(report.shed.iter().copied())
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once under arbitrary fault schedules: whatever mix of
    /// crashes, recoveries, slowdowns and hedging the run endures,
    /// served ∪ shed must partition the offered ids — the same
    /// partition universe as the fault-free run — with no id lost,
    /// duplicated, or invented, and every served prediction identical
    /// to the functional ground truth.
    #[test]
    fn fleet_faulted_and_fault_free_runs_partition_the_same_ids(
        gaps in proptest::collection::vec(0.0f64..0.01, 1..80),
        policy_sel in 0usize..3,
        kills in 0usize..3,
        slow_replica in 0usize..3,
        seed in any::<u64>(),
        hedge in any::<bool>(),
        queue_capacity in 1usize..24
    ) {
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::PrecisionAware,
        ][policy_sel];
        let sim = fleet_fixture(policy, queue_capacity, hedge);
        let trace = fleet_trace(&gaps);
        let horizon = trace.last().unwrap().arrival_s.max(0.01);
        let plan = FleetFaultPlan::seeded(seed)
            .with_random_kills(3, horizon, kills, 0.2 * horizon)
            .with_slowdown(slow_replica, 0.5 * horizon, 20.0)
            .with_restore(slow_replica, 0.8 * horizon);
        let clean = sim
            .run(&trace, &FleetFaultPlan::none(), &multiprec::obs::NULL_RECORDER)
            .unwrap();
        let faulted = sim
            .run(&trace, &plan, &multiprec::obs::NULL_RECORDER)
            .unwrap();
        let offered: Vec<u64> = trace.iter().map(|r| r.id).collect();
        prop_assert_eq!(&fleet_outcome_ids(&clean), &offered);
        prop_assert_eq!(&fleet_outcome_ids(&faulted), &offered);
        prop_assert_eq!(clean.served() + clean.shed.len(), trace.len());
        prop_assert_eq!(faulted.served() + faulted.shed.len(), trace.len());
        let cache = fleet_cache();
        for c in clean.completions.iter().chain(&faulted.completions) {
            prop_assert_eq!(c.prediction, cache.prediction(c.image));
            prop_assert!(c.dispatch_s >= c.arrival_s);
            prop_assert!(c.completion_s > c.dispatch_s);
        }
    }

    /// Deterministic replay: the same seed reproduces the whole run —
    /// every `fleet.*` counter the recorder sees and every per-request
    /// latency — byte for byte.
    #[test]
    fn fleet_same_seed_means_identical_counters_and_latencies(
        gaps in proptest::collection::vec(0.0f64..0.01, 1..60),
        kills in 0usize..3,
        seed in any::<u64>(),
        hedge in any::<bool>()
    ) {
        let sim = fleet_fixture(RoutingPolicy::JoinShortestQueue, 16, hedge);
        let trace = fleet_trace(&gaps);
        let horizon = trace.last().unwrap().arrival_s.max(0.01);
        let plan = FleetFaultPlan::seeded(seed)
            .with_random_kills(3, horizon, kills, 0.2 * horizon);
        let rec_a = SharedRecorder::new();
        let rec_b = SharedRecorder::new();
        let a = sim.run(&trace, &plan, &rec_a).unwrap();
        let b = sim.run(&trace, &plan, &rec_b).unwrap();
        prop_assert_eq!(&a, &b, "same seed must replay the whole report");
        let fleet_counters = |rec: &SharedRecorder| -> Vec<(String, u64)> {
            rec.report()
                .counters
                .iter()
                .filter(|c| c.name.starts_with("fleet."))
                .map(|c| (c.name.clone(), c.value))
                .collect()
        };
        prop_assert_eq!(fleet_counters(&rec_a), fleet_counters(&rec_b));
        let latencies = |r: &multiprec::fleet::FleetReport| -> Vec<(u64, f64)> {
            r.completions.iter().map(|c| (c.id, c.latency_s())).collect()
        };
        prop_assert_eq!(latencies(&a), latencies(&b));
    }
}

// ---- mp-int: multi-plane arithmetic and the precision corners ----

/// Trained-once classifier on `FinnTopology::scaled(8, 8, 8)` that the
/// quantized-path properties quantize.
fn quant_classifier() -> &'static BnnClassifier {
    static BNN: OnceLock<BnnClassifier> = OnceLock::new();
    BNN.get_or_init(|| {
        let mut rng = TensorRng::seed_from(4018);
        let mut bnn =
            BnnClassifier::new(multiprec::bnn::FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        for _ in 0..3 {
            let x = rng.normal(multiprec::tensor::Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        bnn
    })
}

/// Trained-once pair for the precision-corner identity: the optimized
/// XNOR-popcount hardware view and the multi-plane quantized path at
/// `NetworkPrecision::one_bit`, built from the same classifier.
fn quant_corner_fixture() -> &'static (HardwareBnn, QuantBnn) {
    static FIXTURE: OnceLock<(HardwareBnn, QuantBnn)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bnn = quant_classifier();
        let hw = HardwareBnn::from_classifier(bnn).unwrap();
        let layers = bnn.export_latent().len();
        let quant = QuantBnn::from_classifier(
            bnn,
            NetworkPrecision::one_bit(layers).expect("1-bit precision"),
        )
        .unwrap();
        (hw, quant)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed multi-plane dot product — shift-add over bit planes of
    /// XNOR-popcounts — must agree exactly with the scalar i64 reference
    /// over quantized levels, for every `(a_bits, w_bits)` pairing from
    /// `{2, 4, 8}²`.
    #[test]
    fn plane_dot_matches_integer_reference(
        xs in proptest::collection::vec(-1.5f32..1.5, 1..64),
        ws in proptest::collection::vec(-1.5f32..1.5, 1..64),
        a_sel in 0usize..3, w_sel in 0usize..3
    ) {
        let (a_bits, w_bits) = ([2usize, 4, 8][a_sel], [2usize, 4, 8][w_sel]);
        let n = xs.len().min(ws.len());
        let x = PlaneVec::from_floats(&xs[..n], a_bits);
        let w = PlaneVec::from_floats(&ws[..n], w_bits);
        let reference: i64 = xs[..n]
            .iter()
            .zip(&ws[..n])
            .map(|(&a, &b)| quantize_level(a, a_bits) * quantize_level(b, w_bits))
            .sum();
        prop_assert_eq!(x.dot(&w), reference);
        // Packing must round-trip the quantized levels themselves.
        let levels: Vec<i64> = xs[..n].iter().map(|&v| quantize_level(v, a_bits)).collect();
        prop_assert_eq!(x.to_levels(), levels);
    }

    /// Same contract at GEMV granularity: `PlaneMatrix::matvec` is the
    /// row-wise plane dot product, so every output must equal the dense
    /// i64 reference GEMM row.
    #[test]
    fn plane_matvec_matches_reference_gemm(
        rows in 1usize..7, cols in 1usize..20,
        wdata in proptest::collection::vec(-2.0f32..2.0, 140),
        xdata in proptest::collection::vec(-2.0f32..2.0, 20),
        a_sel in 0usize..3, w_sel in 0usize..3
    ) {
        let (a_bits, w_bits) = ([2usize, 4, 8][a_sel], [2usize, 4, 8][w_sel]);
        let wvals = &wdata[..rows * cols];
        let xvals = &xdata[..cols];
        let m = PlaneMatrix::from_floats(rows, cols, wvals, w_bits);
        let x = PlaneVec::from_floats(xvals, a_bits);
        let y = m.matvec(&x);
        prop_assert_eq!(y.len(), rows);
        for (r, &got) in y.iter().enumerate() {
            let reference: i64 = (0..cols)
                .map(|c| {
                    quantize_level(wvals[r * cols + c], w_bits)
                        * quantize_level(xvals[c], a_bits)
                })
                .sum();
            prop_assert_eq!(got, reference, "row {} diverged from reference", r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The precision axis is anchored at its low end: the multi-plane
    /// quantized path at `NetworkPrecision::one_bit` must be
    /// bit-identical — scores included, not just argmaxes — to the
    /// optimized XNOR-popcount fast path, for any input distribution and
    /// any worker-thread count.
    #[test]
    fn quant_one_bit_corner_matches_bnn_fast_path(
        seed in any::<u64>(), n in 1usize..7, threads in 1usize..5,
        mean in -2.0f32..2.0, sigma in 0.05f32..4.0
    ) {
        let (hw, quant) = quant_corner_fixture();
        let mut rng = TensorRng::seed_from(seed);
        let batch = rng.normal(multiprec::tensor::Shape::nchw(n, 3, 8, 8), mean, sigma);
        let fast = hw.infer_batch_with(&batch, Parallelism::new(threads)).unwrap();
        let q = quant
            .infer_batch_obs(&batch, Parallelism::new(threads), &multiprec::obs::NULL_RECORDER)
            .unwrap();
        prop_assert_eq!(quant.scores_scale(), 1.0);
        prop_assert_eq!(fast.shape(), q.shape());
        prop_assert_eq!(fast.as_slice(), q.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dense batch path computes the bit-plane reference's exact
    /// integers: for any per-layer precision chain (8-bit pixels into the
    /// first layer), batch size and worker-thread count, every image's
    /// batch scores equal `infer_image` divided by `scores_scale`.
    #[test]
    fn quant_dense_batch_matches_bit_plane_reference(
        first_w in 0usize..4,
        inner in proptest::collection::vec((0usize..4, 0usize..4), 4),
        seed in any::<u64>(), n in 0usize..10, threads in 1usize..5
    ) {
        const BITS: [usize; 4] = [1, 2, 4, 8];
        let mut layers = vec![PrecisionSpec::try_new(8, BITS[first_w]).unwrap()];
        layers.extend(
            inner
                .iter()
                .map(|&(a, w)| PrecisionSpec::try_new(BITS[a], BITS[w]).unwrap()),
        );
        let precision = NetworkPrecision::try_new(layers).unwrap();
        let quant = QuantBnn::from_classifier(quant_classifier(), precision).unwrap();
        let mut rng = TensorRng::seed_from(seed);
        let batch = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.5);
        let got = quant
            .infer_batch_obs(&batch, Parallelism::new(threads), &multiprec::obs::NULL_RECORDER)
            .unwrap();
        prop_assert_eq!(got.shape().dims(), &[n, 10][..]);
        for i in 0..n {
            let reference: Vec<f32> = quant
                .infer_image(&batch.batch_item(i).unwrap())
                .unwrap()
                .iter()
                .map(|&s| s as f32 / quant.scores_scale())
                .collect();
            prop_assert_eq!(&got.as_slice()[i * 10..(i + 1) * 10], &reference[..], "image {}", i);
        }
    }
}

/// Replaces bound `j` of channel `row`'s ladder in stage `stage` of a
/// serialised `QuantBnn`.
fn set_ladder_bound(quant: &mut Value, stage: usize, row: usize, j: usize, bound: HwThreshold) {
    let Value::Map(fields) = quant else {
        panic!("QuantBnn serialises to an object")
    };
    let Some((_, Value::Seq(stages))) = fields.iter_mut().find(|(k, _)| k == "stages") else {
        panic!("stages is an array")
    };
    let Value::Map(tagged) = &mut stages[stage] else {
        panic!("stages are tagged objects")
    };
    let Value::Map(payload) = &mut tagged[0].1 else {
        panic!("stage payload is an object")
    };
    let Some((_, Value::Seq(ladders))) = payload.iter_mut().find(|(k, _)| k == "thresholds") else {
        panic!("thresholds is an array")
    };
    let Value::Map(ladder) = &mut ladders[row] else {
        panic!("a ladder is an object")
    };
    let Some((_, Value::Seq(bounds))) = ladder.iter_mut().find(|(k, _)| k == "bounds") else {
        panic!("bounds is an array")
    };
    bounds[j] = bound.to_value();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dense batch path computes the bit-plane reference's exact
    /// integers on maps whose channel counts straddle the kernel's
    /// 16-lane groups and 64-row blocks (conv widths from {8, 15, 16,
    /// 17, 63, 64, 65, 130}), at random per-layer precision (8-bit pixels
    /// into the first layer), with ladder bounds written through the
    /// checked deserializer at the edges of each stage's reachable
    /// accumulation `±fan_in·L_a·L_w` (`L_a = 128` for pixels): always
    /// and never (`i64::MIN`, `i64::MAX`, one past the reach), the reach
    /// itself, one inside it, and −1, 0, 1, in both directions, so one
    /// ladder mixes `negate`.
    #[test]
    fn quant_dense_batch_matches_reference_on_wide_maps_and_edge_ladders(
        widths in proptest::collection::vec(0usize..8, 1..4),
        pools in proptest::collection::vec(any::<bool>(), 3),
        bits in proptest::collection::vec((0usize..4, 0usize..4), 7),
        edits in proptest::collection::vec((any::<u64>(), 0usize..11, any::<bool>()), 1..40),
        edge in 6usize..10,
        seed in any::<u64>(), n in 0usize..10, threads in 1usize..4
    ) {
        const WIDTHS: [usize; 8] = [8, 15, 16, 17, 63, 64, 65, 130];
        const BITS: [usize; 4] = [1, 2, 4, 8];
        let (mut convs, mut pool_after, mut side) = (Vec::new(), Vec::new(), edge);
        for (&w, &pool) in widths.iter().zip(&pools) {
            if side < 3 {
                break;
            }
            side -= 2;
            let pool = pool && side >= 2;
            if pool {
                side /= 2;
            }
            convs.push(WIDTHS[w]);
            pool_after.push(pool);
        }
        let topo = FinnTopology::try_new(3, edge, edge, convs, pool_after, vec![16, 12], 10).unwrap();
        let engines = topo.engines();
        let mut layers = vec![PrecisionSpec::try_new(8, BITS[bits[0].1]).unwrap()];
        layers.extend(
            bits[1..engines.len()]
                .iter()
                .map(|&(a, w)| PrecisionSpec::try_new(BITS[a], BITS[w]).unwrap()),
        );
        let precision = NetworkPrecision::try_new(layers.clone()).unwrap();
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(topo, &mut rng).unwrap();
        bnn.forward_mode(&rng.normal(Shape::nchw(2, 3, edge, edge), 0.0, 1.0), Mode::Train)
            .unwrap();
        let quant = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut value = quant.to_value();
        let ladders = engines.len() - 1;
        for &(pick, kind, negate) in &edits {
            let stage = (pick % ladders as u64) as usize;
            let engine = &engines[stage];
            let l_a = if stage == 0 { 128 } else { multiprec::bnn::planes::levels(layers[stage].a_bits()) };
            let reach = engine.weight_cols() as i64 * l_a * multiprec::bnn::planes::levels(layers[stage].w_bits());
            let bound = [
                i64::MIN, i64::MAX, reach + 1, -(reach + 1), reach, -reach,
                reach - 1, -(reach - 1), -1, 0, 1,
            ][kind];
            let row = (pick >> 16) as usize % engine.weight_rows();
            let j = (pick >> 40) as usize % multiprec::bnn::planes::levels(layers[stage + 1].a_bits()) as usize;
            set_ladder_bound(&mut value, stage, row, j, HwThreshold { bound, negate });
        }
        let quant = QuantBnn::from_value(&value).unwrap();
        let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, 1.5);
        let got = quant
            .infer_batch_obs(&batch, Parallelism::new(threads), &multiprec::obs::NULL_RECORDER)
            .unwrap();
        prop_assert_eq!(got.shape().dims(), &[n, 10][..]);
        for i in 0..n {
            let reference: Vec<f32> = quant
                .infer_image(&batch.batch_item(i).unwrap())
                .unwrap()
                .iter()
                .map(|&s| s as f32 / quant.scores_scale())
                .collect();
            prop_assert_eq!(&got.as_slice()[i * 10..(i + 1) * 10], &reference[..], "image {}", i);
        }
    }
}

/// Batch scores of `hw` on `batch`, every way the batch path runs (one
/// `infer_batch_with` over `threads` shards and one reused block stream
/// fed `split`-image windows), checked against `infer_image` per image.
fn assert_bnn_batch_paths_match_reference(
    hw: &HardwareBnn,
    batch: &Tensor,
    threads: usize,
    split: usize,
) -> Result<(), TestCaseError> {
    let n = batch.shape().dim(0);
    let classes = hw.topology().classes();
    let mut reference = Vec::with_capacity(n * classes);
    for i in 0..n {
        let scores = hw.infer_image(&batch.batch_item(i).unwrap()).unwrap();
        reference.extend(scores.iter().map(|&s| s as f32));
    }
    let sharded = hw
        .infer_batch_with(batch, Parallelism::new(threads))
        .unwrap();
    prop_assert_eq!(sharded.as_slice(), &reference[..], "threads {}", threads);
    let mut stream = hw.block_stream();
    let (mut streamed, mut block) = (Vec::new(), Vec::new());
    for start in (0..n).step_by(split) {
        let end = (start + split).min(n);
        stream
            .infer_block_into(
                batch,
                start,
                end,
                &multiprec::obs::NULL_RECORDER,
                &mut block,
            )
            .unwrap();
        streamed.extend_from_slice(&block);
    }
    prop_assert_eq!(&streamed[..], &reference[..], "split {}", split);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The channel-packed BNN batch path computes `infer_image`'s scores
    /// on maps whose pixels fill part of a word, exactly one, or straddle
    /// two and three (conv widths from {8, 63, 64, 65, 128, 130}), with
    /// random 2×2 pools, batch sizes, shard counts and block-stream
    /// splits.
    #[test]
    fn bnn_batch_path_matches_reference_on_wide_maps(
        widths in proptest::collection::vec(0usize..6, 1..4),
        pools in proptest::collection::vec(any::<bool>(), 3),
        edge in 6usize..11,
        seed in any::<u64>(), n in 0usize..10, threads in 1usize..4, split in 1usize..10
    ) {
        const WIDTHS: [usize; 6] = [8, 63, 64, 65, 128, 130];
        // Keep the layers, and pools, that the image fits.
        let (mut convs, mut pool_after, mut side) = (Vec::new(), Vec::new(), edge);
        for (&w, &pool) in widths.iter().zip(&pools) {
            if side < 3 {
                break;
            }
            side -= 2;
            let pool = pool && side >= 2;
            if pool {
                side /= 2;
            }
            convs.push(WIDTHS[w]);
            pool_after.push(pool);
        }
        let topo = FinnTopology::try_new(3, edge, edge, convs, pool_after, vec![16, 12], 10).unwrap();
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(topo, &mut rng).unwrap();
        // One training-mode forward moves the batch-norm statistics, so
        // thresholds differ per channel.
        bnn.forward_mode(&rng.normal(Shape::nchw(2, 3, edge, edge), 0.0, 1.0), Mode::Train)
            .unwrap();
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, 1.0);
        assert_bnn_batch_paths_match_reference(&hw, &batch, threads, split)?;
    }
}

/// Replaces threshold `row` of stage `stage` in a serialised
/// `HardwareBnn`.
fn set_threshold(hw: &mut Value, stage: usize, row: usize, threshold: HwThreshold) {
    let Value::Map(fields) = hw else {
        panic!("HardwareBnn serialises to an object")
    };
    let Some((_, Value::Seq(stages))) = fields.iter_mut().find(|(k, _)| k == "stages") else {
        panic!("stages is an array")
    };
    let Value::Map(tagged) = &mut stages[stage] else {
        panic!("stages are tagged objects")
    };
    let Value::Map(payload) = &mut tagged[0].1 else {
        panic!("stage payload is an object")
    };
    let Some((_, Value::Seq(thresholds))) = payload.iter_mut().find(|(k, _)| k == "thresholds")
    else {
        panic!("thresholds is an array")
    };
    thresholds[row] = threshold.to_value();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The BNN batch path computes `infer_image`'s scores when `BinConv`
    /// thresholds sit at the edges of the dot's range `-fan_in..=fan_in`:
    /// bounds that always or never fire (the degenerate batch-norm's
    /// `i64::MIN`/`i64::MAX`, `±(fan_in + 1)`, `±fan_in`), parity edges
    /// (`±(fan_in − 1)`, `−1`, `0`, `1`), each in both comparison
    /// directions, written into the serialised stages and loaded through
    /// the checked deserializer. Conv widths come from the wide-map set.
    #[test]
    fn bnn_batch_path_matches_reference_on_edge_thresholds(
        widths in proptest::collection::vec(0usize..6, 1..4),
        edits in proptest::collection::vec((any::<u64>(), 0usize..11, any::<bool>()), 1..40),
        seed in any::<u64>(), n in 1usize..6, threads in 1usize..4, split in 1usize..6
    ) {
        const WIDTHS: [usize; 6] = [8, 63, 64, 65, 128, 130];
        // An 8-channel first engine, so every drawn width is a BinConv;
        // each 3×3 conv takes two pixels, leaving a 3×3 last map.
        let mut convs = vec![8];
        convs.extend(widths.iter().map(|&w| WIDTHS[w]));
        let edge = 2 * convs.len() + 3;
        let pools = vec![false; convs.len()];
        let topo = FinnTopology::try_new(3, edge, edge, convs, pools, vec![16, 12], 10).unwrap();
        let mut rng = TensorRng::seed_from(seed);
        let hw = HardwareBnn::from_classifier(&BnnClassifier::new(topo, &mut rng).unwrap()).unwrap();
        let summaries = hw.stage_summaries();
        let mut value = hw.to_value();
        for &(pick, kind, negate) in &edits {
            let stage = 1 + (pick % widths.len() as u64) as usize;
            let fan_in = summaries[stage].fan_in as i64;
            let bound = [
                i64::MIN, i64::MAX, fan_in + 1, -(fan_in + 1), fan_in, -fan_in,
                fan_in - 1, -(fan_in - 1), -1, 0, 1,
            ][kind];
            let row = (pick >> 32) as usize % summaries[stage].out_channels;
            set_threshold(&mut value, stage, row, HwThreshold { bound, negate });
        }
        let hw = HardwareBnn::from_value(&value).unwrap();
        let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, 1.0);
        assert_bnn_batch_paths_match_reference(&hw, &batch, threads, split)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The BNN batch path computes `infer_image`'s scores when the first
    /// engine's thresholds sit at the edges of its reachable accumulation
    /// `±F`, `F = 128·fan_in` (pixels are at most 128 in magnitude):
    /// bounds that always or never fire (`i64::MIN`/`i64::MAX`, which the
    /// lane keys clamp to `i32`, and `±(F + 1)`), the reach `±F`, one
    /// inside it `±(F − 1)`, and `−1`, `0`, `1`, each in both comparison
    /// directions, written into the serialised first stage and loaded
    /// through the checked deserializer. First-engine widths fill part of
    /// a 64-channel word, exactly one, or straddle two and three; images
    /// as faint as a few quantisation steps put the lane sums on the
    /// small bounds.
    #[test]
    fn bnn_batch_path_matches_reference_on_first_engine_edge_thresholds(
        width in 0usize..6,
        edits in proptest::collection::vec((any::<u64>(), 0usize..11, any::<bool>()), 1..40),
        edge in 5usize..9, faint in 0usize..3,
        seed in any::<u64>(), n in 1usize..6, threads in 1usize..4, split in 1usize..6
    ) {
        const WIDTHS: [usize; 6] = [8, 63, 64, 65, 128, 130];
        let topo = FinnTopology::try_new(3, edge, edge, vec![WIDTHS[width]], vec![false], vec![16, 12], 10)
            .unwrap();
        let mut rng = TensorRng::seed_from(seed);
        let hw = HardwareBnn::from_classifier(&BnnClassifier::new(topo, &mut rng).unwrap()).unwrap();
        let first = &hw.stage_summaries()[0];
        let reach = 128 * first.fan_in as i64;
        let mut value = hw.to_value();
        for &(pick, kind, negate) in &edits {
            let bound = [
                i64::MIN, i64::MAX, reach + 1, -(reach + 1), reach, -reach,
                reach - 1, -(reach - 1), -1, 0, 1,
            ][kind];
            let row = (pick >> 32) as usize % first.out_channels;
            set_threshold(&mut value, 0, row, HwThreshold { bound, negate });
        }
        let hw = HardwareBnn::from_value(&value).unwrap();
        let sigma = [0.004, 0.05, 1.0][faint];
        let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, sigma);
        assert_bnn_batch_paths_match_reference(&hw, &batch, threads, split)?;
    }
}

/// Maps wider than 64 pixels, which a layout packing one activation row
/// per word cannot hold: the batch path must still match `infer_image`.
#[test]
fn bnn_batch_path_matches_reference_on_a_70_pixel_image() {
    let topo = FinnTopology::new(3, 70, 70, vec![8, 8], vec![false, true], vec![16, 16], 10);
    let mut rng = TensorRng::seed_from(70);
    let hw = HardwareBnn::from_classifier(&BnnClassifier::new(topo, &mut rng).unwrap()).unwrap();
    let batch = rng.normal(Shape::nchw(3, 3, 70, 70), 0.0, 1.0);
    assert_bnn_batch_paths_match_reference(&hw, &batch, 2, 2).unwrap();
}

/// Shared oracles over the paper topology for the agreement property:
/// one strict (shipped-design budgets are errors) and one exploratory
/// (budgets soften to warnings), so both severity policies are covered.
fn paper_oracles() -> &'static std::sync::Mutex<(Oracle, Oracle)> {
    static ORACLES: OnceLock<std::sync::Mutex<(Oracle, Oracle)>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        let topo = FinnTopology::paper();
        let strict = VerifyTarget::from_topology("props-strict", &topo, Device::zc702());
        let exploratory =
            VerifyTarget::from_topology("props-exploratory", &topo, Device::zu3eg()).exploratory();
        std::sync::Mutex::new((Oracle::new(&strict), Oracle::new(&exploratory)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fast in-memory feasibility oracle must agree with the full
    /// batch verifier on the error-severity verdict for *any* candidate:
    /// `Oracle::check` says Feasible exactly when `verify` over the
    /// reconstructed target reports zero errors. Candidates are drawn
    /// adversarially — per-engine `(P, S)` including zeros (degenerate)
    /// and non-divisors (illegal folds), crossed with no precision, a
    /// valid uniform profile, the explicit 1-bit profile, and a
    /// wrong-length profile — under both the strict and the exploratory
    /// severity policies.
    #[test]
    fn oracle_verdict_agrees_with_full_verifier(
        ps in proptest::collection::vec((0usize..40, 0usize..40), 9),
        precision_sel in 0usize..4,
        a_sel in 0usize..3, w_sel in 0usize..3,
        strict in any::<bool>()
    ) {
        let mut guard = paper_oracles().lock().unwrap();
        let oracle = if strict { &mut guard.0 } else { &mut guard.1 };
        let n = oracle.engines().len();
        prop_assert_eq!(n, 9, "paper chain depth changed; widen the ps vector");
        let folding = Folding::new_unchecked(
            ps.iter().map(|&(p, s)| EngineFolding { p, s }).collect(),
        );
        let (a_bits, w_bits) = ([2usize, 4, 8][a_sel], [2usize, 4, 8][w_sel]);
        let precision = match precision_sel {
            0 => None,
            1 => Some(NetworkPrecision::uniform(n, a_bits, w_bits).unwrap()),
            2 => Some(NetworkPrecision::one_bit(n).unwrap()),
            _ => Some(NetworkPrecision::uniform(3, a_bits, w_bits).unwrap()),
        };
        let cand = Candidate { folding, precision };
        let fast = oracle.check(&cand);
        let report = verify(&oracle.target(&cand));
        prop_assert_eq!(
            fast.is_feasible(),
            !report.has_errors(),
            "oracle/verifier disagreement (strict={}) on {:?}:\n{}",
            strict,
            &cand,
            report.render_human()
        );
    }
}

//! Golden-diagnostic tests: deliberately broken pipeline
//! configurations, built through the public API, pinned to the stable
//! `MP0xxx` codes they must report. These are the compatibility
//! contract for the diagnostic codes — renumbering a code breaks this
//! suite on purpose.

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_core::dmu::Dmu;
use mp_fpga::device::Device;
use mp_fpga::folding::{EngineFolding, Folding, FoldingSearch};
use mp_fpga::memory::MemoryModel;
use mp_host::zoo::{self, ModelId};
use mp_tensor::init::TensorRng;
use mp_verify::{codes, verify, Severity, VerifyTarget};

/// The shipped paper configuration — folding, partitioned memory, DMU —
/// must verify with zero diagnostics of any severity.
#[test]
fn golden_paper_anchor_is_spotless() {
    let topo = FinnTopology::paper();
    let engines = topo.engines();
    let folding = FoldingSearch::new(&engines).balanced(232_558);
    let dmu = Dmu::new(topo.classes());
    let target = VerifyTarget::from_topology("paper-anchor", &topo, Device::zc702())
        .with_folding(folding)
        .with_memory(MemoryModel::partitioned())
        .with_dmu(&dmu);
    let report = verify(&target);
    assert!(
        report.diagnostics.is_empty(),
        "expected a spotless report, got:\n{}",
        report.render_human()
    );
}

/// A freshly folded hardware BNN passes the threshold analysis: the
/// right number of thresholds per stage, all within the static
/// accumulator intervals' representable range.
#[test]
fn golden_folded_hardware_is_clean() {
    let topo = FinnTopology::scaled(8, 8, 8);
    let mut rng = TensorRng::seed_from(7);
    let bnn = BnnClassifier::new(topo.clone(), &mut rng).expect("classifier builds");
    let hw = HardwareBnn::from_classifier(&bnn).expect("hardware folds");
    let target =
        VerifyTarget::from_topology("scaled-hw", &topo, Device::zc702()).with_hardware(&hw);
    let report = verify(&target);
    assert!(
        !report.has_code(codes::THRESHOLD_COUNT),
        "{}",
        report.render_human()
    );
    assert!(!report.has_errors(), "{}", report.render_human());
}

/// Channel-chain mismatch between consecutive engines → MP0101.
#[test]
fn golden_channel_mismatch_is_mp0101() {
    let topo = FinnTopology::paper();
    let mut target = VerifyTarget::from_topology("broken-chain", &topo, Device::zc702());
    target.engines[1].in_channels = 48; // engine 0 produces 64
    let report = verify(&target);
    assert!(
        report.has_code(codes::CHANNEL_CHAIN),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// Spatial-chain mismatch between consecutive engines → MP0102.
#[test]
fn golden_spatial_mismatch_is_mp0102() {
    let topo = FinnTopology::paper();
    let mut target = VerifyTarget::from_topology("broken-spatial", &topo, Device::zc702());
    target.engines[1].in_height += 3;
    let report = verify(&target);
    assert!(
        report.has_code(codes::SPATIAL_CHAIN),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A fully-parallel folding blows both the BRAM and LUT budgets on the
/// ZC702 → MP0306/MP0307 at error severity when the target requires
/// fit, and only warnings for an exploratory design point.
#[test]
fn golden_over_budget_folding_is_mp0306_mp0307() {
    let topo = FinnTopology::paper();
    let engines = topo.engines();
    let full = || {
        Folding::new(
            engines
                .iter()
                .map(|e| EngineFolding::new(e.weight_rows(), e.weight_cols()))
                .collect(),
        )
    };
    let strict = VerifyTarget::from_topology("full-parallel", &topo, Device::zc702())
        .with_folding(full())
        .with_memory(MemoryModel::naive());
    let report = verify(&strict);
    assert!(
        report.has_code(codes::LUT_BUDGET),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());

    let exploratory = VerifyTarget::from_topology("full-parallel", &topo, Device::zc702())
        .with_folding(full())
        .with_memory(MemoryModel::naive())
        .exploratory();
    let report = verify(&exploratory);
    assert!(!report.has_errors(), "{}", report.render_human());
    assert_eq!(report.max_severity(), Some(Severity::Warning));
}

/// A DMU sized for the wrong class count → MP0105.
#[test]
fn golden_dmu_width_mismatch_is_mp0105() {
    let topo = FinnTopology::paper();
    let dmu = Dmu::new(12); // pipeline produces 10 scores
    let target = VerifyTarget::from_topology("dmu-mismatch", &topo, Device::zc702()).with_dmu(&dmu);
    let report = verify(&target);
    assert!(
        report.has_code(codes::DMU_WIDTH),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A folding smuggling a zero lane count past the constructor (via the
/// test-only unchecked path) → MP0301.
#[test]
fn golden_zero_folding_is_mp0301() {
    let topo = FinnTopology::paper();
    let engines = topo.engines();
    let mut lanes: Vec<EngineFolding> = engines.iter().map(|_| EngineFolding::new(1, 1)).collect();
    lanes[3] = EngineFolding { p: 0, s: 4 };
    let target = VerifyTarget::from_topology("zero-fold", &topo, Device::zc702())
        .with_folding(Folding::new_unchecked(lanes));
    let report = verify(&target);
    assert!(
        report.has_code(codes::FOLDING_ZERO),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A NaN parameter in a host layer → MP0206 error; an infinite
/// parameter → MP0207 warning.
#[test]
fn golden_host_nan_taint_is_mp0206() {
    let mut rng = TensorRng::seed_from(11);
    let mut net = zoo::build_fast(ModelId::A, &mut rng).expect("model builds");
    let mut pair = 0usize;
    net.visit_params(&mut |param, _grad| {
        match pair {
            0 => param.as_mut_slice()[0] = f32::NAN,
            1 => param.as_mut_slice()[0] = f32::INFINITY,
            _ => {}
        }
        pair += 1;
    });
    let target = VerifyTarget::host_only("poisoned-host", &net, 10, Device::zc702());
    let report = verify(&target);
    assert!(
        report.has_code(codes::NAN_TAINT),
        "{}",
        report.render_human()
    );
    assert!(
        report.has_code(codes::INF_PARAM),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A target with no engines and nothing else attached → MP0208; the
/// interval pass used to compute `len().wrapping_sub(1)` on the empty
/// list and silently skip all last-engine special-casing instead.
#[test]
fn golden_empty_target_is_mp0208() {
    let target = VerifyTarget::from_engines("empty", Vec::new(), None, 10, Device::zc702());
    let report = verify(&target);
    assert!(
        report.has_code(codes::EMPTY_TARGET),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A host-only target (empty engine list, host attached) stays a
/// legitimate configuration: no MP0208.
#[test]
fn golden_host_only_target_is_not_mp0208() {
    let mut rng = TensorRng::seed_from(13);
    let net = zoo::build_fast(ModelId::A, &mut rng).expect("model builds");
    let target = VerifyTarget::host_only("host-only", &net, 10, Device::zc702());
    let report = verify(&target);
    assert!(
        !report.has_code(codes::EMPTY_TARGET),
        "{}",
        report.render_human()
    );
}

/// Reports serialize to JSON with the code strings intact, so
/// `results/lint_report.json` is greppable by code.
#[test]
fn golden_report_serializes_codes() {
    let topo = FinnTopology::paper();
    let mut target = VerifyTarget::from_topology("json", &topo, Device::zc702());
    target.engines[1].in_channels = 48;
    let report = verify(&target);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(
        json.contains("MP0101"),
        "serialized report lacks the code: {json}"
    );
    assert!(json.contains("\"target\""));
}

/// A declared multi-bit precision over the unmodified 1-bit chain: the
/// inner engines' lanes are too narrow for the activations → MP0401.
#[test]
fn golden_unsynthesized_quantized_chain_is_mp0401() {
    let topo = FinnTopology::paper();
    let n = topo.engines().len();
    let mut target =
        VerifyTarget::from_topology("narrow-lanes", &topo, Device::zu3eg()).exploratory();
    target.precision = Some(mp_int::NetworkPrecision::uniform(n, 4, 4).expect("widths"));
    let report = verify(&target);
    assert!(
        report.has_code(codes::MIXED_CHAIN),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// A quantized accumulator interval that escapes the i32 fast path
/// (huge fan-in × (2^8−1)² levels) → MP0402.
#[test]
fn golden_quantized_i32_overflow_is_mp0402() {
    let topo = FinnTopology::paper();
    let n = topo.engines().len();
    let precision = mp_int::NetworkPrecision::uniform(n, 8, 8).expect("widths");
    let mut target =
        VerifyTarget::from_topology("quant-overflow", &topo, Device::zu3eg()).exploratory();
    target.engines = mp_verify::synthesize_quantized_chain(&target.engines, &precision);
    // fan_in = 9 · 4096 = 36 864; 36 864 · 255² ≈ 2.4e9 — the doubled
    // magnitude escapes i32 (the binary interval, ±fan_in·2^7, does
    // not, so only the quantized proof can catch this).
    target.engines[2].in_channels = 4096;
    target.precision = Some(precision);
    let report = verify(&target);
    assert!(
        report.has_code(codes::QUANT_ACC_OVERFLOW),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// 8-bit weight planes blow the small device's BRAM budget on a strict
/// target → MP0403 at error severity, quoting the far larger
/// bit-plane-scaled demand (the base accounting of the widened chain
/// may overflow too — MP0306 — but MP0403 prices the planes).
#[test]
fn golden_quantized_bram_budget_is_mp0403() {
    let topo = FinnTopology::paper();
    let n = topo.engines().len();
    let precision = mp_int::NetworkPrecision::uniform(n, 8, 8).expect("widths");
    let mut device = Device::zc702();
    device.luts = 100_000_000; // isolate the BRAM axis
    let mut target = VerifyTarget::from_topology("quant-bram", &topo, device);
    target.engines = mp_verify::synthesize_quantized_chain(&target.engines, &precision);
    let folding = FoldingSearch::new(&target.engines).balanced(232_558);
    target.folding = Some(folding);
    target.memory = MemoryModel::partitioned();
    target.precision = Some(precision);
    let report = verify(&target);
    assert!(
        report.has_code(codes::QUANT_BRAM_BUDGET),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// 8-bit datapath lanes blow the LUT budget once BRAM is taken out of
/// the picture → MP0404.
#[test]
fn golden_quantized_lut_budget_is_mp0404() {
    let topo = FinnTopology::paper();
    let n = topo.engines().len();
    let precision = mp_int::NetworkPrecision::uniform(n, 8, 8).expect("widths");
    let mut device = Device::zc702();
    device.bram_18k = 100_000_000; // isolate the LUT axis
    let mut target = VerifyTarget::from_topology("quant-luts", &topo, device);
    target.engines = mp_verify::synthesize_quantized_chain(&target.engines, &precision);
    let folding = FoldingSearch::new(&target.engines).balanced(100_000);
    target.folding = Some(folding);
    target.memory = MemoryModel::partitioned();
    target.precision = Some(precision);
    let report = verify(&target);
    assert!(
        report.has_code(codes::QUANT_LUT_BUDGET),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// Lanes wider than the declared activations (an 8-bit chain declared
/// to run 2-bit) are legal but wasteful → MP0405 at warning severity.
#[test]
fn golden_overwide_lanes_are_mp0405_warning() {
    let topo = FinnTopology::paper();
    let n = topo.engines().len();
    let wide = mp_int::NetworkPrecision::uniform(n, 8, 8).expect("widths");
    let narrow = mp_int::NetworkPrecision::uniform(n, 2, 2).expect("widths");
    let mut target =
        VerifyTarget::from_topology("overwide-lanes", &topo, Device::zu3eg()).exploratory();
    target.engines = mp_verify::synthesize_quantized_chain(&target.engines, &wide);
    target.precision = Some(narrow);
    let report = verify(&target);
    assert!(
        report.has_code(codes::MIXED_OVERWIDE),
        "{}",
        report.render_human()
    );
    assert!(
        !report.has_errors(),
        "over-provisioning is a lint, not an error:\n{}",
        report.render_human()
    );
}

/// The canonical 2-stage DMU cascade, resolved at paper timing, passes
/// the cascade pass with zero diagnostics.
#[test]
fn golden_dmu_cascade_shape_is_spotless() {
    use mp_core::{CascadePolicy, PipelineTiming};

    let topo = FinnTopology::paper();
    let timing = PipelineTiming::new(1.0 / 21_900.0, 1.0 / 91.0, 64);
    let shape = CascadePolicy::dmu(0.7).shape(&timing);
    let target =
        VerifyTarget::from_topology("dmu-cascade", &topo, Device::zc702()).with_cascade(shape);
    let report = verify(&target);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code.starts_with("MP05")),
        "{}",
        report.render_human()
    );
}

/// Gate on the terminal stage / missing gate on a non-final stage →
/// MP0502; out-of-range gate → MP0503.
#[test]
fn golden_cascade_gate_misplacement_is_mp0502_mp0503() {
    use mp_core::{CascadeShape, StageShape};

    let topo = FinnTopology::paper();
    let broken = CascadeShape {
        stages: vec![
            StageShape {
                label: "1bit".into(),
                gate: None,
                unit_cost_s: 0.002,
            },
            StageShape {
                label: "a4w4-x8".into(),
                gate: Some(1.7),
                unit_cost_s: 0.008,
            },
            StageShape {
                label: "float32".into(),
                gate: Some(0.5),
                unit_cost_s: 0.033,
            },
        ],
    };
    let target =
        VerifyTarget::from_topology("broken-cascade", &topo, Device::zc702()).with_cascade(broken);
    let report = verify(&target);
    assert!(
        report.has_code(codes::CASCADE_GATE_PLACEMENT),
        "{}",
        report.render_human()
    );
    assert!(
        report.has_code(codes::CASCADE_GATE_RANGE),
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

/// Dead downstream stages (gate 0.0) and an inverted cost ordering are
/// warnings — the chain runs, but the configuration is wasteful →
/// MP0504 + MP0506, no errors.
#[test]
fn golden_cascade_dead_stage_and_cost_order_warn() {
    use mp_core::{CascadeShape, StageShape};

    let topo = FinnTopology::paper();
    let wasteful = CascadeShape {
        stages: vec![
            StageShape {
                label: "a4w4-x8".into(),
                gate: Some(0.0),
                unit_cost_s: 0.008,
            },
            StageShape {
                label: "1bit".into(),
                gate: Some(0.5),
                unit_cost_s: 0.002,
            },
            StageShape {
                label: "float32".into(),
                gate: None,
                unit_cost_s: 0.033,
            },
        ],
    };
    let target = VerifyTarget::from_topology("wasteful-cascade", &topo, Device::zc702())
        .with_cascade(wasteful);
    let report = verify(&target);
    assert!(
        report.has_code(codes::CASCADE_UNREACHABLE),
        "{}",
        report.render_human()
    );
    assert!(
        report.has_code(codes::CASCADE_COST_ORDER),
        "{}",
        report.render_human()
    );
    assert!(!report.has_errors(), "{}", report.render_human());
}

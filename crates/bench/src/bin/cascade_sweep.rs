//! `cascade_sweep`: the Pareto front of N-stage confidence cascades
//! against the paper's 2-stage DMU baseline.
//!
//! The paper's decision subsystem is one threshold between the BNN and
//! the float host. [`CascadePolicy`] generalises it to an N-stage chain;
//! this bench measures what that generality buys. Per target accuracy it
//! tunes, over the same gate grid:
//!
//! - the **2-stage baseline** — primary → host, the `dmu(t)` shape;
//! - the **3-stage cascade** — primary → 4-bit quantized → host.
//!
//! Because [`tune_gates`] searches every sub-chain, the 3-stage front
//! must *dominate or match* the 2-stage front at every swept target —
//! that is the CI gate (`--smoke` runs the same assertions on the tiny
//! profile). Two more gates pin the API contract itself:
//!
//! - an explicit `CascadePolicy::dmu(t)` executes **bit-identically**
//!   to the pipeline's constructor threshold `t` (predictions, flags,
//!   modeled time);
//! - the executor's measured per-stage traffic and accuracy equal the
//!   tuner's calibration-set evaluation at the tuned gates.
//!
//! Writes `results/cascade_pareto.json`; any gate failure exits
//! non-zero.

use std::sync::Arc;

use serde::Serialize;

use mp_bench::{pct, write_record, CliOptions, TextTable};
use mp_core::cascade::{evaluate_chain, tune_gates, StageProfile, TunedCascade};
use mp_core::dmu::Dmu;
use mp_core::experiment::TrainedSystem;
use mp_core::{CascadePolicy, CascadeStage, PipelineTiming, StageClassifier};
use mp_host::zoo::ModelId;
use mp_int::{CostLut, NetworkPrecision, QuantBnn};
use mp_nn::Network;
use mp_tensor::Tensor;

/// One tuned operating point on a front.
#[derive(Debug, Serialize)]
struct PointRecord {
    /// Stage labels in escalation order.
    stages: Vec<String>,
    /// Gates on the non-terminal stages.
    gates: Vec<f32>,
    /// Calibration accuracy at those gates.
    accuracy: f64,
    /// Expected serial cost per image (seconds).
    expected_cost_s: f64,
    /// Images entering each stage.
    entered: Vec<usize>,
}

#[derive(Debug, Serialize)]
struct TargetRecord {
    target_accuracy: f64,
    two_stage: Option<PointRecord>,
    n_stage: Option<PointRecord>,
    /// The acceptance gate: the N-stage front reaches the target at a
    /// cost no worse than the 2-stage baseline (vacuously true when the
    /// target is infeasible for both).
    dominates_or_matches: bool,
}

#[derive(Debug, Serialize)]
struct CascadeParetoRecord {
    seed: u64,
    smoke: bool,
    test_images: usize,
    host_model: String,
    /// Stage labels of the full chain the sweep tunes over.
    stage_labels: Vec<String>,
    /// Modeled per-image cost of each stage (seconds).
    stage_unit_costs_s: Vec<f64>,
    gate_grid: Vec<f32>,
    /// Gate: `CascadePolicy::dmu(t)` ran bit-identically to the
    /// constructor threshold `t`.
    dmu_bit_identical: bool,
    /// Gate: the executor's traffic/accuracy matched the tuner's
    /// calibration evaluation at the tuned gates.
    executor_matches_evaluator: bool,
    /// Gate: the N-stage front dominated or matched the 2-stage
    /// baseline at every swept target.
    front_dominates: bool,
    targets: Vec<TargetRecord>,
}

fn point(profiles: &[&StageProfile], tuned: &TunedCascade) -> PointRecord {
    PointRecord {
        stages: tuned
            .stage_indices
            .iter()
            .map(|&i| profiles[i].label.clone())
            .collect(),
        gates: tuned.gates.clone(),
        accuracy: tuned.eval.accuracy,
        expected_cost_s: tuned.eval.expected_cost_s,
        entered: tuned.eval.entered.clone(),
    }
}

/// Measures one scored stage unconditionally over the test set.
fn profile_from_scores(
    label: String,
    scores: &Tensor,
    labels: &[usize],
    dmu: &Dmu,
    unit_cost_s: f64,
) -> StageProfile {
    let preds = Network::argmax_rows(scores).expect("argmax");
    StageProfile {
        label,
        confidence: dmu.predict_batch(scores).expect("dmu confidence"),
        correct: preds.iter().zip(labels).map(|(p, l)| p == l).collect(),
        unit_cost_s,
    }
}

fn main() {
    let opts = CliOptions::parse();
    let config = opts.experiment_config();
    println!(
        "cascade_sweep: training system (seed {}, smoke {})",
        opts.seed, opts.smoke
    );
    let sys = TrainedSystem::prepare(&config).expect("system preparation");
    let id = ModelId::ALL[0];
    let run_opts = sys.run_options(id).expect("run options");
    let timing: PipelineTiming = *run_opts.timing();
    let labels = sys.test.labels();
    let lut = CostLut::mpic();

    // Gate 1: dmu(t) is bit-identical to the constructor threshold t.
    let by_threshold = sys.execute(id, &run_opts).expect("threshold run");
    let via_cascade = sys
        .execute(
            id,
            &run_opts
                .clone()
                .with_cascade(CascadePolicy::dmu(sys.config.threshold)),
        )
        .expect("dmu cascade run");
    let dmu_bit_identical = by_threshold.predictions == via_cascade.predictions
        && by_threshold.flagged == via_cascade.flagged
        && by_threshold.modeled_time_s == via_cascade.modeled_time_s
        && by_threshold.degraded_count == via_cascade.degraded_count;

    // Unconditional per-stage calibration profiles over the test set.
    let layers = sys.bnn.export_latent().len();
    let quant = Arc::new(
        QuantBnn::from_classifier(&sys.bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap())
            .expect("4-bit quantisation"),
    );
    let quant_factor = quant.network_cost_factor(&lut);
    let primary = profile_from_scores(
        StageClassifier::Primary.label(),
        &sys.bnn_test_scores,
        labels,
        &sys.dmu,
        timing.t_bnn_img_s,
    );
    let quant_scores = quant.infer_batch(sys.test.images()).expect("quant batch");
    let mid = profile_from_scores(
        quant.precision().to_string(),
        &quant_scores,
        labels,
        &sys.dmu,
        timing.t_bnn_img_s * quant_factor,
    );
    let host_scores = sys
        .host(id)
        .infer_batch_with(sys.test.images(), mp_tensor::Parallelism::sequential())
        .expect("host batch");
    let host_preds = Network::argmax_rows(&host_scores).expect("host argmax");
    let terminal = StageProfile {
        label: StageClassifier::HostFloat.label(),
        // Terminal confidence is never gated; NaN documents that.
        confidence: vec![f32::NAN; labels.len()],
        correct: host_preds.iter().zip(labels).map(|(p, l)| p == l).collect(),
        unit_cost_s: timing.t_fp_img_s,
    };

    let chain = [primary, mid, terminal];
    let stage_labels: Vec<String> = chain.iter().map(|p| p.label.clone()).collect();
    let stage_unit_costs_s: Vec<f64> = chain.iter().map(|p| p.unit_cost_s).collect();
    let two_stage_profiles = [chain[0].clone(), chain[2].clone()];
    let grid: Vec<f32> = (0..=10).map(|i| i as f32 / 10.0).collect();

    // Sweep targets from the primary stage's solo accuracy up to the
    // host ceiling.
    let acc0 = chain[0].correct.iter().filter(|&&c| c).count() as f64 / labels.len() as f64;
    let acc_host = chain[2].correct.iter().filter(|&&c| c).count() as f64 / labels.len() as f64;
    let steps = if opts.smoke { 2 } else { 4 };
    let mut targets = Vec::new();
    let mut front_dominates = true;
    for k in 0..=steps {
        let target = acc0 + (acc_host - acc0) * k as f64 / steps as f64;
        let two = tune_gates(&two_stage_profiles, target, &grid).expect("2-stage tuning");
        let n = tune_gates(&chain, target, &grid).expect("n-stage tuning");
        let dominates_or_matches = match (&two, &n) {
            (Some(t2), Some(tn)) => {
                tn.eval.expected_cost_s <= t2.eval.expected_cost_s + 1e-12
                    && tn.eval.accuracy + 1e-12 >= target
            }
            // A target the baseline reaches but the cascade cannot is a
            // regression; an infeasible target is vacuously fine.
            (Some(_), None) => false,
            (None, _) => true,
        };
        front_dominates &= dominates_or_matches;
        targets.push(TargetRecord {
            target_accuracy: target,
            two_stage: two
                .as_ref()
                .map(|t| point(&[&two_stage_profiles[0], &two_stage_profiles[1]], t)),
            n_stage: n
                .as_ref()
                .map(|t| point(&[&chain[0], &chain[1], &chain[2]], t)),
            dominates_or_matches,
        });
    }

    // Gate 3: executing the tuned chain reproduces the calibration
    // evaluation — per-stage traffic and accuracy — at the hardest
    // feasible target.
    let mut executor_matches_evaluator = true;
    if let Some(tuned) = targets
        .iter()
        .rev()
        .find_map(|t| t.n_stage.as_ref())
        .map(|p| (p.stages.clone(), p.gates.clone()))
    {
        let (tuned_labels, tuned_gates) = tuned;
        let mut stages = Vec::new();
        let mut gate_iter = tuned_gates.iter();
        for label in &tuned_labels {
            let classifier = if *label == chain[0].label {
                StageClassifier::Primary
            } else if *label == chain[1].label {
                StageClassifier::Quantized(Arc::clone(&quant))
            } else {
                StageClassifier::HostFloat
            };
            match gate_iter.next() {
                Some(&g) => stages.push(CascadeStage::gated(classifier, g)),
                None => stages.push(CascadeStage::terminal(classifier)),
            }
        }
        let policy = CascadePolicy::try_new(stages).expect("tuned policy");
        let run = sys
            .execute(id, &run_opts.clone().with_cascade(policy))
            .expect("tuned cascade run");
        let profile_refs: Vec<&StageProfile> = tuned_labels
            .iter()
            .map(|l| chain.iter().find(|p| p.label == *l).expect("known stage"))
            .collect();
        let eval = evaluate_chain(&profile_refs, &tuned_gates);
        let traffic_entered: Vec<usize> = run.stage_traffic.iter().map(|t| t.entered).collect();
        let traffic_accepted: Vec<usize> = run.stage_traffic.iter().map(|t| t.accepted).collect();
        executor_matches_evaluator = traffic_entered == eval.entered
            && traffic_accepted == eval.accepted
            && (run.accuracy - eval.accuracy).abs() < 1e-9;
        if !executor_matches_evaluator {
            eprintln!(
                "executor traffic {traffic_entered:?}/{traffic_accepted:?} acc {:.4} vs \
                 evaluator {:?}/{:?} acc {:.4}",
                run.accuracy, eval.entered, eval.accepted, eval.accuracy
            );
        }
    }

    let mut table = TextTable::new(&["target", "2-stage cost", "3-stage cost", "3-stage gates"]);
    for t in &targets {
        table.row(&[
            pct(t.target_accuracy),
            t.two_stage
                .as_ref()
                .map_or("—".into(), |p| format!("{:.6}s", p.expected_cost_s)),
            t.n_stage
                .as_ref()
                .map_or("—".into(), |p| format!("{:.6}s", p.expected_cost_s)),
            t.n_stage
                .as_ref()
                .map_or("—".into(), |p| format!("{:?}", p.gates)),
        ]);
    }
    table.print("cascade Pareto front (expected serial cost per image)");
    println!(
        "dmu bit-identical: {dmu_bit_identical}; executor matches evaluator: \
         {executor_matches_evaluator}; front dominates: {front_dominates}"
    );

    let record = CascadeParetoRecord {
        seed: opts.seed,
        smoke: opts.smoke,
        test_images: sys.test.len(),
        host_model: id.name().to_owned(),
        stage_labels,
        stage_unit_costs_s,
        gate_grid: grid,
        dmu_bit_identical,
        executor_matches_evaluator,
        front_dominates,
        targets,
    };
    write_record("cascade_pareto", &record);

    if !dmu_bit_identical || !executor_matches_evaluator || !front_dominates {
        eprintln!("cascade_sweep: acceptance gate failed");
        std::process::exit(1);
    }
}

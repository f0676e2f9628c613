//! N-stage confidence cascades — the first-class decision API.
//!
//! The paper's DMU is a hard-wired **2-stage cascade**: the BNN
//! classifies every image, and one confidence threshold decides which
//! images the float host re-infers. CascadeCNN-style systems generalise
//! this to an ordered chain of classifiers of increasing precision and
//! cost, each with its own confidence gate: an image is accepted by the
//! first stage confident enough to keep it, and escalates otherwise.
//! [`CascadePolicy`] is that chain, validated at construction
//! (`try_new` + checked `Deserialize`, the repo's config convention)
//! and consumed by
//! [`RunOptions::with_cascade`](crate::run::RunOptions::with_cascade) /
//! [`MultiPrecisionPipeline::execute`](crate::pipeline::MultiPrecisionPipeline::execute).
//!
//! The paper's threshold is the canonical 2-stage instance:
//! [`CascadePolicy::dmu`]`(t)` ≡ "low-precision stage gated at `t`,
//! float host terminal". It is also what a pipeline runs by default:
//! [`MultiPrecisionPipeline::new`](crate::pipeline::MultiPrecisionPipeline::new)
//! turns its threshold into `dmu(t)`, and the modeled executor walks
//! every policy, 2-stage or deeper, through the same stage loop.
//!
//! Gate semantics are NaN-safe by construction: a stage accepts an
//! image only when [`gate_accepts`] holds, and `NaN >= t` is `false`,
//! so an image whose confidence is poisoned (NaN logits anywhere in the
//! stage) always **escalates** toward higher precision — it can never
//! silently pass a gate.
//!
//! [`tune_gates`] is the cost-aware tuner: given per-stage
//! [`StageProfile`]s measured on a calibration set, it picks the gates
//! (and, where it pays, drops intermediate stages entirely) that reach
//! a target accuracy at minimum expected per-image cost. Because the
//! search space includes every sub-chain, an N-stage tuned cascade can
//! never do worse than the best 2-stage instance over the same grid —
//! the Pareto guarantee the `cascade_sweep` bench gates in CI.

use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Value};

use mp_int::{CostLut, QuantBnn};

use crate::pipeline::PipelineTiming;
use crate::CoreError;

/// NaN-safe gate test: does confidence `p` pass a gate at `gate`?
///
/// This is the **single** acceptance predicate of the decision
/// subsystem — the DMU threshold path
/// ([`Dmu::estimate_batch`](crate::dmu::Dmu::estimate_batch)) and the
/// cascade executor both route through it. `p >= gate` is `false` for
/// a NaN confidence, so a poisoned image always escalates to the next
/// (higher-precision) stage instead of silently keeping a garbage
/// prediction.
#[inline]
pub fn gate_accepts(p: f32, gate: f32) -> bool {
    p >= gate
}

/// The classifier a cascade stage runs.
#[derive(Debug, Clone)]
pub enum StageClassifier {
    /// The pipeline's own 1-bit `HardwareBnn` (the paper's FPGA
    /// datapath). It is symbolic because the pipeline, not the policy,
    /// owns the engine; any other precision is an explicit
    /// [`Quantized`](Self::Quantized) stage.
    Primary,
    /// An explicit quantized stage, first (the quantized corner) or
    /// intermediate: the [`QuantBnn`] classifies the images that reach
    /// it, the DMU gates on its normalised scores, and its modeled cost
    /// is the 1-bit time scaled by the MAC-weighted MPIC factor.
    Quantized(Arc<QuantBnn>),
    /// The float host network. Always terminal: the host is the
    /// cascade's final authority, and the DMU has no trained confidence
    /// signal for float logits to gate on.
    HostFloat,
}

impl StageClassifier {
    /// Stable stage label, so obs counters, bench records and verify
    /// diagnostics all use identical identifiers: `1bit` for `Primary`,
    /// the per-layer precision string (e.g. `a4w4-…`) for `Quantized`,
    /// `float32` for `HostFloat`.
    pub fn label(&self) -> String {
        match self {
            StageClassifier::Primary => "1bit".to_owned(),
            StageClassifier::Quantized(q) => q.precision().to_string(),
            StageClassifier::HostFloat => "float32".to_owned(),
        }
    }

    /// The serialisation tag: the [`label`](Self::label), except that
    /// `Primary` keeps its symbolic `primary` tag.
    fn tag(&self) -> String {
        match self {
            StageClassifier::Primary => "primary".to_owned(),
            other => other.label(),
        }
    }

    /// Modeled seconds per image on this stage under `timing`: the
    /// 1-bit time, scaled by the MAC-weighted MPIC factor for a
    /// quantized stage, or the host time.
    pub fn unit_cost_s(&self, timing: &PipelineTiming) -> f64 {
        match self {
            StageClassifier::Primary => timing.t_bnn_img_s,
            StageClassifier::Quantized(q) => {
                timing.t_bnn_img_s * q.network_cost_factor(&CostLut::mpic())
            }
            StageClassifier::HostFloat => timing.t_fp_img_s,
        }
    }
}

/// One stage of a cascade: a classifier plus an optional confidence
/// gate. `gate: Some(t)` accepts images with DMU confidence `>= t`
/// ([`gate_accepts`]) and escalates the rest; `gate: None` marks the
/// terminal stage, which accepts everything it receives.
#[derive(Debug, Clone)]
pub struct CascadeStage {
    /// The stage's classifier.
    pub classifier: StageClassifier,
    /// Confidence gate in `[0, 1]`; `None` on the terminal stage.
    pub gate: Option<f32>,
}

impl CascadeStage {
    /// A gated (non-terminal) stage.
    pub fn gated(classifier: StageClassifier, gate: f32) -> Self {
        Self {
            classifier,
            gate: Some(gate),
        }
    }

    /// The terminal stage: accepts every image that reaches it.
    pub fn terminal(classifier: StageClassifier) -> Self {
        Self {
            classifier,
            gate: None,
        }
    }
}

impl Serialize for CascadeStage {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("classifier".to_owned(), Value::Str(self.classifier.tag())),
            ("gate".to_owned(), self.gate.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for CascadeStage {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let tag = String::from_value(value.get_field("classifier")?)?;
        let gate = Option::<f32>::from_value(value.get_field("gate")?)?;
        let classifier = match tag.as_str() {
            "primary" => StageClassifier::Primary,
            "float32" => StageClassifier::HostFloat,
            other => {
                return Err(Error::custom(format!(
                    "stage classifier {other:?}: quantized stages carry a trained \
                     network and must be bound programmatically \
                     (CascadeStage::gated(StageClassifier::Quantized(..), t))"
                )))
            }
        };
        Ok(Self { classifier, gate })
    }
}

/// An ordered, validated chain of cascade stages.
///
/// Invariants (enforced by [`try_new`](Self::try_new) and the checked
/// `Deserialize`):
///
/// - at least one stage;
/// - every stage except the last carries a finite gate in `[0, 1]`;
/// - the last stage carries no gate (it accepts everything);
/// - [`StageClassifier::HostFloat`] appears only as the terminal stage.
#[derive(Debug, Clone)]
pub struct CascadePolicy {
    stages: Vec<CascadeStage>,
}

impl CascadePolicy {
    /// Validates and builds a policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any invariant above is
    /// violated.
    pub fn try_new(stages: Vec<CascadeStage>) -> Result<Self, CoreError> {
        if stages.is_empty() {
            return Err(CoreError::InvalidConfig(
                "cascade must have at least one stage".into(),
            ));
        }
        let last = stages.len() - 1;
        for (i, stage) in stages.iter().enumerate() {
            match (i == last, stage.gate) {
                (false, None) => {
                    return Err(CoreError::InvalidConfig(format!(
                        "cascade stage {i} is not terminal and must carry a gate"
                    )))
                }
                (true, Some(g)) => {
                    return Err(CoreError::InvalidConfig(format!(
                        "terminal cascade stage {i} must not carry a gate (got {g})"
                    )))
                }
                (false, Some(g)) => {
                    if !g.is_finite() || !(0.0..=1.0).contains(&g) {
                        return Err(CoreError::InvalidConfig(format!(
                            "cascade stage {i} gate {g} outside [0,1]"
                        )));
                    }
                }
                (true, None) => {}
            }
            if matches!(stage.classifier, StageClassifier::HostFloat) && i != last {
                return Err(CoreError::InvalidConfig(format!(
                    "cascade stage {i}: the float host must be the terminal stage \
                     (the DMU has no confidence signal for float logits)"
                )));
            }
        }
        Ok(Self { stages })
    }

    /// The canonical 2-stage instance, the paper's DMU threshold: the
    /// 1-bit primary classifier gated at `threshold`, then the float
    /// host.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]` (mirroring
    /// [`MultiPrecisionPipeline::new`](crate::pipeline::MultiPrecisionPipeline::new)).
    pub fn dmu(threshold: f32) -> Self {
        assert!(
            threshold.is_finite() && (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        Self::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, threshold),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .expect("the dmu shape satisfies every invariant")
    }

    /// `Some(t)` when this policy is exactly the DMU shape
    /// ([`dmu`](Self::dmu)`(t)`): the primary classifier gated at `t`,
    /// then the terminal float host. It is the one shape the threaded
    /// executor runs (fault injection included).
    pub fn dmu_threshold(&self) -> Option<f32> {
        match self.stages.as_slice() {
            [CascadeStage {
                classifier: StageClassifier::Primary,
                gate: Some(t),
            }, CascadeStage {
                classifier: StageClassifier::HostFloat,
                gate: None,
            }] => Some(*t),
            _ => None,
        }
    }

    /// The validated stages, in escalation order.
    pub fn stages(&self) -> &[CascadeStage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Always `false` — [`try_new`](Self::try_new) rejects empty
    /// chains; provided for clippy-idiomatic call sites.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Per-stage labels — the shared identifiers obs/bench/verify
    /// report.
    pub fn labels(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.classifier.label()).collect()
    }

    /// The static shape of this cascade under `timing` — what
    /// `mp-verify`'s cascade pass analyses (gate placement/range, cost
    /// monotonicity, reachability) without executing anything.
    pub fn shape(&self, timing: &PipelineTiming) -> CascadeShape {
        CascadeShape {
            stages: self
                .stages
                .iter()
                .map(|s| StageShape {
                    label: s.classifier.label(),
                    gate: s.gate.map(f64::from),
                    unit_cost_s: s.classifier.unit_cost_s(timing),
                })
                .collect(),
        }
    }
}

impl Serialize for CascadePolicy {
    fn to_value(&self) -> Value {
        Value::Map(vec![("stages".to_owned(), self.stages.to_value())])
    }
}

impl<'de> Deserialize<'de> for CascadePolicy {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let stages = Vec::<CascadeStage>::from_value(value.get_field("stages")?)?;
        CascadePolicy::try_new(stages).map_err(Error::custom)
    }
}

/// The statically analysable shape of one cascade stage: its label
/// (shared with obs/bench), its gate, and its modeled per-image cost.
/// Fields are public so verify golden tests can construct deliberately
/// broken shapes field by field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageShape {
    /// Stage label (`1bit`, `a4w4-…`, `float32`).
    pub label: String,
    /// Confidence gate; `None` on the terminal stage.
    pub gate: Option<f64>,
    /// Modeled seconds per image on this stage.
    pub unit_cost_s: f64,
}

/// The statically analysable shape of a whole cascade (see
/// [`CascadePolicy::shape`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CascadeShape {
    /// Stage shapes in escalation order.
    pub stages: Vec<StageShape>,
}

// ---------------------------------------------------------------------------
// Cost-aware gate tuning
// ---------------------------------------------------------------------------

/// Per-stage calibration measurements the tuner searches over: for one
/// candidate stage, the DMU confidence, the stage's own correctness per
/// calibration image, and the stage's modeled per-image cost. Profiles
/// are measured **unconditionally** (every stage scores every
/// calibration image) so the tuner can evaluate any gate combination
/// without re-running inference.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Stage label (shared naming scheme — see [`StageClassifier::label`]).
    pub label: String,
    /// DMU confidence per calibration image (NaN allowed: a NaN
    /// confidence never passes a gate).
    pub confidence: Vec<f32>,
    /// Whether this stage classifies each calibration image correctly.
    pub correct: Vec<bool>,
    /// Modeled seconds per image on this stage.
    pub unit_cost_s: f64,
}

/// The outcome of evaluating one gate assignment over calibration data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CascadeEval {
    /// Fraction of calibration images whose accepting stage classified
    /// them correctly.
    pub accuracy: f64,
    /// Expected serial cost per image: `Σ_s entered_s · c_s / n`. (The
    /// executor additionally reports the batch-overlapped time; the
    /// tuner optimises the serial expectation, which upper-bounds it.)
    pub expected_cost_s: f64,
    /// Images entering each stage.
    pub entered: Vec<usize>,
    /// Images accepted at each stage.
    pub accepted: Vec<usize>,
}

/// One tuned operating point: which profile indices form the chain,
/// the gates on its non-terminal stages, and the evaluation.
#[derive(Debug, Clone)]
pub struct TunedCascade {
    /// Indices into the tuner's profile list, in escalation order
    /// (always ends with the terminal profile).
    pub stage_indices: Vec<usize>,
    /// Gates for each non-terminal chain stage.
    pub gates: Vec<f32>,
    /// The evaluation at those gates.
    pub eval: CascadeEval,
}

/// Evaluates a chain of `profiles` (last = terminal) at `gates`
/// (`gates.len() == profiles.len() - 1`) over the calibration set.
///
/// # Panics
///
/// Panics if the profile/gate arities disagree or profiles have
/// mismatched lengths.
pub fn evaluate_chain(profiles: &[&StageProfile], gates: &[f32]) -> CascadeEval {
    assert!(!profiles.is_empty(), "chain must have at least one stage");
    assert_eq!(
        gates.len(),
        profiles.len() - 1,
        "one gate per non-terminal stage"
    );
    let n = profiles[0].correct.len();
    for p in profiles {
        assert_eq!(p.correct.len(), n, "profile length mismatch");
        assert_eq!(p.confidence.len(), n, "profile length mismatch");
    }
    let mut entered = vec![0usize; profiles.len()];
    let mut accepted = vec![0usize; profiles.len()];
    let mut hits = 0usize;
    let mut cost = 0.0f64;
    for img in 0..n {
        for (s, p) in profiles.iter().enumerate() {
            entered[s] += 1;
            cost += p.unit_cost_s;
            let accept = s == profiles.len() - 1 || gate_accepts(p.confidence[img], gates[s]);
            if accept {
                accepted[s] += 1;
                if p.correct[img] {
                    hits += 1;
                }
                break;
            }
        }
    }
    let denom = n.max(1) as f64;
    CascadeEval {
        accuracy: hits as f64 / denom,
        expected_cost_s: cost / denom,
        entered,
        accepted,
    }
}

/// Cost-aware gate tuner: finds the cheapest chain (by expected serial
/// cost) reaching `target_accuracy`, searching every gate combination
/// from `grid` over every sub-chain of `profiles` that keeps the final
/// (terminal) profile. Searching sub-chains is what makes an N-stage
/// cascade dominate-or-match every shorter one: the best 2-stage
/// operating point is itself a candidate.
///
/// Returns `Ok(None)` when no candidate reaches the target (it is above
/// what even the terminal stage alone achieves).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty profile list,
/// mismatched profile lengths, a non-finite/negative stage cost, gate
/// grid values outside `[0, 1]`, or a search space beyond 2^21
/// evaluations (too many stages × grid points).
pub fn tune_gates(
    profiles: &[StageProfile],
    target_accuracy: f64,
    grid: &[f32],
) -> Result<Option<TunedCascade>, CoreError> {
    if profiles.is_empty() {
        return Err(CoreError::InvalidConfig(
            "tuner needs at least the terminal profile".into(),
        ));
    }
    let n = profiles[0].correct.len();
    for (i, p) in profiles.iter().enumerate() {
        if p.correct.len() != n || p.confidence.len() != n {
            return Err(CoreError::InvalidConfig(format!(
                "profile {i} ({}) length mismatch",
                p.label
            )));
        }
        if !p.unit_cost_s.is_finite() || p.unit_cost_s < 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "profile {i} ({}) has invalid unit cost {}",
                p.label, p.unit_cost_s
            )));
        }
    }
    if n == 0 {
        return Err(CoreError::InvalidConfig(
            "tuner needs a non-empty calibration set".into(),
        ));
    }
    if grid.is_empty()
        || grid
            .iter()
            .any(|g| !g.is_finite() || !(0.0..=1.0).contains(g))
    {
        return Err(CoreError::InvalidConfig(
            "gate grid must be non-empty with values in [0,1]".into(),
        ));
    }
    let k = profiles.len() - 1; // non-terminal candidates
    let evals: u64 = (0..=k)
        .map(|m| (grid.len() as u64).saturating_pow(m as u32) * binomial(k, m))
        .sum();
    if evals > (1 << 21) {
        return Err(CoreError::InvalidConfig(format!(
            "gate search space of {evals} evaluations is too large; \
             reduce stages or the grid"
        )));
    }
    let mut best: Option<TunedCascade> = None;
    // Every subset of the non-terminal profiles, in escalation order.
    for mask in 0..(1u32 << k) {
        let mut indices: Vec<usize> = (0..k).filter(|i| mask & (1 << i) != 0).collect();
        indices.push(k); // terminal always present
        let chain: Vec<&StageProfile> = indices.iter().map(|&i| &profiles[i]).collect();
        let mut gates = vec![grid[0]; chain.len() - 1];
        search_gates(grid, 0, &mut gates, &mut |gates| {
            let eval = evaluate_chain(&chain, gates);
            if eval.accuracy + 1e-12 < target_accuracy {
                return;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    eval.expected_cost_s < b.eval.expected_cost_s - 1e-15
                        || ((eval.expected_cost_s - b.eval.expected_cost_s).abs() <= 1e-15
                            && eval.accuracy > b.eval.accuracy)
                }
            };
            if better {
                best = Some(TunedCascade {
                    stage_indices: indices.clone(),
                    gates: gates.to_vec(),
                    eval,
                });
            }
        });
    }
    Ok(best)
}

fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut acc = 1u64;
    for i in 0..k.min(n - k) {
        acc = acc * (n - i) as u64 / (i + 1) as u64;
    }
    acc
}

fn search_gates(grid: &[f32], depth: usize, gates: &mut [f32], visit: &mut impl FnMut(&[f32])) {
    if depth == gates.len() {
        visit(gates);
        return;
    }
    for &g in grid {
        gates[depth] = g;
        search_gates(grid, depth + 1, gates, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> Vec<CascadeStage> {
        vec![
            CascadeStage::gated(StageClassifier::Primary, 0.7),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ]
    }

    #[test]
    fn gate_is_nan_safe() {
        assert!(gate_accepts(0.9, 0.5));
        assert!(gate_accepts(0.5, 0.5));
        assert!(!gate_accepts(0.4, 0.5));
        // A NaN confidence must never pass a gate — it escalates.
        assert!(!gate_accepts(f32::NAN, 0.5));
        assert!(!gate_accepts(f32::NAN, 0.0));
    }

    #[test]
    fn try_new_enforces_invariants() {
        assert!(CascadePolicy::try_new(Vec::new()).is_err());
        // Non-terminal stage without a gate.
        assert!(CascadePolicy::try_new(vec![
            CascadeStage::terminal(StageClassifier::Primary),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .is_err());
        // Terminal stage with a gate.
        assert!(
            CascadePolicy::try_new(vec![CascadeStage::gated(StageClassifier::Primary, 0.5)])
                .is_err()
        );
        // Gate out of range / NaN.
        for bad in [-0.1f32, 1.5, f32::NAN] {
            let mut stages = two_stage();
            stages[0].gate = Some(bad);
            assert!(CascadePolicy::try_new(stages).is_err(), "gate {bad}");
        }
        // Host float must be terminal.
        assert!(CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::HostFloat, 0.5),
            CascadeStage::terminal(StageClassifier::Primary),
        ])
        .is_err());
        assert!(CascadePolicy::try_new(two_stage()).is_ok());
        // A single terminal stage (BNN-only) is legal.
        assert!(
            CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::Primary)]).is_ok()
        );
    }

    #[test]
    fn dmu_shape_round_trips_threshold() {
        let policy = CascadePolicy::dmu(0.84);
        assert_eq!(policy.len(), 2);
        assert_eq!(policy.dmu_threshold(), Some(0.84));
        // Anything else is not dmu-shaped.
        let three = CascadePolicy::try_new(vec![
            CascadeStage::gated(StageClassifier::Primary, 0.5),
            CascadeStage::gated(StageClassifier::Primary, 0.8),
            CascadeStage::terminal(StageClassifier::HostFloat),
        ])
        .unwrap();
        assert_eq!(three.dmu_threshold(), None);
        let solo =
            CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::Primary)]).unwrap();
        assert_eq!(solo.dmu_threshold(), None);
    }

    #[test]
    #[should_panic(expected = "threshold must be in [0,1]")]
    fn dmu_rejects_bad_threshold() {
        let _ = CascadePolicy::dmu(1.5);
    }

    #[test]
    fn labels_name_each_stage_classifier() {
        assert_eq!(
            CascadePolicy::dmu(0.5).labels(),
            vec!["1bit".to_owned(), "float32".to_owned()]
        );
        let host_only =
            CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::HostFloat)])
                .unwrap();
        assert_eq!(host_only.labels(), vec!["float32".to_owned()]);
    }

    #[test]
    fn shape_prices_stages_from_timing() {
        let timing = PipelineTiming::new(0.002, 0.03, 10);
        let shape = CascadePolicy::dmu(0.6).shape(&timing);
        assert_eq!(shape.stages.len(), 2);
        assert_eq!(shape.stages[0].label, "1bit");
        assert_eq!(shape.stages[0].gate, Some(f64::from(0.6f32)));
        assert!((shape.stages[0].unit_cost_s - 0.002).abs() < 1e-15);
        assert_eq!(shape.stages[1].label, "float32");
        assert_eq!(shape.stages[1].gate, None);
        assert!((shape.stages[1].unit_cost_s - 0.03).abs() < 1e-15);
        // The float32 corner is the host-only chain, priced at t_fp.
        let float =
            CascadePolicy::try_new(vec![CascadeStage::terminal(StageClassifier::HostFloat)])
                .unwrap()
                .shape(&timing);
        assert_eq!(float.stages.len(), 1);
        assert_eq!(float.stages[0].unit_cost_s, timing.t_fp_img_s);
    }

    #[test]
    fn serialization_round_trips_and_validates() {
        let policy = CascadePolicy::dmu(0.75);
        let json = serde_json::to_string(&policy).unwrap();
        let back: CascadePolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dmu_threshold(), Some(0.75));
        // A broken payload is rejected through try_new, not at use time.
        let bad = r#"{"stages":[{"classifier":"primary","gate":1.7},
                       {"classifier":"float32","gate":null}]}"#;
        assert!(serde_json::from_str::<CascadePolicy>(bad).is_err());
        // Quantized stages cannot come from config files.
        let quant = r#"{"stages":[{"classifier":"a4w4","gate":0.5},
                        {"classifier":"float32","gate":null}]}"#;
        let err = serde_json::from_str::<CascadePolicy>(quant).unwrap_err();
        assert!(format!("{err}").contains("programmatically"), "{err}");
    }

    fn profile(label: &str, conf: &[f32], correct: &[bool], cost: f64) -> StageProfile {
        StageProfile {
            label: label.into(),
            confidence: conf.to_vec(),
            correct: correct.to_vec(),
            unit_cost_s: cost,
        }
    }

    #[test]
    fn evaluate_chain_accounts_traffic_and_accuracy() {
        // 4 images. Stage 0 confident on the first two (one wrong),
        // terminal fixes everything it sees.
        let s0 = profile(
            "1bit",
            &[0.9, 0.8, 0.2, f32::NAN],
            &[true, false, false, true],
            1.0,
        );
        let s1 = profile("float32", &[1.0; 4], &[true; 4], 10.0);
        let eval = evaluate_chain(&[&s0, &s1], &[0.5]);
        assert_eq!(eval.entered, vec![4, 2]);
        assert_eq!(eval.accepted, vec![2, 2]);
        // Accepted: img0 right, img1 wrong, img2+img3 via terminal right.
        assert!((eval.accuracy - 0.75).abs() < 1e-12);
        // Cost: 4·1 + 2·10 over 4 images.
        assert!((eval.expected_cost_s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nan_confidence_always_escalates_in_evaluator() {
        let s0 = profile("1bit", &[f32::NAN, f32::NAN], &[true, true], 1.0);
        let s1 = profile("float32", &[1.0, 1.0], &[false, true], 2.0);
        // Even a 0.0 gate never accepts a NaN-confidence image.
        let eval = evaluate_chain(&[&s0, &s1], &[0.0]);
        assert_eq!(eval.accepted[0], 0);
        assert_eq!(eval.entered[1], 2);
    }

    #[test]
    fn tuner_reaches_target_at_minimum_cost() {
        // Stage 0 is cheap and 50% accurate with informative confidence;
        // terminal is expensive and perfect.
        let n = 8;
        let conf: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 0.9 } else { 0.1 }).collect();
        let correct: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let s0 = profile("1bit", &conf, &correct, 1.0);
        let s1 = profile("float32", &vec![1.0; n], &vec![true; n], 10.0);
        let grid = [0.0f32, 0.5, 1.0];
        // Target 1.0: gate 0.5 sends exactly the wrong half to the host.
        let tuned = tune_gates(&[s0.clone(), s1.clone()], 1.0, &grid)
            .unwrap()
            .expect("reachable target");
        assert_eq!(tuned.stage_indices, vec![0, 1]);
        assert!((tuned.eval.accuracy - 1.0).abs() < 1e-12);
        assert!((tuned.eval.expected_cost_s - 6.0).abs() < 1e-12);
        // Target 0.5: keeping everything on stage 0 is cheapest.
        let lax = tune_gates(&[s0, s1], 0.5, &grid).unwrap().unwrap();
        assert!((lax.eval.expected_cost_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuner_drops_useless_intermediate_stages() {
        let n = 4;
        // A middle stage that costs more than the terminal and adds
        // nothing: the tuned chain must exclude it.
        let s0 = profile("1bit", &[0.9; 4], &[true; 4], 1.0);
        let mid = profile("a8w8", &[0.0; 4], &[false; 4], 50.0);
        let term = profile("float32", &vec![1.0; n], &vec![true; n], 10.0);
        let tuned = tune_gates(&[s0, mid, term], 1.0, &[0.0, 1.0])
            .unwrap()
            .expect("terminal alone reaches 1.0");
        assert!(
            !tuned.stage_indices.contains(&1),
            "useless stage retained: {:?}",
            tuned.stage_indices
        );
    }

    #[test]
    fn tuner_never_loses_to_a_sub_chain() {
        // The 3-stage tuned cost is ≤ the best 2-stage cost at every
        // target, because 2-stage chains are in the search space.
        let n = 16;
        let conf0: Vec<f32> = (0..n).map(|i| (i as f32) / (n as f32)).collect();
        let corr0: Vec<bool> = (0..n).map(|i| i >= 8).collect();
        let conf1: Vec<f32> = (0..n).map(|i| ((i * 7) % n) as f32 / n as f32).collect();
        let corr1: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();
        let s0 = profile("1bit", &conf0, &corr0, 1.0);
        let s1 = profile("a4w4", &conf1, &corr1, 3.0);
        let term = profile("float32", &vec![1.0; n], &vec![true; n], 12.0);
        let grid: Vec<f32> = (0..=10).map(|i| i as f32 / 10.0).collect();
        for target in [0.6, 0.75, 0.9, 1.0] {
            let three = tune_gates(&[s0.clone(), s1.clone(), term.clone()], target, &grid)
                .unwrap()
                .expect("terminal reaches 1.0");
            let two = tune_gates(&[s0.clone(), term.clone()], target, &grid)
                .unwrap()
                .expect("sub-chain reaches 1.0");
            assert!(
                three.eval.expected_cost_s <= two.eval.expected_cost_s + 1e-12,
                "target {target}: 3-stage {} > 2-stage {}",
                three.eval.expected_cost_s,
                two.eval.expected_cost_s
            );
        }
    }

    #[test]
    fn tuner_rejects_bad_inputs() {
        let s = profile("1bit", &[0.5], &[true], 1.0);
        assert!(tune_gates(&[], 0.5, &[0.5]).is_err());
        assert!(tune_gates(std::slice::from_ref(&s), 0.5, &[]).is_err());
        assert!(tune_gates(std::slice::from_ref(&s), 0.5, &[1.5]).is_err());
        let bad_cost = profile("x", &[0.5], &[true], f64::NAN);
        assert!(tune_gates(&[bad_cost], 0.5, &[0.5]).is_err());
        let mismatched = profile("y", &[0.5, 0.6], &[true, false], 1.0);
        assert!(tune_gates(&[s, mismatched], 0.5, &[0.5]).is_err());
        // Unreachable target → Ok(None).
        let weak = profile("z", &[0.5], &[false], 1.0);
        assert!(tune_gates(&[weak], 0.9, &[0.5]).unwrap().is_none());
    }
}

//! The Decision-Making Unit (paper §III-B).
//!
//! The DMU estimates, from the BNN's ten output scores alone, whether
//! the BNN classified an image correctly. The paper trains a "Softmax
//! layer" on a dataset of (FINN score vector → correct/incorrect) pairs;
//! one inference is "ten floating-point multiplications and their sum, a
//! bias addition, and application of a Sigmoid positive transfer
//! function" — i.e. a logistic regression unit, which is what [`Dmu`]
//! implements and trains.
//!
//! A threshold on the DMU's probability splits images into four
//! quadrants ([`ConfusionQuadrants`]): images predicted correct keep
//! their BNN labels, images predicted incorrect are re-inferred on the
//! host. Sweeping the threshold (Fig. 5) trades accuracy against host
//! load, eqs. (6)–(7).

use serde::{Deserialize, Serialize};

use mp_tensor::init::TensorRng;
use mp_tensor::{ShapeError, Tensor};

use crate::cascade::gate_accepts;

/// The four outcome quadrants of Softmax-estimated BNN classifications,
/// as fractions of the total (paper §III-B and Table II).
///
/// Notation: `F` = classified correctly by FINN, `S` = estimated correct
/// by the Softmax DMU; a bar negates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfusionQuadrants {
    /// FS: correct and estimated correct (kept, right).
    pub fs: f64,
    /// F̄S̄: incorrect and estimated incorrect (rerun, rightly).
    pub fbar_sbar: f64,
    /// F̄S: incorrect but estimated correct — kept wrong answers; caps
    /// the achievable multi-precision accuracy.
    pub fbar_s: f64,
    /// FS̄: correct but estimated incorrect — wasted reruns; costs host
    /// throughput.
    pub fs_bar: f64,
}

impl ConfusionQuadrants {
    /// Tallies quadrants from per-image flags.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn tally(bnn_correct: &[bool], estimated_correct: &[bool]) -> Self {
        assert_eq!(
            bnn_correct.len(),
            estimated_correct.len(),
            "flag slices must match"
        );
        let n = bnn_correct.len().max(1) as f64;
        let mut q = ConfusionQuadrants::default();
        for (&f, &s) in bnn_correct.iter().zip(estimated_correct) {
            match (f, s) {
                (true, true) => q.fs += 1.0,
                (false, false) => q.fbar_sbar += 1.0,
                (false, true) => q.fbar_s += 1.0,
                (true, false) => q.fs_bar += 1.0,
            }
        }
        q.fs /= n;
        q.fbar_sbar /= n;
        q.fbar_s /= n;
        q.fs_bar /= n;
        q
    }

    /// The DMU's own accuracy: `FS + F̄S̄` (paper: "the obtained Softmax
    /// accuracy").
    pub fn softmax_accuracy(&self) -> f64 {
        self.fs + self.fbar_sbar
    }

    /// Fraction of images sent to the host: `R_rerun = F̄S̄ + FS̄`.
    pub fn rerun_ratio(&self) -> f64 {
        self.fbar_sbar + self.fs_bar
    }

    /// Fraction of wasted reruns: `R_rerun_err = FS̄` (images the BNN had
    /// right but the DMU flagged anyway).
    pub fn rerun_err_ratio(&self) -> f64 {
        self.fs_bar
    }

    /// Maximum achievable multi-precision accuracy: `1 − F̄S` (kept
    /// wrong answers can never be fixed).
    pub fn max_achievable_accuracy(&self) -> f64 {
        1.0 - self.fbar_s
    }
}

/// The trained DMU: `p(correct) = σ(w · scores + b)`.
///
/// # Example
///
/// ```
/// use mp_core::Dmu;
///
/// let dmu = Dmu::with_weights(vec![0.5; 10], -1.0);
/// let p = dmu.predict(&[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert!((0.0..=1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dmu {
    weights: Vec<f32>,
    bias: f32,
}

impl Dmu {
    /// Creates an untrained DMU for `classes` input scores.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "classes must be positive");
        Self {
            weights: vec![0.0; classes],
            bias: 0.0,
        }
    }

    /// Creates a DMU from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn with_weights(weights: Vec<f32>, bias: f32) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        Self { weights, bias }
    }

    /// Number of input scores.
    pub fn classes(&self) -> usize {
        self.weights.len()
    }

    /// The trained weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The trained bias.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Normalises a raw score vector into the DMU's input features.
    ///
    /// The BNN's integer scores grow with fan-in, so the DMU consumes
    /// them standardised per image (zero mean, unit variance) and sorted
    /// descending — a parameter-free normalisation that keeps one
    /// trained unit valid across folded networks and keeps the sigmoid
    /// out of saturation so the 0.5–1.0 threshold range stays
    /// informative (Fig. 5). Sorting makes the unit learn *margin*
    /// structure: top-1 minus runners-up, exactly the confidence signal
    /// softmax-style estimators extract.
    fn features(&self, scores: &[f32]) -> Vec<f32> {
        let mut feats = Vec::new();
        self.features_into(scores, &mut feats);
        feats
    }

    /// [`Dmu::features`] into a caller-owned buffer (cleared first), so
    /// per-image hot loops reuse one allocation. Identical arithmetic
    /// and sort order, so results are bit-identical.
    fn features_into(&self, scores: &[f32], feats: &mut Vec<f32>) {
        let n = scores.len().max(1) as f32;
        let mean = scores.iter().sum::<f32>() / n;
        let var = scores.iter().map(|&s| (s - mean) * (s - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var.sqrt() + 1e-6);
        feats.clear();
        feats.extend(scores.iter().map(|&s| (s - mean) * inv_std));
        feats.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Probability that the BNN classified correctly, given its scores.
    ///
    /// # Panics
    ///
    /// Panics if `scores.len()` differs from [`Dmu::classes`].
    pub fn predict(&self, scores: &[f32]) -> f32 {
        self.predict_with_scratch(scores, &mut Vec::new())
    }

    /// [`Dmu::predict`] with a caller-owned feature scratch buffer: the
    /// allocation-free form for per-image hot loops (the overlapped
    /// executor's producer calls this once per image). Bit-identical to
    /// `predict`.
    ///
    /// # Panics
    ///
    /// Panics if `scores.len()` differs from [`Dmu::classes`].
    pub fn predict_with_scratch(&self, scores: &[f32], feats: &mut Vec<f32>) -> f32 {
        assert_eq!(scores.len(), self.classes(), "score vector length mismatch");
        self.features_into(scores, feats);
        let z: f32 = self
            .weights
            .iter()
            .zip(feats.iter())
            .map(|(&w, &x)| w * x)
            .sum::<f32>()
            + self.bias;
        1.0 / (1.0 + (-z).exp())
    }

    /// Predicts for every row of a `[N, classes]` score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `scores` is not `[N, classes]`.
    pub fn predict_batch(&self, scores: &Tensor) -> Result<Vec<f32>, ShapeError> {
        if scores.shape().rank() != 2 || scores.shape().dim(1) != self.classes() {
            return Err(ShapeError::new(
                "Dmu::predict_batch",
                format!(
                    "expected [N,{}] scores, got {}",
                    self.classes(),
                    scores.shape()
                ),
            ));
        }
        let n = scores.shape().dim(0);
        let k = self.classes();
        Ok((0..n)
            .map(|row| self.predict(&scores.as_slice()[row * k..(row + 1) * k]))
            .collect())
    }

    /// Trains the unit by SGD on binary cross-entropy over
    /// `(scores, bnn_correct)` pairs — the procedure of §III-B, with the
    /// FINN training-set classifications as labels.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes disagree.
    pub fn train(
        &mut self,
        scores: &Tensor,
        bnn_correct: &[bool],
        epochs: usize,
        learning_rate: f32,
        rng: &mut TensorRng,
    ) -> Result<(), ShapeError> {
        if scores.shape().rank() != 2
            || scores.shape().dim(1) != self.classes()
            || scores.shape().dim(0) != bnn_correct.len()
        {
            return Err(ShapeError::new(
                "Dmu::train",
                format!(
                    "expected [{},{}] scores, got {}",
                    bnn_correct.len(),
                    self.classes(),
                    scores.shape()
                ),
            ));
        }
        let n = bnn_correct.len();
        if n == 0 {
            return Ok(());
        }
        let k = self.classes();
        // Pre-compute features once.
        let feats: Vec<Vec<f32>> = (0..n)
            .map(|row| self.features(&scores.as_slice()[row * k..(row + 1) * k]))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = &feats[i];
                let z: f32 = self
                    .weights
                    .iter()
                    .zip(x)
                    .map(|(&w, &v)| w * v)
                    .sum::<f32>()
                    + self.bias;
                let p = 1.0 / (1.0 + (-z).exp());
                let target = if bnn_correct[i] { 1.0 } else { 0.0 };
                let g = p - target;
                for (w, &v) in self.weights.iter_mut().zip(x) {
                    *w -= learning_rate * g * v;
                }
                self.bias -= learning_rate * g;
            }
        }
        Ok(())
    }

    /// Applies a confidence `threshold`: images with `p ≥ threshold` are
    /// estimated correct (kept); the rest are flagged for host rerun.
    ///
    /// The comparison is the shared cascade gate ([`gate_accepts`]), so
    /// a NaN confidence — NaN logits anywhere upstream — never passes:
    /// the image is flagged for re-inference, the safe direction.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `scores` is not `[N, classes]`.
    pub fn estimate_batch(&self, scores: &Tensor, threshold: f32) -> Result<Vec<bool>, ShapeError> {
        Ok(self
            .predict_batch(scores)?
            .into_iter()
            .map(|p| gate_accepts(p, threshold))
            .collect())
    }

    /// Sweeps thresholds, producing one quadrant record per point — the
    /// data behind the paper's Fig. 5. Each point keeps images through
    /// [`gate_accepts`], like [`estimate_batch`](Self::estimate_batch).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes disagree.
    pub fn threshold_sweep(
        &self,
        scores: &Tensor,
        bnn_correct: &[bool],
        thresholds: &[f32],
    ) -> Result<Vec<(f32, ConfusionQuadrants)>, ShapeError> {
        let probs = self.predict_batch(scores)?;
        if probs.len() != bnn_correct.len() {
            return Err(ShapeError::new(
                "Dmu::threshold_sweep",
                format!(
                    "{} probabilities vs {} flags",
                    probs.len(),
                    bnn_correct.len()
                ),
            ));
        }
        Ok(thresholds
            .iter()
            .map(|&t| {
                let est: Vec<bool> = probs.iter().map(|&p| gate_accepts(p, t)).collect();
                (t, ConfusionQuadrants::tally(bnn_correct, &est))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrants_sum_to_one() {
        let q = ConfusionQuadrants::tally(
            &[true, true, false, false, true],
            &[true, false, true, false, true],
        );
        let total = q.fs + q.fbar_sbar + q.fbar_s + q.fs_bar;
        assert!((total - 1.0).abs() < 1e-9);
        assert!((q.fs - 0.4).abs() < 1e-9);
        assert!((q.fs_bar - 0.2).abs() < 1e-9);
        assert!((q.fbar_s - 0.2).abs() < 1e-9);
        assert!((q.fbar_sbar - 0.2).abs() < 1e-9);
    }

    #[test]
    fn quadrant_derived_metrics() {
        // Paper Table II: FS=66.2, F̄S̄=12.8, F̄S=8.7, FS̄=12.3 (%).
        let q = ConfusionQuadrants {
            fs: 0.662,
            fbar_sbar: 0.128,
            fbar_s: 0.087,
            fs_bar: 0.123,
        };
        assert!((q.softmax_accuracy() - 0.79).abs() < 1e-9);
        assert!((q.rerun_ratio() - 0.251).abs() < 1e-9);
        assert!((q.rerun_err_ratio() - 0.123).abs() < 1e-9);
        // "the maximum achievable multi-precision accuracy will be 91.3%"
        assert!((q.max_achievable_accuracy() - 0.913).abs() < 1e-9);
    }

    #[test]
    fn predict_is_a_probability() {
        let dmu = Dmu::with_weights(vec![1.0; 10], 0.0);
        let p = dmu.predict(&[5.0, -1.0, 0.5, 0.0, 2.0, -3.0, 1.0, 0.0, 0.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn predict_with_scratch_is_bit_identical_to_predict() {
        let dmu = Dmu::with_weights(vec![0.3, -0.1, 0.7, 0.05, -0.4], 0.2);
        let mut rng = TensorRng::seed_from(91);
        let mut feats = Vec::new();
        for _ in 0..50 {
            let scores: Vec<f32> = (0..5).map(|_| rng.next_gaussian(0.0, 4.0)).collect();
            let a = dmu.predict(&scores);
            let b = dmu.predict_with_scratch(&scores, &mut feats);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn training_learns_margin_signal() {
        // Synthetic task: "correct" iff the top score clearly beats the
        // rest — the margin structure real BNN scores exhibit.
        let mut rng = TensorRng::seed_from(90);
        let n = 600;
        let k = 10;
        let mut data = Vec::with_capacity(n * k);
        let mut correct = Vec::with_capacity(n);
        for i in 0..n {
            let is_confident = i % 2 == 0;
            let margin = if is_confident { 8.0 } else { 1.0 };
            let winner = rng.next_index(k);
            for j in 0..k {
                let base: f32 = rng.next_gaussian(0.0, 1.0);
                data.push(if j == winner { base + margin } else { base });
            }
            correct.push(is_confident);
        }
        let scores = Tensor::from_vec([n, k], data).unwrap();
        let mut dmu = Dmu::new(k);
        dmu.train(&scores, &correct, 30, 0.05, &mut rng).unwrap();
        let est = dmu.estimate_batch(&scores, 0.5).unwrap();
        let q = ConfusionQuadrants::tally(&correct, &est);
        assert!(
            q.softmax_accuracy() > 0.85,
            "DMU accuracy {}",
            q.softmax_accuracy()
        );
    }

    #[test]
    fn higher_threshold_reruns_more() {
        let mut rng = TensorRng::seed_from(91);
        let n = 200;
        let scores = rng.normal([n, 10], 0.0, 2.0);
        let correct: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let mut dmu = Dmu::new(10);
        dmu.train(&scores, &correct, 10, 0.05, &mut rng).unwrap();
        let sweep = dmu
            .threshold_sweep(&scores, &correct, &[0.3, 0.5, 0.7, 0.9])
            .unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1.rerun_ratio() >= pair[0].1.rerun_ratio() - 1e-9,
                "rerun ratio must be non-decreasing in the threshold"
            );
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let dmu = Dmu::new(10);
        assert!(dmu.predict_batch(&Tensor::zeros([4, 9])).is_err());
        let mut dmu = Dmu::new(10);
        let mut rng = TensorRng::seed_from(92);
        assert!(dmu
            .train(&Tensor::zeros([4, 10]), &[true; 3], 1, 0.1, &mut rng)
            .is_err());
    }

    #[test]
    fn empty_training_set_is_noop() {
        let mut dmu = Dmu::new(10);
        let mut rng = TensorRng::seed_from(93);
        dmu.train(&Tensor::zeros([0, 10]), &[], 5, 0.1, &mut rng)
            .unwrap();
        assert_eq!(dmu.weights(), vec![0.0; 10].as_slice());
    }

    #[test]
    #[should_panic(expected = "classes must be positive")]
    fn zero_classes_rejected() {
        let _ = Dmu::new(0);
    }
}

/// Untrained confidence baselines for DMU ablations.
///
/// The paper motivates a *trained* Softmax unit; these rules are the
/// standard training-free alternatives an ablation compares against.
/// Each maps a raw BNN score vector to a confidence in `[0, 1]` so the
/// same threshold/quadrant machinery applies.
pub mod baselines {
    use mp_tensor::{ShapeError, Tensor};

    fn softmax(scores: &[f32]) -> Vec<f32> {
        let n = scores.len().max(1) as f32;
        let mean = scores.iter().sum::<f32>() / n;
        let var = scores.iter().map(|&s| (s - mean) * (s - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var.sqrt() + 1e-6);
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores
            .iter()
            .map(|&s| ((s - max) * inv_std).exp())
            .collect();
        let denom: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / denom).collect()
    }

    /// Maximum softmax probability (standardised scores).
    pub fn max_softmax(scores: &[f32]) -> f32 {
        softmax(scores).into_iter().fold(0.0, f32::max)
    }

    /// Top-1 minus top-2 softmax probability (the classification margin).
    pub fn margin(scores: &[f32]) -> f32 {
        let mut p = softmax(scores);
        p.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        if p.len() < 2 {
            return 1.0;
        }
        p[0] - p[1]
    }

    /// One minus the normalised softmax entropy (1 = fully confident).
    pub fn negative_entropy(scores: &[f32]) -> f32 {
        let p = softmax(scores);
        let k = p.len().max(2) as f32;
        let h: f32 = p
            .iter()
            .map(|&x| if x > 0.0 { -x * x.ln() } else { 0.0 })
            .sum();
        1.0 - h / k.ln()
    }

    /// Applies a baseline rule to every row of a `[N, classes]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `scores` is not rank-2.
    pub fn confidence_batch(
        scores: &Tensor,
        rule: fn(&[f32]) -> f32,
    ) -> Result<Vec<f32>, ShapeError> {
        if scores.shape().rank() != 2 {
            return Err(ShapeError::new(
                "baselines::confidence_batch",
                format!("expected [N,classes], got {}", scores.shape()),
            ));
        }
        let (n, k) = (scores.shape().dim(0), scores.shape().dim(1));
        Ok((0..n)
            .map(|row| rule(&scores.as_slice()[row * k..(row + 1) * k]))
            .collect())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SHARP: [f32; 4] = [30.0, -10.0, -10.0, -10.0];
        const FLAT: [f32; 4] = [1.0, 0.9, 1.1, 1.0];

        #[test]
        fn sharp_scores_are_confident() {
            assert!(max_softmax(&SHARP) > max_softmax(&FLAT));
            assert!(margin(&SHARP) > margin(&FLAT));
            assert!(negative_entropy(&SHARP) > negative_entropy(&FLAT));
        }

        #[test]
        fn confidences_are_bounded() {
            for rule in [max_softmax, margin, negative_entropy] {
                for scores in [&SHARP, &FLAT] {
                    let c = rule(scores);
                    assert!((0.0..=1.0 + 1e-6).contains(&c), "confidence {c}");
                }
            }
        }

        #[test]
        fn batch_application_matches_rowwise() {
            let t = Tensor::from_vec([2, 4], [SHARP, FLAT].concat()).unwrap();
            let c = confidence_batch(&t, max_softmax).unwrap();
            assert_eq!(c.len(), 2);
            assert!((c[0] - max_softmax(&SHARP)).abs() < 1e-6);
            assert!(confidence_batch(&Tensor::zeros([4]), max_softmax).is_err());
        }
    }
}

/// Threshold selection per the paper's eqs. (6)–(7): FS̄ trades against
/// host speed, so given a host budget the integrator picks the highest
/// threshold whose rerun load the host can absorb.
///
/// [`select_threshold_for_rerun`](crate::dmu::selection::select_threshold_for_rerun)
/// picks from a sweep the largest threshold whose rerun ratio stays
/// within `budget`;
/// [`select_threshold_for_throughput`](crate::dmu::selection::select_threshold_for_throughput)
/// converts a system throughput target into that budget via eq. (1).
pub mod selection {
    use crate::dmu::ConfusionQuadrants;

    /// Largest threshold whose rerun ratio is at most `budget`, or the
    /// smallest-threshold point when none qualifies.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` is empty.
    pub fn select_threshold_for_rerun(
        sweep: &[(f32, ConfusionQuadrants)],
        budget: f64,
    ) -> (f32, ConfusionQuadrants) {
        assert!(!sweep.is_empty(), "sweep must be non-empty");
        sweep
            .iter()
            .filter(|(_, q)| q.rerun_ratio() <= budget)
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite thresholds"))
            .copied()
            .unwrap_or_else(|| {
                sweep
                    .iter()
                    .min_by(|a, b| {
                        a.1.rerun_ratio()
                            .partial_cmp(&b.1.rerun_ratio())
                            .expect("finite ratios")
                    })
                    .copied()
                    .expect("non-empty sweep")
            })
    }

    /// Eq. (1) inverted: the rerun budget a `target_fps` system rate
    /// allows on a host running at `host_fps`.
    ///
    /// # Panics
    ///
    /// Panics if either rate is non-positive.
    pub fn rerun_budget_for_throughput(target_fps: f64, host_fps: f64) -> f64 {
        assert!(target_fps > 0.0 && host_fps > 0.0, "rates must be positive");
        (host_fps / target_fps).min(1.0)
    }

    /// Picks the largest threshold meeting a system throughput target.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` is empty or a rate is non-positive.
    pub fn select_threshold_for_throughput(
        sweep: &[(f32, ConfusionQuadrants)],
        target_fps: f64,
        host_fps: f64,
    ) -> (f32, ConfusionQuadrants) {
        select_threshold_for_rerun(sweep, rerun_budget_for_throughput(target_fps, host_fps))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn sweep() -> Vec<(f32, ConfusionQuadrants)> {
            // Rerun ratio grows with threshold, as the DMU guarantees.
            [(0.5f32, 0.10f64), (0.7, 0.25), (0.9, 0.60)]
                .into_iter()
                .map(|(t, rerun)| {
                    (
                        t,
                        ConfusionQuadrants {
                            fs: 0.7 - rerun / 2.0,
                            fbar_sbar: rerun / 2.0,
                            fbar_s: 0.3 - rerun / 2.0,
                            fs_bar: rerun / 2.0,
                        },
                    )
                })
                .collect()
        }

        #[test]
        fn picks_largest_threshold_within_budget() {
            let s = sweep();
            let (t, q) = select_threshold_for_rerun(&s, 0.30);
            assert_eq!(t, 0.7);
            assert!(q.rerun_ratio() <= 0.30);
        }

        #[test]
        fn falls_back_to_cheapest_point() {
            let s = sweep();
            let (t, _) = select_threshold_for_rerun(&s, 0.01);
            assert_eq!(t, 0.5);
        }

        #[test]
        fn throughput_budget_via_eq1() {
            // 60 fps target on a 30 fps host allows R = 0.5.
            assert!((rerun_budget_for_throughput(60.0, 30.0) - 0.5).abs() < 1e-12);
            // Slower targets than the host cap at 1.
            assert_eq!(rerun_budget_for_throughput(10.0, 30.0), 1.0);
            let s = sweep();
            let (t, _) = select_threshold_for_throughput(&s, 90.0, 29.68);
            assert_eq!(t, 0.7);
        }

        #[test]
        #[should_panic(expected = "non-empty")]
        fn empty_sweep_panics() {
            let _ = select_threshold_for_rerun(&[], 0.5);
        }
    }
}

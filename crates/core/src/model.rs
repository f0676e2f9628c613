//! The paper's analytic performance and accuracy models.
//!
//! Equation (1): the average per-image interval of the multi-precision
//! system, with host re-inference overlapping FPGA execution:
//!
//! ```text
//! t_multi ≈ max(t_fp · R_rerun, t_bnn)
//! ```
//!
//! Equation (2): the accuracy of the combined system:
//!
//! ```text
//! Acc_multi ≈ Acc_bnn + Acc_fp · R_rerun − R_rerun_err
//! ```
//!
//! The paper notes eq. (2) overestimates in practice because the host's
//! accuracy drops on the hard-to-classify rerun subset;
//! [`accuracy_exact`] gives the exact identity using the subset
//! accuracy.

/// Eq. (1): average seconds per image of the pipelined system.
///
/// # Panics
///
/// Panics if a time is negative or `rerun_ratio` is outside `[0, 1]`.
pub fn interval_per_image(t_fp_img: f64, t_bnn_img: f64, rerun_ratio: f64) -> f64 {
    assert!(
        t_fp_img >= 0.0 && t_bnn_img >= 0.0,
        "times must be non-negative"
    );
    assert!(
        (0.0..=1.0).contains(&rerun_ratio),
        "rerun ratio must be in [0,1]"
    );
    (t_fp_img * rerun_ratio).max(t_bnn_img)
}

/// Eq. (1) expressed as images per second.
///
/// # Panics
///
/// Same conditions as [`interval_per_image`]; additionally both times
/// must not be zero simultaneously.
pub fn images_per_sec(t_fp_img: f64, t_bnn_img: f64, rerun_ratio: f64) -> f64 {
    let t = interval_per_image(t_fp_img, t_bnn_img, rerun_ratio);
    assert!(t > 0.0, "degenerate zero interval");
    1.0 / t
}

/// Eq. (2): predicted multi-precision accuracy from global quantities.
///
/// `acc_bnn` and `acc_fp` are 0–1 accuracies; `rerun_ratio` and
/// `rerun_err_ratio` are the DMU quantities `R_rerun` and `R_rerun_err`.
///
/// # Panics
///
/// Panics if any argument is outside `[0, 1]`.
pub fn accuracy_eq2(acc_bnn: f64, acc_fp: f64, rerun_ratio: f64, rerun_err_ratio: f64) -> f64 {
    for (name, v) in [
        ("acc_bnn", acc_bnn),
        ("acc_fp", acc_fp),
        ("rerun_ratio", rerun_ratio),
        ("rerun_err_ratio", rerun_err_ratio),
    ] {
        assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
    }
    acc_bnn + acc_fp * rerun_ratio - rerun_err_ratio
}

/// The exact accuracy identity: replacing eq. (2)'s global `Acc_fp` with
/// the host's accuracy **on the rerun subset** makes it exact:
///
/// ```text
/// Acc_multi = Acc_bnn − R_rerun_err + Acc_fp_subset · R_rerun
/// ```
///
/// # Panics
///
/// Panics if any argument is outside `[0, 1]`.
pub fn accuracy_exact(
    acc_bnn: f64,
    acc_fp_on_rerun_subset: f64,
    rerun_ratio: f64,
    rerun_err_ratio: f64,
) -> f64 {
    accuracy_eq2(
        acc_bnn,
        acc_fp_on_rerun_subset,
        rerun_ratio,
        rerun_err_ratio,
    )
}

/// The accuracy gain over the plain BNN implied by eq. (2):
/// `Acc_fp·R_rerun − R_rerun_err`.
pub fn accuracy_gain(acc_fp: f64, rerun_ratio: f64, rerun_err_ratio: f64) -> f64 {
    acc_fp * rerun_ratio - rerun_err_ratio
}

/// Eq. (1) generalised to an N-stage cascade: with every stage's
/// execution overlapping the others (the ideal dataflow pipeline), the
/// steady-state interval is set by the busiest stage:
///
/// ```text
/// t_cascade ≈ max_s (t_s · f_s)
/// ```
///
/// where `f_s` is the fraction of images **entering** stage `s`
/// (`f_0 = 1` by convention — pass the full per-stage enter fractions,
/// including the leading 1). Reduces to [`interval_per_image`] for the
/// 2-stage `[t_bnn, t_fp]` / `[1, R_rerun]` instance.
///
/// # Panics
///
/// Panics on empty or length-mismatched slices, negative times, or
/// enter fractions outside `[0, 1]`.
pub fn interval_per_image_n(stage_times: &[f64], enter_fracs: &[f64]) -> f64 {
    assert!(!stage_times.is_empty(), "cascade must have stages");
    assert_eq!(
        stage_times.len(),
        enter_fracs.len(),
        "one enter fraction per stage"
    );
    stage_times
        .iter()
        .zip(enter_fracs)
        .map(|(&t, &f)| {
            assert!(t >= 0.0, "times must be non-negative");
            assert!((0.0..=1.0).contains(&f), "enter fraction must be in [0,1]");
            t * f
        })
        .fold(0.0, f64::max)
}

/// Eq. (2) generalised to an N-stage cascade. Stage 0 contributes its
/// standalone accuracy; each upgrade stage `s ≥ 1` contributes the
/// images it corrects minus the correct-at-stage-0 images that were
/// escalated and lost:
///
/// ```text
/// Acc ≈ Acc_0 + Σ_{s≥1} (Acc_s · f_s − E_s)
/// ```
///
/// with `f_s` the fraction entering stage `s`, `Acc_s` the stage's
/// accuracy on its entering subset (use the global stage accuracy for
/// the eq.(2)-style estimate, the measured subset accuracy for the
/// exact identity), and `E_s` the fraction of **all** images that
/// stage `s − 1` would have classified correctly but escalated. Each
/// upgrade is added as `acc + Acc_s · f_s − E_s`, left to right, so one
/// upgrade reduces bit-for-bit to [`accuracy_eq2`] / [`accuracy_exact`].
///
/// # Panics
///
/// Panics if any accuracy or fraction is outside `[0, 1]`.
pub fn accuracy_eq2_n(acc_stage0: f64, upgrades: &[(f64, f64, f64)]) -> f64 {
    assert!(
        (0.0..=1.0).contains(&acc_stage0),
        "acc_stage0 must be in [0,1], got {acc_stage0}"
    );
    let mut acc = acc_stage0;
    for (i, &(acc_s, enter_frac, err_frac)) in upgrades.iter().enumerate() {
        for (name, v) in [
            ("accuracy", acc_s),
            ("enter fraction", enter_frac),
            ("escalated-correct fraction", err_frac),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "upgrade {i} {name} must be in [0,1], got {v}"
            );
        }
        acc = acc + acc_s * enter_frac - err_frac;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_host_bound_regime() {
        // Paper: "in general the host re-inference latency is the
        // bottleneck". Model A: t_fp = 1/29.68 s, R = 0.251.
        let t_fp = 1.0 / 29.68;
        let t_bnn = 1.0 / 430.15;
        let t = interval_per_image(t_fp, t_bnn, 0.251);
        assert!((t - t_fp * 0.251).abs() < 1e-12);
        // ≈ 118 img/s upper bound for Model A + FINN (paper got 90.82
        // measured, below the ideal-overlap model).
        let fps = images_per_sec(t_fp, t_bnn, 0.251);
        assert!((fps - 118.25).abs() < 1.0, "fps {fps}");
    }

    #[test]
    fn eq1_bnn_bound_regime() {
        // With a very fast host or tiny rerun ratio the BNN dominates.
        let t = interval_per_image(1e-3, 2.32e-3, 0.01);
        assert!((t - 2.32e-3).abs() < 1e-12);
    }

    #[test]
    fn eq2_reproduces_paper_numbers() {
        // Model A & FINN: Acc_bnn = 0.785, subset accuracy 65 %,
        // R_rerun = 0.251, R_rerun_err = 0.123 →
        // 0.785 − 0.123 + 0.65·0.251 = 0.825 — the paper's 82.5 %.
        let acc = accuracy_exact(0.785, 0.65, 0.251, 0.123);
        assert!((acc - 0.825).abs() < 0.002, "acc {acc}");
    }

    #[test]
    fn eq2_with_global_accuracy_overestimates() {
        // Using Model A's global 81.4 % instead of the 65 % subset value
        // overestimates, as the paper warns.
        let optimistic = accuracy_eq2(0.785, 0.814, 0.251, 0.123);
        let exact = accuracy_exact(0.785, 0.65, 0.251, 0.123);
        assert!(optimistic > exact);
    }

    #[test]
    fn gain_decomposition() {
        let gain = accuracy_gain(0.65, 0.251, 0.123);
        assert!((accuracy_exact(0.785, 0.65, 0.251, 0.123) - (0.785 + gain)).abs() < 1e-12);
    }

    /// Every `(n, wrong, right)` rerun count of a small grid, with the
    /// rerun ratio formed the way `ConfusionQuadrants::rerun_ratio`
    /// forms it (`wrong/n + right/n`).
    fn rerun_grid() -> impl Iterator<Item = (usize, usize, usize, f64)> {
        (1..=40usize).flat_map(|n| {
            (0..=n).flat_map(move |wrong| {
                (0..=n - wrong).map(move |right| {
                    let d = n as f64;
                    (n, wrong, right, wrong as f64 / d + right as f64 / d)
                })
            })
        })
    }

    #[test]
    fn eq1_n_reduces_to_two_stage_form() {
        let t_fp = 1.0 / 29.68;
        let t_bnn = 1.0 / 430.15;
        for (n, wrong, right, r) in rerun_grid() {
            let two = interval_per_image(t_fp, t_bnn, r);
            let cascade = interval_per_image_n(&[t_bnn, t_fp], &[1.0, r]);
            assert_eq!(two, cascade, "n={n} wrong={wrong} right={right}");
        }
    }

    #[test]
    fn eq1_n_picks_the_busiest_stage() {
        // Three stages: the middle one dominates at these fractions.
        let t = interval_per_image_n(&[1.0, 10.0, 100.0], &[1.0, 0.5, 0.01]);
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_n_reduces_to_two_stage_form() {
        for (n, wrong, right, r) in rerun_grid() {
            let d = n as f64;
            let err = right as f64 / d;
            // Every BNN accuracy consistent with `right` correct reruns.
            for correct in right..=n - wrong {
                let acc_bnn = correct as f64 / d;
                for acc_fp in [0.5, 0.814] {
                    let two = accuracy_eq2(acc_bnn, acc_fp, r, err);
                    let cascade = accuracy_eq2_n(acc_bnn, &[(acc_fp, r, err)]);
                    assert_eq!(two, cascade, "n={n} c={correct} w={wrong} r={right}");
                }
            }
        }
    }

    #[test]
    fn eq2_n_accumulates_upgrades() {
        // Two upgrade stages, each trading escalated-correct mass for
        // corrected mass.
        let acc = accuracy_eq2_n(0.70, &[(0.8, 0.3, 0.05), (0.95, 0.1, 0.02)]);
        assert!((acc - (0.70 + 0.8 * 0.3 - 0.05 + 0.95 * 0.1 - 0.02)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "enter fraction")]
    fn eq1_n_rejects_bad_fraction() {
        let _ = interval_per_image_n(&[1.0], &[1.5]);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn eq2_n_rejects_bad_upgrade() {
        let _ = accuracy_eq2_n(0.5, &[(1.2, 0.5, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "rerun ratio")]
    fn bad_ratio_rejected() {
        let _ = interval_per_image(1.0, 1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_accuracy_rejected() {
        let _ = accuracy_eq2(1.2, 0.5, 0.5, 0.1);
    }
}

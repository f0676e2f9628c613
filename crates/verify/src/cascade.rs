//! Cascade decision-policy structure checks (`MP05xx`).
//!
//! [`CascadePolicy::try_new`](mp_core::CascadePolicy::try_new) already
//! rejects malformed chains at construction, but a
//! [`mp_core::CascadeShape`] can also arrive from a
//! config file, a bench record, or a hand-built experiment — and even a
//! *constructible* cascade can be structurally useless (dead stages,
//! inverted cost ordering). This pass re-derives the construction
//! invariants as coded diagnostics and adds the economic lints the
//! constructor deliberately leaves to tooling:
//!
//! - `MP0501` — empty chain;
//! - `MP0502` — gate present/absent on the wrong side of the terminal
//!   boundary;
//! - `MP0503` — gate outside `[0, 1]` or non-finite;
//! - `MP0504` — a non-final gate of `0.0` accepts everything, making
//!   every later stage unreachable (warning);
//! - `MP0505` — non-finite or non-positive modeled unit cost;
//! - `MP0506` — unit cost not strictly increasing down the chain
//!   (warning: escalation buys no precision headroom);
//! - `MP0507` — a non-final gate of `1.0` escalates everything that
//!   enters, so the stage is pure added latency (warning).

use mp_core::CascadeShape;

use crate::diag::{codes, Report, Severity};
use crate::VerifyTarget;

const PASS: &str = "cascade";

fn stage_site(index: usize, label: &str) -> String {
    format!("stage {index} ({label})")
}

/// Runs the cascade pass over `target.cascade`, if one is attached.
pub fn check(target: &VerifyTarget, report: &mut Report) {
    let Some(shape) = &target.cascade else {
        return;
    };
    check_shape(shape, report);
}

/// The pass body, callable on a bare [`CascadeShape`] (the oracle and
/// golden tests use this directly).
pub fn check_shape(shape: &CascadeShape, report: &mut Report) {
    if shape.stages.is_empty() {
        report.push(
            codes::CASCADE_EMPTY,
            Severity::Error,
            PASS,
            "cascade",
            "cascade has no stages: nothing classifies anything",
        );
        return;
    }
    let last = shape.stages.len() - 1;
    for (i, stage) in shape.stages.iter().enumerate() {
        let site = stage_site(i, &stage.label);
        match (i == last, stage.gate) {
            (false, None) => report.push(
                codes::CASCADE_GATE_PLACEMENT,
                Severity::Error,
                PASS,
                &site,
                "non-final stage has no confidence gate: escalation is undefined here",
            ),
            (true, Some(g)) => report.push(
                codes::CASCADE_GATE_PLACEMENT,
                Severity::Error,
                PASS,
                &site,
                format!(
                    "terminal stage carries a gate ({g}): the final stage must \
                     accept everything that reaches it"
                ),
            ),
            (false, Some(g)) => {
                if !g.is_finite() || !(0.0..=1.0).contains(&g) {
                    report.push(
                        codes::CASCADE_GATE_RANGE,
                        Severity::Error,
                        PASS,
                        &site,
                        format!("gate {g} is outside [0, 1]: no confidence can be compared to it"),
                    );
                } else if g == 0.0 {
                    report.push(
                        codes::CASCADE_UNREACHABLE,
                        Severity::Warning,
                        PASS,
                        &site,
                        format!(
                            "gate 0.0 accepts every image, so stages {}..{} are dead \
                             configuration",
                            i + 1,
                            last
                        ),
                    );
                } else if g == 1.0 {
                    report.push(
                        codes::CASCADE_PASSTHROUGH,
                        Severity::Warning,
                        PASS,
                        &site,
                        "gate 1.0 escalates everything that enters: the stage is pure \
                         added latency",
                    );
                }
            }
            (true, None) => {}
        }
        if !stage.unit_cost_s.is_finite() || stage.unit_cost_s <= 0.0 {
            report.push(
                codes::CASCADE_COST_INVALID,
                Severity::Error,
                PASS,
                &site,
                format!(
                    "modeled unit cost {}s is not a positive finite time",
                    stage.unit_cost_s
                ),
            );
        }
    }
    for (i, pair) in shape.stages.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        let both_valid = a.unit_cost_s.is_finite()
            && a.unit_cost_s > 0.0
            && b.unit_cost_s.is_finite()
            && b.unit_cost_s > 0.0;
        if both_valid && b.unit_cost_s <= a.unit_cost_s {
            report.push(
                codes::CASCADE_COST_ORDER,
                Severity::Warning,
                PASS,
                stage_site(i + 1, &b.label),
                format!(
                    "unit cost {}s does not exceed stage {i}'s {}s: escalating here \
                     buys no precision headroom",
                    b.unit_cost_s, a.unit_cost_s
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::{CascadeShape, StageShape};

    fn stage(label: &str, gate: Option<f64>, cost: f64) -> StageShape {
        StageShape {
            label: label.to_owned(),
            gate,
            unit_cost_s: cost,
        }
    }

    fn run(shape: &CascadeShape) -> Report {
        let mut report = Report::new("test");
        check_shape(shape, &mut report);
        report
    }

    #[test]
    fn well_formed_three_stage_chain_is_clean() {
        let shape = CascadeShape {
            stages: vec![
                stage("1bit", Some(0.6), 0.002),
                stage("a4w4", Some(0.4), 0.008),
                stage("float32", None, 0.033),
            ],
        };
        let report = run(&shape);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn empty_chain_is_an_error() {
        let report = run(&CascadeShape { stages: Vec::new() });
        assert!(report.has_code(codes::CASCADE_EMPTY));
        assert!(report.has_errors());
    }

    #[test]
    fn gate_placement_both_directions() {
        let shape = CascadeShape {
            stages: vec![
                stage("1bit", None, 0.002),
                stage("float32", Some(0.5), 0.033),
            ],
        };
        let report = run(&shape);
        assert_eq!(
            report
                .codes()
                .iter()
                .filter(|c| **c == codes::CASCADE_GATE_PLACEMENT)
                .count(),
            2,
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn gate_range_rejects_nan_and_out_of_range() {
        for g in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let shape = CascadeShape {
                stages: vec![stage("1bit", Some(g), 0.002), stage("float32", None, 0.033)],
            };
            let report = run(&shape);
            assert!(
                report.has_code(codes::CASCADE_GATE_RANGE),
                "gate {g}: {}",
                report.render_human()
            );
        }
    }

    #[test]
    fn extreme_gates_lint_not_error() {
        let dead = run(&CascadeShape {
            stages: vec![
                stage("1bit", Some(0.0), 0.002),
                stage("float32", None, 0.033),
            ],
        });
        assert!(dead.has_code(codes::CASCADE_UNREACHABLE));
        assert!(!dead.has_errors());
        let passthrough = run(&CascadeShape {
            stages: vec![
                stage("1bit", Some(1.0), 0.002),
                stage("float32", None, 0.033),
            ],
        });
        assert!(passthrough.has_code(codes::CASCADE_PASSTHROUGH));
        assert!(!passthrough.has_errors());
    }

    #[test]
    fn cost_checks_flag_invalid_and_inverted() {
        let invalid = run(&CascadeShape {
            stages: vec![
                stage("1bit", Some(0.5), 0.0),
                stage("float32", None, f64::NAN),
            ],
        });
        assert_eq!(
            invalid
                .codes()
                .iter()
                .filter(|c| **c == codes::CASCADE_COST_INVALID)
                .count(),
            2
        );
        let inverted = run(&CascadeShape {
            stages: vec![
                stage("a4w4", Some(0.5), 0.01),
                stage("1bit", Some(0.5), 0.002),
                stage("float32", None, 0.033),
            ],
        });
        assert!(inverted.has_code(codes::CASCADE_COST_ORDER));
        assert!(!inverted.has_errors());
        // Invalid costs don't double-report as misordered.
        assert!(!invalid.has_code(codes::CASCADE_COST_ORDER));
    }
}

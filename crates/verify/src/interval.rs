//! Pass 2: interval abstract interpretation.
//!
//! The XNOR-popcount datapath computes, per output channel,
//! `acc = 2·pos_sum − total` where `total` is the engine's fan-in
//! (`K·K·ID` weight columns), so a fully-binarised accumulator is
//! bounded by `[-fan_in, +fan_in]` regardless of weights or inputs. A
//! `b`-bit input stage (the first engine's Q2.6 pixels, or a
//! partially-binarised inner layer) scales the bound to
//! `fan_in · 2^(b-1)`: pixels are clamped to `±2` and quantised at
//! scale 64, so `|x| ≤ 128 = 2^(8-1)` exactly. These intervals are
//! *sound*: the soundness property test in `tests/props.rs` drives the
//! bit-exact hardware model and asserts every observed accumulator
//! stays inside them.
//!
//! From the intervals the pass proves: the i32 fast-path in
//! `HardwareBnn::infer_batch_with` cannot overflow (`2·bound` must fit
//! an `i32`), the per-engine threshold words are wide enough to
//! represent every reachable accumulation, and — when a folded
//! [`HardwareBnn`](mp_bnn::HardwareBnn) is attached — no threshold
//! saturates into a constant-activation channel. Host float layers get
//! a NaN/Inf taint scan: one non-finite parameter poisons every
//! downstream layer of the sequential network.

use std::fmt;

use mp_bnn::hardware::HwThreshold;
use mp_bnn::EngineSpec;

use crate::diag::{codes, Report, Severity};
use crate::{engine_site, VerifyTarget};

const PASS: &str = "interval";

/// Typed failure of a static interval computation: the requested
/// `fan_in × level` magnitude does not fit an `i64`, so no sound
/// interval exists. Callers report this as [`codes::INTERVAL_OVERFLOW`]
/// (MP0209) instead of silently wrapping — the pre-fix code computed
/// `mag * fan_in` with unchecked/saturating i64 arithmetic, which an
/// 8-bit activation × 8-bit weight config can overflow at large fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalOverflow {
    /// Accumulation fan-in that was requested.
    pub fan_in: usize,
    /// Per-summand magnitude (e.g. `2^(b-1)` or `(2^a−1)·(2^w−1)`).
    pub summand_magnitude: u128,
}

impl fmt::Display for IntervalOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accumulator interval overflows i64: fan-in {} at per-summand \
             magnitude {} exceeds {}",
            self.fan_in,
            self.summand_magnitude,
            i64::MAX
        )
    }
}

impl std::error::Error for IntervalOverflow {}

/// A closed integer interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The symmetric interval `[-mag, mag]`.
    pub fn symmetric(mag: i64) -> Self {
        Self { lo: -mag, hi: mag }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Largest absolute value in the interval.
    pub fn magnitude(&self) -> i64 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// Static accumulator interval of one engine: inputs in
/// `[-2^(b-1), 2^(b-1)]` for `b = input_bits` (b=1 gives the binary
/// `±1` case), weights `±1`, fan-in summands.
pub fn engine_accumulator_interval(spec: &EngineSpec) -> Result<Interval, IntervalOverflow> {
    accumulator_interval(spec.weight_cols(), spec.input_bits)
}

/// Static accumulator interval from raw fan-in and input width.
///
/// Returns [`IntervalOverflow`] when `fan_in · 2^(input_bits-1)` does
/// not fit an `i64` — previously this saturated silently, producing a
/// wrapped-looking but formally "valid" interval that downstream width
/// proofs trusted.
pub fn accumulator_interval(
    fan_in: usize,
    input_bits: usize,
) -> Result<Interval, IntervalOverflow> {
    let bits = input_bits.clamp(1, 32) as u32;
    let summand = 1i64 << (bits - 1);
    checked_symmetric(fan_in, summand)
}

/// Static accumulator interval of a quantized (multi-plane) engine:
/// activations are odd integers in `[-(2^a−1), 2^a−1]`, weights odd
/// integers in `[-(2^w−1), 2^w−1]`, so one product is bounded by
/// `(2^a−1)·(2^w−1)` and the accumulation by `fan_in` times that.
pub fn quant_accumulator_interval(
    fan_in: usize,
    a_bits: usize,
    w_bits: usize,
) -> Result<Interval, IntervalOverflow> {
    let a = a_bits.clamp(1, 32) as u32;
    let w = w_bits.clamp(1, 32) as u32;
    let levels_a = (1i64 << a) - 1;
    let levels_w = (1i64 << w) - 1;
    match levels_a.checked_mul(levels_w) {
        Some(summand) => checked_symmetric(fan_in, summand),
        None => Err(IntervalOverflow {
            fan_in,
            summand_magnitude: levels_a as u128 * levels_w as u128,
        }),
    }
}

/// Static accumulator interval of `engine` running at quantized widths
/// `spec`. Inner engines accumulate odd activation levels in
/// `±(2^a−1)`; the `first` engine accumulates `2^(a−1)`-bounded pixels
/// (the Q2.6 input quantisation), matching the tighter bound the
/// executable `QuantBnn` first stage actually reaches. Weights are odd
/// levels in `±(2^w−1)` either way.
pub fn quant_engine_interval(
    engine: &EngineSpec,
    spec: mp_int::PrecisionSpec,
    first: bool,
) -> Result<Interval, IntervalOverflow> {
    if first {
        let a = spec.a_bits().clamp(1, 32) as u32;
        let w = spec.w_bits().clamp(1, 32) as u32;
        let pixel = 1i64 << (a - 1);
        let levels_w = (1i64 << w) - 1;
        match pixel.checked_mul(levels_w) {
            Some(summand) => checked_symmetric(engine.weight_cols(), summand),
            None => Err(IntervalOverflow {
                fan_in: engine.weight_cols(),
                summand_magnitude: pixel as u128 * levels_w as u128,
            }),
        }
    } else {
        quant_accumulator_interval(engine.weight_cols(), spec.a_bits(), spec.w_bits())
    }
}

/// `[-summand·fan_in, +summand·fan_in]` with overflow detection.
fn checked_symmetric(fan_in: usize, summand: i64) -> Result<Interval, IntervalOverflow> {
    let overflow = IntervalOverflow {
        fan_in,
        summand_magnitude: summand as u128,
    };
    let fan = i64::try_from(fan_in).map_err(|_| overflow)?;
    let mag = summand.checked_mul(fan).ok_or(overflow)?;
    Ok(Interval::symmetric(mag))
}

/// Smallest threshold-word width (bits) whose signed range covers the
/// interval, or `None` when even the widest supported word (62 bits)
/// cannot. Used by config synthesis to size threshold memories for
/// quantized engines.
pub fn required_threshold_bits(acc: Interval) -> Option<usize> {
    (1..=62).find(|&bits| {
        let word = threshold_word_range(bits);
        word.lo <= acc.lo && acc.hi <= word.hi
    })
}

/// Signed range of a `bits`-wide threshold word.
pub(crate) fn threshold_word_range(bits: usize) -> Interval {
    let bits = bits.clamp(1, 62) as u32;
    Interval {
        lo: -(1i64 << (bits - 1)),
        hi: (1i64 << (bits - 1)) - 1,
    }
}

pub(crate) fn check(target: &VerifyTarget, report: &mut Report) {
    check_engine_intervals(target, report);
    check_quant_precision(target, report);
    check_hardware_thresholds(target, report);
    check_host_taint(target, report);
}

/// MP0210/MP0211: re-derives every engine's accumulator interval at the
/// declared quantized widths and proves the threshold words still fit.
fn check_quant_precision(target: &VerifyTarget, report: &mut Report) {
    let Some(precision) = &target.precision else {
        return;
    };
    if target.engines.is_empty() {
        return;
    }
    if precision.len() != target.engines.len() {
        report.push(
            codes::PRECISION_MISMATCH,
            Severity::Error,
            PASS,
            "precision",
            format!(
                "precision declares {} layer(s) but the engine chain has {}",
                precision.len(),
                target.engines.len()
            ),
        );
        return;
    }
    let specs = precision.layers();
    if specs[0].a_bits() != target.engines[0].input_bits {
        report.push(
            codes::PRECISION_MISMATCH,
            Severity::Error,
            PASS,
            engine_site(0, &target.engines[0]),
            format!(
                "first engine consumes {}-bit pixels but the precision \
                 declares {} activation bits",
                target.engines[0].input_bits,
                specs[0].a_bits()
            ),
        );
    }
    let last = target.engines.len() - 1;
    for (i, (engine, &spec)) in target.engines.iter().zip(specs).enumerate() {
        let site = engine_site(i, engine);
        // The 1-bit corner reproduces the binary interval exactly, and
        // MP0201/MP0202 already cover it — don't double-report.
        if spec.w_bits() == 1 && (i == 0 || spec.a_bits() == 1) {
            continue;
        }
        let acc = match quant_engine_interval(engine, spec, i == 0) {
            Ok(acc) => acc,
            Err(overflow) => {
                report.push(
                    codes::INTERVAL_OVERFLOW,
                    Severity::Error,
                    PASS,
                    site,
                    format!("at {spec}: {overflow}; no sound width proof is possible"),
                );
                continue;
            }
        };
        if i != last && engine.threshold_bits > 0 {
            let word = threshold_word_range(engine.threshold_bits);
            if acc.lo < word.lo || acc.hi > word.hi {
                let needed = required_threshold_bits(acc)
                    .map(|b| format!("{b}"))
                    .unwrap_or_else(|| ">62".to_owned());
                report.push(
                    codes::QUANT_THRESHOLD_NARROW,
                    Severity::Error,
                    PASS,
                    site,
                    format!(
                        "at {spec} the accumulator reaches [{}, {}], which the \
                         {}-bit threshold word [{}, {}] cannot represent \
                         ({needed} bits required)",
                        acc.lo, acc.hi, engine.threshold_bits, word.lo, word.hi
                    ),
                );
            }
        }
    }
}

fn check_engine_intervals(target: &VerifyTarget, report: &mut Report) {
    // An empty engine list is legitimate for host-only targets, but a
    // target with no engines, no host and no folded hardware has
    // nothing to verify — report it instead of silently passing. The
    // early return also keeps `last` well-defined below: a
    // `len() - 1` on an empty list would wrap to `usize::MAX` and the
    // last-engine special-casing would never fire.
    if target.engines.is_empty() {
        if target.host.is_none() && target.hw.is_none() {
            report.push(
                codes::EMPTY_TARGET,
                Severity::Error,
                PASS,
                "target",
                "no engines, host network or folded hardware attached: \
                 nothing to verify"
                    .to_owned(),
            );
        }
        return;
    }
    let last = target.engines.len() - 1;
    for (i, e) in target.engines.iter().enumerate() {
        let site = engine_site(i, e);
        let acc = match engine_accumulator_interval(e) {
            Ok(acc) => acc,
            Err(overflow) => {
                report.push(
                    codes::INTERVAL_OVERFLOW,
                    Severity::Error,
                    PASS,
                    site,
                    format!("{overflow}; no sound width proof is possible"),
                );
                continue;
            }
        };

        // The optimized batch path accumulates in i32 lanes; the
        // reference path uses i64. Prove the i32 path safe with the
        // same 2x headroom `infer_batch_with` asserts.
        if acc.magnitude().saturating_mul(2) > i64::from(i32::MAX) {
            report.push(
                codes::ACC_OVERFLOW,
                Severity::Error,
                PASS,
                site.clone(),
                format!(
                    "accumulator interval [{}, {}] escapes the i32 fast path \
                     (|acc|*2 > i32::MAX); fan-in {} at {} input bits",
                    acc.lo,
                    acc.hi,
                    e.weight_cols(),
                    e.input_bits
                ),
            );
        }

        if e.threshold_bits > 0 {
            let word = threshold_word_range(e.threshold_bits);
            if acc.lo < word.lo || acc.hi > word.hi {
                report.push(
                    codes::THRESHOLD_NARROW,
                    Severity::Error,
                    PASS,
                    site.clone(),
                    format!(
                        "{}-bit threshold word [{}, {}] cannot represent every \
                         reachable accumulation in [{}, {}]",
                        e.threshold_bits, word.lo, word.hi, acc.lo, acc.hi
                    ),
                );
            }
            if i == last {
                report.push(
                    codes::THRESHOLD_PLACEMENT,
                    Severity::Warning,
                    PASS,
                    site.clone(),
                    "output engine carries threshold memory it never uses \
                     (scores feed the DMU unactivated)"
                        .to_owned(),
                );
            }
        } else if i != last {
            report.push(
                codes::THRESHOLD_PLACEMENT,
                Severity::Error,
                PASS,
                site,
                "inner engine has no activation thresholds: its integer \
                 accumulations cannot re-binarise for the next engine"
                    .to_owned(),
            );
        }
    }
}

/// Classifies a folded threshold against the engine's reachable
/// accumulator interval: `Some(true)` fires for every reachable value,
/// `Some(false)` for none, `None` when the channel can go both ways.
fn constant_activation(t: &HwThreshold, acc: Interval) -> Option<bool> {
    if t.negate {
        // Fires when acc <= bound.
        if t.bound >= acc.hi {
            Some(true)
        } else if t.bound < acc.lo {
            Some(false)
        } else {
            None
        }
    } else {
        // Fires when acc >= bound.
        if t.bound <= acc.lo {
            Some(true)
        } else if t.bound > acc.hi {
            Some(false)
        } else {
            None
        }
    }
}

fn check_hardware_thresholds(target: &VerifyTarget, report: &mut Report) {
    let Some(hw) = target.hw else {
        return;
    };
    for (i, stage) in hw.stage_summaries().iter().enumerate() {
        let site = format!("hw stage {i}");
        let acc = match accumulator_interval(stage.fan_in, if stage.first { 8 } else { 1 }) {
            Ok(acc) => acc,
            Err(overflow) => {
                report.push(
                    codes::INTERVAL_OVERFLOW,
                    Severity::Error,
                    PASS,
                    site,
                    format!("{overflow}; no sound width proof is possible"),
                );
                continue;
            }
        };

        if !stage.output && stage.thresholds.len() != stage.out_channels {
            report.push(
                codes::THRESHOLD_COUNT,
                Severity::Error,
                PASS,
                site.clone(),
                format!(
                    "{} folded thresholds for {} output channels",
                    stage.thresholds.len(),
                    stage.out_channels
                ),
            );
            continue;
        }

        let constant = stage
            .thresholds
            .iter()
            .filter(|t| constant_activation(t, acc).is_some())
            .count();
        if constant > 0 {
            report.push(
                codes::THRESHOLD_SATURATED,
                Severity::Warning,
                PASS,
                site,
                format!(
                    "{constant} of {} channels have saturated thresholds \
                     (constant activation regardless of input; degenerate \
                     batch-norm fold)",
                    stage.thresholds.len()
                ),
            );
        }
    }
}

fn check_host_taint(target: &VerifyTarget, report: &mut Report) {
    let Some(net) = target.host else {
        return;
    };
    let names = net.layer_names();
    let mut nan_counts = vec![0usize; names.len()];
    let mut inf_counts = vec![0usize; names.len()];
    net.visit_layer_params(&mut |layer, tensor| {
        for &v in tensor.as_slice() {
            if v.is_nan() {
                nan_counts[layer] += 1;
            } else if v.is_infinite() {
                inf_counts[layer] += 1;
            }
        }
    });
    for (i, name) in names.iter().enumerate() {
        let site = format!("host layer {i} ({name})");
        if nan_counts[i] > 0 {
            let downstream = names.len() - 1 - i;
            report.push(
                codes::NAN_TAINT,
                Severity::Error,
                PASS,
                site.clone(),
                format!(
                    "{} NaN parameter(s): NaN propagates through every \
                     arithmetic layer, tainting all {downstream} downstream \
                     layer(s) and the final scores",
                    nan_counts[i]
                ),
            );
        }
        if inf_counts[i] > 0 {
            report.push(
                codes::INF_PARAM,
                Severity::Warning,
                PASS,
                site,
                format!(
                    "{} infinite parameter(s): overflow risk, and 0*inf \
                     products become NaN",
                    inf_counts[i]
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use mp_bnn::FinnTopology;
    use mp_fpga::device::Device;

    #[test]
    fn binary_engine_interval_is_fan_in() {
        let engines = FinnTopology::paper().engines();
        let acc = engine_accumulator_interval(&engines[1]).unwrap();
        assert_eq!(acc, Interval::symmetric(576));
    }

    #[test]
    fn first_engine_interval_scales_with_pixel_width() {
        let engines = FinnTopology::paper().engines();
        // fan-in 27, 8-bit pixels clamped to ±128.
        let acc = engine_accumulator_interval(&engines[0]).unwrap();
        assert_eq!(acc, Interval::symmetric(27 * 128));
    }

    #[test]
    fn oversized_fan_in_is_a_typed_overflow_not_a_wrap() {
        // 2^60 summands at 2^31 each would need 91 bits; the old code
        // saturated to i64::MAX and kept "proving" widths against it.
        let err = accumulator_interval(1 << 60, 32).unwrap_err();
        assert_eq!(err.fan_in, 1 << 60);
        assert_eq!(err.summand_magnitude, 1 << 31);
        assert!(err.to_string().contains("overflows i64"));
    }

    #[test]
    fn quant_interval_matches_level_product() {
        // fan-in 576, 4-bit activations (±15), 2-bit weights (±3).
        let acc = quant_accumulator_interval(576, 4, 2).unwrap();
        assert_eq!(acc, Interval::symmetric(576 * 15 * 3));
        // 1×1 bit degenerates to the binary case.
        assert_eq!(
            quant_accumulator_interval(576, 1, 1).unwrap(),
            Interval::symmetric(576)
        );
        // Overflow path: 32×32-bit levels at huge fan-in.
        assert!(quant_accumulator_interval(1 << 62, 32, 32).is_err());
    }

    #[test]
    fn required_threshold_bits_is_minimal() {
        // ±576 needs 11 bits: a 10-bit word tops out at 511.
        assert_eq!(required_threshold_bits(Interval::symmetric(576)), Some(11));
        assert_eq!(required_threshold_bits(Interval::symmetric(511)), Some(10));
        // Asymmetric edge: hi = 2^(b-1) exactly does NOT fit b bits.
        assert_eq!(
            required_threshold_bits(Interval { lo: -512, hi: 512 }),
            Some(11)
        );
        assert_eq!(required_threshold_bits(Interval::symmetric(i64::MAX)), None);
    }

    #[test]
    fn paper_threshold_widths_are_proven_sufficient() {
        let topo = FinnTopology::paper();
        let t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702());
        let report = verify(&t);
        assert!(!report.has_code(codes::THRESHOLD_NARROW));
        assert!(!report.has_code(codes::ACC_OVERFLOW));
    }

    #[test]
    fn narrow_threshold_word_is_mp0202() {
        let topo = FinnTopology::paper();
        let mut t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702());
        // Engine 1 reaches ±576; an 8-bit word ends at ±128.
        t.engines[1].threshold_bits = 8;
        let report = verify(&t);
        assert!(report.has_code(codes::THRESHOLD_NARROW));
    }

    #[test]
    fn missing_inner_threshold_is_mp0204() {
        let topo = FinnTopology::paper();
        let mut t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702());
        t.engines[2].threshold_bits = 0;
        let report = verify(&t);
        assert!(report.has_code(codes::THRESHOLD_PLACEMENT));
        assert!(report.has_errors());
    }

    #[test]
    fn partially_binarised_intervals_still_fit_16_bit_words() {
        // 4-bit inner activations: fan-in 576 × 8 = ±4608 < ±32768.
        let topo = FinnTopology::paper();
        let mut t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702());
        t.engines = topo.engines_partially_binarised(4);
        let report = verify(&t);
        assert!(
            !report.has_code(codes::THRESHOLD_NARROW),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn golden_mp0209_oversized_engine_interval() {
        // A forged engine whose fan-in × summand escapes i64: the pass
        // must surface the typed overflow, not a wrapped interval.
        let topo = FinnTopology::paper();
        let mut t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702());
        t.engines[1].in_channels = 1 << 33;
        t.engines[1].input_bits = 32;
        let report = verify(&t);
        assert!(report.has_code(codes::INTERVAL_OVERFLOW));
        assert!(report.has_errors());
    }

    #[test]
    fn golden_mp0210_quantized_widths_escape_threshold_words() {
        // 8×8-bit layers reach ±576·255·255 ≈ ±37M on engine 1; its
        // shipped 16-bit threshold word tops out at ±32768.
        let topo = FinnTopology::paper();
        let n = topo.engines().len();
        let t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702())
            .with_precision(mp_int::NetworkPrecision::uniform(n, 8, 8).unwrap());
        let report = verify(&t);
        assert!(report.has_code(codes::QUANT_THRESHOLD_NARROW));
        assert!(!report.has_code(codes::PRECISION_MISMATCH));
    }

    #[test]
    fn one_bit_precision_adds_no_quant_diagnostics() {
        let topo = FinnTopology::paper();
        let n = topo.engines().len();
        let t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702())
            .with_precision(mp_int::NetworkPrecision::one_bit(n).unwrap());
        let report = verify(&t);
        assert!(!report.has_code(codes::QUANT_THRESHOLD_NARROW));
        assert!(!report.has_code(codes::PRECISION_MISMATCH));
        assert!(!report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn golden_mp0211_precision_layer_count_mismatch() {
        let topo = FinnTopology::paper();
        let t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702())
            .with_precision(mp_int::NetworkPrecision::uniform(3, 4, 4).unwrap());
        let report = verify(&t);
        assert!(report.has_code(codes::PRECISION_MISMATCH));
        assert!(report.has_errors());
    }

    #[test]
    fn golden_mp0211_first_layer_pixel_width_mismatch() {
        let topo = FinnTopology::paper();
        let n = topo.engines().len();
        let mut t = crate::VerifyTarget::from_topology("t", &topo, Device::zc702())
            .with_precision(mp_int::NetworkPrecision::uniform(n, 4, 4).unwrap());
        // Forge a first engine that consumes 1-bit inputs: the declared
        // 8-bit pixel stage no longer matches.
        t.engines[0].input_bits = 1;
        let report = verify(&t);
        assert!(report.has_code(codes::PRECISION_MISMATCH));
    }

    #[test]
    fn quant_first_engine_interval_uses_pixel_bound() {
        let engines = FinnTopology::paper().engines();
        let spec = mp_int::PrecisionSpec::try_new(8, 4).unwrap();
        // fan-in 27, pixels ±128, weights ±15.
        let acc = quant_engine_interval(&engines[0], spec, true).unwrap();
        assert_eq!(acc, Interval::symmetric(27 * 128 * 15));
        // Inner form would use the looser ±255 activation levels.
        let inner = quant_engine_interval(&engines[0], spec, false).unwrap();
        assert_eq!(inner, Interval::symmetric(27 * 255 * 15));
    }

    #[test]
    fn constant_activation_classification() {
        let acc = Interval::symmetric(10);
        let always = HwThreshold {
            bound: -10,
            negate: false,
        };
        let never = HwThreshold {
            bound: 11,
            negate: false,
        };
        let live = HwThreshold {
            bound: 0,
            negate: false,
        };
        assert_eq!(constant_activation(&always, acc), Some(true));
        assert_eq!(constant_activation(&never, acc), Some(false));
        assert_eq!(constant_activation(&live, acc), None);
        let neg_always = HwThreshold {
            bound: 10,
            negate: true,
        };
        assert_eq!(constant_activation(&neg_always, acc), Some(true));
    }
}

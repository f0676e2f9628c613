//! The feasibility oracle: `verify()` as a fast in-memory API.
//!
//! A design-space search asks the same question millions of times —
//! "is this (folding, precision) candidate legal, and what does it
//! cost?" — against a *fixed* engine chain, device and memory model.
//! Re-running the batch [`crate::verify`] per candidate would
//! re-prove everything that never changes (geometry chaining, base
//! intervals, threshold placement) and re-allocate report strings per
//! call. [`Oracle`] hoists all of that to construction time:
//!
//! 1. **Structure** — the dataflow pass and every other
//!    precision/folding-independent verdict is computed once, by
//!    running the full verifier on the bare chain.
//! 2. **Width tables** — for each engine and each of the 16 supported
//!    `(a_bits, w_bits)` pairs, the quantized/binary accumulator
//!    intervals, i32 fast-path safety, synthesized threshold width and
//!    MPIC cycle factor are precomputed, so the per-candidate
//!    "interval pass" is a table lookup.
//! 3. **Memoised budgets** — BRAM/LUT demand is per-engine and depends
//!    only on `(engine, P, S, a, w, next a)`, so allocations are cached
//!    across candidates; beam searches that mutate one engine at a
//!    time hit the cache for every other engine.
//!
//! [`Oracle::check`] stages the remaining per-candidate work
//! cheapest-first — structural counts, then folding legality and
//! memoised budgets, then the width lookups — and returns at the first
//! blocking error, so infeasible candidates (the vast majority in a
//! search) cost a few comparisons. The verdict is *identical* to the
//! batch verifier's: for any candidate, [`Oracle::check`] returns
//! `Infeasible` iff `verify(&oracle.target(&candidate))` has
//! error-severity diagnostics (pinned by a property test in
//! `tests/props.rs`).
//!
//! Host networks, DMUs and folded hardware attached to the seed target
//! are *not* part of the candidate space and are ignored: the oracle
//! answers for the engine chain alone.

use std::collections::HashMap;

use mp_bnn::EngineSpec;
use mp_fpga::cycle_model::engine_cycles;
use mp_fpga::datapath::DatapathModel;
use mp_fpga::device::Device;
use mp_fpga::folding::{EngineFolding, Folding};
use mp_fpga::memory::MemoryModel;
use mp_int::{CostLut, NetworkPrecision, PrecisionSpec, SUPPORTED_BITS};

use crate::diag::codes;
use crate::interval::{
    accumulator_interval, quant_engine_interval, required_threshold_bits, threshold_word_range,
};
use crate::mixed::{quantized_engine_demand, synthesize_quantized_chain};
use crate::{verify, VerifyTarget};

/// One point of the (folding × precision) design space.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Per-engine `(P, S)` choice.
    pub folding: Folding,
    /// Declared per-layer widths; `None` is the plain 1-bit chain.
    pub precision: Option<NetworkPrecision>,
}

/// Which oracle stage rejected a candidate, in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Precomputed chain verdicts and count checks.
    Structure,
    /// Folding legality and BRAM/LUT budgets.
    Resource,
    /// Interval / width proofs (table lookups).
    Width,
}

/// Why a candidate is infeasible: the first blocking diagnostic,
/// without the report machinery (`Copy`, no allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Stable `MP0xxx` code of the blocking error.
    pub code: &'static str,
    /// The stage that rejected the candidate.
    pub stage: Stage,
    /// Offending engine, when the error is per-engine.
    pub engine: Option<usize>,
}

/// Cost model of a feasible candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateCost {
    /// Slowest engine's eq. (3)/(4) cycle count at 1-bit arithmetic.
    pub bottleneck_cycles: u64,
    /// Slowest engine's cycle count with each layer scaled by its MPIC
    /// cost factor (equals `bottleneck_cycles` for 1-bit candidates).
    pub quant_bottleneck_cycles: f64,
    /// Modeled throughput `clock / quant_bottleneck_cycles` (eq. 5).
    pub modeled_fps: f64,
    /// BRAM-18K demand at the declared precision (weight bit-planes,
    /// threshold ladders, stream buffers).
    pub bram_18k: u64,
    /// LUT demand at the declared precision (datapath + memory LUTs).
    pub luts: u64,
    /// Whether the demand fits the device budget. Feasible-but-unfit
    /// candidates only exist for exploratory oracles (`require_fit`
    /// false); strict oracles reject them with MP0306/0307/0403/0404.
    pub fits: bool,
}

/// The oracle's answer for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feasibility {
    /// Legal under every pass; here is what it costs.
    Feasible(CandidateCost),
    /// Rejected; the first blocking error.
    Infeasible(Block),
}

impl Feasibility {
    /// The cost when feasible.
    pub fn cost(&self) -> Option<CandidateCost> {
        match self {
            Feasibility::Feasible(cost) => Some(*cost),
            Feasibility::Infeasible(_) => None,
        }
    }

    /// Whether the candidate survived every check.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }
}

/// Cache and throughput counters of an oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Candidates checked.
    pub checks: u64,
    /// Per-engine budget computations served from the memo.
    pub memo_hits: u64,
    /// Distinct `(engine, P, S, a, w, next a)` keys allocated.
    pub memo_entries: usize,
}

/// Width-proof table entry for one `(engine, a_bits, w_bits)`.
#[derive(Debug, Clone, Copy)]
struct WidthEntry {
    /// First width-stage error at these widths, if any.
    blocked: Option<&'static str>,
    /// Threshold word width the synthesized chain uses here.
    synth_threshold_bits: usize,
    /// Per-layer cycle multiplier against the layer's own baseline
    /// (layer 0 against `(a, 1)` pixels×binary, inner against XNOR).
    factor: f64,
}

/// Budget memo value: one engine's demand under one folding at one
/// precision corner, base accounting and quantized accounting
/// (datapath LUTs included, infrastructure excluded).
#[derive(Debug, Clone, Copy)]
struct EngineDemand {
    base_bram: u64,
    base_luts: u64,
    quant_bram: u64,
    quant_luts: u64,
}

/// `(a, w)` corner sentinel for precision-`None` memo keys.
const BASE_CORNER: usize = usize::MAX;

fn bits_idx(bits: usize) -> usize {
    match bits {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => unreachable!("PrecisionSpec widths are validated"),
    }
}

/// Interns a runtime diagnostic code into its static twin.
fn static_code(code: &str) -> &'static str {
    const ALL: &[&str] = &[
        codes::CHANNEL_CHAIN,
        codes::SPATIAL_CHAIN,
        codes::POOL_PLACEMENT,
        codes::INPUT_MISMATCH,
        codes::DMU_WIDTH,
        codes::HOST_SHAPE,
        codes::HOST_CLASSES,
        codes::CLASS_WIDTH,
        codes::DEGENERATE_ENGINE,
        codes::ODD_POOL,
        codes::ACC_OVERFLOW,
        codes::THRESHOLD_NARROW,
        codes::THRESHOLD_SATURATED,
        codes::THRESHOLD_PLACEMENT,
        codes::THRESHOLD_COUNT,
        codes::NAN_TAINT,
        codes::INF_PARAM,
        codes::EMPTY_TARGET,
        codes::INTERVAL_OVERFLOW,
        codes::QUANT_THRESHOLD_NARROW,
        codes::PRECISION_MISMATCH,
        codes::FOLDING_ZERO,
        codes::FOLDING_RANGE,
        codes::FOLDING_NON_DIVISOR,
        codes::FOLDING_COUNT,
        codes::CYCLE_MODEL,
        codes::BRAM_BUDGET,
        codes::LUT_BUDGET,
        codes::BOTTLENECK_IMBALANCE,
        codes::NEAR_BUDGET,
        codes::MIXED_CHAIN,
        codes::QUANT_ACC_OVERFLOW,
        codes::QUANT_BRAM_BUDGET,
        codes::QUANT_LUT_BUDGET,
        codes::MIXED_OVERWIDE,
    ];
    ALL.iter().copied().find(|c| *c == code).unwrap_or("MP0000")
}

/// The feasibility oracle over a fixed engine chain. See the module
/// docs for the staging and caching model.
#[derive(Debug, Clone)]
pub struct Oracle {
    name: String,
    engines: Vec<EngineSpec>,
    image: Option<(usize, usize, usize)>,
    classes: usize,
    device: Device,
    memory: MemoryModel,
    require_fit: bool,
    /// Precision/folding-independent verdict of the chain.
    structure_block: Option<Block>,
    /// Binary-interval verdict of the *base* chain, applied to
    /// precision-`None` candidates only (a declared precision replaces
    /// the chain's widths via synthesis).
    base_width_block: Option<Block>,
    /// `entries[engine][a_idx * 4 + w_idx]`.
    entries: Vec<[WidthEntry; 16]>,
    memo: HashMap<(usize, usize, usize, usize, usize), EngineDemand>,
    checks: u64,
    memo_hits: u64,
}

impl Oracle {
    /// Builds an oracle for the static parts of `target` (engine chain,
    /// image, classes, device, memory model, `require_fit`). The
    /// target's folding and precision describe one candidate and are
    /// ignored, as are host/DMU/hardware attachments.
    pub fn new(target: &VerifyTarget) -> Self {
        let mut base = VerifyTarget::from_engines(
            target.name.clone(),
            target.engines.clone(),
            target.image,
            target.classes,
            target.device.clone(),
        );
        base.memory = target.memory;
        base.require_fit = target.require_fit;
        let report = verify(&base);
        let mut structure_block = None;
        let mut base_width_block = None;
        for d in &report.diagnostics {
            if d.severity != crate::Severity::Error {
                continue;
            }
            let block = Block {
                code: static_code(&d.code),
                stage: Stage::Structure,
                engine: None,
            };
            let is_width = matches!(d.code.as_str(), "MP0201" | "MP0202" | "MP0209");
            if is_width {
                base_width_block.get_or_insert(Block {
                    stage: Stage::Width,
                    ..block
                });
            } else {
                structure_block.get_or_insert(block);
            }
        }

        let entries = build_width_entries(&target.engines, &CostLut::mpic());
        Self {
            name: target.name.clone(),
            engines: target.engines.clone(),
            image: target.image,
            classes: target.classes,
            device: target.device.clone(),
            memory: target.memory,
            require_fit: target.require_fit,
            structure_block,
            base_width_block,
            entries,
            memo: HashMap::new(),
            checks: 0,
            memo_hits: 0,
        }
    }

    /// The chain the oracle answers for.
    pub fn engines(&self) -> &[EngineSpec] {
        &self.engines
    }

    /// Cache/throughput counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            checks: self.checks,
            memo_hits: self.memo_hits,
            memo_entries: self.memo.len(),
        }
    }

    /// Engine `i`'s cycle multiplier at `spec`, against its own
    /// baseline (the term [`CostLut::network_factor`] weights).
    pub fn layer_factor(&self, engine: usize, spec: PrecisionSpec) -> f64 {
        self.entries[engine][bits_idx(spec.a_bits()) * 4 + bits_idx(spec.w_bits())].factor
    }

    /// Reconstructs the [`VerifyTarget`] equivalent to `candidate`:
    /// the synthesized chain (for declared precisions) with the
    /// candidate's folding and precision attached. `verify` on this
    /// target reaches the same error verdict as [`Oracle::check`].
    pub fn target(&self, candidate: &Candidate) -> VerifyTarget<'static> {
        let engines = match &candidate.precision {
            Some(precision) => synthesize_quantized_chain(&self.engines, precision),
            None => self.engines.clone(),
        };
        let mut t = VerifyTarget::from_engines(
            self.name.clone(),
            engines,
            self.image,
            self.classes,
            self.device.clone(),
        );
        t.memory = self.memory;
        t.require_fit = self.require_fit;
        t.folding = Some(candidate.folding.clone());
        t.precision = candidate.precision.clone();
        t
    }

    /// Full check: structure, then resources, then width proofs, with
    /// early exit at the first blocking error.
    pub fn check(&mut self, candidate: &Candidate) -> Feasibility {
        self.checks += 1;
        if let Some(block) = self.check_structure(candidate) {
            return Feasibility::Infeasible(block);
        }
        match self.check_resources(candidate) {
            Err(block) => Feasibility::Infeasible(block),
            Ok(cost) => match self.check_widths(candidate) {
                Some(block) => Feasibility::Infeasible(block),
                None => Feasibility::Feasible(cost),
            },
        }
    }

    /// Cheapest partial check: precomputed chain verdicts and count
    /// consistency. A `Some` here rejects the candidate without
    /// touching budgets or intervals; searches use it to prune whole
    /// branches before pricing anything.
    pub fn check_structure(&self, candidate: &Candidate) -> Option<Block> {
        if let Some(block) = self.structure_block {
            return Some(block);
        }
        if let Some(precision) = &candidate.precision {
            if precision.len() != self.engines.len() {
                return Some(Block {
                    code: codes::PRECISION_MISMATCH,
                    stage: Stage::Structure,
                    engine: None,
                });
            }
        }
        if candidate.folding.engines().len() != self.engines.len() {
            return Some(Block {
                code: codes::FOLDING_COUNT,
                stage: Stage::Structure,
                engine: None,
            });
        }
        None
    }

    /// Folding legality, cycle model and memoised budgets.
    fn check_resources(&mut self, candidate: &Candidate) -> Result<CandidateCost, Block> {
        let foldings = candidate.folding.engines();
        for (i, (spec, f)) in self.engines.iter().zip(foldings).enumerate() {
            if f.p == 0 || f.s == 0 {
                return Err(Block {
                    code: codes::FOLDING_ZERO,
                    stage: Stage::Resource,
                    engine: Some(i),
                });
            }
            if f.p > spec.weight_rows() || f.s > spec.weight_cols() {
                return Err(Block {
                    code: codes::FOLDING_RANGE,
                    stage: Stage::Resource,
                    engine: Some(i),
                });
            }
        }

        let specs = candidate.precision.as_ref().map(|p| p.layers());
        let mut bottleneck = 0u64;
        let mut quant_bottleneck = 0f64;
        let mut base_bram = 0u64;
        let mut base_luts = DatapathModel::default().infra_luts;
        let mut quant_bram = 0u64;
        let mut quant_luts = base_luts;
        for (i, f) in foldings.iter().enumerate() {
            let cycles = engine_cycles(&self.engines[i], f.p, f.s);
            bottleneck = bottleneck.max(cycles);
            let factor = match specs {
                Some(layers) => self.layer_factor(i, layers[i]),
                None => 1.0,
            };
            quant_bottleneck = quant_bottleneck.max(cycles as f64 * factor);
            let demand = self.engine_demand(i, *f, specs);
            base_bram += demand.base_bram;
            base_luts += demand.base_luts;
            quant_bram += demand.quant_bram;
            quant_luts += demand.quant_luts;
        }

        let device_bram = self.device.bram_18k;
        let device_luts = self.device.luts;
        let fits = base_bram <= device_bram
            && base_luts <= device_luts
            && quant_bram <= device_bram
            && quant_luts <= device_luts;
        if self.require_fit && !fits {
            let (code, engine) = if base_bram > device_bram {
                (codes::BRAM_BUDGET, None)
            } else if base_luts > device_luts {
                (codes::LUT_BUDGET, None)
            } else if quant_bram > device_bram {
                (codes::QUANT_BRAM_BUDGET, None)
            } else {
                (codes::QUANT_LUT_BUDGET, None)
            };
            return Err(Block {
                code,
                stage: Stage::Resource,
                engine,
            });
        }

        Ok(CandidateCost {
            bottleneck_cycles: bottleneck,
            quant_bottleneck_cycles: quant_bottleneck,
            modeled_fps: self.device.clock_hz / quant_bottleneck.max(1.0),
            bram_18k: quant_bram,
            luts: quant_luts,
            fits,
        })
    }

    /// Width proofs: table lookups per engine (precision candidates) or
    /// the precomputed base verdict.
    fn check_widths(&self, candidate: &Candidate) -> Option<Block> {
        let Some(precision) = &candidate.precision else {
            return self.base_width_block;
        };
        for (i, spec) in precision.layers().iter().enumerate() {
            let entry = &self.entries[i][bits_idx(spec.a_bits()) * 4 + bits_idx(spec.w_bits())];
            if let Some(code) = entry.blocked {
                return Some(Block {
                    code,
                    stage: Stage::Width,
                    engine: Some(i),
                });
            }
        }
        None
    }

    /// One engine's `(base, quantized)` budget demand under `f`,
    /// served from the memo. Exposed (as the quantized pair) so the
    /// autotuner's bound function prices partial assignments with
    /// exactly the oracle's numbers.
    pub fn quant_engine_demand(
        &mut self,
        engine: usize,
        f: EngineFolding,
        precision: Option<&NetworkPrecision>,
    ) -> (u64, u64) {
        let specs = precision.map(|p| p.layers());
        let d = self.engine_demand(engine, f, specs);
        (d.quant_bram, d.quant_luts)
    }

    fn engine_demand(
        &mut self,
        i: usize,
        f: EngineFolding,
        specs: Option<&[PrecisionSpec]>,
    ) -> EngineDemand {
        let (aw, next_a) = match specs {
            Some(layers) => (
                bits_idx(layers[i].a_bits()) * 4 + bits_idx(layers[i].w_bits()),
                layers.get(i + 1).map_or(1, |n| n.a_bits()),
            ),
            None => (BASE_CORNER, 1),
        };
        let key = (i, f.p, f.s, aw, next_a);
        if let Some(d) = self.memo.get(&key) {
            self.memo_hits += 1;
            return *d;
        }
        let datapath = DatapathModel::default();
        let d = match specs {
            None => {
                let mem = self.memory.allocate_engine(&self.engines[i], f);
                let luts = mem.luts() + datapath.engine_luts(&self.engines[i], f);
                EngineDemand {
                    base_bram: mem.bram_18k(),
                    base_luts: luts,
                    quant_bram: mem.bram_18k(),
                    quant_luts: luts,
                }
            }
            Some(layers) => {
                let spec = layers[i];
                let entry = &self.entries[i][aw];
                let mut synth = self.engines[i].clone();
                synth.input_bits = spec.a_bits();
                synth.threshold_bits = entry.synth_threshold_bits;
                let mem = self.memory.allocate_engine(&synth, f);
                let base_luts = mem.luts() + datapath.engine_luts(&synth, f);
                // The quantized accounting collapses to the base
                // accounting only when this layer is at the 1-bit
                // corner AND its consumer takes binary activations
                // (out_levels == 1) — a 1-bit layer feeding a 4-bit
                // consumer still stores a 15-level ladder.
                let corner = spec.w_bits() == 1 && (i == 0 || spec.a_bits() == 1) && next_a == 1;
                let (quant_bram, quant_luts) = if corner {
                    (mem.bram_18k(), base_luts)
                } else {
                    let out_levels = crate::mixed::ladder_levels(next_a);
                    quantized_engine_demand(&self.memory, &synth, f, spec, out_levels)
                };
                EngineDemand {
                    base_bram: mem.bram_18k(),
                    base_luts,
                    quant_bram,
                    quant_luts,
                }
            }
        };
        self.memo.insert(key, d);
        d
    }
}

/// Precomputes the per-(engine, widths) interval verdicts. This is the
/// whole interval pass, amortised: 16 combinations × the chain length,
/// each a handful of checked multiplies.
fn build_width_entries(engines: &[EngineSpec], lut: &CostLut) -> Vec<[WidthEntry; 16]> {
    let last = engines.len().saturating_sub(1);
    engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let mut row = [WidthEntry {
                blocked: None,
                synth_threshold_bits: 0,
                factor: 1.0,
            }; 16];
            for (ai, &a) in SUPPORTED_BITS.iter().enumerate() {
                for (wi, &w) in SUPPORTED_BITS.iter().enumerate() {
                    let spec = PrecisionSpec::try_new(a, w).expect("supported widths");
                    row[ai * 4 + wi] = width_entry(engine, i, last, spec, lut);
                }
            }
            row
        })
        .collect()
}

fn width_entry(
    engine: &EngineSpec,
    i: usize,
    last: usize,
    spec: PrecisionSpec,
    lut: &CostLut,
) -> WidthEntry {
    let (a, w) = (spec.a_bits(), spec.w_bits());
    let baseline = if i == 0 {
        lut.macs_per_cycle(a, 1)
    } else {
        lut.macs_per_cycle(1, 1)
    };
    let factor = baseline / lut.macs_per_cycle(a, w);

    let quant = quant_engine_interval(engine, spec, i == 0);
    let synth_threshold_bits = if engine.threshold_bits == 0 {
        0
    } else {
        match quant {
            Ok(acc) => required_threshold_bits(acc)
                .unwrap_or(62)
                .max(engine.threshold_bits),
            Err(_) => engine.threshold_bits,
        }
    };

    let mut blocked = None;
    let mut block = |code: &'static str| {
        if blocked.is_none() {
            blocked = Some(code);
        }
    };

    // Binary interval of the synthesized engine (input_bits = a):
    // MP0209/MP0201/MP0202 as `check_engine_intervals` would emit them.
    match accumulator_interval(engine.weight_cols(), a) {
        Err(_) => block(codes::INTERVAL_OVERFLOW),
        Ok(acc) => {
            if acc.magnitude().saturating_mul(2) > i64::from(i32::MAX) {
                block(codes::ACC_OVERFLOW);
            }
            if synth_threshold_bits > 0 {
                let word = threshold_word_range(synth_threshold_bits);
                if acc.lo < word.lo || acc.hi > word.hi {
                    block(codes::THRESHOLD_NARROW);
                }
            }
        }
    }

    // Quantized interval: MP0209/MP0210/MP0402, with the 1-bit-corner
    // skip the batch passes share (the binary checks above cover it).
    let corner = w == 1 && (i == 0 || a == 1);
    if !corner {
        match quant {
            Err(_) => block(codes::INTERVAL_OVERFLOW),
            Ok(acc) => {
                if i != last && synth_threshold_bits > 0 {
                    let word = threshold_word_range(synth_threshold_bits);
                    if acc.lo < word.lo || acc.hi > word.hi {
                        block(codes::QUANT_THRESHOLD_NARROW);
                    }
                }
                if acc.magnitude().saturating_mul(2) > i64::from(i32::MAX) {
                    block(codes::QUANT_ACC_OVERFLOW);
                }
            }
        }
    }

    WidthEntry {
        blocked,
        synth_threshold_bits,
        factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_bnn::FinnTopology;
    use mp_fpga::folding::FoldingSearch;

    fn paper_oracle(exploratory: bool) -> Oracle {
        let topo = FinnTopology::paper();
        let mut target = VerifyTarget::from_topology("oracle", &topo, Device::zu3eg());
        if exploratory {
            target = target.exploratory();
        }
        Oracle::new(&target)
    }

    fn anchor(engines: &[EngineSpec]) -> Folding {
        FoldingSearch::new(engines).balanced(232_558)
    }

    #[test]
    fn anchor_candidate_is_feasible_and_priced() {
        let mut oracle = paper_oracle(false);
        let folding = anchor(oracle.engines());
        let cand = Candidate {
            folding: folding.clone(),
            precision: None,
        };
        let result = oracle.check(&cand);
        let cost = result.cost().expect("anchor is feasible");
        assert_eq!(
            cost.bottleneck_cycles,
            folding.bottleneck_cycles(oracle.engines())
        );
        assert_eq!(cost.quant_bottleneck_cycles, cost.bottleneck_cycles as f64);
        assert!(cost.fits);
        assert!(cost.modeled_fps > 0.0);
    }

    #[test]
    fn quantized_candidate_costs_more_cycles_and_memory() {
        let mut oracle = paper_oracle(true);
        let n = oracle.engines().len();
        let folding = anchor(oracle.engines());
        let base = oracle
            .check(&Candidate {
                folding: folding.clone(),
                precision: None,
            })
            .cost()
            .unwrap();
        let quant = oracle
            .check(&Candidate {
                folding,
                precision: Some(NetworkPrecision::uniform(n, 4, 4).unwrap()),
            })
            .cost()
            .unwrap();
        assert!(quant.quant_bottleneck_cycles > base.quant_bottleneck_cycles);
        assert!(quant.bram_18k > base.bram_18k);
        assert!(quant.luts > base.luts);
        assert!(quant.modeled_fps < base.modeled_fps);
    }

    #[test]
    fn one_bit_precision_prices_like_none() {
        let mut oracle = paper_oracle(true);
        let n = oracle.engines().len();
        let folding = anchor(oracle.engines());
        let base = oracle
            .check(&Candidate {
                folding: folding.clone(),
                precision: None,
            })
            .cost()
            .unwrap();
        let one = oracle
            .check(&Candidate {
                folding,
                precision: Some(NetworkPrecision::one_bit(n).unwrap()),
            })
            .cost()
            .unwrap();
        assert_eq!(base.bram_18k, one.bram_18k);
        assert_eq!(base.luts, one.luts);
        assert_eq!(base.bottleneck_cycles, one.bottleneck_cycles);
        assert_eq!(one.quant_bottleneck_cycles, one.bottleneck_cycles as f64);
    }

    #[test]
    fn structural_rejections_are_cheap_and_typed() {
        let oracle = paper_oracle(false);
        let cand = Candidate {
            folding: Folding::new(vec![EngineFolding::new(1, 1)]),
            precision: None,
        };
        let block = oracle.check_structure(&cand).expect("count mismatch");
        assert_eq!(block.code, codes::FOLDING_COUNT);
        assert_eq!(block.stage, Stage::Structure);
    }

    #[test]
    fn degenerate_and_oversized_foldings_are_resource_blocks() {
        let mut oracle = paper_oracle(false);
        let mut engines = anchor(oracle.engines()).engines().to_vec();
        engines[2] = EngineFolding { p: 0, s: 4 };
        let zero = oracle.check(&Candidate {
            folding: Folding::new_unchecked(engines.clone()),
            precision: None,
        });
        match zero {
            Feasibility::Infeasible(b) => {
                assert_eq!(b.code, codes::FOLDING_ZERO);
                assert_eq!(b.engine, Some(2));
            }
            Feasibility::Feasible(_) => panic!("zero folding accepted"),
        }
        engines[2] = EngineFolding::new(1 << 20, 4);
        let range = oracle.check(&Candidate {
            folding: Folding::new_unchecked(engines),
            precision: None,
        });
        match range {
            Feasibility::Infeasible(b) => assert_eq!(b.code, codes::FOLDING_RANGE),
            Feasibility::Feasible(_) => panic!("oversized folding accepted"),
        }
    }

    #[test]
    fn memo_hits_accumulate_across_checks() {
        let mut oracle = paper_oracle(true);
        let folding = anchor(oracle.engines());
        let cand = Candidate {
            folding,
            precision: None,
        };
        let _ = oracle.check(&cand);
        let cold = oracle.stats();
        let _ = oracle.check(&cand);
        let warm = oracle.stats();
        assert_eq!(warm.checks, 2);
        assert_eq!(warm.memo_entries, cold.memo_entries);
        assert!(warm.memo_hits >= cold.memo_hits + cold.memo_entries as u64);
    }

    #[test]
    fn verdict_matches_batch_verifier_on_handpicked_corners() {
        let mut oracle = paper_oracle(true);
        let n = oracle.engines().len();
        let engines = oracle.engines().to_vec();
        let sweep = FoldingSearch::new(&engines).sweep(25_000, 1_000_000, 6);
        let precisions: Vec<Option<NetworkPrecision>> = vec![
            None,
            Some(NetworkPrecision::one_bit(n).unwrap()),
            Some(NetworkPrecision::uniform(n, 2, 2).unwrap()),
            Some(NetworkPrecision::uniform(n, 8, 8).unwrap()),
            Some(NetworkPrecision::uniform(3, 4, 4).unwrap()),
        ];
        for folding in sweep {
            for precision in &precisions {
                let cand = Candidate {
                    folding: folding.clone(),
                    precision: precision.clone(),
                };
                let fast = oracle.check(&cand);
                let report = verify(&oracle.target(&cand));
                assert_eq!(
                    fast.is_feasible(),
                    !report.has_errors(),
                    "disagreement at {:?}: {:?} vs\n{}",
                    precision.as_ref().map(|p| p.to_string()),
                    fast,
                    report.render_human()
                );
            }
        }
    }
}

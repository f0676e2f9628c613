//! # mp-verify
//!
//! Static design-rule checking and abstract interpretation for the
//! multi-precision pipeline.
//!
//! The paper's system is a *composition* — a FINN-style BNN dataflow
//! (P×S folding, eqs. 3–5, BRAM/LUT budgets) glued to a float host
//! network through a DMU — and every invariant that composition relies
//! on can be checked **without executing anything**. [`verify`] runs
//! three passes over a [`VerifyTarget`] and returns a
//! [`diag::Report`] of coded diagnostics:
//!
//! 1. **dataflow** ([`dataflow`]) — engine-to-engine channel/pixel
//!    chaining, pool-flag consistency, host-layer shape compatibility
//!    via `Network::output_shape`, DMU input width vs class count.
//! 2. **interval** ([`interval`]) — per-engine popcount/accumulator
//!    bounds (`2·pos_sum − total` ∈ `[-fan_in·2^(b-1), fan_in·2^(b-1)]`),
//!    threshold word-width and saturation analysis, i32 fast-path
//!    overflow proofs, NaN/Inf taint through host float layers.
//! 3. **resource** ([`resource`]) — folding legality (zero/degenerate
//!    P·S, range, divisor), cycle-model consistency against an
//!    independent transliteration of eqs. (3)–(4), BRAM-18K/LUT budgets
//!    vs the [`Device`], and bottleneck-imbalance lints.
//! 4. **mixed** ([`mixed`]) — mixed-precision chain legality: per-layer
//!    `(a_bits, w_bits)` compatibility across engine boundaries,
//!    quantized i32 fast-path proofs, and BRAM/LUT budgets scaled by
//!    weight bit-planes and threshold ladders (MP04xx).
//! 5. **cascade** ([`cascade`]) — decision-policy structure: gate
//!    placement/range on an N-stage [`CascadeShape`](mp_core::CascadeShape),
//!    dead-stage and passthrough lints, unit-cost validity and
//!    monotonicity down the chain (MP05xx).
//!
//! The `mp_lint` binary runs all passes over the shipped configurations
//! and writes `results/lint_report.json`; CI gates on error-severity
//! diagnostics.
//!
//! For search workloads, [`oracle::Oracle`] wraps the same passes as an
//! in-memory feasibility API: precomputed structural verdicts, interval
//! proofs as table lookups, memoised budget accounting, and early exit
//! — `Oracle::check(&Candidate)` reaches the exact error verdict of
//! [`verify`] at a fraction of the cost.
//!
//! # Example
//!
//! ```
//! use mp_bnn::FinnTopology;
//! use mp_fpga::{Device, FoldingSearch, MemoryModel};
//! use mp_verify::{verify, VerifyTarget};
//!
//! let topo = FinnTopology::paper();
//! let engines = topo.engines();
//! let folding = FoldingSearch::new(&engines).balanced(232_558);
//! let target = VerifyTarget::from_topology("paper-anchor", &topo, Device::zc702())
//!     .with_folding(folding)
//!     .with_memory(MemoryModel::partitioned());
//! let report = verify(&target);
//! assert!(!report.has_errors(), "{}", report.render_human());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod cascade;
pub mod dataflow;
pub mod diag;
pub mod interval;
pub mod mixed;
pub mod oracle;
pub mod resource;

pub use diag::{codes, Diagnostic, Report, Severity};
pub use interval::Interval;
pub use mixed::synthesize_quantized_chain;
pub use oracle::{Block, Candidate, CandidateCost, Feasibility, Oracle, OracleStats, Stage};

use mp_bnn::{EngineSpec, FinnTopology, HardwareBnn};
use mp_core::dmu::Dmu;
use mp_fpga::device::Device;
use mp_fpga::folding::Folding;
use mp_fpga::memory::MemoryModel;
use mp_nn::Network;

/// One full pipeline configuration to analyse statically.
///
/// Only the engine list and device are mandatory; every other component
/// is optional so partial pipelines (host-only, BNN-only, no folding
/// chosen yet) can be checked, and so golden tests can construct
/// deliberately broken configurations field by field.
#[derive(Debug, Clone)]
pub struct VerifyTarget<'a> {
    /// Configuration label used in report spans.
    pub name: String,
    /// BNN engine chain (may be empty for host-only targets).
    pub engines: Vec<EngineSpec>,
    /// Input image `(channels, height, width)` the first engine must
    /// accept; `None` skips the input check.
    pub image: Option<(usize, usize, usize)>,
    /// Class count read from the final engine / host output / DMU.
    pub classes: usize,
    /// Chosen folding; `None` skips the resource pass.
    pub folding: Option<Folding>,
    /// Memory allocation model for the resource pass.
    pub memory: MemoryModel,
    /// Target device for resource budgets.
    pub device: Device,
    /// When `true`, budget over-subscription is an error; when `false`
    /// (exploratory design points) it is reported as a warning.
    pub require_fit: bool,
    /// Decision-making unit whose input width must match `classes`.
    pub dmu: Option<&'a Dmu>,
    /// Host float network whose shapes and parameters are checked.
    pub host: Option<&'a Network>,
    /// Folded hardware BNN whose thresholds are checked against the
    /// static accumulator intervals.
    pub hw: Option<&'a HardwareBnn>,
    /// Per-layer quantized widths the engine chain is meant to run at;
    /// `None` means the plain 1-bit configuration. When set, the
    /// interval pass re-derives every accumulator bound at the declared
    /// `(a_bits, w_bits)` and proves the threshold words still fit
    /// (MP0210) and the precision matches the chain (MP0211).
    pub precision: Option<mp_int::NetworkPrecision>,
    /// Resolved decision-cascade shape
    /// ([`CascadePolicy::shape`](mp_core::CascadePolicy::shape)); `None`
    /// skips the cascade pass.
    pub cascade: Option<mp_core::CascadeShape>,
}

impl<'a> VerifyTarget<'a> {
    /// A target covering a full [`FinnTopology`] on `device`, with no
    /// folding, naive memory, and strict budget enforcement.
    pub fn from_topology(name: impl Into<String>, topo: &FinnTopology, device: Device) -> Self {
        Self::from_engines(
            name,
            topo.engines(),
            Some((topo.channels(), topo.height(), topo.width())),
            topo.classes(),
            device,
        )
    }

    /// A target over an explicit engine list (golden tests build broken
    /// chains this way).
    pub fn from_engines(
        name: impl Into<String>,
        engines: Vec<EngineSpec>,
        image: Option<(usize, usize, usize)>,
        classes: usize,
        device: Device,
    ) -> Self {
        Self {
            name: name.into(),
            engines,
            image,
            classes,
            folding: None,
            memory: MemoryModel::naive(),
            device,
            require_fit: true,
            dmu: None,
            host: None,
            hw: None,
            precision: None,
            cascade: None,
        }
    }

    /// A host-only target (no BNN engines).
    pub fn host_only(
        name: impl Into<String>,
        host: &'a Network,
        classes: usize,
        device: Device,
    ) -> Self {
        let mut t = Self::from_engines(name, Vec::new(), None, classes, device);
        t.host = Some(host);
        t
    }

    /// Sets the folding to check (enables the resource pass).
    pub fn with_folding(mut self, folding: Folding) -> Self {
        self.folding = Some(folding);
        self
    }

    /// Sets the memory model used for BRAM/LUT accounting.
    pub fn with_memory(mut self, memory: MemoryModel) -> Self {
        self.memory = memory;
        self
    }

    /// Marks the target as an exploratory design point: budget
    /// over-subscription downgrades from error to warning.
    pub fn exploratory(mut self) -> Self {
        self.require_fit = false;
        self
    }

    /// Attaches a DMU to cross-check against `classes`.
    pub fn with_dmu(mut self, dmu: &'a Dmu) -> Self {
        self.dmu = Some(dmu);
        self
    }

    /// Attaches a host network for shape and taint checking.
    pub fn with_host(mut self, host: &'a Network) -> Self {
        self.host = Some(host);
        self
    }

    /// Attaches a folded hardware BNN for threshold analysis.
    pub fn with_hardware(mut self, hw: &'a HardwareBnn) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Declares the per-layer quantized widths the chain runs at,
    /// enabling the MP0210/MP0211 quantized-interval checks.
    pub fn with_precision(mut self, precision: mp_int::NetworkPrecision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Attaches a resolved cascade shape, enabling the MP05xx
    /// decision-policy checks.
    pub fn with_cascade(mut self, cascade: mp_core::CascadeShape) -> Self {
        self.cascade = Some(cascade);
        self
    }
}

/// Runs all five passes over `target` and returns the report.
pub fn verify(target: &VerifyTarget) -> Report {
    let mut report = Report::new(target.name.clone());
    dataflow::check(target, &mut report);
    interval::check(target, &mut report);
    resource::check(target, &mut report);
    mixed::check(target, &mut report);
    cascade::check(target, &mut report);
    report
}

/// Formats an engine span: `"engine 3 (3x3-conv-128)"`.
pub(crate) fn engine_site(index: usize, spec: &EngineSpec) -> String {
    format!("engine {index} ({})", spec.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_fpga::folding::FoldingSearch;

    #[test]
    fn paper_anchor_is_clean() {
        let topo = FinnTopology::paper();
        let engines = topo.engines();
        let folding = FoldingSearch::new(&engines).balanced(232_558);
        let target = VerifyTarget::from_topology("paper", &topo, Device::zc702())
            .with_folding(folding)
            .with_memory(MemoryModel::partitioned());
        let report = verify(&target);
        assert!(!report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn scaled_topologies_are_clean() {
        for (name, topo) in [
            ("scaled-16", FinnTopology::scaled(16, 16, 4)),
            ("scaled-8", FinnTopology::scaled(8, 8, 8)),
        ] {
            let engines = topo.engines();
            let folding = FoldingSearch::new(&engines).balanced(100_000);
            let target = VerifyTarget::from_topology(name, &topo, Device::zc702())
                .with_folding(folding)
                .with_memory(MemoryModel::partitioned());
            let report = verify(&target);
            assert!(!report.has_errors(), "{}", report.render_human());
        }
    }
}

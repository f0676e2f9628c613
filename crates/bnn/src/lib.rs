//! # mp-bnn
//!
//! The binarised neural network: the "high-throughput" half of the
//! paper's multi-precision system, hand-rolled from scratch.
//!
//! Three views of the same network live here:
//!
//! 1. **Training view** ([`ste`]): layers with single-bit weights and
//!    activations trained by the straight-through estimator of
//!    Courbariaux & Bengio (the paper's reference \[2\]) —
//!    [`ste::BinConv2d`], [`ste::BinLinear`], [`ste::SignActivation`] —
//!    composed by [`BnnClassifier`] into the FINN CIFAR-10 topology of
//!    the paper's Table I.
//! 2. **Bit view** ([`bits`]): [`bits::BitVec`] / [`bits::BitMatrix`]
//!    pack ±1 values into machine words so inference runs on
//!    XNOR–popcount, the datapath FINN implements in LUTs.
//! 3. **Hardware view** ([`hardware`]): [`HardwareBnn`] is the folded
//!    inference network — bit-packed weights plus integer thresholds
//!    (batch-norm + sign folded per FINN) — functionally equivalent to
//!    the FPGA bitstream. `mp-fpga` models its timing and memory.
//!
//! # `unsafe`
//!
//! None: this crate is `#![forbid(unsafe_code)]`. The batch path's
//! `BinConv` engines run `mp_tensor::simd::PopcountConv` (built for
//! AVX-512 VPOPCNTDQ, for AVX2 and portably; this crate only repacks
//! the weights and folds the thresholds into popcount ranges), and its
//! first engine runs that module's channel-lane integer kernel
//! (`LaneWeights` pairs and a one-bound `LaneLadder` read out as packed
//! words); the module holds the workspace's CPU detection,
//! `#[target_feature]` builds and `unsafe` calls.
//!
//! # Example
//!
//! ```
//! use mp_bnn::FinnTopology;
//!
//! // The paper's Table I network for 32×32 RGB inputs.
//! let topo = FinnTopology::paper();
//! assert_eq!(topo.engines().len(), 9); // 6 conv + 3 FC engines
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod bin_conv;
pub mod bits;
mod classifier;
pub mod hardware;
pub mod planes;
pub mod ste;
mod topology;

pub use classifier::{BnFold, BnnClassifier, LatentKind, LatentStage};
pub use hardware::{AccRange, HardwareBnn, StageSummary};
pub use topology::{EngineKind, EngineSpec, FinnTopology};

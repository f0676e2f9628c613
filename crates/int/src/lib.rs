//! # mp-int
//!
//! The multi-precision integer inference path: the generalisation of
//! the 1-bit BNN datapath to per-layer `(a_bits, w_bits) ∈ {1, 2, 4, 8}²`
//! quantized layers, priced by an MPIC-style cycle-cost lookup table.
//!
//! Three pieces compose here:
//!
//! 1. **Configuration** ([`precision`]): [`PrecisionSpec`] /
//!    [`NetworkPrecision`] are validated per-layer width choices —
//!    every constructor and the checked `Deserialize` enforce the
//!    supported width set and the fixed 8-bit pixel first layer.
//! 2. **Execution** ([`quant`]): [`QuantBnn`] quantizes a trained
//!    `BnnClassifier` to a precision, packing weights into bit planes
//!    (`mp_bnn::planes`) and folding batch-norm + quantize pairs into
//!    integer threshold ladders. Batches run one channel-lane integer
//!    kernel (`mp_tensor::simd`): activations are `u8` level indices in
//!    `(y, x, ch)` order, every output channel of a pixel is an exact
//!    `i32` lane (`u8 × i8` quads, or `i16` pairs for 8-bit weights and
//!    pixels), and the ladders are lane compares folded at
//!    construction. `QuantBnn::infer_image` is the bit-serial plane
//!    reference they match bit for bit. Its 1-bit corner is
//!    bit-identical to `mp_bnn::HardwareBnn`. The SIMD builds live in
//!    `mp-tensor`, so this crate has no `unsafe`.
//! 3. **Cost** ([`cost`]): [`CostLut`] tabulates MACs/cycle per width
//!    pair (the MPIC measurements) and converts a [`NetworkPrecision`]
//!    into a single MAC-weighted multiplier on the eq. (3)/(4) 1-bit
//!    cycle model, which is how quantized configurations are priced in
//!    the pipeline's modeled throughput.
//!
//! # Example
//!
//! ```
//! use mp_int::{CostLut, NetworkPrecision};
//!
//! let lut = CostLut::mpic();
//! let net = NetworkPrecision::uniform(9, 4, 4).unwrap();
//! let macs = vec![1000u64; 9];
//! // 4-bit MACs cost more cycles than XNOR ones.
//! assert!(lut.network_factor(&net, &macs) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod cost;
pub mod precision;
pub mod quant;

pub use cost::{CostError, CostLut};
pub use precision::{
    NetworkPrecision, PrecisionError, PrecisionSpec, FIRST_LAYER_A_BITS, SUPPORTED_BITS,
};
pub use quant::{LevelThresholds, QuantBnn};

//! # mp-tensor
//!
//! Dense `f32` tensor substrate for the `multiprec` workspace.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! - [`Shape`]: dimension bookkeeping with row-major strides,
//! - [`Tensor`]: an owned, row-major `f32` n-dimensional array,
//! - [`linalg`]: blocked matrix multiplication and friends,
//! - [`conv`]: `im2col`/`col2im` lowering used by convolution layers,
//! - [`init`]: seeded random initialisers (uniform, normal, He, Xavier),
//! - [`simd`]: run-time SIMD tiers: the GEMM's builds, the channel-lane
//!   float convolution and max pool of `mp-nn`'s inference, and the
//!   integer and popcount kernels of `mp-int` and `mp-bnn`.
//!
//! The reference convolution follows the lowering approach of
//! Chellapilla et al.: convolutions become matrix–matrix products over
//! patch matrices. Inference on small maps instead takes the layout of
//! the paper's FINN engines, one output channel per SIMD lane with its
//! weights stationary and each patch value broadcast to all of them
//! ([`simd::FloatConv`]), summed in the same order.
//!
//! # `unsafe`
//!
//! Every other crate of the workspace is `#![forbid(unsafe_code)]`. This
//! one is `#![deny(unsafe_code)]` with a single exception, the
//! [`simd`] module: the one place in the workspace that detects CPU
//! features, compiles kernels with `#[target_feature]` and calls them,
//! and writes inline `asm!` (the AMX tile kernel, which Rust has no
//! stable intrinsics for, and its CPUID, XCR0 and OS-permission check).
//! Calling a `#[target_feature]` function is `unsafe`, and each such call
//! sits behind the matching feature check. The
//! float convolution, max pool, integer and popcount kernels use
//! `core::arch` intrinsics, whose loads and stores take raw pointers into
//! slices of checked length; the convolution's patch reads go through
//! tap and window offset tables that its constructor checks against the
//! padded image once. The GEMM body is safe Rust (slices and fixed-size
//! arrays).
//!
//! # Example
//!
//! ```
//! use mp_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), mp_tensor::ShapeError> {
//! let a = Tensor::from_vec(Shape::matrix(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(Shape::matrix(3, 2), vec![7., 8., 9., 10., 11., 12.])?;
//! let c = mp_tensor::linalg::matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice()[0], 58.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod error;
mod shape;
mod tensor;
mod workspace;

pub mod conv;
pub mod init;
pub mod linalg;
#[allow(unsafe_code)]
pub mod simd;

pub use error::ShapeError;
pub use shape::Shape;
pub use tensor::{nan_aware_argmax, Tensor};
pub use workspace::{Parallelism, Workspace};

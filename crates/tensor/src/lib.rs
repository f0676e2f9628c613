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
//! - [`simd`]: run-time SIMD tiers, including the channel-lane integer
//!   kernels of `mp-int` and of `mp-bnn`'s first engine.
//!
//! The design follows the convolution-lowering approach of Chellapilla et
//! al. that the paper's FINN substrate also uses: convolutions become
//! matrix–matrix products over patch matrices.
//!
//! # `unsafe`
//!
//! Every other crate of the workspace is `#![forbid(unsafe_code)]`. This
//! one is `#![deny(unsafe_code)]` with a single exception, the
//! [`simd`] module: the one place in the workspace that detects CPU
//! features, compiles kernels with `#[target_feature]` and calls them.
//! Calling a `#[target_feature]` function is `unsafe`, and each such call
//! sits behind the matching `is_x86_feature_detected!` check. The
//! integer kernels use `core::arch` intrinsics, whose loads and stores
//! take raw pointers into slices of checked length; the GEMM and the
//! popcount bodies are safe Rust (slices and fixed-size arrays).
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

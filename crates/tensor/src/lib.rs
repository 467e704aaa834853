//! Golden-model tensors and reference CNN operators.
//!
//! `sm-tensor` provides the *functional* substrate of the Shortcut Mining
//! reproduction: a simple dense NCHW [`Tensor`] and straightforward,
//! obviously-correct implementations of every operator the simulated
//! accelerator executes (convolution, pooling, fully-connected, element-wise
//! addition, channel concatenation, ReLU).
//!
//! These operators exist so that the cycle-level simulators in `sm-accel`
//! and `sm-core` can be checked for *value preservation*: any schedule of
//! tiled execution, buffer relabelling, shortcut pinning and spilling must
//! produce bit-identical outputs to the reference computed here. Most are
//! plain loops. The exception is the lowered convolution
//! ([`ops::conv2d_im2col`]) that golden execution runs at paper scale: it
//! gathers conv patches inside a packed, multi-threaded GEMM microkernel,
//! and tests hold it bit-identical to simple oracles ([`ops::im2col`]
//! followed by the scalar [`ops::gemm_nt`]) at every thread count.
//!
//! # Example
//!
//! ```
//! use sm_tensor::{Tensor, Shape4, ops::{Conv2dParams, conv2d}};
//!
//! # fn main() -> Result<(), sm_tensor::TensorError> {
//! let input = Tensor::random(Shape4::new(1, 3, 8, 8), 1);
//! let weights = Tensor::random(Shape4::new(16, 3, 3, 3), 2);
//! let params = Conv2dParams::new(3, 1, 1);
//! let output = conv2d(&input, &weights, None, params)?;
//! assert_eq!(output.shape(), Shape4::new(1, 16, 8, 8));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;
mod threads;

pub mod ops;

pub use error::TensorError;
pub use shape::Shape4;
pub use tensor::Tensor;
pub use threads::{set_threads, threads};

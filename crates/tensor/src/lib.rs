//! Dense n-dimensional tensor substrate for the Insum reproduction.
//!
//! This crate plays the role PyTorch's dense tensors play in the paper: it
//! provides the storage type every other layer builds on, a *reference*
//! `einsum` implementation used as the semantic ground truth for all
//! compiled kernels, and the gather/scatter primitives
//! ([`Tensor::index_select`], [`Tensor::index_add`]) that the Insum rewriter
//! lowers indirect accesses to.
//!
//! Storage is always row-major contiguous `f32`; a [`DType`] tag records the
//! *simulated* element type. Casting a tensor to [`DType::F16`] rounds every
//! value through IEEE binary16 so half-precision numerics are faithful, and
//! the GPU memory model reads the tag to account bytes and decide
//! Tensor-Core eligibility.
//!
//! # Copy-on-write storage
//!
//! The backing buffer is shared ([`std::sync::Arc`]) with copy-on-write
//! mutation: `clone`, [`Tensor::reshape`], [`Tensor::view`], and
//! [`Tensor::unsqueeze`] are O(1) handle operations, and the first write
//! through a handle whose buffer is shared materializes a private copy —
//! so every handle still behaves exactly like an independent deep-copy
//! value. This is what makes per-request tensor capture free across the
//! compile/launch/serve stack: read-only operands (sparse structure,
//! weights, activations) are bound by reference everywhere, and only the
//! output a kernel writes ever allocates. [`Tensor::ptr_eq`] tests
//! storage identity (a cheap proof of bit-identity), and
//! [`Tensor::deep_copy_count`] counts real buffer materializations for
//! clone-accounting checks. Equality (`==`) is logical — shape, dtype,
//! and element values — independent of sharing.
//!
//! # Example
//!
//! ```
//! use insum_tensor::{Tensor, DType};
//!
//! # fn main() -> Result<(), insum_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::eye(2);
//! let c = insum_tensor::einsum("ik,kj->ij", &[&a, &b])?;
//! assert!(c.allclose(&a, 1e-6, 1e-6));
//! # Ok(())
//! # }
//! ```

mod broadcast;
mod dtype;
mod einsum;
mod error;
mod f16;
mod indexing;
mod rng;
mod tensor;

pub use broadcast::broadcast_shapes;
pub use dtype::DType;
pub use einsum::{einsum, EinsumSpec};
pub use error::TensorError;
pub use f16::{f16_bits_to_f32, f16_round, f16_round_slice, f32_to_f16_bits};
pub use rng::{rand_normal, rand_uniform, randint};
pub use tensor::{Tensor, WeakTensor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

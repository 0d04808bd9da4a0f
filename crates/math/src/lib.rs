//! Exact integer and rational linear algebra for the Rasengan reproduction.
//!
//! The transition-Hamiltonian construction (paper §3) is built on the
//! general-solution theory of linear systems: every feasible solution of
//! `C x = b` is a particular solution plus an integer combination of
//! homogeneous basis vectors `u` with `C u = 0` and `u ∈ {-1,0,1}^n`.
//! Floating-point nullspaces cannot certify membership in `{-1,0,1}`, so
//! this crate implements the required linear algebra *exactly*:
//!
//! * [`Rational`] — arbitrary-precision-free exact rationals over `i128`
//!   with checked arithmetic (panics on overflow rather than corrupting a
//!   basis).
//! * [`IntMatrix`] / [`RatMatrix`] — dense integer and rational matrices.
//! * [`rref`] — reduced row-echelon form, rank, and exact nullspace bases.
//! * [`basis`] — extraction and validation of ternary (`{-1,0,1}`)
//!   homogeneous bases, plus the basis-quality measures used by the
//!   Hamiltonian simplification pass.
//! * [`solve`] — binary particular-solution search (backtracking with
//!   propagation) and exact linear-system solving.
//! * [`tu`] — total-unimodularity checks backing Theorem 1's `m²` vs `m³`
//!   coverage bound.
//!
//! # Example
//!
//! ```
//! use rasengan_math::{IntMatrix, basis::ternary_nullspace_basis};
//!
//! // The constraint system from the paper's Figure 1(a).
//! let c = IntMatrix::from_rows(&[
//!     vec![1, 1, -1, 0, 0],
//!     vec![0, 0, 1, 1, -1],
//! ]);
//! let basis = ternary_nullspace_basis(&c).expect("ternary basis exists");
//! assert_eq!(basis.len(), 3); // three homogeneous basis vectors
//! for u in &basis {
//!     assert!(c.mul_vec(u).iter().all(|&v| v == 0)); // C u = 0 exactly
//! }
//! ```

#![forbid(unsafe_code)]

pub mod basis;
pub mod hnf;
pub mod matrix;
pub mod rational;
pub mod rref;
pub mod solve;
pub mod tu;

pub use basis::{nonzero_count, ternary_nullspace_basis, TernaryBasisError};
pub use hnf::{hermite_normal_form, integer_nullspace, Hnf};
pub use matrix::{IntMatrix, RatMatrix};
pub use rational::Rational;
pub use rref::{nullspace, rank, rref_in_place, RrefSummary};
pub use solve::{find_binary_solution, solve_exact, SolveError};
pub use tu::{is_totally_unimodular, GhouilaHouri};

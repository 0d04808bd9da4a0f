//! Constrained-binary-optimization problems for the Rasengan
//! reproduction.
//!
//! Implements the problem substrate of the paper's evaluation (§5.1):
//! the [`Problem`] type (`min/max f(x)` s.t. `C x = b`, `x ∈ {0,1}^n`),
//! the five application domains with seeded generators and linear-time
//! initial feasible solutions, feasible-space enumeration / exact optima
//! for the ARG metric, constraint-topology statistics, and the
//! 20-benchmark registry (F1–G4).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`problem`] | Eq. 1, penalty form of §2.1 |
//! | [`flp`] | facility location \[14\] |
//! | [`kpp`] | k-partition \[6\] |
//! | [`jsp`] | job scheduling \[42\] |
//! | [`scp`] | set covering \[8\] |
//! | [`gcp`] | graph coloring \[23\] |
//! | [`enumerate`] | `E_opt`, `#feasible` (Table 2) |
//! | [`topology`] | constraint-graph average degree (Table 2) |
//! | [`registry`] | the 20 benchmarks |
//!
//! # Example
//!
//! ```
//! use rasengan_problems::registry::{benchmark, BenchmarkId};
//! use rasengan_problems::{enumerate_feasible, optimum};
//!
//! let j1 = benchmark(BenchmarkId::parse("J1").unwrap());
//! let feasible = enumerate_feasible(&j1);
//! let (best, value) = optimum(&j1);
//! assert!(feasible.contains(&best));
//! assert!(feasible.iter().all(|x| !j1.sense().is_better(j1.evaluate(x), value)));
//! ```

#![forbid(unsafe_code)]

pub mod binpack;
pub mod builder;
pub mod enumerate;
pub mod fingerprint;
pub mod flp;
pub mod gcp;
pub mod ingest;
pub mod io;
pub mod jsp;
pub mod kpp;
pub mod maxcut;
pub mod portfolio;
pub mod problem;
pub mod registry;
pub mod scp;
pub mod topology;

pub use builder::{BuildError, Cmp, ProblemBuilder};
pub use enumerate::{brute_force_feasible, enumerate_feasible, mean_feasible_objective, optimum};
pub use fingerprint::fingerprint;
pub use ingest::{parse_as, write_as, Format};
pub use problem::{Objective, Problem, ProblemError, Sense};
pub use registry::{all_ids, benchmark, cases, BenchmarkId, Domain};
pub use topology::{constraint_topology, ConstraintTopology};

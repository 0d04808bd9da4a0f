//! # Rasengan
//!
//! A from-scratch Rust reproduction of **"Rasengan: A Transition
//! Hamiltonian-based Approximation Algorithm for Solving Constrained
//! Binary Optimization Problems"** (Jiang et al., MICRO 2025).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`math`] — exact rational/integer linear algebra (nullspaces,
//!   ternary homogeneous bases, feasibility search).
//! * [`qsim`] — quantum circuit IR, dense and sparse simulators, noise
//!   channels, device models, transpilation.
//! * [`problems`] — the five constrained-binary-optimization domains
//!   (FLP, KPP, JSP, SCP, GCP) and the 20-instance benchmark registry.
//! * [`optim`] — derivative-free classical optimizers (COBYLA-style,
//!   Nelder–Mead, SPSA).
//! * [`baselines`] — HEA, penalty-term QAOA, and Choco-Q baselines.
//! * [`core`] — the Rasengan solver: transition Hamiltonians, circuit
//!   synthesis, Hamiltonian simplification and pruning, segmented
//!   execution, and purification-based error mitigation.
//! * [`serve`] — std-only multi-client TCP solve service with result
//!   and compile caches, admission control, and a blocking client.
//! * [`obs`] — structured tracing (deterministic span trees) and
//!   lock-sharded metrics (counters, gauges, log-bucketed histograms).
//!
//! # Quickstart
//!
//! ```
//! use rasengan::core::{Rasengan, RasenganConfig};
//! use rasengan::problems::{flp::FacilityLocation, Problem};
//!
//! // A small facility-location instance: 2 facilities, 2 demands.
//! let problem = FacilityLocation::generate(2, 2, 7).into_problem();
//! let config = RasenganConfig::default().with_seed(42);
//! let outcome = Rasengan::new(config).solve(&problem).unwrap();
//!
//! assert!(outcome.best.feasible);
//! # let _ = outcome.arg;
//! ```

#![forbid(unsafe_code)]

pub use rasengan_baselines as baselines;
pub use rasengan_core as core;
pub use rasengan_math as math;
pub use rasengan_obs as obs;
pub use rasengan_optim as optim;
pub use rasengan_problems as problems;
pub use rasengan_qsim as qsim;
pub use rasengan_serve as serve;

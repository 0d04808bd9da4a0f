//! Baseline VQA solvers the paper compares Rasengan against (§5.1):
//!
//! * [`Hea`] — hardware-efficient ansatz (Kandala et al., Nature'17)
//!   with a penalty-charged cost function.
//! * [`PQaoa`] — penalty-term QAOA (Verma & Lewis 2022), optionally
//!   with FrozenQubits-style hotspot freezing (ASPLOS'23) and
//!   Red-QAOA-style parameter seeding (ASPLOS'24).
//! * [`ChocoQ`] — commute-Hamiltonian QAOA (Xiang et al., HPCA'25), the
//!   strongest prior work.
//!
//! All three report through [`BaselineOutcome`], which mirrors the
//! metrics of `rasengan_core::Outcome` so comparison harnesses treat the
//! four algorithms uniformly.
//!
//! # Example
//!
//! ```no_run
//! use rasengan_baselines::{BaselineConfig, ChocoQ, Hea, PQaoa};
//! use rasengan_problems::registry::{benchmark, BenchmarkId};
//!
//! let problem = benchmark(BenchmarkId::parse("F1").unwrap());
//! let cfg = BaselineConfig::default().with_max_iterations(100);
//!
//! let hea = Hea::new(cfg.clone()).solve(&problem);
//! let pqaoa = PQaoa::new(cfg.clone()).solve(&problem);
//! let chocoq = ChocoQ::new(cfg).solve(&problem).unwrap();
//! println!("ARG: HEA {} / P-QAOA {} / Choco-Q {}", hea.arg, pqaoa.arg, chocoq.arg);
//! ```

#![forbid(unsafe_code)]

pub mod chocoq;
pub mod common;
pub mod gas;
pub mod hea;
pub mod ising;
pub mod pqaoa;

pub use chocoq::ChocoQ;
pub use common::{BaselineConfig, BaselineOptimizer, BaselineOutcome};
pub use gas::GroverAdaptiveSearch;
pub use hea::Hea;
pub use ising::{penalized_qubo, qubo_to_ising, Ising, Qubo};
pub use pqaoa::PQaoa;

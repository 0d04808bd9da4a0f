//! Benchmark harness for the Rasengan reproduction.
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md`'s per-experiment index). Shared machinery lives here:
//!
//! * [`report`] — fixed-width table printing + CSV output under
//!   `target/rasengan-reports/`.
//! * [`runners`] — uniform "run algorithm X on problem P" adapters
//!   returning one comparable row for all four algorithms.
//! * [`settings`] — fast/full mode handling (`--full` reproduces the
//!   paper's iteration budgets; the default is the artifact-style
//!   scaled-down reproduce mode).
//! * [`replay`] — deterministic workload manifests for the loadgen
//!   `--replay` arm (seeded Poisson arrivals over the full corpus).

#![forbid(unsafe_code)]

pub mod replay;
pub mod report;
pub mod runners;
pub mod settings;

pub use report::Table;
pub use runners::{run_algorithm, AlgoResult, Algorithm};
pub use settings::RunSettings;

//! The Rasengan algorithm — transition-Hamiltonian-based approximation
//! for constrained binary optimization (Jiang et al., MICRO 2025).
//!
//! Rasengan inverts the usual VQA strategy: instead of shrinking a
//! global superposition toward the feasible set, it *expands* the search
//! space outward from one feasible solution using transition
//! Hamiltonians built from the constraint system's homogeneous basis
//! (§3). Three hardware co-design optimizations make the circuits
//! NISQ-deployable (§4): Hamiltonian simplification and pruning,
//! segmented execution, and purification-based error mitigation.
//!
//! | Module | Paper section |
//! |---|---|
//! | [`hamiltonian`] | Definition 1, Eq. 5–7 |
//! | [`simplify`] | Algorithm 1 (§4.1) |
//! | [`prune`] | Hamiltonian pruning + early stop (§4.1, Fig. 6) |
//! | [`segment`] | Segmented execution (§4.2, Fig. 7) |
//! | [`purify`] | Error mitigation by purification (§4.3, Fig. 8) |
//! | [`solver`] | The end-to-end variational loop |
//! | [`metrics`] | ARG (Eq. 9), in-constraints rate |
//! | [`latency`] | Training-latency model (Fig. 12/13) |
//! | [`resilience`] | Retry / degradation / budget policies (robustness extension) |
//!
//! # Example
//!
//! ```
//! use rasengan_core::{Rasengan, RasenganConfig};
//! use rasengan_problems::registry::{benchmark, BenchmarkId};
//!
//! let problem = benchmark(BenchmarkId::parse("F1").unwrap());
//! let solver = Rasengan::new(RasenganConfig::default().with_max_iterations(100));
//! let outcome = solver.solve(&problem).unwrap();
//!
//! // Rasengan's output always satisfies the constraints…
//! assert_eq!(outcome.in_constraints_rate, 1.0);
//! // …and the compiled circuit is NISQ-shallow.
//! assert!(outcome.stats.max_segment_cx_depth <= 200);
//! ```

#![forbid(unsafe_code)]

pub mod hamiltonian;
pub mod latency;
pub mod metrics;
mod objective;
pub mod prune;
pub mod purify;
pub mod resilience;
pub mod segment;
pub mod simplify;
pub mod solver;

pub use hamiltonian::{problem_basis, TransitionHamiltonian};
pub use latency::{Latency, StageTimes};
pub use metrics::{arg, best_solution, distribution_arg, penalty_lambda, Solution};
pub use prune::{build_chain, coverage_curve, Chain, ChainConfig, CoveragePoint};
pub use resilience::{
    BudgetKind, DegradeFallback, ResilienceConfig, ResilienceEvent, ResilienceReport, Stage,
};
pub use segment::{apportion_shots, plan_segments, SegmentPlan};
pub use simplify::{simplify_basis, SimplifyResult};
pub use solver::{
    ChainStats, OptimizerKind, Outcome, Prepared, Rasengan, RasenganConfig, RasenganError,
};
// The observability types an `Outcome` embeds, so downstream crates can
// consume `Outcome::trace` without naming `rasengan-obs` directly.
pub use rasengan_obs::span::{Span, TraceTree};

#[cfg(test)]
mod tests {
    //! Re-export smoke test: every name the crate root promises must
    //! resolve and refer to the same item as its module path. Catches
    //! accidental removals when module internals get reshuffled.

    #[test]
    fn crate_root_reexports_resolve() {
        // Type re-exports: aliasing the crate-root name to the module
        // path compiles only if they are the same item.
        let _: Option<crate::Outcome> = None::<crate::solver::Outcome>;
        let _: Option<crate::RasenganConfig> = None::<crate::solver::RasenganConfig>;
        let _: Option<crate::Latency> = None::<crate::latency::Latency>;
        let _: Option<crate::StageTimes> = None::<crate::latency::StageTimes>;
        let _: Option<crate::TraceTree> = None::<rasengan_obs::span::TraceTree>;
        let _: Option<crate::ResilienceConfig> = None::<crate::resilience::ResilienceConfig>;
        let _: Option<crate::SegmentPlan> = None::<crate::segment::SegmentPlan>;

        // Function re-exports.
        let _: fn(f64, f64) -> f64 = crate::arg;
        let _ = crate::apportion_shots as fn(&[f64], usize) -> Vec<usize>;

        // Config defaults stay consistent with the documented behavior:
        // tracing off.
        let cfg = crate::RasenganConfig::default();
        assert!(!cfg.trace);
        assert!(crate::RasenganConfig::default().with_trace(true).trace);
    }
}

//! Derivative-free classical optimizers for variational parameter
//! training.
//!
//! The paper uses COBYLA (constrained optimization by linear
//! approximation, Powell \[33\]) for every method's parameter updates. The
//! parameter landscapes here are all low-dimensional, bounded, and
//! noisy-ish, so this crate implements three derivative-free local
//! optimizers behind one [`Optimizer`] trait:
//!
//! * [`Cobyla`] — a linear-approximation trust-region method in the
//!   spirit of Powell's COBYLA (the substitution is documented in
//!   DESIGN.md; our parameter problems are unconstrained boxes).
//! * [`NelderMead`] — the classic simplex method.
//! * [`Spsa`] — simultaneous-perturbation stochastic approximation,
//!   robust under sampling noise.
//!
//! All optimizers **minimize**; callers maximizing an objective negate
//! it.

#![forbid(unsafe_code)]

pub mod cobyla;
pub mod nelder_mead;
pub mod spsa;

pub use cobyla::Cobyla;
pub use nelder_mead::NelderMead;
pub use spsa::Spsa;

/// Outcome of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub best_params: Vec<f64>,
    /// Objective value at `best_params`.
    pub best_value: f64,
    /// Total number of objective evaluations.
    pub evaluations: usize,
    /// Number of optimizer iterations performed.
    pub iterations: usize,
    /// Best-so-far objective value after each iteration (convergence
    /// trace; used by the latency/convergence figures).
    pub history: Vec<f64>,
}

/// A derivative-free minimizer.
///
/// Implementations must be deterministic for a fixed configuration
/// (stochastic methods carry their own seed).
pub trait Optimizer {
    /// Minimizes `f` starting from `x0`.
    fn minimize(&self, f: &mut dyn FnMut(&[f64]) -> f64, x0: &[f64]) -> OptimizeResult;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shifted quadratic bowl: minimum at (1, -2), value 0.
    pub(crate) fn bowl(x: &[f64]) -> f64 {
        (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2)
    }

    fn check_converges(opt: &dyn Optimizer, tol: f64) {
        let mut f = |x: &[f64]| bowl(x);
        let res = opt.minimize(&mut f, &[0.0, 0.0]);
        assert!(
            res.best_value < tol,
            "{} stalled at {} (params {:?})",
            opt.name(),
            res.best_value,
            res.best_params
        );
        assert!(res.evaluations > 0);
        assert!(!res.history.is_empty());
        // History must be monotone non-increasing (best-so-far).
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn all_optimizers_minimize_a_bowl() {
        check_converges(&Cobyla::new(300), 1e-3);
        check_converges(&NelderMead::new(300), 1e-6);
        check_converges(&Spsa::new(500, 7), 1e-2);
    }
}

//! Simultaneous-perturbation stochastic approximation (SPSA).
//!
//! SPSA estimates the gradient from two evaluations at a random
//! symmetric perturbation, making it robust to the sampling noise of
//! shot-based quantum objective estimates — the usual alternative to
//! COBYLA in VQA training loops.

use crate::{OptimizeResult, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SPSA minimizer with the standard gain schedules
/// `a_k = a / (k + 1 + A)^α`, `c_k = c / (k + 1)^γ`.
///
/// # Example
///
/// ```
/// use rasengan_optim::{Optimizer, Spsa};
///
/// let mut f = |x: &[f64]| (x[0] - 2.0).powi(2);
/// let res = Spsa::new(400, 13).minimize(&mut f, &[0.0]);
/// assert!((res.best_params[0] - 2.0).abs() < 0.2);
/// ```
#[derive(Clone, Debug)]
pub struct Spsa {
    max_iterations: usize,
    seed: u64,
    a: f64,
    c: f64,
    alpha: f64,
    gamma: f64,
    stability: f64,
}

impl Spsa {
    /// Creates an SPSA optimizer with an iteration budget and RNG seed.
    pub fn new(max_iterations: usize, seed: u64) -> Self {
        Spsa {
            max_iterations,
            seed,
            a: 0.2,
            c: 0.1,
            alpha: 0.602,
            gamma: 0.101,
            stability: 10.0,
        }
    }
}

impl Optimizer for Spsa {
    fn minimize(&self, f: &mut dyn FnMut(&[f64]) -> f64, x0: &[f64]) -> OptimizeResult {
        let n = x0.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = x0.to_vec();
        let mut evals = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| {
            *evals += 1;
            f(x)
        };

        let mut best = x.clone();
        let mut best_val = eval(&x, &mut evals);
        let mut history = Vec::with_capacity(self.max_iterations);

        for k in 0..self.max_iterations {
            let ak = self.a / (k as f64 + 1.0 + self.stability).powf(self.alpha);
            let ck = self.c / (k as f64 + 1.0).powf(self.gamma);

            // Rademacher perturbation.
            let delta: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                .collect();
            let xp: Vec<f64> = x.iter().zip(&delta).map(|(v, d)| v + ck * d).collect();
            let xm: Vec<f64> = x.iter().zip(&delta).map(|(v, d)| v - ck * d).collect();
            let fp = eval(&xp, &mut evals);
            let fm = eval(&xm, &mut evals);

            for i in 0..n {
                let ghat = (fp - fm) / (2.0 * ck * delta[i]);
                x[i] -= ak * ghat;
            }

            let fx = eval(&x, &mut evals);
            if fx < best_val {
                best_val = fx;
                best = x.clone();
            }
            history.push(best_val);
        }

        OptimizeResult {
            best_params: best,
            best_value: best_val,
            evaluations: evals,
            iterations: self.max_iterations,
            history,
        }
    }

    fn name(&self) -> &'static str {
        "spsa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces() {
        let mut f1 = |x: &[f64]| x[0].powi(2) + x[1].powi(2);
        let mut f2 = |x: &[f64]| x[0].powi(2) + x[1].powi(2);
        let a = Spsa::new(100, 5).minimize(&mut f1, &[1.0, -1.0]);
        let b = Spsa::new(100, 5).minimize(&mut f2, &[1.0, -1.0]);
        assert_eq!(a.best_params, b.best_params);
        assert_eq!(a.best_value, b.best_value);
    }

    #[test]
    fn different_seeds_differ() {
        // Needs ≥ 2 dimensions: in 1-D the Rademacher sign cancels out
        // of the gradient estimate, making SPSA seed-independent.
        let mut f1 = |x: &[f64]| x[0].powi(2) + 2.0 * x[1].powi(2);
        let mut f2 = |x: &[f64]| x[0].powi(2) + 2.0 * x[1].powi(2);
        let a = Spsa::new(50, 1).minimize(&mut f1, &[1.0, 1.0]);
        let b = Spsa::new(50, 2).minimize(&mut f2, &[1.0, 1.0]);
        assert_ne!(a.best_params, b.best_params);
    }

    #[test]
    fn survives_noisy_objective() {
        // Deterministic pseudo-noise keyed off the point: SPSA should
        // still find the basin.
        let mut f = |x: &[f64]| {
            let noise = (x[0] * 1e4).sin() * 0.01;
            (x[0] - 1.0).powi(2) + noise
        };
        let res = Spsa::new(800, 3).minimize(&mut f, &[-1.0]);
        assert!(
            (res.best_params[0] - 1.0).abs() < 0.3,
            "{:?}",
            res.best_params
        );
    }

    #[test]
    fn evaluation_count_is_three_per_iteration_plus_one() {
        let mut f = |x: &[f64]| x[0].powi(2);
        let res = Spsa::new(10, 0).minimize(&mut f, &[1.0]);
        assert_eq!(res.evaluations, 1 + 3 * 10);
    }
}

//! The Nelder–Mead simplex method.

use crate::{OptimizeResult, Optimizer};

/// Classic Nelder–Mead with standard coefficients (reflection 1,
/// expansion 2, contraction ½, shrink ½).
///
/// # Example
///
/// ```
/// use rasengan_optim::{NelderMead, Optimizer};
///
/// let mut sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let res = NelderMead::new(200).minimize(&mut sphere, &[1.0, 1.0, 1.0]);
/// assert!(res.best_value < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct NelderMead {
    max_iterations: usize,
    initial_step: f64,
    tolerance: f64,
}

impl NelderMead {
    /// Creates a Nelder–Mead optimizer with an iteration budget.
    pub fn new(max_iterations: usize) -> Self {
        NelderMead {
            max_iterations,
            initial_step: 0.5,
            tolerance: 1e-10,
        }
    }
}

impl Optimizer for NelderMead {
    fn minimize(&self, f: &mut dyn FnMut(&[f64]) -> f64, x0: &[f64]) -> OptimizeResult {
        let n = x0.len();
        let mut evals = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| {
            *evals += 1;
            f(x)
        };

        // Initial simplex: x0 plus a step along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let v0 = eval(x0, &mut evals);
        simplex.push((x0.to_vec(), v0));
        for i in 0..n {
            let mut x = x0.to_vec();
            x[i] += self.initial_step;
            let v = eval(&x, &mut evals);
            simplex.push((x, v));
        }

        let mut history = Vec::with_capacity(self.max_iterations);
        let mut iterations = 0usize;

        for _ in 0..self.max_iterations {
            iterations += 1;
            simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
            history.push(simplex[0].1);

            let spread = simplex[n].1 - simplex[0].1;
            if spread.abs() < self.tolerance {
                break;
            }

            // Centroid of all but the worst.
            let centroid: Vec<f64> = (0..n)
                .map(|j| simplex[..n].iter().map(|(x, _)| x[j]).sum::<f64>() / n as f64)
                .collect();
            let worst = simplex[n].clone();

            let reflect: Vec<f64> = (0..n)
                .map(|j| centroid[j] + (centroid[j] - worst.0[j]))
                .collect();
            let fr = eval(&reflect, &mut evals);

            if fr < simplex[0].1 {
                // Try expansion.
                let expand: Vec<f64> = (0..n)
                    .map(|j| centroid[j] + 2.0 * (centroid[j] - worst.0[j]))
                    .collect();
                let fe = eval(&expand, &mut evals);
                simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
            } else if fr < simplex[n - 1].1 {
                simplex[n] = (reflect, fr);
            } else {
                // Contraction (inside or outside).
                let (base, fb) = if fr < worst.1 {
                    (&reflect, fr)
                } else {
                    (&worst.0, worst.1)
                };
                let contract: Vec<f64> = (0..n)
                    .map(|j| centroid[j] + 0.5 * (base[j] - centroid[j]))
                    .collect();
                let fc = eval(&contract, &mut evals);
                if fc < fb {
                    simplex[n] = (contract, fc);
                } else {
                    // Shrink toward the best vertex.
                    let best = simplex[0].0.clone();
                    for item in simplex.iter_mut().skip(1) {
                        let x: Vec<f64> = (0..n)
                            .map(|j| best[j] + 0.5 * (item.0[j] - best[j]))
                            .collect();
                        let v = eval(&x, &mut evals);
                        *item = (x, v);
                    }
                }
            }
        }

        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Best-so-far monotonicity for the history trace.
        for i in 1..history.len() {
            if history[i] > history[i - 1] {
                history[i] = history[i - 1];
            }
        }
        OptimizeResult {
            best_params: simplex[0].0.clone(),
            best_value: simplex[0].1,
            evaluations: evals,
            iterations,
            history,
        }
    }

    fn name(&self) -> &'static str {
        "nelder-mead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_rosenbrock_ish() {
        let mut rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let res = NelderMead::new(2000).minimize(&mut rosen, &[-1.0, 1.0]);
        assert!(res.best_value < 1e-4, "stalled at {}", res.best_value);
        assert!((res.best_params[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut f = |x: &[f64]| x[0] * x[0];
        let res = NelderMead::new(5).minimize(&mut f, &[10.0]);
        assert!(res.iterations <= 5);
    }

    #[test]
    fn one_dimensional_problem() {
        let mut f = |x: &[f64]| (x[0] - 3.0).powi(2) + 1.0;
        let res = NelderMead::new(200).minimize(&mut f, &[0.0]);
        assert!((res.best_params[0] - 3.0).abs() < 1e-4);
        assert!((res.best_value - 1.0).abs() < 1e-6);
    }

    #[test]
    fn early_stop_on_converged_simplex() {
        let mut f = |_: &[f64]| 42.0; // flat function converges instantly
        let res = NelderMead::new(1000).minimize(&mut f, &[0.0, 0.0]);
        assert!(res.iterations < 10);
        assert_eq!(res.best_value, 42.0);
    }
}

//! Hardware-efficient ansatz (HEA) baseline [Kandala et al., Nature'17].
//!
//! Repeated layers of native single-qubit rotations (`Ry`, `Rz`) and a
//! linear CX entangling ladder (paper Fig. 1c), trained against the
//! penalty-charged objective. Parameter count is `2n(L+1)` — the
//! order-of-magnitude-more-parameters row of Table 2.

use crate::common::{run_dense, train_and_report, BaselineConfig, BaselineOutcome};
use rasengan_problems::Problem;
use rasengan_qsim::Circuit;
use std::time::Instant;

/// The HEA solver.
///
/// # Example
///
/// ```no_run
/// use rasengan_baselines::{BaselineConfig, Hea};
/// use rasengan_problems::registry::{benchmark, BenchmarkId};
///
/// let problem = benchmark(BenchmarkId::parse("F1").unwrap());
/// let outcome = Hea::new(BaselineConfig::default().with_max_iterations(50))
///     .solve(&problem);
/// println!("HEA ARG = {}", outcome.arg);
/// ```
#[derive(Clone, Debug)]
pub struct Hea {
    config: BaselineConfig,
}

impl Hea {
    /// Creates an HEA solver.
    pub fn new(config: BaselineConfig) -> Self {
        Hea { config }
    }

    /// Number of variational parameters for `n` qubits and `layers`
    /// repetitions: an initial rotation block plus one per layer.
    pub fn n_params(n: usize, layers: usize) -> usize {
        2 * n * (layers + 1)
    }

    /// Builds the ansatz circuit: rotation blocks interleaved with CX
    /// ladders.
    pub fn circuit(n: usize, layers: usize, params: &[f64]) -> Circuit {
        assert_eq!(
            params.len(),
            Self::n_params(n, layers),
            "bad parameter count"
        );
        let mut c = Circuit::new(n);
        let mut idx = 0;
        let rotation_block = |c: &mut Circuit, idx: &mut usize| {
            for q in 0..n {
                c.ry(q, params[*idx]);
                c.rz(q, params[*idx + 1]);
                *idx += 2;
            }
        };
        rotation_block(&mut c, &mut idx);
        for _ in 0..layers {
            for q in 0..n.saturating_sub(1) {
                c.cx(q, q + 1);
            }
            rotation_block(&mut c, &mut idx);
        }
        c
    }

    /// Solves the problem; see [`BaselineOutcome`].
    pub fn solve(&self, problem: &Problem) -> BaselineOutcome {
        let cfg = &self.config;
        let started = Instant::now();
        let n = problem.n_vars();
        let x0 = vec![0.1; Self::n_params(n, cfg.layers)];
        let probe = Self::circuit(n, cfg.layers, &x0);
        train_and_report(
            problem,
            cfg,
            started,
            x0,
            probe.two_qubit_depth(),
            cfg.device.shot_duration(&probe),
            |params, rng| run_dense(&Self::circuit(n, cfg.layers, params), cfg, rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_math::IntMatrix;
    use rasengan_problems::{Objective, Sense};

    fn tiny() -> Problem {
        Problem::new(
            "tiny",
            IntMatrix::from_rows(&[vec![1, 1]]),
            vec![1],
            Objective::linear(vec![1.0, 3.0]),
            Sense::Minimize,
        )
        .unwrap()
    }

    #[test]
    fn parameter_count_formula() {
        assert_eq!(Hea::n_params(6, 5), 72);
        assert_eq!(Hea::n_params(2, 1), 8);
    }

    #[test]
    fn circuit_structure() {
        let c = Hea::circuit(3, 2, &vec![0.1; Hea::n_params(3, 2)]);
        // 3 rotation blocks of 6 gates + 2 ladders of 2 CX.
        assert_eq!(c.len(), 18 + 4);
        assert_eq!(c.two_qubit_gate_count(), 4);
    }

    #[test]
    #[should_panic(expected = "bad parameter count")]
    fn wrong_parameter_count_panics() {
        Hea::circuit(3, 2, &[0.1, 0.2]);
    }

    #[test]
    fn solve_returns_valid_metrics() {
        let out = Hea::new(
            BaselineConfig::default()
                .with_max_iterations(40)
                .with_layers(1),
        )
        .solve(&tiny());
        assert!(out.arg.is_finite());
        assert!(out.in_constraints_rate >= 0.0 && out.in_constraints_rate <= 1.0);
        assert_eq!(out.n_params, 8);
        let total: f64 = out.distribution.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

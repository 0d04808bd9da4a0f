//! Penalty-term QAOA (P-QAOA) baseline [Verma & Lewis 2022], with
//! FrozenQubits-style hotspot freezing [Ayanzadeh et al., ASPLOS'23] and
//! Red-QAOA-style parameter seeding [Wang et al., ASPLOS'24] as toggles.
//!
//! Constraints are folded into the objective as a quadratic penalty
//! (paper Fig. 1d); the circuit alternates `e^{-iγ H_obj}`
//! (Rz/Rzz layers) with the `Rx` mixer, starting from `H^{⊗n}|0⟩`.

use crate::common::{run_dense, train_and_report, BaselineConfig, BaselineOutcome};
use crate::ising::{penalized_qubo, qubo_to_ising, Ising};
use rasengan_core::metrics::penalty_lambda;
use rasengan_problems::Problem;
use rasengan_qsim::decompose::decompose_circuit;
use rasengan_qsim::Circuit;
use std::time::Instant;

/// The P-QAOA solver.
///
/// # Example
///
/// ```no_run
/// use rasengan_baselines::{BaselineConfig, PQaoa};
/// use rasengan_problems::registry::{benchmark, BenchmarkId};
///
/// let problem = benchmark(BenchmarkId::parse("J1").unwrap());
/// let outcome = PQaoa::new(BaselineConfig::default().with_max_iterations(50))
///     .solve(&problem);
/// println!("P-QAOA ARG = {}", outcome.arg);
/// ```
#[derive(Clone, Debug)]
pub struct PQaoa {
    config: BaselineConfig,
    frozen_qubits: usize,
    red_init: bool,
}

impl PQaoa {
    /// Creates a plain P-QAOA solver.
    pub fn new(config: BaselineConfig) -> Self {
        PQaoa {
            config,
            frozen_qubits: 0,
            red_init: false,
        }
    }

    /// Enables FrozenQubits-style freezing of the `k` hottest qubits
    /// (highest Ising degree), fixing them at their greedy-classical
    /// values and shrinking the circuit.
    pub fn with_frozen_qubits(mut self, k: usize) -> Self {
        self.frozen_qubits = k;
        self
    }

    /// Enables Red-QAOA-style initial-parameter seeding: a coarse grid
    /// search on the layer-1 landscape seeds all layers.
    pub fn with_red_init(mut self) -> Self {
        self.red_init = true;
        self
    }

    /// Builds the QAOA circuit for the given parameters
    /// (`γ₁β₁…γₚβₚ`).
    pub fn circuit(ising: &Ising, n: usize, params: &[f64], frozen: &[(usize, i64)]) -> Circuit {
        let mut c = Circuit::new(n);
        let frozen_set: Vec<usize> = frozen.iter().map(|&(q, _)| q).collect();
        // Frozen qubits are classically fixed: prepare them with X when 1.
        for &(q, v) in frozen {
            if v == 1 {
                c.x(q);
            }
        }
        for q in 0..n {
            if !frozen_set.contains(&q) {
                c.h(q);
            }
        }
        for layer in params.chunks(2) {
            let (gamma, beta) = (layer[0], layer[1]);
            for (i, &hi) in ising.h.iter().enumerate() {
                if hi != 0.0 && !frozen_set.contains(&i) {
                    c.rz(i, 2.0 * gamma * hi);
                }
            }
            for (&(a, b), &jab) in &ising.j {
                if jab == 0.0 {
                    continue;
                }
                match (frozen_set.contains(&a), frozen_set.contains(&b)) {
                    (false, false) => {
                        c.rzz(a, b, 2.0 * gamma * jab);
                    }
                    // A frozen partner turns the coupling into a field.
                    (true, false) => {
                        let z = frozen
                            .iter()
                            .find(|&&(q, _)| q == a)
                            .map(|&(_, v)| 1.0 - 2.0 * v as f64)
                            .expect("frozen value");
                        c.rz(b, 2.0 * gamma * jab * z);
                    }
                    (false, true) => {
                        let z = frozen
                            .iter()
                            .find(|&&(q, _)| q == b)
                            .map(|&(_, v)| 1.0 - 2.0 * v as f64)
                            .expect("frozen value");
                        c.rz(a, 2.0 * gamma * jab * z);
                    }
                    (true, true) => {}
                }
            }
            for q in 0..n {
                if !frozen_set.contains(&q) {
                    c.rx(q, 2.0 * beta);
                }
            }
        }
        c
    }

    /// Picks the `k` hottest qubits (largest total coupling degree) and
    /// freezes them at the values of the problem's initial feasible
    /// solution (a cheap classical anchor).
    fn frozen_assignment(&self, problem: &Problem, ising: &Ising) -> Vec<(usize, i64)> {
        if self.frozen_qubits == 0 {
            return Vec::new();
        }
        let n = problem.n_vars();
        let mut degree = vec![0.0f64; n];
        for (&(a, b), &j) in &ising.j {
            degree[a] += j.abs();
            degree[b] += j.abs();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| degree[b].total_cmp(&degree[a]));
        let anchor: Vec<i64> = problem
            .initial_feasible()
            .map(<[i64]>::to_vec)
            .unwrap_or_else(|| vec![0; n]);
        order
            .into_iter()
            .take(self.frozen_qubits.min(n))
            .map(|q| (q, anchor[q]))
            .collect()
    }

    /// Solves the problem; see [`BaselineOutcome`].
    pub fn solve(&self, problem: &Problem) -> BaselineOutcome {
        let cfg = &self.config;
        let started = Instant::now();
        let n = problem.n_vars();
        let lambda = penalty_lambda(problem);
        let ising = qubo_to_ising(&penalized_qubo(problem, lambda));
        let frozen = self.frozen_assignment(problem, &ising);

        // Reference circuit for depth/latency accounting.
        let probe = Self::circuit(&ising, n, &vec![0.3; 2 * cfg.layers], &frozen);
        let initial = if self.red_init {
            red_seed(&ising, n, cfg, &frozen, cfg.layers)
        } else {
            vec![0.3; 2 * cfg.layers]
        };
        train_and_report(
            problem,
            cfg,
            started,
            initial,
            decompose_circuit(&probe).two_qubit_depth(),
            cfg.device.shot_duration(&probe),
            |params, rng| run_dense(&Self::circuit(&ising, n, params, &frozen), cfg, rng),
        )
    }
}

/// Red-QAOA-style seeding: coarse 5×5 grid search of a single-layer
/// landscape, replicated across layers.
fn red_seed(
    ising: &Ising,
    n: usize,
    cfg: &BaselineConfig,
    frozen: &[(usize, i64)],
    layers: usize,
) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let grid = [0.1f64, 0.3, 0.5, 0.8, 1.2];
    let mut best = (0.3, 0.3);
    let mut best_e = f64::INFINITY;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x8ED);
    for &g in &grid {
        for &b in &grid {
            let c = PQaoa::circuit(ising, n, &[g, b], frozen);
            let dist = run_dense(
                &c,
                &BaselineConfig {
                    noise: rasengan_qsim::NoiseModel::noise_free(),
                    shots: None,
                    ..cfg.clone()
                },
                &mut rng,
            );
            let e: f64 = dist
                .iter()
                .map(|(&l, &p)| {
                    let bits: Vec<i64> = (0..n).map(|i| (l >> i & 1) as i64).collect();
                    p * ising.energy_of_bits(&bits)
                })
                .sum();
            if e < best_e {
                best_e = e;
                best = (g, b);
            }
        }
    }
    (0..layers).flat_map(|_| [best.0, best.1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_math::IntMatrix;
    use rasengan_problems::{Objective, Sense};

    fn tiny() -> Problem {
        // min x1 + 3x2  s.t.  x1 + x2 = 1 → optimum [1,0] value 1.
        Problem::new(
            "tiny",
            IntMatrix::from_rows(&[vec![1, 1]]),
            vec![1],
            Objective::linear(vec![1.0, 3.0]),
            Sense::Minimize,
        )
        .unwrap()
        .with_initial_feasible(vec![0, 1])
        .unwrap()
    }

    #[test]
    fn circuit_shape() {
        let p = tiny();
        let ising = qubo_to_ising(&penalized_qubo(&p, 10.0));
        let c = PQaoa::circuit(&ising, 2, &[0.3, 0.5, 0.2, 0.4], &[]);
        // 2 H + per layer (≤2 Rz + 1 Rzz + 2 Rx) × 2 layers.
        assert!(c.len() >= 2 + 2 * 3);
        assert_eq!(c.n_qubits(), 2);
    }

    #[test]
    fn solve_improves_over_random_start() {
        let p = tiny();
        let out = PQaoa::new(
            BaselineConfig::default()
                .with_max_iterations(60)
                .with_layers(2),
        )
        .solve(&p);
        // With a dominating penalty the optimizer should concentrate
        // most mass on feasible states.
        assert!(
            out.in_constraints_rate > 0.3,
            "rate {}",
            out.in_constraints_rate
        );
        assert!(out.arg.is_finite());
        assert_eq!(out.n_params, 4);
        assert!(out.circuit_depth > 0);
    }

    #[test]
    fn frozen_qubits_reduce_active_width() {
        let p = tiny();
        let solver = PQaoa::new(BaselineConfig::default()).with_frozen_qubits(1);
        let ising = qubo_to_ising(&penalized_qubo(&p, 10.0));
        let frozen = solver.frozen_assignment(&p, &ising);
        assert_eq!(frozen.len(), 1);
        let c = PQaoa::circuit(&ising, 2, &[0.3, 0.5], &frozen);
        // The frozen qubit receives no H gate.
        let h_count = c
            .gates()
            .iter()
            .filter(|g| matches!(g, rasengan_qsim::Gate::H(_)))
            .count();
        assert_eq!(h_count, 1);
    }

    #[test]
    fn red_init_produces_layer_replicated_params() {
        let p = tiny();
        let ising = qubo_to_ising(&penalized_qubo(&p, 10.0));
        let seed = red_seed(&ising, 2, &BaselineConfig::default(), &[], 3);
        assert_eq!(seed.len(), 6);
        assert_eq!(seed[0], seed[2]);
        assert_eq!(seed[1], seed[5]);
    }
}

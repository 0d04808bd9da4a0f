//! Uniform adapters running any of the four algorithms on a problem.

use rasengan_baselines::{BaselineConfig, BaselineOptimizer, ChocoQ, Hea, PQaoa};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::Problem;
use rasengan_qsim::{Device, NoiseModel};

/// The four algorithms of the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Hardware-efficient ansatz.
    Hea,
    /// Penalty-term QAOA (with FrozenQubits + Red-QAOA enhancements).
    PQaoa,
    /// Commute-Hamiltonian QAOA.
    ChocoQ,
    /// This paper.
    Rasengan,
}

impl Algorithm {
    /// All four, in the paper's table order.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Hea,
            Algorithm::PQaoa,
            Algorithm::ChocoQ,
            Algorithm::Rasengan,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Hea => "HEA",
            Algorithm::PQaoa => "P-QAOA",
            Algorithm::ChocoQ => "Choco-Q",
            Algorithm::Rasengan => "Rasengan",
        }
    }
}

/// One comparable result row.
#[derive(Clone, Debug)]
pub struct AlgoResult {
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// Approximation ratio gap (Eq. 9).
    pub arg: f64,
    /// Reported circuit depth (CX/two-qubit metric; for Rasengan the
    /// deepest *segment*, matching the paper's convention).
    pub depth: usize,
    /// Number of variational parameters.
    pub n_params: usize,
    /// Feasible fraction of the output distribution.
    pub in_constraints_rate: f64,
    /// Modeled quantum seconds.
    pub quantum_s: f64,
    /// Measured classical seconds.
    pub classical_s: f64,
    /// Best measured objective value.
    pub best_value: f64,
    /// Whether the run failed (noise destroyed all feasible outcomes).
    pub failed: bool,
}

/// Execution environment for one run.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// Random seed.
    pub seed: u64,
    /// Optimizer iteration budget.
    pub iterations: usize,
    /// QAOA/HEA layer count (paper: 5).
    pub layers: usize,
    /// Shots (None = exact where supported).
    pub shots: Option<usize>,
    /// Noise model.
    pub noise: NoiseModel,
    /// Device timing model.
    pub device: Device,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv {
            seed: 0,
            iterations: 100,
            layers: 5,
            shots: None,
            noise: NoiseModel::noise_free(),
            device: Device::ibm_quebec(),
        }
    }
}

/// Runs one algorithm on one problem under the given environment.
pub fn run_algorithm(alg: Algorithm, problem: &Problem, env: &RunEnv) -> AlgoResult {
    match alg {
        Algorithm::Rasengan => {
            let mut cfg = RasenganConfig::default()
                .with_seed(env.seed)
                .with_noise(env.noise)
                .with_max_iterations(env.iterations);
            cfg.device = env.device.clone();
            cfg.shots = env.shots;
            match Rasengan::new(cfg).solve(problem) {
                Ok(out) => AlgoResult {
                    algorithm: alg,
                    arg: out.arg,
                    depth: out.stats.max_segment_cx_depth,
                    n_params: out.stats.n_params,
                    in_constraints_rate: out.in_constraints_rate,
                    quantum_s: out.latency.quantum_s,
                    classical_s: out.latency.classical_s,
                    best_value: out.best.value,
                    failed: false,
                },
                Err(_) => failed(alg),
            }
        }
        Algorithm::ChocoQ => {
            let cfg = baseline_cfg(env);
            match ChocoQ::new(cfg).solve(problem) {
                Ok(out) => from_baseline(alg, out),
                Err(_) => failed(alg),
            }
        }
        Algorithm::PQaoa => {
            let cfg = baseline_cfg(env);
            let out = PQaoa::new(cfg)
                .with_frozen_qubits(1)
                .with_red_init()
                .solve(problem);
            from_baseline(alg, out)
        }
        Algorithm::Hea => {
            let mut cfg = baseline_cfg(env);
            // HEA's 2n(L+1) parameters make COBYLA's initial simplex the
            // dominant cost on wide registers; SPSA's dimension-free
            // 3-evaluation iterations keep fast mode fast.
            if Hea::n_params(problem.n_vars(), env.layers) > 60 && env.iterations < 300 {
                cfg = cfg.with_optimizer(BaselineOptimizer::Spsa);
            }
            let out = Hea::new(cfg).solve(problem);
            from_baseline(alg, out)
        }
    }
}

fn baseline_cfg(env: &RunEnv) -> BaselineConfig {
    let mut cfg = BaselineConfig::default()
        .with_seed(env.seed)
        .with_layers(env.layers)
        .with_max_iterations(env.iterations)
        .with_noise(env.noise);
    cfg.device = env.device.clone();
    cfg.shots = env.shots;
    cfg
}

fn from_baseline(alg: Algorithm, out: rasengan_baselines::BaselineOutcome) -> AlgoResult {
    AlgoResult {
        algorithm: alg,
        arg: out.arg,
        depth: out.circuit_depth,
        n_params: out.n_params,
        in_constraints_rate: out.in_constraints_rate,
        quantum_s: out.latency.quantum_s,
        classical_s: out.latency.classical_s,
        best_value: out.best.value,
        failed: false,
    }
}

fn failed(alg: Algorithm) -> AlgoResult {
    AlgoResult {
        algorithm: alg,
        arg: f64::INFINITY,
        depth: 0,
        n_params: 0,
        in_constraints_rate: 0.0,
        quantum_s: 0.0,
        classical_s: 0.0,
        best_value: f64::NAN,
        failed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_problems::registry::{benchmark, BenchmarkId};

    #[test]
    fn all_four_algorithms_run_on_j1() {
        let p = benchmark(BenchmarkId::parse("J1").unwrap());
        let env = RunEnv {
            iterations: 15,
            layers: 2,
            ..RunEnv::default()
        };
        for alg in Algorithm::all() {
            let r = run_algorithm(alg, &p, &env);
            assert!(!r.failed, "{} failed", alg.name());
            assert!(r.arg.is_finite(), "{} arg not finite", alg.name());
        }
    }

    #[test]
    fn rasengan_depth_is_smallest() {
        let p = benchmark(BenchmarkId::parse("F1").unwrap());
        let env = RunEnv {
            iterations: 10,
            layers: 5,
            ..RunEnv::default()
        };
        let ras = run_algorithm(Algorithm::Rasengan, &p, &env);
        let choco = run_algorithm(Algorithm::ChocoQ, &p, &env);
        assert!(
            ras.depth < choco.depth,
            "Rasengan segment depth {} must undercut Choco-Q {}",
            ras.depth,
            choco.depth
        );
    }
}

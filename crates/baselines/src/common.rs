//! Shared configuration, outcome type, and execution helpers for the
//! three baselines (HEA, P-QAOA, Choco-Q).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_core::latency::Latency;
use rasengan_core::metrics::{
    arg, best_solution, expectation, in_constraints_rate, penalty_lambda, Solution,
};
use rasengan_core::purify::normalized_distribution;
use rasengan_optim::{Cobyla, Optimizer, Spsa};
use rasengan_problems::{optimum, Problem, Sense};
use rasengan_qsim::exec::{DenseTrajectoryRunner, Program};
use rasengan_qsim::noise::apply_readout_error;
use rasengan_qsim::{Circuit, DenseState, Device, Label, NoiseModel, NOTIONAL_SHOTS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which classical optimizer trains a baseline's parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineOptimizer {
    /// COBYLA-style trust region (paper default). Builds an
    /// `n_params + 1`-point simplex up front — expensive for HEA's wide
    /// parameter vectors.
    Cobyla,
    /// SPSA: 3 evaluations per iteration regardless of dimension.
    Spsa,
}

/// Configuration shared by all baseline solvers.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// RNG seed.
    pub seed: u64,
    /// Circuit repetitions / QAOA layers (paper: 5).
    pub layers: usize,
    /// Optimizer iteration budget (paper: 300 noise-free, 100 on
    /// hardware).
    pub max_iterations: usize,
    /// Shots per evaluation; `None` = exact probabilities, or
    /// [`NOTIONAL_SHOTS`] under noise.
    pub shots: Option<usize>,
    /// Gate-level noise (forces shot-based execution).
    pub noise: NoiseModel,
    /// Device timing model for latency accounting.
    pub device: Device,
    /// Parameter-training optimizer; every baseline, Choco-Q included,
    /// trains with it.
    pub optimizer: BaselineOptimizer,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            seed: 0,
            layers: 5,
            max_iterations: 300,
            shots: None,
            noise: NoiseModel::noise_free(),
            device: Device::ibm_quebec(),
            optimizer: BaselineOptimizer::Cobyla,
        }
    }
}

impl BaselineConfig {
    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of layers.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the optimizer iteration budget.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets shot-based execution.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = Some(shots);
        self
    }

    /// Sets the noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Selects the parameter optimizer (builder style).
    pub fn with_optimizer(mut self, optimizer: BaselineOptimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Adopts a device's noise and timing models.
    pub fn on_device(mut self, device: Device) -> Self {
        self.noise = device.noise;
        self.device = device;
        self
    }
}

/// Result of a baseline solve — mirrors [`rasengan_core::Outcome`]'s
/// quality metrics so the comparison tables can treat all four
/// algorithms uniformly.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// Best measured solution.
    pub best: Solution,
    /// Expectation of the (penalty-charged) objective over the final
    /// distribution.
    pub expectation: f64,
    /// Approximation ratio gap (Eq. 9).
    pub arg: f64,
    /// Feasible fraction of the final distribution.
    pub in_constraints_rate: f64,
    /// Final distribution over basis labels.
    pub distribution: BTreeMap<Label, f64>,
    /// Two-qubit depth of one (decomposed) circuit instance.
    pub circuit_depth: usize,
    /// Number of variational parameters.
    pub n_params: usize,
    /// Modeled quantum + measured classical latency.
    pub latency: Latency,
    /// Best-so-far objective per iteration.
    pub history: Vec<f64>,
    /// Objective evaluations performed.
    pub evaluations: usize,
}

/// Executes a dense circuit and returns the measured distribution.
///
/// Exact probabilities unless [`NoiseModel::sampling_shots`] asks for
/// shots. Noise-free shots sample the final state; noisy shots each run
/// one trajectory plus readout errors, through a [`Program`] compiled
/// once per call and a [`DenseTrajectoryRunner`] that reuses its state
/// buffer.
pub fn run_dense(
    circuit: &Circuit,
    cfg: &BaselineConfig,
    rng: &mut StdRng,
) -> BTreeMap<Label, f64> {
    let Some(shots) = cfg.noise.sampling_shots(cfg.shots) else {
        return DenseState::from_circuit(circuit)
            .probabilities()
            .into_iter()
            .enumerate()
            .filter(|(_, p)| *p > 1e-12)
            .map(|(l, p)| (l as Label, p))
            .collect();
    };
    let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
    if cfg.noise.is_noisy() {
        let program = Program::compile(circuit);
        let mut runner = DenseTrajectoryRunner::new(&program, &cfg.noise);
        for _ in 0..shots {
            let label = runner.run(rng).sample_one(rng) as Label;
            let label = apply_readout_error(label, circuit.n_qubits(), cfg.noise.readout, rng);
            *counts.entry(label).or_insert(0) += 1;
        }
    } else {
        let state = DenseState::from_circuit(circuit);
        for (label, c) in state.sample(shots, rng) {
            *counts.entry(label as Label).or_insert(0) += c;
        }
    }
    normalized_distribution(&counts).unwrap_or_default()
}

/// The train-evaluate-report loop every baseline solves through:
/// trains `run(params, rng) → distribution` from `initial_params` with
/// `cfg.optimizer` under the problem's penalty-charged expectation,
/// runs the best parameters once more, and assembles the
/// [`BaselineOutcome`]. Each evaluation charges `shot_seconds` per shot
/// ([`NOTIONAL_SHOTS`] when `cfg.shots` is unset); `classical_s` is the
/// wall time since `started`, the caller's solve start.
pub fn train_and_report(
    problem: &Problem,
    cfg: &BaselineConfig,
    started: Instant,
    initial_params: Vec<f64>,
    circuit_depth: usize,
    shot_seconds: f64,
    mut run: impl FnMut(&[f64], &mut StdRng) -> BTreeMap<Label, f64>,
) -> BaselineOutcome {
    let lambda = penalty_lambda(problem);
    let sense = problem.sense();
    let quantum_per_eval = shot_seconds * cfg.shots.unwrap_or(NOTIONAL_SHOTS) as f64;
    let mut eval_counter = 0u64;
    let mut quantum_s = 0.0f64;

    let mut objective = |params: &[f64]| -> f64 {
        eval_counter += 1;
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ eval_counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dist = run(params, &mut rng);
        quantum_s += quantum_per_eval;
        let e = expectation(problem, &dist, lambda);
        match sense {
            Sense::Minimize => e,
            Sense::Maximize => -e,
        }
    };

    let result = match cfg.optimizer {
        BaselineOptimizer::Cobyla => {
            Cobyla::new(cfg.max_iterations).minimize(&mut objective, &initial_params)
        }
        BaselineOptimizer::Spsa => {
            Spsa::new(cfg.max_iterations, cfg.seed).minimize(&mut objective, &initial_params)
        }
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF1AA_F1AA);
    let dist = run(&result.best_params, &mut rng);
    quantum_s += quantum_per_eval;

    let e_real = expectation(problem, &dist, lambda);
    let (_, e_opt) = optimum(problem);
    BaselineOutcome {
        best: best_solution(problem, &dist),
        expectation: e_real,
        arg: arg(e_opt, e_real),
        in_constraints_rate: in_constraints_rate(problem, &dist),
        distribution: dist,
        circuit_depth,
        n_params: initial_params.len(),
        latency: Latency {
            quantum_s,
            classical_s: started.elapsed().as_secs_f64(),
            ..Latency::default()
        },
        history: result.history,
        evaluations: result.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rasengan_qsim::noise::run_dense_trajectory;

    #[test]
    fn run_dense_exact_matches_statevector() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cfg = BaselineConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let dist = run_dense(&c, &cfg, &mut rng);
        assert_eq!(dist.len(), 2);
        assert!((dist[&0] - 0.5).abs() < 1e-12);
        assert!((dist[&3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_dense_sampled_sums_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let cfg = BaselineConfig::default().with_shots(512);
        let mut rng = StdRng::seed_from_u64(1);
        let dist = run_dense(&c, &cfg, &mut rng);
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_dense_noisy_produces_distribution() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let cfg = BaselineConfig::default()
            .with_shots(64)
            .with_noise(NoiseModel::depolarizing(0.05));
        let mut rng = StdRng::seed_from_u64(2);
        let dist = run_dense(&c, &cfg, &mut rng);
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// HEA- and QAOA-shaped noisy test circuits on 4 and 5 qubits.
    fn reference_circuits() -> Vec<Circuit> {
        let mut hea = Circuit::new(4);
        for q in 0..4 {
            hea.ry(q, 0.4 + 0.1 * q as f64).rz(q, -0.3);
        }
        for q in 0..3 {
            hea.cx(q, q + 1);
        }
        let mut qaoa = Circuit::new(5);
        for q in 0..5 {
            qaoa.h(q);
        }
        for q in 0..4 {
            qaoa.cx(q, q + 1).rz(q + 1, 0.7).cx(q, q + 1);
        }
        for q in 0..5 {
            qaoa.rx(q, 0.35);
        }
        vec![hea, qaoa]
    }

    #[test]
    fn reference_noisy_dense_matches_compiled_shot_by_shot() {
        // Gate-by-gate reference oracle: every trajectory re-walks the
        // gate list on a fresh state. `run_dense` must produce the same
        // label for every shot, which over one shared RNG means the
        // same counts and the same RNG position afterwards.
        let regimes = [
            NoiseModel::ibm_like(0.02, 0.05, 0.02),
            NoiseModel::ibm_like(0.02, 0.05, 0.02)
                .with_amplitude_damping(0.01)
                .with_phase_damping(0.01),
        ];
        for noise in regimes {
            for c in reference_circuits() {
                let cfg = BaselineConfig::default().with_shots(200).with_noise(noise);
                let mut rng = StdRng::seed_from_u64(7);
                let got = run_dense(&c, &cfg, &mut rng);
                let mut oracle_rng = StdRng::seed_from_u64(7);
                let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
                for _ in 0..200 {
                    let state = run_dense_trajectory(&c, &noise, &mut oracle_rng);
                    let sample = state.sample(1, &mut oracle_rng);
                    let (&label, _) = sample.iter().next().expect("one sample");
                    let label = apply_readout_error(
                        label as Label,
                        c.n_qubits(),
                        noise.readout,
                        &mut oracle_rng,
                    );
                    *counts.entry(label).or_insert(0) += 1;
                }
                let want: BTreeMap<Label, f64> = counts
                    .into_iter()
                    .map(|(l, c)| (l, c as f64 / 200.0))
                    .collect();
                assert_eq!(got, want, "{noise:?}");
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "{noise:?}");
            }
        }
    }

    #[test]
    fn builder_methods() {
        let cfg = BaselineConfig::default()
            .with_seed(9)
            .with_layers(7)
            .with_max_iterations(42)
            .with_shots(10);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.layers, 7);
        assert_eq!(cfg.max_iterations, 42);
        assert_eq!(cfg.shots, Some(10));
    }
}

//! Choco-Q baseline: commute-Hamiltonian-based QAOA
//! [Xiang et al., HPCA'25].
//!
//! The mixer is built from Hamiltonians that commute with the constraint
//! operators — here the same transition Hamiltonians Rasengan uses,
//! applied as a first-order Trotter product `Π_k τ(u_k, β)` — and the
//! initial state is one feasible solution, so the noise-free output
//! stays inside the feasible space (paper Fig. 1e). The objective layer
//! is the diagonal evolution `e^{-iγ f(x)}`.
//!
//! Differences from Rasengan that the evaluation measures: every mixer
//! layer replays *all* `m` transition operators (depth `Σ 34k` per
//! layer, the 1000+-deep circuits of Table 2), there are only `2L`
//! parameters, and there is no pruning, segmentation, or purification.

use crate::common::{train_and_report, BaselineConfig, BaselineOutcome};
use rand::rngs::StdRng;
use rand::Rng;
use rasengan_core::hamiltonian::{problem_basis, TransitionHamiltonian};
use rasengan_core::latency::segment_shot_seconds;
use rasengan_core::purify::normalized_distribution;
use rasengan_core::segment::SegmentProgram;
use rasengan_math::basis::TernaryBasisError;
use rasengan_problems::Problem;
use rasengan_qsim::noise::apply_readout_error;
use rasengan_qsim::sparse::{bits_from_label, label_from_bits};
use rasengan_qsim::{Complex, Label, NoiseModel, SparseState};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The Choco-Q solver.
///
/// # Example
///
/// ```no_run
/// use rasengan_baselines::{BaselineConfig, ChocoQ};
/// use rasengan_problems::registry::{benchmark, BenchmarkId};
///
/// let problem = benchmark(BenchmarkId::parse("K1").unwrap());
/// let outcome = ChocoQ::new(BaselineConfig::default().with_max_iterations(80))
///     .solve(&problem)
///     .unwrap();
/// println!("Choco-Q ARG = {}", outcome.arg);
/// ```
#[derive(Clone, Debug)]
pub struct ChocoQ {
    config: BaselineConfig,
}

impl ChocoQ {
    /// Creates a Choco-Q solver.
    pub fn new(config: BaselineConfig) -> Self {
        ChocoQ { config }
    }

    /// Per-layer CX cost: the Trotterized mixer (`Σ 34k`) plus the
    /// objective's `Rzz` terms (2 CX each).
    pub fn layer_cx_cost(problem: &Problem, hams: &[TransitionHamiltonian]) -> usize {
        let mixer: usize = hams.iter().map(|h| h.cx_cost()).sum();
        let objective = 2 * problem.objective().quadratic.len();
        mixer + objective
    }

    /// Solves the problem through the shared training loop, starting
    /// every parameter at 0.2.
    ///
    /// # Errors
    ///
    /// Propagates [`TernaryBasisError`] if no commuting mixer basis
    /// exists.
    pub fn solve(&self, problem: &Problem) -> Result<BaselineOutcome, TernaryBasisError> {
        let cfg = &self.config;
        let started = Instant::now();
        let hams: Vec<TransitionHamiltonian> = problem_basis(problem)?
            .into_iter()
            .map(TransitionHamiltonian::new)
            .collect();
        let seed_bits: Vec<i64> = problem
            .initial_feasible()
            .map(<[i64]>::to_vec)
            .or_else(|| {
                rasengan_math::find_binary_solution(problem.constraints(), problem.rhs()).ok()
            })
            .expect("benchmark problems carry feasible seeds");
        let seed_label = label_from_bits(&seed_bits);
        let program = SegmentProgram::compile(&hams);
        let total_cx = Self::layer_cx_cost(problem, &hams) * cfg.layers;
        Ok(train_and_report(
            problem,
            cfg,
            started,
            vec![0.2; 2 * cfg.layers],
            total_cx,
            // The full-depth circuit, one reset and readout per shot.
            segment_shot_seconds(&cfg.device, total_cx, 0),
            |params, rng| run_chocoq(problem, &program, seed_label, params, cfg, rng),
        ))
    }
}

/// One evaluation's compiled execution context: the solve's
/// Trotterized mixer, compiled once per solve as a [`SegmentProgram`]
/// (precomputed masks, supports, CX costs), per-layer mixing constants
/// evaluated once, and memo caches reusing objective evaluations and
/// `cis` phases across all trajectories of the evaluation. Every path
/// evolves a [`SparseState`], the state Rasengan's segments run on;
/// noisy shots run on one that every shot of the evaluation resets and
/// reuses. Every floating-point value it
/// feeds the state is identical to what a gate-by-gate replay of the
/// circuit computes, so the two agree bit for bit per shot (the
/// `reference_*` tests below).
struct CompiledEval<'a> {
    problem: &'a Problem,
    n: usize,
    program: &'a SegmentProgram,
    /// `(γ, cos β, −i·sin β)` per layer.
    layers: Vec<(f64, Complex, Complex)>,
    /// The feasible seed every shot starts from (prepared by an X column).
    seed_label: Label,
    /// `f(label)` memo, shared by all layers and shots.
    obj_cache: HashMap<Label, f64>,
    /// `e^{-iγ·f(label)}` memo per layer (γ differs per layer).
    phase_cache: Vec<HashMap<Label, Complex>>,
}

impl<'a> CompiledEval<'a> {
    fn new(
        problem: &'a Problem,
        program: &'a SegmentProgram,
        seed_label: Label,
        params: &[f64],
    ) -> Self {
        let n = problem.n_vars();
        let layers: Vec<(f64, Complex, Complex)> = params
            .chunks(2)
            .map(|layer| {
                let (gamma, beta) = (layer[0], layer[1]);
                (
                    gamma,
                    Complex::from(beta.cos()),
                    Complex::new(0.0, -beta.sin()),
                )
            })
            .collect();
        CompiledEval {
            problem,
            n,
            program,
            phase_cache: vec![HashMap::new(); layers.len()],
            layers,
            seed_label,
            obj_cache: HashMap::new(),
        }
    }

    /// The objective layer's factor `e^{-iγ f(x)}` per label, with both
    /// the objective polynomial and the `cis` evaluation memoized.
    fn objective_phase(&mut self, layer: usize) -> impl FnMut(Label) -> Complex + '_ {
        let (gamma, _, _) = self.layers[layer];
        let (problem, n) = (self.problem, self.n);
        let obj_cache = &mut self.obj_cache;
        let phase_cache = &mut self.phase_cache[layer];
        move |l| {
            *phase_cache.entry(l).or_insert_with(|| {
                let f = *obj_cache
                    .entry(l)
                    .or_insert_with(|| problem.evaluate(&bits_from_label(l, n)));
                Complex::cis(-gamma * f)
            })
        }
    }

    fn evolve_exact(&mut self, state: &mut SparseState) {
        for layer in 0..self.layers.len() {
            state.apply_diagonal_phase_with(self.objective_phase(layer));
            let (_, cos, misin) = self.layers[layer];
            for ct in &self.program.ops {
                state.apply_transition_with(&ct.transition, cos, misin);
            }
        }
    }

    /// One noisy shot on `state`, reset to the seed label, measured
    /// through the trajectory's kept sampler (before readout error).
    fn evolve_noisy(
        &mut self,
        state: &mut SparseState,
        noise: &NoiseModel,
        rng: &mut StdRng,
    ) -> Label {
        let seed_label = self.seed_label;
        state.reset(seed_label);
        // State-preparation X column.
        let prep = (0..self.n).filter(|&q| seed_label >> q & 1 == 1);
        state.gate_noise(prep, noise.p1, noise, rng);
        let noise_free = NoiseModel::noise_free();
        let pauli_only = NoiseModel {
            amplitude_damping: 0.0,
            phase_damping: 0.0,
            ..*noise
        };
        for layer in 0..self.layers.len() {
            state.apply_diagonal_phase_with(self.objective_phase(layer));
            // Objective Rzz noise: 2 CX per quadratic term.
            for &(a, b, _) in &self.problem.objective().quadratic {
                for q in [a, b] {
                    if rng.gen::<f64>() < noise.p2 {
                        state.gate_noise([q], 1.0, &noise_free, rng);
                    }
                }
            }
            // Mixer CX noise: Choco-Q's transition noise has no damping
            // channel, so each operator's slots run as depolarizing rolls.
            let (_, cos, misin) = self.layers[layer];
            for ct in &self.program.ops {
                state.apply_transition_with(&ct.transition, cos, misin);
                state.noise_slots(&ct.support, ct.cx_cost, noise.p2, &pauli_only, rng);
            }
        }
        state.sample_one(rng)
    }
}

/// Executes the Choco-Q circuit once through one evaluation's
/// [`CompiledEval`] of the solve's mixer `program`: exact, or at the
/// shots [`NoiseModel::sampling_shots`] asks for.
fn run_chocoq(
    problem: &Problem,
    program: &SegmentProgram,
    seed_label: Label,
    params: &[f64],
    cfg: &BaselineConfig,
    rng: &mut StdRng,
) -> BTreeMap<Label, f64> {
    let n = problem.n_vars();
    let mut eval = CompiledEval::new(problem, program, seed_label, params);
    let Some(shots) = cfg.noise.sampling_shots(cfg.shots) else {
        let mut state = SparseState::basis_state(n, seed_label);
        eval.evolve_exact(&mut state);
        return state.distribution();
    };
    let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
    if cfg.noise.is_noisy() {
        // One state serves every shot.
        let mut state = SparseState::basis_state(n, 0);
        for _ in 0..shots {
            let label = eval.evolve_noisy(&mut state, &cfg.noise, rng);
            let label = apply_readout_error(label, n, cfg.noise.readout, rng);
            *counts.entry(label).or_insert(0) += 1;
        }
    } else {
        // Noise-free evolution draws nothing, so one state and one
        // prepared sampler serve every shot.
        let mut state = SparseState::basis_state(n, seed_label);
        eval.evolve_exact(&mut state);
        let sampler = state.prepared_sampler();
        for _ in 0..shots {
            *counts.entry(sampler.draw(rng)).or_insert(0) += 1;
        }
    }
    normalized_distribution(&counts).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineOptimizer;
    use rand::SeedableRng;
    use rasengan_problems::registry::{benchmark, BenchmarkId};
    use rasengan_qsim::noise::apply_gate_noise_sparse;

    fn j1() -> Problem {
        benchmark(BenchmarkId::parse("J1").unwrap())
    }

    #[test]
    fn noise_free_output_stays_feasible() {
        let out = ChocoQ::new(
            BaselineConfig::default()
                .with_max_iterations(40)
                .with_layers(2),
        )
        .solve(&j1())
        .unwrap();
        assert!(
            (out.in_constraints_rate - 1.0).abs() < 1e-9,
            "commuting mixer must preserve feasibility, got {}",
            out.in_constraints_rate
        );
        assert!(out.best.feasible);
        assert!(out.arg.is_finite());
    }

    #[test]
    fn depth_scales_with_layers() {
        let p = j1();
        let a = ChocoQ::new(
            BaselineConfig::default()
                .with_layers(1)
                .with_max_iterations(5),
        )
        .solve(&p)
        .unwrap();
        let b = ChocoQ::new(
            BaselineConfig::default()
                .with_layers(3)
                .with_max_iterations(5),
        )
        .solve(&p)
        .unwrap();
        assert_eq!(b.circuit_depth, 3 * a.circuit_depth);
        assert_eq!(a.n_params, 2);
        assert_eq!(b.n_params, 6);
    }

    #[test]
    fn noisy_execution_can_leave_feasible_space() {
        let cfg = BaselineConfig::default()
            .with_shots(128)
            .with_noise(NoiseModel::depolarizing(5e-3))
            .with_max_iterations(5)
            .with_layers(2);
        let out = ChocoQ::new(cfg).solve(&j1()).unwrap();
        // With a deep unsegmented circuit and no purification, noise
        // leaks probability outside the constraints (the hardware
        // failure the paper reports: 6.3% in-constraints on Kyiv).
        assert!(out.in_constraints_rate < 1.0, "noise had no effect");
    }

    // Gate-by-gate reference oracle: one Choco-Q shot replayed from the
    // `TransitionHamiltonian`s, re-deriving every transition, support,
    // mixing constant and objective phase per shot. `noise: None` is
    // the noise-free circuit.
    fn reference_shot(
        problem: &Problem,
        hams: &[TransitionHamiltonian],
        seed_label: Label,
        params: &[f64],
        noise: Option<&NoiseModel>,
        rng: &mut StdRng,
    ) -> SparseState {
        let n = problem.n_vars();
        let mut state = SparseState::basis_state(n, seed_label);
        if let Some(noise) = noise {
            let prep: Vec<usize> = (0..n).filter(|&q| seed_label >> q & 1 == 1).collect();
            apply_gate_noise_sparse(&mut state, &prep, noise.p1, noise, rng);
        }
        let noise_free = NoiseModel::noise_free();
        for layer in params.chunks(2) {
            let (gamma, beta) = (layer[0], layer[1]);
            state.apply_diagonal_phase(|l| -gamma * problem.evaluate(&bits_from_label(l, n)));
            if let Some(noise) = noise {
                // Objective Rzz noise: 2 CX per quadratic term.
                for &(a, b, _) in &problem.objective().quadratic {
                    for q in [a, b] {
                        if rng.gen::<f64>() < noise.p2 {
                            apply_gate_noise_sparse(&mut state, &[q], 1.0, &noise_free, rng);
                        }
                    }
                }
            }
            for h in hams {
                h.apply(&mut state, beta);
                let Some(noise) = noise else { continue };
                let support = h.support();
                for _ in 0..h.cx_cost() {
                    if rng.gen::<f64>() < noise.p2 {
                        let q = support[rng.gen_range(0..support.len())];
                        apply_gate_noise_sparse(&mut state, &[q], 1.0, &noise_free, rng);
                    }
                }
            }
        }
        state
    }

    /// Registry instances with their mixers, seeds and fixed random
    /// two-layer parameters.
    fn reference_cases() -> Vec<(Problem, Vec<TransitionHamiltonian>, Label, Vec<f64>)> {
        ["J1", "F1", "K1"]
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let problem = benchmark(BenchmarkId::parse(id).unwrap());
                let hams = problem_basis(&problem)
                    .unwrap()
                    .into_iter()
                    .map(TransitionHamiltonian::new)
                    .collect();
                let seed_label = label_from_bits(problem.initial_feasible().unwrap());
                let mut rng = StdRng::seed_from_u64(0xC0C0 + i as u64);
                let params = (0..4).map(|_| rng.gen_range(-1.5..1.5)).collect();
                (problem, hams, seed_label, params)
            })
            .collect()
    }

    fn noisy_regimes() -> [(&'static str, NoiseModel); 3] {
        [
            ("noisy", NoiseModel::ibm_like(2e-3, 1e-2, 0.02)),
            // A hot 2-qubit channel, so the objective-layer Rzz branch
            // fires often enough in a 48-shot run to be pinned.
            ("hot-rzz", NoiseModel::ibm_like(2e-3, 0.3, 0.02)),
            (
                "noisy-damped",
                NoiseModel::ibm_like(2e-3, 1e-2, 0.02)
                    .with_amplitude_damping(5e-3)
                    .with_phase_damping(3e-3),
            ),
        ]
    }

    #[test]
    fn reference_exact_matches_compiled() {
        for (problem, hams, seed_label, params) in reference_cases() {
            let mut rng = StdRng::seed_from_u64(0);
            let want = reference_shot(&problem, &hams, seed_label, &params, None, &mut rng);
            let got = run_chocoq(
                &problem,
                &SegmentProgram::compile(&hams),
                seed_label,
                &params,
                &BaselineConfig::default(),
                &mut rng,
            );
            assert_eq!(got, want.distribution(), "{}", problem.name());
        }
    }

    #[test]
    fn reference_shots_match_compiled_shot_by_shot() {
        let regimes = std::iter::once(("noise-free sampled", NoiseModel::noise_free()))
            .chain(noisy_regimes());
        for (regime, noise) in regimes {
            for (problem, hams, seed_label, params) in reference_cases() {
                let n = problem.n_vars();
                let program = SegmentProgram::compile(&hams);
                let mut eval = CompiledEval::new(&problem, &program, seed_label, &params);
                let mut reused = SparseState::basis_state(n, 0);
                for shot in 0..48u64 {
                    let mut rng = StdRng::seed_from_u64(0x5407 ^ shot);
                    let got = if noise.is_noisy() {
                        eval.evolve_noisy(&mut reused, &noise, &mut rng)
                    } else {
                        let mut state = SparseState::basis_state(n, seed_label);
                        eval.evolve_exact(&mut state);
                        state.sample_one(&mut rng)
                    };
                    let mut rng = StdRng::seed_from_u64(0x5407 ^ shot);
                    let noise = noise.is_noisy().then_some(&noise);
                    let want =
                        reference_shot(&problem, &hams, seed_label, &params, noise, &mut rng)
                            .sample_one(&mut rng);
                    assert_eq!(got, want, "[{regime}] {}, shot {shot}", problem.name());
                }
            }
        }
    }

    #[test]
    fn reference_sampled_runs_match_compiled() {
        // `run_chocoq` threads one RNG through all its shots; replaying
        // the oracle over the same RNG must give the same counts.
        let regimes = std::iter::once(("noise-free sampled", NoiseModel::noise_free()))
            .chain(noisy_regimes());
        for (regime, noise) in regimes {
            for (problem, hams, seed_label, params) in reference_cases() {
                let n = problem.n_vars();
                let cfg = BaselineConfig::default().with_shots(96).with_noise(noise);
                let mut rng = StdRng::seed_from_u64(0xD1CE);
                let program = SegmentProgram::compile(&hams);
                let got = run_chocoq(&problem, &program, seed_label, &params, &cfg, &mut rng);
                let mut rng = StdRng::seed_from_u64(0xD1CE);
                let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
                for _ in 0..96 {
                    let noisy = noise.is_noisy().then_some(&noise);
                    let mut state =
                        reference_shot(&problem, &hams, seed_label, &params, noisy, &mut rng);
                    let label = state.sample_one(&mut rng);
                    let label = apply_readout_error(label, n, noise.readout, &mut rng);
                    *counts.entry(label).or_insert(0) += 1;
                }
                let want: BTreeMap<Label, f64> = counts
                    .into_iter()
                    .map(|(l, c)| (l, c as f64 / 96.0))
                    .collect();
                assert_eq!(got, want, "[{regime}] {}", problem.name());
            }
        }
    }

    #[test]
    fn trains_with_the_configured_optimizer() {
        // SPSA spends one evaluation at x0 and three per iteration;
        // COBYLA starts from a 3-point simplex on Choco-Q's 2 parameters.
        let cfg = BaselineConfig::default()
            .with_max_iterations(4)
            .with_layers(1);
        let spsa = ChocoQ::new(cfg.clone().with_optimizer(BaselineOptimizer::Spsa))
            .solve(&j1())
            .unwrap();
        assert_eq!(spsa.evaluations, 1 + 3 * 4);
        assert_eq!(spsa.history.len(), 4);
        let cobyla = ChocoQ::new(cfg).solve(&j1()).unwrap();
        assert_ne!(cobyla.evaluations, spsa.evaluations);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let cfg = BaselineConfig::default()
            .with_shots(64)
            .with_max_iterations(10)
            .with_seed(4);
        let a = ChocoQ::new(cfg.clone()).solve(&j1()).unwrap();
        let b = ChocoQ::new(cfg).solve(&j1()).unwrap();
        assert_eq!(a.expectation, b.expectation);
    }
}

//! The end-to-end Rasengan solver.
//!
//! Pipeline (paper §3–§4):
//!
//! 1. Ternary homogeneous basis of the constraints ([`crate::hamiltonian`]).
//! 2. Hamiltonian simplification — Algorithm 1 ([`crate::simplify`]).
//! 3. Chain construction with pruning and early stop ([`crate::prune`]).
//! 4. Segmentation under a depth budget ([`crate::segment`]).
//! 5. Variational training of the evolution times with a classical
//!    optimizer, executing segments with probability-preserving shot
//!    hand-off and purification ([`crate::purify`]).

use crate::hamiltonian::problem_basis;
use crate::latency::{Latency, StageTimes};
use crate::metrics::Solution;
use crate::objective::Objective;
use crate::prune::{build_chain, reachable_count, reachable_count_above, Chain, ChainConfig};
use crate::resilience::{BudgetKind, ResilienceConfig, ResilienceReport, Stage};
use crate::segment::{plan_segments, single_segment, SegmentPlan, SegmentProgram};
use crate::simplify::simplify_basis;
use rasengan_math::basis::TernaryBasisError;
use rasengan_obs::span::{TraceTree, Tracer};
use rasengan_optim::{Cobyla, NelderMead, Optimizer, Spsa};
use rasengan_problems::Problem;
use rasengan_qsim::fault::FaultPlan;
use rasengan_qsim::parallel::{derive_seed, par_map, resolve_threads};
use rasengan_qsim::sparse::label_from_bits;
use rasengan_qsim::{Device, Label, NoiseModel};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Which classical optimizer trains the evolution times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimizerKind {
    /// COBYLA-style linear-approximation trust region (paper default).
    Cobyla,
    /// Nelder–Mead simplex.
    NelderMead,
    /// SPSA (robust under shot noise).
    Spsa,
}

/// Configuration of a [`Rasengan`] solver.
#[derive(Clone, Debug)]
pub struct RasenganConfig {
    /// RNG seed for sampling and noise trajectories.
    pub seed: u64,
    /// Shots per segment execution; `None` propagates exact
    /// distributions (noise-free analysis mode).
    pub shots: Option<usize>,
    /// Gate-level noise model (forces shot-based execution).
    pub noise: NoiseModel,
    /// Device timing model for the latency accounting.
    pub device: Device,
    /// Opt 1: Hamiltonian simplification (Algorithm 1).
    pub simplify: bool,
    /// Opt 2: Hamiltonian pruning.
    pub prune: bool,
    /// Opt 2 (cont.): early stop after `m` dry operators.
    pub early_stop: bool,
    /// Opt 3: segmented execution.
    pub segmented: bool,
    /// Opt 3 (cont.): purification between segments.
    pub purify: bool,
    /// Per-segment CX-depth budget when segmented.
    pub segment_depth_budget: usize,
    /// Rounds of the basis to schedule (`None` = Theorem 1's default).
    pub max_rounds: Option<usize>,
    /// Optimizer iteration budget (paper: 300 noise-free, 100 on
    /// hardware).
    pub max_iterations: usize,
    /// Which classical optimizer to use.
    pub optimizer: OptimizerKind,
    /// Reachable-set cap for pruning bookkeeping.
    pub support_cap: usize,
    /// Warm-start evolution times (e.g. transferred from a previously
    /// solved case of the same shape). Must match the compiled chain's
    /// parameter count; `None` starts every time at π/4.
    pub initial_times: Option<Vec<f64>>,
    /// Worker threads for the execution engine. `None` defers to the
    /// `RASENGAN_THREADS` environment variable and then to the
    /// machine's available parallelism. Results are bit-identical for a
    /// fixed seed at *any* thread count: every shot draws from its own
    /// RNG stream derived from the seed and its global shot index.
    pub threads: Option<usize>,
    /// Recovery ladder: segment retry budget with shot escalation,
    /// graceful chain degradation, stage budgets, and (for testing) a
    /// deterministic fault-injection plan. All defaults are off; a
    /// ladder that never fires leaves every result byte as it would be
    /// without it.
    pub resilience: ResilienceConfig,
    /// Record a structured span tree for the solve (one span per
    /// stage, segment, and retry attempt) into [`Outcome::trace`].
    /// Span IDs are derived from structure alone, so the tree is
    /// byte-identical at any thread count for a fixed seed, and
    /// enabling tracing never changes any result field. Off by
    /// default; when off the tracer is a no-op (stage timing costs the
    /// same handful of `Instant` reads the solver always paid).
    pub trace: bool,
}

impl Default for RasenganConfig {
    fn default() -> Self {
        RasenganConfig {
            seed: 0,
            shots: None,
            noise: NoiseModel::noise_free(),
            device: Device::ibm_quebec(),
            simplify: true,
            prune: true,
            early_stop: true,
            segmented: true,
            purify: true,
            segment_depth_budget: 102,
            max_rounds: None,
            max_iterations: 300,
            optimizer: OptimizerKind::Cobyla,
            support_cap: 1 << 16,
            initial_times: None,
            threads: None,
            resilience: ResilienceConfig::default(),
            trace: false,
        }
    }
}

impl RasenganConfig {
    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets shot-based execution with the given budget per segment.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = Some(shots);
        self
    }

    /// Sets the noise model (implies shot-based execution).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the device timing model (and adopts its noise model).
    pub fn on_device(mut self, device: Device) -> Self {
        self.noise = device.noise;
        self.device = device;
        self
    }

    /// Sets the optimizer iteration budget.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Derives the per-segment CX-depth budget from the device's
    /// two-qubit error rate so that one segment retains at least
    /// `target_fidelity` probability of executing error-free:
    /// `d = ln(target) / ln(1 − p₂)`. With IBM-Kyiv's 1.2% this lands
    /// near the paper's ~50-deep segments.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_fidelity < 1`.
    pub fn with_fidelity_budget(mut self, device: &Device, target_fidelity: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&target_fidelity) && target_fidelity > 0.0,
            "target fidelity must be in (0, 1)"
        );
        let p2 = device.noise.p2;
        self.segment_depth_budget = if p2 <= 0.0 {
            usize::MAX / 2
        } else {
            let d = target_fidelity.ln() / (1.0 - p2).ln();
            (d.floor() as usize).max(34)
        };
        self
    }

    /// Warm-starts the optimizer from previously trained evolution
    /// times (parameter transfer across cases of the same shape).
    pub fn with_initial_times(mut self, times: Vec<f64>) -> Self {
        self.initial_times = Some(times);
        self
    }

    /// Pins the execution engine to `threads` worker threads (builder
    /// style). The default (`None`) uses `RASENGAN_THREADS` or the
    /// machine's available parallelism; either way the results are
    /// identical — only the wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// Replaces the whole resilience configuration (builder style).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Allows up to `retries` re-executions of a segment that produced
    /// no feasible outcome, escalating the shot budget each attempt
    /// (builder style).
    pub fn with_retry_budget(mut self, retries: usize) -> Self {
        self.resilience.retry_budget = retries;
        self
    }

    /// Enables graceful degradation: when a segment's retries are
    /// exhausted, the chain continues from the previous segment's
    /// feasible state instead of aborting (builder style).
    pub fn with_degradation(mut self) -> Self {
        self.resilience.degrade = true;
        self
    }

    /// Arms a deterministic fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.resilience.fault_plan = Some(plan);
        self
    }

    /// Enables structured tracing: the solve records a deterministic
    /// span tree into [`Outcome::trace`] (builder style).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Error from [`Rasengan::solve`].
#[derive(Clone, Debug, PartialEq)]
pub enum RasenganError {
    /// The constraint system admits no ternary homogeneous basis.
    Basis(TernaryBasisError),
    /// The problem carries no initial feasible solution and none was
    /// found.
    NoFeasibleSeed,
    /// Noise destroyed feasibility: a segment produced no feasible
    /// outcome, so the next segment cannot be initialized (the Fig. 10d
    /// / Fig. 14b failure mode). Only reachable when the configured
    /// retry budget is exhausted and degradation is disabled.
    NoFeasibleOutput {
        /// Index of the failing segment.
        segment: usize,
    },
    /// The constraints fully determine the solution (nothing to search).
    FullyDetermined,
    /// A configured stage budget (wall-clock or total shots) stopped the
    /// solve and degradation was disabled. Carries the latest completed
    /// execution's outcome as the partial, if any training evaluation
    /// completed.
    BudgetExceeded {
        /// Stage in which the ceiling tripped.
        stage: Stage,
        /// Which budget tripped.
        kind: BudgetKind,
        /// Best partial outcome available when the budget tripped.
        partial: Option<Box<Outcome>>,
    },
    /// Every start of a [`Rasengan::solve_multistart`] failed. Reports
    /// how many starts were attempted and each start's error, instead
    /// of surfacing only the last one.
    AllStartsFailed {
        /// Number of starts attempted.
        n_starts: usize,
        /// `(start index, error)` for every failed start.
        failures: Vec<(usize, RasenganError)>,
    },
}

impl fmt::Display for RasenganError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasenganError::Basis(e) => write!(f, "basis construction failed: {e}"),
            RasenganError::NoFeasibleSeed => write!(f, "no feasible seed solution available"),
            RasenganError::NoFeasibleOutput { segment } => {
                write!(
                    f,
                    "segment {segment} produced no feasible outcome under noise"
                )
            }
            RasenganError::FullyDetermined => {
                write!(
                    f,
                    "constraints admit exactly one solution; nothing to optimize"
                )
            }
            RasenganError::BudgetExceeded {
                stage,
                kind,
                partial,
            } => {
                write!(
                    f,
                    "{stage} stage exceeded its {kind}; partial outcome {}",
                    if partial.is_some() {
                        "available"
                    } else {
                        "unavailable"
                    }
                )
            }
            RasenganError::AllStartsFailed { n_starts, failures } => {
                write!(f, "all {n_starts} starts failed")?;
                for (start, err) in failures.iter().take(3) {
                    write!(f, "; start {start}: {err}")?;
                }
                if failures.len() > 3 {
                    write!(f, "; … and {} more", failures.len() - 3)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RasenganError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RasenganError::Basis(e) => Some(e),
            RasenganError::AllStartsFailed { failures, .. } => failures
                .first()
                .map(|(_, e)| e as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

/// Per-run structural statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainStats {
    /// Number of homogeneous basis vectors `m`.
    pub m_basis: usize,
    /// Scheduled operators before pruning.
    pub raw_ops: usize,
    /// Operators kept after pruning/early stop.
    pub kept_ops: usize,
    /// Number of execution segments.
    pub n_segments: usize,
    /// CX depth of the deepest segment (the paper's reported "circuit
    /// depth" for Rasengan).
    pub max_segment_cx_depth: usize,
    /// CX depth of the whole chain if run unsegmented.
    pub total_cx_depth: usize,
    /// Number of tunable parameters.
    pub n_params: usize,
    /// Nonzero-count of the basis before/after simplification.
    pub simplify_cost: (usize, usize),
}

/// Result of a successful solve.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Best measured solution.
    pub best: Solution,
    /// Expectation of the objective over the final distribution.
    pub expectation: f64,
    /// Approximation ratio gap vs the exact optimum (Eq. 9).
    pub arg: f64,
    /// Feasible fraction of the final *raw* output (before
    /// purification) — 1.0 in noise-free runs.
    pub raw_in_constraints_rate: f64,
    /// Feasible fraction of the returned distribution (1.0 whenever
    /// purification is on).
    pub in_constraints_rate: f64,
    /// Final output distribution over basis-state labels.
    pub distribution: BTreeMap<Label, f64>,
    /// Structural statistics of the compiled chain.
    pub stats: ChainStats,
    /// Modeled quantum + measured classical latency.
    pub latency: Latency,
    /// Best-so-far objective after each optimizer iteration.
    pub history: Vec<f64>,
    /// Total objective evaluations (circuit batches) executed.
    pub evaluations: usize,
    /// Total shots consumed across all segments and iterations, those
    /// of budget-cut executions included; an execution that ends in
    /// [`RasenganError::NoFeasibleOutput`] is not counted.
    pub total_shots: usize,
    /// The trained evolution times (reusable as a warm start for
    /// sibling cases via [`RasenganConfig::with_initial_times`]).
    pub trained_times: Vec<f64>,
    /// Audit trail of the recovery ladder: every injected fault, retry,
    /// degradation, budget stop, and parameter sanitization that
    /// occurred. Empty for runs that never needed recovery.
    pub resilience: ResilienceReport,
    /// Structured span tree of this solve, present when
    /// [`RasenganConfig::trace`] was enabled. Span IDs derive from
    /// structure (parent ID × label × ordinal through the SplitMix64
    /// finalizer), so the deterministic rendering is byte-identical at
    /// any thread count. Never serialized into the wire `result`
    /// section — the service layer carries it in a separate `trace`
    /// section.
    pub trace: Option<TraceTree>,
}

/// A compiled-but-not-yet-trained Rasengan instance; exposes the
/// depth/parameter metrics the ablation figures need without paying for
/// optimization.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The (possibly simplified) homogeneous basis.
    pub basis: Vec<Vec<i64>>,
    /// The pruned transition chain.
    pub chain: Chain,
    /// The segmentation plan.
    pub plan: SegmentPlan,
    /// One compiled program per plan segment (precomputed transitions,
    /// supports, CX costs), reused across every shot, evaluation, and —
    /// through the serve layer's compile cache — every request sharing
    /// this compile. Solves execute these programs and nothing else, so
    /// a hand-built `Prepared` must compile one per segment, in plan
    /// order.
    pub programs: Vec<SegmentProgram>,
    /// Seed feasible basis state.
    pub seed_label: Label,
    /// Structural statistics.
    pub stats: ChainStats,
}

/// The Rasengan solver.
///
/// # Example
///
/// ```
/// use rasengan_core::{Rasengan, RasenganConfig};
/// use rasengan_problems::registry::{benchmark, BenchmarkId};
///
/// let problem = benchmark(BenchmarkId::parse("J1").unwrap());
/// let outcome = Rasengan::new(RasenganConfig::default().with_max_iterations(60))
///     .solve(&problem)
///     .unwrap();
/// assert!(outcome.best.feasible);
/// assert_eq!(outcome.in_constraints_rate, 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Rasengan {
    config: RasenganConfig,
}

impl Rasengan {
    /// Creates a solver with the given configuration.
    pub fn new(config: RasenganConfig) -> Self {
        Rasengan { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RasenganConfig {
        &self.config
    }

    /// Compiles the problem into a transition chain and segmentation
    /// plan without training.
    ///
    /// # Errors
    ///
    /// See [`RasenganError`].
    pub fn prepare(&self, problem: &Problem) -> Result<Prepared, RasenganError> {
        let cfg = &self.config;
        let raw_basis = problem_basis(problem).map_err(RasenganError::Basis)?;
        if raw_basis.is_empty() {
            return Err(RasenganError::FullyDetermined);
        }

        let seed_bits = problem
            .initial_feasible()
            .map(<[i64]>::to_vec)
            .or_else(|| {
                rasengan_math::find_binary_solution(problem.constraints(), problem.rhs()).ok()
            })
            .ok_or(RasenganError::NoFeasibleSeed)?;
        let seed_label = label_from_bits(&seed_bits);

        let simplify_result = simplify_basis(&raw_basis);
        let (basis, simplify_cost) = if cfg.simplify {
            // Guard: a sparser basis spans the same lattice, but the
            // *single-step* transition graph over binary states can lose
            // connectivity (intermediate sums leave {0,1}^n). Keep the
            // simplified basis only if it reaches at least as much of
            // the feasible space from the seed. The raw BFS stops as
            // soon as it passes the simplified count.
            let simp_reach = reachable_count(&simplify_result.basis, seed_label, cfg.support_cap);
            let raw_reach =
                reachable_count_above(&raw_basis, seed_label, cfg.support_cap, simp_reach);
            if simp_reach >= raw_reach {
                (
                    simplify_result.basis,
                    (simplify_result.cost_before, simplify_result.cost_after),
                )
            } else {
                let cost = simplify_result.cost_before;
                (raw_basis, (cost, cost))
            }
        } else {
            let cost = simplify_result.cost_before;
            (raw_basis, (cost, cost))
        };

        let chain = build_chain(
            &basis,
            seed_label,
            &ChainConfig {
                max_rounds: cfg.max_rounds,
                prune: cfg.prune,
                early_stop: cfg.early_stop,
                support_cap: cfg.support_cap,
            },
        );
        let plan = if cfg.segmented {
            plan_segments(&chain.ops, cfg.segment_depth_budget)
        } else {
            single_segment(&chain.ops)
        };

        let max_segment_cx_depth = plan
            .segments
            .iter()
            .map(|r| chain.ops[r.clone()].iter().map(|o| o.cx_cost()).sum())
            .max()
            .unwrap_or(0);
        let stats = ChainStats {
            m_basis: basis.len(),
            raw_ops: chain.raw_len,
            kept_ops: chain.ops.len(),
            n_segments: plan.len(),
            max_segment_cx_depth,
            total_cx_depth: chain.total_cx_cost(),
            n_params: chain.n_params(),
            simplify_cost,
        };
        let programs = plan
            .segments
            .iter()
            .map(|r| SegmentProgram::compile(&chain.ops[r.clone()]))
            .collect();
        Ok(Prepared {
            basis,
            chain,
            plan,
            programs,
            seed_label,
            stats,
        })
    }

    /// Runs `n_starts` independent solves from different seeds and
    /// initial times, returning the best outcome (lowest ARG). A cheap
    /// defense against the local minima COBYLA occasionally lands in on
    /// wide parameter vectors; each restart perturbs the seed and the
    /// starting angles.
    ///
    /// Starts run in parallel across the configured thread count. The
    /// result is independent of parallelism: every start's seed is a
    /// pure function of the base seed and the start index, and the
    /// winner is folded in start order with a strict `<`, so ties
    /// resolve to the earliest start.
    ///
    /// # Errors
    ///
    /// Returns [`RasenganError::AllStartsFailed`] — aggregating every
    /// start's error — if *every* start fails.
    ///
    /// # Panics
    ///
    /// Panics if `n_starts == 0`.
    pub fn solve_multistart(
        &self,
        problem: &Problem,
        n_starts: usize,
    ) -> Result<Outcome, RasenganError> {
        assert!(n_starts > 0, "need at least one start");
        let n_params = self.prepare(problem)?.stats.n_params;
        let starts: Vec<usize> = (0..n_starts).collect();
        let threads = resolve_threads(self.config.threads).min(n_starts);
        let results = par_map(&starts, threads, |_, &start| {
            let mut cfg = self.config.clone();
            if start > 0 {
                // Independent seed per restart through the SplitMix64
                // finalizer; start 0 keeps the base seed so a one-start
                // multistart is exactly `solve`. (The previous
                // `wrapping_add(start * 0x9E37)` offsets left the seeds
                // correlated in the low bits.)
                cfg.seed = derive_seed(cfg.seed, start as u64);
                // Spread the starting angles across (0, π/2).
                let t =
                    std::f64::consts::FRAC_PI_2 * (start as f64 + 0.5) / (n_starts as f64 + 1.0);
                cfg.initial_times = Some(vec![t; n_params]);
            }
            Rasengan::new(cfg).solve(problem)
        });
        let mut best: Option<Outcome> = None;
        let mut failures: Vec<(usize, RasenganError)> = Vec::new();
        for (start, result) in results.into_iter().enumerate() {
            match result {
                Ok(outcome) => {
                    let better = best
                        .as_ref()
                        .is_none_or(|incumbent| outcome.arg < incumbent.arg);
                    if better {
                        best = Some(outcome);
                    }
                }
                Err(e) => failures.push((start, e)),
            }
        }
        best.ok_or(RasenganError::AllStartsFailed { n_starts, failures })
    }

    /// Runs the full variational solve.
    ///
    /// # Errors
    ///
    /// See [`RasenganError`]. Under heavy noise the final execution may
    /// fail with [`RasenganError::NoFeasibleOutput`] — unless the
    /// [`ResilienceConfig`] arms retries or degradation, in which case
    /// the recovery ladder runs first and every action is recorded in
    /// [`Outcome::resilience`].
    pub fn solve(&self, problem: &Problem) -> Result<Outcome, RasenganError> {
        let wall = Instant::now();
        let mut tracer = Tracer::for_solve(self.config.trace);
        let prep_span = tracer.open("prepare");
        let prepared = self.prepare(problem)?;
        tracer.attr_int("m_basis", prepared.stats.m_basis as i128);
        tracer.attr_int("kept_ops", prepared.stats.kept_ops as i128);
        tracer.attr_int("n_segments", prepared.stats.n_segments as i128);
        tracer.attr_int("n_params", prepared.stats.n_params as i128);
        let prepare_s = tracer.close(prep_span);
        self.run_prepared(problem, &prepared, wall, prepare_s, tracer)
    }

    /// Runs training and execution against an already-compiled
    /// [`Prepared`] (from [`Rasengan::prepare`]), skipping the basis /
    /// simplification / chain / segmentation work entirely.
    ///
    /// This is the compile-cache entry point of the service layer: the
    /// expensive artifacts (reduced ternary basis, pruned chain,
    /// segmentation plan) are reused across requests that share a
    /// problem fingerprint. The caller must pass a `Prepared` compiled
    /// from the *same problem* under the *same compile-relevant config*
    /// (`simplify`/`prune`/`early_stop`/`segmented`/depth budget/
    /// `max_rounds`/`support_cap`); training-side knobs (seed, shots,
    /// iterations, resilience) may differ freely. For a fixed seed the
    /// result is byte-identical to [`Rasengan::solve`].
    ///
    /// # Errors
    ///
    /// See [`RasenganError`].
    pub fn solve_prepared(
        &self,
        problem: &Problem,
        prepared: &Prepared,
    ) -> Result<Outcome, RasenganError> {
        // No `prepare` span: compilation happened elsewhere (or came
        // from a cache), and `prepare_s` stays 0.0 as documented.
        self.run_prepared(
            problem,
            prepared,
            Instant::now(),
            0.0,
            Tracer::for_solve(self.config.trace),
        )
    }

    fn run_prepared(
        &self,
        problem: &Problem,
        prepared: &Prepared,
        wall: Instant,
        prepare_s: f64,
        mut tracer: Tracer,
    ) -> Result<Outcome, RasenganError> {
        let cfg = &self.config;
        let n_params = prepared.stats.n_params;
        let x0 = match &cfg.initial_times {
            Some(times) if times.len() == n_params => times.clone(),
            // A transferred vector from a different shape is truncated /
            // padded rather than rejected: chains of sibling cases often
            // differ by a few pruned operators.
            Some(times) => {
                let mut x = times.clone();
                x.resize(n_params, std::f64::consts::FRAC_PI_4);
                x
            }
            None => vec![std::f64::consts::FRAC_PI_4; n_params],
        };
        let mut objective = Objective::new(problem, prepared, cfg);

        // The `train` span derives `StageTimes::train_s`; per-evaluation
        // spans are deliberately not recorded (hundreds of optimizer
        // evaluations would dwarf the rest of the tree) — the span
        // carries the evaluation count instead.
        let train_span = tracer.open("train");
        let optimizer: Box<dyn Optimizer> = match cfg.optimizer {
            OptimizerKind::Cobyla => Box::new(Cobyla::new(cfg.max_iterations)),
            OptimizerKind::NelderMead => Box::new(NelderMead::new(cfg.max_iterations)),
            OptimizerKind::Spsa => Box::new(Spsa::new(cfg.max_iterations, cfg.seed)),
        };
        let trained = optimizer.minimize(&mut |p| objective.evaluate(p), &x0);
        tracer.attr_int("n_params", n_params as i128);
        tracer.attr_int("evaluations", trained.evaluations as i128);
        let train_s = tracer.close(train_span);

        let exec_span = tracer.open("execute");
        let exec = objective.execute_final(&trained.best_params, &mut tracer);
        let execute_s = tracer.close(exec_span);

        let latency = Latency {
            quantum_s: objective.quantum_s,
            classical_s: wall.elapsed().as_secs_f64(),
            stages: StageTimes {
                prepare_s,
                train_s,
                execute_s,
                retry_s: objective.retry_s,
            },
        };
        objective.finish(exec, trained, latency, tracer.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_problems::registry::{benchmark, BenchmarkId};
    use rasengan_problems::{enumerate_feasible, optimum};

    fn j1() -> Problem {
        benchmark(BenchmarkId::parse("J1").unwrap())
    }

    #[test]
    fn prepare_reports_consistent_stats() {
        let prepared = Rasengan::new(RasenganConfig::default())
            .prepare(&j1())
            .unwrap();
        assert_eq!(prepared.stats.kept_ops, prepared.chain.ops.len());
        assert_eq!(prepared.stats.n_params, prepared.chain.ops.len());
        assert!(prepared.stats.n_segments >= 1);
        assert!(prepared.stats.max_segment_cx_depth <= prepared.stats.total_cx_depth);
    }

    #[test]
    fn noise_free_exact_solve_reaches_low_arg() {
        let outcome = Rasengan::new(RasenganConfig::default().with_max_iterations(150))
            .solve(&j1())
            .unwrap();
        assert!(outcome.best.feasible);
        assert_eq!(outcome.in_constraints_rate, 1.0);
        assert_eq!(outcome.raw_in_constraints_rate, 1.0);
        assert!(outcome.arg < 0.5, "arg {}", outcome.arg);
        // The best measured solution should be the true optimum here.
        let (_, e_opt) = optimum(&j1());
        assert!(
            (outcome.best.value - e_opt).abs() < 1e-9,
            "best {}",
            outcome.best.value
        );
    }

    #[test]
    fn output_support_is_subset_of_feasible_set() {
        let p = j1();
        let outcome = Rasengan::new(RasenganConfig::default().with_max_iterations(40))
            .solve(&p)
            .unwrap();
        let feasible = enumerate_feasible(&p);
        for &label in outcome.distribution.keys() {
            let bits = rasengan_qsim::sparse::bits_from_label(label, p.n_vars());
            assert!(
                feasible.contains(&bits),
                "infeasible state in output: {bits:?}"
            );
        }
    }

    #[test]
    fn shot_based_noise_free_solve_works() {
        let cfg = RasenganConfig::default()
            .with_shots(512)
            .with_max_iterations(60)
            .with_seed(3);
        let outcome = Rasengan::new(cfg).solve(&j1()).unwrap();
        assert!(outcome.best.feasible);
        assert!(outcome.total_shots > 0);
        assert!(outcome.latency.quantum_s > 0.0);
    }

    #[test]
    fn noisy_solve_purifies_to_full_constraint_satisfaction() {
        let cfg = RasenganConfig::default()
            .with_noise(NoiseModel::depolarizing(2e-3))
            .with_shots(256)
            .with_max_iterations(25)
            .with_seed(11);
        let outcome = Rasengan::new(cfg).solve(&j1()).unwrap();
        assert_eq!(
            outcome.in_constraints_rate, 1.0,
            "purification must clean the output"
        );
        assert!(outcome.raw_in_constraints_rate <= 1.0);
        assert!(outcome.best.feasible);
    }

    #[test]
    fn seeds_reproduce() {
        let cfg = RasenganConfig::default()
            .with_shots(128)
            .with_max_iterations(20)
            .with_seed(5);
        let a = Rasengan::new(cfg.clone()).solve(&j1()).unwrap();
        let b = Rasengan::new(cfg).solve(&j1()).unwrap();
        assert_eq!(a.expectation, b.expectation);
        assert_eq!(a.distribution, b.distribution);
    }

    #[test]
    fn unsegmented_mode_single_segment() {
        let cfg = RasenganConfig {
            segmented: false,
            ..RasenganConfig::default()
        };
        let prepared = Rasengan::new(cfg).prepare(&j1()).unwrap();
        assert_eq!(prepared.stats.n_segments, 1);
        assert_eq!(
            prepared.stats.max_segment_cx_depth,
            prepared.stats.total_cx_depth
        );
    }

    #[test]
    fn pruning_reduces_parameters() {
        let with = Rasengan::new(RasenganConfig::default())
            .prepare(&j1())
            .unwrap();
        let without = {
            let cfg = RasenganConfig {
                prune: false,
                early_stop: false,
                ..RasenganConfig::default()
            };
            Rasengan::new(cfg).prepare(&j1()).unwrap()
        };
        assert!(with.stats.kept_ops <= without.stats.kept_ops);
    }

    #[test]
    fn fidelity_budget_matches_paper_scale() {
        let cfg = RasenganConfig::default().with_fidelity_budget(&Device::ibm_kyiv(), 0.5);
        // ln(0.5)/ln(1−0.012) ≈ 57 — the paper's ~50-deep segments.
        assert!(
            (40..=80).contains(&cfg.segment_depth_budget),
            "budget {}",
            cfg.segment_depth_budget
        );
        let noise_free =
            RasenganConfig::default().with_fidelity_budget(&Device::noise_free(10), 0.5);
        assert!(noise_free.segment_depth_budget > 1_000_000);
    }

    #[test]
    fn multistart_beats_or_matches_single_start() {
        let p = benchmark(BenchmarkId::parse("S2").unwrap());
        let solver = Rasengan::new(
            RasenganConfig::default()
                .with_seed(2)
                .with_max_iterations(40),
        );
        let single = solver.solve(&p).unwrap();
        let multi = solver.solve_multistart(&p, 4).unwrap();
        assert!(
            multi.arg <= single.arg + 1e-12,
            "multi {} vs single {}",
            multi.arg,
            single.arg
        );
        assert!(multi.best.feasible);
    }

    #[test]
    fn alternative_optimizers_also_converge() {
        for kind in [OptimizerKind::NelderMead, OptimizerKind::Spsa] {
            let mut cfg = RasenganConfig::default()
                .with_seed(7)
                .with_max_iterations(150);
            cfg.optimizer = kind;
            let outcome = Rasengan::new(cfg).solve(&j1()).unwrap();
            assert!(outcome.best.feasible, "{kind:?} produced infeasible best");
            assert!(outcome.arg < 1.0, "{kind:?} stalled at ARG {}", outcome.arg);
        }
    }

    #[test]
    fn warm_start_transfers_parameters() {
        use rasengan_problems::registry::cases;
        // Train on one F2 case, warm-start a sibling case of the same
        // shape; the transferred run must converge at least as well
        // within a small budget.
        let siblings = cases(BenchmarkId::parse("F2").unwrap(), 2, 99);
        let teacher = Rasengan::new(
            RasenganConfig::default()
                .with_seed(1)
                .with_max_iterations(120),
        )
        .solve(&siblings[0])
        .unwrap();
        let cold = Rasengan::new(
            RasenganConfig::default()
                .with_seed(1)
                .with_max_iterations(15),
        )
        .solve(&siblings[1])
        .unwrap();
        let warm = Rasengan::new(
            RasenganConfig::default()
                .with_seed(1)
                .with_max_iterations(15)
                .with_initial_times(teacher.trained_times.clone()),
        )
        .solve(&siblings[1])
        .unwrap();
        assert!(warm.best.feasible);
        // Not strictly guaranteed per-instance, but the transferred
        // start must at least produce a valid competitive run.
        assert!(
            warm.arg <= cold.arg + 0.5,
            "warm {} vs cold {}",
            warm.arg,
            cold.arg
        );
    }

    #[test]
    fn maximization_problems_solve() {
        use rasengan_problems::portfolio::Portfolio;
        let p = Portfolio::generate(2, 3, 1, 4).into_problem();
        let outcome = Rasengan::new(
            RasenganConfig::default()
                .with_seed(8)
                .with_max_iterations(120),
        )
        .solve(&p)
        .unwrap();
        let (_, e_opt) = rasengan_problems::optimum(&p);
        assert!(outcome.best.feasible);
        assert!(
            (outcome.best.value - e_opt).abs() < 1e-9,
            "max-sense best {} vs optimum {e_opt}",
            outcome.best.value
        );
    }

    #[test]
    fn solve_prepared_matches_solve_bitwise() {
        // The compile-cache entry point must not perturb a single RNG
        // stream: training from a reused Prepared is byte-identical to
        // the all-in-one solve for the same seed.
        let cfg = RasenganConfig::default()
            .with_seed(5)
            .with_shots(128)
            .with_max_iterations(10);
        let solver = Rasengan::new(cfg);
        let p = j1();
        let prepared = solver.prepare(&p).unwrap();
        let a = solver.solve(&p).unwrap();
        let b = solver.solve_prepared(&p, &prepared).unwrap();
        assert_eq!(a.distribution, b.distribution);
        assert_eq!(a.expectation, b.expectation);
        assert_eq!(a.trained_times, b.trained_times);
        assert_eq!(a.total_shots, b.total_shots);
        // The reused compile pays no prepare time on this run.
        assert_eq!(b.latency.stages.prepare_s, 0.0);
    }

    #[test]
    fn prepare_compiles_one_program_per_segment() {
        let prepared = Rasengan::new(RasenganConfig::default())
            .prepare(&j1())
            .unwrap();
        assert_eq!(prepared.programs.len(), prepared.plan.len());
        for (prog, range) in prepared.programs.iter().zip(&prepared.plan.segments) {
            assert_eq!(prog.ops.len(), range.len());
            for (ct, op) in prog.ops.iter().zip(&prepared.chain.ops[range.clone()]) {
                assert_eq!(&ct.transition, op.transition());
                assert_eq!(ct.support, op.support());
                assert_eq!(ct.cx_cost, op.cx_cost());
            }
        }
    }

    #[test]
    fn simplification_never_increases_depth() {
        let p = benchmark(BenchmarkId::parse("S2").unwrap());
        let with = Rasengan::new(RasenganConfig::default())
            .prepare(&p)
            .unwrap();
        let without = {
            let cfg = RasenganConfig {
                simplify: false,
                ..RasenganConfig::default()
            };
            Rasengan::new(cfg).prepare(&p).unwrap()
        };
        assert!(with.stats.simplify_cost.1 <= without.stats.simplify_cost.0);
    }
}

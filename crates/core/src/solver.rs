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
use crate::latency::{segment_execution_seconds, Latency, StageTimes};
use crate::metrics::{
    arg, best_solution, expectation, in_constraints_rate, penalty_lambda, Solution,
};
use crate::prune::{build_chain, Chain, ChainConfig};
use crate::purify::purify_distribution;
use crate::resilience::{
    BudgetKind, DegradeFallback, ResilienceConfig, ResilienceEvent, ResilienceReport, Stage,
};
use crate::segment::{apportion_shots, plan_segments, single_segment, SegmentPlan, SegmentProgram};
use crate::simplify::simplify_basis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_math::basis::TernaryBasisError;
use rasengan_obs::span::{TraceTree, Tracer};
use rasengan_optim::{Cobyla, NelderMead, Optimizer, Spsa};
use rasengan_problems::{optimum, Problem};
use rasengan_qsim::fault::{FaultKind, FaultPlan};
use rasengan_qsim::noise::{
    apply_gate_noise_sparse_fused, apply_readout_error, run_noise_slots_sparse,
};
use rasengan_qsim::parallel::{derive_seed, par_map, resolve_threads, split_ranges};
use rasengan_qsim::sparse::label_from_bits;
use rasengan_qsim::{Complex, Device, Label, NoiseModel, PreparedSampler, SparseState};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

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
    /// Shot multiplier for the final segment (paper Fig. 7: "the number
    /// of shots for each segment can be dynamically configured" — its
    /// example gives the last segment 10× to sharpen the output
    /// distribution).
    pub final_segment_shot_boost: usize,
    /// Worker threads for the execution engine. `None` defers to the
    /// `RASENGAN_THREADS` environment variable and then to the
    /// machine's available parallelism. Results are bit-identical for a
    /// fixed seed at *any* thread count: every shot draws from its own
    /// RNG stream derived from the seed and its global shot index.
    pub threads: Option<usize>,
    /// Recovery ladder: segment retry budget with shot escalation,
    /// graceful chain degradation, stage budgets, and (for testing) a
    /// deterministic fault-injection plan. All defaults are off, which
    /// reproduces the pre-resilience solver byte-for-byte.
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
            final_segment_shot_boost: 1,
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

    /// Gives the final segment `boost×` the configured shot budget
    /// (Fig. 7's precision knob for the output distribution).
    ///
    /// # Panics
    ///
    /// Panics if `boost == 0`.
    pub fn with_final_segment_shot_boost(mut self, boost: usize) -> Self {
        assert!(boost > 0, "shot boost must be positive");
        self.final_segment_shot_boost = boost;
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

    /// Disables all three optimizations (baseline ablation point).
    pub fn without_optimizations(mut self) -> Self {
        self.simplify = false;
        self.prune = false;
        self.early_stop = false;
        self.segmented = false;
        self.purify = false;
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
    /// A configured stage budget (wall-clock or total shots) tripped
    /// before a full outcome existed and degradation was disabled.
    /// Carries the best partial outcome assembled so far, if any
    /// training evaluation completed.
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
    /// Total shots consumed across all segments and iterations.
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
        let resil = &cfg.resilience;
        let n_params = prepared.stats.n_params;
        let sense = problem.sense();
        let lambda = penalty_lambda(problem);

        // Shared accounting across objective evaluations.
        let mut quantum_s = 0.0f64;
        let mut retry_s = 0.0f64;
        let mut total_shots = 0usize;
        let mut eval_counter = 0u64;
        let mut events: Vec<ResilienceEvent> = Vec::new();
        // Cheapest usable fallback if a budget kills the final
        // execution: the latest successful training execution.
        let mut last_good: Option<(BTreeMap<Label, f64>, f64)> = None;
        let mut train_budget_reported = false;

        // The training stage's wall-clock ceiling starts now; the final
        // execution gets its own fresh ceiling below.
        let train_deadline = resil
            .max_stage_seconds
            .map(|s| Instant::now() + Duration::from_secs_f64(s));
        let plan = resil.fault_plan.as_ref().filter(|p| p.is_active());

        // Training loop: minimize the sense-adjusted expectation. Each
        // evaluation executes under its own RNG stream derived from the
        // seed and the evaluation index.
        let mut objective = |params: &[f64]| -> f64 {
            eval_counter += 1;
            let stream_seed = derive_seed(cfg.seed, eval_counter);

            // Budget gate: once a ceiling trips, the remaining
            // optimizer iterations drain without spending quantum time.
            if let Some(kind) = budget_tripped(train_deadline, resil, total_shots) {
                if !train_budget_reported {
                    train_budget_reported = true;
                    events.push(ResilienceEvent::BudgetExhausted {
                        stage: Stage::Train,
                        kind,
                    });
                }
                return FAILURE_OBJECTIVE;
            }

            // Fault injection: corrupt optimizer parameters before
            // execution; the executor sanitizes rather than crashes.
            // (For `ParamCorruption` events the `segment` field carries
            // the corrupted parameter index.)
            let corrupted;
            let exec_params: &[f64] = match plan {
                Some(p) if p.param_corruption > 0.0 => {
                    let mut buf = params.to_vec();
                    if let Some(idx) = p.corrupt_params(eval_counter, &mut buf) {
                        events.push(ResilienceEvent::FaultInjected {
                            segment: idx,
                            attempt: 0,
                            kind: FaultKind::ParamCorruption,
                        });
                        corrupted = buf;
                        &corrupted
                    } else {
                        params
                    }
                }
                _ => params,
            };

            let ctx = ExecContext {
                stage: Stage::Train,
                stream_seed,
                deadline: train_deadline,
                shots_before: total_shots,
            };
            match execute(problem, prepared, exec_params, cfg, &ctx, &mut events, None) {
                Ok(exec) => {
                    quantum_s += exec.quantum_s;
                    retry_s += exec.retry_s;
                    total_shots += exec.shots;
                    last_good = Some((exec.distribution.clone(), exec.raw_in_constraints_rate));
                    let e = expectation(problem, &exec.distribution, lambda);
                    match sense {
                        rasengan_problems::Sense::Minimize => e,
                        rasengan_problems::Sense::Maximize => -e,
                    }
                }
                // A failed evaluation (noise destroyed feasibility) is
                // charged a large *finite* penalty: infinities would
                // poison the optimizer's linear interpolation into NaN
                // parameter steps.
                Err(_) => FAILURE_OBJECTIVE,
            }
        };

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
        // The `train` span derives `StageTimes::train_s`; per-evaluation
        // spans are deliberately not recorded (hundreds of optimizer
        // evaluations would dwarf the rest of the tree) — the span
        // carries the evaluation count instead.
        let train_span = tracer.open("train");
        let result = match cfg.optimizer {
            OptimizerKind::Cobyla => Cobyla::new(cfg.max_iterations).minimize(&mut objective, &x0),
            OptimizerKind::NelderMead => {
                NelderMead::new(cfg.max_iterations).minimize(&mut objective, &x0)
            }
            OptimizerKind::Spsa => {
                Spsa::new(cfg.max_iterations, cfg.seed).minimize(&mut objective, &x0)
            }
        };
        tracer.attr_int("n_params", n_params as i128);
        tracer.attr_int("evaluations", result.evaluations as i128);
        let train_s = tracer.close(train_span);

        // Final execution at the trained parameters, on a stream no
        // training evaluation can collide with, under a fresh stage
        // ceiling of its own. Only this execution records per-segment
        // and per-attempt detail spans: training executions stay
        // span-free (see the `train` span note above).
        let exec_span = tracer.open("execute");
        let exec_deadline = resil
            .max_stage_seconds
            .map(|s| Instant::now() + Duration::from_secs_f64(s));
        let ctx = ExecContext {
            stage: Stage::Execute,
            stream_seed: derive_seed(cfg.seed, u64::MAX),
            deadline: exec_deadline,
            shots_before: total_shots,
        };
        let exec = execute(
            problem,
            prepared,
            &result.best_params,
            cfg,
            &ctx,
            &mut events,
            Some(&mut tracer),
        );
        let execute_s = tracer.close(exec_span);

        // One constructor for the finished outcome and for the partial
        // one a budget-cut final execution returns.
        let outcome = |distribution: BTreeMap<Label, f64>,
                       raw_in_constraints_rate: f64,
                       quantum_s: f64,
                       retry_s: f64,
                       total_shots: usize,
                       events: Vec<ResilienceEvent>| {
            let e_real = expectation(problem, &distribution, lambda);
            let (_, e_opt) = optimum(problem);
            Outcome {
                best: best_solution(problem, &distribution),
                expectation: e_real,
                arg: arg(e_opt, e_real),
                raw_in_constraints_rate,
                in_constraints_rate: in_constraints_rate(problem, &distribution),
                distribution,
                stats: prepared.stats.clone(),
                latency: Latency {
                    quantum_s,
                    classical_s: wall.elapsed().as_secs_f64(),
                    stages: StageTimes {
                        prepare_s,
                        train_s,
                        execute_s,
                        retry_s,
                    },
                },
                history: result.history,
                evaluations: result.evaluations,
                total_shots,
                resilience: ResilienceReport { events },
                trained_times: result.best_params,
                trace: tracer.finish(),
            }
        };
        match exec {
            Ok(exec) => Ok(outcome(
                exec.distribution,
                exec.raw_in_constraints_rate,
                quantum_s + exec.quantum_s,
                retry_s + exec.retry_s,
                total_shots + exec.shots,
                events,
            )),
            // A budget killed the final execution. Package the best
            // partial result — the latest successful training
            // execution — so callers still get a usable answer.
            Err(RasenganError::BudgetExceeded { stage, kind, .. }) => {
                let partial = last_good.map(|(distribution, raw_rate)| {
                    Box::new(outcome(
                        distribution,
                        raw_rate,
                        quantum_s,
                        retry_s,
                        total_shots,
                        events,
                    ))
                });
                Err(RasenganError::BudgetExceeded {
                    stage,
                    kind,
                    partial,
                })
            }
            Err(e) => Err(e),
        }
    }
}

use crate::prune::{reachable_count, reachable_count_above};

/// Objective value charged when an evaluation fails under noise; large
/// enough to steer any optimizer away, finite so interpolation stays
/// well-conditioned.
const FAILURE_OBJECTIVE: f64 = 1e12;

/// Result of executing the full segmented chain once at fixed
/// parameters.
struct Execution {
    distribution: BTreeMap<Label, f64>,
    raw_in_constraints_rate: f64,
    quantum_s: f64,
    retry_s: f64,
    shots: usize,
}

/// Context of one [`execute`] call: which stage it runs in, the RNG
/// seed every stream of the call derives from, the stage's wall-clock
/// deadline, and how many shots the solve had already spent when the
/// call started.
struct ExecContext {
    stage: Stage,
    stream_seed: u64,
    deadline: Option<Instant>,
    shots_before: usize,
}

/// Returns the budget that has tripped, if any.
fn budget_tripped(
    deadline: Option<Instant>,
    resil: &ResilienceConfig,
    shots_so_far: usize,
) -> Option<BudgetKind> {
    if let (Some(d), Some(limit_s)) = (deadline, resil.max_stage_seconds) {
        if Instant::now() >= d {
            return Some(BudgetKind::WallClock { limit_s });
        }
    }
    if let Some(limit) = resil.max_total_shots {
        if shots_so_far >= limit {
            return Some(BudgetKind::Shots { limit });
        }
    }
    None
}

/// Largest |evolution time| the executor accepts before clamping; far
/// beyond anything an optimizer legitimately proposes, so clamping
/// never perturbs a healthy run.
const PARAM_LIMIT: f64 = 1e6;

fn param_ok(t: f64) -> bool {
    t.is_finite() && t.abs() <= PARAM_LIMIT
}

fn sanitize_param(t: f64) -> f64 {
    if t.is_finite() {
        t.clamp(-PARAM_LIMIT, PARAM_LIMIT)
    } else {
        std::f64::consts::FRAC_PI_4
    }
}

/// Executes the chain segment-by-segment from the seed state, running
/// each segment's compiled [`SegmentProgram`].
///
/// All sampling draws from RNG streams derived from `ctx.stream_seed`
/// through the SplitMix64 finalizer: noisy trajectories get one stream
/// per *global shot index*, exact sampling one stream per input label.
/// Work is split over the configured threads by index, and results are
/// folded in input order — the output is bit-identical for a fixed seed
/// at any thread count.
///
/// When [`ResilienceConfig`] arms retries, a segment whose output loses
/// feasibility is re-executed (escalated shots, fresh RNG substream per
/// attempt) up to the retry budget; when degradation is armed, an
/// exhausted segment is skipped and the chain continues from its input
/// distribution, which is always feasible. With the default (disarmed)
/// config and no fault plan, the control flow and every RNG stream
/// match the legacy single-attempt executor bit for bit.
///
/// When a recording `tracer` is supplied (the final execution of a
/// traced solve), one `segment` span is opened per chain segment and
/// one `attempt` span per sampled execution attempt. Spans live on the
/// control-plane thread only and carry deterministic attributes, so
/// they never perturb RNG streams or result bytes.
fn execute(
    problem: &Problem,
    prepared: &Prepared,
    params: &[f64],
    cfg: &RasenganConfig,
    ctx: &ExecContext,
    events: &mut Vec<ResilienceEvent>,
    tracer: Option<&mut Tracer>,
) -> Result<Execution, RasenganError> {
    assert_eq!(
        prepared.programs.len(),
        prepared.plan.len(),
        "Prepared::programs must hold one compiled program per plan segment"
    );
    // Detail spans only exist for a recording tracer; a `None` (or
    // disabled) tracer keeps this function on its legacy cost profile.
    let mut tracer = tracer.filter(|t| t.enabled());
    let resil = &cfg.resilience;
    let plan = resil.fault_plan.as_ref().filter(|p| p.is_active());

    // Sanitize rather than crash on non-finite or absurd evolution
    // times (injected faults, or an optimizer gone wrong).
    let sanitized;
    let params: &[f64] = if params.iter().all(|t| param_ok(*t)) {
        params
    } else {
        let repaired = params.iter().filter(|t| !param_ok(**t)).count();
        events.push(ResilienceEvent::ParamsSanitized { repaired });
        sanitized = params
            .iter()
            .map(|&t| sanitize_param(t))
            .collect::<Vec<_>>();
        &sanitized
    };

    let shots = match (cfg.shots, cfg.noise.is_noisy()) {
        (Some(s), _) => Some(s),
        (None, true) => Some(1024), // noise forces sampling
        (None, false) => None,
    };

    let mut dist: BTreeMap<Label, f64> = BTreeMap::from([(prepared.seed_label, 1.0)]);
    let mut quantum_s = 0.0;
    let mut retry_s = 0.0;
    let mut shots_used = 0usize;
    let mut raw_rate = 1.0;
    // Next unused RNG stream; monotone across segments so no two shots
    // (or sampling batches) ever share a stream. Retry attempts use a
    // derived sub-seed with their own local counter, so this legacy
    // counter advances exactly as it did pre-resilience.
    let mut next_stream = 0u64;

    let n_segments = prepared.plan.segments.len();
    let segments = prepared.plan.segments.iter().zip(&prepared.programs);
    'segments: for (seg_idx, (range, program)) in segments.enumerate() {
        // Budget gate between segments. Degradation truncates the
        // chain: every segment's input is a feasible distribution, so
        // stopping early costs quality, never validity.
        if let Some(kind) = budget_tripped(ctx.deadline, resil, ctx.shots_before + shots_used) {
            events.push(ResilienceEvent::BudgetExhausted {
                stage: ctx.stage,
                kind,
            });
            if resil.degrade {
                break 'segments;
            }
            return Err(RasenganError::BudgetExceeded {
                stage: ctx.stage,
                kind,
                partial: None,
            });
        }

        let times = &params[range.clone()];
        let cx_depth = program.cx_depth();
        let seg_span = tracer.as_mut().map(|t| {
            let tok = t.open("segment");
            t.attr_int("index", seg_idx as i128);
            t.attr_int("ops", program.ops.len() as i128);
            tok
        });
        let shots = shots.map(|s| {
            if seg_idx + 1 == n_segments {
                s * cfg.final_segment_shot_boost
            } else {
                s
            }
        });
        if let Some(t) = tracer.as_mut() {
            t.attr_int("cx_depth", cx_depth as i128);
            if let Some(s) = shots {
                t.attr_int("shots", s as i128);
            }
        }

        match shots {
            None => {
                // Exact mixture propagation (noise-free analysis mode).
                // Quantum latency is still charged at the notional 1024
                // shots a hardware run would use, so latency reports stay
                // comparable with the shot-based baselines.
                quantum_s +=
                    segment_execution_seconds(&cfg.device, cx_depth, 4 * program.ops.len(), 1024);
                let threads = resolve_threads(cfg.threads);
                dist = propagate_exact(problem.n_vars(), program, times, &dist, threads);
            }
            Some(seg_shots) => {
                let inputs: Vec<Label> = dist.keys().copied().collect();
                let probs: Vec<f64> = dist.values().copied().collect();
                let mut attempt = 0usize;
                loop {
                    if attempt > 0 {
                        // Retries re-check the budgets: escalated shots
                        // must not blow through a hard ceiling.
                        if let Some(kind) =
                            budget_tripped(ctx.deadline, resil, ctx.shots_before + shots_used)
                        {
                            events.push(ResilienceEvent::BudgetExhausted {
                                stage: ctx.stage,
                                kind,
                            });
                            if resil.degrade {
                                break 'segments;
                            }
                            return Err(RasenganError::BudgetExceeded {
                                stage: ctx.stage,
                                kind,
                                partial: None,
                            });
                        }
                    }
                    let attempt_shots = resil.escalated_shots(seg_shots, attempt);
                    let attempt_start = (attempt > 0).then(Instant::now);
                    // Attempt 0 draws from the legacy stream counter;
                    // retries draw from a sub-seed derived from the
                    // segment and attempt, with a fresh local counter,
                    // so they can never collide with legacy streams.
                    let (seed, first_stream) = if attempt == 0 {
                        (ctx.stream_seed, next_stream)
                    } else {
                        (retry_stream_seed(ctx.stream_seed, seg_idx, attempt), 0)
                    };
                    let key = AttemptKey {
                        seed,
                        first_stream,
                        segment: seg_idx,
                        attempt,
                    };
                    let shares = apportion_shots(&probs, attempt_shots);
                    let attempt_span = tracer.as_mut().map(|t| {
                        let tok = t.open("attempt");
                        t.attr_int("attempt", attempt as i128);
                        t.attr_int("shots", attempt_shots as i128);
                        t.attr_int("inputs", inputs.len() as i128);
                        tok
                    });
                    let run =
                        run_segment_shots(problem, program, times, cfg, &inputs, &shares, key);
                    quantum_s += run.quantum_s;
                    shots_used += run.shots;
                    events.extend(run.events);
                    if attempt == 0 {
                        next_stream = run.next_stream;
                    }
                    if let (Some(t), Some(tok)) = (tracer.as_mut(), attempt_span) {
                        t.close(tok);
                    }
                    if let Some(t0) = attempt_start {
                        retry_s += t0.elapsed().as_secs_f64();
                    }

                    let killed = plan.is_some_and(|p| p.kills_segment(seg_idx, attempt));
                    if killed {
                        events.push(ResilienceEvent::FaultInjected {
                            segment: seg_idx,
                            attempt,
                            kind: FaultKind::FeasibilityKill,
                        });
                    }
                    let total: usize = run.counts.values().sum();
                    let outcome = if killed || total == 0 {
                        // A kill fault, or every batch lost: nothing to
                        // post-process.
                        None
                    } else {
                        let raw: BTreeMap<Label, f64> = run
                            .counts
                            .into_iter()
                            .map(|(l, c)| (l, c as f64 / total as f64))
                            .collect();
                        if cfg.purify {
                            purify_distribution(problem, &raw)
                        } else {
                            let rate = crate::metrics::in_constraints_rate(problem, &raw);
                            Some((raw, rate))
                        }
                    };

                    match outcome {
                        Some((next_dist, rate)) => {
                            if attempt > 0 {
                                events.push(ResilienceEvent::Retry {
                                    segment: seg_idx,
                                    attempt,
                                    shots: attempt_shots,
                                    recovered: true,
                                });
                            }
                            raw_rate = rate;
                            dist = next_dist;
                            break;
                        }
                        None => {
                            if attempt > 0 {
                                events.push(ResilienceEvent::Retry {
                                    segment: seg_idx,
                                    attempt,
                                    shots: attempt_shots,
                                    recovered: false,
                                });
                            }
                            if attempt >= resil.retry_budget {
                                if resil.degrade {
                                    events.push(ResilienceEvent::Degraded {
                                        segment: seg_idx,
                                        attempts: attempt + 1,
                                        fallback: if seg_idx == 0 {
                                            DegradeFallback::Seed
                                        } else {
                                            DegradeFallback::PreviousSegment
                                        },
                                    });
                                    // Keep `dist` — the previous
                                    // segment's feasible output (or the
                                    // feasible seed) — and move on.
                                    break;
                                }
                                return Err(RasenganError::NoFeasibleOutput { segment: seg_idx });
                            }
                            attempt += 1;
                        }
                    }
                }
            }
        }
        if let (Some(t), Some(tok)) = (tracer.as_mut(), seg_span) {
            t.close(tok);
        }
    }

    Ok(Execution {
        distribution: dist,
        raw_in_constraints_rate: raw_rate,
        quantum_s,
        retry_s,
        shots: shots_used,
    })
}

/// Exact mixture propagation of `dist` through one segment. Each input
/// label evolves independently on the worker threads; the merge runs
/// sequentially in input order so the floating-point accumulation order
/// is fixed.
fn propagate_exact(
    n_vars: usize,
    program: &SegmentProgram,
    times: &[f64],
    dist: &BTreeMap<Label, f64>,
    threads: usize,
) -> BTreeMap<Label, f64> {
    let consts = mixing_constants(program, times);
    let inputs: Vec<(Label, f64)> = dist.iter().map(|(&l, &p)| (l, p)).collect();
    let locals = par_map(&inputs, threads, |_, &(label, _)| {
        let mut state = SparseState::basis_state(n_vars, label);
        evolve(&mut state, program, &consts);
        state.distribution()
    });
    let mut next: BTreeMap<Label, f64> = BTreeMap::new();
    for ((_, p), local) in inputs.iter().zip(locals) {
        for (l, q) in local {
            *next.entry(l).or_insert(0.0) += p * q;
        }
    }
    next
}

/// Domain tag separating retry RNG sub-seeds from every other stream
/// family derived from the solve seed.
const RETRY_STREAM_TAG: u64 = 0x5E11_1E57_0000_0001;

/// Derives the RNG seed for retry `attempt` of segment `seg_idx`: a
/// sub-seed of the evaluation's `stream_seed` that no legacy stream
/// (plain counter values) can collide with.
fn retry_stream_seed(stream_seed: u64, seg_idx: usize, attempt: usize) -> u64 {
    derive_seed(
        derive_seed(stream_seed, RETRY_STREAM_TAG),
        ((seg_idx as u64) << 32) | attempt as u64,
    )
}

/// One sampled attempt of one segment: the RNG seed it draws from, its
/// first stream, and the `(segment, attempt)` pair that — with the seed
/// — keys every [`FaultPlan`] roll.
#[derive(Clone, Copy, Debug)]
struct AttemptKey {
    seed: u64,
    first_stream: u64,
    segment: usize,
    attempt: usize,
}

/// What one sampled attempt of a segment produced and cost.
struct SegmentRun {
    counts: BTreeMap<Label, usize>,
    /// The advanced stream counter (meaningful only for attempt 0).
    next_stream: u64,
    shots: usize,
    quantum_s: f64,
    /// Faults injected into the attempt, in roll order.
    events: Vec<ResilienceEvent>,
}

/// Runs one sampled attempt of a segment: charges shots and latency per
/// input batch (shares are precomputed), applies the fault plan
/// (calibration drift, batch loss, readout bursts), and folds counts in
/// input order so results are thread-count invariant.
fn run_segment_shots(
    problem: &Problem,
    program: &SegmentProgram,
    times: &[f64],
    cfg: &RasenganConfig,
    inputs: &[Label],
    shares: &[usize],
    key: AttemptKey,
) -> SegmentRun {
    let n_vars = problem.n_vars();
    let noisy = cfg.noise.is_noisy();
    let plan = cfg.resilience.fault_plan.as_ref().filter(|p| p.is_active());
    let AttemptKey {
        seed,
        segment,
        attempt,
        ..
    } = key;
    let mut run = SegmentRun {
        counts: BTreeMap::new(),
        next_stream: key.first_stream,
        shots: 0,
        quantum_s: 0.0,
        events: Vec::new(),
    };
    let fault = |kind| ResilienceEvent::FaultInjected {
        segment,
        attempt,
        kind,
    };
    // Per-(segment, attempt) fault rolls, decided up front: a drifted
    // calibration applies to every trajectory of the attempt, a readout
    // burst to every measured label.
    let noise = match plan {
        Some(p) if p.calibration_drift > 0.0 => {
            let drifted = p.drifted(&cfg.noise, seed, segment, attempt);
            if drifted != cfg.noise {
                run.events.push(fault(FaultKind::CalibrationDrift));
            }
            drifted
        }
        _ => cfg.noise,
    };
    let burst = plan.and_then(|p| p.burst_flip_rate(seed, segment, attempt));
    if burst.is_some() {
        run.events.push(fault(FaultKind::ReadoutBurst));
    }

    // One batch per input label with a nonzero share, tagged with its
    // first RNG stream. A noisy batch runs one trajectory per shot on
    // a stream of its own; a noise-free batch propagates its state once
    // and samples every shot from a single stream.
    let cx_depth = program.cx_depth();
    let mut batches: Vec<(Label, usize, u64)> = Vec::new();
    for (batch, (&input, &share)) in inputs.iter().zip(shares).enumerate() {
        if share == 0 {
            continue;
        }
        run.shots += share;
        run.quantum_s += segment_execution_seconds(
            &cfg.device,
            cx_depth,
            // 1Q layers: X-preparation plus the H/X shells of each τ
            // (≈ 4 per operator).
            input.count_ones() as usize + 4 * program.ops.len(),
            share,
        );
        // A lost batch executed — shots and latency are charged — but
        // its results never came back. Its streams stay reserved so
        // surviving batches keep their streams.
        if plan.is_some_and(|p| p.batch_lost(seed, segment, attempt, batch as u64)) {
            run.events.push(fault(FaultKind::ShotBatchLoss));
        } else {
            batches.push((input, share, run.next_stream));
        }
        run.next_stream += if noisy { share as u64 } else { 1 };
    }

    // Mixing constants shared by every trajectory of the attempt.
    let consts = mixing_constants(program, times);
    let threads = resolve_threads(cfg.threads);
    if noisy {
        // One job per shot, and each worker runs a contiguous slab of
        // jobs through one reused state. A shot's label depends only on
        // (input, stream), so any thread count yields the same counts.
        let jobs: Vec<(Label, u64)> = batches
            .iter()
            .flat_map(|&(input, share, first)| {
                (first..first + share as u64).map(move |s| (input, s))
            })
            .collect();
        let slabs = split_ranges(jobs.len(), threads);
        let labels = par_map(&slabs, threads, |_, slab| {
            let mut state = SparseState::basis_state(n_vars, 0);
            let mut pairs: Vec<(Label, usize)> = Vec::with_capacity(slab.len());
            for &(input, stream) in &jobs[slab.clone()] {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
                let label =
                    run_compiled_trajectory(&mut state, input, program, &consts, &noise, &mut rng);
                let label = match burst {
                    Some(rate) => apply_readout_error(label, n_vars, rate, &mut rng),
                    None => label,
                };
                pairs.push((label, 1));
            }
            pairs
        });
        run.counts = fold_counts(labels.concat());
    } else {
        // Each worker runs a contiguous slab of batches through one
        // reused state and one reused sampler, so a batch allocates
        // nothing once the buffers have grown.
        let slabs = split_ranges(batches.len(), threads);
        let sampled = par_map(&slabs, threads, |_, slab| {
            let mut state = SparseState::basis_state(n_vars, 0);
            let mut sampler = PreparedSampler::default();
            let mut pairs: Vec<(Label, usize)> = Vec::new();
            for &(input, share, stream) in &batches[slab.clone()] {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
                state.reset(input);
                evolve(&mut state, program, &consts);
                sampler.prepare(&state);
                match burst {
                    Some(rate) => {
                        // Re-measure every sampled shot through the
                        // burst channel on the batch's own stream.
                        for (label, c) in sampler.count(share, &mut rng) {
                            for _ in 0..c {
                                pairs.push((apply_readout_error(label, n_vars, rate, &mut rng), 1));
                            }
                        }
                    }
                    None => pairs.extend(sampler.count(share, &mut rng)),
                }
            }
            pairs
        });
        run.counts = fold_counts(sampled.concat());
    }
    run
}

/// Sums `(label, count)` pairs into one count per label. Sorting a flat
/// vector once replaces a map insert per pair; the sums are integers,
/// so the order of equal labels cannot matter.
fn fold_counts(mut pairs: Vec<(Label, usize)>) -> BTreeMap<Label, usize> {
    pairs.sort_unstable_by_key(|&(label, _)| label);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    pairs.into_iter().collect()
}

/// Evaluates each operator's Eq. 6 mixing constants `(cos t, −i·sin t)`
/// once per segment attempt, shared by every shot of the attempt.
fn mixing_constants(prog: &SegmentProgram, times: &[f64]) -> Vec<(Complex, Complex)> {
    prog.ops
        .iter()
        .zip(times)
        .map(|(_, &t)| (Complex::from(t.cos()), Complex::new(0.0, -t.sin())))
        .collect()
}

/// Applies a segment's transition operators noise-free, with mixing
/// constants from [`mixing_constants`].
fn evolve(state: &mut SparseState, program: &SegmentProgram, consts: &[(Complex, Complex)]) {
    for (ct, &(cos, misin)) in program.ops.iter().zip(consts) {
        state.apply_transition_with(&ct.transition, cos, misin);
    }
}

/// One noisy shot: resets `state` to `input` (prepared with X gates),
/// applies the segment's transition operators with per-CX Pauli
/// trajectories and damping, then measures with readout error.
///
/// The transition masks, supports, and CX costs come precompiled, the
/// mixing constants and the reused state from the caller, so the
/// per-shot loop allocates almost nothing. Each τ compiles to 34k CX
/// gates, and every CX slot is an error opportunity: a depolarizing
/// event with probability p₂ on a random support qubit, plus
/// amplitude/phase damping on the slot's two operands (damping accrues
/// with *circuit duration*, which is why deep unsegmented chains
/// collapse — Fig. 14b). [`run_noise_slots_sparse`] runs each
/// operator's slots in mass space over a flat support snapshot: no
/// renormalizing division per channel, no square root per slot, and one
/// amplitude rescale per operator or jump. It draws every random number
/// at the same point and from the same distribution as the gate-by-gate
/// reference oracle in this module's tests.
fn run_compiled_trajectory(
    state: &mut SparseState,
    input: Label,
    prog: &SegmentProgram,
    consts: &[(Complex, Complex)],
    noise: &NoiseModel,
    rng: &mut StdRng,
) -> Label {
    let n = state.n_qubits();
    state.reset(input);
    // State-preparation X column.
    let prep: Vec<usize> = (0..n).filter(|&q| input >> q & 1 == 1).collect();
    apply_gate_noise_sparse_fused(state, &prep, noise.p1, noise, rng);

    for (ct, &(cos, misin)) in prog.ops.iter().zip(consts) {
        state.apply_transition_with(&ct.transition, cos, misin);
        run_noise_slots_sparse(state, &ct.support, ct.cx_cost, noise.p2, noise, rng);
    }

    let label = state.sample_one(rng);
    apply_readout_error(label, n, noise.readout, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::TransitionHamiltonian;
    use rand::Rng;
    use rasengan_problems::registry::{benchmark, BenchmarkId};
    use rasengan_problems::{enumerate_feasible, optimum};
    use rasengan_qsim::noise::apply_gate_noise_sparse;

    fn j1() -> Problem {
        benchmark(BenchmarkId::parse("J1").unwrap())
    }

    // Gate-by-gate reference oracle. The production runners execute
    // compiled `SegmentProgram`s with hoisted mixing constants; the
    // oracle re-derives every transition, support, CX cost and constant
    // per shot from the chain's `TransitionHamiltonian`s, and the
    // `reference_*` tests hold each runner to it bit for bit.

    /// One input label propagated noise-free, operator by operator.
    fn reference_exact(
        n: usize,
        input: Label,
        ops: &[TransitionHamiltonian],
        times: &[f64],
    ) -> SparseState {
        let mut state = SparseState::basis_state(n, input);
        for (op, &t) in ops.iter().zip(times) {
            op.apply(&mut state, t);
        }
        state
    }

    /// Exact mixture propagation of `dist` through one segment, operator
    /// by operator: the oracle for [`propagate_exact`].
    fn reference_propagate(
        n: usize,
        ops: &[TransitionHamiltonian],
        times: &[f64],
        dist: &BTreeMap<Label, f64>,
    ) -> BTreeMap<Label, f64> {
        let mut next: BTreeMap<Label, f64> = BTreeMap::new();
        for (&input, p) in dist {
            for (l, q) in reference_exact(n, input, ops, times).distribution() {
                *next.entry(l).or_insert(0.0) += p * q;
            }
        }
        next
    }

    /// One noisy shot, gate by gate: the oracle for
    /// [`run_compiled_trajectory`].
    fn reference_noisy_trajectory(
        n: usize,
        input: Label,
        ops: &[TransitionHamiltonian],
        times: &[f64],
        noise: &NoiseModel,
        rng: &mut StdRng,
    ) -> Label {
        let mut state = SparseState::basis_state(n, input);
        // State-preparation X column.
        let prep_qubits: Vec<usize> = (0..n).filter(|&q| input >> q & 1 == 1).collect();
        apply_gate_noise_sparse(&mut state, &prep_qubits, noise.p1, noise, rng);

        let damping_only = NoiseModel {
            p1: 0.0,
            p2: 0.0,
            readout: 0.0,
            ..*noise
        };
        for (op, &t) in ops.iter().zip(times) {
            op.apply(&mut state, t);
            let support = op.support();
            for _ in 0..op.cx_cost() {
                if noise.p2 > 0.0 && rng.gen::<f64>() < noise.p2 {
                    let q = support[rng.gen_range(0..support.len())];
                    apply_gate_noise_sparse(&mut state, &[q], 1.0, &NoiseModel::noise_free(), rng);
                }
                if damping_only.is_noisy() {
                    let a = support[rng.gen_range(0..support.len())];
                    let b = support[rng.gen_range(0..support.len())];
                    let slot = if a == b { vec![a] } else { vec![a, b] };
                    apply_gate_noise_sparse(&mut state, &slot, 0.0, &damping_only, rng);
                }
            }
        }

        let label = state.sample_one(rng);
        apply_readout_error(label, n, noise.readout, rng)
    }

    /// One fault-free sampled attempt of a segment on one thread, gate
    /// by gate: the oracle for [`run_segment_shots`]' counts and stream
    /// numbering (`share` streams per noisy batch, one per noise-free
    /// batch). Returns the counts and the advanced stream counter.
    fn reference_segment_counts(
        n: usize,
        ops: &[TransitionHamiltonian],
        times: &[f64],
        noise: &NoiseModel,
        batches: &[(Label, usize)],
        key: AttemptKey,
    ) -> (BTreeMap<Label, usize>, u64) {
        let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
        let mut stream = key.first_stream;
        for &(input, share) in batches.iter().filter(|(_, share)| *share > 0) {
            if noise.is_noisy() {
                for _ in 0..share {
                    let mut rng = StdRng::seed_from_u64(derive_seed(key.seed, stream));
                    let label = reference_noisy_trajectory(n, input, ops, times, noise, &mut rng);
                    *counts.entry(label).or_insert(0) += 1;
                    stream += 1;
                }
            } else {
                let mut rng = StdRng::seed_from_u64(derive_seed(key.seed, stream));
                let state = reference_exact(n, input, ops, times);
                for (label, c) in state.sample(share, &mut rng) {
                    *counts.entry(label).or_insert(0) += c;
                }
                stream += 1;
            }
        }
        (counts, stream)
    }

    /// Registry instances the reference tests compile, each with fixed
    /// random evolution times over its whole chain.
    fn reference_cases() -> Vec<(Problem, Prepared, Vec<f64>)> {
        ["J1", "F1", "F2", "K1", "G1"]
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let problem = benchmark(BenchmarkId::parse(id).unwrap());
                let prepared = Rasengan::new(RasenganConfig::default())
                    .prepare(&problem)
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(0x7E57 + i as u64);
                let times = (0..prepared.stats.n_params)
                    .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                    .collect();
                (problem, prepared, times)
            })
            .collect()
    }

    /// The noisy regimes: gate and readout noise, then the same with
    /// both damping channels folded into every CX slot, then IBM Kyiv's
    /// calibrated rates.
    fn noisy_regimes() -> [(&'static str, NoiseModel); 3] {
        [
            ("noisy", NoiseModel::ibm_like(2e-3, 1e-2, 0.02)),
            (
                "noisy-damped",
                NoiseModel::ibm_like(2e-3, 1e-2, 0.02)
                    .with_amplitude_damping(5e-3)
                    .with_phase_damping(3e-3),
            ),
            ("kyiv", Device::ibm_kyiv().noise),
        ]
    }

    /// Walks every segment of every reference case, handing `check` the
    /// segment's compiled program, operators, times, and the exact
    /// (oracle-propagated) input distribution it starts from.
    fn for_each_reference_segment(
        mut check: impl FnMut(
            &str,
            &Problem,
            &SegmentProgram,
            &[TransitionHamiltonian],
            &[f64],
            &BTreeMap<Label, f64>,
        ),
    ) {
        for (problem, prepared, times) in reference_cases() {
            let n = problem.n_vars();
            let mut dist: BTreeMap<Label, f64> = BTreeMap::from([(prepared.seed_label, 1.0)]);
            for (seg, range) in prepared.plan.segments.iter().enumerate() {
                let ops = &prepared.chain.ops[range.clone()];
                let times = &times[range.clone()];
                let label = format!("{} segment {seg}", problem.name());
                check(&label, &problem, &prepared.programs[seg], ops, times, &dist);
                dist = reference_propagate(n, ops, times, &dist);
            }
        }
    }

    #[test]
    fn reference_exact_propagation_matches_compiled() {
        for_each_reference_segment(|label, problem, program, ops, times, dist| {
            let n = problem.n_vars();
            let want = reference_propagate(n, ops, times, dist);
            for threads in [1, 4] {
                let got = propagate_exact(n, program, times, dist, threads);
                assert_eq!(got, want, "{label}, {threads} threads");
            }
        });
    }

    #[test]
    fn reference_noisy_trajectories_match_compiled_shot_by_shot() {
        for (regime, noise) in noisy_regimes() {
            for_each_reference_segment(|label, problem, program, ops, times, dist| {
                let n = problem.n_vars();
                let consts = mixing_constants(program, times);
                // One state through every shot, as a worker slab runs.
                let mut state = SparseState::basis_state(n, 0);
                for &input in dist.keys() {
                    for stream in 0..48u64 {
                        let seed = derive_seed(0x5407, stream);
                        let mut rng = StdRng::seed_from_u64(seed);
                        let got = run_compiled_trajectory(
                            &mut state, input, program, &consts, &noise, &mut rng,
                        );
                        let mut rng = StdRng::seed_from_u64(seed);
                        let want =
                            reference_noisy_trajectory(n, input, ops, times, &noise, &mut rng);
                        assert_eq!(
                            got, want,
                            "[{regime}] {label}, input {input}, stream {stream}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn reference_segment_runs_match_compiled() {
        let regimes = std::iter::once(("noise-free sampled", NoiseModel::noise_free()))
            .chain(noisy_regimes());
        for (regime, noise) in regimes {
            for_each_reference_segment(|label, problem, program, ops, times, dist| {
                let inputs: Vec<Label> = dist.keys().copied().collect();
                let probs: Vec<f64> = dist.values().copied().collect();
                let shares = apportion_shots(&probs, 160);
                let batches: Vec<(Label, usize)> =
                    inputs.iter().copied().zip(shares.iter().copied()).collect();
                let key = AttemptKey {
                    seed: 0xBA7C,
                    first_stream: 17,
                    segment: 0,
                    attempt: 0,
                };
                let (want, want_next) =
                    reference_segment_counts(problem.n_vars(), ops, times, &noise, &batches, key);
                for threads in [1, 4] {
                    let cfg = RasenganConfig::default()
                        .with_noise(noise)
                        .with_threads(threads);
                    let run =
                        run_segment_shots(problem, program, times, &cfg, &inputs, &shares, key);
                    assert_eq!(run.counts, want, "[{regime}] {label}, {threads} threads");
                    assert_eq!(run.next_stream, want_next, "[{regime}] {label}");
                    assert_eq!(run.shots, 160, "[{regime}] {label}");
                }
            });
        }
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
    fn final_segment_shot_boost_multiplies_budget() {
        let cfg = RasenganConfig::default()
            .with_seed(1)
            .with_shots(100)
            .with_max_iterations(5)
            .with_final_segment_shot_boost(10);
        let boosted = Rasengan::new(cfg.clone()).solve(&j1()).unwrap();
        let mut plain_cfg = cfg;
        plain_cfg.final_segment_shot_boost = 1;
        let plain = Rasengan::new(plain_cfg).solve(&j1()).unwrap();
        assert!(
            boosted.total_shots > plain.total_shots,
            "boost had no effect: {} vs {}",
            boosted.total_shots,
            plain.total_shots
        );
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

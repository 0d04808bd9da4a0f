//! One solve's training objective and the segmented executor behind it.
//!
//! [`Objective`] sits between [`Rasengan::prepare`](crate::Rasengan::prepare)
//! and the segment runners. Training calls [`Objective::evaluate`] once
//! per optimizer step, the final execution at the trained times runs
//! [`Objective::execute_final`], and both charge one set of totals:
//! shots, modeled quantum seconds, retry wall-clock and resilience
//! events. An execution is charged what it ran when it completes or a
//! budget cuts it. [`Objective::finish`] picks the solve's answer and
//! turns it and those totals into the [`Outcome`].
//!
//! Every execution of the solve runs in one [`Workspace`], built with the
//! objective: the engine threads' states, samplers and output buffers,
//! the hand-off distributions and the segment scratch. Once its buffers
//! have grown to the solve's widest hand-off, an evaluation allocates
//! nothing in the executor.

use crate::latency::{segment_execution_seconds, Latency};
use crate::metrics::{
    arg, best_solution, expectation, in_constraints_rate, label_value, pairs_in_constraints_rate,
    penalty_lambda,
};
use crate::purify::{purify_distribution, renormalize};
use crate::resilience::{
    escalated_shots, BudgetKind, DegradeFallback, ResilienceConfig, ResilienceEvent,
    ResilienceReport, Stage,
};
use crate::segment::{apportion_shots_into, SegmentProgram};
use crate::solver::{Outcome, Prepared, RasenganConfig, RasenganError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_obs::span::{TraceTree, Tracer};
use rasengan_optim::OptimizeResult;
use rasengan_problems::{optimum, Problem, Sense};
use rasengan_qsim::fault::{FaultKind, FaultPlan};
use rasengan_qsim::noise::apply_readout_error;
use rasengan_qsim::parallel::{derive_seed, par_slabs, resolve_threads};
use rasengan_qsim::{Complex, Label, NoiseModel, PreparedSampler, SparseState, NOTIONAL_SHOTS};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Objective value charged when an evaluation fails under noise; large
/// enough to steer any optimizer away, finite so interpolation stays
/// well-conditioned.
const FAILURE_OBJECTIVE: f64 = 1e12;

/// What one execution of the full segmented chain at fixed parameters
/// returns; its shots and latency are charged to the [`Objective`].
#[derive(Debug, PartialEq)]
pub(crate) struct Execution {
    /// The last segment's `(label, probability)` hand-off, in ascending
    /// label order.
    distribution: Vec<(Label, f64)>,
    raw_in_constraints_rate: f64,
}

/// The training objective of one solve, and the accounting that
/// training, the final execution and a budget-cut partial outcome share.
pub(crate) struct Objective<'a> {
    problem: &'a Problem,
    prepared: &'a Prepared,
    cfg: &'a RasenganConfig,
    lambda: f64,
    /// Whether [`proves_closure`] holds for the solve.
    closed: bool,
    /// Evaluations so far; evaluation `n` draws from
    /// `derive_seed(seed, n)`.
    evaluations: u64,
    /// The training stage's wall-clock ceiling, counted from
    /// [`Objective::new`].
    train_deadline: Option<Instant>,
    /// The ceiling that stopped training, once one has tripped.
    train_stop: Option<BudgetKind>,
    /// Modeled quantum seconds of every charged execution.
    pub(crate) quantum_s: f64,
    /// Wall-clock of the retry attempts of every charged execution.
    pub(crate) retry_s: f64,
    /// Shots of every charged execution.
    total_shots: usize,
    events: Vec<ResilienceEvent>,
    /// The latest completed execution: the answer of a budget-cut
    /// solve.
    last_good: Option<Execution>,
    /// The buffers every execution reuses.
    ws: Workspace,
}

impl<'a> Objective<'a> {
    /// The objective of solving `problem` on its compile `prepared`
    /// under `cfg`. The training stage's ceiling starts now.
    pub(crate) fn new(
        problem: &'a Problem,
        prepared: &'a Prepared,
        cfg: &'a RasenganConfig,
    ) -> Self {
        Objective {
            problem,
            prepared,
            cfg,
            lambda: penalty_lambda(problem),
            closed: proves_closure(problem, prepared, cfg),
            evaluations: 0,
            train_deadline: stage_deadline(&cfg.resilience),
            train_stop: None,
            quantum_s: 0.0,
            retry_s: 0.0,
            total_shots: 0,
            events: Vec::new(),
            last_good: None,
            ws: Workspace::new(problem.n_vars(), resolve_threads(cfg.threads)),
        }
    }

    /// The sense-adjusted expectation at `params`, to be minimized.
    /// Each evaluation executes under its own RNG stream derived from
    /// the seed and the evaluation index. An evaluation that fails under
    /// noise or is stopped by a budget returns [`FAILURE_OBJECTIVE`];
    /// once a training budget trips, every later one returns it without
    /// spending quantum time.
    pub(crate) fn evaluate(&mut self, params: &[f64]) -> f64 {
        let cfg = self.cfg;
        self.evaluations += 1;
        let stream_seed = derive_seed(cfg.seed, self.evaluations);

        let Ok(()) = self.budget_stop(Stage::Train, self.train_deadline, Spent::default()) else {
            return FAILURE_OBJECTIVE;
        };

        // Fault injection: corrupt optimizer parameters before
        // execution; the executor sanitizes rather than crashes. (For
        // `ParamCorruption` events the `segment` field carries the
        // corrupted parameter index.)
        let corrupted;
        let params = match active_plan(cfg) {
            Some(p) if p.param_corruption > 0.0 => {
                let mut buf = params.to_vec();
                if let Some(idx) = p.corrupt_params(self.evaluations, &mut buf) {
                    self.events.push(ResilienceEvent::FaultInjected {
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

        match self.execute(params, Stage::Train, stream_seed, self.train_deadline, None) {
            Ok(exec) => {
                let e = self.training_expectation(&exec.distribution);
                // The execution this one replaces hands its buffer on to
                // the next one's hand-off.
                if let Some(old) = self.last_good.replace(exec) {
                    self.ws.dist = old.distribution;
                }
                match self.problem.sense() {
                    Sense::Minimize => e,
                    Sense::Maximize => -e,
                }
            }
            // A failed evaluation (noise destroyed feasibility, or a
            // budget stopped it) is charged a large *finite* penalty:
            // infinities would poison the optimizer's linear
            // interpolation into NaN parameter steps.
            Err(_) => FAILURE_OBJECTIVE,
        }
    }

    /// [`expectation`] of `dist`, a distribution in ascending label
    /// order, with each label's value taken from the previous call's
    /// table when it holds the label: the same values summed in the same
    /// order, so the same bits. The table is replaced by `dist`'s.
    fn training_expectation(&mut self, dist: &[(Label, f64)]) -> f64 {
        let (problem, lambda) = (self.problem, self.lambda);
        let Workspace {
            values,
            next_values,
            ..
        } = &mut self.ws;
        let mut known = values.iter().peekable();
        next_values.clear();
        let e = dist
            .iter()
            .map(|&(label, p)| {
                while known.next_if(|&&(l, _)| l < label).is_some() {}
                let v = match known.next_if(|&&(l, _)| l == label) {
                    Some(&(_, v)) => v,
                    None => label_value(problem, label, lambda),
                };
                next_values.push((label, v));
                p * v
            })
            .sum();
        std::mem::swap(values, next_values);
        e
    }

    /// The final execution at the trained times: on a stream no training
    /// evaluation can collide with, under a fresh stage ceiling of its
    /// own. Only this execution records per-segment and per-attempt
    /// spans; training executions stay span-free.
    pub(crate) fn execute_final(
        &mut self,
        params: &[f64],
        tracer: &mut Tracer,
    ) -> Result<Execution, RasenganError> {
        let deadline = stage_deadline(&self.cfg.resilience);
        let stream_seed = derive_seed(self.cfg.seed, u64::MAX);
        self.execute(params, Stage::Execute, stream_seed, deadline, Some(tracer))
    }

    /// Executes the chain segment-by-segment from the seed state,
    /// running each segment's compiled [`SegmentProgram`], and charges
    /// its shots, modeled quantum seconds and retry wall-clock to the
    /// objective when it completes or a budget cuts it. An execution
    /// that ends in [`RasenganError::NoFeasibleOutput`] is not charged.
    ///
    /// All sampling draws from RNG streams derived from `stream_seed`
    /// through the SplitMix64 finalizer: noisy trajectories get one
    /// stream per *global shot index*, exact sampling one stream per
    /// input label. Work is split over the configured threads by index,
    /// and results are folded in input order — the output is
    /// bit-identical for a fixed seed at any thread count.
    ///
    /// When [`ResilienceConfig`] arms retries, a segment whose output
    /// loses feasibility is re-executed (escalated shots, fresh RNG
    /// substream per attempt) up to the retry budget; when degradation
    /// is armed, an exhausted segment is skipped and the chain continues
    /// from its input distribution, which is always feasible. Attempt 0
    /// of every segment draws from the execution's stream counter and
    /// retries from a tagged sub-seed ([`retry_stream_seed`]), so
    /// neither retries nor their absence move any attempt-0 stream.
    /// A budget that trips before a segment or a retry ends the
    /// execution with [`RasenganError::BudgetExceeded`], charging the
    /// segments and attempts that ran before it.
    ///
    /// When a recording `tracer` is supplied (the final execution of a
    /// traced solve), one `segment` span is opened per chain segment and
    /// one `attempt` span per sampled execution attempt. Spans live on
    /// the control-plane thread only and carry deterministic attributes,
    /// so they never perturb RNG streams or result bytes.
    pub(crate) fn execute(
        &mut self,
        params: &[f64],
        stage: Stage,
        stream_seed: u64,
        deadline: Option<Instant>,
        tracer: Option<&mut Tracer>,
    ) -> Result<Execution, RasenganError> {
        let (problem, prepared, cfg) = (self.problem, self.prepared, self.cfg);
        assert_eq!(
            prepared.programs.len(),
            prepared.plan.len(),
            "Prepared::programs must hold one compiled program per plan segment"
        );
        // Detail spans only exist for a recording tracer; a `None` (or
        // disabled) tracer opens none and reads no clock.
        let mut tracer = tracer.filter(|t| t.enabled());
        let resil = &cfg.resilience;
        let plan = active_plan(cfg);

        // Sanitize rather than crash on non-finite or absurd evolution
        // times (injected faults, or an optimizer gone wrong).
        let sanitized;
        let params: &[f64] = if params.iter().all(|t| param_ok(*t)) {
            params
        } else {
            let repaired = params.iter().filter(|t| !param_ok(**t)).count();
            self.events
                .push(ResilienceEvent::ParamsSanitized { repaired });
            sanitized = params
                .iter()
                .map(|&t| sanitize_param(t))
                .collect::<Vec<_>>();
            &sanitized
        };

        let shots = cfg.noise.sampling_shots(cfg.shots);

        // Segments hand off `(label, probability)` in ascending label
        // order, through the workspace's `dist`.
        self.ws.dist.clear();
        self.ws.dist.push((prepared.seed_label, 1.0));
        // This execution's own sums, charged to the objective at the end
        // or when a budget cuts it.
        let mut spent = Spent::default();
        let mut raw_rate = 1.0;
        // Next unused RNG stream of attempt 0; monotone across segments
        // so no two shots (or sampling batches) ever share a stream.
        let mut next_stream = 0u64;

        let segments = prepared.plan.segments.iter().zip(&prepared.programs);
        for (seg_idx, (range, program)) in segments.enumerate() {
            self.budget_stop(stage, deadline, spent)?;

            let times = &params[range.clone()];
            let cx_depth = program.cx_depth();
            let seg_span = tracer.as_mut().map(|t| {
                let tok = t.open("segment");
                t.attr_int("index", seg_idx as i128);
                t.attr_int("ops", program.ops.len() as i128);
                t.attr_int("cx_depth", cx_depth as i128);
                if let Some(s) = shots {
                    t.attr_int("shots", s as i128);
                }
                tok
            });

            match shots {
                None => {
                    // Exact mixture propagation (noise-free analysis
                    // mode). Quantum latency is still charged at the
                    // notional shots a hardware run would use.
                    spent.quantum_s += segment_execution_seconds(
                        &cfg.device,
                        cx_depth,
                        4 * program.ops.len(),
                        NOTIONAL_SHOTS,
                    );
                    self.ws.propagate_exact(program, times);
                }
                Some(seg_shots) => {
                    let ws = &mut self.ws;
                    ws.probs.clear();
                    ws.probs.extend(ws.dist.iter().map(|&(_, p)| p));
                    let mut attempt = 0usize;
                    loop {
                        // Retries re-check the budgets: escalated shots
                        // must not blow through a hard ceiling.
                        if attempt > 0 {
                            self.budget_stop(stage, deadline, spent)?;
                        }
                        let attempt_shots = escalated_shots(seg_shots, attempt);
                        let attempt_start = (attempt > 0).then(Instant::now);
                        // Attempt 0 draws from the execution's stream
                        // counter; a retry from a tagged sub-seed with a
                        // fresh local counter, which cannot collide with it.
                        let (seed, first_stream) = if attempt == 0 {
                            (stream_seed, next_stream)
                        } else {
                            (retry_stream_seed(stream_seed, seg_idx, attempt), 0)
                        };
                        let key = AttemptKey {
                            seed,
                            first_stream,
                            segment: seg_idx,
                            attempt,
                        };
                        let ws = &mut self.ws;
                        apportion_shots_into(
                            &ws.probs,
                            attempt_shots,
                            &mut ws.shares,
                            &mut ws.remainders,
                        );
                        let attempt_span = tracer.as_mut().map(|t| {
                            let tok = t.open("attempt");
                            t.attr_int("attempt", attempt as i128);
                            t.attr_int("shots", attempt_shots as i128);
                            t.attr_int("inputs", ws.dist.len() as i128);
                            tok
                        });
                        let run = ws.run_segment_shots(problem, program, times, cfg, key);
                        spent.quantum_s += run.quantum_s;
                        spent.shots += run.shots;
                        self.events.extend(run.events);
                        if attempt == 0 {
                            next_stream = run.next_stream;
                        }
                        if let (Some(t), Some(tok)) = (tracer.as_mut(), attempt_span) {
                            t.close(tok);
                        }
                        if let Some(t0) = attempt_start {
                            spent.retry_s += t0.elapsed().as_secs_f64();
                        }

                        let killed = plan.is_some_and(|p| p.kills_segment(seg_idx, attempt));
                        if killed {
                            self.events.push(ResilienceEvent::FaultInjected {
                                segment: seg_idx,
                                attempt,
                                kind: FaultKind::FeasibilityKill,
                            });
                        }
                        let ws = &mut self.ws;
                        let total: usize = ws.counts.iter().map(|&(_, c)| c).sum();
                        let outcome = if killed || total == 0 {
                            // A kill fault, or every batch lost: nothing
                            // to post-process.
                            None
                        } else {
                            // The raw distribution is built in the spare
                            // hand-off buffer; purification keeps it.
                            let mut raw = std::mem::take(&mut ws.next);
                            raw.clear();
                            raw.extend(
                                ws.counts.iter().map(|&(l, c)| (l, c as f64 / total as f64)),
                            );
                            match (self.closed, cfg.purify) {
                                // Every label is feasible by
                                // construction: purification keeps all
                                // of the mass (rate `kept / kept`) and
                                // renormalizes by it.
                                (true, true) => renormalize(raw).map(|(next, _)| (next, 1.0)),
                                (true, false) => Some((raw, 1.0)),
                                (false, true) => purify_distribution(problem, raw),
                                (false, false) => {
                                    let rate =
                                        pairs_in_constraints_rate(problem, raw.iter().copied());
                                    Some((raw, rate))
                                }
                            }
                        };

                        if attempt > 0 {
                            self.events.push(ResilienceEvent::Retry {
                                segment: seg_idx,
                                attempt,
                                shots: attempt_shots,
                                recovered: outcome.is_some(),
                            });
                        }
                        if let Some((next_dist, rate)) = outcome {
                            raw_rate = rate;
                            self.ws.next = std::mem::replace(&mut self.ws.dist, next_dist);
                            break;
                        }
                        if attempt >= resil.retry_budget {
                            if !resil.degrade {
                                return Err(RasenganError::NoFeasibleOutput { segment: seg_idx });
                            }
                            self.events.push(ResilienceEvent::Degraded {
                                segment: seg_idx,
                                attempts: attempt + 1,
                                fallback: if seg_idx == 0 {
                                    DegradeFallback::Seed
                                } else {
                                    DegradeFallback::PreviousSegment
                                },
                            });
                            // Keep `ws.dist` — the previous segment's
                            // feasible output (or the feasible seed) —
                            // and move on.
                            break;
                        }
                        attempt += 1;
                    }
                }
            }
            if let (Some(t), Some(tok)) = (tracer.as_mut(), seg_span) {
                t.close(tok);
            }
        }

        self.charge(spent);
        Ok(Execution {
            distribution: std::mem::take(&mut self.ws.dist),
            raw_in_constraints_rate: raw_rate,
        })
    }

    /// The solve's one budget gate, checked before each evaluation, each
    /// segment and each retry, with `spent` what the running execution
    /// has run so far, not yet charged. A tripped ceiling charges
    /// `spent`, ends the execution with [`RasenganError::BudgetExceeded`]
    /// and is recorded once per stage: a stopped training stage stays
    /// stopped.
    fn budget_stop(
        &mut self,
        stage: Stage,
        deadline: Option<Instant>,
        spent: Spent,
    ) -> Result<(), RasenganError> {
        let kind = match self.train_stop.filter(|_| stage == Stage::Train) {
            Some(kind) => kind,
            None => {
                let shots = self.total_shots + spent.shots;
                let Some(kind) = budget_tripped(deadline, &self.cfg.resilience, shots) else {
                    return Ok(());
                };
                self.events
                    .push(ResilienceEvent::BudgetExhausted { stage, kind });
                if stage == Stage::Train {
                    self.train_stop = Some(kind);
                }
                kind
            }
        };
        self.charge(spent);
        Err(RasenganError::BudgetExceeded {
            stage,
            kind,
            partial: None,
        })
    }

    /// Adds one execution's sums to the solve's totals.
    fn charge(&mut self, spent: Spent) {
        self.quantum_s += spent.quantum_s;
        self.retry_s += spent.retry_s;
        self.total_shots += spent.shots;
    }

    /// The solve's answer, given the final execution `final_exec`: its
    /// outcome when it completed. After a budget stop the answer is the
    /// latest completed execution, or the feasible seed when none
    /// completed; degradation returns it as the `Ok` outcome, and
    /// otherwise it rides in the error's `partial` (the seed never
    /// does). Any other error is returned as it is.
    pub(crate) fn finish(
        mut self,
        final_exec: Result<Execution, RasenganError>,
        trained: OptimizeResult,
        latency: Latency,
        trace: Option<TraceTree>,
    ) -> Result<Outcome, RasenganError> {
        let (stage, kind) = match final_exec {
            Ok(exec) => return Ok(self.outcome(exec, trained, latency, trace)),
            Err(RasenganError::BudgetExceeded { stage, kind, .. }) => (stage, kind),
            Err(e) => return Err(e),
        };
        let last_good = self.last_good.take();
        if self.cfg.resilience.degrade {
            let exec = last_good.unwrap_or_else(|| Execution {
                distribution: vec![(self.prepared.seed_label, 1.0)],
                raw_in_constraints_rate: 1.0,
            });
            return Ok(self.outcome(exec, trained, latency, trace));
        }
        let partial = last_good.map(|exec| Box::new(self.outcome(exec, trained, latency, trace)));
        Err(RasenganError::BudgetExceeded {
            stage,
            kind,
            partial,
        })
    }

    /// The solve's [`Outcome`]: `exec`'s distribution with everything
    /// the objective charged, the optimizer's result and the stage
    /// timings.
    fn outcome(
        self,
        exec: Execution,
        trained: OptimizeResult,
        latency: Latency,
        trace: Option<TraceTree>,
    ) -> Outcome {
        let problem = self.problem;
        let distribution: BTreeMap<Label, f64> = exec.distribution.into_iter().collect();
        let e_real = expectation(problem, &distribution, self.lambda);
        let (_, e_opt) = optimum(problem);
        Outcome {
            best: best_solution(problem, &distribution),
            expectation: e_real,
            arg: arg(e_opt, e_real),
            raw_in_constraints_rate: exec.raw_in_constraints_rate,
            in_constraints_rate: in_constraints_rate(problem, &distribution),
            distribution,
            stats: self.prepared.stats.clone(),
            latency,
            history: trained.history,
            evaluations: trained.evaluations,
            total_shots: self.total_shots,
            resilience: ResilienceReport {
                events: self.events,
            },
            trained_times: trained.best_params,
            trace,
        }
    }
}

/// What one execution has run so far: its shots, modeled quantum
/// seconds and retry wall-clock.
#[derive(Clone, Copy, Debug, Default)]
struct Spent {
    shots: usize,
    quantum_s: f64,
    retry_s: f64,
}

/// The fault plan of `cfg`, if it can inject anything.
fn active_plan(cfg: &RasenganConfig) -> Option<&FaultPlan> {
    cfg.resilience.fault_plan.as_ref().filter(|p| p.is_active())
}

/// A stage's wall-clock deadline, counted from now.
fn stage_deadline(resil: &ResilienceConfig) -> Option<Instant> {
    resil
        .max_stage_seconds
        .map(|s| Instant::now() + Duration::from_secs_f64(s))
}

/// Whether every label a sampled execution of `prepared` can measure
/// is feasible for `problem`, so [`Objective::execute`] may skip the
/// per-label check. That holds without noise and without an active
/// fault plan (a readout burst flips bits even without noise) when the
/// seed is feasible and every compiled move `u` has `C u = 0`: a partner
/// move then carries a feasible label to a feasible one. Checked against
/// the problem passed, since only a doc comment ties a [`Prepared`] to
/// its problem. Exact mode never checks labels, so it skips the proof.
fn proves_closure(problem: &Problem, prepared: &Prepared, cfg: &RasenganConfig) -> bool {
    cfg.shots.is_some()
        && !cfg.noise.is_noisy()
        && active_plan(cfg).is_none()
        && problem.is_feasible_label(prepared.seed_label)
        && prepared.programs.iter().flat_map(|p| &p.ops).all(|op| {
            let t = &op.transition;
            problem.preserves_feasibility(t.plus_mask, t.minus_mask)
        })
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

/// Domain tag separating retry RNG sub-seeds from every other stream
/// family derived from the solve seed.
const RETRY_STREAM_TAG: u64 = 0x5E11_1E57_0000_0001;

/// Derives the RNG seed for retry `attempt` of segment `seg_idx`: a
/// sub-seed of the execution's `stream_seed` behind [`RETRY_STREAM_TAG`],
/// so it never collides with an attempt-0 stream (a plain counter value
/// under `stream_seed` itself).
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

/// What one sampled attempt of a segment cost; its counts are left in
/// [`Workspace::counts`].
struct SegmentRun {
    /// The advanced stream counter (meaningful only for attempt 0).
    next_stream: u64,
    shots: usize,
    quantum_s: f64,
    /// Faults injected into the attempt, in roll order.
    events: Vec<ResilienceEvent>,
}

/// The buffers every execution of one solve reuses. [`Objective::new`]
/// builds it and it is dropped with the solve. Each buffer is cleared or
/// overwritten before it is read, so an execution sees nothing an
/// earlier one left.
#[derive(Default)]
struct Workspace {
    /// One scratch per engine thread, each run by [`par_slabs`].
    workers: Vec<Worker>,
    /// The running hand-off, `(label, p)` in ascending label order.
    /// A completed execution takes it, and the execution it replaces as
    /// `last_good` gives its buffer back.
    dist: Vec<(Label, f64)>,
    /// The next hand-off while a segment builds it.
    next: Vec<(Label, f64)>,
    /// A sampled segment's input probabilities, in `dist` order.
    probs: Vec<f64>,
    /// Shot shares per input, and [`apportion_shots_into`]'s scratch.
    shares: Vec<usize>,
    remainders: Vec<(usize, f64)>,
    /// A sampled attempt's surviving batches, `(input, share, first
    /// stream)`.
    batches: Vec<(Label, usize, u64)>,
    /// A noisy attempt's shots, `(input, stream)`.
    jobs: Vec<(Label, u64)>,
    /// The running segment's Eq. 6 mixing constants.
    consts: Vec<(Complex, Complex)>,
    /// A sampled attempt's counts per label, in ascending label order.
    counts: Vec<(Label, usize)>,
    /// `(label, label_value)` of every label the latest expectation
    /// measured, in ascending label order: the next one evaluates only
    /// labels it does not hold, and builds its own in `next_values`.
    values: Vec<(Label, f64)>,
    next_values: Vec<(Label, f64)>,
}

/// One engine thread's scratch: the state its slab runs through, the
/// sampler that state is drawn with, and the slab's output.
struct Worker {
    state: SparseState,
    sampler: PreparedSampler,
    /// Exact mode: `(label, p·q)` terms, in input order.
    terms: Vec<(Label, f64)>,
    /// Sampled mode: `(label, count)` pairs, in input order.
    counts: Vec<(Label, usize)>,
}

impl Workspace {
    /// Empty buffers for a problem on `n_vars` qubits, with `threads`
    /// workers.
    fn new(n_vars: usize, threads: usize) -> Self {
        let worker = || Worker {
            state: SparseState::basis_state(n_vars, 0),
            sampler: PreparedSampler::default(),
            terms: Vec::new(),
            counts: Vec::new(),
        };
        Workspace {
            workers: (0..threads.max(1)).map(|_| worker()).collect(),
            ..Workspace::default()
        }
    }

    /// Exact mixture propagation of `dist` through one segment; `dist`
    /// then holds the output, in ascending label order too.
    ///
    /// Each worker runs a contiguous slab of input labels through its
    /// state and pushes `(label, p·q)` for every outcome `label` of
    /// probability `q`, in input order; a label no operator moves is
    /// pushed as `(label, p)` without evolving (`q` would be exactly
    /// one). The workers' terms are joined in worker order and
    /// [`fold_terms`] sums each output label's terms in input order, so
    /// every output label gets the same additions in the same order at
    /// any thread count.
    fn propagate_exact(&mut self, program: &SegmentProgram, times: &[f64]) {
        mixing_constants_into(program, times, &mut self.consts);
        let (dist, consts) = (&self.dist, &self.consts);
        let used = par_slabs(dist.len(), &mut self.workers, |slab, w| {
            w.terms.clear();
            for &(input, p) in &dist[slab] {
                if !program.moves(input) {
                    w.terms.push((input, p));
                    continue;
                }
                w.state.reset(input);
                evolve(&mut w.state, program, consts);
                w.terms
                    .extend(w.state.probabilities().map(|(label, q)| (label, p * q)));
            }
        });
        self.next.clear();
        for w in &self.workers[..used] {
            self.next.extend_from_slice(&w.terms);
        }
        fold_terms(&mut self.next);
        std::mem::swap(&mut self.dist, &mut self.next);
    }

    /// Runs one sampled attempt of a segment over the labels of `dist`
    /// at `shares` shots each, leaving its counts in `counts`: charges shots and
    /// latency per input batch, applies the fault plan (calibration
    /// drift, batch loss, readout bursts), and folds the workers' counts
    /// in input order so results are thread-count invariant.
    fn run_segment_shots(
        &mut self,
        problem: &Problem,
        program: &SegmentProgram,
        times: &[f64],
        cfg: &RasenganConfig,
        key: AttemptKey,
    ) -> SegmentRun {
        let n_vars = problem.n_vars();
        let noisy = cfg.noise.is_noisy();
        let plan = active_plan(cfg);
        let AttemptKey {
            seed,
            segment,
            attempt,
            ..
        } = key;
        let mut run = SegmentRun {
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
        self.batches.clear();
        let inputs = self.dist.iter().map(|&(label, _)| label);
        for (batch, (input, &share)) in inputs.zip(&self.shares).enumerate() {
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
                self.batches.push((input, share, run.next_stream));
            }
            run.next_stream += if noisy { share as u64 } else { 1 };
        }

        // Mixing constants shared by every trajectory of the attempt.
        mixing_constants_into(program, times, &mut self.consts);
        let consts = &self.consts;
        let used = if noisy {
            // One job per shot, and each worker runs a contiguous slab of
            // jobs through its state. A shot's label depends only on
            // (input, stream), so any thread count yields the same counts.
            self.jobs.clear();
            self.jobs
                .extend(self.batches.iter().flat_map(|&(input, share, first)| {
                    (first..first + share as u64).map(move |s| (input, s))
                }));
            let jobs = &self.jobs;
            par_slabs(jobs.len(), &mut self.workers, |slab, w| {
                w.counts.clear();
                for &(input, stream) in &jobs[slab] {
                    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
                    let label = run_compiled_trajectory(
                        &mut w.state,
                        input,
                        program,
                        consts,
                        &noise,
                        &mut rng,
                    );
                    let label = match burst {
                        Some(rate) => apply_readout_error(label, n_vars, rate, &mut rng),
                        None => label,
                    };
                    w.counts.push((label, 1));
                }
            })
        } else {
            // Each worker runs a contiguous slab of batches through its
            // state and its sampler, so a batch allocates nothing once the
            // buffers have grown.
            let batches = &self.batches;
            par_slabs(batches.len(), &mut self.workers, |slab, w| {
                w.counts.clear();
                for &(input, share, stream) in &batches[slab] {
                    // A label no operator moves takes every shot: the
                    // sampler would clamp each draw to its only entry.
                    // Without a burst to re-measure them, no draw is needed,
                    // and the batch's stream is its own, so skipping it
                    // moves no other batch's draws.
                    if burst.is_none() && !program.moves(input) {
                        w.counts.push((input, share));
                        continue;
                    }
                    w.state.reset(input);
                    evolve(&mut w.state, program, consts);
                    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
                    w.sampler.prepare(&w.state);
                    match burst {
                        Some(rate) => {
                            // Re-measure every sampled shot through the
                            // burst channel on the batch's own stream.
                            for (label, c) in w.sampler.count(share, &mut rng) {
                                for _ in 0..c {
                                    let label = apply_readout_error(label, n_vars, rate, &mut rng);
                                    w.counts.push((label, 1));
                                }
                            }
                        }
                        None => w.counts.extend(w.sampler.count(share, &mut rng)),
                    }
                }
            })
        };
        self.counts.clear();
        for w in &self.workers[..used] {
            self.counts.extend_from_slice(&w.counts);
        }
        fold_counts(&mut self.counts);
        run
    }
}

/// Sums exact terms `(label, x)` into one total per label, in place and
/// in ascending label order. The sort is stable, so each label's terms
/// are added left to right in the order they were pushed: a float total
/// has the same bits whenever the terms arrive in the same order.
fn fold_terms(terms: &mut Vec<(Label, f64)>) {
    terms.sort_by_key(|&(label, _)| label);
    sum_runs(terms);
}

/// Sums `(label, count)` pairs into one total per label, in place and in
/// ascending label order. An integer sum does not depend on the order of
/// its terms, so the sort need not be stable.
fn fold_counts(counts: &mut Vec<(Label, usize)>) {
    counts.sort_unstable_by_key(|&(label, _)| label);
    sum_runs(counts);
}

/// Sums each run of equal labels of `pairs`, sorted by label, into its
/// first entry. Starting from the first term equals a fold from zero for
/// the terms summed here (counts, and products of probabilities, never
/// `-0.0`).
fn sum_runs<T: Copy + AddAssign>(pairs: &mut Vec<(Label, T)>) {
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// Evaluates each operator's Eq. 6 mixing constants `(cos t, −i·sin t)`
/// into `consts` once per segment attempt, shared by every shot of the
/// attempt.
fn mixing_constants_into(
    prog: &SegmentProgram,
    times: &[f64],
    consts: &mut Vec<(Complex, Complex)>,
) {
    consts.clear();
    consts.extend(
        prog.ops
            .iter()
            .zip(times)
            .map(|(_, &t)| (Complex::from(t.cos()), Complex::new(0.0, -t.sin()))),
    );
}

/// Applies a segment's transition operators noise-free, with mixing
/// constants from [`mixing_constants_into`].
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
/// mixing constants and the reused [`SparseState`] from the caller,
/// so the whole shot runs on one flat buffer, summed and sampled in
/// ascending label order: once the worker's buffers have grown, it
/// allocates nothing. Each τ compiles to 34k CX gates, and every CX slot
/// is an error opportunity: a depolarizing event with probability p₂ on
/// a random support qubit, plus amplitude/phase damping on the slot's
/// two operands (damping accrues with *circuit duration*, which is why
/// deep unsegmented chains collapse — Fig. 14b).
/// [`SparseState::noise_slots`] runs each operator's slots in mass
/// space: no renormalizing division per channel, no square root per
/// slot, class masses formed only when a draw lands below its rate, and
/// one amplitude rescale per operator or jump. It draws every random
/// number at the same point and from the same distribution as the
/// gate-by-gate reference oracle in this module's tests.
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
    state.gate_noise(
        (0..n).filter(|&q| input >> q & 1 == 1),
        noise.p1,
        noise,
        rng,
    );

    for (ct, &(cos, misin)) in prog.ops.iter().zip(consts) {
        state.apply_transition_with(&ct.transition, cos, misin);
        state.noise_slots(&ct.support, ct.cx_cost, noise.p2, noise, rng);
    }

    let label = state.sample_one(rng);
    apply_readout_error(label, n, noise.readout, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::TransitionHamiltonian;
    use crate::segment::apportion_shots;
    use crate::solver::Rasengan;
    use rand::Rng;
    use rasengan_problems::registry::{benchmark, BenchmarkId};
    use rasengan_qsim::noise::apply_gate_noise_sparse;
    use rasengan_qsim::Device;

    // The executor's steps on a fresh workspace, in the shape the
    // oracles below return.

    /// [`mixing_constants_into`] a new vector.
    fn mixing_constants(prog: &SegmentProgram, times: &[f64]) -> Vec<(Complex, Complex)> {
        let mut consts = Vec::new();
        mixing_constants_into(prog, times, &mut consts);
        consts
    }

    /// [`Workspace::propagate_exact`] of `dist` on a fresh workspace of
    /// `threads` workers.
    fn propagate_exact(
        n_vars: usize,
        program: &SegmentProgram,
        times: &[f64],
        dist: &[(Label, f64)],
        threads: usize,
    ) -> Vec<(Label, f64)> {
        let mut ws = Workspace::new(n_vars, threads);
        ws.dist.extend_from_slice(dist);
        ws.propagate_exact(program, times);
        ws.dist
    }

    /// What [`Workspace::run_segment_shots`] returns, with the counts it
    /// leaves in the workspace.
    struct SegmentCounts {
        counts: Vec<(Label, usize)>,
        next_stream: u64,
        shots: usize,
    }

    /// [`Workspace::run_segment_shots`] over `inputs` at `shares` on a
    /// fresh workspace of `cfg`'s threads.
    fn run_segment_shots(
        problem: &Problem,
        program: &SegmentProgram,
        times: &[f64],
        cfg: &RasenganConfig,
        inputs: &[Label],
        shares: &[usize],
        key: AttemptKey,
    ) -> SegmentCounts {
        let mut ws = Workspace::new(problem.n_vars(), resolve_threads(cfg.threads));
        ws.dist.extend(inputs.iter().map(|&label| (label, 0.0)));
        ws.shares.extend_from_slice(shares);
        let run = ws.run_segment_shots(problem, program, times, cfg, key);
        SegmentCounts {
            counts: ws.counts,
            next_stream: run.next_stream,
            shots: run.shots,
        }
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

    /// Registry instances every reference test compiles.
    const REFERENCE_IDS: [&str; 5] = ["J1", "F1", "F2", "K1", "G1"];

    /// The registry instances `ids`, each compiled with fixed random
    /// evolution times over its whole chain.
    fn reference_cases(ids: &[&str]) -> Vec<(Problem, Prepared, Vec<f64>)> {
        ids.iter()
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

    /// [`for_each_segment_of`] the [`REFERENCE_IDS`].
    fn for_each_reference_segment(
        check: impl FnMut(
            &str,
            &Problem,
            &SegmentProgram,
            &[TransitionHamiltonian],
            &[f64],
            &BTreeMap<Label, f64>,
        ),
    ) {
        for_each_segment_of(&REFERENCE_IDS, check);
    }

    /// Walks every segment of the reference cases `ids`, handing `check`
    /// the segment's compiled program, operators, times, and the exact
    /// (oracle-propagated) input distribution it starts from.
    fn for_each_segment_of(
        ids: &[&str],
        mut check: impl FnMut(
            &str,
            &Problem,
            &SegmentProgram,
            &[TransitionHamiltonian],
            &[f64],
            &BTreeMap<Label, f64>,
        ),
    ) {
        for (problem, prepared, times) in reference_cases(ids) {
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
        // M3 and S4 carry 252 and 850 labels between segments, so many
        // input labels feed one output label and the order of its sum
        // shows in the bits.
        let mut ids = REFERENCE_IDS.to_vec();
        ids.extend(["M3", "S4"]);
        let mut widest = 0usize;
        for_each_segment_of(&ids, |label, problem, program, ops, times, dist| {
            widest = widest.max(dist.len());
            let n = problem.n_vars();
            let want: Vec<(Label, f64)> = reference_propagate(n, ops, times, dist)
                .into_iter()
                .collect();
            let dist: Vec<(Label, f64)> = dist.iter().map(|(&l, &p)| (l, p)).collect();
            for threads in [1, 4] {
                let got = propagate_exact(n, program, times, &dist, threads);
                assert_eq!(got, want, "{label}, {threads} threads");
            }
        });
        assert!(widest >= 100, "widest input mixture {widest} labels");
    }

    #[test]
    fn labels_no_operator_moves_evolve_to_themselves() {
        use rasengan_problems::enumerate::enumerate_feasible;
        use rasengan_qsim::sparse::label_from_bits;
        use std::f64::consts::PI;
        let amplitudes = |state: &SparseState| -> Vec<(Label, u64, u64)> {
            state
                .support()
                .into_iter()
                .map(|l| {
                    (
                        l,
                        state.amplitude(l).re.to_bits(),
                        state.amplitude(l).im.to_bits(),
                    )
                })
                .collect()
        };
        let one = |label| vec![(label, 1f64.to_bits(), 0f64.to_bits())];
        let mut unmoved = 0usize;
        let ids = rasengan_problems::registry::all_ids();
        for (i, id) in ids.into_iter().enumerate() {
            let problem = benchmark(id);
            let prepared = Rasengan::new(RasenganConfig::default())
                .prepare(&problem)
                .unwrap();
            let labels: Vec<Label> = enumerate_feasible(&problem)
                .iter()
                .map(|bits| label_from_bits(bits))
                .collect();
            let mut rng = StdRng::seed_from_u64(0x9A55 + i as u64);
            let mut state = SparseState::basis_state(problem.n_vars(), 0);
            for (seg, program) in prepared.programs.iter().enumerate() {
                let times: Vec<f64> = program.ops.iter().map(|_| rng.gen_range(-PI..PI)).collect();
                let consts = mixing_constants(program, &times);
                for &label in labels.iter().filter(|&&l| !program.moves(l)) {
                    unmoved += 1;
                    state.reset(label);
                    evolve(&mut state, program, &consts);
                    let name = problem.name();
                    assert_eq!(amplitudes(&state), one(label), "{name} segment {seg}");
                }
            }
        }
        assert!(unmoved > 0, "no feasible label passed a segment unmoved");

        // The first operator has no partner for 0b001, the second has
        // 0b010: a check of the first operator alone would pass the
        // label through, and lose the moved mass.
        let ops = [vec![0, 1, -1], vec![-1, 1, 0]].map(TransitionHamiltonian::new);
        let program = SegmentProgram::compile(&ops);
        assert_eq!(program.ops[0].transition.partner(0b001), None);
        assert!(program.moves(0b001));
        let times = [0.3, 0.7];
        let dist = BTreeMap::from([(0b001, 1.0)]);
        let want: Vec<(Label, f64)> = reference_propagate(3, &ops, &times, &dist)
            .into_iter()
            .collect();
        assert_eq!(want.len(), 2);
        let got = propagate_exact(3, &program, &times, &[(0b001, 1.0)], 1);
        assert_eq!(got, want);
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
        // The last pass sets every time to π/2, where each operator
        // moves a label wholly onto its partner, so a moved input keeps
        // a one-label support.
        let regimes = std::iter::once(("noise-free sampled", NoiseModel::noise_free(), false))
            .chain(noisy_regimes().map(|(regime, noise)| (regime, noise, false)))
            .chain([("noise-free at π/2", NoiseModel::noise_free(), true)]);
        // Noise-free batches an operator moves whose evolved support is
        // still one label: the oracle's draws must cover some of them.
        let mut one_label_batches = 0usize;
        for (regime, noise, quarter_turn) in regimes {
            for_each_reference_segment(|label, problem, program, ops, times, dist| {
                let quarter_turns = vec![std::f64::consts::FRAC_PI_2; times.len()];
                let times = if quarter_turn { &quarter_turns } else { times };
                let inputs: Vec<Label> = dist.keys().copied().collect();
                let probs: Vec<f64> = dist.values().copied().collect();
                let shares = apportion_shots(&probs, 160);
                let batches: Vec<(Label, usize)> =
                    inputs.iter().copied().zip(shares.iter().copied()).collect();
                if !noise.is_noisy() {
                    one_label_batches += batches
                        .iter()
                        .filter(|&&(input, share)| {
                            share > 0
                                && program.moves(input)
                                && reference_exact(problem.n_vars(), input, ops, times)
                                    .support_size()
                                    == 1
                        })
                        .count();
                }
                let key = AttemptKey {
                    seed: 0xBA7C,
                    first_stream: 17,
                    segment: 0,
                    attempt: 0,
                };
                let (want, want_next) =
                    reference_segment_counts(problem.n_vars(), ops, times, &noise, &batches, key);
                let want: Vec<(Label, usize)> = want.into_iter().collect();
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
        assert!(
            one_label_batches > 0,
            "no noise-free batch had a one-label support"
        );
    }

    /// Every registry instance and the Fig. 10 FLP shapes the
    /// benchmark samples, compiled under the default config.
    fn closed_cases() -> Vec<(Problem, Prepared)> {
        use rasengan_problems::flp::FacilityLocation;
        let registry = rasengan_problems::registry::all_ids()
            .into_iter()
            .map(benchmark);
        let flp = [(4, 4), (5, 4), (4, 6)]
            .into_iter()
            .map(|(f, d)| FacilityLocation::generate(f, d, 2025).into_problem());
        registry
            .chain(flp)
            .map(|problem| {
                let prepared = Rasengan::new(RasenganConfig::default())
                    .prepare(&problem)
                    .unwrap();
                (problem, prepared)
            })
            .collect()
    }

    /// One training-stage execution of `prepared` at `times` with
    /// [`proves_closure`]'s verdict forced to `closed`: the execution,
    /// and the shots and modeled quantum seconds it charged.
    fn execute_with_closed(
        problem: &Problem,
        prepared: &Prepared,
        cfg: &RasenganConfig,
        times: &[f64],
        stream_seed: u64,
        closed: bool,
    ) -> (Execution, usize, f64) {
        let mut objective = Objective::new(problem, prepared, cfg);
        objective.closed = closed;
        let exec = objective
            .execute(times, Stage::Train, stream_seed, None, None)
            .unwrap();
        (exec, objective.total_shots, objective.quantum_s)
    }

    #[test]
    fn closed_execution_matches_checked_execution() {
        // The byte-identity oracle of the noise-free fast path: skipping
        // the per-label check and the draws of one-label batches must
        // reproduce the checked execution exactly.
        for (i, (problem, prepared)) in closed_cases().into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xC105 + i as u64);
            let times: Vec<f64> = (0..prepared.stats.n_params)
                .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                .collect();
            for threads in [1, 4] {
                for purify in [true, false] {
                    let cfg = RasenganConfig {
                        purify,
                        ..RasenganConfig::default()
                            .with_shots(512)
                            .with_threads(threads)
                    };
                    assert!(proves_closure(&problem, &prepared, &cfg));
                    let run = |closed| {
                        let seed = derive_seed(7, i as u64);
                        execute_with_closed(&problem, &prepared, &cfg, &times, seed, closed)
                    };
                    let checked = run(false);
                    assert_eq!(checked.0.raw_in_constraints_rate, 1.0);
                    assert!(checked.1 > 0 && checked.2 > 0.0);
                    assert_eq!(
                        run(true),
                        checked,
                        "{}, {threads} threads, purify {purify}",
                        problem.name()
                    );
                }
            }
        }
    }

    #[test]
    fn closed_proof_holds_only_for_noise_free_sampling() {
        let sampled = RasenganConfig::default().with_shots(64);
        for (problem, prepared) in closed_cases() {
            let name = problem.name();
            assert!(proves_closure(&problem, &prepared, &sampled), "{name}");
            let exact = RasenganConfig::default();
            assert!(!proves_closure(&problem, &prepared, &exact), "{name}");
            let noisy = sampled.clone().with_noise(NoiseModel::depolarizing(1e-3));
            assert!(!proves_closure(&problem, &prepared, &noisy), "{name}");
            let faulted = sampled
                .clone()
                .with_fault_plan(FaultPlan::new(1).with_shot_loss(0.1));
            assert!(!proves_closure(&problem, &prepared, &faulted), "{name}");
        }
    }

    #[test]
    fn closed_proof_rejects_an_infeasible_seed() {
        let cfg = RasenganConfig::default().with_shots(64);
        for (problem, mut prepared) in closed_cases() {
            let infeasible = (0..problem.n_vars())
                .map(|bit| prepared.seed_label ^ 1 << bit)
                .find(|&l| !problem.is_feasible_label(l))
                .unwrap();
            prepared.seed_label = infeasible;
            assert!(
                !proves_closure(&problem, &prepared, &cfg),
                "{}",
                problem.name()
            );
        }
    }

    #[test]
    fn closed_proof_rejects_moves_of_another_problem() {
        use rasengan_math::IntMatrix;
        use rasengan_problems::{Objective, Sense};
        // Two one-hot pairs, and the same variables with `x3` unbound:
        // the seed 0b0101 is feasible for both, but the compiled move
        // (0, 0, 1, −1) has `Cu ≠ 0` for the second problem.
        let problem = |rows: &[Vec<i64>]| {
            Problem::new(
                "pairs",
                IntMatrix::from_rows(rows),
                vec![1, 1],
                Objective::linear(vec![1.0, 2.0, 3.0, 4.0]),
                Sense::Minimize,
            )
            .unwrap()
            .with_initial_feasible(vec![1, 0, 1, 0])
            .unwrap()
        };
        let own = problem(&[vec![1, 1, 0, 0], vec![0, 0, 1, 1]]);
        let other = problem(&[vec![1, 1, 0, 0], vec![0, 0, 1, 0]]);
        let cfg = RasenganConfig::default()
            .with_seed(3)
            .with_shots(256)
            .with_max_iterations(10);
        let prepared = Rasengan::new(cfg.clone()).prepare(&own).unwrap();
        assert!(proves_closure(&own, &prepared, &cfg));
        assert!(!proves_closure(&other, &prepared, &cfg));

        // The unproven solve keeps the per-label check: at π/4 half the
        // mass leaves `other`'s feasible set, and purification drops it.
        let times = vec![std::f64::consts::FRAC_PI_4; prepared.stats.n_params];
        let (exec, _, _) = execute_with_closed(&other, &prepared, &cfg, &times, 9, false);
        assert!(exec.raw_in_constraints_rate < 1.0);
        let outcome = Rasengan::new(cfg)
            .solve_prepared(&other, &prepared)
            .unwrap();
        assert_eq!(outcome.in_constraints_rate, 1.0);
        assert!(outcome
            .distribution
            .keys()
            .all(|&l| other.is_feasible_label(l)));
    }

    /// An execution's distribution and in-constraints rate as bits, so
    /// equal means bit-identical.
    fn exec_bits(exec: &Execution) -> (Vec<(Label, u64)>, u64) {
        let dist = exec.distribution.iter().map(|&(l, p)| (l, p.to_bits()));
        (dist.collect(), exec.raw_in_constraints_rate.to_bits())
    }

    #[test]
    fn workspace_reuse_is_history_free() {
        use std::f64::consts::FRAC_PI_4;
        // A reused buffer that an execution read before overwriting it
        // would carry one execution into the next: each run below on a
        // used objective must equal a fresh objective's bit for bit.
        for id in ["F1", "K1", "M3"] {
            let problem = benchmark(BenchmarkId::parse(id).unwrap());
            let prepared = Rasengan::new(RasenganConfig::default())
                .prepare(&problem)
                .unwrap();
            let n = prepared.stats.n_params;
            // `a` moves a label along the first and last operators only;
            // `b` moves along every one, so its hand-offs are wider.
            let a: Vec<f64> = (0..n)
                .map(|k| if k == 0 || k == n - 1 { 0.4 } else { 0.0 })
                .collect();
            let b = vec![FRAC_PI_4; n];
            for threads in [1, 2, 4] {
                let case = format!("{id}, {threads} threads");

                // Exact mode: `a`, `b`, then `a` again through `evaluate`,
                // which recycles the hand-off and value-table buffers.
                let cfg = RasenganConfig::default().with_threads(threads);
                let fresh = |params: &[f64]| {
                    let mut objective = Objective::new(&problem, &prepared, &cfg);
                    let value = objective.evaluate(params);
                    let exec = objective.last_good.take().unwrap();
                    (value.to_bits(), exec_bits(&exec))
                };
                let (want_a, want_b) = (fresh(&a), fresh(&b));
                assert!(
                    want_b.1 .0.len() > want_a.1 .0.len(),
                    "{case}: b is no wider"
                );
                let mut reused = Objective::new(&problem, &prepared, &cfg);
                for (params, want) in [(&a, &want_a), (&b, &want_b), (&a, &want_a)] {
                    let value = reused.evaluate(params).to_bits();
                    let exec = exec_bits(reused.last_good.as_ref().unwrap());
                    assert_eq!(&(value, exec), want, "{case}, exact");
                }

                // Sampled modes: an execution at a fixed stream seed after
                // unrelated evaluations equals a fresh objective's.
                let sampled = [
                    ("noise-free", RasenganConfig::default().with_shots(256)),
                    (
                        "kyiv",
                        RasenganConfig::default()
                            .with_shots(32)
                            .with_noise(Device::ibm_kyiv().noise),
                    ),
                ];
                for (mode, cfg) in sampled {
                    let cfg = cfg.with_threads(threads);
                    let seed = derive_seed(0x5EED, threads as u64);
                    let run = |objective: &mut Objective| {
                        objective
                            .execute(&a, Stage::Train, seed, None, None)
                            .map(|exec| exec_bits(&exec))
                    };
                    let want = run(&mut Objective::new(&problem, &prepared, &cfg));
                    let mut reused = Objective::new(&problem, &prepared, &cfg);
                    for params in [&b, &a, &b] {
                        reused.evaluate(params);
                    }
                    assert_eq!(run(&mut reused), want, "{case}, {mode}");
                }
            }
        }
    }

    #[test]
    fn exact_objective_is_a_sinusoid_in_each_time() {
        // In exact mode `τ(u, t) = exp(−i·t·H_u)` has eigenvalues ±1 on
        // partner pairs and 0 on labels without a partner, every
        // observable the objective reads is diagonal, and measurement
        // between segments is linear in the state. So along any one time
        // `t_k` the objective is `a + b·cos 2t_k + c·sin 2t_k`: the values
        // at `t_k ∈ {0, ±π/4}` fix the three terms, and five other points
        // must follow them.
        use rasengan_problems::flp::FacilityLocation;
        use std::f64::consts::{FRAC_PI_4, PI};
        let cfg = RasenganConfig::default();
        let flp = FacilityLocation::generate(4, 4, 2025).into_problem();
        let problems = rasengan_problems::registry::all_ids()
            .into_iter()
            .map(benchmark)
            .chain(std::iter::once(flp));
        let (mut worst, mut coordinates) = (0.0f64, 0usize);
        for (i, problem) in problems.enumerate() {
            let prepared = Rasengan::new(cfg.clone()).prepare(&problem).unwrap();
            let n = prepared.stats.n_params;
            let mut rng = StdRng::seed_from_u64(0x5195 + i as u64);
            let base: Vec<f64> = (0..n).map(|_| rng.gen_range(-PI..PI)).collect();
            let mut objective = Objective::new(&problem, &prepared, &cfg);
            // Up to six times, spread over the chain from its first
            // operator to its last.
            let mut ks: Vec<usize> = (0..6).map(|j| j * (n - 1) / 5).collect();
            ks.dedup();
            for k in ks {
                let mut params = base.clone();
                let mut at = |t: f64| {
                    params[k] = t;
                    objective.evaluate(&params)
                };
                let (f0, fp, fm) = (at(0.0), at(FRAC_PI_4), at(-FRAC_PI_4));
                let (a, c) = ((fp + fm) / 2.0, (fp - fm) / 2.0);
                let b = f0 - a;
                let scale = a.abs() + b.abs() + c.abs();
                for t in [0.3f64, -1.1, 1.7, 2.9, -2.4] {
                    let want = a + b * (2.0 * t).cos() + c * (2.0 * t).sin();
                    let residual = (at(t) - want).abs() / scale;
                    assert!(
                        residual <= 1e-12,
                        "{} t_{k} = {t}: relative residual {residual:e}",
                        problem.name()
                    );
                    worst = worst.max(residual);
                }
                coordinates += 1;
            }
        }
        assert!(coordinates >= 33, "only {coordinates} coordinates checked");
        eprintln!("worst relative residual {worst:e} over {coordinates} coordinates");
    }
}

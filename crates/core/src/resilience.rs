//! Resilient segment execution: retry ladders, graceful degradation,
//! and execution budgets.
//!
//! Rasengan's segmented chain is brittle by construction: when noise
//! wipes out every feasible sample in one segment, the next segment has
//! no state to start from and the whole multi-segment run used to abort
//! (the paper's Fig. 10d / Fig. 14b failure mode). This module holds
//! the knobs and the audit trail for the recovery ladder the solver
//! climbs instead:
//!
//! 1. **Retry with escalation** — re-execute the failed segment up to
//!    [`ResilienceConfig::retry_budget`] times, doubling the shot budget
//!    per attempt, each attempt on a fresh RNG substream.
//! 2. **Graceful degradation** — if retries are exhausted and
//!    [`ResilienceConfig::degrade`] is set, fall back to the previous
//!    segment's (feasible) output distribution and continue the chain,
//!    recording the event instead of aborting.
//! 3. **Budgets** — optional per-stage wall-clock and total-shot
//!    ceilings. A tripped ceiling ends the execution it trips in, and a
//!    stopped training stage runs no further execution. The solve's
//!    answer is then the latest completed execution (the feasible seed
//!    when none completed). With degradation armed it is the `Ok`
//!    outcome; otherwise the solve fails with
//!    [`RasenganError::BudgetExceeded`](crate::RasenganError), which
//!    carries it as the partial outcome when an execution completed.
//!
//! Every recovery action lands in the [`ResilienceReport`] attached to
//! the [`Outcome`](crate::Outcome), so a run that survived faults is
//! distinguishable from one that never saw any.
//!
//! All defaults are off (zero retries, no degradation, no budgets, no
//! fault plan). A ladder that is armed but never fires changes no result
//! byte: attempt 0 of every segment draws from the execution's own stream
//! counter, and retries draw from a tagged sub-seed that cannot collide
//! with it.

use rasengan_qsim::fault::{FaultKind, FaultPlan};

/// Knobs of the recovery ladder. Carried by
/// [`RasenganConfig::resilience`](crate::RasenganConfig). The default
/// arms nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Extra execution attempts per segment after the first fails to
    /// produce a feasible outcome (default 0: fail like the paper).
    pub retry_budget: usize,
    /// When retries are exhausted, keep the previous segment's feasible
    /// distribution (or the feasible seed, for segment 0) and continue
    /// the chain instead of aborting (default false). After a budget
    /// stop, return the solve's answer (the latest completed
    /// execution, or the feasible seed) as the `Ok` outcome instead of
    /// [`RasenganError::BudgetExceeded`](crate::RasenganError).
    pub degrade: bool,
    /// Wall-clock ceiling in seconds applied independently to the
    /// training stage and the final execution stage. `None` = no limit.
    ///
    /// Wall-clock budgets trade bit-reproducibility for bounded
    /// runtime: whether the ceiling trips depends on machine speed.
    /// Leave unset (the default) for deterministic runs.
    pub max_stage_seconds: Option<f64>,
    /// Ceiling on total shots consumed across the whole solve
    /// (training plus final execution). `None` = no limit. Shot budgets
    /// are deterministic: the same seed trips at the same point.
    pub max_total_shots: Option<usize>,
    /// Deterministic fault schedule to inject (testing / chaos drills).
    /// `None` = no faults.
    pub fault_plan: Option<FaultPlan>,
}

impl ResilienceConfig {
    /// The production posture: 2 retries with 2× shot escalation, then
    /// graceful degradation. No budgets, no faults.
    pub fn recommended() -> Self {
        ResilienceConfig {
            retry_budget: 2,
            degrade: true,
            ..ResilienceConfig::default()
        }
    }

    /// Sets the retry budget (builder style).
    #[must_use]
    pub fn with_retry_budget(mut self, retries: usize) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Enables graceful degradation (builder style).
    #[must_use]
    pub fn with_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Sets the per-stage wall-clock budget in seconds (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `seconds > 0` and finite.
    #[must_use]
    pub fn with_stage_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "stage budget must be positive seconds"
        );
        self.max_stage_seconds = Some(seconds);
        self
    }

    /// Sets the total-shot budget (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    #[must_use]
    pub fn with_total_shots(mut self, shots: usize) -> Self {
        assert!(shots > 0, "shot budget must be positive");
        self.max_total_shots = Some(shots);
        self
    }

    /// Arms a deterministic fault plan (builder style).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Shot-budget multiplier per retry attempt.
const SHOT_ESCALATION: f64 = 2.0;

/// The shot budget of retry `attempt` (0-based) of a segment whose base
/// budget is `base`: `base × 2^attempt`. Attempt 0 is always exactly
/// `base`.
pub(crate) fn escalated_shots(base: usize, attempt: usize) -> usize {
    if attempt == 0 {
        return base;
    }
    let scaled = base as f64 * SHOT_ESCALATION.powi(attempt as i32);
    // Saturate rather than overflow: a request may ask for 64 retries.
    if scaled >= usize::MAX as f64 / 2.0 {
        usize::MAX / 2
    } else {
        scaled.round() as usize
    }
}

/// A pipeline stage, for budget accounting and error reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The variational training loop.
    Train,
    /// The final execution at the trained parameters.
    Execute,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::Train => "train",
            Stage::Execute => "execute",
        })
    }
}

/// Which budget tripped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetKind {
    /// The per-stage wall-clock ceiling.
    WallClock {
        /// The configured limit in seconds.
        limit_s: f64,
    },
    /// The total-shot ceiling.
    Shots {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::WallClock { limit_s } => write!(f, "wall-clock budget ({limit_s} s)"),
            BudgetKind::Shots { limit } => write!(f, "shot budget ({limit} shots)"),
        }
    }
}

/// What the chain fell back to when a segment degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeFallback {
    /// The previous segment's feasible output distribution.
    PreviousSegment,
    /// The feasible seed state (segment 0 failed, or nothing upstream).
    Seed,
}

/// One recovery / injection event, in occurrence order.
#[derive(Clone, Debug, PartialEq)]
pub enum ResilienceEvent {
    /// A fault from the armed [`FaultPlan`] fired.
    FaultInjected {
        /// Segment index the fault struck.
        segment: usize,
        /// Execution attempt (0 = first try).
        attempt: usize,
        /// Which fault kind fired.
        kind: FaultKind,
    },
    /// A segment was re-executed after yielding no feasible outcome.
    Retry {
        /// Segment index.
        segment: usize,
        /// The retry attempt number (1 = first retry).
        attempt: usize,
        /// Escalated shot budget of this attempt.
        shots: usize,
        /// Whether this attempt produced a feasible outcome.
        recovered: bool,
    },
    /// Retries exhausted; the chain continued from a fallback state.
    Degraded {
        /// Segment index that was abandoned.
        segment: usize,
        /// Total attempts executed (including the first).
        attempts: usize,
        /// What the chain continued from.
        fallback: DegradeFallback,
    },
    /// A budget ceiling tripped; spending stopped.
    BudgetExhausted {
        /// Stage in which the ceiling tripped.
        stage: Stage,
        /// Which budget.
        kind: BudgetKind,
    },
    /// Non-finite / absurd optimizer parameters were sanitized before
    /// execution instead of crashing the executor.
    ParamsSanitized {
        /// How many parameters were repaired.
        repaired: usize,
    },
}

/// The audit trail of one solve's recovery ladder, attached to
/// [`Outcome::resilience`](crate::Outcome).
///
/// Empty (`is_clean`) for runs that never needed recovery; such a run's
/// result bytes do not depend on whether the ladder was armed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Every event, in occurrence order (training evaluations first,
    /// then the final execution).
    pub events: Vec<ResilienceEvent>,
}

impl ResilienceReport {
    /// Whether no recovery machinery ever fired.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of retry attempts executed.
    pub fn retries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::Retry { .. }))
            .count()
    }

    /// Number of retry attempts that recovered a feasible outcome.
    pub fn recoveries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ResilienceEvent::Retry {
                        recovered: true,
                        ..
                    }
                )
            })
            .count()
    }

    /// Number of segments abandoned to degradation.
    pub fn degradations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::Degraded { .. }))
            .count()
    }

    /// Number of budget ceilings tripped.
    pub fn budget_exhaustions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::BudgetExhausted { .. }))
            .count()
    }

    /// Number of injected faults that fired.
    pub fn faults_injected(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::FaultInjected { .. }))
            .count()
    }

    /// One-line human summary, e.g. for CLI / bench output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "clean (no recovery events)".to_string();
        }
        format!(
            "{} faults injected, {} retries ({} recovered), {} degradations, {} budget stops",
            self.faults_injected(),
            self.retries(),
            self.recoveries(),
            self.degradations(),
            self.budget_exhaustions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fully_disarmed() {
        let cfg = ResilienceConfig::default();
        assert_eq!(cfg.retry_budget, 0);
        assert!(!cfg.degrade);
        assert!(cfg.fault_plan.is_none());
        assert!(cfg.max_stage_seconds.is_none());
        assert!(cfg.max_total_shots.is_none());
    }

    #[test]
    fn recommended_posture_retries_then_degrades() {
        let cfg = ResilienceConfig::recommended();
        assert_eq!(cfg.retry_budget, 2);
        assert!(cfg.degrade);
        assert!(cfg.fault_plan.is_none());
    }

    #[test]
    fn inert_fault_plan_does_not_arm() {
        assert!(
            !FaultPlan::new(1).is_active(),
            "a no-fault plan must not arm resilience"
        );
        assert!(FaultPlan::new(1).kill_segment(0, 1).is_active());
    }

    #[test]
    fn escalation_ladder_doubles_and_saturates() {
        assert_eq!(escalated_shots(256, 0), 256);
        assert_eq!(escalated_shots(256, 1), 512);
        assert_eq!(escalated_shots(256, 2), 1024);
        // Saturation instead of overflow, also at the 64 retries a
        // request may ask for.
        assert_eq!(escalated_shots(usize::MAX / 4, 5), usize::MAX / 2);
        assert_eq!(escalated_shots(1, 64), usize::MAX / 2);
    }

    #[test]
    fn report_counts_by_kind() {
        let report = ResilienceReport {
            events: vec![
                ResilienceEvent::FaultInjected {
                    segment: 1,
                    attempt: 0,
                    kind: FaultKind::FeasibilityKill,
                },
                ResilienceEvent::Retry {
                    segment: 1,
                    attempt: 1,
                    shots: 512,
                    recovered: false,
                },
                ResilienceEvent::Retry {
                    segment: 1,
                    attempt: 2,
                    shots: 1024,
                    recovered: true,
                },
                ResilienceEvent::Degraded {
                    segment: 2,
                    attempts: 3,
                    fallback: DegradeFallback::PreviousSegment,
                },
                ResilienceEvent::BudgetExhausted {
                    stage: Stage::Train,
                    kind: BudgetKind::Shots { limit: 4096 },
                },
            ],
        };
        assert!(!report.is_clean());
        assert_eq!(report.faults_injected(), 1);
        assert_eq!(report.retries(), 2);
        assert_eq!(report.recoveries(), 1);
        assert_eq!(report.degradations(), 1);
        assert_eq!(report.budget_exhaustions(), 1);
        let s = report.summary();
        assert!(s.contains("2 retries"), "{s}");
        assert!(ResilienceReport::default().summary().contains("clean"));
    }

    #[test]
    fn stage_and_budget_display() {
        assert_eq!(Stage::Train.to_string(), "train");
        assert!(BudgetKind::Shots { limit: 10 }.to_string().contains("10"));
        assert!(BudgetKind::WallClock { limit_s: 1.5 }
            .to_string()
            .contains("1.5"));
    }
}

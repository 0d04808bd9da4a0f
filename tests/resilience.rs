//! Resilient-execution tests: fault injection, retry with escalated
//! shots, graceful chain degradation, and execution budgets.
//!
//! The fault plan is seed-derived and deterministic, so every scenario
//! here is reproducible — including across thread counts (covered in
//! `tests/determinism.rs`). The CI stress job re-runs this file over a
//! seed × thread matrix via `RASENGAN_FAULT_SEED` / `RASENGAN_THREADS`.

use rasengan::core::{
    BudgetKind, DegradeFallback, Rasengan, RasenganConfig, RasenganError, ResilienceConfig,
    ResilienceEvent, Stage,
};
use rasengan::problems::registry::{benchmark, BenchmarkId};
use rasengan::qsim::{FaultPlan, NoiseModel};

fn f1() -> rasengan::problems::Problem {
    benchmark(BenchmarkId::parse("F1").unwrap())
}

/// Seed for the fault plan; the CI stress matrix overrides it.
fn fault_seed() -> u64 {
    std::env::var("RASENGAN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA17)
}

fn noisy_cfg(seed: u64) -> RasenganConfig {
    RasenganConfig::default()
        .with_seed(seed)
        .with_noise(NoiseModel::depolarizing(1e-3))
        .with_shots(128)
        .with_max_iterations(6)
}

#[test]
fn transient_kill_recovers_with_retry() {
    // Kill segment 1's first attempt only: the retry must recover and
    // the report must show both the fault and the successful retry.
    let plan = FaultPlan::new(fault_seed()).kill_segment(1, 1);
    let outcome = Rasengan::new(
        noisy_cfg(11).with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(2)
                .with_fault_plan(plan),
        ),
    )
    .solve(&f1())
    .expect("a transient kill must be absorbed by the retry budget");

    assert_eq!(outcome.in_constraints_rate, 1.0);
    assert!(outcome.best.feasible);
    let report = &outcome.resilience;
    assert!(report.retries() > 0, "no retry recorded: {report:?}");
    assert!(report.recoveries() > 0, "no recovery recorded: {report:?}");
    assert_eq!(report.degradations(), 0);
    assert!(report.events.iter().any(|e| matches!(
        e,
        ResilienceEvent::Retry {
            segment: 1,
            recovered: true,
            ..
        }
    )));
    // Escalation doubles the segment budget on the first retry.
    assert!(report.events.iter().any(|e| matches!(
        e,
        ResilienceEvent::Retry {
            segment: 1,
            attempt: 1,
            shots: 256,
            ..
        }
    )));
}

#[test]
fn retry_time_is_a_subset_not_an_extra_stage() {
    // Stage accounting under retries: `retry_s` is wall-clock spent
    // *inside* retried attempts, i.e. a subset of `train_s`/`execute_s`.
    // A correct breakdown therefore satisfies both
    //   retry_s <= train_s + execute_s   (no double-billing), and
    //   stage_sum() ~= classical_s       (the disjoint stages cover the
    //                                     measured classical wall-clock).
    let plan = FaultPlan::new(fault_seed()).kill_segment(1, 1);
    let outcome = Rasengan::new(
        noisy_cfg(21).with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(2)
                .with_fault_plan(plan),
        ),
    )
    .solve(&f1())
    .expect("a transient kill must be absorbed by the retry budget");

    let lat = &outcome.latency;
    let st = &lat.stages;
    assert!(
        st.retry_s > 0.0,
        "the killed attempt must bill retry time: {st:?}"
    );
    // Timer granularity and the instants captured just outside the
    // attempt loop mean the bounds need slack, but only a little.
    let eps = 0.05 + 0.25 * lat.classical_s;
    assert!(
        st.retry_s <= st.train_s + st.execute_s + eps,
        "retry_s exceeds the stages that contain it: {st:?}"
    );
    assert!(
        st.stage_sum() <= lat.classical_s + eps,
        "stage sum overshoots classical wall-clock: {st:?} vs {}",
        lat.classical_s
    );
    assert!(
        lat.classical_s - st.stage_sum() <= eps,
        "stage sum leaves classical wall-clock unaccounted: {st:?} vs {}",
        lat.classical_s
    );
}

#[test]
fn permanent_kill_exhausts_retries_and_degrades() {
    // Segment 1 dies on every attempt. With degradation armed the chain
    // must skip it — falling back to the previous segment's feasible
    // output — and still return a feasible answer.
    let plan = FaultPlan::new(fault_seed()).kill_segment(1, usize::MAX);
    let outcome = Rasengan::new(
        noisy_cfg(12).with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(1)
                .with_degradation()
                .with_fault_plan(plan),
        ),
    )
    .solve(&f1())
    .expect("degradation must carry the chain past a dead segment");

    assert_eq!(outcome.in_constraints_rate, 1.0);
    assert!(outcome.best.feasible);
    let report = &outcome.resilience;
    assert!(report.degradations() > 0, "no degradation: {report:?}");
    assert!(report.events.iter().any(|e| matches!(
        e,
        ResilienceEvent::Degraded {
            segment: 1,
            attempts: 2,
            fallback: DegradeFallback::PreviousSegment,
        }
    )));
}

#[test]
fn permanent_kill_without_degradation_aborts() {
    let plan = FaultPlan::new(fault_seed()).kill_segment(1, usize::MAX);
    let err = Rasengan::new(
        noisy_cfg(13).with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(1)
                .with_fault_plan(plan),
        ),
    )
    .solve(&f1())
    .unwrap_err();
    assert!(matches!(
        err,
        RasenganError::NoFeasibleOutput { segment: 1 }
    ));
}

#[test]
fn killed_seed_segment_degrades_to_seed() {
    let plan = FaultPlan::new(fault_seed()).kill_segment(0, usize::MAX);
    let outcome = Rasengan::new(
        noisy_cfg(14).with_resilience(
            ResilienceConfig::default()
                .with_degradation()
                .with_fault_plan(plan),
        ),
    )
    .solve(&f1())
    .unwrap();
    assert!(outcome.best.feasible);
    assert!(outcome.resilience.events.iter().any(|e| matches!(
        e,
        ResilienceEvent::Degraded {
            segment: 0,
            fallback: DegradeFallback::Seed,
            ..
        }
    )));
}

#[test]
fn ambient_faults_are_absorbed_and_reported() {
    // Ambient fault pressure on every channel at once: batch loss,
    // readout bursts, calibration drift. The recovery ladder must keep
    // the run alive and the report must show injected faults.
    let plan = FaultPlan::new(fault_seed())
        .with_shot_loss(0.3)
        .with_readout_burst(0.5, 0.2)
        .with_calibration_drift(0.5);
    let outcome = Rasengan::new(
        noisy_cfg(15).with_resilience(ResilienceConfig::recommended().with_fault_plan(plan)),
    )
    .solve(&f1())
    .expect("ambient faults with retries + degradation must not abort");
    assert_eq!(outcome.in_constraints_rate, 1.0);
    assert!(outcome.best.feasible);
    assert!(
        outcome.resilience.faults_injected() > 0,
        "plan injected nothing: {:?}",
        outcome.resilience
    );
}

#[test]
fn corrupted_params_are_sanitized() {
    // Corrupt optimizer parameters on every evaluation; the executor
    // must repair them (recorded as ParamsSanitized) instead of
    // crashing or poisoning the run.
    let plan = FaultPlan::new(fault_seed()).with_param_corruption(1.0);
    let outcome = Rasengan::new(
        RasenganConfig::default()
            .with_seed(16)
            .with_shots(128)
            .with_max_iterations(6)
            .with_resilience(ResilienceConfig::default().with_fault_plan(plan)),
    )
    .solve(&f1())
    .expect("corrupted parameters must be sanitized, not fatal");
    assert!(outcome.best.feasible);
    let report = &outcome.resilience;
    assert!(report
        .events
        .iter()
        .any(|e| matches!(e, ResilienceEvent::ParamsSanitized { repaired } if *repaired > 0)));
    assert!(report.faults_injected() > 0);
}

#[test]
fn shot_budget_aborts_without_degradation() {
    // A shot ceiling below one chain execution trips mid-chain; without
    // degradation that is a hard BudgetExceeded error.
    let err = Rasengan::new(
        noisy_cfg(17).with_resilience(ResilienceConfig::default().with_total_shots(100)),
    )
    .solve(&f1())
    .unwrap_err();
    match err {
        RasenganError::BudgetExceeded {
            stage,
            kind: BudgetKind::Shots { limit: 100 },
            partial,
        } => {
            assert_eq!(stage, Stage::Execute);
            // No training evaluation ever completed, so there is no
            // partial outcome to hand back.
            assert!(partial.is_none());
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

#[test]
fn shot_budget_with_degradation_truncates_the_chain() {
    // The ceiling stops the first training execution and the final one
    // before either completes; degradation turns the stop into an
    // outcome, the feasible seed.
    let outcome = Rasengan::new(
        noisy_cfg(18).with_resilience(
            ResilienceConfig::default()
                .with_total_shots(100)
                .with_degradation(),
        ),
    )
    .solve(&f1())
    .expect("degradation must turn a tripped budget into a feasible outcome");
    assert!(outcome.best.feasible);
    assert!(outcome.resilience.budget_exhaustions() > 0);
    assert!(outcome.total_shots <= 100 + 128 * 4, "runaway shot spend");
}

#[test]
fn tripped_final_execution_returns_partial_outcome() {
    // Budget sized so training evaluations complete but the ceiling
    // trips during the final execution: the error must carry the best
    // partial outcome (from the last good training evaluation).
    let base = noisy_cfg(19);
    let probe = Rasengan::new(base.clone()).solve(&f1()).unwrap();
    let one_eval = probe.total_shots / (probe.evaluations + 1);
    let limit = probe.total_shots - one_eval / 2;
    let err =
        Rasengan::new(base.with_resilience(ResilienceConfig::default().with_total_shots(limit)))
            .solve(&f1())
            .unwrap_err();
    match err {
        RasenganError::BudgetExceeded { partial, .. } => {
            let partial = partial.expect("training succeeded, partial must exist");
            assert!(partial.best.feasible);
            assert!(!partial.resilience.is_clean());
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

/// A noise-free sampled solve whose 2000-shot ceiling trips in
/// training, after some evaluations have completed.
fn budget_cut_cfg(degrade: bool) -> RasenganConfig {
    let resilience = ResilienceConfig::default().with_total_shots(2000);
    RasenganConfig::default()
        .with_seed(7)
        .with_shots(128)
        .with_max_iterations(10)
        .with_resilience(if degrade {
            resilience.with_degradation()
        } else {
            resilience
        })
}

/// The partial outcome of a budget-cut solve without degradation.
fn budget_cut_partial(id: &str) -> rasengan::core::Outcome {
    let p = benchmark(BenchmarkId::parse(id).unwrap());
    match Rasengan::new(budget_cut_cfg(false)).solve(&p) {
        Err(RasenganError::BudgetExceeded {
            stage: Stage::Execute,
            partial: Some(partial),
            ..
        }) => *partial,
        other => panic!("{id}: expected an execute-stage BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn tripped_budget_is_recorded_once_per_stage() {
    // The training execution that trips the ceiling ends training; the
    // final execution trips it again. Nothing else records a stop.
    for id in ["F1", "S1"] {
        let partial = budget_cut_partial(id);
        let stops: Vec<Stage> = partial
            .resilience
            .events
            .iter()
            .filter_map(|e| match e {
                ResilienceEvent::BudgetExhausted { stage, .. } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(stops, [Stage::Train, Stage::Execute], "{id}");
        assert_eq!(partial.resilience.budget_exhaustions(), 2, "{id}");
    }
}

#[test]
fn degraded_budget_stop_returns_the_undegraded_partial() {
    // Degradation decides only whether a budget-cut solve is `Ok`; the
    // answer is the latest completed execution either way.
    for id in ["F1", "S1"] {
        let partial = budget_cut_partial(id);
        let p = benchmark(BenchmarkId::parse(id).unwrap());
        let outcome = Rasengan::new(budget_cut_cfg(true))
            .solve(&p)
            .expect("degradation turns a budget stop into an outcome");
        assert_eq!(outcome.distribution, partial.distribution, "{id}");
        assert_eq!(outcome.arg, partial.arg, "{id}");
        assert_eq!(outcome.trained_times, partial.trained_times, "{id}");
        assert_eq!(outcome.resilience.budget_exhaustions(), 2, "{id}");
    }
}

#[test]
fn budget_cut_execution_charges_the_shots_it_ran() {
    // A 100-shot ceiling lets the first training execution run one
    // 128-shot segment before it trips. Those shots are charged, so the
    // charged total already stands at the ceiling when the final
    // execution starts, and it stops before its first segment.
    for id in ["F1", "S1"] {
        let p = benchmark(BenchmarkId::parse(id).unwrap());
        let cfg = RasenganConfig::default()
            .with_seed(7)
            .with_shots(128)
            .with_max_iterations(10)
            .with_resilience(
                ResilienceConfig::default()
                    .with_total_shots(100)
                    .with_degradation(),
            )
            .with_trace(true);
        let outcome = Rasengan::new(cfg)
            .solve(&p)
            .expect("degradation turns a budget stop into an outcome");
        assert_eq!(outcome.total_shots, 128, "{id}");
        assert!(outcome.latency.quantum_s > 0.0, "{id}");
        let tree = outcome.trace.expect("traced solve carries a tree");
        let execute = tree
            .root
            .children
            .iter()
            .find(|c| c.label == "execute")
            .expect("execute stage span");
        assert!(
            execute.children.iter().all(|c| c.label != "segment"),
            "{id}: the final execution ran a segment"
        );
    }
}

#[test]
fn heavy_noise_abort_becomes_completion_with_resilience() {
    // Acceptance scenario: the exact configuration that
    // `heavy_noise_failure_mode_is_reported` (end_to_end.rs) shows
    // aborting with NoFeasibleOutput must complete once retries and
    // degradation are armed — with the whole story in the report.
    let p = benchmark(BenchmarkId::parse("K2").unwrap());
    let mut plain_failures = 0;
    let mut rescued = 0;
    for seed in 0..5u64 {
        let cfg = RasenganConfig::default()
            .with_seed(seed)
            .with_noise(NoiseModel::depolarizing(0.2).with_amplitude_damping(0.3))
            .with_shots(32)
            .with_max_iterations(3);
        let plain_failed = matches!(
            Rasengan::new(cfg.clone()).solve(&p),
            Err(RasenganError::NoFeasibleOutput { .. })
        );
        if !plain_failed {
            continue;
        }
        plain_failures += 1;
        let outcome = Rasengan::new(cfg.with_resilience(ResilienceConfig::recommended()))
            .solve(&p)
            .expect("recommended resilience must complete where plain solve aborts");
        assert!(outcome.best.feasible);
        assert_eq!(outcome.in_constraints_rate, 1.0);
        assert!(
            !outcome.resilience.is_clean(),
            "a rescued run must have a non-empty report"
        );
        rescued += 1;
    }
    assert!(plain_failures > 0, "failure mode never triggered");
    assert_eq!(rescued, plain_failures);
}

#[test]
fn multistart_aggregates_failures() {
    // Every start dies under a permanent kill (no degradation): the
    // aggregated error must carry each start's failure.
    let plan = FaultPlan::new(fault_seed()).kill_segment(0, usize::MAX);
    let err = Rasengan::new(
        noisy_cfg(20).with_resilience(ResilienceConfig::default().with_fault_plan(plan)),
    )
    .solve_multistart(&f1(), 3)
    .unwrap_err();
    match err {
        RasenganError::AllStartsFailed { n_starts, failures } => {
            assert_eq!(n_starts, 3);
            assert_eq!(failures.len(), 3);
            assert!(failures
                .iter()
                .all(|(_, e)| matches!(e, RasenganError::NoFeasibleOutput { .. })));
            // `source()` chains to the first underlying failure.
            use std::error::Error;
            let err = RasenganError::AllStartsFailed { n_starts, failures };
            assert!(err.source().is_some());
        }
        other => panic!("expected AllStartsFailed, got {other}"),
    }
}

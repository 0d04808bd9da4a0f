//! **Figure 14** — noise-sensitivity analysis of Rasengan.
//!
//! (a) ARG distribution under Pauli (depolarizing) noise swept over
//!     error rates 10⁻⁴…10⁻²: at 10⁻⁴ more than 99% of ARGs stay below
//!     0.025; the mean stays < 0.15 at 10⁻³.
//! (b) ARG under growing amplitude damping with a fixed background
//!     (1Q 0.035%, 2Q 0.875%): mild degradation to ~1.5%, then
//!     segment-failure collapse near 2%.

use crate::{experiments::Report, report::fmt, RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig, ResilienceConfig};
use rasengan_problems::registry::{all_ids, benchmark, cases};
use rasengan_qsim::NoiseModel;

pub fn run(settings: &RunSettings) -> Report {
    let iterations = if settings.full { 60 } else { 15 };
    let case_count = if settings.full { 5 } else { 1 };

    // Sample problems across the five domains (first scale of each).
    let mut problems = Vec::new();
    for id in all_ids().into_iter().filter(|id| id.scale <= 2) {
        problems.push(benchmark(id));
        for p in cases(id, case_count - 1, settings.seed) {
            problems.push(p);
        }
    }

    // (a) Pauli error-rate sweep.
    let mut pauli = Table::new(
        "Figure 14a: ARG distribution vs Pauli error rate",
        vec!["error_rate", "mean_ARG", "p99_below_0.025", "fail_rate"],
    );
    for &rate in &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2] {
        let mut args = Vec::new();
        let mut fails = 0usize;
        for (i, p) in problems.iter().enumerate() {
            let cfg = RasenganConfig::default()
                .with_seed(settings.seed + i as u64)
                .with_noise(NoiseModel::depolarizing(rate))
                .with_shots(512)
                .with_max_iterations(iterations);
            match Rasengan::new(cfg).solve(p) {
                Ok(out) => args.push(out.arg),
                Err(_) => fails += 1,
            }
        }
        let mean = args.iter().sum::<f64>() / args.len().max(1) as f64;
        let below = args.iter().filter(|a| **a < 0.025).count() as f64 / args.len().max(1) as f64;
        pauli.row(vec![
            format!("{rate:.0e}"),
            fmt(mean),
            fmt(below),
            fmt(fails as f64 / problems.len() as f64),
        ]);
    }
    let report = Report::default().table_with_json("fig14a_pauli", pauli);

    // (b) amplitude-damping sweep over fixed background noise. Each
    // configuration runs twice: the plain solver (a dead segment aborts
    // the run, the paper's Fig. 14b collapse) and the resilient solver
    // (retry with escalated shots, then degrade past the segment), so
    // the table shows how much of the collapse the recovery ladder
    // absorbs.
    let background = NoiseModel::ibm_like(3.5e-4, 8.75e-3, 0.0).with_phase_damping(1e-4);
    let mut damping = Table::new(
        "Figure 14b: ARG vs amplitude damping (fixed background noise)",
        vec![
            "damping",
            "mean_ARG",
            "fail_rate",
            "resil_ARG",
            "resil_fail",
            "retries",
            "degraded",
        ],
    );
    for &gamma in &[0.0, 0.005, 0.010, 0.015, 0.020] {
        let mut args = Vec::new();
        let mut fails = 0usize;
        let mut resil_args = Vec::new();
        let mut resil_fails = 0usize;
        let mut retries = 0usize;
        let mut degraded = 0usize;
        for (i, p) in problems.iter().enumerate() {
            let cfg = RasenganConfig::default()
                .with_seed(settings.seed + 31 * i as u64)
                .with_noise(background.with_amplitude_damping(gamma))
                .with_shots(512)
                .with_max_iterations(iterations);
            match Rasengan::new(cfg.clone()).solve(p) {
                Ok(out) => args.push(out.arg),
                Err(_) => fails += 1,
            }
            match Rasengan::new(cfg.with_resilience(ResilienceConfig::recommended())).solve(p) {
                Ok(out) => {
                    retries += out.resilience.retries();
                    degraded += out.resilience.degradations();
                    resil_args.push(out.arg);
                }
                Err(_) => resil_fails += 1,
            }
        }
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                f64::INFINITY
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        damping.row(vec![
            format!("{:.1}%", gamma * 100.0),
            fmt(mean(&args)),
            fmt(fails as f64 / problems.len() as f64),
            fmt(mean(&resil_args)),
            fmt(resil_fails as f64 / problems.len() as f64),
            retries.to_string(),
            degraded.to_string(),
        ]);
    }
    report.table_with_json("fig14b_damping", damping)
}

//! **Figure 9** — ARG as a function of QAOA layer count on F1.
//!
//! P-QAOA and Choco-Q sweep 1–14 layers; Rasengan has no layer knob and
//! appears as a constant reference line. Expected shape (paper):
//! Choco-Q approaches Rasengan's ARG around 14 layers but at ~1419
//! depth, while Rasengan stays at 3 shallow segments; P-QAOA barely
//! improves with depth.

use crate::{
    experiments::Report, report::fmt, run_algorithm, runners::RunEnv, Algorithm, RunSettings, Table,
};
use rasengan_problems::registry::{benchmark, BenchmarkId};

pub fn run(settings: &RunSettings) -> Report {
    let problem = benchmark(BenchmarkId::parse("F2").unwrap());

    let ras_env = RunEnv {
        seed: settings.seed,
        iterations: settings.rasengan_iterations(),
        ..Default::default()
    };
    let ras = run_algorithm(Algorithm::Rasengan, &problem, &ras_env);

    let max_layers = if settings.full { 14 } else { 8 };
    let mut table = Table::new(
        "Figure 9: ARG vs QAOA layers (FLP, second scale)",
        vec![
            "layers",
            "PQAOA_arg",
            "PQAOA_depth",
            "ChocoQ_arg",
            "ChocoQ_depth",
            "Rasengan_arg",
            "Rasengan_depth",
        ],
    );
    for layers in 1..=max_layers {
        let env = RunEnv {
            seed: settings.seed,
            iterations: settings.baseline_iterations(problem.n_vars()),
            layers,
            ..Default::default()
        };
        let pq = run_algorithm(Algorithm::PQaoa, &problem, &env);
        let cq = run_algorithm(Algorithm::ChocoQ, &problem, &env);
        table.row(vec![
            layers.to_string(),
            fmt(pq.arg),
            pq.depth.to_string(),
            fmt(cq.arg),
            cq.depth.to_string(),
            fmt(ras.arg),
            ras.depth.to_string(),
        ]);
    }
    Report::default().table("fig09_layers", table).note(format!(
        "Rasengan reference: {} segments × depth {}",
        ras.n_params.min(99),
        ras.depth
    ))
}

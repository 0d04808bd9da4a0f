//! **Figure 12** — training-latency breakdown (classical vs quantum)
//! per method on the hardware-scale benchmarks.
//!
//! Expected shape (paper): HEA/P-QAOA spend > 70% of their latency in
//! the classical part (penalty objective over mostly-infeasible
//! samples); Rasengan cuts total time ~1.73× vs Choco-Q, with slightly
//! higher classical time (segmented execution bookkeeping) but much
//! lower quantum time thanks to shallow segments.

use crate::{
    experiments::Report, report::fmt, run_algorithm, runners::RunEnv, Algorithm, RunSettings, Table,
};
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_qsim::Device;

pub fn run(settings: &RunSettings) -> Report {
    let benches = ["F1", "K1", "J1"];
    let iterations = if settings.full { 100 } else { 8 };

    let mut table = Table::new(
        "Figure 12: per-iteration latency breakdown (ms)",
        vec!["method", "classical_ms", "quantum_ms", "total_ms"],
    );

    for alg in Algorithm::all() {
        let mut classical = 0.0;
        let mut quantum = 0.0;
        for b in benches {
            let p = benchmark(BenchmarkId::parse(b).unwrap());
            let env = RunEnv {
                seed: settings.seed,
                iterations,
                layers: 5,
                shots: Some(settings.shots()),
                noise: Device::ibm_kyiv().noise,
                device: Device::ibm_kyiv(),
            };
            let r = run_algorithm(alg, &p, &env);
            classical += r.classical_s / iterations as f64 * 1e3 / benches.len() as f64;
            quantum += r.quantum_s / iterations as f64 * 1e3 / benches.len() as f64;
        }
        table.row(vec![
            alg.name().to_string(),
            fmt(classical),
            fmt(quantum),
            fmt(classical + quantum),
        ]);
    }

    Report::default().table("fig12_latency", table)
}

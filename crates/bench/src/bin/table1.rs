//! **Table 1** — VQA designs for constrained binary optimization.
//!
//! Compares HEA, P-QAOA (with FrozenQubits + Red-QAOA), Choco-Q, and
//! Rasengan on a 12-qubit set-covering instance in a noise-free
//! simulator: ARG, output-state character, and training latency under
//! the IBM Quebec timing model.
//!
//! Paper reference points: ARG ~1100 (HEA), ~1000 (P-QAOA), 7.27
//! (Choco-Q), 0.70 (Rasengan); latency 702/300/445/144 ms.

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::{run_algorithm, Algorithm, RunSettings, Table};
use rasengan_problems::enumerate_feasible;
use rasengan_problems::scp::SetCover;

fn main() {
    let settings = RunSettings::from_args();

    // A 12-variable set-covering instance (Table 1 uses a 12-qubit SCP
    // whose feasible space is a small fraction of the 4096-state space).
    let scp = pick_12_qubit_scp(settings.seed);
    let problem = scp.into_problem();
    let feasible = enumerate_feasible(&problem).len();
    println!(
        "benchmark: {} ({} vars, {} constraints, {} / {} feasible)\n",
        problem.name(),
        problem.n_vars(),
        problem.n_constraints(),
        feasible,
        1u64 << problem.n_vars(),
    );

    let env = rasengan_bench::runners::RunEnv {
        seed: settings.seed,
        iterations: settings.baseline_iterations(problem.n_vars()),
        layers: 5,
        threads: settings.threads,
        ..Default::default()
    };

    let mut table = Table::new(
        "Table 1: VQA designs on 12-qubit set covering (noise-free)",
        vec!["method", "output state", "ARG", "latency_ms"],
    );
    for alg in Algorithm::all() {
        let mut e = env.clone();
        if alg == Algorithm::Rasengan {
            e.iterations = settings.rasengan_iterations();
        }
        let r = run_algorithm(alg, &problem, &e);
        let state = match alg {
            Algorithm::Rasengan => "basis state",
            _ => "superposition",
        };
        // Per-iteration latency (classical + quantum), as in the paper.
        let iters = e.iterations.max(1) as f64;
        let latency_ms = (r.quantum_s + r.classical_s) / iters * 1e3;
        table.row(vec![
            alg.name().to_string(),
            state.to_string(),
            fmt(r.arg),
            fmt(latency_ms),
        ]);
    }
    table.print();
    if let Ok(p) = table.save_csv("table1") {
        println!("saved: {}", p.display());
    }
}

/// Finds a seed whose SCP instance has exactly 12 variables.
fn pick_12_qubit_scp(seed: u64) -> SetCover {
    for offset in 0..200 {
        let cand = SetCover::generate(4, 6, seed + offset);
        if cand.n_vars() == 12 {
            return cand;
        }
    }
    // Deterministic fallback: force a known-12-variable layout.
    SetCover {
        elements: 4,
        sets: vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![0, 2],
            vec![1, 3],
        ],
        costs: vec![2.0, 3.0, 2.0, 4.0, 1.0, 3.0],
    }
}

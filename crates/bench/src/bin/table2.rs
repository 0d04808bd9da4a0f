//! **Table 2** — algorithmic evaluation on ARG, circuit depth, and the
//! number of parameters across the 20 benchmarks (noise-free).
//!
//! For each benchmark F1…G4 the harness prints the instance statistics
//! (#variables, #constraints, average constraint-graph degree, #feasible
//! solutions) and the ARG / depth / #params of the four algorithms.
//! Expected shape (paper): Rasengan lowest ARG everywhere (4.12× better
//! than Choco-Q on average, ~1900× better than HEA/P-QAOA), smallest
//! depth (1.96×–49×), and #params comparable to QAOA's 10.

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::runners::RunEnv;
use rasengan_bench::{run_algorithm, Algorithm, RunSettings, Table};
use rasengan_problems::registry::{all_ids, benchmark};
use rasengan_problems::{constraint_topology, enumerate_feasible};

fn main() {
    let settings = RunSettings::from_args();

    let mut info = Table::new(
        "Table 2a: benchmark statistics",
        vec!["bench", "#vars", "#cons", "avg_degree", "#feasible"],
    );
    let mut quality = Table::new(
        "Table 2b: ARG / circuit depth / #params per algorithm",
        vec![
            "bench", "HEA_arg", "PQ_arg", "CQ_arg", "RAS_arg", "HEA_dep", "PQ_dep", "CQ_dep",
            "RAS_dep", "HEA_par", "PQ_par", "CQ_par", "RAS_par",
        ],
    );

    let mut geo: std::collections::HashMap<Algorithm, (f64, usize)> =
        std::collections::HashMap::new();

    for id in all_ids() {
        let problem = benchmark(id);
        let topo = constraint_topology(&problem);
        let feasible = enumerate_feasible(&problem).len();
        info.row(vec![
            id.to_string(),
            problem.n_vars().to_string(),
            problem.n_constraints().to_string(),
            fmt(topo.avg_degree),
            feasible.to_string(),
        ]);

        let mut args = Vec::new();
        let mut depths = Vec::new();
        let mut params = Vec::new();
        for alg in Algorithm::all() {
            let env = RunEnv {
                seed: settings.seed,
                iterations: if alg == Algorithm::Rasengan {
                    settings.rasengan_iterations()
                } else {
                    settings.baseline_iterations(problem.n_vars())
                },
                layers: 5,
                threads: settings.threads,
                ..Default::default()
            };
            let r = run_algorithm(alg, &problem, &env);
            let entry = geo.entry(alg).or_insert((0.0, 0));
            if r.arg.is_finite() {
                // Floor exact zeros at 1e-4 so a single perfect run does
                // not drive the geometric mean to zero.
                entry.0 += r.arg.max(1e-4).ln();
                entry.1 += 1;
            }
            args.push(fmt(r.arg));
            depths.push(r.depth.to_string());
            params.push(r.n_params.to_string());
            eprintln!(
                "[{}] {:<9} arg={:<10} depth={:<6} params={}",
                id,
                alg.name(),
                fmt(r.arg),
                r.depth,
                r.n_params
            );
        }
        let mut row = vec![id.to_string()];
        row.extend(args);
        row.extend(depths);
        row.extend(params);
        quality.row(row);
    }

    info.print();
    quality.print();
    println!("## Geometric-mean ARG");
    for alg in Algorithm::all() {
        if let Some(&(sum, n)) = geo.get(&alg) {
            if n > 0 {
                println!("  {:<9} {}", alg.name(), fmt((sum / n as f64).exp()));
            }
        }
    }
    let _ = info.save_csv("table2_info");
    if let Ok(p) = quality.save_csv("table2_quality") {
        println!("saved: {}", p.display());
    }
}

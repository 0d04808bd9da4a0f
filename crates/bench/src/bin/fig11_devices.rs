//! **Figure 11** — evaluation on real-world quantum platforms
//! (simulated here with each device's calibration-based noise model).
//!
//! (a) average ARG and (b) average in-constraints rate of the four
//! algorithms on F1, K1, J1 under IBM-Kyiv and IBM-Brisbane noise, with
//! the mean-feasible-solution ARG as the baseline Rasengan is the first
//! to beat. Expected shape: baselines' ARG exceeds the mean-feasible
//! line, Rasengan improves ≥ 379×, purification keeps its
//! in-constraints rate at 100% vs single-digit percent for Choco-Q on
//! the noisier device.

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::runners::RunEnv;
use rasengan_bench::{run_algorithm, Algorithm, RunSettings, Table};
use rasengan_core::metrics::arg;
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_problems::{mean_feasible_objective, optimum};
use rasengan_qsim::Device;

fn main() {
    let settings = RunSettings::from_args();
    let benches = ["F1", "K1", "J1"];
    let devices = [Device::ibm_kyiv(), Device::ibm_brisbane()];

    let mut table = Table::new(
        "Figure 11: ARG and in-constraints rate on IBM devices",
        vec!["device", "method", "avg_ARG", "avg_in_constraints"],
    );

    for device in &devices {
        // The "mean quality of feasible solutions" reference line.
        let mut mean_arg = 0.0;
        for b in benches {
            let p = benchmark(BenchmarkId::parse(b).unwrap());
            let (_, e_opt) = optimum(&p);
            mean_arg += arg(e_opt, mean_feasible_objective(&p)) / benches.len() as f64;
        }
        table.row(vec![
            device.name.to_string(),
            "mean-feasible".to_string(),
            fmt(mean_arg),
            "1.000".to_string(),
        ]);

        for alg in Algorithm::all() {
            let mut sum_arg = 0.0;
            let mut sum_rate = 0.0;
            for b in benches {
                let p = benchmark(BenchmarkId::parse(b).unwrap());
                let env = RunEnv {
                    seed: settings.seed,
                    // Paper: max 100 iterations on hardware.
                    iterations: if settings.full { 100 } else { 8 },
                    layers: 5,
                    shots: Some(settings.shots()),
                    noise: device.noise,
                    device: device.clone(),
                    threads: settings.threads,
                };
                let r = run_algorithm(alg, &p, &env);
                sum_arg += if r.arg.is_finite() { r.arg } else { 1e4 };
                sum_rate += r.in_constraints_rate;
                eprintln!(
                    "[{}] {} on {}: arg={} rate={}",
                    b,
                    alg.name(),
                    device.name,
                    fmt(r.arg),
                    fmt(r.in_constraints_rate)
                );
            }
            table.row(vec![
                device.name.to_string(),
                alg.name().to_string(),
                fmt(sum_arg / benches.len() as f64),
                fmt(sum_rate / benches.len() as f64),
            ]);
        }
    }

    table.print();
    if let Ok(p) = table.save_csv("fig11_devices") {
        println!("saved: {}", p.display());
    }
}

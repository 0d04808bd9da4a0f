//! Runs every table/figure binary in sequence — the equivalent of the
//! artifact's `reproduce/run_all_experiments.py`.
//!
//! Pass `--full` for the paper's budgets (hours); the default fast mode
//! finishes in minutes with scaled-down iteration counts, like the
//! artifact's reproduce mode.

#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let experiments = [
        "table1",
        "table2",
        "fig09_layers",
        "fig10_scalability",
        "fig11_devices",
        "fig12_latency",
        "fig13_segments",
        "fig14_noise",
        "fig15_ablation_depth",
        "fig16_ablation_quality",
        "fig17_pruning",
    ];

    let mut failures = Vec::new();
    for exp in experiments {
        println!("\n==================== {exp} ====================");
        let status = Command::new(exe_dir.join(exp)).args(&args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{exp} exited with {s}");
                failures.push(exp);
            }
            Err(e) => {
                eprintln!("{exp} failed to launch: {e}");
                failures.push(exp);
            }
        }
    }

    println!("\n==================== summary ====================");
    if failures.is_empty() {
        println!(
            "all {} experiments completed; CSVs in target/rasengan-reports/",
            experiments.len()
        );
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}

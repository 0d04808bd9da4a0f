//! Runs the paper's experiments, the case-averaged suite and the
//! design ablations in-process, the equivalent of the artifact's
//! `reproduce/run_all_experiments.py`.
//!
//! `all_experiments [--full] [--seed N] [NAME...]` runs every
//! experiment, or only the named ones, in list order. It prints each
//! report and saves its tables under `target/rasengan-reports/`. The
//! default fast mode finishes in minutes with scaled-down budgets, like
//! the artifact's reproduce mode; `--full` uses the paper's (hours).
//! An experiment that panics does not stop the rest; the run then
//! exits 1 and names it. A bad argument exits 2 with the usage line.
//! The engine's thread count comes from `RASENGAN_THREADS`.

#![forbid(unsafe_code)]

use rasengan_bench::experiments::{self, Report, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (settings, selected) = match experiments::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("all_experiments: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut unsaved = Vec::new();
    let panicked = experiments::run_all(&selected, &settings, |name, report| {
        println!("\n==================== {name} ====================");
        if let Err(e) = emit(&report) {
            eprintln!("{name}: cannot save its report: {e}");
            unsaved.push(name);
        }
    });

    println!("\n==================== summary ====================");
    let failures: Vec<&str> = selected
        .iter()
        .map(|e| e.name)
        .filter(|name| panicked.contains(name) || unsaved.contains(name))
        .collect();
    if failures.is_empty() {
        println!(
            "all {} experiments completed; CSVs in target/rasengan-reports/",
            selected.len()
        );
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}

/// Prints a report's tables and notes, and saves each table.
fn emit(report: &Report) -> std::io::Result<()> {
    for named in &report.tables {
        named.table.print();
        println!("saved: {}", named.table.save_csv(named.name)?.display());
        if named.json {
            let json = named.table.save_json(&format!("BENCH_{}", named.name))?;
            println!("saved: {}", json.display());
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    Ok(())
}

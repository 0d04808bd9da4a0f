//! Statistical suite: case-averaged ARG per benchmark.
//!
//! The paper's Table 2 averages 100 literature cases per benchmark; the
//! canonical-instance `table2` binary shows one instance each. This
//! binary sweeps seeded random cases per benchmark and reports
//! mean/min/max ARG for Rasengan and Choco-Q (the two sparse-backend
//! algorithms, so the sweep stays fast; pass `--full` to add more
//! cases).

#![forbid(unsafe_code)]

use rasengan_baselines::{BaselineConfig, ChocoQ};
use rasengan_bench::report::fmt;
use rasengan_bench::{RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{all_ids, cases};

fn main() {
    let settings = RunSettings::from_args();
    let n_cases = if settings.full { 10 } else { 3 };
    let iters = if settings.full { 200 } else { 40 };

    let mut table = Table::new(
        format!("Suite: ARG over {n_cases} random cases per benchmark"),
        vec![
            "bench", "RAS_mean", "RAS_min", "RAS_max", "CQ_mean", "CQ_min", "CQ_max", "wins",
        ],
    );

    for id in all_ids() {
        let mut ras_args = Vec::new();
        let mut cq_args = Vec::new();
        let mut wins = 0usize;
        for (i, problem) in cases(id, n_cases, settings.seed).into_iter().enumerate() {
            let ras = Rasengan::new(
                RasenganConfig::default()
                    .with_seed(settings.seed + i as u64)
                    .with_max_iterations(iters),
            )
            .solve(&problem)
            .map(|o| o.arg)
            .unwrap_or(f64::INFINITY);
            let cq = ChocoQ::new(
                BaselineConfig::default()
                    .with_seed(settings.seed + i as u64)
                    .with_max_iterations(iters),
            )
            .solve(&problem)
            .map(|o| o.arg)
            .unwrap_or(f64::INFINITY);
            if ras <= cq + 1e-12 {
                wins += 1;
            }
            ras_args.push(ras);
            cq_args.push(cq);
            eprintln!(
                "[{id} case {i}] rasengan {} vs chocoq {}",
                fmt(ras),
                fmt(cq)
            );
        }
        let stats = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (mean, min, max)
        };
        let (rm, rlo, rhi) = stats(&ras_args);
        let (cm, clo, chi) = stats(&cq_args);
        table.row(vec![
            id.to_string(),
            fmt(rm),
            fmt(rlo),
            fmt(rhi),
            fmt(cm),
            fmt(clo),
            fmt(chi),
            format!("{wins}/{n_cases}"),
        ]);
    }

    table.print();
    if let Ok(p) = table.save_csv("suite") {
        println!("saved: {}", p.display());
    }
}

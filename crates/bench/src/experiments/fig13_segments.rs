//! **Figure 13** — shots and latency as the segment count varies.
//!
//! Forces different segmentation granularities on one benchmark (F2)
//! and reports total shots (expected: linear in #segments at 1024
//! shots/segment) and total latency (expected: sub-linear, since
//! per-segment circuits shrink as segments multiply).

use crate::{experiments::Report, report::fmt, RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{benchmark, BenchmarkId};

pub fn run(settings: &RunSettings) -> Report {
    let problem = benchmark(BenchmarkId::parse("F3").unwrap());

    // Budgets spanning "everything in one segment" → "one op per
    // segment".
    let budgets = [100_000usize, 400, 200, 136, 102, 68, 34, 1];
    let mut table = Table::new(
        "Figure 13: shots and latency vs segment count (F3, 1024 shots/segment)",
        vec![
            "segments",
            "total_shots",
            "quantum_ms",
            "classical_ms",
            "arg",
        ],
    );

    let mut seen = std::collections::BTreeSet::new();
    for &budget in &budgets {
        let mut cfg = RasenganConfig::default()
            .with_seed(settings.seed)
            .with_shots(1024)
            .with_max_iterations(if settings.full { 100 } else { 25 });
        cfg.segment_depth_budget = budget;
        let solver = Rasengan::new(cfg);
        let prepared = solver.prepare(&problem).expect("F3 prepares");
        let n_segments = prepared.stats.n_segments;
        if !seen.insert(n_segments) {
            continue; // duplicate segment count from a different budget
        }
        let outcome = solver.solve(&problem).expect("F3 solves");
        table.row(vec![
            n_segments.to_string(),
            outcome.total_shots.to_string(),
            fmt(outcome.latency.quantum_s * 1e3),
            fmt(outcome.latency.classical_s * 1e3),
            fmt(outcome.arg),
        ]);
    }

    Report::default().table("fig13_segments", table)
}

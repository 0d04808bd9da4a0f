//! **Figure 17** — solution-space analysis of Hamiltonian pruning.
//!
//! For FLP, KPP, SCP, and GCP at scales 1–4, measures how much of the
//! feasible space is covered as a function of chain position, pruned vs
//! unpruned. Expected shape (paper): pruned chains reach full coverage
//! at a smaller fraction of the chain (e.g. 40.7% vs 73.6% on the
//! fourth scale, a 1.8× expansion speedup).

use crate::{experiments::Report, report::fmt, RunSettings, Table};
use rasengan_core::prune::{coverage_curve, ChainConfig};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::enumerate_feasible;
use rasengan_problems::registry::{benchmark, BenchmarkId, Domain};

pub fn run(_settings: &RunSettings) -> Report {
    let domains = [Domain::Flp, Domain::Kpp, Domain::Scp, Domain::Gcp];

    let mut table = Table::new(
        "Figure 17: chain fraction needed for full feasible-space coverage",
        vec![
            "bench",
            "#feasible",
            "unpruned_chain_len",
            "pruned_chain_len",
            "unpruned_frac",
            "pruned_frac",
            "speedup",
        ],
    );

    for domain in domains {
        for scale in 1..=4 {
            let id = BenchmarkId::new(domain, scale);
            let problem = benchmark(id);
            let feasible = enumerate_feasible(&problem).len();
            // Reuse the solver's basis pipeline (simplification with the
            // connectivity fallback guard).
            let prepared = Rasengan::new(RasenganConfig::default())
                .prepare(&problem)
                .expect("benchmark prepares");
            let basis = prepared.basis.clone();
            let seed = prepared.seed_label;

            let pruned_cfg = ChainConfig::default();
            let unpruned_cfg = ChainConfig {
                prune: false,
                early_stop: false,
                ..ChainConfig::default()
            };

            // Fraction of the *raw* chain consumed before reaching full
            // coverage.
            let frac_to_full = |cfg: &ChainConfig| -> (usize, f64) {
                let curve = coverage_curve(&basis, seed, feasible, cfg);
                let len = curve.len();
                let frac = curve
                    .iter()
                    .position(|p| p.covered_fraction >= 1.0)
                    .map(|i| (i + 1) as f64 / len as f64)
                    .unwrap_or(1.0);
                (len, frac)
            };
            let (len_u, frac_u) = frac_to_full(&unpruned_cfg);
            let (len_p, frac_p) = frac_to_full(&pruned_cfg);

            // Speedup in absolute operators to full coverage.
            let ops_u = (frac_u * len_u as f64).max(1.0);
            let ops_p = (frac_p * len_p as f64).max(1.0);
            table.row(vec![
                id.to_string(),
                feasible.to_string(),
                len_u.to_string(),
                len_p.to_string(),
                fmt(frac_u),
                fmt(frac_p),
                fmt(ops_u / ops_p),
            ]);
        }
    }

    Report::default().table("fig17_pruning", table)
}

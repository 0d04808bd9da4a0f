//! Ablations of the repo's own design decisions (DESIGN.md §4) — not a
//! paper figure, but the evidence behind the engineering choices:
//!
//! 1. Sparse analytic backend vs dense gate-circuit simulation of the
//!    same transition chain (accuracy is exact for both — this table
//!    reports the *time* ratio; see also `cargo bench kernels`).
//! 2. Largest-remainder shot apportionment vs naive floor rounding
//!    (floor loses shots; LR conserves them exactly).
//! 3. Purification before vs after shot redistribution (purifying
//!    first redirects wasted shots to feasible inputs).

use crate::{experiments::Report, report::fmt, RunSettings, Table};
use rasengan_core::{apportion_shots, problem_basis, Rasengan, RasenganConfig};
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_qsim::sparse::label_from_bits;
use rasengan_qsim::synth::tau_circuit;
use rasengan_qsim::{DenseState, SparseState, Transition};
use std::time::Instant;

pub fn run(settings: &RunSettings) -> Report {
    // --- 1. backend timing ------------------------------------------------
    let mut backend = Table::new(
        "Ablation 1: sparse vs dense transition-chain execution (µs/run)",
        vec!["bench", "sparse_us", "dense_us", "speedup"],
    );
    for name in ["F1", "J1", "S1"] {
        let p = benchmark(BenchmarkId::parse(name).unwrap());
        let basis = problem_basis(&p).unwrap();
        let seed = label_from_bits(p.initial_feasible().unwrap());
        let n = p.n_vars();
        let reps = 200;

        let t0 = Instant::now();
        for _ in 0..reps {
            let mut s = SparseState::basis_state(n, seed);
            for u in &basis {
                s.apply_transition(&Transition::from_u(u), 0.6);
            }
        }
        let sparse_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        let circuits: Vec<_> = basis.iter().map(|u| tau_circuit(u, 0.6, n)).collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut s = DenseState::basis_state(n, seed as u64);
            for c in &circuits {
                s.run(c);
            }
        }
        let dense_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        backend.row(vec![
            name.to_string(),
            fmt(sparse_us),
            fmt(dense_us),
            fmt(dense_us / sparse_us),
        ]);
    }
    let report = Report::default().table("ablation_backend", backend);

    // --- 2. apportionment rounding ----------------------------------------
    let mut rounding = Table::new(
        "Ablation 2: largest-remainder vs floor apportionment (shots lost)",
        vec!["states", "budget", "floor_lost", "largest_remainder_lost"],
    );
    for &(k, budget) in &[(3usize, 100usize), (7, 1024), (31, 1024), (63, 4096)] {
        let probs: Vec<f64> = (1..=k).map(|i| 1.0 / i as f64).collect();
        let sum: f64 = probs.iter().sum();
        let floor_total: usize = probs
            .iter()
            .map(|p| (p / sum * budget as f64).floor() as usize)
            .sum();
        let lr_total: usize = apportion_shots(&probs, budget).iter().sum();
        rounding.row(vec![
            k.to_string(),
            budget.to_string(),
            (budget - floor_total).to_string(),
            (budget - lr_total).to_string(),
        ]);
    }
    let report = report.table("ablation_rounding", rounding);

    // --- 3. purification placement ----------------------------------------
    // Compare the default (purify between segments, i.e. before
    // redistribution) against purifying only at the very end, under
    // identical noise.
    let mut placement = Table::new(
        "Ablation 3: purify between segments vs only at the end",
        vec![
            "bench",
            "between_ARG",
            "final_only_ARG",
            "between_raw_rate",
            "final_raw_rate",
        ],
    );
    for name in ["F1", "J1"] {
        let p = benchmark(BenchmarkId::parse(name).unwrap());
        let noise = rasengan_qsim::Device::ibm_kyiv().noise;
        let iters = if settings.full { 40 } else { 12 };

        let between = Rasengan::new(
            RasenganConfig::default()
                .with_seed(settings.seed)
                .with_noise(noise)
                .with_shots(settings.shots())
                .with_max_iterations(iters),
        )
        .solve(&p);

        // "Final only": disable segmentation so there is no intermediate
        // purification point; the single purification happens at the end.
        let final_only = {
            let mut cfg = RasenganConfig::default()
                .with_seed(settings.seed)
                .with_noise(noise)
                .with_shots(settings.shots())
                .with_max_iterations(iters);
            cfg.segmented = false;
            Rasengan::new(cfg).solve(&p)
        };

        let cell = |r: &Result<rasengan_core::Outcome, _>,
                    f: fn(&rasengan_core::Outcome) -> f64| match r {
            Ok(o) => fmt(f(o)),
            Err(_) => "fail".to_string(),
        };
        placement.row(vec![
            name.to_string(),
            cell(&between, |o| o.arg),
            cell(&final_only, |o| o.arg),
            cell(&between, |o| o.raw_in_constraints_rate),
            cell(&final_only, |o| o.raw_in_constraints_rate),
        ]);
    }
    report.table("ablation_purify_placement", placement)
}

//! **Figure 10** — scalability analysis on large-scale FLP (6–105
//! variables).
//!
//! (a) maximum #segments vs variables (quadratic without pruning,
//!     reduced with), (b) per-segment circuit depth compiled onto the
//!     Quebec heavy-hex topology (bounded, ~3×10³ ceiling),
//! (c) noise-free ARG (Rasengan stays < 0.5 up to 78 qubits),
//! (d) ARG under device noise (segments start failing past ~28 qubits).

use crate::{experiments::Report, report::fmt, RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig, ResilienceConfig};
use rasengan_problems::flp::FacilityLocation;
use rasengan_qsim::route::{route_circuit, CouplingMap};
use rasengan_qsim::Device;

pub fn run(settings: &RunSettings) -> Report {
    // (facilities, demands) ladders: n = f + 2fd.
    let shapes: &[(usize, usize)] = if settings.full {
        &[
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
            (4, 3),
            (4, 4),
            (5, 4),
            (4, 6),
            (5, 6),
            (5, 8),
            (5, 10),
        ]
    } else {
        &[(2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (5, 6), (5, 10)]
    };

    let mut table = Table::new(
        "Figure 10: FLP scalability",
        vec![
            "vars",
            "segs_unpruned",
            "segs_pruned",
            "depth_quebec",
            "arg_noisefree",
            "arg_noisy",
            "arg_resilient",
            "recoveries",
        ],
    );

    for &(f, d) in shapes {
        let flp = FacilityLocation::generate(f, d, settings.seed);
        let problem = flp.into_problem();
        let n = problem.n_vars();
        let iters = if settings.full { 200 } else { 40 };

        // (a) segments with and without pruning.
        let pruned_prep = Rasengan::new(RasenganConfig::default().with_seed(settings.seed))
            .prepare(&problem)
            .expect("FLP prepares");
        let unpruned_prep = {
            let mut cfg = RasenganConfig::default().with_seed(settings.seed);
            cfg.prune = false;
            cfg.early_stop = false;
            Rasengan::new(cfg).prepare(&problem).expect("FLP prepares")
        };

        // (b) compiled depth of the deepest segment on Quebec's
        // heavy-hex topology: route one representative τ circuit.
        let depth_routed = {
            let deepest = pruned_prep
                .chain
                .ops
                .iter()
                .max_by_key(|o| o.weight())
                .expect("non-empty chain");
            let circuit = deepest.circuit(0.5, n);
            let coupling = CouplingMap::heavy_hex(n);
            let routed = route_circuit(&circuit, &coupling);
            // Charge the MCP pair with the 34k model on top of routing
            // swaps (2-qubit depth × 3 CX per swap).
            deepest.cx_cost() + 3 * routed.swaps_inserted
        };

        // (c) noise-free ARG. Past ~24 variables the feasible support
        // explodes (FLP(5,10) has ~10⁷ feasible states), so large
        // instances run shot-based — exactly like hardware — instead of
        // exact mixture propagation.
        let mut clean_cfg = RasenganConfig::default()
            .with_seed(settings.seed)
            .with_max_iterations(iters);
        if n > 24 {
            clean_cfg = clean_cfg.with_shots(2048);
        }
        let arg_clean = Rasengan::new(clean_cfg)
            .solve(&problem)
            .map(|o| o.arg)
            .unwrap_or(f64::INFINITY);

        // (d) ARG under Eagle-class noise; may fail (reported as inf).
        // Trajectory sampling dominates wall-clock here, so the noisy
        // arm uses a trimmed budget (the initial COBYLA simplex alone
        // is one evaluation per parameter).
        let noisy_iters = if settings.full { 30 } else { 8 };
        let noisy_shots = if n > 24 { 128 } else { 256 };
        let noisy_cfg = RasenganConfig::default()
            .with_seed(settings.seed)
            .with_noise(Device::ibm_brisbane().noise)
            .with_shots(noisy_shots)
            .with_max_iterations(noisy_iters);
        let arg_noisy = Rasengan::new(noisy_cfg.clone())
            .solve(&problem)
            .map(|o| o.arg)
            .unwrap_or(f64::INFINITY);
        // Same run with the recovery ladder armed: segments that fail
        // past ~28 qubits retry with escalated shots, then degrade.
        let (arg_resilient, recoveries) =
            match Rasengan::new(noisy_cfg.with_resilience(ResilienceConfig::recommended()))
                .solve(&problem)
            {
                Ok(o) => (
                    o.arg,
                    o.resilience.recoveries() + o.resilience.degradations(),
                ),
                Err(_) => (f64::INFINITY, 0),
            };

        let fmt_or_fail = |a: f64| {
            if a.is_finite() {
                fmt(a)
            } else {
                "fail".to_string()
            }
        };
        table.row(vec![
            n.to_string(),
            unpruned_prep.stats.n_segments.to_string(),
            pruned_prep.stats.n_segments.to_string(),
            depth_routed.to_string(),
            fmt(arg_clean),
            fmt_or_fail(arg_noisy),
            fmt_or_fail(arg_resilient),
            recoveries.to_string(),
        ]);
    }

    Report::default().table_with_json("fig10_scalability", table)
}

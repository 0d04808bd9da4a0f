//! Fusion benchmark (PR 4 acceptance experiment): compiled-program
//! execution vs gate-by-gate on the dense trajectory engine.
//!
//! Arms:
//!
//! * **dense-trajectory** — a noisy HEA-shaped circuit sampled over many
//!   trajectories through [`DenseTrajectoryRunner`], fused and unfused
//!   from the same seed. Two noise regimes: *readout-limited* (the
//!   asserted row — no gate channel is active, so the noise-aware
//!   trajectory plan fuses rotation columns into single 2×2 matrices
//!   and the CX ring into one label permutation) and *gate-noise*
//!   (reported for transparency — every gate channel is active, every
//!   gate is a barrier, and the plan degenerates to the bit-identical
//!   gate-by-gate sequence, so the speedup is ≈1×).
//! * **trace-noop** — a noisy Rasengan solve with tracing disabled
//!   against the same solve traced, guarding that disabled tracing
//!   costs nothing and that tracing never moves a result.
//!
//! The sparse solve paths run only their compiled programs; their
//! bitwise agreement with the gate-by-gate reference oracle is tested
//! by the `reference_*` unit tests in `rasengan-core` and
//! `rasengan-baselines`, and their speed is gated by the repo
//! benchmark's `noisy-trajectory` and `flp-scale` workloads.
//!
//! Every arm asserts its result is identical to its reference before
//! any timing is trusted. Default scale is a CI-safe smoke run
//! (equality asserts only); `--full` runs the acceptance scale (≥1000
//! trajectories) and additionally asserts the ≥2× dense speedup and
//! the ≤2% tracing overhead. Saves `BENCH_fusion.{csv,json}` under
//! `target/rasengan-reports/`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_bench::{report::fmt, RunSettings, Table};
use rasengan_core::solver::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_qsim::exec::DenseTrajectoryRunner;
use rasengan_qsim::noise::{apply_readout_error, run_dense_trajectory};
use rasengan_qsim::{Circuit, Device, Gate, Label, NoiseModel, Program};
use std::collections::BTreeMap;
use std::time::Instant;

/// The dense arm's workload: an `n`-qubit, `layers`-deep HEA-shaped
/// ansatz — full-SU(2) rotation columns (an Rz·Ry·Rz Euler triplet per
/// qubit, the shape 1-qubit fusion collapses to one matrix) + CX
/// entangling ring.
fn hea_circuit(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            let t = 0.3 + 0.1 * (layer * n + q) as f64;
            c.push(Gate::Rz(q, 0.4 * t));
            c.push(Gate::Ry(q, t));
            c.push(Gate::Rz(q, 0.7 * t));
        }
        for q in 0..n {
            c.push(Gate::Cx(q, (q + 1) % n));
        }
    }
    for q in 0..n {
        c.push(Gate::Ry(q, 0.2 + 0.05 * q as f64));
    }
    c
}

/// Samples `trajectories` noisy shots gate-by-gate (the pre-fusion hot
/// path: one full circuit walk and a fresh state per trajectory).
fn dense_unfused(
    circuit: &Circuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> BTreeMap<Label, usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = BTreeMap::new();
    for _ in 0..trajectories {
        let state = run_dense_trajectory(circuit, noise, &mut rng);
        let label = state.sample_one(&mut rng) as Label;
        let label = apply_readout_error(label, circuit.n_qubits(), noise.readout, &mut rng);
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

/// The same workload through a compiled program and a reusable runner.
fn dense_fused(
    program: &Program,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> BTreeMap<Label, usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runner = DenseTrajectoryRunner::new(program, noise);
    let mut counts = BTreeMap::new();
    for _ in 0..trajectories {
        let state = runner.run(&mut rng);
        let label = state.sample_one(&mut rng) as Label;
        let label = apply_readout_error(label, program.n_qubits(), noise.readout, &mut rng);
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

/// The tool's usage line.
const USAGE: &str = "usage: fusion [--full] [--seed N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = RunSettings::parse_args(&args).unwrap_or_else(|e| {
        eprintln!("fusion: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let reps = 5;
    let mut table = Table::new(
        "fusion: compiled programs vs gate-by-gate (median of 5)",
        vec!["arm", "workload", "unfused_s", "fused_s", "speedup"],
    );

    // --- dense-trajectory arm.
    let (n, layers, trajectories) = if settings.full {
        (10, 4, 1000)
    } else {
        (8, 2, 60)
    };
    let circuit = hea_circuit(n, layers);
    let program = Program::compile(&circuit);
    // The asserted regime: readout-limited noise (gate channels quiet,
    // measurement errors dominant — the regime fusion exists for), plus
    // a fully-noisy regime reported alongside it, where active channels
    // bar all fusion and the plan is the gate-by-gate sequence.
    let regimes = [
        ("readout-limited", NoiseModel::ibm_like(0.0, 0.0, 0.013)),
        ("gate-noise", NoiseModel::ibm_like(0.002, 0.01, 0.01)),
    ];
    let mut dense_speedup = 0.0;
    for (regime, noise) in &regimes {
        println!(
            "dense arm [{regime}]: n={n} layers={layers} gates={} -> {} noise-free steps \
             ({} plan steps), {trajectories} trajectories",
            circuit.len(),
            program.fusion_stats(&NoiseModel::noise_free()).steps,
            program.fusion_stats(noise).steps,
        );
        // Unfused and fused reps are interleaved (pairwise) so host
        // frequency drift hits both equally; the reported number is the
        // median per-pair ratio, far more stable on a noisy host than a
        // ratio of two independently-measured medians.
        let mut ratios = Vec::with_capacity(reps);
        let mut unfused_times = Vec::with_capacity(reps);
        let mut fused_times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let started = Instant::now();
            let unfused_counts = dense_unfused(&circuit, noise, trajectories, settings.seed);
            let unfused_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let fused_counts = dense_fused(&program, noise, trajectories, settings.seed);
            let fused_s = started.elapsed().as_secs_f64();
            assert_eq!(
                unfused_counts, fused_counts,
                "fused dense trajectories must reproduce the unfused counts bitwise"
            );
            ratios.push(unfused_s / fused_s);
            unfused_times.push(unfused_s);
            fused_times.push(fused_s);
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        unfused_times.sort_by(|a, b| a.total_cmp(b));
        fused_times.sort_by(|a, b| a.total_cmp(b));
        let speedup = ratios[ratios.len() / 2];
        table.row(vec![
            format!("dense-{regime}"),
            format!("hea n={n} L={layers} T={trajectories}"),
            fmt(unfused_times[reps / 2]),
            fmt(fused_times[reps / 2]),
            format!("{speedup:.2}x"),
        ]);
        println!("dense-trajectory [{regime}] speedup: {speedup:.2}x");
        if *regime == "readout-limited" {
            dense_speedup = speedup;
        }
    }

    // --- a noisy Rasengan solve for the tracing arm.
    let id = if settings.full { "K2" } else { "F1" };
    let problem = benchmark(BenchmarkId::parse(id).expect("registry id"));
    let iterations = if settings.full { 40 } else { 6 };
    let shots = if settings.full { 1024 } else { 128 };
    let ras_cfg = RasenganConfig::default()
        .with_seed(settings.seed)
        .with_shots(shots)
        .with_max_iterations(iterations)
        .on_device(Device::ibm_kyiv());

    // --- tracing no-op overhead guard. Run the same solve with tracing
    // disabled (the default) and enabled, as interleaved pairs. The
    // traced run does strictly more work (span tree construction), so
    // if the disabled path were not a true no-op its cost would surface
    // as a median pairwise disabled/traced ratio above 1.02. (The pairs
    // matter: comparing against a minutes-old timing confuses host
    // frequency drift with tracing overhead.) Tracing must also leave
    // every result byte untouched.
    let mut trace_ratios = Vec::with_capacity(reps);
    let mut disabled_times = Vec::with_capacity(reps);
    let mut traced_times = Vec::with_capacity(reps);
    let mut traced = None;
    for _ in 0..reps {
        let started = Instant::now();
        let disabled = Rasengan::new(ras_cfg.clone())
            .solve(&problem)
            .expect("rasengan solve");
        let disabled_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let with_trace = Rasengan::new(ras_cfg.clone().with_trace(true))
            .solve(&problem)
            .expect("rasengan solve (traced)");
        let traced_s = started.elapsed().as_secs_f64();
        assert_eq!(
            disabled.distribution, with_trace.distribution,
            "tracing must not change the solve distribution"
        );
        assert_eq!(disabled.arg, with_trace.arg);
        assert_eq!(disabled.best.bits, with_trace.best.bits);
        trace_ratios.push(disabled_s / traced_s);
        disabled_times.push(disabled_s);
        traced_times.push(traced_s);
        traced = Some(with_trace);
    }
    let traced = traced.expect("at least one traced rep");
    trace_ratios.sort_by(|a, b| a.total_cmp(b));
    disabled_times.sort_by(|a, b| a.total_cmp(b));
    traced_times.sort_by(|a, b| a.total_cmp(b));
    let trace_ratio = trace_ratios[trace_ratios.len() / 2];
    let disabled_s = disabled_times[reps / 2];
    let traced_s = traced_times[reps / 2];
    let tree = traced.trace.as_ref().expect("traced solve carries a tree");
    table.row(vec![
        "trace-noop".into(),
        format!("{id} noisy, {} spans when enabled", tree.count()),
        fmt(disabled_s),
        fmt(traced_s),
        format!("{trace_ratio:.2}x"),
    ]);
    println!("tracing disabled/enabled: {disabled_s:.4}s / {traced_s:.4}s ({trace_ratio:.2}x)");

    if settings.full {
        assert!(
            trace_ratio <= 1.02,
            "disabled tracing must be within 2% of the traced run \
             (median pairwise ratio {trace_ratio:.4})"
        );
        assert!(
            dense_speedup >= 2.0,
            "dense-trajectory arm must be >=2x faster fused (got {dense_speedup:.2}x)"
        );
    }

    table.print();
    if let Ok(p) = table.save_csv("fusion") {
        println!("saved: {}", p.display());
    }
    if let Ok(p) = table.save_json("BENCH_fusion") {
        println!("saved: {}", p.display());
    }
}

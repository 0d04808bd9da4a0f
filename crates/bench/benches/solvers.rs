//! Criterion benchmarks of whole solver iterations: one objective
//! evaluation (segmented execution + purification) for Rasengan, one
//! circuit evaluation for each baseline. These are the per-iteration
//! costs behind the Table 1 / Fig. 12 latency comparisons.

use criterion::BenchmarkId as CriterionId;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_baselines::common::run_dense;
use rasengan_baselines::{penalized_qubo, qubo_to_ising, BaselineConfig, ChocoQ, Hea, PQaoa};
use rasengan_core::metrics::penalty_lambda;
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_qsim::{Device, NoiseModel};

/// One full Rasengan solve at a tiny iteration budget (end-to-end cost).
fn bench_rasengan_solve(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F1").unwrap());
    c.bench_function("rasengan_solve_F1_10iters", |b| {
        b.iter(|| {
            let out = Rasengan::new(
                RasenganConfig::default()
                    .with_seed(1)
                    .with_max_iterations(10),
            )
            .solve(black_box(&p))
            .unwrap();
            black_box(out.arg)
        })
    });
}

/// A short exact-mode Rasengan solve of M4, whose 924 feasible labels
/// make the widest mixtures of the registry: each evaluation's exact
/// segment step and expectation run over hundreds of labels.
fn bench_rasengan_exact_m4(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("M4").unwrap());
    c.bench_function("rasengan_exact_M4", |b| {
        b.iter(|| {
            let out = Rasengan::new(
                RasenganConfig::default()
                    .with_seed(1)
                    .with_max_iterations(10),
            )
            .solve(black_box(&p))
            .unwrap();
            black_box(out.expectation)
        })
    });
}

/// One shot-based Rasengan execution (the quantum part of an iteration).
fn bench_rasengan_execution(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F2").unwrap());
    c.bench_function("rasengan_exec_F2_1024shots", |b| {
        b.iter(|| {
            let out = Rasengan::new(
                RasenganConfig::default()
                    .with_seed(1)
                    .with_shots(1024)
                    .with_max_iterations(1),
            )
            .solve(black_box(&p))
            .unwrap();
            black_box(out.total_shots)
        })
    });
}

/// Fig. 14-style noisy trajectory workload at 1 vs 4 threads. The
/// deterministic engine derives one RNG stream per global shot index,
/// so the two runs produce identical distributions — only the
/// wall-clock differs (the acceptance target is ≥2× at 4 threads).
fn bench_noisy_thread_scaling(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F1").unwrap());
    let mut group = c.benchmark_group("rasengan_noisy_threads");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            CriterionId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = Rasengan::new(
                        RasenganConfig::default()
                            .with_seed(1)
                            .with_noise(NoiseModel::depolarizing(2e-3))
                            .with_shots(1024)
                            .with_max_iterations(2)
                            .with_threads(threads),
                    )
                    .solve(black_box(&p))
                    .unwrap();
                    black_box(out.total_shots)
                })
            },
        );
    }
    group.finish();
}

/// One noisy Choco-Q solve (Fig. 11): F2 under IBM Kyiv noise, 256
/// trajectory shots per evaluation over a two-layer circuit, every
/// shot on one reused trajectory buffer.
fn bench_chocoq_noisy(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F2").unwrap());
    let cfg = BaselineConfig::default()
        .on_device(Device::ibm_kyiv())
        .with_seed(5)
        .with_shots(256)
        .with_layers(2)
        .with_max_iterations(12);
    c.bench_function("chocoq_noisy_F2_kyiv_256shots", |b| {
        b.iter(|| {
            let out = ChocoQ::new(cfg.clone()).solve(black_box(&p)).unwrap();
            black_box(out.expectation)
        })
    });
}

/// One dense HEA circuit evaluation (exact probabilities).
fn bench_hea_evaluation(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F1").unwrap());
    let n = p.n_vars();
    let params = vec![0.3; Hea::n_params(n, 5)];
    let cfg = BaselineConfig::default();
    c.bench_function("hea_circuit_eval_F1", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| {
            let circuit = Hea::circuit(n, 5, black_box(&params));
            black_box(run_dense(&circuit, &cfg, &mut rng))
        })
    });
}

/// One dense P-QAOA circuit evaluation.
fn bench_pqaoa_evaluation(c: &mut Criterion) {
    let p = benchmark(BenchmarkId::parse("F1").unwrap());
    let ising = qubo_to_ising(&penalized_qubo(&p, penalty_lambda(&p)));
    let cfg = BaselineConfig::default();
    c.bench_function("pqaoa_circuit_eval_F1", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| {
            let circuit = PQaoa::circuit(
                &ising,
                p.n_vars(),
                &[0.3, 0.5, 0.2, 0.4, 0.1, 0.6, 0.3, 0.2, 0.4, 0.5],
                &[],
            );
            black_box(run_dense(&circuit, &cfg, &mut rng))
        })
    });
}

criterion_group! {
    name = solvers;
    config = Criterion::default().sample_size(10);
    targets =
        bench_rasengan_solve,
        bench_rasengan_exact_m4,
        bench_rasengan_execution,
        bench_noisy_thread_scaling,
        bench_chocoq_noisy,
        bench_hea_evaluation,
        bench_pqaoa_evaluation,
}
criterion_main!(solvers);

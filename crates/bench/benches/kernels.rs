//! Criterion micro-benchmarks of the kernels the paper's figures depend
//! on: transition application (sparse vs dense — the DESIGN.md ablation
//! of the simulation backend), exact nullspace computation, Hamiltonian
//! simplification, chain construction with pruning, purification, shot
//! apportionment, and the noisy trajectories' per-CX noise slots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rasengan_core::prune::{build_chain, ChainConfig};
use rasengan_core::purify::{normalized_distribution, purify_distribution};
use rasengan_core::{apportion_shots, problem_basis, simplify_basis};
use rasengan_math::nullspace;
use rasengan_problems::flp::FacilityLocation;
use rasengan_problems::registry::{benchmark, BenchmarkId as Bid};
use rasengan_problems::Problem;
use rasengan_qsim::sparse::label_from_bits;
use rasengan_qsim::synth::tau_circuit;
use rasengan_qsim::{DenseState, SparseState, Transition};
use std::collections::BTreeMap;

/// Sparse (analytic) vs dense (gate circuit) application of one
/// transition operator — the backend-choice ablation.
fn bench_transition_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("transition_apply");
    for &n in &[8usize, 12, 16] {
        let mut u = vec![0i64; n];
        u[0] = 1;
        u[n / 2] = -1;
        u[n - 1] = 1;
        let tr = Transition::from_u(&u);
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, _| {
            b.iter(|| {
                let mut s = SparseState::basis_state(n, (1u128 << (n / 2)) | (1 << (n - 1)));
                s.apply_transition(black_box(&tr), 0.7);
                black_box(s.support_size())
            })
        });
        group.bench_with_input(BenchmarkId::new("dense_circuit", n), &n, |b, _| {
            let circuit = tau_circuit(&u, 0.7, n);
            b.iter(|| {
                let mut s = DenseState::basis_state(n, (1u64 << (n / 2)) | (1 << (n - 1)));
                s.run(black_box(&circuit));
                black_box(s.norm_sqr())
            })
        });
    }
    group.finish();
}

/// Sparse scaling far past dense reach (the Fig. 10 regime).
fn bench_sparse_large_registers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_large");
    for &n in &[32usize, 64, 105] {
        let mut u = vec![0i64; n];
        u[0] = 1;
        u[n - 1] = -1;
        let tr = Transition::from_u(&u);
        group.bench_with_input(BenchmarkId::new("qubits", n), &n, |b, _| {
            b.iter(|| {
                let mut s = SparseState::basis_state(n, 1u128 << (n - 1));
                for _ in 0..16 {
                    s.apply_transition(black_box(&tr), 0.3);
                }
                black_box(s.support_size())
            })
        });
    }
    group.finish();
}

/// Exact rational nullspace of benchmark constraint systems.
fn bench_nullspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("nullspace");
    for name in ["F2", "K2", "S3", "G3"] {
        let p = benchmark(Bid::parse(name).unwrap());
        group.bench_function(name, |b| {
            b.iter(|| black_box(nullspace(black_box(p.constraints()))))
        });
    }
    group.finish();
}

/// Algorithm 1 on benchmark bases.
fn bench_simplify(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplify");
    for name in ["F3", "S4", "G4"] {
        let p = benchmark(Bid::parse(name).unwrap());
        let basis = problem_basis(&p).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(simplify_basis(black_box(&basis))))
        });
    }
    group.finish();
}

/// Chain construction with pruning + early stop: three registry ids
/// (at most 850 reachable states) and the largest `flp-scale` shape,
/// FLP (4,6) at instance seed 2025 (7400 states).
fn bench_chain_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_build");
    let mut inputs: Vec<(String, Problem)> = ["F2", "K3", "S4"]
        .into_iter()
        .map(|name| (name.to_string(), benchmark(Bid::parse(name).unwrap())))
        .collect();
    inputs.push((
        "flp_4_6".to_string(),
        FacilityLocation::generate(4, 6, 2025).into_problem(),
    ));
    for (name, p) in &inputs {
        let basis = problem_basis(p).unwrap();
        let seed = label_from_bits(p.initial_feasible().unwrap());
        group.bench_function(format!("{name}_pruned"), |b| {
            b.iter(|| {
                black_box(build_chain(
                    black_box(&basis),
                    seed,
                    &ChainConfig::default(),
                ))
            })
        });
        group.bench_function(format!("{name}_unpruned"), |b| {
            let cfg = ChainConfig {
                prune: false,
                early_stop: false,
                ..ChainConfig::default()
            };
            b.iter(|| black_box(build_chain(black_box(&basis), seed, &cfg)))
        });
    }
    group.finish();
}

/// Purification of a measured distribution (the §4.3 matrix-vector
/// check the paper times at 0.05 ms), copy of the input included.
fn bench_purification(c: &mut Criterion) {
    let p = benchmark(Bid::parse("S4").unwrap());
    // A synthetic count map mixing feasible and infeasible labels.
    let feasible = rasengan_problems::enumerate_feasible(&p);
    let mut counts: BTreeMap<u128, usize> = BTreeMap::new();
    for (i, x) in feasible.iter().enumerate() {
        counts.insert(label_from_bits(x), 10 + i);
    }
    for i in 0..64u128 {
        counts.entry(i * 37 % (1 << p.n_vars())).or_insert(3);
    }
    let raw: Vec<(u128, f64)> = normalized_distribution(&counts)
        .expect("non-empty counts")
        .into_iter()
        .collect();
    c.bench_function("purify_S4", |b| {
        b.iter(|| black_box(purify_distribution(black_box(&p), black_box(raw.clone()))))
    });
}

/// Measurement sampling — regression guard on the CDF-based samplers.
/// The dense path was O(shots · 2^n) (a full linear scan per shot) and
/// the sparse path rebuilt and re-sorted its support per draw; both now
/// build a CDF once and binary-search per shot.
fn bench_sampling(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("sampling");
    // Dense: uniform 16-qubit superposition, 4096 shots.
    let n = 16usize;
    let mut circuit = rasengan_qsim::Circuit::new(n);
    for q in 0..n {
        circuit.h(q);
    }
    let dense = DenseState::from_circuit(&circuit);
    group.bench_function("dense_16q_4096shots", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(dense.sample(4096, &mut rng)))
    });

    // Sparse: multi-label support grown by transitions, 4096 shots.
    let mut u = vec![0i64; 32];
    u[0] = 1;
    u[31] = -1;
    let mut sparse = SparseState::basis_state(32, 1u128 << 31);
    for _ in 0..12 {
        sparse.apply_transition(&Transition::from_u(&u), 0.4);
    }
    group.bench_function("sparse_32q_4096shots", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(sparse.sample(4096, &mut rng)))
    });
    // Single-draw path: the prepared sampler amortizes the CDF build.
    group.bench_function("sparse_4096_draws", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = sparse.prepared_sampler();
        b.iter(|| {
            let mut acc = 0u128;
            for _ in 0..4096 {
                acc ^= sampler.draw(&mut rng);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// One transition operator's per-CX noise-slot loop under IBM Kyiv
/// noise, on a state reused across shots as the noisy solver runs
/// them: weight-2 and weight-3 operators (68 and 102 slots, 34 per
/// qubit) on states of one label and of two (the operator's pair at
/// t = π/4).
fn bench_noise_slots(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rasengan_qsim::{Complex, Device};

    let noise = Device::ibm_kyiv().noise;
    let n = 8;
    let mut group = c.benchmark_group("noise_slots");
    for u in [&[1i64, -1][..], &[1, -1, 1][..]] {
        let mut full = vec![0i64; n];
        full[..u.len()].copy_from_slice(u);
        let tr = Transition::from_u(&full);
        let support: Vec<usize> = (0..u.len()).collect();
        let slots = 34 * u.len();
        // Minus positions set, plus positions clear: a label with a partner.
        let input = u
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v == -1)
            .fold(0u128, |l, (q, _)| l | 1 << q);
        let t = std::f64::consts::FRAC_PI_4;
        let (cos, misin) = (Complex::from(t.cos()), Complex::new(0.0, -t.sin()));
        for labels in [1, 2] {
            let id = BenchmarkId::new(format!("kyiv_w{}", u.len()), format!("{labels}_labels"));
            group.bench_function(id, |b| {
                let mut rng = StdRng::seed_from_u64(4);
                let mut state = SparseState::basis_state(n, 0);
                b.iter(|| {
                    state.reset(input);
                    if labels == 2 {
                        state.apply_transition_with(&tr, cos, misin);
                    }
                    state.noise_slots(&support, slots, noise.p2, &noise, &mut rng);
                    black_box(state.sample_one(&mut rng))
                })
            });
        }
    }
    group.finish();
}

/// Largest-remainder shot apportionment.
fn bench_apportion(c: &mut Criterion) {
    let probs: Vec<f64> = (1..=256).map(|i| 1.0 / i as f64).collect();
    c.bench_function("apportion_256_states", |b| {
        b.iter(|| black_box(apportion_shots(black_box(&probs), 1024)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets =
        bench_transition_backends,
        bench_sparse_large_registers,
        bench_nullspace,
        bench_simplify,
        bench_chain_build,
        bench_purification,
        bench_sampling,
        bench_apportion,
        bench_noise_slots,
}
criterion_main!(kernels);

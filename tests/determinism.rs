//! Determinism and golden-structure tests.
//!
//! Everything in this workspace must be bit-reproducible for a fixed
//! seed — across calls *and* across processes (no HashMap iteration
//! order, no time, no thread scheduling in results). The golden tests
//! additionally pin the compiled structure of a known benchmark so that
//! accidental changes to the basis/pruning pipeline surface as test
//! diffs rather than silent result drift.

use rasengan::baselines::{BaselineConfig, BaselineOptimizer, ChocoQ, Hea, PQaoa};
use rasengan::core::{Rasengan, RasenganConfig, ResilienceConfig};
use rasengan::problems::registry::{benchmark, BenchmarkId};
use rasengan::qsim::{Device, FaultPlan, NoiseModel};

fn f1() -> rasengan::problems::Problem {
    benchmark(BenchmarkId::parse("F1").unwrap())
}

#[test]
fn rasengan_bitwise_reproducible_noisy() {
    let cfg = RasenganConfig::default()
        .with_seed(42)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(256)
        .with_max_iterations(15);
    let a = Rasengan::new(cfg.clone()).solve(&f1()).unwrap();
    let b = Rasengan::new(cfg).solve(&f1()).unwrap();
    assert_eq!(a.distribution, b.distribution);
    assert_eq!(a.expectation, b.expectation);
    assert_eq!(a.trained_times, b.trained_times);
    assert_eq!(a.total_shots, b.total_shots);
}

#[test]
fn baselines_bitwise_reproducible() {
    let cfg = BaselineConfig::default()
        .with_seed(9)
        .with_shots(128)
        .with_layers(2)
        .with_max_iterations(10);

    let h1 = Hea::new(cfg.clone()).solve(&f1());
    let h2 = Hea::new(cfg.clone()).solve(&f1());
    assert_eq!(h1.distribution, h2.distribution);

    let p1 = PQaoa::new(cfg.clone()).solve(&f1());
    let p2 = PQaoa::new(cfg.clone()).solve(&f1());
    assert_eq!(p1.distribution, p2.distribution);

    let c1 = ChocoQ::new(cfg.clone()).solve(&f1()).unwrap();
    let c2 = ChocoQ::new(cfg.clone()).solve(&f1()).unwrap();
    assert_eq!(c1.distribution, c2.distribution);
}

#[test]
fn golden_f1_compiled_structure() {
    // Pin F1's compiled pipeline: any change to nullspace ordering,
    // simplification, or pruning shows up here first.
    let prepared = Rasengan::new(RasenganConfig::default())
        .prepare(&f1())
        .unwrap();
    assert_eq!(prepared.stats.m_basis, 3, "m = n − rank = 6 − 3");
    assert_eq!(prepared.stats.raw_ops, 9, "3 rounds × 3 vectors");
    assert_eq!(prepared.stats.kept_ops, 3);
    assert_eq!(prepared.stats.n_segments, 3);
    assert_eq!(prepared.stats.max_segment_cx_depth, 136);
    assert_eq!(prepared.stats.total_cx_depth, 272);
    // The seed label is the constructive "open facility 0" solution:
    // y₀ = 1 and x₀₀ = 1 → bits 0 and 2 set.
    assert_eq!(prepared.seed_label, 0b101);
}

#[test]
fn golden_f1_solution() {
    let outcome = Rasengan::new(
        RasenganConfig::default()
            .with_seed(42)
            .with_max_iterations(100),
    )
    .solve(&f1())
    .unwrap();
    // The canonical F1 instance's optimum is stable across releases.
    // (Pinned under the vendored `rand` shim's stream; brute-force
    // enumeration confirms value 8 at these bits is the true minimum.)
    assert_eq!(outcome.best.bits, vec![0, 1, 0, 1, 0, 0]);
    assert_eq!(outcome.best.value, 8.0);
    assert!(outcome.arg < 0.01, "arg {}", outcome.arg);
}

#[test]
fn golden_sampled_result_digests() {
    // Pin the absolute `result` bytes of the sampled paths, not just
    // their agreement across thread counts: a change that renumbers RNG
    // streams, reorders a fold, or perturbs a fault roll moves a digest.
    use rasengan::obs::fnv64;
    use rasengan::serve::render_outcome;

    let j1 = benchmark(BenchmarkId::parse("J1").unwrap());
    let noise_free = RasenganConfig::default()
        .with_seed(21)
        .with_shots(192)
        .with_max_iterations(10);
    let noisy = RasenganConfig::default()
        .with_seed(22)
        .with_noise(
            NoiseModel::ibm_like(1e-3, 5e-3, 0.02)
                .with_amplitude_damping(2e-3)
                .with_phase_damping(1e-3),
        )
        .with_shots(128)
        .with_max_iterations(8);
    let plan = FaultPlan::new(0xD16E57)
        .with_calibration_drift(0.5)
        .with_readout_burst(0.4, 0.15)
        .with_shot_loss(0.25);
    let faulted = RasenganConfig::default()
        .with_seed(23)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(128)
        .with_max_iterations(8)
        .with_resilience(ResilienceConfig::recommended().with_fault_plan(plan));

    // A wide-label case: Fig. 10 FLP (4,4) has 36 variables, so its
    // sampled segment step runs with labels far past one machine word
    // of basis states and many distinct outcomes per batch.
    let flp = rasengan::problems::flp::FacilityLocation::generate(4, 4, 2025).into_problem();
    assert_eq!(flp.n_vars(), 36);
    let wide = RasenganConfig::default()
        .with_seed(24)
        .with_shots(2048)
        .with_max_iterations(2);

    // Device-rate noise on a 3-qubit-operator instance: IBM Kyiv's
    // damping builds up over F2's 68-slot operators, so trajectories
    // jump mid-operator and the support draws span a non-power-of-two
    // operand set.
    let f2 = benchmark(BenchmarkId::parse("F2").unwrap());
    let kyiv = RasenganConfig::default()
        .on_device(Device::ibm_kyiv())
        .with_seed(25)
        .with_shots(256)
        .with_max_iterations(6)
        .with_resilience(ResilienceConfig::recommended());

    let outcomes: Vec<_> = [
        (&j1, noise_free),
        (&f1(), noisy),
        (&f1(), faulted),
        (&flp, wide),
        (&f2, kyiv),
    ]
    .into_iter()
    .map(|(problem, cfg)| Rasengan::new(cfg).solve(problem).unwrap())
    .collect();
    // Every armed fault kind must actually fire, or the third digest
    // would not cover the fault-plan rolls.
    let kinds: Vec<String> = outcomes[2]
        .resilience
        .events
        .iter()
        .filter_map(|e| match e {
            rasengan::core::ResilienceEvent::FaultInjected { kind, .. } => {
                Some(format!("{kind:?}"))
            }
            _ => None,
        })
        .collect();
    for kind in ["CalibrationDrift", "ReadoutBurst", "ShotBatchLoss"] {
        assert!(kinds.iter().any(|k| k == kind), "{kind} never fired");
    }
    let digests: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{:#018x}", fnv64(render_outcome(o).as_bytes())))
        .collect();
    assert_eq!(
        digests,
        [
            "0x2d45a621c2a50278",
            "0x585a42325ab4f511",
            "0x9e41c0be83fae458",
            "0xae934ef491081e7e",
            "0xabd2d7ed4b3c2828"
        ]
    );
}

#[test]
fn golden_exact_result_digests() {
    // Pin the absolute `result` bytes of exact mixture propagation on
    // wide mixtures: M4, S4 and M3 carry hundreds of labels between
    // segments, so many input labels feed each output label and the
    // order of every floating-point fold shows in the bytes. F4 adds
    // the largest FLP instance of the registry (20 variables).
    use rasengan::obs::fnv64;
    use rasengan::serve::render_outcome;

    let digests: Vec<String> = ["M4", "S4", "M3", "F4"]
        .into_iter()
        .flat_map(|id| {
            let problem = benchmark(BenchmarkId::parse(id).unwrap());
            [1usize, 4].map(|threads| {
                let cfg = RasenganConfig::default()
                    .with_seed(26)
                    .with_max_iterations(20)
                    .with_threads(threads);
                let outcome = Rasengan::new(cfg).solve(&problem).unwrap();
                format!("{:#018x}", fnv64(render_outcome(&outcome).as_bytes()))
            })
        })
        .collect();
    assert_eq!(
        digests,
        [
            "0xef8d97f48e2577ca",
            "0xef8d97f48e2577ca",
            "0xd2b5faff9a913eac",
            "0xd2b5faff9a913eac",
            "0x406c088219cc9810",
            "0x406c088219cc9810",
            "0x028db222d36399e6",
            "0x028db222d36399e6"
        ]
    );
}

/// The four execution regimes the baseline digests pin, from `base`:
/// exact, noise-free sampled at `shots`, IBM Kyiv noise, and a
/// heavy-damping model.
fn baseline_regimes(base: BaselineConfig, shots: usize) -> [BaselineConfig; 4] {
    let heavy = NoiseModel::ibm_like(4e-4, 1.2e-2, 0.02)
        .with_amplitude_damping(5e-2)
        .with_phase_damping(3e-2);
    let sampled = base.clone().with_shots(shots);
    [
        base,
        sampled.clone(),
        sampled.clone().on_device(Device::ibm_kyiv()),
        sampled.with_noise(heavy),
    ]
}

/// FNV-1a of a baseline outcome's distribution (label and probability
/// bits) followed by its expectation bits, each little-endian whatever
/// the host's byte order.
fn baseline_digest(out: &rasengan::baselines::BaselineOutcome) -> String {
    use rasengan::obs::Fnv64;
    use std::hash::Hasher;
    let mut h = Fnv64::default();
    for (&label, &p) in &out.distribution {
        h.write(&label.to_le_bytes());
        h.write(&p.to_bits().to_le_bytes());
    }
    h.write(&out.expectation.to_bits().to_le_bytes());
    format!("{:#018x}", h.finish())
}

#[test]
fn golden_chocoq_digests() {
    // Pin the absolute bytes of every Choco-Q execution path: the
    // distribution (label and probability bits) and the expectation
    // bits. Per instance: the exact distribution, noise-free sampled
    // shots, then two noisy trajectory regimes. Kyiv noise runs
    // Pauli-only mixer slots over the feasible set; the heavy-damping
    // model also damps the preparation column.
    let digests: Vec<String> = ["F2", "J1"]
        .into_iter()
        .flat_map(|id| {
            let problem = benchmark(BenchmarkId::parse(id).unwrap());
            let base = BaselineConfig::default()
                .with_seed(5)
                .with_max_iterations(12)
                .with_layers(2);
            baseline_regimes(base, 256)
                .map(|cfg| baseline_digest(&ChocoQ::new(cfg).solve(&problem).unwrap()))
        })
        .collect();
    assert_eq!(
        digests,
        [
            "0x178fb600afc54935",
            "0x41375e9137daefe3",
            "0x14765c17ab04ec5c",
            "0x66f31dbad1f3c1d3",
            "0x37dda1c26f66f68a",
            "0x94cfa153715cc07b",
            "0x5d173228089603db",
            "0xd32114196d07c60b"
        ]
    );
}

#[test]
fn golden_dense_baseline_digests() {
    // Pin the absolute bytes of `run_dense` and the shared training
    // loop: HEA trained by SPSA (its 20 parameters per rotation block
    // on F2 would make COBYLA's first simplex alone 41 evaluations)
    // and P-QAOA trained by COBYLA, on F2 and J1, in the four regimes
    // of `golden_chocoq_digests` at 32 shots (dense noisy trajectories
    // on 10 qubits are the slow part of a debug build).
    let digests: Vec<String> = ["F2", "J1"]
        .into_iter()
        .flat_map(|id| {
            let problem = benchmark(BenchmarkId::parse(id).unwrap());
            let hea = BaselineConfig::default()
                .with_seed(6)
                .with_layers(1)
                .with_max_iterations(1)
                .with_optimizer(BaselineOptimizer::Spsa);
            let pqaoa = BaselineConfig::default()
                .with_seed(7)
                .with_layers(1)
                .with_max_iterations(3);
            let hea = baseline_regimes(hea, 32)
                .map(|cfg| baseline_digest(&Hea::new(cfg).solve(&problem)));
            let pqaoa = baseline_regimes(pqaoa, 32)
                .map(|cfg| baseline_digest(&PQaoa::new(cfg).solve(&problem)));
            hea.into_iter().chain(pqaoa)
        })
        .collect();
    assert_eq!(
        digests,
        [
            "0x5af5ad051e996a4b",
            "0xbf76db6f710f3108",
            "0x3483ce57e6707ee9",
            "0x10209a3aa931bd58",
            "0xf0efeb74fbeff8e8",
            "0x29c64abf1f8e0d2a",
            "0x4d78705af3a6252b",
            "0x3127e42b0152c021",
            "0x3b43d12cd124c4b2",
            "0x4c8dfc4ff2538a34",
            "0x271eb5c8473acb4f",
            "0x25c876f31b0996b8",
            "0xe02475d91573ebff",
            "0x935e117c3891249b",
            "0x02720bed9598dd25",
            "0xb54b3484d4f56dbb"
        ]
    );
}

#[test]
fn noisy_solve_identical_at_any_thread_count() {
    // The execution engine derives one RNG stream per global shot index,
    // so the trajectory ensemble — and therefore every downstream number
    // — must be byte-identical no matter how the shots are spread over
    // threads.
    let cfg = RasenganConfig::default()
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(128)
        .with_max_iterations(8);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Rasengan::new(cfg.clone().with_threads(t))
                .solve(&f1())
                .unwrap()
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].distribution, other.distribution);
        assert_eq!(runs[0].expectation, other.expectation);
        assert_eq!(runs[0].trained_times, other.trained_times);
        assert_eq!(runs[0].total_shots, other.total_shots);
    }
}

#[test]
fn degenerate_damping_solve_identical_at_any_thread_count() {
    // Heavy damping drives trajectory norms into the sampler's
    // degenerate regime (the clamped fallback paths in
    // `DenseState::sample` / `PreparedSampler`) and biases shots out of
    // the constraint subspace, so the solve legitimately ends in
    // `NoFeasibleOutput` — the regression being guarded is that the
    // sampler neither panics ("cannot normalize zero state") nor emits
    // out-of-support labels, and that the outcome (success or error) is
    // identical at every thread count.
    let cfg = RasenganConfig::default()
        .with_seed(3)
        .with_noise(
            NoiseModel::ibm_like(0.0, 0.0, 0.01)
                .with_amplitude_damping(1.0)
                .with_phase_damping(0.9),
        )
        .with_shots(64)
        .with_max_iterations(4);
    let runs: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(
            |&t| match Rasengan::new(cfg.clone().with_threads(t)).solve(&f1()) {
                Ok(o) => format!(
                    "ok dist={:?} exp={:?} shots={}",
                    o.distribution, o.expectation, o.total_shots
                ),
                Err(e) => format!("err {e:?}"),
            },
        )
        .collect();
    assert_eq!(runs[0], runs[1], "threads 1 vs 2 diverged");
    assert_eq!(runs[0], runs[2], "threads 1 vs 8 diverged");
}

#[test]
fn exact_solve_identical_at_any_thread_count() {
    // The exact (shots: None) branch propagates input labels in
    // parallel but folds the mixture in input order, fixing the
    // floating-point accumulation order.
    let cfg = RasenganConfig::default()
        .with_seed(3)
        .with_max_iterations(20);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Rasengan::new(cfg.clone().with_threads(t))
                .solve(&f1())
                .unwrap()
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].distribution, other.distribution);
        assert_eq!(runs[0].expectation, other.expectation);
    }
}

#[test]
fn noise_free_sampled_labels_are_feasible_by_construction() {
    // The seed is feasible, every kept operator has `Cu = 0`, and a
    // partner move fires only where the label's bits allow it, so
    // without noise every sampled label satisfies the constraints
    // before purification touches it. Such solves skip the per-label
    // check, so the returned labels are checked here, one by one.
    use rasengan::problems::flp::FacilityLocation;
    let cfg = RasenganConfig::default()
        .with_seed(2025)
        .with_shots(256)
        .with_max_iterations(5);
    let registry = rasengan::problems::all_ids()
        .into_iter()
        .map(|id| (id.to_string(), benchmark(id)));
    // The Fig. 10 FLP shapes the benchmark samples.
    let flp = [(4, 4), (5, 4), (4, 6)].into_iter().map(|(f, d)| {
        let problem = FacilityLocation::generate(f, d, 2025).into_problem();
        (format!("FLP ({f},{d})"), problem)
    });
    for (name, problem) in registry.chain(flp) {
        for threads in [1usize, 4] {
            let outcome = Rasengan::new(cfg.clone().with_threads(threads))
                .solve(&problem)
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            assert_eq!(
                outcome.raw_in_constraints_rate, 1.0,
                "{name} at {threads} threads sampled an infeasible label"
            );
            for &label in outcome.distribution.keys() {
                assert!(
                    problem.is_feasible_label(label),
                    "{name} at {threads} threads returned infeasible label {label:#x}"
                );
            }
        }
    }
}

#[test]
fn faulted_solve_identical_at_any_thread_count() {
    // Fault decisions are pure functions of (plan seed, segment,
    // attempt, batch) and retries draw from derived substreams, so a
    // run under heavy fault injection — retries, degradation, and all —
    // must stay byte-identical at any thread count, events included.
    let plan = FaultPlan::new(0xFA17)
        .with_shot_loss(0.25)
        .with_readout_burst(0.4, 0.15)
        .with_calibration_drift(0.5)
        .kill_segment(1, 1);
    let cfg = RasenganConfig::default()
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(128)
        .with_max_iterations(8)
        .with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(2)
                .with_degradation()
                .with_fault_plan(plan),
        );
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Rasengan::new(cfg.clone().with_threads(t))
                .solve(&f1())
                .unwrap()
        })
        .collect();
    assert!(
        runs[0].resilience.faults_injected() > 0,
        "fault plan was inert: {:?}",
        runs[0].resilience
    );
    for other in &runs[1..] {
        assert_eq!(runs[0].distribution, other.distribution);
        assert_eq!(runs[0].expectation, other.expectation);
        assert_eq!(runs[0].trained_times, other.trained_times);
        assert_eq!(runs[0].total_shots, other.total_shots);
        assert_eq!(runs[0].resilience, other.resilience);
    }
}

#[test]
fn armed_but_unused_resilience_matches_legacy() {
    // Arming retries and degradation must not perturb a single RNG
    // stream while no failure occurs: the outcome is byte-identical to
    // the plain solver's for the same seed, and the report stays empty.
    let base = RasenganConfig::default()
        .with_seed(42)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(256)
        .with_max_iterations(15);
    let plain = Rasengan::new(base.clone()).solve(&f1()).unwrap();
    let armed = Rasengan::new(
        base.with_resilience(
            ResilienceConfig::default()
                .with_retry_budget(3)
                .with_degradation(),
        ),
    )
    .solve(&f1())
    .unwrap();
    assert!(armed.resilience.is_clean());
    assert_eq!(plain.distribution, armed.distribution);
    assert_eq!(plain.expectation, armed.expectation);
    assert_eq!(plain.trained_times, armed.trained_times);
    assert_eq!(plain.total_shots, armed.total_shots);
    assert_eq!(plain.latency.quantum_s, armed.latency.quantum_s);
}

#[test]
fn multistart_identical_at_any_thread_count() {
    let cfg = RasenganConfig::default()
        .with_seed(5)
        .with_shots(64)
        .with_max_iterations(6);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Rasengan::new(cfg.clone().with_threads(t))
                .solve_multistart(&f1(), 4)
                .unwrap()
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].distribution, other.distribution);
        assert_eq!(runs[0].expectation, other.expectation);
        assert_eq!(runs[0].trained_times, other.trained_times);
    }
}

#[test]
fn multistart_start_zero_matches_plain_solve() {
    // Start 0 keeps the base seed, so a one-start multistart is exactly
    // `solve` — the restart seeds only diverge from start 1 on.
    let cfg = RasenganConfig::default()
        .with_seed(13)
        .with_shots(64)
        .with_max_iterations(6);
    let single = Rasengan::new(cfg.clone()).solve(&f1()).unwrap();
    let multi = Rasengan::new(cfg).solve_multistart(&f1(), 1).unwrap();
    assert_eq!(single.distribution, multi.distribution);
    assert_eq!(single.trained_times, multi.trained_times);
}

#[test]
fn registry_shapes_are_pinned() {
    // Variable counts of all 32 benchmarks, in registry order. These are
    // public API for anyone comparing against the reproduction. F/K/J
    // and B/P sizes are structural; S/G/M sizes depend on the canonical
    // seed's RNG stream (currently the vendored `rand` shim).
    let expect = [
        6, 10, 15, 20, // F
        8, 12, 16, 18, // K
        6, 10, 12, 14, // J
        6, 8, 10, 16, // S
        6, 8, 10, 20, // G
        6, 8, 10, 12, // M
        10, 12, 16, 18, // B
        4, 6, 8, 12, // P
    ];
    let ids = rasengan::problems::all_ids();
    assert_eq!(ids.len(), expect.len(), "registry size drifted");
    for (id, &vars) in ids.iter().zip(&expect) {
        assert_eq!(
            benchmark(*id).n_vars(),
            vars,
            "{id} drifted from its pinned size"
        );
    }
}

/// Golden trace tree: a traced, fixed-seed solve of a committed
/// example instance produces a byte-identical deterministic span
/// rendering at `RASENGAN_THREADS` 1, 2, and 8 — and switching tracing
/// on changes none of the result bytes. This is the tentpole guarantee
/// of the obs subsystem: span IDs derive from structure (parent ID ×
/// label × ordinal), never from time or scheduling.
#[test]
fn golden_trace_tree_identical_at_any_thread_count() {
    use rasengan::serve::render_outcome;

    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/instances/F1.problem"
    ))
    .expect("committed example instance");
    let problem = rasengan::problems::io::parse_problem(&text).unwrap();
    let cfg = RasenganConfig::default()
        .with_seed(11)
        .with_noise(NoiseModel::depolarizing(2e-3))
        .with_shots(128)
        .with_max_iterations(8)
        .with_trace(true);

    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            Rasengan::new(cfg.clone().with_threads(t))
                .solve(&problem)
                .unwrap()
        })
        .collect();

    // Tracing must not perturb the solve itself: byte-compare the wire
    // serialization against an untraced run at the same seed.
    let untraced = Rasengan::new(cfg.clone().with_trace(false).with_threads(1))
        .solve(&problem)
        .unwrap();
    assert!(untraced.trace.is_none());
    assert_eq!(
        render_outcome(&runs[0]),
        render_outcome(&untraced),
        "enabling --trace must not change any result byte"
    );

    // The deterministic rendering is the golden artifact: identical
    // bytes at every thread count.
    let rendered: Vec<String> = runs
        .iter()
        .map(|o| {
            o.trace
                .as_ref()
                .expect("traced solve carries a tree")
                .deterministic_json()
                .render()
        })
        .collect();
    assert_eq!(
        rendered[0], rendered[1],
        "trace tree differs between 1 and 2 threads"
    );
    assert_eq!(
        rendered[0], rendered[2],
        "trace tree differs between 1 and 8 threads"
    );

    // Structural golden checks: the root is the solve, its stages ride
    // as children in pipeline order, and the execute stage carries one
    // span per planned segment with at least one attempt each.
    let tree = runs[0].trace.as_ref().unwrap();
    let root = &tree.root;
    assert_eq!(root.label, "solve");
    let stage_labels: Vec<&str> = root.children.iter().map(|c| c.label).collect();
    assert_eq!(stage_labels, vec!["prepare", "train", "execute"]);
    let execute = &root.children[2];
    let segments: Vec<&rasengan::core::Span> = execute
        .children
        .iter()
        .filter(|c| c.label == "segment")
        .collect();
    assert_eq!(segments.len(), runs[0].stats.n_segments);
    for (i, seg) in segments.iter().enumerate() {
        assert_eq!(seg.ordinal, i as u64);
        assert!(
            seg.children.iter().any(|c| c.label == "attempt"),
            "segment {i} recorded no attempt span"
        );
    }
    // Span IDs are unique across the tree (the derivation mixes the
    // full path, so collisions would point at a hashing bug).
    fn collect_ids(span: &rasengan::core::Span, ids: &mut Vec<u64>) {
        ids.push(span.id);
        for child in &span.children {
            collect_ids(child, ids);
        }
    }
    let mut ids = Vec::new();
    collect_ids(root, &mut ids);
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "span IDs must be unique");
    assert_eq!(n, tree.count());
}

/// A served solve must be byte-identical to the in-process solver for
/// the same seed and knobs — at 1 worker and at 4 workers, and with
/// the recommended resilience posture armed. The comparison is on the
/// serialized `result` section (the wire bytes), which is the
/// strongest form of the guarantee: not just equal numbers, equal
/// bytes.
#[test]
fn served_solve_bitwise_matches_in_process() {
    use rasengan::problems::io::write_problem;
    use rasengan::serve::{render_outcome, serve, submit, ReplyStatus, ServeConfig, SolveRequest};

    let problem = f1();
    let request = SolveRequest::new(write_problem(&problem))
        .with_seed(5)
        .with_shots(256)
        .with_iterations(12)
        .with_retries(2)
        .with_degrade();

    // `retries 2` + `degrade` is exactly ResilienceConfig::recommended().
    let cfg = RasenganConfig::default()
        .with_seed(5)
        .with_shots(256)
        .with_max_iterations(12)
        .with_resilience(ResilienceConfig::recommended());
    let local = Rasengan::new(cfg).solve(&problem).unwrap();
    let local_bytes = render_outcome(&local);

    // Both drivers (the reactor falls back to the blocking driver where
    // unsupported), each at one and four workers.
    for (event_loop, workers) in [(true, 1usize), (true, 4), (false, 1), (false, 4)] {
        let server = serve(
            ServeConfig::default()
                .with_event_loop(event_loop)
                .with_workers(workers),
        )
        .unwrap();
        let reply = submit(server.addr(), &request).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok, "workers={workers}");
        assert_eq!(
            reply.section("result").unwrap(),
            local_bytes,
            "served result must be byte-identical (event_loop={event_loop}, workers={workers})"
        );
        // A traced request returns the same result bytes plus a
        // `trace` section that byte-matches the in-process tree.
        let traced_reply = submit(server.addr(), &request.clone().with_trace()).unwrap();
        assert_eq!(traced_reply.status, ReplyStatus::Ok);
        assert_eq!(traced_reply.section("result").unwrap(), local_bytes);
        // The server solves via `solve_prepared` (the compile cache
        // owns `prepare`), so the in-process reference does the same:
        // its tree has no `prepare` child, exactly like the served one.
        let local_solver = Rasengan::new(
            RasenganConfig::default()
                .with_seed(5)
                .with_shots(256)
                .with_max_iterations(12)
                .with_resilience(ResilienceConfig::recommended())
                .with_trace(true),
        );
        let prepared = local_solver.prepare(&problem).unwrap();
        let local_traced = local_solver.solve_prepared(&problem, &prepared).unwrap();
        assert_eq!(
            traced_reply.section("trace").unwrap(),
            local_traced
                .trace
                .as_ref()
                .unwrap()
                .deterministic_json()
                .render(),
            "served trace must byte-match the in-process span tree"
        );

        // A repeat comes from the cache and must still be the same bytes.
        let cached = submit(server.addr(), &request).unwrap();
        assert_eq!(cached.section("result").unwrap(), local_bytes);
        assert_eq!(
            cached
                .json("service")
                .unwrap()
                .get("cache")
                .and_then(|c| c.as_str()),
            Some("hit"),
            "repeat must be served from the result cache"
        );
        server.shutdown();
    }
}

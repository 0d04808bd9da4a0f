//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use rasengan::core::{apportion_shots, build_chain, simplify_basis, ChainConfig};
use rasengan::math::{nullspace, rank, IntMatrix};
use rasengan::qsim::peephole::optimize;
use rasengan::qsim::verify::equivalent_up_to_phase;
use rasengan::qsim::{Circuit, Gate, SparseState, Transition};

prop_compose! {
    /// A small random integer matrix with entries in `-2..=2`.
    fn matrix_strategy()(rows in 1usize..4, cols in 2usize..7)
        (entries in prop::collection::vec(-2i64..=2, rows * cols),
         rows in Just(rows), cols in Just(cols))
        -> IntMatrix
    {
        IntMatrix::from_flat(rows, cols, entries)
    }
}

prop_compose! {
    /// A nonzero ternary vector plus a basis-state label on n qubits.
    fn ternary_and_state()(n in 2usize..9)
        (u in prop::collection::vec(-1i64..=1, n),
         bits in prop::collection::vec(0i64..=1, n))
        -> (Vec<i64>, Vec<i64>)
    {
        let mut u = u;
        if u.iter().all(|&v| v == 0) {
            u[0] = 1;
        }
        (u, bits)
    }
}

proptest! {
    /// Every nullspace vector exactly annihilates the matrix.
    #[test]
    fn nullspace_vectors_annihilate(m in matrix_strategy()) {
        for u in nullspace(&m) {
            let out = m.mul_vec(&u);
            prop_assert!(out.iter().all(|&v| v == 0), "C u = {out:?} ≠ 0");
        }
    }

    /// Rank–nullity: rank + #nullspace vectors = #columns.
    #[test]
    fn rank_nullity_theorem(m in matrix_strategy()) {
        prop_assert_eq!(rank(&m) + nullspace(&m).len(), m.cols());
    }

    /// The HNF integer nullspace agrees with the rational route: same
    /// dimension, and every lattice vector annihilates the matrix.
    #[test]
    fn hnf_nullspace_matches_rational(m in matrix_strategy()) {
        let lattice = rasengan::math::integer_nullspace(&m);
        prop_assert_eq!(lattice.len(), nullspace(&m).len());
        for u in &lattice {
            let out = m.mul_vec(u);
            prop_assert!(out.iter().all(|&v| v == 0), "lattice vector leaks: {out:?}");
        }
    }

    /// `U·A = H` holds exactly for the tracked unimodular transform.
    #[test]
    fn hnf_transform_identity(m in matrix_strategy()) {
        let hnf = rasengan::math::hermite_normal_form(&m);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let mut acc = 0i64;
                for k in 0..m.rows() {
                    acc += hnf.u[(i, k)] * m[(k, j)];
                }
                prop_assert_eq!(acc, hnf.h[(i, j)]);
            }
        }
    }

    /// Transition application is unitary (norm preserved) and exactly
    /// inverted by negative time.
    #[test]
    fn transition_unitary_and_invertible((u, bits) in ternary_and_state(), t in -2.0f64..2.0) {
        let tr = Transition::from_u(&u);
        let mut s = SparseState::from_bits(&bits);
        s.apply_transition(&tr, t);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
        s.apply_transition(&tr, -t);
        let original = rasengan::qsim::sparse::label_from_bits(&bits);
        prop_assert!((s.probability(original) - 1.0).abs() < 1e-9);
    }

    /// The partner relation is an involution: partner(partner(x)) = x.
    #[test]
    fn partner_is_involution((u, bits) in ternary_and_state()) {
        let tr = Transition::from_u(&u);
        let x = rasengan::qsim::sparse::label_from_bits(&bits);
        if let Some(p) = tr.partner(x) {
            prop_assert_eq!(tr.partner(p), Some(x));
            prop_assert_ne!(p, x);
        }
    }

    /// Shot apportionment always conserves the total budget and never
    /// hands shots to zero-probability states unless forced.
    #[test]
    fn apportionment_conserves_total(
        probs in prop::collection::vec(0.0f64..1.0, 1..12),
        total in 0usize..4096,
    ) {
        // Guard the all-zero case the API rejects.
        let mut probs = probs;
        if probs.iter().sum::<f64>() == 0.0 {
            probs[0] = 0.5;
        }
        let shares = apportion_shots(&probs, total);
        prop_assert_eq!(shares.iter().sum::<usize>(), total);
        prop_assert_eq!(shares.len(), probs.len());
    }

    /// Simplification never increases the basis cost and preserves the
    /// number of vectors and their membership in the nullspace lattice.
    #[test]
    fn simplification_soundness(m in matrix_strategy()) {
        let basis: Vec<Vec<i64>> = nullspace(&m)
            .into_iter()
            .filter(|u| u.iter().all(|&v| v.abs() <= 1))
            .collect();
        prop_assume!(!basis.is_empty());
        let result = simplify_basis(&basis);
        prop_assert_eq!(result.basis.len(), basis.len());
        prop_assert!(result.cost_after <= result.cost_before);
        for u in &result.basis {
            let out = m.mul_vec(u);
            prop_assert!(out.iter().all(|&v| v == 0), "simplified vector left nullspace");
        }
    }

    /// Theorem 1 coverage on random assignment-style (TU) systems: the
    /// default chain (m rounds of m transition Hamiltonians) reaches the
    /// whole feasible set from any feasible seed.
    #[test]
    fn theorem1_coverage_on_random_assignment_systems(
        groups in prop::collection::vec(2usize..4, 1..4),
    ) {
        use rasengan::problems::{Objective, Problem, Sense};
        // One one-hot constraint per group of variables.
        let n: usize = groups.iter().sum();
        let mut rows = Vec::new();
        let mut offset = 0;
        let mut seed_bits = vec![0i64; n];
        for &g in &groups {
            let mut row = vec![0i64; n];
            for j in 0..g {
                row[offset + j] = 1;
            }
            seed_bits[offset] = 1;
            rows.push(row);
            offset += g;
        }
        let p = Problem::new(
            "prop-assign",
            IntMatrix::from_rows(&rows),
            vec![1; groups.len()],
            Objective::linear(vec![1.0; n]),
            Sense::Minimize,
        )
        .unwrap()
        .with_initial_feasible(seed_bits.clone())
        .unwrap();

        let feasible: usize = groups.iter().product();
        let basis = rasengan::core::problem_basis(&p).unwrap();
        let chain = build_chain(
            &basis,
            rasengan::qsim::sparse::label_from_bits(&seed_bits),
            &ChainConfig::default(),
        );
        prop_assert_eq!(chain.reached_states, feasible,
            "chain covered {} of {} feasible states", chain.reached_states, feasible);
    }

    /// The peephole optimizer never changes the circuit's unitary and
    /// never grows the gate count.
    #[test]
    fn peephole_preserves_semantics(ops in prop::collection::vec((0usize..8, 0usize..3, 0usize..3, -1.5f64..1.5), 1..25)) {
        let n = 3;
        let mut c = Circuit::new(n);
        for (kind, a, b, t) in ops {
            let b2 = if a == b { (b + 1) % n } else { b };
            let g = match kind {
                0 => Gate::X(a),
                1 => Gate::H(a),
                2 => Gate::Rz(a, t),
                3 => Gate::Ry(a, t),
                4 => Gate::Cx(a, b2),
                5 => Gate::Rzz(a, b2, t),
                6 => Gate::Phase(a, t),
                _ => Gate::Cp(a, b2, t),
            };
            c.push(g);
        }
        let opt = optimize(&c);
        prop_assert!(opt.len() <= c.len());
        prop_assert!(
            equivalent_up_to_phase(&c, &opt, 1e-8),
            "peephole changed semantics ({} -> {} gates)",
            c.len(),
            opt.len()
        );
    }

    /// Chain construction reaches at least as many states as any single
    /// operator could, and pruning never reduces coverage.
    #[test]
    fn pruning_preserves_coverage(seed_bits in prop::collection::vec(0i64..=1, 3..7)) {
        let n = seed_bits.len();
        // One-hot-ish basis: adjacent swaps, always ternary.
        let basis: Vec<Vec<i64>> = (0..n - 1)
            .map(|i| {
                let mut u = vec![0i64; n];
                u[i] = 1;
                u[i + 1] = -1;
                u
            })
            .collect();
        let seed = rasengan::qsim::sparse::label_from_bits(&seed_bits);
        let pruned = build_chain(&basis, seed, &ChainConfig::default());
        let unpruned = build_chain(
            &basis,
            seed,
            &ChainConfig { prune: false, early_stop: false, ..ChainConfig::default() },
        );
        prop_assert_eq!(pruned.reached_states, unpruned.reached_states);
        prop_assert!(pruned.ops.len() <= unpruned.ops.len());
    }
}

/// A random circuit over `n` qubits from encoded op tuples. With
/// `sparse_safe` the gate pool is restricted to the label-permutation /
/// diagonal set the sparse backend (and the fused sparse kernels)
/// support — no H/Rx/Ry.
fn random_circuit(n: usize, ops: &[(usize, usize, usize, f64)], sparse_safe: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, t) in ops {
        let a = a % n;
        let b = {
            let b = b % n;
            if a == b {
                (b + 1) % n
            } else {
                b
            }
        };
        let g = if sparse_safe {
            match kind % 12 {
                0 => Gate::X(a),
                1 => Gate::Y(a),
                2 => Gate::Z(a),
                3 => Gate::Rz(a, t),
                4 => Gate::Phase(a, t),
                5 => Gate::Cx(a, b),
                6 => Gate::Cz(a, b),
                7 => Gate::Swap(a, b),
                8 => Gate::Rzz(a, b, t),
                9 => Gate::Cp(a, b, t),
                10 => Gate::Mcx {
                    controls: vec![a],
                    target: b,
                },
                _ => Gate::Mcp {
                    controls: vec![a],
                    target: b,
                    theta: t,
                },
            }
        } else {
            match kind % 13 {
                0 => Gate::X(a),
                1 => Gate::Y(a),
                2 => Gate::Z(a),
                3 => Gate::H(a),
                4 => Gate::Rx(a, t),
                5 => Gate::Ry(a, t),
                6 => Gate::Rz(a, t),
                7 => Gate::Phase(a, t),
                8 => Gate::Cx(a, b),
                9 => Gate::Cz(a, b),
                10 => Gate::Swap(a, b),
                11 => Gate::Rzz(a, b, t),
                _ => Gate::Cp(a, b, t),
            }
        };
        c.push(g);
    }
    c
}

proptest! {
    /// Fused execution is the identity transformation on semantics:
    /// compiling any random circuit and running its noise-free plan
    /// lands within 1e-9 statevector distance of gate-by-gate dense
    /// execution, without drawing a random number.
    #[test]
    fn fused_dense_matches_gate_by_gate(
        ops in prop::collection::vec((0usize..13, 0usize..5, 0usize..5, -2.0f64..2.0), 1..40),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rasengan::qsim::{DenseState, DenseTrajectoryRunner, NoiseModel, Program};
        let n = 5;
        let c = random_circuit(n, &ops, false);
        let reference = DenseState::from_circuit(&c);
        let program = Program::compile(&c);
        let noise = NoiseModel::noise_free();
        prop_assert!(program.fusion_stats(&noise).steps <= c.len());
        let mut rng = StdRng::seed_from_u64(0);
        let mut runner = DenseTrajectoryRunner::new(&program, &noise);
        let fused = runner.run(&mut rng);
        let dist = reference
            .amplitudes()
            .iter()
            .zip(fused.amplitudes())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        prop_assert!(dist <= 1e-9, "statevector distance {dist:e}");
        prop_assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(0).gen::<u64>());
    }

    /// The same differential against the sparse backend: a circuit
    /// from the permutation/diagonal gate pool, behind an X column that
    /// prepares the basis input `label`, runs through the noise-free
    /// plan and matches gate-by-gate sparse execution from `label`.
    #[test]
    fn fused_sparse_matches_gate_by_gate(
        ops in prop::collection::vec((0usize..12, 0usize..5, 0usize..5, -2.0f64..2.0), 1..40),
        label in 0u64..32,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rasengan::qsim::{DenseTrajectoryRunner, Label, NoiseModel, Program};
        let n = 5;
        let body = random_circuit(n, &ops, true);
        let mut reference = SparseState::basis_state(n, label as Label);
        reference.run(&body).unwrap();
        let mut c = Circuit::new(n);
        for q in (0..n).filter(|q| label >> q & 1 == 1) {
            c.x(q);
        }
        for g in body.gates() {
            c.push(g.clone());
        }
        let program = Program::compile(&c);
        let mut runner = DenseTrajectoryRunner::new(&program, &NoiseModel::noise_free());
        let fused = runner.run(&mut StdRng::seed_from_u64(0));
        let dist = (0..1u64 << n)
            .map(|l| (reference.amplitude(l as Label) - fused.amplitude(l)).norm_sqr())
            .sum::<f64>()
            .sqrt();
        prop_assert!(dist <= 1e-9, "sparse distance {dist:e}");
    }

    /// Noise channels are fusion barriers: a fused trajectory visits
    /// the same attachment points with the same error rates as the
    /// unfused reference, so both draw identical RNG streams — the
    /// states match bitwise and the generators stay in lockstep.
    #[test]
    fn fused_trajectory_consumes_rng_identically(
        ops in prop::collection::vec((0usize..13, 0usize..4, 0usize..4, -2.0f64..2.0), 1..30),
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rasengan::qsim::exec::DenseTrajectoryRunner;
        use rasengan::qsim::{noise, NoiseModel, Program};
        let n = 4;
        let c = random_circuit(n, &ops, false);
        let noise_model = NoiseModel::ibm_like(0.02, 0.08, 0.01).with_amplitude_damping(0.01);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let reference = noise::run_dense_trajectory(&c, &noise_model, &mut rng_a);
        let program = Program::compile(&c);
        let mut runner = DenseTrajectoryRunner::new(&program, &noise_model);
        let fused = runner.run(&mut rng_b);
        prop_assert_eq!(reference.amplitudes(), fused.amplitudes());
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
    }
}

proptest! {
    /// Fusion accounting is exhaustive: for any circuit and any noise
    /// regime, every source gate is either fused into a run or
    /// executed as a noise barrier — `gates_fused + barriers ==
    /// gate_count` — and the per-kind counters are self-consistent.
    /// (The counters are tallied inside the same walk that builds the
    /// executed plan, so this pins the plan itself, not a shadow.)
    #[test]
    fn fusion_counters_account_for_every_gate(
        ops in prop::collection::vec((0usize..13, 0usize..5, 0usize..5, -2.0f64..2.0), 1..40),
        p1 in 0.0f64..0.01,
        p2 in 0.0f64..0.01,
        quiet1 in 0u64..2,
        quiet2 in 0u64..2,
    ) {
        use rasengan::qsim::{NoiseModel, Program};
        let n = 5;
        let c = random_circuit(n, &ops, false);
        let program = Program::compile(&c);
        // Four activity regimes reachable by zeroing either channel:
        // quiet/quiet (full fusion), mixed, and hot/hot (all barriers).
        let noise = NoiseModel::ibm_like(
            if quiet1 == 0 { 0.0 } else { p1.max(1e-4) },
            if quiet2 == 0 { 0.0 } else { p2.max(1e-4) },
            0.01,
        );
        let stats = program.fusion_stats(&noise);
        prop_assert_eq!(stats.gate_count, program.gate_count());
        prop_assert_eq!(
            stats.steps,
            stats.barriers + stats.one_q_runs + stats.diagonal_runs + stats.permutation_runs
        );
        prop_assert_eq!(
            stats.gates_fused + stats.barriers,
            stats.gate_count,
            "every gate must be fused or a barrier: {stats:?}"
        );
        prop_assert_eq!(
            stats.gates_fused,
            stats.one_q_gates + stats.diagonal_gates + stats.permutation_gates
        );
        // Runs partition their gates: counts and maxima stay bounded,
        // and a nonzero gate tally implies at least one run.
        prop_assert!(stats.one_q_runs <= stats.one_q_gates);
        prop_assert!(stats.diagonal_runs <= stats.diagonal_gates);
        prop_assert!(stats.permutation_runs <= stats.permutation_gates);
        prop_assert_eq!(stats.one_q_runs == 0, stats.one_q_gates == 0);
        prop_assert_eq!(stats.diagonal_runs == 0, stats.diagonal_gates == 0);
        prop_assert_eq!(stats.permutation_runs == 0, stats.permutation_gates == 0);
        prop_assert!(stats.diagonal_run_len_max <= stats.diagonal_gates);
        prop_assert!(stats.permutation_run_len_max <= stats.permutation_gates);
        // With every channel active the plan degenerates to
        // gate-by-gate: nothing fuses.
        let all_hot = program.fusion_stats(&NoiseModel::ibm_like(0.002, 0.01, 0.01));
        prop_assert_eq!(all_hot.gates_fused, 0);
        prop_assert_eq!(all_hot.barriers, all_hot.gate_count);
        prop_assert_eq!(all_hot.steps, all_hot.gate_count);
    }

    /// Histogram merge is associative and commutative, and merging is
    /// equivalent to recording the concatenated sample stream — the
    /// property that makes per-shard histograms safe to aggregate in
    /// any order.
    #[test]
    fn histogram_merge_associative_commutative(
        xs in prop::collection::vec(0u64..1_000_000_000, 0..60),
        ys in prop::collection::vec(0u64..1_000_000_000, 0..60),
        zs in prop::collection::vec(0u64..1_000_000_000, 0..60),
    ) {
        use rasengan::obs::Histogram;
        let of = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (of(&xs), of(&ys), of(&zs));

        // Commutativity: a⊕b == b⊕a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a⊕b)⊕c == a⊕(b⊕c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merge == record-all: the merged histogram is exactly the one
        // built from the concatenated samples.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&ab_c, &of(&all));
        prop_assert_eq!(ab_c.count(), all.len() as u64);

        // Percentiles stay within the observed range (bucket upper
        // bounds are clamped to the true max).
        if !all.is_empty() {
            let max = *all.iter().max().unwrap();
            let min = *all.iter().min().unwrap();
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let p = ab_c.percentile(q);
                prop_assert!(p <= max, "p{q} = {p} above max {max}");
                prop_assert!(ab_c.percentile(1.0) >= min);
            }
        }
    }

    /// A problem's fingerprint is invariant under write→parse round
    /// trips and under comment / blank-line / whitespace / rename
    /// perturbations of its text form, across the whole registry —
    /// the identity the service's result cache keys on.
    #[test]
    fn fingerprint_invariant_under_text_perturbations(
        idx in 0usize..32,
        pad in 1usize..4,
        rename in 0u64..1000,
    ) {
        use rasengan::problems::io::{parse_problem, write_problem};
        use rasengan::problems::{all_ids, benchmark};

        let ids = all_ids();
        let p = benchmark(ids[idx % ids.len()]);
        let fp = p.fingerprint();

        // Round trip through the text format.
        let text = write_problem(&p);
        let q = parse_problem(&text).unwrap();
        prop_assert_eq!(q.fingerprint(), fp);

        // Perturb: rename, indent, widen whitespace runs, sprinkle
        // comments and blank lines.
        let mut noisy = format!("# perturbed copy\n\nname perturbed-{rename}\n");
        for line in text.lines() {
            if line.starts_with("name ") {
                continue;
            }
            let widened = line
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(&" ".repeat(pad));
            noisy.push_str("  ");
            noisy.push_str(&widened);
            noisy.push_str("   # trailing comment\n\n");
        }
        let r = parse_problem(&noisy).unwrap();
        prop_assert_eq!(r.fingerprint(), fp);

        // And the perturbed instance still round-trips to the same
        // fingerprint through its own canonical form.
        let rr = parse_problem(&write_problem(&r)).unwrap();
        prop_assert_eq!(rr.fingerprint(), fp);
    }
}

prop_compose! {
    /// A random sparse-coordinate QUBO text. Coefficients are dyadic
    /// (k/4) so their decimal rendering round-trips exactly.
    fn qubo_text()(n in 2usize..7)
        (diag in prop::collection::vec(-12i32..=12, n),
         pairs in prop::collection::vec((0usize..8, 0usize..8, -12i32..=12), 0..8),
         maximize in 0u8..2,
         n in Just(n))
        -> (String, usize)
    {
        use std::collections::BTreeMap;
        let mut coupling: BTreeMap<(usize, usize), i32> = BTreeMap::new();
        for (a, b, w) in pairs {
            let (i, j) = (a % n, b % n);
            if i != j && w != 0 {
                coupling.insert((i.min(j), i.max(j)), w);
            }
        }
        let diag: Vec<(usize, i32)> = diag
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c != 0)
            .collect();
        let mut text = String::new();
        if maximize == 1 {
            text.push_str("s max\n");
        }
        text.push_str(&format!("p qubo 0 {n} {} {}\n", diag.len(), coupling.len()));
        for &(i, c) in &diag {
            text.push_str(&format!("{i} {i} {}\n", c as f64 * 0.25));
        }
        for (&(i, j), &w) in &coupling {
            text.push_str(&format!("{i} {j} {}\n", w as f64 * 0.25));
        }
        (text, n)
    }
}

prop_compose! {
    /// A random satisfiable LP text over `n` binaries: integer data,
    /// each row's bound hit by a known witness assignment so lowering
    /// (slack sizing + seed search) always succeeds.
    fn lp_text()(n in 2usize..6)
        (obj in prop::collection::vec(-5i32..=5, n),
         rows in prop::collection::vec(
             (prop::collection::vec(0u8..=2, n),
              prop::collection::vec(0u8..2, n),
              0u8..3),
             1..4),
         maximize in 0u8..2,
         n in Just(n))
        -> String
    {
        let mut text = String::from(if maximize == 1 { "Maximize\n" } else { "Minimize\n" });
        text.push_str(" obj: 0");
        for (i, &c) in obj.iter().enumerate() {
            if c != 0 {
                let (sign, mag) = if c < 0 { ('-', -c) } else { ('+', c) };
                text.push_str(&format!(" {sign} {mag} x{i}"));
            }
        }
        text.push('\n');
        text.push_str("Subject To\n");
        for (k, (coeffs, witness, rel)) in rows.iter().enumerate() {
            let mut coeffs = coeffs.clone();
            if coeffs.iter().all(|&a| a == 0) {
                coeffs[0] = 1;
            }
            // Bound = the witness point's row value, so the row is
            // satisfiable under <=, >=, and = alike.
            let bound: i64 = coeffs
                .iter()
                .zip(witness)
                .map(|(&a, &m)| a as i64 * m as i64)
                .sum();
            text.push_str(&format!(" c{k}: 0"));
            for (i, &a) in coeffs.iter().enumerate() {
                if a != 0 {
                    text.push_str(&format!(" + {a} x{i}"));
                }
            }
            let rel = match rel {
                0 => "<=",
                1 => ">=",
                _ => "=",
            };
            text.push_str(&format!(" {rel} {bound}\n"));
        }
        text.push_str("Binary\n");
        for i in 0..n {
            text.push_str(&format!(" x{i}"));
        }
        text.push_str("\nEnd\n");
        text
    }
}

proptest! {
    /// QUBO parse→write→parse is the identity on the lowered problem:
    /// fingerprint, objective, and sense all survive the trip.
    #[test]
    fn qubo_parse_write_parse_round_trip((text, n) in qubo_text()) {
        use rasengan::problems::ingest::qubo::{parse_qubo, write_qubo};
        let p = parse_qubo(&text, false).unwrap();
        prop_assert_eq!(p.n_vars(), n);
        let q = parse_qubo(&write_qubo(&p, None).unwrap(), false).unwrap();
        prop_assert_eq!(q.fingerprint(), p.fingerprint());
        prop_assert_eq!(&q.objective().linear, &p.objective().linear);
        prop_assert_eq!(&q.objective().quadratic, &p.objective().quadratic);
        prop_assert_eq!(q.sense(), p.sense());
    }

    /// A QUBO's fingerprint is invariant under entry-line reordering,
    /// comments (both `c` and `#` styles), blank lines, and whitespace
    /// padding of its text form.
    #[test]
    fn qubo_fingerprint_invariant_under_perturbations(
        (text, _) in qubo_text(),
        rot in 0usize..8,
        pad in 1usize..4,
    ) {
        use rasengan::problems::ingest::qubo::parse_qubo;
        let fp = parse_qubo(&text, false).unwrap().fingerprint();
        let (prefix, mut entries): (Vec<&str>, Vec<&str>) = text
            .lines()
            .partition(|l| l.starts_with('s') || l.starts_with('p'));
        if !entries.is_empty() {
            let shift = rot % entries.len();
            entries.rotate_left(shift);
        }
        let mut noisy = String::from("c leading comment\n\n");
        for line in prefix.iter().chain(&entries) {
            let widened = line
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(&" ".repeat(pad));
            noisy.push_str(&format!("  {widened}   # trailing\n\nc between\n"));
        }
        prop_assert_eq!(parse_qubo(&noisy, false).unwrap().fingerprint(), fp);
    }

    /// LP parse→write→parse preserves the mathematical content
    /// (constraint rows up to order, objective, sense), and one
    /// write→parse trip is a canonicalizing fixed point: a second trip
    /// reproduces the fingerprint exactly.
    #[test]
    fn lp_parse_write_parse_round_trip(text in lp_text()) {
        use rasengan::problems::ingest::lp::{parse_lp, write_lp};
        let p = parse_lp(&text).unwrap();
        let q = parse_lp(&write_lp(&p).unwrap()).unwrap();
        prop_assert_eq!(q.n_vars(), p.n_vars());
        prop_assert_eq!(q.sense(), p.sense());
        prop_assert_eq!(&q.objective().linear, &p.objective().linear);
        let rows = |pr: &rasengan::problems::Problem| {
            let mut rows: Vec<(Vec<i64>, i64)> = pr
                .constraints()
                .iter_rows()
                .zip(pr.rhs().iter())
                .map(|(r, &b)| (r.to_vec(), b))
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(rows(&q), rows(&p));
        let r = parse_lp(&write_lp(&q).unwrap()).unwrap();
        prop_assert_eq!(r.fingerprint(), q.fingerprint());
    }

    /// An LP's fingerprint is invariant under constraint-row
    /// permutation, comments, blank lines, and whitespace padding —
    /// the canonical row sort inside the parser at work.
    #[test]
    fn lp_fingerprint_invariant_under_perturbations(
        text in lp_text(),
        rot in 0usize..8,
        pad in 1usize..4,
    ) {
        use rasengan::problems::ingest::lp::parse_lp;
        let fp = parse_lp(&text).unwrap().fingerprint();
        let mut noisy = String::from("\\ leading comment\n\n");
        let mut in_constraints = false;
        let mut held: Vec<String> = Vec::new();
        for line in text.lines() {
            let is_section = !line.starts_with(' ');
            if is_section && in_constraints {
                // Flush the permuted constraint block.
                let shift = if held.is_empty() { 0 } else { rot % held.len() };
                held.rotate_left(shift);
                for c in held.drain(..) {
                    noisy.push_str(&format!("{c}   \\ trailing\n\n"));
                }
                in_constraints = false;
            }
            if line == "Subject To" {
                in_constraints = true;
                noisy.push_str("Subject To\n");
                continue;
            }
            if in_constraints {
                let widened = line
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(&" ".repeat(pad));
                held.push(format!("   {widened}"));
                continue;
            }
            noisy.push_str(line);
            noisy.push('\n');
        }
        prop_assert_eq!(parse_lp(&noisy).unwrap().fingerprint(), fp);
    }

    /// Penalty recovery inverts `write_qubo` on random one-hot systems:
    /// exporting a linear-objective problem whose constraints are
    /// disjoint cardinality rows and re-parsing with `recover = true`
    /// restores every row and the exact residual objective.
    #[test]
    fn qubo_penalty_recovery_inverts_export(
        groups in prop::collection::vec(2usize..5, 1..4),
        coeffs in prop::collection::vec(-4i32..=4, 12),
        maximize in 0u8..2,
    ) {
        use rasengan::math::IntMatrix;
        use rasengan::problems::ingest::qubo::{parse_qubo, write_qubo};
        use rasengan::problems::{Objective, Problem, Sense};
        let n: usize = groups.iter().sum();
        let mut rows = Vec::new();
        let mut seed_bits = vec![0i64; n];
        let mut offset = 0;
        for &g in &groups {
            let mut row = vec![0i64; n];
            for j in 0..g {
                row[offset + j] = 1;
            }
            seed_bits[offset] = 1;
            rows.push(row);
            offset += g;
        }
        // Integer objective coefficients keep the penalty fold and its
        // inverse exact in floating point.
        let linear: Vec<f64> = (0..n).map(|i| coeffs[i % coeffs.len()] as f64).collect();
        let sense = if maximize == 1 { Sense::Maximize } else { Sense::Minimize };
        let p = Problem::new(
            "prop-recover",
            IntMatrix::from_rows(&rows),
            vec![1; groups.len()],
            Objective::linear(linear.clone()),
            sense,
        )
        .unwrap()
        .with_initial_feasible(seed_bits)
        .unwrap();

        let q = parse_qubo(&write_qubo(&p, None).unwrap(), true).unwrap();
        prop_assert_eq!(q.n_vars(), n);
        prop_assert_eq!(q.sense(), sense);
        prop_assert_eq!(q.n_constraints(), groups.len());
        let mut got: Vec<(Vec<i64>, i64)> = q
            .constraints()
            .iter_rows()
            .zip(q.rhs().iter())
            .map(|(r, &b)| (r.to_vec(), b))
            .collect();
        got.sort();
        let mut want: Vec<(Vec<i64>, i64)> = rows.into_iter().map(|r| (r, 1)).collect();
        want.sort();
        prop_assert_eq!(got, want);
        prop_assert_eq!(&q.objective().linear, &linear);
        prop_assert!(q.objective().quadratic.is_empty(), "penalty couplings must be fully lifted");
    }
}

// --- consistent-hash ring (serve::fabric) -------------------------------

/// Owner assignment of the full 32-instance registry corpus on a ring
/// over `n` identically-configured nodes.
fn registry_owner_counts(n: usize) -> Vec<usize> {
    use rasengan::problems::registry::{all_ids, benchmark};
    use rasengan::serve::{Ring, DEFAULT_VNODES};
    let members: Vec<(String, String)> = (0..n)
        .map(|i| (format!("node-{i}"), format!("10.0.0.{i}:7878")))
        .collect();
    let ring = Ring::build(&members, DEFAULT_VNODES);
    let mut counts = vec![0usize; n];
    for id in all_ids() {
        let fp = benchmark(id).fingerprint();
        let (owner, _) = ring.owner_of(fp).expect("non-empty ring");
        let idx: usize = owner
            .strip_prefix("node-")
            .and_then(|s| s.parse().ok())
            .expect("owner id shape");
        counts[idx] += 1;
    }
    counts
}

/// The ring spreads the registry corpus: at 2 and 4 nodes every node
/// owns work and nobody owns more than 3x the fair share; at 8 nodes
/// (4 keys per node in expectation) the bound loosens but no node may
/// own more than half the corpus.
#[test]
fn ring_balances_the_registry_corpus() {
    for n in [2usize, 4] {
        let counts = registry_owner_counts(n);
        let fair = 32.0 / n as f64;
        assert!(
            counts.iter().all(|&c| c >= 1),
            "every node must own work at n={n}: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| (c as f64) <= fair * 3.0),
            "no node may own >3x fair share at n={n}: {counts:?}"
        );
    }
    let counts = registry_owner_counts(8);
    assert_eq!(counts.iter().sum::<usize>(), 32);
    assert!(
        counts.iter().all(|&c| c <= 16),
        "no node may own half the corpus at n=8: {counts:?}"
    );
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 6,
        "at n=8 at least 6 of 8 nodes must own work: {counts:?}"
    );
}

proptest! {
    /// Consistent hashing's defining property, exactly: when a node
    /// leaves, only the keys it owned move; when a node joins, keys
    /// either stay put or move to the newcomer. No third-party churn.
    #[test]
    fn ring_remaps_minimally_on_join_and_leave(
        n in 2usize..7,
        leave in 0usize..7,
        key_halves in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..64),
    ) {
        use rasengan::serve::{Ring, DEFAULT_VNODES};
        let keys: Vec<u128> = key_halves
            .into_iter()
            .map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
            .collect();
        let member = |i: usize| (format!("node-{i}"), format!("10.0.0.{i}:7878"));
        let members: Vec<(String, String)> = (0..n).map(member).collect();
        let ring = Ring::build(&members, DEFAULT_VNODES);

        // Leave: drop one member, keys owned by others must not move.
        let leave = leave % n;
        let rest: Vec<(String, String)> =
            members.iter().filter(|(id, _)| *id != format!("node-{leave}")).cloned().collect();
        let smaller = Ring::build(&rest, DEFAULT_VNODES);
        for &key in &keys {
            let before = ring.owner_of(key).expect("owner").0.to_string();
            let after = smaller.owner_of(key).expect("owner").0.to_string();
            if before != format!("node-{leave}") {
                prop_assert_eq!(
                    &before, &after,
                    "key {:#x} moved off a surviving node on leave", key
                );
            } else {
                prop_assert_ne!(&after, &format!("node-{leave}"));
            }
        }

        // Join: add a fresh member, keys either stay or go to it.
        let mut grown = members.clone();
        grown.push(member(n));
        let bigger = Ring::build(&grown, DEFAULT_VNODES);
        for &key in &keys {
            let before = ring.owner_of(key).expect("owner").0.to_string();
            let after = bigger.owner_of(key).expect("owner").0.to_string();
            prop_assert!(
                after == before || after == format!("node-{n}"),
                "key {:#x} hopped between incumbents on join: {} -> {}", key, before, after
            );
        }

        // Build order never matters: the ring is a pure function of
        // the member set.
        let mut shuffled = grown.clone();
        shuffled.reverse();
        let same = Ring::build(&shuffled, DEFAULT_VNODES);
        for &key in &keys {
            prop_assert_eq!(bigger.owner_of(key), same.owner_of(key));
        }
    }
}

//! `Problem::is_feasible_label` against `Problem::is_feasible` on the
//! unpacked bits: the two must agree on every `u128` label, with the
//! bits at or above `n_vars` ignored. `Problem::preserves_feasibility`
//! against the dense product `C u = 0` on ternary moves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasengan_math::IntMatrix;
use rasengan_problems::registry::{all_ids, benchmark};
use rasengan_problems::{enumerate_feasible, Objective, Problem, Sense};

/// Bit `i` of `label` as `x_i`, for `i < n`; higher bits are dropped.
fn unpack(label: u128, n: usize) -> Vec<i64> {
    (0..n).map(|i| (label >> i & 1) as i64).collect()
}

fn pack(bits: &[i64]) -> u128 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (b as u128) << i)
}

fn random_label(rng: &mut StdRng) -> u128 {
    (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128
}

/// Asserts the label check agrees with the bit-vector check on `label`
/// and on `label` with garbage above `n_vars`; returns the verdict.
fn check(p: &Problem, label: u128, garbage: u128) -> bool {
    let n = p.n_vars();
    let want = p.is_feasible(&unpack(label, n));
    assert_eq!(
        p.is_feasible_label(label),
        want,
        "{}: label {label:#x}",
        p.name()
    );
    if n < 128 {
        let noisy = label | garbage << n;
        assert_eq!(
            p.is_feasible_label(noisy),
            want,
            "{}: label {noisy:#x} (bits past {n} set)",
            p.name()
        );
    }
    want
}

fn problem(name: &str, rows: &[Vec<i64>], rhs: Vec<i64>) -> Problem {
    let n = rows[0].len();
    Problem::new(
        name,
        IntMatrix::from_rows(rows),
        rhs,
        Objective::linear(vec![0.0; n]),
        Sense::Minimize,
    )
    .unwrap()
}

#[test]
fn registry_labels_agree_with_bit_vectors() {
    let mut rng = StdRng::seed_from_u64(0x1abe1);
    let ids = all_ids();
    assert_eq!(ids.len(), 32);
    for id in ids {
        let p = benchmark(id);
        let n = p.n_vars();
        let feasible = enumerate_feasible(&p);
        assert!(!feasible.is_empty(), "{id}");
        for x in &feasible {
            let label = pack(x);
            assert!(check(&p, label, random_label(&mut rng)), "{id}");
            for bit in 0..n {
                check(&p, label ^ 1 << bit, random_label(&mut rng));
            }
        }
        for _ in 0..256 {
            check(&p, random_label(&mut rng), random_label(&mut rng));
        }
    }
}

#[test]
fn hand_built_rows_agree_on_every_label() {
    let big = 1i64 << 40;
    let cases = [
        problem(
            "unit and double coefficients",
            &[vec![1, -1, 2, -2, 1, 0, 0], vec![2, 2, 0, 1, -1, 1, 1]],
            vec![1, 3],
        ),
        problem(
            "2^40 coefficients, negative rhs",
            &[
                vec![big, -big, 1, 0, 0, 0, -1],
                vec![-1, 0, -2, -1, 0, 0, 0],
                vec![0, big, 0, 0, big, -2 * big, 0],
            ],
            vec![0, -3, 0],
        ),
        problem(
            "all-zero row",
            &[vec![0; 6], vec![1, 1, 1, 0, 0, -1]],
            vec![0, 1],
        ),
        problem("all-zero row, nonzero rhs", &[vec![0; 4]], vec![2]),
    ];
    let mut rng = StdRng::seed_from_u64(0x2ba5e);
    for p in &cases {
        let n = p.n_vars();
        let mut verdicts = [0usize; 2];
        for label in 0..1u128 << n {
            verdicts[check(p, label, random_label(&mut rng)) as usize] += 1;
        }
        let expect_feasible = p.name() != "all-zero row, nonzero rhs";
        assert_eq!(verdicts[1] > 0, expect_feasible, "{}", p.name());
        assert!(verdicts[0] > 0, "{}", p.name());
    }
}

#[test]
fn full_width_labels_agree() {
    // 128 variables, so every label bit is a variable: rows reach both
    // ends of the label, with coefficients up to ±2^40.
    let big = 1i64 << 40;
    let mut rows = vec![vec![0i64; 128]; 4];
    rows[0][0] = 1;
    rows[0][127] = 1;
    rows[1][1] = big;
    rows[1][126] = -big;
    rows[1][64] = 2;
    rows[1][65] = -2;
    rows[2][2] = -1;
    rows[2][3] = -1;
    rows[2][100] = -2;
    rows[3][63] = 1;
    rows[3][64] = 1;
    rows[3][127] = -1;
    let p = problem("full width", &rows, vec![1, 0, -1, 1]);
    assert_eq!(p.n_vars(), 128);
    let mut rng = StdRng::seed_from_u64(0x128);
    let mut verdicts = [0usize; 2];
    for _ in 0..50_000 {
        verdicts[check(&p, random_label(&mut rng), 0) as usize] += 1;
    }
    assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    let x = pack(&{
        let mut x = vec![0i64; 128];
        for i in [0, 2, 63] {
            x[i] = 1;
        }
        x
    });
    assert!(check(&p, x, 0));
    assert!(!check(&p, x ^ 1 << 127, 0));
}

/// Asserts `Problem::preserves_feasibility` agrees with the dense
/// product `C u = 0` on the ternary move `u`; returns the verdict.
fn check_move(p: &Problem, u: &[i64]) -> bool {
    let plus = pack(&u.iter().map(|&v| (v == 1) as i64).collect::<Vec<_>>());
    let minus = pack(&u.iter().map(|&v| (v == -1) as i64).collect::<Vec<_>>());
    let want = p.constraints().mul_vec(u).iter().all(|&v| v == 0);
    assert_eq!(
        p.preserves_feasibility(plus, minus),
        want,
        "{}: move {u:?}",
        p.name()
    );
    want
}

#[test]
fn moves_agree_with_dense_products() {
    // Every ternary move over the hand-built systems.
    let big = 1i64 << 40;
    let cases = [
        problem(
            "unit and double coefficients",
            &[vec![1, -1, 2, -2, 1, 0, 0], vec![2, 2, 0, 1, -1, 1, 1]],
            vec![1, 3],
        ),
        problem(
            "2^40 coefficients",
            &[
                vec![big, -big, 1, 0, 0, -1],
                vec![0, big, 0, big, -2 * big, 0],
            ],
            vec![0, 0],
        ),
        problem("one-hot", &[vec![1; 5]], vec![1]),
    ];
    for p in &cases {
        let n = p.n_vars();
        let mut verdicts = [0usize; 2];
        for code in 0..3usize.pow(n as u32) {
            let u: Vec<i64> = (0..n)
                .map(|i| (code / 3usize.pow(i as u32) % 3) as i64 - 1)
                .collect();
            verdicts[check_move(p, &u) as usize] += 1;
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{}", p.name());
    }

    // Differences of feasible points (always in the kernel) and random
    // sparse moves over the registry.
    let mut rng = StdRng::seed_from_u64(0x3071);
    for id in all_ids() {
        let p = benchmark(id);
        let n = p.n_vars();
        let feasible = enumerate_feasible(&p);
        for pair in feasible.windows(2).take(64) {
            let u: Vec<i64> = pair[0].iter().zip(&pair[1]).map(|(a, b)| a - b).collect();
            assert!(check_move(&p, &u), "{id}");
        }
        for _ in 0..256 {
            let u: Vec<i64> = (0..n)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 1,
                    1 => -1,
                    _ => 0,
                })
                .collect();
            check_move(&p, &u);
        }
        // A move touching a column past the problem's variables is
        // never proven.
        assert!(!p.preserves_feasibility(1 << n, 0), "{id}");
        assert!(!p.preserves_feasibility(0, 1 << n), "{id}");
    }
}

//! Solution-quality metrics: ARG (paper Eq. 9), expectations over
//! measured distributions, and in-constraints rates.

use rasengan_problems::{optimum, Problem};
use rasengan_qsim::sparse::bits_from_label;
use rasengan_qsim::Label;
use std::collections::BTreeMap;

/// The approximation ratio gap: `ARG = |(E_opt − E_real) / E_opt|`
/// (Eq. 9). Lower is better; 0 means the algorithm's output matches the
/// optimum.
///
/// # Panics
///
/// Panics if `e_opt == 0` (benchmark generators keep optima nonzero).
///
/// # Example
///
/// ```
/// use rasengan_core::metrics::arg;
/// assert_eq!(arg(4.0, 4.0), 0.0);
/// assert_eq!(arg(4.0, 6.0), 0.5);
/// ```
pub fn arg(e_opt: f64, e_real: f64) -> f64 {
    assert!(e_opt != 0.0, "ARG undefined for zero optimum");
    ((e_opt - e_real) / e_opt).abs()
}

/// A penalty coefficient scaled to dominate the objective: twice the
/// total magnitude of all objective terms, floored at 1. Used both by
/// the penalty-term baselines and by [`expectation`]'s accounting for
/// infeasible outcomes.
pub fn penalty_lambda(problem: &Problem) -> f64 {
    let obj = problem.objective();
    let total: f64 = obj.constant.abs()
        + obj.linear.iter().map(|c| c.abs()).sum::<f64>()
        + obj.quadratic.iter().map(|(_, _, w)| w.abs()).sum::<f64>();
    (2.0 * total).max(1.0)
}

/// Expectation of the objective over a measured distribution, charging
/// infeasible outcomes the penalized objective (how the paper's ARG ends
/// up in the hundreds for penalty methods whose output is mostly
/// infeasible).
pub fn expectation(problem: &Problem, dist: &BTreeMap<Label, f64>, lambda: f64) -> f64 {
    dist.iter()
        .map(|(&label, &p)| p * label_value(problem, label, lambda))
        .sum()
}

/// The value [`expectation`] charges one measured `label`: its objective
/// when it is feasible, its objective penalized at `lambda` otherwise.
pub fn label_value(problem: &Problem, label: Label, lambda: f64) -> f64 {
    let bits = bits_from_label(label, problem.n_vars());
    if problem.is_feasible_label(label) {
        problem.evaluate(&bits)
    } else {
        problem.evaluate_penalized(&bits, lambda)
    }
}

/// Fraction of probability mass on feasible outcomes.
pub fn in_constraints_rate(problem: &Problem, dist: &BTreeMap<Label, f64>) -> f64 {
    pairs_in_constraints_rate(problem, dist.iter().map(|(&l, &p)| (l, p)))
}

/// [`in_constraints_rate`] of `(label, probability)` pairs in ascending
/// label order.
pub(crate) fn pairs_in_constraints_rate(
    problem: &Problem,
    pairs: impl Iterator<Item = (Label, f64)> + Clone,
) -> f64 {
    let total: f64 = pairs.clone().map(|(_, p)| p).sum();
    if total == 0.0 {
        return 0.0;
    }
    let feasible: f64 = pairs
        .filter(|&(l, _)| problem.is_feasible_label(l))
        .map(|(_, p)| p)
        .sum();
    feasible / total
}

/// A concrete measured solution.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// The binary assignment.
    pub bits: Vec<i64>,
    /// Its objective value (unpenalized).
    pub value: f64,
    /// Whether it satisfies the constraints.
    pub feasible: bool,
}

/// The best outcome in a distribution: the best *feasible* outcome if
/// any exists, otherwise the least-penalized infeasible one.
///
/// # Panics
///
/// Panics if the distribution is empty.
pub fn best_solution(problem: &Problem, dist: &BTreeMap<Label, f64>) -> Solution {
    assert!(!dist.is_empty(), "empty distribution");
    let n = problem.n_vars();
    let sense = problem.sense();
    let lambda = penalty_lambda(problem);
    let mut best: Option<(Solution, f64)> = None;
    for &label in dist.keys() {
        let bits = bits_from_label(label, n);
        let feasible = problem.is_feasible_label(label);
        let rank_value = if feasible {
            problem.evaluate(&bits)
        } else {
            problem.evaluate_penalized(&bits, lambda)
        };
        let candidate = Solution {
            value: problem.evaluate(&bits),
            bits,
            feasible,
        };
        let replace = match &best {
            None => true,
            Some((incumbent, inc_rank)) => {
                // Feasible always beats infeasible; ties broken by value.
                (candidate.feasible && !incumbent.feasible)
                    || (candidate.feasible == incumbent.feasible
                        && sense.is_better(rank_value, *inc_rank))
            }
        };
        if replace {
            best = Some((candidate, rank_value));
        }
    }
    best.expect("non-empty distribution").0
}

/// ARG of a distribution against the problem's exact optimum.
pub fn distribution_arg(problem: &Problem, dist: &BTreeMap<Label, f64>) -> f64 {
    let (_, e_opt) = optimum(problem);
    let e_real = expectation(problem, dist, penalty_lambda(problem));
    arg(e_opt, e_real)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_math::IntMatrix;
    use rasengan_problems::{Objective, Sense};

    fn toy() -> Problem {
        // min 1·x1 + 2·x2 + 3·x3  s.t.  x1+x2+x3 = 1 → optimum 1.
        Problem::new(
            "toy",
            IntMatrix::from_rows(&[vec![1, 1, 1]]),
            vec![1],
            Objective::linear(vec![1.0, 2.0, 3.0]),
            Sense::Minimize,
        )
        .unwrap()
    }

    #[test]
    fn arg_basic_values() {
        assert_eq!(arg(2.0, 2.0), 0.0);
        assert_eq!(arg(2.0, 3.0), 0.5);
        assert_eq!(arg(-2.0, -3.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn arg_zero_opt_panics() {
        arg(0.0, 1.0);
    }

    #[test]
    fn expectation_mixes_values() {
        let p = toy();
        let dist = BTreeMap::from([(0b001u128, 0.5), (0b010, 0.5)]);
        // 0.5·1 + 0.5·2 = 1.5
        assert!((expectation(&p, &dist, penalty_lambda(&p)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn expectation_penalizes_infeasible() {
        let p = toy();
        let lambda = penalty_lambda(&p);
        let dist = BTreeMap::from([(0b000u128, 1.0)]); // violates by 1
        assert!((expectation(&p, &dist, lambda) - lambda).abs() < 1e-12);
    }

    #[test]
    fn in_constraints_rate_counts_mass() {
        let p = toy();
        let dist = BTreeMap::from([(0b001u128, 0.6), (0b011, 0.4)]);
        assert!((in_constraints_rate(&p, &dist) - 0.6).abs() < 1e-12);
        assert_eq!(in_constraints_rate(&p, &BTreeMap::new()), 0.0);
    }

    #[test]
    fn best_solution_prefers_feasible() {
        let p = toy();
        // Infeasible 0b000 has value 0 (better raw) but feasible 0b010 wins.
        let dist = BTreeMap::from([(0b000u128, 0.9), (0b010, 0.1)]);
        let best = best_solution(&p, &dist);
        assert!(best.feasible);
        assert_eq!(best.bits, vec![0, 1, 0]);
    }

    #[test]
    fn best_solution_picks_cheapest_feasible() {
        let p = toy();
        let dist = BTreeMap::from([(0b001u128, 0.1), (0b100, 0.9)]);
        let best = best_solution(&p, &dist);
        assert_eq!(best.bits, vec![1, 0, 0]);
        assert_eq!(best.value, 1.0);
    }

    #[test]
    fn distribution_arg_zero_on_optimum() {
        let p = toy();
        let dist = BTreeMap::from([(0b001u128, 1.0)]);
        assert_eq!(distribution_arg(&p, &dist), 0.0);
    }

    #[test]
    fn penalty_lambda_dominates_objective() {
        let p = toy();
        let lambda = penalty_lambda(&p);
        // One unit of violation must cost more than any feasible value.
        assert!(lambda > 3.0);
    }
}

//! Error mitigation by purification (paper §4.3, Fig. 8).
//!
//! Noise can carry measured samples outside the feasible space. The
//! purification layer between segments validates every measured basis
//! state against `C x = b`, removes the violating ones, and renormalizes
//! the surviving distribution before it seeds the next segment.
//!
//! The paper measures the check as negligible: 0.05 ms against ~700 ms
//! of circuit execution per training iteration. In this simulator a
//! noise-free segment executes in microseconds, so the check is not
//! negligible: on Fig. 10 FLP ((4,4), (5,4) and (4,6), 2048 shots, one
//! thread on a 2-vCPU x86-64 VM) purification took 62% of training and
//! execution time when each distinct outcome was unpacked into a bit
//! vector and multiplied through the dense `C` (1.2 µs per label). It
//! now runs [`Problem::is_feasible_label`] on the packed label, a few
//! popcounts per row over masks compiled once per problem, and still
//! takes about half (0.37 µs per label; the default x86-64 target has
//! no `popcnt` instruction, so each popcount is a bit-twiddling
//! sequence).

use rasengan_problems::Problem;
use rasengan_qsim::Label;
use std::collections::BTreeMap;

/// Result of purifying a measured distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct PurifyResult {
    /// The surviving (feasible) outcomes with their raw counts.
    pub feasible: BTreeMap<Label, usize>,
    /// Counts removed as constraint-violating.
    pub removed: usize,
    /// Fraction of the raw counts that was feasible — the
    /// in-constraints rate of this segment's raw output.
    pub in_constraints_rate: f64,
}

/// Validates measured counts against the problem constraints (Fig. 8).
///
/// # Example
///
/// ```
/// use rasengan_core::purify::purify_counts;
/// use rasengan_problems::{Objective, Problem, Sense};
/// use rasengan_math::IntMatrix;
/// use std::collections::BTreeMap;
///
/// let p = Problem::new(
///     "one-hot",
///     IntMatrix::from_rows(&[vec![1, 1]]),
///     vec![1],
///     Objective::linear(vec![0.0, 0.0]),
///     Sense::Minimize,
/// ).unwrap();
/// let counts = BTreeMap::from([(0b01u128, 60), (0b10, 20), (0b11, 20)]);
/// let purified = purify_counts(&p, &counts);
/// assert_eq!(purified.removed, 20);
/// assert!((purified.in_constraints_rate - 0.8).abs() < 1e-12);
/// ```
pub fn purify_counts(problem: &Problem, counts: &BTreeMap<Label, usize>) -> PurifyResult {
    let mut feasible = BTreeMap::new();
    let mut kept = 0usize;
    let mut removed = 0usize;
    for (&label, &count) in counts {
        if problem.is_feasible_label(label) {
            feasible.insert(label, count);
            kept += count;
        } else {
            removed += count;
        }
    }
    let total = kept + removed;
    PurifyResult {
        feasible,
        removed,
        in_constraints_rate: if total == 0 {
            0.0
        } else {
            kept as f64 / total as f64
        },
    }
}

/// Purifies a probability distribution (rather than integer counts):
/// drops infeasible mass, returning the renormalized feasible
/// distribution and the feasible fraction, or `None` if nothing
/// survives.
pub fn purify_distribution(
    problem: &Problem,
    dist: &BTreeMap<Label, f64>,
) -> Option<(BTreeMap<Label, f64>, f64)> {
    let total: f64 = dist.values().sum();
    if total <= 0.0 {
        return None;
    }
    let feasible: BTreeMap<Label, f64> = dist
        .iter()
        .filter(|(&l, _)| problem.is_feasible_label(l))
        .map(|(&l, &p)| (l, p))
        .collect();
    let kept: f64 = feasible.values().sum();
    if kept <= 0.0 {
        return None;
    }
    let rate = kept / total;
    Some((
        feasible.into_iter().map(|(l, p)| (l, p / kept)).collect(),
        rate,
    ))
}

/// Normalizes surviving counts into a probability distribution.
///
/// Returns `None` when nothing survived (the paper's failure mode under
/// heavy damping, Fig. 14b: "no valid state is available for
/// initializing the next segment").
pub fn normalized_distribution(counts: &BTreeMap<Label, usize>) -> Option<BTreeMap<Label, f64>> {
    let total: usize = counts.values().sum();
    if total == 0 {
        return None;
    }
    Some(
        counts
            .iter()
            .map(|(&l, &c)| (l, c as f64 / total as f64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_math::IntMatrix;
    use rasengan_problems::{Objective, Sense};

    fn one_hot(n: usize) -> Problem {
        Problem::new(
            "one-hot",
            IntMatrix::from_rows(&[vec![1; n]]),
            vec![1],
            Objective::linear(vec![0.0; n]),
            Sense::Minimize,
        )
        .unwrap()
    }

    #[test]
    fn figure8_worked_example() {
        // Fig. 8: 100 shots, 20 infeasible removed; |x₁⟩ with 60 counts
        // gets 60/(100−20) × 200 = 150 shots of the next 200-shot
        // segment.
        let p = one_hot(2);
        let counts = BTreeMap::from([(0b01u128, 60), (0b10, 20), (0b11, 15), (0b00, 5)]);
        let purified = purify_counts(&p, &counts);
        assert_eq!(purified.removed, 20);
        let dist = normalized_distribution(&purified.feasible).unwrap();
        let probs: Vec<f64> = dist.values().copied().collect();
        let shares = crate::segment::apportion_shots(&probs, 200);
        // Order: label 0b01 (count 60) then 0b10 (count 20).
        assert_eq!(shares, vec![150, 50]);
    }

    #[test]
    fn fully_feasible_input_passes_through() {
        let p = one_hot(3);
        let counts = BTreeMap::from([(0b001u128, 10), (0b010, 20), (0b100, 30)]);
        let purified = purify_counts(&p, &counts);
        assert_eq!(purified.removed, 0);
        assert_eq!(purified.in_constraints_rate, 1.0);
        assert_eq!(purified.feasible, counts);
    }

    #[test]
    fn fully_infeasible_input_yields_none() {
        let p = one_hot(2);
        let counts = BTreeMap::from([(0b00u128, 50), (0b11, 50)]);
        let purified = purify_counts(&p, &counts);
        assert_eq!(purified.in_constraints_rate, 0.0);
        assert!(normalized_distribution(&purified.feasible).is_none());
    }

    #[test]
    fn empty_counts_rate_is_zero() {
        let p = one_hot(2);
        let purified = purify_counts(&p, &BTreeMap::new());
        assert_eq!(purified.in_constraints_rate, 0.0);
        assert_eq!(purified.removed, 0);
    }

    #[test]
    fn distribution_sums_to_one() {
        let counts = BTreeMap::from([(1u128, 3), (2, 7)]);
        let dist = normalized_distribution(&counts).unwrap();
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((dist[&2u128] - 0.7).abs() < 1e-12);
    }
}

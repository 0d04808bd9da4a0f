//! Error mitigation by purification (paper §4.3, Fig. 8).
//!
//! Noise can carry measured samples outside the feasible space. The
//! purification layer between segments validates every measured basis
//! state against `C x = b`, removes the violating ones, and renormalizes
//! the surviving distribution before it seeds the next segment.
//!
//! The paper measures the check as negligible: 0.05 ms against ~700 ms
//! of circuit execution per training iteration. In this simulator a
//! noise-free segment executes in microseconds, so it is not: on the
//! Fig. 10 FLP instances at 2048 shots the per-label check
//! ([`Problem::is_feasible_label`], a few popcounts per row over masks
//! compiled once per problem) took 34-44% of an execution. So the
//! solver checks labels only where a label can be infeasible:
//!
//! - **Checked per label:** noisy runs; runs with an active fault plan
//!   (a readout burst flips bits even without noise); and noise-free
//!   sampled runs whose closure the solver could not prove.
//! - **Proven once per solve:** a noise-free sampled run with no fault
//!   plan, whose seed is feasible and whose every compiled move `u` has
//!   `C u = 0` for the problem passed ([`Problem::preserves_feasibility`]).
//!   Every label it measures is feasible by construction, so
//!   purification keeps all the mass and only [`renormalize`]s it; with
//!   purification off the raw distribution passes through at rate 1.
//!
//! Either way the result bytes are the same. Separately, a noise-free
//! input batch of a label no operator moves takes all its shots
//! without drawing any.

use rasengan_problems::Problem;
use rasengan_qsim::Label;
use std::collections::BTreeMap;

/// `(label, probability)` pairs in ascending label order.
type Pairs = Vec<(Label, f64)>;

/// Validates a measured distribution against the problem constraints
/// (Fig. 8), given as `(label, probability)` pairs in ascending label
/// order: drops infeasible mass, returning the renormalized feasible
/// distribution and the feasible fraction (the in-constraints rate of
/// the raw output). If nothing survives, the buffer comes back as the
/// error, so a caller that keeps it allocates nothing on failure.
///
/// # Example
///
/// ```
/// use rasengan_core::purify::purify_distribution;
/// use rasengan_problems::{Objective, Problem, Sense};
/// use rasengan_math::IntMatrix;
///
/// let p = Problem::new(
///     "one-hot",
///     IntMatrix::from_rows(&[vec![1, 1]]),
///     vec![1],
///     Objective::linear(vec![0.0, 0.0]),
///     Sense::Minimize,
/// ).unwrap();
/// let raw = vec![(0b01u128, 0.5), (0b10, 0.25), (0b11, 0.25)];
/// let (feasible, rate) = purify_distribution(&p, raw).unwrap();
/// assert_eq!(feasible, vec![(0b01, 0.5 / 0.75), (0b10, 0.25 / 0.75)]);
/// assert_eq!(rate, 0.75);
/// ```
pub fn purify_distribution(problem: &Problem, mut dist: Pairs) -> Result<(Pairs, f64), Pairs> {
    let total: f64 = dist.iter().map(|&(_, p)| p).sum();
    if total <= 0.0 {
        return Err(dist);
    }
    dist.retain(|&(l, _)| problem.is_feasible_label(l));
    let (feasible, kept) = renormalize(dist)?;
    Ok((feasible, kept / total))
}

/// Divides every probability by their sum `kept`, returning the
/// renormalized pairs and `kept`, or the buffer as the error when no
/// mass is left. The last step of [`purify_distribution`], and all of
/// it for a distribution whose labels are feasible by construction.
pub fn renormalize(mut dist: Pairs) -> Result<(Pairs, f64), Pairs> {
    let kept: f64 = dist.iter().map(|&(_, p)| p).sum();
    if kept <= 0.0 {
        return Err(dist);
    }
    for (_, p) in &mut dist {
        *p /= kept;
    }
    Ok((dist, kept))
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
        let raw = normalized_distribution(&counts)
            .unwrap()
            .into_iter()
            .collect();
        let (feasible, rate) = purify_distribution(&p, raw).unwrap();
        assert!((rate - 0.8).abs() < 1e-12, "20 of 100 shots removed");
        let probs: Vec<f64> = feasible.iter().map(|&(_, p)| p).collect();
        let shares = crate::segment::apportion_shots(&probs, 200);
        // Order: label 0b01 (count 60) then 0b10 (count 20).
        assert_eq!(shares, vec![150, 50]);
    }

    #[test]
    fn purify_distribution_drops_and_renormalizes() {
        let p = one_hot(2);
        let dist = vec![(0b00u128, 0.1), (0b01, 0.6), (0b10, 0.2), (0b11, 0.1)];
        let (feasible, rate) = purify_distribution(&p, dist).unwrap();
        // Sums in label order, as the function takes them.
        let kept = 0.6 + 0.2;
        assert_eq!(feasible, vec![(0b01, 0.6 / kept), (0b10, 0.2 / kept)]);
        assert_eq!(rate, kept / (0.1 + 0.6 + 0.2 + 0.1));
        assert!(purify_distribution(&p, vec![(0b11u128, 1.0)]).is_err());
        assert!(purify_distribution(&p, Vec::new()).is_err());
    }

    #[test]
    fn renormalize_is_purification_of_feasible_input() {
        // On feasible labels purification keeps every pair and the
        // whole sum, so skipping the check changes no byte.
        let p = one_hot(3);
        let dist = vec![(0b001u128, 0.3), (0b010, 0.3), (0b100, 0.1)];
        let (renormalized, kept) = renormalize(dist.clone()).unwrap();
        assert_eq!(
            purify_distribution(&p, dist),
            Ok((renormalized, kept / kept))
        );
        assert_eq!(kept / kept, 1.0);
        assert!(renormalize(Vec::new()).is_err());
    }

    #[test]
    fn failed_purification_hands_the_buffer_back() {
        // The executor builds each raw distribution in a spare buffer
        // that it keeps across attempts: a failure must return that
        // buffer, not free it.
        let p = one_hot(2);
        let buffer = |pairs: &[(Label, f64)]| {
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(pairs);
            let ptr = buf.as_ptr();
            (buf, ptr)
        };
        let infeasible = [(0b11u128, 0.5), (0b00, 0.5)];
        let massless = [(0b01u128, 0.0), (0b10, 0.0)];
        for pairs in [&infeasible[..], &massless, &[]] {
            let (buf, ptr) = buffer(pairs);
            let back = purify_distribution(&p, buf).unwrap_err();
            assert_eq!((back.as_ptr(), back.capacity()), (ptr, 64), "{pairs:?}");
        }
        for pairs in [&massless[..], &[]] {
            let (buf, ptr) = buffer(pairs);
            let back = renormalize(buf).unwrap_err();
            assert_eq!((back.as_ptr(), back.capacity()), (ptr, 64), "{pairs:?}");
            assert_eq!(back, pairs, "renormalize leaves a failed buffer as it was");
        }
    }

    #[test]
    fn distribution_sums_to_one() {
        let counts = BTreeMap::from([(1u128, 3), (2, 7)]);
        let dist = normalized_distribution(&counts).unwrap();
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((dist[&2u128] - 0.7).abs() < 1e-12);
        assert!(normalized_distribution(&BTreeMap::new()).is_none());
    }
}

//! Segmented execution (paper §4.2, Fig. 7).
//!
//! The transition chain is partitioned into segments small enough for
//! NISQ depth budgets. Each segment is executed as its own circuit: the
//! previous segment's output distribution decides how the next segment's
//! shot budget is split across input basis states (probability-
//! preserving hand-off), and a column of X gates re-prepares each input
//! state.

use crate::hamiltonian::TransitionHamiltonian;
use rasengan_qsim::{Label, Transition};
use std::ops::Range;

/// One transition operator compiled for repeated execution: the mask
/// form plus the per-shot metadata (`support`, CX cost) that the noisy
/// trajectory loop previously recomputed — and re-allocated — on every
/// shot.
#[derive(Clone, Debug)]
pub struct CompiledTransition {
    /// Mask-form transition applied to the sparse state.
    pub transition: Transition,
    /// Sorted qubits the operator touches (noise attachment points).
    pub support: Vec<usize>,
    /// CX cost of one hardware execution (`34k` model) — the number of
    /// depolarizing noise rolls attached after the operator.
    pub cx_cost: usize,
}

/// A segment compiled once per [`SegmentPlan`] entry and executed across
/// all shots and trajectories: the solver's analogue of
/// `rasengan_qsim::exec::Program` for transition chains. Evolution
/// angles stay per-call parameters (they change across segments'
/// repeated applications), but masks, supports, and costs are fixed.
#[derive(Clone, Debug)]
pub struct SegmentProgram {
    /// Compiled operators, in chain order.
    pub ops: Vec<CompiledTransition>,
    /// The qubits any operator reads or writes: the OR of every
    /// operator's `plus_mask | minus_mask`. Eq. 6 couples `|x⟩` only
    /// with `|x ± u⟩`, so the segment never reads or flips a bit outside
    /// this mask.
    pub support_mask: Label,
}

impl SegmentProgram {
    /// Compiles the operators of one segment.
    pub fn compile(ops: &[TransitionHamiltonian]) -> Self {
        let ops: Vec<CompiledTransition> = ops
            .iter()
            .map(|h| CompiledTransition {
                transition: h.transition().clone(),
                support: h.support(),
                cx_cost: h.cx_cost(),
            })
            .collect();
        let support_mask = ops.iter().fold(0, |mask, op| {
            mask | op.transition.plus_mask | op.transition.minus_mask
        });
        SegmentProgram { ops, support_mask }
    }

    /// CX depth of the whole segment: the sum of its operators' costs.
    pub fn cx_depth(&self) -> usize {
        self.ops.iter().map(|op| op.cx_cost).sum()
    }

    /// Whether any operator has a partner for `label`. If none has, each
    /// operator passes `|label⟩` through unchanged (Eq. 6), so the
    /// segment leaves it at amplitude exactly one and evolving it can
    /// be skipped.
    pub fn moves(&self, label: Label) -> bool {
        self.ops
            .iter()
            .any(|op| op.transition.partner(label).is_some())
    }
}

/// How the chain is split into segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Operator index ranges, in execution order, covering the chain.
    pub segments: Vec<Range<usize>>,
}

impl SegmentPlan {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// Splits a chain into segments whose per-segment CX cost stays within
/// `depth_budget_cx` (at least one operator per segment; a single
/// operator above budget gets its own segment — the paper's "minimal
/// execution circuit depth corresponds to a single transition
/// Hamiltonian").
///
/// # Example
///
/// ```
/// use rasengan_core::hamiltonian::TransitionHamiltonian;
/// use rasengan_core::segment::plan_segments;
///
/// let ops: Vec<_> = [vec![1, -1, 0], vec![0, 1, -1], vec![1, 0, -1]]
///     .into_iter()
///     .map(TransitionHamiltonian::new)
///     .collect();
/// // Each op costs 68 CX; budget 70 → one op per segment.
/// let plan = plan_segments(&ops, 70);
/// assert_eq!(plan.len(), 3);
/// ```
pub fn plan_segments(ops: &[TransitionHamiltonian], depth_budget_cx: usize) -> SegmentPlan {
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut cost = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let c = op.cx_cost();
        if i > start && cost + c > depth_budget_cx {
            segments.push(start..i);
            start = i;
            cost = 0;
        }
        cost += c;
    }
    if start < ops.len() {
        segments.push(start..ops.len());
    }
    SegmentPlan { segments }
}

/// A whole-chain plan (segmentation disabled; opt-3 ablation).
#[allow(clippy::single_range_in_vec_init)] // a one-range plan is the point
pub fn single_segment(ops: &[TransitionHamiltonian]) -> SegmentPlan {
    SegmentPlan {
        segments: if ops.is_empty() {
            Vec::new()
        } else {
            vec![0..ops.len()]
        },
    }
}

/// Splits `total` shots across `probs` proportionally using
/// largest-remainder apportionment, so the shares always sum to `total`
/// and every state with nonzero probability that rounds to zero still
/// competes for remainder shots (Fig. 7's 70/30 example).
///
/// # Panics
///
/// Panics if `probs` is empty or sums to zero while `total > 0`.
///
/// # Example
///
/// ```
/// use rasengan_core::segment::apportion_shots;
///
/// assert_eq!(apportion_shots(&[0.7, 0.3], 100), vec![70, 30]);
/// assert_eq!(apportion_shots(&[0.6, 0.25, 0.15], 200), vec![120, 50, 30]);
/// ```
pub fn apportion_shots(probs: &[f64], total: usize) -> Vec<usize> {
    let mut shares = Vec::new();
    apportion_shots_into(probs, total, &mut shares, &mut Vec::new());
    shares
}

/// [`apportion_shots`] into `shares`, with `remainder` as scratch: both
/// are cleared and refilled, so a caller that keeps them across calls
/// allocates nothing once they have grown.
///
/// # Panics
///
/// Panics if `probs` is empty or sums to zero while `total > 0`.
pub fn apportion_shots_into(
    probs: &[f64],
    total: usize,
    shares: &mut Vec<usize>,
    remainder: &mut Vec<(usize, f64)>,
) {
    assert!(!probs.is_empty(), "cannot apportion to zero states");
    let sum: f64 = probs.iter().sum();
    shares.clear();
    if total == 0 {
        shares.resize(probs.len(), 0);
        return;
    }
    assert!(sum > 0.0, "probabilities sum to zero");

    remainder.clear();
    for (i, p) in probs.iter().enumerate() {
        let quota = p / sum * total as f64;
        shares.push(quota.floor() as usize);
        remainder.push((i, quota - quota.floor()));
    }
    let assigned: usize = shares.iter().sum();
    for &(i, _) in largest_remainders(remainder, total - assigned) {
        shares[i] += 1;
    }
}

/// The (at most) `k` entries of `remainder` that rank first by
/// remainder descending, then index ascending, in no particular order.
/// The order is total, so a selection picks the same set a full sort
/// would, in `O(n)` instead of `O(n log n)`.
fn largest_remainders(remainder: &mut [(usize, f64)], k: usize) -> &[(usize, f64)] {
    let k = k.min(remainder.len());
    if k > 0 && k < remainder.len() {
        remainder.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    &remainder[..k]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(weights: &[usize]) -> Vec<TransitionHamiltonian> {
        weights
            .iter()
            .map(|&k| {
                let mut u = vec![0i64; 8];
                for slot in u.iter_mut().take(k) {
                    *slot = 1;
                }
                TransitionHamiltonian::new(u)
            })
            .collect()
    }

    #[test]
    fn budget_groups_ops() {
        // Costs: 34, 34, 34 → budget 70 fits two per segment.
        let plan = plan_segments(&ops(&[1, 1, 1]), 70);
        assert_eq!(plan.segments, vec![0..2, 2..3]);
    }

    #[test]
    fn oversized_op_gets_own_segment() {
        // Cost 170 over budget 100: still scheduled alone.
        let plan = plan_segments(&ops(&[5, 1]), 100);
        assert_eq!(plan.segments, vec![0..1, 1..2]);
    }

    #[test]
    fn single_segment_covers_everything() {
        let plan = single_segment(&ops(&[1, 2, 3]));
        assert_eq!(plan.segments, vec![0..3]);
        assert!(single_segment(&[]).is_empty());
    }

    #[test]
    fn minimal_budget_gives_one_op_per_segment() {
        let plan = plan_segments(&ops(&[2, 2, 2, 2]), 1);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn apportionment_sums_to_total() {
        for total in [1usize, 7, 100, 1024] {
            let shares = apportion_shots(&[0.5, 0.3, 0.2], total);
            assert_eq!(shares.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn apportionment_matches_figure7() {
        // 70% |x₁⟩, 30% |x₂⟩, 100 shots → 70 and 30.
        assert_eq!(apportion_shots(&[0.7, 0.3], 100), vec![70, 30]);
    }

    #[test]
    fn apportionment_handles_tiny_probabilities() {
        let shares = apportion_shots(&[0.999, 0.001], 10);
        assert_eq!(shares.iter().sum::<usize>(), 10);
        assert_eq!(shares[0], 10);
    }

    #[test]
    fn apportionment_unnormalized_input() {
        // Raw counts work as weights too.
        assert_eq!(apportion_shots(&[60.0, 20.0], 200), vec![150, 50]);
    }

    /// [`apportion_shots`] as it was before the selection: a full sort
    /// of the remainders.
    fn apportion_by_sort(probs: &[f64], total: usize) -> Vec<usize> {
        let sum: f64 = probs.iter().sum();
        if total == 0 {
            return vec![0; probs.len()];
        }
        let quotas: Vec<f64> = probs.iter().map(|p| p / sum * total as f64).collect();
        let mut shares: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let assigned: usize = shares.iter().sum();
        let mut remainder: Vec<(usize, f64)> = quotas
            .iter()
            .enumerate()
            .map(|(i, q)| (i, q - q.floor()))
            .collect();
        remainder.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, _) in remainder.into_iter().take(total - assigned) {
            shares[i] += 1;
        }
        shares
    }

    #[test]
    fn selected_remainders_match_a_full_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA990);
        // Weights drawn from a small set tie often, so equal remainders
        // must fall back to index order.
        let weights = [0.1, 0.2, 0.2, 1.0 / 3.0, 0.5, 1.0, 3.0];
        // Buffers kept across every case, as an execution keeps them.
        let (mut shares, mut scratch) = (Vec::new(), Vec::new());
        for case in 0..2000 {
            let len = rng.gen_range(1..40usize);
            let probs: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        weights[rng.gen_range(0..weights.len())]
                    } else {
                        rng.gen_range(1e-6..1.0)
                    }
                })
                .collect();
            for total in [0, 1, len, rng.gen_range(0..5000usize)] {
                assert_eq!(
                    apportion_shots(&probs, total),
                    apportion_by_sort(&probs, total),
                    "case {case}: {len} states, {total} shots"
                );
                apportion_shots_into(&probs, total, &mut shares, &mut scratch);
                assert_eq!(
                    shares,
                    apportion_by_sort(&probs, total),
                    "case {case}, reused"
                );
            }
            // The selection alone, at every k from none to all.
            let mut remainder: Vec<(usize, f64)> = probs
                .iter()
                .map(|p| (p * 7.0).fract())
                .enumerate()
                .collect();
            let mut sorted = remainder.clone();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for k in 0..=len {
                let mut picked: Vec<usize> = largest_remainders(&mut remainder, k)
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                picked.sort_unstable();
                let mut want: Vec<usize> = sorted[..k].iter().map(|&(i, _)| i).collect();
                want.sort_unstable();
                assert_eq!(picked, want, "case {case}: k = {k} of {len}");
            }
        }
    }

    #[test]
    fn zero_total_is_all_zero() {
        assert_eq!(apportion_shots(&[0.5, 0.5], 0), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "zero states")]
    fn empty_probs_panic() {
        apportion_shots(&[], 10);
    }
}

//! Transition-chain construction, Hamiltonian pruning, and early stop
//! (paper §4.1, Fig. 6).
//!
//! Theorem 1 bounds the chain at `m` rounds of the `m` transition
//! Hamiltonians (totally unimodular constraints; `m²` operators), or
//! `m²` rounds in the general case. Many of those operators expand
//! nothing: pruning simulates the reachable feasible set classically and
//! drops any operator that adds no new basis state, stopping the whole
//! chain once `m` consecutive operators are dry (Fig. 6b's early stop).
//!
//! Both walks here are linear in the reachable set. [`build_chain`]
//! gives each operator a cursor into the insertion-ordered set, so a
//! visit expands only the states found since that operator last ran,
//! and each operator inspects each state once over the whole chain.
//! [`reachable_count_above`] stops its BFS once the count passes a
//! limit, which is all the simplify guard in `Rasengan::prepare` needs
//! to compare two bases.

use crate::hamiltonian::TransitionHamiltonian;
use rasengan_qsim::{Label, Transition};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration of the chain builder.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainConfig {
    /// Rounds of the basis to schedule. `None` = Theorem 1 default
    /// (`m` rounds, the TU bound; all benchmark domains are TU).
    pub max_rounds: Option<usize>,
    /// Drop operators that expand nothing (opt 2 of the ablation).
    pub prune: bool,
    /// Stop after `m` consecutive dry operators (Fig. 6b).
    pub early_stop: bool,
    /// Cap on the tracked reachable set, mirroring the finite shot
    /// budget used to detect redundancy on hardware. Scheduling stops
    /// when the cap is hit (see [`Chain::support_capped`]).
    pub support_cap: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            max_rounds: None,
            prune: true,
            early_stop: true,
            support_cap: 1 << 16,
        }
    }
}

/// A scheduled sequence of transition Hamiltonians.
#[derive(Clone, Debug)]
pub struct Chain {
    /// The kept operators in execution order.
    pub ops: Vec<TransitionHamiltonian>,
    /// Chain length before pruning (`rounds × m`).
    pub raw_len: usize,
    /// Number of operators dropped by pruning.
    pub pruned: usize,
    /// Whether early stop fired before the scheduled end.
    pub early_stopped: bool,
    /// Whether the reachable-set tracker hit `support_cap` (chain
    /// scheduling stops there: redundancy can no longer be detected and
    /// the measured distribution is bounded by the shot budget anyway).
    pub support_capped: bool,
    /// Number of reachable basis states discovered while building
    /// (equals the feasible-set size when under `support_cap`).
    pub reached_states: usize,
}

impl Chain {
    /// Total CX cost of the whole chain under the `34k` model.
    pub fn total_cx_cost(&self) -> usize {
        self.ops.iter().map(|op| op.cx_cost()).sum()
    }

    /// Number of tunable evolution-time parameters (one per operator).
    pub fn n_params(&self) -> usize {
        self.ops.len()
    }
}

/// Multiply-fold hasher for the `u128` labels of the reachable-set
/// trackers and the executor's pattern tables. The labels are
/// compiler-internal, so SipHash's resistance to chosen keys buys
/// nothing here; no set or map built with it is ever iterated, so its
/// order cannot reach a result.
#[derive(Default)]
pub(crate) struct LabelHasher(u64);

const FOLD_LO: u64 = 0x243F_6A88_85A3_08D3;
const FOLD_HI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 128-bit product of `a` and `b`, its halves xor-ed together.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

impl Hasher for LabelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = folded_multiply(self.0 ^ u64::from(b) ^ FOLD_LO, FOLD_HI);
        }
    }

    fn write_u128(&mut self, x: u128) {
        self.0 = folded_multiply(self.0 ^ x as u64 ^ FOLD_LO, (x >> 64) as u64 ^ FOLD_HI);
    }
}

type LabelSet = HashSet<Label, BuildHasherDefault<LabelHasher>>;

/// A map keyed by labels, hashed with [`LabelHasher`].
pub(crate) type LabelMap<V> = HashMap<Label, V, BuildHasherDefault<LabelHasher>>;

/// The reachable feasible set, held in insertion order plus a
/// membership set.
struct Reach {
    order: Vec<Label>,
    seen: LabelSet,
}

impl Reach {
    fn new(seed: Label) -> Self {
        let mut seen = LabelSet::default();
        seen.insert(seed);
        Reach {
            order: vec![seed],
            seen,
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Adds the partners under `t` of the states from position `from`
    /// on; returns whether the set grew.
    fn expand(&mut self, t: &Transition, from: usize) -> bool {
        let before = self.order.len();
        for i in from..before {
            if let Some(p) = t.partner(self.order[i]) {
                if self.seen.insert(p) {
                    self.order.push(p);
                }
            }
        }
        self.order.len() > before
    }
}

/// Builds the transition chain from a (possibly simplified) basis and
/// the seed feasible state.
///
/// The walk is semi-naive: each operator keeps a cursor, the size of
/// the reachable set when it last ran, and a visit expands only the
/// states added since. That finds exactly what a rescan of the whole
/// set would, because a partner move is an involution: once `h` has
/// run, the set is closed under `h`, so only later states can have a
/// new partner. An operator is dry exactly when those states add
/// nothing.
///
/// # Panics
///
/// Panics if `basis` is empty (a fully-determined system has exactly one
/// feasible solution and needs no quantum search).
pub fn build_chain(basis: &[Vec<i64>], seed: Label, cfg: &ChainConfig) -> Chain {
    walk(basis, seed, cfg, |_| {})
}

/// The chain walk behind [`build_chain`] and [`coverage_curve`]; calls
/// `kept` with the reachable-set size after each kept operator.
fn walk(basis: &[Vec<i64>], seed: Label, cfg: &ChainConfig, mut kept: impl FnMut(usize)) -> Chain {
    assert!(!basis.is_empty(), "empty homogeneous basis");
    let m = basis.len();
    let rounds = cfg.max_rounds.unwrap_or(m);
    let hams: Vec<TransitionHamiltonian> = basis
        .iter()
        .map(|u| TransitionHamiltonian::new(u.clone()))
        .collect();

    let mut reach = Reach::new(seed);
    let mut cursors = vec![0usize; m];
    let mut ops = Vec::new();
    let mut pruned = 0usize;
    let mut dry = 0usize;
    let mut early_stopped = false;
    let mut support_capped = false;
    let mut raw_len = 0usize;

    'rounds: for _ in 0..rounds {
        for (h, cursor) in hams.iter().zip(&mut cursors) {
            if reach.len() >= cfg.support_cap {
                // Redundancy detection saturated: keeping further
                // operators would blow up the parameter count with no
                // way to tell useful ones apart (a ~2000-parameter
                // chain is untrainable anyway). Stop scheduling; the
                // shot-bounded execution explores what it can.
                support_capped = true;
                raw_len = rounds * m;
                break 'rounds;
            }
            raw_len += 1;
            let grew = reach.expand(h.transition(), *cursor);
            *cursor = reach.len();
            if grew {
                ops.push(h.clone());
                kept(reach.len());
                dry = 0;
            } else {
                dry += 1;
                if cfg.prune {
                    pruned += 1;
                } else {
                    ops.push(h.clone());
                    kept(reach.len());
                }
                if cfg.early_stop && dry >= m {
                    early_stopped = true;
                    // The raw schedule still counts the remaining slots.
                    raw_len = rounds * m;
                    break 'rounds;
                }
            }
        }
    }

    Chain {
        ops,
        raw_len,
        pruned,
        early_stopped,
        support_capped,
        reached_states: reach.len(),
    }
}

/// Number of basis states reachable from `seed` by ±basis moves with
/// binary intermediates (capped BFS). Used to verify that a simplified
/// basis has not disconnected the single-step transition graph.
///
/// The cap is checked before each state is expanded, and one expansion
/// adds up to `m` states, so the count can exceed `cap` by up to
/// `m − 1`.
pub fn reachable_count(basis: &[Vec<i64>], seed: Label, cap: usize) -> usize {
    reachable_count_above(basis, seed, cap, usize::MAX)
}

/// [`reachable_count`], stopped early once the count exceeds `limit`.
///
/// The count only grows as the BFS runs, so the result exceeds `limit`
/// exactly when `reachable_count(basis, seed, cap)` does; at or below
/// `limit` it equals that count.
pub fn reachable_count_above(basis: &[Vec<i64>], seed: Label, cap: usize, limit: usize) -> usize {
    let transitions: Vec<Transition> = basis.iter().map(|u| Transition::from_u(u)).collect();
    let mut reached = LabelSet::default();
    reached.insert(seed);
    let mut frontier = vec![seed];
    while let Some(x) = frontier.pop() {
        if reached.len() >= cap || reached.len() > limit {
            break;
        }
        for t in &transitions {
            if let Some(p) = t.partner(x) {
                if reached.insert(p) {
                    frontier.push(p);
                }
            }
        }
    }
    reached.len()
}

/// One point of the Fig. 17 coverage analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoveragePoint {
    /// Position in the chain, as a fraction of the total chain length.
    pub chain_fraction: f64,
    /// Fraction of the feasible space covered after this operator.
    pub covered_fraction: f64,
}

/// Computes the feasible-space coverage curve of a chain: how much of
/// the `total_feasible`-sized space the reachable set spans after each
/// operator (paper Fig. 17, pruned vs unpruned).
pub fn coverage_curve(
    basis: &[Vec<i64>],
    seed: Label,
    total_feasible: usize,
    cfg: &ChainConfig,
) -> Vec<CoveragePoint> {
    let mut covered = Vec::new();
    let chain = walk(basis, seed, cfg, |reached| covered.push(reached));
    let n_ops = chain.ops.len().max(1);
    covered
        .iter()
        .enumerate()
        .map(|(idx, &reached)| CoveragePoint {
            chain_fraction: (idx + 1) as f64 / n_ops as f64,
            covered_fraction: reached as f64 / total_feasible as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify_basis;
    use rasengan_problems::flp::FacilityLocation;
    use rasengan_problems::registry::{all_ids, benchmark};
    use rasengan_problems::Problem;
    use rasengan_qsim::sparse::label_from_bits;

    /// The basis states `h` would add to `reached`: the full-rescan
    /// expansion test the chain walk replaced.
    fn reference_expansion(h: &TransitionHamiltonian, reached: &HashSet<Label>) -> Vec<Label> {
        let mut new: Vec<Label> = reached
            .iter()
            .filter_map(|&x| h.partner(x))
            .filter(|p| !reached.contains(p))
            .collect();
        new.sort_unstable();
        new.dedup();
        new
    }

    /// The chain builder as it was before the semi-naive walk: every
    /// operator rescans the whole reachable set.
    fn reference_build_chain(basis: &[Vec<i64>], seed: Label, cfg: &ChainConfig) -> Chain {
        assert!(!basis.is_empty(), "empty homogeneous basis");
        let m = basis.len();
        let rounds = cfg.max_rounds.unwrap_or(m);
        let hams: Vec<TransitionHamiltonian> = basis
            .iter()
            .map(|u| TransitionHamiltonian::new(u.clone()))
            .collect();

        let mut reached: HashSet<Label> = HashSet::from([seed]);
        let mut ops = Vec::new();
        let mut pruned = 0usize;
        let mut dry = 0usize;
        let mut early_stopped = false;
        let mut support_capped = false;
        let mut raw_len = 0usize;

        'rounds: for _ in 0..rounds {
            for h in &hams {
                if reached.len() >= cfg.support_cap {
                    support_capped = true;
                    raw_len = rounds * m;
                    break 'rounds;
                }
                raw_len += 1;
                let expansion = reference_expansion(h, &reached);
                if !expansion.is_empty() {
                    reached.extend(expansion);
                    ops.push(h.clone());
                    dry = 0;
                } else {
                    dry += 1;
                    if cfg.prune {
                        pruned += 1;
                    } else {
                        ops.push(h.clone());
                    }
                    if cfg.early_stop && dry >= m {
                        early_stopped = true;
                        raw_len = rounds * m;
                        break 'rounds;
                    }
                }
            }
        }

        Chain {
            ops,
            raw_len,
            pruned,
            early_stopped,
            support_capped,
            reached_states: reached.len(),
        }
    }

    /// The capped BFS as it was before the bounded guard.
    fn reference_reachable_count(basis: &[Vec<i64>], seed: Label, cap: usize) -> usize {
        let hams: Vec<TransitionHamiltonian> = basis
            .iter()
            .map(|u| TransitionHamiltonian::new(u.clone()))
            .collect();
        let mut reached: HashSet<Label> = HashSet::from([seed]);
        let mut frontier = vec![seed];
        while let Some(x) = frontier.pop() {
            if reached.len() >= cap {
                break;
            }
            for h in &hams {
                if let Some(p) = h.partner(x) {
                    if reached.insert(p) {
                        frontier.push(p);
                    }
                }
            }
        }
        reached.len()
    }

    fn assert_same_chain(got: &Chain, want: &Chain, what: &str) {
        let us = |c: &Chain| c.ops.iter().map(|o| o.u().to_vec()).collect::<Vec<_>>();
        assert_eq!(us(got), us(want), "{what}: ops");
        assert_eq!(got.raw_len, want.raw_len, "{what}: raw_len");
        assert_eq!(got.pruned, want.pruned, "{what}: pruned");
        assert_eq!(
            got.early_stopped, want.early_stopped,
            "{what}: early_stopped"
        );
        assert_eq!(
            got.support_capped, want.support_capped,
            "{what}: support_capped"
        );
        assert_eq!(
            got.reached_states, want.reached_states,
            "{what}: reached_states"
        );
    }

    #[test]
    fn reference_chain_walk_matches_full_rescan() {
        let mut problems: Vec<(String, Problem)> = all_ids()
            .into_iter()
            .map(|id| (id.to_string(), benchmark(id)))
            .collect();
        for (f, d) in [(4, 4), (5, 4), (4, 6)] {
            let p = FacilityLocation::generate(f, d, 2025).into_problem();
            problems.push((format!("flp({f},{d})"), p));
        }
        for (name, p) in &problems {
            let raw = crate::problem_basis(p).unwrap();
            let seed_bits = p
                .initial_feasible()
                .map(<[i64]>::to_vec)
                .or_else(|| rasengan_math::find_binary_solution(p.constraints(), p.rhs()).ok())
                .unwrap();
            let seed = label_from_bits(&seed_bits);
            let simplified = simplify_basis(&raw).basis;
            for (which, basis) in [("raw", &raw), ("simplified", &simplified)] {
                let m = basis.len();
                let d = ChainConfig::default();
                let configs = [
                    d.clone(),
                    ChainConfig {
                        prune: false,
                        ..d.clone()
                    },
                    ChainConfig {
                        early_stop: false,
                        ..d.clone()
                    },
                    ChainConfig {
                        prune: false,
                        early_stop: false,
                        ..d.clone()
                    },
                    ChainConfig {
                        max_rounds: Some(1),
                        ..d.clone()
                    },
                    ChainConfig {
                        max_rounds: Some(2 * m),
                        ..d.clone()
                    },
                    ChainConfig {
                        support_cap: 2,
                        ..d.clone()
                    },
                    ChainConfig {
                        support_cap: 64,
                        ..d.clone()
                    },
                    ChainConfig {
                        support_cap: 1000,
                        ..d.clone()
                    },
                ];
                for cfg in &configs {
                    let what = format!("{name}/{which}/{cfg:?}");
                    let want = reference_build_chain(basis, seed, cfg);
                    assert_same_chain(&build_chain(basis, seed, cfg), &want, &what);
                }
                for cap in [2, 64, 1000, d.support_cap] {
                    let r = reference_reachable_count(basis, seed, cap);
                    assert_eq!(reachable_count(basis, seed, cap), r, "{name}/{which}/{cap}");
                    for limit in [0, r.saturating_sub(1), r, r + 1, usize::MAX] {
                        assert_eq!(
                            reachable_count_above(basis, seed, cap, limit) > limit,
                            r > limit,
                            "{name}/{which}: cap {cap}, limit {limit}, count {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expand_reports_only_new_states() {
        let h = TransitionHamiltonian::new(vec![-1, 0, -1, 1, 0]);
        let xp = label_from_bits(&[0, 0, 0, 1, 0]);
        let xg = label_from_bits(&[1, 0, 1, 0, 0]);
        let mut reach = Reach::new(xp);
        assert!(reach.expand(h.transition(), 0));
        assert_eq!(reach.order, vec![xp, xg]);
        // Closed under `h` now: neither a full rescan nor the states
        // past a cursor yield anything new.
        assert!(!reach.expand(h.transition(), 0));
        assert!(!reach.expand(h.transition(), 2));
        assert_eq!(reach.len(), 2);
    }

    /// The paper's running example: 3 basis vectors, 5 feasible states.
    fn paper_basis() -> Vec<Vec<i64>> {
        vec![
            vec![-1, 1, 0, 0, 0],
            vec![-1, 0, -1, 1, 0],
            vec![1, 0, 1, 0, 1],
        ]
    }

    fn seed() -> Label {
        label_from_bits(&[0, 0, 0, 1, 0])
    }

    #[test]
    fn chain_covers_all_five_feasible_states() {
        let chain = build_chain(&paper_basis(), seed(), &ChainConfig::default());
        assert_eq!(
            chain.reached_states, 5,
            "chain must reach the full feasible set"
        );
    }

    #[test]
    fn pruning_shortens_the_chain() {
        let pruned = build_chain(&paper_basis(), seed(), &ChainConfig::default());
        let unpruned = build_chain(
            &paper_basis(),
            seed(),
            &ChainConfig {
                prune: false,
                early_stop: false,
                ..ChainConfig::default()
            },
        );
        assert!(pruned.ops.len() < unpruned.ops.len());
        assert_eq!(unpruned.ops.len(), 9, "m² = 9 operators without pruning");
        assert_eq!(pruned.reached_states, unpruned.reached_states);
    }

    #[test]
    fn figure6_first_operator_is_redundant() {
        // u₁ = [-1,1,0,0,0] cannot act on x_p = [0,0,0,1,0] (needs bit 0
        // or bit 1 set) — the τ₁ redundancy shown in Fig. 6a.
        let chain = build_chain(&paper_basis(), seed(), &ChainConfig::default());
        assert!(chain.pruned >= 1);
        assert_ne!(chain.ops[0].u(), &[-1, 1, 0, 0, 0][..]);
    }

    #[test]
    fn early_stop_fires_after_m_dry_operators() {
        // Schedule extra rounds: once coverage is complete, the first m
        // consecutive dry operators trigger the Fig. 6b early stop.
        let cfg = ChainConfig {
            max_rounds: Some(6),
            ..ChainConfig::default()
        };
        let chain = build_chain(&paper_basis(), seed(), &cfg);
        assert!(
            chain.early_stopped,
            "extra rounds past full coverage must go dry"
        );
        // One operator can expand several states at once (u₁ pairs both
        // x₂↔x₄ and x₃↔x₅), so three kept operators cover all five states.
        assert!(chain.ops.len() >= 3);
        assert_eq!(chain.reached_states, 5);
    }

    #[test]
    fn early_stop_disabled_runs_all_rounds() {
        let cfg = ChainConfig {
            early_stop: false,
            prune: false,
            ..ChainConfig::default()
        };
        let chain = build_chain(&paper_basis(), seed(), &cfg);
        assert_eq!(chain.raw_len, 9);
        assert!(!chain.early_stopped);
    }

    #[test]
    fn max_rounds_override() {
        let cfg = ChainConfig {
            max_rounds: Some(1),
            prune: false,
            early_stop: false,
            ..ChainConfig::default()
        };
        let chain = build_chain(&paper_basis(), seed(), &cfg);
        assert_eq!(chain.raw_len, 3);
    }

    #[test]
    fn cost_and_params_track_ops() {
        let chain = build_chain(&paper_basis(), seed(), &ChainConfig::default());
        assert_eq!(chain.n_params(), chain.ops.len());
        let expect: usize = chain.ops.iter().map(|o| 34 * o.weight()).sum();
        assert_eq!(chain.total_cx_cost(), expect);
    }

    #[test]
    fn coverage_curve_reaches_one() {
        let curve = coverage_curve(&paper_basis(), seed(), 5, &ChainConfig::default());
        let last = curve.last().unwrap();
        assert!((last.covered_fraction - 1.0).abs() < 1e-12);
        assert!((last.chain_fraction - 1.0).abs() < 1e-12);
        // Monotone coverage.
        for w in curve.windows(2) {
            assert!(w[1].covered_fraction >= w[0].covered_fraction);
        }
    }

    #[test]
    fn pruned_curve_rises_faster_than_unpruned() {
        let pruned = coverage_curve(&paper_basis(), seed(), 5, &ChainConfig::default());
        let unpruned = coverage_curve(
            &paper_basis(),
            seed(),
            5,
            &ChainConfig {
                prune: false,
                early_stop: false,
                ..ChainConfig::default()
            },
        );
        // Position (in ops) where full coverage is first reached.
        let full_at = |curve: &[CoveragePoint]| {
            curve
                .iter()
                .position(|p| p.covered_fraction >= 1.0)
                .map(|i| i + 1)
                .unwrap_or(usize::MAX)
        };
        assert!(full_at(&pruned) <= full_at(&unpruned));
    }

    #[test]
    fn support_cap_stops_scheduling() {
        let cfg = ChainConfig {
            support_cap: 2,
            ..ChainConfig::default()
        };
        let chain = build_chain(&paper_basis(), seed(), &cfg);
        assert!(chain.support_capped, "cap must be reported");
        // Scheduling stops at the cap: the chain stays short rather
        // than ballooning with undetectable-redundancy operators.
        assert!(!chain.ops.is_empty());
        assert!(chain.ops.len() < 9);
        assert!(chain.reached_states >= 2);
    }
}

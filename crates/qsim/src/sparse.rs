//! Sparse basis-state simulator.
//!
//! Rasengan's circuits contain only `X`, `CX`, `MCX`, phase-type gates,
//! and transition operators `τ(u, t)` (paper §5.1: "Circuits of Rasengan
//! only include X, control-X, and phase gates, so we accelerate their
//! simulation on the DDSim simulator"). Every such gate maps a
//! computational basis state to a single basis state (up to phase), and a
//! transition operator maps it to at most *two*. The quantum state is
//! therefore always a superposition over a small set of basis states —
//! bounded by the number of feasible solutions — regardless of qubit
//! count.
//!
//! [`SparseState`] stores that superposition as `(label, amplitude)`
//! entries in one flat buffer, summed and sampled in ascending label
//! order, giving exact simulation past 100 qubits (the paper's Fig. 10
//! scales FLP to 105 variables).

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::gate::Gate;
use rand::Rng;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A basis-state label on up to 128 qubits; bit `i` is qubit `i`.
pub type Label = u128;

/// A transition operator `τ(u, t) = exp(-i H^τ(u) t)` in mask form.
///
/// `H^τ(u) = ⊗σ(uᵢ) + ⊗σ(-uᵢ)` (paper Definition 1). For a basis state
/// `|x⟩` the first term is nonzero only when every `+1` position of `u`
/// has `xᵢ = 0` and every `-1` position has `xᵢ = 1` (then it maps to
/// `|x + u⟩`); the adjoint term handles `|x − u⟩`. At most one of the two
/// applies to any given `x`, so
///
/// ```text
/// exp(-i H t)|x⟩ = cos(t)|x⟩ − i·sin(t)|partner(x)⟩   (partner exists)
/// exp(-i H t)|x⟩ = |x⟩                                 (otherwise)
/// ```
///
/// which is Eq. 6 of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Qubits where `u = +1` (σ⁺ in the forward term).
    pub plus_mask: Label,
    /// Qubits where `u = -1` (σ⁻ in the forward term).
    pub minus_mask: Label,
}

impl Transition {
    /// Builds a transition from a ternary homogeneous basis vector.
    ///
    /// # Panics
    ///
    /// Panics if `u` has entries outside `{-1,0,1}`, is all-zero, or is
    /// longer than 128.
    pub fn from_u(u: &[i64]) -> Self {
        assert!(u.len() <= 128, "transition vectors limited to 128 qubits");
        let mut plus = 0u128;
        let mut minus = 0u128;
        for (i, &v) in u.iter().enumerate() {
            match v {
                1 => plus |= 1 << i,
                -1 => minus |= 1 << i,
                0 => {}
                other => panic!("non-ternary entry {other} in transition vector"),
            }
        }
        assert!(plus | minus != 0, "transition vector must be nonzero");
        Transition {
            plus_mask: plus,
            minus_mask: minus,
        }
    }

    /// Number of qubits the operator touches (`k` in the 34k cost model).
    pub fn weight(&self) -> u32 {
        (self.plus_mask | self.minus_mask).count_ones()
    }

    /// The unique basis state connected to `x` by this transition, if
    /// any: `x + u` when the forward term applies, `x − u` when the
    /// adjoint term applies, `None` otherwise.
    pub fn partner(&self, x: Label) -> Option<Label> {
        // Forward |x+u⟩: needs plus positions clear and minus positions set.
        if x & self.plus_mask == 0 && x & self.minus_mask == self.minus_mask {
            return Some((x | self.plus_mask) & !self.minus_mask);
        }
        // Adjoint |x−u⟩: needs plus positions set and minus positions clear.
        if x & self.plus_mask == self.plus_mask && x & self.minus_mask == 0 {
            return Some((x & !self.plus_mask) | self.minus_mask);
        }
        None
    }
}

/// Error applying a gate the sparse backend cannot represent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedGate {
    /// Human-readable gate description.
    pub gate: String,
}

impl fmt::Display for UnsupportedGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate `{}` creates dense superpositions; use the dense backend",
            self.gate
        )
    }
}

impl std::error::Error for UnsupportedGate {}

/// A sparse quantum state: a superposition over few basis states, held
/// as `(label, amplitude)` entries in one flat buffer.
///
/// Every sum and every draw over the entries runs in ascending label
/// order, so no result depends on the order the entries were produced
/// in. The transition kernel leaves the buffer in label order. A bit
/// flip (`X`, `Y`, `CX`, `Swap`, `MCX`) relabels the entries in place
/// and leaves the order to the next reader: readers that take
/// `&mut self` sort in place, and readers that take `&self` read a
/// sorted copy while the buffer is out of order.
///
/// # Example
///
/// ```
/// use rasengan_qsim::{SparseState, Transition};
///
/// // Paper Eq. 6: τ(u₂, t) with u₂ = [-1,0,-1,1,0] keeps cos t on the
/// // particular solution x_p = [0,0,0,1,0] and moves −i·sin t to its
/// // partner x_p − u₂ = [1,0,1,0,0].
/// let mut s = SparseState::from_bits(&[0, 0, 0, 1, 0]);
/// let t = 0.87f64;
/// s.apply_transition(&Transition::from_u(&[-1, 0, -1, 1, 0]), t);
/// assert_eq!(s.support(), vec![0b00101, 0b01000]);
/// assert!((s.probability(0b01000) - t.cos().powi(2)).abs() < 1e-12);
/// assert!((s.probability(0b00101) - t.sin().powi(2)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SparseState {
    n_qubits: usize,
    /// The support, one entry per label.
    pub(crate) entries: Vec<Entry>,
    /// Whether `entries` is in ascending label order.
    sorted: bool,
    /// A transition's `(label, contribution)` pairs, one or two per
    /// output label, sorted and folded into `entries`.
    merge: Vec<(Label, Complex)>,
    /// The sampler [`SparseState::sample_one`] reuses.
    pub(crate) sampler: PreparedSampler,
    // Bookkeeping of the noise calls (`noise.rs`).
    /// Whether a no-jump factor has scaled a populated class since the
    /// last reload or rescale (otherwise the amplitudes are current).
    pub(crate) scaled: bool,
    /// Whether `live` and `min_w` are current. Reloads and bit flips
    /// leave them to the next damping slot, so a loop without damping
    /// never scans.
    pub(crate) scanned: bool,
    /// The union of the labels with positive mass: operand `q` has a
    /// populated class iff its bit is set here.
    pub(crate) live: Label,
    /// At most the least positive mass (infinite when there is none):
    /// exact after a scan, a lower bound after fast slots.
    pub(crate) min_w: f64,
}

/// One label of a [`SparseState`] buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) label: Label,
    /// The amplitude (inside a noise call: as of its last reload or
    /// rescale).
    pub(crate) amp: Complex,
    /// A noise call's unnormalized mass: `|amp|²` at the last reload,
    /// times every no-jump factor since.
    pub(crate) w: f64,
}

impl Entry {
    fn new(label: Label, amp: Complex) -> Self {
        Entry { label, amp, w: 0.0 }
    }

    /// The entry's label and measurement probability `|amp|²`.
    fn measured(&self) -> (Label, f64) {
        (self.label, self.amp.norm_sqr())
    }
}

/// Amplitudes below this magnitude are dropped during compaction.
const PRUNE_EPS: f64 = 1e-14;

impl SparseState {
    /// Creates the basis state `|label⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the label uses bits at or above `n_qubits`.
    pub fn basis_state(n_qubits: usize, label: Label) -> Self {
        assert!(n_qubits <= 128, "sparse backend limited to 128 qubits");
        let mut state = SparseState {
            n_qubits,
            entries: Vec::new(),
            sorted: true,
            merge: Vec::new(),
            sampler: PreparedSampler::default(),
            scaled: false,
            scanned: false,
            live: 0,
            min_w: f64::INFINITY,
        };
        state.reset(label);
        state
    }

    /// Returns to the basis state `|label⟩` on the same qubits, keeping
    /// the buffers' capacity: a loop over many inputs or shots reuses
    /// one state instead of allocating per input.
    ///
    /// # Panics
    ///
    /// Panics if the label uses bits at or above `n_qubits`.
    pub fn reset(&mut self, label: Label) {
        assert!(
            self.n_qubits == 128 || label < (1u128 << self.n_qubits),
            "basis label out of range for {} qubits",
            self.n_qubits
        );
        self.entries.clear();
        self.entries.push(Entry::new(label, Complex::ONE));
        self.sorted = true;
        self.scaled = false;
        self.scanned = false;
    }

    /// Creates a basis state from a binary solution vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not 0/1 or the vector exceeds 128 bits.
    pub fn from_bits(bits: &[i64]) -> Self {
        Self::basis_state(bits.len(), label_from_bits(bits))
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The basis labels currently in superposition (sorted).
    pub fn support(&self) -> Vec<Label> {
        self.in_label_order().iter().map(|e| e.label).collect()
    }

    /// Number of basis states in the superposition.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Amplitude of `|label⟩` (zero if absent).
    pub fn amplitude(&self, label: Label) -> Complex {
        let found = if self.sorted {
            self.entries
                .binary_search_by_key(&label, |e| e.label)
                .ok()
                .map(|i| &self.entries[i])
        } else {
            self.entries.iter().find(|e| e.label == label)
        };
        found.map_or(Complex::ZERO, |e| e.amp)
    }

    /// Squared norm.
    pub fn norm_sqr(&self) -> f64 {
        self.in_label_order().iter().map(|e| e.amp.norm_sqr()).sum()
    }

    /// Renormalizes to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is numerically zero.
    pub fn normalize(&mut self) {
        self.sort();
        let n = self.norm_sqr().sqrt();
        assert!(n > 1e-300, "cannot normalize zero sparse state");
        for e in &mut self.entries {
            e.amp = e.amp.scale(1.0 / n);
        }
    }

    /// Probability of measuring `|label⟩`.
    pub fn probability(&self, label: Label) -> f64 {
        self.amplitude(label).norm_sqr()
    }

    /// Total probability mass on states with qubit `q` equal to 1
    /// (computed directly over the sparse support; hot path of the
    /// damping channels).
    pub fn population(&self, q: usize) -> f64 {
        let mask = 1u128 << q;
        self.in_label_order()
            .iter()
            .filter(|e| e.label & mask != 0)
            .map(|e| e.amp.norm_sqr())
            .sum()
    }

    /// Label → probability for the whole support (sorted by label).
    pub fn distribution(&self) -> BTreeMap<Label, f64> {
        self.entries.iter().map(Entry::measured).collect()
    }

    /// `(label, probability)` for the whole support in ascending label
    /// order: [`Self::distribution`] without building a map. Sorts the
    /// buffer in place if a bit flip left it out of order.
    pub fn probabilities(&mut self) -> impl ExactSizeIterator<Item = (Label, f64)> + '_ {
        self.sort();
        self.entries.iter().map(Entry::measured)
    }

    /// Applies every gate of `circuit` in order.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedGate`] on the first gate outside the sparse
    /// gate set (`H`, `Rx`, `Ry`). The state is left at the failing gate.
    pub fn run(&mut self, circuit: &Circuit) -> Result<(), UnsupportedGate> {
        for g in circuit.gates() {
            self.apply(g)?;
        }
        Ok(())
    }

    /// Applies one gate.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedGate`] for gates that create dense
    /// superpositions (`H`, `Rx`, `Ry`).
    pub fn apply(&mut self, gate: &Gate) -> Result<(), UnsupportedGate> {
        match gate {
            Gate::X(q) => {
                let mask = 1u128 << q;
                let (mut set, mut clear) = (false, false);
                for e in &mut self.entries {
                    set |= e.label & mask != 0;
                    clear |= e.label & mask == 0;
                    e.label ^= mask;
                }
                // A flip of a bit every label shares (a damping decay
                // after its projection) keeps the label order.
                self.sorted &= !(set && clear);
                self.scanned = false;
            }
            Gate::Y(q) => {
                // Y = iXZ: phase ±i by the prior bit value, then flip it.
                let mask = 1u128 << q;
                self.permute(|e| {
                    e.amp *= if e.label & mask == 0 {
                        Complex::I
                    } else {
                        -Complex::I
                    };
                    e.label ^= mask;
                });
            }
            Gate::Z(q) => {
                let mask = 1u128 << q;
                for e in &mut self.entries {
                    if e.label & mask != 0 {
                        e.amp = -e.amp;
                    }
                }
            }
            Gate::Rz(q, t) => {
                let m0 = Complex::cis(-t / 2.0);
                let m1 = Complex::cis(t / 2.0);
                let mask = 1u128 << q;
                for e in &mut self.entries {
                    e.amp *= if e.label & mask == 0 { m0 } else { m1 };
                }
            }
            Gate::Phase(q, t) => self.phase_if(|l| l >> q & 1 == 1, *t),
            Gate::Cx(c, t) => {
                let (cm, tm) = (1u128 << c, 1u128 << t);
                self.permute(|e| {
                    if e.label & cm != 0 {
                        e.label ^= tm;
                    }
                });
            }
            Gate::Cz(a, b) => {
                let m = (1u128 << a) | (1u128 << b);
                self.phase_if(move |l| l & m == m, std::f64::consts::PI);
            }
            Gate::Swap(a, b) => {
                let (ma, mb) = (1u128 << a, 1u128 << b);
                self.permute(|e| {
                    if (e.label & ma != 0) != (e.label & mb != 0) {
                        e.label ^= ma | mb;
                    }
                });
            }
            Gate::Rzz(a, b, t) => {
                let (ma, mb) = (1u128 << a, 1u128 << b);
                let minus = Complex::cis(-t / 2.0);
                let plus = Complex::cis(t / 2.0);
                for e in &mut self.entries {
                    let parity = (e.label & ma != 0) != (e.label & mb != 0);
                    e.amp *= if parity { plus } else { minus };
                }
            }
            Gate::Cp(c, t, theta) => {
                let m = (1u128 << c) | (1u128 << t);
                self.phase_if(move |l| l & m == m, *theta);
            }
            Gate::Mcp {
                controls,
                target,
                theta,
            } => {
                let mut m: Label = 1 << target;
                for &c in controls {
                    m |= 1 << c;
                }
                self.phase_if(move |l| l & m == m, *theta);
            }
            Gate::Mcx { controls, target } => {
                let cm: Label = controls.iter().fold(0, |m, &c| m | (1 << c));
                let tm = 1u128 << target;
                self.permute(|e| {
                    if e.label & cm == cm {
                        e.label ^= tm;
                    }
                });
            }
            g @ (Gate::H(_) | Gate::Rx(..) | Gate::Ry(..)) => {
                return Err(UnsupportedGate {
                    gate: g.to_string(),
                })
            }
        }
        Ok(())
    }

    /// Applies a transition operator `τ(u, t)` analytically (Eq. 6).
    ///
    /// Unpaired basis states pass through unchanged (the `H|φ⟩ = 0` case
    /// in Theorem 1's proof); paired states mix as
    /// `cos(t)|x⟩ − i·sin(t)|partner⟩`.
    pub fn apply_transition(&mut self, tr: &Transition, t: f64) {
        self.apply_transition_with(tr, Complex::from(t.cos()), Complex::new(0.0, -t.sin()));
    }

    /// [`Self::apply_transition`] with the mixing constants `cos(t)` and
    /// `-i·sin(t)` precomputed by the caller — compiled segment programs
    /// evaluate them once per operator instead of once per shot.
    ///
    /// Each label contributes `cos·a` to itself and `misin·a` to its
    /// partner (or `a` to itself without one). The contributions are
    /// sorted by label and adjacent pairs folded, so each output label
    /// gets `ZERO + x (+ y)` in `O(s log s)`. Two-term f64 addition
    /// commutes bitwise, so the result does not depend on the order the
    /// entries were in, and the buffer comes out in label order. Once
    /// the buffers have grown, repeated application never allocates.
    pub fn apply_transition_with(&mut self, tr: &Transition, cos: Complex, misin: Complex) {
        self.merge.clear();
        for e in &self.entries {
            match tr.partner(e.label) {
                Some(p) => {
                    self.merge.push((e.label, cos * e.amp));
                    self.merge.push((p, misin * e.amp));
                }
                None => self.merge.push((e.label, e.amp)),
            }
        }
        self.merge.sort_unstable_by_key(|&(l, _)| l);
        self.entries.clear();
        let mut i = 0;
        while i < self.merge.len() {
            let (label, x) = self.merge[i];
            let mut amp = Complex::ZERO + x;
            i += 1;
            if let Some(&(_, y)) = self.merge.get(i).filter(|m| m.0 == label) {
                amp += y;
                i += 1;
            }
            if amp.norm_sqr() > PRUNE_EPS * PRUNE_EPS {
                self.entries.push(Entry::new(label, amp));
            }
        }
        self.sorted = true;
    }

    /// Multiplies each basis amplitude by `e^{i·phase(label)}` — the
    /// time evolution of an arbitrary diagonal Hamiltonian, used for the
    /// QAOA objective layer `e^{-iγ H_obj}` (pass `-γ·f(label)`).
    pub fn apply_diagonal_phase(&mut self, phase: impl Fn(Label) -> f64) {
        self.apply_diagonal_phase_with(|l| Complex::cis(phase(l)));
    }

    /// Like [`Self::apply_diagonal_phase`] but the closure returns the
    /// complex factor directly (and may mutate, e.g. a memo cache of
    /// `cis` evaluations keyed by label — the fused Choco-Q path reuses
    /// objective evaluations across trajectories this way).
    pub fn apply_diagonal_phase_with(&mut self, mut factor: impl FnMut(Label) -> Complex) {
        for e in &mut self.entries {
            e.amp *= factor(e.label);
        }
    }

    /// Projects onto the subspace where qubit `q` equals `keep_one`,
    /// renormalizing (a damping-jump Kraus branch).
    ///
    /// # Panics
    ///
    /// Panics if the projected state is zero (the jump had probability
    /// zero and should not have been sampled).
    pub fn project_qubit(&mut self, q: usize, keep_one: bool) {
        let mask = 1u128 << q;
        self.entries.retain(|e| (e.label & mask != 0) == keep_one);
        self.normalize();
    }

    /// Scales amplitudes of labels with qubit `q` set by `factor`
    /// (no-jump damping branch; caller renormalizes).
    pub fn scale_where_qubit_one(&mut self, q: usize, factor: f64) {
        let mask = 1u128 << q;
        for e in &mut self.entries {
            if e.label & mask != 0 {
                e.amp = e.amp.scale(factor);
            }
        }
    }

    /// Builds a measurement sampler for the state's current
    /// distribution (see [`PreparedSampler::prepare`]). Each
    /// [`PreparedSampler::draw`] is then a binary search.
    ///
    /// # Panics
    ///
    /// Panics if the state is empty.
    pub fn prepared_sampler(&self) -> PreparedSampler {
        assert!(!self.entries.is_empty(), "cannot sample an empty state");
        let mut sampler = PreparedSampler::default();
        sampler.prepare(self);
        sampler
    }

    /// Draws `shots` measurement outcomes, returning label → count.
    ///
    /// The support is prepared once (`O(s)`), then each shot is a
    /// binary search (`O(log s)`). An empty state measures every shot
    /// as label 0 without drawing. Callers sampling many states should
    /// hold one [`PreparedSampler`] and call [`PreparedSampler::count`].
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> BTreeMap<Label, usize> {
        let mut sampler = PreparedSampler::default();
        sampler.prepare(self);
        sampler.count(shots, rng).collect()
    }

    /// Puts the entries in ascending label order, the order every sum
    /// over them runs in.
    pub(crate) fn sort(&mut self) {
        if !self.sorted {
            self.entries.sort_unstable_by_key(|e| e.label);
            self.sorted = true;
        }
    }

    /// The entries in ascending label order: the buffer itself, or a
    /// sorted copy while a bit flip has left it out of order.
    fn in_label_order(&self) -> Cow<'_, [Entry]> {
        if self.sorted {
            Cow::Borrowed(&self.entries)
        } else {
            let mut v = self.entries.clone();
            v.sort_unstable_by_key(|e| e.label);
            Cow::Owned(v)
        }
    }

    /// Rewrites each entry in place by `f`, a basis permutation up to
    /// phases, leaving the label order to the next reader.
    fn permute(&mut self, f: impl Fn(&mut Entry)) {
        for e in &mut self.entries {
            f(e);
        }
        self.sorted = false;
        self.scanned = false;
    }

    /// Multiplies amplitudes of labels satisfying `pred` by `e^{iθ}`.
    fn phase_if(&mut self, pred: impl Fn(Label) -> bool, theta: f64) {
        let phase = Complex::cis(theta);
        for e in &mut self.entries {
            if pred(e.label) {
                e.amp *= phase;
            }
        }
    }
}

/// A measurement sampler over a [`SparseState`]'s distribution: the
/// support in label order with each entry's cumulative probability.
///
/// [`prepare`] (re)builds it for a state in place, reusing its buffers,
/// so one sampler serves any number of states. [`draw`] is a binary
/// search, `O(log s)` for a support of `s` labels, and [`count`] tallies
/// a batch of draws per support index, so its outcomes come out in
/// ascending label order without a map. Label order makes draws
/// deterministic for a fixed RNG across processes and thread counts.
///
/// [`prepare`]: PreparedSampler::prepare
/// [`draw`]: PreparedSampler::draw
/// [`count`]: PreparedSampler::count
#[derive(Clone, Debug, Default)]
pub struct PreparedSampler {
    /// `(label, cumulative mass up to and including it)`, by label.
    entries: Vec<(Label, f64)>,
    total: f64,
    /// Index of the last entry with nonzero mass. A support entry can
    /// carry zero probability (an amplitude damped to exactly 0 that
    /// still occupies its slot), so the rounding fallback clamps here
    /// rather than to the last entry — otherwise a degenerate norm
    /// would let the draw return a zero-probability label.
    last_support: usize,
    /// Hits per entry of the last [`PreparedSampler::count`].
    hits: Vec<usize>,
}

impl PreparedSampler {
    /// Rebuilds the sampler for `state`'s current distribution.
    pub fn prepare(&mut self, state: &SparseState) {
        self.fill(&state.in_label_order());
    }

    /// Rebuilds the sampler from entries in ascending label order,
    /// turning their probabilities into cumulative masses.
    pub(crate) fn fill(&mut self, support: &[Entry]) {
        debug_assert!(support.windows(2).all(|w| w[0].label < w[1].label));
        self.entries.clear();
        let mut acc = 0.0f64;
        self.last_support = 0;
        for (i, e) in support.iter().enumerate() {
            let p = e.amp.norm_sqr();
            if p > 0.0 {
                self.last_support = i;
            }
            acc += p;
            self.entries.push((e.label, acc));
        }
        self.total = acc;
    }

    /// Draws one measurement outcome.
    ///
    /// # Panics
    ///
    /// Panics if the prepared state was empty.
    pub fn draw(&self, rng: &mut impl Rng) -> Label {
        self.entries[self.index(rng)].0
    }

    /// Draws `shots` outcomes and returns the nonzero counts in
    /// ascending label order. An empty support counts every shot as
    /// label 0 without drawing.
    pub fn count(
        &mut self,
        shots: usize,
        rng: &mut impl Rng,
    ) -> impl Iterator<Item = (Label, usize)> + '_ {
        self.hits.clear();
        self.hits.resize(self.entries.len(), 0);
        let empty = self.entries.is_empty();
        if !empty {
            for _ in 0..shots {
                let i = self.index(rng);
                self.hits[i] += 1;
            }
        }
        self.entries
            .iter()
            .zip(&self.hits)
            .filter(|&(_, &h)| h > 0)
            .map(|(&(l, _), &h)| (l, h))
            .chain((empty && shots > 0).then_some((0, shots)))
    }

    /// The support index of one draw.
    fn index(&self, rng: &mut impl Rng) -> usize {
        let r: f64 = rng.gen::<f64>() * self.total;
        // First entry whose cumulative mass exceeds r; accumulated
        // rounding can push r past the last supported entry (and a
        // 0/NaN total sends the search to the ends), so the fallback
        // clamps into the support. The binary search cannot select an
        // interior zero-mass entry itself (its cumulative mass equals
        // its predecessor's), so healthy states draw exactly as before.
        self.entries
            .partition_point(|&(_, c)| c <= r)
            .min(self.last_support)
    }

    /// Number of labels in the support.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Total probability mass of the support (≈ 1 for normalized states).
    pub fn total_mass(&self) -> f64 {
        self.total
    }
}

/// Packs a binary solution vector into a basis label (bit `i` = `x[i]`).
///
/// # Panics
///
/// Panics if entries are not 0/1 or the vector exceeds 128 bits.
///
/// # Example
///
/// ```
/// use rasengan_qsim::sparse::label_from_bits;
/// assert_eq!(label_from_bits(&[0, 0, 0, 1, 0]), 0b01000);
/// ```
pub fn label_from_bits(bits: &[i64]) -> Label {
    assert!(bits.len() <= 128, "at most 128 bits");
    bits.iter().enumerate().fold(0u128, |acc, (i, &b)| {
        assert!(b == 0 || b == 1, "non-binary entry {b}");
        acc | ((b as u128) << i)
    })
}

/// Unpacks a basis label into a binary solution vector of length `n`.
///
/// # Example
///
/// ```
/// use rasengan_qsim::sparse::bits_from_label;
/// assert_eq!(bits_from_label(0b01000, 5), vec![0, 0, 0, 1, 0]);
/// ```
pub fn bits_from_label(label: Label, n: usize) -> Vec<i64> {
    (0..n).map(|i| (label >> i & 1) as i64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    impl SparseState {
        /// A state over `amps` with the entries in the given order (test
        /// states with explicit amplitudes, zero masses, or labels out of
        /// order).
        pub(crate) fn from_amplitudes(
            n_qubits: usize,
            amps: impl IntoIterator<Item = (Label, Complex)>,
        ) -> Self {
            let mut state = Self::basis_state(n_qubits, 0);
            state.entries.clear();
            state
                .entries
                .extend(amps.into_iter().map(|(l, a)| Entry::new(l, a)));
            state.sorted = state.entries.windows(2).all(|w| w[0].label < w[1].label);
            state
        }
    }

    #[test]
    fn prepared_sampler_matches_distribution_chi_squared() {
        // Spread a basis state over several labels, then check the
        // shared CDF sampler against the exact distribution.
        let mut s = SparseState::basis_state(5, 0b01000);
        s.apply_transition(&Transition::from_u(&[-1, 0, -1, 1, 0]), 0.9);
        s.apply_transition(&Transition::from_u(&[1, -1, 0, 0, 0]), 0.7);
        let dist = s.distribution();
        assert!(dist.len() >= 3, "want a multi-label support");
        let shots = 8000usize;
        let mut rng = StdRng::seed_from_u64(31);
        let counts = s.sample(shots, &mut rng);
        let mut chi2 = 0.0;
        for (label, p) in &dist {
            let e = p * shots as f64;
            let obs = counts.get(label).copied().unwrap_or(0) as f64;
            chi2 += (obs - e).powi(2) / e.max(1e-9);
        }
        // Generous cutoff for df = support-1 at p = 0.001.
        assert!(chi2 < 30.0, "chi-squared {chi2} too large");
        // No mass outside the support.
        assert!(counts.keys().all(|l| dist.contains_key(l)));
    }

    #[test]
    fn sample_one_draws_follow_distribution() {
        // Repeated sample_one draws must follow the same distribution
        // as batch sampling (they share the prepared CDF sampler).
        let mut s = SparseState::basis_state(5, 0b01000);
        s.apply_transition(&Transition::from_u(&[-1, 0, -1, 1, 0]), 0.6);
        let dist = s.distribution();
        let sampler = s.prepared_sampler();
        assert_eq!(sampler.support_size(), dist.len());
        assert!((sampler.total_mass() - 1.0).abs() < 1e-9);
        let shots = 4000usize;
        let mut rng = StdRng::seed_from_u64(37);
        let mut counts: std::collections::BTreeMap<Label, usize> =
            std::collections::BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(sampler.draw(&mut rng)).or_insert(0) += 1;
        }
        let mut chi2 = 0.0;
        for (label, p) in &dist {
            let e = p * shots as f64;
            let obs = counts.get(label).copied().unwrap_or(0) as f64;
            chi2 += (obs - e).powi(2) / e.max(1e-9);
        }
        assert!(chi2 < 30.0, "chi-squared {chi2} too large");
    }

    #[test]
    fn prepared_sampler_clamps_degenerate_norms_into_support() {
        // A support slot damped to exactly zero at the top label: the
        // rounding fallback must clamp to the last *supported* entry,
        // never the zero-probability one.
        let s = SparseState::from_amplitudes(3, [(0b001, Complex::ONE), (0b100, Complex::ZERO)]);
        let sampler = s.prepared_sampler();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert_eq!(sampler.draw(&mut rng), 0b001);
        }
        // Every amplitude exactly zero (total mass 0): the draw must
        // fall back to the first label, not the maximum one.
        let z = SparseState::from_amplitudes(2, [(0b00, Complex::ZERO), (0b11, Complex::ZERO)]);
        let sampler = z.prepared_sampler();
        for _ in 0..20 {
            assert_eq!(sampler.draw(&mut rng), 0b00);
        }
    }

    /// A basis state on `n` qubits spread by random ternary transitions.
    fn random_state(n: usize, rng: &mut StdRng) -> SparseState {
        let mut s = SparseState::basis_state(n, rng.gen_range(0..1u64 << n) as Label);
        for _ in 0..3 * n {
            let mut u = vec![0i64; n];
            for _ in 0..3 {
                u[rng.gen_range(0..n as u64) as usize] = rng.gen_range(-1i64..=1);
            }
            if u.iter().any(|&v| v != 0) {
                s.apply_transition(&Transition::from_u(&u), rng.gen_range(-3.0..3.0));
            }
        }
        s
    }

    /// A map-based sampler: a fresh sorted CDF per call and one map
    /// insert per shot. The oracle for [`PreparedSampler::count`] and
    /// [`SparseState::sample`].
    fn reference_sample(
        state: &SparseState,
        shots: usize,
        rng: &mut StdRng,
    ) -> BTreeMap<Label, usize> {
        if state.entries.is_empty() {
            return if shots == 0 {
                BTreeMap::new()
            } else {
                BTreeMap::from([(0, shots)])
            };
        }
        let mut support: Vec<(Label, f64)> = state
            .entries
            .iter()
            .map(|e| (e.label, e.amp.norm_sqr()))
            .collect();
        support.sort_unstable_by_key(|&(l, _)| l);
        let mut cdf = Vec::new();
        let mut acc = 0.0f64;
        let mut last_support = 0usize;
        for (i, &(_, p)) in support.iter().enumerate() {
            if p > 0.0 {
                last_support = i;
            }
            acc += p;
            cdf.push(acc);
        }
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            let idx = cdf.partition_point(|&c| c <= r).min(last_support);
            *counts.entry(support[idx].0).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn reference_sampler_counts_match_map_oracle() {
        let mut gen = StdRng::seed_from_u64(0x5A3);
        let mut states: Vec<SparseState> = (0..24).map(|_| random_state(10, &mut gen)).collect();
        // Zero-mass entries at the bottom, inside and at the top of a
        // support, in descending label order.
        let spread = random_state(10, &mut gen);
        let support = spread.support();
        assert!(support.len() > 2, "want a multi-label support");
        let zeroed = [
            support[0],
            support[support.len() / 2],
            support[support.len() - 1],
        ];
        let zero_mass = SparseState::from_amplitudes(
            10,
            support.iter().rev().map(|&l| {
                let amp = if zeroed.contains(&l) {
                    Complex::ZERO
                } else {
                    spread.amplitude(l)
                };
                (l, amp)
            }),
        );
        assert!(!zero_mass.sorted);
        states.push(zero_mass);
        // The empty state: every shot is label 0, and nothing is drawn.
        states.push(SparseState::from_amplitudes(4, []));

        // One sampler, reused across every state and shot count.
        let mut sampler = PreparedSampler::default();
        for (i, state) in states.iter().enumerate() {
            for shots in [0, 1, 7, 300] {
                let seed = (i * 1000 + shots) as u64;
                let mut want_rng = StdRng::seed_from_u64(seed);
                let want: Vec<(Label, usize)> = reference_sample(state, shots, &mut want_rng)
                    .into_iter()
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                sampler.prepare(state);
                let got: Vec<(Label, usize)> = sampler.count(shots, &mut rng).collect();
                assert_eq!(got, want, "state {i}, {shots} shots");
                assert_eq!(rng.gen::<u64>(), want_rng.gen::<u64>(), "state {i} RNG");

                let mut rng = StdRng::seed_from_u64(seed);
                let sampled: Vec<(Label, usize)> =
                    state.sample(shots, &mut rng).into_iter().collect();
                assert_eq!(sampled, want, "state {i}, {shots} shots via sample");
                let mut want_rng = StdRng::seed_from_u64(seed);
                reference_sample(state, shots, &mut want_rng);
                assert_eq!(
                    rng.gen::<u64>(),
                    want_rng.gen::<u64>(),
                    "state {i} RNG via sample"
                );
            }
        }
    }

    /// Asserts that `a` and `b` hold the same labels in the same order
    /// with amplitudes equal to the bit.
    fn assert_same_entries(a: &SparseState, b: &SparseState, case: &str) {
        let bits = |s: &SparseState| -> Vec<(Label, u64, u64)> {
            s.entries
                .iter()
                .map(|e| (e.label, e.amp.re.to_bits(), e.amp.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{case}");
    }

    #[test]
    fn lazy_label_order_reads_like_a_sorted_buffer() {
        // Bit flips leave a wide superposition's buffer out of label
        // order; every reader must still see it in label order, bit for
        // bit equal to the same entries built in label order.
        let mut gen = StdRng::seed_from_u64(0x1A2F);
        let n = 12;
        let mut flipped = random_state(n, &mut gen);
        assert!(flipped.support_size() > 16, "want a wide superposition");
        flipped.apply(&Gate::X(3)).unwrap();
        flipped.apply(&Gate::Cx(5, 0)).unwrap();
        flipped.apply(&Gate::X(11)).unwrap();
        assert!(!flipped.sorted, "the flips kept the buffer in order");
        let mut amps: Vec<(Label, Complex)> =
            flipped.entries.iter().map(|e| (e.label, e.amp)).collect();
        amps.sort_unstable_by_key(|&(l, _)| l);
        let ordered = SparseState::from_amplitudes(n, amps);
        assert!(ordered.sorted);

        assert_eq!(flipped.support(), ordered.support());
        let dist = |s: &SparseState| -> Vec<(Label, u64)> {
            s.distribution()
                .into_iter()
                .map(|(l, p)| (l, p.to_bits()))
                .collect()
        };
        assert_eq!(dist(&flipped), dist(&ordered));
        for l in 0..1 << n {
            let (a, b) = (flipped.amplitude(l), ordered.amplitude(l));
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits())
            );
        }
        assert_eq!(flipped.norm_sqr().to_bits(), ordered.norm_sqr().to_bits());
        for q in 0..n {
            assert_eq!(
                flipped.population(q).to_bits(),
                ordered.population(q).to_bits(),
                "population of qubit {q}"
            );
        }
        let (a, b) = (flipped.prepared_sampler(), ordered.prepared_sampler());
        assert_eq!(a.total_mass().to_bits(), b.total_mass().to_bits());
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..2000 {
            assert_eq!(a.draw(&mut rng_a), b.draw(&mut rng_b));
        }
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        assert_eq!(
            flipped.sample(500, &mut rng_a),
            ordered.sample(500, &mut rng_b)
        );
        // The `&self` readers left the buffer as it was; the flat reader
        // sorts it, and a transition keeps it in label order.
        assert!(!flipped.sorted);
        let flat: Vec<(Label, f64)> = flipped.probabilities().collect();
        assert!(flipped.sorted);
        let flat_bits: Vec<(Label, u64)> = flat.iter().map(|&(l, p)| (l, p.to_bits())).collect();
        assert_eq!(flat_bits, dist(&ordered));
        let tr = Transition::from_u(&[1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut ordered = ordered;
        flipped.apply_transition(&tr, 0.4);
        ordered.apply_transition(&tr, 0.4);
        assert!(flipped.sorted);
        assert_same_entries(&flipped, &ordered, "after a transition");
    }

    #[test]
    fn reset_state_equals_fresh_basis_state() {
        let mut gen = StdRng::seed_from_u64(0x2E5E7);
        // Grown buffers from a spread-out state, then reset repeatedly.
        let mut reused = random_state(12, &mut gen);
        for round in 0..16 {
            let label = gen.gen_range(0..1u64 << 12) as Label;
            reused.reset(label);
            let mut fresh = SparseState::basis_state(12, label);
            assert_eq!(reused.n_qubits(), fresh.n_qubits());
            assert_same_entries(&reused, &fresh, &format!("round {round}"));
            // Both evolve to the same amplitudes, bit for bit.
            for _ in 0..24 {
                let mut u = vec![0i64; 12];
                u[gen.gen_range(0..12u64) as usize] = 1;
                u[gen.gen_range(0..12u64) as usize] = -1;
                let (tr, t) = (Transition::from_u(&u), gen.gen_range(-3.0..3.0));
                reused.apply_transition(&tr, t);
                fresh.apply_transition(&tr, t);
            }
            assert_same_entries(&reused, &fresh, &format!("round {round} evolved"));
        }
    }

    #[test]
    fn transition_from_paper_u2() {
        // u₂ = [-1, 0, -1, 1, 0]: x_p = [0,0,0,1,0] matches the adjoint
        // term (x−u): plus positions {3} set? plus_mask is q3 (u=+1);
        // minus_mask is q0,q2. x_p has q3=1, q0=q2=0 → partner = x−u =
        // [1,0,1,0,0].
        let tr = Transition::from_u(&[-1, 0, -1, 1, 0]);
        let xp = label_from_bits(&[0, 0, 0, 1, 0]);
        let partner = tr.partner(xp).expect("partner must exist");
        assert_eq!(bits_from_label(partner, 5), vec![1, 0, 1, 0, 0]);
        // And the partnership is symmetric.
        assert_eq!(tr.partner(partner), Some(xp));
    }

    #[test]
    fn transition_no_partner_for_non_binary_move() {
        let tr = Transition::from_u(&[1, 0, 0, 0, 0]);
        // x with q0=1: forward needs q0=0; adjoint (x−u) needs q0=1 and
        // no minus bits — partner = q0 cleared. So a partner exists both
        // ways for weight-1 u. Use a 2-qubit u instead:
        let tr2 = Transition::from_u(&[1, -1, 0, 0, 0]);
        // x = [0,0,...]: forward needs q0=0 (ok) and q1=1 (fails);
        // adjoint needs q0=1 (fails). No partner.
        assert_eq!(tr2.partner(0), None);
        let _ = tr;
    }

    #[test]
    fn transition_weight() {
        assert_eq!(Transition::from_u(&[1, -1, 0, 1]).weight(), 3);
    }

    #[test]
    #[should_panic(expected = "non-ternary")]
    fn non_ternary_transition_panics() {
        Transition::from_u(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_transition_panics() {
        Transition::from_u(&[0, 0]);
    }

    #[test]
    fn apply_transition_superposes_pair() {
        let tr = Transition::from_u(&[1, 0]);
        let mut s = SparseState::basis_state(2, 0);
        let t = std::f64::consts::FRAC_PI_4;
        s.apply_transition(&tr, t);
        assert_eq!(s.support_size(), 2);
        assert!(s.amplitude(0b00).approx_eq(Complex::from(t.cos()), TOL));
        assert!(s
            .amplitude(0b01)
            .approx_eq(Complex::new(0.0, -t.sin()), TOL));
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn apply_transition_half_pi_is_full_swap() {
        // t = π/2 collapses fully onto the partner (a basis state, which
        // is the mechanism Rasengan uses to land on the optimum).
        let tr = Transition::from_u(&[1, 0]);
        let mut s = SparseState::basis_state(2, 0);
        s.apply_transition(&tr, std::f64::consts::FRAC_PI_2);
        assert_eq!(s.support(), vec![0b01]);
    }

    #[test]
    fn transition_unpaired_state_unchanged() {
        let tr = Transition::from_u(&[1, -1]);
        let mut s = SparseState::basis_state(2, 0b00);
        s.apply_transition(&tr, 1.2);
        assert_eq!(s.support(), vec![0b00]);
        assert!(s.amplitude(0b00).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn transition_is_unitary_on_superposition() {
        let tr = Transition::from_u(&[1, 0, -1]);
        let mut s = SparseState::basis_state(3, 0b100);
        s.apply_transition(&tr, 0.7);
        s.apply_transition(&Transition::from_u(&[0, 1, 0]), 0.3);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn transition_inverse_restores() {
        let tr = Transition::from_u(&[1, 0, -1]);
        let mut s = SparseState::basis_state(3, 0b100);
        s.apply_transition(&tr, 0.9);
        s.apply_transition(&tr, -0.9);
        assert_eq!(s.support(), vec![0b100]);
        assert!(s.amplitude(0b100).approx_eq(Complex::ONE, 1e-10));
    }

    #[test]
    fn sparse_gates_match_expectations() {
        let mut s = SparseState::basis_state(3, 0b000);
        s.apply(&Gate::X(0)).unwrap();
        s.apply(&Gate::Cx(0, 1)).unwrap();
        s.apply(&Gate::Mcx {
            controls: vec![0, 1],
            target: 2,
        })
        .unwrap();
        assert_eq!(s.support(), vec![0b111]);
        s.apply(&Gate::Mcp {
            controls: vec![0, 1],
            target: 2,
            theta: 1.0,
        })
        .unwrap();
        assert!(s.amplitude(0b111).approx_eq(Complex::cis(1.0), TOL));
    }

    #[test]
    fn sparse_swap_and_phase_gates() {
        let mut s = SparseState::basis_state(2, 0b01);
        s.apply(&Gate::Swap(0, 1)).unwrap();
        assert_eq!(s.support(), vec![0b10]);
        s.apply(&Gate::Phase(1, 0.5)).unwrap();
        assert!(s.amplitude(0b10).approx_eq(Complex::cis(0.5), TOL));
        s.apply(&Gate::Z(1)).unwrap();
        assert!(s
            .amplitude(0b10)
            .approx_eq(Complex::cis(0.5 + std::f64::consts::PI), TOL));
    }

    #[test]
    fn sparse_y_gate() {
        let mut s = SparseState::basis_state(1, 0);
        s.apply(&Gate::Y(0)).unwrap();
        assert!(s.amplitude(1).approx_eq(Complex::I, TOL));
        s.apply(&Gate::Y(0)).unwrap();
        assert!(s.amplitude(0).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn unsupported_gate_reports_error() {
        let mut s = SparseState::basis_state(1, 0);
        let err = s.apply(&Gate::H(0)).unwrap_err();
        assert!(err.to_string().contains("h q0"));
    }

    #[test]
    fn sampling_concentrates_on_support() {
        let tr = Transition::from_u(&[1, 0]);
        let mut s = SparseState::basis_state(2, 0);
        s.apply_transition(&tr, std::f64::consts::FRAC_PI_4);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = s.sample(4000, &mut rng);
        assert!(counts.keys().all(|l| *l == 0b00 || *l == 0b01));
        let c0 = *counts.get(&0b00).unwrap_or(&0) as f64 / 4000.0;
        assert!((c0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn large_register_transitions() {
        // 100 qubits: dense simulation is impossible; sparse is trivial.
        let mut u = vec![0i64; 100];
        u[97] = 1;
        u[3] = -1;
        let tr = Transition::from_u(&u);
        let mut s = SparseState::basis_state(100, 1 << 3);
        s.apply_transition(&tr, std::f64::consts::FRAC_PI_2);
        assert_eq!(s.support(), vec![1u128 << 97]);
    }

    #[test]
    fn bits_roundtrip() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1];
        assert_eq!(bits_from_label(label_from_bits(&bits), 7), bits);
    }
}

//! Dense state-vector simulator.
//!
//! Stores all `2^n` amplitudes; used for the HEA and P-QAOA baselines
//! whose `Rx`/`Ry` layers act on the full Hilbert space (the paper runs
//! these on CUDA-Quantum). Practical to ~20 qubits, which covers every
//! Table 2 benchmark.

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::gate::Gate;
use crate::parallel::par_chunks_aligned;
use rand::Rng;
use std::collections::BTreeMap;

/// Minimum amplitude count before gate kernels fan out to threads;
/// below this, spawn overhead exceeds the arithmetic.
const PAR_MIN_AMPS: usize = 1 << 14;

/// A dense `2^n`-amplitude quantum state.
///
/// Basis-state labels are little-endian: bit `i` of the label is qubit
/// `i`.
///
/// # Example
///
/// ```
/// use rasengan_qsim::{Circuit, DenseState};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = DenseState::from_circuit(&bell);
/// let p = state.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// assert!(p[0b01].abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DenseState {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl DenseState {
    /// Maximum qubit count before the amplitude vector exceeds ~1 GiB.
    pub const MAX_QUBITS: usize = 26;

    /// Creates `|0…0⟩` on `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS`.
    pub fn zero_state(n_qubits: usize) -> Self {
        Self::basis_state(n_qubits, 0)
    }

    /// Creates the computational basis state `|label⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS` or the label does not fit.
    pub fn basis_state(n_qubits: usize, label: u64) -> Self {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "dense simulation beyond {} qubits is not supported",
            Self::MAX_QUBITS
        );
        assert!(
            n_qubits == 64 || label < (1u64 << n_qubits),
            "basis label {label} out of range for {n_qubits} qubits"
        );
        let mut amps = vec![Complex::ZERO; 1usize << n_qubits];
        amps[label as usize] = Complex::ONE;
        DenseState { n_qubits, amps }
    }

    /// Builds a state from a raw amplitude vector (used by the noise
    /// channels, which apply non-unitary Kraus branches).
    ///
    /// # Panics
    ///
    /// Panics if `amps.len() != 2^n_qubits`.
    pub fn from_amplitudes(n_qubits: usize, amps: Vec<Complex>) -> Self {
        assert_eq!(
            amps.len(),
            1usize << n_qubits,
            "amplitude vector has wrong length"
        );
        DenseState { n_qubits, amps }
    }

    /// Runs `circuit` from `|0…0⟩` and returns the final state.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut s = Self::zero_state(circuit.n_qubits());
        s.run(circuit);
        s
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude of `|label⟩`.
    pub fn amplitude(&self, label: u64) -> Complex {
        self.amps[label as usize]
    }

    /// All amplitudes, indexed by basis label.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable access to the raw amplitude vector (fused kernels in
    /// [`crate::exec`] swap in their scratch buffer).
    pub(crate) fn amps_vec_mut(&mut self) -> &mut Vec<Complex> {
        &mut self.amps
    }

    /// Applies every gate of `circuit` in order.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits,
            "circuit width does not match state"
        );
        for g in circuit.gates() {
            self.apply(g);
        }
    }

    /// Applies a single gate.
    pub fn apply(&mut self, gate: &Gate) {
        match gate {
            Gate::X(q) => self.apply_1q(*q, x_matrix()),
            Gate::Y(q) => self.apply_1q(*q, y_matrix()),
            Gate::Z(q) => self.apply_phase_pair(*q, Complex::ONE, -Complex::ONE),
            Gate::H(q) => self.apply_1q(*q, h_matrix()),
            Gate::Rx(q, t) => self.apply_1q(*q, rx_matrix(*t)),
            Gate::Ry(q, t) => self.apply_1q(*q, ry_matrix(*t)),
            Gate::Rz(q, t) => {
                self.apply_phase_pair(*q, Complex::cis(-t / 2.0), Complex::cis(t / 2.0))
            }
            Gate::Phase(q, t) => self.apply_phase_pair(*q, Complex::ONE, Complex::cis(*t)),
            Gate::Cx(c, t) => self.apply_controlled_x(&[*c], *t),
            Gate::Cz(a, b) => self.apply_controlled_phase(&[*a], *b, std::f64::consts::PI),
            Gate::Swap(a, b) => self.apply_swap(*a, *b),
            Gate::Rzz(a, b, t) => self.apply_rzz(*a, *b, *t),
            Gate::Cp(c, t, theta) => self.apply_controlled_phase(&[*c], *t, *theta),
            Gate::Mcp {
                controls,
                target,
                theta,
            } => self.apply_controlled_phase(controls, *target, *theta),
            Gate::Mcx { controls, target } => self.apply_controlled_x(controls, *target),
        }
    }

    /// Resets the buffer to `|0…0⟩` without reallocating (trajectory
    /// runners reuse one state across shots).
    pub(crate) fn reset_zero(&mut self) {
        self.amps.fill(Complex::ZERO);
        self.amps[0] = Complex::ONE;
    }

    pub(crate) fn apply_1q(&mut self, q: usize, m: [Complex; 4]) {
        let mask = 1usize << q;
        // Chunks are aligned to 2^(q+1), so every (i, i|mask) pair lives
        // inside one chunk and threads never share an amplitude.
        par_chunks_aligned(&mut self.amps, mask << 1, PAR_MIN_AMPS, |_, chunk| {
            for i in 0..chunk.len() {
                if i & mask == 0 {
                    let j = i | mask;
                    let a0 = chunk[i];
                    let a1 = chunk[j];
                    chunk[i] = m[0] * a0 + m[1] * a1;
                    chunk[j] = m[2] * a0 + m[3] * a1;
                }
            }
        });
    }

    /// Applies `diag(p0, p1)` on qubit `q`.
    pub(crate) fn apply_phase_pair(&mut self, q: usize, p0: Complex, p1: Complex) {
        let mask = 1usize << q;
        par_chunks_aligned(&mut self.amps, 1, PAR_MIN_AMPS, |base, chunk| {
            for (i, a) in chunk.iter_mut().enumerate() {
                *a *= if (base + i) & mask == 0 { p0 } else { p1 };
            }
        });
    }

    fn apply_controlled_x(&mut self, controls: &[usize], target: usize) {
        let cmask: usize = controls.iter().map(|&c| 1usize << c).sum();
        self.apply_controlled_x_masks(cmask, 1usize << target);
    }

    pub(crate) fn apply_controlled_x_masks(&mut self, cmask: usize, tmask: usize) {
        par_chunks_aligned(&mut self.amps, tmask << 1, PAR_MIN_AMPS, |base, chunk| {
            for i in 0..chunk.len() {
                let g = base + i;
                if g & cmask == cmask && g & tmask == 0 {
                    chunk.swap(i, i | tmask);
                }
            }
        });
    }

    fn apply_controlled_phase(&mut self, controls: &[usize], target: usize, theta: f64) {
        let mut mask: usize = controls.iter().map(|&c| 1usize << c).sum();
        mask |= 1usize << target;
        self.apply_controlled_phase_masks(mask, Complex::cis(theta));
    }

    pub(crate) fn apply_controlled_phase_masks(&mut self, mask: usize, phase: Complex) {
        par_chunks_aligned(&mut self.amps, 1, PAR_MIN_AMPS, |base, chunk| {
            for (i, a) in chunk.iter_mut().enumerate() {
                if (base + i) & mask == mask {
                    *a *= phase;
                }
            }
        });
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        self.apply_swap_masks(1usize << a, 1usize << b);
    }

    pub(crate) fn apply_swap_masks(&mut self, ma: usize, mb: usize) {
        // Swapped labels agree above bit max(a, b), so chunks aligned to
        // the larger mask keep both members of each pair together.
        let unit = ma.max(mb) << 1;
        par_chunks_aligned(&mut self.amps, unit, PAR_MIN_AMPS, |base, chunk| {
            for i in 0..chunk.len() {
                let g = base + i;
                if g & ma != 0 && g & mb == 0 {
                    chunk.swap(i, i ^ ma ^ mb);
                }
            }
        });
    }

    fn apply_rzz(&mut self, a: usize, b: usize, theta: f64) {
        let (ma, mb) = (1usize << a, 1usize << b);
        let minus = Complex::cis(-theta / 2.0);
        let plus = Complex::cis(theta / 2.0);
        self.apply_rzz_masks(ma, mb, minus, plus);
    }

    pub(crate) fn apply_rzz_masks(&mut self, ma: usize, mb: usize, minus: Complex, plus: Complex) {
        par_chunks_aligned(&mut self.amps, 1, PAR_MIN_AMPS, |base, chunk| {
            for (i, amp) in chunk.iter_mut().enumerate() {
                let g = base + i;
                let parity = ((g & ma != 0) as u8) ^ ((g & mb != 0) as u8);
                *amp *= if parity == 0 { minus } else { plus };
            }
        });
    }

    /// Measurement probabilities for every basis label.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm of the state (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) zero.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        assert!(n > 1e-300, "cannot normalize zero state");
        for a in &mut self.amps {
            *a = a.scale(1.0 / n);
        }
    }

    /// Expectation value of a diagonal observable `f(label)`.
    pub fn expectation_diagonal(&self, f: impl Fn(u64) -> f64) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * f(i as u64))
            .sum()
    }

    /// Draws `shots` measurement outcomes, returning label → count.
    ///
    /// Builds the cumulative-probability table once (`O(2^n)`), then
    /// each shot is a binary search (`O(log 2^n)`). The earlier
    /// implementation recomputed the full norm and linearly scanned the
    /// probability vector *per shot* — `O(shots · 2^n)`, the dominant
    /// cost for shot-heavy noisy workloads.
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> BTreeMap<u64, usize> {
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        let mut last_support = 0usize;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_support = i;
            }
            acc += p;
            cdf.push(acc);
        }
        let norm = acc;
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * norm;
            // First index whose cumulative mass exceeds r, falling back
            // to the last *supported* label when r lands on accumulated
            // rounding. Clamping to `cdf.len() - 1` here would return an
            // out-of-support label for a state whose mass has collapsed
            // onto a prefix (e.g. after heavy amplitude damping) — the
            // un-renormalized CDF tail is a flat plateau the fallback
            // used to land on. The binary search itself can never select
            // an interior zero-mass index (that needs cdf[i] > r with
            // cdf[i-1] <= r and the two equal), so for healthy states
            // this clamp is byte-identical to the old one.
            let outcome = cdf.partition_point(|&c| c <= r).min(last_support);
            *counts.entry(outcome as u64).or_insert(0) += 1;
        }
        counts
    }

    /// Draws one measurement outcome without building the cumulative
    /// table [`Self::sample`] allocates. The norm is accumulated in the
    /// same left-to-right order and the outcome resolved by the same
    /// "first prefix sum exceeding `r`" rule, so for a given RNG state
    /// this returns exactly the label `sample(1, rng)` would, with
    /// identical RNG consumption (one draw).
    pub fn sample_one(&self, rng: &mut impl Rng) -> u64 {
        let mut norm = 0.0f64;
        let mut last_support = 0usize;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_support = i;
            }
            norm += p;
        }
        let r: f64 = rng.gen::<f64>() * norm;
        let mut acc = 0.0f64;
        // The prefix scan cannot terminate past the last supported
        // index (later prefixes are flat), so the fallback — reached
        // when rounding pushes r up to the full norm, or the norm is
        // degenerate (0/NaN after pathological damping) — clamps to the
        // support instead of the raw last label.
        for i in 0..=last_support {
            acc += self.amps[i].norm_sqr();
            if acc > r {
                return i as u64;
            }
        }
        last_support as u64
    }
}

pub(crate) fn x_matrix() -> [Complex; 4] {
    [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO]
}

pub(crate) fn y_matrix() -> [Complex; 4] {
    [Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO]
}

pub(crate) fn h_matrix() -> [Complex; 4] {
    let s = Complex::from(std::f64::consts::FRAC_1_SQRT_2);
    [s, s, s, -s]
}

pub(crate) fn rx_matrix(theta: f64) -> [Complex; 4] {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    [c, s, s, c]
}

pub(crate) fn ry_matrix(theta: f64) -> [Complex; 4] {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    [
        Complex::from(c),
        Complex::from(-s),
        Complex::from(s),
        Complex::from(c),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    #[test]
    fn cdf_sampling_matches_probabilities_chi_squared() {
        // Uniform 3-qubit superposition: 8 equiprobable outcomes. The
        // CDF sampler's counts must pass a chi-squared check against
        // the exact probabilities (df = 7, p = 0.001 cutoff ~24.3).
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let s = DenseState::from_circuit(&c);
        let shots = 8000usize;
        let mut rng = StdRng::seed_from_u64(17);
        let counts = s.sample(shots, &mut rng);
        let expected = shots as f64 / 8.0;
        let chi2: f64 = (0..8u64)
            .map(|l| {
                let obs = *counts.get(&l).unwrap_or(&0) as f64;
                (obs - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 24.3, "chi-squared {chi2} too large for uniform");
    }

    #[test]
    fn cdf_sampling_matches_skewed_probabilities() {
        // A skewed two-outcome state: Rx rotation puts cos^2/sin^2 mass
        // on |0>/|1>; chi-squared df = 1, p = 0.001 cutoff ~10.8.
        let mut s = DenseState::zero_state(1);
        s.apply(&Gate::Rx(0, 1.2));
        let p = s.probabilities();
        let shots = 8000usize;
        let mut rng = StdRng::seed_from_u64(23);
        let counts = s.sample(shots, &mut rng);
        let chi2: f64 = (0..2u64)
            .map(|l| {
                let e = p[l as usize] * shots as f64;
                let obs = *counts.get(&l).unwrap_or(&0) as f64;
                (obs - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 10.8, "chi-squared {chi2} too large for skewed state");
    }

    #[test]
    fn sample_one_matches_sample_single_shot() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).rx(2, 0.7);
        let s = DenseState::from_circuit(&c);
        for seed in 0..50 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let via_sample = *s.sample(1, &mut a).iter().next().unwrap().0;
            assert_eq!(s.sample_one(&mut b), via_sample);
            // Both must consume exactly one draw.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn sampling_degenerate_states_stays_in_support() {
        // Mass collapsed onto a prefix (the post-heavy-damping shape):
        // trailing zero-amplitude labels must never be drawn.
        let mut amps = vec![Complex::ZERO; 8];
        amps[1] = Complex::new(0.3, -0.4);
        let s = DenseState::from_amplitudes(3, amps);
        let mut rng = StdRng::seed_from_u64(99);
        let counts = s.sample(500, &mut rng);
        assert_eq!(counts, BTreeMap::from([(1u64, 500usize)]));
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(s.sample_one(&mut rng), 1);
        }
        // A numerically zero state: the old fallback clamped to the
        // last raw label (here 3); the clamp must stay in the support
        // prefix and return label 0.
        let zero = DenseState::from_amplitudes(2, vec![Complex::ZERO; 4]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(zero.sample_one(&mut rng), 0);
        assert_eq!(zero.sample(4, &mut rng), BTreeMap::from([(0u64, 4usize)]));
    }

    #[test]
    fn reset_zero_restores_initial_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = DenseState::from_circuit(&c);
        s.reset_zero();
        assert_eq!(s, DenseState::zero_state(2));
    }

    #[test]
    fn x_flips_basis_state() {
        let mut s = DenseState::zero_state(1);
        s.apply(&Gate::X(0));
        assert!(s.amplitude(1).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let mut s = DenseState::zero_state(1);
        s.apply(&Gate::H(0));
        s.apply(&Gate::H(0));
        assert!(s.amplitude(0).approx_eq(Complex::ONE, 1e-10));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = DenseState::from_circuit(&c);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
        assert!(p[1] < TOL && p[2] < TOL);
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = DenseState::zero_state(1);
        a.apply(&Gate::Rx(0, std::f64::consts::PI));
        // Rx(π)|0> = -i|1>
        assert!(a.amplitude(1).approx_eq(-Complex::I, 1e-10));
    }

    #[test]
    fn rz_applies_relative_phase() {
        let mut s = DenseState::zero_state(1);
        s.apply(&Gate::H(0));
        s.apply(&Gate::Rz(0, std::f64::consts::PI));
        s.apply(&Gate::H(0));
        // HRz(π)H = X up to global phase: probability all on |1>.
        assert!((s.probabilities()[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mcp_only_phases_all_ones() {
        let mut c = Circuit::new(3);
        c.x(0).x(1).x(2).mcp(vec![0, 1], 2, 1.0);
        let s = DenseState::from_circuit(&c);
        assert!(s.amplitude(0b111).approx_eq(Complex::cis(1.0), TOL));

        let mut c2 = Circuit::new(3);
        c2.x(0).x(2).mcp(vec![0, 1], 2, 1.0); // control q1 is |0> -> no phase
        let s2 = DenseState::from_circuit(&c2);
        assert!(s2.amplitude(0b101).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn mcx_flips_only_when_all_controls_set() {
        let mut c = Circuit::new(3);
        c.x(0).x(1).mcx(vec![0, 1], 2);
        let s = DenseState::from_circuit(&c);
        assert!(s.amplitude(0b111).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0).push(Gate::Swap(0, 1));
        let s = DenseState::from_circuit(&c);
        assert!(s.amplitude(0b10).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn rzz_phases_by_parity() {
        let mut s = DenseState::basis_state(2, 0b01);
        s.apply(&Gate::Rzz(0, 1, 1.0));
        assert!(s.amplitude(0b01).approx_eq(Complex::cis(0.5), TOL));
        let mut s = DenseState::basis_state(2, 0b11);
        s.apply(&Gate::Rzz(0, 1, 1.0));
        assert!(s.amplitude(0b11).approx_eq(Complex::cis(-0.5), TOL));
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .rx(1, 0.3)
            .ry(2, 1.1)
            .rz(3, -0.7)
            .cx(0, 1)
            .cx(2, 3)
            .rzz(1, 2, 0.5);
        let s = DenseState::from_circuit(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_of_diagonal_observable() {
        let mut c = Circuit::new(2);
        c.h(0);
        let s = DenseState::from_circuit(&c);
        // f(label) = label as f64: E = 0.5*0 + 0.5*1 = 0.5
        let e = s.expectation_diagonal(|l| l as f64);
        assert!((e - 0.5).abs() < TOL);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut c = Circuit::new(1);
        c.h(0);
        let s = DenseState::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = s.sample(10_000, &mut rng);
        let ones = *counts.get(&1).unwrap_or(&0) as f64;
        assert!((ones / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn inverse_circuit_restores_initial_state() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .ry(2, 0.4)
            .rzz(0, 2, 0.9)
            .mcp(vec![0], 2, 0.3);
        let mut s = DenseState::zero_state(3);
        s.run(&c);
        s.run(&c.inverse());
        assert!(s.amplitude(0).approx_eq(Complex::ONE, 1e-10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_label_out_of_range_panics() {
        DenseState::basis_state(2, 4);
    }
}

//! Exact density-matrix simulation of noisy circuits.
//!
//! The workhorse noise engine of this crate is trajectory sampling
//! ([`crate::noise`]): cheap, sparse-friendly, but stochastic. This
//! module evolves the full density matrix `ρ` instead, applying each
//! channel's Kraus operators *exactly*: `ρ ← Σ_k K_k ρ K_k†`. It is
//! exponentially expensive (`4^n` entries) and therefore capped at
//! 7 qubits — exactly enough to cross-validate the trajectory sampler,
//! which the tests here do. The module is compiled for tests only.

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::gate::Gate;
use crate::noise::NoiseModel;

/// A dense density matrix on up to [`DensityMatrix::MAX_QUBITS`] qubits.
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n_qubits: usize,
    /// Row-major `2^n × 2^n` matrix.
    rho: Vec<Complex>,
}

impl DensityMatrix {
    /// Maximum width (the matrix is `4^n` complex numbers).
    pub const MAX_QUBITS: usize = 7;

    /// Creates the pure state `|label⟩⟨label|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > MAX_QUBITS` or the label does not fit.
    pub fn basis_state(n_qubits: usize, label: u64) -> Self {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density simulation beyond {} qubits is not supported",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        assert!((label as usize) < dim, "label out of range");
        let mut rho = vec![Complex::ZERO; dim * dim];
        rho[label as usize * dim + label as usize] = Complex::ONE;
        DensityMatrix { n_qubits, rho }
    }

    /// The matrix entry `ρ[r][c]`.
    pub fn entry(&self, r: usize, c: usize) -> Complex {
        self.rho[r * self.dim() + c]
    }

    fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// The trace (should be 1).
    pub fn trace(&self) -> Complex {
        let dim = self.dim();
        let mut t = Complex::ZERO;
        for i in 0..dim {
            t += self.rho[i * dim + i];
        }
        t
    }

    /// Measurement probabilities (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim).map(|i| self.rho[i * dim + i].re).collect()
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let dim = self.dim();
        let mut p = 0.0;
        for r in 0..dim {
            for c in 0..dim {
                // Tr(ρ²) = Σ_rc ρ_rc ρ_cr; ρ is Hermitian so ρ_cr = ρ_rc*.
                p += (self.rho[r * dim + c] * self.rho[c * dim + r]).re;
            }
        }
        p
    }

    /// Applies a unitary gate: `ρ ← U ρ U†`.
    pub fn apply_gate(&mut self, gate: &Gate) {
        // Build the 2^n × 2^n unitary column by column through the
        // statevector backend (widths here are tiny).
        let dim = self.dim();
        let mut u = vec![Complex::ZERO; dim * dim];
        for col in 0..dim {
            let mut s = crate::dense::DenseState::basis_state(self.n_qubits, col as u64);
            s.apply(gate);
            for (row, amp) in s.amplitudes().iter().enumerate() {
                u[row * dim + col] = *amp;
            }
        }
        self.conjugate_by(&u);
    }

    /// Applies a single-qubit Kraus channel `{K_k}` on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the channel is not trace preserving
    /// (`Σ K†K = I` violated beyond tolerance).
    pub fn apply_kraus_1q(&mut self, q: usize, kraus: &[[Complex; 4]]) {
        #[cfg(debug_assertions)]
        {
            // Σ K†K = I check.
            let mut sum = [Complex::ZERO; 4];
            for k in kraus {
                // K†K for a 2x2 [a b; c d] is [(a*a+c*c) (a*b+c*d); ...].
                let (a, b, c, d) = (k[0], k[1], k[2], k[3]);
                sum[0] += a.conj() * a + c.conj() * c;
                sum[1] += a.conj() * b + c.conj() * d;
                sum[2] += b.conj() * a + d.conj() * c;
                sum[3] += b.conj() * b + d.conj() * d;
            }
            debug_assert!(
                sum[0].approx_eq(Complex::ONE, 1e-9)
                    && sum[3].approx_eq(Complex::ONE, 1e-9)
                    && sum[1].approx_eq(Complex::ZERO, 1e-9)
                    && sum[2].approx_eq(Complex::ZERO, 1e-9),
                "Kraus set is not trace preserving"
            );
        }
        let dim = self.dim();
        let mut next = vec![Complex::ZERO; dim * dim];
        for k in kraus {
            // Embed K on qubit q: K_full[r][c] over basis pairs that
            // agree off q.
            let apply = |rho: &[Complex], out: &mut [Complex]| {
                // out += (K ρ K†)
                // K ρ: rows transformed; then right-multiply by K†.
                let mask = 1usize << q;
                // tmp = K ρ
                let mut tmp = vec![Complex::ZERO; dim * dim];
                for r in 0..dim {
                    let bit = (r & mask != 0) as usize;
                    let r0 = r & !mask;
                    let r1 = r | mask;
                    for c in 0..dim {
                        // row r of K-full picks rows r0/r1 of ρ.
                        tmp[r * dim + c] =
                            k[bit * 2] * rho[r0 * dim + c] + k[bit * 2 + 1] * rho[r1 * dim + c];
                    }
                }
                // out += tmp K†
                for r in 0..dim {
                    for c in 0..dim {
                        let bit = (c & mask != 0) as usize;
                        let c0 = c & !mask;
                        let c1 = c | mask;
                        // (K†)[row][c] = conj(K[c][row])
                        out[r * dim + c] += tmp[r * dim + c0] * k[bit * 2].conj()
                            + tmp[r * dim + c1] * k[bit * 2 + 1].conj();
                    }
                }
            };
            apply(&self.rho, &mut next);
        }
        self.rho = next;
    }

    /// Applies a depolarizing channel of probability `p` on qubit `q`.
    pub fn apply_depolarizing(&mut self, q: usize, p: f64) {
        let s0 = (1.0 - p).sqrt();
        let sp = (p / 3.0).sqrt();
        let kraus = [
            [
                Complex::from(s0),
                Complex::ZERO,
                Complex::ZERO,
                Complex::from(s0),
            ],
            [
                Complex::ZERO,
                Complex::from(sp),
                Complex::from(sp),
                Complex::ZERO,
            ], // X
            [
                Complex::ZERO,
                Complex::new(0.0, -sp),
                Complex::new(0.0, sp),
                Complex::ZERO,
            ], // Y
            [
                Complex::from(sp),
                Complex::ZERO,
                Complex::ZERO,
                Complex::from(-sp),
            ], // Z
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Applies an amplitude-damping channel of strength `γ` on qubit `q`.
    pub fn apply_amplitude_damping(&mut self, q: usize, gamma: f64) {
        let kraus = [
            [
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from((1.0 - gamma).sqrt()),
            ],
            [
                Complex::ZERO,
                Complex::from(gamma.sqrt()),
                Complex::ZERO,
                Complex::ZERO,
            ],
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Applies a phase-damping channel of strength `λ` on qubit `q`.
    pub fn apply_phase_damping(&mut self, q: usize, lambda: f64) {
        let kraus = [
            [
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from((1.0 - lambda).sqrt()),
            ],
            [
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from(lambda.sqrt()),
            ],
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Runs a circuit with gate-level noise applied exactly after each
    /// gate (depolarizing per touched qubit, then amplitude damping) —
    /// the exact counterpart of
    /// [`crate::noise::run_dense_trajectory`]'s sampled channels.
    pub fn run_noisy(&mut self, circuit: &Circuit, noise: &NoiseModel) {
        for g in circuit.gates() {
            self.apply_gate(g);
            let p = noise.gate_error(g);
            for q in g.qubits() {
                if p > 0.0 {
                    self.apply_depolarizing(q, p);
                }
                if noise.amplitude_damping > 0.0 {
                    self.apply_amplitude_damping(q, noise.amplitude_damping);
                }
                if noise.phase_damping > 0.0 {
                    self.apply_phase_damping(q, noise.phase_damping);
                }
            }
        }
    }

    /// `ρ ← U ρ U†` for a full-dimension matrix `u` (row-major).
    fn conjugate_by(&mut self, u: &[Complex]) {
        let dim = self.dim();
        // tmp = U ρ
        let mut tmp = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            for k in 0..dim {
                let urk = u[r * dim + k];
                if urk.norm_sqr() < 1e-24 {
                    continue;
                }
                for c in 0..dim {
                    tmp[r * dim + c] += urk * self.rho[k * dim + c];
                }
            }
        }
        // ρ = tmp U†
        let mut out = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            for k in 0..dim {
                let trk = tmp[r * dim + k];
                if trk.norm_sqr() < 1e-24 {
                    continue;
                }
                for c in 0..dim {
                    out[r * dim + c] += trk * u[c * dim + k].conj();
                }
            }
        }
        self.rho = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::run_dense_trajectory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pure_state_properties() {
        let rho = DensityMatrix::basis_state(2, 0b10);
        assert!(rho.trace().approx_eq(Complex::ONE, 1e-12));
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert_eq!(rho.probabilities()[0b10], 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.4);
        let mut rho = DensityMatrix::basis_state(2, 0);
        for g in c.gates() {
            rho.apply_gate(g);
        }
        let sv = crate::dense::DenseState::from_circuit(&c);
        let probs = sv.probabilities();
        for (i, &p) in rho.probabilities().iter().enumerate() {
            assert!((p - probs[i]).abs() < 1e-10, "prob mismatch at {i}");
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_decreases_purity() {
        let mut rho = DensityMatrix::basis_state(1, 0);
        rho.apply_gate(&Gate::H(0));
        let pure = rho.purity();
        rho.apply_depolarizing(0, 0.2);
        assert!(rho.purity() < pure);
        assert!(rho.trace().approx_eq(Complex::ONE, 1e-10));
    }

    #[test]
    fn full_depolarizing_is_maximally_mixed() {
        let mut rho = DensityMatrix::basis_state(1, 1);
        // Repeated strong depolarizing converges to I/2.
        for _ in 0..64 {
            rho.apply_depolarizing(0, 0.75);
        }
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!((rho.purity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn amplitude_damping_fixed_point_is_ground_state() {
        let mut rho = DensityMatrix::basis_state(1, 1);
        for _ in 0..256 {
            rho.apply_amplitude_damping(0, 0.1);
        }
        assert!((rho.probabilities()[0] - 1.0).abs() < 1e-6);
    }

    /// The decisive cross-check: trajectory-averaged populations must
    /// converge to the exact density-matrix diagonal.
    #[test]
    fn trajectories_converge_to_exact_channel() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rx(1, 0.7);
        let noise = NoiseModel::depolarizing(0.05).with_amplitude_damping(0.03);

        let mut exact = DensityMatrix::basis_state(2, 0);
        exact.run_noisy(&c, &noise);
        let exact_probs = exact.probabilities();

        let trials = 6000;
        let mut avg = [0.0f64; 4];
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = run_dense_trajectory(&c, &noise, &mut rng);
            for (i, p) in s.probabilities().iter().enumerate() {
                avg[i] += p / trials as f64;
            }
        }
        for i in 0..4 {
            assert!(
                (avg[i] - exact_probs[i]).abs() < 0.02,
                "population {i}: trajectories {:.4} vs exact {:.4}",
                avg[i],
                exact_probs[i]
            );
        }
    }

    #[test]
    fn phase_damping_kills_coherences_not_populations() {
        let mut rho = DensityMatrix::basis_state(1, 0);
        rho.apply_gate(&Gate::H(0));
        let before = rho.probabilities();
        let coh_before = rho.entry(0, 1).abs();
        for _ in 0..64 {
            rho.apply_phase_damping(0, 0.3);
        }
        let after = rho.probabilities();
        assert!((before[0] - after[0]).abs() < 1e-10, "population changed");
        assert!(
            rho.entry(0, 1).abs() < 1e-4 && coh_before > 0.4,
            "coherence survived"
        );
    }

    #[test]
    fn phase_damping_trajectories_match_exact() {
        use crate::noise::phase_damping_dense;
        let lambda = 0.2;
        let mut c = Circuit::new(1);
        c.h(0);
        let mut exact = DensityMatrix::basis_state(1, 0);
        exact.apply_gate(&Gate::H(0));
        exact.apply_phase_damping(0, lambda);
        // Coherence magnitude after one exact channel application.
        let exact_coh = exact.entry(0, 1).abs();

        // Trajectory average of the off-diagonal: reconstruct from the
        // pure states' ρ = |ψ⟩⟨ψ| averaged over trajectories.
        let trials = 20000;
        let mut avg_coh = 0.0;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = crate::dense::DenseState::from_circuit(&c);
            phase_damping_dense(&mut s, 0, lambda, &mut rng);
            let a0 = s.amplitude(0);
            let a1 = s.amplitude(1);
            avg_coh += (a0 * a1.conj()).re / trials as f64;
        }
        assert!(
            (avg_coh - exact_coh).abs() < 0.02,
            "trajectory coherence {avg_coh:.4} vs exact {exact_coh:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn width_cap_enforced() {
        DensityMatrix::basis_state(8, 0);
    }
}

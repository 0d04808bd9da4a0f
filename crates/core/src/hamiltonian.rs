//! Transition Hamiltonians (paper Definition 1).
//!
//! A transition Hamiltonian `H^τ(u) = ⊗σ(uᵢ) + ⊗σ(−uᵢ)` is built from a
//! ternary homogeneous basis vector `u` of the constraint system. Its
//! time evolution `τ(u, t) = exp(−i H^τ(u) t)` moves probability between
//! each feasible basis state and its `±u` partner (Eq. 6), keeping the
//! state inside the feasible space.

use rasengan_math::basis::{nonzero_count, ternary_nullspace_basis, TernaryBasisError};
use rasengan_problems::Problem;
use rasengan_qsim::decompose::tau_cx_cost;
use rasengan_qsim::synth::tau_circuit;
use rasengan_qsim::{Circuit, Label, SparseState, Transition};

/// One transition Hamiltonian `H^τ(u)` with its precomputed mask form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionHamiltonian {
    u: Vec<i64>,
    transition: Transition,
}

impl TransitionHamiltonian {
    /// Builds a transition Hamiltonian from a ternary basis vector.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a nonzero `{-1,0,1}` vector (the invariant
    /// guaranteed by [`problem_basis`]).
    pub fn new(u: Vec<i64>) -> Self {
        let transition = Transition::from_u(&u);
        TransitionHamiltonian { u, transition }
    }

    /// The homogeneous basis vector.
    pub fn u(&self) -> &[i64] {
        &self.u
    }

    /// The mask-form transition used by the sparse simulator.
    pub fn transition(&self) -> &Transition {
        &self.transition
    }

    /// Number of nonzero entries (`k` in the `34k` CX-cost model).
    pub fn weight(&self) -> usize {
        nonzero_count(&self.u)
    }

    /// CX-gate cost of one simulation of this Hamiltonian (paper §3.2).
    pub fn cx_cost(&self) -> usize {
        tau_cx_cost(self.weight())
    }

    /// The qubits this Hamiltonian touches.
    pub fn support(&self) -> Vec<usize> {
        (0..self.u.len()).filter(|&i| self.u[i] != 0).collect()
    }

    /// Synthesizes the gate-level circuit of `τ(u, t)` (paper Fig. 4).
    pub fn circuit(&self, t: f64, n_qubits: usize) -> Circuit {
        tau_circuit(&self.u, t, n_qubits)
    }

    /// Applies `τ(u, t)` analytically to a sparse state (Eq. 6).
    pub fn apply(&self, state: &mut SparseState, t: f64) {
        state.apply_transition(&self.transition, t);
    }

    /// The partner basis state of `x` under this Hamiltonian, if the
    /// move stays binary (`H|x⟩ = |x ± u⟩`, else `H|x⟩ = 0`).
    pub fn partner(&self, x: Label) -> Option<Label> {
        self.transition.partner(x)
    }
}

/// Computes the problem's ternary homogeneous basis — the `m` vectors
/// that generate the transition Hamiltonians.
///
/// # Errors
///
/// Propagates [`TernaryBasisError`] when the constraint system admits no
/// `{-1,0,1}` nullspace basis (never the case for the five benchmark
/// domains).
pub fn problem_basis(problem: &Problem) -> Result<Vec<Vec<i64>>, TernaryBasisError> {
    ternary_nullspace_basis(problem.constraints())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_qsim::sparse::label_from_bits;

    fn paper_u2() -> TransitionHamiltonian {
        TransitionHamiltonian::new(vec![-1, 0, -1, 1, 0])
    }

    #[test]
    fn weight_and_cost() {
        let h = paper_u2();
        assert_eq!(h.weight(), 3);
        assert_eq!(h.cx_cost(), 102);
        assert_eq!(h.support(), vec![0, 2, 3]);
    }

    #[test]
    fn partner_mirrors_linear_algebra() {
        let h = paper_u2();
        let xp = label_from_bits(&[0, 0, 0, 1, 0]);
        let xg = label_from_bits(&[1, 0, 1, 0, 0]);
        assert_eq!(h.partner(xp), Some(xg));
        assert_eq!(h.partner(xg), Some(xp));
    }

    #[test]
    fn apply_expands_sparse_state() {
        let h = paper_u2();
        let mut s = SparseState::from_bits(&[0, 0, 0, 1, 0]);
        h.apply(&mut s, std::f64::consts::FRAC_PI_4);
        assert_eq!(s.support_size(), 2);
    }

    #[test]
    fn circuit_matches_analytic_application() {
        use rasengan_qsim::DenseState;
        let h = TransitionHamiltonian::new(vec![1, -1, 0]);
        let c = h.circuit(0.4, 3);
        let mut dense = DenseState::basis_state(3, 0b010);
        dense.run(&c);
        let mut sparse = SparseState::basis_state(3, 0b010);
        h.apply(&mut sparse, 0.4);
        for l in 0..8u64 {
            assert!(dense
                .amplitude(l)
                .approx_eq(sparse.amplitude(l as u128), 1e-9));
        }
    }

    #[test]
    fn problem_basis_of_paper_example() {
        use rasengan_math::IntMatrix;
        use rasengan_problems::{Objective, Sense};
        let p = Problem::new(
            "paper",
            IntMatrix::from_rows(&[vec![1, 1, -1, 0, 0], vec![0, 0, 1, 1, -1]]),
            vec![0, 1],
            Objective::linear(vec![0.0; 5]),
            Sense::Minimize,
        )
        .unwrap();
        let basis = problem_basis(&p).unwrap();
        assert_eq!(basis.len(), 3);
    }
}

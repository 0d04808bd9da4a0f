//! Quantum-circuit substrate for the Rasengan reproduction.
//!
//! The paper's software stack uses Qiskit + CUDA-Quantum (dense
//! simulation of HEA/QAOA baselines) and DDSim (decision-diagram
//! simulation of Rasengan's phase-type circuits). This crate provides
//! the equivalent substrate from scratch:
//!
//! * [`Circuit`]/[`Gate`] — the circuit IR shared by all four
//!   algorithms, with depth and gate-count metrics.
//! * [`DenseState`] — dense state-vector simulation (baselines, ≤ 20
//!   qubits).
//! * [`SparseState`] — sparse basis-state simulation with analytic
//!   transition operators ([`Transition`]), exact for Rasengan/Choco-Q
//!   circuits at 100+ qubits.
//! * [`exec`] — compiled circuit programs for dense trajectory
//!   sampling: per noise model, one plan that fuses the gates between
//!   active noise channels (1-qubit matrix runs, diagonal-phase runs,
//!   label-permutation runs).
//! * [`noise`] — trajectory-sampled depolarizing, amplitude-damping,
//!   phase-damping, and readout channels.
//! * [`parallel`] — deterministic scoped-thread parallelism (derived
//!   per-stream seeds, index-ordered results, aligned chunking).
//! * [`fault`] — deterministic seed-derived fault injection (shot-batch
//!   loss, readout bursts, calibration drift, targeted kills) for
//!   exercising the solver's recovery paths.
//! * [`synth`] — gate-level synthesis of transition operators
//!   (paper Fig. 4's symmetric two-MCP structure).
//! * [`decompose`] — lowering to `{1Q, CX}` and the paper's `34k`
//!   CX-cost model.
//! * [`route`] — coupling maps (linear, heavy-hex) and greedy SWAP
//!   routing ("compiled via Quebec").
//! * [`Device`] — IBM Kyiv/Brisbane/Quebec calibration, timing, and
//!   latency models.
//!
//! # Example: cross-validating the two backends
//!
//! ```
//! use rasengan_qsim::{synth::tau_circuit, DenseState, SparseState, Transition};
//!
//! let u = [1i64, -1, 0];
//! let t = 0.6;
//!
//! // Dense: run the synthesized gate circuit.
//! let mut dense = DenseState::basis_state(3, 0b010);
//! dense.run(&tau_circuit(&u, t, 3));
//!
//! // Sparse: apply Eq. 6 analytically.
//! let mut sparse = SparseState::basis_state(3, 0b010);
//! sparse.apply_transition(&Transition::from_u(&u), t);
//!
//! for label in 0..8u64 {
//!     assert!(dense
//!         .amplitude(label)
//!         .approx_eq(sparse.amplitude(label as u128), 1e-9));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod complex;
pub mod decompose;
pub mod dense;
pub mod device;
pub mod draw;
pub mod exec;
pub mod fault;
pub mod gate;
pub mod noise;
pub mod parallel;
pub mod peephole;
pub mod qasm;
pub mod route;
pub mod sparse;
pub mod synth;
pub mod verify;

// Exact Kraus evolution: the oracle the trajectory channels are tested against.
#[cfg(test)]
mod density;

pub use circuit::Circuit;
pub use complex::Complex;
pub use dense::DenseState;
pub use device::Device;
pub use exec::{DenseTrajectoryRunner, Program};
pub use fault::{FaultKind, FaultPlan};
pub use gate::Gate;
pub use noise::{NoiseModel, NOTIONAL_SHOTS};
pub use sparse::{Label, PreparedSampler, SparseState, Transition};

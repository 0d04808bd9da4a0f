//! Compiled circuit programs: noise-aware gate fusion for dense
//! trajectory sampling.
//!
//! [`Program::compile`] walks a [`Circuit`] once and records one entry
//! per gate: its dense op with masks, angles and matrices precomputed,
//! its qubit range, its arity class (which depolarizing rate its noise
//! channel uses) and its fusion class. Compiling fuses nothing.
//!
//! [`DenseTrajectoryRunner::new`] groups the gates into a plan for one
//! [`NoiseModel`], in the module's only fusion walk:
//!
//! * a gate whose noise channel is *active* — its depolarizing rate or
//!   either damping rate is nonzero — stays a step of its own, and its
//!   noise barrier follows it;
//! * a maximal run of gates whose channels are inactive fuses: adjacent
//!   single-qubit gates collapse into one 2×2 matrix per qubit,
//!   diagonal gates (`Z`/`Rz`/`Phase`/`Cz`/`Rzz`/`Cp`/`Mcp`) into one
//!   diagonal-phase pass with precomputed factors, and permutation
//!   gates (`X`/`Y`/`Cx`/`Swap`/`Mcx`) into one label permutation.
//!
//! An inactive channel touches neither the state nor the RNG, so the
//! runner draws exactly the random numbers gate-by-gate execution
//! ([`noise::run_dense_trajectory`]) draws, at the same points. Under
//! [`NoiseModel::noise_free`] every gate fuses. Each trajectory replays
//! the plan on one reused state buffer without allocating.
//!
//! Diagonal and permutation runs multiply each amplitude by the same
//! factor sequence, in gate order, that gate-by-gate execution would —
//! so they are bit-identical to the unfused path, except that a fused
//! `Z` multiplies by `cis(π)` rather than the exact −1. Only fused
//! 1-qubit matrix products introduce rounding (bounded by the property
//! tests at 1e-9).

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::dense::{self, DenseState};
use crate::gate::Gate;
use crate::noise::{self, NoiseModel};
use crate::parallel::par_chunks_aligned;
use crate::sparse::Label;
use rand::Rng;

/// Minimum dense amplitude count before fused runs fan out to
/// threads (mirrors the per-gate kernels in [`crate::dense`]).
const PAR_MIN_AMPS: usize = 1 << 14;

/// One term of a fused diagonal run. Factors are precomputed at
/// compile time; application order matches gate order, so the product
/// sequence per amplitude is exactly what gate-by-gate execution does.
#[derive(Clone, Copy, Debug)]
enum DiagTerm {
    /// Multiply by `phase` when all `mask` bits are set
    /// (`Z`/`Phase`/`Cz`/`Cp`/`Mcp`).
    MaskPhase {
        /// Required-ones mask.
        mask: Label,
        /// Phase factor applied on match.
        phase: Complex,
    },
    /// `Rz`: `m0` when the bit is clear, `m1` when set.
    BitPair {
        /// The rotated qubit's mask.
        mask: Label,
        /// Factor for bit = 0.
        m0: Complex,
        /// Factor for bit = 1.
        m1: Complex,
    },
    /// `Rzz`: `m0` on even parity of the two bits, `m1` on odd.
    ParityPair {
        /// First qubit mask.
        ma: Label,
        /// Second qubit mask.
        mb: Label,
        /// Factor for even parity.
        m0: Complex,
        /// Factor for odd parity.
        m1: Complex,
    },
}

impl DiagTerm {
    #[inline]
    fn apply(&self, label: Label, amp: &mut Complex) {
        match *self {
            DiagTerm::MaskPhase { mask, phase } => {
                if label & mask == mask {
                    *amp *= phase;
                }
            }
            DiagTerm::BitPair { mask, m0, m1 } => {
                *amp *= if label & mask == 0 { m0 } else { m1 };
            }
            DiagTerm::ParityPair { ma, mb, m0, m1 } => {
                let parity = ((label & ma != 0) as u8) ^ ((label & mb != 0) as u8);
                *amp *= if parity == 0 { m0 } else { m1 };
            }
        }
    }
}

/// One step of a fused label-permutation run.
#[derive(Clone, Copy, Debug)]
enum PermStep {
    /// Unconditional bit flips (`X`).
    Xor(Label),
    /// Flip `xor` when all `ctrl` bits are set (`Cx`/`Mcx`).
    CondXor {
        /// Control mask (all bits must be set).
        ctrl: Label,
        /// Target mask to flip.
        xor: Label,
    },
    /// Exchange two bit positions (`Swap`).
    SwapBits {
        /// First bit mask.
        ma: Label,
        /// Second bit mask.
        mb: Label,
    },
    /// `Y`: flip the bit and phase by `±i` depending on its prior value.
    YFlip(Label),
}

/// Applies a permutation run to one `(label, amplitude)` pair, walking
/// the steps in gate order.
#[inline]
fn apply_perm_steps(steps: &[PermStep], mut label: Label, mut amp: Complex) -> (Label, Complex) {
    for s in steps {
        match *s {
            PermStep::Xor(m) => label ^= m,
            PermStep::CondXor { ctrl, xor } => {
                if label & ctrl == ctrl {
                    label ^= xor;
                }
            }
            PermStep::SwapBits { ma, mb } => {
                let ba = (label & ma != 0) as u8;
                let bb = (label & mb != 0) as u8;
                if ba != bb {
                    label ^= ma | mb;
                }
            }
            PermStep::YFlip(m) => {
                amp *= if label & m == 0 {
                    Complex::I
                } else {
                    -Complex::I
                };
                label ^= m;
            }
        }
    }
    (label, amp)
}

/// A single compiled gate for trajectory (noisy) execution, with all
/// masks, angles, and matrices precomputed. Application is bit-identical
/// to [`DenseState::apply`] on the corresponding [`Gate`].
#[derive(Clone, Copy, Debug)]
enum GateOp {
    OneQ {
        q: usize,
        m: [Complex; 4],
    },
    PhasePair {
        q: usize,
        p0: Complex,
        p1: Complex,
    },
    CtrlX {
        cmask: Label,
        tmask: Label,
    },
    CtrlPhase {
        mask: Label,
        phase: Complex,
    },
    SwapQ {
        ma: Label,
        mb: Label,
    },
    RzzQ {
        ma: Label,
        mb: Label,
        minus: Complex,
        plus: Complex,
    },
}

impl GateOp {
    fn apply_dense(&self, state: &mut DenseState) {
        match *self {
            GateOp::OneQ { q, m } => state.apply_1q(q, m),
            GateOp::PhasePair { q, p0, p1 } => state.apply_phase_pair(q, p0, p1),
            GateOp::CtrlX { cmask, tmask } => {
                state.apply_controlled_x_masks(cmask as usize, tmask as usize)
            }
            GateOp::CtrlPhase { mask, phase } => {
                state.apply_controlled_phase_masks(mask as usize, phase)
            }
            GateOp::SwapQ { ma, mb } => state.apply_swap_masks(ma as usize, mb as usize),
            GateOp::RzzQ {
                ma,
                mb,
                minus,
                plus,
            } => state.apply_rzz_masks(ma as usize, mb as usize, minus, plus),
        }
    }

    /// The op as a `(qubit, 2×2 matrix)` pair a 1-qubit run can absorb
    /// (`None` for multi-qubit ops). The entries are the constants
    /// [`DenseState::apply`] uses.
    fn one_q(&self) -> Option<(usize, [Complex; 4])> {
        match *self {
            GateOp::OneQ { q, m } => Some((q, m)),
            GateOp::PhasePair { q, p0, p1 } => Some((q, [p0, Complex::ZERO, Complex::ZERO, p1])),
            _ => None,
        }
    }
}

/// How a gate joins a fused run when its noise channel is inactive.
#[derive(Clone, Copy, Debug)]
enum Fusion {
    /// `H`/`Rx`/`Ry`: only a 1-qubit matrix run takes it.
    OneQ,
    /// A diagonal gate. An open 1-qubit run absorbs the single-qubit
    /// ones (`Z`/`Rz`/`Phase`) as matrices instead.
    Diag(DiagTerm),
    /// A permutation gate. An open 1-qubit run absorbs the
    /// single-qubit ones (`X`/`Y`) as matrices instead.
    Perm(PermStep),
}

/// One compiled gate: its dense op, the touched-qubit range into the
/// program's flat buffer and the arity class (which select its noise
/// barrier's qubits and `p1` vs `p2`), and its fusion class.
#[derive(Clone, Debug)]
struct CompiledGate {
    op: GateOp,
    qubits: (u32, u32),
    multi: bool,
    fusion: Fusion,
}

/// The fused run the plan builder is currently accumulating.
enum Pending {
    None,
    OneQ(Vec<(usize, [Complex; 4])>),
    Diag(Vec<DiagTerm>),
    Perm(Vec<PermStep>),
}

/// One step of a noise-specialized trajectory plan.
#[derive(Clone, Debug)]
enum PlanStep {
    /// A gate whose noise channel is active: apply the compiled op,
    /// then its noise barrier — exactly the gate-by-gate sequence.
    Gate(u32),
    /// A fused run of 1-qubit gates with inactive channels.
    OneQ(Vec<(usize, [Complex; 4])>),
    /// A fused run of diagonal gates with inactive channels.
    Diagonal(Vec<DiagTerm>),
    /// A fused run of permutation gates with inactive channels.
    Permutation(PermRun),
}

/// States small enough to precompute a permutation run into a scatter
/// table (2^22 `u32` entries = 16 MiB; above that the per-amplitude
/// step chain wins on memory).
const PERM_TABLE_MAX_QUBITS: usize = 22;

/// A permutation run for dense plan execution, optionally precomputed
/// into a scatter table so the hot loop is `out[index[l]] = f·amps[l]`
/// instead of re-walking the step chain per amplitude.
#[derive(Clone, Debug)]
struct PermRun {
    /// Label-transform steps in gate order (the fallback above the
    /// table threshold, and the source the table is built from).
    steps: Vec<PermStep>,
    /// Destination label per source label (empty above the threshold).
    index: Vec<u32>,
    /// Amplitude factor per source label — products of the `±i` phases
    /// `Y` flips contribute; empty when every factor is 1.
    factors: Vec<Complex>,
}

impl PermRun {
    fn new(steps: Vec<PermStep>, n_qubits: usize) -> PermRun {
        let mut run = PermRun {
            steps,
            index: Vec::new(),
            factors: Vec::new(),
        };
        if n_qubits > PERM_TABLE_MAX_QUBITS {
            return run;
        }
        let dim = 1usize << n_qubits;
        run.index.reserve_exact(dim);
        run.factors.reserve_exact(dim);
        let mut trivial = true;
        for l in 0..dim {
            let (l2, f) = apply_perm_steps(&run.steps, l as Label, Complex::ONE);
            run.index.push(l2 as u32);
            trivial &= f == Complex::ONE;
            run.factors.push(f);
        }
        if trivial {
            run.factors = Vec::new();
        }
        run
    }
}

/// A circuit compiled into one precomputed entry per gate, from which
/// [`DenseTrajectoryRunner`] builds a noise-specialized fused plan.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use rasengan_qsim::{Circuit, DenseState, DenseTrajectoryRunner, NoiseModel, Program};
///
/// let mut c = Circuit::new(2);
/// c.h(0).rz(0, 0.4).rz(1, -0.2).cx(0, 1);
/// let program = Program::compile(&c);
/// let noise = NoiseModel::noise_free();
/// assert!(program.fusion_stats(&noise).steps < c.len());
/// let mut runner = DenseTrajectoryRunner::new(&program, &noise);
/// let fused = runner.run(&mut StdRng::seed_from_u64(0));
/// let reference = DenseState::from_circuit(&c);
/// for l in 0..4 {
///     assert!(fused.amplitude(l).approx_eq(reference.amplitude(l), 1e-12));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    n_qubits: usize,
    gates: Vec<CompiledGate>,
    qubit_buf: Vec<usize>,
}

/// Fusion counters for one trajectory plan, reported by
/// [`Program::fusion_stats`]. Every source gate is accounted exactly
/// once: either it stayed a gate-by-gate step (`barriers` — an active
/// noise channel attaches after it) or it was absorbed into a fused
/// run (`gates_fused`, broken down by run kind), so
/// `gates_fused + barriers == gate_count` always.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Gates in the source circuit.
    pub gate_count: usize,
    /// Steps in the plan: the barriers plus the fused runs.
    pub steps: usize,
    /// Gates executed individually because their noise channel is
    /// active (the noise barrier after each one blocks fusion).
    pub barriers: usize,
    /// Gates absorbed into fused runs (sum of the three kinds below).
    pub gates_fused: usize,
    /// Gates absorbed into fused single-qubit matrix runs.
    pub one_q_gates: usize,
    /// Gates absorbed into diagonal runs.
    pub diagonal_gates: usize,
    /// Gates absorbed into permutation runs.
    pub permutation_gates: usize,
    /// Number of fused single-qubit runs.
    pub one_q_runs: usize,
    /// Number of diagonal runs.
    pub diagonal_runs: usize,
    /// Number of permutation runs.
    pub permutation_runs: usize,
    /// Longest diagonal run (in gates).
    pub diagonal_run_len_max: usize,
    /// Longest permutation run (in gates).
    pub permutation_run_len_max: usize,
}

/// `b · a` as 2×2 row-major matrices (gate `b` applied after `a`).
fn matmul(b: [Complex; 4], a: [Complex; 4]) -> [Complex; 4] {
    [
        b[0] * a[0] + b[1] * a[2],
        b[0] * a[1] + b[1] * a[3],
        b[2] * a[0] + b[3] * a[2],
        b[2] * a[1] + b[3] * a[3],
    ]
}

fn diag_term(g: &Gate) -> Option<DiagTerm> {
    Some(match g {
        Gate::Z(q) => DiagTerm::MaskPhase {
            mask: 1 << q,
            phase: Complex::cis(std::f64::consts::PI),
        },
        Gate::Phase(q, t) => DiagTerm::MaskPhase {
            mask: 1 << q,
            phase: Complex::cis(*t),
        },
        Gate::Rz(q, t) => DiagTerm::BitPair {
            mask: 1 << q,
            m0: Complex::cis(-t / 2.0),
            m1: Complex::cis(t / 2.0),
        },
        Gate::Cz(a, b) => DiagTerm::MaskPhase {
            mask: (1 << a) | (1 << b),
            phase: Complex::cis(std::f64::consts::PI),
        },
        Gate::Cp(a, b, t) => DiagTerm::MaskPhase {
            mask: (1 << a) | (1 << b),
            phase: Complex::cis(*t),
        },
        Gate::Mcp {
            controls,
            target,
            theta,
        } => DiagTerm::MaskPhase {
            mask: controls.iter().fold(1u128 << target, |m, &c| m | (1 << c)),
            phase: Complex::cis(*theta),
        },
        Gate::Rzz(a, b, t) => DiagTerm::ParityPair {
            ma: 1 << a,
            mb: 1 << b,
            m0: Complex::cis(-t / 2.0),
            m1: Complex::cis(t / 2.0),
        },
        _ => return None,
    })
}

fn perm_step(g: &Gate) -> Option<PermStep> {
    Some(match g {
        Gate::X(q) => PermStep::Xor(1 << q),
        Gate::Y(q) => PermStep::YFlip(1 << q),
        Gate::Cx(c, t) => PermStep::CondXor {
            ctrl: 1 << c,
            xor: 1 << t,
        },
        Gate::Mcx { controls, target } => PermStep::CondXor {
            ctrl: controls.iter().fold(0u128, |m, &c| m | (1 << c)),
            xor: 1 << target,
        },
        Gate::Swap(a, b) => PermStep::SwapBits {
            ma: 1 << a,
            mb: 1 << b,
        },
        _ => return None,
    })
}

/// The per-gate trajectory op, with the exact constants
/// [`DenseState::apply`] would compute at application time.
fn gate_op(g: &Gate) -> GateOp {
    match g {
        Gate::X(q) => GateOp::OneQ {
            q: *q,
            m: dense::x_matrix(),
        },
        Gate::Y(q) => GateOp::OneQ {
            q: *q,
            m: dense::y_matrix(),
        },
        Gate::H(q) => GateOp::OneQ {
            q: *q,
            m: dense::h_matrix(),
        },
        Gate::Rx(q, t) => GateOp::OneQ {
            q: *q,
            m: dense::rx_matrix(*t),
        },
        Gate::Ry(q, t) => GateOp::OneQ {
            q: *q,
            m: dense::ry_matrix(*t),
        },
        Gate::Z(q) => GateOp::PhasePair {
            q: *q,
            p0: Complex::ONE,
            p1: -Complex::ONE,
        },
        Gate::Rz(q, t) => GateOp::PhasePair {
            q: *q,
            p0: Complex::cis(-t / 2.0),
            p1: Complex::cis(t / 2.0),
        },
        Gate::Phase(q, t) => GateOp::PhasePair {
            q: *q,
            p0: Complex::ONE,
            p1: Complex::cis(*t),
        },
        Gate::Cx(c, t) => GateOp::CtrlX {
            cmask: 1 << c,
            tmask: 1 << t,
        },
        Gate::Mcx { controls, target } => GateOp::CtrlX {
            cmask: controls.iter().fold(0u128, |m, &c| m | (1 << c)),
            tmask: 1 << target,
        },
        Gate::Cz(a, b) => GateOp::CtrlPhase {
            mask: (1 << a) | (1 << b),
            phase: Complex::cis(std::f64::consts::PI),
        },
        Gate::Cp(a, b, t) => GateOp::CtrlPhase {
            mask: (1 << a) | (1 << b),
            phase: Complex::cis(*t),
        },
        Gate::Mcp {
            controls,
            target,
            theta,
        } => GateOp::CtrlPhase {
            mask: controls.iter().fold(1u128 << target, |m, &c| m | (1 << c)),
            phase: Complex::cis(*theta),
        },
        Gate::Swap(a, b) => GateOp::SwapQ {
            ma: 1 << a,
            mb: 1 << b,
        },
        Gate::Rzz(a, b, t) => GateOp::RzzQ {
            ma: 1 << a,
            mb: 1 << b,
            minus: Complex::cis(-t / 2.0),
            plus: Complex::cis(t / 2.0),
        },
    }
}

impl Program {
    /// Compiles a circuit: one walk, one precomputed entry per gate.
    pub fn compile(circuit: &Circuit) -> Program {
        let mut gates = Vec::with_capacity(circuit.len());
        let mut qubit_buf = Vec::new();
        for g in circuit.gates() {
            let start = qubit_buf.len() as u32;
            qubit_buf.extend_from_slice(&g.qubits());
            let fusion = match (diag_term(g), perm_step(g)) {
                (Some(term), _) => Fusion::Diag(term),
                (None, Some(step)) => Fusion::Perm(step),
                (None, None) => Fusion::OneQ,
            };
            gates.push(CompiledGate {
                op: gate_op(g),
                qubits: (start, qubit_buf.len() as u32),
                multi: g.is_multi_qubit(),
                fusion,
            });
        }
        Program {
            n_qubits: circuit.n_qubits(),
            gates,
            qubit_buf,
        }
    }

    /// Groups the gates into a trajectory plan for `noise` — the only
    /// place gates fuse. A gate whose channel is active stays a
    /// [`PlanStep::Gate`] (its noise barrier follows it); maximal runs
    /// of inactive-channel gates fuse greedily by fusion class. With
    /// every channel active the plan is one step per gate, exactly the
    /// unfused sequence. The counters are tallied in the same walk, so
    /// they can never drift from the plan that executes.
    fn plan(&self, noise: &NoiseModel) -> (Vec<PlanStep>, FusionStats) {
        let (act1, act2) = channel_activity(noise);
        let mut stats = FusionStats {
            gate_count: self.gates.len(),
            ..FusionStats::default()
        };
        let mut steps = Vec::new();
        let mut pending = Pending::None;

        let n_qubits = self.n_qubits;
        let flush = |pending: &mut Pending, steps: &mut Vec<PlanStep>| match std::mem::replace(
            pending,
            Pending::None,
        ) {
            Pending::None => {}
            Pending::OneQ(matrices) => steps.push(PlanStep::OneQ(matrices)),
            Pending::Diag(terms) => steps.push(PlanStep::Diagonal(terms)),
            Pending::Perm(run) => steps.push(PlanStep::Permutation(PermRun::new(run, n_qubits))),
        };

        for (i, g) in self.gates.iter().enumerate() {
            let active = if g.multi { act2 } else { act1 };
            if active {
                flush(&mut pending, &mut steps);
                steps.push(PlanStep::Gate(i as u32));
                stats.barriers += 1;
                continue;
            }
            if let Pending::OneQ(matrices) = &mut pending {
                // An open 1-qubit run absorbs any single-qubit gate.
                if let Some((q, m)) = g.op.one_q() {
                    match matrices.iter_mut().find(|(mq, _)| *mq == q) {
                        Some((_, acc)) => *acc = matmul(m, *acc),
                        None => matrices.push((q, m)),
                    }
                    stats.one_q_gates += 1;
                    continue;
                }
            }
            match g.fusion {
                Fusion::Diag(term) => {
                    stats.diagonal_gates += 1;
                    match &mut pending {
                        Pending::Diag(terms) => {
                            terms.push(term);
                            stats.diagonal_run_len_max =
                                stats.diagonal_run_len_max.max(terms.len());
                        }
                        _ => {
                            flush(&mut pending, &mut steps);
                            pending = Pending::Diag(vec![term]);
                            stats.diagonal_runs += 1;
                            stats.diagonal_run_len_max = stats.diagonal_run_len_max.max(1);
                        }
                    }
                }
                Fusion::Perm(step) => {
                    stats.permutation_gates += 1;
                    match &mut pending {
                        Pending::Perm(run) => {
                            run.push(step);
                            stats.permutation_run_len_max =
                                stats.permutation_run_len_max.max(run.len());
                        }
                        _ => {
                            flush(&mut pending, &mut steps);
                            pending = Pending::Perm(vec![step]);
                            stats.permutation_runs += 1;
                            stats.permutation_run_len_max = stats.permutation_run_len_max.max(1);
                        }
                    }
                }
                Fusion::OneQ => {
                    let qm = g.op.one_q().expect("H/Rx/Ry are single-qubit");
                    flush(&mut pending, &mut steps);
                    pending = Pending::OneQ(vec![qm]);
                    stats.one_q_runs += 1;
                    stats.one_q_gates += 1;
                }
            }
        }
        flush(&mut pending, &mut steps);
        stats.gates_fused = stats.one_q_gates + stats.diagonal_gates + stats.permutation_gates;
        stats.steps = steps.len();
        (steps, stats)
    }

    /// Fusion counters for the plan a [`DenseTrajectoryRunner`] runs
    /// under `noise`: how many steps it has, how many gates execute
    /// gate-by-gate (noise barriers), how many fuse into which kind of
    /// run, and the longest diagonal/permutation runs. The invariant
    /// `gates_fused + barriers == gate_count` holds for every program
    /// and noise model (property-tested in `tests/properties.rs`).
    pub fn fusion_stats(&self, noise: &NoiseModel) -> FusionStats {
        self.plan(noise).1
    }

    /// Number of qubits the compiled circuit acts on.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates in the source circuit.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }
}

/// Applies a fused 1-qubit run: one matrix pass per touched qubit.
fn apply_one_q_dense(state: &mut DenseState, matrices: &[(usize, [Complex; 4])]) {
    for &(q, m) in matrices {
        state.apply_1q(q, m);
    }
}

/// Applies a fused diagonal run: one pass, factors in gate order.
fn apply_diagonal_dense(state: &mut DenseState, terms: &[DiagTerm]) {
    let amps = state.amps_vec_mut();
    par_chunks_aligned(amps, 1, PAR_MIN_AMPS, |base, chunk| {
        for (i, a) in chunk.iter_mut().enumerate() {
            let label = (base + i) as Label;
            for t in terms {
                t.apply(label, a);
            }
        }
    });
}

/// Applies a plan permutation run: a single scatter through the
/// precomputed table when one exists, otherwise the per-amplitude step
/// chain. The permutation is a bijection, so every `scratch` slot is
/// written and no zero-fill is needed.
fn apply_perm_run_dense(state: &mut DenseState, run: &PermRun, scratch: &mut Vec<Complex>) {
    let amps = state.amps_vec_mut();
    scratch.resize(amps.len(), Complex::ZERO);
    if run.index.is_empty() {
        for (i, &a) in amps.iter().enumerate() {
            let (l, amp) = apply_perm_steps(&run.steps, i as Label, a);
            scratch[l as usize] = amp;
        }
    } else if run.factors.is_empty() {
        for (i, &a) in amps.iter().enumerate() {
            scratch[run.index[i] as usize] = a;
        }
    } else {
        for (i, &a) in amps.iter().enumerate() {
            scratch[run.index[i] as usize] = run.factors[i] * a;
        }
    }
    std::mem::swap(amps, scratch);
}

/// Which gate-noise channels can touch the state or the RNG:
/// `(1-qubit active, multi-qubit active)`. Damping applies after every
/// gate regardless of arity, so either damping rate activates both.
/// Readout error attaches at measurement, not at gates, so it never
/// creates a barrier.
fn channel_activity(noise: &NoiseModel) -> (bool, bool) {
    let damping = noise.amplitude_damping > 0.0 || noise.phase_damping > 0.0;
    (noise.p1 > 0.0 || damping, noise.p2 > 0.0 || damping)
}

/// Executes a compiled program's trajectory plan repeatedly, reusing
/// one state buffer across trajectories (no per-shot allocation).
///
/// [`new`](Self::new) builds the plan once for the runner's noise
/// model. An inactive channel — zero depolarizing rate and zero
/// damping — neither touches the state nor draws from the RNG in
/// [`noise::run_dense_trajectory`], so gates under inactive channels
/// fuse while every active channel still attaches at exactly the
/// gate-by-gate points. For a given RNG state, [`run`](Self::run)
/// therefore consumes RNG draws identically to
/// [`noise::run_dense_trajectory`]; states are bit-identical when every
/// channel is active (no fusion engages) and within the documented
/// 1e-9 fused-matrix rounding otherwise.
pub struct DenseTrajectoryRunner<'p> {
    program: &'p Program,
    noise: NoiseModel,
    plan: Vec<PlanStep>,
    state: DenseState,
    scratch: Vec<Complex>,
}

impl<'p> DenseTrajectoryRunner<'p> {
    /// Builds the plan for `noise` and a zeroed reusable state buffer.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds [`DenseState::MAX_QUBITS`].
    pub fn new(program: &'p Program, noise: &NoiseModel) -> Self {
        DenseTrajectoryRunner {
            state: DenseState::zero_state(program.n_qubits),
            plan: program.plan(noise).0,
            noise: *noise,
            program,
            scratch: Vec::new(),
        }
    }

    /// Runs one trajectory from `|0…0⟩`, returning the final state.
    pub fn run(&mut self, rng: &mut impl Rng) -> &DenseState {
        self.state.reset_zero();
        for step in &self.plan {
            match step {
                PlanStep::Gate(i) => {
                    let g = &self.program.gates[*i as usize];
                    g.op.apply_dense(&mut self.state);
                    let p = if g.multi {
                        self.noise.p2
                    } else {
                        self.noise.p1
                    };
                    let qs = &self.program.qubit_buf[g.qubits.0 as usize..g.qubits.1 as usize];
                    noise::apply_gate_noise_dense(&mut self.state, qs, p, &self.noise, rng);
                }
                PlanStep::OneQ(matrices) => apply_one_q_dense(&mut self.state, matrices),
                PlanStep::Diagonal(terms) => apply_diagonal_dense(&mut self.state, terms),
                PlanStep::Permutation(run) => {
                    apply_perm_run_dense(&mut self.state, run, &mut self.scratch)
                }
            }
        }
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_distance(a: &DenseState, b: &DenseState) -> f64 {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// A HEA-shaped circuit: Ry/Rz columns with CX entangler rings.
    fn hea_circuit(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for l in 0..layers {
            for q in 0..n {
                c.ry(q, 0.3 + 0.1 * (l * n + q) as f64)
                    .rz(q, -0.2 + 0.05 * q as f64);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
        c
    }

    /// A sparse-safe circuit mixing permutation and diagonal runs.
    fn sparse_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.x(0)
            .cx(0, 1)
            .push(Gate::Swap(1, 2))
            .push(Gate::Y(2))
            .rz(0, 0.7)
            .phase(1, -0.4)
            .push(Gate::Z(2))
            .rzz(0, 2, 0.9)
            .cp(1, 2, 0.3)
            .mcp(vec![0, 1], 2, -0.8)
            .mcx(vec![0, 2], 1)
            .x(2);
        c
    }

    /// Replays the noise-free plan's steps on `state`: the runner always
    /// starts from |0…0⟩, so tests with another input drive the steps
    /// directly.
    fn run_noise_free_plan(p: &Program, state: &mut DenseState) {
        let mut scratch = Vec::new();
        for step in p.plan(&NoiseModel::noise_free()).0 {
            match step {
                PlanStep::Gate(_) => unreachable!("no active channels"),
                PlanStep::OneQ(m) => apply_one_q_dense(state, &m),
                PlanStep::Diagonal(t) => apply_diagonal_dense(state, &t),
                PlanStep::Permutation(run) => apply_perm_run_dense(state, &run, &mut scratch),
            }
        }
    }

    /// Runs the program from |0…0⟩ on the runner under
    /// [`NoiseModel::noise_free`], asserting it draws nothing.
    fn run_noise_free(p: &Program) -> DenseState {
        let mut rng = StdRng::seed_from_u64(5);
        let state = DenseTrajectoryRunner::new(p, &NoiseModel::noise_free())
            .run(&mut rng)
            .clone();
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(5).gen::<u64>());
        state
    }

    #[test]
    fn perm_fallback_matches_table_path() {
        // The step-chain fallback (taken above `PERM_TABLE_MAX_QUBITS`,
        // where no scatter table is built) must leave the same
        // amplitudes as the table scatter, bit for bit.
        let mut c = Circuit::new(3);
        c.h(0).ry(1, 0.4);
        c.x(0).cx(0, 1).push(Gate::Swap(1, 2)).push(Gate::Y(2));
        let p = Program::compile(&c);
        let run_plan = |strip: bool| {
            let mut state = DenseState::zero_state(3);
            let mut scratch = Vec::new();
            let mut perm_runs = 0;
            for step in p.plan(&NoiseModel::noise_free()).0 {
                match step {
                    PlanStep::Gate(_) => unreachable!("no active channels"),
                    PlanStep::OneQ(m) => apply_one_q_dense(&mut state, &m),
                    PlanStep::Diagonal(t) => apply_diagonal_dense(&mut state, &t),
                    PlanStep::Permutation(run) => {
                        assert!(!run.index.is_empty(), "3 qubits build a table");
                        perm_runs += 1;
                        let run = if strip {
                            PermRun {
                                steps: run.steps,
                                index: Vec::new(),
                                factors: Vec::new(),
                            }
                        } else {
                            run
                        };
                        apply_perm_run_dense(&mut state, &run, &mut scratch);
                    }
                }
            }
            assert_eq!(perm_runs, 1, "x·cx·swap·y fuses into one run");
            state
        };
        assert_eq!(run_plan(true).amplitudes(), run_plan(false).amplitudes());
    }

    #[test]
    fn fusion_shrinks_hea_circuit() {
        let c = hea_circuit(4, 3);
        let p = Program::compile(&c);
        assert_eq!(p.gate_count(), c.len());
        // Each layer fuses into one OneQ run + one Permutation run.
        let stats = p.fusion_stats(&NoiseModel::noise_free());
        assert_eq!(stats.steps, 6);
        assert_eq!((stats.one_q_runs, stats.permutation_runs), (3, 3));
    }

    #[test]
    fn fused_dense_matches_gate_by_gate_hea() {
        let c = hea_circuit(5, 2);
        let p = Program::compile(&c);
        let reference = DenseState::from_circuit(&c);
        assert!(dense_distance(&run_noise_free(&p), &reference) < 1e-12);
    }

    #[test]
    fn fused_dense_matches_gate_by_gate_mixed() {
        let c = sparse_circuit(3);
        let p = Program::compile(&c);
        let reference = DenseState::from_circuit(&c);
        assert!(dense_distance(&run_noise_free(&p), &reference) < 1e-12);
    }

    #[test]
    fn fused_sparse_matches_gate_by_gate() {
        // The noise-free plan of a sparse-safe circuit, from a basis
        // input, against gate-by-gate sparse execution.
        let c = sparse_circuit(3);
        let p = Program::compile(&c);
        // Far fewer steps than gates: one perm run, one diag run, ...
        let steps = p.fusion_stats(&NoiseModel::noise_free()).steps;
        assert!(steps <= 4, "got {steps}");
        let mut fused = DenseState::basis_state(3, 0b101);
        run_noise_free_plan(&p, &mut fused);
        let mut reference = SparseState::basis_state(3, 0b101);
        reference.run(&c).unwrap();
        for l in 0..8u64 {
            let want = reference.amplitude(l as Label);
            assert!(fused.amplitude(l).approx_eq(want, 1e-12), "label {l}");
        }
    }

    #[test]
    fn trajectory_runner_matches_unfused_bitwise() {
        let mut c = hea_circuit(4, 2);
        c.rzz(0, 3, 0.4).mcp(vec![0, 1], 2, 0.6);
        let noise = NoiseModel::ibm_like(0.02, 0.08, 0.01).with_amplitude_damping(0.01);
        let p = Program::compile(&c);
        let mut runner = DenseTrajectoryRunner::new(&p, &noise);
        for seed in 0..30 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let reference = noise::run_dense_trajectory(&c, &noise, &mut rng_a);
            let fused = runner.run(&mut rng_b);
            assert_eq!(
                fused.amplitudes(),
                reference.amplitudes(),
                "trajectory diverged at seed {seed}"
            );
            // Identical RNG consumption: the next draw must agree.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn plan_collapses_to_gate_by_gate_when_all_channels_active() {
        let c = hea_circuit(4, 2);
        let p = Program::compile(&c);
        let full = NoiseModel::ibm_like(4e-4, 1.2e-2, 1.3e-2)
            .with_amplitude_damping(3e-4)
            .with_phase_damping(3e-4);
        assert_eq!(p.fusion_stats(&full).steps, p.gate_count());
        // Damping alone activates both channel classes.
        let damp = NoiseModel::noise_free().with_phase_damping(1e-3);
        assert_eq!(p.fusion_stats(&damp).steps, p.gate_count());
    }

    #[test]
    fn plan_fuses_fully_under_readout_only_noise() {
        let c = hea_circuit(4, 3);
        let p = Program::compile(&c);
        // Readout error attaches at measurement, so no gate is a
        // barrier: the plan is the noise-free one.
        let readout = NoiseModel::ibm_like(0.0, 0.0, 0.02);
        assert_eq!(
            p.fusion_stats(&readout),
            p.fusion_stats(&NoiseModel::noise_free())
        );
        let mut runner = DenseTrajectoryRunner::new(&p, &readout);
        for seed in 0..10 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let reference = noise::run_dense_trajectory(&c, &readout, &mut rng_a);
            let fused = runner.run(&mut rng_b);
            assert!(dense_distance(fused, &reference) < 1e-9);
            // Neither path draws during state evolution.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn plan_keeps_active_barriers_and_fuses_quiet_runs() {
        // 2Q-error-dominated model: CX gates stay barriers, the 1-qubit
        // columns between them re-fuse.
        let c = hea_circuit(4, 2);
        let p = Program::compile(&c);
        let noise = NoiseModel::ibm_like(0.0, 0.01, 0.02);
        let len = p.fusion_stats(&noise).steps;
        assert!(len < p.gate_count(), "no fusion happened ({len})");
        let quiet = p.fusion_stats(&NoiseModel::noise_free()).steps;
        assert!(len > quiet, "CX barriers vanished ({len})");
        let mut runner = DenseTrajectoryRunner::new(&p, &noise);
        for seed in 0..20 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let reference = noise::run_dense_trajectory(&c, &noise, &mut rng_a);
            let fused = runner.run(&mut rng_b);
            assert!(dense_distance(fused, &reference) < 1e-9);
            assert_eq!(
                rng_a.gen::<u64>(),
                rng_b.gen::<u64>(),
                "RNG streams diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn diagonal_fusion_is_bit_identical_on_dense() {
        // Pure diagonal circuit: the fused run multiplies the same
        // factor sequence per amplitude, so equality is exact. (`Z` is
        // excluded: dense gate-by-gate uses the exact −1 while the fused
        // term uses `cis(π)` — that one gate is covered by the 1e-9
        // differential property tests instead.)
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // spread amplitude first
        let prep = DenseState::from_circuit(&c);
        let mut d = Circuit::new(3);
        d.rz(0, 0.3)
            .rzz(0, 1, -0.7)
            .cp(1, 2, 0.25)
            .phase(2, 1.1)
            .push(Gate::Cz(0, 2));
        let p = Program::compile(&d);
        assert_eq!(p.fusion_stats(&NoiseModel::noise_free()).steps, 1);
        let mut fused = prep.clone();
        run_noise_free_plan(&p, &mut fused);
        let mut reference = prep;
        reference.run(&d);
        assert_eq!(fused.amplitudes(), reference.amplitudes());
    }
}

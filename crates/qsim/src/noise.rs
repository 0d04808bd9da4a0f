//! Noise channels via Monte-Carlo wavefunction (quantum-trajectory)
//! sampling.
//!
//! The paper evaluates three noise regimes: depolarizing (Pauli) noise
//! calibrated to IBM devices (Fig. 14a), amplitude damping on top of a
//! fixed background (Fig. 14b), and the full device models for the
//! "real-world platform" experiments (Fig. 11, Fig. 16). All are
//! implemented here as stochastic trajectories: each run samples one
//! noise realization, and repeated runs reproduce the channel statistics.
//! Trajectories keep sparse states sparse — a Pauli error maps basis
//! states to basis states, and damping jumps are projections — which is
//! what lets the noisy Rasengan experiments scale.

use crate::dense::DenseState;
use crate::gate::Gate;
use crate::sparse::{Label, SparseState};
use rand::Rng;

/// A gate-level noise model.
///
/// Probabilities are per gate: after every gate each involved qubit
/// suffers a depolarizing error with the arity-matched probability, then
/// amplitude/phase damping with the configured strengths.
///
/// # Example
///
/// ```
/// use rasengan_qsim::NoiseModel;
///
/// let noisy = NoiseModel::depolarizing(1e-3);
/// assert!(noisy.is_noisy());
/// assert!(!NoiseModel::noise_free().is_noisy());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after a single-qubit gate.
    pub p1: f64,
    /// Depolarizing probability after a multi-qubit gate (per qubit).
    pub p2: f64,
    /// Per-bit readout flip probability at measurement.
    pub readout: f64,
    /// Amplitude-damping probability per gate per qubit.
    pub amplitude_damping: f64,
    /// Phase-damping probability per gate per qubit.
    pub phase_damping: f64,
}

/// The shots a noisy run takes when none are set, and the shots an
/// exact run's modeled latency charges, so exact and sampled latency
/// reports stay comparable.
pub const NOTIONAL_SHOTS: usize = 1024;

/// Clamps a probability into `[0, 1]`, mapping NaN to 0. Every
/// [`NoiseModel`] constructor routes its rates through this, so a model
/// built from drifted calibration data or a bad config file can never
/// carry a probability the trajectory samplers would misinterpret.
pub(crate) fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl NoiseModel {
    /// No noise at all.
    pub fn noise_free() -> Self {
        NoiseModel {
            p1: 0.0,
            p2: 0.0,
            readout: 0.0,
            amplitude_damping: 0.0,
            phase_damping: 0.0,
        }
    }

    /// Pure depolarizing noise with the same rate on 1Q and 2Q gates
    /// (the Fig. 14a sweep). `p` is clamped into `[0, 1]` (NaN → 0).
    pub fn depolarizing(p: f64) -> Self {
        let p = clamp_probability(p);
        NoiseModel {
            p1: p,
            p2: p,
            ..NoiseModel::noise_free()
        }
    }

    /// IBM-like noise: separate 1Q/2Q/readout error rates
    /// (Fig. 14b background: 1Q 0.035%, 2Q 0.875%). Each rate is
    /// clamped into `[0, 1]` (NaN → 0).
    pub fn ibm_like(p1: f64, p2: f64, readout: f64) -> Self {
        NoiseModel {
            p1: clamp_probability(p1),
            p2: clamp_probability(p2),
            readout: clamp_probability(readout),
            ..NoiseModel::noise_free()
        }
    }

    /// Adds amplitude damping to an existing model (builder style).
    /// `gamma` is clamped into `[0, 1]` (NaN → 0).
    pub fn with_amplitude_damping(mut self, gamma: f64) -> Self {
        self.amplitude_damping = clamp_probability(gamma);
        self
    }

    /// Adds phase damping to an existing model (builder style).
    /// `lambda` is clamped into `[0, 1]` (NaN → 0).
    pub fn with_phase_damping(mut self, lambda: f64) -> Self {
        self.phase_damping = clamp_probability(lambda);
        self
    }

    /// Whether any channel is active.
    pub fn is_noisy(&self) -> bool {
        self.p1 > 0.0
            || self.p2 > 0.0
            || self.readout > 0.0
            || self.amplitude_damping > 0.0
            || self.phase_damping > 0.0
    }

    /// The shots a run under this model executes: `shots` when set,
    /// else [`NOTIONAL_SHOTS`] when noisy (noise forces sampling), else
    /// `None` (exact probabilities).
    pub fn sampling_shots(&self, shots: Option<usize>) -> Option<usize> {
        shots.or_else(|| self.is_noisy().then_some(NOTIONAL_SHOTS))
    }

    /// The depolarizing probability matching a gate's arity.
    pub fn gate_error(&self, gate: &Gate) -> f64 {
        if gate.is_multi_qubit() {
            self.p2
        } else {
            self.p1
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::noise_free()
    }
}

/// A uniformly drawn non-identity Pauli error on qubit `q`.
fn sample_pauli(q: usize, rng: &mut impl Rng) -> Gate {
    match rng.gen_range(0..3) {
        0 => Gate::X(q),
        1 => Gate::Y(q),
        _ => Gate::Z(q),
    }
}

// ---------------------------------------------------------------------
// Dense-state channels
// ---------------------------------------------------------------------

/// Applies post-gate noise on a dense state for all `qubits` a gate
/// touched.
pub fn apply_gate_noise_dense(
    state: &mut DenseState,
    qubits: &[usize],
    p: f64,
    noise: &NoiseModel,
    rng: &mut impl Rng,
) {
    for &q in qubits {
        if p > 0.0 && rng.gen::<f64>() < p {
            state.apply(&sample_pauli(q, rng));
        }
        if noise.amplitude_damping > 0.0 {
            amplitude_damping_dense(state, q, noise.amplitude_damping, rng);
        }
        if noise.phase_damping > 0.0 {
            phase_damping_dense(state, q, noise.phase_damping, rng);
        }
    }
}

/// One amplitude-damping trajectory step on qubit `q` of a dense state.
///
/// With probability `γ·P(q = 1)` the excitation decays (`|1⟩ → |0⟩`
/// jump); otherwise the no-jump Kraus operator `diag(1, √(1−γ))` is
/// applied and the state renormalized.
pub fn amplitude_damping_dense(state: &mut DenseState, q: usize, gamma: f64, rng: &mut impl Rng) {
    let p1 = population_dense(state, q);
    let p_jump = gamma * p1;
    if p_jump > 0.0 && rng.gen::<f64>() < p_jump {
        // Jump: project onto |1⟩_q then flip to |0⟩_q.
        project_and_flip_dense(state, q);
    } else {
        // No jump: scale |1⟩_q amplitudes by √(1−γ), renormalize.
        scale_one_amplitudes_dense(state, q, (1.0 - gamma).sqrt());
        state.normalize();
    }
}

/// One phase-damping trajectory step on qubit `q` of a dense state.
pub fn phase_damping_dense(state: &mut DenseState, q: usize, lambda: f64, rng: &mut impl Rng) {
    let p1 = population_dense(state, q);
    let p_jump = lambda * p1;
    if p_jump > 0.0 && rng.gen::<f64>() < p_jump {
        // Jump: project onto |1⟩_q (pure dephasing, no flip).
        project_dense(state, q, true);
    } else {
        scale_one_amplitudes_dense(state, q, (1.0 - lambda).sqrt());
        state.normalize();
    }
}

fn population_dense(state: &DenseState, q: usize) -> f64 {
    let mask = 1usize << q;
    state
        .amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & mask != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

fn scale_one_amplitudes_dense(state: &mut DenseState, q: usize, factor: f64) {
    // Implemented via a tiny diagonal "gate": Rz plus phase won't do a
    // non-unitary scale, so rebuild through the public API: we use the
    // internal amplitude access instead.
    let n = state.n_qubits();
    let mask = 1u64 << q;
    let mut rebuilt = Vec::with_capacity(1 << n);
    for (i, a) in state.amplitudes().iter().enumerate() {
        if (i as u64) & mask != 0 {
            rebuilt.push(a.scale(factor));
        } else {
            rebuilt.push(*a);
        }
    }
    *state = DenseState::from_amplitudes(n, rebuilt);
}

fn project_dense(state: &mut DenseState, q: usize, keep_one: bool) {
    let n = state.n_qubits();
    let mask = 1u64 << q;
    let mut rebuilt = Vec::with_capacity(1usize << n);
    for (i, a) in state.amplitudes().iter().enumerate() {
        let is_one = (i as u64) & mask != 0;
        if is_one == keep_one {
            rebuilt.push(*a);
        } else {
            rebuilt.push(crate::complex::Complex::ZERO);
        }
    }
    *state = DenseState::from_amplitudes(n, rebuilt);
    state.normalize();
}

fn project_and_flip_dense(state: &mut DenseState, q: usize) {
    project_dense(state, q, true);
    state.apply(&Gate::X(q));
}

/// Runs a circuit on a dense state with gate-level trajectory noise.
///
/// # Example
///
/// ```
/// use rasengan_qsim::{noise, Circuit, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = noise::run_dense_trajectory(&c, &NoiseModel::depolarizing(0.01), &mut rng);
/// assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
/// ```
pub fn run_dense_trajectory(
    circuit: &crate::circuit::Circuit,
    noise: &NoiseModel,
    rng: &mut impl Rng,
) -> DenseState {
    let mut state = DenseState::zero_state(circuit.n_qubits());
    for g in circuit.gates() {
        state.apply(g);
        apply_gate_noise_dense(&mut state, &g.qubits(), noise.gate_error(g), noise, rng);
    }
    state
}

// ---------------------------------------------------------------------
// Sparse-state channels
// ---------------------------------------------------------------------

/// Applies post-gate noise on a sparse state for all `qubits` a gate
/// touched. Pauli errors, damping jumps, and no-jump scalings all keep
/// the support sparse.
///
/// This is the unfused reference oracle: the solve paths run
/// [`SparseState::gate_noise`] and [`SparseState::noise_slots`], and
/// the `noise` and `rasengan-core`/`rasengan-baselines` reference tests
/// check those against this channel-by-channel sequence.
pub fn apply_gate_noise_sparse(
    state: &mut SparseState,
    qubits: &[usize],
    p: f64,
    noise: &NoiseModel,
    rng: &mut impl Rng,
) {
    for &q in qubits {
        if p > 0.0 && rng.gen::<f64>() < p {
            pauli_error(state, q, rng);
        }
        damp_qubit(state, q, noise.amplitude_damping, noise.phase_damping, rng);
    }
}

/// A uniformly drawn non-identity Pauli error on qubit `q` of a sparse
/// state.
fn pauli_error(state: &mut SparseState, q: usize, rng: &mut impl Rng) {
    let pauli = sample_pauli(q, rng);
    state
        .apply(&pauli)
        .expect("Pauli gates are always sparse-safe");
}

/// The amplitude- then the phase-damping channel on qubit `q`, each
/// skipped at rate 0.
fn damp_qubit(state: &mut SparseState, q: usize, gamma: f64, lambda: f64, rng: &mut impl Rng) {
    if gamma > 0.0 {
        amplitude_damping_sparse(state, q, gamma, rng);
    }
    if lambda > 0.0 {
        phase_damping_sparse(state, q, lambda, rng);
    }
}

/// One amplitude-damping trajectory step on qubit `q` of a sparse state.
fn amplitude_damping_sparse(state: &mut SparseState, q: usize, gamma: f64, rng: &mut impl Rng) {
    let p_jump = gamma * state.population(q);
    if p_jump > 0.0 && rng.gen::<f64>() < p_jump {
        state.project_qubit(q, true);
        state.apply(&Gate::X(q)).expect("X is always sparse-safe");
    } else {
        state.scale_where_qubit_one(q, (1.0 - gamma).sqrt());
        state.normalize();
    }
}

/// One phase-damping trajectory step on qubit `q` of a sparse state.
fn phase_damping_sparse(state: &mut SparseState, q: usize, lambda: f64, rng: &mut impl Rng) {
    let p_jump = lambda * state.population(q);
    if p_jump > 0.0 && rng.gen::<f64>() < p_jump {
        state.project_qubit(q, true);
    } else {
        state.scale_where_qubit_one(q, (1.0 - lambda).sqrt());
        state.normalize();
    }
}

/// The fused noise calls of a noisy trajectory: a caller resets one
/// state per shot and runs the steps of a shot on it — the gate-noise
/// channels of [`apply_gate_noise_sparse`] ([`SparseState::gate_noise`]),
/// per-CX noise slots ([`SparseState::noise_slots`]) and a measurement
/// ([`SparseState::sample_one`]) — with the RNG draws of the unfused
/// sequence. Once the buffers have grown, a shot allocates nothing.
/// Both Rasengan's noisy segments and Choco-Q's noisy shots run on it.
///
/// A noise call with damping reloads each label's mass from its
/// amplitude once at its start; a call without damping reads no masses,
/// so it neither sorts the buffer nor scans it, and a Pauli event over a
/// large support costs one `O(s)` pass.
///
/// # Example
///
/// ```
/// use rasengan_qsim::{Complex, NoiseModel, SparseState, Transition};
/// use rand::SeedableRng;
///
/// let noise = NoiseModel::ibm_like(1e-3, 1e-2, 0.0).with_amplitude_damping(1e-3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut shot = SparseState::basis_state(3, 0b001);
/// shot.gate_noise([0], noise.p1, &noise, &mut rng);
/// let tr = Transition::from_u(&[-1, 1, 0]);
/// let t = std::f64::consts::FRAC_PI_4;
/// shot.apply_transition_with(&tr, Complex::from(t.cos()), Complex::new(0.0, -t.sin()));
/// shot.noise_slots(&[0, 1], 68, noise.p2, &noise, &mut rng);
/// assert!(shot.sample_one(&mut rng) < 8);
/// ```
impl SparseState {
    /// [`apply_gate_noise_sparse`], fused: for each qubit a `p` roll
    /// applying a uniform Pauli, then the qubit's damping channels as
    /// one single-qubit slot of [`Self::noise_slots`]'s mass-space
    /// loop, with identical channels at identical RNG draw points.
    pub fn gate_noise(
        &mut self,
        qubits: impl IntoIterator<Item = usize>,
        p: f64,
        noise: &NoiseModel,
        rng: &mut impl Rng,
    ) {
        let damping = Damping::of(noise);
        if damping.is_some() {
            // Loading before a first Pauli rather than after it reads
            // the same `|a|²`.
            self.reload();
        }
        for q in qubits {
            if p > 0.0 && rng.gen::<f64>() < p {
                pauli_error(self, q, rng);
            }
            if let Some(d) = &damping {
                self.damping_slot(1 << q, 0, d, rng);
            }
        }
        self.finish();
    }

    /// Runs one transition operator's whole noise-slot loop: `slots`
    /// iterations of the per-CX depolarizing roll plus the
    /// random-operand damping slot.
    ///
    /// Per slot this is equivalent to the unfused sequence (a `p2` roll
    /// applying a uniform Pauli on a random support qubit via
    /// [`apply_gate_noise_sparse`] with `p = 1`, then its damping channels
    /// with `p = 0` on a random operand pair) with RNG draws at identical
    /// points. None of the slot channels grow the support: Pauli events
    /// permute labels, damping branches rescale or project.
    ///
    /// A damping channel rolls against `u·T < rate·pop` (`T` the total
    /// mass), and its no-jump branch multiplies the selected class masses
    /// by `1 − rate`, so there is no renormalizing division per channel
    /// and no square root per slot. Amplitudes are rescaled once, as
    /// `a·√(w/(|a|²·T))`, when the loop ends or a channel jumps; a jump
    /// then runs the exact per-channel sequence for the rest of its slot.
    /// Thresholds equal the normalized ones up to rounding, so amplitudes
    /// agree with the unfused sequence to last-ulp drift.
    pub fn noise_slots(
        &mut self,
        support: &[usize],
        slots: usize,
        p2: f64,
        noise: &NoiseModel,
        rng: &mut impl Rng,
    ) {
        let damping = Damping::of(noise);
        if slots == 0 || support.is_empty() || (p2 <= 0.0 && damping.is_none()) {
            return;
        }
        let pick = IndexDraw::new(support.len());
        if damping.is_some() {
            // Every slot is an event. Loading before a first-slot Pauli
            // rather than after it reads the same `|a|²`.
            self.reload();
        }
        for _ in 0..slots {
            if p2 > 0.0 && rng.gen::<f64>() < p2 {
                let q = support[pick.sample(rng)];
                // `apply_gate_noise_sparse` with `p = 1` draws its roll
                // (always below 1) and applies the sampled Pauli.
                let _roll: f64 = rng.gen();
                pauli_error(self, q, rng);
            }
            if let Some(d) = &damping {
                let a = support[pick.sample(rng)];
                let b = support[pick.sample(rng)];
                let mb = if b == a { 0 } else { 1 << b };
                self.damping_slot(1 << a, mb, d, rng);
            }
        }
        self.finish();
    }

    /// Draws one measurement outcome through the sampler the state
    /// keeps, sorting the buffer in place first.
    ///
    /// # Panics
    ///
    /// Panics if the state is empty.
    pub fn sample_one(&mut self, rng: &mut impl Rng) -> Label {
        self.sort();
        assert!(!self.entries.is_empty(), "cannot sample an empty state");
        self.sampler.fill(&self.entries);
        self.sampler.draw(rng)
    }
}

/// `rng.gen_range(0..len)` for one fixed `len`, with the rejection zone
/// computed once instead of per draw. Consumes the same RNG words and
/// returns the same values as `gen_range`.
#[derive(Clone, Copy, Debug)]
struct IndexDraw {
    len: u64,
    /// Largest accepted word; `u64::MAX` (accept all) for powers of two.
    zone: u64,
}

impl IndexDraw {
    fn new(len: usize) -> Self {
        let len = len as u64;
        debug_assert!(len > 0);
        IndexDraw {
            len,
            zone: u64::MAX - (u64::MAX - len + 1) % len,
        }
    }

    #[inline]
    fn sample(&self, rng: &mut impl Rng) -> usize {
        if self.len.is_power_of_two() {
            return (rng.next_u64() & (self.len - 1)) as usize;
        }
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return (v % self.len) as usize;
            }
        }
    }
}

/// The `(qubit_a, qubit_b)` population class of `l`: bit 0 is `l & ma`,
/// bit 1 is `l & mb` (always 0 for a single-qubit slot, `mb == 0`).
#[inline]
fn class_of(l: Label, ma: Label, mb: Label) -> usize {
    ((l & ma != 0) as usize) | (((l & mb != 0) as usize) << 1)
}

/// One damping channel of a slot: operand 0 or 1, amplitude or phase
/// damping, and its rate.
#[derive(Clone, Copy, Debug)]
struct Channel {
    operand: usize,
    is_amp: bool,
    rate: f64,
}

/// A noise model's damping channels as a slot runs them, worked out once
/// per loop.
#[derive(Clone, Copy, Debug)]
struct Damping {
    gamma: f64,
    lambda: f64,
    /// The channels of a two-operand slot in roll order (amplitude then
    /// phase damping, operand 0 then 1); a one-operand slot runs the
    /// first `per_operand` of them.
    channels: [Channel; 4],
    per_operand: usize,
    /// Class mass factors of a one- and a two-operand slot whose
    /// channels all take the no-jump branch.
    single: [f64; 4],
    pair: [f64; 4],
    /// The least positive mass at which every channel whose classes
    /// hold it is sure to have a positive jump mass `rate·pop`, however
    /// many keep factors of its slot came first; infinite when no mass
    /// is (a rate of 1 has a zero keep factor).
    floor: f64,
}

impl Damping {
    /// The damping channels of `noise`, if it has any.
    fn of(noise: &NoiseModel) -> Option<Self> {
        let (gamma, lambda) = (noise.amplitude_damping, noise.phase_damping);
        let damping = gamma > 0.0 || lambda > 0.0;
        if !damping {
            return None;
        }
        let unused = Channel {
            operand: 0,
            is_amp: false,
            rate: 0.0,
        };
        let mut channels = [unused; 4];
        let mut n = 0;
        for operand in 0..2 {
            for is_amp in [true, false] {
                let rate = if is_amp { gamma } else { lambda };
                if rate <= 0.0 {
                    continue;
                }
                channels[n] = Channel {
                    operand,
                    is_amp,
                    rate,
                };
                n += 1;
            }
        }
        let per_operand = n / 2;
        // The factors in the order a slot multiplies its keep factors.
        let factors = |chs: &[Channel]| {
            let mut f = [1.0f64; 4];
            for ch in chs {
                let keep = 1.0 - ch.rate;
                for (i, fi) in f.iter_mut().enumerate() {
                    if i & (1 << ch.operand) != 0 {
                        *fi *= keep;
                    }
                }
            }
            f
        };
        let chs = &channels[..n];
        let in_range = chs.iter().all(|c| c.rate > 0.0 && c.rate < 1.0);
        let rate_min = chs.iter().map(|c| c.rate).fold(1.0, f64::min);
        let keep_min = chs.iter().map(|c| 1.0 - c.rate).fold(1.0, f64::min);
        // Up to three keep factors precede a channel's pop; a fourth and
        // the margin cover rounding and the slot's closing factor.
        let tiny = rate_min * keep_min.powi(4);
        let floor = if in_range && tiny > 0.0 {
            1e-280 / tiny
        } else {
            f64::INFINITY
        };
        Some(Damping {
            gamma,
            lambda,
            channels,
            per_operand,
            single: factors(&chs[..per_operand]),
            pair: factors(chs),
            floor,
        })
    }

    /// The channels of a slot on one operand (`pair == false`) or two.
    #[inline]
    fn channels(&self, pair: bool) -> &[Channel] {
        &self.channels[..self.per_operand * if pair { 2 } else { 1 }]
    }
}

/// The mass-space machinery of the noise calls: each label keeps its
/// amplitude and an unnormalized mass `w`. Bit flips leave the labels
/// out of order; every sum sorts them first, so sums run in ascending
/// label order.
///
/// A damping channel whose classes hold positive mass rolls one draw
/// `u`. When `u ≥ rate` it cannot jump: `u·T ≥ rate·T ≥ rate·pop` under
/// monotone rounding, since `pop ≤ T`. So a slot forms no class masses
/// unless a draw lands below its rate; it makes its draws and multiplies
/// each `w` by the slot's constant class factor. Only when `u < rate`
/// (about 3e-4 of draws at Kyiv rates) are the class masses, `T` and
/// `u·T < rate·pop` formed, exactly as a slot that forms them every
/// time would. Where the populated classes cannot tell whether a channel
/// rolls (a rate of 1 zeroes a class, or masses near underflow), the
/// slot takes that exact path from its start.
impl SparseState {
    /// Brings the amplitudes up to date with the masses, if a no-jump
    /// factor has scaled them.
    fn finish(&mut self) {
        if self.scaled {
            self.sort();
            let t: f64 = self.entries.iter().map(|e| e.w).sum();
            self.rescale(t);
        }
    }

    /// Restarts mass tracking from the current amplitudes.
    fn reload(&mut self) {
        for e in &mut self.entries {
            e.w = e.amp.norm_sqr();
        }
        self.scaled = false;
        self.scanned = false;
    }

    /// Recomputes [`Self::live`] and [`Self::min_w`].
    fn scan(&mut self) {
        let (mut live, mut min_w) = (0, f64::INFINITY);
        for e in &self.entries {
            if e.w > 0.0 {
                live |= e.label;
                min_w = min_w.min(e.w);
            }
        }
        self.live = live;
        self.min_w = min_w;
        self.scanned = true;
    }

    /// Multiplies each mass by its `(ma, mb)` class factor.
    #[inline]
    fn scale_classes(&mut self, ma: Label, mb: Label, factors: &[f64; 4]) {
        let (mut live, mut min_w) = (0, f64::INFINITY);
        for e in &mut self.entries {
            e.w *= factors[class_of(e.label, ma, mb)];
            if e.w > 0.0 {
                live |= e.label;
                min_w = min_w.min(e.w);
            }
        }
        self.live = live;
        self.min_w = min_w;
        self.scanned = true;
    }

    /// Brings the amplitudes up to date with the masses: each becomes
    /// `a·√(w/(|a|²·t))`, normalized against the total mass `t`.
    fn rescale(&mut self, t: f64) {
        for e in &mut self.entries {
            let n2 = e.amp.norm_sqr();
            if n2 > 0.0 {
                e.amp = e.amp.scale((e.w / (n2 * t)).sqrt());
            }
        }
        self.scaled = false;
    }

    /// One damping slot on operands `ma` and `mb` (`mb == 0` for a
    /// single-qubit slot): the amplitude- then phase-damping channel of
    /// each operand in turn, each rolling iff its jump mass is nonzero.
    fn damping_slot(&mut self, ma: Label, mb: Label, d: &Damping, rng: &mut impl Rng) {
        let pair = mb != 0;
        if !self.scanned {
            self.scan();
        }
        if self.min_w >= d.floor {
            for (k, ch) in d.channels(pair).iter().enumerate() {
                let mask = if ch.operand == 0 { ma } else { mb };
                if self.live & mask == 0 {
                    // Every class with the operand set is empty: no roll.
                    continue;
                }
                let u: f64 = rng.gen();
                self.scaled = true;
                if u < ch.rate {
                    self.exact_slot(ma, mb, d, rng, Some((k, u)));
                    return;
                }
            }
            // The floor keeps every positive mass positive, so `live`
            // stands, and `min_w` falls by at most the least factor.
            let (factors, least) = if pair {
                (&d.pair, d.pair[3])
            } else {
                (&d.single, d.single[1])
            };
            for e in &mut self.entries {
                e.w *= factors[class_of(e.label, ma, mb)];
            }
            self.min_w *= least;
        } else {
            self.exact_slot(ma, mb, d, rng, None);
        }
    }

    /// The damping slot with its class masses formed: each channel
    /// computes `pop` and, when `rate·pop > 0`, rolls `u·T < rate·pop`.
    /// `resume` is `(k, u)` when channel `k` has drawn `u` already: the
    /// channels before it rolled at or above their rates and cannot have
    /// jumped, so only their keep factors are replayed.
    #[cold]
    #[inline(never)]
    fn exact_slot(
        &mut self,
        ma: Label,
        mb: Label,
        d: &Damping,
        rng: &mut impl Rng,
        resume: Option<(usize, f64)>,
    ) {
        self.sort();
        let mut m = [0.0f64; 4];
        for e in &self.entries {
            m[class_of(e.label, ma, mb)] += e.w;
        }
        let mut factors = [1.0f64; 4];
        let qubits = [ma.trailing_zeros() as usize, mb.trailing_zeros() as usize];
        let n_ch = if mb != 0 { 2 } else { 1 };
        for (k, ch) in d.channels(mb != 0).iter().enumerate() {
            let sel = 1usize << ch.operand;
            let drawn = match resume {
                Some((r, u)) if r == k => Some(u),
                _ => None,
            };
            let replayed = matches!(resume, Some((r, _)) if k < r);
            if !replayed {
                let pop = if sel == 1 { m[1] + m[3] } else { m[2] + m[3] };
                let jump_mass = ch.rate * pop;
                debug_assert!(drawn.is_none() || jump_mass > 0.0);
                if jump_mass > 0.0 {
                    let t = m[0] + m[1] + m[2] + m[3];
                    let u = drawn.unwrap_or_else(|| rng.gen::<f64>());
                    if u * t < jump_mass {
                        // Jump: materialize the prefix, take the exact
                        // branch, then run the slot's remaining
                        // channels unfolded.
                        self.scale_classes(ma, mb, &factors);
                        self.rescale(t);
                        let q = qubits[ch.operand];
                        self.project_qubit(q, true);
                        if ch.is_amp {
                            self.apply(&Gate::X(q)).expect("X is always sparse-safe");
                            damp_qubit(self, q, 0.0, d.lambda, rng);
                        }
                        for &q2 in &qubits[ch.operand + 1..n_ch] {
                            damp_qubit(self, q2, d.gamma, d.lambda, rng);
                        }
                        self.reload();
                        return;
                    }
                    self.scaled = true;
                }
            }
            let keep = 1.0 - ch.rate;
            for (i, (mi, fi)) in m.iter_mut().zip(&mut factors).enumerate() {
                if i & sel != 0 {
                    *mi *= keep;
                    *fi *= keep;
                }
            }
        }
        self.scale_classes(ma, mb, &factors);
    }
}

// ---------------------------------------------------------------------
// Readout error
// ---------------------------------------------------------------------

/// Flips each of the `n` measured bits independently with probability
/// `rate` (symmetric readout error).
pub fn apply_readout_error(label: Label, n: usize, rate: f64, rng: &mut impl Rng) -> Label {
    if rate <= 0.0 {
        return label;
    }
    let mut out = label;
    for q in 0..n {
        if rng.gen::<f64>() < rate {
            out ^= 1 << q;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::complex::Complex;
    use crate::sparse::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_free_model_is_quiet() {
        let nm = NoiseModel::noise_free();
        assert!(!nm.is_noisy());
        assert_eq!(nm.gate_error(&Gate::X(0)), 0.0);
    }

    #[test]
    fn gate_error_matches_arity() {
        let nm = NoiseModel::ibm_like(0.001, 0.01, 0.02);
        assert_eq!(nm.gate_error(&Gate::H(0)), 0.001);
        assert_eq!(nm.gate_error(&Gate::Cx(0, 1)), 0.01);
    }

    #[test]
    fn builder_adds_damping() {
        let nm = NoiseModel::noise_free()
            .with_amplitude_damping(0.02)
            .with_phase_damping(0.01);
        assert!(nm.is_noisy());
        assert_eq!(nm.amplitude_damping, 0.02);
        assert_eq!(nm.phase_damping, 0.01);
    }

    #[test]
    fn noise_free_trajectory_matches_ideal() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let noisy = run_dense_trajectory(&c, &NoiseModel::noise_free(), &mut rng);
        let ideal = DenseState::from_circuit(&c);
        for i in 0..4 {
            assert!(noisy.amplitude(i).approx_eq(ideal.amplitude(i), 1e-12));
        }
    }

    #[test]
    fn heavy_depolarizing_noise_spreads_population() {
        // With p = 0.5 on every gate, many trajectories flip qubits that
        // an ideal run would leave at |0⟩.
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let mut hit_other = false;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = run_dense_trajectory(&c, &NoiseModel::depolarizing(0.5), &mut rng);
            let p = s.probabilities();
            if p[0b11] < 0.99 {
                hit_other = true;
                break;
            }
        }
        assert!(
            hit_other,
            "noise never perturbed the state in 50 trajectories"
        );
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // |1⟩ under repeated damping ends in |0⟩ with probability → 1.
        let mut zeros = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = DenseState::basis_state(1, 1);
            for _ in 0..64 {
                amplitude_damping_dense(&mut s, 0, 0.1, &mut rng);
            }
            if s.probabilities()[0] > 0.99 {
                zeros += 1;
            }
        }
        assert!(zeros > 190, "only {zeros}/200 trajectories decayed");
    }

    #[test]
    fn amplitude_damping_leaves_ground_state_alone() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = DenseState::zero_state(1);
        amplitude_damping_dense(&mut s, 0, 0.5, &mut rng);
        assert!((s.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_preserves_populations() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Circuit::new(1);
        c.h(0);
        let mut s = DenseState::from_circuit(&c);
        phase_damping_dense(&mut s, 0, 0.3, &mut rng);
        let p = s.probabilities();
        // Populations are preserved by either trajectory branch up to
        // renormalization of the no-jump branch.
        assert!((p[0] + p[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sparse_and_dense_damping_agree_statistically() {
        let gamma = 0.25;
        let trials = 2000;
        let mut dense_decays = 0;
        let mut sparse_decays = 0;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = DenseState::basis_state(1, 1);
            amplitude_damping_dense(&mut d, 0, gamma, &mut rng);
            if d.probabilities()[0] > 0.5 {
                dense_decays += 1;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = SparseState::basis_state(1, 1);
            amplitude_damping_sparse(&mut s, 0, gamma, &mut rng);
            if s.probability(0) > 0.5 {
                sparse_decays += 1;
            }
        }
        assert_eq!(
            dense_decays, sparse_decays,
            "backends must agree trajectory-wise"
        );
        let rate = dense_decays as f64 / trials as f64;
        assert!(
            (rate - gamma).abs() < 0.03,
            "decay rate {rate} vs γ {gamma}"
        );
    }

    #[test]
    fn depolarizing_clamps_out_of_range_rates() {
        assert_eq!(NoiseModel::depolarizing(1.5).p1, 1.0);
        assert_eq!(NoiseModel::depolarizing(-0.3).p2, 0.0);
        assert_eq!(NoiseModel::depolarizing(f64::NAN).p1, 0.0);
        assert!(!NoiseModel::depolarizing(f64::NAN).is_noisy());
    }

    #[test]
    fn ibm_like_clamps_each_rate_independently() {
        let nm = NoiseModel::ibm_like(-1.0, 2.0, f64::NAN);
        assert_eq!(nm.p1, 0.0);
        assert_eq!(nm.p2, 1.0);
        assert_eq!(nm.readout, 0.0);
    }

    #[test]
    fn amplitude_damping_builder_clamps() {
        assert_eq!(
            NoiseModel::noise_free()
                .with_amplitude_damping(7.0)
                .amplitude_damping,
            1.0
        );
        assert_eq!(
            NoiseModel::noise_free()
                .with_amplitude_damping(-0.5)
                .amplitude_damping,
            0.0
        );
        assert_eq!(
            NoiseModel::noise_free()
                .with_amplitude_damping(f64::NAN)
                .amplitude_damping,
            0.0
        );
    }

    #[test]
    fn phase_damping_builder_clamps() {
        assert_eq!(
            NoiseModel::noise_free()
                .with_phase_damping(3.0)
                .phase_damping,
            1.0
        );
        assert_eq!(
            NoiseModel::noise_free()
                .with_phase_damping(-1e-3)
                .phase_damping,
            0.0
        );
        assert_eq!(
            NoiseModel::noise_free()
                .with_phase_damping(f64::NAN)
                .phase_damping,
            0.0
        );
    }

    /// A 3-qubit superposition with asymmetric per-qubit populations.
    fn spread_state() -> SparseState {
        let mut s = SparseState::from_amplitudes(
            3,
            [
                (0b000, Complex::new(0.6, 0.1)),
                (0b011, Complex::new(-0.3, 0.4)),
                (0b101, Complex::new(0.2, -0.5)),
                (0b110, Complex::new(0.1, 0.2)),
            ],
        );
        s.normalize();
        s
    }

    #[test]
    fn folded_damping_slot_matches_unfused_channels() {
        // The fold must consume the RNG at the same points and leave the
        // same state (to rounding) as the per-channel sequence — across
        // seeds that exercise both jump and no-jump branches (rates are
        // large so ~half the seeds jump somewhere).
        let noise = NoiseModel::noise_free()
            .with_amplitude_damping(0.2)
            .with_phase_damping(0.15);
        let damping_only = noise;
        for qubits in [&[1][..], &[0, 2][..], &[2, 1][..]] {
            for seed in 0..300 {
                let mut fused = spread_state();
                let mut unfused = spread_state();
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                fused.gate_noise(qubits.iter().copied(), 0.0, &noise, &mut rng_a);
                apply_gate_noise_sparse(&mut unfused, qubits, 0.0, &damping_only, &mut rng_b);
                assert_eq!(
                    rng_a.gen::<u64>(),
                    rng_b.gen::<u64>(),
                    "RNG streams diverged (qubits {qubits:?}, seed {seed})"
                );
                for l in 0..8u128 {
                    assert!(
                        fused.amplitude(l).approx_eq(unfused.amplitude(l), 1e-12),
                        "amplitude {l:#b} diverged (qubits {qubits:?}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn folded_damping_slot_handles_single_channel_models() {
        for noise in [
            NoiseModel::noise_free().with_amplitude_damping(0.3),
            NoiseModel::noise_free().with_phase_damping(0.3),
        ] {
            for seed in 0..100 {
                let mut fused = spread_state();
                let mut unfused = spread_state();
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                fused.gate_noise([0, 1], 0.0, &noise, &mut rng_a);
                apply_gate_noise_sparse(&mut unfused, &[0, 1], 0.0, &noise, &mut rng_b);
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
                for l in 0..8u128 {
                    assert!(fused.amplitude(l).approx_eq(unfused.amplitude(l), 1e-12));
                }
            }
        }
    }

    #[test]
    fn fused_gate_noise_matches_unfused_with_pauli_rolls() {
        let noise = NoiseModel::ibm_like(0.4, 0.0, 0.0)
            .with_amplitude_damping(0.1)
            .with_phase_damping(0.1);
        for seed in 0..200 {
            let mut fused = spread_state();
            let mut unfused = spread_state();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            fused.gate_noise([0, 1, 2], noise.p1, &noise, &mut rng_a);
            apply_gate_noise_sparse(&mut unfused, &[0, 1, 2], noise.p1, &noise, &mut rng_b);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            for l in 0..8u128 {
                assert!(fused.amplitude(l).approx_eq(unfused.amplitude(l), 1e-12));
            }
        }
    }

    #[test]
    fn folded_damping_skips_rolls_for_unpopulated_qubits() {
        // A qubit with zero |1⟩ population must not consume a jump roll
        // (the unfused path short-circuits on `p_jump > 0`).
        let noise = NoiseModel::noise_free().with_amplitude_damping(0.5);
        let mut s = SparseState::basis_state(2, 0b00);
        let mut rng = StdRng::seed_from_u64(7);
        let before = {
            let mut probe = StdRng::seed_from_u64(7);
            probe.gen::<u64>()
        };
        s.gate_noise([0, 1], 0.0, &noise, &mut rng);
        assert_eq!(rng.gen::<u64>(), before, "rolls consumed on |00⟩");
        assert!((s.probability(0b00) - 1.0).abs() < 1e-12);
    }

    /// The unfused per-slot sequence [`SparseState::noise_slots`] folds:
    /// a p₂ roll applying a uniform Pauli on a random support qubit,
    /// then every damping channel of a random operand pair, channel by
    /// channel with a renormalization each.
    fn unfused_slot_loop(
        state: &mut SparseState,
        support: &[usize],
        slots: usize,
        p2: f64,
        noise: &NoiseModel,
        rng: &mut StdRng,
    ) {
        let damping_only = NoiseModel {
            p1: 0.0,
            p2: 0.0,
            readout: 0.0,
            ..*noise
        };
        for _ in 0..slots {
            if p2 > 0.0 && rng.gen::<f64>() < p2 {
                let q = support[rng.gen_range(0..support.len())];
                apply_gate_noise_sparse(state, &[q], 1.0, &NoiseModel::noise_free(), rng);
            }
            if damping_only.is_noisy() {
                let a = support[rng.gen_range(0..support.len())];
                let b = support[rng.gen_range(0..support.len())];
                let pair = [a, b];
                let slot: &[usize] = if a == b { &pair[..1] } else { &pair[..] };
                apply_gate_noise_sparse(state, slot, 0.0, &damping_only, rng);
            }
        }
    }

    /// A 5-qubit state over `labels`, with amplitudes drawn from `seed`
    /// (a `0.0` weight pins an explicit zero-mass entry).
    fn state_over(labels: &[(Label, f64)], seed: u64) -> SparseState {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = SparseState::from_amplitudes(
            5,
            labels.iter().map(|&(l, weight)| {
                let a = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                (l, a.scale(weight))
            }),
        );
        s.normalize();
        s
    }

    #[test]
    fn index_draw_matches_gen_range() {
        for len in 1..=9usize {
            let pick = IndexDraw::new(len);
            let mut a = StdRng::seed_from_u64(len as u64);
            let mut b = StdRng::seed_from_u64(len as u64);
            for _ in 0..10_000 {
                assert_eq!(pick.sample(&mut a), b.gen_range(0..len), "len {len}");
            }
            assert_eq!(a, b, "RNG position diverged (len {len})");
        }
        // Words at the top of the range exercise the rejection zone's
        // boundary, which seeded streams practically never reach.
        struct Words(std::vec::IntoIter<u64>);
        impl rand::RngCore for Words {
            fn next_u64(&mut self) -> u64 {
                self.0.next().expect("script exhausted")
            }
        }
        let script: Vec<u64> = (0..64).map(|k| u64::MAX - k).chain(0..8).collect();
        for len in 1..=9usize {
            let pick = IndexDraw::new(len);
            let mut a = Words(script.clone().into_iter());
            let mut b = Words(script.clone().into_iter());
            for _ in 0..40 {
                assert_eq!(pick.sample(&mut a), b.gen_range(0..len), "len {len}");
                assert_eq!(a.0.len(), b.0.len(), "words consumed (len {len})");
            }
        }
    }

    #[test]
    fn flat_slot_loop_matches_unfused_slot_loop() {
        // The mass-space slot runner must consume the RNG at the same
        // points and leave the same state (to rounding) as the per-slot
        // unfused sequence, over every support length up to 5 (odd
        // lengths draw by rejection), states of 1, 2 and 8 labels plus
        // one with a zero-mass entry, and each channel alone and all
        // together. Rates are large so jumps fire on both operands of
        // a slot.
        let states: [&[(Label, f64)]; 4] = [
            &[(0b10110, 1.0)],
            &[(0b00111, 1.0), (0b11010, 1.0)],
            &[
                (0b00000, 1.0),
                (0b00011, 1.0),
                (0b00101, 1.0),
                (0b01110, 1.0),
                (0b10001, 1.0),
                (0b10110, 1.0),
                (0b11011, 1.0),
                (0b11111, 1.0),
            ],
            &[(0b01011, 1.0), (0b10101, 0.0), (0b11110, 1.0)],
        ];
        let models = [
            (
                "gamma",
                NoiseModel::noise_free().with_amplitude_damping(0.3),
            ),
            ("lambda", NoiseModel::noise_free().with_phase_damping(0.3)),
            ("p2", NoiseModel::ibm_like(0.0, 0.3, 0.0)),
            // Every populated operand jumps, so a slot whose operands
            // are both set jumps twice.
            (
                "gamma=1",
                NoiseModel::noise_free().with_amplitude_damping(1.0),
            ),
            (
                "all",
                NoiseModel::ibm_like(0.0, 0.3, 0.0)
                    .with_amplitude_damping(0.2)
                    .with_phase_damping(0.2),
            ),
        ];
        let operands = [3usize, 0, 4, 1, 2];
        let mut projected = 0;
        for len in 1..=5 {
            let support = &operands[..len];
            for (si, labels) in states.iter().enumerate() {
                for (name, noise) in models {
                    for seed in 0..60u64 {
                        let start = state_over(labels, si as u64);
                        let mut fused = start.clone();
                        let mut unfused = start.clone();
                        let mut rng_a = StdRng::seed_from_u64(seed);
                        let mut rng_b = StdRng::seed_from_u64(seed);
                        fused.noise_slots(support, 12, noise.p2, &noise, &mut rng_a);
                        unfused_slot_loop(&mut unfused, support, 12, noise.p2, &noise, &mut rng_b);
                        let case = format!("len {len}, state {si}, {name}, seed {seed}");
                        assert_eq!(rng_a, rng_b, "RNG streams diverged ({case})");
                        assert_eq!(
                            fused.support(),
                            unfused.support(),
                            "support diverged ({case})"
                        );
                        for l in 0..32u128 {
                            assert!(
                                fused.amplitude(l).approx_eq(unfused.amplitude(l), 1e-9),
                                "amplitude {l:#b} diverged ({case})"
                            );
                        }
                        if fused.support_size() < start.support_size() {
                            projected += 1;
                        }
                    }
                }
            }
        }
        assert!(projected > 0, "no seed ended on a projected support");
    }

    #[test]
    fn flat_slot_loop_is_quiet_without_channels() {
        // With p₂ and both damping rates zero the unfused loop body
        // does nothing and draws nothing; the flat runner must match.
        let noise = NoiseModel::noise_free();
        let mut s = spread_state();
        let reference = spread_state();
        let mut rng = StdRng::seed_from_u64(3);
        let before = {
            let mut probe = StdRng::seed_from_u64(3);
            probe.gen::<u64>()
        };
        s.noise_slots(&[0, 1, 2], 50, noise.p2, &noise, &mut rng);
        assert_eq!(rng.gen::<u64>(), before, "draws consumed with no channels");
        for l in 0..8u128 {
            assert!(s.amplitude(l).approx_eq(reference.amplitude(l), 0.0));
        }
    }

    /// Asserts that `flat` and `fresh` hold the same support with
    /// amplitudes equal to the bit, and that both RNGs stand at the same
    /// position.
    fn assert_same_shot(
        flat: &SparseState,
        fresh: &SparseState,
        rngs: (&StdRng, &StdRng),
        case: &str,
    ) {
        assert_eq!(rngs.0, rngs.1, "RNG position ({case})");
        assert_eq!(flat.support(), fresh.support(), "support ({case})");
        for l in flat.support() {
            let (got, want) = (flat.amplitude(l), fresh.amplitude(l));
            assert_eq!(
                (got.re.to_bits(), got.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "amplitude {l:#b} ({case})"
            );
        }
    }

    /// `state`'s amplitudes in a new state with no history: fresh
    /// buffers and noise bookkeeping, and the entries in descending
    /// label order.
    fn rebuilt(state: &SparseState) -> SparseState {
        let support = state.support();
        SparseState::from_amplitudes(
            state.n_qubits(),
            support.iter().rev().map(|&l| (l, state.amplitude(l))),
        )
    }

    #[test]
    fn flat_shot_matches_sparse_state_shot_bit_for_bit() {
        // One state carried through every shot (reset, preparation, a
        // loaded start state, slot loop, transition, slot loop, draw),
        // as a worker runs its slab, against the same steps on a state
        // rebuilt out of label order and without history before each
        // step: they must agree to the bit after every step, with the
        // RNG at the same position. Heavy damping sends draws below the
        // rate often, γ = 1 zeroes classes, and a mass at 1e-300 sits
        // below the slot loop's floor.
        let models = [
            ("kyiv", crate::device::Device::ibm_kyiv().noise),
            (
                "heavy",
                NoiseModel::ibm_like(4e-4, 1.2e-2, 0.0)
                    .with_amplitude_damping(5e-2)
                    .with_phase_damping(3e-2),
            ),
            (
                "gamma=1",
                NoiseModel::ibm_like(0.0, 0.1, 0.0).with_amplitude_damping(1.0),
            ),
            ("lambda", NoiseModel::noise_free().with_phase_damping(3e-2)),
            ("p2", NoiseModel::ibm_like(0.0, 0.3, 0.0)),
        ];
        let states: [&[(Label, f64)]; 5] = [
            &[(0b10110, 1.0)],
            &[(0b00111, 1.0), (0b11010, 1.0)],
            &[
                (0b00000, 1.0),
                (0b00011, 1.0),
                (0b00101, 1.0),
                (0b01110, 1.0),
                (0b10001, 1.0),
                (0b10110, 1.0),
                (0b11011, 1.0),
                (0b11111, 1.0),
            ],
            &[(0b01011, 1.0), (0b10101, 0.0), (0b11110, 1.0)],
            &[(0b01011, 1.0), (0b10101, 1e-150), (0b11110, 1.0)],
        ];
        let operands = [3usize, 0, 4, 1, 2];
        let input: Label = 0b10110;
        let (cos, misin) = (Complex::from(0.6), Complex::new(0.0, -0.8));
        let mut flat = SparseState::basis_state(5, 0);
        for len in 1..=5 {
            let support = &operands[..len];
            // A transition over the support's first one or two qubits.
            let mut u = [0i64; 5];
            u[support[0]] = 1;
            if len > 1 {
                u[support[1]] = -1;
            }
            let tr = Transition::from_u(&u);
            for (si, labels) in states.iter().enumerate() {
                let start = state_over(labels, si as u64);
                for (name, noise) in models {
                    for seed in 0..40u64 {
                        let case = format!("len {len}, state {si}, {name}, seed {seed}");
                        let mut rng_a = StdRng::seed_from_u64(seed);
                        let mut rng_b = StdRng::seed_from_u64(seed);
                        flat.reset(input);
                        let mut fresh = SparseState::basis_state(5, input);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        let prep: Vec<usize> = (0..5).filter(|&q| input >> q & 1 == 1).collect();
                        flat.gate_noise(prep.iter().copied(), noise.p1, &noise, &mut rng_a);
                        fresh.gate_noise(prep.iter().copied(), noise.p1, &noise, &mut rng_b);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        flat.clone_from(&start);
                        fresh = rebuilt(&start);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        let slots = 12 + seed as usize;
                        flat.noise_slots(support, slots, noise.p2, &noise, &mut rng_a);
                        fresh = rebuilt(&fresh);
                        fresh.noise_slots(support, slots, noise.p2, &noise, &mut rng_b);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        flat.apply_transition_with(&tr, cos, misin);
                        fresh = rebuilt(&fresh);
                        fresh.apply_transition_with(&tr, cos, misin);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        flat.noise_slots(support, slots, noise.p2, &noise, &mut rng_a);
                        fresh = rebuilt(&fresh);
                        fresh.noise_slots(support, slots, noise.p2, &noise, &mut rng_b);
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                        let drawn = flat.sample_one(&mut rng_a);
                        fresh = rebuilt(&fresh);
                        assert_eq!(drawn, fresh.sample_one(&mut rng_b), "draw ({case})");
                        assert_same_shot(&flat, &fresh, (&rng_a, &rng_b), &case);
                    }
                }
            }
        }
    }

    #[test]
    fn readout_error_flips_bits() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut flipped = 0;
        for _ in 0..1000 {
            if apply_readout_error(0, 1, 0.3, &mut rng) == 1 {
                flipped += 1;
            }
        }
        assert!((flipped as f64 / 1000.0 - 0.3).abs() < 0.05);
        assert_eq!(apply_readout_error(0b101, 3, 0.0, &mut rng), 0b101);
    }
}

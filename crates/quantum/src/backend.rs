//! The qubit-plane abstraction consumed by the microarchitecture's
//! analog-digital interface.
//!
//! The QuMA v2 simulator drives qubits through this trait: apply a
//! unitary, let a qubit idle (decohere) for some wall-clock time, or
//! perform a projective measurement. Three implementations are provided:
//!
//! * [`DensityBackend`] — exact mixed-state evolution (default; smooth
//!   experiment curves, practical up to the paper's 8-qubit workloads);
//! * [`PureBackend`] — state-vector evolution with stochastic trajectory
//!   noise (scales to more qubits, needs shot averaging);
//! * [`StabilizerBackend`](crate::StabilizerBackend) — tableau
//!   evolution for Clifford-only programs (orders of magnitude faster,
//!   no dense qubit ceiling; see [`crate::stabilizer`]).
//!
//! Every backend also exposes a **fork surface** —
//! [`Backend::snapshot`] / [`Backend::restore`] / [`Backend::reseed`] —
//! so a caller can capture the quantum state at a deterministic point
//! once and fork many independently-seeded continuations from it
//! (shared-prefix shot execution in the runtime).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::density::{DensityMatrix, KrausScratch};
use crate::matrix::{mat2, CMatrix, Mat2};
use crate::noise::{depolarizing_1q, depolarizing_2q, NoiseModel};
use crate::stabilizer::Tableau;
use crate::statevector::StateVector;

/// A captured quantum state, tagged by the backend representation that
/// produced it. Restoring requires the same kind of backend.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendState {
    /// A density-matrix state.
    Density(DensityMatrix),
    /// A pure state vector.
    Pure(StateVector),
    /// A stabilizer tableau.
    Stabilizer(Tableau),
}

/// One projective measurement: its outcome and the exact `P(|1⟩)` the
/// outcome was drawn against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// `true` for `|1⟩`.
    pub outcome: bool,
    /// The probability of `|1⟩` the draw compared against.
    pub p1: f64,
}

impl Measurement {
    /// Draws an outcome against `p1`: one uniform `f64` from `rng`,
    /// `|1⟩` when it falls below `p1`. Every backend measures through
    /// this, so a caller that knows `p1` and holds a stream seeded like
    /// the backend's draws the outcome the backend would.
    pub fn draw<R: RngExt + ?Sized>(p1: f64, rng: &mut R) -> Self {
        Measurement {
            outcome: rng.random::<f64>() < p1,
            p1,
        }
    }
}

/// A simulated quantum register with noise.
///
/// All implementations are deterministic given the seed supplied at
/// construction.
///
/// `Send` is a supertrait so machines owning a `Box<dyn Backend>` can
/// move between threads — the shot runtime hands whole machines (not
/// just work) to pool and backend threads.
pub trait Backend: Send {
    /// Number of qubits in the register.
    fn num_qubits(&self) -> usize;

    /// Applies a 2×2 unitary to qubit `q`, followed by the model's
    /// single-qubit depolarizing gate error.
    fn apply_1q(&mut self, q: usize, u: &CMatrix);

    /// Applies a 4×4 unitary to the ordered pair `(qa, qb)` (`qa` = MSB
    /// of the block index), followed by the model's two-qubit
    /// depolarizing gate error.
    fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix);

    /// Lets qubit `q` idle (decohere) for `t_ns` nanoseconds.
    fn idle(&mut self, q: usize, t_ns: f64);

    /// Projectively measures qubit `q` in the computational basis,
    /// collapsing the state, and returns the outcome with the `P(|1⟩)`
    /// it was drawn against ([`Measurement::draw`], the backend's only
    /// draw under ideal trajectory noise and on the density matrix).
    /// Assignment error is *not* applied here; it belongs to the
    /// readout electronics model of the microarchitecture.
    fn measure(&mut self, q: usize) -> Measurement;

    /// The probability of `|1⟩` on qubit `q` without collapsing — used
    /// by experiment harnesses that want noiseless expectation readout.
    fn prob1(&self, q: usize) -> f64;

    /// Resets the whole register to `|0…0⟩`.
    fn reset(&mut self);

    /// The noise model in effect.
    fn noise(&self) -> &NoiseModel;

    /// Captures the current quantum state (not the RNG stream — a fork
    /// is expected to [`Backend::reseed`] before drawing).
    fn snapshot(&self) -> BackendState;

    /// Restores a state captured by [`Backend::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different backend kind.
    fn restore(&mut self, state: &BackendState);

    /// Replaces the RNG with one freshly seeded from `seed`, exactly as
    /// construction would — a restored-and-reseeded backend draws the
    /// same stream a newly built backend with that seed would.
    fn reseed(&mut self, seed: u64);
}

/// Exact density-matrix backend.
#[derive(Debug)]
pub struct DensityBackend {
    rho: DensityMatrix,
    noise: NoiseModel,
    rng: StdRng,
    /// The gate-error channels of `noise`, built once.
    depol_1q: Vec<Mat2>,
    depol_2q: Vec<CMatrix>,
    /// Buffers the Kraus channels sum into, reused across operations.
    scratch: KrausScratch,
}

impl DensityBackend {
    /// Creates a backend in `|0…0⟩` with the given noise model and RNG
    /// seed.
    pub fn new(num_qubits: usize, noise: NoiseModel, seed: u64) -> Self {
        let depol_1q = if noise.depol_1q > 0.0 {
            depolarizing_1q(noise.depol_1q).iter().map(mat2).collect()
        } else {
            Vec::new()
        };
        let depol_2q = if noise.depol_2q > 0.0 {
            depolarizing_2q(noise.depol_2q)
        } else {
            Vec::new()
        };
        DensityBackend {
            rho: DensityMatrix::zero_state(num_qubits),
            noise,
            rng: StdRng::seed_from_u64(seed),
            depol_1q,
            depol_2q,
            scratch: KrausScratch::default(),
        }
    }

    /// Read access to the underlying density matrix.
    pub fn density(&self) -> &DensityMatrix {
        &self.rho
    }

    /// The fidelity of the current state against a pure target.
    pub fn fidelity_pure(&self, psi: &StateVector) -> f64 {
        self.rho.fidelity_pure(psi)
    }
}

impl Backend for DensityBackend {
    fn num_qubits(&self) -> usize {
        self.rho.num_qubits()
    }

    fn apply_1q(&mut self, q: usize, u: &CMatrix) {
        self.rho.apply_1q(q, u);
        if !self.depol_1q.is_empty() {
            self.rho
                .apply_kraus_1q_with(q, &self.depol_1q, &mut self.scratch);
        }
    }

    fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix) {
        self.rho.apply_2q(qa, qb, u);
        if !self.depol_2q.is_empty() {
            self.rho
                .apply_kraus_2q_with(qa, qb, &self.depol_2q, &mut self.scratch);
        }
    }

    fn idle(&mut self, q: usize, t_ns: f64) {
        if let Some(kraus) = self.noise.idle_kraus_ops(t_ns) {
            self.rho.apply_kraus_1q_with(q, &kraus, &mut self.scratch);
        }
    }

    fn measure(&mut self, q: usize) -> Measurement {
        self.rho.measure(q, &mut self.rng)
    }

    fn prob1(&self, q: usize) -> f64 {
        self.rho.prob1(q)
    }

    fn reset(&mut self) {
        self.rho.reset();
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn snapshot(&self) -> BackendState {
        BackendState::Density(self.rho.clone())
    }

    fn restore(&mut self, state: &BackendState) {
        match state {
            BackendState::Density(rho) => self.rho.clone_from(rho),
            _ => panic!("snapshot backend kind mismatch: expected density state"),
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

/// State-vector backend with stochastic trajectory noise.
#[derive(Debug)]
pub struct PureBackend {
    psi: StateVector,
    noise: NoiseModel,
    rng: StdRng,
}

impl PureBackend {
    /// Creates a backend in `|0…0⟩` with the given noise model and RNG
    /// seed.
    pub fn new(num_qubits: usize, noise: NoiseModel, seed: u64) -> Self {
        PureBackend {
            psi: StateVector::zero_state(num_qubits),
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read access to the underlying state vector.
    pub fn state(&self) -> &StateVector {
        &self.psi
    }
}

impl Backend for PureBackend {
    fn num_qubits(&self) -> usize {
        self.psi.num_qubits()
    }

    fn apply_1q(&mut self, q: usize, u: &CMatrix) {
        self.psi.apply_1q(q, u);
        if self.noise.depol_1q > 0.0 {
            let kraus = depolarizing_1q(self.noise.depol_1q);
            self.psi.apply_kraus_1q(q, &kraus, &mut self.rng);
        }
    }

    fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix) {
        self.psi.apply_2q(qa, qb, u);
        if self.noise.depol_2q > 0.0 {
            // Trajectory sampling of the two-qubit Pauli channel: pick a
            // Pauli pair with the channel weights.
            let p = self.noise.depol_2q;
            if self.rng.random::<f64>() < p {
                let paulis = [
                    crate::gates::identity2(),
                    crate::gates::pauli_x(),
                    crate::gates::pauli_y(),
                    crate::gates::pauli_z(),
                ];
                // Uniform over the 15 non-identity pairs.
                let k = self.rng.random_range(1..16usize);
                let (i, j) = (k / 4, k % 4);
                if i > 0 {
                    self.psi.apply_1q(qa, &paulis[i]);
                }
                if j > 0 {
                    self.psi.apply_1q(qb, &paulis[j]);
                }
            }
        }
    }

    fn idle(&mut self, q: usize, t_ns: f64) {
        if let Some(kraus) = self.noise.idle_kraus(t_ns) {
            self.psi.apply_kraus_1q(q, &kraus, &mut self.rng);
        }
    }

    fn measure(&mut self, q: usize) -> Measurement {
        self.psi.measure(q, &mut self.rng)
    }

    fn prob1(&self, q: usize) -> f64 {
        self.psi.prob1(q)
    }

    fn reset(&mut self) {
        self.psi.reset();
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn snapshot(&self) -> BackendState {
        BackendState::Pure(self.psi.clone())
    }

    fn restore(&mut self, state: &BackendState) {
        match state {
            BackendState::Pure(psi) => self.psi.clone_from(psi),
            _ => panic!("snapshot backend kind mismatch: expected pure state"),
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use std::f64::consts::PI;

    fn backends(n: usize, noise: NoiseModel) -> Vec<Box<dyn Backend>> {
        vec![
            Box::new(DensityBackend::new(n, noise, 1)),
            Box::new(PureBackend::new(n, noise, 1)),
        ]
    }

    #[test]
    fn both_backends_flip_qubit() {
        for mut b in backends(2, NoiseModel::ideal()) {
            b.apply_1q(1, &gates::rx(PI));
            assert!((b.prob1(1) - 1.0).abs() < 1e-10);
            assert!(b.prob1(0) < 1e-10);
        }
    }

    #[test]
    fn both_backends_measure_deterministically() {
        for mut b in backends(1, NoiseModel::ideal()) {
            b.apply_1q(0, &gates::rx(PI));
            assert!(b.measure(0).outcome);
            // Post-measurement state stays |1>.
            assert!((b.prob1(0) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn idle_decay_on_density_backend() {
        let noise = NoiseModel::with_coherence(1000.0, 2000.0);
        let mut b = DensityBackend::new(1, noise, 0);
        b.apply_1q(0, &gates::rx(PI));
        b.idle(0, 1000.0);
        let expect = (-1.0f64).exp();
        assert!((b.prob1(0) - expect).abs() < 1e-9);
    }

    #[test]
    fn idle_decay_on_pure_backend_statistics() {
        let noise = NoiseModel::with_coherence(1000.0, 2000.0);
        let mut survive = 0;
        let trials = 1000;
        for seed in 0..trials {
            let mut b = PureBackend::new(1, noise, seed);
            b.apply_1q(0, &gates::rx(PI));
            b.idle(0, 1000.0);
            if b.measure(0).outcome {
                survive += 1;
            }
        }
        let f = survive as f64 / trials as f64;
        let expect = (-1.0f64).exp();
        assert!((f - expect).abs() < 0.05, "survival {f} vs {expect}");
    }

    #[test]
    fn gate_error_reduces_fidelity() {
        let noise = NoiseModel::ideal().with_gate_error(0.1, 0.0);
        let mut b = DensityBackend::new(1, noise, 0);
        b.apply_1q(0, &gates::rx(PI));
        // With 10% depolarizing after the gate P(1) < 1.
        assert!(b.prob1(0) < 1.0 - 0.05);
    }

    #[test]
    fn two_qubit_gate_error_on_density() {
        let noise = NoiseModel::ideal().with_gate_error(0.0, 0.2);
        let mut b = DensityBackend::new(2, noise, 0);
        b.apply_1q(0, &gates::hadamard());
        b.apply_2q(0, 1, &gates::cnot());
        let mut target = StateVector::zero_state(2);
        target.apply_1q(0, &gates::hadamard());
        target.apply_2q(0, 1, &gates::cnot());
        let f = b.fidelity_pure(&target);
        assert!(f < 0.95 && f > 0.6, "fidelity {f}");
    }

    #[test]
    fn reset_restores_ground_state() {
        for mut b in backends(2, NoiseModel::ideal()) {
            b.apply_1q(0, &gates::rx(PI));
            b.reset();
            assert!(b.prob1(0) < 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let noise = NoiseModel::with_coherence(500.0, 500.0);
        let run = |seed: u64| {
            let mut b = PureBackend::new(1, noise, seed);
            let mut bits = Vec::new();
            for _ in 0..20 {
                b.apply_1q(0, &gates::rx(PI / 2.0));
                bits.push(b.measure(0).outcome);
                b.reset();
            }
            bits
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(456));
    }
}

//! A pure-state (state-vector) simulator.
//!
//! Qubit 0 is the least significant bit of a basis-state index. The
//! simulator supports arbitrary single- and two-qubit unitaries,
//! projective measurement and stochastic (trajectory) application of
//! Kraus channels.

use rand::RngExt;

use crate::backend::Measurement;
use crate::complex::C64;
use crate::matrix::CMatrix;

/// A normalised pure state of `n` qubits.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::{gates, StateVector};
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_1q(0, &gates::hadamard());
/// psi.apply_2q(0, 1, &gates::cnot()); // control = qubit 0
/// // Bell state: P(1) on both qubits is 1/2.
/// assert!((psi.prob1(0) - 0.5).abs() < 1e-12);
/// assert!((psi.prob1(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector {
            num_qubits: self.num_qubits,
            amps: self.amps.clone(),
        }
    }

    /// Copies into the existing storage (no allocation when the sizes
    /// match) — the fork path restores a prefix state this way per shot.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.amps.clone_from(&source.amps);
    }
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 24 (the amplitude vector would not
    /// fit in memory).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 24, "state vector limited to 24 qubits");
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes (normalising them).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the vector has zero
    /// norm.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let n = amps.len();
        assert!(
            n.is_power_of_two() && n > 0,
            "length must be a power of two"
        );
        let num_qubits = n.trailing_zeros() as usize;
        let mut sv = StateVector { num_qubits, amps };
        let norm = sv.norm();
        assert!(norm > 0.0, "cannot normalise the zero vector");
        sv.scale(1.0 / norm);
        sv
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Read-only view of the amplitudes.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The Euclidean norm of the amplitude vector.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    fn scale(&mut self, s: f64) {
        for a in &mut self.amps {
            *a = a.scale(s);
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the matrix is not 2×2.
    pub fn apply_1q(&mut self, q: usize, u: &CMatrix) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "expected a 2x2 matrix");
        let bit = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        for base in 0..self.amps.len() {
            if base & bit != 0 {
                continue;
            }
            let i0 = base;
            let i1 = base | bit;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = u00 * a0 + u01 * a1;
            self.amps[i1] = u10 * a0 + u11 * a1;
        }
    }

    /// Applies a 4×4 unitary to the ordered qubit pair `(qa, qb)`.
    ///
    /// The bit of `qa` is the most significant bit of the 2-bit block
    /// index, matching the convention of [`crate::gates`].
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range, or the matrix
    /// is not 4×4.
    pub fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix) {
        assert!(
            qa < self.num_qubits && qb < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        assert_eq!((u.rows(), u.cols()), (4, 4), "expected a 4x4 matrix");
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        for base in 0..self.amps.len() {
            if base & ba != 0 || base & bb != 0 {
                continue;
            }
            // Block indices: (bit_a << 1) | bit_b.
            let idx = [base, base | bb, base | ba, base | ba | bb];
            let mut v = [C64::ZERO; 4];
            for (r, slot) in v.iter_mut().enumerate() {
                for c in 0..4 {
                    *slot += u[(r, c)] * self.amps[idx[c]];
                }
            }
            for (k, &i) in idx.iter().enumerate() {
                self.amps[i] = v[k];
            }
        }
    }

    /// The probability of measuring `|1⟩` on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn prob1(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// The expectation value of Pauli Z on qubit `q`.
    pub fn expectation_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob1(q)
    }

    /// Projectively measures qubit `q`, collapsing the state.
    ///
    /// The outcome is `true` for `|1⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure<R: RngExt + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let m = Measurement::draw(self.prob1(q), rng);
        self.collapse(q, m.outcome);
        m
    }

    /// Forces qubit `q` into the given outcome and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the requested outcome has zero
    /// probability.
    pub fn collapse(&mut self, q: usize, outcome: bool) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        for (i, a) in self.amps.iter_mut().enumerate() {
            let is_one = i & bit != 0;
            if is_one != outcome {
                *a = C64::ZERO;
            }
        }
        let norm = self.norm();
        assert!(norm > 1e-12, "collapse onto a zero-probability outcome");
        self.scale(1.0 / norm);
    }

    /// Applies a Kraus channel to qubit `q` by trajectory sampling: one
    /// Kraus operator is chosen with probability `‖K|ψ⟩‖²` and applied.
    ///
    /// # Panics
    ///
    /// Panics if the operators are not 2×2 or `q` is out of range.
    pub fn apply_kraus_1q<R: RngExt + ?Sized>(&mut self, q: usize, kraus: &[CMatrix], rng: &mut R) {
        let mut r = rng.random::<f64>();
        for (i, k) in kraus.iter().enumerate() {
            let mut branch = self.clone();
            branch.apply_general_1q(q, k);
            let p = branch.amps.iter().map(|a| a.norm_sqr()).sum::<f64>();
            if r < p || i == kraus.len() - 1 {
                if p > 1e-15 {
                    branch.scale(1.0 / p.sqrt());
                    *self = branch;
                }
                return;
            }
            r -= p;
        }
    }

    /// Applies an arbitrary (not necessarily unitary) 2×2 operator —
    /// used by the trajectory sampler; does not renormalise.
    fn apply_general_1q(&mut self, q: usize, m: &CMatrix) {
        // Same data movement as `apply_1q`; unitarity is not required.
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        for base in 0..self.amps.len() {
            if base & bit != 0 {
                continue;
            }
            let i0 = base;
            let i1 = base | bit;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = m[(0, 0)] * a0 + m[(0, 1)] * a1;
            self.amps[i1] = m[(1, 0)] * a0 + m[(1, 1)] * a1;
        }
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// The fidelity `|⟨self|other⟩|²` between two pure states.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Resets to `|0…0⟩`.
    pub fn reset(&mut self) {
        self.amps.iter_mut().for_each(|a| *a = C64::ZERO);
        self.amps[0] = C64::ONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn zero_state_probabilities() {
        let psi = StateVector::zero_state(3);
        for q in 0..3 {
            assert_eq!(psi.prob1(q), 0.0);
            assert_eq!(psi.expectation_z(q), 1.0);
        }
        assert!((psi.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn x_flips_qubit() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(1, &gates::pauli_x());
        assert_eq!(psi.prob1(0), 0.0);
        assert!((psi.prob1(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_gives_half() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(0, &gates::hadamard());
        assert!((psi.prob1(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(0, &gates::hadamard());
        psi.apply_2q(0, 1, &gates::cnot());
        // Amplitudes concentrated on |00> and |11>.
        let a = psi.amplitudes();
        assert!((a[0].norm_sqr() - 0.5).abs() < 1e-12);
        assert!((a[3].norm_sqr() - 0.5).abs() < 1e-12);
        assert!(a[1].norm_sqr() < 1e-12);
        assert!(a[2].norm_sqr() < 1e-12);
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(0, &gates::hadamard());
        psi.apply_2q(0, 1, &gates::cnot());
        let m0 = psi.measure(0, &mut rng).outcome;
        // After measuring one half of a Bell pair the other is determined.
        let p1 = psi.prob1(1);
        if m0 {
            assert!((p1 - 1.0).abs() < 1e-12);
        } else {
            assert!(p1 < 1e-12);
        }
    }

    #[test]
    fn measurement_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ones = 0u32;
        let n = 2000;
        for _ in 0..n {
            let mut psi = StateVector::zero_state(1);
            psi.apply_1q(0, &gates::rx(PI / 2.0));
            if psi.measure(0, &mut rng).outcome {
                ones += 1;
            }
        }
        let f = ones as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.05, "measured fraction {f}");
    }

    #[test]
    fn rotation_composition() {
        // Two X90 pulses equal one X up to phase: |0> -> |1>.
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(0, &gates::rx(PI / 2.0));
        psi.apply_1q(0, &gates::rx(PI / 2.0));
        assert!((psi.prob1(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cz_phase() {
        // CZ only flips the phase of |11>.
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(0, &gates::hadamard());
        psi.apply_1q(1, &gates::hadamard());
        psi.apply_2q(0, 1, &gates::cz());
        let a = psi.amplitudes();
        assert!(a[3].approx_eq(C64::real(-0.5), 1e-12));
        assert!(a[0].approx_eq(C64::real(0.5), 1e-12));
    }

    #[test]
    fn apply_2q_respects_qubit_order() {
        // CNOT with control qubit 1, target qubit 0.
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(1, &gates::pauli_x()); // |10> (q1=1)
        psi.apply_2q(1, 0, &gates::cnot());
        assert!((psi.prob1(0) - 1.0).abs() < 1e-12);
        assert!((psi.prob1(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_identical_states() {
        let mut a = StateVector::zero_state(2);
        let mut b = StateVector::zero_state(2);
        a.apply_1q(0, &gates::ry(0.7));
        b.apply_1q(0, &gates::ry(0.7));
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        b.apply_1q(0, &gates::pauli_x());
        assert!(a.fidelity(&b) < 1.0);
    }

    #[test]
    fn trajectory_kraus_preserves_norm() {
        use crate::noise;
        let mut rng = StdRng::seed_from_u64(3);
        let kraus = noise::amplitude_phase_damping(0.1, 0.05);
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(0, &gates::pauli_x());
        for _ in 0..50 {
            psi.apply_kraus_1q(0, &kraus, &mut rng);
            assert!((psi.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn amplitude_damping_trajectories_decay() {
        use crate::noise;
        let mut rng = StdRng::seed_from_u64(11);
        // gamma = 0.2 per step, 10 steps: survival ~ 0.8^10 ~ 0.107.
        let kraus = noise::amplitude_phase_damping(0.2, 0.0);
        let trials = 2000;
        let mut survive = 0;
        for _ in 0..trials {
            let mut psi = StateVector::zero_state(1);
            psi.apply_1q(0, &gates::pauli_x());
            for _ in 0..10 {
                psi.apply_kraus_1q(0, &kraus, &mut rng);
            }
            if psi.prob1(0) > 0.5 {
                survive += 1;
            }
        }
        let f = survive as f64 / trials as f64;
        let expect = 0.8f64.powi(10);
        assert!((f - expect).abs() < 0.04, "survival {f} vs {expect}");
    }

    #[test]
    fn from_amplitudes_normalises() {
        let sv = StateVector::from_amplitudes(vec![C64::real(3.0), C64::real(4.0)]);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert!((sv.prob1(0) - 0.64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE; 3]);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(0, &gates::hadamard());
        psi.reset();
        assert_eq!(psi.prob1(0), 0.0);
        assert!((psi.norm() - 1.0).abs() < 1e-15);
    }
}

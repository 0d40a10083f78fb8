//! A density-matrix simulator with exact noise-channel evolution.
//!
//! The density matrix is stored dense (2ⁿ × 2ⁿ), which is practical for
//! the chip sizes of the paper (up to the 8-qubit square-root benchmark).
//! Noise channels (amplitude/phase damping, depolarizing) apply exactly,
//! which gives smooth experiment curves without trajectory averaging.

use rand::RngExt;

use crate::backend::Measurement;
use crate::complex::C64;
use crate::matrix::{mat2, CMatrix, Mat2};
use crate::statevector::StateVector;

/// A mixed state of `n` qubits.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::{gates, DensityMatrix};
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_1q(0, &gates::hadamard());
/// assert!((rho.prob1(0) - 0.5).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    dim: usize,
    /// Row-major `dim × dim` storage.
    data: Vec<C64>,
}

impl Clone for DensityMatrix {
    fn clone(&self) -> Self {
        DensityMatrix {
            num_qubits: self.num_qubits,
            dim: self.dim,
            data: self.data.clone(),
        }
    }

    /// Copies into the existing storage (no allocation when the sizes
    /// match) — the fork path restores a prefix state this way per shot.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.dim = source.dim;
        self.data.clone_from(&source.data);
    }
}

impl DensityMatrix {
    /// The state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 12 (the matrix would not fit in
    /// memory).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 12, "density matrix limited to 12 qubits");
        let dim = 1usize << num_qubits;
        let mut data = vec![C64::ZERO; dim * dim];
        data[0] = C64::ONE;
        DensityMatrix {
            num_qubits,
            dim,
            data,
        }
    }

    /// The maximally mixed state `I / 2ⁿ`.
    pub fn maximally_mixed(num_qubits: usize) -> Self {
        let mut rho = DensityMatrix::zero_state(num_qubits);
        rho.data[0] = C64::ZERO;
        let p = 1.0 / rho.dim as f64;
        for i in 0..rho.dim {
            rho.data[i * rho.dim + i] = C64::real(p);
        }
        rho
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_pure(psi: &StateVector) -> Self {
        let dim = psi.amplitudes().len();
        let mut data = vec![C64::ZERO; dim * dim];
        for (i, &a) in psi.amplitudes().iter().enumerate() {
            for (j, &b) in psi.amplitudes().iter().enumerate() {
                data[i * dim + j] = a * b.conj();
            }
        }
        DensityMatrix {
            num_qubits: psi.num_qubits(),
            dim,
            data,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The Hilbert-space dimension `2ⁿ`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `ρ[i][j]`.
    pub fn entry(&self, i: usize, j: usize) -> C64 {
        self.data[i * self.dim + j]
    }

    /// Copies the state into a [`CMatrix`] (used by tomography).
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_flat(self.data.clone())
    }

    /// The trace (1 for a normalised state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// The purity `Tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.dim {
            for j in 0..self.dim {
                total += (self.data[i * self.dim + j] * self.data[j * self.dim + i]).re;
            }
        }
        total
    }

    /// Left-multiplies rows `ρ → (U ⊗ I…) ρ` on qubit `q` of the
    /// row-major `dim × dim` matrix `data` (helper).
    fn left_mul_1q(data: &mut [C64], dim: usize, q: usize, m: &Mat2) {
        let bit = 1usize << q;
        let [m00, m01, m10, m11] = *m;
        for col in 0..dim {
            for row_base in 0..dim {
                if row_base & bit != 0 {
                    continue;
                }
                let i0 = row_base * dim + col;
                let i1 = (row_base | bit) * dim + col;
                let a0 = data[i0];
                let a1 = data[i1];
                data[i0] = m00 * a0 + m01 * a1;
                data[i1] = m10 * a0 + m11 * a1;
            }
        }
    }

    /// Right-multiplies columns `ρ → ρ (M† ⊗ I…)` on qubit `q` of the
    /// row-major `dim × dim` matrix `data` (helper).
    fn right_mul_dagger_1q(data: &mut [C64], dim: usize, q: usize, m: &Mat2) {
        let bit = 1usize << q;
        // ρ' = ρ M†: over the column index, apply conj(M).
        let [c00, c01, c10, c11] = m.map(C64::conj);
        for row in 0..dim {
            for col_base in 0..dim {
                if col_base & bit != 0 {
                    continue;
                }
                let i0 = row * dim + col_base;
                let i1 = row * dim + (col_base | bit);
                let a0 = data[i0];
                let a1 = data[i1];
                data[i0] = c00 * a0 + c01 * a1;
                data[i1] = c10 * a0 + c11 * a1;
            }
        }
    }

    fn left_mul_2q(data: &mut [C64], dim: usize, qa: usize, qb: usize, m: &CMatrix) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        for col in 0..dim {
            for base in 0..dim {
                if base & ba != 0 || base & bb != 0 {
                    continue;
                }
                let rows = [base, base | bb, base | ba, base | ba | bb];
                let mut v = [C64::ZERO; 4];
                for (r, slot) in v.iter_mut().enumerate() {
                    for c in 0..4 {
                        *slot += m[(r, c)] * data[rows[c] * dim + col];
                    }
                }
                for (k, &r) in rows.iter().enumerate() {
                    data[r * dim + col] = v[k];
                }
            }
        }
    }

    fn right_mul_dagger_2q(data: &mut [C64], dim: usize, qa: usize, qb: usize, m: &CMatrix) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        for row in 0..dim {
            for base in 0..dim {
                if base & ba != 0 || base & bb != 0 {
                    continue;
                }
                let cols = [base, base | bb, base | ba, base | ba | bb];
                let mut v = [C64::ZERO; 4];
                for (j, slot) in v.iter_mut().enumerate() {
                    for k in 0..4 {
                        *slot += m[(j, k)].conj() * data[row * dim + cols[k]];
                    }
                }
                for (k, &c) in cols.iter().enumerate() {
                    data[row * dim + c] = v[k];
                }
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`: `ρ → U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the matrix is not 2×2.
    pub fn apply_1q(&mut self, q: usize, u: &CMatrix) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "expected a 2x2 matrix");
        let m = mat2(u);
        Self::left_mul_1q(&mut self.data, self.dim, q, &m);
        Self::right_mul_dagger_1q(&mut self.data, self.dim, q, &m);
    }

    /// Applies a 4×4 unitary to the ordered pair `(qa, qb)` — the bit of
    /// `qa` is the MSB of the block index, as in [`crate::gates`].
    ///
    /// # Panics
    ///
    /// Panics if qubits coincide or are out of range, or the matrix is
    /// not 4×4.
    pub fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix) {
        assert!(
            qa < self.num_qubits && qb < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        assert_eq!((u.rows(), u.cols()), (4, 4), "expected a 4x4 matrix");
        Self::left_mul_2q(&mut self.data, self.dim, qa, qb, u);
        Self::right_mul_dagger_2q(&mut self.data, self.dim, qa, qb, u);
    }

    /// Applies a single-qubit Kraus channel exactly:
    /// `ρ → Σ_k K_k ρ K_k†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or any operator is not 2×2.
    pub fn apply_kraus_1q(&mut self, q: usize, kraus: &[CMatrix]) {
        let ops: Vec<Mat2> = kraus
            .iter()
            .map(|k| {
                assert_eq!((k.rows(), k.cols()), (2, 2), "expected 2x2 Kraus operators");
                mat2(k)
            })
            .collect();
        self.apply_kraus_1q_with(q, &ops, &mut KrausScratch::default());
    }

    /// [`DensityMatrix::apply_kraus_1q`] over inline operators, summing
    /// into caller-owned buffers: allocation-free once `scratch` has
    /// grown to the matrix size.
    pub(crate) fn apply_kraus_1q_with(
        &mut self,
        q: usize,
        kraus: &[Mat2],
        scratch: &mut KrausScratch,
    ) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let dim = self.dim;
        self.apply_kraus(kraus, scratch, |data, k| {
            Self::left_mul_1q(data, dim, q, k);
            Self::right_mul_dagger_1q(data, dim, q, k);
        });
    }

    /// Applies a two-qubit Kraus channel exactly.
    ///
    /// # Panics
    ///
    /// Panics if qubits coincide/are out of range or operators are not
    /// 4×4.
    pub fn apply_kraus_2q(&mut self, qa: usize, qb: usize, kraus: &[CMatrix]) {
        assert!(
            qa < self.num_qubits && qb < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit channel needs distinct qubits");
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (4, 4), "expected 4x4 Kraus operators");
        }
        self.apply_kraus_2q_with(qa, qb, kraus, &mut KrausScratch::default());
    }

    /// [`DensityMatrix::apply_kraus_2q`] summing into caller-owned
    /// buffers (operators are assumed 4×4).
    pub(crate) fn apply_kraus_2q_with(
        &mut self,
        qa: usize,
        qb: usize,
        kraus: &[CMatrix],
        scratch: &mut KrausScratch,
    ) {
        let dim = self.dim;
        self.apply_kraus(kraus, scratch, |data, k| {
            Self::left_mul_2q(data, dim, qa, qb, k);
            Self::right_mul_dagger_2q(data, dim, qa, qb, k);
        });
    }

    /// `ρ → Σ_k K_k ρ K_k†`, where `conjugate` maps a copy of ρ to
    /// `K ρ K†` in place. Terms are summed in operator order into
    /// `scratch.acc` (element-wise `((t₀ + t₁) + t₂) + …`), which then
    /// swaps with ρ's storage.
    fn apply_kraus<K>(
        &mut self,
        kraus: &[K],
        scratch: &mut KrausScratch,
        conjugate: impl Fn(&mut [C64], &K),
    ) {
        let KrausScratch { acc, term } = scratch;
        for (i, k) in kraus.iter().enumerate() {
            let dst = if i == 0 { &mut *acc } else { &mut *term };
            dst.clear();
            dst.extend_from_slice(&self.data);
            conjugate(dst, k);
            if i > 0 {
                for (a, t) in acc.iter_mut().zip(term.iter()) {
                    *a += *t;
                }
            }
        }
        if !kraus.is_empty() {
            std::mem::swap(&mut self.data, acc);
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
        (0..self.dim)
            .filter(|i| i & bit != 0)
            .map(|i| self.data[i * self.dim + i].re)
            .sum()
    }

    /// The expectation value of Pauli Z on qubit `q`.
    pub fn expectation_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob1(q)
    }

    /// Projectively measures qubit `q`, collapsing the state.
    pub fn measure<R: RngExt + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        let m = Measurement::draw(self.prob1(q).clamp(0.0, 1.0), rng);
        self.collapse(q, m.outcome);
        m
    }

    /// Forces qubit `q` into the given outcome and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the requested outcome has zero probability.
    pub fn collapse(&mut self, q: usize, outcome: bool) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let keep = |i: usize| (i & bit != 0) == outcome;
        for i in 0..self.dim {
            for j in 0..self.dim {
                if !keep(i) || !keep(j) {
                    self.data[i * self.dim + j] = C64::ZERO;
                }
            }
        }
        let tr = self.trace();
        assert!(tr > 1e-12, "collapse onto a zero-probability outcome");
        let s = 1.0 / tr;
        for v in &mut self.data {
            *v = v.scale(s);
        }
    }

    /// The fidelity `⟨ψ|ρ|ψ⟩` against a pure state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fidelity_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.amplitudes().len(), self.dim, "dimension mismatch");
        let mut total = C64::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                total +=
                    psi.amplitudes()[i].conj() * self.data[i * self.dim + j] * psi.amplitudes()[j];
            }
        }
        total.re
    }

    /// The probability of the joint computational-basis outcome given by
    /// `bits` (bit `q` of `bits` = outcome of qubit `q`).
    pub fn basis_probability(&self, bits: usize) -> f64 {
        self.data[bits * self.dim + bits].re
    }

    /// Resets to `|0…0⟩⟨0…0|`.
    pub fn reset(&mut self) {
        self.data.iter_mut().for_each(|v| *v = C64::ZERO);
        self.data[0] = C64::ONE;
    }
}

/// Reusable buffers for Kraus channels: the running sum and one
/// operator's term, each a copy of ρ's storage.
#[derive(Debug, Default)]
pub(crate) struct KrausScratch {
    acc: Vec<C64>,
    term: Vec<C64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn pure_state_roundtrip() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(0, &gates::hadamard());
        psi.apply_2q(0, 1, &gates::cnot());
        let rho = DensityMatrix::from_pure(&psi);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-12);
        assert!((rho.prob1(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut psi = StateVector::zero_state(3);
        let mut rho = DensityMatrix::zero_state(3);
        let seq: [(usize, CMatrix); 4] = [
            (0, gates::hadamard()),
            (2, gates::rx(0.7)),
            (1, gates::ry(1.1)),
            (0, gates::rz(2.2)),
        ];
        for (q, u) in &seq {
            psi.apply_1q(*q, u);
            rho.apply_1q(*q, u);
        }
        psi.apply_2q(0, 2, &gates::cz());
        rho.apply_2q(0, 2, &gates::cz());
        psi.apply_2q(1, 0, &gates::cnot());
        rho.apply_2q(1, 0, &gates::cnot());
        for q in 0..3 {
            assert!(
                (psi.prob1(q) - rho.prob1(q)).abs() < 1e-10,
                "qubit {q} probabilities diverge"
            );
        }
        assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &gates::hadamard());
        let kraus = noise::depolarizing_1q(0.3);
        rho.apply_kraus_1q(0, &kraus);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        // p = 3/4 sends any state to I/2 under the (1-p, p/3, p/3, p/3)
        // Pauli channel.
        rho.apply_kraus_1q(0, &noise::depolarizing_1q(0.75));
        assert!((rho.prob1(0) - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &gates::pauli_x());
        let gamma = 0.25;
        let kraus = noise::amplitude_phase_damping(gamma, 0.0);
        rho.apply_kraus_1q(0, &kraus);
        assert!((rho.prob1(0) - (1.0 - gamma)).abs() < 1e-12);
        rho.apply_kraus_1q(0, &kraus);
        assert!((rho.prob1(0) - (1.0 - gamma) * (1.0 - gamma)).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherence() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &gates::hadamard());
        let before = rho.entry(0, 1).abs();
        rho.apply_kraus_1q(0, &noise::amplitude_phase_damping(0.0, 0.5));
        let after = rho.entry(0, 1).abs();
        assert!(after < before);
        // Populations untouched by pure dephasing.
        assert!((rho.prob1(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measure_and_collapse() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &gates::hadamard());
        rho.apply_2q(0, 1, &gates::cnot());
        let m = rho.measure(0, &mut rng).outcome;
        assert!((rho.prob1(1) - if m { 1.0 } else { 0.0 }).abs() < 1e-10);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_depolarizing_trace_preserving() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &gates::hadamard());
        rho.apply_2q(0, 1, &gates::cnot());
        rho.apply_kraus_2q(0, 1, &noise::depolarizing_2q(0.1));
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn maximally_mixed_probabilities() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.prob1(0) - 0.5).abs() < 1e-12);
        assert!((rho.prob1(1) - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rx_pi_on_density() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &gates::rx(PI));
        assert!((rho.prob1(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_probability_sums_to_one() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &gates::hadamard());
        rho.apply_1q(1, &gates::ry(0.9));
        let total: f64 = (0..4).map(|b| rho.basis_probability(b)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}

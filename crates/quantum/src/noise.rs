//! Noise channels: relaxation (T1), dephasing (T2), depolarizing gate
//! error and readout assignment error.
//!
//! These parameterise the "simulated chip" substitution documented in
//! `DESIGN.md`: the paper's experiments run on transmon qubits whose
//! errors are dominated by T1/T2 decay during idle time (Fig. 12), gate
//! infidelity (the ε(20 ns) floor and the CZ-limited Grover fidelity) and
//! readout assignment error (the 82.7 % active-reset number).

use crate::complex::C64;
use crate::matrix::{CMatrix, Mat2};

/// Kraus operators of the combined amplitude + phase damping channel.
///
/// `gamma` is the excited-state decay probability, `lambda` the
/// *additional* dephasing probability. The off-diagonal element of the
/// density matrix is scaled by `sqrt(1 - gamma - lambda)`.
///
/// # Panics
///
/// Panics unless `0 ≤ gamma`, `0 ≤ lambda` and `gamma + lambda ≤ 1`.
pub fn amplitude_phase_damping(gamma: f64, lambda: f64) -> Vec<CMatrix> {
    to_cmatrices(&amplitude_phase_damping_ops(gamma, lambda))
}

fn to_cmatrices(ops: &[Mat2]) -> Vec<CMatrix> {
    ops.iter().map(|k| CMatrix::from_flat(k.to_vec())).collect()
}

/// [`amplitude_phase_damping`] as inline operators, for callers that
/// must not allocate.
pub(crate) fn amplitude_phase_damping_ops(gamma: f64, lambda: f64) -> [Mat2; 3] {
    assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
    assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
    assert!(gamma + lambda <= 1.0 + 1e-12, "gamma + lambda exceeds 1");
    let keep = (1.0 - gamma - lambda).max(0.0).sqrt();
    let z = C64::ZERO;
    [
        [C64::ONE, z, z, C64::real(keep)],
        [z, C64::real(gamma.sqrt()), z, z],
        [z, z, z, C64::real(lambda.sqrt())],
    ]
}

/// Kraus operators of the single-qubit depolarizing channel:
/// `ρ → (1-p) ρ + (p/3)(XρX + YρY + ZρZ)`.
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn depolarizing_1q(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    let paulis = [
        crate::gates::identity2(),
        crate::gates::pauli_x(),
        crate::gates::pauli_y(),
        crate::gates::pauli_z(),
    ];
    let weights = [1.0 - p, p / 3.0, p / 3.0, p / 3.0];
    paulis
        .iter()
        .zip(weights)
        .map(|(m, w)| m.scale(C64::real(w.sqrt())))
        .collect()
}

/// Kraus operators of the two-qubit depolarizing channel over the 16
/// two-qubit Paulis (identity weight `1-p`, the 15 others `p/15` each).
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn depolarizing_2q(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    let paulis = [
        crate::gates::identity2(),
        crate::gates::pauli_x(),
        crate::gates::pauli_y(),
        crate::gates::pauli_z(),
    ];
    let mut out = Vec::with_capacity(16);
    for (i, a) in paulis.iter().enumerate() {
        for (j, b) in paulis.iter().enumerate() {
            let w = if i == 0 && j == 0 { 1.0 - p } else { p / 15.0 };
            out.push(a.kron(b).scale(C64::real(w.sqrt())));
        }
    }
    out
}

/// A calibrated decoherence + gate-error model.
///
/// `t1_ns`/`t2_ns` are the relaxation and coherence times;
/// `f64::INFINITY` disables the corresponding decay. `depol_1q`/`depol_2q`
/// are the depolarizing probabilities applied after each single-/two-qubit
/// gate unitary.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::NoiseModel;
///
/// let ideal = NoiseModel::ideal();
/// assert!(ideal.is_ideal());
///
/// let noisy = NoiseModel::with_coherence(30_000.0, 20_000.0);
/// let (gamma, lambda) = noisy.idle_damping(20.0);
/// assert!(gamma > 0.0 && lambda > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relaxation time, in nanoseconds (`INFINITY` = no relaxation).
    pub t1_ns: f64,
    /// Coherence time, in nanoseconds (`INFINITY` = no dephasing beyond
    /// the T1 limit). Must satisfy `t2 ≤ 2·t1`.
    pub t2_ns: f64,
    /// Depolarizing probability after each single-qubit gate.
    pub depol_1q: f64,
    /// Depolarizing probability after each two-qubit gate.
    pub depol_2q: f64,
}

impl NoiseModel {
    /// A noiseless model.
    pub const fn ideal() -> Self {
        NoiseModel {
            t1_ns: f64::INFINITY,
            t2_ns: f64::INFINITY,
            depol_1q: 0.0,
            depol_2q: 0.0,
        }
    }

    /// A pure-decoherence model with the given T1 and T2.
    ///
    /// # Panics
    ///
    /// Panics if `t2 > 2·t1` (unphysical) or either time is non-positive.
    pub fn with_coherence(t1_ns: f64, t2_ns: f64) -> Self {
        assert!(
            t1_ns > 0.0 && t2_ns > 0.0,
            "coherence times must be positive"
        );
        assert!(t2_ns <= 2.0 * t1_ns + 1e-9, "T2 cannot exceed 2*T1");
        NoiseModel {
            t1_ns,
            t2_ns,
            depol_1q: 0.0,
            depol_2q: 0.0,
        }
    }

    /// Adds depolarizing gate errors to the model.
    pub fn with_gate_error(mut self, depol_1q: f64, depol_2q: f64) -> Self {
        self.depol_1q = depol_1q;
        self.depol_2q = depol_2q;
        self
    }

    /// Returns `true` if the model introduces no errors at all.
    pub fn is_ideal(&self) -> bool {
        self.t1_ns.is_infinite()
            && self.t2_ns.is_infinite()
            && self.depol_1q == 0.0
            && self.depol_2q == 0.0
    }

    /// The `(gamma, lambda)` damping parameters accumulated over an idle
    /// period of `t_ns` nanoseconds, suitable for
    /// [`amplitude_phase_damping`].
    ///
    /// `gamma = 1 - e^(-t/T1)` and `lambda` is chosen so the coherence
    /// decays as `e^(-t/T2)`.
    pub fn idle_damping(&self, t_ns: f64) -> (f64, f64) {
        if t_ns <= 0.0 {
            return (0.0, 0.0);
        }
        let gamma = if self.t1_ns.is_finite() {
            1.0 - (-t_ns / self.t1_ns).exp()
        } else {
            0.0
        };
        let lambda = if self.t2_ns.is_finite() {
            let coh = (-t_ns / self.t2_ns).exp(); // target off-diagonal decay
            (1.0 - gamma - coh * coh).max(0.0)
        } else {
            0.0
        };
        (gamma, lambda)
    }

    /// The idle channel over `t_ns` nanoseconds, or `None` when the model
    /// has no decoherence.
    pub fn idle_kraus(&self, t_ns: f64) -> Option<Vec<CMatrix>> {
        self.idle_kraus_ops(t_ns).map(|ops| to_cmatrices(&ops))
    }

    /// [`NoiseModel::idle_kraus`] as inline operators, for callers that
    /// must not allocate.
    pub(crate) fn idle_kraus_ops(&self, t_ns: f64) -> Option<[Mat2; 3]> {
        let (gamma, lambda) = self.idle_damping(t_ns);
        ((gamma, lambda) != (0.0, 0.0)).then(|| amplitude_phase_damping_ops(gamma, lambda))
    }

    /// Whether idling for `t_ns` nanoseconds decoheres at all (the idle
    /// channel is not the identity).
    pub fn has_idle_decay(&self, t_ns: f64) -> bool {
        self.idle_damping(t_ns) != (0.0, 0.0)
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::ideal()
    }
}

/// A readout assignment-error model (the measurement discrimination
/// error of the UHFQC, §4.4/§5).
///
/// `p_read1_given0` is the probability that a qubit in `|0⟩` is reported
/// as `1`, and vice versa. The paper's active-reset experiment is
/// "limited by the readout fidelity"; `ReadoutModel::paper_reset()`
/// solves `(1-ε)² + ε² = 0.827` for the symmetric ε ≈ 9.56 %.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::ReadoutModel;
///
/// let ro = ReadoutModel::symmetric(0.1);
/// // Correcting a measured P(1) removes the assignment bias.
/// let measured = ro.observed_p1(1.0);
/// assert!((ro.correct_p1(measured) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutModel {
    /// P(report 1 | state 0).
    pub p_read1_given0: f64,
    /// P(report 0 | state 1).
    pub p_read0_given1: f64,
}

impl ReadoutModel {
    /// Perfect readout.
    pub const fn ideal() -> Self {
        ReadoutModel {
            p_read1_given0: 0.0,
            p_read0_given1: 0.0,
        }
    }

    /// Symmetric assignment error ε.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ 0.5`.
    pub fn symmetric(epsilon: f64) -> Self {
        assert!((0.0..=0.5).contains(&epsilon), "epsilon out of range");
        ReadoutModel {
            p_read1_given0: epsilon,
            p_read0_given1: epsilon,
        }
    }

    /// The symmetric error calibrated so the active-reset experiment of
    /// §5 yields P(|0⟩) = 82.7 %: ε = (1 − sqrt(2·0.827 − 1)) / 2.
    pub fn paper_reset() -> Self {
        let eps = (1.0 - (2.0f64 * 0.827 - 1.0).sqrt()) / 2.0;
        ReadoutModel::symmetric(eps)
    }

    /// Returns `true` if readout is error-free.
    pub fn is_ideal(&self) -> bool {
        self.p_read1_given0 == 0.0 && self.p_read0_given1 == 0.0
    }

    /// Applies assignment error to a projective outcome.
    pub fn corrupt<R: rand::RngExt + ?Sized>(&self, actual: bool, rng: &mut R) -> bool {
        let flip_p = if actual {
            self.p_read0_given1
        } else {
            self.p_read1_given0
        };
        if flip_p > 0.0 && rng.random::<f64>() < flip_p {
            !actual
        } else {
            actual
        }
    }

    /// The observed P(report 1) for a true excited-state probability.
    pub fn observed_p1(&self, true_p1: f64) -> f64 {
        (1.0 - true_p1) * self.p_read1_given0 + true_p1 * (1.0 - self.p_read0_given1)
    }

    /// Inverts the assignment matrix to correct a measured P(1) — the
    /// "corrected for readout errors" post-processing of Fig. 11.
    ///
    /// # Panics
    ///
    /// Panics if the assignment matrix is singular (ε₀ + ε₁ = 1).
    pub fn correct_p1(&self, observed_p1: f64) -> f64 {
        let denom = 1.0 - self.p_read1_given0 - self.p_read0_given1;
        assert!(denom.abs() > 1e-9, "assignment matrix is singular");
        (observed_p1 - self.p_read1_given0) / denom
    }
}

impl Default for ReadoutModel {
    fn default() -> Self {
        ReadoutModel::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn is_trace_preserving(kraus: &[CMatrix]) -> bool {
        let n = kraus[0].rows();
        let mut sum = CMatrix::zeros(n, n);
        for k in kraus {
            sum = &sum + &(&k.dagger() * k);
        }
        sum.approx_eq(&CMatrix::identity(n), 1e-12)
    }

    #[test]
    fn damping_channel_is_trace_preserving() {
        for (g, l) in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.2, 0.3), (0.5, 0.5)] {
            assert!(
                is_trace_preserving(&amplitude_phase_damping(g, l)),
                "gamma={g} lambda={l}"
            );
        }
    }

    #[test]
    fn depolarizing_channels_trace_preserving() {
        for p in [0.0, 0.01, 0.3, 1.0] {
            assert!(is_trace_preserving(&depolarizing_1q(p)), "1q p={p}");
            assert!(is_trace_preserving(&depolarizing_2q(p)), "2q p={p}");
        }
    }

    #[test]
    fn idle_damping_matches_t1() {
        let m = NoiseModel::with_coherence(100.0, 200.0);
        let (gamma, _) = m.idle_damping(100.0);
        assert!((gamma - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn idle_damping_matches_t2() {
        // With T2 < 2*T1 there is genuine extra dephasing.
        let m = NoiseModel::with_coherence(100.0, 100.0);
        let (gamma, lambda) = m.idle_damping(50.0);
        // Off-diagonal decay must be e^{-t/T2}: sqrt(1-γ-λ) = e^{-t/T2}.
        let off = (1.0 - gamma - lambda).sqrt();
        assert!((off - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn ideal_model_produces_no_channel() {
        let m = NoiseModel::ideal();
        assert!(m.is_ideal());
        assert!(m.idle_kraus(1000.0).is_none());
        assert_eq!(m.idle_damping(1000.0), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "T2 cannot exceed")]
    fn rejects_unphysical_t2() {
        let _ = NoiseModel::with_coherence(100.0, 300.0);
    }

    #[test]
    fn zero_idle_time_is_noiseless() {
        let m = NoiseModel::with_coherence(100.0, 100.0);
        assert_eq!(m.idle_damping(0.0), (0.0, 0.0));
        assert!(m.idle_kraus(0.0).is_none());
    }

    #[test]
    fn readout_corrupt_statistics() {
        let ro = ReadoutModel::symmetric(0.2);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 5000;
        let flips = (0..n).filter(|_| !ro.corrupt(true, &mut rng)).count();
        let f = flips as f64 / n as f64;
        assert!((f - 0.2).abs() < 0.02, "flip rate {f}");
    }

    #[test]
    fn readout_correction_inverts_observation() {
        let ro = ReadoutModel {
            p_read1_given0: 0.05,
            p_read0_given1: 0.12,
        };
        for p in [0.0, 0.3, 0.9, 1.0] {
            let obs = ro.observed_p1(p);
            assert!((ro.correct_p1(obs) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_reset_epsilon_matches_827_permille() {
        // (1-ε)² + ε² = 0.827 → final reset success probability.
        let ro = ReadoutModel::paper_reset();
        let e = ro.p_read1_given0;
        let p = (1.0 - e) * (1.0 - e) + e * e;
        assert!((p - 0.827).abs() < 1e-9, "p = {p}");
        assert!((e - 0.0956).abs() < 2e-3, "epsilon = {e}");
    }
}

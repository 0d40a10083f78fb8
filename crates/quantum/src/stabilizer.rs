//! Stabilizer (tableau) simulation of Clifford circuits.
//!
//! Randomized benchmarking — the paper's flagship workload (§5,
//! Fig. 12) — is pure Clifford, yet the dense backends pay 2ⁿ (state
//! vector) or 4ⁿ (density matrix) per gate. The Aaronson–Gottesman
//! tableau representation tracks the same states in O(n²) bits and
//! applies gates in O(n), so Clifford-only programs scale far past the
//! dense qubit ceiling and run orders of magnitude faster per shot.
//!
//! [`Tableau`] is the state representation; [`StabilizerBackend`] puts
//! it behind the [`Backend`] trait with the same RNG
//! draw pattern as the dense backends, so a noiseless Clifford program
//! produces **bit-identical** measurement outcomes under the same seed
//! whichever backend runs it (each projective measurement consumes
//! exactly one `f64` draw compared against `P(1)`, and `P(1)` of a
//! stabilizer state is exactly 0, ½ or 1).
//!
//! Noise support is the trajectory subset that keeps the state a
//! stabilizer state: depolarizing gate error is unravelled as a
//! stochastically sampled Pauli after the gate (exact in distribution —
//! the depolarizing channel *is* a Pauli mixture). Idle amplitude/phase
//! damping has no Clifford unravelling; [`StabilizerBackend::new`]
//! rejects noise models with finite T1/T2, and the microarchitecture's
//! backend-selection layer never routes such configurations here.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

use crate::backend::{Backend, BackendState, Measurement};
use crate::clifford::{Clifford, CLIFFORD_COUNT};
use crate::matrix::CMatrix;
use crate::noise::NoiseModel;

/// An Aaronson–Gottesman stabilizer tableau over `n` qubits.
///
/// Rows `0..n` are destabilizer generators, rows `n..2n` stabilizer
/// generators; each row is a Pauli string (bit-packed X and Z parts)
/// with a sign bit. Gates are applied by conjugating every generator.
///
/// # Examples
///
/// ```
/// use eqasm_quantum::Tableau;
///
/// let mut t = Tableau::zero_state(2);
/// t.h(0);
/// t.cnot(0, 1); // Bell pair
/// assert_eq!(t.prob1(0), 0.5);
/// t.project(0, true);
/// assert_eq!(t.prob1(1), 1.0); // perfectly correlated
/// ```
#[derive(Debug, PartialEq)]
pub struct Tableau {
    n: usize,
    /// `u64` words per row half (X or Z part).
    words: usize,
    /// X bits, `2n` rows by `words` words, row-major.
    x: Vec<u64>,
    /// Z bits, same layout.
    z: Vec<u64>,
    /// Sign bits (`true` = −1) per row.
    r: Vec<bool>,
}

impl Clone for Tableau {
    fn clone(&self) -> Self {
        Tableau {
            n: self.n,
            words: self.words,
            x: self.x.clone(),
            z: self.z.clone(),
            r: self.r.clone(),
        }
    }

    /// Copies into the existing storage (no allocation when the sizes
    /// match) — the fork path restores a prefix state this way per shot.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.x.clone_from(&source.x);
        self.z.clone_from(&source.z);
        self.r.clone_from(&source.r);
    }
}

impl Tableau {
    /// The tableau of `|0…0⟩`: destabilizers `Xᵢ`, stabilizers `Zᵢ`.
    pub fn zero_state(n: usize) -> Self {
        assert!(n >= 1, "tableau needs at least one qubit");
        let words = n.div_ceil(64);
        let mut t = Tableau {
            n,
            words,
            x: vec![0; 2 * n * words],
            z: vec![0; 2 * n * words],
            r: vec![false; 2 * n],
        };
        for i in 0..n {
            t.set_x(i, i, true);
            t.set_z(n + i, i, true);
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets to `|0…0⟩`.
    pub fn reset(&mut self) {
        *self = Tableau::zero_state(self.n);
    }

    #[inline]
    fn xb(&self, row: usize, q: usize) -> bool {
        self.x[row * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn zb(&self, row: usize, q: usize) -> bool {
        self.z[row * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.x[row * self.words + q / 64];
        let bit = 1u64 << (q % 64);
        if v {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.z[row * self.words + q / 64];
        let bit = 1u64 << (q % 64);
        if v {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Hadamard on qubit `q`.
    pub fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let xq = self.xb(row, q);
            let zq = self.zb(row, q);
            self.r[row] ^= xq && zq;
            self.set_x(row, q, zq);
            self.set_z(row, q, xq);
        }
    }

    /// Phase gate S = diag(1, i) on qubit `q`.
    pub fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let xq = self.xb(row, q);
            let zq = self.zb(row, q);
            self.r[row] ^= xq && zq;
            self.set_z(row, q, zq ^ xq);
        }
    }

    /// CNOT with control `a`, target `b`.
    pub fn cnot(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "CNOT needs distinct qubits");
        for row in 0..2 * self.n {
            let xa = self.xb(row, a);
            let za = self.zb(row, a);
            let xb = self.xb(row, b);
            let zb = self.zb(row, b);
            self.r[row] ^= xa && zb && (xb == za);
            self.set_x(row, b, xb ^ xa);
            self.set_z(row, a, za ^ zb);
        }
    }

    /// CZ on qubits `a`, `b` (symmetric).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// SWAP of qubits `a`, `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Pauli X on qubit `q` (sign update only — X conjugation flips the
    /// sign of every generator whose Z part touches `q`).
    pub fn pauli_x(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let flip = self.zb(row, q);
            self.r[row] ^= flip;
        }
    }

    /// Pauli Z on qubit `q`.
    pub fn pauli_z(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let flip = self.xb(row, q);
            self.r[row] ^= flip;
        }
    }

    /// Pauli Y on qubit `q`.
    pub fn pauli_y(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let flip = self.xb(row, q) ^ self.zb(row, q);
            self.r[row] ^= flip;
        }
    }

    /// The phase exponent contribution of multiplying single-qubit
    /// Paulis (x1,z1)·(x2,z2): the power of `i` picked up, in {-1,0,1}.
    #[inline]
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    /// Row `h` ← row `h` · row `i` (generator product with exact sign
    /// tracking; the total phase is always ±1 for commuting updates).
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut t: i32 = 2 * (self.r[h] as i32) + 2 * (self.r[i] as i32);
        for q in 0..self.n {
            t += Self::g(self.xb(i, q), self.zb(i, q), self.xb(h, q), self.zb(h, q));
        }
        debug_assert!(t.rem_euclid(2) == 0, "rowsum phase must be real");
        self.r[h] = t.rem_euclid(4) == 2;
        for w in 0..self.words {
            self.x[h * self.words + w] ^= self.x[i * self.words + w];
            self.z[h * self.words + w] ^= self.z[i * self.words + w];
        }
    }

    /// The measurement outcome of qubit `q` if it is deterministic
    /// (`q` in a Z eigenstate), else `None`.
    pub fn deterministic_outcome(&self, q: usize) -> Option<bool> {
        if (self.n..2 * self.n).any(|row| self.xb(row, q)) {
            return None;
        }
        // Accumulate the product of the stabilizer rows selected by the
        // destabilizer X bits into a scratch row; its sign is the
        // outcome.
        let mut sx = vec![0u64; self.words];
        let mut sz = vec![0u64; self.words];
        let mut t: i32 = 0;
        for i in 0..self.n {
            if self.xb(i, q) {
                let row = self.n + i;
                t += 2 * (self.r[row] as i32);
                for col in 0..self.n {
                    let hx = sx[col / 64] >> (col % 64) & 1 == 1;
                    let hz = sz[col / 64] >> (col % 64) & 1 == 1;
                    t += Self::g(self.xb(row, col), self.zb(row, col), hx, hz);
                }
                for w in 0..self.words {
                    sx[w] ^= self.x[row * self.words + w];
                    sz[w] ^= self.z[row * self.words + w];
                }
            }
        }
        Some(t.rem_euclid(4) == 2)
    }

    /// The probability of reading `|1⟩` on qubit `q`: exactly 0, ½ or 1
    /// for a stabilizer state.
    pub fn prob1(&self, q: usize) -> f64 {
        match self.deterministic_outcome(q) {
            Some(true) => 1.0,
            Some(false) => 0.0,
            None => 0.5,
        }
    }

    /// Projects qubit `q` onto the given measurement `outcome`.
    ///
    /// For a random (probability-½) outcome this collapses the state;
    /// for a deterministic qubit it is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has probability zero.
    pub fn project(&mut self, q: usize, outcome: bool) {
        match self.deterministic_outcome(q) {
            Some(det) => assert_eq!(
                det, outcome,
                "projection onto a zero-probability outcome on qubit {q}"
            ),
            None => {
                let p = (self.n..2 * self.n)
                    .find(|&row| self.xb(row, q))
                    .expect("random outcome implies an anticommuting stabilizer");
                // Destabilizer p−n is *overwritten* by the old
                // stabilizer row first (its previous content would
                // anticommute with row p), then the stabilizer row
                // becomes ±Z_q, and finally every other generator still
                // carrying X_q is multiplied by the old stabilizer —
                // all of those commute with it, so signs stay real.
                let (dst, src) = (p - self.n, p);
                for w in 0..self.words {
                    self.x[dst * self.words + w] = self.x[src * self.words + w];
                    self.z[dst * self.words + w] = self.z[src * self.words + w];
                    self.x[src * self.words + w] = 0;
                    self.z[src * self.words + w] = 0;
                }
                self.r[dst] = self.r[src];
                self.set_z(src, q, true);
                self.r[src] = outcome;
                for row in 0..2 * self.n {
                    if row != dst && self.xb(row, q) {
                        self.rowsum(row, dst);
                    }
                }
            }
        }
    }
}

/// The H/S generator words realizing each of the 24 single-qubit
/// Cliffords on a tableau, indexed by [`Clifford::index`]. Built once by
/// BFS over {H, S} products matched up to global phase.
fn hs_words() -> &'static [Vec<HsGate>; CLIFFORD_COUNT] {
    static WORDS: OnceLock<[Vec<HsGate>; CLIFFORD_COUNT]> = OnceLock::new();
    WORDS.get_or_init(|| {
        let h = crate::gates::hadamard();
        let s = crate::gates::s_gate();
        let mut words: [Option<Vec<HsGate>>; CLIFFORD_COUNT] = std::array::from_fn(|_| None);
        let mut frontier: Vec<(CMatrix, Vec<HsGate>)> = vec![(CMatrix::identity(2), Vec::new())];
        words[Clifford::identity().index()] = Some(Vec::new());
        let mut found = 1;
        while found < CLIFFORD_COUNT {
            let mut next = Vec::new();
            for (u, w) in &frontier {
                for (g, m) in [(HsGate::H, &h), (HsGate::S, &s)] {
                    let u2 = m * u;
                    let c = Clifford::from_matrix(&u2)
                        .expect("products of H and S stay in the Clifford group");
                    if words[c.index()].is_none() {
                        let mut w2 = w.clone();
                        w2.push(g);
                        words[c.index()] = Some(w2.clone());
                        next.push((u2, w2));
                        found += 1;
                    }
                }
            }
            assert!(!next.is_empty(), "H and S must generate all 24 Cliffords");
            frontier = next;
        }
        words.map(|w| w.expect("BFS covered the group"))
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HsGate {
    H,
    S,
}

/// Stabilizer-tableau backend: Clifford gates, projective measurement,
/// and trajectory depolarizing gate noise.
///
/// Gate matrices are matched (up to global phase) against the Clifford
/// group / the CZ–CNOT–SWAP set; the backend-selection layer guarantees
/// only Clifford programs are routed here, and a non-Clifford unitary
/// panics. Measurement consumes exactly one RNG draw compared against
/// `P(1)` — the same pattern as the dense backends — so noiseless
/// Clifford programs give bit-identical outcomes across backends under
/// the same seed.
#[derive(Debug)]
pub struct StabilizerBackend {
    tab: Tableau,
    noise: NoiseModel,
    rng: StdRng,
}

impl StabilizerBackend {
    /// Creates a backend in `|0…0⟩` with the given noise model and RNG
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the noise model has an idle decoherence channel
    /// (finite T1/T2): amplitude damping has no Clifford unravelling.
    pub fn new(num_qubits: usize, noise: NoiseModel, seed: u64) -> Self {
        assert!(
            noise.idle_kraus(1.0).is_none(),
            "StabilizerBackend does not support idle decoherence (finite T1/T2)"
        );
        StabilizerBackend {
            tab: Tableau::zero_state(num_qubits),
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read access to the underlying tableau.
    pub fn tableau(&self) -> &Tableau {
        &self.tab
    }

    fn apply_pauli(&mut self, q: usize, idx: usize) {
        match idx {
            0 => {}
            1 => self.tab.pauli_x(q),
            2 => self.tab.pauli_y(q),
            3 => self.tab.pauli_z(q),
            _ => unreachable!("Pauli index"),
        }
    }

    /// Trajectory depolarizing error after a single-qubit gate: one RNG
    /// draw walks the channel branches (identity weight 1−p, each Pauli
    /// p/3), mirroring the state-vector Kraus sampler.
    fn depol_1q(&mut self, q: usize) {
        let p = self.noise.depol_1q;
        let mut r = self.rng.random::<f64>();
        if r < 1.0 - p {
            return;
        }
        r -= 1.0 - p;
        let idx = 1 + ((r / (p / 3.0)) as usize).min(2);
        self.apply_pauli(q, idx);
    }
}

impl Backend for StabilizerBackend {
    fn num_qubits(&self) -> usize {
        self.tab.num_qubits()
    }

    fn apply_1q(&mut self, q: usize, u: &CMatrix) {
        let c = Clifford::from_matrix(u).unwrap_or_else(|| {
            panic!("non-Clifford single-qubit unitary reached the stabilizer backend")
        });
        for g in &hs_words()[c.index()] {
            match g {
                HsGate::H => self.tab.h(q),
                HsGate::S => self.tab.s(q),
            }
        }
        if self.noise.depol_1q > 0.0 {
            self.depol_1q(q);
        }
    }

    fn apply_2q(&mut self, qa: usize, qb: usize, u: &CMatrix) {
        let eps = 1e-9;
        if u.approx_eq_up_to_phase(&crate::gates::cz(), eps) {
            self.tab.cz(qa, qb);
        } else if u.approx_eq_up_to_phase(&crate::gates::cnot(), eps) {
            self.tab.cnot(qa, qb);
        } else if u.approx_eq_up_to_phase(&crate::gates::swap(), eps) {
            self.tab.swap(qa, qb);
        } else if u.approx_eq_up_to_phase(&CMatrix::identity(4), eps) {
            // CPhase(0) and friends.
        } else {
            panic!("non-Clifford two-qubit unitary reached the stabilizer backend");
        }
        if self.noise.depol_2q > 0.0 {
            // Same trajectory sampling (and RNG draw pattern) as the
            // state-vector backend: uniform over the 15 non-identity
            // Pauli pairs with total weight p.
            let p = self.noise.depol_2q;
            if self.rng.random::<f64>() < p {
                let k = self.rng.random_range(1..16usize);
                let (i, j) = (k / 4, k % 4);
                self.apply_pauli(qa, i);
                self.apply_pauli(qb, j);
            }
        }
    }

    fn idle(&mut self, _q: usize, t_ns: f64) {
        // `new` rejects models with an idle channel; for the accepted
        // models idling is the identity (matching the dense backends,
        // whose `idle_kraus` is `None` without finite T1/T2).
        debug_assert!(self.noise.idle_kraus(t_ns).is_none());
    }

    fn measure(&mut self, q: usize) -> Measurement {
        let m = Measurement::draw(self.tab.prob1(q), &mut self.rng);
        self.tab.project(q, m.outcome);
        m
    }

    fn prob1(&self, q: usize) -> f64 {
        self.tab.prob1(q)
    }

    fn reset(&mut self) {
        self.tab.reset();
    }

    fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn snapshot(&self) -> BackendState {
        BackendState::Stabilizer(self.tab.clone())
    }

    fn restore(&mut self, state: &BackendState) {
        match state {
            BackendState::Stabilizer(t) => self.tab.clone_from(t),
            _ => panic!("snapshot backend kind mismatch: expected stabilizer state"),
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
    use crate::statevector::StateVector;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn hs_words_reproduce_all_cliffords() {
        for c in Clifford::all() {
            let h = gates::hadamard();
            let s = gates::s_gate();
            let mut u = CMatrix::identity(2);
            for g in &hs_words()[c.index()] {
                u = match g {
                    HsGate::H => &h * &u,
                    HsGate::S => &s * &u,
                };
            }
            assert!(
                u.approx_eq_up_to_phase(c.matrix(), 1e-9),
                "H/S word of {c} does not reproduce its matrix"
            );
        }
    }

    #[test]
    fn bell_pair_correlations() {
        let mut t = Tableau::zero_state(2);
        t.h(0);
        t.cnot(0, 1);
        assert_eq!(t.prob1(0), 0.5);
        assert_eq!(t.prob1(1), 0.5);
        t.project(0, false);
        assert_eq!(t.prob1(1), 0.0);

        let mut t = Tableau::zero_state(2);
        t.h(0);
        t.cnot(0, 1);
        t.project(0, true);
        assert_eq!(t.prob1(1), 1.0);
    }

    #[test]
    fn x_flips_deterministically() {
        let mut b = StabilizerBackend::new(1, NoiseModel::ideal(), 7);
        b.apply_1q(0, &gates::rx(PI));
        assert_eq!(b.prob1(0), 1.0);
        assert!(b.measure(0).outcome);
        assert_eq!(b.prob1(0), 1.0);
        b.reset();
        assert_eq!(b.prob1(0), 0.0);
    }

    /// Random Clifford circuits agree with the dense state vector on
    /// every marginal, including through mid-circuit measurements (the
    /// measurement outcomes are forced to match by sharing one RNG).
    #[test]
    fn random_circuits_match_statevector() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let n = 4;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tab = Tableau::zero_state(n);
            let mut psi = StateVector::zero_state(n);
            for _ in 0..60 {
                match rng.random_range(0..4u32) {
                    0 => {
                        let q = rng.random_range(0..n);
                        let c = Clifford::random(&mut rng);
                        let mut b = StabilizerBackend::new(n, NoiseModel::ideal(), 0);
                        b.tab = tab;
                        b.apply_1q(q, c.matrix());
                        tab = b.tab;
                        psi.apply_1q(q, c.matrix());
                    }
                    1 => {
                        let a = rng.random_range(0..n);
                        let b = (a + rng.random_range(1..n)) % n;
                        tab.cnot(a, b);
                        psi.apply_2q(a, b, &gates::cnot());
                    }
                    2 => {
                        let a = rng.random_range(0..n);
                        let b = (a + rng.random_range(1..n)) % n;
                        tab.cz(a, b);
                        psi.apply_2q(a, b, &gates::cz());
                    }
                    _ => {
                        let q = rng.random_range(0..n);
                        let p1 = tab.prob1(q);
                        assert!(
                            (p1 - psi.prob1(q)).abs() < 1e-9,
                            "P(1) mismatch: tableau {p1} vs dense {}",
                            psi.prob1(q)
                        );
                        let outcome = rng.random::<f64>() < p1;
                        tab.project(q, outcome);
                        psi.collapse(q, outcome);
                    }
                }
                for q in 0..n {
                    assert!(
                        (tab.prob1(q) - psi.prob1(q)).abs() < 1e-9,
                        "marginal mismatch on qubit {q} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_and_cz_via_backend() {
        let mut b = StabilizerBackend::new(2, NoiseModel::ideal(), 0);
        b.apply_1q(0, &gates::rx(PI));
        b.apply_2q(0, 1, &gates::swap());
        assert_eq!(b.prob1(0), 0.0);
        assert_eq!(b.prob1(1), 1.0);
        // CZ on |+1⟩ flips the + to −; HZH = X basis check.
        b.apply_1q(0, &gates::hadamard());
        b.apply_2q(0, 1, &gates::cz());
        b.apply_1q(0, &gates::hadamard());
        assert_eq!(b.prob1(0), 1.0);
    }

    #[test]
    fn rz_multiples_of_half_pi_are_accepted() {
        let mut b = StabilizerBackend::new(1, NoiseModel::ideal(), 0);
        for k in 0..4 {
            b.apply_1q(0, &gates::rz(FRAC_PI_2 * k as f64));
        }
        // S·S·S·Z·I ∝ S — still on the equator after an H.
        b.apply_1q(0, &gates::hadamard());
        assert_eq!(b.prob1(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn non_clifford_unitary_panics() {
        let mut b = StabilizerBackend::new(1, NoiseModel::ideal(), 0);
        b.apply_1q(0, &gates::rx(0.3));
    }

    #[test]
    #[should_panic(expected = "idle decoherence")]
    fn finite_coherence_rejected() {
        let _ = StabilizerBackend::new(1, NoiseModel::with_coherence(1000.0, 1000.0), 0);
    }

    #[test]
    fn depolarizing_statistics() {
        // X then 30% depolarizing: P(survive as |1⟩) = 1 − 2p/3 = 0.8.
        let noise = NoiseModel::ideal().with_gate_error(0.3, 0.0);
        let trials = 4000;
        let mut ones = 0;
        for seed in 0..trials {
            let mut b = StabilizerBackend::new(1, noise, seed);
            b.apply_1q(0, &gates::rx(PI));
            if b.measure(0).outcome {
                ones += 1;
            }
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.8).abs() < 0.03, "survival {f} vs 0.8");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut b = StabilizerBackend::new(3, NoiseModel::ideal(), 3);
        b.apply_1q(0, &gates::hadamard());
        b.apply_2q(0, 1, &gates::cnot());
        let snap = b.snapshot();
        let before = b.tab.clone();
        b.measure(0);
        b.apply_1q(2, &gates::rx(PI));
        b.restore(&snap);
        assert_eq!(b.tab, before);
    }

    #[test]
    fn large_register_ghz() {
        // Far past the dense ceiling: 200-qubit GHZ chain.
        let n = 200;
        let mut t = Tableau::zero_state(n);
        t.h(0);
        for q in 1..n {
            t.cnot(q - 1, q);
        }
        for q in 0..n {
            assert_eq!(t.prob1(q), 0.5);
        }
        t.project(0, true);
        for q in 1..n {
            assert_eq!(t.prob1(q), 1.0);
        }
    }
}

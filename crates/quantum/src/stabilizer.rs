//! Stabilizer (tableau) simulation of Clifford circuits.
//!
//! Randomized benchmarking — the paper's flagship workload (§5,
//! Fig. 12) — is pure Clifford, yet the dense backends pay 2ⁿ (state
//! vector) or 4ⁿ (density matrix) per gate. The Aaronson–Gottesman
//! tableau representation (arXiv:quant-ph/0406196) tracks the same
//! states in O(n²) bits and applies gates in O(n), so Clifford-only
//! programs scale far past the dense qubit ceiling and run orders of
//! magnitude faster per shot.
//!
//! Measurement is word-parallel, as in Stim (arXiv:2103.02202): the
//! phase of a generator product is read from popcounts over whole
//! `u64` words of X and Z bits, never qubit by qubit. Measuring one
//! qubit makes one determinism check (a scan of the `n` stabilizer
//! rows); a random outcome then multiplies at most `2n` rows by one
//! row, and a deterministic one accumulates at most `n` rows in
//! registers, so either costs O(n²/64) word operations. Measurement,
//! `P(1)` reads and [`Tableau::reset`] allocate nothing.
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
        t.reset();
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets to `|0…0⟩` in place (no allocation).
    pub fn reset(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.r.fill(false);
        for i in 0..self.n {
            self.set_x(i, i, true);
            self.set_z(self.n + i, i, true);
        }
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

    /// The word of qubit `q` within a row half, and `q`'s bit in it.
    #[inline]
    fn column(q: usize) -> (usize, u64) {
        (q / 64, 1 << (q % 64))
    }

    /// The first stabilizer row whose X part touches `q` — the one that
    /// anticommutes with `Z_q` — or `None` when `q`'s outcome is
    /// deterministic.
    fn anticommuting_stabilizer(&self, q: usize) -> Option<usize> {
        let (w, bit) = Self::column(q);
        (self.n..2 * self.n).find(|&row| self.x[row * self.words + w] & bit != 0)
    }

    /// Row `h` ← row `i` · row `h`, with exact sign tracking: the
    /// product of two commuting generators has a real phase.
    fn rowsum(&mut self, h: usize, i: usize) {
        let words = self.words;
        let mut t = 2 * (self.r[h] as u32 + self.r[i] as u32);
        for w in 0..words {
            let (x1, z1) = (self.x[i * words + w], self.z[i * words + w]);
            let (x2, z2) = (self.x[h * words + w], self.z[h * words + w]);
            t += phase_log_i(x1, z1, x2, z2);
            self.x[h * words + w] = x1 ^ x2;
            self.z[h * words + w] = z1 ^ z2;
        }
        debug_assert!(t.is_multiple_of(2), "rowsum phase must be real");
        self.r[h] = t % 4 == 2;
    }

    /// The sign of `Z_q` in the stabilizer group, for a qubit with no
    /// anticommuting stabilizer: the sign of the product of the
    /// stabilizers that the destabilizers' X bits at `q` select.
    ///
    /// The product's phase is a sum over qubits, so each word is
    /// accumulated on its own, in registers.
    fn z_sign(&self, q: usize) -> bool {
        let (n, words) = (self.n, self.words);
        let (wq, bit) = Self::column(q);
        let mut t = 0u32;
        for w in 0..words {
            let (mut sx, mut sz) = (0u64, 0u64);
            for i in 0..n {
                if self.x[i * words + wq] & bit == 0 {
                    continue;
                }
                let row = n + i;
                if w == 0 {
                    t += 2 * self.r[row] as u32;
                }
                let (x1, z1) = (self.x[row * words + w], self.z[row * words + w]);
                t += phase_log_i(x1, z1, sx, sz);
                sx ^= x1;
                sz ^= z1;
            }
        }
        t % 4 == 2
    }

    /// Collapses a random measurement of `q` onto `outcome`, given the
    /// anticommuting stabilizer row `p`.
    fn collapse(&mut self, q: usize, p: usize, outcome: bool) {
        let (n, words) = (self.n, self.words);
        let (wq, bit) = Self::column(q);
        // Destabilizer p−n is *overwritten* by the old stabilizer row
        // first (its previous content would anticommute with row p),
        // then the stabilizer row becomes ±Z_q, and finally every other
        // generator still carrying X_q is multiplied by the old
        // stabilizer — all of those commute with it, so signs stay real.
        let (dst, src) = (p - n, p);
        self.x
            .copy_within(src * words..(src + 1) * words, dst * words);
        self.z
            .copy_within(src * words..(src + 1) * words, dst * words);
        self.x[src * words..(src + 1) * words].fill(0);
        self.z[src * words..(src + 1) * words].fill(0);
        self.r[dst] = self.r[src];
        self.z[src * words + wq] = bit;
        self.r[src] = outcome;
        // Stabilizer rows n..p carry no X_q (p is the first), and row p
        // no longer does.
        for row in (0..n).chain(p + 1..2 * n) {
            if row != dst && self.x[row * words + wq] & bit != 0 {
                self.rowsum(row, dst);
            }
        }
    }

    /// The measurement outcome of qubit `q` if it is deterministic
    /// (`q` in a Z eigenstate), else `None`.
    pub fn deterministic_outcome(&self, q: usize) -> Option<bool> {
        match self.anticommuting_stabilizer(q) {
            Some(_) => None,
            None => Some(self.z_sign(q)),
        }
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
        match self.anticommuting_stabilizer(q) {
            Some(p) => self.collapse(q, p, outcome),
            None => assert_eq!(
                self.z_sign(q),
                outcome,
                "projection onto a zero-probability outcome on qubit {q}"
            ),
        }
    }
}

/// The power of `i` (mod 4) picked up by the Pauli product `P₁·P₂`,
/// summed over the 64 qubits of one word, where `(x1, z1)` and
/// `(x2, z2)` are the words' X and Z parts.
///
/// Qubits whose factors anticommute (both non-identity and distinct)
/// contribute `+i` when `P₂` follows `P₁` in the cycle X → Y → Z → X and
/// `−i` (≡ 3 mod 4) otherwise; the rest contribute nothing. So the sum
/// is the popcount of the anticommuting lanes plus twice that of the
/// `−i` lanes.
#[inline]
fn phase_log_i(x1: u64, z1: u64, x2: u64, z2: u64) -> u32 {
    let anti = (x1 & z2) ^ (z1 & x2);
    let minus = anti & (x1 ^ x2 ^ z1 ^ z2 ^ (x1 & z2));
    anti.count_ones() + 2 * minus.count_ones()
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
        // The references, built once like `hs_words`.
        static REFS: OnceLock<[CMatrix; 4]> = OnceLock::new();
        let [cz, cnot, swap, identity] = REFS.get_or_init(|| {
            use crate::gates::{cnot, cz, swap};
            [cz(), cnot(), swap(), CMatrix::identity(4)]
        });
        let eps = 1e-9;
        if u.approx_eq_up_to_phase(cz, eps) {
            self.tab.cz(qa, qb);
        } else if u.approx_eq_up_to_phase(cnot, eps) {
            self.tab.cnot(qa, qb);
        } else if u.approx_eq_up_to_phase(swap, eps) {
            self.tab.swap(qa, qb);
        } else if u.approx_eq_up_to_phase(identity, eps) {
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
        // One determinism check, then one draw either way.
        match self.tab.anticommuting_stabilizer(q) {
            Some(p) => {
                let m = Measurement::draw(0.5, &mut self.rng);
                self.tab.collapse(q, p, m.outcome);
                m
            }
            None => {
                let p1 = if self.tab.z_sign(q) { 1.0 } else { 0.0 };
                Measurement::draw(p1, &mut self.rng)
            }
        }
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

    /// The per-bit measurement path the word-parallel one replaced: the
    /// phase function `g` evaluated one qubit at a time, and a
    /// determinism check that accumulates into heap scratch rows. Kept
    /// as the reference the property test below holds the tableau to.
    mod oracle {
        use super::Tableau;

        /// The power of `i` picked up by the single-qubit Pauli product
        /// (x1,z1)·(x2,z2), in {-1, 0, 1}.
        pub fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
            match (x1, z1) {
                (false, false) => 0,
                (true, true) => (z2 as i32) - (x2 as i32),
                (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
                (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
            }
        }

        fn rowsum(t: &mut Tableau, h: usize, i: usize) {
            let mut ph: i32 = 2 * (t.r[h] as i32) + 2 * (t.r[i] as i32);
            for q in 0..t.n {
                ph += g(t.xb(i, q), t.zb(i, q), t.xb(h, q), t.zb(h, q));
            }
            assert!(ph.rem_euclid(2) == 0, "rowsum phase must be real");
            t.r[h] = ph.rem_euclid(4) == 2;
            for w in 0..t.words {
                t.x[h * t.words + w] ^= t.x[i * t.words + w];
                t.z[h * t.words + w] ^= t.z[i * t.words + w];
            }
        }

        pub fn deterministic_outcome(t: &Tableau, q: usize) -> Option<bool> {
            if (t.n..2 * t.n).any(|row| t.xb(row, q)) {
                return None;
            }
            let mut sx = vec![0u64; t.words];
            let mut sz = vec![0u64; t.words];
            let mut ph: i32 = 0;
            for i in 0..t.n {
                if t.xb(i, q) {
                    let row = t.n + i;
                    ph += 2 * (t.r[row] as i32);
                    for col in 0..t.n {
                        let hx = sx[col / 64] >> (col % 64) & 1 == 1;
                        let hz = sz[col / 64] >> (col % 64) & 1 == 1;
                        ph += g(t.xb(row, col), t.zb(row, col), hx, hz);
                    }
                    for w in 0..t.words {
                        sx[w] ^= t.x[row * t.words + w];
                        sz[w] ^= t.z[row * t.words + w];
                    }
                }
            }
            Some(ph.rem_euclid(4) == 2)
        }

        pub fn prob1(t: &Tableau, q: usize) -> f64 {
            match deterministic_outcome(t, q) {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => 0.5,
            }
        }

        pub fn project(t: &mut Tableau, q: usize, outcome: bool) {
            match deterministic_outcome(t, q) {
                Some(det) => assert_eq!(det, outcome, "zero-probability projection"),
                None => {
                    let p = (t.n..2 * t.n).find(|&row| t.xb(row, q)).unwrap();
                    let (dst, src) = (p - t.n, p);
                    for w in 0..t.words {
                        t.x[dst * t.words + w] = t.x[src * t.words + w];
                        t.z[dst * t.words + w] = t.z[src * t.words + w];
                        t.x[src * t.words + w] = 0;
                        t.z[src * t.words + w] = 0;
                    }
                    t.r[dst] = t.r[src];
                    t.set_z(src, q, true);
                    t.r[src] = outcome;
                    for row in 0..2 * t.n {
                        if row != dst && t.xb(row, q) {
                            rowsum(t, row, dst);
                        }
                    }
                }
            }
        }
    }

    /// Register sizes on both sides of every word boundary up to two
    /// words.
    const SIZES: [usize; 9] = [1, 2, 16, 31, 32, 33, 63, 64, 65];

    /// Applies one random Clifford or Pauli to `t`.
    fn random_gate(t: &mut Tableau, rng: &mut StdRng) {
        let n = t.num_qubits();
        let q = rng.random_range(0..n);
        let kind = if n == 1 {
            rng.random_range(0..5u32)
        } else {
            rng.random_range(0..8u32)
        };
        match kind {
            0 => t.h(q),
            1 => t.s(q),
            2 => t.pauli_x(q),
            3 => t.pauli_y(q),
            4 => t.pauli_z(q),
            k => {
                let b = (q + rng.random_range(1..n)) % n;
                match k {
                    5 => t.cnot(q, b),
                    6 => t.cz(q, b),
                    _ => t.swap(q, b),
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random Clifford circuits with interleaved Paulis and
        /// measurements: the backend's outcomes, every `P(1)` and the
        /// whole tableau match the per-bit oracle drawing from an
        /// identically seeded stream.
        #[test]
        fn measurement_path_matches_per_bit_oracle(
            size in 0..SIZES.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = SIZES[size];
            let mut circuit = StdRng::seed_from_u64(seed);
            let mut fast = StabilizerBackend::new(n, NoiseModel::ideal(), seed);
            let mut reference = Tableau::zero_state(n);
            let mut draws = StdRng::seed_from_u64(seed);
            for _ in 0..6 * n.max(4) {
                if circuit.random_range(0..3u32) > 0 {
                    random_gate(&mut fast.tab, &mut circuit.clone());
                    random_gate(&mut reference, &mut circuit);
                    continue;
                }
                let q = circuit.random_range(0..n);
                let m = fast.measure(q);
                let want = Measurement::draw(oracle::prob1(&reference, q), &mut draws);
                oracle::project(&mut reference, q, want.outcome);
                proptest::prop_assert_eq!(m, want, "measurement of qubit {} (n = {})", q, n);
                proptest::prop_assert!(fast.tab == reference, "tableaux differ (n = {})", n);
                for q in 0..n {
                    proptest::prop_assert_eq!(fast.prob1(q), oracle::prob1(&reference, q));
                }
            }
        }
    }

    /// The word phase agrees with `g` on every pair of single-qubit
    /// Paulis, in every lane.
    #[test]
    fn word_phase_matches_g_lane_by_lane() {
        for a in 0..4u32 {
            for b in 0..4u32 {
                let (x1, z1, x2, z2) = (a & 1 == 1, a & 2 == 2, b & 1 == 1, b & 2 == 2);
                let want = oracle::g(x1, z1, x2, z2).rem_euclid(4) as u32;
                for lane in [0, 17, 63] {
                    let w = |v: bool| (v as u64) << lane;
                    assert_eq!(phase_log_i(w(x1), w(z1), w(x2), w(z2)), want);
                }
            }
        }
    }

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

//! Property-based tests of the quantum substrate: unitarity and norm
//! preservation, agreement between the pure-state and density-matrix
//! simulators, channel trace preservation and Clifford group laws.

use eqasm_quantum::{gates, noise, Clifford, DensityMatrix, StateVector, CLIFFORD_COUNT};
use proptest::prelude::*;

fn arb_angle() -> impl Strategy<Value = f64> {
    -10.0f64..10.0
}

/// A random short single/two-qubit circuit description.
#[derive(Debug, Clone)]
enum Step {
    Rx(usize, f64),
    Ry(usize, f64),
    Rz(usize, f64),
    H(usize),
    Cz(usize, usize),
    Cnot(usize, usize),
}

fn arb_step(n: usize) -> impl Strategy<Value = Step> {
    let q = 0..n;
    prop_oneof![
        (q.clone(), arb_angle()).prop_map(|(q, a)| Step::Rx(q, a)),
        (0..n, arb_angle()).prop_map(|(q, a)| Step::Ry(q, a)),
        (0..n, arb_angle()).prop_map(|(q, a)| Step::Rz(q, a)),
        (0..n).prop_map(Step::H),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(Step::Cz(a, b))),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(Step::Cnot(a, b))),
    ]
}

fn apply_to_state(psi: &mut StateVector, step: &Step) {
    match *step {
        Step::Rx(q, a) => psi.apply_1q(q, &gates::rx(a)),
        Step::Ry(q, a) => psi.apply_1q(q, &gates::ry(a)),
        Step::Rz(q, a) => psi.apply_1q(q, &gates::rz(a)),
        Step::H(q) => psi.apply_1q(q, &gates::hadamard()),
        Step::Cz(a, b) => psi.apply_2q(a, b, &gates::cz()),
        Step::Cnot(a, b) => psi.apply_2q(a, b, &gates::cnot()),
    }
}

fn apply_to_density(rho: &mut DensityMatrix, step: &Step) {
    match *step {
        Step::Rx(q, a) => rho.apply_1q(q, &gates::rx(a)),
        Step::Ry(q, a) => rho.apply_1q(q, &gates::ry(a)),
        Step::Rz(q, a) => rho.apply_1q(q, &gates::rz(a)),
        Step::H(q) => rho.apply_1q(q, &gates::hadamard()),
        Step::Cz(a, b) => rho.apply_2q(a, b, &gates::cz()),
        Step::Cnot(a, b) => rho.apply_2q(a, b, &gates::cnot()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unitary evolution preserves the state norm.
    #[test]
    fn norm_preserved(steps in prop::collection::vec(arb_step(3), 0..30)) {
        let mut psi = StateVector::zero_state(3);
        for s in &steps {
            apply_to_state(&mut psi, s);
        }
        prop_assert!((psi.norm() - 1.0).abs() < 1e-9);
    }

    /// The density-matrix simulator agrees with the state-vector
    /// simulator on arbitrary unitary circuits.
    #[test]
    fn density_matches_statevector(steps in prop::collection::vec(arb_step(3), 0..25)) {
        let mut psi = StateVector::zero_state(3);
        let mut rho = DensityMatrix::zero_state(3);
        for s in &steps {
            apply_to_state(&mut psi, s);
            apply_to_density(&mut rho, s);
        }
        prop_assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-8);
        for q in 0..3 {
            prop_assert!((psi.prob1(q) - rho.prob1(q)).abs() < 1e-9);
        }
        prop_assert!((rho.purity() - 1.0).abs() < 1e-8);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
    }

    /// All rotation matrices are unitary for arbitrary angles.
    #[test]
    fn rotations_unitary(a in arb_angle()) {
        prop_assert!(gates::rx(a).is_unitary(1e-10));
        prop_assert!(gates::ry(a).is_unitary(1e-10));
        prop_assert!(gates::rz(a).is_unitary(1e-10));
        prop_assert!(gates::cphase(a).is_unitary(1e-10));
    }

    /// Rotation composition: Rx(a)·Rx(b) = Rx(a+b) up to phase.
    #[test]
    fn rotation_additivity(a in arb_angle(), b in arb_angle()) {
        let ab = &gates::rx(a) * &gates::rx(b);
        prop_assert!(ab.approx_eq_up_to_phase(&gates::rx(a + b), 1e-9));
        let ab = &gates::rz(a) * &gates::rz(b);
        prop_assert!(ab.approx_eq_up_to_phase(&gates::rz(a + b), 1e-9));
    }

    /// The damping channel is trace preserving for all valid parameters
    /// and never increases the excited-state population of |1⟩.
    #[test]
    fn damping_trace_preserving(gamma in 0.0f64..1.0, frac in 0.0f64..1.0) {
        let lambda = (1.0 - gamma) * frac;
        let kraus = noise::amplitude_phase_damping(gamma, lambda);
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &gates::rx(std::f64::consts::PI));
        let before = rho.prob1(0);
        rho.apply_kraus_1q(0, &kraus);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-10);
        prop_assert!(rho.prob1(0) <= before + 1e-12);
    }

    /// Depolarizing channels keep the trace and shrink purity.
    #[test]
    fn depolarizing_properties(p in 0.0f64..1.0, a in arb_angle()) {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &gates::ry(a));
        rho.apply_2q(0, 1, &gates::cnot());
        let purity_before = rho.purity();
        rho.apply_kraus_2q(0, 1, &noise::depolarizing_2q(p));
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.purity() <= purity_before + 1e-9);
    }

    /// Group laws: composition is associative, inverses cancel, and the
    /// composition table matches matrix multiplication.
    #[test]
    fn clifford_group_laws(
        a in 0..CLIFFORD_COUNT,
        b in 0..CLIFFORD_COUNT,
        c in 0..CLIFFORD_COUNT,
    ) {
        let (a, b, c) = (
            Clifford::from_index(a).unwrap(),
            Clifford::from_index(b).unwrap(),
            Clifford::from_index(c).unwrap(),
        );
        prop_assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
        prop_assert_eq!(a.compose(a.inverse()), Clifford::identity());
        prop_assert_eq!(a.compose(Clifford::identity()), a);
        prop_assert_eq!(Clifford::identity().compose(a), a);
        // Composition table vs matrices.
        let u = &b.matrix().clone() * a.matrix();
        prop_assert!(u.approx_eq_up_to_phase(a.compose(b).matrix(), 1e-8));
    }

    /// Measurement collapse: after measuring, the outcome probability
    /// is 1 and repeated measurement is deterministic.
    #[test]
    fn measurement_is_projective(steps in prop::collection::vec(arb_step(2), 0..15), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut psi = StateVector::zero_state(2);
        for s in &steps {
            apply_to_state(&mut psi, s);
        }
        let m = psi.measure(0, &mut rng).outcome;
        let p1 = psi.prob1(0);
        let expected = if m { 1.0 } else { 0.0 };
        prop_assert!((p1 - expected).abs() < 1e-9);
        let again = psi.measure(0, &mut rng).outcome;
        prop_assert_eq!(again, m);
    }

    /// The readout correction exactly inverts the observation map for
    /// any valid error rates.
    #[test]
    fn readout_correction_inverts(
        e0 in 0.0f64..0.45,
        e1 in 0.0f64..0.45,
        p in 0.0f64..1.0,
    ) {
        let ro = eqasm_quantum::ReadoutModel {
            p_read1_given0: e0,
            p_read0_given1: e1,
        };
        let observed = ro.observed_p1(p);
        prop_assert!((ro.correct_p1(observed) - p).abs() < 1e-9);
    }
}

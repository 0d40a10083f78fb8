//! Backend-selection and shared-prefix fork tests: classifier rules,
//! typed policy errors (including the regression for the old silent
//! density→pure downgrade), prefix-boundary location, and machine-level
//! bit-identity of forked shots against full replays.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

use eqasm_asm::assemble;
use eqasm_core::{ArchParams, Instantiation, OpConfig, PulseKind, Qubit, Topology};
use eqasm_microarch::{
    BackendSelect, ConfigError, LoadError, MeasurementSource, QuMa, SimBackendKind, SimConfig,
    DENSITY_QUBIT_LIMIT,
};
use eqasm_quantum::NoiseModel;

fn loaded(inst: &Instantiation, config: SimConfig, src: &str) -> QuMa {
    let program = assemble(src, inst).expect("assembly failed");
    let mut m = QuMa::new(inst.clone(), config);
    m.load(program.instructions()).expect("load failed");
    m
}

fn load_err(inst: &Instantiation, config: SimConfig, src: &str) -> LoadError {
    let program = assemble(src, inst).expect("assembly failed");
    let mut m = QuMa::new(inst.clone(), config);
    m.load(program.instructions()).expect_err("load succeeded")
}

/// The paper gate set extended with a (non-Clifford) T gate.
fn with_t_gate() -> Instantiation {
    let mut b = OpConfig::builder(9);
    b.single("X90", 1, PulseKind::Rx(FRAC_PI_2)).unwrap();
    b.single("T", 1, PulseKind::Rz(FRAC_PI_4)).unwrap();
    b.measurement("MEASZ", 15).unwrap();
    Instantiation::paper_two_qubit().with_ops(b.build())
}

// ---------------------------------------------------------------------
// Classifier + policy
// ---------------------------------------------------------------------

#[test]
fn auto_selects_stabilizer_for_clifford_ideal() {
    let inst = Instantiation::paper();
    let m = loaded(
        &inst,
        SimConfig::default(),
        "SMIS S0, {0}\nSMIS S1, {1}\nSMIT T0, {(0, 2)}\nH S0\nCZ T0\nX90 S1\nMEASZ S0\nSTOP",
    );
    assert_eq!(m.selection().kind(), SimBackendKind::Stabilizer);
    assert!(m.selection().clifford_only());
    assert!(m.selection().prefix_eligible());
}

#[test]
fn auto_falls_back_to_dense_under_noise() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default().with_noise(NoiseModel {
        depol_1q: 0.01,
        ..NoiseModel::ideal()
    });
    let m = loaded(&inst, cfg, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP");
    // 7 qubits fit the density matrix.
    assert_eq!(m.selection().kind(), SimBackendKind::Density);
    assert!(m.selection().clifford_only());
}

#[test]
fn auto_falls_back_for_non_clifford_program() {
    let inst = with_t_gate();
    let m = loaded(
        &inst,
        SimConfig::default(),
        "SMIS S0, {0}\nT S0\nMEASZ S0\nSTOP",
    );
    assert!(!m.selection().clifford_only());
    assert_eq!(m.selection().kind(), SimBackendKind::Density);
}

#[test]
fn dense_policy_never_selects_stabilizer() {
    let inst = Instantiation::paper();
    let m = loaded(
        &inst,
        SimConfig::default().with_backend(BackendSelect::Dense),
        "SMIS S0, {0}\nH S0\nMEASZ S0\nSTOP",
    );
    assert_eq!(m.selection().kind(), SimBackendKind::Density);
}

#[test]
fn auto_uses_state_vector_beyond_density_limit() {
    // Regression for the old `make_backend`: >10 qubits under a noise
    // model used to silently downgrade density → pure. Auto still picks
    // the state vector, but as an explicit rule, not a silent fallback.
    let inst = Instantiation::new(
        Topology::linear(12),
        ArchParams::paper(),
        OpConfig::default_config(),
    );
    let cfg = SimConfig::default().with_noise(NoiseModel {
        depol_1q: 0.01,
        ..NoiseModel::ideal()
    });
    let m = loaded(&inst, cfg, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP");
    assert_eq!(m.selection().kind(), SimBackendKind::Pure);
}

#[test]
fn forced_density_too_large_is_typed_error() {
    // The other half of the regression: *forcing* density on a register
    // the density matrix cannot hold is now a typed load error instead
    // of silently handing back a state vector.
    let inst = Instantiation::new(
        Topology::linear(12),
        ArchParams::paper(),
        OpConfig::default_config(),
    );
    let err = load_err(
        &inst,
        SimConfig::default().with_backend(BackendSelect::Density),
        "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP",
    );
    assert_eq!(
        err,
        LoadError::Config(ConfigError::DensityTooLarge {
            num_qubits: 12,
            limit: DENSITY_QUBIT_LIMIT,
        })
    );
}

#[test]
fn forced_stabilizer_rejects_non_clifford() {
    let inst = with_t_gate();
    let err = load_err(
        &inst,
        SimConfig::default().with_backend(BackendSelect::Stabilizer),
        "SMIS S0, {0}\nX90 S0\nT S0\nMEASZ S0\nSTOP",
    );
    // Instruction 2 is the T bundle (0: SMIS, 1: X90 bundle).
    assert_eq!(
        err,
        LoadError::Config(ConfigError::StabilizerNonClifford { addr: 2 })
    );
}

#[test]
fn forced_stabilizer_rejects_idle_noise() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Stabilizer)
        .with_noise(NoiseModel::with_coherence(30_000.0, 20_000.0));
    let err = load_err(&inst, cfg, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP");
    assert_eq!(err, LoadError::Config(ConfigError::StabilizerIdleNoise));
}

#[test]
fn forced_stabilizer_accepts_depolarizing_noise() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Stabilizer)
        .with_noise(NoiseModel {
            depol_1q: 0.01,
            ..NoiseModel::ideal()
        });
    let m = loaded(&inst, cfg, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP");
    assert_eq!(m.selection().kind(), SimBackendKind::Stabilizer);
}

// ---------------------------------------------------------------------
// Prefix boundary
// ---------------------------------------------------------------------

#[test]
fn prefix_boundary_is_first_measurement_when_ideal() {
    let inst = Instantiation::paper();
    let m = loaded(
        &inst,
        SimConfig::default(),
        "SMIS S0, {0}\nQWAIT 100\nX S0\nMEASZ S0\nSTOP",
    );
    // 0: SMIS, 1: QWAIT, 2: X bundle, 3: MEASZ bundle.
    assert_eq!(m.selection().prefix_boundary(), Some(3));
}

#[test]
fn prefix_boundary_is_first_noisy_gate_on_trajectory_backend() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Pure)
        .with_noise(NoiseModel {
            depol_1q: 0.01,
            ..NoiseModel::ideal()
        });
    let m = loaded(&inst, cfg, "SMIS S0, {0}\nQWAIT 100\nX S0\nMEASZ S0\nSTOP");
    // On a trajectory backend the noisy X bundle itself draws.
    assert_eq!(m.selection().prefix_boundary(), Some(2));
}

#[test]
fn density_backend_ignores_gate_noise_for_the_boundary() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Density)
        .with_noise(NoiseModel {
            depol_1q: 0.01,
            ..NoiseModel::ideal()
        });
    let m = loaded(&inst, cfg, "SMIS S0, {0}\nQWAIT 100\nX S0\nMEASZ S0\nSTOP");
    // Exact channel application: only the measurement samples.
    assert_eq!(m.selection().prefix_boundary(), Some(3));
    assert!(m.selection().prefix_eligible());
}

#[test]
fn trajectory_with_finite_coherence_is_prefix_ineligible() {
    let inst = Instantiation::paper();
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Pure)
        .with_noise(NoiseModel::with_coherence(30_000.0, 20_000.0));
    let mut m = loaded(&inst, cfg, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP");
    assert!(!m.selection().prefix_eligible());
    assert!(m.run_prefix(0).is_none());
}

#[test]
fn memo_eligible_only_where_measurements_are_the_only_draws() {
    let inst = Instantiation::paper();
    let depol = NoiseModel::ideal().with_gate_error(0.01, 0.0);
    let cases = [
        // The density matrix applies every channel exactly.
        (
            BackendSelect::Density,
            depol,
            MeasurementSource::Quantum,
            true,
        ),
        (
            BackendSelect::Pure,
            NoiseModel::ideal(),
            MeasurementSource::Quantum,
            true,
        ),
        (
            BackendSelect::Stabilizer,
            NoiseModel::ideal(),
            MeasurementSource::Quantum,
            true,
        ),
        // A sampled gate error draws between measurements.
        (
            BackendSelect::Pure,
            depol,
            MeasurementSource::Quantum,
            false,
        ),
        (
            BackendSelect::Stabilizer,
            depol,
            MeasurementSource::Quantum,
            false,
        ),
        // Finite T1/T2 on a trajectory: not even prefix-eligible.
        (
            BackendSelect::Pure,
            NoiseModel::with_coherence(30_000.0, 20_000.0),
            MeasurementSource::Quantum,
            false,
        ),
        // Mock results draw nothing to walk.
        (
            BackendSelect::Density,
            NoiseModel::ideal(),
            MeasurementSource::MockAlternating { start: false },
            false,
        ),
    ];
    for (backend, noise, source, want) in cases {
        let cfg = SimConfig::default()
            .with_backend(backend)
            .with_noise(noise)
            .with_measurement_source(source.clone());
        let m = loaded(&inst, cfg, "SMIS S0, {0}\nQWAIT 100\nX S0\nMEASZ S0\nSTOP");
        assert_eq!(
            m.selection().memo_eligible(),
            want,
            "{backend:?} under {noise:?} with {source:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Fork vs replay (machine level)
// ---------------------------------------------------------------------

const FORK_PROGRAM: &str = "SMIS S0, {0}\nSMIS S1, {1}\nSMIT T0, {(0, 2)}\nQWAIT 100\n\
                            H S0\nCZ T0\nX90 S1\nMEASZ S0\nMEASZ S1\nQWAIT 50\nSTOP";

fn fork_matches_replay(config: SimConfig) {
    let inst = Instantiation::paper();
    let mut forked = loaded(&inst, config.clone(), FORK_PROGRAM);
    let mut replayed = loaded(&inst, config, FORK_PROGRAM);
    let snap = forked.run_prefix(12345).expect("prefix eligible");
    for seed in 0..24u64 {
        let a = forked.run_shot_from(&snap, seed);
        let b = replayed.run_shot(seed);
        assert_eq!(a.status, b.status, "status diverged at seed {seed}");
        assert_eq!(a.stats, b.stats, "stats diverged at seed {seed}");
        for q in 0..inst.topology().num_qubits() {
            assert_eq!(
                forked.measurement_value(Qubit::new(q as u8)),
                replayed.measurement_value(Qubit::new(q as u8)),
                "measurement of q{q} diverged at seed {seed}"
            );
        }
    }
}

#[test]
fn forked_shots_match_full_replays_on_stabilizer() {
    fork_matches_replay(SimConfig::default());
}

#[test]
fn forked_shots_match_full_replays_on_density() {
    let cfg = SimConfig::default().with_noise(NoiseModel {
        depol_1q: 0.02,
        depol_2q: 0.05,
        ..NoiseModel::ideal()
    });
    fork_matches_replay(cfg);
}

#[test]
fn forked_shots_match_full_replays_on_pure() {
    let cfg = SimConfig::default()
        .with_backend(BackendSelect::Pure)
        .with_noise(NoiseModel {
            depol_1q: 0.02,
            ..NoiseModel::ideal()
        });
    fork_matches_replay(cfg);
}

#[test]
fn prefix_snapshot_is_seed_independent() {
    let inst = Instantiation::paper();
    let mut m = loaded(&inst, SimConfig::default(), FORK_PROGRAM);
    let a = m.run_prefix(1).expect("prefix eligible");
    let b = m.run_prefix(0xdead_beef).expect("prefix eligible");
    assert_eq!(a, b, "prefix snapshot depends on the seed");
}

#[test]
fn deterministic_program_forks_terminal_state() {
    // No stochastic instruction at all: the whole run is the prefix.
    let inst = Instantiation::paper();
    let src = "SMIS S0, {0}\nX S0\nQWAIT 50\nSTOP";
    let mut m = loaded(&inst, SimConfig::default(), src);
    assert_eq!(m.selection().prefix_boundary(), None);
    let snap = m.run_prefix(7).expect("prefix eligible");
    let a = m.run_shot_from(&snap, 99);
    let mut replay = loaded(&inst, SimConfig::default(), src);
    let b = replay.run_shot(99);
    assert_eq!(a.status, b.status);
    assert_eq!(a.stats, b.stats);
    assert!((m.prob1(Qubit::new(0)) - replay.prob1(Qubit::new(0))).abs() < 1e-12);
}

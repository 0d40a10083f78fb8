//! Program-aware execution paths, pinned at the runtime layer.
//!
//! Three contracts from `eqasm_microarch::select` must survive the trip
//! through the engine's batch scheduler and the global prefix cache:
//!
//! 1. **Stabilizer exactness** — a Clifford-only program under ideal
//!    noise produces bit-identical aggregates whether `Auto` routes it
//!    to the stabilizer tableau or `Dense` forces the legacy dense
//!    path (which also disables prefix forking, so this doubles as the
//!    end-to-end fork-vs-replay pin).
//! 2. **Noisy agreement in distribution** — under depolarizing gate
//!    error the stabilizer (sampled Paulis), pure-state (trajectory)
//!    and density-matrix (exact channel) backends agree statistically.
//! 3. **Fork ≡ replay** — shared-prefix forking through the engine is
//!    bit-identical to hand-rolled serial `run_shot` replays, at every
//!    worker count, and the snapshot it forks from is seed-independent
//!    (property-tested).

use eqasm_asm::assemble;
use eqasm_core::{Instantiation, Qubit};
use eqasm_microarch::{BackendSelect, QuMa, RunStats, SimBackendKind, SimConfig};
use eqasm_quantum::NoiseModel;
use eqasm_runtime::{
    BitString, ExecPolicy, Histogram, Job, JobQueue, ServeConfig, ShotEngine, Submission,
};
use proptest::prelude::*;

/// The execution policy the CI execution-path legs select through
/// `EQASM_EXEC_PATH` and `EQASM_PREFIX`: the library reads no
/// environment, so the test harness does.
fn env_policy() -> ExecPolicy {
    ExecPolicy::parse(
        std::env::var("EQASM_EXEC_PATH").ok().as_deref(),
        std::env::var("EQASM_PREFIX").ok().as_deref(),
    )
    .expect("EQASM_EXEC_PATH / EQASM_PREFIX")
}

/// An engine with `workers` threads under [`env_policy`].
fn engine(workers: usize) -> ShotEngine {
    ShotEngine::new(workers).with_policy(env_policy())
}

/// A Clifford-only two-qubit program with genuinely random outcomes
/// (H and X90 put both measured qubits in equal superposition), so a
/// backend-selection or forking bug cannot hide behind a deterministic
/// histogram.
const CLIFFORD_PROGRAM: &str = "SMIS S0, {0}
SMIS S1, {1}
SMIT T0, {(0, 2)}
QWAIT 100
H S0
CZ T0
X90 S1
MEASZ S0
MEASZ S1
QWAIT 50
STOP";

/// A single-qubit program whose ideal outcome is deterministically 0
/// (four X gates compose to identity), so any depolarizing-noise
/// disagreement between backends shows up directly in `P(1)`.
const NOISY_PROGRAM: &str = "SMIS S0, {0}
QWAIT 100
X S0
X S0
X S0
X S0
MEASZ S0
QWAIT 50
STOP";

fn clifford_job(shots: u64, base_seed: u64, config: SimConfig) -> Job {
    let inst = Instantiation::paper_two_qubit();
    let program = assemble(CLIFFORD_PROGRAM, &inst).expect("assembles");
    Job::new("clifford", inst, program.instructions().to_vec())
        .with_config(config)
        .with_shots(shots)
        .with_seed(base_seed)
}

fn noisy_job(shots: u64, base_seed: u64, backend: BackendSelect) -> Job {
    let inst = Instantiation::paper_two_qubit();
    let program = assemble(NOISY_PROGRAM, &inst).expect("assembles");
    let mut config =
        SimConfig::default().with_noise(NoiseModel::ideal().with_gate_error(0.06, 0.0));
    config.backend = backend;
    Job::new("noisy", inst, program.instructions().to_vec())
        .with_config(config)
        .with_shots(shots)
        .with_seed(base_seed)
}

/// The selection a loaded machine would make for `job`.
fn selection_kind(job: &Job) -> SimBackendKind {
    let mut m = QuMa::new(job.shape.inst().clone(), job.shape.config().clone());
    m.load(job.shape.program()).expect("loads");
    m.selection().kind()
}

/// Serial full-replay reference: every shot through `run_shot` on one
/// machine, no forking anywhere — the ground truth the engine's fork
/// path must reproduce bit for bit. Applies [`env_policy`]'s backend
/// override so the CI execution-path legs compare like against like.
fn serial_replays(job: &Job) -> (Histogram, RunStats) {
    let mut config = job.shape.config().clone();
    config.record_trace = false;
    if let Some(backend) = env_policy().backend {
        config.backend = backend;
    }
    let mut m = QuMa::new(job.shape.inst().clone(), config);
    m.load(job.shape.program()).expect("loads");
    let n = job.shape.inst().topology().num_qubits();
    let mut hist = Histogram::new();
    let mut stats = RunStats::default();
    for shot in 0..job.shots {
        let r = m.run_shot(job.shot_seed(shot));
        assert!(r.status.is_halted(), "reference shot must halt");
        stats.merge(&r.stats);
        let mut outcome = BitString::EMPTY;
        for q in 0..n {
            if let Some(v) = m.measurement_value(Qubit::new(q as u8)) {
                outcome.set(q, v);
            }
        }
        hist.record(outcome);
    }
    (hist, stats)
}

#[test]
fn auto_routes_ideal_clifford_to_stabilizer() {
    let auto = clifford_job(1, 0, SimConfig::default());
    assert_eq!(selection_kind(&auto), SimBackendKind::Stabilizer);
    let dense = clifford_job(
        1,
        0,
        SimConfig::default().with_backend(BackendSelect::Dense),
    );
    assert_eq!(selection_kind(&dense), SimBackendKind::Density);
    // Depolarizing noise pushes Auto off the stabilizer (it would no
    // longer be exact) onto the dense rule.
    assert_eq!(
        selection_kind(&noisy_job(1, 0, BackendSelect::Auto)),
        SimBackendKind::Density
    );
}

#[test]
fn stabilizer_matches_dense_bit_for_bit_when_noiseless() {
    // Auto → stabilizer + prefix forking; Dense → density matrix, no
    // forking. Identical aggregates pin both the backend-switch
    // exactness argument and fork-vs-replay, end to end.
    let auto = clifford_job(256, 42, SimConfig::default());
    let dense = clifford_job(
        256,
        42,
        SimConfig::default().with_backend(BackendSelect::Dense),
    );
    let engine = engine(4);
    let a = engine.run_job(&auto).expect("runs");
    let d = engine.run_job(&dense).expect("runs");
    assert_eq!(
        a.histogram, d.histogram,
        "outcome bits must not depend on the backend"
    );
    assert_eq!(a.stats, d.stats);
    assert_eq!(
        a.mean_prob1, d.mean_prob1,
        "P(1) roll-up must be bit-identical"
    );
    assert_eq!(a.non_halted, 0);
    // And the outcomes are genuinely random — the pin is not vacuous.
    assert!(
        a.histogram.len() >= 4,
        "H/X90 superpositions explore all four outcomes"
    );
}

#[test]
fn noisy_backends_agree_in_distribution() {
    // Four depolarizing X gates on |0⟩: exact-channel, trajectory and
    // sampled-Pauli stabilizer simulations must land on the same P(1)
    // up to sampling error (4096 shots ⇒ σ ≈ 0.006; tolerance 0.03).
    let shots = 4096;
    let engine = engine(4);
    let mut p1 = Vec::new();
    for backend in [
        BackendSelect::Stabilizer,
        BackendSelect::Pure,
        BackendSelect::Density,
    ] {
        let job = noisy_job(shots, 7, backend);
        let r = engine.run_job(&job).expect("runs");
        let p = r.histogram.ones_fraction(0).expect("qubit 0 measured");
        p1.push((backend, p));
    }
    for (b, p) in &p1 {
        assert!(
            *p > 0.02,
            "{b:?}: depolarizing noise must lift P(1) off zero, got {p}"
        );
    }
    for w in p1.windows(2) {
        let ((b0, p0), (b1, p1)) = (&w[0], &w[1]);
        assert!(
            (p0 - p1).abs() < 0.03,
            "{b0:?} vs {b1:?}: P(1) diverged ({p0} vs {p1})"
        );
    }
}

#[test]
fn fork_path_is_bit_identical_to_full_replays_at_every_worker_count() {
    // One prefix-eligible job per regime: ideal Clifford (stabilizer,
    // boundary at the first measurement) and depolarizing trajectory
    // (pure state, boundary at the first noisy gate).
    let ideal = clifford_job(192, 1234, SimConfig::default());
    let noisy = noisy_job(192, 99, BackendSelect::Pure);
    for job in [&ideal, &noisy] {
        // The fork path must actually engage for this pin to mean
        // anything: the job is prefix-eligible and not forced dense.
        let mut m = QuMa::new(job.shape.inst().clone(), job.shape.config().clone());
        m.load(job.shape.program()).expect("loads");
        assert!(
            m.selection().prefix_eligible(),
            "{}: must be eligible",
            job.name
        );
        assert!(
            m.selection().prefix_boundary().is_some(),
            "{}: must have a stochastic suffix",
            job.name
        );
        assert!(m.run_prefix(job.base_seed).is_some());

        let (ref_hist, ref_stats) = serial_replays(job);
        for workers in [1usize, 2, 8] {
            let r = engine(workers).run_job(job).expect("runs");
            assert_eq!(
                ref_hist, r.histogram,
                "{}: fork path diverged from full replays at {workers} workers",
                job.name
            );
            assert_eq!(
                ref_stats, r.stats,
                "{}: stats diverged at {workers} workers",
                job.name
            );
            assert_eq!(r.non_halted, 0);
        }
    }
}

#[test]
fn forced_dense_policy_replays_identically() {
    // `Dense` disables forking in the runtime; results still match the
    // serial reference (trivially — same path — but this pins that the
    // legacy escape hatch stays wired through the engine).
    let job = clifford_job(
        96,
        5,
        SimConfig::default().with_backend(BackendSelect::Dense),
    );
    let (ref_hist, ref_stats) = serial_replays(&job);
    let r = engine(2).run_job(&job).expect("runs");
    assert_eq!(ref_hist, r.histogram);
    assert_eq!(ref_stats, r.stats);
}

/// Turning prefix forking off changes no bit of a prefix-eligible
/// job's aggregates, through the engine and through the serve queue.
#[test]
fn prefix_off_policy_is_bit_identical_to_the_default() {
    let job = clifford_job(160, 77, SimConfig::default());
    let off = ExecPolicy {
        prefix: false,
        ..ExecPolicy::default()
    };
    let forked = ShotEngine::new(2).run_job(&job).expect("runs");
    let replayed = ShotEngine::new(2)
        .with_policy(off)
        .run_job(&job)
        .expect("runs");
    assert_eq!(forked.histogram, replayed.histogram);
    assert_eq!(forked.stats, replayed.stats);
    assert_eq!(forked.mean_prob1, replayed.mean_prob1);

    for policy in [ExecPolicy::default(), off] {
        let queue = JobQueue::new(ServeConfig::default().with_workers(2).with_policy(policy));
        let handles = queue
            .submit(Submission::job("policy", job.clone()))
            .expect("submits");
        let queued = handles[0].wait().expect("completes");
        queue.shutdown();
        assert_eq!(queued.histogram, forked.histogram, "{policy:?}");
        assert_eq!(queued.stats, forked.stats, "{policy:?}");
        assert_eq!(queued.mean_prob1, forked.mean_prob1, "{policy:?}");
    }
}

#[test]
fn exec_policy_parser_rejects_unknown_values() {
    assert_eq!(
        ExecPolicy::parse(None, None).unwrap(),
        ExecPolicy::default()
    );
    assert_eq!(
        ExecPolicy::parse(Some(""), Some("")).unwrap(),
        ExecPolicy::default()
    );
    let parsed = ExecPolicy::parse(Some("DENSE"), Some("off")).unwrap();
    assert_eq!(parsed.backend, Some(BackendSelect::Dense));
    assert!(!parsed.prefix);
    assert_eq!(
        ExecPolicy::parse(Some("auto"), Some("on")).unwrap().backend,
        Some(BackendSelect::Auto)
    );
    for (path, prefix) in [(Some("stabiliser"), None), (None, Some("false"))] {
        let err = ExecPolicy::parse(path, prefix).expect_err("unknown value");
        assert!(
            matches!(err, eqasm_runtime::RuntimeError::Policy(_)),
            "{err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The prefix snapshot is a pure function of the job shape: two
    /// machines running the prefix under arbitrary different seeds
    /// produce equal snapshots. This is the fact that makes the global
    /// prefix cache sound (its key deliberately zeroes the seed).
    #[test]
    fn prefix_snapshot_is_seed_independent(a in any::<u64>(), b in any::<u64>()) {
        let job = clifford_job(1, 0, SimConfig::default());
        let mut m = QuMa::new(job.shape.inst().clone(), job.shape.config().clone());
        m.load(job.shape.program()).expect("loads");
        let sa = m.run_prefix(a);
        let sb = m.run_prefix(b);
        prop_assert!(sa.is_some(), "ideal Clifford program must be prefix-eligible");
        prop_assert_eq!(sa, sb, "prefix snapshot must not depend on the seed");
    }
}

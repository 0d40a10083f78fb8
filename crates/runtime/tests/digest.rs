//! Bit-identity pinned across builds, not just within one.
//!
//! The determinism and fast-path suites compare two execution paths of
//! the *same* build against each other, so a change that shifts every
//! path identically (a reordered floating-point sum, a skipped cycle
//! counted differently) would pass them all. This test folds the
//! observable result of every shot — its `RunStats`, its measured
//! outcome and the exact bits of each qubit's `P(1)` — into an explicit
//! FNV-1a digest and compares it with a golden value recorded from a
//! reference build. Any change to a shot's result changes the digest.
//!
//! Three workloads cover the three execution paths the service uses:
//!
//! - 10k shots of `rb1q-noisy` forked from its deterministic prefix
//!   (density backend, decoherence, gate and readout error);
//! - 200 full `run_shot` replays of the same program;
//! - 2k shots of the 16-qubit, 8-layer Clifford chain (`chain16x8`)
//!   under `Auto` selection (stabilizer backend, forked).
//!
//! A second golden pins the batch layer the service actually calls:
//! [`LocalBackend::run_range`] over consecutive 256-shot ranges on one
//! reused backend, folding each [`BatchOut`]'s histogram, statistics,
//! `prob1_sum` bits and failure summary. Its three jobs are
//! `rb1q-noisy` (10k shots), active reset (measurement feedback, 4k
//! shots) and `chain16x8` (2k shots, more distinct outcomes than any
//! bounded per-shape cache can hold). It was recorded before the batch
//! layer served shots from memoized outcomes, so it pins that path to
//! the bits of plain replays. The backend runs under the policy CI's
//! execution-path legs select through `EQASM_EXEC_PATH` and
//! `EQASM_PREFIX`, so the forced-replay legs reproduce the same golden.
//! `chain16x8` keeps its own backend selection on every leg: the dense
//! path would move it to a 16-qubit state vector, a different
//! simulator whose `P(1)` sums are not the stabilizer's bits.

use eqasm_core::Qubit;
use eqasm_microarch::{BackendSelect, QuMa, RunResult, RunStats, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::{BatchOut, ExecBackend, ExecPolicy, Job, LocalBackend, WorkloadKind};

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &RunStats) {
        for v in [
            s.classical_cycles,
            s.quantum_cycles,
            s.classical_instructions,
            s.quantum_instructions,
            s.bundle_words,
            s.timing_points,
            s.ops_triggered,
            s.ops_cancelled,
            s.two_qubit_gates,
            s.measurements,
            s.fmr_stall_cycles,
            s.timeline_slips,
            s.slipped_cycles,
            s.busy_overlaps,
            s.last_timing_point,
        ] {
            self.word(v);
        }
    }

    /// Folds one finished shot: status, statistics, then per qubit the
    /// measured value (0, 1, or 2 for none) and the bits of `P(1)`.
    fn shot(&mut self, machine: &mut QuMa, result: &RunResult) {
        self.word(result.status.is_halted() as u64);
        self.stats(&result.stats);
        for q in 0..machine.instantiation().topology().num_qubits() {
            let q = Qubit::new(q as u8);
            self.word(match machine.measurement_value(q) {
                None => 2,
                Some(v) => v as u64,
            });
            self.word(machine.prob1(q).to_bits());
        }
    }
}

/// The noisy single-qubit RB configuration of Fig. 12 (the service
/// benchmark's `rb1q-noisy` shape).
fn noisy_rb_config() -> SimConfig {
    SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05))
}

fn machine(kind: WorkloadKind, mut config: SimConfig) -> QuMa {
    let (inst, program) = kind.build().expect("workload builds");
    config.record_trace = false;
    let mut m = QuMa::new(inst, config);
    m.load(&program).expect("program loads");
    m
}

fn rb1q_noisy() -> QuMa {
    machine(
        WorkloadKind::Rb {
            k: 24,
            interval_cycles: 1,
            sequence_seed: 1,
        },
        noisy_rb_config(),
    )
}

/// Shot `i`'s seed: spread over the whole `u64` range.
fn seed(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0123_4567_89ab_cdef
}

/// The digest of all three workloads, in order.
fn digest() -> u64 {
    let mut h = Fnv1a::new();

    let mut m = rb1q_noisy();
    let snap = m.run_prefix(0).expect("rb1q-noisy is prefix-eligible");
    for i in 0..10_000 {
        let r = m.run_shot_from(&snap, seed(i));
        h.shot(&mut m, &r);
    }

    let mut m = rb1q_noisy();
    for i in 0..200 {
        let r = m.run_shot(seed(i));
        h.shot(&mut m, &r);
    }

    let mut m = machine(
        WorkloadKind::CliffordChain {
            qubits: 16,
            layers: 8,
        },
        SimConfig::default().with_backend(BackendSelect::Auto),
    );
    let snap = m.run_prefix(0).expect("chain16x8 is prefix-eligible");
    for i in 0..2_000 {
        let r = m.run_shot_from(&snap, seed(i));
        h.shot(&mut m, &r);
    }
    h.0
}

/// Recorded from the reference build; see the module docs. A mismatch
/// means some shot's statistics, outcome or `P(1)` bits changed.
const GOLDEN: u64 = 0x80f1_39b5_c9ce_070c;

impl Fnv1a {
    /// Folds the deterministic fields of one batch.
    fn batch(&mut self, out: &BatchOut) {
        self.word(out.shots());
        for (outcome, &count) in out.histogram.iter() {
            self.word(outcome.measured);
            self.word(outcome.bits);
            self.word(count);
        }
        self.stats(&out.stats);
        for p in &out.prob1_sum {
            self.word(p.to_bits());
        }
        self.word(out.non_halted);
        if let Some((shot, status)) = &out.first_failure {
            self.word(*shot);
            for b in status.bytes() {
                self.word(b as u64);
            }
        }
    }
}

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

/// Runs `job` in consecutive 256-shot ranges on one backend and folds
/// every batch.
fn fold_ranges(h: &mut Fnv1a, backend: &mut LocalBackend, job: &Job) {
    let mut start = 0;
    while start < job.shots {
        let end = (start + 256).min(job.shots);
        let out = backend.run_range(job, start..end).expect("range runs");
        h.batch(&out);
        start = end;
    }
}

fn job(name: &str, kind: WorkloadKind, config: SimConfig, shots: u64, seed: u64) -> Job {
    let (inst, program) = kind.build().expect("workload builds");
    Job::new(name, inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(seed)
}

/// The digest of the three batch-layer jobs, in order. `rb1q-noisy` and
/// active reset share one backend, so the second job runs on a slot
/// that already holds the first one's machine.
fn batch_digest() -> u64 {
    let mut h = Fnv1a::new();
    let policy = env_policy();
    let mut backend = LocalBackend::new(0).with_policy(policy);
    let rb = job(
        "rb1q-noisy",
        WorkloadKind::Rb {
            k: 24,
            interval_cycles: 1,
            sequence_seed: 1,
        },
        noisy_rb_config(),
        10_000,
        11,
    );
    fold_ranges(&mut h, &mut backend, &rb);
    let reset = job(
        "active-reset",
        WorkloadKind::ActiveReset { init_cycles: 200 },
        SimConfig::default()
            .with_noise(NoiseModel::with_coherence(25_000.0, 20_000.0))
            .with_readout(ReadoutModel::paper_reset()),
        4_000,
        22,
    );
    fold_ranges(&mut h, &mut backend, &reset);
    let chain = job(
        "chain16x8",
        WorkloadKind::CliffordChain {
            qubits: 16,
            layers: 8,
        },
        SimConfig::default().with_backend(BackendSelect::Auto),
        2_000,
        33,
    );
    let mut backend = LocalBackend::new(1).with_policy(ExecPolicy {
        backend: None,
        ..policy
    });
    fold_ranges(&mut h, &mut backend, &chain);
    h.0
}

/// Recorded from a build whose batches replayed every shot; see the
/// module docs.
const BATCH_GOLDEN: u64 = 0x8b5d_219a_1be7_023d;

#[test]
fn batch_results_match_the_pinned_digest() {
    let got = batch_digest();
    assert_eq!(
        got, BATCH_GOLDEN,
        "batch digest changed: got {got:#018x}, pinned {BATCH_GOLDEN:#018x}"
    );
}

#[test]
fn shot_results_match_the_pinned_digest() {
    let got = digest();
    assert_eq!(
        got, GOLDEN,
        "shot digest changed: got {got:#018x}, pinned {GOLDEN:#018x}"
    );
}

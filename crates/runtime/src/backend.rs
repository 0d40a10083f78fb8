//! The transport-agnostic execution API: [`ExecBackend`] runs one
//! contiguous shot range of a [`Job`] and returns the deterministic
//! [`BatchOut`] roll-up, whether the shots ran on this host
//! ([`LocalBackend`]) or across a socket ([`crate::RemoteBackend`]).
//!
//! ## Why a trait, and why this shape
//!
//! Everything above this layer — the [`crate::ShotEngine`] merge, the
//! [`crate::serve::JobQueue`] scheduler, the streaming
//! [`crate::PartialResult`] prefixes — already treats a batch as a
//! pure function of `(job, range)` and folds results in batch-index
//! order. That makes "where did the batch run" invisible to every
//! determinism guarantee: a coordinator can mix local threads and
//! remote workers freely, and the folded aggregates stay bit-identical
//! to a serial run, because each [`BatchOut`] is bit-identical no
//! matter which backend produced it (seeds derive from the job, `f64`
//! sums fold inside the batch in shot order, and the wire encodes
//! `f64`s by bit pattern).
//!
//! The trait is deliberately synchronous and `&mut self`: one backend
//! value is one execution *slot* (a worker thread, one socket to a
//! remote daemon), and a pool is simply `Vec<Box<dyn ExecBackend>>` —
//! concurrency lives in the pool, not in every implementation.
//!
//! Pool *membership* lives above the trait too: the serve queue's
//! slot lifecycle ([`crate::serve::SlotState`]) attaches, drains and
//! retires backends around a running job
//! ([`crate::serve::JobQueue::attach_backend`] /
//! [`detach_backend`](crate::serve::JobQueue::detach_backend)), and
//! the [`crate::PoolSupervisor`] feeds it reconnected workers — a
//! backend implementation only ever sees `run_range` calls and never
//! needs to know it is being rotated in or out.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use eqasm_microarch::{BackendSelect, MachineSnapshot, OutcomeTrie, QuMa, RunStats};

use crate::aggregate::{Histogram, JobResult, LatencyHistogram};
use crate::engine::{build_machine, run_batch, ExecPolicy};
use crate::error::RuntimeError;
use crate::job::{Job, JobShape};
use crate::metrics::rt;

/// What one backend produced for one contiguous shot range.
///
/// Everything in here except `latency` and `elapsed_ns` is a
/// **deterministic** pure function of `(job, range)`: histogram,
/// machine counters, per-qubit `P(|1⟩)` sums (folded in shot order
/// within the batch) and failure info. The timing fields are measured
/// wall-clock — they vary run to run and host to host, but
/// `latency.count()` always equals the range length, which the fold
/// relies on for `shots_done` accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOut {
    /// Outcome counts over the range.
    pub histogram: Histogram,
    /// Machine counters summed over the range.
    pub stats: RunStats,
    /// Per-qubit sum of post-run `P(|1⟩)` over the range, in shot
    /// order.
    pub prob1_sum: Vec<f64>,
    /// Per-shot wall-clock durations (count == range length), each the
    /// batch's mean: `elapsed_ns / shots`, rounded down.
    pub latency: LatencyHistogram,
    /// Shots that did not halt cleanly.
    pub non_halted: u64,
    /// Shot index and status of the first failure, if any.
    pub first_failure: Option<(u64, String)>,
    /// Wall-clock spent executing the range on the producing backend,
    /// nanoseconds. On remote backends this excludes transport time.
    pub elapsed_ns: u64,
}

impl BatchOut {
    /// Shots this batch covered.
    pub fn shots(&self) -> u64 {
        self.latency.count()
    }

    /// The fold of no batches, for `num_qubits` qubits.
    fn empty(num_qubits: usize) -> Self {
        BatchOut {
            histogram: Histogram::new(),
            stats: RunStats::default(),
            prob1_sum: vec![0.0; num_qubits],
            latency: LatencyHistogram::new(),
            non_halted: 0,
            first_failure: None,
            elapsed_ns: 0,
        }
    }

    /// Folds `next`, the batch that follows this one's range, into
    /// this one: the only per-field fold of batch results. `prob1_sum`
    /// adds `next`'s sums onto the running ones, so folding batches
    /// one at a time in batch order groups the additions as
    /// `(p + b1) + b2`, never `p + (b1 + b2)`: every path that folds
    /// in that order gets the same bits. The first failure stays the
    /// earliest one, and `elapsed_ns` becomes the summed batch time.
    pub(crate) fn absorb(&mut self, next: &BatchOut) {
        self.histogram.merge(&next.histogram);
        self.stats.merge(&next.stats);
        for (acc, s) in self.prob1_sum.iter_mut().zip(&next.prob1_sum) {
            *acc += s;
        }
        self.latency.merge(&next.latency);
        self.non_halted += next.non_halted;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&next.first_failure);
        }
        self.elapsed_ns = self.elapsed_ns.saturating_add(next.elapsed_ns);
    }
}

/// A completed [`BatchOut`] tagged with its merge position and the
/// coordinator-side wall-clock window. The tag never crosses a host
/// boundary — remote batches are stamped by the coordinator when they
/// arrive, which only affects the (explicitly non-deterministic)
/// timing figures.
pub(crate) struct TaggedBatch {
    pub(crate) batch: usize,
    pub(crate) out: BatchOut,
    pub(crate) started_at: Instant,
    pub(crate) finished_at: Instant,
}

/// Widens `window` to cover `span`: the earliest start to the latest
/// finish.
pub(crate) fn widen(window: &mut Option<(Instant, Instant)>, (start, finish): (Instant, Instant)) {
    *window = Some(match *window {
        None => (start, finish),
        Some((s, f)) => (s.min(start), f.max(finish)),
    });
}

/// One job's completed batches, folded in batch-index order: the one
/// accumulator behind [`crate::ShotEngine`] results, serve-queue
/// snapshots and final results, journaled `Progress` records and their
/// recovery. Batches may arrive in any order, from any backend; a
/// batch waits in the stash until every batch before it has folded,
/// so `acc` always holds exactly batches `0..folded`, folded one at a
/// time by [`BatchOut::absorb`].
pub(crate) struct Fold {
    /// Contiguous batches folded into `acc` so far.
    pub(crate) folded: usize,
    /// Completed batches waiting for their prefix, by batch index.
    pub(crate) stash: BTreeMap<usize, TaggedBatch>,
    /// Batches `0..folded` folded into one.
    pub(crate) acc: BatchOut,
    /// First folded batch start to last folded batch end, on this
    /// process's clock (`None` until a batch folds here).
    pub(crate) window: Option<(Instant, Instant)>,
}

impl Fold {
    /// The empty fold of `job`.
    pub(crate) fn new(job: &Job) -> Self {
        Fold {
            folded: 0,
            stash: BTreeMap::new(),
            acc: BatchOut::empty(job.shape.inst().topology().num_qubits()),
            window: None,
        }
    }

    /// Stashes a completed batch and folds the contiguous prefix.
    pub(crate) fn absorb(&mut self, tagged: TaggedBatch) {
        self.stash.insert(tagged.batch, tagged);
        while let Some(next) = self.stash.remove(&self.folded) {
            self.acc.absorb(&next.out);
            widen(&mut self.window, (next.started_at, next.finished_at));
            self.folded += 1;
        }
    }

    /// Seeds an unstarted fold with a journaled prefix: batches
    /// `0..folded` folded into `acc`. Exactly the state the fold held
    /// when the prefix was journaled, so folding the remaining batches
    /// onto it is bit-identical to an uninterrupted run.
    pub(crate) fn restore(&mut self, folded: usize, acc: BatchOut) {
        debug_assert!(self.folded == 0 && self.stash.is_empty());
        self.folded = folded;
        self.acc = acc;
    }

    /// The active span: `window`'s length.
    pub(crate) fn active(&self) -> Duration {
        self.window.map_or(Duration::ZERO, |(start, finish)| {
            finish.duration_since(start)
        })
    }

    /// Mean post-run `P(|1⟩)` per qubit over the folded shots.
    pub(crate) fn mean_prob1(&self) -> Vec<f64> {
        let shots = self.acc.shots();
        if shots == 0 {
            return self.acc.prob1_sum.clone();
        }
        self.acc
            .prob1_sum
            .iter()
            .map(|s| s / shots as f64)
            .collect()
    }

    /// The folded batches as the [`JobResult`] of job `name`.
    pub(crate) fn finish(&self, name: String) -> JobResult {
        let shots = self.acc.shots();
        let elapsed = self.active();
        let secs = elapsed.as_secs_f64();
        JobResult {
            name,
            shots,
            histogram: self.acc.histogram.clone(),
            stats: self.acc.stats,
            mean_prob1: self.mean_prob1(),
            latency: self.acc.latency.clone(),
            elapsed,
            shots_per_sec: if secs > 0.0 { shots as f64 / secs } else { 0.0 },
            window: self.window,
            non_halted: self.acc.non_halted,
            first_failure: self.acc.first_failure.clone(),
        }
    }
}

/// Where a backend executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// Shots run in this process on a dedicated machine instance.
    Local,
    /// Shots run on a remote worker daemon over the wire protocol.
    Remote {
        /// The worker's address (`host:port`).
        addr: String,
    },
}

/// Identity and capacity metadata of a backend, for scheduling
/// decisions and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendDescriptor {
    /// Human-readable backend name (worker-reported for remotes).
    pub name: String,
    /// Local or remote, with transport details.
    pub kind: BackendKind,
    /// How many of these the peer is willing to serve concurrently
    /// (always 1 for a local slot; a remote worker advertises its
    /// capacity in the handshake).
    pub slots: usize,
}

impl std::fmt::Display for BackendDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            BackendKind::Local => write!(f, "{} (local)", self.name),
            BackendKind::Remote { addr } => write!(f, "{} (remote {addr})", self.name),
        }
    }
}

/// One execution slot that can run contiguous shot ranges of jobs.
///
/// # Contract
///
/// * `run_range(job, a..b)` returns the [`BatchOut`] of running shots
///   `a..b` of `job` — deterministic fields bit-identical to any other
///   backend running the same range of the same job.
/// * A failed call leaves the backend reusable: the caller may retry
///   the same or another range on it, or re-dispatch the range to a
///   different backend. Implementations must not return partially
///   folded results.
/// * Errors split by [`RuntimeError::is_transport`]: transport errors
///   mean "this backend (connection) is unhealthy, the range is fine";
///   anything else means the range itself cannot run (bad program) and
///   retrying elsewhere would fail identically.
pub trait ExecBackend: Send {
    /// Identity/capacity metadata.
    fn descriptor(&self) -> BackendDescriptor;

    /// Runs shots `range` of `job`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Load`] (or a remote-reported equivalent) when
    /// the program fails machine validation;
    /// [`RuntimeError::Transport`] when the backend itself failed.
    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError>;
}

/// Shapes one [`LocalBackend`] keeps a machine for: DRR alternates a
/// slot between the active tenants' head jobs (three on servebench's
/// `restart-mix`), plus one for the job that replaces a finished one.
const MACHINES_PER_SLOT: usize = 4;

/// The in-process backend: machines driven on the calling thread, the
/// one execution path of [`crate::ShotEngine`] workers, serve queue
/// slots and worker-daemon connections.
///
/// It keeps a small LRU of machines keyed by [`JobShape`], each with
/// the deterministic-prefix snapshot its shots fork from (the prefix
/// draws no randomness, see `eqasm_microarch::select`, so a fork is
/// bit-identical to a full replay; no snapshot without
/// [`ExecPolicy::prefix`], on the dense path or for an ineligible
/// program). Beside each snapshot sits the byte-bounded
/// [`OutcomeTrie`] its forked shots walk (`eqasm_microarch::memo`): on
/// a memo-eligible shape, a shot whose outcome path an earlier shot
/// took is read from the trie instead of simulated. Entries hold their
/// shape weakly.
pub struct LocalBackend {
    name: String,
    policy: ExecPolicy,
    /// Most recently used first.
    machines: VecDeque<Loaded>,
    builds: u64,
}

/// A machine built for one shape, with its prefix snapshot and the
/// outcome trie of the shots forked from it.
struct Loaded {
    shape: Weak<JobShape>,
    machine: QuMa,
    prefix: Option<(MachineSnapshot, OutcomeTrie)>,
}

impl LocalBackend {
    /// A local backend named after its slot index.
    pub fn new(slot: usize) -> Self {
        LocalBackend::named(format!("local-{slot}"))
    }

    /// A local backend with an explicit name.
    pub fn named(name: impl Into<String>) -> Self {
        LocalBackend {
            name: name.into(),
            policy: ExecPolicy::default(),
            machines: VecDeque::new(),
            builds: 0,
        }
    }

    /// Returns the backend executing under `policy`.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self.machines.clear();
        self
    }

    /// Moves the machine for `job`'s shape to the front of the LRU,
    /// building it and its snapshot on a miss ([`RuntimeError::Load`]
    /// when the program fails validation).
    pub(crate) fn load(&mut self, job: &Job) -> Result<(), RuntimeError> {
        let m = rt();
        let hit = self
            .machines
            .iter()
            .position(|l| l.shape.upgrade().is_some_and(|shape| shape == job.shape));
        if let Some(pos) = hit {
            m.prefix_cache_hits.inc();
            let loaded = self.machines.remove(pos).expect("position exists");
            self.machines.push_front(loaded);
            return Ok(());
        }
        m.prefix_cache_misses.inc();
        let mut machine =
            build_machine(job, &self.policy).map_err(|source| RuntimeError::Load {
                job: job.name.clone(),
                source,
            })?;
        self.builds += 1;
        // The snapshot is seed-independent, so seed 0 serves every job.
        let prefix = (self.policy.prefix && machine.config().backend != BackendSelect::Dense)
            .then(|| machine.run_prefix(0))
            .flatten()
            .map(|snapshot| (snapshot, OutcomeTrie::new()));
        self.machines.retain(|l| l.shape.strong_count() > 0);
        self.machines.truncate(MACHINES_PER_SLOT - 1);
        self.machines.push_front(Loaded {
            shape: Arc::downgrade(&job.shape),
            machine,
            prefix,
        });
        Ok(())
    }
}

impl std::fmt::Debug for LocalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalBackend")
            .field("name", &self.name)
            .field("cached_shapes", &self.machines.len())
            .field("builds", &self.builds)
            .finish()
    }
}

impl ExecBackend for LocalBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            name: self.name.clone(),
            kind: BackendKind::Local,
            slots: 1,
        }
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        self.load(job)?;
        let loaded = self.machines.front_mut().expect("just loaded");
        let prefix = loaded.prefix.as_mut().map(|(snap, trie)| (&*snap, trie));
        Ok(run_batch(&mut loaded.machine, prefix, job, range))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ShotEngine;

    fn tiny_job(shots: u64) -> Job {
        let (inst, program) = crate::WorkloadKind::ActiveReset { init_cycles: 20 }
            .build()
            .expect("builds");
        Job::new("backend-test", inst, program)
            .with_shots(shots)
            .with_seed(3)
    }

    #[test]
    fn local_backend_matches_engine() {
        let job = tiny_job(24);
        let mut backend = LocalBackend::new(0);
        // Run the three 8-shot ranges and fold by hand.
        let mut histogram = Histogram::new();
        let mut stats = RunStats::default();
        for start in [0u64, 8, 16] {
            let out = backend.run_range(&job, start..start + 8).expect("runs");
            assert_eq!(out.shots(), 8);
            histogram.merge(&out.histogram);
            stats.merge(&out.stats);
        }
        let reference = ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&job)
            .expect("engine runs");
        assert_eq!(histogram, reference.histogram);
        assert_eq!(stats, reference.stats);
    }

    #[test]
    fn local_backend_reuses_machine_across_ranges() {
        let job = tiny_job(16);
        let mut backend = LocalBackend::new(0);
        backend.run_range(&job, 0..8).expect("runs");
        backend.run_range(&job, 8..16).expect("runs");
        // A different seed is the same shape: the machine is reused.
        backend
            .run_range(&job.clone().with_seed(99), 0..8)
            .expect("runs");
        assert_eq!(backend.builds, 1);
        assert_eq!(backend.machines.len(), 1);
    }

    /// A second shape: the same chip, another program.
    fn other_job(shots: u64) -> Job {
        let (inst, program) = crate::WorkloadKind::ActiveReset { init_cycles: 40 }
            .build()
            .expect("builds");
        Job::new("other", inst, program).with_shots(shots)
    }

    #[test]
    fn alternating_between_two_shapes_builds_two_machines() {
        let (a, b) = (tiny_job(16), other_job(16));
        let mut backend = LocalBackend::new(0);
        for i in 0..6u64 {
            let base = if i % 2 == 0 { &a } else { &b };
            let job = Job {
                name: format!("job-{i}"),
                ..base.clone()
            }
            .with_seed(100 + i);
            backend.run_range(&job, 0..4).expect("runs");
        }
        // An equal shape built separately is found structurally.
        backend.run_range(&tiny_job(8), 0..4).expect("runs");
        assert_eq!(backend.builds, 2);
        assert_eq!(backend.machines.len(), 2);
        assert!(backend.machines[0].shape.ptr_eq(&Arc::downgrade(&a.shape)));
        assert!(backend.machines[1].shape.ptr_eq(&Arc::downgrade(&b.shape)));
    }

    /// The deterministic fields of a [`BatchOut`].
    fn deterministic(out: &BatchOut) -> impl PartialEq + std::fmt::Debug {
        (
            out.histogram.clone(),
            out.stats,
            out.prob1_sum
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            out.non_halted,
            out.first_failure.clone(),
            out.shots(),
        )
    }

    #[test]
    fn reused_slot_matches_a_fresh_backend_per_job() {
        let noisy = eqasm_microarch::SimConfig::default()
            .with_readout(eqasm_quantum::ReadoutModel::symmetric(0.05));
        for base in [tiny_job(24), other_job(24).with_config(noisy)] {
            let mut reused = LocalBackend::new(0);
            for i in 0..5u64 {
                let job = Job {
                    name: format!("job-{i}"),
                    ..base.clone()
                }
                .with_seed(1000 * i + 3);
                for range in [0..8, 8..24] {
                    let got = reused.run_range(&job, range.clone()).expect("runs");
                    let want = LocalBackend::new(1).run_range(&job, range).expect("runs");
                    assert_eq!(deterministic(&got), deterministic(&want), "job {i}");
                }
            }
            assert_eq!(reused.builds, 1);
        }
    }

    #[test]
    fn memo_eligible_shapes_serve_shots_from_their_trie() {
        let (inst, program) = crate::WorkloadKind::Rb {
            k: 24,
            interval_cycles: 1,
            sequence_seed: 1,
        }
        .build()
        .expect("builds");
        let rb1q_noisy = Job::new("rb1q-noisy", inst, program)
            .with_config(
                eqasm_microarch::SimConfig::default()
                    .with_noise(
                        eqasm_quantum::NoiseModel::with_coherence(25_000.0, 25_000.0)
                            .with_gate_error(0.0009, 0.0),
                    )
                    .with_readout(eqasm_quantum::ReadoutModel::symmetric(0.05)),
            )
            .with_shots(2_000)
            .with_seed(7);
        let mut memo = LocalBackend::new(0);
        let mut replay = LocalBackend::new(1).with_policy(ExecPolicy {
            backend: None,
            prefix: false,
        });
        for range in [0..1_000, 1_000..2_000] {
            let got = memo.run_range(&rb1q_noisy, range.clone()).expect("runs");
            let want = replay.run_range(&rb1q_noisy, range).expect("runs");
            assert_eq!(deterministic(&got), deterministic(&want));
        }
        let (_, trie) = memo.machines[0].prefix.as_ref().expect("forks");
        // One measurement: four (raw, reported) paths, the rest hits.
        assert!(trie.hits() >= 2_000 - 4, "{} hits", trie.hits());
        assert!(replay.machines[0].prefix.is_none(), "replays every shot");
    }

    #[test]
    fn dense_job_forks_only_under_an_auto_override() {
        let job = tiny_job(8).with_config(eqasm_microarch::SimConfig {
            backend: eqasm_microarch::BackendSelect::Dense,
            ..Default::default()
        });

        let mut default = LocalBackend::new(0);
        default.run_range(&job, 0..8).expect("runs");
        assert!(default.machines[0].prefix.is_none(), "Dense never forks");

        let mut auto = LocalBackend::new(1).with_policy(ExecPolicy {
            backend: Some(eqasm_microarch::BackendSelect::Auto),
            prefix: true,
        });
        auto.run_range(&job, 0..8).expect("runs");
        assert!(
            auto.machines[0].prefix.is_some(),
            "the policy's configuration, not the job's, decides"
        );
    }

    #[test]
    fn local_backend_reports_load_errors() {
        let err = LocalBackend::new(0)
            .run_range(&unloadable_job(), 0..1)
            .expect_err("fails");
        assert!(matches!(err, RuntimeError::Load { .. }), "{err}");
        assert!(!err.is_transport());
    }

    /// A job whose program fails machine validation: a bundle
    /// referencing an opcode the instantiation never configured.
    pub(crate) fn unloadable_job() -> Job {
        let inst = eqasm_core::Instantiation::paper_two_qubit();
        let bundle = eqasm_core::Bundle::new(vec![eqasm_core::BundleOp::single(
            eqasm_core::QOpcode::new(500),
            eqasm_core::SReg::new(0),
        )]);
        Job::new("bad", inst, vec![eqasm_core::Instruction::Bundle(bundle)])
    }

    #[test]
    fn descriptor_identifies_local_slot() {
        let d = LocalBackend::new(3).descriptor();
        assert_eq!(d.name, "local-3");
        assert_eq!(d.kind, BackendKind::Local);
        assert_eq!(d.slots, 1);
        assert!(d.to_string().contains("local"));
    }
}

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

use std::ops::Range;

use eqasm_microarch::{QuMa, RunStats};

use crate::aggregate::{Histogram, LatencyHistogram};
use crate::engine::{build_machine, run_batch};
use crate::error::RuntimeError;
use crate::job::Job;

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
    /// Per-shot wall-clock durations (count == range length).
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

/// The in-process backend: one cached machine driven on the calling
/// thread — [`crate::ShotEngine`]'s per-worker execution path behind
/// the [`ExecBackend`] API.
///
/// The machine is rebuilt only when the job changes (compared
/// structurally, so interleaved batches of the same job reuse one
/// load + validation).
pub struct LocalBackend {
    name: String,
    cached: Option<(Job, QuMa)>,
}

impl LocalBackend {
    /// A local backend named after its slot index.
    pub fn new(slot: usize) -> Self {
        LocalBackend {
            name: format!("local-{slot}"),
            cached: None,
        }
    }

    /// A local backend with an explicit name.
    pub fn named(name: impl Into<String>) -> Self {
        LocalBackend {
            name: name.into(),
            cached: None,
        }
    }
}

impl std::fmt::Debug for LocalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalBackend")
            .field("name", &self.name)
            .field("cached_job", &self.cached.as_ref().map(|(j, _)| &j.name))
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
        if !matches!(&self.cached, Some((cached, _)) if cached == job) {
            let machine = build_machine(job).map_err(|source| RuntimeError::Load {
                job: job.name.clone(),
                source,
            })?;
            self.cached = Some((job.clone(), machine));
        }
        let machine = &mut self.cached.as_mut().expect("just cached").1;
        Ok(run_batch(machine, job, range))
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
        assert!(backend.cached.is_some());
        // Same job: the cache key (structural equality) holds.
        backend.run_range(&job, 8..16).expect("runs");
        // A different job (different seed) rebuilds.
        let other = tiny_job(16).with_seed(99);
        backend.run_range(&other, 0..8).expect("runs");
        assert_eq!(backend.cached.as_ref().unwrap().0.base_seed, 99);
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

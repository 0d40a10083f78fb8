//! `eqasm-serve` — a polling job-queue front end over the shot engine.
//!
//! The [`crate::ShotEngine`] of PR 1 is a synchronous library call:
//! one caller, one batch of jobs, one blocking `run_jobs`. This module
//! turns it into the long-lived service the control stack exists for:
//!
//! * [`Submission`] — a [`Job`] or a [`WorkloadSpec`] tagged with a
//!   [`TenantId`];
//! * [`JobQueue`] — accepts submissions, hands back [`JobHandle`]s for
//!   polling, and drives a background worker pool;
//! * **weighted-fair scheduling** — the next batch is picked by
//!   deficit round-robin over per-tenant weights, with a per-tenant
//!   in-flight-shot quota, so one tenant's million-shot sweep cannot
//!   starve another's calibration loop;
//! * [`PartialResult`] — a streaming snapshot per job (histogram,
//!   machine stats, mean `P(|1⟩)`, `shots_done / shots_total`) that
//!   pollers can read at any time;
//! * a **program cache** keyed by [`WorkloadKind`], so mixed-traffic
//!   streams stop rebuilding identical programs per job instance;
//! * a **backend pool with live membership** — dispatch drives
//!   `Box<dyn `[`ExecBackend`]`>` slots, so the same queue schedules
//!   onto local threads ([`crate::LocalBackend`]), remote workers
//!   ([`crate::RemoteBackend`]) or any mix
//!   ([`JobQueue::with_backends`]); a batch lost to a backend failure
//!   is re-dispatched to another backend with bounded retries. Slots
//!   follow the [`SlotState`] lifecycle (`Active → Draining →
//!   Retired`): [`JobQueue::attach_backend`] adds capacity to the
//!   *running* pool, [`JobQueue::detach_backend`] drains a slot
//!   cleanly, repeated transport failures retire one automatically,
//!   and [`JobQueue::pool_status`] reports it all — so a
//!   [`crate::PoolSupervisor`] can ride worker-fleet churn instead of
//!   letting the pool decay to whatever survived boot;
//! * **admission control** — a per-tenant cap on queued-but-not-started
//!   shots ([`ServeConfig::with_pending_cap`]); a submission that would
//!   exceed it is rejected with
//!   [`RuntimeError::AdmissionRejected`] instead of growing the queue
//!   without bound.
//!
//! ## Snapshot determinism — including under pool churn
//!
//! Completed batches are folded into each job's snapshot strictly in
//! batch-index order (out-of-order completions are stashed until the
//! prefix is contiguous). A snapshot whose `shots_done` is `k` batches
//! worth of shots is therefore **bit-identical** — histogram, stats
//! and mean-`P(|1⟩)` — to serially running just those first `k`
//! batches, and the final result is bit-identical to
//! [`crate::ShotEngine::run_job`] on the same job. Streaming partial
//! histograms are exact prefixes of the final answer, not
//! approximations.
//!
//! The same argument makes **membership churn invisible**: a batch is
//! a pure function of `(job, range)`, every slot (whenever it was
//! attached, wherever it runs) produces the identical
//! [`crate::BatchOut`] for a given range, and the fold never consults
//! *which* slot
//! delivered a batch — only its index. So attaching a slot mid-run,
//! draining one, or a worker dying and being re-attached by the
//! supervisor can reorder *completions*, which the stash absorbs, but
//! can never change a single bit of any prefix or of the final
//! aggregates. This is proven by the churn suite in
//! `tests/remote.rs`, which checks every observed snapshot against
//! serial per-prefix references while the pool is mutated under the
//! job.
//!
//! ## Example
//!
//! ```
//! use eqasm_asm::assemble;
//! use eqasm_core::Instantiation;
//! use eqasm_runtime::{serve::{JobQueue, ServeConfig, Submission}, Job};
//!
//! let inst = Instantiation::paper_two_qubit();
//! let program = assemble(
//!     "SMIS S2, {2}\nQWAIT 100\nX90 S2\nMEASZ S2\nQWAIT 50\nSTOP",
//!     &inst,
//! )?;
//! let job = Job::new("x90", inst, program.instructions().to_vec()).with_shots(64);
//!
//! let queue = JobQueue::new(ServeConfig::default().with_workers(2));
//! let handles = queue.submit(Submission::job("cal-team", job))?;
//! let result = handles[0].wait()?;
//! assert_eq!(result.shots, 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eqasm_core::{Instantiation, Instruction};
use eqasm_microarch::RunStats;

use crate::aggregate::{Histogram, JobResult, LatencyHistogram, LatencyStats};
use crate::backend::{BackendDescriptor, BatchOut, ExecBackend, LocalBackend};
use crate::engine::TaggedBatch;
use crate::error::RuntimeError;
use crate::job::{default_batch_size, partition_shots, Job, ShapeTable};
use crate::journal::{self, JournalConfig, JournalHandle, RecoveryReport};
use crate::wire::WireError;
use crate::workload::{WorkloadKind, WorkloadSpec};

/// Identifies the tenant a submission is accounted against. Cheap to
/// clone; compares by name.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id from a name.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(Arc::from(name.into().as_str()))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so callers' width/alignment
        // specifiers apply when laying out report tables.
        f.pad(&self.0)
    }
}

/// A unit of work handed to the queue: a prebuilt [`Job`] or a
/// declarative [`WorkloadSpec`] (expanded to `weight` job instances
/// through the program cache), tagged with the [`TenantId`] it is
/// accounted against.
#[derive(Debug, Clone)]
pub struct Submission {
    tenant: TenantId,
    work: Work,
}

/// The two shapes of work a [`Submission`] can carry. `pub(crate)` so
/// the wire module can encode submissions for the serve front door.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    Job(Box<Job>),
    Spec(Box<WorkloadSpec>),
}

impl Submission {
    /// Submits one prebuilt job under `tenant`.
    pub fn job(tenant: impl Into<TenantId>, job: Job) -> Self {
        Submission {
            tenant: tenant.into(),
            work: Work::Job(Box::new(job)),
        }
    }

    /// Submits a workload spec under `tenant`: the spec's `weight`
    /// field is its instance count (as in [`crate::MixedWorkload`]),
    /// and all instances share one cached program build.
    pub fn workload(tenant: impl Into<TenantId>, spec: WorkloadSpec) -> Self {
        Submission {
            tenant: tenant.into(),
            work: Work::Spec(Box::new(spec)),
        }
    }

    /// The tenant this submission is accounted against.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The work payload, for the wire encoder.
    pub(crate) fn work(&self) -> &Work {
        &self.work
    }
}

impl From<(&str, Job)> for Submission {
    fn from((tenant, job): (&str, Job)) -> Self {
        Submission::job(tenant, job)
    }
}

/// Configuration of a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` selects the machine's available
    /// parallelism.
    pub workers: usize,
    /// Shot batch size override (clamped to at least 1). `None` uses
    /// [`default_batch_size`] per job. The batch size is also the
    /// scheduler's fairness granularity: one batch is the smallest
    /// unit of work a tenant can be granted.
    pub batch_size: Option<u64>,
    /// Scheduling weight for tenants that were never explicitly
    /// registered (clamped to at least 1).
    pub default_weight: u32,
    /// In-flight-shot quota for tenants that were never explicitly
    /// registered.
    pub default_quota: u64,
    /// Admission cap on a tenant's queued-but-not-started shots.
    /// `u64::MAX` (the default) disables admission control. Unlike the
    /// in-flight quota — which only *paces* a tenant — this bounds
    /// queue memory: a runaway client that keeps submitting gets
    /// [`RuntimeError::AdmissionRejected`] instead of growing the
    /// queue without limit.
    pub pending_cap: u64,
    /// How many times a batch lost to a backend transport failure is
    /// re-dispatched before its job is failed. Each retry prefers a
    /// backend other than the one that just failed.
    pub max_batch_retries: u32,
    /// What to do when the last live slot retires with work
    /// outstanding. `false` (the default) fails every unfinished job —
    /// the PR 3 behaviour, right for a static pool where no slot will
    /// ever return. `true` keeps jobs queued through an empty-pool
    /// window, for elastic pools where a [`crate::PoolSupervisor`]
    /// (or an explicit [`JobQueue::attach_backend`]) is expected to
    /// restore capacity; without one, `wait()` on those jobs blocks
    /// until capacity returns or the queue shuts down.
    pub hold_when_empty: bool,
    /// How the queue's own local slots execute jobs. Slots passed in
    /// through [`JobQueue::with_backends`] carry their own policy.
    pub policy: crate::ExecPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            batch_size: None,
            default_weight: 1,
            default_quota: u64::MAX,
            pending_cap: u64::MAX,
            max_batch_retries: 3,
            hold_when_empty: false,
            policy: crate::ExecPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Returns the config with the given worker count (`0` = machine
    /// parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the config with a fixed shot batch size (clamped to at
    /// least 1).
    pub fn with_batch_size(mut self, batch_size: u64) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Returns the config with defaults for unregistered tenants.
    pub fn with_tenant_defaults(mut self, weight: u32, quota: u64) -> Self {
        self.default_weight = weight.max(1);
        self.default_quota = quota;
        self
    }

    /// Returns the config with a per-tenant pending-shot admission cap.
    pub fn with_pending_cap(mut self, cap: u64) -> Self {
        self.pending_cap = cap;
        self
    }

    /// Returns the config with a batch re-dispatch retry limit.
    pub fn with_max_batch_retries(mut self, retries: u32) -> Self {
        self.max_batch_retries = retries;
        self
    }

    /// Returns the config holding jobs (instead of failing them) while
    /// the pool is empty — see [`ServeConfig::hold_when_empty`].
    pub fn with_hold_when_empty(mut self, hold: bool) -> Self {
        self.hold_when_empty = hold;
        self
    }

    /// Returns the config executing under `policy` — see
    /// [`ServeConfig::policy`].
    pub fn with_policy(mut self, policy: crate::ExecPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Lifecycle state of one dispatch slot in the pool.
///
/// ```text
/// attach ──▶ Active ──▶ Draining ──▶ Retired
///               │        (detach)       ▲
///               └────────────────────────┘
///                (consecutive transport failures,
///                 or queue shutdown)
/// ```
///
/// * **Active** — the slot's thread is dispatching batches.
/// * **Draining** — [`JobQueue::detach_backend`] was called: the slot
///   finishes the batch it is running (if any), takes no new work, and
///   retires. Nothing is lost: an in-flight batch completes and folds
///   normally.
/// * **Retired** — the slot's thread has exited. Retired slot ids are
///   never reused, so a worker that reconnects gets a *new* slot id
///   (which keeps per-batch distinct-backend retry accounting honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Dispatching batches.
    Active,
    /// Finishing its current batch, then retiring (clean detach).
    Draining,
    /// Thread exited; the slot is history.
    Retired,
}

impl fmt::Display for SlotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            SlotState::Active => "active",
            SlotState::Draining => "draining",
            SlotState::Retired => "retired",
        })
    }
}

/// A point-in-time descriptor of one pool slot, from
/// [`JobQueue::pool_status`].
#[derive(Debug, Clone)]
pub struct SlotStatus {
    /// The slot's id — its position in the attach order, never reused.
    pub slot_id: usize,
    /// Identity of the backend driving (or having driven) the slot.
    pub descriptor: BackendDescriptor,
    /// Where the slot is in its lifecycle.
    pub state: SlotState,
    /// Transport failures since the slot's last success. The slot
    /// retires when this reaches the consecutive-failure limit.
    pub consecutive_failures: u32,
    /// Batches this slot completed successfully over its lifetime.
    pub batches_completed: u64,
}

/// Program-cache hit/miss counters, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Spec submissions served from a cached program build.
    pub hits: u64,
    /// Spec submissions that had to build their program.
    pub misses: u64,
    /// Distinct programs currently cached.
    pub entries: usize,
}

/// Hashable identity of a [`WorkloadKind`]: every field that feeds the
/// program build, with `f64`s compared by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Rabi {
        amplitude_bits: Vec<u64>,
        index: usize,
    },
    AllXy {
        round: usize,
        init_cycles: u32,
    },
    Rb {
        k: usize,
        interval_cycles: u32,
        sequence_seed: u64,
    },
    ActiveReset {
        init_cycles: u32,
    },
    CliffordChain {
        qubits: usize,
        layers: u32,
    },
    Source {
        text: String,
    },
}

impl CacheKey {
    fn of(kind: &WorkloadKind) -> Self {
        match kind {
            WorkloadKind::Rabi {
                amplitudes,
                amplitude_index,
            } => CacheKey::Rabi {
                amplitude_bits: amplitudes.iter().map(|a| a.to_bits()).collect(),
                index: *amplitude_index,
            },
            WorkloadKind::AllXy { round, init_cycles } => CacheKey::AllXy {
                round: *round,
                init_cycles: *init_cycles,
            },
            WorkloadKind::Rb {
                k,
                interval_cycles,
                sequence_seed,
            } => CacheKey::Rb {
                k: *k,
                interval_cycles: *interval_cycles,
                sequence_seed: *sequence_seed,
            },
            WorkloadKind::ActiveReset { init_cycles } => CacheKey::ActiveReset {
                init_cycles: *init_cycles,
            },
            WorkloadKind::CliffordChain { qubits, layers } => CacheKey::CliffordChain {
                qubits: *qubits,
                layers: *layers,
            },
            WorkloadKind::Source { text } => CacheKey::Source { text: text.clone() },
        }
    }
}

/// Assembled programs keyed by the [`WorkloadKind`] that builds them.
/// The kind is the complete input of the build (the `SimConfig` only
/// affects execution), so equal kinds always yield equal programs.
struct ProgramCache {
    entries: HashMap<CacheKey, Arc<(Instantiation, Vec<Instruction>)>>,
    hits: u64,
    misses: u64,
}

impl ProgramCache {
    fn new() -> Self {
        ProgramCache {
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cached build for `key`, counting a hit when present.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<(Instantiation, Vec<Instruction>)>> {
        let built = self.entries.get(key).map(Arc::clone);
        if built.is_some() {
            self.hits += 1;
            crate::metrics::rt().cache_hits.inc();
        }
        built
    }

    /// Stores a build produced outside the lock, counting a miss. If
    /// a concurrent submission raced the build in first, the earlier
    /// artifact wins (counted as a hit) so every instance of a kind
    /// shares one program.
    fn insert(
        &mut self,
        key: CacheKey,
        built: Arc<(Instantiation, Vec<Instruction>)>,
    ) -> Arc<(Instantiation, Vec<Instruction>)> {
        if let Some(existing) = self.entries.get(&key) {
            self.hits += 1;
            crate::metrics::rt().cache_hits.inc();
            return Arc::clone(existing);
        }
        self.misses += 1;
        crate::metrics::rt().cache_misses.inc();
        self.entries.insert(key, Arc::clone(&built));
        built
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
        }
    }
}

/// A point-in-time view of a queued job, readable at any moment
/// between submission and completion.
///
/// All deterministic fields (histogram, stats, `mean_prob1`) cover
/// exactly the first [`PartialResult::batches_done`] batches and are
/// bit-identical to a serial run of just those batches — see the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct PartialResult {
    /// The job's name.
    pub name: String,
    /// The tenant the job is accounted against.
    pub tenant: TenantId,
    /// Shots in the folded prefix so far.
    pub shots_done: u64,
    /// Total shots the job was submitted with.
    pub shots_total: u64,
    /// Batches folded into this snapshot (the contiguous prefix).
    pub batches_done: usize,
    /// Total batches of the job.
    pub batches_total: usize,
    /// Outcome counts over the folded prefix.
    pub histogram: Histogram,
    /// Machine counters over the folded prefix.
    pub stats: RunStats,
    /// Mean post-run `P(|1⟩)` per qubit over the folded prefix.
    pub mean_prob1: Vec<f64>,
    /// Latency percentiles over the folded prefix.
    pub latency: LatencyStats,
    /// Prefix shots that did not halt cleanly.
    pub non_halted: u64,
    /// Whether the job has fully completed (successfully or not).
    pub done: bool,
    /// The failure message, if the job's program failed to load.
    pub failed: Option<String>,
    /// Time from submission until the job's first batch started (or
    /// until this snapshot, while it is still queued).
    pub queue_wait: Duration,
    /// Active span so far: first folded batch start to last folded
    /// batch end.
    pub active: Duration,
}

impl PartialResult {
    /// Completed fraction in `[0, 1]` (`1.0` for zero-shot jobs).
    pub fn progress(&self) -> f64 {
        if self.shots_total == 0 {
            1.0
        } else {
            self.shots_done as f64 / self.shots_total as f64
        }
    }
}

/// One batch waiting to be dispatched.
struct PendingBatch {
    job: usize,
    batch: usize,
    range: std::ops::Range<u64>,
    /// *Distinct* backends this batch has failed on (bounded by the
    /// pool size). Its length is the retry budget spent: two dead
    /// backends ping-ponging one batch must not burn the budget a
    /// healthy third backend would clear, so repeat failures on a
    /// backend already in this list are free.
    failed_on: Vec<usize>,
}

impl PendingBatch {
    fn cost(&self) -> u64 {
        self.range.end - self.range.start
    }
}

/// A batch a backend has been granted, with everything needed to run
/// it outside the queue lock.
struct DispatchedTask {
    job_id: usize,
    batch: usize,
    range: std::ops::Range<u64>,
    job: Arc<Job>,
    tenant: usize,
    /// Distinct backends this batch had already failed on when
    /// granted (carried so a re-failure keeps the history).
    failed_on: Vec<usize>,
}

impl DispatchedTask {
    fn cost(&self) -> u64 {
        self.range.end - self.range.start
    }
}

/// Per-tenant scheduling state: a FIFO of pending batches plus the
/// deficit-round-robin accounting that spreads pool time by weight.
struct TenantState {
    id: TenantId,
    weight: u32,
    quota: u64,
    queue: VecDeque<PendingBatch>,
    /// Shot credit accumulated from round visits; spending it admits
    /// batches.
    deficit: u64,
    /// True once this ring visit has already granted the quantum.
    credited: bool,
    /// Shots dispatched but not yet completed.
    inflight: u64,
    /// Shots completed, for fairness accounting.
    shots_done: u64,
    /// Queued-but-not-started shots (the admission-control ledger).
    pending_shots: u64,
    /// Admission cap on `pending_shots`.
    pending_cap: u64,
    /// Registry mirror of `pending_shots` (resolved once per tenant;
    /// every update is one lock-free atomic store).
    pending_gauge: Arc<crate::metrics::Gauge>,
    /// Registry mirror of `inflight`.
    inflight_gauge: Arc<crate::metrics::Gauge>,
}

impl TenantState {
    /// Mirrors this tenant's scheduling ledgers into the metrics
    /// registry. Called wherever `pending_shots`/`inflight` change —
    /// always under the queue mutex, where the values are exact.
    fn sync_gauges(&self) {
        self.pending_gauge.set(self.pending_shots as i64);
        self.inflight_gauge.set(self.inflight as i64);
    }
}

/// Batch-index-ordered accumulation of one job's completed batches.
struct PartialState {
    /// Contiguous batches folded so far.
    folded: usize,
    /// Completed batches waiting for their prefix (keyed by batch
    /// index).
    stash: BTreeMap<usize, TaggedBatch>,
    shots_done: u64,
    histogram: Histogram,
    stats: RunStats,
    prob1_sum: Vec<f64>,
    latency: LatencyHistogram,
    non_halted: u64,
    first_failure: Option<(u64, String)>,
    window: Option<(Instant, Instant)>,
}

impl PartialState {
    fn new(num_qubits: usize) -> Self {
        PartialState {
            folded: 0,
            stash: BTreeMap::new(),
            shots_done: 0,
            histogram: Histogram::new(),
            stats: RunStats::default(),
            prob1_sum: vec![0.0; num_qubits],
            latency: LatencyHistogram::new(),
            non_halted: 0,
            first_failure: None,
            window: None,
        }
    }

    /// Stashes a completed batch and folds the contiguous prefix —
    /// the same fold, in the same order, as the engine's final merge.
    /// Whether a stashed batch came from a local thread or across a
    /// socket is invisible here: its deterministic fields are
    /// bit-identical either way.
    fn absorb(&mut self, tagged: TaggedBatch) {
        self.stash.insert(tagged.batch, tagged);
        while let Some(next) = self.stash.remove(&self.folded) {
            self.shots_done += next.out.shots();
            self.histogram.merge(&next.out.histogram);
            self.stats.merge(&next.out.stats);
            for (acc, s) in self.prob1_sum.iter_mut().zip(&next.out.prob1_sum) {
                *acc += s;
            }
            self.latency.merge(&next.out.latency);
            self.non_halted += next.out.non_halted;
            if self.first_failure.is_none() {
                self.first_failure = next.out.first_failure;
            }
            self.window = Some(match self.window {
                None => (next.started_at, next.finished_at),
                Some((s, f)) => (s.min(next.started_at), f.max(next.finished_at)),
            });
            self.folded += 1;
        }
    }

    fn mean_prob1(&self) -> Vec<f64> {
        if self.shots_done == 0 {
            return self.prob1_sum.clone();
        }
        self.prob1_sum
            .iter()
            .map(|s| s / self.shots_done as f64)
            .collect()
    }
}

/// The encoded journal payloads a live job retains so compaction can
/// rewrite durable state without re-encoding (or re-reading) anything.
/// Dropped at the job's terminal transition — completed jobs take no
/// durable space, which is exactly what makes compaction shrink the
/// journal.
struct DurableJob {
    /// The job's `Admit` payload, as appended.
    admit: Vec<u8>,
    /// Every `RangeDone` payload appended so far, in fold order.
    ranges: Vec<Vec<u8>>,
}

/// A job tracked by the queue.
struct JobEntry {
    /// The job, with its interned shape.
    job: Arc<Job>,
    tenant: usize,
    batches_total: usize,
    submitted_at: Instant,
    partial: PartialState,
    final_result: Option<JobResult>,
    failed: Option<String>,
    /// Journal-mode only: this job's live journal payloads (see
    /// [`DurableJob`]); `None` once terminal or when not journaling.
    durable: Option<DurableJob>,
}

impl JobEntry {
    /// An entry for `job`, not yet started.
    fn new(job: Job, tenant: usize, batches_total: usize) -> Self {
        JobEntry {
            partial: PartialState::new(job.shape.inst().topology().num_qubits()),
            job: Arc::new(job),
            tenant,
            batches_total,
            submitted_at: Instant::now(),
            final_result: None,
            failed: None,
            durable: None,
        }
    }

    fn done(&self) -> bool {
        self.final_result.is_some() || self.failed.is_some()
    }
}

/// Why a job id has no entry in the queue's job table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoJob {
    /// Issued, and released since.
    Released,
    /// Never issued.
    Unknown,
}

/// What `wait` and snapshots report for a released job.
const RELEASED: &str = "job released: its result is no longer retained";

/// The queue's job table, and the service's one job directory. Ids are
/// issued in order and never reused; the serve front door's wire id is
/// the id + 1. Entries live in a window starting at `base`: an id
/// below `base`, or an empty slot inside the window, was released and
/// holds nothing; an id at or past [`JobTable::next_id`] was never
/// issued. Released slots at the front are popped, so the table holds
/// nothing for ids below its oldest unreleased job.
#[derive(Default)]
struct JobTable {
    base: usize,
    slots: VecDeque<Option<Box<JobEntry>>>,
    /// Ids of terminal entries not yet released, oldest first: what
    /// completed retention bounds and its sweep walks.
    finished: BTreeSet<usize>,
}

impl JobTable {
    /// One past the highest id issued.
    fn next_id(&self) -> usize {
        self.base + self.slots.len()
    }

    /// The entry of `id`, `None` when released or never issued.
    fn get(&self, id: usize) -> Option<&JobEntry> {
        self.slots.get(id.checked_sub(self.base)?)?.as_deref()
    }

    fn get_mut(&mut self, id: usize) -> Option<&mut JobEntry> {
        self.slots
            .get_mut(id.checked_sub(self.base)?)?
            .as_deref_mut()
    }

    /// Issues the next id to `entry`.
    fn push(&mut self, entry: JobEntry) -> usize {
        self.slots.push_back(Some(Box::new(entry)));
        self.next_id() - 1
    }

    /// Issues every id below `end` not yet issued as already released
    /// (recovery: ids of completed or compacted-away jobs). Costs
    /// nothing while no entry is live.
    fn release_below(&mut self, end: usize) {
        if self.slots.is_empty() {
            self.base = self.base.max(end);
        }
        while self.next_id() < end {
            self.slots.push_back(None);
        }
    }

    /// Takes terminal job `id`'s entry out of the table (`None` when it
    /// is running, released or unknown), for the caller to drop.
    fn release(&mut self, id: usize) -> Option<Box<JobEntry>> {
        if !self.finished.remove(&id) {
            return None;
        }
        let entry = self.slots[id - self.base].take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        entry
    }
}

impl std::ops::Index<usize> for JobTable {
    type Output = JobEntry;

    fn index(&self, id: usize) -> &JobEntry {
        self.get(id).expect("a live job")
    }
}

impl std::ops::IndexMut<usize> for JobTable {
    fn index_mut(&mut self, id: usize) -> &mut JobEntry {
        self.get_mut(id).expect("a live job")
    }
}

/// Book-keeping for one dispatch slot (see [`SlotStatus`] for the
/// public view).
struct SlotInfo {
    descriptor: BackendDescriptor,
    state: SlotState,
    consecutive_failures: u32,
    batches_completed: u64,
}

/// Everything behind the queue's mutex.
struct QueueState {
    tenants: Vec<TenantState>,
    tenant_index: HashMap<TenantId, usize>,
    ring_cursor: usize,
    jobs: JobTable,
    cache: ProgramCache,
    /// Undispatched batches across all tenants (fast idle check).
    pending: usize,
    /// The DRR quantum unit: at least the largest batch cost ever
    /// enqueued, so one credit always affords one batch and a full
    /// scheduler pass is O(tenants).
    quantum_unit: u64,
    /// One entry per slot ever attached, in attach order; slot ids are
    /// indices here and are never reused.
    slots: Vec<SlotInfo>,
    /// Slots not yet `Retired` (cached count of the live pool). When
    /// it hits zero with work outstanding the queue either fails the
    /// remaining jobs or — with [`ServeConfig::hold_when_empty`] —
    /// parks them until capacity is attached again.
    live: usize,
    config: ServeConfig,
    /// The write-ahead journal's append channel; `None` for an
    /// in-memory-only queue. Appends are one channel send — file I/O
    /// and fsync happen on the journal thread, never under this mutex.
    journal: Option<JournalHandle>,
    /// Payload bytes appended since the last compaction.
    journal_appended: u64,
    /// Payload bytes the current live state would occupy if rewritten
    /// — the size a compacted segment would have.
    journal_live: u64,
    /// Compaction floor (see [`JournalConfig::compact_min_bytes`]).
    journal_compact_min: u64,
}

impl QueueState {
    fn new(config: ServeConfig) -> Self {
        QueueState {
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            ring_cursor: 0,
            jobs: JobTable::default(),
            cache: ProgramCache::new(),
            pending: 0,
            quantum_unit: 1,
            slots: Vec::new(),
            live: 0,
            config,
            journal: None,
            journal_appended: 0,
            journal_live: 0,
            journal_compact_min: 0,
        }
    }

    /// Registers a new dispatch slot and returns its (never-reused)
    /// slot id.
    fn add_slot(&mut self, descriptor: BackendDescriptor) -> usize {
        let slot_id = self.slots.len();
        self.slots.push(SlotInfo {
            descriptor,
            state: SlotState::Active,
            consecutive_failures: 0,
            batches_completed: 0,
        });
        self.live += 1;
        self.sync_slot_gauges();
        slot_id
    }

    /// Mirrors the per-state slot counts into the metrics registry.
    /// Called at every lifecycle transition, under the queue mutex.
    fn sync_slot_gauges(&self) {
        let (mut active, mut draining, mut retired) = (0i64, 0i64, 0i64);
        for s in &self.slots {
            match s.state {
                SlotState::Active => active += 1,
                SlotState::Draining => draining += 1,
                SlotState::Retired => retired += 1,
            }
        }
        let m = crate::metrics::rt();
        m.slots_active.set(active);
        m.slots_draining.set(draining);
        m.slots_retired.set(retired);
    }

    /// Mirrors the undispatched-batch count into the metrics registry.
    fn sync_depth(&self) {
        crate::metrics::rt().queue_depth.set(self.pending as i64);
    }

    /// Public per-slot view, in attach order.
    fn pool_status(&self) -> Vec<SlotStatus> {
        self.slots
            .iter()
            .enumerate()
            .map(|(slot_id, s)| SlotStatus {
                slot_id,
                descriptor: s.descriptor.clone(),
                state: s.state,
                consecutive_failures: s.consecutive_failures,
                batches_completed: s.batches_completed,
            })
            .collect()
    }

    /// Index of `id`'s state, creating it with the configured defaults
    /// on first sight.
    fn tenant_slot(&mut self, id: &TenantId) -> usize {
        if let Some(&idx) = self.tenant_index.get(id) {
            return idx;
        }
        let idx = self.tenants.len();
        let m = crate::metrics::rt();
        self.tenants.push(TenantState {
            id: id.clone(),
            weight: self.config.default_weight.max(1),
            quota: self.config.default_quota,
            queue: VecDeque::new(),
            deficit: 0,
            credited: false,
            inflight: 0,
            shots_done: 0,
            pending_shots: 0,
            pending_cap: self.config.pending_cap,
            pending_gauge: m.tenant_pending_shots.with(&[id.as_str()]),
            inflight_gauge: m.tenant_inflight_shots.with(&[id.as_str()]),
        });
        self.tenant_index.insert(id.clone(), idx);
        idx
    }

    /// Enqueues one job (its shape already interned) under tenant
    /// `tenant`; returns its job id.
    fn enqueue_job(&mut self, tenant: usize, job: Job) -> usize {
        let batch = self
            .config
            .batch_size
            .unwrap_or_else(|| default_batch_size(job.shots))
            .max(1);
        let ranges = partition_shots(job.shots, batch);
        let job_id = self.jobs.push(JobEntry::new(job, tenant, ranges.len()));
        self.journal_admit(job_id);
        if self.live == 0 && self.jobs[job_id].batches_total > 0 && !self.config.hold_when_empty {
            // Every backend already retired and nothing will bring one
            // back: accepting the job would hang its pollers forever.
            // Fail it at submission. (With `hold_when_empty` the job is
            // queued instead — a supervisor or an explicit attach is
            // expected to restore capacity.)
            self.jobs[job_id].failed = Some("no execution backends remain in the pool".to_owned());
            crate::metrics::rt().jobs_completed.with(&["failed"]).inc();
            self.terminal(job_id);
            return job_id;
        }
        for (b, range) in ranges.into_iter().enumerate() {
            self.quantum_unit = self.quantum_unit.max(range.end - range.start);
            self.tenants[tenant].pending_shots += range.end - range.start;
            self.tenants[tenant].queue.push_back(PendingBatch {
                job: job_id,
                batch: b,
                range,
                failed_on: Vec::new(),
            });
            self.pending += 1;
        }
        self.tenants[tenant].sync_gauges();
        self.sync_depth();
        if self.jobs[job_id].batches_total == 0 {
            // A zero-shot job completes at submission, like the
            // engine's empty-job path.
            self.finalize(job_id);
        }
        job_id
    }

    /// Deficit-round-robin pick of the next batch to run on backend
    /// `backend_id`.
    ///
    /// Visiting a tenant credits its deficit once per ring visit with
    /// `weight × quantum_unit` shots; a batch is granted by spending
    /// its shot cost from the deficit, and the cursor stays on a
    /// tenant while it can still pay — so over a full ring rotation
    /// each backlogged tenant is granted work in proportion to its
    /// weight. Idle tenants forfeit their credit (classic DRR), and a
    /// tenant at its in-flight-shot quota is skipped without losing
    /// banked credit.
    ///
    /// A batch whose last attempt failed on `backend_id` is not handed
    /// back to it while another backend is alive (it is rotated to the
    /// back of its tenant's queue for someone else) — re-dispatch goes
    /// *to another backend*, falling back to self-retry only when this
    /// is the last slot standing.
    fn next_task(&mut self, backend_id: usize) -> Option<DispatchedTask> {
        if self.pending == 0 || self.tenants.is_empty() {
            return None;
        }
        let n = self.tenants.len();
        let exclude_self = self.live > 1;
        // One credit always affords one batch (quantum_unit ≥ any
        // batch cost), so if a full pass over the ring grants nothing,
        // every queue is empty or quota-blocked.
        for _ in 0..=n {
            let idx = self.ring_cursor % n;
            let quantum = (self.tenants[idx].weight as u64).saturating_mul(self.quantum_unit);
            let t = &mut self.tenants[idx];
            if exclude_self {
                // Rotate batches whose *most recent* failure was on
                // this backend to the back; if that is the whole
                // queue, leave the tenant for the other backends this
                // visit. Excluding by the full failure history would
                // risk a batch every living backend once failed being
                // skipped by all of them forever; excluding the last
                // failer alone guarantees someone is always eligible.
                let len = t.queue.len();
                let mut rotated = 0;
                while rotated < len
                    && matches!(t.queue.front(), Some(b) if b.failed_on.last() == Some(&backend_id))
                {
                    let b = t.queue.pop_front().expect("front exists");
                    t.queue.push_back(b);
                    rotated += 1;
                }
                if len > 0 && rotated == len {
                    t.credited = false;
                    self.ring_cursor += 1;
                    continue;
                }
            }
            let Some(head) = t.queue.front() else {
                t.deficit = 0;
                t.credited = false;
                self.ring_cursor += 1;
                continue;
            };
            let cost = head.cost();
            // Quota blocks only when the tenant already has work in
            // flight: a lone batch always dispatches even if it alone
            // exceeds the quota, otherwise a quota smaller than one
            // batch's cost would stall the tenant's jobs forever
            // (wait() would hang with no error).
            if t.inflight > 0 && t.inflight.saturating_add(cost) > t.quota {
                t.credited = false;
                self.ring_cursor += 1;
                continue;
            }
            if t.deficit < cost && !t.credited {
                t.deficit = t.deficit.saturating_add(quantum);
                t.credited = true;
            }
            if t.deficit >= cost {
                t.deficit -= cost;
                t.inflight += cost;
                t.pending_shots = t.pending_shots.saturating_sub(cost);
                let b = t.queue.pop_front().expect("head exists");
                self.pending -= 1;
                self.tenants[idx].sync_gauges();
                self.sync_depth();
                return Some(DispatchedTask {
                    job_id: b.job,
                    batch: b.batch,
                    range: b.range,
                    job: Arc::clone(&self.jobs[b.job].job),
                    tenant: idx,
                    failed_on: b.failed_on,
                });
            }
            t.credited = false;
            self.ring_cursor += 1;
        }
        None
    }

    /// Folds a completed batch back in and finalizes the job when its
    /// last batch lands. `journal_payload` is the batch's pre-encoded
    /// `RangeDone` record — built by the dispatch thread *outside* the
    /// queue mutex (encoding a large `BatchOut` under the lock would
    /// stall every worker), `None` when not journaling.
    fn complete(
        &mut self,
        task: &DispatchedTask,
        tagged: TaggedBatch,
        journal_payload: Option<Vec<u8>>,
    ) {
        let t = &mut self.tenants[task.tenant];
        t.inflight = t.inflight.saturating_sub(task.cost());
        t.shots_done += task.cost();
        t.sync_gauges();
        // A job that failed through another batch may be released
        // while this one ran; then the batch has nowhere to go.
        let Some(done) = self.jobs.get(task.job_id).map(JobEntry::done) else {
            return;
        };
        if let (Some(payload), false) = (journal_payload, done) {
            self.journal_range_done(task.job_id, payload);
        }
        let entry = &mut self.jobs[task.job_id];
        let before_batches = entry.partial.folded;
        let before_shots = entry.partial.shots_done;
        entry.partial.absorb(tagged);
        let m = crate::metrics::rt();
        m.batches_folded
            .add((entry.partial.folded - before_batches) as u64);
        m.shots_completed
            .add(entry.partial.shots_done - before_shots);
        if entry.partial.folded == entry.batches_total && entry.final_result.is_none() {
            self.finalize(task.job_id);
        }
    }

    /// Marks `job_id` failed (program load error, retries exhausted),
    /// cancels its pending batches and releases the failing task's
    /// in-flight shots.
    fn fail(&mut self, task: &DispatchedTask, message: String) {
        let t = &mut self.tenants[task.tenant];
        t.inflight = t.inflight.saturating_sub(task.cost());
        let cancelled_shots: u64 = t
            .queue
            .iter()
            .filter(|b| b.job == task.job_id)
            .map(|b| b.cost())
            .sum();
        t.pending_shots = t.pending_shots.saturating_sub(cancelled_shots);
        let before = t.queue.len();
        t.queue.retain(|b| b.job != task.job_id);
        let cancelled = before - t.queue.len();
        t.sync_gauges();
        self.pending -= cancelled;
        self.sync_depth();
        if let Some(entry) = self.jobs.get_mut(task.job_id).filter(|e| !e.done()) {
            entry.failed = Some(message);
            crate::metrics::rt().jobs_completed.with(&["failed"]).inc();
            self.terminal(task.job_id);
        }
    }

    /// Puts a batch whose backend failed back at the head of its
    /// tenant's queue for re-dispatch (to a *different* backend while
    /// one is alive — see [`QueueState::next_task`]). The retry
    /// budget counts **distinct** failing backends: a repeat failure
    /// on a backend already in the history is free, so two dead slots
    /// ping-ponging a batch cannot exhaust the budget a healthy slot
    /// would clear (the dead slots retire after their own consecutive
    /// failure limit instead). When the batch has failed on more than
    /// `max_batch_retries` distinct backends the job is failed.
    fn requeue(&mut self, task: &DispatchedTask, backend_id: usize, message: &str) {
        let mut failed_on = task.failed_on.clone();
        if !failed_on.contains(&backend_id) {
            failed_on.push(backend_id);
        } else {
            // Keep the exclusion (`next_task` shuns the most recent
            // failer) pointing at this backend.
            failed_on.retain(|&b| b != backend_id);
            failed_on.push(backend_id);
        }
        if failed_on.len() as u32 > self.config.max_batch_retries {
            self.fail(
                task,
                format!(
                    "batch {} of job `{}` failed on {} distinct backends (last: {message})",
                    task.batch,
                    task.job.name,
                    failed_on.len()
                ),
            );
            return;
        }
        if self.jobs.get(task.job_id).is_none_or(JobEntry::done) {
            // The job already failed through another batch (and may
            // be released); just release the in-flight shots.
            let t = &mut self.tenants[task.tenant];
            t.inflight = t.inflight.saturating_sub(task.cost());
            t.sync_gauges();
            return;
        }
        let t = &mut self.tenants[task.tenant];
        t.inflight = t.inflight.saturating_sub(task.cost());
        t.pending_shots += task.cost();
        t.queue.push_front(PendingBatch {
            job: task.job_id,
            batch: task.batch,
            range: task.range.clone(),
            failed_on,
        });
        t.sync_gauges();
        self.pending += 1;
        self.sync_depth();
        crate::metrics::rt().batch_retries.inc();
    }

    /// Retires slot `slot_id` (failure limit reached, drain finished,
    /// or queue shutdown). If it was the last live slot and the pool
    /// is not configured to hold through empty windows, every
    /// unfinished job is failed — with no slots left nothing will ever
    /// complete them, and `wait()`ing pollers must get an error rather
    /// than a hang. With [`ServeConfig::hold_when_empty`] the work
    /// stays queued for whatever capacity attaches next.
    fn retire_slot(&mut self, slot_id: usize) {
        let slot = &mut self.slots[slot_id];
        if slot.state == SlotState::Retired {
            return;
        }
        slot.state = SlotState::Retired;
        self.live -= 1;
        let m = crate::metrics::rt();
        m.slot_retirements.inc();
        self.sync_slot_gauges();
        if self.live > 0 || self.config.hold_when_empty {
            return;
        }
        for t in &mut self.tenants {
            t.queue.clear();
            t.pending_shots = 0;
            t.inflight = 0;
            t.sync_gauges();
        }
        self.pending = 0;
        self.sync_depth();
        let failed_jobs = m.jobs_completed.with(&["failed"]);
        let running: Vec<usize> = (self.jobs.base..self.jobs.next_id())
            .filter(|&id| self.jobs.get(id).is_some_and(|e| !e.done()))
            .collect();
        for job_id in running {
            self.jobs[job_id].failed =
                Some("every execution backend failed; job abandoned".to_owned());
            failed_jobs.inc();
            self.terminal(job_id);
        }
    }

    /// Admission check for `requested` new shots from tenant `slot`.
    fn admit(&self, slot: usize, requested: u64) -> Result<(), RuntimeError> {
        let t = &self.tenants[slot];
        if t.pending_shots.saturating_add(requested) > t.pending_cap {
            crate::metrics::rt().admission_rejections.inc();
            return Err(RuntimeError::AdmissionRejected {
                tenant: t.id.as_str().to_owned(),
                pending_shots: t.pending_shots,
                requested_shots: requested,
                cap: t.pending_cap,
            });
        }
        Ok(())
    }

    /// Seals a fully-folded job into its final [`JobResult`] —
    /// bit-identical to the engine's merge of the same batches.
    fn finalize(&mut self, job_id: usize) {
        let entry = &mut self.jobs[job_id];
        let p = &mut entry.partial;
        let mut elapsed = Duration::ZERO;
        if let Some((start, finish)) = p.window {
            elapsed = finish.duration_since(start);
        }
        let m = crate::metrics::rt();
        if let Some((start, _)) = p.window {
            m.queue_wait_seconds
                .observe(start.duration_since(entry.submitted_at).as_secs_f64());
        }
        m.active_seconds.observe(elapsed.as_secs_f64());
        m.jobs_completed.with(&["ok"]).inc();
        let secs = elapsed.as_secs_f64();
        entry.final_result = Some(JobResult {
            name: entry.job.name.clone(),
            shots: entry.job.shots,
            // Moved, not copied: once `final_result` is set, snapshots
            // read it and nothing reads the partial histogram again.
            histogram: std::mem::take(&mut p.histogram),
            stats: p.stats,
            mean_prob1: p.mean_prob1(),
            latency: std::mem::take(&mut p.latency),
            elapsed,
            shots_per_sec: if secs > 0.0 {
                entry.job.shots as f64 / secs
            } else {
                0.0
            },
            window: p.window,
            non_halted: p.non_halted,
            first_failure: p.first_failure.clone(),
        });
        self.terminal(job_id);
    }

    // -- write-ahead journal hooks ------------------------------------
    //
    // Every hook is a no-op on an in-memory queue, and never more than
    // building a payload plus one channel send under the mutex — the
    // file write and fsync happen on the journal thread.

    /// Appends `job_id`'s `Admit` record and starts its durable
    /// ledger.
    fn journal_admit(&mut self, job_id: usize) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let entry = &self.jobs[job_id];
        let tenant = self.tenants[entry.tenant].id.as_str();
        match journal::admit_payload(job_id as u64, tenant, &entry.job) {
            Ok(payload) => {
                let len = journal::framed_len(&payload);
                journal.append(payload.clone());
                self.jobs[job_id].durable = Some(DurableJob {
                    admit: payload,
                    ranges: Vec::new(),
                });
                self.journal_appended += len;
                self.journal_live += len;
            }
            // An unencodable job cannot be made durable, but it can
            // still run; a crash would simply lose it. Encoding only
            // fails on programs the wire codec cannot represent, which
            // the submission paths never produce.
            Err(e) => eprintln!("eqasm journal: cannot encode Admit for job {job_id}: {e}"),
        }
    }

    /// Appends a pre-encoded `RangeDone` record for `job_id`.
    fn journal_range_done(&mut self, job_id: usize, payload: Vec<u8>) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let len = journal::framed_len(&payload);
        journal.append(payload.clone());
        if let Some(durable) = &mut self.jobs[job_id].durable {
            durable.ranges.push(payload);
        }
        self.journal_appended += len;
        self.journal_live += len;
    }

    /// Records `job_id`'s terminal transition — success, failure,
    /// mass-fail: counts it toward completed retention, appends its
    /// `Complete` record, drops its durable ledger, and compacts when
    /// the journal has grown enough. Called *before* anyone could
    /// observe the job as done, so recovery can never resurrect a job
    /// whose result was already surfaced.
    fn terminal(&mut self, job_id: usize) {
        self.jobs.finished.insert(job_id);
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let payload = journal::complete_payload(job_id as u64);
        self.journal_appended += journal::framed_len(&payload);
        journal.append(payload);
        if let Some(durable) = self.jobs[job_id].durable.take() {
            let retained = journal::framed_len(&durable.admit)
                + durable
                    .ranges
                    .iter()
                    .map(|r| journal::framed_len(r))
                    .sum::<u64>();
            self.journal_live = self.journal_live.saturating_sub(retained);
        }
        self.maybe_compact();
    }

    /// Compacts once the bytes appended since the last compaction
    /// exceed both the configured floor and twice the live state — the
    /// classic amortization: each compaction pays for at most half the
    /// writing since the previous one, so journal size stays O(live
    /// state) with O(1) amortized rewrite cost per append.
    fn maybe_compact(&mut self) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let threshold = self.journal_compact_min.max(2 * self.journal_live + 4096);
        if self.journal_appended <= threshold {
            return;
        }
        let mut payloads = Vec::new();
        let mut live_jobs = 0u64;
        for entry in self.jobs.slots.iter().flatten() {
            if let Some(durable) = &entry.durable {
                live_jobs += 1;
                payloads.push(durable.admit.clone());
                payloads.extend(durable.ranges.iter().cloned());
            }
        }
        journal.compact(payloads, live_jobs, self.jobs.next_id() as u64);
        self.journal_appended = 0;
    }

    /// Re-admits one incomplete job from journal replay: recorded
    /// ranges fold immediately (no re-execution), only missing ranges
    /// re-enter the dispatch queue, and the fresh journal generation
    /// gets the job's `Admit`/`RangeDone` records re-emitted (recovery
    /// doubles as compaction). Returns the job id and how many ranges
    /// were restored.
    ///
    /// Batch boundaries are recomputed from the current configuration;
    /// if the recorded ranges do not match (the operator changed
    /// `--batch-size` across the restart), the recorded results are
    /// discarded and the whole job re-runs — partitioning is pure, so
    /// either way the final aggregates are bit-identical to an
    /// uninterrupted run.
    fn enqueue_recovered_job(
        &mut self,
        tenant: usize,
        job: Job,
        mut done: BTreeMap<usize, (std::ops::Range<u64>, BatchOut)>,
    ) -> (usize, usize) {
        let batch = self
            .config
            .batch_size
            .unwrap_or_else(|| default_batch_size(job.shots))
            .max(1);
        let ranges = partition_shots(job.shots, batch);
        if !done
            .iter()
            .all(|(b, (range, _))| ranges.get(*b) == Some(range))
        {
            done.clear();
        }
        let job_id = self.jobs.push(JobEntry::new(job, tenant, ranges.len()));
        self.journal_admit(job_id);
        for (b, range) in ranges.iter().enumerate() {
            if done.contains_key(&b) {
                continue;
            }
            self.quantum_unit = self.quantum_unit.max(range.end - range.start);
            self.tenants[tenant].pending_shots += range.end - range.start;
            self.tenants[tenant].queue.push_back(PendingBatch {
                job: job_id,
                batch: b,
                range: range.clone(),
                failed_on: Vec::new(),
            });
            self.pending += 1;
        }
        self.tenants[tenant].sync_gauges();
        self.sync_depth();
        let restored = done.len();
        let now = Instant::now();
        let m = crate::metrics::rt();
        for (b, (range, out)) in done {
            let cost = range.end - range.start;
            let shots = out.shots();
            self.journal_range_done(
                job_id,
                journal::range_done_payload(job_id as u64, b as u32, &range, &out),
            );
            self.jobs[job_id].partial.absorb(TaggedBatch {
                job: job_id,
                batch: b,
                out,
                started_at: now,
                finished_at: now,
            });
            self.tenants[tenant].shots_done += cost;
            m.batches_folded.inc();
            m.shots_completed.add(shots);
        }
        let entry = &self.jobs[job_id];
        if entry.partial.folded == entry.batches_total && !entry.done() {
            self.finalize(job_id);
        }
        (job_id, restored)
    }

    /// A snapshot of `job_id` at this instant. Percentiles come from
    /// the prefix's latency histogram in O(buckets), cheap enough to
    /// compute under the queue mutex. A released job reports done,
    /// failed with [`RELEASED`], and nothing else.
    fn snapshot(&self, job_id: usize, now: Instant) -> PartialResult {
        let Some(entry) = self.jobs.get(job_id) else {
            return PartialResult {
                done: true,
                failed: Some(RELEASED.to_owned()),
                ..PartialResult::default()
            };
        };
        let p = &entry.partial;
        let queue_wait = match p.window {
            Some((start, _)) => start.duration_since(entry.submitted_at),
            None => now.duration_since(entry.submitted_at),
        };
        let active = match p.window {
            Some((start, finish)) => finish.duration_since(start),
            None => Duration::ZERO,
        };
        if let Some(final_result) = &entry.final_result {
            return PartialResult {
                name: final_result.name.clone(),
                tenant: self.tenants[entry.tenant].id.clone(),
                shots_done: final_result.shots,
                shots_total: final_result.shots,
                batches_done: entry.batches_total,
                batches_total: entry.batches_total,
                histogram: final_result.histogram.clone(),
                stats: final_result.stats,
                mean_prob1: final_result.mean_prob1.clone(),
                latency: final_result.latency.stats(),
                non_halted: final_result.non_halted,
                done: true,
                failed: None,
                queue_wait,
                active,
            };
        }
        PartialResult {
            name: entry.job.name.clone(),
            tenant: self.tenants[entry.tenant].id.clone(),
            shots_done: p.shots_done,
            shots_total: entry.job.shots,
            batches_done: p.folded,
            batches_total: entry.batches_total,
            histogram: p.histogram.clone(),
            stats: p.stats,
            mean_prob1: p.mean_prob1(),
            latency: p.latency.stats(),
            non_halted: p.non_halted,
            done: entry.done(),
            failed: entry.failed.clone(),
            queue_wait,
            active,
        }
    }
}

/// Shared between the queue handle, its workers and job handles.
struct Shared {
    state: Mutex<QueueState>,
    /// Every live job's shape, interned at wire decode, admission and
    /// recovery. Behind its own lock so a new shape is never decoded
    /// under the dispatch mutex.
    shapes: Mutex<ShapeTable>,
    /// Workers wait here for dispatchable batches.
    work_ready: Condvar,
    /// Pollers wait here for job completion.
    progress: Condvar,
    shutdown: AtomicBool,
    /// Whether this queue journals (fixed at construction). Dispatch
    /// threads read it to decide whether to pre-encode `RangeDone`
    /// payloads outside the queue mutex.
    journaled: bool,
    /// An optional event-driven progress listener, fired (outside the
    /// state mutex) wherever [`Shared::notify_progress`] wakes the
    /// `progress` condvar. The serve reactor installs a self-pipe
    /// wake here so the fold step *pushes* advanced prefixes to
    /// subscribers instead of N streams polling `progress_probe` on a
    /// timer. Wakes may be spurious or coalesced — the listener
    /// re-probes, exactly like a condvar waiter.
    progress_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Shared {
    /// Frees terminal jobs `ids` once their `Complete` records are
    /// durable — else recovery could re-run a job whose result was
    /// already surfaced and dropped. One flush, outside the queue mutex
    /// (an fsync under it would stall every worker), covers all `ids`;
    /// unconfirmed, nothing is freed and `None` returned. Otherwise
    /// returns how many entries this call freed.
    fn release(&self, journal: Option<JournalHandle>, ids: &[usize]) -> Option<usize> {
        if ids.is_empty() {
            return Some(0);
        }
        if let Some(journal) = journal {
            if !journal.flush() {
                eprintln!(
                    "eqasm journal: flush not confirmed; keeping {} finished job(s) \
                     until their Complete records are durable",
                    ids.len()
                );
                return None;
            }
        }
        let mut state = self.state.lock().expect("queue state poisoned");
        let freed: Vec<Box<JobEntry>> = ids
            .iter()
            .filter_map(|&id| state.jobs.release(id))
            .collect();
        drop(state); // the results drop outside the lock
        Some(freed.len())
    }

    /// Wakes everything waiting on job progress: condvar pollers
    /// in-process, and the registered progress hook (the serve
    /// reactor), if any.
    fn notify_progress(&self) {
        self.progress.notify_all();
        let hook = self
            .progress_hook
            .lock()
            .expect("progress hook poisoned")
            .clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// A polling handle to one queued job.
#[derive(Clone)]
pub struct JobHandle {
    shared: Arc<Shared>,
    /// The job's id in the queue's job table.
    pub(crate) job: usize,
}

impl JobHandle {
    /// The current [`PartialResult`] snapshot — callable at any time,
    /// including after completion.
    pub fn snapshot(&self) -> PartialResult {
        let now = Instant::now();
        let state = self.shared.state.lock().expect("queue state poisoned");
        state.snapshot(self.job, now)
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state.jobs.get(self.job).is_none_or(JobEntry::done)
    }

    /// Cheap progress probe: `(folded batches, done)` without
    /// materializing a snapshot. A poller deciding *whether* anything
    /// changed must not pay for histogram clones and percentile sorts
    /// on every tick — the serve front door's subscription streamer
    /// polls this and takes a full [`JobHandle::snapshot`] only when
    /// the prefix actually advanced.
    pub fn progress_probe(&self) -> (usize, bool) {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state
            .jobs
            .get(self.job)
            .map_or((0, true), |e| (e.partial.folded, e.done()))
    }

    /// Releases a **completed** job: its entry — shape reference,
    /// histogram, stats, final result — leaves the queue's job table,
    /// and later polls and `wait` report a typed "released" service
    /// failure. Returns `false`, releasing nothing, while the job is
    /// still running, or when the journal could not confirm the job's
    /// `Complete` record durable (the record must reach the disk
    /// before the result is dropped, or recovery could re-run a job
    /// whose result was already surfaced); `true` once it is released.
    ///
    /// The serve front door releases finished jobs beyond its
    /// completed-retention window itself; this is the in-process way to
    /// bound per-job memory. Irreversible — only call it when no holder
    /// still wants the result.
    pub fn release(&self) -> bool {
        let journal = {
            let state = self.shared.state.lock().expect("queue state poisoned");
            match state.jobs.get(self.job) {
                None => return true,
                Some(entry) if !entry.done() => return false,
                Some(_) => state.journal.clone(),
            }
        };
        self.shared.release(journal, &[self.job]).is_some()
    }

    /// Blocks until the job completes and returns its final result —
    /// bit-identical to [`crate::ShotEngine::run_job`] on the same
    /// job.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Service`] if the job's program failed to load
    /// on a worker, or if the queue shut down before the job finished.
    pub fn wait(&self) -> Result<JobResult, RuntimeError> {
        let mut state = self.shared.state.lock().expect("queue state poisoned");
        loop {
            let Some(entry) = state.jobs.get(self.job) else {
                return Err(RuntimeError::Service(RELEASED.to_owned()));
            };
            if let Some(message) = &entry.failed {
                return Err(RuntimeError::Service(message.clone()));
            }
            if let Some(final_result) = &entry.final_result {
                return Ok(final_result.clone());
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(RuntimeError::Service(format!(
                    "queue shut down before job `{}` completed",
                    entry.job.name
                )));
            }
            state = self
                .shared
                .progress
                .wait(state)
                .expect("queue state poisoned");
        }
    }
}

/// The job-queue front end: accepts [`Submission`]s, schedules their
/// shot batches across a pool of execution backends by weighted-fair
/// deficit round-robin over tenants, and exposes streaming
/// [`PartialResult`] snapshots through [`JobHandle`]s.
///
/// The pool is `Box<dyn `[`ExecBackend`]`>` slots — all local threads
/// ([`JobQueue::new`]), or any mix of local and remote workers
/// ([`JobQueue::with_backends`]). Batch-index-ordered folding makes
/// the mix invisible to results: aggregates and partial prefixes are
/// bit-identical whatever subset of the pool ran which ranges.
///
/// ## Live membership
///
/// Membership is dynamic: [`JobQueue::attach_backend`] adds a slot to
/// the *running* pool (its dispatch thread starts pulling batches
/// immediately), [`JobQueue::detach_backend`] drains one cleanly, and
/// slots that keep failing retire on their own. Because results fold
/// strictly in batch-index order, attach/detach/retire churn is
/// invisible to aggregates and to every [`PartialResult`] prefix —
/// only wall-clock changes. [`JobQueue::pool_status`] reports every
/// slot's lifecycle state ([`SlotState`]).
///
/// Dropping the queue shuts the pool down; jobs still queued or
/// running at that point report [`RuntimeError::Service`] from
/// [`JobHandle::wait`].
pub struct JobQueue {
    shared: Arc<Shared>,
    /// Joined on shutdown. Behind a mutex so [`JobQueue::shutdown`]
    /// can take `&self` — the flag and condvars already do — and so
    /// [`JobQueue::attach_backend`] can grow the pool mid-run.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The journal thread (journal mode only), joined at shutdown
    /// after the workers.
    journal_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// Starts a queue with `config.workers` local execution slots
    /// (`0` = the machine's available parallelism).
    pub fn new(config: ServeConfig) -> Self {
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let backends = (0..worker_count)
            .map(|i| {
                Box::new(LocalBackend::new(i).with_policy(config.policy)) as Box<dyn ExecBackend>
            })
            .collect();
        JobQueue::with_backends(config, backends)
    }

    /// Starts a queue over an explicit backend pool — the cross-host
    /// constructor. Each backend is one dispatch slot driven by its
    /// own thread; an empty pool is upgraded to one local slot (a
    /// queue with no way to execute would hang every submission)
    /// unless [`ServeConfig::hold_when_empty`] says capacity will be
    /// attached later.
    pub fn with_backends(config: ServeConfig, backends: Vec<Box<dyn ExecBackend>>) -> Self {
        JobQueue::build(config, backends, None, None)
    }

    /// The common constructor behind [`JobQueue::with_backends`] and
    /// [`JobQueue::recover`].
    fn build(
        config: ServeConfig,
        mut backends: Vec<Box<dyn ExecBackend>>,
        journal: Option<(JournalHandle, u64)>,
        journal_thread: Option<std::thread::JoinHandle<()>>,
    ) -> Self {
        if backends.is_empty() && !config.hold_when_empty {
            backends.push(Box::new(LocalBackend::new(0).with_policy(config.policy)));
        }
        let mut state = QueueState::new(config);
        let journaled = journal.is_some();
        if let Some((handle, compact_min)) = journal {
            state.journal = Some(handle);
            state.journal_compact_min = compact_min;
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            shapes: Mutex::new(ShapeTable::default()),
            work_ready: Condvar::new(),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            journaled,
            progress_hook: Mutex::new(None),
        });
        let queue = JobQueue {
            shared,
            workers: Mutex::new(Vec::new()),
            journal_thread: Mutex::new(journal_thread),
        };
        for backend in backends {
            queue
                .attach_backend(backend)
                .expect("spawn initial serve worker");
        }
        queue
    }

    /// Starts a **durable** queue: replays the write-ahead journal in
    /// `journal_config.dir` (empty or missing is a cold start),
    /// re-admits every incomplete job **at its pre-crash id** with its
    /// already-folded ranges restored — only missing ranges
    /// re-dispatch — and journals everything from here on. Ids of
    /// completed (or compacted-away) jobs come back released: the job
    /// table holds no entry for them, they answer "released", a
    /// pre-crash id never resolves to a different job after restart,
    /// and new submissions continue above the pre-crash high-water
    /// mark. Final aggregates of recovered jobs are bit-identical to an
    /// uninterrupted run: partitioning is pure, recorded ranges carry
    /// their exact `BatchOut`, and the fold is batch-index-ordered
    /// either way.
    ///
    /// Recovery doubles as compaction: the surviving state is
    /// re-emitted into a fresh checkpointed segment, flushed, and the
    /// old segments are deleted (a crash in between is safe — the
    /// checkpoint supersedes them on the next replay).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Journal`] when the journal directory cannot be
    /// opened or holds corrupt (not merely torn) segments. A torn
    /// final record — the normal residue of `kill -9` — recovers
    /// cleanly and is only noted in the [`RecoveryReport`].
    pub fn recover(
        config: ServeConfig,
        backends: Vec<Box<dyn ExecBackend>>,
        journal_config: &JournalConfig,
    ) -> Result<(Self, RecoveryReport), RuntimeError> {
        let replay = journal::replay_dir(&journal_config.dir)?;
        let journal = journal::spawn(journal_config, replay.next_segment, replay.next_job_id)?;
        let handle = journal.handle;
        let queue = JobQueue::build(
            config,
            backends,
            Some((handle.clone(), journal_config.compact_min_bytes)),
            Some(journal.thread),
        );
        let mut report = RecoveryReport {
            segments_replayed: replay.segments.len(),
            records_replayed: replay.records,
            torn_tail: replay.torn_tail,
            ..RecoveryReport::default()
        };
        // Every recovered job already shares its shape through the
        // replay's table, which the queue keeps interning into.
        *queue.shared.shapes.lock().expect("shape table poisoned") = replay.shapes;
        {
            let mut state = queue.shared.state.lock().expect("queue state poisoned");
            // Clients hold these ids (the wire id is the id + 1), so
            // replay reconstructs the id space exactly: an incomplete job resumes at its
            // recorded id, and every other id below the journal's
            // high-water mark — completed, or compacted away — is
            // issued as released, so a client's pre-crash
            // `status --job N` can never resolve to a different job.
            for (id, recovered) in replay.jobs {
                if recovered.completed {
                    report.jobs_dropped += 1;
                    continue;
                }
                state.jobs.release_below(id as usize);
                let tenant = state.tenant_slot(&TenantId::new(recovered.tenant));
                let (job_id, restored) =
                    state.enqueue_recovered_job(tenant, recovered.job, recovered.done);
                debug_assert_eq!(
                    job_id as u64, id,
                    "recovered job must keep its pre-crash id"
                );
                report.jobs_recovered += 1;
                report.ranges_recovered += restored;
            }
            state.jobs.release_below(replay.next_job_id as usize);
        }
        queue.shared.work_ready.notify_all();
        queue.shared.notify_progress();
        // The fresh generation must be durable before the old one is
        // retired — this flush is what makes deleting the replayed
        // segments safe. Unconfirmed (wedged journal thread, stalled
        // disk): keep them. If the fresh checkpoint did land, it
        // supersedes them on the next replay; if not, they are still
        // the only durable copy of the recovered state.
        if handle.flush() {
            for path in &replay.segments {
                let _ = std::fs::remove_file(path);
            }
        } else if !replay.segments.is_empty() {
            eprintln!(
                "eqasm journal: recovery flush not confirmed; \
                 keeping {} replayed segment(s) for the next restart",
                replay.segments.len()
            );
        }
        let m = crate::metrics::rt();
        m.journal_recovered_jobs.add(report.jobs_recovered as u64);
        m.journal_recovered_ranges
            .add(report.ranges_recovered as u64);
        Ok((queue, report))
    }

    /// A [`JobHandle`] for every id the queue has issued — running,
    /// completed, failed and released — in id order. How a recovery
    /// caller reaches re-admitted jobs, which have no pre-crash
    /// handles. A released id's handle `wait`s to an error.
    pub fn job_handles(&self) -> Vec<JobHandle> {
        let state = self.shared.state.lock().expect("queue state poisoned");
        (0..state.jobs.next_id())
            .map(|job| JobHandle {
                shared: Arc::clone(&self.shared),
                job,
            })
            .collect()
    }

    /// The handle of job `id`, or why there is none.
    pub(crate) fn lookup(&self, id: usize) -> Result<JobHandle, NoJob> {
        let state = self.shared.state.lock().expect("queue state poisoned");
        if state.jobs.get(id).is_some() {
            Ok(JobHandle {
                shared: Arc::clone(&self.shared),
                job: id,
            })
        } else if id < state.jobs.next_id() {
            Err(NoJob::Released)
        } else {
            Err(NoJob::Unknown)
        }
    }

    /// Releases the oldest finished jobs beyond `retention` — how many
    /// finished jobs stay addressable — skipping the ids `keep` names
    /// (the serve front door keeps the jobs it is streaming). One
    /// journal flush, made before anything is freed, makes the whole
    /// sweep's `Complete` records durable; if it is not confirmed,
    /// nothing is released and the next sweep retries.
    pub(crate) fn release_completed(&self, retention: usize, keep: impl Fn(usize) -> bool) {
        let (journal, ids) = {
            let state = self.shared.state.lock().expect("queue state poisoned");
            let excess = state.jobs.finished.len().saturating_sub(retention);
            let finished = state.jobs.finished.iter().copied();
            let ids: Vec<usize> = finished.filter(|&id| !keep(id)).take(excess).collect();
            (state.journal.clone(), ids)
        };
        if let Some(freed) = self.shared.release(journal, &ids) {
            crate::metrics::rt().retention_evictions.add(freed as u64);
        }
    }

    /// Decodes a wire `SUBMIT` payload, interning its job's shape in
    /// the queue's shape table: a shape the queue already holds is not
    /// decoded again.
    pub(crate) fn decode_submission(&self, payload: &[u8]) -> Result<Submission, WireError> {
        let mut shapes = self.shared.shapes.lock().expect("shape table poisoned");
        crate::wire::decode_submission_interned(payload, &mut shapes)
    }

    /// Installs (or, with `None`, clears) the progress listener fired
    /// on every fold/completion/failure notification. One listener —
    /// the serve reactor's self-pipe wake — replaces N subscription
    /// poll loops; wakes are coalesced and may be spurious, so the
    /// listener re-probes what actually advanced.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))] // reactor-only
    pub(crate) fn set_progress_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        *self
            .shared
            .progress_hook
            .lock()
            .expect("progress hook poisoned") = hook;
    }

    /// Attaches a new execution slot to the **running** pool: the
    /// backend gets a fresh slot id and a dispatch thread that starts
    /// pulling batches immediately — mid-job attach is the whole
    /// point. Returns the slot id (usable with
    /// [`JobQueue::detach_backend`] and visible in
    /// [`JobQueue::pool_status`]).
    ///
    /// Safe at any time: batch-index-ordered folding keeps results
    /// bit-identical no matter when capacity arrives. Attaching to a
    /// queue that already shut down parks the slot as `Retired`
    /// without running anything.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Service`] when the dispatch thread cannot be
    /// spawned (transient thread/fd pressure). The pool is left
    /// exactly as it was — the provisional slot is retired, never
    /// counted live — so a supervisor can simply retry on its next
    /// sweep instead of crashing the coordinator.
    pub fn attach_backend(&self, backend: Box<dyn ExecBackend>) -> Result<usize, RuntimeError> {
        let descriptor = backend.descriptor();
        let slot_id = {
            let mut state = self.shared.state.lock().expect("queue state poisoned");
            state.add_slot(descriptor)
        };
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("eqasm-serve-{slot_id}"))
            .spawn(move || backend_loop(&shared, backend, slot_id));
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // Roll the slot back out of the live count; the id
                // stays burned (ids are never reused) and shows up as
                // Retired in pool_status.
                let mut state = self.shared.state.lock().expect("queue state poisoned");
                state.retire_slot(slot_id);
                drop(state);
                self.shared.notify_progress();
                return Err(RuntimeError::Service(format!(
                    "cannot spawn dispatch thread for slot {slot_id}: {e}"
                )));
            }
        };
        self.workers
            .lock()
            .expect("worker list poisoned")
            .push(handle);
        // The new slot may be the capacity a held-when-empty pool was
        // waiting for; pollers learn nothing new, but waking them is
        // harmless.
        self.shared.work_ready.notify_all();
        Ok(slot_id)
    }

    /// Drains and retires slot `slot_id`: the slot finishes the batch
    /// it is currently running (if any), takes no new work, and its
    /// thread exits. Returns immediately — watch
    /// [`JobQueue::pool_status`] for the transition to
    /// [`SlotState::Retired`]. No work is lost, and results are
    /// unaffected (the fold is placement-blind).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Service`] if `slot_id` was never attached or
    /// the slot is already draining or retired.
    pub fn detach_backend(&self, slot_id: usize) -> Result<(), RuntimeError> {
        {
            let mut state = self.shared.state.lock().expect("queue state poisoned");
            let Some(slot) = state.slots.get_mut(slot_id) else {
                return Err(RuntimeError::Service(format!(
                    "cannot detach slot {slot_id}: no such slot"
                )));
            };
            if slot.state != SlotState::Active {
                return Err(RuntimeError::Service(format!(
                    "cannot detach slot {slot_id}: already {}",
                    slot.state
                )));
            }
            slot.state = SlotState::Draining;
            state.sync_slot_gauges();
        }
        // The slot may be parked waiting for work; wake it so the
        // drain completes promptly even on an idle queue.
        self.shared.work_ready.notify_all();
        Ok(())
    }

    /// Every slot ever attached — active, draining and retired — in
    /// attach order, with failure counters and lifetime batch counts.
    pub fn pool_status(&self) -> Vec<SlotStatus> {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state.pool_status()
    }

    /// The number of live (non-retired) execution slots right now.
    pub fn workers(&self) -> usize {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state.live
    }

    /// Descriptors of the live (non-retired) slots, in attach order.
    pub fn backends(&self) -> Vec<BackendDescriptor> {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state
            .slots
            .iter()
            .filter(|s| s.state != SlotState::Retired)
            .map(|s| s.descriptor.clone())
            .collect()
    }

    /// Sets (or updates) a tenant's scheduling weight and
    /// in-flight-shot quota. Weight is clamped to at least 1 — a
    /// zero-weight tenant would starve forever without any signal.
    /// The quota bounds *concurrent* in-flight shots but never blocks
    /// a tenant with nothing in flight, so a quota smaller than one
    /// batch (even 0) throttles to serial execution instead of
    /// hanging the tenant's jobs.
    pub fn register_tenant(&self, id: impl Into<TenantId>, weight: u32, quota: u64) {
        let id = id.into();
        let mut state = self.shared.state.lock().expect("queue state poisoned");
        let slot = state.tenant_slot(&id);
        state.tenants[slot].weight = weight.max(1);
        state.tenants[slot].quota = quota;
    }

    /// Sets (or updates) a tenant's pending-shot admission cap,
    /// overriding [`ServeConfig::pending_cap`] for this tenant. The
    /// cap bounds *queued-but-not-started* shots: work already
    /// dispatched is unaffected, and a lowered cap only applies to
    /// future submissions.
    pub fn set_pending_cap(&self, id: impl Into<TenantId>, cap: u64) {
        let id = id.into();
        let mut state = self.shared.state.lock().expect("queue state poisoned");
        let slot = state.tenant_slot(&id);
        state.tenants[slot].pending_cap = cap;
    }

    /// Accepts a submission and returns one [`JobHandle`] per job it
    /// expands to: exactly one for a [`Submission::job`], the spec's
    /// `weight` instances for a [`Submission::workload`] (all sharing
    /// one cached program build).
    ///
    /// # Errors
    ///
    /// Propagates spec/build failures, and rejects the whole
    /// submission with [`RuntimeError::AdmissionRejected`] when the
    /// tenant's queued-but-not-started shots plus this submission
    /// would exceed its pending cap (admission is all-or-nothing: a
    /// spec never enqueues a partial instance set). Nothing is
    /// enqueued on error.
    pub fn submit(
        &self,
        submission: impl Into<Submission>,
    ) -> Result<Vec<JobHandle>, RuntimeError> {
        let submission = submission.into();
        // Program builds (assembly + emission) can be expensive, so
        // they never run under the queue mutex — a cache miss would
        // otherwise stall every worker, completion and poller for the
        // build's duration. Double-checked: peek the cache, build
        // unlocked, then insert (first build wins a race).
        let mut jobs = match submission.work {
            Work::Job(job) => vec![*job],
            Work::Spec(spec) => {
                let key = CacheKey::of(&spec.kind);
                let cached = {
                    let mut state = self.shared.state.lock().expect("queue state poisoned");
                    state.cache.lookup(&key)
                };
                let built = match cached {
                    Some(built) => built,
                    None => {
                        let fresh = Arc::new(spec.kind.build()?);
                        let mut state = self.shared.state.lock().expect("queue state poisoned");
                        state.cache.insert(key, fresh)
                    }
                };
                (0..spec.weight.max(1))
                    .map(|i| spec.instance_with_program(i, built.0.clone(), built.1.clone()))
                    .collect::<Result<Vec<Job>, RuntimeError>>()?
            }
        };
        let mut shapes = self.shared.shapes.lock().expect("shape table poisoned");
        jobs.iter_mut()
            .for_each(|job| job.shape = shapes.intern(&job.shape));
        drop(shapes);
        let requested: u64 = jobs.iter().fold(0u64, |acc, j| acc.saturating_add(j.shots));
        let mut state = self.shared.state.lock().expect("queue state poisoned");
        let tenant = state.tenant_slot(&submission.tenant);
        state.admit(tenant, requested)?;
        let mut handles = Vec::with_capacity(jobs.len());
        for job in jobs {
            let job_id = state.enqueue_job(tenant, job);
            handles.push(JobHandle {
                shared: Arc::clone(&self.shared),
                job: job_id,
            });
        }
        drop(state);
        self.shared.work_ready.notify_all();
        self.shared.notify_progress();
        Ok(handles)
    }

    /// Program-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state.cache.stats()
    }

    /// Completed shots per tenant, in registration order — the
    /// fairness ledger the scheduler is balancing.
    pub fn tenant_progress(&self) -> Vec<(TenantId, u64)> {
        let state = self.shared.state.lock().expect("queue state poisoned");
        state
            .tenants
            .iter()
            .map(|t| (t.id.clone(), t.shots_done))
            .collect()
    }

    /// Stops the workers. Jobs not yet finished stay unfinished;
    /// their handles report a service error from [`JobHandle::wait`].
    ///
    /// Takes `&self`: the flag and condvars already live behind the
    /// shared `Arc`, so a queue cloned into handles or shared across
    /// threads can be shut down without exclusive ownership —
    /// consistent with every other method on the pool API. Safe to
    /// call more than once; later calls are no-ops.
    pub fn shutdown(&self) {
        {
            // The flag must flip while holding the state mutex:
            // workers and pollers check it under the lock before
            // parking on a condvar, so an unlocked store could land in
            // the window between their check and their `wait()` — the
            // notification below would then precede the park and the
            // thread would sleep forever (a lost wakeup).
            let _state = self.shared.state.lock().expect("queue state poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        self.shared.notify_progress();
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // Workers are gone, so nothing appends anymore: flush and stop
        // the journal thread, then join it.
        // Taken, not cloned: a second call (`Drop` after an explicit
        // `shutdown()`) finds no journal instead of asking a stopped
        // thread for a flush it can no longer confirm.
        let journal = {
            let mut state = self.shared.state.lock().expect("queue state poisoned");
            state.journal.take()
        };
        if let Some(journal) = journal {
            if !journal.shutdown() {
                eprintln!("eqasm journal: final flush at shutdown not confirmed durable");
            }
        }
        let journal_thread = self
            .journal_thread
            .lock()
            .expect("journal thread slot poisoned")
            .take();
        if let Some(handle) = journal_thread {
            let _ = handle.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A backend retires after this many *consecutive* transport failures
/// — it is presumed dead, and keeping it in the ring would burn one
/// retry per batch it touches.
const BACKEND_FAILURE_LIMIT: u32 = 3;

/// One dispatch slot: pull a batch under the lock, run it on this
/// slot's backend outside the lock, fold the result back in.
///
/// Failure handling: a transport error requeues the batch for
/// re-dispatch (preferring other backends) and counts against this
/// slot's health; any other error is a property of the *job* (program
/// validation) and fails it. A slot that fails
/// [`BACKEND_FAILURE_LIMIT`] times in a row retires from the pool.
///
/// Lifecycle: the slot honours [`JobQueue::detach_backend`] by
/// checking its own [`SlotState`] at every pick — a `Draining` slot
/// retires instead of taking new work (the batch it just finished has
/// already folded), so a drain never loses or duplicates a batch.
fn backend_loop(shared: &Shared, mut backend: Box<dyn ExecBackend>, slot_id: usize) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("queue state poisoned");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    // Queue shutdown: mark the slot retired for
                    // status readers, but skip the fail-outstanding
                    // path — `wait()` already reports shutdown.
                    if state.slots[slot_id].state != SlotState::Retired {
                        state.slots[slot_id].state = SlotState::Retired;
                        state.live -= 1;
                        crate::metrics::rt().slot_retirements.inc();
                        state.sync_slot_gauges();
                    }
                    return;
                }
                if state.slots[slot_id].state == SlotState::Draining {
                    state.retire_slot(slot_id);
                    drop(state);
                    // Retirement may have failed jobs (empty pool
                    // without hold_when_empty) that pollers wait on.
                    shared.notify_progress();
                    return;
                }
                if let Some(task) = state.next_task(slot_id) {
                    break task;
                }
                state = shared.work_ready.wait(state).expect("queue state poisoned");
            }
        };

        // The batch itself runs outside the queue lock — on a local
        // backend this is the machine loop, on a remote one the full
        // request/response round trip.
        match backend.run_range(&task.job, task.range.clone()) {
            Ok(out) => {
                let started_at = Instant::now()
                    .checked_sub(Duration::from_nanos(out.elapsed_ns))
                    .unwrap_or_else(Instant::now);
                let tagged = TaggedBatch {
                    job: task.job_id,
                    batch: task.batch,
                    out,
                    started_at,
                    finished_at: Instant::now(),
                };
                // Journal mode: encode the RangeDone record here,
                // outside the queue mutex — the payload embeds the
                // full BatchOut, and serializing that under the lock
                // would stall every other slot.
                let journal_payload = shared.journaled.then(|| {
                    journal::range_done_payload(
                        task.job_id as u64,
                        task.batch as u32,
                        &task.range,
                        &tagged.out,
                    )
                });
                let mut state = shared.state.lock().expect("queue state poisoned");
                state.slots[slot_id].consecutive_failures = 0;
                state.slots[slot_id].batches_completed += 1;
                state.complete(&task, tagged, journal_payload);
                drop(state);
                // Completion both frees quota (wake workers) and may
                // have finished a job (wake pollers).
                shared.work_ready.notify_all();
                shared.notify_progress();
            }
            Err(err) if err.is_transport() => {
                let mut state = shared.state.lock().expect("queue state poisoned");
                state.slots[slot_id].consecutive_failures += 1;
                let retire = state.slots[slot_id].consecutive_failures >= BACKEND_FAILURE_LIMIT;
                state.requeue(&task, slot_id, &err.to_string());
                if retire {
                    state.retire_slot(slot_id);
                }
                drop(state);
                // The requeued batch must wake the *other* slots (this
                // one will skip it), and retirement may have failed
                // jobs pollers are waiting on.
                shared.work_ready.notify_all();
                shared.notify_progress();
                if retire {
                    return;
                }
            }
            Err(err) => {
                let mut state = shared.state.lock().expect("queue state poisoned");
                state.slots[slot_id].consecutive_failures = 0;
                state.fail(&task, err.to_string());
                drop(state);
                shared.work_ready.notify_all();
                shared.notify_progress();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny real job: active reset on the two-qubit chip.
    fn tiny_job(name: &str, shots: u64) -> Job {
        let (inst, program) = WorkloadKind::ActiveReset { init_cycles: 20 }
            .build()
            .expect("builds");
        Job::new(name, inst, program).with_shots(shots)
    }

    /// Registers `n` placeholder local slots, as `with_backends` would
    /// for an `n`-backend pool.
    fn add_local_slots(state: &mut QueueState, n: usize) {
        for i in 0..n {
            state.add_slot(LocalBackend::new(i).descriptor());
        }
    }

    /// A state with one live slot and `weights.len()` tenants, each
    /// with `batches` pending unit-cost-8 batches of one job.
    fn loaded_state(weights: &[u32], quotas: &[u64], batches: usize) -> QueueState {
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 1);
        for (i, (&w, &q)) in weights.iter().zip(quotas).enumerate() {
            let id = TenantId::new(format!("t{i}"));
            let slot = state.tenant_slot(&id);
            state.tenants[slot].weight = w;
            state.tenants[slot].quota = q;
            state.enqueue_job(slot, tiny_job(&format!("job-{i}"), 8 * batches as u64));
        }
        state
    }

    #[test]
    fn shutdown_then_drop_asks_no_stopped_journal_for_a_flush() {
        // `Drop` runs `shutdown()` again after an explicit call; the
        // second call must find no journal, or it asks the stopped
        // journal thread for a flush it cannot confirm and raises a
        // false "not confirmed durable" alarm on a clean exit.
        let dir = std::env::temp_dir().join(format!(
            "eqasm-serve-shutdown-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (queue, _) = JobQueue::recover(
            ServeConfig::default(),
            vec![Box::new(LocalBackend::new(0))],
            &JournalConfig::new(&dir),
        )
        .expect("opens the journal");
        let handle = queue
            .submit(Submission::job("t", tiny_job("j", 8)))
            .expect("submits")
            .remove(0);
        handle.wait().expect("completes");
        queue.shutdown();
        let journal = queue.shared.state.lock().unwrap().journal.clone();
        assert!(journal.is_none(), "a second shutdown must find no journal");
        drop(queue);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drr_dispatch_tracks_weights_within_tolerance() {
        // Weights 3:1, unlimited quota, completions immediate: over
        // any window the granted shot share must track the weights.
        let mut state = loaded_state(&[3, 1], &[u64::MAX, u64::MAX], 400);
        let mut granted = [0u64; 2];
        for _ in 0..400 {
            let task = state.next_task(0).expect("backlog remains");
            granted[task.tenant] += task.cost();
            // Complete immediately: quotas never bind.
            let t = &mut state.tenants[task.tenant];
            t.inflight -= task.cost();
            t.shots_done += task.cost();
        }
        let share = granted[0] as f64 / (granted[0] + granted[1]) as f64;
        assert!(
            (share - 0.75).abs() <= 0.05,
            "weight-3 tenant got {share:.3} of shots, expected 0.75 ± 0.05"
        );
    }

    #[test]
    fn drr_quota_bounds_inflight_shots() {
        // Quota of 16 shots = two 8-shot batches in flight at most.
        let mut state = loaded_state(&[1], &[16], 32);
        let a = state.next_task(0).expect("first batch fits quota");
        let b = state.next_task(0).expect("second batch fits quota");
        assert_eq!(state.tenants[0].inflight, 16);
        assert!(
            state.next_task(0).is_none(),
            "third batch must be quota-blocked"
        );
        // Completing one batch frees quota for exactly one more.
        let t = &mut state.tenants[0];
        t.inflight -= a.cost();
        t.shots_done += a.cost();
        let c = state.next_task(0).expect("freed quota readmits work");
        assert_eq!(state.tenants[0].inflight, 16);
        assert!(state.next_task(0).is_none());
        drop((b, c));
    }

    #[test]
    fn drr_quota_below_batch_cost_still_makes_progress() {
        // Regression: a quota smaller than one batch's cost (8 shots
        // here) used to block the head batch forever — wait() would
        // hang with no error. It now degrades to serial execution.
        let mut state = loaded_state(&[1], &[4], 3);
        for _ in 0..3 {
            let task = state
                .next_task(0)
                .expect("a lone batch dispatches despite a tiny quota");
            assert!(
                state.next_task(0).is_none(),
                "second batch stays blocked while one is in flight"
            );
            let t = &mut state.tenants[task.tenant];
            t.inflight -= task.cost();
            t.shots_done += task.cost();
        }
        assert!(state.next_task(0).is_none(), "queue drained");
        assert_eq!(state.tenants[0].shots_done, 24);
    }

    #[test]
    fn drr_idle_tenants_forfeit_credit() {
        let mut state = loaded_state(&[5, 1], &[u64::MAX, u64::MAX], 2);
        // Drain tenant 0 entirely; its banked deficit must reset when
        // its queue empties, not fund a future burst.
        while state.tenants[0].queue.front().is_some() {
            let task = state.next_task(0).expect("work pending");
            let t = &mut state.tenants[task.tenant];
            t.inflight -= task.cost();
            t.shots_done += task.cost();
            if task.tenant == 0 && state.tenants[0].queue.is_empty() {
                break;
            }
        }
        while state.next_task(0).is_some() {
            let t = &mut state.tenants[1];
            t.inflight = 0;
        }
        assert_eq!(state.tenants[0].deficit, 0, "idle tenant keeps no credit");
    }

    #[test]
    fn out_of_order_completion_folds_in_batch_order() {
        // Dispatch every batch, complete them in REVERSE order, and
        // check each intermediate snapshot only ever exposes the
        // contiguous prefix — then verify the final result against the
        // engine on the same job.
        let job = tiny_job("ooo", 64).with_seed(11);
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, job.clone());

        let mut tasks = Vec::new();
        while let Some(task) = state.next_task(0) {
            tasks.push(task);
        }
        assert_eq!(tasks.len(), 8);

        let mut backend = LocalBackend::new(0);
        let mut outs: Vec<TaggedBatch> = tasks
            .iter()
            .map(|t| TaggedBatch {
                job: t.job_id,
                batch: t.batch,
                out: backend.run_range(&job, t.range.clone()).expect("runs"),
                started_at: Instant::now(),
                finished_at: Instant::now(),
            })
            .collect();
        outs.reverse();
        let reversed_tasks: Vec<&DispatchedTask> = tasks.iter().rev().collect();
        for (task, out) in reversed_tasks.into_iter().zip(outs) {
            let batches_before = state.jobs[job_id].partial.folded;
            state.complete(task, out, None);
            let snap = state.snapshot(job_id, Instant::now());
            // Prefix-only: nothing folds until batch 0 arrives (last).
            if task.batch > 0 {
                assert_eq!(snap.batches_done, batches_before);
                assert_eq!(snap.shots_done, 8 * batches_before as u64);
            }
        }
        let snap = state.snapshot(job_id, Instant::now());
        assert!(snap.done);
        assert_eq!(snap.shots_done, 64);

        let engine_result = crate::ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&job)
            .expect("engine runs");
        let final_result = state.jobs[job_id].final_result.as_ref().expect("finalized");
        assert_eq!(final_result.histogram, engine_result.histogram);
        assert_eq!(final_result.stats, engine_result.stats);
        assert_eq!(final_result.mean_prob1, engine_result.mean_prob1);
    }

    #[test]
    fn finalized_job_keeps_one_histogram() {
        // The final result takes the partial histogram instead of
        // copying it; the done job's snapshot reads the final result.
        let job = tiny_job("once", 32).with_seed(5);
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, job.clone());
        let mut backend = LocalBackend::new(0);
        while let Some(task) = state.next_task(0) {
            let out = TaggedBatch {
                job: task.job_id,
                batch: task.batch,
                out: backend.run_range(&job, task.range.clone()).expect("runs"),
                started_at: Instant::now(),
                finished_at: Instant::now(),
            };
            state.complete(&task, out, None);
        }
        assert!(
            state.jobs[job_id].partial.histogram.is_empty(),
            "the partial copy is released once the job is final"
        );

        let engine_result = crate::ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&job)
            .expect("engine runs");
        let snap = state.snapshot(job_id, Instant::now());
        assert!(snap.done);
        assert_eq!(snap.shots_done, 32);
        assert_eq!(snap.histogram, engine_result.histogram);
        assert_eq!(snap.stats, engine_result.stats);
        assert_eq!(snap.mean_prob1, engine_result.mean_prob1);
    }

    #[test]
    fn admission_cap_is_a_pending_shot_ledger() {
        // Deterministic runaway-client regression (no threads): a
        // tenant may queue up to the cap, is rejected beyond it, and
        // dispatching work frees admission capacity again.
        let mut state = QueueState::new(
            ServeConfig::default()
                .with_batch_size(8)
                .with_pending_cap(24),
        );
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("runaway"));

        assert!(state.admit(slot, 16).is_ok());
        state.enqueue_job(slot, tiny_job("a", 16));
        assert_eq!(state.tenants[slot].pending_shots, 16);

        assert!(state.admit(slot, 8).is_ok(), "exactly at cap admits");
        state.enqueue_job(slot, tiny_job("b", 8));

        let err = state.admit(slot, 8).expect_err("beyond cap rejects");
        match err {
            RuntimeError::AdmissionRejected {
                tenant,
                pending_shots,
                requested_shots,
                cap,
            } => {
                assert_eq!(tenant, "runaway");
                assert_eq!(pending_shots, 24);
                assert_eq!(requested_shots, 8);
                assert_eq!(cap, 24);
            }
            other => panic!("wrong error: {other}"),
        }

        // Another tenant has its own ledger.
        let polite = state.tenant_slot(&TenantId::new("polite"));
        assert!(state.admit(polite, 24).is_ok());

        // Dispatching one batch moves 8 shots from pending to
        // in-flight: the tenant admits again.
        let task = state.next_task(0).expect("work pending");
        assert_eq!(state.tenants[slot].pending_shots, 16);
        assert!(state.admit(slot, 8).is_ok());
        drop(task);
    }

    #[test]
    fn requeued_batch_avoids_failing_backend_until_last() {
        // Two active backends: a batch that failed on backend 0 must
        // not be handed back to it while backend 1 is alive — but a
        // lone surviving backend does retry its own failures.
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 2);
        let slot = state.tenant_slot(&TenantId::new("t"));
        state.enqueue_job(slot, tiny_job("fo", 8));

        let task = state.next_task(0).expect("dispatches");
        state.requeue(&task, 0, "connection reset");
        assert_eq!(state.pending, 1);
        assert_eq!(state.tenants[slot].pending_shots, 8);

        assert!(
            state.next_task(0).is_none(),
            "failing backend must not get its batch back"
        );
        let retry = state.next_task(1).expect("other backend takes it");
        assert_eq!(retry.failed_on, [0]);

        // Backend 1 also fails it; backend 1 then retires, leaving
        // only backend 0 — which may now self-retry.
        state.requeue(&retry, 1, "connection reset");
        state.retire_slot(1);
        assert_eq!(state.live, 1);
        let last = state.next_task(0).expect("last backend self-retries");
        assert_eq!(last.failed_on, [0, 1]);
    }

    #[test]
    fn dead_backend_ping_pong_does_not_burn_retry_budget() {
        // Regression: two dead backends alternating failures on one
        // batch must not exhaust a budget a healthy third backend
        // would clear — only *distinct* failing backends count.
        let mut state = QueueState::new(
            ServeConfig::default()
                .with_batch_size(8)
                .with_max_batch_retries(3),
        );
        add_local_slots(&mut state, 3);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, tiny_job("pp", 8));

        // Backends 0 and 1 ping-pong the batch three full rounds —
        // six transport failures, but only two distinct backends.
        for _ in 0..3 {
            let a = state.next_task(0).expect("backend 0 grabs it");
            state.requeue(&a, 0, "refused");
            let b = state.next_task(1).expect("backend 1 grabs it");
            state.requeue(&b, 1, "refused");
        }
        assert!(
            !state.jobs[job_id].done(),
            "six alternating failures on two backends must not fail the job"
        );

        // The healthy backend clears it.
        let healthy = state.next_task(2).expect("healthy backend takes it");
        assert_eq!(healthy.failed_on.len(), 2, "two distinct failers recorded");
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job() {
        let mut state = QueueState::new(
            ServeConfig::default()
                .with_batch_size(8)
                .with_max_batch_retries(1),
        );
        // Budget counts distinct backends: two different backends
        // failing the batch exceed a retry budget of 1.
        add_local_slots(&mut state, 2);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, tiny_job("doomed", 8));
        let first = state.next_task(0).expect("dispatches");
        state.requeue(&first, 0, "reset");
        let second = state.next_task(1).expect("one retry allowed");
        state.requeue(&second, 1, "reset again");

        assert!(state.jobs[job_id].done(), "job failed after budget");
        assert!(state.jobs[job_id]
            .failed
            .as_deref()
            .expect("failure message")
            .contains("failed on 2 distinct backends"));
        assert_eq!(state.pending, 0, "no orphaned batches");
        assert_eq!(state.tenants[slot].pending_shots, 0);
        assert_eq!(state.tenants[slot].inflight, 0);
    }

    #[test]
    fn last_backend_retiring_fails_outstanding_jobs() {
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, tiny_job("stranded", 16));

        state.retire_slot(0);
        assert_eq!(state.live, 0);
        assert!(state.jobs[job_id].done());
        assert!(state.jobs[job_id].failed.is_some());
        assert_eq!(state.pending, 0);

        // Submissions after total pool loss fail at enqueue instead of
        // hanging their pollers.
        let late = state.enqueue_job(slot, tiny_job("late", 8));
        assert!(state.jobs[late].failed.is_some());
    }

    #[test]
    fn hold_when_empty_parks_jobs_through_an_empty_pool_window() {
        // The elastic-pool counterpart of the test above: with
        // `hold_when_empty`, total pool loss parks work instead of
        // failing it, and a freshly attached slot picks it back up.
        let mut state = QueueState::new(
            ServeConfig::default()
                .with_batch_size(8)
                .with_hold_when_empty(true),
        );
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, tiny_job("parked", 16));

        state.retire_slot(0);
        assert_eq!(state.live, 0);
        assert!(!state.jobs[job_id].done(), "job survives the empty pool");
        assert_eq!(state.pending, 2, "both batches stay queued");

        // Submissions during the empty window are accepted, not failed.
        let during = state.enqueue_job(slot, tiny_job("during", 8));
        assert!(!state.jobs[during].done());

        // A new slot (fresh id — retired ids are never reused) drains
        // the backlog.
        let new_slot = state.add_slot(LocalBackend::new(9).descriptor());
        assert_eq!(new_slot, 1);
        assert!(state.next_task(new_slot).is_some());
    }

    #[test]
    fn pool_status_reports_slot_lifecycle() {
        let mut state = QueueState::new(ServeConfig::default());
        add_local_slots(&mut state, 3);
        state.slots[1].state = SlotState::Draining;
        state.slots[1].consecutive_failures = 2;
        state.retire_slot(2);

        let status = state.pool_status();
        assert_eq!(status.len(), 3);
        assert_eq!(status[0].state, SlotState::Active);
        assert_eq!(status[1].state, SlotState::Draining);
        assert_eq!(status[1].consecutive_failures, 2);
        assert_eq!(status[2].state, SlotState::Retired);
        assert_eq!(state.live, 2);
        for (i, s) in status.iter().enumerate() {
            assert_eq!(s.slot_id, i);
        }
        // Retiring twice is a no-op, not a double-decrement.
        state.retire_slot(2);
        assert_eq!(state.live, 2);
    }

    #[test]
    fn zero_shot_jobs_complete_immediately() {
        let mut state = QueueState::new(ServeConfig::default());
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, tiny_job("empty", 0));
        let snap = state.snapshot(job_id, Instant::now());
        assert!(snap.done);
        assert_eq!(snap.shots_total, 0);
        assert_eq!(snap.progress(), 1.0);
        assert!(state.next_task(0).is_none());
    }

    /// Marks live `id` failed and terminal, as `QueueState::terminal`
    /// would.
    fn finish(table: &mut JobTable, id: usize) {
        table[id].failed = Some("done".to_owned());
        table.finished.insert(id);
    }

    #[test]
    fn job_table_holds_released_ids_as_a_range() {
        let mut table = JobTable::default();
        // Recovery of three completed ids holds nothing for them.
        table.release_below(3);
        assert_eq!((table.base, table.slots.len(), table.next_id()), (3, 0, 3));
        let ids: Vec<usize> = (0..4)
            .map(|i| table.push(JobEntry::new(tiny_job(&format!("j{i}"), 1), 0, 1)))
            .collect();
        assert_eq!(ids, [3, 4, 5, 6]);
        for id in 3..6 {
            finish(&mut table, id);
        }
        assert!(table.release(6).is_none(), "a running job stays");
        // A released id in the middle leaves an empty slot...
        assert!(table.release(4).is_some());
        assert!(table.get(4).is_none());
        assert_eq!((table.base, table.slots.len()), (3, 4));
        assert!(table.release(4).is_none(), "released once");
        // ...and releasing the front pops every released slot behind it.
        assert!(table.release(3).is_some());
        assert_eq!((table.base, table.slots.len(), table.next_id()), (5, 2, 7));
        assert!(table.get(2).is_none() && table.get(7).is_none());
        assert!(table.get(5).is_some() && table.get(6).is_some());
        assert_eq!(table.finished.iter().copied().collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn retention_sweep_releases_the_oldest_finished_jobs_it_may() {
        let queue = JobQueue::new(ServeConfig::default().with_workers(1));
        let handles: Vec<JobHandle> = (0..5)
            .map(|i| {
                queue
                    .submit(Submission::job("t", tiny_job(&format!("j{i}"), 1)))
                    .expect("submits")
                    .remove(0)
            })
            .collect();
        for h in &handles {
            h.wait().expect("completes");
        }
        // Five finished, retention two, id 0 kept: ids 1–3 go.
        queue.release_completed(2, |id| id == 0);
        assert!(queue.lookup(0).is_ok());
        for (id, handle) in handles.iter().enumerate().take(4).skip(1) {
            assert_eq!(queue.lookup(id).err(), Some(NoJob::Released));
            assert!(handle.wait().is_err());
            assert!(handle.is_done() && handle.release());
        }
        assert!(queue.lookup(4).is_ok());
        assert_eq!(queue.lookup(5).err(), Some(NoJob::Unknown));
        assert_eq!(queue.job_handles().len(), 5);
        // Releasing the kept front job frees the whole released range.
        assert!(handles[0].release());
        let state = queue.shared.state.lock().expect("queue state poisoned");
        assert_eq!((state.jobs.base, state.jobs.slots.len()), (4, 1));
    }

    /// A second `SUBMIT` of a shape the queue already holds runs the
    /// interned shape, and the front door does not decode it again.
    #[test]
    fn front_door_decodes_a_known_shape_once() {
        let queue = Arc::new(JobQueue::new(ServeConfig::default().with_workers(1)));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = crate::spawn_serve(
            listener,
            Arc::clone(&queue),
            crate::ServeNetConfig::default(),
        )
        .expect("serves");
        let client = crate::Client::connect(server.addr().to_string()).expect("connects");
        let decoded = || {
            queue
                .shared
                .shapes
                .lock()
                .expect("shape table poisoned")
                .decoded
        };
        // Built apart: each job has a shape of its own until interned.
        for (i, name) in ["first", "second"].into_iter().enumerate() {
            let job = tiny_job(name, 4).with_seed(i as u64);
            let handles = client.submit(Submission::job("t", job)).expect("submits");
            handles[0].wait().expect("completes");
            assert_eq!(decoded(), 1, "{name}: one decode, into the queue's table");
        }
        let state = queue.shared.state.lock().expect("queue state poisoned");
        assert!(Arc::ptr_eq(
            &state.jobs[0].job.shape,
            &state.jobs[1].job.shape
        ));
    }
}

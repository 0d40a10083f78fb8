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
//!   starve another's calibration loop. A slot takes a *lease* of
//!   consecutive picks under one lock and folds their results under
//!   one lock, so dispatch costs little beside microsecond batches;
//! * [`PartialResult`] — a streaming snapshot per job (histogram,
//!   machine stats, mean `P(|1⟩)`, `shots_done / shots_total`) that
//!   pollers can read at any time;
//! * **one shape per program** — every job's (instantiation, program,
//!   `SimConfig`) is interned weakly by its wire bytes, and a
//!   [`WorkloadSpec`] finds a live shape by its kind and `SimConfig`,
//!   so mixed-traffic streams build each program once while any job
//!   of it is queued, and hold nothing after;
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
//! Completed batches are folded into each job's one accumulator (the
//! crate's `Fold`, the same one [`crate::ShotEngine`] folds with)
//! strictly in batch-index order: out-of-order completions are stashed
//! until the prefix is contiguous. Snapshots, the final result and the
//! journaled `Progress` records all read that one fold, and recovery
//! seeds it with the journaled prefix. A snapshot whose `shots_done`
//! is `k` batches worth of shots is therefore **bit-identical** —
//! histogram, stats and mean-`P(|1⟩)` — to serially running just
//! those first `k` batches, and the final result is bit-identical to
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

use eqasm_microarch::RunStats;

use crate::aggregate::{Histogram, JobResult, LatencyStats};
use crate::backend::{BackendDescriptor, ExecBackend, Fold, LocalBackend, TaggedBatch};
use crate::error::RuntimeError;
use crate::job::{default_batch_size, partition_shots, Job, JobShape, ShapeTable};
use crate::journal::{self, JournalConfig, JournalHandle, RecoveryReport};
use crate::wire::WireError;
use crate::workload::WorkloadSpec;

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
/// of one shared shape), tagged with the [`TenantId`] it is accounted
/// against.
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
    /// and all instances share one job shape. An equal spec (same
    /// kind and `SimConfig`) whose jobs are still in the queue lends
    /// its shape instead of a new build.
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
    /// unit of work a tenant can be granted. A slot claims a *lease* of
    /// several batches under one lock, but each is its own
    /// deficit-round-robin pick, with credit and quota applied as if
    /// the slot had asked once per batch. Lease length — about a
    /// quarter millisecond of the slot's measured work, at most 64
    /// batches — bounds how long a granted batch waits to run and to
    /// fold.
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
///   finishes the lease (run of batches) it holds, if any, takes no new
///   work, and retires. Nothing is lost: in-flight batches complete and
///   fold normally.
/// * **Retired** — the slot's thread has exited. Retired slot ids are
///   never reused, so a worker that reconnects gets a *new* slot id
///   (which keeps per-batch distinct-backend retry accounting honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Dispatching batches.
    Active,
    /// Finishing its current lease, then retiring (clean detach).
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

/// How [`Submission::workload`] submissions found their job shape,
/// from [`JobQueue::cache_stats`]. A spec's shape is keyed by its
/// [`WorkloadKind`](crate::WorkloadKind) and `SimConfig` and held
/// weakly: it lives exactly as long as some job of it is queued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Spec submissions that reused a live shape, built for an equal
    /// spec whose jobs are still in the queue.
    pub hits: u64,
    /// Spec submissions that built their program.
    pub misses: u64,
    /// Spec keys whose shape is live now: some job of it has not been
    /// released.
    pub entries: usize,
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
    /// Time from submission until the job's first batch started. A job
    /// no batch has folded for in this process counts until this
    /// snapshot while it is live, and until it ended once it is done.
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

/// The encoded journal payloads a live job retains so compaction can
/// rewrite durable state without re-encoding (or re-reading) anything.
/// Dropped at the job's terminal transition — completed jobs take no
/// durable space, which is exactly what makes compaction shrink the
/// journal.
struct DurableJob {
    /// The job's `Admit` payload, as appended.
    admit: Vec<u8>,
    /// The job's latest `Progress` payload, if one was appended.
    progress: Option<Vec<u8>>,
    /// When the `Admit` or the latest `Progress` was appended: the
    /// next `Progress` waits until a batch finishes
    /// [`journal::PROGRESS_INTERVAL`] after this.
    journaled_at: Instant,
}

/// A job tracked by the queue.
struct JobEntry {
    /// The job, with its interned shape.
    job: Arc<Job>,
    tenant: usize,
    batches_total: usize,
    submitted_at: Instant,
    /// The job's one copy of its aggregates: snapshots, the final
    /// result and `Progress` records all read it.
    fold: Fold,
    /// When the job turned terminal (success or failure).
    ended_at: Option<Instant>,
    failed: Option<String>,
    /// Journal-mode only: this job's live journal payloads (see
    /// [`DurableJob`]); `None` once terminal or when not journaling.
    durable: Option<DurableJob>,
}

impl JobEntry {
    /// An entry for `job`, not yet started.
    fn new(job: Job, tenant: usize, batches_total: usize) -> Self {
        JobEntry {
            fold: Fold::new(&job),
            job: Arc::new(job),
            tenant,
            batches_total,
            submitted_at: Instant::now(),
            ended_at: None,
            failed: None,
            durable: None,
        }
    }

    fn done(&self) -> bool {
        self.ended_at.is_some()
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
    /// Dispatch slots parked on `work_ready`, and [`JobHandle::wait`]
    /// callers parked on `progress`. Each is counted under this mutex
    /// before its condvar wait, so a fold that sees zero may skip the
    /// notify (a syscall with std's futex condvar) without losing a
    /// wakeup: a waiter not yet counted re-checks its condition after
    /// the fold releases the lock.
    parked_slots: usize,
    parked_waiters: usize,
}

impl QueueState {
    fn new(config: ServeConfig) -> Self {
        QueueState {
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            ring_cursor: 0,
            jobs: JobTable::default(),
            pending: 0,
            quantum_unit: 1,
            slots: Vec::new(),
            live: 0,
            config,
            journal: None,
            journal_appended: 0,
            journal_live: 0,
            journal_compact_min: 0,
            parked_slots: 0,
            parked_waiters: 0,
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

    /// Claims a lease for slot `slot_id` into `lease`: successive
    /// [`QueueState::next_task`] picks, so credit, quotas and the
    /// last-failer exclusion apply to each pick exactly as if the slot
    /// had asked once per batch. The lease stops growing once it holds
    /// `shot_budget` shots or [`LEASE_MAX_BATCHES`] batches, and holds
    /// at least one batch whenever one is dispatchable.
    fn lease(&mut self, slot_id: usize, shot_budget: u64, lease: &mut Vec<DispatchedTask>) {
        let mut shots = 0u64;
        while lease.len() < LEASE_MAX_BATCHES {
            let Some(task) = self.next_task(slot_id) else {
                break;
            };
            shots += task.cost();
            lease.push(task);
            if shots >= shot_budget {
                break;
            }
        }
    }

    /// Returns a lease's unrun tail to the head of its tenants' queues,
    /// in pick order and with each batch's retry history as it was: the
    /// batches never ran, so none counts as a retry. A batch whose job
    /// ended meanwhile (failed through another batch, maybe released)
    /// only gives back its in-flight shots.
    fn unclaim(&mut self, tail: &[DispatchedTask]) {
        for task in tail.iter().rev() {
            let t = &mut self.tenants[task.tenant];
            t.inflight = t.inflight.saturating_sub(task.cost());
            if self.jobs.get(task.job_id).is_some_and(|e| !e.done()) {
                t.pending_shots += task.cost();
                t.queue.push_front(PendingBatch {
                    job: task.job_id,
                    batch: task.batch,
                    range: task.range.clone(),
                    failed_on: task.failed_on.clone(),
                });
                self.pending += 1;
            }
            t.sync_gauges();
        }
        self.sync_depth();
    }

    /// Folds a completed batch back in and finalizes the job when its
    /// last batch lands. While the job runs, a fold that advances its
    /// prefix journals it once [`journal::PROGRESS_INTERVAL`] has
    /// passed (see [`QueueState::journal_progress`]).
    fn complete(&mut self, task: &DispatchedTask, tagged: TaggedBatch) {
        let t = &mut self.tenants[task.tenant];
        t.inflight = t.inflight.saturating_sub(task.cost());
        t.shots_done += task.cost();
        t.sync_gauges();
        // A job that failed through another batch may be released
        // while this one ran; then the batch has nowhere to go.
        let Some(entry) = self.jobs.get_mut(task.job_id) else {
            return;
        };
        let finished_at = tagged.finished_at;
        let before_batches = entry.fold.folded;
        let before_shots = entry.fold.acc.shots();
        entry.fold.absorb(tagged);
        let m = crate::metrics::rt();
        m.batches_folded
            .add((entry.fold.folded - before_batches) as u64);
        m.shots_completed.add(entry.fold.acc.shots() - before_shots);
        if entry.fold.folded == entry.batches_total && !entry.done() {
            self.finalize(task.job_id);
        } else if entry.fold.folded > before_batches {
            self.journal_progress(task.job_id, finished_at);
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

    /// Seals a fully-folded job: its fold is its final result, which
    /// [`JobHandle::wait`] reads through [`Fold::finish`] —
    /// bit-identical to the engine's merge of the same batches.
    fn finalize(&mut self, job_id: usize) {
        let entry = &mut self.jobs[job_id];
        let m = crate::metrics::rt();
        if let Some((start, _)) = entry.fold.window {
            m.queue_wait_seconds
                .observe(start.duration_since(entry.submitted_at).as_secs_f64());
        }
        m.active_seconds.observe(entry.fold.active().as_secs_f64());
        m.jobs_completed.with(&["ok"]).inc();
        // Every batch is folded, so the stash is empty, but an emptied
        // `BTreeMap` keeps its root node: eleven batch slots, ~3.7 KB
        // that completed retention would hold per job.
        entry.fold.stash = BTreeMap::new();
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
                    progress: None,
                    journaled_at: Instant::now(),
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

    /// Appends a `Progress` record of `job_id`'s folded prefix when a
    /// batch that finished at `at` lands [`journal::PROGRESS_INTERVAL`]
    /// or more after the job's previous `Admit` or `Progress`. Runs at
    /// most once per interval per job, so encoding the aggregate
    /// under the mutex costs little. A terminal job has dropped its
    /// durable ledger and journals nothing.
    fn journal_progress(&mut self, job_id: usize, at: Instant) {
        let entry = &self.jobs[job_id];
        if entry.durable.as_ref().is_some_and(|d| {
            at.saturating_duration_since(d.journaled_at) >= journal::PROGRESS_INTERVAL
        }) {
            self.append_progress(job_id, at);
        }
    }

    /// Appends `job_id`'s folded prefix as a `Progress` record, which
    /// replaces the job's previous one in its durable ledger.
    fn append_progress(&mut self, job_id: usize, at: Instant) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let entry = &mut self.jobs[job_id];
        let Some(durable) = &mut entry.durable else {
            return;
        };
        let payload =
            journal::progress_payload(job_id as u64, entry.fold.folded as u32, &entry.fold.acc);
        let len = journal::framed_len(&payload);
        journal.append(payload.clone());
        let replaced = durable
            .progress
            .replace(payload)
            .map_or(0, |p| journal::framed_len(&p));
        durable.journaled_at = at;
        self.journal_appended += len;
        self.journal_live = self.journal_live.saturating_sub(replaced) + len;
    }

    /// Records `job_id`'s terminal transition — success, failure,
    /// mass-fail: counts it toward completed retention, appends its
    /// `Complete` record, drops its durable ledger, and compacts when
    /// the journal has grown enough. Called *before* anyone could
    /// observe the job as done, so recovery can never resurrect a job
    /// whose result was already surfaced.
    fn terminal(&mut self, job_id: usize) {
        self.jobs[job_id].ended_at = Some(Instant::now());
        self.jobs.finished.insert(job_id);
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let payload = journal::complete_payload(job_id as u64);
        self.journal_appended += journal::framed_len(&payload);
        journal.append(payload);
        if let Some(durable) = self.jobs[job_id].durable.take() {
            let retained = journal::framed_len(&durable.admit)
                + durable.progress.as_deref().map_or(0, journal::framed_len);
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
                payloads.extend(durable.progress.clone());
            }
        }
        journal.compact(payloads, live_jobs, self.jobs.next_id() as u64);
        self.journal_appended = 0;
    }

    /// Re-admits one incomplete job from journal replay: its latest
    /// journaled prefix seeds the fold (no re-execution), only the
    /// batches after it re-enter the dispatch queue, and the fresh
    /// journal generation gets the job's `Admit`/`Progress` records
    /// re-emitted (recovery doubles as compaction). Returns the job id
    /// and how many batches were restored.
    ///
    /// Batch boundaries are recomputed from the current configuration;
    /// if the prefix's end shot is not the end of its batch count under
    /// them (the operator changed `--batch-size` across the restart),
    /// the prefix is discarded and the whole job re-runs —
    /// partitioning is pure, so either way the final aggregates are
    /// bit-identical to an uninterrupted run.
    fn enqueue_recovered_job(
        &mut self,
        tenant: usize,
        job: Job,
        progress: Option<journal::Progress>,
    ) -> (usize, usize) {
        let batch = self
            .config
            .batch_size
            .unwrap_or_else(|| default_batch_size(job.shots))
            .max(1);
        let ranges = partition_shots(job.shots, batch);
        let num_qubits = job.shape.inst().topology().num_qubits();
        let progress = progress.filter(|p| {
            p.batches
                .checked_sub(1)
                .and_then(|last| ranges.get(last))
                .is_some_and(|r| r.end == p.end)
                && p.out.prob1_sum.len() == num_qubits
        });
        let restored = progress.as_ref().map_or(0, |p| p.batches);
        let job_id = self.jobs.push(JobEntry::new(job, tenant, ranges.len()));
        self.journal_admit(job_id);
        for (b, range) in ranges.into_iter().enumerate().skip(restored) {
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
        if let Some(p) = progress {
            self.tenants[tenant].shots_done += p.end;
            let m = crate::metrics::rt();
            m.batches_folded.add(restored as u64);
            m.shots_completed.add(p.end);
            self.jobs[job_id].fold.restore(restored, p.out);
        }
        let entry = &self.jobs[job_id];
        if entry.fold.folded == entry.batches_total {
            self.finalize(job_id);
        } else if restored > 0 {
            self.append_progress(job_id, Instant::now());
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
        // A job no batch has folded for waited until now, or, once
        // terminal, until it ended.
        let f = &entry.fold;
        let waited_until = f
            .window
            .map_or(entry.ended_at.unwrap_or(now), |(start, _)| start);
        PartialResult {
            name: entry.job.name.clone(),
            tenant: self.tenants[entry.tenant].id.clone(),
            shots_done: f.acc.shots(),
            shots_total: entry.job.shots,
            batches_done: f.folded,
            batches_total: entry.batches_total,
            histogram: f.acc.histogram.clone(),
            stats: f.acc.stats,
            mean_prob1: f.mean_prob1(),
            latency: f.acc.latency.stats(),
            non_halted: f.acc.non_halted,
            done: entry.done(),
            failed: entry.failed.clone(),
            queue_wait: waited_until.duration_since(entry.submitted_at),
            active: f.active(),
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
        self.fire_progress_hook();
    }

    /// Fires the registered progress hook, if any.
    fn fire_progress_hook(&self) {
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
            .map_or((0, true), |e| (e.fold.folded, e.done()))
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
            if entry.done() {
                return Ok(entry.fold.finish(entry.job.name.clone()));
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(RuntimeError::Service(format!(
                    "queue shut down before job `{}` completed",
                    entry.job.name
                )));
            }
            state.parked_waiters += 1;
            state = self
                .shared
                .progress
                .wait(state)
                .expect("queue state poisoned");
            state.parked_waiters -= 1;
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
    /// latest journaled folded prefix restored — only the batches
    /// after it re-dispatch — and journals everything from here on. Ids of
    /// completed (or compacted-away) jobs come back released: the job
    /// table holds no entry for them, they answer "released", a
    /// pre-crash id never resolves to a different job after restart,
    /// and new submissions continue above the pre-crash high-water
    /// mark. Final aggregates of recovered jobs are bit-identical to an
    /// uninterrupted run: partitioning is pure, a journaled prefix
    /// carries exactly the state the fold held, and the fold is
    /// batch-index-ordered either way.
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
                    state.enqueue_recovered_job(tenant, recovered.job, recovered.progress);
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

    /// Drains and retires slot `slot_id`: the slot finishes the lease
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
    /// one job shape, reused from a live equal spec when there is one
    /// — see [`CacheStats`]).
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
        let jobs = match submission.work {
            Work::Job(mut job) => {
                let mut shapes = self.shared.shapes.lock().expect("shape table poisoned");
                job.shape = shapes.intern(&job.shape);
                vec![*job]
            }
            Work::Spec(spec) => {
                let shape = self.spec_shape(&spec)?;
                (0..spec.weight.max(1))
                    .map(|i| spec.instance_of_shape(i, &shape))
                    .collect::<Result<Vec<Job>, RuntimeError>>()?
            }
        };
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

    /// The shape `spec`'s jobs run: the live one of an equal spec, or
    /// a new build. Program builds (assembly + emission) can be
    /// expensive, so they run with no lock held, never under the
    /// shape lock the reactor's `decode_submission` takes. The insert
    /// is double-checked, so racing submitters share the first shape.
    fn spec_shape(&self, spec: &WorkloadSpec) -> Result<Arc<JobShape>, RuntimeError> {
        let key = crate::wire::spec_key(spec);
        let live = self
            .shared
            .shapes
            .lock()
            .expect("shape table poisoned")
            .find_spec(&key);
        if let Some(live) = live {
            return Ok(live);
        }
        let built = spec.build_shape()?;
        // Interning compares wire bytes: encode them unlocked too.
        built.wire();
        let mut shapes = self.shared.shapes.lock().expect("shape table poisoned");
        Ok(shapes.insert_spec(key, &built))
    }

    /// How spec submissions found their shapes (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        let shapes = self.shared.shapes.lock().expect("shape table poisoned");
        shapes.spec_stats()
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

/// The run time a slot aims each lease at, by its own measured per-shot
/// wall time: long beside a lease's two lock round trips and one
/// progress wake, short enough that a fold, a drain or a failed batch's
/// requeue waits little for the rest of the lease.
const LEASE_WORK_TARGET: Duration = Duration::from_micros(250);

/// The most batches one lease holds, whatever the estimate allows.
const LEASE_MAX_BATCHES: usize = 64;

/// One dispatch slot: claim a lease — a run of batches — under the
/// lock, run its batches back to back on this slot's backend outside
/// the lock, then fold them all under the lock with one wake.
///
/// Lease length: a lease grows until its estimated cost reaches
/// [`LEASE_WORK_TARGET`] or it holds [`LEASE_MAX_BATCHES`] batches. The
/// estimate is the slot's own per-shot wall time over its last lease,
/// measured around `run_range` and so including transport: a remote
/// slot or a slow shape settles at one batch per lease by itself. A
/// slot with no measurement yet, or whose last lease failed, takes one
/// batch. Each batch stays its own `run_range` call and folds on its
/// own, in batch order, so leasing changes no bit of any result.
///
/// Failure handling: the batches that finished before a failure fold
/// as usual, and the lease's unrun tail goes back to the head of its
/// tenants' queues as it was ([`QueueState::unclaim`]). A transport
/// error requeues the failing batch for re-dispatch (preferring other
/// backends) and counts against this slot's health; any other error is
/// a property of the *job* (program validation) and fails it. A slot
/// that fails [`BACKEND_FAILURE_LIMIT`] times in a row retires from the
/// pool.
///
/// Lifecycle: the slot honours [`JobQueue::detach_backend`] by
/// checking its own [`SlotState`] at every claim — a `Draining` slot
/// runs and folds the lease it holds, then retires instead of claiming
/// another, so a drain never loses or duplicates a batch.
fn backend_loop(shared: &Shared, mut backend: Box<dyn ExecBackend>, slot_id: usize) {
    // One lease and one result buffer per slot, reused lease to lease.
    let mut lease: Vec<DispatchedTask> = Vec::with_capacity(LEASE_MAX_BATCHES);
    let mut outs: Vec<TaggedBatch> = Vec::with_capacity(LEASE_MAX_BATCHES);
    // Shots the last lease ran per `LEASE_WORK_TARGET` of wall time;
    // 0 (one batch) until a lease has run without a failure.
    let mut shot_budget = 0u64;
    loop {
        {
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
                state.lease(slot_id, shot_budget, &mut lease);
                if !lease.is_empty() {
                    break;
                }
                state.parked_slots += 1;
                state = shared.work_ready.wait(state).expect("queue state poisoned");
                state.parked_slots -= 1;
            }
        }
        crate::metrics::rt().slot_leases.inc();

        // The batches run outside the queue lock — on a local backend
        // this is the machine loop, on a remote one a request/response
        // round trip per batch.
        let started = Instant::now();
        let mut failure = None;
        for task in &lease {
            match backend.run_range(&task.job, task.range.clone()) {
                Ok(out) => {
                    let finished_at = Instant::now();
                    outs.push(TaggedBatch {
                        batch: task.batch,
                        started_at: finished_at
                            .checked_sub(Duration::from_nanos(out.elapsed_ns))
                            .unwrap_or(finished_at),
                        finished_at,
                        out,
                    });
                }
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        shot_budget = if failure.is_some() {
            0
        } else {
            let shots: u64 = lease.iter().map(DispatchedTask::cost).sum();
            let target = LEASE_WORK_TARGET.as_nanos() * u128::from(shots);
            u64::try_from(target / started.elapsed().as_nanos().max(1)).unwrap_or(u64::MAX)
        };

        let ran = outs.len();
        let mut state = shared.state.lock().expect("queue state poisoned");
        let slot = &mut state.slots[slot_id];
        slot.batches_completed += ran as u64;
        if ran > 0 {
            slot.consecutive_failures = 0;
        }
        for (task, tagged) in lease.iter().zip(outs.drain(..)) {
            state.complete(task, tagged);
        }
        let mut retire = false;
        if let Some(err) = failure {
            state.unclaim(&lease[ran + 1..]);
            let task = &lease[ran];
            if err.is_transport() {
                state.slots[slot_id].consecutive_failures += 1;
                retire = state.slots[slot_id].consecutive_failures >= BACKEND_FAILURE_LIMIT;
                state.requeue(task, slot_id, &err.to_string());
                if retire {
                    state.retire_slot(slot_id);
                }
            } else {
                state.slots[slot_id].consecutive_failures = 0;
                state.fail(task, err.to_string());
            }
        }
        let (slots, waiters) = (state.parked_slots > 0, state.parked_waiters > 0);
        drop(state);
        // The leased jobs' `Arc`s drop outside the lock.
        lease.clear();
        // One wake per lease. Folds free quota and a failure requeues
        // work (wake parked slots: a requeued batch is for the *other*
        // slots); folds, failures and a retirement may end jobs (wake
        // pollers). Both kinds of waiter are counted under the mutex
        // before they park, so only whoever is parked needs a notify.
        if slots {
            shared.work_ready.notify_all();
        }
        if waiters {
            shared.progress.notify_all();
        }
        shared.fire_progress_hook();
        if retire {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

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

    /// Three weighted tenants (the second quota-blocked at two batches
    /// in flight) on a two-slot pool, with one batch whose last failure
    /// was on slot 0.
    fn leasing_state() -> QueueState {
        let mut state = loaded_state(&[3, 2, 1], &[u64::MAX, 16, u64::MAX], 40);
        add_local_slots(&mut state, 1);
        let task = state.next_task(0).expect("a batch");
        state.requeue(&task, 0, "connection reset");
        state
    }

    #[test]
    fn a_lease_is_the_sequential_pick_order() {
        // Nothing completes, so the quota holds and the failed batch
        // stays excluded: the run ends when slot 0 can pick nothing.
        let mut reference = leasing_state();
        let mut picks = Vec::new();
        while let Some(task) = reference.next_task(0) {
            picks.push((task.job_id, task.batch));
        }

        let mut state = leasing_state();
        let (mut leased, mut lease, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
        for budget in [0, 8, 20, 64, u64::MAX].into_iter().cycle() {
            state.lease(0, budget, &mut lease);
            if lease.is_empty() {
                break;
            }
            sizes.push(lease.len());
            leased.extend(lease.drain(..).map(|t| (t.job_id, t.batch)));
        }
        assert_eq!(leased, picks, "leases joined end to end are the picks");
        assert!(
            sizes.iter().all(|n| (1..=LEASE_MAX_BATCHES).contains(n)),
            "{sizes:?}"
        );
        assert_eq!(sizes[..5], [1, 1, 3, 8, LEASE_MAX_BATCHES]);
    }

    #[test]
    fn a_failed_lease_returns_its_tail_in_order() {
        // Slot 0 leases four batches, runs the first, and fails the
        // second: the tail goes back ahead of everything else with its
        // history untouched, and only the failed batch is a retry.
        let mut state = loaded_state(&[1], &[u64::MAX], 8);
        add_local_slots(&mut state, 1);
        let mut lease = Vec::new();
        state.lease(0, 32, &mut lease);
        let order: Vec<usize> = lease.iter().map(|t| t.batch).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        state.unclaim(&lease[2..]);
        state.requeue(&lease[1], 0, "connection reset");
        assert_eq!(state.pending, 8 - 1);
        assert_eq!(state.tenants[0].inflight, 8, "only the first batch is out");
        assert_eq!(state.tenants[0].pending_shots, 8 * 7);
        let queued: Vec<(usize, Vec<usize>)> = state.tenants[0]
            .queue
            .iter()
            .map(|b| (b.batch, b.failed_on.clone()))
            .collect();
        assert_eq!(queued[..3], [(1, vec![0]), (2, vec![]), (3, vec![])]);
        // Slot 1 takes the retry; slot 0, which it failed on, the tail.
        assert_eq!(state.next_task(1).expect("retry").batch, 1);
        assert_eq!(state.next_task(0).expect("tail").batch, 2);
    }

    #[test]
    fn out_of_order_completion_folds_in_batch_order() {
        // For each batch boundary k, restore the job from the journaled
        // prefix of its first k batches (none for k = 0), then complete
        // the rest in reverse and in seeded random orders. Every
        // intermediate snapshot must expose only the contiguous prefix,
        // bit-identical to folding just those batches, and the final
        // result must match the engine on every deterministic field.
        let job = tiny_job("ooo", 64).with_seed(11);
        let mut backend = LocalBackend::new(0);
        let outs: Vec<_> = partition_shots(job.shots, 8)
            .into_iter()
            .map(|range| backend.run_range(&job, range).expect("runs"))
            .collect();
        let tagged = |batch: usize| TaggedBatch {
            batch,
            out: outs[batch].clone(),
            started_at: Instant::now(),
            finished_at: Instant::now(),
        };
        let prefix = |k: usize| {
            let mut fold = Fold::new(&job);
            (0..k).for_each(|b| fold.absorb(tagged(b)));
            fold
        };
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let deterministic = |r: &JobResult| {
            (
                r.histogram.clone(),
                r.stats,
                bits(&r.mean_prob1),
                r.non_halted,
                r.first_failure.clone(),
                r.latency.count(),
            )
        };
        let engine = crate::ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&job)
            .expect("engine runs");

        for k in 0..=outs.len() {
            for order in 0..4u64 {
                let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
                add_local_slots(&mut state, 1);
                let slot = state.tenant_slot(&TenantId::new("t"));
                let job_id = if k == 0 {
                    state.enqueue_job(slot, job.clone())
                } else {
                    let progress = journal::Progress {
                        batches: k,
                        end: 8 * k as u64,
                        out: prefix(k).acc,
                    };
                    let (id, restored) =
                        state.enqueue_recovered_job(slot, job.clone(), Some(progress));
                    assert_eq!(restored, k);
                    id
                };
                let mut tasks = Vec::new();
                while let Some(task) = state.next_task(0) {
                    tasks.push(task);
                }
                assert_eq!(tasks.len(), outs.len() - k);
                tasks.reverse();
                // Order 0 stays reversed; the others are xorshift
                // Fisher-Yates shuffles.
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (order * 64 + k as u64);
                for i in (1..tasks.len()).rev().filter(|_| order > 0) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    tasks.swap(i, (rng % (i as u64 + 1)) as usize);
                }
                for task in &tasks {
                    let before = state.jobs[job_id].fold.folded;
                    state.complete(task, tagged(task.batch));
                    let snap = state.snapshot(job_id, Instant::now());
                    if task.batch != before {
                        assert_eq!(snap.batches_done, before, "k {k}, order {order}");
                    }
                    let want = prefix(snap.batches_done);
                    assert_eq!(snap.shots_done, want.acc.shots());
                    assert_eq!(snap.histogram, want.acc.histogram);
                    assert_eq!(bits(&snap.mean_prob1), bits(&want.mean_prob1()));
                }
                let snap = state.snapshot(job_id, Instant::now());
                assert!(snap.done);
                assert_eq!(snap.shots_done, 64);
                let result = state.jobs[job_id].fold.finish(job.name.clone());
                assert_eq!(
                    deterministic(&result),
                    deterministic(&engine),
                    "k {k}, order {order}"
                );
            }
        }
    }

    /// A running job journals its folded prefix only when a fold that
    /// advances it lands `PROGRESS_INTERVAL` after the job's `Admit` or
    /// previous `Progress`, by the batch's finish time; the final fold
    /// journals `Complete` alone.
    #[test]
    fn progress_is_journaled_once_per_interval() {
        let dir = std::env::temp_dir().join(format!(
            "eqasm-serve-progress-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = journal::spawn(&JournalConfig::new(&dir), 0, 0).expect("opens");
        let job = tiny_job("cadence", 64).with_seed(3);
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        state.journal = Some(journal.handle.clone());
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, job.clone());
        let admitted = state.jobs[job_id]
            .durable
            .as_ref()
            .expect("journaled")
            .journaled_at;
        let journaled_k = |state: &QueueState| {
            let durable = state.jobs[job_id].durable.as_ref()?;
            let payload = durable.progress.as_ref()?;
            Some(u32::from_le_bytes(payload[9..13].try_into().unwrap()))
        };
        let mut backend = LocalBackend::new(0);
        let interval = journal::PROGRESS_INTERVAL;
        // Finish offsets in tenths of the interval, and the batch count
        // the latest Progress holds after each fold.
        let steps = [
            (1, None),
            (5, None),
            (12, Some(3)),
            (15, Some(3)),
            (21, Some(3)),
            (23, Some(6)),
            (24, Some(6)),
            (40, None),
        ];
        for (tenths, expect) in steps {
            let task = state.next_task(0).expect("a batch");
            let out = TaggedBatch {
                batch: task.batch,
                out: backend.run_range(&job, task.range.clone()).expect("runs"),
                started_at: admitted,
                finished_at: admitted + interval * tenths / 10,
            };
            state.complete(&task, out);
            assert_eq!(journaled_k(&state), expect, "after batch {}", task.batch);
        }
        assert!(state.jobs[job_id].done());
        assert!(journal.handle.shutdown());
        journal.thread.join().expect("journal thread");
        let replay = journal::replay_dir(&dir).expect("replays");
        // Admit + two Progress + Complete.
        assert_eq!(replay.records, 1 + 4);
        assert!(replay.jobs[&(job_id as u64)].completed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalized_job_keeps_one_histogram() {
        // A finished job's fold is its only copy of the aggregates:
        // its snapshot and its final result both read it.
        let job = tiny_job("once", 32).with_seed(5);
        let mut state = QueueState::new(ServeConfig::default().with_batch_size(8));
        add_local_slots(&mut state, 1);
        let slot = state.tenant_slot(&TenantId::new("t"));
        let job_id = state.enqueue_job(slot, job.clone());
        let mut backend = LocalBackend::new(0);
        while let Some(task) = state.next_task(0) {
            let out = TaggedBatch {
                batch: task.batch,
                out: backend.run_range(&job, task.range.clone()).expect("runs"),
                started_at: Instant::now(),
                finished_at: Instant::now(),
            };
            state.complete(&task, out);
        }
        assert!(
            state.jobs[job_id].fold.stash.is_empty(),
            "nothing is left stashed once the job is final"
        );

        let engine_result = crate::ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&job)
            .expect("engine runs");
        let snap = state.snapshot(job_id, Instant::now());
        let result = state.jobs[job_id].fold.finish(job.name.clone());
        assert!(snap.done);
        assert_eq!(snap.shots_done, 32);
        assert_eq!(snap.histogram, engine_result.histogram);
        assert_eq!(snap.stats, engine_result.stats);
        assert_eq!(snap.mean_prob1, engine_result.mean_prob1);
        assert_eq!(result.histogram, snap.histogram);
        assert_eq!(result.mean_prob1, snap.mean_prob1);
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
        // No batch ever ran, so the wait ended with the job: a later
        // poll reports the same `queue_wait`.
        let later = state.snapshot(job_id, Instant::now() + Duration::from_millis(10));
        assert_eq!(later.queue_wait, snap.queue_wait);
    }

    /// Marks live `id` failed and terminal, as `QueueState::terminal`
    /// would.
    fn finish(table: &mut JobTable, id: usize) {
        table[id].failed = Some("done".to_owned());
        table[id].ended_at = Some(Instant::now());
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

    /// The shape job `handle` runs.
    fn shape_of(handle: &JobHandle) -> Arc<JobShape> {
        let state = handle.shared.state.lock().expect("queue state poisoned");
        Arc::clone(&state.jobs[handle.job].job.shape)
    }

    fn reset_spec(weight: u32) -> WorkloadSpec {
        WorkloadSpec::new("reset", WorkloadKind::ActiveReset { init_cycles: 40 }, 0)
            .with_weight(weight)
    }

    #[test]
    fn a_specs_instances_share_one_shape() {
        let queue = JobQueue::new(ServeConfig::default().with_workers(1));
        let handles = queue
            .submit(Submission::workload("t", reset_spec(3)))
            .expect("submits");
        assert_eq!(handles.len(), 3);
        let first = shape_of(&handles[0]);
        assert!(handles.iter().all(|h| Arc::ptr_eq(&shape_of(h), &first)));
        let stats = queue.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
    }

    #[test]
    fn a_prebuilt_job_interns_onto_a_specs_shape() {
        let queue = JobQueue::new(ServeConfig::default().with_workers(1));
        let spec = reset_spec(3);
        let built = queue
            .submit(Submission::workload("t", spec.clone()))
            .expect("submits");
        let job = spec.build_instance(7).expect("builds");
        assert!(!Arc::ptr_eq(&job.shape, &shape_of(&built[0])));
        let prebuilt = queue.submit(Submission::job("u", job)).expect("submits");
        assert!(Arc::ptr_eq(&shape_of(&prebuilt[0]), &shape_of(&built[0])));
        assert_eq!(
            queue.cache_stats().misses,
            1,
            "a prebuilt job builds nothing"
        );
    }

    #[test]
    fn another_config_is_a_miss_with_its_own_shape() {
        let queue = JobQueue::new(ServeConfig::default().with_workers(1));
        let plain = queue
            .submit(Submission::workload("t", reset_spec(1)))
            .expect("submits");
        let seeded = reset_spec(1).with_config(eqasm_microarch::SimConfig {
            seed: 3,
            ..eqasm_microarch::SimConfig::default()
        });
        let other = queue
            .submit(Submission::workload("t", seeded))
            .expect("submits");
        assert!(!Arc::ptr_eq(&shape_of(&plain[0]), &shape_of(&other[0])));
        assert_eq!(shape_of(&other[0]).config().seed, 3);
        let stats = queue.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn concurrent_submitters_of_one_kind_share_one_entry() {
        let queue = JobQueue::new(ServeConfig::default().with_workers(1));
        let start = std::sync::Barrier::new(2);
        let shapes: Vec<Arc<JobShape>> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..2)
                .map(|i| {
                    let (queue, start) = (&queue, &start);
                    scope.spawn(move || {
                        start.wait();
                        let spec = reset_spec(2).with_seed(i * 100);
                        let handles = queue
                            .submit(Submission::workload("t", spec))
                            .expect("submits");
                        shape_of(&handles[0])
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|s| s.join().expect("submitter"))
                .collect()
        });
        assert!(Arc::ptr_eq(&shapes[0], &shapes[1]));
        let stats = queue.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }
}

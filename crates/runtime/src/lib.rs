//! # eqasm-runtime — parallel shot execution for eQASM programs
//!
//! The paper's evaluation is built from thousands of repeated *shots*
//! of the same assembled program. This crate turns the one-machine
//! simulator into a service-shaped execution engine:
//!
//! * [`Job`] — a shared [`JobShape`] (instantiation, program,
//!   `SimConfig`) plus shot count and base seed, the unit of scheduling;
//! * [`ShotEngine`] — a worker pool that fans shot batches (and whole
//!   job streams) across threads, each driving its own
//!   [`LocalBackend`] via the cheap `run_shot` reset-and-run path;
//! * [`JobResult`] / [`Histogram`] / [`LatencyHistogram`] —
//!   batched aggregation: outcome histograms, `RunStats` roll-ups, a
//!   mergeable shot-latency histogram (p50/p95/p99 within 1/64) and
//!   shots/sec throughput;
//! * [`WorkloadSpec`] / [`MixedWorkload`] — declarative experiment
//!   driving: named generators from `eqasm-workloads`, weights, and a
//!   mixed-traffic driver with per-workload and aggregate reports;
//! * [`serve`] — the long-lived service front end: a polling
//!   [`JobQueue`] with per-tenant weighted-fair scheduling (deficit
//!   round-robin plus in-flight-shot quotas), streaming
//!   [`PartialResult`] snapshots that are exact prefixes of the final
//!   merge, one weakly held job shape per live [`WorkloadKind`]
//!   build, and per-tenant pending-shot admission control;
//! * [`ExecBackend`] — the transport-agnostic execution API: one
//!   backend value is one execution *slot* that runs contiguous shot
//!   ranges ([`BatchOut`] per range). [`LocalBackend`] drives a
//!   machine on the calling thread; [`RemoteBackend`] ships ranges to
//!   a worker daemon ([`run_worker_until`] / `eqasm-cli worker`, or
//!   [`spawn_worker`] in process — one accept/drain loop) over TCP,
//!   under the [`ConnectOptions`] I/O deadline that turns hung workers
//!   into retirable transport failures;
//! * **live pool membership** — slots follow an
//!   `Active → Draining → Retired` lifecycle
//!   ([`serve::SlotState`]): [`serve::JobQueue::attach_backend`]
//!   grows a *running* pool, [`serve::JobQueue::detach_backend`]
//!   drains a slot cleanly, and the [`PoolSupervisor`] probes worker
//!   addresses (static list and/or a re-read registry file) on a
//!   backoff schedule, reattaching workers that restart mid-run — a
//!   coordinator rides fleet churn instead of decaying to whatever
//!   survived boot;
//! * [`wire`] — the hand-rolled, length-prefixed, versioned binary
//!   protocol behind [`RemoteBackend`] and the serve front door:
//!   explicit encoders for jobs, batch results, snapshots and
//!   submissions; a magic + version handshake that accepts only its
//!   own version, with a typed error for any other; the **job
//!   registry** (`LoadJob`/`RunRangeById` against a capacity-bounded
//!   worker-side LRU, with a typed `JobNotLoaded` miss the client
//!   recovers transparently — constant-size range requests instead of
//!   re-shipping the job per range); and typed decode errors. The
//!   full spec lives in `PROTOCOL.md`;
//! * [`auth`] — pre-shared-key fleet authentication: a hand-rolled
//!   SHA-256 / HMAC challenge–response (mutual, replay-proof) run
//!   inside the handshake by workers, the serve acceptor and every
//!   client, plus per-connection frame-size and request-rate budgets
//!   with typed `Budget` rejections;
//! * [`client`] — the network front door's client half:
//!   [`Client::connect`] / [`Client::submit`] against a
//!   `serve --listen` coordinator, [`RemoteJobHandle`] polling, and a
//!   subscription stream of [`PartialResult`] snapshots that are
//!   bit-identical prefixes of the final aggregate — the serve
//!   queue's determinism invariant, now provable from another process
//!   over TCP ([`spawn_serve`] / [`run_serve_until`] are the server
//!   half);
//! * [`metrics`] — the observability surface: a dependency-free
//!   Prometheus registry (atomic counters/gauges, fixed-bucket
//!   histograms, labeled families) instrumenting the queue, the wire,
//!   the worker daemon and the supervisor, encoded in text format
//!   v0.0.4 and served by a hand-rolled HTTP/1.0 `GET /metrics`
//!   responder ([`MetricsServer`], `--metrics` on `eqasm-cli
//!   serve`/`worker`). Scrapes read only atomics — never the queue
//!   mutex — so observing the service cannot stall it. The series
//!   catalogue lives in `METRICS.md`;
//! * [`loadgen`] — the instrument that pressures all of the above: an
//!   open-loop load generator ([`loadgen::LoadSpec`],
//!   [`loadgen::run_rung`]) whose pacer never slows when the server
//!   lags, a [`loadgen::capacity_sweep`] ramp that steps the target
//!   rate until a failure-rate or p50-latency ceiling is breached
//!   (scraping `/metrics` for server-side truth, emitting the
//!   `capacity` section of `BENCH_runtime.json`), and a
//!   [`loadgen::churn_sweep`] that cycles
//!   connect/subscribe/resume/disconnect watchers while checking
//!   resume correctness (`eqasm-cli loadgen` rides all three).
//!
//! ## Determinism — including across hosts
//!
//! Shot `i` of a job always runs under seed `base_seed + i` on a fully
//! reset machine, batch boundaries depend only on the shot count, and
//! floating-point roll-ups fold in batch order — so every aggregate
//! (histograms, statistics, mean populations) is **bit-identical** for
//! any worker count. Only wall-clock figures vary.
//!
//! The backend split extends that argument across machines. Three
//! facts carry it:
//!
//! 1. **A batch is a pure function of `(job, range)`** — seeds derive
//!    from the job, every shot runs on a fully reset machine, and the
//!    in-batch `f64` folds run in shot order on one thread, wherever
//!    that thread is.
//! 2. **The wire is bit-exact** — [`wire`] encodes every `f64` by IEEE
//!    bit pattern ([`f64::to_bits`]), so a remote worker simulates the
//!    *identical* job and returns the *identical* sums a local slot
//!    would (property-tested over NaN payloads, signed zeros,
//!    infinities and subnormals).
//! 3. **The fold is placement-blind** — the serve queue folds
//!    completed batches strictly in batch-index order (out-of-order
//!    arrivals are stashed), so which backend ran which range, how
//!    ranges interleaved, and even a range that failed on one backend
//!    and was re-dispatched to another, are all invisible to the
//!    merged aggregates and to every streaming [`PartialResult`]
//!    prefix.
//!
//! Hence the cross-host guarantee: a job executed through any mix of
//! local and remote backends — at any worker/host count, with any
//! failover along the way — produces aggregates bit-identical to
//! [`ShotEngine::run_job`] on one thread. A worker daemon dying
//! mid-range loses only *work*: the coordinator re-dispatches the
//! range (bounded retries, preferring other backends) and only ever
//! folds complete, well-formed batch results.
//!
//! And because the fold never consults *which* slot delivered a batch,
//! the guarantee extends to **live membership churn**: slots attached
//! mid-run, drained mid-run, or killed and re-attached by the
//! supervisor can reorder completions but never change a bit of any
//! streamed prefix or final aggregate (proven by the churn suite in
//! `tests/remote.rs`).
//!
//! ## Program-aware execution paths
//!
//! Batch execution rides the microarchitecture's selection layer
//! (`eqasm_microarch::select`): Clifford-only programs under ideal
//! noise run on the stabilizer tableau, and the deterministic prefix of
//! a program — everything before its first stochastic instruction — is
//! simulated **once** per (slot, job shape), snapshotted beside the
//! slot's machine (`eqasm_prefix_cache_*` metrics), and forked per shot
//! by restore + reseed. Neither path moves a bit of any aggregate:
//!
//! * backend selection is exact in the stabilizer regime (measurement
//!   consumes one RNG draw against an exact probability on every
//!   backend), and
//! * the prefix consumes zero RNG draws by construction, so a
//!   freshly-reseeded fork is state-for-state the machine a full
//!   replay would produce at the same cycle — seed-independence of the
//!   snapshot is property-tested, and the fork path is pinned
//!   bit-identical to full replays at 1/2/8 workers in
//!   `tests/fastpath.rs`.
//!
//! Every machine lives in a [`LocalBackend`]'s per-slot LRU, keyed by
//! an `Arc<JobShape>` that the queue and the worker daemon intern. One
//! [`ExecPolicy`] configures it: [`ShotEngine`], [`LocalBackend`], the
//! worker daemon ([`WorkerConfig`]) and the serve queue
//! ([`ServeConfig`]) take one. `backend: Some(Dense)` forces the legacy
//! dense path (no stabilizer, no forking); `prefix: false` disables
//! only the forking. The library reads no environment: `eqasm-cli` parses
//! `EQASM_EXEC_PATH` and `EQASM_PREFIX` once at startup
//! ([`ExecPolicy::parse`]), and the determinism CI runs the suite under
//! each policy.
//!
//! ## Example
//!
//! ```
//! use eqasm_core::{Instantiation, Qubit, Topology};
//! use eqasm_runtime::{Job, ShotEngine};
//! use eqasm_workloads::rb_program;
//!
//! // A short randomized-benchmarking sequence on a one-qubit chip.
//! let inst = Instantiation::paper().with_topology(Topology::linear(1));
//! let (program, _) = rb_program(&inst, Qubit::new(0), 8, 1, 42)?;
//!
//! let job = Job::new("rb-k8", inst, program).with_shots(64).with_seed(1);
//! let serial = ShotEngine::serial().run_job(&job)?;
//! let pooled = ShotEngine::new(4).run_job(&job)?;
//!
//! // Bit-identical aggregates, whatever the pool size.
//! assert_eq!(serial.histogram, pooled.histogram);
//! assert_eq!(serial.stats, pooled.stats);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aggregate;
pub mod auth;
mod backend;
pub mod client;
mod engine;
mod error;
mod job;
pub mod journal;
pub mod loadgen;
pub mod metrics;
mod net;
pub mod serve;
mod supervisor;
pub mod wire;
mod workload;

pub use aggregate::{BitString, Histogram, JobResult, LatencyHistogram, LatencyStats};
pub use auth::Psk;
pub use backend::{BackendDescriptor, BackendKind, BatchOut, ExecBackend, LocalBackend};
pub use client::{Client, RemoteJobHandle};
pub use engine::{ExecPolicy, ShotEngine};
pub use error::RuntimeError;
pub use job::{default_batch_size, partition_shots, Job, JobShape};
pub use journal::{FsyncPolicy, JournalConfig, JournalError, RecoveryReport};
pub use loadgen::{
    capacity_sweep, churn_sweep, run_rung, CapacityReport, Ceilings, ChurnConfig, ChurnReport,
    LoadClass, LoadSpec, RungReport, ShotsDist, SweepConfig, SweepTarget,
};
pub use metrics::MetricsServer;
pub use net::{
    ping, ping_opts, run_serve_until, run_worker_until, spawn_serve, spawn_worker,
    wake_serve_shutdown, ConnectOptions, RemoteBackend, ServeHandle, ServeNetConfig, WireTraffic,
    WorkerConfig, WorkerHandle, DEFAULT_IO_TIMEOUT, DEFAULT_JOB_CACHE_CAPACITY,
};
pub use serve::{
    CacheStats, JobHandle, JobQueue, PartialResult, ServeConfig, SlotState, SlotStatus, Submission,
    TenantId,
};
pub use supervisor::{PoolSupervisor, SupervisorConfig, WorkerStatus};
pub use workload::{MixedReport, MixedWorkload, WorkloadKind, WorkloadReport, WorkloadSpec};

//! The shared-prefix snapshot cache: compute a job's deterministic
//! prefix once, fork every shot from it.
//!
//! A machine's execution before the first stochastic instruction is a
//! pure function of (instantiation, program, configuration) — it
//! consumes no randomness (see `eqasm_microarch::select` for the
//! argument). [`fork_snapshot`] resolves that prefix once per distinct
//! job shape in a small process-global LRU and hands out `Arc` clones,
//! so every worker thread — and every batch of every retry, across the
//! engine, the serve queue and the worker daemon, which all execute
//! through `run_batch` — reuses the same snapshot. Per-shot work then
//! shrinks to restore + reseed + the stochastic suffix.
//!
//! Forking is skipped (full `run_shot` replays, bit-identical results)
//! when:
//!
//! * the [`ExecPolicy`] turns it off (`prefix: false` — the A/B lever
//!   the determinism CI and the throughput bench use),
//! * the machine runs [`BackendSelect::Dense`] — the fully legacy
//!   execution path, or
//! * the (program, configuration) pair is not prefix-eligible (a
//!   trajectory backend under finite T1/T2).
//!
//! The cache keys on the configuration the machine was built with
//! (the policy's normalization of the job's own), seed zeroed, so
//! [`warm`], [`is_warm`] and the dispatch path cannot disagree on a
//! job's key.

use std::sync::{Arc, Mutex, OnceLock};

use eqasm_core::{Instantiation, Instruction};
use eqasm_microarch::{BackendSelect, MachineSnapshot, QuMa, SimConfig};

use crate::engine::ExecPolicy;
use crate::job::Job;
use crate::metrics::rt;

/// Distinct job shapes cached at once. Small on purpose: a snapshot
/// holds a full backend state, and the steady state of every driver in
/// this crate is "many shots of few programs".
const CACHE_CAPACITY: usize = 8;

/// The job shape a snapshot is valid for. The seed is zeroed out of
/// the configuration: prefix snapshots are seed-independent by
/// construction (and the determinism suite pins that).
struct Key {
    inst: Instantiation,
    program: Vec<Instruction>,
    config: SimConfig,
}

impl Key {
    fn matches(&self, config: &SimConfig, job: &Job) -> bool {
        self.config == *config && self.program == job.program && self.inst == job.inst
    }
}

struct Entry {
    key: Key,
    snapshot: Arc<MachineSnapshot>,
}

fn cache() -> &'static Mutex<Vec<Entry>> {
    static CACHE: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The cache key's configuration: the machine's own, seed zeroed.
fn key_config(mut config: SimConfig) -> SimConfig {
    config.seed = 0;
    config
}

/// Returns the prefix snapshot to fork `job`'s shots from on `machine`
/// (which [`crate::engine::build_machine`] built for `job` under
/// `policy`), or `None` when forking does not apply and the caller
/// must run full replays.
///
/// Cache misses compute the prefix under the cache lock: concurrent
/// workers starting the same job then share one computation instead of
/// racing through identical ones.
pub(crate) fn fork_snapshot(
    machine: &mut QuMa,
    job: &Job,
    policy: &ExecPolicy,
) -> Option<Arc<MachineSnapshot>> {
    if !policy.prefix
        || machine.config().backend == BackendSelect::Dense
        || !machine.selection().prefix_eligible()
    {
        return None;
    }
    let metrics = rt();
    let key_config = key_config(machine.config().clone());
    let mut entries = cache().lock().expect("prefix cache poisoned");
    if let Some(pos) = entries.iter().position(|e| e.key.matches(&key_config, job)) {
        // Move to the back: most-recently-used order.
        let entry = entries.remove(pos);
        let snap = Arc::clone(&entry.snapshot);
        entries.push(entry);
        metrics.prefix_cache_hits.inc();
        return Some(snap);
    }
    let snap = Arc::new(machine.run_prefix(job.base_seed)?);
    metrics.prefix_cache_misses.inc();
    if entries.len() >= CACHE_CAPACITY {
        entries.remove(0);
    }
    entries.push(Entry {
        key: Key {
            inst: job.inst.clone(),
            program: job.program.clone(),
            config: key_config,
        },
        snapshot: Arc::clone(&snap),
    });
    Some(snap)
}

/// Computes (and caches) `job`'s prefix snapshot ahead of dispatch, so
/// the first batch forks from a warm cache instead of paying the
/// prefix build on the hot path. The serve scheduler calls this from a
/// dedicated warmer thread on admission and on journal recovery, under
/// its [`crate::ServeConfig::policy`].
///
/// A no-op whenever forking would not apply (disabled, dense policy,
/// ineligible program) or the machine fails to build — the dispatch
/// path makes its own decision and stays correct either way.
pub fn warm(job: &Job, policy: &ExecPolicy) {
    if !policy.prefix {
        return;
    }
    let Ok(mut machine) = crate::engine::build_machine(job, policy) else {
        return;
    };
    let _ = fork_snapshot(&mut machine, job, policy);
}

/// Whether the cache already holds a snapshot for `job`'s shape under
/// `policy`. Test instrumentation for the pre-warming path: the
/// process-global hit/miss counters are shared across concurrently
/// running tests, but this is race-free per shape.
pub fn is_warm(job: &Job, policy: &ExecPolicy) -> bool {
    let key_config = key_config(policy.machine_config(job));
    let entries = cache().lock().expect("prefix cache poisoned");
    entries.iter().any(|e| e.key.matches(&key_config, job))
}

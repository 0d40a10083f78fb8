//! The worker pool: fans a job's shots (and whole job batches) out
//! across threads, each driving its own [`LocalBackend`], and merges
//! batch results deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use eqasm_microarch::{
    BackendSelect, MachineSnapshot, OutcomeTrie, QuMa, RunStats, ShotRecord, SimConfig,
};

use crate::aggregate::{BitString, Histogram, JobResult, LatencyHistogram};
use crate::backend::{BatchOut, ExecBackend, Fold, LocalBackend, TaggedBatch};
use crate::error::RuntimeError;
use crate::job::{default_batch_size, partition_shots, Job};

/// A shot-execution engine with a fixed worker count.
///
/// # Determinism
///
/// Shot `i` of a job always runs under seed `base_seed + i` on a
/// machine that was fully reset beforehand, so each shot's outcome is
/// independent of which worker ran it and what that worker ran
/// earlier. Batch boundaries are a pure function of the shot count
/// (never of the worker count), and each job's batches fold in batch
/// order through the crate's one accumulator (`Fold`, beside
/// [`BatchOut`]), whatever order the workers finish them in — the same
/// fold behind [`crate::serve`] snapshots, final results and journal
/// recovery. Aggregate results are therefore **bit-identical** for
/// any `workers ≥ 1` and to a serve-queue run. Only wall-clock figures
/// (latency percentiles, shots/sec) vary between runs.
///
/// # Examples
///
/// ```
/// use eqasm_asm::assemble;
/// use eqasm_core::Instantiation;
/// use eqasm_runtime::{Job, ShotEngine};
///
/// let inst = Instantiation::paper_two_qubit();
/// let program = assemble(
///     "SMIS S2, {2}\nQWAIT 100\nX90 S2\nMEASZ S2\nQWAIT 50\nSTOP",
///     &inst,
/// )?;
/// let job = Job::new("x90", inst, program.instructions().to_vec())
///     .with_shots(200)
///     .with_seed(7);
/// let result = ShotEngine::new(2).run_job(&job)?;
/// assert_eq!(result.shots, 200);
/// // X90 prepares an equal superposition: both outcomes appear.
/// assert!(result.ones_fraction(2).unwrap() > 0.3);
/// assert!(result.ones_fraction(2).unwrap() < 0.7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShotEngine {
    workers: usize,
    batch_size: Option<u64>,
    policy: ExecPolicy,
}

/// A batch task: run `range` shots of job `job`.
struct Task {
    job: usize,
    batch: usize,
    range: std::ops::Range<u64>,
}

impl ShotEngine {
    /// An engine with `workers` threads; `0` selects the machine's
    /// available parallelism.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        ShotEngine {
            workers,
            batch_size: None,
            policy: ExecPolicy::default(),
        }
    }

    /// A single-threaded engine (the serial reference).
    pub fn serial() -> Self {
        ShotEngine::new(1)
    }

    /// Overrides the shot batch size. The default is
    /// [`default_batch_size`]; results are identical either way, the
    /// knob only trades scheduling overhead against load balance.
    ///
    /// A batch size of `0` is clamped to `1`: this is a library
    /// builder on a service path, so a malformed request degrades to
    /// the smallest batch instead of panicking the pool.
    pub fn with_batch_size(mut self, batch_size: u64) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Returns the engine executing under `policy` instead of the
    /// default. Aggregates are bit-identical under every policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The worker count this engine runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one job to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Load`] if the program fails machine
    /// validation (detected on the first worker that loads it).
    pub fn run_job(&self, job: &Job) -> Result<JobResult, RuntimeError> {
        let mut results = self.run_jobs(std::slice::from_ref(job))?;
        Ok(results.pop().expect("one job in, one result out"))
    }

    /// Runs a batch of jobs, fanning both jobs and their shot batches
    /// across the pool. Results come back in job order.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Load`] if any program fails machine
    /// validation. Validation happens on the worker that first picks
    /// the job up (not in a serial prologue — a large job stream would
    /// otherwise pay one throwaway machine construction per job before
    /// any parallel work starts); the failing job's remaining batches
    /// are skipped and the first error, in job order, is returned
    /// after the pool drains.
    pub fn run_jobs(&self, jobs: &[Job]) -> Result<Vec<JobResult>, RuntimeError> {
        // Batch boundaries depend only on each job's shot count.
        let mut tasks = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let batch = self
                .batch_size
                .unwrap_or_else(|| default_batch_size(job.shots));
            for (b, range) in partition_shots(job.shots, batch).into_iter().enumerate() {
                tasks.push(Task {
                    job: j,
                    batch: b,
                    range,
                });
            }
        }

        let cursor = AtomicUsize::new(0);
        let folds: Mutex<Vec<Fold>> = Mutex::new(jobs.iter().map(Fold::new).collect());
        let load_errors: Mutex<std::collections::BTreeMap<usize, RuntimeError>> =
            Mutex::new(std::collections::BTreeMap::new());
        let worker_count = self.workers.min(tasks.len()).max(1);

        std::thread::scope(|scope| {
            for slot in 0..worker_count {
                let (tasks, cursor, folds, load_errors) = (&tasks, &cursor, &folds, &load_errors);
                scope.spawn(move || {
                    let mut backend = LocalBackend::new(slot).with_policy(self.policy);
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(t) else { break };
                        if load_errors
                            .lock()
                            .expect("error map poisoned")
                            .contains_key(&task.job)
                        {
                            continue; // job already failed validation
                        }
                        let started_at = Instant::now();
                        match backend.run_range(&jobs[task.job], task.range.clone()) {
                            Ok(out) => folds.lock().expect("folds poisoned")[task.job].absorb(
                                TaggedBatch {
                                    batch: task.batch,
                                    out,
                                    started_at,
                                    finished_at: Instant::now(),
                                },
                            ),
                            Err(err) => {
                                load_errors
                                    .lock()
                                    .expect("error map poisoned")
                                    .entry(task.job)
                                    .or_insert(err);
                            }
                        }
                    }
                });
            }
        });

        let mut load_errors = load_errors.into_inner().expect("error map poisoned");
        if let Some((_, err)) = load_errors.pop_first() {
            return Err(err);
        }
        let folds = folds.into_inner().expect("folds poisoned");
        Ok(jobs
            .iter()
            .zip(&folds)
            .map(|(job, fold)| fold.finish(job.name.clone()))
            .collect())
    }
}

impl Default for ShotEngine {
    /// The machine's available parallelism.
    fn default() -> Self {
        ShotEngine::new(0)
    }
}

/// Human-readable description of a non-halted run status (faults have
/// a `Display` impl; `Debug` would leak raw struct syntax into CLI
/// error messages).
fn describe_status(status: &eqasm_microarch::RunStatus) -> String {
    match status {
        eqasm_microarch::RunStatus::Halted => "halted".to_owned(),
        eqasm_microarch::RunStatus::MaxCycles => "cycle budget exhausted".to_owned(),
        eqasm_microarch::RunStatus::Fault(f) => format!("fault: {f}"),
    }
}

/// How jobs execute: the one execution configuration that every
/// [`ShotEngine`], [`crate::LocalBackend`], worker daemon
/// ([`crate::WorkerConfig`]) and serve queue ([`crate::ServeConfig`])
/// takes. All of them execute through a `LocalBackend`, which applies
/// it where it builds a machine. Every policy gives
/// bit-identical aggregates; only the speed differs.
///
/// The default (`backend: None, prefix: true`) runs each job's own
/// [`SimConfig::backend`] and forks shots from a shared
/// deterministic-prefix snapshot where that applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Overrides every job's backend selection when set.
    /// [`BackendSelect::Dense`] forces the legacy dense path, which
    /// also disables prefix forking; [`BackendSelect::Auto`] forces
    /// program-aware selection.
    pub backend: Option<BackendSelect>,
    /// Whether shots fork from a shared prefix snapshot. `false`
    /// forces full replays.
    pub prefix: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            backend: None,
            prefix: true,
        }
    }
}

impl ExecPolicy {
    /// Parses the two execution-path switches: an execution path
    /// (`dense` or `auto`) and a prefix-forking switch (`on` or
    /// `off`), both case-insensitive. `None` or an empty string keeps
    /// the default. `eqasm-cli` feeds these from `EQASM_EXEC_PATH` and
    /// `EQASM_PREFIX`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Policy`] naming any other value.
    pub fn parse(exec_path: Option<&str>, prefix: Option<&str>) -> Result<Self, RuntimeError> {
        let unknown = |what: &str, value: &str, expected: &str| {
            RuntimeError::Policy(format!("unknown {what} `{value}` (expected {expected})"))
        };
        let mut policy = ExecPolicy::default();
        if let Some(v) = exec_path.filter(|v| !v.is_empty()) {
            policy.backend = Some(match v.to_ascii_lowercase().as_str() {
                "dense" => BackendSelect::Dense,
                "auto" => BackendSelect::Auto,
                _ => return Err(unknown("execution path", v, "dense or auto")),
            });
        }
        if let Some(v) = prefix.filter(|v| !v.is_empty()) {
            policy.prefix = match v.to_ascii_lowercase().as_str() {
                "on" => true,
                "off" => false,
                _ => return Err(unknown("prefix switch", v, "on or off")),
            };
        }
        Ok(policy)
    }

    /// The configuration a machine built for `job` runs with: the
    /// backend override applied, and trace recording off (the engine
    /// aggregates through `measurement_value` and `prob1` and never
    /// reads traces, so recording them would be pure overhead).
    pub(crate) fn machine_config(&self, job: &Job) -> SimConfig {
        let mut config = job.shape.config().clone();
        config.record_trace = false;
        if let Some(backend) = self.backend {
            config.backend = backend;
        }
        config
    }
}

/// Builds and loads a fresh machine for `job` under `policy`.
pub(crate) fn build_machine(
    job: &Job,
    policy: &ExecPolicy,
) -> Result<QuMa, eqasm_microarch::LoadError> {
    let mut m = QuMa::new(job.shape.inst().clone(), policy.machine_config(job));
    m.load(job.shape.program())?;
    crate::metrics::rt()
        .backend_selected
        .with(&[m.selection().kind().as_str()])
        .inc();
    Ok(m)
}

/// Runs one contiguous shot range on a machine [`build_machine`] built
/// for `job`'s shape, forking each shot from `prefix`'s snapshot
/// through its outcome trie ([`QuMa::run_shot_memo`]) when there is
/// one, and replaying it from reset otherwise — bit-identical by
/// construction. The deterministic fields of the returned [`BatchOut`]
/// depend only on `(job, range)` — this is the common execution path
/// of every backend, local or (on the far side of the socket) remote.
///
/// The clock is read once per batch: every shot's latency sample is
/// the batch's mean shot duration.
pub(crate) fn run_batch(
    machine: &mut QuMa,
    mut prefix: Option<(&MachineSnapshot, &mut OutcomeTrie)>,
    job: &Job,
    range: std::ops::Range<u64>,
) -> BatchOut {
    let started_at = Instant::now();
    let n = job.shape.inst().topology().num_qubits();
    let shots = range.end.saturating_sub(range.start);
    let mut histogram = Histogram::new();
    let mut stats = RunStats::default();
    let mut prob1_sum = vec![0.0f64; n];
    let mut non_halted = 0;
    let mut first_failure = None;
    let memo_hits = prefix.as_ref().map_or(0, |(_, trie)| trie.hits());
    let mut replayed = ShotRecord::default();

    for shot in range {
        let seed = job.shot_seed(shot);
        let record = match &mut prefix {
            Some((snap, trie)) => machine.run_shot_memo(snap, trie, seed),
            None => {
                let result = machine.run_shot(seed);
                replayed.capture(machine, result);
                &replayed
            }
        };
        stats.merge(&record.result.stats);
        if !record.result.status.is_halted() {
            non_halted += 1;
            if first_failure.is_none() {
                first_failure = Some((shot, describe_status(&record.result.status)));
            }
        }
        let mut outcome = BitString::EMPTY;
        for (q, v) in record.measured.iter().enumerate() {
            if let Some(v) = *v {
                outcome.set(q, v);
            }
        }
        histogram.record(outcome);
        for (acc, p) in prob1_sum.iter_mut().zip(&record.prob1) {
            *acc += p;
        }
    }

    let elapsed_ns = started_at.elapsed().as_nanos() as u64;
    let mut latency = LatencyHistogram::new();
    latency.record_n(elapsed_ns / shots.max(1), shots);
    let m = crate::metrics::rt();
    m.shots_executed.add(shots);
    m.batches_executed.inc();
    if let Some((_, trie)) = prefix {
        m.prefix_fork_shots.add(shots);
        m.memo_shots.add(trie.hits() - memo_hits);
    }

    BatchOut {
        histogram,
        stats,
        prob1_sum,
        latency,
        non_halted,
        first_failure,
        elapsed_ns,
    }
}

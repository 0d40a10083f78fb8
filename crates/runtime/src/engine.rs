//! The worker pool: fans a job's shots (and whole job batches) out
//! across threads, each driving its own `QuMa` instance, and merges
//! batch results deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use eqasm_microarch::{BackendSelect, QuMa, RunStats};

use crate::aggregate::{BitString, Histogram, JobResult, LatencyHistogram};
use crate::backend::BatchOut;
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
/// (never of the worker count), and floating-point roll-ups are folded
/// in batch order — aggregate results are therefore **bit-identical**
/// for any `workers ≥ 1`. Only wall-clock figures (latency
/// percentiles, shots/sec) vary between runs.
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
}

/// A completed [`BatchOut`] tagged with its merge position and the
/// coordinator-side wall-clock window. The tag never crosses a host
/// boundary — remote batches are stamped by the coordinator when they
/// arrive, which only affects the (explicitly non-deterministic)
/// timing figures.
pub(crate) struct TaggedBatch {
    pub(crate) job: usize,
    pub(crate) batch: usize,
    pub(crate) out: BatchOut,
    pub(crate) started_at: Instant,
    pub(crate) finished_at: Instant,
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
        let outputs: Mutex<Vec<TaggedBatch>> = Mutex::new(Vec::with_capacity(tasks.len()));
        let load_errors: Mutex<std::collections::BTreeMap<usize, RuntimeError>> =
            Mutex::new(std::collections::BTreeMap::new());
        let worker_count = self.workers.min(tasks.len()).max(1);

        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                scope.spawn(|| {
                    // Each worker owns one machine at a time, rebuilt
                    // only when it switches jobs.
                    let mut cached: Option<(usize, QuMa)> = None;
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
                        let job = &jobs[task.job];
                        if !matches!(&cached, Some((j, _)) if *j == task.job) {
                            match build_machine(job) {
                                Ok(m) => cached = Some((task.job, m)),
                                Err(source) => {
                                    load_errors
                                        .lock()
                                        .expect("error map poisoned")
                                        .entry(task.job)
                                        .or_insert(RuntimeError::Load {
                                            job: job.name.clone(),
                                            source,
                                        });
                                    continue;
                                }
                            }
                        }
                        let machine = &mut cached.as_mut().expect("just cached").1;
                        let started_at = Instant::now();
                        let out = run_batch(machine, job, task.range.clone());
                        outputs
                            .lock()
                            .expect("collector poisoned")
                            .push(TaggedBatch {
                                job: task.job,
                                batch: task.batch,
                                out,
                                started_at,
                                finished_at: Instant::now(),
                            });
                    }
                });
            }
        });

        let mut load_errors = load_errors.into_inner().expect("error map poisoned");
        if let Some((_, err)) = load_errors.pop_first() {
            return Err(err);
        }

        let mut outputs = outputs.into_inner().expect("collector poisoned");
        // Deterministic fold order: by (job, batch index).
        outputs.sort_by_key(|o| (o.job, o.batch));

        let mut results: Vec<JobResult> = jobs
            .iter()
            .map(|job| JobResult {
                name: job.name.clone(),
                shots: job.shots,
                histogram: Histogram::new(),
                stats: RunStats::default(),
                mean_prob1: vec![0.0; job.inst.topology().num_qubits()],
                latency: LatencyHistogram::new(),
                elapsed: Duration::ZERO,
                shots_per_sec: 0.0,
                window: None,
                non_halted: 0,
                first_failure: None,
            })
            .collect();

        // Per-job active window: first batch start to last batch end,
        // so a job's shots/sec is not diluted by time the pool spent
        // on *other* jobs before this one was picked up.
        let mut windows: Vec<Option<(Instant, Instant)>> = vec![None; jobs.len()];
        for tagged in outputs {
            let r = &mut results[tagged.job];
            r.histogram.merge(&tagged.out.histogram);
            r.stats.merge(&tagged.out.stats);
            for (acc, s) in r.mean_prob1.iter_mut().zip(&tagged.out.prob1_sum) {
                *acc += s;
            }
            r.latency.merge(&tagged.out.latency);
            r.non_halted += tagged.out.non_halted;
            if r.first_failure.is_none() {
                r.first_failure = tagged.out.first_failure;
            }
            windows[tagged.job] = Some(match windows[tagged.job] {
                None => (tagged.started_at, tagged.finished_at),
                Some((s, f)) => (s.min(tagged.started_at), f.max(tagged.finished_at)),
            });
        }
        for (r, window) in results.iter_mut().zip(&windows) {
            r.window = *window;
            if let Some((start, finish)) = window {
                r.elapsed = finish.duration_since(*start);
            }
        }
        for r in &mut results {
            if r.shots > 0 {
                for p in &mut r.mean_prob1 {
                    *p /= r.shots as f64;
                }
            }
            let secs = r.elapsed.as_secs_f64();
            r.shots_per_sec = if secs > 0.0 {
                r.shots as f64 / secs
            } else {
                0.0
            };
        }
        Ok(results)
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

/// Builds and loads a fresh machine for `job`. The engine never reads
/// traces (it aggregates through `measurement_value` and `prob1`), so
/// recording them per shot would be pure overhead on every batch —
/// trace recording is force-disabled here.
///
/// `EQASM_EXEC_PATH=dense` forces the legacy [`BackendSelect::Dense`]
/// policy (which also disables shared-prefix forking), and
/// `EQASM_EXEC_PATH=auto` forces program-aware selection — the A/B
/// lever the determinism CI uses to pin that both paths agree.
pub(crate) fn build_machine(job: &Job) -> Result<QuMa, eqasm_microarch::LoadError> {
    let mut config = job.config.clone();
    config.record_trace = false;
    match std::env::var("EQASM_EXEC_PATH").as_deref() {
        Ok(v) if v.eq_ignore_ascii_case("dense") => config.backend = BackendSelect::Dense,
        Ok(v) if v.eq_ignore_ascii_case("auto") => config.backend = BackendSelect::Auto,
        _ => {}
    }
    let mut m = QuMa::new(job.inst.clone(), config);
    m.load(&job.program)?;
    crate::metrics::rt()
        .backend_selected
        .with(&[m.selection().kind().as_str()])
        .inc();
    Ok(m)
}

/// Runs one contiguous shot range on a prepared machine. The
/// deterministic fields of the returned [`BatchOut`] depend only on
/// `(job, range)` — this is the common execution path of every
/// backend, local or (on the far side of the socket) remote.
pub(crate) fn run_batch(machine: &mut QuMa, job: &Job, range: std::ops::Range<u64>) -> BatchOut {
    let started_at = Instant::now();
    let n = job.inst.topology().num_qubits();
    let mut histogram = Histogram::new();
    let mut stats = RunStats::default();
    let mut prob1_sum = vec![0.0f64; n];
    let mut latency = LatencyHistogram::new();
    let mut non_halted = 0;
    let mut first_failure = None;

    // Shared-prefix forking: resolve (or compute) the job's
    // deterministic-prefix snapshot once per batch; each shot then
    // restores + reseeds instead of replaying the prefix. Falls back to
    // full replays — bit-identical by construction — when forking does
    // not apply.
    let prefix = crate::prefix::fork_snapshot(machine, job);

    for shot in range {
        let t0 = Instant::now();
        let seed = job.shot_seed(shot);
        let result = match &prefix {
            Some(snap) => machine.run_shot_from(snap, seed),
            None => machine.run_shot(seed),
        };
        latency.record(t0.elapsed().as_nanos() as u64);
        stats.merge(&result.stats);
        if !result.status.is_halted() {
            non_halted += 1;
            if first_failure.is_none() {
                first_failure = Some((shot, describe_status(&result.status)));
            }
        }
        let mut outcome = BitString::EMPTY;
        for q in 0..n {
            if let Some(v) = machine.measurement_value(eqasm_core::Qubit::new(q as u8)) {
                outcome.set(q, v);
            }
        }
        histogram.record(outcome);
        for (q, acc) in prob1_sum.iter_mut().enumerate() {
            *acc += machine.prob1(eqasm_core::Qubit::new(q as u8));
        }
    }

    let m = crate::metrics::rt();
    m.shots_executed.add(latency.count());
    m.batches_executed.inc();
    if prefix.is_some() {
        m.prefix_fork_shots.add(latency.count());
    }

    BatchOut {
        histogram,
        stats,
        prob1_sum,
        latency,
        non_halted,
        first_failure,
        elapsed_ns: started_at.elapsed().as_nanos() as u64,
    }
}

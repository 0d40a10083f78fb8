//! Service-level contracts of the `serve` job queue: final results
//! bit-identical to the engine, mid-run snapshots that are exact
//! prefixes of the final merge, weighted-fair tenant scheduling,
//! quota enforcement, program-cache behaviour, failure isolation, and
//! slot leases that fail or drain part way through.

use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use eqasm_core::{Bundle, BundleOp, Instantiation, OpTarget, QOpcode, Qubit, Topology};
use eqasm_microarch::{BackendSelect, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::{
    partition_shots, BackendDescriptor, BatchOut, ExecBackend, Job, JobHandle, JobQueue, JobResult,
    LocalBackend, RuntimeError, ServeConfig, ShotEngine, SlotState, Submission, WorkloadKind,
    WorkloadSpec,
};

/// A noisy RB job whose shots genuinely consume randomness, so any
/// scheduling or seed leak in the queue shows up in the histogram.
fn noisy_rb_job(name: &str, shots: u64, base_seed: u64) -> Job {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) =
        eqasm_workloads::rb_program(&inst, Qubit::new(0), 12, 1, 0xfeed).expect("rb emits");
    let mut config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0).with_gate_error(0.002, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    config.backend = BackendSelect::Pure;
    Job::new(name, inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(base_seed)
}

#[test]
fn queued_final_result_is_bit_identical_to_engine() {
    let job = noisy_rb_job("served", 96, 4242);
    let queue = JobQueue::new(ServeConfig::default().with_workers(3).with_batch_size(8));
    let handles = queue
        .submit(Submission::job("tenant-a", job.clone()))
        .expect("submits");
    let served = handles[0].wait().expect("completes");

    let engine_result = ShotEngine::serial()
        .with_batch_size(8)
        .run_job(&job)
        .expect("runs");
    assert_eq!(served.histogram, engine_result.histogram);
    assert_eq!(served.stats, engine_result.stats);
    assert_eq!(served.mean_prob1, engine_result.mean_prob1);
    assert_eq!(served.shots, 96);
    assert_eq!(served.non_halted, 0);
}

#[test]
fn mid_run_snapshots_are_exact_prefixes_of_the_final_merge() {
    // 12 batches of 8 shots on one worker: snapshots advance batch by
    // batch, and every mid-run snapshot must equal a *serial run of
    // just its first k batches* — bit-identical histogram, stats and
    // mean P(1), not an approximation.
    let job = noisy_rb_job("prefix", 96, 777);
    let queue = JobQueue::new(ServeConfig::default().with_workers(1).with_batch_size(8));
    let handles = queue
        .submit(Submission::job("tenant-a", job.clone()))
        .expect("submits");
    let handle = &handles[0];

    let mut observed = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = handle.snapshot();
        if snap.shots_done > 0
            && !snap.done
            && observed
                .iter()
                .all(|s: &eqasm_runtime::PartialResult| s.shots_done != snap.shots_done)
        {
            observed.push(snap.clone());
        }
        if snap.done || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let final_result = handle.wait().expect("completes");

    // Every snapshot exposes whole batches only.
    for snap in &observed {
        assert_eq!(snap.shots_done % 8, 0, "snapshots expose whole batches");
        assert_eq!(snap.shots_done, 8 * snap.batches_done as u64);
        assert_eq!(snap.batches_total, 12);

        // The acceptance check: snapshot-at-k == serial run of the
        // first k batches. Same program, same base seed, same batch
        // size, shot count truncated to the prefix.
        let prefix_job = job.clone().with_shots(snap.shots_done);
        let prefix = ShotEngine::serial()
            .with_batch_size(8)
            .run_job(&prefix_job)
            .expect("prefix runs");
        assert_eq!(
            snap.histogram, prefix.histogram,
            "prefix histogram diverged"
        );
        assert_eq!(snap.stats, prefix.stats, "prefix stats diverged");
        assert_eq!(
            snap.mean_prob1, prefix.mean_prob1,
            "prefix mean P(1) diverged"
        );
        assert_eq!(snap.non_halted, prefix.non_halted);
    }
    assert_eq!(final_result.histogram.total(), 96);
}

#[test]
fn fairness_tracks_tenant_weights_under_backlog() {
    // One worker, two backlogged tenants at weights 3:1. While both
    // have pending work, completed shots must track the weights: the
    // heavy tenant owns ~75% of completed shots at any mid-run sample.
    let queue = JobQueue::new(ServeConfig::default().with_workers(1).with_batch_size(8));
    queue.register_tenant("heavy", 3, u64::MAX);
    queue.register_tenant("light", 1, u64::MAX);

    let mut handles = Vec::new();
    for i in 0..2 {
        handles.extend(
            queue
                .submit(Submission::job(
                    "heavy",
                    noisy_rb_job(&format!("h{i}"), 320, i * 1000),
                ))
                .expect("submits"),
        );
        handles.extend(
            queue
                .submit(Submission::job(
                    "light",
                    noisy_rb_job(&format!("l{i}"), 320, 90_000 + i * 1000),
                ))
                .expect("submits"),
        );
    }
    let total: u64 = 4 * 320;

    // Sample completed shots while the queue is mid-backlog.
    let mut mid_samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let progress = queue.tenant_progress();
        let done: u64 = progress.iter().map(|(_, shots)| shots).sum();
        if done >= total || Instant::now() > deadline {
            break;
        }
        if done >= total / 4 && done <= 3 * total / 4 {
            mid_samples.push(progress);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for handle in &handles {
        handle.wait().expect("completes");
    }

    assert!(
        !mid_samples.is_empty(),
        "expected at least one mid-backlog sample"
    );
    // Check the last mid-run sample (most averaged-out).
    let sample = mid_samples.last().expect("nonempty");
    let heavy = sample
        .iter()
        .find(|(id, _)| id.as_str() == "heavy")
        .expect("heavy tenant")
        .1;
    let light = sample
        .iter()
        .find(|(id, _)| id.as_str() == "light")
        .expect("light tenant")
        .1;
    let share = heavy as f64 / (heavy + light) as f64;
    assert!(
        (share - 0.75).abs() <= 0.10,
        "weight-3 tenant had {share:.3} of completed shots mid-run, expected 0.75 ± 0.10"
    );
}

#[test]
fn quota_throttling_still_drains_the_queue() {
    // A quota *below* one batch's cost serializes the tenant's work
    // but must never deadlock or corrupt results (quota binds only
    // while shots are in flight).
    let queue = JobQueue::new(ServeConfig::default().with_workers(4).with_batch_size(8));
    queue.register_tenant("throttled", 1, 3);
    let job = noisy_rb_job("throttled-job", 64, 5);
    let handles = queue
        .submit(Submission::job("throttled", job.clone()))
        .expect("submits");
    let served = handles[0].wait().expect("completes despite quota");
    let reference = ShotEngine::serial()
        .with_batch_size(8)
        .run_job(&job)
        .expect("runs");
    assert_eq!(served.histogram, reference.histogram);
    assert_eq!(served.stats, reference.stats);
}

#[test]
fn program_cache_hits_on_repeated_workload_kinds() {
    let queue = JobQueue::new(ServeConfig::default().with_workers(2));
    let kind = WorkloadKind::Rb {
        k: 4,
        interval_cycles: 1,
        sequence_seed: 9,
    };
    // Three instances of one spec: one build, stamped three times.
    let spec_a = WorkloadSpec::new("rb-a", kind.clone(), 16).with_weight(3);
    let a = queue
        .submit(Submission::workload("tenant-a", spec_a))
        .expect("submits");
    assert_eq!(a.len(), 3, "weight-3 spec expands to three instances");
    let after_first = queue.cache_stats();
    assert_eq!(after_first.misses, 1);
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.entries, 1);

    // The same kind again (another tenant, another seed): a cache hit.
    let spec_b = WorkloadSpec::new("rb-b", kind, 16).with_seed(999);
    let b = queue
        .submit(Submission::workload("tenant-b", spec_b))
        .expect("submits");
    let after_second = queue.cache_stats();
    assert_eq!(after_second.misses, 1, "identical kind must not rebuild");
    assert_eq!(after_second.hits, 1);

    // A different kind is a miss.
    let other = WorkloadSpec::new("reset", WorkloadKind::ActiveReset { init_cycles: 30 }, 16);
    queue
        .submit(Submission::workload("tenant-a", other))
        .expect("submits");
    assert_eq!(queue.cache_stats().misses, 2);

    for handle in a.iter().chain(&b) {
        handle.wait().expect("completes");
    }
}

/// A stream of distinct `Source` specs, each waited for and released,
/// holds no build once its jobs are gone: spec shapes live only as
/// long as some job of them.
#[test]
fn released_spec_jobs_leave_no_live_builds() {
    let queue = JobQueue::new(ServeConfig::default().with_workers(1));
    for i in 0..10_000 {
        let text = format!("QWAIT {}\nSTOP", i + 1);
        let spec = WorkloadSpec::new("src", WorkloadKind::Source { text }, 0);
        let handles = queue
            .submit(Submission::workload("t", spec))
            .expect("submits");
        for handle in &handles {
            handle
                .wait()
                .expect("a zero-shot job finishes at submission");
            assert!(handle.release());
        }
    }
    let stats = queue.cache_stats();
    assert_eq!((stats.misses, stats.entries), (10_000, 0));
}

/// A job admitted to an empty held pool waits for capacity, and runs
/// exactly once a slot attaches.
#[test]
fn held_job_runs_exactly_once_capacity_attaches() {
    let job = noisy_rb_job("held", 48, 17);
    let queue = JobQueue::with_backends(
        ServeConfig::default()
            .with_batch_size(8)
            .with_hold_when_empty(true),
        Vec::new(),
    );
    let handles = queue
        .submit(Submission::job("tenant", job.clone()))
        .expect("submits");
    assert!(!handles[0].is_done(), "nothing can run yet");
    queue
        .attach_backend(Box::new(LocalBackend::new(0)))
        .expect("attaches");
    let served = handles[0].wait().expect("completes");
    let reference = ShotEngine::serial()
        .with_batch_size(8)
        .run_job(&job)
        .expect("engine runs");
    assert_eq!(served.histogram, reference.histogram);
    assert_eq!(served.stats, reference.stats);
    assert_eq!(served.mean_prob1, reference.mean_prob1);
}

/// Jobs of one shape share one interned `Arc<JobShape>`, and releasing
/// every job of the shape frees it: no released entry, slot machine or
/// placeholder keeps it alive.
#[test]
fn released_jobs_drop_their_shape() {
    let queue = JobQueue::new(ServeConfig::default().with_workers(2).with_batch_size(8));
    // Two jobs of one shape, built apart: admission interns the second
    // onto the first.
    let first = noisy_rb_job("first", 32, 1);
    let second = noisy_rb_job("second", 32, 2);
    assert!(!Arc::ptr_eq(&first.shape, &second.shape));
    let shape = Arc::downgrade(&first.shape);
    let duplicate = Arc::downgrade(&second.shape);
    let mut handles = queue
        .submit(Submission::job("tenant", first))
        .expect("submits");
    handles.extend(
        queue
            .submit(Submission::job("tenant", second))
            .expect("submits"),
    );
    assert!(
        duplicate.upgrade().is_none(),
        "the second job runs the first one's shape"
    );
    for h in &handles {
        h.wait().expect("completes");
    }
    assert!(shape.upgrade().is_some(), "retained jobs hold their shape");
    for h in &handles {
        assert!(h.release());
    }
    // Joins the slots, which may still hold their last batch's job.
    queue.shutdown();
    assert!(shape.upgrade().is_none(), "released jobs hold no shape");
}

#[test]
fn load_failure_fails_the_job_without_poisoning_the_queue() {
    let queue = JobQueue::new(ServeConfig::default().with_workers(2).with_batch_size(4));
    // A bundle with an unconfigured opcode fails machine validation.
    let inst = Instantiation::paper_two_qubit();
    let bad_program = vec![
        eqasm_core::Instruction::Bundle(Bundle::new(vec![BundleOp {
            opcode: QOpcode::new(0x1ff),
            target: OpTarget::None,
        }])),
        eqasm_core::Instruction::Stop,
    ];
    let bad = Job::new("bad", inst, bad_program).with_shots(32);
    let good = noisy_rb_job("good", 32, 3);

    let bad_handles = queue
        .submit(Submission::job("tenant-a", bad))
        .expect("submission itself is accepted");
    let good_handles = queue
        .submit(Submission::job("tenant-a", good))
        .expect("submits");

    match bad_handles[0].wait() {
        Err(RuntimeError::Service(msg)) => {
            assert!(msg.contains("bad"), "error names the job: {msg}")
        }
        other => panic!("expected a service error, got {other:?}"),
    }
    let snap = bad_handles[0].snapshot();
    assert!(snap.done);
    assert!(snap.failed.is_some());

    // The queue keeps serving other jobs after the failure.
    let good_result = good_handles[0].wait().expect("unaffected job completes");
    assert_eq!(good_result.histogram.total(), 32);
}

#[test]
fn snapshot_reports_queue_wait_and_progress() {
    let queue = JobQueue::new(ServeConfig::default().with_workers(1));
    let handles = queue
        .submit(Submission::job("t", noisy_rb_job("timed", 32, 1)))
        .expect("submits");
    let result = handles[0].wait().expect("completes");
    assert_eq!(result.shots, 32);
    let snap = handles[0].snapshot();
    assert!(snap.done);
    assert_eq!(snap.progress(), 1.0);
    assert!(snap.active > Duration::ZERO, "active span covers the run");
    assert_eq!(snap.tenant.as_str(), "t");
}

/// A Clifford two-qubit job with random outcomes on both qubits. Its
/// shots are cheap (forked from a prefix, then read from the slot's
/// outcome trie), so a slot's leases run many batches even in debug
/// builds.
fn clifford_job(name: &str, shots: u64, base_seed: u64) -> Job {
    let inst = Instantiation::paper_two_qubit();
    let program = eqasm_asm::assemble(
        "SMIS S0, {0}\nSMIS S1, {1}\nSMIT T0, {(0, 2)}\nQWAIT 20\nH S0\nCZ T0\nX90 S1\n\
         MEASZ S0\nMEASZ S1\nQWAIT 50\nSTOP",
        &inst,
    )
    .expect("assembles");
    Job::new(name, inst, program.instructions().to_vec())
        .with_shots(shots)
        .with_seed(base_seed)
}

/// Reads one counter from the process-global metrics registry.
fn counter(name: &str) -> f64 {
    eqasm_runtime::metrics::default_registry()
        .encode()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Asserts `served` equals the engine's run of `job` on every
/// deterministic field.
fn assert_engine_identical(served: &JobResult, job: &Job, batch_size: u64) {
    let engine = ShotEngine::serial()
        .with_batch_size(batch_size)
        .run_job(job)
        .expect("engine runs");
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(served.histogram, engine.histogram);
    assert_eq!(served.stats, engine.stats);
    assert_eq!(bits(&served.mean_prob1), bits(&engine.mean_prob1));
    assert_eq!(served.non_halted, engine.non_halted);
    assert_eq!(served.first_failure, engine.first_failure);
}

/// The ranges slots ran, in run order; `Err` marks a failed run.
type RunLog = Arc<Mutex<Vec<Result<Range<u64>, Range<u64>>>>>;

/// A local backend that logs every range it runs and hands the second
/// batch of a lease, once, to `mid_lease`. No batch folds while a slot
/// runs a lease, so a batch that finds its job's folded-batch count
/// where the previous batch found it is not the first of its lease.
struct MidLease {
    inner: LocalBackend,
    job: JobHandle,
    log: RunLog,
    last_folded: Option<usize>,
    mid_lease: Option<Box<dyn FnOnce() -> Result<(), RuntimeError> + Send>>,
}

impl MidLease {
    fn new(
        job: &JobHandle,
        log: &RunLog,
        mid_lease: impl FnOnce() -> Result<(), RuntimeError> + Send + 'static,
    ) -> Self {
        MidLease {
            inner: LocalBackend::new(0),
            job: job.clone(),
            log: Arc::clone(log),
            last_folded: None,
            mid_lease: Some(Box::new(mid_lease)),
        }
    }
}

impl ExecBackend for MidLease {
    fn descriptor(&self) -> BackendDescriptor {
        self.inner.descriptor()
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        let folded = self.job.progress_probe().0;
        if self.last_folded.replace(folded) == Some(folded) {
            if let Some(hook) = self.mid_lease.take() {
                if let Err(err) = hook() {
                    self.log.lock().unwrap().push(Err(range));
                    return Err(err);
                }
            }
        }
        self.log.lock().unwrap().push(Ok(range.clone()));
        self.inner.run_range(job, range)
    }
}

/// A local backend that only logs the ranges it runs.
struct Logged(LocalBackend, RunLog);

impl ExecBackend for Logged {
    fn descriptor(&self) -> BackendDescriptor {
        self.0.descriptor()
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        self.1.lock().unwrap().push(Ok(range.clone()));
        self.0.run_range(job, range)
    }
}

/// Submits `job` to an empty held queue, so a backend built from its
/// handle can be attached before anything runs.
fn held_queue(job: &Job, batch_size: u64) -> (JobQueue, JobHandle) {
    let queue = JobQueue::with_backends(
        ServeConfig::default()
            .with_batch_size(batch_size)
            .with_hold_when_empty(true),
        Vec::new(),
    );
    let handle = queue
        .submit(Submission::job("tenant", job.clone()))
        .expect("submits")
        .remove(0);
    (queue, handle)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A transport failure on a lease's second batch: the first batch
/// folds, the failed one is the lease's only retry, and the unrun tail
/// goes back in order and runs once.
#[test]
fn a_transport_failure_mid_lease_retries_one_batch() {
    let job = clifford_job("mid-lease-failure", 400, 71);
    let (queue, handle) = held_queue(&job, 2);
    let log = RunLog::default();
    let retries = counter("eqasm_batch_retries_total");
    queue
        .attach_backend(Box::new(MidLease::new(&handle, &log, || {
            Err(RuntimeError::Transport {
                backend: "local-0".to_owned(),
                message: "injected mid-lease failure".to_owned(),
            })
        })))
        .expect("attaches");
    let served = handle.wait().expect("completes");
    // Only this test fails a transport in this binary.
    assert_eq!(counter("eqasm_batch_retries_total") - retries, 1.0);

    let log = log.lock().unwrap();
    let failed: Vec<_> = log.iter().filter_map(|r| r.clone().err()).collect();
    assert_eq!(failed.len(), 1, "the failure was injected once");
    // One slot, one job: every batch ran once, in batch order, the
    // failed one again right where it failed and its tail after it.
    let ran: Vec<_> = log.iter().filter_map(|r| r.clone().ok()).collect();
    assert_eq!(ran, partition_shots(job.shots, 2));
    assert_eq!(queue.pool_status()[0].consecutive_failures, 0);
    assert_engine_identical(&served, &job, 2);
}

/// A slot detached mid-lease runs and folds the rest of its lease,
/// then retires; a new slot finishes the job. No batch is lost or run
/// twice.
#[test]
fn a_slot_detached_mid_lease_finishes_its_lease_then_retires() {
    let job = clifford_job("mid-lease-detach", 400, 72);
    let (queue, handle) = held_queue(&job, 2);
    let queue = Arc::new(queue);
    let log = RunLog::default();
    let (detached_tx, detached_rx) = mpsc::channel();
    let (detacher, probe) = (Arc::clone(&queue), handle.clone());
    let slot = queue
        .attach_backend(Box::new(MidLease::new(&handle, &log, move || {
            detacher.detach_backend(0).expect("detaches");
            let state = detacher.pool_status()[0].state;
            detached_tx
                .send((state, probe.progress_probe().0))
                .expect("test listens");
            Ok(())
        })))
        .expect("attaches");
    assert_eq!(slot, 0);
    let (state, folded_at_detach) = detached_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a lease of two or more batches ran");
    assert_eq!(state, SlotState::Draining);
    wait_until("the drained slot to retire", || {
        queue.pool_status()[0].state == SlotState::Retired
    });
    let (folded, done) = handle.progress_probe();
    assert!(!done, "the job outlives one lease");
    assert!(
        folded >= folded_at_detach + 2,
        "the draining slot ran and folded the rest of its lease"
    );
    assert_eq!(folded, log.lock().unwrap().len(), "all it ran folded");

    queue
        .attach_backend(Box::new(Logged(LocalBackend::new(1), Arc::clone(&log))))
        .expect("attaches a replacement");
    let served = handle.wait().expect("completes");
    let mut ran: Vec<_> = log
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.clone().expect("nothing fails"))
        .collect();
    ran.sort_by_key(|r| r.start);
    assert_eq!(ran, partition_shots(job.shots, 2), "each batch ran once");
    let status = queue.pool_status();
    assert_eq!(
        status[0].batches_completed + status[1].batches_completed,
        200
    );
    assert_engine_identical(&served, &job, 2);
}

//! Service-level contracts of the `serve` job queue: final results
//! bit-identical to the engine, mid-run snapshots that are exact
//! prefixes of the final merge, weighted-fair tenant scheduling,
//! quota enforcement, program-cache behaviour and failure isolation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eqasm_core::{Bundle, BundleOp, Instantiation, OpTarget, QOpcode, Qubit, Topology};
use eqasm_microarch::{BackendSelect, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::{
    Job, JobQueue, LocalBackend, RuntimeError, ServeConfig, ShotEngine, Submission, WorkloadKind,
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

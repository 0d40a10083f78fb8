//! End-to-end tests of the serve front door: a [`Client`] submits a
//! multi-tenant mix to a `spawn_serve` acceptor over real TCP,
//! streams [`PartialResult`] snapshots, and every streamed prefix and
//! final aggregate must be **bit-identical** to local execution of
//! the same jobs — the serve queue's determinism invariant, proven
//! across the client wire. (CI additionally runs the same contract
//! against a separate `eqasm-cli serve --listen` *process* via
//! `eqasm-cli submit --connect --verify-serial`.)

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{RunStats, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm_runtime::{
    spawn_serve, Client, ConnectOptions, Histogram, Job, LocalBackend, Psk, RuntimeError,
    ServeHandle, ServeNetConfig, ShotEngine, WorkloadKind, WorkloadSpec,
};

/// A noisy RB job on the stochastic trajectory backend: every shot
/// consumes randomness, so any divergence between the remote and
/// local paths shows up in the aggregates.
fn noisy_job(name: &str, shots: u64, base_seed: u64) -> Job {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) =
        eqasm_workloads::rb_program(&inst, Qubit::new(0), 10, 1, 0xfeed).expect("rb emits");
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0).with_gate_error(0.002, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    Job::new(name, inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(base_seed)
}

/// A queue with `workers` local slots behind a loopback acceptor.
fn serve_fixture(workers: usize, batch: u64, net: ServeNetConfig) -> (Arc<JobQueue>, ServeHandle) {
    let queue = Arc::new(JobQueue::new(
        ServeConfig::default()
            .with_workers(workers)
            .with_batch_size(batch),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = spawn_serve(listener, Arc::clone(&queue), net).expect("spawn serve");
    (queue, handle)
}

/// Per-prefix serial references for `job` at batch size `batch`:
/// entry `k` is (histogram, stats, mean-prob1) of the first `k`
/// batches, folded in batch order — what any snapshot with
/// `batches_done == k` must match bit-exactly.
fn prefix_references(job: &Job, batch: u64) -> Vec<(Histogram, RunStats, Vec<f64>)> {
    use eqasm_runtime::ExecBackend as _;
    let num_qubits = job.shape.inst().topology().num_qubits();
    let mut backend = LocalBackend::new(0);
    let mut histogram = Histogram::new();
    let mut stats = RunStats::default();
    let mut prob1_sum = vec![0.0f64; num_qubits];
    let mut shots_done = 0u64;
    let mut prefixes = vec![(histogram.clone(), stats, prob1_sum.clone())];
    let mut start = 0u64;
    while start < job.shots {
        let end = (start + batch).min(job.shots);
        let out = backend.run_range(job, start..end).expect("reference range");
        histogram.merge(&out.histogram);
        stats.merge(&out.stats);
        for (acc, s) in prob1_sum.iter_mut().zip(&out.prob1_sum) {
            *acc += s;
        }
        shots_done += end - start;
        let mean: Vec<f64> = prob1_sum.iter().map(|s| s / shots_done as f64).collect();
        prefixes.push((histogram.clone(), stats, mean));
        start = end;
    }
    prefixes
}

/// The acceptance criterion: a remote client submits a multi-tenant
/// mix over TCP, streams partials, and every streamed prefix and the
/// final aggregate are bit-identical to `ShotEngine::run_job`.
#[test]
fn remote_mix_streams_bit_identical_prefixes_and_finals() {
    let batch = 8u64;
    let (_queue, server) = serve_fixture(2, batch, ServeNetConfig::default());
    let client = Client::connect(server.addr().to_string()).expect("connects");

    // A multi-tenant mix: two prebuilt jobs under different tenants
    // plus a two-instance workload spec under a third.
    let job_a = noisy_job("client-a", 96, 1111);
    let job_b = noisy_job("client-b", 64, 2222);
    let spec = WorkloadSpec::new(
        "reset-sweep",
        WorkloadKind::ActiveReset { init_cycles: 40 },
        48,
    )
    .with_weight(2)
    .with_seed(33);

    let handles_a = client
        .submit(Submission::job("tenant-a", job_a.clone()))
        .expect("submits a");
    let handles_b = client
        .submit(Submission::job("tenant-b", job_b.clone()))
        .expect("submits b");
    let handles_spec = client
        .submit(Submission::workload("tenant-c", spec.clone()))
        .expect("submits spec");
    assert_eq!(handles_a.len(), 1);
    assert_eq!(handles_b.len(), 1);
    assert_eq!(handles_spec.len(), 2, "weight-2 spec expands to 2 jobs");

    // Stream job A, checking every observed snapshot against the
    // serial per-prefix references.
    let prefixes = prefix_references(&job_a, batch);
    let mut snapshots_seen = 0usize;
    let result_a = handles_a[0]
        .watch(|snap| {
            snapshots_seen += 1;
            assert_eq!(snap.shots_total, 96);
            assert_eq!(snap.tenant.as_str(), "tenant-a");
            let (h, s, m) = &prefixes[snap.batches_done];
            assert_eq!(&snap.histogram, h, "prefix {} histogram", snap.batches_done);
            assert_eq!(&snap.stats, s, "prefix {} stats", snap.batches_done);
            assert_eq!(&snap.mean_prob1, m, "prefix {} mean", snap.batches_done);
        })
        .expect("job a completes");
    assert!(snapshots_seen > 0, "subscription must stream snapshots");

    let reference_a = ShotEngine::serial()
        .with_batch_size(batch)
        .run_job(&job_a)
        .expect("reference a");
    assert_eq!(result_a.histogram, reference_a.histogram);
    assert_eq!(result_a.stats, reference_a.stats);
    assert_eq!(result_a.mean_prob1, reference_a.mean_prob1);
    assert_eq!(result_a.shots, 96);

    // The other tenants' jobs: final aggregates bit-identical too.
    let result_b = handles_b[0].wait().expect("job b completes");
    let reference_b = ShotEngine::serial()
        .with_batch_size(batch)
        .run_job(&job_b)
        .expect("reference b");
    assert_eq!(result_b.histogram, reference_b.histogram);
    assert_eq!(result_b.stats, reference_b.stats);
    assert_eq!(result_b.mean_prob1, reference_b.mean_prob1);

    for (instance, handle) in handles_spec.iter().enumerate() {
        let result = handle.wait().expect("spec instance completes");
        let job = spec
            .build_instance(instance as u32)
            .expect("instance builds");
        let reference = ShotEngine::serial()
            .with_batch_size(batch)
            .run_job(&job)
            .expect("reference runs");
        assert_eq!(result.histogram, reference.histogram, "instance {instance}");
        assert_eq!(result.stats, reference.stats);
        assert_eq!(result.mean_prob1, reference.mean_prob1);
    }
}

#[test]
fn job_ids_are_visible_across_connections() {
    let (_queue, server) = serve_fixture(1, 8, ServeNetConfig::default());
    let submitter = Client::connect(server.addr().to_string()).expect("connects");
    let handles = submitter
        .submit(Submission::job("tenant", noisy_job("cross-conn", 32, 5)))
        .expect("submits");
    let job_id = handles[0].job_id();

    // A second, independent connection polls and waits on the id —
    // what `eqasm-cli status/watch --job <id>` does.
    let watcher = Client::connect(server.addr().to_string()).expect("second connection");
    let snap = watcher.poll_id(job_id).expect("polls");
    assert_eq!(snap.name, "cross-conn");
    assert_eq!(snap.shots_total, 32);
    let result = watcher.wait_id(job_id).expect("waits");
    assert_eq!(result.shots, 32);
    // And the original handle agrees.
    let own = handles[0].wait().expect("own wait");
    assert_eq!(own.histogram, result.histogram);
}

#[test]
fn unknown_job_id_is_a_typed_service_error() {
    let (_queue, server) = serve_fixture(1, 8, ServeNetConfig::default());
    let client = Client::connect(server.addr().to_string()).expect("connects");
    let err = client.poll_id(999_999).expect_err("unknown id");
    assert!(matches!(err, RuntimeError::Service(_)), "{err}");
    assert!(err.to_string().contains("unknown job id"), "{err}");
    // The connection survives a bad id: a real submission still works.
    let handles = client
        .submit(Submission::job("tenant", noisy_job("after-miss", 16, 6)))
        .expect("submits after miss");
    assert_eq!(handles[0].wait().expect("completes").shots, 16);
}

#[test]
fn serve_front_door_enforces_psk() {
    let psk = Psk::new(b"front-door-key".to_vec()).unwrap();
    let (_queue, server) = serve_fixture(1, 8, ServeNetConfig::default().with_psk(psk.clone()));
    let addr = server.addr().to_string();

    let err = Client::connect(addr.clone()).expect_err("keyless client refused");
    assert!(matches!(err, RuntimeError::Auth(_)), "{err}");

    let wrong = Psk::new(b"wrong".to_vec()).unwrap();
    let err = Client::connect_opts(addr.clone(), ConnectOptions::default().with_psk(wrong))
        .expect_err("wrong key refused");
    assert!(matches!(err, RuntimeError::Auth(_)), "{err}");

    let client = Client::connect_opts(addr, ConnectOptions::default().with_psk(psk))
        .expect("right key connects");
    let handles = client
        .submit(Submission::job("tenant", noisy_job("authed", 16, 8)))
        .expect("submits");
    assert_eq!(handles[0].wait().expect("completes").shots, 16);
}

#[test]
fn admission_rejection_crosses_the_wire_typed() {
    let queue = Arc::new(JobQueue::new(
        ServeConfig::default()
            .with_workers(1)
            .with_batch_size(8)
            .with_pending_cap(32),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server =
        spawn_serve(listener, Arc::clone(&queue), ServeNetConfig::default()).expect("spawn serve");
    let client = Client::connect(server.addr().to_string()).expect("connects");

    let err = client
        .submit(Submission::job("greedy", noisy_job("too-big", 1_000, 1)))
        .expect_err("over-cap submission rejected");
    let rendered = err.to_string();
    assert!(
        rendered.contains("rejected at admission") && rendered.contains("32"),
        "admission details must survive the wire: {rendered}"
    );
    // Nothing was enqueued; a conforming submission goes through.
    let handles = client
        .submit(Submission::job("greedy", noisy_job("fits", 16, 2)))
        .expect("submits within cap");
    assert_eq!(handles[0].wait().expect("completes").shots, 16);
}

#[test]
fn front_door_rejects_a_v5_hello_typed() {
    use eqasm_runtime::wire;
    let (_queue, server) = serve_fixture(1, 8, ServeNetConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connects");
    wire::write_frame(
        &mut stream,
        wire::tag::HELLO,
        &wire::Hello { version: 5 }.encode(),
    )
    .unwrap();
    let (tag, payload) = wire::read_frame(&mut stream).expect("answer");
    assert_eq!(tag, wire::tag::ERROR);
    let msg = wire::ErrorMsg::decode(&payload).expect("typed error");
    assert_eq!(msg.kind, wire::ErrorKind::Version);
    assert_eq!(msg.version, wire::PROTOCOL_VERSION);
}

#[test]
fn keepalive_snapshots_are_deduplicated() {
    // A small job on a slow-snapshot acceptor: the client's watch
    // callback must see each prefix at most once even though the
    // server re-sends keepalives.
    let net = ServeNetConfig {
        keepalive: Duration::from_millis(10),
        ..ServeNetConfig::default()
    };
    let (_queue, server) = serve_fixture(1, 8, net);
    let client = Client::connect(server.addr().to_string()).expect("connects");
    let handles = client
        .submit(Submission::job("tenant", noisy_job("keepalive", 24, 3)))
        .expect("submits");
    let mut seen: Vec<usize> = Vec::new();
    handles[0]
        .watch(|snap| {
            if !snap.done {
                assert!(
                    !seen.contains(&snap.batches_done),
                    "prefix {} delivered twice",
                    snap.batches_done
                );
            }
            seen.push(snap.batches_done);
        })
        .expect("completes");
    assert!(!seen.is_empty());
}

#[test]
fn completed_retention_evicts_and_releases_old_jobs() {
    // Retention 2: the front door keeps at most 2 finished jobs
    // addressable; older ones are released from the queue's job table
    // and answer "released", while running and recent jobs stay
    // intact.
    let net = ServeNetConfig::default().with_completed_retention(2);
    let (_queue, server) = serve_fixture(1, 8, net);
    let client = Client::connect(server.addr().to_string()).expect("connects");

    let mut ids = Vec::new();
    for i in 0..4u64 {
        let handles = client
            .submit(Submission::job(
                "tenant",
                noisy_job(&format!("retained-{i}"), 16, i),
            ))
            .expect("submits");
        // Finish each before the next submission so eviction sweeps
        // always find completed candidates.
        let result = handles[0].wait().expect("completes");
        assert_eq!(result.shots, 16);
        ids.push(handles[0].job_id());
    }

    // The oldest finished job aged out of the window, and says so...
    let err = client.poll_id(ids[0]).expect_err("evicted id");
    assert!(matches!(err, RuntimeError::Service(_)), "{err}");
    assert!(err.to_string().contains("released"), "{err}");
    // ...while the newest is still addressable with its full result.
    let snap = client.poll_id(ids[3]).expect("recent id still polls");
    assert!(snap.done);
    assert_eq!(snap.shots_done, 16);
    assert!(!snap.histogram.is_empty(), "recent result payload intact");
}

/// Subscription resume across watcher *processes*: a fresh watch
/// seeded with a prefix some previous (dead) watcher already folded
/// must deliver only strictly-newer prefixes — never re-deliver, never
/// skip (each snapshot is a cumulative prefix) — and still end in the
/// identical final result. This is the in-process half of the CI leg
/// that kill -9's an `eqasm-cli watch` and restarts it with
/// `--resume-after`.
#[test]
fn seeded_resume_delivers_only_unseen_prefixes() {
    let batch = 8u64;
    let (_queue, server) = serve_fixture(2, batch, ServeNetConfig::default());
    let client = Client::connect(server.addr().to_string()).expect("connects");
    let job = noisy_job("resume", 96, 4242); // 12 batches of 8
    let handles = client
        .submit(Submission::job("tenant-r", job))
        .expect("submits");
    let job_id = handles[0].job_id();

    // The unbroken control: every delivered prefix, strictly
    // increasing, ending done.
    let mut unbroken = Vec::new();
    let full = client
        .watch_id(job_id, |s| unbroken.push(s.batches_done as u64))
        .expect("unbroken watch completes");
    assert!(unbroken.windows(2).all(|w| w[0] < w[1]), "{unbroken:?}");

    // A second watcher life resuming mid-stream: only prefixes past
    // the seed may arrive (the completion frame qualifies — its
    // prefix is the whole job), and the result is bit-identical.
    let resume_at = 5u64;
    let mut resumed = Vec::new();
    let res = client
        .watch_id_from(job_id, Some(resume_at), |s| {
            resumed.push(s.batches_done as u64)
        })
        .expect("resumed watch completes");
    assert!(!resumed.is_empty(), "resume must still complete the stream");
    assert!(
        resumed.iter().all(|&b| b > resume_at),
        "re-delivered at-or-below the resume point: {resumed:?}"
    );
    assert_eq!(res.histogram, full.histogram);
    assert_eq!(res.stats, full.stats);
    assert_eq!(res.mean_prob1, full.mean_prob1);

    // Resuming from the final prefix: nothing left but the completion
    // frame and the result.
    let mut tail = Vec::new();
    let res2 = client
        .watch_id_from(job_id, Some(12), |s| {
            assert!(s.done, "only the completion frame may follow");
            tail.push(s.batches_done);
        })
        .expect("tail resume completes");
    assert!(tail.len() <= 1, "{tail:?}");
    assert_eq!(res2.histogram, full.histogram);
}

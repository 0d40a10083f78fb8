//! Measures shot-engine throughput (shots/sec) at 1/2/4/8 workers on
//! an RB workload, runs the same traffic through the `eqasm-serve`
//! job queue to record queue wait vs active time per job, then runs a
//! loopback-remote section (local slots + an in-process worker daemon
//! over the wire protocol) to price the transport, and emits a
//! `BENCH_runtime.json` trajectory point for trend tracking.
//!
//! Usage: `cargo run --release -p eqasm-bench --bin throughput [shots] [out.json]`

use std::sync::Arc;

use eqasm_bench::loadgen::{
    capacity_sweep, Ceilings, LoadClass, LoadSpec, MetricsSnapshot, RpsStep, ShotsDist,
    SweepConfig, SweepTarget,
};
use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::SimConfig;
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::{
    spawn_serve, spawn_worker, Client, ExecBackend, ExecPolicy, Job, JobQueue, JournalConfig,
    LocalBackend, MetricsServer, RemoteBackend, ServeConfig, ServeNetConfig, ShotEngine,
    Submission, WorkerConfig, WorkloadKind, WorkloadSpec,
};
use eqasm_workloads::rb_program;

/// Reads one series from the process-global metrics registry by
/// parsing the exposition text, the same way an external Prometheus
/// would.
fn sample_metric(name: &str) -> f64 {
    MetricsSnapshot::parse(&eqasm_runtime::metrics::default_registry().encode()).value(name)
}

fn main() {
    // The execution-path switches, read once: the library reads no
    // environment.
    let policy = ExecPolicy::parse(
        std::env::var("EQASM_EXEC_PATH").ok().as_deref(),
        std::env::var("EQASM_PREFIX").ok().as_deref(),
    )
    .expect("EQASM_EXEC_PATH / EQASM_PREFIX");
    let shots: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_runtime.json".to_owned());

    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) = rb_program(&inst, Qubit::new(0), 24, 1, 0x5eed).expect("rb emits");
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    let job = Job::new("rb-k24", inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(1);

    println!("runtime throughput: RB k=24, {shots} shots/run");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "workers", "shots/s", "p50 µs", "p95 µs", "p99 µs", "speedup"
    );

    let mut rows = Vec::new();
    let mut serial_rate = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        // Best of three runs: the engine's determinism means only
        // wall-clock varies, so the max is the cleanest capacity
        // number on a shared host.
        let mut best: Option<eqasm_runtime::JobResult> = None;
        for _ in 0..3 {
            let r = ShotEngine::new(workers)
                .with_policy(policy)
                .run_job(&job)
                .expect("runs");
            if best
                .as_ref()
                .is_none_or(|b| r.shots_per_sec > b.shots_per_sec)
            {
                best = Some(r);
            }
        }
        let r = best.expect("three runs");
        if workers == 1 {
            serial_rate = r.shots_per_sec;
        }
        let speedup = r.shots_per_sec / serial_rate.max(1e-9);
        let latency = r.latency.stats();
        println!(
            "{:>8} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x",
            workers,
            r.shots_per_sec,
            latency.p50_ns as f64 / 1e3,
            latency.p95_ns as f64 / 1e3,
            latency.p99_ns as f64 / 1e3,
            speedup,
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"shots_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"speedup\": {:.3}}}",
            r.shots_per_sec,
            latency.p50_ns as f64 / 1e3,
            latency.p95_ns as f64 / 1e3,
            latency.p99_ns as f64 / 1e3,
            speedup,
        ));
    }

    // Program-aware execution paths: one ideal Clifford RB sequence
    // (deep enough that the deterministic prefix dominates shot cost)
    // through the four path combinations — legacy dense, dense with
    // prefix forking, stabilizer without forking (`prefix: false`, the
    // same lever the determinism CI uses) and the full fast path.
    // The exact-regime contract makes all four bit-identical, which is
    // asserted; only the shots/sec may differ. The fast path's target
    // is ≥5× the legacy dense baseline.
    let sp_shots = (shots / 2).max(200);
    let sp_inst = Instantiation::paper().with_topology(Topology::linear(3));
    let (sp_program, _) = rb_program(&sp_inst, Qubit::new(0), 64, 1, 0xc11f).expect("rb emits");
    let sp_base = Job::new("rb-k64-clifford", sp_inst, sp_program)
        .with_config(SimConfig::default().with_readout(ReadoutModel::symmetric(0.05)))
        .with_shots(sp_shots)
        .with_seed(2);
    println!("\nshot speed: ideal Clifford RB k=64 on 3 qubits, {sp_shots} shots, 4 workers");
    println!("{:>22} {:>12} {:>9}", "path", "shots/s", "speedup");
    let mut sp_rows = Vec::new();
    let mut sp_reference: Option<eqasm_runtime::JobResult> = None;
    let mut sp_dense_rate = 0.0f64;
    let mut sp_fast_speedup = 0.0f64;
    for (path, backend, prefix_on) in [
        ("dense", eqasm_microarch::BackendSelect::Dense, false),
        (
            "dense_prefix",
            eqasm_microarch::BackendSelect::Density,
            true,
        ),
        (
            "stabilizer_noprefix",
            eqasm_microarch::BackendSelect::Auto,
            false,
        ),
        (
            "stabilizer_prefix",
            eqasm_microarch::BackendSelect::Auto,
            true,
        ),
    ] {
        // `Dense` already disables forking engine-side; the policy
        // covers the stabilizer row and keeps the A/B symmetric.
        let sp_engine = ShotEngine::new(4).with_policy(ExecPolicy {
            backend: None,
            prefix: prefix_on,
        });
        let mut sp_config = sp_base.shape.config().clone();
        sp_config.backend = backend;
        let sp_job = Job {
            name: format!("rb-k64-{path}"),
            ..sp_base.clone()
        }
        .with_config(sp_config);
        let mut best: Option<eqasm_runtime::JobResult> = None;
        for _ in 0..2 {
            let r = sp_engine.run_job(&sp_job).expect("runs");
            if best
                .as_ref()
                .is_none_or(|b| r.shots_per_sec > b.shots_per_sec)
            {
                best = Some(r);
            }
        }
        let r = best.expect("two runs");
        match &sp_reference {
            None => {
                sp_dense_rate = r.shots_per_sec;
                sp_reference = Some(r.clone());
            }
            Some(reference) => {
                assert_eq!(
                    reference.histogram, r.histogram,
                    "{path}: execution path must not move a bit of the histogram"
                );
                assert_eq!(reference.stats, r.stats);
                assert_eq!(reference.mean_prob1, r.mean_prob1);
            }
        }
        let speedup = r.shots_per_sec / sp_dense_rate.max(1e-9);
        if path == "stabilizer_prefix" {
            sp_fast_speedup = speedup;
        }
        println!("{:>22} {:>12.0} {:>8.2}x", path, r.shots_per_sec, speedup);
        sp_rows.push(format!(
            "      {{\"path\": \"{path}\", \"shots_per_sec\": {:.1}, \"speedup\": {:.3}}}",
            r.shots_per_sec, speedup,
        ));
    }
    println!(
        "shot speed: stabilizer+prefix fast path is {sp_fast_speedup:.2}x legacy dense (target >= 5x), bit-identical"
    );

    // Serve-mode: the same RB traffic split over two tenants through
    // the job queue, so the trajectory also tracks how long a job sits
    // queued (scheduling delay) vs how long it actively runs.
    let serve_workers = 2usize;
    let per_job = (shots / 4).max(1);
    println!("\nserve mode: 4 jobs × {per_job} shots, 2 tenants (cal weight 3, batch weight 1), {serve_workers} workers");
    let queue = JobQueue::new(
        ServeConfig::default()
            .with_policy(policy)
            .with_workers(serve_workers)
            .with_batch_size(64),
    );
    queue.register_tenant("cal", 3, u64::MAX);
    queue.register_tenant("batch", 1, u64::MAX);
    let mut handles = Vec::new();
    for i in 0..2u64 {
        for tenant in ["cal", "batch"] {
            let j = job
                .clone()
                .with_shots(per_job)
                .with_seed(1 + i * per_job + if tenant == "cal" { 0 } else { 1 << 32 });
            let named = Job {
                name: format!("{tenant}-{i}"),
                ..j
            };
            handles.extend(
                queue
                    .submit(Submission::job(tenant, named))
                    .expect("submits"),
            );
        }
    }
    // Sample the queue-depth gauge while the serve jobs drain — the
    // peak undispatched-batch depth is a scheduling-pressure number
    // the per-job rows can't show — then collect the (now finished)
    // handles below.
    let mut peak_queue_depth = 0i64;
    loop {
        peak_queue_depth = peak_queue_depth.max(sample_metric("eqasm_queue_depth") as i64);
        if handles.iter().all(|h| h.snapshot().done) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let live_workers = queue.workers();
    println!(
        "{:>10} {:>8} {:>12} {:>10} {:>10}",
        "job", "tenant", "shots/s", "wait ms", "active ms"
    );
    let mut serve_rows = Vec::new();
    for handle in &handles {
        let result = handle.wait().expect("queued job completes");
        let snap = handle.snapshot();
        let wait_ms = snap.queue_wait.as_secs_f64() * 1e3;
        let active_ms = snap.active.as_secs_f64() * 1e3;
        println!(
            "{:>10} {:>8} {:>12.0} {:>10.1} {:>10.1}",
            result.name, snap.tenant, result.shots_per_sec, wait_ms, active_ms
        );
        serve_rows.push(format!(
            "    {{\"job\": \"{}\", \"tenant\": \"{}\", \"shots\": {}, \"shots_per_sec\": {:.1}, \"queue_wait_ms\": {:.2}, \"active_ms\": {:.2}}}",
            result.name, snap.tenant, result.shots, result.shots_per_sec, wait_ms, active_ms
        ));
    }

    // Durability tax: the same 4-job serve workload on a plain
    // in-memory queue vs a journaled one (`--journal`, batch fsync) —
    // the wall-clock overhead of writing every admission and folded
    // range ahead, plus what the journal costs on disk. The group
    // commit is the whole trick: appends/fsyncs is the batching ratio.
    // Measured on the legacy dense path: there a 64-shot batch costs
    // real simulation time, so the overhead number reflects production
    // per-batch cost instead of comparing one fsync against the
    // prefix-forked fast path's microsecond batches.
    let dense_job = {
        let mut dense_config = job.shape.config().clone();
        dense_config.backend = eqasm_microarch::BackendSelect::Dense;
        job.clone().with_config(dense_config)
    };
    let run_workload = |queue: &JobQueue| -> f64 {
        queue.register_tenant("cal", 3, u64::MAX);
        queue.register_tenant("batch", 1, u64::MAX);
        let mut hs = Vec::new();
        let started = std::time::Instant::now();
        for i in 0..2u64 {
            for tenant in ["cal", "batch"] {
                let j = dense_job
                    .clone()
                    .with_shots(per_job)
                    .with_seed(1 + i * per_job + if tenant == "cal" { 0 } else { 1 << 32 });
                let named = Job {
                    name: format!("{tenant}-{i}"),
                    ..j
                };
                hs.extend(
                    queue
                        .submit(Submission::job(tenant, named))
                        .expect("submits"),
                );
            }
        }
        for h in &hs {
            h.wait().expect("completes");
        }
        started.elapsed().as_secs_f64()
    };
    let plain_queue = JobQueue::new(
        ServeConfig::default()
            .with_policy(policy)
            .with_workers(serve_workers)
            .with_batch_size(64),
    );
    let plain_wall = run_workload(&plain_queue);
    plain_queue.shutdown();

    let journal_dir =
        std::env::temp_dir().join(format!("eqasm-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let appends_before = sample_metric("eqasm_journal_appends_total");
    let fsyncs_before = sample_metric("eqasm_journal_fsyncs_total");
    let jbackends: Vec<Box<dyn ExecBackend>> = (0..serve_workers)
        .map(|i| Box::new(LocalBackend::new(i).with_policy(policy)) as Box<dyn ExecBackend>)
        .collect();
    let (journal_queue, _) = JobQueue::recover(
        ServeConfig::default()
            .with_policy(policy)
            .with_batch_size(64),
        jbackends,
        &JournalConfig::new(&journal_dir),
    )
    .expect("journaled queue starts");
    let journal_wall = run_workload(&journal_queue);
    journal_queue.shutdown();
    let journal_appends = (sample_metric("eqasm_journal_appends_total") - appends_before) as u64;
    let journal_fsyncs = (sample_metric("eqasm_journal_fsyncs_total") - fsyncs_before) as u64;
    let journal_disk_bytes: u64 = std::fs::read_dir(&journal_dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok().map(|m| m.len()))
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journal_overhead_pct = (journal_wall / plain_wall.max(1e-9) - 1.0) * 100.0;
    println!(
        "\njournal (batch fsync): serve wall {plain_wall:.3}s plain -> {journal_wall:.3}s journaled \
         ({journal_overhead_pct:+.1}% overhead); {journal_appends} records / {journal_fsyncs} fsyncs, \
         {journal_disk_bytes} B on disk for 4 jobs"
    );

    // Loopback-remote: the same job through a mixed pool — one local
    // slot plus two remote slots on an in-process worker daemon. On
    // one host this prices the wire protocol (encode + TCP + decode)
    // against pure-local dispatch; across hosts the same code path is
    // the cross-host sharding fabric. Results are asserted
    // bit-identical to the engine — a benchmark that quietly computed
    // something different would be worse than no benchmark.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let worker = spawn_worker(
        listener,
        WorkerConfig::default()
            .with_policy(policy)
            .with_name("bench-worker")
            .with_capacity(2),
    )
    .expect("spawn worker");
    let mut backends: Vec<Box<dyn ExecBackend>> =
        vec![Box::new(LocalBackend::new(0).with_policy(policy))];
    let mut remote_slots = 0;
    for backend in RemoteBackend::connect_pool(worker.addr().to_string()).expect("attach worker") {
        remote_slots += 1;
        backends.push(Box::new(backend));
    }
    let pool_size = backends.len();
    let remote_queue = JobQueue::with_backends(
        ServeConfig::default()
            .with_policy(policy)
            .with_batch_size(64),
        backends,
    );
    let started = std::time::Instant::now();
    let handle = remote_queue
        .submit(Submission::job("bench", job.clone()))
        .expect("submits")
        .remove(0);
    let remote_result = handle.wait().expect("completes");
    let wall = started.elapsed().as_secs_f64();
    let reference = ShotEngine::serial()
        .with_policy(policy)
        .with_batch_size(64)
        .run_job(&job)
        .expect("reference runs");
    assert_eq!(
        remote_result.histogram, reference.histogram,
        "loopback-remote run must be bit-identical to the local engine"
    );
    assert_eq!(remote_result.stats, reference.stats);
    assert_eq!(remote_result.mean_prob1, reference.mean_prob1);
    let remote_rate = shots as f64 / wall.max(1e-9);
    println!(
        "\nloopback-remote: 1 local + {remote_slots} remote slots, {shots} shots, {:.0} shots/s (bit-identical to engine)",
        remote_rate
    );

    // Elastic: the same job on a deliberately degraded pool (one
    // local slot), with a loopback worker attached **mid-run** —
    // recording shots/sec before and after the attach. This prices
    // what the pool supervisor buys a production deployment: a
    // degraded coordinator regains throughput the moment a worker
    // (re)joins, with the result still asserted bit-identical.
    let elistener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let eworker = spawn_worker(
        elistener,
        WorkerConfig::default()
            .with_policy(policy)
            .with_name("elastic-worker")
            .with_capacity(2),
    )
    .expect("spawn elastic worker");
    // The job is sized so its post-attach half spans many batches (a
    // job of the bench's own shot count finishes before an attach
    // lands), and the worker's slots connect before the submit so the
    // attach itself is instant.
    let elastic_job = job.clone().with_shots((shots * 100).max(100_000));
    let elastic_reference = ShotEngine::new(0)
        .with_policy(policy)
        .with_batch_size(64)
        .run_job(&elastic_job)
        .expect("elastic reference runs");
    let epool =
        RemoteBackend::connect_pool(eworker.addr().to_string()).expect("connect elastic worker");
    let elastic_queue = JobQueue::with_backends(
        ServeConfig::default()
            .with_policy(policy)
            .with_batch_size(64),
        vec![Box::new(LocalBackend::new(0).with_policy(policy))],
    );
    let attach_at = elastic_job.shots / 2;
    let estarted = std::time::Instant::now();
    let ehandle = elastic_queue
        .submit(Submission::job("elastic", elastic_job.clone()))
        .expect("submits")
        .remove(0);
    // Degraded phase: wait for roughly half the shots on one slot.
    let (before_shots, before_elapsed) = loop {
        let snap = ehandle.snapshot();
        if snap.shots_done >= attach_at || snap.done {
            break (snap.shots_done, estarted.elapsed());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let mut elastic_slots = 1usize;
    for backend in epool {
        elastic_queue
            .attach_backend(Box::new(backend))
            .expect("attach elastic slot");
        elastic_slots += 1;
    }
    let attach_elapsed = estarted.elapsed();
    let elastic_result = ehandle.wait().expect("completes");
    let after_elapsed = estarted.elapsed() - attach_elapsed;
    assert_eq!(
        elastic_result.histogram, elastic_reference.histogram,
        "mid-run attach must be bit-identical to the local engine"
    );
    assert_eq!(elastic_result.stats, elastic_reference.stats);
    assert_eq!(elastic_result.mean_prob1, elastic_reference.mean_prob1);
    let before_rate = before_shots as f64 / before_elapsed.as_secs_f64().max(1e-9);
    let after_rate =
        (elastic_job.shots - before_shots) as f64 / after_elapsed.as_secs_f64().max(1e-9);
    let elastic_shots = elastic_job.shots;
    println!(
        "\nelastic: {elastic_shots} shots, 1 -> {elastic_slots} slots mid-run, {before_rate:.0} shots/s degraded -> {after_rate:.0} shots/s after attach (bit-identical)"
    );

    // Client front door: the same job submitted over the wire
    // serve acceptor by a TCP client, streaming partial snapshots —
    // pricing the full networked path (submit → schedule → stream →
    // final), with the result asserted bit-identical as always.
    let clistener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client_queue = Arc::new(JobQueue::with_backends(
        ServeConfig::default()
            .with_policy(policy)
            .with_batch_size(64),
        vec![
            Box::new(LocalBackend::new(0).with_policy(policy)),
            Box::new(LocalBackend::new(1).with_policy(policy)),
        ],
    ));
    let server = spawn_serve(
        clistener,
        Arc::clone(&client_queue),
        ServeNetConfig::default().with_name("bench-serve"),
    )
    .expect("spawn serve front door");
    let client = Client::connect(server.addr().to_string()).expect("client connects");
    let cstarted = std::time::Instant::now();
    let chandles = client
        .submit(Submission::job("bench-client", job.clone()))
        .expect("remote submit");
    let mut snapshots_streamed = 0u64;
    let client_result = chandles[0]
        .watch(|_| snapshots_streamed += 1)
        .expect("remote job completes");
    let cwall = cstarted.elapsed().as_secs_f64();
    assert_eq!(
        client_result.histogram, reference.histogram,
        "client-wire run must be bit-identical to the local engine"
    );
    assert_eq!(client_result.stats, reference.stats);
    assert_eq!(client_result.mean_prob1, reference.mean_prob1);
    let client_rate = shots as f64 / cwall.max(1e-9);
    println!(
        "\nclient front door: {shots} shots submitted over TCP, {snapshots_streamed} snapshots streamed, {client_rate:.0} shots/s (bit-identical)"
    );

    // Per-job wire bytes: what one `LoadJob` ships, and what the
    // journal's Admit record stores.
    let job_bytes = eqasm_runtime::wire::encode_job(&job).expect("job encodes");
    let load_job_bytes = eqasm_runtime::wire::LoadJob::encode_parts(1, &job_bytes).len();
    println!("job bytes: LoadJob payload {load_job_bytes} B");

    // Capacity: an actual open-loop ramp against the serve front
    // door. A fresh coordinator (2 local slots) and a live `/metrics`
    // endpoint take stepped submission rates of the same noisy RB
    // workload until a rung breaches a failure-rate or p50-latency
    // ceiling — the max-sustainable-rps number, with server-side
    // truth per rung, lands in the `capacity` JSON section. The
    // initial rate is derived from the measured serial shot rate so
    // the geometric ramp reaches the knee in a handful of rungs on
    // any host.
    let cap_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let cap_queue = Arc::new(JobQueue::with_backends(
        ServeConfig::default()
            .with_policy(policy)
            .with_batch_size(64),
        vec![
            Box::new(LocalBackend::new(0).with_policy(policy)),
            Box::new(LocalBackend::new(1).with_policy(policy)),
        ],
    ));
    let cap_server = spawn_serve(
        cap_listener,
        Arc::clone(&cap_queue),
        ServeNetConfig::default().with_name("bench-capacity"),
    )
    .expect("spawn capacity serve");
    let cap_metrics =
        MetricsServer::spawn("127.0.0.1:0", eqasm_runtime::metrics::default_registry())
            .expect("spawn capacity metrics");
    let cap_shots = (shots / 4).max(250);
    // Two slots × serial rate, in jobs/sec — the most the ramp can
    // find. It starts far below: once shots are cheap the front door,
    // not execution, bounds the rate, and a first rung at half this
    // ceiling breaches before any rung is measured.
    let cap_jobs_per_sec = (2.0 * serial_rate / cap_shots as f64).max(2.0);
    let cap_spec = LoadSpec::new(vec![LoadClass {
        tenant: "cap".into(),
        spec: WorkloadSpec::new(
            "rb-k24",
            WorkloadKind::Rb {
                k: 24,
                interval_cycles: 1,
                sequence_seed: 0x5eed,
            },
            cap_shots,
        )
        .with_config(job.shape.config().clone()),
        share: 1,
    }])
    .with_shots(ShotsDist::fixed(cap_shots))
    .with_connections(2)
    .with_watchers(1)
    .with_seed(0xcafe);
    let cap_config = SweepConfig {
        initial_rps: (cap_jobs_per_sec / 2.0).clamp(2.0, 64.0),
        step: RpsStep::Mul(2.0),
        max_rps: cap_jobs_per_sec * 16.0,
        window: std::time::Duration::from_millis(1500),
        drain_timeout: std::time::Duration::from_secs(8),
        stop: Ceilings {
            failure_rate: 0.4,
            p50: std::time::Duration::from_millis(1500),
        },
        ..SweepConfig::default()
    };
    let cap_target = SweepTarget::new(cap_server.addr().to_string())
        .with_metrics(cap_metrics.local_addr().to_string());
    let capacity =
        capacity_sweep(&cap_spec, &cap_target, &cap_config).expect("capacity sweep runs");
    println!(
        "\ncapacity: {} rungs, max sustainable {:.1} rps (stop: {})",
        capacity.rungs.len(),
        capacity.max_sustainable_rps,
        capacity.stop,
    );
    print!("{}", capacity.table());
    drop(cap_metrics);

    // Scrape cost: price one full exposition encode of everything the
    // sections above accumulated, so the trajectory tracks how
    // expensive a Prometheus scrape is as the series catalogue grows.
    let registry = eqasm_runtime::metrics::default_registry();
    let scrape_started = std::time::Instant::now();
    let exposition = registry.encode();
    let scrape_us = scrape_started.elapsed().as_secs_f64() * 1e6;
    let series = registry.series_count();
    println!(
        "\nmetrics: {series} series, {} B exposition, encoded in {scrape_us:.1} µs",
        exposition.len()
    );

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"runtime\",\n  \"workload\": \"rb-k24\",\n  \"shots\": {shots},\n  \"host_parallelism\": {available},\n  \"points\": [\n{}\n  ],\n  \"shot_speed\": {{\n    \"workload\": \"rb-k64-clifford\",\n    \"shots\": {sp_shots},\n    \"qubits\": 3,\n    \"workers\": 4,\n    \"target_speedup\": 5.0,\n    \"stabilizer_prefix_speedup\": {sp_fast_speedup:.3},\n    \"bit_identical\": true,\n    \"paths\": [\n{}\n    ]\n  }},\n  \"serve\": {{\n    \"workers\": {live_workers},\n    \"peak_queue_depth\": {peak_queue_depth},\n    \"jobs\": [\n{}\n    ]\n  }},\n  \"journal\": {{\n    \"fsync\": \"batch\",\n    \"path\": \"dense\",\n    \"jobs\": 4,\n    \"serve_wall_s_plain\": {plain_wall:.4},\n    \"serve_wall_s_journaled\": {journal_wall:.4},\n    \"overhead_pct\": {journal_overhead_pct:.2},\n    \"records_appended\": {journal_appends},\n    \"fsyncs\": {journal_fsyncs},\n    \"disk_bytes\": {journal_disk_bytes}\n  }},\n  \"metrics\": {{\n    \"series\": {series},\n    \"exposition_bytes\": {},\n    \"encode_us\": {scrape_us:.1}\n  }},\n  \"remote\": {{\n    \"pool\": {pool_size},\n    \"remote_slots\": {remote_slots},\n    \"shots_per_sec\": {remote_rate:.1},\n    \"bit_identical\": true\n  }},\n  \"elastic\": {{\n    \"shots\": {elastic_shots},\n    \"slots_before\": 1,\n    \"slots_after\": {elastic_slots},\n    \"attach_at_shots\": {before_shots},\n    \"shots_per_sec_before\": {before_rate:.1},\n    \"shots_per_sec_after\": {after_rate:.1},\n    \"bit_identical\": true\n  }},\n  \"client\": {{\n    \"shots_per_sec\": {client_rate:.1},\n    \"snapshots_streamed\": {snapshots_streamed},\n    \"bit_identical\": true,\n    \"load_job_bytes\": {load_job_bytes}\n  }},\n  \"capacity\":\n{}\n}}\n",
        rows.join(",\n"),
        sp_rows.join(",\n"),
        serve_rows.join(",\n"),
        exposition.len(),
        capacity.to_json("  ")
    );
    std::fs::write(&out_path, &json).expect("write trajectory point");
    println!("wrote {out_path} (host parallelism: {available})");
}

//! Integration tests for the load generator: `/metrics` scraping that
//! survives a mid-scrape coordinator restart, a tiny two-rung
//! capacity sweep against an in-process `spawn_serve` coordinator
//! (asserting the `capacity` JSON schema), a short subscriber-churn
//! sweep, and end-to-end coverage of the `CliffordChain` workload
//! (wire roundtrip, stabilizer selection above the dense ceiling, and
//! the 17-qubit envelope).
//!
//! Note on metrics: every in-process server here shares the
//! process-global default registry, and the test harness runs tests
//! concurrently — so server-side assertions are existence/positivity
//! checks, not exact totals. The CI capacity-sweep smoke leg runs a
//! *dedicated* serve process and asserts exact shot accounting there.

use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use eqasm_microarch::{QuMa, SimBackendKind};
use eqasm_runtime::loadgen::{scrape_metrics, scrape_with_retry, RpsStep, StopCause};
use eqasm_runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm_runtime::{
    capacity_sweep, churn_sweep, spawn_serve, wire, Ceilings, ChurnConfig, Client, LoadClass,
    LoadSpec, RuntimeError, ServeHandle, ServeNetConfig, ShotEngine, ShotsDist, SweepConfig,
    SweepTarget, WorkloadKind, WorkloadSpec,
};

/// A queue with `workers` local slots behind a loopback acceptor.
fn serve_fixture(workers: usize, batch: u64) -> (Arc<JobQueue>, ServeHandle) {
    let queue = Arc::new(JobQueue::new(
        ServeConfig::default()
            .with_workers(workers)
            .with_batch_size(batch),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle =
        spawn_serve(listener, Arc::clone(&queue), ServeNetConfig::default()).expect("spawn serve");
    (queue, handle)
}

/// A cheap one-qubit RB template — fast enough that sweep rungs
/// complete well inside their drain window on any CI machine.
fn rb_spec(shots: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        "rb",
        WorkloadKind::Rb {
            k: 4,
            interval_cycles: 1,
            sequence_seed: 0x5eed,
        },
        shots,
    )
}

fn active_reset_spec(shots: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        "active-reset",
        WorkloadKind::ActiveReset { init_cycles: 100 },
        shots,
    )
}

// ---------------------------------------------------------------------------
// Satellite 3: restart-tolerant scraping
// ---------------------------------------------------------------------------

/// A fake metrics endpoint whose first connection dies before any
/// bytes are written — the shape of a coordinator restarting
/// mid-scrape — and whose second connection serves a valid response.
/// `scrape_with_retry` must recover; a plain scrape must not.
#[test]
fn scrape_retry_recovers_from_one_dead_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        // First connection: accept and slam the door (RST/EOF before
        // a status line).
        let (first, _) = listener.accept().expect("first accept");
        drop(first);
        // Second connection: a well-formed HTTP/1.0 scrape response.
        let (mut second, _) = listener.accept().expect("second accept");
        let mut buf = [0u8; 512];
        let _ = second.read(&mut buf);
        let body = "# TYPE eqasm_shots_completed_total counter\n\
                    eqasm_shots_completed_total 12345\n";
        let resp = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        second.write_all(resp.as_bytes()).expect("write response");
    });

    let snap = scrape_with_retry(&addr, Duration::from_secs(5)).expect("retry recovers");
    assert_eq!(snap.get("eqasm_shots_completed_total"), Some(12345.0));
    server.join().expect("fake endpoint thread");
}

/// With no listener at all, both attempts fail and the scrape
/// surfaces a typed error (not a panic/abort) naming the address.
#[test]
fn scrape_retry_reports_typed_error_when_endpoint_stays_down() {
    // Bind-then-drop to get a port that is closed right now.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let err = scrape_with_retry(&addr, Duration::from_millis(500)).expect_err("must fail");
    assert!(
        err.to_string().contains(&addr),
        "scrape error should name the endpoint: {err}"
    );
    let plain = scrape_metrics(&addr, Duration::from_millis(500));
    assert!(plain.is_err(), "plain scrape must fail fast");
}

// ---------------------------------------------------------------------------
// Satellite 4: loopback capacity sweep
// ---------------------------------------------------------------------------

/// A two-rung ramp against an in-process coordinator + metrics
/// server: the sweep must hold both rungs, stop at `max_rps`, record
/// server-side truth, and emit the documented `capacity` JSON schema.
#[test]
fn two_rung_loopback_sweep_emits_capacity_schema() {
    let (_queue, server) = serve_fixture(2, 16);
    let metrics = eqasm_runtime::MetricsServer::spawn(
        "127.0.0.1:0",
        eqasm_runtime::metrics::default_registry(),
    )
    .expect("metrics server");

    let spec = LoadSpec::new(vec![
        LoadClass {
            tenant: "alice".into(),
            spec: rb_spec(24),
            share: 2,
        },
        LoadClass {
            tenant: "bob".into(),
            spec: active_reset_spec(24),
            share: 1,
        },
    ])
    .with_shots(ShotsDist::fixed(24))
    .with_subscribe_ratio(0.25)
    .with_connections(2)
    .with_watchers(1)
    .with_seed(7);

    let target =
        SweepTarget::new(server.addr().to_string()).with_metrics(metrics.local_addr().to_string());
    // Ceilings loose enough that tiny loopback jobs cannot breach:
    // the ramp must terminate on MaxRps, deterministically.
    let config = SweepConfig {
        initial_rps: 8.0,
        step: RpsStep::Mul(2.0),
        max_rps: 16.0,
        window: Duration::from_millis(800),
        drain_timeout: Duration::from_secs(20),
        stop: Ceilings {
            failure_rate: 0.99,
            p50: Duration::from_secs(30),
        },
        ..SweepConfig::default()
    };

    let report = capacity_sweep(&spec, &target, &config).expect("sweep runs");
    assert_eq!(report.rungs.len(), 2, "8 → 16 rps is exactly two rungs");
    assert_eq!(report.stop, StopCause::MaxRps);
    assert!(report.breach_rung().is_none());
    assert!(
        report.max_sustainable_rps > 0.0,
        "a healthy loopback sweep must sustain something: {report:?}"
    );
    for rung in &report.rungs {
        assert!(rung.offered > 0, "pacer must schedule ticks");
        assert!(rung.submitted > 0, "coordinator must ack submissions");
        assert!(rung.completed > 0, "jobs must finish inside the drain");
        assert_eq!(rung.timed_out, 0, "nothing may be left behind");
        assert!(rung.shots_submitted >= rung.submitted * 24);
        let server = rung.server.as_ref().expect("metrics endpoint was scraped");
        assert!(
            server.shots_completed > 0,
            "server-side truth must show shot progress"
        );
        assert!(!server.restarted, "no restart happened");
    }

    // The `capacity` section schema, as BENCH_runtime.json embeds it.
    let json = report.to_json("");
    for key in [
        "\"max_sustainable_rps\"",
        "\"stop\": \"max_rps\"",
        "\"stop_rung\": null",
        "\"rungs\"",
        "\"target_rps\"",
        "\"shots_submitted\"",
        "\"failure_rate\"",
        "\"achieved_rps\"",
        "\"p50_ms\"",
        "\"p95_ms\"",
        "\"p99_ms\"",
        "\"max_submit_lag_ms\"",
        "\"breach\": null",
        "\"peak_queue_depth\"",
        "\"recovered_jobs\"",
    ] {
        assert!(
            json.contains(key),
            "capacity JSON must contain {key}: {json}"
        );
    }
    // And the human-readable rung table renders one row per rung.
    let table = report.table();
    assert!(table.lines().count() >= 2 + report.rungs.len());

    drop(metrics);
}

/// Ceiling breaches stop the ramp: with a stop ceiling of zero
/// latency, the very first rung breaches and the sweep reports it.
#[test]
fn sweep_stops_on_first_rung_when_ceiling_is_unmeetable() {
    let (_queue, server) = serve_fixture(2, 16);
    let spec = LoadSpec::new(vec![LoadClass {
        tenant: "t".into(),
        spec: rb_spec(16),
        share: 1,
    }])
    .with_connections(1)
    .with_watchers(1);
    let target = SweepTarget::new(server.addr().to_string());
    let config = SweepConfig {
        initial_rps: 4.0,
        max_rps: 256.0,
        window: Duration::from_millis(400),
        drain_timeout: Duration::from_secs(10),
        stop: Ceilings {
            failure_rate: 0.5,
            p50: Duration::from_nanos(1),
        },
        ..SweepConfig::default()
    };
    let report = capacity_sweep(&spec, &target, &config).expect("sweep runs");
    assert_eq!(report.stop, StopCause::CeilingBreached);
    assert_eq!(report.rungs.len(), 1, "first rung breaches, ramp stops");
    assert_eq!(report.breach_rung(), Some(0));
    let json = report.to_json("  ");
    assert!(json.contains("\"stop\": \"ceiling_breached\""));
    assert!(json.contains("\"stop_rung\": 0"));
}

// ---------------------------------------------------------------------------
// Satellite 1: subscriber churn
// ---------------------------------------------------------------------------

/// A short churn sweep against the loopback coordinator: cycles must
/// complete, resumes must happen, and resume correctness must hold
/// (no snapshot older than its resume point, no stream regressing).
#[test]
fn churn_sweep_holds_resume_correctness() {
    let (_queue, server) = serve_fixture(2, 8);
    let target = SweepTarget::new(server.addr().to_string());
    let config = ChurnConfig {
        workers: 3,
        duration: Duration::from_millis(1500),
        snapshots_per_cycle: 2,
        job_shots: 50_000,
    };
    let report = churn_sweep(&rb_spec(50_000), &target, &config).expect("churn runs");
    assert!(
        report.cycles > 0,
        "workers must complete cycles: {report:?}"
    );
    assert!(report.snapshots > 0, "cycles must observe snapshots");
    assert_eq!(
        report.resume_violations, 0,
        "the reactor broke resume correctness: {report:?}"
    );
    assert!(report.jobs_driven >= 1);
    assert!(report.cycles_per_sec > 0.0);
}

// ---------------------------------------------------------------------------
// Satellite 2: large-n Clifford workload, end to end
// ---------------------------------------------------------------------------

/// Tag-5 wire roundtrip: a CliffordChain submission encodes, decodes,
/// and re-encodes to identical bytes.
#[test]
fn clifford_chain_submission_roundtrips_on_the_wire() {
    let spec = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 12,
            layers: 2,
        },
        64,
    )
    .with_seed(99);
    let submission = Submission::workload("tenant-a", spec);
    let bytes = wire::encode_submission(&submission).expect("encodes");
    let decoded = wire::decode_submission(&bytes).expect("decodes");
    let re = wire::encode_submission(&decoded).expect("re-encodes");
    assert_eq!(bytes, re, "decode must preserve every field");
}

/// A 12-qubit CliffordChain — above the 10-qubit dense-simulation
/// comfort zone — selects the stabilizer backend and executes to a
/// full histogram through the serve front door.
#[test]
fn clifford_chain_runs_above_the_dense_ceiling() {
    let spec = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 12,
            layers: 2,
        },
        64,
    )
    .with_seed(3);

    // Selection: Clifford-only under ideal noise rides the tableau.
    let job = spec.build_instance(0).expect("builds");
    let mut machine = QuMa::new(job.shape.inst().clone(), job.shape.config().clone());
    machine.load(job.shape.program()).expect("loads");
    assert_eq!(machine.selection().kind(), SimBackendKind::Stabilizer);

    // End to end over TCP.
    let (_queue, server) = serve_fixture(2, 16);
    let client = Client::connect(server.addr().to_string()).expect("connects");
    let handles = client
        .submit(Submission::workload("tenant-a", spec))
        .expect("submits CliffordChain");
    let result = handles[0].wait().expect("completes");
    assert_eq!(result.histogram.total(), 64, "every shot must land");
}

/// CliffordChain parameter validation: the generator rejects sizes
/// outside the envelope with a typed `Spec` error. A chain of n qubits
/// has 2(n−1) directed pairs, which must fit the 32-bit two-qubit
/// target mask, so 18 qubits is the first size out.
#[test]
fn clifford_chain_rejects_out_of_envelope_parameters() {
    for (qubits, layers) in [(1usize, 2u32), (18, 2), (33, 2), (12, 0), (12, 17)] {
        let err = WorkloadKind::CliffordChain { qubits, layers }
            .build()
            .expect_err("out-of-envelope parameters must be rejected");
        assert!(matches!(err, RuntimeError::Spec(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("qubits") || msg.contains("layers"),
            "error should name the offending parameter: {msg}"
        );
    }
}

/// 17 qubits, the top of the envelope, assembles, selects the
/// stabilizer backend and runs every shot.
#[test]
fn clifford_chain_of_17_runs_on_the_stabilizer_backend() {
    let spec = WorkloadSpec::new(
        "stab17",
        WorkloadKind::CliffordChain {
            qubits: 17,
            layers: 2,
        },
        32,
    )
    .with_seed(4);
    let job = spec.build_instance(0).expect("17 qubits builds");
    let mut machine = QuMa::new(job.shape.inst().clone(), job.shape.config().clone());
    machine.load(job.shape.program()).expect("loads");
    assert_eq!(machine.selection().kind(), SimBackendKind::Stabilizer);
    let result = ShotEngine::serial().run_job(&job).expect("runs");
    assert_eq!(result.histogram.total(), 32);
    assert_eq!(result.non_halted, 0);
}

/// The wire decoder checks the same envelope: an 18-qubit chain
/// submission is a typed decode error, not a failure deep in the
/// assembler.
#[test]
fn clifford_chain_of_18_is_a_typed_wire_error() {
    let ok = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 17,
            layers: 2,
        },
        8,
    );
    let mut bytes = wire::encode_submission(&Submission::workload("t", ok)).expect("encodes");
    wire::decode_submission(&bytes).expect("17 decodes");
    // Re-encode with 18 qubits: the encoder does not validate.
    let bad = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 18,
            layers: 2,
        },
        8,
    );
    bytes = wire::encode_submission(&Submission::workload("t", bad)).expect("encodes");
    match wire::decode_submission(&bytes) {
        Err(wire::WireError::Invalid(msg)) => assert!(msg.contains("2..=17"), "{msg}"),
        other => panic!("expected a typed Invalid error, got {other:?}"),
    }
}

//! The worker daemon's open-connection gauge, as an in-process
//! `spawn_worker` daemon moves it. Its own test binary:
//! `eqasm_net_open_connections` is process-global, and any other
//! worker running beside this test would move it too.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use eqasm_runtime::metrics::default_registry;
use eqasm_runtime::{spawn_worker, ExecBackend, Job, RemoteBackend, WorkerConfig, WorkloadKind};

fn open_worker_connections() -> f64 {
    default_registry()
        .encode()
        .lines()
        .find_map(|l| l.strip_prefix("eqasm_net_open_connections{role=\"worker\"} "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

fn wait_for_gauge(want: f64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_worker_connections() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: the worker gauge reads {}, expected {want}",
            open_worker_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn spawned_worker_counts_its_open_connections() {
    let before = open_worker_connections();
    let worker = spawn_worker(
        TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        WorkerConfig::default().with_capacity(1),
    )
    .expect("spawn worker");
    let (inst, program) = WorkloadKind::ActiveReset { init_cycles: 20 }
        .build()
        .expect("builds");
    let job = Job::new("gauge", inst, program).with_shots(4);

    let mut backend = RemoteBackend::connect(worker.addr().to_string()).expect("connects");
    backend.run_range(&job, 0..4).expect("runs a range");
    wait_for_gauge(before + 1.0, "while a backend is connected");

    drop(backend);
    wait_for_gauge(before, "after the backend drops");
}

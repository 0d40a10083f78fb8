//! Completed retention over a recovered id space. Its own test binary:
//! it reads the process-global journal fsync counter, which a journal
//! test running beside it would move.

use std::net::TcpListener;
use std::sync::Arc;

use eqasm_runtime::metrics::default_registry;
use eqasm_runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm_runtime::{
    spawn_serve, Client, ExecBackend, Job, JournalConfig, LocalBackend, ServeNetConfig,
    WorkloadKind,
};

fn journal_fsyncs() -> f64 {
    default_registry()
        .encode()
        .lines()
        .find_map(|l| l.strip_prefix("eqasm_journal_fsyncs_total "))
        .and_then(|v| v.parse().ok())
        .expect("the fsync counter is exported")
}

fn local_pool() -> Vec<Box<dyn ExecBackend>> {
    vec![Box::new(LocalBackend::new(0))]
}

/// A journal whose 2,000 ids all completed before the restart, far
/// above a completed retention of 16: the front door starts with no
/// journal flush, pre-crash ids answer "released", and ids above the
/// high-water mark were never issued.
#[test]
fn front_door_starts_on_a_recovered_id_space_without_flushing() {
    const JOBS: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("eqasm-retention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jc = JournalConfig::new(&dir);
    let (inst, program) = WorkloadKind::ActiveReset { init_cycles: 20 }
        .build()
        .expect("builds");
    let job = Job::new("one-shot", inst, program);
    let (queue, _) = JobQueue::recover(ServeConfig::default(), local_pool(), &jc).expect("starts");
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            queue
                .submit(Submission::job("tenant", job.clone().with_seed(i as u64)))
                .expect("submits")
                .remove(0)
        })
        .collect();
    for h in &handles {
        h.wait().expect("completes");
    }
    queue.shutdown();

    let (queue, report) =
        JobQueue::recover(ServeConfig::default(), local_pool(), &jc).expect("recovers");
    assert_eq!(report.jobs_recovered, 0);
    assert_eq!(
        queue.job_handles().len(),
        JOBS,
        "every pre-crash id is issued"
    );
    let queue = Arc::new(queue);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let before = journal_fsyncs();
    let server = spawn_serve(
        listener,
        Arc::clone(&queue),
        ServeNetConfig::default().with_completed_retention(16),
    )
    .expect("spawn serve");
    let client = Client::connect(server.addr().to_string()).expect("connects");
    for id in [1, JOBS as u64 / 2, JOBS as u64] {
        let err = client
            .poll_id(id)
            .expect_err("a pre-crash id holds no result");
        assert!(err.to_string().contains("released"), "id {id}: {err}");
    }
    let err = client
        .poll_id(JOBS as u64 + 1)
        .expect_err("an id above the high-water mark");
    assert!(err.to_string().contains("unknown job id"), "{err}");
    assert_eq!(
        journal_fsyncs(),
        before,
        "starting the front door flushed the journal"
    );
    drop(client);
    drop(server);
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Service-mode quickstart: submit a mixed tenant load to the
//! `eqasm-serve` job queue, stream partial histograms while it runs,
//! and verify the final results are bit-identical to the synchronous
//! engine.
//!
//! Usage: `cargo run --release --example serve_mix [shots] [workers]`

use std::time::Duration;

use eqasm::core::{Instantiation, Qubit, Topology};
use eqasm::microarch::SimConfig;
use eqasm::quantum::{NoiseModel, ReadoutModel};
use eqasm::runtime::{
    Job, JobQueue, ServeConfig, ShotEngine, Submission, WorkloadKind, WorkloadSpec,
};
use eqasm::workloads::rb_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shots: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    let queue = JobQueue::new(ServeConfig::default().with_workers(workers));
    // Two tenants: the calibration team gets 3× the pool share of the
    // bulk-benchmarking tenant, and the bulk tenant may keep at most
    // 256 shots in flight at once.
    queue.register_tenant("cal-team", 3, u64::MAX);
    queue.register_tenant("bulk", 1, 256);

    // The calibration tenant submits a prebuilt RB job...
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) = rb_program(&inst, Qubit::new(0), 24, 1, 0x5eed)?;
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    let rb_job = Job::new("rb-cal", inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(7);
    let cal = queue.submit(Submission::job("cal-team", rb_job.clone()))?;

    // ...while the bulk tenant submits a 4-instance active-reset spec
    // twice — the second submission reuses the first one's live job
    // shape instead of building the program again.
    let reset = WorkloadSpec::new(
        "reset",
        WorkloadKind::ActiveReset { init_cycles: 100 },
        shots,
    )
    .with_weight(4);
    let mut bulk = queue.submit(Submission::workload("bulk", reset.clone()))?;
    bulk.extend(queue.submit(Submission::workload("bulk", reset.with_seed(1 << 40)))?);

    // Poll: streaming partial histograms, readable at any time.
    let all: Vec<_> = cal.iter().chain(&bulk).collect();
    loop {
        let snaps: Vec<_> = all.iter().map(|h| h.snapshot()).collect();
        let done: u64 = snaps.iter().map(|s| s.shots_done).sum();
        let total: u64 = snaps.iter().map(|s| s.shots_total).sum();
        let rb = &snaps[0];
        println!(
            "progress {done:>6}/{total}  (rb-cal {:>5.1}%, histogram outcomes so far: {})",
            rb.progress() * 100.0,
            rb.histogram.len()
        );
        if snaps.iter().all(|s| s.done) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // Every partial was an exact prefix; the final result is exactly
    // the synchronous engine's answer (queue and engine share the
    // same default batch partition, so the folds are identical).
    let served = cal[0].wait()?;
    let batch = ShotEngine::serial().run_job(&rb_job)?;
    assert_eq!(served.histogram, batch.histogram, "bit-identical merge");
    assert_eq!(served.stats, batch.stats);

    println!("\nfinal results (queue wait → active):");
    for handle in &all {
        let snap = handle.snapshot();
        let result = handle.wait()?;
        println!(
            "  {:>10} [{}]  {:>7} shots  {:>8.0} shots/s  {:>7.1} ms waiting, {:>7.1} ms active",
            result.name,
            snap.tenant,
            result.shots,
            result.shots_per_sec,
            snap.queue_wait.as_secs_f64() * 1e3,
            snap.active.as_secs_f64() * 1e3,
        );
    }
    let cache = queue.cache_stats();
    println!(
        "spec shapes: {} built, {} reused, {} live",
        cache.misses, cache.hits, cache.entries
    );
    assert_eq!(
        (cache.misses, cache.hits, cache.entries),
        (1, 1, 1),
        "the second reset submission reuses the first one's shape"
    );
    Ok(())
}

//! The serve front door, end to end — in one process.
//!
//! Stands up the full networked service on a loopback socket (exactly
//! what `eqasm-cli serve --listen` runs for real clients): a job
//! queue with local execution slots behind the wire acceptor.
//! Then drives it as a remote client would — `Client::connect`,
//! submit a multi-tenant mix (prebuilt jobs and a workload spec),
//! stream `PartialResult` snapshots over TCP, and collect the final
//! results — verifying at every step that what crosses the wire is
//! **bit-identical** to local execution: each streamed snapshot is an
//! exact prefix of the final aggregate, and each final aggregate
//! matches a serial `ShotEngine::run_job` of the same job. (CI runs
//! the same contract against a separate `eqasm-cli serve` *process*
//! via `eqasm-cli submit --connect --verify-serial`.)
//!
//! Run with: `cargo run --release --example remote_client`

use std::net::TcpListener;
use std::sync::Arc;

use eqasm::core::{Instantiation, Qubit, Topology};
use eqasm::microarch::SimConfig;
use eqasm::quantum::{NoiseModel, ReadoutModel};
use eqasm::runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm::runtime::{
    spawn_serve, Client, Job, ServeNetConfig, ShotEngine, WorkloadKind, WorkloadSpec,
};
use eqasm::workloads::rb_program;

fn noisy_job(name: &str, shots: u64, seed: u64) -> Result<Job, Box<dyn std::error::Error>> {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) = rb_program(&inst, Qubit::new(0), 12, 1, 0x5eed)?;
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0).with_gate_error(0.002, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    Ok(Job::new(name, inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(seed))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = 16u64;

    // The service side: a queue with two local slots behind the
    // network acceptor. Across hosts this is `eqasm-cli serve
    // --listen 0.0.0.0:7000 --workers 2`.
    let queue = Arc::new(JobQueue::new(
        ServeConfig::default()
            .with_workers(2)
            .with_batch_size(batch),
    ));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server = spawn_serve(
        listener,
        Arc::clone(&queue),
        ServeNetConfig::default().with_name("example-serve"),
    )?;
    println!("serve front door listening on {}", server.addr());

    // The client side: a plain TCP connection speaking the wire
    // protocol.
    let client = Client::connect(server.addr().to_string())?;
    println!(
        "connected to `{}` (wire v{})",
        client.server_name(),
        eqasm::runtime::wire::PROTOCOL_VERSION
    );

    // A multi-tenant mix: a calibration tenant's prebuilt job plus a
    // batch tenant's two-instance workload spec.
    let cal_job = noisy_job("cal-rb", 96, 1234)?;
    let sweep = WorkloadSpec::new(
        "reset-sweep",
        WorkloadKind::ActiveReset { init_cycles: 60 },
        64,
    )
    .with_weight(2)
    .with_seed(99);

    let cal_handles = client.submit(Submission::job("cal-team", cal_job.clone()))?;
    let sweep_handles = client.submit(Submission::workload("batch-team", sweep.clone()))?;
    println!(
        "submitted: job id {} (cal) + job ids {:?} (sweep)",
        cal_handles[0].job_id(),
        sweep_handles.iter().map(|h| h.job_id()).collect::<Vec<_>>()
    );

    // Stream the calibration job: every snapshot that arrives over
    // the wire is an exact bit-identical prefix of the final answer.
    let mut streamed = 0usize;
    let cal_result = cal_handles[0].watch(|snap| {
        streamed += 1;
        println!(
            "  [stream] {:>8} {:>3}/{} shots ({:3.0}%)",
            snap.name,
            snap.shots_done,
            snap.shots_total,
            snap.progress() * 100.0
        );
    })?;
    println!("streamed {streamed} snapshots over TCP");

    let reference = ShotEngine::serial()
        .with_batch_size(batch)
        .run_job(&cal_job)?;
    assert_eq!(cal_result.histogram, reference.histogram);
    assert_eq!(cal_result.stats, reference.stats);
    assert_eq!(cal_result.mean_prob1, reference.mean_prob1);
    println!("cal job: remote aggregate bit-identical to a serial local run ✓");

    // The sweep instances: wait for finals and verify each against a
    // locally rebuilt instance (the spec is a deterministic
    // generator, so both sides construct the identical job).
    for (i, handle) in sweep_handles.iter().enumerate() {
        let remote = handle.wait()?;
        let local = ShotEngine::serial()
            .with_batch_size(batch)
            .run_job(&sweep.build_instance(i as u32)?)?;
        assert_eq!(remote.histogram, local.histogram);
        assert_eq!(remote.stats, local.stats);
        assert_eq!(remote.mean_prob1, local.mean_prob1);
        println!(
            "sweep instance {i}: {} shots, bit-identical ✓",
            remote.shots
        );
    }

    println!("\nremote client round trip complete: submit → stream → verify, all bit-identical");
    Ok(())
}

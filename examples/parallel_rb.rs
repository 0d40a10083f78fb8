//! Batched-execution quickstart: run a randomized-benchmarking
//! workload through the `eqasm-runtime` shot engine and compare the
//! serial and pooled paths.
//!
//! Usage: `cargo run --release --example parallel_rb [shots] [workers]`

use eqasm::core::{Instantiation, Qubit, Topology};
use eqasm::microarch::SimConfig;
use eqasm::quantum::{NoiseModel, ReadoutModel};
use eqasm::runtime::{Job, ShotEngine};
use eqasm::workloads::rb_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shots: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    // A 48-Clifford RB sequence on a one-qubit chip, with the Fig. 12
    // noise story: finite coherence plus a per-gate error floor, and a
    // 5% readout assignment error.
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, sequence) = rb_program(&inst, Qubit::new(0), 48, 1, 0x5eed)?;
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));

    let job = Job::new("rb-k48", inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(7);

    println!(
        "RB job: {} Cliffords + recovery, {} shots",
        sequence.cliffords.len(),
        shots
    );

    // Serial reference.
    let serial = ShotEngine::serial().run_job(&job)?;
    println!(
        "serial:  {:>8.0} shots/s  (p50 {:.1} µs, p99 {:.1} µs)",
        serial.shots_per_sec,
        serial.latency.stats().p50_ns as f64 / 1e3,
        serial.latency.stats().p99_ns as f64 / 1e3,
    );

    // Pooled execution — same job, same seeds, same results.
    let engine = ShotEngine::new(workers);
    let pooled = engine.run_job(&job)?;
    println!(
        "pooled:  {:>8.0} shots/s on {} workers  (p50 {:.1} µs, p99 {:.1} µs)",
        pooled.shots_per_sec,
        engine.workers(),
        pooled.latency.stats().p50_ns as f64 / 1e3,
        pooled.latency.stats().p99_ns as f64 / 1e3,
    );

    // The runtime's determinism contract: aggregates are bit-identical
    // whatever the worker count.
    assert_eq!(serial.histogram, pooled.histogram);
    assert_eq!(serial.stats, pooled.stats);
    assert_eq!(serial.mean_prob1, pooled.mean_prob1);

    let survival = 1.0 - pooled.ones_fraction(0).expect("qubit measured");
    println!("sequence survival (readout-corrupted): {survival:.4}");
    println!("outcome histogram:");
    for (outcome, count) in pooled.histogram.iter() {
        println!("  {outcome}  {count}");
    }
    Ok(())
}

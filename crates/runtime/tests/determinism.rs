//! The runtime's central contract: aggregate results are a pure
//! function of `(program, base_seed, shots)` — bit-identical for any
//! worker count and any batch size.

use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{BackendSelect, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::{partition_shots, Job, MixedWorkload, ShotEngine, WorkloadKind, WorkloadSpec};
use proptest::prelude::*;

/// A noisy RB job whose shots genuinely consume randomness
/// (stochastic trajectory collapse + readout corruption), so any seed
/// or scheduling leak between workers would show up in the histogram.
fn noisy_rb_job(shots: u64, base_seed: u64) -> Job {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) =
        eqasm_workloads::rb_program(&inst, Qubit::new(0), 12, 1, 0xfeed).expect("rb emits");
    let mut config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0).with_gate_error(0.002, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    // Stochastic trajectory backend: every shot consumes randomness in
    // the *state evolution*, so seed handling bugs cannot hide behind
    // the exact density simulation.
    config.backend = BackendSelect::Pure;
    Job::new("rb-determinism", inst, program)
        .with_config(config)
        .with_shots(shots)
        .with_seed(base_seed)
}

/// Pool sizes the suite checks against the serial reference. CI runs
/// the suite once per fixed count via `EQASM_TEST_WORKERS=n` (a comma
/// list also works) so a scheduler change cannot silently break the
/// bit-identical-merge contract at any specific width; without the
/// variable the suite covers 2 and 8.
fn worker_counts() -> Vec<usize> {
    std::env::var("EQASM_TEST_WORKERS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&w| w > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![2, 8])
}

#[test]
fn aggregates_identical_across_worker_counts() {
    let job = noisy_rb_job(96, 1234);
    let reference = ShotEngine::new(1).run_job(&job).expect("runs");
    assert_eq!(reference.shots, 96);
    assert!(reference.histogram.total() == 96);
    for workers in worker_counts() {
        let result = ShotEngine::new(workers).run_job(&job).expect("runs");
        assert_eq!(
            reference.histogram, result.histogram,
            "histogram must not depend on worker count ({workers})"
        );
        assert_eq!(
            reference.stats, result.stats,
            "stats roll-up must not depend on worker count ({workers})"
        );
        // Floating-point aggregate: bit-identical, not approximately
        // equal — batch-ordered folding guarantees it.
        assert_eq!(
            reference.mean_prob1, result.mean_prob1,
            "mean P(1) must be bit-identical ({workers} workers)"
        );
        assert_eq!(reference.non_halted, 0);
        assert_eq!(result.non_halted, 0);
    }
}

#[test]
fn aggregates_identical_across_batch_sizes() {
    let job = noisy_rb_job(64, 77);
    let a = ShotEngine::new(3).run_job(&job).expect("runs");
    let b = ShotEngine::new(3)
        .with_batch_size(1)
        .run_job(&job)
        .expect("runs");
    let c = ShotEngine::new(3)
        .with_batch_size(64)
        .run_job(&job)
        .expect("runs");
    assert_eq!(a.histogram, b.histogram);
    assert_eq!(a.histogram, c.histogram);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, c.stats);
    // Note: mean_prob1 is only guaranteed bit-identical at a *fixed*
    // batch size (the fold order follows batch boundaries); across
    // batch sizes it is the same sum in a different association order.
    for (x, y) in a.mean_prob1.iter().zip(&b.mean_prob1) {
        assert!((x - y).abs() < 1e-12);
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity: the determinism above is not vacuous — shots do vary.
    // Compared on the histogram, not mean_prob1: under the CI's
    // `EQASM_EXEC_PATH=dense` leg this job runs on the exact density
    // backend, whose per-shot P(1) is seed-independent by design —
    // sampled outcomes are the seed-sensitive surface on every
    // backend.
    //
    // A one-qubit histogram has only two cells, so two base seeds
    // landing on the same ones-count is a ~10% event, not a failure
    // (seeds 1 and 9999 genuinely collide at both 64 and 256 shots on
    // the density path). Requiring *any* difference across several
    // base seeds keeps the probe meaningful without being
    // collision-prone.
    let hists: Vec<_> = [1u64, 9999, 0x00c0_ffee, 424_242]
        .iter()
        .map(|&s| {
            ShotEngine::new(2)
                .run_job(&noisy_rb_job(256, s))
                .unwrap()
                .histogram
        })
        .collect();
    assert!(
        hists.windows(2).any(|w| w[0] != w[1]),
        "different base seeds must explore different trajectories: {hists:?}"
    );
}

#[test]
fn mixed_workload_deterministic_across_workers() {
    let mix = MixedWorkload::new()
        .push(
            WorkloadSpec::new(
                "rb",
                WorkloadKind::Rb {
                    k: 6,
                    interval_cycles: 1,
                    sequence_seed: 3,
                },
                24,
            )
            .with_weight(2)
            .with_seed(10),
        )
        .push(
            WorkloadSpec::new("reset", WorkloadKind::ActiveReset { init_cycles: 50 }, 32)
                .with_config(SimConfig::default().with_readout(ReadoutModel::paper_reset())),
        );
    let serial = mix.run(&ShotEngine::new(1)).expect("runs");
    assert_eq!(serial.aggregate.shots, 80);
    for workers in worker_counts() {
        let pooled = mix.run(&ShotEngine::new(workers)).expect("runs");
        assert_eq!(pooled.aggregate.shots, 80);
        for (s, p) in serial.per_workload.iter().zip(&pooled.per_workload) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.histogram, p.histogram, "workload {} diverged", s.name);
            assert_eq!(s.stats, p.stats);
        }
        assert_eq!(serial.aggregate.histogram, pooled.aggregate.histogram);
    }
}

#[test]
fn zero_batch_size_is_clamped_not_fatal() {
    // Regression: `with_batch_size(0)` used to `assert!` inside a
    // library builder — a malformed service request could take down
    // the whole pool. It now clamps to 1 and runs normally.
    let job = noisy_rb_job(32, 5);
    let clamped = ShotEngine::new(2)
        .with_batch_size(0)
        .run_job(&job)
        .expect("clamped engine runs");
    let one = ShotEngine::new(2)
        .with_batch_size(1)
        .run_job(&job)
        .expect("runs");
    assert_eq!(clamped.histogram, one.histogram);
    assert_eq!(clamped.stats, one.stats);
}

#[test]
fn shot_seeding_wraps_at_u64_max() {
    // Shots that walk the seed space across u64::MAX must wrap, not
    // panic (debug) or collide beyond the modular layout (release).
    let job = noisy_rb_job(64, u64::MAX - 16);
    let a = ShotEngine::new(1).run_job(&job).expect("runs");
    let b = ShotEngine::new(4).run_job(&job).expect("runs");
    assert_eq!(a.histogram, b.histogram);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.histogram.total(), 64);
}

#[test]
fn job_latency_histogram_counts_every_shot() {
    // Wall-clock values differ run to run; the shot count they cover
    // does not, whatever the worker count.
    let job = noisy_rb_job(48, 9);
    for workers in [1, 2, 4] {
        let r = ShotEngine::new(workers).run_job(&job).expect("runs");
        assert_eq!(r.latency.count(), 48);
        assert!(r.latency.stats().max_ns > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shot partitioning is exact: every shot index appears exactly
    /// once, in order, whatever the (shots, batch size) combination.
    #[test]
    fn partitioning_never_drops_or_duplicates(
        shots in 0u64..5000,
        batch in 1u64..600,
    ) {
        let parts = partition_shots(shots, batch);
        let mut next = 0u64;
        for r in &parts {
            prop_assert_eq!(r.start, next, "batches must be contiguous");
            prop_assert!(r.end > r.start, "batches must be nonempty");
            prop_assert!(r.end - r.start <= batch, "batches must respect the size cap");
            next = r.end;
        }
        prop_assert_eq!(next, shots, "every shot covered exactly once");
        let total: u64 = parts.iter().map(|r| r.end - r.start).sum();
        prop_assert_eq!(total, shots);
    }
}

//! Heap allocations of a steady-state forked shot.
//!
//! A forked `rb1q-noisy` shot (noisy single-qubit RB of Fig. 12 on the
//! density backend) restores its prefix snapshot, runs the measurement
//! suffix and is read out the way the shot runtime reads it: every
//! qubit's measured value and `P(1)`. On that path the only heap
//! allocations left are the event-queue nodes the suffix itself
//! schedules (the restored queue entry, the pending result and its
//! write-back). This binary holds one test so the counting allocator
//! sees no other test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{QuMa, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};

/// Counts every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The ceiling per steady-state forked shot.
const MAX_ALLOCATIONS_PER_SHOT: usize = 10;

#[test]
fn forked_rb1q_noisy_shot_allocates_at_most_ten_times() {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) =
        eqasm_workloads::rb_program(&inst, Qubit::new(0), 24, 1, 1).expect("rb program builds");
    let mut config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    config.record_trace = false;
    let mut m = QuMa::new(inst, config);
    m.load(&program).expect("program loads");
    let snap = m.run_prefix(0).expect("rb1q-noisy is prefix-eligible");

    let shot = |m: &mut QuMa, seed: u64| {
        let r = m.run_shot_from(&snap, seed);
        assert!(r.status.is_halted());
        let q = Qubit::new(0);
        std::hint::black_box((m.measurement_value(q), m.prob1(q)));
    };
    // Warm-up: the first shots size the reusable buffers.
    for seed in 0..8 {
        shot(&mut m, seed);
    }
    let mut worst = 0;
    for seed in 8..264 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        shot(&mut m, seed);
        worst = worst.max(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    assert!(
        worst <= MAX_ALLOCATIONS_PER_SHOT,
        "a forked rb1q-noisy shot made {worst} heap allocations (ceiling {MAX_ALLOCATIONS_PER_SHOT})"
    );
}

//! Heap allocations of a memoized shot served from its trie.
//!
//! Once an `rb1q-noisy` trie holds every (raw, reported) outcome path
//! of the program's one measurement, each shot is a hit: two RNG
//! seedings, two draws and a leaf lookup, read the way the shot runtime
//! reads it. That path allocates nothing. This binary holds one test
//! so the counting allocator sees no other test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{OutcomeTrie, QuMa, SimConfig};
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

#[test]
fn a_memo_hit_allocates_nothing() {
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
    let mut trie = OutcomeTrie::new();

    // Warm-up: enough shots to store all four outcome paths.
    for seed in 0..4_000 {
        m.run_shot_memo(&snap, &mut trie, seed);
    }
    assert_eq!(trie.leaves(), 4, "every (raw, reported) path is stored");

    let hits = trie.hits();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for seed in 4_000..4_256 {
        let record = m.run_shot_memo(&snap, &mut trie, seed);
        assert!(record.result.status.is_halted());
        std::hint::black_box((record.measured[0], record.prob1[0]));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(trie.hits() - hits, 256, "every measured shot is a hit");
    assert_eq!(
        allocations, 0,
        "256 memo hits made {allocations} heap allocations"
    );
}

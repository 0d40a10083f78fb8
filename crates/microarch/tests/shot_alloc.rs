//! Heap allocations of steady-state forked shots.
//!
//! A forked shot restores its prefix snapshot, runs the measurement
//! suffix and is read out the way the shot runtime reads it: every
//! qubit's measured value and `P(1)`.
//!
//! - `rb1q-noisy` (noisy single-qubit RB of Fig. 12 on the density
//!   backend): the only heap allocations left are the event-queue
//!   nodes the suffix itself schedules (the restored queue entry, the
//!   pending result and its write-back).
//! - `chain16x8` (a 16-qubit, 8-layer Clifford brick wall on the
//!   stabilizer backend): the suffix's own allocations for 16
//!   measurements; the tableau's measurements and `P(1)` reads
//!   allocate nothing.
//!
//! The allocator counts per thread, so each test sees only its own
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{QuMa, SimBackendKind, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // Fails only while the thread is torn down; nothing is measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations any of 256 steady-state runs of `shot`
/// made, after eight warm-up runs that size the reusable buffers.
fn worst_allocations(mut shot: impl FnMut(u64)) -> usize {
    for seed in 0..8 {
        shot(seed);
    }
    let mut worst = 0;
    for seed in 8..264 {
        let before = allocations();
        shot(seed);
        worst = worst.max(allocations() - before);
    }
    worst
}

/// The ceiling per steady-state forked `rb1q-noisy` shot.
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

    let worst = worst_allocations(|seed| {
        let r = m.run_shot_from(&snap, seed);
        assert!(r.status.is_halted());
        let q = Qubit::new(0);
        std::hint::black_box((m.measurement_value(q), m.prob1(q)));
    });
    assert!(
        worst <= MAX_ALLOCATIONS_PER_SHOT,
        "a forked rb1q-noisy shot made {worst} heap allocations (ceiling {MAX_ALLOCATIONS_PER_SHOT})"
    );
}

/// The ceiling per steady-state forked `chain16x8` shot, as measured.
/// The tableau's measurements and `P(1)` reads make none of them; a
/// tableau whose determinism check allocated scratch rows made 43.
const MAX_ALLOCATIONS_PER_CHAIN_SHOT: usize = 11;

/// The `chain16x8` program: per layer, `H` on all 16 qubits of a linear
/// chain, then `CZ` on the even-offset and odd-offset neighbour pairs;
/// then every qubit is measured.
fn chain16x8_source() -> String {
    let pairs = |offset: usize| -> Vec<String> {
        (offset..15)
            .step_by(2)
            .map(|i| format!("({i}, {})", i + 1))
            .collect()
    };
    let all: Vec<String> = (0..16).map(|q| q.to_string()).collect();
    let mut src = format!("SMIS S0, {{{}}}\n", all.join(", "));
    src.push_str(&format!("SMIT T0, {{{}}}\n", pairs(0).join(", ")));
    src.push_str(&format!(
        "SMIT T1, {{{}}}\nQWAIT 100\n",
        pairs(1).join(", ")
    ));
    for _ in 0..8 {
        src.push_str("H S0\nCZ T0\nCZ T1\nQWAIT 10\n");
    }
    src.push_str("MEASZ S0\nQWAIT 50\nSTOP");
    src
}

#[test]
fn forked_chain16x8_shot_with_prob1_readout_stays_under_ceiling() {
    let inst = Instantiation::paper().with_topology(Topology::linear(16));
    let program = eqasm_asm::assemble(&chain16x8_source(), &inst).expect("chain16x8 assembles");
    let config = SimConfig {
        record_trace: false,
        ..SimConfig::default()
    };
    let mut m = QuMa::new(inst, config);
    m.load(program.instructions()).expect("program loads");
    assert_eq!(m.selection().kind(), SimBackendKind::Stabilizer);
    let snap = m.run_prefix(0).expect("chain16x8 is prefix-eligible");

    let worst = worst_allocations(|seed| {
        let r = m.run_shot_from(&snap, seed);
        assert!(r.status.is_halted());
        for q in 0..16 {
            let q = Qubit::new(q);
            std::hint::black_box((m.measurement_value(q), m.prob1(q)));
        }
    });
    assert!(
        worst <= MAX_ALLOCATIONS_PER_CHAIN_SHOT,
        "a forked chain16x8 shot made {worst} heap allocations (ceiling {MAX_ALLOCATIONS_PER_CHAIN_SHOT})"
    );
}

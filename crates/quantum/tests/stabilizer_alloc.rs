//! Heap allocations of the stabilizer backend's gate identification.
//!
//! `StabilizerBackend` receives each gate as a dense unitary and
//! identifies it up to global phase: a single-qubit gate against the 24
//! Clifford matrices, a two-qubit gate against CZ, CNOT, SWAP and the
//! identity. Both comparisons run in place against matrices built
//! once, so applying a gate allocates nothing.
//!
//! The allocator counts per thread, so each test sees only its own
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eqasm_quantum::{gates, Backend, CMatrix, Clifford, NoiseModel, StabilizerBackend};

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

/// Allocations made by `apply` once a first call has built the
/// backend's one-time tables.
fn steady_state_allocations(
    backend: &mut StabilizerBackend,
    apply: impl Fn(&mut StabilizerBackend),
) -> usize {
    apply(backend);
    let before = allocations();
    apply(backend);
    allocations() - before
}

#[test]
fn two_qubit_clifford_gates_allocate_nothing() {
    let mut backend = StabilizerBackend::new(2, NoiseModel::default(), 1);
    for (name, u) in [
        ("CZ", gates::cz()),
        ("CNOT", gates::cnot()),
        ("SWAP", gates::swap()),
        ("CPhase(0)", gates::cphase(0.0)),
    ] {
        let n = steady_state_allocations(&mut backend, |b| {
            b.apply_2q(0, 1, &u);
            b.apply_2q(1, 0, &u);
        });
        assert_eq!(n, 0, "applying {name} made {n} heap allocations");
    }
}

#[test]
fn single_qubit_cliffords_allocate_nothing() {
    let mut backend = StabilizerBackend::new(2, NoiseModel::default(), 1);
    let matrices: Vec<CMatrix> = Clifford::all().map(|c| c.matrix().clone()).collect();
    assert_eq!(matrices.len(), 24);
    for (i, u) in matrices.iter().enumerate() {
        let n = steady_state_allocations(&mut backend, |b| b.apply_1q(1, u));
        assert_eq!(n, 0, "applying Clifford {i} made {n} heap allocations");
    }
}

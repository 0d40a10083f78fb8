//! Benchmarks the qubit-plane substrate: state-vector and
//! density-matrix gate application, exact noise channels, the
//! Clifford tables and the stabilizer tableau's gate and measurement
//! paths.

use criterion::{criterion_group, criterion_main, Criterion};
use eqasm_quantum::{
    gates, noise, Backend, BackendState, Clifford, DensityMatrix, NoiseModel, StabilizerBackend,
    StateVector, Tableau,
};

/// Qubits of the stabilizer benches: the service benchmark's
/// `chain16x8` register.
const CHAIN_QUBITS: usize = 16;

/// One brick-wall layer of the `chain16x8` workload: `H` on every
/// qubit, then `CZ` on the even-offset and odd-offset neighbour pairs.
fn brick_layer(t: &mut Tableau) {
    let n = t.num_qubits();
    for q in 0..n {
        t.h(q);
    }
    for offset in [0, 1] {
        for a in (offset..n - 1).step_by(2) {
            t.cz(a, a + 1);
        }
    }
}

/// The state `chain16x8` measures: eight brick-wall layers on 16
/// qubits, every qubit's outcome random.
fn chain_state() -> BackendState {
    let mut t = Tableau::zero_state(CHAIN_QUBITS);
    for _ in 0..8 {
        brick_layer(&mut t);
    }
    BackendState::Stabilizer(t)
}

/// A stabilizer backend restored to [`chain_state`].
fn chain_backend() -> (StabilizerBackend, BackendState) {
    let prefix = chain_state();
    let mut backend = StabilizerBackend::new(CHAIN_QUBITS, NoiseModel::ideal(), 1);
    backend.restore(&prefix);
    (backend, prefix)
}

fn bench_quantum(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantum");

    group.bench_function("statevector_1q_gate_8q", |b| {
        let mut psi = StateVector::zero_state(8);
        let h = gates::hadamard();
        b.iter(|| {
            for q in 0..8 {
                psi.apply_1q(q, &h);
            }
        })
    });
    group.bench_function("statevector_2q_gate_8q", |b| {
        let mut psi = StateVector::zero_state(8);
        let cz = gates::cz();
        b.iter(|| {
            for q in 0..7 {
                psi.apply_2q(q, q + 1, &cz);
            }
        })
    });
    group.bench_function("density_1q_gate_4q", |b| {
        let mut rho = DensityMatrix::zero_state(4);
        let h = gates::hadamard();
        b.iter(|| {
            for q in 0..4 {
                rho.apply_1q(q, &h);
            }
        })
    });
    group.bench_function("density_damping_channel_4q", |b| {
        let mut rho = DensityMatrix::zero_state(4);
        let kraus = noise::amplitude_phase_damping(0.01, 0.01);
        b.iter(|| rho.apply_kraus_1q(0, &kraus))
    });
    group.bench_function("clifford_compose_chain", |b| {
        b.iter(|| {
            let mut acc = Clifford::identity();
            for i in 0..1000usize {
                acc = acc.compose(Clifford::from_index(i % 24).unwrap());
            }
            acc
        })
    });
    group.finish();
}

fn bench_stabilizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer");
    // The forked chain16x8 shot's quantum work: restore the prefix
    // state, then measure every qubit (one draw each).
    group.bench_function("measure_all_16q", |b| {
        let (mut backend, prefix) = chain_backend();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            backend.restore(&prefix);
            backend.reseed(seed);
            let mut bits = 0u32;
            for q in 0..CHAIN_QUBITS {
                bits |= (backend.measure(q).outcome as u32) << q;
            }
            bits
        })
    });
    // The shot runtime's read-out after a full measurement: every
    // qubit's P(1), each deterministic.
    group.bench_function("prob1_deterministic_16q", |b| {
        let (mut backend, _) = chain_backend();
        for q in 0..CHAIN_QUBITS {
            backend.measure(q);
        }
        b.iter(|| (0..CHAIN_QUBITS).map(|q| backend.prob1(q)).sum::<f64>())
    });
    // One brick-wall layer of tableau gates (16 H, 15 CZ).
    group.bench_function("gate_layer_16q", |b| {
        let mut t = Tableau::zero_state(CHAIN_QUBITS);
        b.iter(|| brick_layer(&mut t))
    });
    group.finish();
}

criterion_group!(benches, bench_quantum, bench_stabilizer);
criterion_main!(benches);

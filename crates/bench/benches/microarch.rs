//! Benchmarks the QuMA v2 simulator: classical-cycle throughput on a
//! feedback-free RB program and on the CFC feedback loop, the
//! shared-prefix fork path of the shot service's `rb1q-noisy` shape
//! (building the prefix once, one forked shot, and one forked shot
//! served from a warm outcome trie), and one forked shot of its
//! `chain16x8` shape on the stabilizer backend.

use criterion::{criterion_group, criterion_main, Criterion};
use eqasm_core::{Instantiation, Qubit, Topology};
use eqasm_microarch::{OutcomeTrie, QuMa, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::WorkloadKind;

/// The service benchmark's `rb1q-noisy` machine: 24-Clifford RB on one
/// qubit under the Fig. 12 noise (T1 = T2 = 25 µs, 9e-4 gate error, 5%
/// readout error), tracing off as in the shot runtime.
fn rb1q_noisy() -> QuMa {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) = eqasm_workloads::rb_program(&inst, Qubit::new(0), 24, 1, 1).unwrap();
    let mut config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    config.record_trace = false;
    let mut machine = QuMa::new(inst, config);
    machine.load(&program).unwrap();
    machine
}

fn bench_machine(c: &mut Criterion) {
    let inst = Instantiation::paper_two_qubit();
    let (rb, _) = eqasm_workloads::rb_program(&inst, Qubit::new(0), 100, 2, 3).unwrap();
    let mut group = c.benchmark_group("microarch");
    group.bench_function("run_rb_100_cliffords", |b| {
        let mut machine = QuMa::new(inst.clone(), SimConfig::default());
        machine.load(&rb).unwrap();
        b.iter(|| {
            machine.reset();
            let result = machine.run();
            assert!(result.status.is_halted());
            machine.stats().classical_cycles
        })
    });

    let cfc = eqasm_asm::assemble(
        "SMIS S0, {0}\nSMIS S1, {1}\nLDI R0, 1\nLDI r2, 0\nLDI r3, 16\nLDI r4, 1\nloop:\nQWAIT 100\n0, MEASZ S1\nQWAIT 30\nFMR R1, Q1\nCMP R1, R0\nBR EQ, eq\nX S0\nBR ALWAYS, n\neq:\nY S0\nn:\nQWAIT 10\nADD r2, r2, r4\nCMP r2, r3\nBR NE, loop\nSTOP",
        &inst,
    )
    .unwrap();
    group.bench_function("run_cfc_16_rounds", |b| {
        let mut machine = QuMa::new(inst.clone(), SimConfig::default());
        machine.load(cfc.instructions()).unwrap();
        b.iter(|| {
            machine.reset();
            machine.run().status.is_halted()
        })
    });

    group.bench_function("prefix_rb1q_noisy", |b| {
        let mut machine = rb1q_noisy();
        b.iter(|| machine.run_prefix(0).unwrap())
    });
    group.bench_function("fork_shot_rb1q_noisy", |b| {
        let mut machine = rb1q_noisy();
        let snapshot = machine.run_prefix(0).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let result = machine.run_shot_from(&snapshot, seed);
            assert!(result.status.is_halted());
            machine.measurement_value(Qubit::new(0))
        })
    });
    group.bench_function("memo_shot_rb1q_noisy", |b| {
        let mut machine = rb1q_noisy();
        let snapshot = machine.run_prefix(0).unwrap();
        let mut trie = OutcomeTrie::new();
        // Warm: every (raw, reported) path of the one measurement.
        for seed in 0..4_000 {
            machine.run_shot_memo(&snapshot, &mut trie, seed);
        }
        let mut seed = 4_000u64;
        b.iter(|| {
            seed += 1;
            let record = machine.run_shot_memo(&snapshot, &mut trie, seed);
            assert!(record.result.status.is_halted());
            record.measured[0]
        })
    });
    group.bench_function("fork_shot_chain16x8", |b| {
        // 16-qubit, 8-layer Clifford brick wall: `Auto` selection puts
        // it on the stabilizer tableau; the suffix measures every qubit.
        let kind = WorkloadKind::CliffordChain {
            qubits: 16,
            layers: 8,
        };
        let (inst, program) = kind.build().unwrap();
        let config = SimConfig {
            record_trace: false,
            ..SimConfig::default()
        };
        let mut machine = QuMa::new(inst, config);
        machine.load(&program).unwrap();
        let snapshot = machine.run_prefix(0).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let result = machine.run_shot_from(&snapshot, seed);
            assert!(result.status.is_halted());
            machine.measurement_value(Qubit::new(15))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);

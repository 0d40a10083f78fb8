//! The event-driven clock against the single-step reference.
//!
//! `QuMa::run` and `QuMa::run_prefix` jump over cycles in which the
//! classical pipeline cannot issue; `QuMa::step` still advances exactly
//! one cycle. These tests run each program both ways — `run()`, and a
//! loop of single `step()` calls — and require the same `RunResult`,
//! the same full machine state (registers, queues, qubit state, clock,
//! statistics) and, with tracing on, the same `Trace`. Covered: noisy
//! single-qubit RB (full and forked), `FMR` stalls in active-reset and
//! comprehensive-feedback programs, a cycle budget that runs out in the
//! middle of an idle wait or a stall, and a timeline-slip fault.

use eqasm_asm::assemble;
use eqasm_core::{Instantiation, Instruction, Qubit, Topology};
use eqasm_microarch::{
    LatencyModel, MeasurementSource, QuMa, RunResult, RunStatus, SimConfig, TimingPolicy,
};
use eqasm_quantum::{NoiseModel, ReadoutModel};

fn machine(inst: &Instantiation, config: &SimConfig, program: &[Instruction]) -> QuMa {
    let mut m = QuMa::new(inst.clone(), config.clone());
    m.load(program).expect("program loads");
    m
}

/// The single-step reference of `run()`: one `step()` per classical
/// cycle until the machine stops or the budget runs out, then `run()`
/// only to report the status (it has nothing left to execute).
fn run_stepped(m: &mut QuMa) -> RunResult {
    let budget = m.config().max_classical_cycles;
    while m.clock_cc() < budget && m.step() {}
    m.run()
}

/// Runs a loaded machine pair both ways and compares everything.
fn assert_same(fast: &mut QuMa, slow: &mut QuMa) -> RunResult {
    let a = fast.run();
    let b = run_stepped(slow);
    assert_eq!(a, b, "run() and single-stepping disagree on the result");
    assert_eq!(fast.trace(), slow.trace(), "traces differ");
    assert_eq!(fast.snapshot(), slow.snapshot(), "machine states differ");
    for q in 0..fast.instantiation().topology().num_qubits() {
        let q = Qubit::new(q as u8);
        assert_eq!(fast.prob1(q).to_bits(), slow.prob1(q).to_bits());
    }
    a
}

/// Full shots under `seed`: `run_shot` against reset + single-step.
fn assert_shot_matches(
    inst: &Instantiation,
    config: &SimConfig,
    program: &[Instruction],
    seed: u64,
) -> RunResult {
    let mut fast = machine(inst, config, program);
    let mut slow = machine(inst, config, program);
    fast.reset_with_seed(seed);
    slow.reset_with_seed(seed);
    assert_same(&mut fast, &mut slow)
}

fn assembled(inst: &Instantiation, src: &str) -> Vec<Instruction> {
    assemble(src, inst)
        .expect("assembly failed")
        .instructions()
        .to_vec()
}

fn rb1q_noisy() -> (Instantiation, SimConfig, Vec<Instruction>) {
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) =
        eqasm_workloads::rb_program(&inst, Qubit::new(0), 24, 1, 1).expect("rb program builds");
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05));
    (inst, config, program)
}

fn zero_latency() -> SimConfig {
    SimConfig {
        latency: LatencyModel::zero(),
        ..SimConfig::default()
    }
}

#[test]
fn rb1q_noisy_full_shots_match_single_stepping() {
    let (inst, config, program) = rb1q_noisy();
    for seed in 0..8 {
        let r = assert_shot_matches(&inst, &config, &program, seed);
        assert!(r.status.is_halted());
        assert!(
            r.stats.classical_cycles > 20_000,
            "the init wait is simulated"
        );
    }
}

#[test]
fn rb1q_noisy_prefix_and_forks_match_single_stepping() {
    let (inst, config, program) = rb1q_noisy();
    let mut fast = machine(&inst, &config, &program);
    let snap = fast.run_prefix(3).expect("rb1q-noisy is prefix-eligible");

    // The prefix is the single-stepped machine at the same cycle.
    let mut probe = machine(&inst, &config, &program);
    probe.restore(&snap);
    let boundary = probe.clock_cc();
    assert!(boundary > 20_000, "the prefix covers the init wait");
    let mut slow = machine(&inst, &config, &program);
    slow.reset_with_seed(3);
    while slow.clock_cc() < boundary {
        assert!(slow.step());
    }
    assert_eq!(slow.snapshot(), snap);

    // Forked shots: `run_shot_from` against restore + single-step
    // under the same seed (`reset_with_seed` reseeds the streams the
    // way the fork does).
    for seed in 0..8 {
        let r = fast.run_shot_from(&snap, seed);
        let mut slow = machine(&inst, &config, &program);
        slow.reset_with_seed(seed);
        slow.restore(&snap);
        assert_eq!(r, run_stepped(&mut slow));
        assert_eq!(fast.trace(), slow.trace());
        assert_eq!(fast.snapshot(), slow.snapshot());
    }
}

#[test]
fn active_reset_fmr_stall_matches_single_stepping() {
    // Fig. 4 active reset, with an FMR reading the first result while
    // its measurement is still in flight: the pipeline stalls.
    let inst = Instantiation::paper_two_qubit();
    let program = assembled(
        &inst,
        "SMIS S2, {2}\nQWAIT 1000\nX90 S2\nMEASZ S2\nFMR r1, q2\nQWAIT 50\nC_X S2\nMEASZ S2\nFMR r2, q2\nQWAIT 50\nSTOP",
    );
    let config = SimConfig::default().with_readout(ReadoutModel::paper_reset());
    for seed in 0..16 {
        let r = assert_shot_matches(&inst, &config, &program, seed);
        assert!(r.status.is_halted());
        assert!(r.stats.fmr_stall_cycles > 20, "FMR stalls: {:?}", r.stats);
    }
}

#[test]
fn cfc_loop_matches_single_stepping() {
    // Comprehensive feedback control (Fig. 5) in a loop: four
    // measure → FMR → branch rounds on alternating mock results.
    let inst = Instantiation::paper_two_qubit();
    let program = assembled(
        &inst,
        "\
SMIS S0, {0}
SMIS S1, {1}
LDI R0, 1
LDI r2, 0
LDI r3, 4
LDI r4, 1
loop:
QWAIT 100
0, MEASZ S1
QWAIT 30
FMR R1, Q1
CMP R1, R0
BR EQ, eq_path
X S0
BR ALWAYS, next
eq_path:
Y S0
next:
QWAIT 10
ADD r2, r2, r4
CMP r2, r3
BR NE, loop
STOP",
    );
    for config in [
        zero_latency().with_measurement_source(MeasurementSource::MockAlternating { start: false }),
        SimConfig::default()
            .with_noise(NoiseModel::with_coherence(10_000.0, 8_000.0))
            .with_readout(ReadoutModel::symmetric(0.1)),
    ] {
        for seed in 0..4 {
            let r = assert_shot_matches(&inst, &config, &program, seed);
            assert!(r.status.is_halted());
            assert!(r.stats.fmr_stall_cycles > 0);
        }
    }
}

#[test]
fn budget_exhausted_mid_wait_stops_exactly_at_the_budget() {
    // The measurement triggers at quantum cycle 10 000 (classical
    // cycle 20 000); the budget runs out in the idle wait before it.
    let inst = Instantiation::paper_two_qubit();
    let program = assembled(
        &inst,
        "SMIS S0, {0}\nQWAIT 10000\nX S0\nMEASZ S0\nQWAIT 50\nSTOP",
    );
    for budget in [1, 2, 7, 1_000, 12_345, 19_999, 20_000, 20_001, 20_033] {
        let config = SimConfig {
            max_classical_cycles: budget,
            ..SimConfig::default()
        };
        let r = assert_shot_matches(&inst, &config, &program, 0);
        assert_eq!(r.status, RunStatus::MaxCycles, "budget {budget}");
        assert_eq!(r.stats.classical_cycles, budget);
    }
}

#[test]
fn budget_exhausted_mid_stall_stops_exactly_at_the_budget() {
    // FMR stalls from cycle ~10 until the result lands near cycle
    // 20 000; the budget cuts the stall short.
    let inst = Instantiation::paper_two_qubit();
    let program = assembled(
        &inst,
        "SMIS S0, {0}\nQWAIT 10000\nMEASZ S0\nFMR r1, q0\nSTOP",
    );
    for budget in [15, 5_001, 20_000, 20_031] {
        let config = SimConfig {
            max_classical_cycles: budget,
            ..SimConfig::default()
        };
        let r = assert_shot_matches(&inst, &config, &program, 0);
        assert_eq!(r.status, RunStatus::MaxCycles, "budget {budget}");
        assert_eq!(r.stats.classical_cycles, budget);
    }
}

#[test]
fn timeline_slip_fault_matches_single_stepping() {
    // Each timing point advances one quantum cycle but needs four
    // classical cycles of instructions: under the hard real-time
    // policy the machine faults on the first slip.
    let inst = Instantiation::paper();
    let mut src = String::from("SMIS S0, {0}\nQWAIT 10\n");
    for _ in 0..30 {
        src.push_str("1, X S0\nNOP\nNOP\nNOP\n");
    }
    src.push_str("QWAIT 5000\nSTOP");
    let program = assembled(&inst, &src);
    for policy in [TimingPolicy::Fault, TimingPolicy::SlipAndCount] {
        let config = SimConfig {
            timing_policy: policy,
            ..zero_latency()
        };
        let r = assert_shot_matches(&inst, &config, &program, 0);
        match policy {
            TimingPolicy::Fault => assert!(matches!(r.status, RunStatus::Fault(_))),
            _ => {
                assert!(r.status.is_halted());
                assert!(r.stats.timeline_slips > 0);
            }
        }
    }
}

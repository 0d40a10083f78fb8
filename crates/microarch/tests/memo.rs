//! Outcome-memoized shots against plain forked replays.
//!
//! `QuMa::run_shot_memo` must return, for every seed, exactly the
//! record `run_shot_from` plus `ShotRecord::capture` produce: the same
//! `RunResult`, the same measured values and the same `P(1)` bits.
//! These tests drive one machine through an `OutcomeTrie` and a second
//! one through plain replays over a seed sequence with repeats, so the
//! trie serves hits, records misses and — under small byte bounds —
//! fills up and falls back to replays. Random programs mix gates,
//! measurements, fast conditional execution (`C_X`-style gates on the
//! last result) and comprehensive feedback (`FMR` → `CMP` → `BR`), under
//! the density matrix with noise, the ideal state vector and the
//! ideal stabilizer, plus configurations the trie must not serve.

use eqasm_asm::assemble;
use eqasm_core::{Instantiation, Instruction, Qubit, Topology};
use eqasm_microarch::{BackendSelect, MeasurementSource, OutcomeTrie, QuMa, ShotRecord, SimConfig};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use proptest::prelude::*;

fn machine(inst: &Instantiation, config: &SimConfig, program: &[Instruction]) -> QuMa {
    let mut m = QuMa::new(inst.clone(), config.clone());
    m.load(program).expect("program loads");
    m
}

/// The comparable content of a record: `P(1)` by its bits.
fn bits(r: &ShotRecord) -> impl PartialEq + std::fmt::Debug {
    (
        r.result.clone(),
        r.measured.clone(),
        r.prob1.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
    )
}

/// Runs `seeds` through a trie bounded by `limit` and through plain
/// replays, requiring identical records; returns the trie.
fn assert_memo_matches_replays(
    inst: &Instantiation,
    config: &SimConfig,
    program: &[Instruction],
    limit: usize,
    seeds: &[u64],
) -> OutcomeTrie {
    let mut memo = machine(inst, config, program);
    let mut replay = machine(inst, config, program);
    let snap = memo.run_prefix(0).expect("prefix-eligible");
    let mut trie = OutcomeTrie::with_limit(limit);
    let mut want = ShotRecord::default();
    for &seed in seeds {
        let result = replay.run_shot_from(&snap, seed);
        want.capture(&mut replay, result);
        let got = memo.run_shot_memo(&snap, &mut trie, seed);
        assert_eq!(bits(got), bits(&want), "seed {seed}");
    }
    assert!(
        trie.bytes() <= limit,
        "{} bytes over a {limit}-byte bound",
        trie.bytes()
    );
    trie
}

fn assembled(inst: &Instantiation, src: &str) -> Vec<Instruction> {
    assemble(src, inst)
        .unwrap_or_else(|e| panic!("assembly failed: {e}\n{src}"))
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

#[test]
fn rb1q_noisy_is_served_from_four_leaves() {
    let (inst, config, program) = rb1q_noisy();
    let seeds: Vec<u64> = (0..2_000).collect();
    let trie = assert_memo_matches_replays(&inst, &config, &program, usize::MAX, &seeds);
    // One measurement: at most (raw, reported) ∈ {0,1}², one leaf each.
    assert!(trie.leaves() <= 4, "{} leaves", trie.leaves());
    assert!(trie.hits() >= 2_000 - 4, "{} hits", trie.hits());
    assert!(!trie.is_full());
}

#[test]
fn active_reset_feedback_is_served_from_the_trie() {
    let inst = Instantiation::paper_two_qubit();
    let program = assembled(
        &inst,
        "SMIS S2, {2}\nQWAIT 1000\nX90 S2\nMEASZ S2\nFMR r1, q2\nQWAIT 50\nC_X S2\nMEASZ S2\nFMR r2, q2\nQWAIT 50\nSTOP",
    );
    let config = SimConfig::default()
        .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0))
        .with_readout(ReadoutModel::paper_reset());
    let seeds: Vec<u64> = (0..1_000).map(|i| i * 7919).collect();
    let trie = assert_memo_matches_replays(&inst, &config, &program, usize::MAX, &seeds);
    assert!(trie.leaves() <= 16, "{} leaves", trie.leaves());
    assert!(trie.hits() >= 1_000 - 16);
}

#[test]
fn a_full_trie_stops_growing_and_keeps_serving() {
    // Eight independent 50/50 measurements: 2⁸ raw paths, far more
    // than a 4 KiB trie holds.
    let inst = Instantiation::paper().with_topology(Topology::linear(8));
    let program = assembled(
        &inst,
        "SMIS S0, {0, 1, 2, 3, 4, 5, 6, 7}\nQWAIT 100\nH S0\nMEASZ S0\nQWAIT 50\nSTOP",
    );
    let config = SimConfig::default().with_backend(BackendSelect::Auto);
    let seeds: Vec<u64> = (0..600).chain(0..600).collect();
    let trie = assert_memo_matches_replays(&inst, &config, &program, 4 * 1024, &seeds);
    assert!(trie.is_full());
    let stored = trie.leaves();
    assert!(stored > 0 && stored < 256, "{stored} leaves");
    // The second pass over the seeds hits every path the trie kept.
    assert!(trie.hits() >= stored as u64);
}

#[test]
fn ineligible_machines_always_replay() {
    let (inst, config, program) = rb1q_noisy();
    // Sampled gate error draws between measurements (finite T1/T2
    // would make the trajectory prefix-ineligible altogether).
    let trajectory_noise = config
        .clone()
        .with_noise(NoiseModel::ideal().with_gate_error(0.05, 0.0))
        .with_backend(BackendSelect::Pure);
    let mock = config.with_measurement_source(MeasurementSource::MockAlternating { start: true });
    for config in [trajectory_noise, mock] {
        let seeds: Vec<u64> = (0..50).chain(0..50).collect();
        let trie = assert_memo_matches_replays(&inst, &config, &program, usize::MAX, &seeds);
        assert_eq!((trie.leaves(), trie.hits()), (0, 0));
    }
}

/// One step of a random feedback program on the paper's two-qubit chip
/// (qubits 0 and 2; `S0` = {0}, `S1` = {2}, `S2` = both, `T0` = the
/// pair).
#[derive(Debug, Clone)]
enum Step {
    Gate(&'static str, u8),
    TwoQubit(&'static str),
    Measure(u8),
    /// Fast conditional execution on the last result.
    Conditional(&'static str, u8),
    /// `FMR` a measured qubit into a branch between two gates.
    Branch(u8),
}

const GATES: [&str; 7] = ["X", "Y", "X90", "Y90", "XM90", "H", "Z90"];
const TWO_QUBIT: [&str; 2] = ["CZ", "CNOT"];
const CONDITIONAL: [&str; 4] = ["C_X", "C_Y", "C0_X", "CE_X"];

fn arb_step() -> impl Strategy<Value = Step> {
    let sreg = || 0u8..3;
    let one = || 0u8..2;
    prop_oneof![
        (0..GATES.len(), sreg()).prop_map(|(g, s)| Step::Gate(GATES[g], s)),
        (0..TWO_QUBIT.len()).prop_map(|g| Step::TwoQubit(TWO_QUBIT[g])),
        sreg().prop_map(Step::Measure),
        (0..CONDITIONAL.len(), one()).prop_map(|(g, s)| Step::Conditional(CONDITIONAL[g], s)),
        one().prop_map(Step::Branch),
    ]
}

fn feedback_program(steps: &[Step], waits: &[u32]) -> String {
    let mut src = String::from(
        "SMIS S0, {0}\nSMIS S1, {2}\nSMIS S2, {0, 2}\nSMIT T0, {(0, 2)}\nLDI R0, 1\nQWAIT 200\n",
    );
    for (i, (step, wait)) in steps.iter().zip(waits.iter().cycle()).enumerate() {
        src.push_str(&format!("QWAIT {wait}\n"));
        match step {
            Step::Gate(g, s) => src.push_str(&format!("{g} S{s}\n")),
            Step::TwoQubit(g) => src.push_str(&format!("{g} T0\n")),
            Step::Measure(s) => src.push_str(&format!("MEASZ S{s}\n")),
            Step::Conditional(g, s) => src.push_str(&format!("{g} S{s}\n")),
            Step::Branch(s) => {
                let (q, other) = if *s == 0 { (0, 1) } else { (2, 0) };
                src.push_str(&format!(
                    "MEASZ S{s}\nQWAIT 30\nFMR R1, Q{q}\nCMP R1, R0\nBR EQ, one{i}\nX S{other}\nBR ALWAYS, end{i}\none{i}:\nY S{other}\nend{i}:\n"
                ));
            }
        }
    }
    src.push_str("QWAIT 50\nSTOP");
    src
}

fn config(index: usize, budget: u64) -> SimConfig {
    let readout = ReadoutModel::symmetric(0.1);
    let mut config = match index {
        // Density matrix with decoherence and gate error.
        0 => SimConfig::default()
            .with_noise(NoiseModel::with_coherence(8_000.0, 6_000.0).with_gate_error(0.01, 0.02))
            .with_readout(readout),
        // Ideal state vector with readout error.
        1 => SimConfig::default()
            .with_backend(BackendSelect::Pure)
            .with_readout(readout),
        // Ideal Clifford program: the stabilizer.
        2 => SimConfig::default()
            .with_backend(BackendSelect::Auto)
            .with_readout(readout),
        // A sampled gate error on a trajectory backend: never served.
        _ => SimConfig::default()
            .with_noise(NoiseModel::ideal().with_gate_error(0.05, 0.05))
            .with_backend(BackendSelect::Pure)
            .with_readout(readout),
    };
    config.record_trace = false;
    config.max_classical_cycles = budget;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Memoized shots ≡ forked replays on random feedback programs,
    /// backends, cycle budgets and trie bounds (0 bytes: every shot
    /// replays; 1 KiB: a few paths, then full; unbounded).
    #[test]
    fn memo_shots_match_forked_replays(
        steps in prop::collection::vec(arb_step(), 1..7),
        waits in prop::collection::vec(1u32..40, 1..4),
        backend in 0usize..4,
        budget in prop_oneof![Just(50_000_000u64), Just(50_000_000u64), 400u64..3_000],
        limit in prop_oneof![Just(0usize), Just(1024usize), Just(usize::MAX)],
        seeds in prop::collection::vec(0u64..24, 40..60),
        salt in any::<u64>(),
    ) {
        let inst = Instantiation::paper_two_qubit();
        let program = assembled(&inst, &feedback_program(&steps, &waits));
        let config = config(backend, budget);
        // Seeds from a small pool repeat, so stored paths are walked
        // again; the salt spreads them over the u64 range.
        let seeds: Vec<u64> = seeds.iter().map(|s| s.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).collect();
        let trie = assert_memo_matches_replays(&inst, &config, &program, limit, &seeds);
        if limit == 0 {
            prop_assert_eq!(trie.leaves(), 0);
        }
    }
}

//! Property-based tests of the machine: the classical pipeline agrees
//! with a straight-line reference interpreter on arbitrary ALU/data
//! programs, execution is deterministic per seed, quantum timing
//! respects the queue-based model for arbitrary wait patterns, and the
//! event-driven `run()` agrees with single-stepping on all of these.

use eqasm_core::{CmpFlag, CmpFlags, Gpr, Instantiation, Instruction, Qubit};
use eqasm_microarch::{LatencyModel, QuMa, RunResult, SimConfig};
use proptest::prelude::*;

fn zero_latency() -> SimConfig {
    SimConfig {
        latency: LatencyModel::zero(),
        ..SimConfig::default()
    }
}

/// Straight-line classical instructions only (no branches — those are
/// covered by targeted tests; property programs must terminate).
fn arb_classical() -> impl Strategy<Value = Instruction> {
    let gpr = || (0u8..8).prop_map(Gpr::new);
    prop_oneof![
        (gpr(), -(1i32 << 19)..(1i32 << 19) - 1).prop_map(|(rd, imm)| Instruction::Ldi { rd, imm }),
        (gpr(), 0u16..1 << 15, gpr()).prop_map(|(rd, imm, rs)| Instruction::Ldui { rd, imm, rs }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs, rt)| Instruction::Add { rd, rs, rt }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs, rt)| Instruction::Sub { rd, rs, rt }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs, rt)| Instruction::And { rd, rs, rt }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs, rt)| Instruction::Or { rd, rs, rt }),
        (gpr(), gpr(), gpr()).prop_map(|(rd, rs, rt)| Instruction::Xor { rd, rs, rt }),
        (gpr(), gpr()).prop_map(|(rd, rt)| Instruction::Not { rd, rt }),
        (gpr(), gpr()).prop_map(|(rs, rt)| Instruction::Cmp { rs, rt }),
        ((0usize..12), gpr()).prop_map(|(f, rd)| Instruction::Fbr {
            flag: CmpFlag::ALL[f],
            rd
        }),
        (gpr(), 0i32..64).prop_map(|(rd, imm)| Instruction::Ld {
            rd,
            rt: Gpr::new(31), // r31 stays 0: plain absolute addressing
            imm
        }),
        (gpr(), 0i32..64).prop_map(|(rs, imm)| Instruction::St {
            rs,
            rt: Gpr::new(31),
            imm
        }),
        Just(Instruction::Nop),
    ]
}

/// A reference interpreter for straight-line classical code.
fn reference(program: &[Instruction]) -> (Vec<u32>, Vec<u32>) {
    let mut regs = vec![0u32; 32];
    let mut mem = vec![0u32; 4096];
    let mut flags = CmpFlags::new();
    for i in program {
        match *i {
            Instruction::Ldi { rd, imm } => regs[rd.index()] = imm as u32,
            Instruction::Ldui { rd, imm, rs } => {
                regs[rd.index()] = ((imm as u32) << 17) | (regs[rs.index()] & 0x1ffff)
            }
            Instruction::Add { rd, rs, rt } => {
                regs[rd.index()] = regs[rs.index()].wrapping_add(regs[rt.index()])
            }
            Instruction::Sub { rd, rs, rt } => {
                regs[rd.index()] = regs[rs.index()].wrapping_sub(regs[rt.index()])
            }
            Instruction::And { rd, rs, rt } => {
                regs[rd.index()] = regs[rs.index()] & regs[rt.index()]
            }
            Instruction::Or { rd, rs, rt } => {
                regs[rd.index()] = regs[rs.index()] | regs[rt.index()]
            }
            Instruction::Xor { rd, rs, rt } => {
                regs[rd.index()] = regs[rs.index()] ^ regs[rt.index()]
            }
            Instruction::Not { rd, rt } => regs[rd.index()] = !regs[rt.index()],
            Instruction::Cmp { rs, rt } => {
                flags = CmpFlags::compare(regs[rs.index()], regs[rt.index()])
            }
            Instruction::Fbr { flag, rd } => regs[rd.index()] = flags.get(flag) as u32,
            Instruction::Ld { rd, rt, imm } => {
                let addr = (regs[rt.index()] as i64 + imm as i64) as usize;
                regs[rd.index()] = mem[addr];
            }
            Instruction::St { rs, rt, imm } => {
                let addr = (regs[rt.index()] as i64 + imm as i64) as usize;
                mem[addr] = regs[rs.index()];
            }
            _ => {}
        }
    }
    (regs, mem)
}

/// Runs `program` event-driven (`run()`) and single-stepped (one
/// `step()` per cycle) and requires identical results, traces and
/// machine state.
fn run_matches_stepping(
    inst: &Instantiation,
    config: &SimConfig,
    program: &[Instruction],
) -> RunResult {
    let load = || {
        let mut m = QuMa::new(inst.clone(), config.clone());
        m.load(program).unwrap();
        m
    };
    let (mut fast, mut slow) = (load(), load());
    let a = fast.run();
    let budget = config.max_classical_cycles;
    while slow.clock_cc() < budget && slow.step() {}
    let b = slow.run();
    assert_eq!(&a, &b);
    assert_eq!(fast.trace(), slow.trace());
    assert_eq!(fast.snapshot(), slow.snapshot());
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Event-driven `run()` ≡ single-stepping on random programs:
    /// straight-line classical code, then a random wait pattern of
    /// gates, an optional measurement read back by `FMR` (which
    /// stalls), under random latencies, seeds and cycle budgets.
    #[test]
    fn run_matches_single_stepping(
        classical in prop::collection::vec(arb_classical(), 0..20),
        waits in prop::collection::vec(0u32..300, 0..8),
        measure in any::<bool>(),
        paper_latency in any::<bool>(),
        seed in any::<u64>(),
        budget in prop_oneof![Just(u64::MAX), 1u64..4_000],
    ) {
        let inst = Instantiation::paper_two_qubit();
        let mut src = String::from("SMIS S0, {0}\nQWAIT 500\n0, X90 S0\n");
        for w in &waits {
            src.push_str(&format!("QWAIT {w}\n0, Y S0\n"));
        }
        if measure {
            src.push_str("MEASZ S0\nFMR r1, q0\nQWAIT 40\n");
        }
        src.push_str("STOP");
        let mut program = classical;
        program.extend_from_slice(eqasm_asm::assemble(&src, &inst).unwrap().instructions());
        let mut config = if paper_latency { SimConfig::default() } else { zero_latency() };
        config.seed = seed;
        config.max_classical_cycles = u64::min(budget, config.max_classical_cycles);
        config.noise = eqasm_quantum::NoiseModel::with_coherence(20_000.0, 15_000.0);
        run_matches_stepping(&inst, &config, &program);
    }

    /// The machine's classical pipeline computes exactly what the
    /// reference interpreter computes, for arbitrary straight-line
    /// programs.
    #[test]
    fn classical_pipeline_matches_reference(
        program in prop::collection::vec(arb_classical(), 0..60)
    ) {
        let inst = Instantiation::paper();
        let mut full = program.clone();
        full.push(Instruction::Stop);
        let mut machine = QuMa::new(inst, zero_latency());
        machine.load(&full).unwrap();
        let result = machine.run();
        prop_assert!(result.status.is_halted());

        let (regs, mem) = reference(&program);
        for r in 0..32u8 {
            prop_assert_eq!(
                machine.gpr(Gpr::new(r)),
                regs[r as usize],
                "register r{} diverged", r
            );
        }
        for (a, &word) in mem.iter().enumerate().take(64) {
            prop_assert_eq!(machine.memory_word(a).unwrap(), word, "memory[{}]", a);
        }
        // One instruction per classical cycle: the cycle count is
        // bounded by program length plus the drain margin.
        prop_assert!(result.stats.classical_cycles >= full.len() as u64);
    }

    /// Execution is bit-for-bit deterministic given the seed, even with
    /// measurements in the program.
    #[test]
    fn deterministic_given_seed(seed in any::<u64>(), pre_x in any::<bool>()) {
        let inst = Instantiation::paper_two_qubit();
        let prep = if pre_x { "X90 S0\n" } else { "" };
        let src = format!(
            "SMIS S0, {{0}}\nQWAIT 100\n{prep}MEASZ S0\nQWAIT 50\nMEASZ S0\nQWAIT 50\nSTOP"
        );
        let program = eqasm_asm::assemble(&src, &inst).unwrap();
        let run = |seed: u64| {
            let mut machine = QuMa::new(inst.clone(), zero_latency().with_seed(seed));
            machine.load(program.instructions()).unwrap();
            machine.run();
            machine.trace().measurement_results()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// For arbitrary wait patterns, consecutive executed operations are
    /// separated by exactly the programmed interval (the queue-based
    /// timing model of §3.1).
    #[test]
    fn wait_patterns_trigger_exactly(waits in prop::collection::vec(0u32..200, 1..12)) {
        let inst = Instantiation::paper();
        let mut src = String::from("SMIS S0, {0}\nQWAIT 500\n0, X S0\n");
        for w in &waits {
            src.push_str(&format!("QWAIT {w}\n0, Y S0\n"));
        }
        src.push_str("STOP");
        let program = eqasm_asm::assemble(&src, &inst).unwrap();
        let mut machine = QuMa::new(inst, zero_latency());
        machine.load(program.instructions()).unwrap();
        let result = machine.run();

        // Zero waits merge operations onto one timing point, which is a
        // same-qubit conflict — the machine must fault exactly when a
        // zero interval appears; otherwise timing is exact.
        if waits.contains(&0) {
            prop_assert!(!result.status.is_halted());
        } else {
            prop_assert!(result.status.is_halted());
            let ops = machine.trace().executed_ops();
            prop_assert_eq!(ops.len(), waits.len() + 1);
            for (i, w) in waits.iter().enumerate() {
                let delta = ops[i + 1].0 - ops[i].0;
                prop_assert_eq!(delta, *w as u64 * 2, "interval {} wrong", i);
            }
            prop_assert_eq!(result.stats.timeline_slips, 0);
        }
    }

    /// SOMQ masks: an X on an arbitrary qubit subset flips exactly that
    /// subset.
    #[test]
    fn somq_flips_exactly_the_mask(mask in 1u32..(1 << 7)) {
        let inst = Instantiation::paper();
        let src = format!("SMIS S3, {mask}\nQWAIT 100\n0, X S3\nSTOP");
        let program = eqasm_asm::assemble(&src, &inst).unwrap();
        let mut machine = QuMa::new(inst, zero_latency());
        machine.load(program.instructions()).unwrap();
        prop_assert!(machine.run().status.is_halted());
        for q in 0..7u8 {
            let expected = if mask & (1 << q) != 0 { 1.0 } else { 0.0 };
            let got = machine.prob1(Qubit::new(q));
            prop_assert!((got - expected).abs() < 1e-9, "qubit {} got {}", q, got);
        }
    }
}

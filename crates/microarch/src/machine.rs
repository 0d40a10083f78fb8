//! QuMA v2: the quantum control microarchitecture of Fig. 9.
//!
//! The machine advances in *classical cycles* (100 MHz domain); the
//! timing controller and fast conditional execution unit tick every
//! `classical_per_quantum` classical cycles (the 50 MHz / 20 ns quantum
//! cycle of §4.4). One classical cycle executes at most one instruction,
//! so R_allowed = `classical_per_quantum` instructions per quantum cycle.
//!
//! [`QuMa::step`] advances exactly one classical cycle. [`QuMa::run`]
//! and [`QuMa::run_prefix`] are event-driven on top of it: like the
//! paper's timing controller, which fires operations at queued
//! timestamps and does nothing in between, they jump the clock over
//! cycles in which the classical pipeline cannot issue (it is draining
//! after the program ended, or an `FMR` waits for a result) straight to
//! the next trigger tick, measurement result or write-back. The skipped
//! cycles are counted arithmetically, so results, statistics and traces
//! are identical to single-stepping; a program's idle waits cost
//! nothing, and a forked shot costs what its events cost.
//!
//! Unit mapping to the paper's Fig. 9:
//!
//! | Fig. 9 unit | here |
//! |---|---|
//! | classical pipeline (PC, GPRs, comparison flags) | [`QuMa::issue_classical`] |
//! | timestamp manager | [`QuMa::new_timing_point`] |
//! | VLIW lanes + microcode unit + Q control store | [`QuMa::issue_bundle`] |
//! | quantum microinstruction buffer (mask → OpSel) | `Topology::resolve_*_mask` |
//! | operation combination + device event distributor | per-timestamp queue insert with conflict detection |
//! | timing & event queues + timing controller | [`QuMa::quantum_cycle_tick`] |
//! | fast conditional execution | execution-flag gating at trigger |
//! | measurement discrimination | result scheduling + write-back |
//! | codeword-triggered pulse generation (ADI) | pulse → backend unitary/measurement |

use std::collections::BTreeMap;
use std::sync::Arc;

use eqasm_core::{
    CmpFlags, ExecFlag, ExecFlagRegister, Gpr, Instantiation, Instruction, MeasurementRegister,
    OpArity, OpTarget, PulseKind, QOpcode, Qubit, TwoQubitGate,
};
use eqasm_quantum::{
    gates, Backend, BackendState, CMatrix, DensityBackend, PureBackend, StabilizerBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{MeasurementSource, SimConfig, TimingPolicy};
use crate::error::{Fault, LoadError};
use crate::memo::{Draw, OutcomeTrie, ShotRecord};
use crate::select::{select_backend, BackendSelection, SimBackendKind};
use crate::stats::{RunResult, RunStats, RunStatus};
use crate::trace::{Trace, TraceKind};

/// XORed into a shot's seed to seed its readout stream, so the readout
/// and backend streams differ.
pub(crate) const READOUT_SEED_SALT: u64 = 0x5eed_c0de;

/// The physical effect of one queued device operation.
#[derive(Debug, Clone, PartialEq)]
enum OpEffect {
    /// No physical effect (identity pulses, z markers, …).
    None,
    /// A single-qubit unitary.
    Unitary(CMatrix),
    /// One half of a two-qubit gate; the gate applies when both halves
    /// of the same pair trigger at the same timestamp.
    PairHalf {
        src: Qubit,
        tgt: Qubit,
        gate: TwoQubitGate,
        is_src_half: bool,
    },
    /// Opens a measurement window.
    Measure,
}

/// One device operation awaiting its trigger timestamp.
#[derive(Debug, Clone, PartialEq)]
struct ReadyOp {
    qubit: Qubit,
    /// The operation's opcode; its configured name is looked up only
    /// when a trace records it.
    opcode: QOpcode,
    condition: ExecFlag,
    duration_qc: u32,
    effect: OpEffect,
}

/// A measurement whose window is open; the result lands at `result_cc`.
#[derive(Debug, Clone, PartialEq)]
struct InflightMeasurement {
    qubit: Qubit,
}

/// The FMR stall state of the classical pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stall {
    qubit: Qubit,
    rd: Gpr,
    /// Remaining pipeline-restart penalty once the register is valid.
    release_countdown: Option<u64>,
}

/// A complete capture of a [`QuMa`]'s mutable execution state, taken by
/// [`QuMa::snapshot`] and re-applied by [`QuMa::restore`].
///
/// The snapshot deliberately excludes the RNG streams, the simulator
/// configuration and the loaded program: a snapshot of a deterministic
/// prefix (which by construction consumed no randomness) is therefore
/// seed-independent, and [`QuMa::run_shot_from`] forks bit-identical
/// shots from it by reseeding. Snapshots compare with `==` — the
/// shared-prefix determinism tests pin seed-independence that way.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    pc: usize,
    gprs: Vec<u32>,
    cmp_flags: CmpFlags,
    memory: Arc<Vec<u32>>,
    stall: Option<Stall>,
    stopping: bool,
    halted: bool,
    sregs: Vec<u32>,
    tregs: Vec<u32>,
    point_wall: Option<u64>,
    queue: BTreeMap<u64, Vec<ReadyOp>>,
    queued_qubits: BTreeMap<u64, u128>,
    qregs: Vec<MeasurementRegister>,
    exec_flags: Vec<ExecFlagRegister>,
    results_due: BTreeMap<u64, Vec<(InflightMeasurement, bool, bool)>>,
    writebacks_due: BTreeMap<u64, Vec<(Qubit, bool)>>,
    mock_next: Vec<bool>,
    mock_fixed_idx: usize,
    backend: BackendState,
    idle_since_ns: Vec<f64>,
    busy_until_qc: Vec<u64>,
    clock_cc: u64,
    trace: Trace,
    stats: RunStats,
    fault: Option<Fault>,
}

/// The QuMA v2 machine simulator.
///
/// # Examples
///
/// ```
/// use eqasm_asm::assemble;
/// use eqasm_core::Instantiation;
/// use eqasm_microarch::{QuMa, SimConfig};
///
/// let inst = Instantiation::paper_two_qubit();
/// let program = assemble("SMIS S2, {2}\nQWAIT 100\nX S2\nMEASZ S2\nSTOP", &inst)?;
/// let mut machine = QuMa::new(inst, SimConfig::default());
/// machine.load(program.instructions())?;
/// let result = machine.run();
/// assert!(result.status.is_halted());
/// // The X flipped qubit 2, so the measurement reads |1⟩.
/// assert_eq!(machine.measurement_value(eqasm_core::Qubit::new(2)), Some(true));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct QuMa {
    inst: Instantiation,
    config: SimConfig,
    /// Shared so issue can hold an instruction while mutating the
    /// machine, without cloning it.
    program: Arc<[Instruction]>,

    // ---- classical pipeline ----
    pc: usize,
    gprs: Vec<u32>,
    cmp_flags: CmpFlags,
    /// Data memory, shared copy-on-write with the snapshots taken from
    /// this machine or restored onto it: a fork that never stores
    /// restores it by reference, and `ST` copies it first if shared.
    memory: Arc<Vec<u32>>,
    stall: Option<Stall>,
    stopping: bool,
    halted: bool,

    // ---- quantum pipeline (reserve phase) ----
    sregs: Vec<u32>,
    tregs: Vec<u32>,
    /// The current timing point, in wall quantum cycles; `None` before
    /// the first point is created ("external trigger" alignment,
    /// §3.1.2).
    point_wall: Option<u64>,

    // ---- timing & event queues (deterministic domain) ----
    queue: BTreeMap<u64, Vec<ReadyOp>>,
    queued_qubits: BTreeMap<u64, u128>,

    // ---- measurement unit ----
    qregs: Vec<MeasurementRegister>,
    exec_flags: Vec<ExecFlagRegister>,
    results_due: BTreeMap<u64, Vec<(InflightMeasurement, bool, bool)>>,
    writebacks_due: BTreeMap<u64, Vec<(Qubit, bool)>>,
    mock_next: Vec<bool>,
    mock_fixed_idx: usize,

    // ---- qubit plane ----
    backend: Box<dyn Backend>,
    idle_since_ns: Vec<f64>,
    busy_until_qc: Vec<u64>,
    readout_rng: StdRng,

    // ---- bookkeeping ----
    clock_cc: u64,
    trace: Trace,
    stats: RunStats,
    fault: Option<Fault>,

    // ---- backend selection (see `crate::select`) ----
    selection: BackendSelection,

    // ---- outcome recording for `QuMa::run_shot_memo` ----
    recording: bool,
    draws: Vec<Draw>,
}

impl std::fmt::Debug for QuMa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuMa")
            .field("pc", &self.pc)
            .field("clock_cc", &self.clock_cc)
            .field("halted", &self.halted)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

fn make_backend(num_qubits: usize, config: &SimConfig, kind: SimBackendKind) -> Box<dyn Backend> {
    match kind {
        SimBackendKind::Stabilizer => Box::new(StabilizerBackend::new(
            num_qubits,
            config.noise,
            config.seed,
        )),
        SimBackendKind::Density => {
            Box::new(DensityBackend::new(num_qubits, config.noise, config.seed))
        }
        SimBackendKind::Pure => Box::new(PureBackend::new(num_qubits, config.noise, config.seed)),
    }
}

impl QuMa {
    /// Builds a machine for an instantiation with the given simulator
    /// configuration. The program is loaded separately with
    /// [`QuMa::load`].
    pub fn new(inst: Instantiation, config: SimConfig) -> Self {
        let n = inst.topology().num_qubits();
        let p = inst.params();
        // Selection over the empty program; `load` re-runs it against
        // the real instruction stream (and surfaces any policy error).
        let selection =
            select_backend(&[], &inst, &config).unwrap_or_else(|_| BackendSelection::fallback());
        let backend = make_backend(n, &config, selection.kind());
        let mock_start = match config.measurement_source {
            MeasurementSource::MockAlternating { start } => start,
            _ => false,
        };
        QuMa {
            pc: 0,
            gprs: vec![0; p.num_gprs],
            cmp_flags: CmpFlags::new(),
            memory: Arc::new(vec![0; p.data_memory_words]),
            stall: None,
            stopping: false,
            halted: false,
            sregs: vec![0; p.num_sregs],
            tregs: vec![0; p.num_tregs],
            point_wall: None,
            queue: BTreeMap::new(),
            queued_qubits: BTreeMap::new(),
            qregs: vec![MeasurementRegister::new(); n],
            exec_flags: vec![ExecFlagRegister::new(); n],
            results_due: BTreeMap::new(),
            writebacks_due: BTreeMap::new(),
            mock_next: vec![mock_start; n],
            mock_fixed_idx: 0,
            backend,
            idle_since_ns: vec![0.0; n],
            busy_until_qc: vec![0; n],
            readout_rng: StdRng::seed_from_u64(config.seed ^ READOUT_SEED_SALT),
            clock_cc: 0,
            trace: Trace::new(config.record_trace),
            stats: RunStats::default(),
            fault: None,
            program: Arc::from([]),
            selection,
            recording: false,
            draws: Vec::new(),
            inst,
            config,
        }
    }

    /// Loads (and validates) a program, then resolves the backend
    /// selection for it (see [`crate::select`]). A changed selection
    /// rebuilds the qubit backend; call [`QuMa::reset`] (or run via
    /// [`QuMa::run_shot`]) before executing either way.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] when a bundle is wider than the VLIW width
    /// or references an unconfigured opcode, and
    /// [`LoadError::Config`] when the configured
    /// [`BackendSelect`](crate::BackendSelect) policy cannot be
    /// honoured for this program.
    pub fn load(&mut self, program: &[Instruction]) -> Result<(), LoadError> {
        let w = self.inst.params().vliw_width;
        for (addr, instr) in program.iter().enumerate() {
            if let Instruction::Bundle(b) = instr {
                if b.ops.len() > w {
                    return Err(LoadError::BundleTooWide {
                        addr,
                        ops: b.ops.len(),
                        width: w,
                    });
                }
                for op in &b.ops {
                    if !op.is_qnop() && self.inst.ops().by_opcode(op.opcode).is_err() {
                        return Err(LoadError::UnknownOpcode {
                            addr,
                            opcode: op.opcode.raw(),
                        });
                    }
                }
            }
        }
        let selection = select_backend(program, &self.inst, &self.config)?;
        if selection.kind() != self.selection.kind() {
            let n = self.inst.topology().num_qubits();
            self.backend = make_backend(n, &self.config, selection.kind());
        }
        self.selection = selection;
        self.program = program.into();
        Ok(())
    }

    /// Resets all architectural and simulated-qubit state (keeping the
    /// loaded program) and reseeds the stochastic components.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.config.seed = seed;
        let n = self.inst.topology().num_qubits();
        self.pc = 0;
        self.gprs.iter_mut().for_each(|g| *g = 0);
        self.cmp_flags = CmpFlags::new();
        match Arc::get_mut(&mut self.memory) {
            Some(memory) => memory.fill(0),
            None => self.memory = Arc::new(vec![0; self.memory.len()]),
        }
        self.stall = None;
        self.stopping = false;
        self.halted = false;
        self.sregs.iter_mut().for_each(|m| *m = 0);
        self.tregs.iter_mut().for_each(|m| *m = 0);
        self.point_wall = None;
        self.queue.clear();
        self.queued_qubits.clear();
        self.qregs = vec![MeasurementRegister::new(); n];
        self.exec_flags = vec![ExecFlagRegister::new(); n];
        self.results_due.clear();
        self.writebacks_due.clear();
        let mock_start = match self.config.measurement_source {
            MeasurementSource::MockAlternating { start } => start,
            _ => false,
        };
        self.mock_next = vec![mock_start; n];
        self.mock_fixed_idx = 0;
        self.backend = make_backend(n, &self.config, self.selection.kind());
        self.idle_since_ns = vec![0.0; n];
        self.busy_until_qc = vec![0; n];
        self.readout_rng = StdRng::seed_from_u64(seed ^ READOUT_SEED_SALT);
        self.clock_cc = 0;
        self.trace = Trace::new(self.config.record_trace);
        self.stats = RunStats::default();
        self.fault = None;
    }

    /// Resets with the configured seed.
    pub fn reset(&mut self) {
        self.reset_with_seed(self.config.seed);
    }

    /// Runs one shot: resets all state under `seed` (keeping the
    /// loaded program) and executes to completion. This is the cheap
    /// machine-reuse entry point the shot-execution runtime drives —
    /// the per-shot cost is one reset plus the run itself, with no
    /// re-validation or re-allocation of the program.
    pub fn run_shot(&mut self, seed: u64) -> RunResult {
        self.reset_with_seed(seed);
        self.run()
    }

    // ---------------------------------------------------------------
    // Shared-prefix shot forking (see `crate::select` for the
    // determinism argument)
    // ---------------------------------------------------------------

    /// Captures the complete mutable machine state — every register,
    /// queue, clock, statistic and the qubit backend state — *except*
    /// the RNG streams, the configuration and the loaded program.
    ///
    /// A snapshot taken before any RNG draw is seed-independent, so
    /// [`QuMa::run_shot_from`] can fork per-shot executions from it.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            pc: self.pc,
            gprs: self.gprs.clone(),
            cmp_flags: self.cmp_flags,
            memory: Arc::clone(&self.memory),
            stall: self.stall,
            stopping: self.stopping,
            halted: self.halted,
            sregs: self.sregs.clone(),
            tregs: self.tregs.clone(),
            point_wall: self.point_wall,
            queue: self.queue.clone(),
            queued_qubits: self.queued_qubits.clone(),
            qregs: self.qregs.clone(),
            exec_flags: self.exec_flags.clone(),
            results_due: self.results_due.clone(),
            writebacks_due: self.writebacks_due.clone(),
            mock_next: self.mock_next.clone(),
            mock_fixed_idx: self.mock_fixed_idx,
            backend: self.backend.snapshot(),
            idle_since_ns: self.idle_since_ns.clone(),
            busy_until_qc: self.busy_until_qc.clone(),
            clock_cc: self.clock_cc,
            trace: self.trace.clone(),
            stats: self.stats,
            fault: self.fault.clone(),
        }
    }

    /// Restores state captured by [`QuMa::snapshot`] on this machine.
    /// The RNG streams, configuration and loaded program are left
    /// untouched — [`QuMa::run_shot_from`] reseeds the streams
    /// explicitly.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's backend state kind does not match this
    /// machine's backend (snapshots are only meaningful on the machine
    /// configuration that produced them).
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        self.pc = snapshot.pc;
        self.gprs.clone_from(&snapshot.gprs);
        self.cmp_flags = snapshot.cmp_flags;
        if !Arc::ptr_eq(&self.memory, &snapshot.memory) {
            self.memory = Arc::clone(&snapshot.memory);
        }
        self.stall = snapshot.stall;
        self.stopping = snapshot.stopping;
        self.halted = snapshot.halted;
        self.sregs.clone_from(&snapshot.sregs);
        self.tregs.clone_from(&snapshot.tregs);
        self.point_wall = snapshot.point_wall;
        self.queue.clone_from(&snapshot.queue);
        self.queued_qubits.clone_from(&snapshot.queued_qubits);
        self.qregs.clone_from(&snapshot.qregs);
        self.exec_flags.clone_from(&snapshot.exec_flags);
        self.results_due.clone_from(&snapshot.results_due);
        self.writebacks_due.clone_from(&snapshot.writebacks_due);
        self.mock_next.clone_from(&snapshot.mock_next);
        self.mock_fixed_idx = snapshot.mock_fixed_idx;
        self.backend.restore(&snapshot.backend);
        self.idle_since_ns.clone_from(&snapshot.idle_since_ns);
        self.busy_until_qc.clone_from(&snapshot.busy_until_qc);
        self.clock_cc = snapshot.clock_cc;
        self.trace.clone_from(&snapshot.trace);
        self.stats = snapshot.stats;
        self.fault = snapshot.fault.clone();
    }

    /// Resets under `seed` and executes the deterministic prefix: every
    /// classical cycle strictly before the first cycle whose
    /// quantum-cycle tick would apply a stochastic operation to the
    /// qubit backend, then snapshots.
    ///
    /// The boundary is the first random *draw site*, not the first
    /// stochastic instruction's issue: the classical pipeline runs far
    /// ahead of the quantum timeline (a measurement issues within a few
    /// cycles while its trigger sits behind the program's init wait),
    /// and everything up to the draw itself — issue, timeline drain,
    /// deterministic stalls — is a pure function of (program,
    /// configuration). Stopping at the draw site lets the prefix cover
    /// the expensive timeline simulation, which is the entire point of
    /// forking.
    ///
    /// Like [`QuMa::run`], the prefix skips idle cycles; a skip lands on
    /// the next event's cycle without processing it, so the boundary
    /// is the same cycle single-stepping would stop at.
    ///
    /// The prefix consumes zero RNG draws by construction, so the
    /// returned snapshot is identical for every seed and
    /// [`QuMa::run_shot_from`] forks bit-identical shots from it. A
    /// program with no stochastic operation runs to completion (or
    /// fault / cycle-budget exhaustion) inside the prefix; forking then
    /// reproduces the terminal state exactly, which is still correct.
    ///
    /// Returns `None` when the (program, configuration) pair is not
    /// [prefix-eligible](BackendSelection::prefix_eligible) — callers
    /// must fall back to full [`QuMa::run_shot`] replays.
    pub fn run_prefix(&mut self, seed: u64) -> Option<MachineSnapshot> {
        if !self.selection.prefix_eligible() {
            return None;
        }
        self.reset_with_seed(seed);
        while !self.halted && self.fault.is_none() {
            self.skip_idle_cycles();
            if self.clock_cc >= self.config.max_classical_cycles || self.next_step_draws() {
                break;
            }
            self.step();
        }
        Some(self.snapshot())
    }

    /// Runs one shot forked from a prefix snapshot: restores the
    /// snapshot, reseeds both RNG streams (backend and readout) exactly
    /// as a fresh reset under `seed` would, and executes to completion.
    ///
    /// Because the prefix consumed no randomness, the result is
    /// bit-identical to `run_shot(seed)` with the same loaded program —
    /// the prefix cycles are simply not re-simulated.
    pub fn run_shot_from(&mut self, snapshot: &MachineSnapshot, seed: u64) -> RunResult {
        self.restore(snapshot);
        self.config.seed = seed;
        self.backend.reseed(seed);
        self.readout_rng = StdRng::seed_from_u64(seed ^ READOUT_SEED_SALT);
        self.run()
    }

    /// Runs one forked shot like [`QuMa::run_shot_from`] and returns
    /// its [`ShotRecord`], served from `trie` when the shot's outcome
    /// path is stored there (see [`crate::memo`]).
    ///
    /// A stored path costs two RNG seedings and the path's draws; the
    /// machine is not touched. An unseen path replays the shot with
    /// [`QuMa::run_shot_from`], recording each measurement, and adds
    /// it to `trie` unless the trie is full. A machine whose selection
    /// is not [memo-eligible](BackendSelection::memo_eligible) always
    /// replays. The record is bit-identical to replaying and reading
    /// the machine with [`ShotRecord::capture`] either way; the trace
    /// of a served shot is not produced.
    ///
    /// `trie` must only ever see shots forked from `snapshot` on this
    /// machine's loaded program and configuration.
    pub fn run_shot_memo<'t>(
        &mut self,
        snapshot: &MachineSnapshot,
        trie: &'t mut OutcomeTrie,
        seed: u64,
    ) -> &'t ShotRecord {
        let eligible = self.selection.memo_eligible();
        if let Some(leaf) = eligible.then(|| trie.walk(seed)).flatten() {
            return trie.leaf(leaf);
        }
        self.recording = eligible && !trie.is_full();
        self.draws.clear();
        let result = self.run_shot_from(snapshot, seed);
        trie.scratch_mut().capture(self, result);
        if std::mem::take(&mut self.recording) {
            trie.insert_scratch(&self.draws)
        } else {
            trie.scratch()
        }
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// The instantiation this machine implements.
    pub fn instantiation(&self) -> &Instantiation {
        &self.inst
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The backend selection resolved for the loaded program: the
    /// chosen backend kind, whether the program is Clifford-only, and
    /// the deterministic prefix boundary.
    pub fn selection(&self) -> &BackendSelection {
        &self.selection
    }

    /// Reads a general purpose register.
    pub fn gpr(&self, r: Gpr) -> u32 {
        self.gprs[r.index()]
    }

    /// Reads a data-memory word, if in range.
    pub fn memory_word(&self, addr: usize) -> Option<u32> {
        self.memory.get(addr).copied()
    }

    /// The last finished measurement result of a qubit, if any.
    pub fn measurement_value(&self, q: Qubit) -> Option<bool> {
        self.qregs[q.index()].value()
    }

    /// The execution-flag register of a qubit.
    pub fn exec_flags(&self, q: Qubit) -> ExecFlagRegister {
        self.exec_flags[q.index()]
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Statistics of the current/last run.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The current classical-cycle clock.
    pub fn clock_cc(&self) -> u64 {
        self.clock_cc
    }

    /// The probability of `|1⟩` on a qubit, after flushing pending idle
    /// decay (useful for expectation-value readout in experiment
    /// harnesses).
    pub fn prob1(&mut self, q: Qubit) -> f64 {
        self.flush_idle(q.index());
        self.backend.prob1(q.index())
    }

    /// Read access to the simulated qubit register.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    // ---------------------------------------------------------------
    // Time helpers
    // ---------------------------------------------------------------

    fn ccpq(&self) -> u64 {
        self.config.classical_per_quantum
    }

    fn now_ns(&self) -> f64 {
        self.config.cc_to_ns(self.clock_cc)
    }

    fn wall_qc(&self) -> u64 {
        self.clock_cc / self.ccpq()
    }

    /// Earliest wall timestamp (quantum cycles) a newly issued operation
    /// can still trigger at, given the quantum-pipeline depth.
    fn feasible_qc(&self) -> u64 {
        let decode = self.config.latency.quantum_decode_cc;
        let margin_qc = decode.div_ceil(self.ccpq()).max(1);
        self.wall_qc() + margin_qc
    }

    /// The wall timestamp of the current timing point.
    fn wall_point(&self) -> u64 {
        self.point_wall.unwrap_or(0)
    }

    // ---------------------------------------------------------------
    // The main loop
    // ---------------------------------------------------------------

    /// Runs until the machine halts, faults or exhausts the cycle
    /// budget.
    ///
    /// Event-driven: whenever the classical pipeline cannot issue (it
    /// is draining after the program ended, or an `FMR` waits for a
    /// result) the clock jumps straight to the next cycle where
    /// something can happen, instead of stepping through the idle
    /// cycles one by one. The result, statistics and trace
    /// are identical to calling [`QuMa::step`] until it returns
    /// `false` or the budget runs out.
    pub fn run(&mut self) -> RunResult {
        while !self.halted && self.fault.is_none() {
            self.skip_idle_cycles();
            if self.clock_cc >= self.config.max_classical_cycles {
                return RunResult {
                    status: RunStatus::MaxCycles,
                    stats: self.stats,
                };
            }
            self.step();
        }
        let status = match self.fault.take() {
            Some(f) => RunStatus::Fault(f),
            None => RunStatus::Halted,
        };
        RunResult {
            status,
            stats: self.stats,
        }
    }

    /// Advances the machine by exactly one classical cycle, idle or
    /// not (cycle-exact tracing and tests drive this directly; only
    /// [`QuMa::run`] and [`QuMa::run_prefix`] skip idle cycles).
    /// Returns `false` once halted or faulted.
    pub fn step(&mut self) -> bool {
        if self.halted || self.fault.is_some() {
            return false;
        }
        // 1. Measurement results and write-backs due this cycle.
        self.process_results();
        self.process_writebacks();
        // 2. Timing controller on quantum-cycle boundaries.
        if self.clock_cc.is_multiple_of(self.ccpq()) {
            self.quantum_cycle_tick();
            self.stats.quantum_cycles += 1;
        }
        // 3. Classical pipeline.
        if self.fault.is_none() {
            self.issue_classical();
        }
        // 4. Halt detection: program finished and everything drained.
        if self.stopping
            && self.queue.is_empty()
            && self.results_due.is_empty()
            && self.writebacks_due.is_empty()
            && self.stall.is_none()
        {
            self.halted = true;
            // Final decoherence flush so post-run state inspection sees
            // the full idle time.
            for q in 0..self.inst.topology().num_qubits() {
                self.flush_idle(q);
            }
            self.trace.record(self.clock_cc, TraceKind::Halted);
        }
        self.clock_cc += 1;
        self.stats.classical_cycles = self.clock_cc;
        !self.halted && self.fault.is_none()
    }

    /// Jumps the clock over cycles in which nothing can change but the
    /// cycle counters.
    ///
    /// The classical pipeline cannot issue while it is `stopping` (the
    /// program ended and the machine drains), or while an `FMR` stalls
    /// on an invalid register with no release countdown running. In
    /// either state only an event can change the machine: a queued
    /// operation's trigger tick, a measurement result, or a write-back
    /// (which is also what can make the stalled register valid). So
    /// the clock moves straight to the earliest of those cycles, or to
    /// the cycle budget. The skip lands *on* that cycle without
    /// processing it, and the skipped cycles are counted exactly as
    /// [`QuMa::step`] would have counted them: every quantum-cycle
    /// boundary passed, and a stall cycle each when stalled.
    fn skip_idle_cycles(&mut self) {
        let stalled = self.stall.is_some_and(|s| s.release_countdown.is_none());
        if !self.stopping && !stalled {
            return;
        }
        let drained =
            self.queue.is_empty() && self.results_due.is_empty() && self.writebacks_due.is_empty();
        if self.stopping && self.stall.is_none() && drained {
            // Nothing in flight: the next step halts.
            return;
        }
        let ccpq = self.ccpq();
        let now = self.clock_cc;
        let mut target = self.config.max_classical_cycles;
        if let Some((&ts, _)) = self.queue.first_key_value() {
            target = target.min(ts.saturating_mul(ccpq).max(now.next_multiple_of(ccpq)));
        }
        if let Some((&cc, _)) = self.results_due.first_key_value() {
            target = target.min(cc);
        }
        if let Some((&cc, _)) = self.writebacks_due.first_key_value() {
            target = target.min(cc);
        }
        if target <= now {
            return;
        }
        self.stats.quantum_cycles += target.div_ceil(ccpq) - now.div_ceil(ccpq);
        if !self.stopping {
            self.stats.fmr_stall_cycles += target - now;
        }
        self.clock_cc = target;
        self.stats.classical_cycles = target;
    }

    // ---------------------------------------------------------------
    // Classical pipeline
    // ---------------------------------------------------------------

    fn issue_classical(&mut self) {
        if self.stopping {
            return;
        }
        // FMR stall handling.
        if let Some(mut stall) = self.stall {
            self.stats.fmr_stall_cycles += 1;
            let valid = self.qregs[stall.qubit.index()].is_valid()
                && self.qregs[stall.qubit.index()].value().is_some();
            match (&mut stall.release_countdown, valid) {
                (Some(0), _) => {
                    let value = self.qregs[stall.qubit.index()].value().unwrap_or(false);
                    self.gprs[stall.rd.index()] = value as u32;
                    self.stall = None;
                    self.pc += 1;
                    self.stats.classical_instructions += 1;
                    self.check_pc();
                }
                (Some(n), _) => {
                    *n -= 1;
                    self.stall = Some(stall);
                }
                (None, true) => {
                    stall.release_countdown = Some(self.config.latency.stall_release_cc);
                    self.stall = Some(stall);
                }
                (None, false) => {
                    self.stall = Some(stall);
                }
            }
            return;
        }
        if self.pc >= self.program.len() {
            self.stopping = true;
            return;
        }
        let program = Arc::clone(&self.program);
        let mut next_pc = self.pc + 1;
        match program[self.pc] {
            Instruction::Nop => {
                self.stats.classical_instructions += 1;
            }
            Instruction::Stop => {
                self.stats.classical_instructions += 1;
                self.stopping = true;
            }
            Instruction::Cmp { rs, rt } => {
                self.cmp_flags = CmpFlags::compare(self.gprs[rs.index()], self.gprs[rt.index()]);
                self.stats.classical_instructions += 1;
            }
            Instruction::Br { flag, offset } => {
                if self.cmp_flags.get(flag) {
                    let target = self.pc as i64 + offset as i64;
                    if target < 0 {
                        self.stopping = true;
                    } else {
                        next_pc = target as usize;
                    }
                }
                self.stats.classical_instructions += 1;
            }
            Instruction::Fbr { flag, rd } => {
                self.gprs[rd.index()] = self.cmp_flags.get(flag) as u32;
                self.stats.classical_instructions += 1;
            }
            Instruction::Ldi { rd, imm } => {
                self.gprs[rd.index()] = imm as u32;
                self.stats.classical_instructions += 1;
            }
            Instruction::Ldui { rd, imm, rs } => {
                self.gprs[rd.index()] = ((imm as u32) << 17) | (self.gprs[rs.index()] & 0x1ffff);
                self.stats.classical_instructions += 1;
            }
            Instruction::Ld { rd, rt, imm } => {
                let addr = self.gprs[rt.index()] as i64 + imm as i64;
                match usize::try_from(addr).ok().and_then(|a| self.memory.get(a)) {
                    Some(&v) => self.gprs[rd.index()] = v,
                    None => {
                        self.fault = Some(Fault::MemoryOutOfRange {
                            addr,
                            size: self.memory.len(),
                        });
                        return;
                    }
                }
                self.stats.classical_instructions += 1;
            }
            Instruction::St { rs, rt, imm } => {
                let addr = self.gprs[rt.index()] as i64 + imm as i64;
                let value = self.gprs[rs.index()];
                match usize::try_from(addr)
                    .ok()
                    .filter(|&a| a < self.memory.len())
                {
                    Some(a) => Arc::make_mut(&mut self.memory)[a] = value,
                    None => {
                        self.fault = Some(Fault::MemoryOutOfRange {
                            addr,
                            size: self.memory.len(),
                        });
                        return;
                    }
                }
                self.stats.classical_instructions += 1;
            }
            Instruction::Fmr { rd, qubit } => {
                let reg = &self.qregs[qubit.index()];
                if reg.is_valid() && reg.value().is_some() {
                    self.gprs[rd.index()] = reg.value().unwrap() as u32;
                    self.stats.classical_instructions += 1;
                } else if reg.is_valid() {
                    // No measurement ever issued: reads 0 (power-on).
                    self.gprs[rd.index()] = 0;
                    self.stats.classical_instructions += 1;
                } else {
                    // Invalid: stall until the pending measurement
                    // finishes (§3.6).
                    self.stall = Some(Stall {
                        qubit,
                        rd,
                        release_countdown: None,
                    });
                    return;
                }
            }
            Instruction::And { rd, rs, rt } => {
                self.gprs[rd.index()] = self.gprs[rs.index()] & self.gprs[rt.index()];
                self.stats.classical_instructions += 1;
            }
            Instruction::Or { rd, rs, rt } => {
                self.gprs[rd.index()] = self.gprs[rs.index()] | self.gprs[rt.index()];
                self.stats.classical_instructions += 1;
            }
            Instruction::Xor { rd, rs, rt } => {
                self.gprs[rd.index()] = self.gprs[rs.index()] ^ self.gprs[rt.index()];
                self.stats.classical_instructions += 1;
            }
            Instruction::Not { rd, rt } => {
                self.gprs[rd.index()] = !self.gprs[rt.index()];
                self.stats.classical_instructions += 1;
            }
            Instruction::Add { rd, rs, rt } => {
                self.gprs[rd.index()] = self.gprs[rs.index()].wrapping_add(self.gprs[rt.index()]);
                self.stats.classical_instructions += 1;
            }
            Instruction::Sub { rd, rs, rt } => {
                self.gprs[rd.index()] = self.gprs[rs.index()].wrapping_sub(self.gprs[rt.index()]);
                self.stats.classical_instructions += 1;
            }
            // ---- quantum instructions: forwarded to the quantum
            // pipeline in the same cycle ----
            Instruction::QWait { cycles } => {
                self.stats.quantum_instructions += 1;
                if cycles > 0 {
                    self.new_timing_point(cycles as u64);
                }
            }
            Instruction::QWaitR { rs } => {
                self.stats.quantum_instructions += 1;
                let cycles = self.gprs[rs.index()];
                if cycles > 0 {
                    self.new_timing_point(cycles as u64);
                }
            }
            Instruction::Smis { sd, mask } => {
                self.stats.quantum_instructions += 1;
                self.sregs[sd.index()] = mask;
            }
            Instruction::Smit { td, mask } => {
                self.stats.quantum_instructions += 1;
                self.tregs[td.index()] = mask;
            }
            Instruction::Bundle(ref b) => {
                self.stats.quantum_instructions += 1;
                self.stats.bundle_words += 1;
                self.issue_bundle(b);
            }
        }
        if self.fault.is_none() && self.stall.is_none() {
            self.pc = next_pc;
            self.check_pc();
        }
    }

    fn check_pc(&mut self) {
        if self.pc >= self.program.len() {
            self.stopping = true;
        }
    }

    // ---------------------------------------------------------------
    // Reserve phase (timestamp manager + quantum pipeline)
    // ---------------------------------------------------------------

    /// Creates a new timing point `interval` cycles after the current
    /// one, slipping forward if the reserve phase fell behind the
    /// deterministic domain.
    fn new_timing_point(&mut self, interval: u64) {
        let feasible = self.feasible_qc();
        match self.point_wall {
            None => {
                // First point: align the program timeline with the wall
                // clock ("external trigger"); no slip is counted.
                self.point_wall = Some(interval.max(feasible));
            }
            Some(prev) => {
                let requested = prev + interval;
                if requested < feasible {
                    self.stats.timeline_slips += 1;
                    self.stats.slipped_cycles += feasible - requested;
                    self.trace.record(
                        self.clock_cc,
                        TraceKind::TimelineSlip {
                            requested,
                            actual: feasible,
                        },
                    );
                    if self.config.timing_policy == TimingPolicy::Fault {
                        self.fault = Some(Fault::TimelineSlip {
                            requested,
                            feasible,
                        });
                        return;
                    }
                    // Rebase the timeline on the slipped point so one
                    // stall produces one slip, not a cascade.
                    self.point_wall = Some(feasible);
                } else {
                    self.point_wall = Some(requested);
                }
            }
        }
        self.stats.timing_points += 1;
        self.stats.last_timing_point = self.wall_point();
        self.trace.record(
            self.clock_cc,
            TraceKind::TimingPoint {
                point: self.wall_point(),
            },
        );
    }

    /// Processes one quantum bundle word: PI handling, microcode lookup,
    /// mask resolution, operation combination and event distribution.
    fn issue_bundle(&mut self, b: &eqasm_core::Bundle) {
        if b.pre_interval > 0 {
            self.new_timing_point(b.pre_interval as u64);
            if self.fault.is_some() {
                return;
            }
        } else if self.point_wall.is_none() {
            // A bundle before any timing point: the PI of 0 extends the
            // (implicit) first point.
            self.new_timing_point(0);
        }
        let ts = self.wall_point();
        for op in &b.ops {
            if op.is_qnop() {
                continue;
            }
            let def = self
                .inst
                .ops()
                .by_opcode(op.opcode)
                .expect("validated at load");
            let duration = def.duration_cycles();
            let micro = *def.micro();
            let is_measurement = def.is_measurement();
            match (def.arity(), op.target) {
                (OpArity::SingleQubit, OpTarget::S(s)) => {
                    let mask = self.sregs[s.index()];
                    let qubits = match self.inst.topology().check_single_mask(mask) {
                        Ok(()) => self.inst.topology().qubits_in_mask(mask),
                        Err(e) => {
                            self.fault = Some(Fault::Core(e));
                            return;
                        }
                    };
                    let (cond, pulse) = match micro {
                        eqasm_core::MicroInstruction::Single(m) => {
                            (m.condition(), self.inst.ops().pulse(m.codeword()).cloned())
                        }
                        _ => unreachable!("single-qubit op has single micro"),
                    };
                    for q in qubits {
                        let effect = match pulse {
                            Some(PulseKind::Measure) => OpEffect::Measure,
                            Some(ref p) => match pulse_matrix(p) {
                                Some(u) => OpEffect::Unitary(u),
                                None => OpEffect::None,
                            },
                            None => OpEffect::None,
                        };
                        if is_measurement {
                            // Ci increments at issue time (§4.3).
                            self.qregs[q.index()].on_measurement_issued();
                        }
                        self.enqueue_op(
                            ts,
                            ReadyOp {
                                qubit: q,
                                opcode: op.opcode,
                                condition: cond,
                                duration_qc: duration,
                                effect,
                            },
                        );
                        if self.fault.is_some() {
                            return;
                        }
                    }
                }
                (OpArity::TwoQubit, OpTarget::T(t)) => {
                    let mask = self.tregs[t.index()];
                    let pairs = match self.inst.topology().check_pair_mask(mask) {
                        Ok(()) => self.inst.topology().pairs_in_mask(mask),
                        Err(e) => {
                            self.fault = Some(Fault::Core(e));
                            return;
                        }
                    };
                    let (src_m, tgt_m, gate) = match micro {
                        eqasm_core::MicroInstruction::Pair { src, tgt } => {
                            let gate = match self.inst.ops().pulse(src.codeword()) {
                                Some(PulseKind::TwoQubitSrc(g)) => *g,
                                other => {
                                    unreachable!("two-qubit src pulse expected, got {other:?}")
                                }
                            };
                            (src, tgt, gate)
                        }
                        _ => unreachable!("two-qubit op has pair micro"),
                    };
                    for pair in pairs {
                        for (is_src_half, m, q) in
                            [(true, src_m, pair.source()), (false, tgt_m, pair.target())]
                        {
                            self.enqueue_op(
                                ts,
                                ReadyOp {
                                    qubit: q,
                                    opcode: op.opcode,
                                    condition: m.condition(),
                                    duration_qc: duration,
                                    effect: OpEffect::PairHalf {
                                        src: pair.source(),
                                        tgt: pair.target(),
                                        gate,
                                        is_src_half,
                                    },
                                },
                            );
                            if self.fault.is_some() {
                                return;
                            }
                        }
                    }
                }
                // Load-time validation plus the assembler's arity checks
                // make these unreachable for well-formed programs; a
                // hand-built program with a mismatched target is a
                // silent no-op slot.
                _ => {}
            }
        }
    }

    /// Operation combination + device event distribution: queue one
    /// micro-operation at its trigger timestamp, detecting same-qubit
    /// conflicts (§4.3: "an error is raised, and the quantum processor
    /// stops").
    fn enqueue_op(&mut self, ts: u64, op: ReadyOp) {
        // Late additions to an already-passed point cannot trigger on
        // time; clamp and count (the paper's issue-rate failure mode).
        let feasible = self.feasible_qc();
        let mut ts = ts;
        if ts < feasible {
            // Only possible when ops extend an old point (PI = 0) after
            // the controller moved on.
            self.stats.timeline_slips += 1;
            self.stats.slipped_cycles += feasible - ts;
            self.trace.record(
                self.clock_cc,
                TraceKind::TimelineSlip {
                    requested: ts,
                    actual: feasible,
                },
            );
            if self.config.timing_policy == TimingPolicy::Fault {
                self.fault = Some(Fault::TimelineSlip {
                    requested: ts,
                    feasible,
                });
                return;
            }
            ts = feasible;
        }
        let bit = 1u128 << op.qubit.index();
        let mask = self.queued_qubits.entry(ts).or_insert(0);
        if *mask & bit != 0 {
            self.fault = Some(Fault::QubitConflict {
                qubit: op.qubit,
                point: ts,
            });
            return;
        }
        *mask |= bit;
        self.queue.entry(ts).or_default().push(op);
    }

    // ---------------------------------------------------------------
    // Deterministic domain: timing controller + fast conditional
    // execution + ADI
    // ---------------------------------------------------------------

    /// Whether applying `op` to the backend can consume a random draw
    /// under the current configuration — the dynamic, apply-time mirror
    /// of the classifier's per-instruction stochastic rules
    /// (see `crate::select`).
    fn op_draws(&self, op: &ReadyOp) -> bool {
        let draws = self.selection.draws;
        match op.effect {
            OpEffect::Measure => draws.measure,
            OpEffect::Unitary(_) => draws.gate_1q,
            OpEffect::PairHalf { .. } => draws.gate_2q,
            OpEffect::None => false,
        }
    }

    /// Whether the next [`QuMa::step`] could consume randomness: it
    /// lands on a quantum-cycle boundary whose tick would trigger a due
    /// operation that draws. Conservative for conditional operations —
    /// a due op its execution flag would cancel still counts, which can
    /// only stop a deterministic prefix early, never late.
    fn next_step_draws(&self) -> bool {
        if !self.clock_cc.is_multiple_of(self.ccpq()) {
            return false;
        }
        let now = self.wall_qc();
        self.queue
            .range(..=now)
            .any(|(_, ops)| ops.iter().any(|op| self.op_draws(op)))
    }

    fn quantum_cycle_tick(&mut self) {
        let now = self.wall_qc();
        // Pop every due timestamp (late ones were clamped at insert, so
        // ts < now only appears transiently after slips).
        while let Some(entry) = self.queue.first_entry() {
            if *entry.key() > now {
                break;
            }
            let (ts, ops) = entry.remove_entry();
            self.queued_qubits.remove(&ts);
            self.trigger_ops(ts, ops);
            if self.fault.is_some() {
                return;
            }
        }
    }

    /// The configured name of an opcode, for trace payloads.
    fn op_name(&self, opcode: QOpcode) -> String {
        self.inst
            .ops()
            .by_opcode(opcode)
            .expect("validated at load")
            .name()
            .to_owned()
    }

    fn trigger_ops(&mut self, ts: u64, mut ops: Vec<ReadyOp>) {
        let out_cc = self.clock_cc + self.config.latency.adi_output_cc;
        // Fast conditional execution: evaluate the selected execution
        // flag of each target qubit at trigger time (§3.5, §4.3); the
        // cancelled ops drop out of `ops`.
        ops.retain(|op| {
            let executed = self.exec_flags[op.qubit.index()].get(op.condition);
            if self.trace.is_enabled() {
                let name = self.op_name(op.opcode);
                self.trace.record(
                    out_cc,
                    TraceKind::OpTriggered {
                        qubit: op.qubit,
                        name,
                        condition: op.condition,
                        executed,
                    },
                );
            }
            if executed {
                self.stats.ops_triggered += 1;
                if self.busy_until_qc[op.qubit.index()] > ts {
                    self.stats.busy_overlaps += 1;
                    self.trace
                        .record(self.clock_cc, TraceKind::BusyOverlap { qubit: op.qubit });
                }
                self.busy_until_qc[op.qubit.index()] = ts + op.duration_qc as u64;
            } else {
                self.stats.ops_cancelled += 1;
                if matches!(op.effect, OpEffect::Measure) {
                    // A cancelled measurement never produces a result;
                    // undo the issue-time Ci increment.
                    self.qregs[op.qubit.index()].on_measurement_cancelled();
                }
            }
            executed
        });

        // ADI: apply the physics.
        let mut pair_halves: Vec<(Qubit, Qubit, TwoQubitGate, bool)> = Vec::new();
        for op in ops {
            match op.effect {
                OpEffect::None => {}
                OpEffect::Unitary(u) => {
                    self.flush_idle(op.qubit.index());
                    self.backend.apply_1q(op.qubit.index(), &u);
                }
                OpEffect::Measure => {
                    self.stats.measurements += 1;
                    self.trace.record(
                        self.clock_cc,
                        TraceKind::MeasurementStarted { qubit: op.qubit },
                    );
                    let result_cc = (ts + op.duration_qc as u64) * self.ccpq();
                    let (raw, reported) = self.sample_measurement(op.qubit, result_cc);
                    self.results_due
                        .entry(result_cc.max(self.clock_cc + 1))
                        .or_default()
                        .push((InflightMeasurement { qubit: op.qubit }, raw, reported));
                }
                OpEffect::PairHalf {
                    src,
                    tgt,
                    gate,
                    is_src_half,
                } => {
                    // Pair the two halves released at this timestamp.
                    if let Some(pos) = pair_halves.iter().position(|&(s, t, g, half_src)| {
                        s == src && t == tgt && g == gate && half_src != is_src_half
                    }) {
                        pair_halves.remove(pos);
                        self.flush_idle(src.index());
                        self.flush_idle(tgt.index());
                        self.backend
                            .apply_2q(src.index(), tgt.index(), &two_qubit_matrix(gate));
                        self.stats.two_qubit_gates += 1;
                        if self.trace.is_enabled() {
                            let name = self.op_name(op.opcode);
                            self.trace
                                .record(out_cc, TraceKind::TwoQubitApplied { src, tgt, name });
                        }
                    } else {
                        pair_halves.push((src, tgt, gate, is_src_half));
                    }
                }
            }
        }
        // Unmatched halves (partner cancelled by fast conditional
        // execution) produce no gate — physically, a lone flux pulse
        // detunes one qubit; modelled as identity.
    }

    /// Samples a measurement outcome. The physical collapse happens now
    /// (the window integrates until `result_cc`, but no other operation
    /// may address the qubit during the window anyway); the *result*
    /// becomes architecturally visible at `result_cc`.
    fn sample_measurement(&mut self, q: Qubit, _result_cc: u64) -> (bool, bool) {
        match &self.config.measurement_source {
            MeasurementSource::Quantum => {
                self.flush_idle(q.index());
                let m = self.backend.measure(q.index());
                let readout = self.config.readout;
                let reported = readout.corrupt(m.outcome, &mut self.readout_rng);
                if self.recording {
                    self.draws.push(Draw {
                        qubit: q,
                        p1: m.p1,
                        readout,
                        raw: m.outcome,
                        reported,
                    });
                }
                (m.outcome, reported)
            }
            MeasurementSource::MockAlternating { .. } => {
                let raw = self.mock_next[q.index()];
                self.mock_next[q.index()] = !raw;
                (raw, raw)
            }
            MeasurementSource::MockFixed(list) => {
                let raw = list[self.mock_fixed_idx % list.len()];
                self.mock_fixed_idx += 1;
                (raw, raw)
            }
        }
    }

    fn process_results(&mut self) {
        while let Some(entry) = self.results_due.first_entry() {
            if *entry.key() > self.clock_cc {
                break;
            }
            let (cc, results) = entry.remove_entry();
            for (m, raw, reported) in results {
                self.trace.record(
                    cc,
                    TraceKind::MeasurementResult {
                        qubit: m.qubit,
                        raw,
                        reported,
                    },
                );
                let wb_cc = cc + self.config.latency.result_sync_cc;
                self.writebacks_due
                    .entry(wb_cc.max(self.clock_cc))
                    .or_default()
                    .push((m.qubit, reported));
            }
        }
    }

    fn process_writebacks(&mut self) {
        while let Some(entry) = self.writebacks_due.first_entry() {
            if *entry.key() > self.clock_cc {
                break;
            }
            let (cc, writebacks) = entry.remove_entry();
            for (q, value) in writebacks {
                self.qregs[q.index()].on_result(value);
                self.exec_flags[q.index()].on_result(value);
                self.trace
                    .record(cc, TraceKind::ResultWriteback { qubit: q, value });
            }
        }
    }

    // ---------------------------------------------------------------
    // Qubit-plane helpers
    // ---------------------------------------------------------------

    fn flush_idle(&mut self, q: usize) {
        if self.config.noise.is_ideal() {
            return;
        }
        let now = self.now_ns();
        let dt = now - self.idle_since_ns[q];
        if dt > 0.0 {
            self.backend.idle(q, dt);
        }
        self.idle_since_ns[q] = now;
    }
}

pub(crate) fn pulse_matrix(pulse: &PulseKind) -> Option<CMatrix> {
    match pulse {
        PulseKind::None | PulseKind::Measure => None,
        PulseKind::Rx(t) => Some(gates::rx(*t)),
        PulseKind::Ry(t) => Some(gates::ry(*t)),
        PulseKind::Rz(t) => Some(gates::rz(*t)),
        PulseKind::Hadamard => Some(gates::hadamard()),
        PulseKind::TwoQubitSrc(_) | PulseKind::TwoQubitTgt(_) => None,
    }
}

fn two_qubit_matrix(gate: TwoQubitGate) -> CMatrix {
    match gate {
        TwoQubitGate::Cz => gates::cz(),
        TwoQubitGate::Cnot => gates::cnot(),
        TwoQubitGate::CPhase(t) => gates::cphase(t),
        TwoQubitGate::Swap => gates::swap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendSelect;
    use eqasm_quantum::{NoiseModel, ReadoutModel};

    /// The single-step reference of [`QuMa::run_prefix`]: one `step()`
    /// per cycle, stopping before the first step that could draw.
    fn prefix_stepped(m: &mut QuMa, seed: u64) -> MachineSnapshot {
        m.reset_with_seed(seed);
        while !m.halted
            && m.fault.is_none()
            && m.clock_cc < m.config.max_classical_cycles
            && !m.next_step_draws()
        {
            m.step();
        }
        m.snapshot()
    }

    #[test]
    fn event_driven_prefix_stops_where_single_stepping_does() {
        let inst = Instantiation::paper_two_qubit();
        let noisy = SimConfig::default()
            .with_noise(NoiseModel::with_coherence(20_000.0, 15_000.0).with_gate_error(1e-3, 0.0))
            .with_readout(ReadoutModel::symmetric(0.05));
        let cases = [
            // Density backend: the first draw is the measurement.
            (
                "SMIS S0, {0}\nQWAIT 10000\nX S0\nY S0\nMEASZ S0\nQWAIT 50\nSTOP",
                noisy,
            ),
            // Trajectory backend: the first noisy gate draws.
            (
                "SMIS S0, {0}\nQWAIT 10000\nX S0\nY S0\nMEASZ S0\nQWAIT 50\nSTOP",
                SimConfig::default()
                    .with_noise(NoiseModel::ideal().with_gate_error(1e-3, 0.0))
                    .with_backend(BackendSelect::Pure),
            ),
            // A mock measurement read back by FMR stalls the pipeline
            // inside the prefix; the noisy gate after it is the draw.
            (
                "SMIS S0, {0}\nQWAIT 3000\nMEASZ S0\nFMR r1, q0\nQWAIT 3000\nX S0\nQWAIT 50\nSTOP",
                SimConfig::default()
                    .with_noise(NoiseModel::ideal().with_gate_error(1e-3, 0.0))
                    .with_backend(BackendSelect::Pure)
                    .with_measurement_source(MeasurementSource::MockAlternating { start: true }),
            ),
            // No draw at all: the prefix runs to completion.
            (
                "SMIS S0, {0}\nQWAIT 3000\nX S0\nQWAIT 3000\nSTOP",
                SimConfig::default(),
            ),
        ];
        for (src, config) in cases {
            let program = eqasm_asm::assemble(src, &inst).expect("assembles");
            let mut m = QuMa::new(inst.clone(), config);
            m.load(program.instructions()).expect("loads");
            let fast = m.run_prefix(9).expect("prefix eligible");
            assert_eq!(fast, prefix_stepped(&mut m, 9), "program:\n{src}");
        }
    }
}

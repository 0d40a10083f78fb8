//! Program-aware backend selection: the classifier that replaced the
//! hard-coded `make_backend` branch.
//!
//! At [`QuMa::load`](crate::QuMa::load) the compiled instruction stream
//! is walked once to decide, per [`BackendSelect`] policy, which
//! simulation backend executes the program, and to locate the
//! **deterministic prefix boundary** used by shared-prefix shot
//! forking.
//!
//! ## Classifier rules
//!
//! * A program is **Clifford-only** when every single-qubit pulse
//!   matrix is (up to global phase) one of the 24 Cliffords — rotations
//!   by multiples of π/2 about x/y/z, Hadamard — and every two-qubit
//!   gate is CZ, CNOT, SWAP or a CPhase whose angle is ≡ 0 or π
//!   (mod 2π). Identity pulses and non-physical codewords are neutral.
//! * `Auto` selects the stabilizer tableau only when it is **exact**:
//!   Clifford-only program *and* a fully ideal noise model (no
//!   depolarizing gate error, no finite T1/T2). In that regime every
//!   backend's measurement consumes exactly one RNG draw compared
//!   against an exact `P(1)` ∈ {0, ½, 1}, so switching backends cannot
//!   change a single outcome bit under a fixed seed. Anything else
//!   falls back to the `Dense` rule.
//! * `Dense` reproduces the legacy heuristic: density matrix up to
//!   [`DENSITY_QUBIT_LIMIT`] qubits, state vector beyond.
//! * Forced policies (`Stabilizer`/`Density`/`Pure`) either apply
//!   verbatim or fail loading with a typed
//!   [`ConfigError`] — the silent
//!   density-to-pure downgrade is gone. A forced stabilizer accepts
//!   depolarizing gate error (unravelled as sampled Paulis — exact in
//!   distribution) but rejects finite T1/T2.
//!
//! ## The prefix boundary and why forking is exact
//!
//! An instruction is **stochastic** when executing it can consume a
//! random draw: a measurement under the `Quantum` source (backend
//! sampling + readout corruption), or — on trajectory backends only —
//! a gate bundle whose noise channel samples (non-zero depolarizing
//! error of that arity, or a finite-T1/T2 idle flush). The random draw
//! happens when the queued operation **triggers on the quantum
//! timeline** — typically long after its instruction issues, because
//! the classical pipeline runs far ahead of the timeline (a program's
//! init wait alone keeps the timeline busy for thousands of cycles
//! after the whole instruction stream has issued).
//! [`QuMa::run_prefix`](crate::QuMa::run_prefix) therefore stops just
//! before the first cycle that would *apply* a stochastic operation to
//! the backend, evaluated dynamically against the queue. Every cycle
//! before that point — instruction issue, timing-point bookkeeping,
//! timeline drain, deterministic gate applications, stalls — is a pure
//! function of (program, configuration): it consumes **zero** RNG
//! draws and never reads the seed. Executing that prefix once,
//! snapshotting, and then per shot restoring + reseeding both RNG
//! streams is therefore bit-identical to replaying the shot from reset
//! — a freshly seeded RNG that has never been drawn from is exactly
//! the state a full replay would carry to the same cycle.
//! [`BackendSelection::prefix_boundary`] reports the first stochastic
//! instruction's address statically for observability.
//!
//! Trajectory backends under a finite-T1/T2 model additionally draw
//! during the end-of-run idle flush, with no issuing instruction to
//! anchor the boundary to — those configurations are marked prefix-
//! ineligible ([`BackendSelection::prefix_eligible`]) and always replay
//! from reset.
//!
//! ## Outcome-memoized shots and why they are exact
//!
//! Past the prefix, a shot draws randomness only where an operation
//! the same rules call stochastic applies. When the **measurement is
//! the only such site** — the `Quantum` source on the density matrix
//! (whose noise channels are exact, not sampled), or on a trajectory
//! backend under a fully ideal noise model (no sampled gate error, no
//! idle flush) — each measurement consumes exactly two things: one
//! uniform `f64` from the backend stream compared against the `P(1)`
//! the backend computed ([`eqasm_quantum::Measurement::draw`]), then
//! [`ReadoutModel::corrupt`](eqasm_quantum::ReadoutModel::corrupt)'s
//! conditional draw from the readout stream. Everything else the shot
//! does is a pure function of the program, the configuration and the
//! sequence of (raw, reported) outcomes seen so far: in QuMA v2 results
//! steer the pipeline only through feedback — fast conditional
//! execution and `FMR` into a branch (paper §3.1.2, §4.4) — and both
//! read the reported values, while the qubit state follows the raw
//! ones by collapse. So the next measurement's qubit and `P(1)`, and at
//! the end the shot's status, counters, measured values and final
//! `P(1)` vector, are determined by the outcome path.
//!
//! [`crate::memo::OutcomeTrie`] stores that function as it is
//! discovered: inner nodes hold the next measurement's qubit, its exact
//! `P(1)` and the readout flip probabilities, leaves hold the shot's
//! record. A memoized shot seeds both streams exactly as
//! [`QuMa::run_shot_from`](crate::QuMa::run_shot_from) does and walks
//! the trie drawing the same values in the same order, so it reaches
//! the leaf the replay would have produced, with the same bits. A path
//! the trie has not seen yet replays the shot and records it.
//! [`BackendSelection::memo_eligible`] is the rule above.

use std::f64::consts::PI;
use std::fmt;

use eqasm_core::{Instantiation, Instruction, MicroInstruction, PulseKind, TwoQubitGate};
use eqasm_quantum::Clifford;

use crate::config::{BackendSelect, MeasurementSource, SimConfig};
use crate::error::ConfigError;
use crate::machine::pulse_matrix;

/// Largest register the density-matrix backend accepts (4ⁿ complex
/// amplitudes: 10 qubits ≈ 16 MiB). Beyond it, `Dense`/`Auto` select
/// the state vector and a forced `Density` is a typed
/// [`ConfigError::DensityTooLarge`].
pub const DENSITY_QUBIT_LIMIT: usize = 10;

/// The backend representation actually selected for a loaded program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimBackendKind {
    /// Stabilizer tableau (Clifford-only fast path).
    Stabilizer,
    /// Dense state vector with trajectory noise.
    Pure,
    /// Dense density matrix with exact noise channels.
    Density,
}

impl SimBackendKind {
    /// Stable lowercase name (metric label / logs).
    pub fn as_str(self) -> &'static str {
        match self {
            SimBackendKind::Stabilizer => "stabilizer",
            SimBackendKind::Pure => "pure",
            SimBackendKind::Density => "density",
        }
    }

    /// Whether the backend samples noise along a single trajectory
    /// (rather than evolving the exact mixed state).
    pub fn is_trajectory(self) -> bool {
        matches!(self, SimBackendKind::Stabilizer | SimBackendKind::Pure)
    }
}

impl fmt::Display for SimBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of backend selection for one loaded program: the chosen
/// backend plus the program analysis the shared-prefix fork path needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSelection {
    kind: SimBackendKind,
    clifford_only: bool,
    prefix_eligible: bool,
    memo_eligible: bool,
    first_stochastic: Option<usize>,
    pub(crate) draws: DrawSites,
}

/// Which kinds of applied operation consume a random draw under the
/// selected backend and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DrawSites {
    /// A measurement (the `Quantum` source).
    pub(crate) measure: bool,
    /// A single-qubit gate (sampled gate error or idle flush).
    pub(crate) gate_1q: bool,
    /// A two-qubit gate (sampled gate error or idle flush).
    pub(crate) gate_2q: bool,
}

impl BackendSelection {
    /// The selected backend kind.
    pub fn kind(&self) -> SimBackendKind {
        self.kind
    }

    /// Whether the program is Clifford-only.
    pub fn clifford_only(&self) -> bool {
        self.clifford_only
    }

    /// Whether the shared-prefix fork optimisation is sound for this
    /// (program, configuration) pair — `false` only for trajectory
    /// backends under finite T1/T2, whose end-of-run idle flush draws
    /// without an anchoring instruction.
    pub fn prefix_eligible(&self) -> bool {
        self.prefix_eligible
    }

    /// Whether shots forked from the prefix may be served from an
    /// outcome trie: prefix-eligible, and the measurement is the only
    /// draw site — the `Quantum` measurement source on the density
    /// matrix, or on a trajectory backend under a fully ideal noise
    /// model. See the module docs for why that makes a shot a function
    /// of its outcomes.
    pub fn memo_eligible(&self) -> bool {
        self.memo_eligible
    }

    /// The address of the first stochastic instruction in program
    /// order, or `None` when the whole program is deterministic. This
    /// is the static view for observability; execution finds the
    /// boundary dynamically at the first stochastic backend
    /// *application* (branches, loops and the classical pipeline's
    /// head start over the quantum timeline included).
    pub fn prefix_boundary(&self) -> Option<usize> {
        self.first_stochastic
    }

    /// A neutral selection used by `QuMa::new` when the policy cannot
    /// be honoured even for the empty program (the error re-surfaces,
    /// typed, at `load`).
    pub(crate) fn fallback() -> Self {
        BackendSelection {
            kind: SimBackendKind::Pure,
            clifford_only: false,
            prefix_eligible: false,
            memo_eligible: false,
            first_stochastic: None,
            draws: DrawSites {
                measure: true,
                gate_1q: true,
                gate_2q: true,
            },
        }
    }
}

/// Per-instruction physical footprint, from one walk of the stream.
#[derive(Debug, Clone, Copy, Default)]
struct InstrFlags {
    measure: bool,
    gate_1q: bool,
    gate_2q: bool,
}

fn cphase_is_clifford(theta: f64) -> bool {
    let d = theta.rem_euclid(2.0 * PI);
    d < 1e-9 || (d - PI).abs() < 1e-9 || (2.0 * PI - d) < 1e-9
}

/// Classifies the program and resolves the backend per policy.
pub(crate) fn select_backend(
    program: &[Instruction],
    inst: &Instantiation,
    config: &SimConfig,
) -> Result<BackendSelection, ConfigError> {
    let mut flags = vec![InstrFlags::default(); program.len()];
    let mut first_non_clifford = None;
    for (addr, instr) in program.iter().enumerate() {
        let Instruction::Bundle(b) = instr else {
            continue;
        };
        for op in &b.ops {
            if op.is_qnop() {
                continue;
            }
            // Opcodes are validated before selection runs.
            let def = inst.ops().by_opcode(op.opcode).expect("validated at load");
            if def.is_measurement() {
                flags[addr].measure = true;
            }
            match def.micro() {
                MicroInstruction::Single(m) => match inst.ops().pulse(m.codeword()) {
                    Some(PulseKind::Measure) => flags[addr].measure = true,
                    Some(p) => {
                        if let Some(u) = pulse_matrix(p) {
                            flags[addr].gate_1q = true;
                            if Clifford::from_matrix(&u).is_none() {
                                first_non_clifford.get_or_insert(addr);
                            }
                        }
                    }
                    None => {}
                },
                MicroInstruction::Pair { src, .. } => {
                    if let Some(PulseKind::TwoQubitSrc(gate)) = inst.ops().pulse(src.codeword()) {
                        flags[addr].gate_2q = true;
                        let clifford = match gate {
                            TwoQubitGate::Cz | TwoQubitGate::Cnot | TwoQubitGate::Swap => true,
                            TwoQubitGate::CPhase(t) => cphase_is_clifford(*t),
                        };
                        if !clifford {
                            first_non_clifford.get_or_insert(addr);
                        }
                    }
                }
            }
        }
    }

    let n = inst.topology().num_qubits();
    let noise = &config.noise;
    let clifford_only = first_non_clifford.is_none();
    let idle_channel = noise.has_idle_decay(1.0);
    let dense_kind = if n <= DENSITY_QUBIT_LIMIT {
        SimBackendKind::Density
    } else {
        SimBackendKind::Pure
    };
    let kind = match config.backend {
        BackendSelect::Auto => {
            if clifford_only && noise.is_ideal() {
                SimBackendKind::Stabilizer
            } else {
                dense_kind
            }
        }
        BackendSelect::Dense => dense_kind,
        BackendSelect::Pure => SimBackendKind::Pure,
        BackendSelect::Density => {
            if n > DENSITY_QUBIT_LIMIT {
                return Err(ConfigError::DensityTooLarge {
                    num_qubits: n,
                    limit: DENSITY_QUBIT_LIMIT,
                });
            }
            SimBackendKind::Density
        }
        BackendSelect::Stabilizer => {
            if let Some(addr) = first_non_clifford {
                return Err(ConfigError::StabilizerNonClifford { addr });
            }
            if idle_channel {
                return Err(ConfigError::StabilizerIdleNoise);
            }
            SimBackendKind::Stabilizer
        }
    };

    let trajectory = kind.is_trajectory();
    let draws = DrawSites {
        measure: matches!(config.measurement_source, MeasurementSource::Quantum),
        gate_1q: trajectory && (noise.depol_1q > 0.0 || idle_channel),
        gate_2q: trajectory && (noise.depol_2q > 0.0 || idle_channel),
    };
    let first_stochastic = flags.iter().position(|f| {
        (f.measure && draws.measure) || (f.gate_1q && draws.gate_1q) || (f.gate_2q && draws.gate_2q)
    });
    let prefix_eligible = !(trajectory && idle_channel);
    // The measurement must be the only draw site: no sampled gate, and
    // on a trajectory backend no idle flush, which `is_ideal` rules out
    // for every duration (`idle_channel` tests only a 1 ns idle).
    let memo_eligible = prefix_eligible
        && draws.measure
        && !draws.gate_1q
        && !draws.gate_2q
        && (!trajectory || noise.is_ideal());
    Ok(BackendSelection {
        kind,
        clifford_only,
        prefix_eligible,
        memo_eligible,
        first_stochastic,
        draws,
    })
}

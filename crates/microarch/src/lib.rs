//! # eqasm-microarch — the QuMA v2 control microarchitecture simulator
//!
//! A cycle-accurate simulator of the quantum control microarchitecture
//! that implements the instantiated eQASM (Fig. 9 of the paper): a
//! classical pipeline at 100 MHz, a queue-based timing unit and fast
//! conditional execution at 50 MHz (one 20 ns quantum cycle), a VLIW
//! quantum pipeline with microcode-based decoding, mask-resolved SOMQ
//! execution, comprehensive feedback control (`FMR` stalls on pending
//! measurements) and a codeword-triggered analog-digital interface that
//! drives simulated qubits (`eqasm-quantum`).
//!
//! ## Program-aware execution paths
//!
//! Loading a program resolves a [`BackendSelect`] policy through the
//! classifier in [`select`]: Clifford-only programs under ideal noise
//! run on the stabilizer tableau, everything else on the dense
//! density-matrix/state-vector backends, and forced policies fail with
//! a typed [`ConfigError`] instead of being silently substituted. The
//! same classification locates the **deterministic prefix boundary** —
//! the first instruction whose issue can consume randomness — which
//! [`QuMa::run_prefix`] executes once and snapshots so that
//! [`QuMa::run_shot_from`] forks per-seed shots without re-simulating
//! the prefix (bit-identical to a full replay; see [`select`] for the
//! argument). When the measurement is the program's only draw site,
//! [`QuMa::run_shot_memo`] goes further: a forked shot is a function of
//! its measurement outcomes, so it walks an [`OutcomeTrie`] of the
//! outcome paths earlier shots took and reuses the stored result
//! ([`memo`]).
//!
//! ```
//! use eqasm_asm::assemble;
//! use eqasm_core::{Instantiation, Qubit};
//! use eqasm_microarch::{QuMa, SimConfig};
//!
//! // Fig. 4 of the paper: active qubit reset via fast conditional
//! // execution (C_X executes only when the last result was |1⟩).
//! let inst = Instantiation::paper_two_qubit();
//! let program = assemble(
//!     "SMIS S2, {2}\nQWAIT 10000\nX90 S2\nMEASZ S2\nQWAIT 50\nC_X S2\nMEASZ S2\nQWAIT 50\nSTOP",
//!     &inst,
//! )?;
//! let mut machine = QuMa::new(inst, SimConfig::default().with_seed(1));
//! machine.load(program.instructions())?;
//! let result = machine.run();
//! assert!(result.status.is_halted());
//! // Whatever the first measurement gave, the conditional X resets the
//! // qubit to |0⟩ (readout here is ideal).
//! assert_eq!(machine.measurement_value(Qubit::new(2)), Some(false));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;
mod machine;
pub mod memo;
pub mod select;
mod stats;
mod trace;

pub use config::{BackendSelect, LatencyModel, MeasurementSource, SimConfig, TimingPolicy};
pub use error::{ConfigError, Fault, LoadError};
pub use machine::{MachineSnapshot, QuMa};
pub use memo::{OutcomeTrie, ShotRecord};
pub use select::{BackendSelection, SimBackendKind, DENSITY_QUBIT_LIMIT};
pub use stats::{RunResult, RunStats, RunStatus};
pub use trace::{Trace, TraceEvent, TraceKind};

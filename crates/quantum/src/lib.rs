//! # eqasm-quantum — the qubit-plane substrate
//!
//! The eQASM paper validates its QISA and microarchitecture on real
//! superconducting qubits. This crate is the workspace's substitute for
//! that hardware (see `DESIGN.md`): pure-state and density-matrix
//! simulators with calibrated noise (T1/T2 damping, depolarizing gate
//! error, readout assignment error), a stabilizer-tableau simulator for
//! Clifford-only programs ([`stabilizer`]), the single-qubit Clifford
//! group used by randomized benchmarking, and two-qubit state tomography
//! with maximum-likelihood estimation used by the Grover experiment.
//!
//! The microarchitecture drives qubits exclusively through the
//! [`Backend`] trait, so every experiment exercises the same code paths
//! the paper's analog-digital interface would.
//!
//! ```
//! use eqasm_quantum::{gates, Backend, DensityBackend, NoiseModel};
//!
//! let noise = NoiseModel::with_coherence(30_000.0, 20_000.0);
//! let mut qubits = DensityBackend::new(2, noise, 42);
//! qubits.apply_1q(0, &gates::rx(std::f64::consts::PI));
//! qubits.idle(0, 500.0); // 500 ns of T1/T2 decay
//! assert!(qubits.prob1(0) < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod clifford;
mod complex;
mod density;
pub mod gates;
mod matrix;
pub mod noise;
pub mod stabilizer;
mod statevector;
pub mod tomography;

pub use backend::{Backend, BackendState, DensityBackend, Measurement, PureBackend};
pub use clifford::{Clifford, Primitive, CLIFFORD_COUNT};
pub use complex::C64;
pub use density::DensityMatrix;
pub use matrix::CMatrix;
pub use noise::{NoiseModel, ReadoutModel};
pub use stabilizer::{StabilizerBackend, Tableau};
pub use statevector::StateVector;
pub use tomography::{MeasBasis, TomographyAccumulator};

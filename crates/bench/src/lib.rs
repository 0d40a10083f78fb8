//! # eqasm-bench — experiment harnesses and benchmarks
//!
//! One harness per table/figure of the eQASM paper's evaluation (§4.2
//! and §5), each exercising the full stack: workload generation,
//! compilation, assembly, cycle-accurate execution on QuMA v2 and
//! simulated qubits. The binaries under `src/bin` print the same
//! rows/series the paper reports; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig7_dse` | Fig. 7 instruction counts (configs 1–10, w = 1–4) |
//! | `fig11_allxy` | Fig. 11 two-qubit AllXY staircase |
//! | `fig12_rb` | Fig. 12 RB error vs gate interval |
//! | `active_reset` | §5 active reset (82.7 %) |
//! | `feedback_latency` | §5 latencies (≈ 92 ns / ≈ 316 ns) |
//! | `cfc_check` | §5 CFC X/Y alternation with mock results |
//! | `grover_fidelity` | §5 Grover + tomography (85.6 %) |
//! | `rabi` | §5 Rabi calibration sweep |
//! | `issue_rate` | §1.2 issue-rate comparison vs QuMIS style |
//! | `throughput` | `BENCH_runtime.json`, its `capacity` section from the [`loadgen`] sweep |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod fit;
pub mod loadgen;

//! Declarative workload specifications and the mixed-workload driver.
//!
//! A [`WorkloadSpec`] names a program generator from `eqasm-workloads`
//! plus shot count, weight and seed; a [`MixedWorkload`] interleaves
//! several specs into one job stream — the service-shaped "many
//! tenants hammering one control stack" scenario — and reports
//! per-workload and aggregate statistics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eqasm_asm::assemble;
use eqasm_core::{Instantiation, Instruction, Qubit};
use eqasm_microarch::{RunStats, SimConfig};
use eqasm_workloads as workloads;

use crate::aggregate::{Histogram, JobResult, LatencyHistogram};
use crate::backend::widen;
use crate::engine::ShotEngine;
use crate::error::RuntimeError;
use crate::job::{Job, JobShape};

/// Which generator from `eqasm-workloads` produces a spec's program.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// The §5 Rabi calibration point: a user-configured `X_AMP_i`
    /// pulse followed by a measurement, on the two-qubit chip.
    Rabi {
        /// The swept amplitudes configuring the instantiation.
        amplitudes: Vec<f64>,
        /// Which amplitude this spec drives.
        amplitude_index: usize,
    },
    /// One round of the Fig. 11 two-qubit AllXY experiment.
    AllXy {
        /// Round index, `0..42`.
        round: usize,
        /// Initialisation idle before the pair, in cycles.
        init_cycles: u32,
    },
    /// A Fig. 12-style randomized-benchmarking sequence on a
    /// one-qubit chip, ending in a measurement.
    Rb {
        /// Number of Cliffords before the recovery gate.
        k: usize,
        /// Interval between gate starting points, in cycles.
        interval_cycles: u32,
        /// Seed selecting the random sequence.
        sequence_seed: u64,
    },
    /// The Fig. 4 active qubit reset (measure, conditional `C_X`,
    /// measure) on the two-qubit chip.
    ActiveReset {
        /// Initialisation idle, in cycles.
        init_cycles: u32,
    },
    /// A Clifford-only brick-wall circuit on a linear chain of
    /// `qubits` qubits: per layer, `H` on every qubit then `CZ` on
    /// the even-offset and odd-offset neighbour pairs, ending in a
    /// full measurement. Every gate is Clifford, so program-aware
    /// selection routes it to the stabilizer backend — the workload
    /// that scales *past* the 10-qubit dense ceiling.
    CliffordChain {
        /// Chain length, `2..=17`: a chain of `n` qubits has `2(n−1)`
        /// directed pairs, and they must fit the 32-bit two-qubit
        /// target mask.
        qubits: usize,
        /// Brick-wall layers, `1..=16`.
        layers: u32,
    },
    /// Arbitrary eQASM source assembled against the paper's surface-7
    /// instantiation.
    Source {
        /// The program text.
        text: String,
    },
}

impl WorkloadKind {
    /// Builds the instantiation and program this kind describes.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spec`] for out-of-range sweep indices
    /// and propagates generator failures.
    pub fn build(&self) -> Result<(Instantiation, Vec<Instruction>), RuntimeError> {
        match self {
            WorkloadKind::Rabi {
                amplitudes,
                amplitude_index,
            } => {
                if *amplitude_index >= amplitudes.len() {
                    return Err(RuntimeError::Spec(format!(
                        "rabi amplitude index {amplitude_index} out of range (have {})",
                        amplitudes.len()
                    )));
                }
                let inst =
                    workloads::rabi_instantiation(&Instantiation::paper_two_qubit(), amplitudes);
                let program = workloads::rabi_program(&inst, Qubit::new(0), *amplitude_index)?;
                Ok((inst, program))
            }
            WorkloadKind::AllXy { round, init_cycles } => {
                if *round >= 42 {
                    return Err(RuntimeError::Spec(format!(
                        "allxy round {round} out of range (0..42)"
                    )));
                }
                let inst = Instantiation::paper_two_qubit();
                let (pa, pb) = workloads::two_qubit_round(*round);
                let program = workloads::allxy_program_with_init(
                    &inst,
                    Qubit::new(0),
                    Qubit::new(2),
                    pa,
                    pb,
                    *init_cycles,
                )?;
                Ok((inst, program))
            }
            WorkloadKind::Rb {
                k,
                interval_cycles,
                sequence_seed,
            } => {
                let inst = Instantiation::paper().with_topology(eqasm_core::Topology::linear(1));
                let (program, _) = workloads::rb_program(
                    &inst,
                    Qubit::new(0),
                    *k,
                    *interval_cycles,
                    *sequence_seed,
                )?;
                Ok((inst, program))
            }
            WorkloadKind::ActiveReset { init_cycles } => {
                let inst = Instantiation::paper_two_qubit();
                let src = format!(
                    "SMIS S2, {{2}}\nQWAIT {init_cycles}\nX90 S2\nMEASZ S2\nQWAIT 50\nC_X S2\nMEASZ S2\nQWAIT 50\nSTOP"
                );
                let program = assemble(&src, &inst)?;
                Ok((inst, program.instructions().to_vec()))
            }
            WorkloadKind::CliffordChain { qubits, layers } => {
                let n = *qubits;
                check_clifford_chain(n, *layers)?;
                let inst = Instantiation::paper().with_topology(eqasm_core::Topology::linear(n));
                let all: Vec<String> = (0..n).map(|q| q.to_string()).collect();
                let pairs = |offset: usize| -> Vec<String> {
                    (offset..n - 1)
                        .step_by(2)
                        .map(|i| format!("({i}, {})", i + 1))
                        .collect()
                };
                let even = pairs(0);
                let odd = pairs(1);
                let mut src = format!("SMIS S0, {{{}}}\n", all.join(", "));
                src.push_str(&format!("SMIT T0, {{{}}}\n", even.join(", ")));
                if !odd.is_empty() {
                    src.push_str(&format!("SMIT T1, {{{}}}\n", odd.join(", ")));
                }
                src.push_str("QWAIT 100\n");
                for _ in 0..*layers {
                    src.push_str("H S0\nCZ T0\n");
                    if !odd.is_empty() {
                        src.push_str("CZ T1\n");
                    }
                    src.push_str("QWAIT 10\n");
                }
                src.push_str("MEASZ S0\nQWAIT 50\nSTOP");
                let program = assemble(&src, &inst)?;
                Ok((inst, program.instructions().to_vec()))
            }
            WorkloadKind::Source { text } => {
                let inst = Instantiation::paper();
                let program = assemble(text, &inst)?;
                Ok((inst, program.instructions().to_vec()))
            }
        }
    }
}

/// One named workload inside a mix.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Report name.
    pub name: String,
    /// The program generator.
    pub kind: WorkloadKind,
    /// Shots per job instance.
    pub shots: u64,
    /// How many job instances of this spec enter the interleaved
    /// stream (relative traffic share).
    pub weight: u32,
    /// Base seed of the first instance; instance `i` starts at
    /// `base_seed + i * shots` so shot seeds never collide. All seed
    /// arithmetic wraps modulo 2⁶⁴ — an adversarial `base_seed` near
    /// `u64::MAX` shifts which seeds are used but can never panic
    /// (debug) or silently collide more than the modular layout
    /// implies (release).
    pub base_seed: u64,
    /// Simulator configuration for every instance.
    pub config: SimConfig,
}

impl WorkloadSpec {
    /// A spec with weight 1, default configuration and seed 0.
    pub fn new(name: impl Into<String>, kind: WorkloadKind, shots: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            kind,
            shots,
            weight: 1,
            base_seed: 0,
            config: SimConfig::default(),
        }
    }

    /// Returns the spec with the given traffic weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Returns the spec with the given base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Returns the spec with the given simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the job for instance `instance` of this spec.
    ///
    /// # Errors
    ///
    /// Propagates generator failures; rejects zero-weight specs.
    pub fn build_instance(&self, instance: u32) -> Result<Job, RuntimeError> {
        self.instance_of_shape(instance, &self.build_shape()?)
    }

    /// Builds the job for instance `instance` from an already-built
    /// `(instantiation, program)` pair, under this spec's
    /// configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero-weight specs (a silent drop would remove that
    /// tenant's traffic without any signal).
    pub fn instance_with_program(
        &self,
        instance: u32,
        inst: Instantiation,
        program: Vec<Instruction>,
    ) -> Result<Job, RuntimeError> {
        let shape = Arc::new(JobShape::new(inst, program, self.config.clone()));
        self.instance_of_shape(instance, &shape)
    }

    /// Builds the shape every instance of this spec runs.
    pub(crate) fn build_shape(&self) -> Result<Arc<JobShape>, RuntimeError> {
        let (inst, program) = self.kind.build()?;
        Ok(Arc::new(JobShape::new(inst, program, self.config.clone())))
    }

    /// Stamps instance `instance` of this spec onto `shape`, which it
    /// shares with every other instance.
    pub(crate) fn instance_of_shape(
        &self,
        instance: u32,
        shape: &Arc<JobShape>,
    ) -> Result<Job, RuntimeError> {
        if self.weight == 0 {
            return Err(RuntimeError::Spec(format!(
                "workload `{}` has weight 0",
                self.name
            )));
        }
        Ok(Job {
            name: format!("{}#{}", self.name, instance),
            shape: Arc::clone(shape),
            shots: self.shots,
            // Wrapping on both the stride multiply and the add: for a
            // base seed near u64::MAX the unchecked forms panic in
            // debug and wrap inconsistently in release.
            base_seed: self
                .base_seed
                .wrapping_add((instance as u64).wrapping_mul(self.shots)),
        })
    }
}

/// The `CliffordChain` envelope, shared by [`WorkloadKind::build`] and
/// the wire decoder: `2..=17` qubits, `1..=16` layers.
pub(crate) fn check_clifford_chain(qubits: usize, layers: u32) -> Result<(), RuntimeError> {
    if !(2..=17).contains(&qubits) {
        return Err(RuntimeError::Spec(format!(
            "clifford chain qubits {qubits} out of range (2..=17)"
        )));
    }
    if !(1..=16).contains(&layers) {
        return Err(RuntimeError::Spec(format!(
            "clifford chain layers {layers} out of range (1..=16)"
        )));
    }
    Ok(())
}

/// Aggregated figures for one workload of a mix (or the whole mix).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The spec's name (or `"aggregate"`).
    pub name: String,
    /// Job instances that contributed.
    pub jobs: u64,
    /// Total shots across instances.
    pub shots: u64,
    /// Merged outcome histogram.
    pub histogram: Histogram,
    /// Machine counters summed over every shot.
    pub stats: RunStats,
    /// Per-shot latencies over every shot.
    pub latency: LatencyHistogram,
    /// The workload's active wall-clock span: from its earliest batch
    /// starting to its last batch finishing, across all contributing
    /// job instances.
    pub elapsed: Duration,
    /// `shots / elapsed` over the active span. In a mix the pool is
    /// shared, so this is attained throughput under the mixed load,
    /// not the workload's throughput in isolation.
    pub shots_per_sec: f64,
    /// Shots that did not halt cleanly.
    pub non_halted: u64,
}

impl WorkloadReport {
    fn empty(name: impl Into<String>) -> Self {
        WorkloadReport {
            name: name.into(),
            jobs: 0,
            shots: 0,
            histogram: Histogram::new(),
            stats: RunStats::default(),
            latency: LatencyHistogram::new(),
            elapsed: Duration::ZERO,
            shots_per_sec: 0.0,
            non_halted: 0,
        }
    }

    /// Folds one job in; `window` accumulates the absolute active span.
    fn absorb(&mut self, result: &JobResult, window: &mut Option<(Instant, Instant)>) {
        self.jobs += 1;
        self.shots += result.shots;
        self.histogram.merge(&result.histogram);
        self.stats.merge(&result.stats);
        self.latency.merge(&result.latency);
        self.non_halted += result.non_halted;
        if let Some(span) = result.window {
            widen(window, span);
        }
    }

    fn finalize(&mut self, window: Option<(Instant, Instant)>) {
        if let Some((start, finish)) = window {
            self.elapsed = finish.duration_since(start);
        }
        let secs = self.elapsed.as_secs_f64();
        self.shots_per_sec = if secs > 0.0 {
            self.shots as f64 / secs
        } else {
            0.0
        };
    }
}

/// The outcome of driving a [`MixedWorkload`].
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// One report per spec, in spec order.
    pub per_workload: Vec<WorkloadReport>,
    /// The roll-up across every spec.
    pub aggregate: WorkloadReport,
}

/// Several workload specs interleaved into one job stream.
#[derive(Debug, Clone, Default)]
pub struct MixedWorkload {
    /// The specs, in report order.
    pub specs: Vec<WorkloadSpec>,
}

impl MixedWorkload {
    /// An empty mix.
    pub fn new() -> Self {
        MixedWorkload::default()
    }

    /// Adds a spec to the mix.
    pub fn push(mut self, spec: WorkloadSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Expands the mix into its interleaved job stream: one round-robin
    /// pass per weight step, so a weight-3 spec contributes three jobs
    /// spread across the stream rather than clumped together. Each
    /// spec's program is built once, and its jobs share one shape.
    ///
    /// # Errors
    ///
    /// Propagates spec/build failures; rejects weight-0 specs (a
    /// silent drop would remove that tenant's traffic from the
    /// experiment without any signal).
    pub fn jobs(&self) -> Result<Vec<(usize, Job)>, RuntimeError> {
        if let Some(zero) = self.specs.iter().find(|s| s.weight == 0) {
            return Err(RuntimeError::Spec(format!(
                "workload `{}` has weight 0",
                zero.name
            )));
        }
        let shapes = self
            .specs
            .iter()
            .map(WorkloadSpec::build_shape)
            .collect::<Result<Vec<_>, _>>()?;
        let mut out = Vec::new();
        let max_weight = self.specs.iter().map(|s| s.weight).max().unwrap_or(0);
        for round in 0..max_weight {
            for (idx, (spec, shape)) in self.specs.iter().zip(&shapes).enumerate() {
                if round < spec.weight {
                    out.push((idx, spec.instance_of_shape(round, shape)?));
                }
            }
        }
        Ok(out)
    }

    /// Runs the whole mix on `engine` and aggregates per-workload and
    /// overall statistics.
    ///
    /// # Errors
    ///
    /// Propagates spec/build and program-load failures.
    pub fn run(&self, engine: &ShotEngine) -> Result<MixedReport, RuntimeError> {
        // Split the tags from the jobs by move — no job (program +
        // instantiation) is cloned on the way to the engine.
        let (tags, jobs): (Vec<usize>, Vec<Job>) = self.jobs()?.into_iter().unzip();
        let results = engine.run_jobs(&jobs)?;

        let mut per_workload: Vec<WorkloadReport> = self
            .specs
            .iter()
            .map(|s| WorkloadReport::empty(s.name.clone()))
            .collect();
        let mut per_window = vec![None; self.specs.len()];
        let mut aggregate = WorkloadReport::empty("aggregate");
        let mut all_window = None;

        for (spec_idx, result) in tags.iter().zip(&results) {
            per_workload[*spec_idx].absorb(result, &mut per_window[*spec_idx]);
            aggregate.absorb(result, &mut all_window);
        }
        for (report, window) in per_workload.iter_mut().zip(per_window) {
            report.finalize(window);
        }
        aggregate.finalize(all_window);

        Ok(MixedReport {
            per_workload,
            aggregate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_respects_weights() {
        let mix = MixedWorkload::new()
            .push(
                WorkloadSpec::new(
                    "rb",
                    WorkloadKind::Rb {
                        k: 2,
                        interval_cycles: 1,
                        sequence_seed: 1,
                    },
                    4,
                )
                .with_weight(3),
            )
            .push(WorkloadSpec::new(
                "reset",
                WorkloadKind::ActiveReset { init_cycles: 100 },
                4,
            ));
        let jobs = mix.jobs().unwrap();
        let names: Vec<&str> = jobs.iter().map(|(_, j)| j.name.as_str()).collect();
        assert_eq!(names, ["rb#0", "reset#0", "rb#1", "rb#2"]);
        // Seeds of consecutive instances never overlap.
        assert_eq!(jobs[0].1.base_seed, 0);
        assert_eq!(jobs[2].1.base_seed, 4);
        assert_eq!(jobs[3].1.base_seed, 8);
    }

    #[test]
    fn a_specs_instances_share_one_shape() {
        let mix = MixedWorkload::new()
            .push(
                WorkloadSpec::new("reset", WorkloadKind::ActiveReset { init_cycles: 100 }, 4)
                    .with_weight(4),
            )
            .push(WorkloadSpec::new(
                "allxy",
                WorkloadKind::AllXy {
                    round: 3,
                    init_cycles: 10,
                },
                4,
            ));
        let jobs = mix.jobs().unwrap();
        let shapes = |tag: usize| -> Vec<&Arc<JobShape>> {
            jobs.iter()
                .filter(|(t, _)| *t == tag)
                .map(|(_, j)| &j.shape)
                .collect()
        };
        let reset = shapes(0);
        assert_eq!(reset.len(), 4);
        assert!(reset.iter().all(|s| Arc::ptr_eq(s, reset[0])));
        assert!(!Arc::ptr_eq(shapes(1)[0], reset[0]));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let spec = WorkloadSpec::new(
            "bad",
            WorkloadKind::AllXy {
                round: 99,
                init_cycles: 10,
            },
            1,
        );
        assert!(spec.build_instance(0).is_err());
        let zero = WorkloadSpec::new("zero", WorkloadKind::ActiveReset { init_cycles: 10 }, 1)
            .with_weight(0);
        assert!(zero.build_instance(0).is_err());
    }

    #[test]
    fn instance_seeding_wraps_at_u64_max() {
        // An adversarial base seed near u64::MAX must not panic the
        // instance-stride arithmetic; it wraps modulo 2⁶⁴.
        let spec = WorkloadSpec::new("edge", WorkloadKind::ActiveReset { init_cycles: 10 }, 1000)
            .with_weight(4)
            .with_seed(u64::MAX - 1);
        let j0 = spec.build_instance(0).unwrap();
        let j3 = spec.build_instance(3).unwrap();
        assert_eq!(j0.base_seed, u64::MAX - 1);
        assert_eq!(j3.base_seed, (u64::MAX - 1).wrapping_add(3000));
        // The per-shot seeds derived from the wrapped base also wrap.
        assert_eq!(j0.shot_seed(1), u64::MAX);
        assert_eq!(j0.shot_seed(2), 0);
    }

    #[test]
    fn mixed_run_reports_per_workload_and_aggregate() {
        let mix = MixedWorkload::new()
            .push(WorkloadSpec::new(
                "reset",
                WorkloadKind::ActiveReset { init_cycles: 50 },
                16,
            ))
            .push(
                WorkloadSpec::new(
                    "rb",
                    WorkloadKind::Rb {
                        k: 3,
                        interval_cycles: 1,
                        sequence_seed: 5,
                    },
                    8,
                )
                .with_weight(2),
            );
        let report = mix.run(&ShotEngine::new(2)).unwrap();
        assert_eq!(report.per_workload.len(), 2);
        assert_eq!(report.per_workload[0].shots, 16);
        assert_eq!(report.per_workload[0].jobs, 1);
        assert_eq!(report.per_workload[1].shots, 16);
        assert_eq!(report.per_workload[1].jobs, 2);
        assert_eq!(report.aggregate.shots, 32);
        assert_eq!(report.aggregate.non_halted, 0);
        assert!(report.aggregate.stats.measurements > 0);
    }
}

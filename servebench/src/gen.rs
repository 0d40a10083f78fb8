//! Seeded input generation: the shape catalogue and the job streams of
//! the workloads.
//!
//! Everything the coordinator sees — job seeds, shot counts, shape
//! order and tenants — is a pure function of the `--seed` argument,
//! drawn from independent SplitMix64 streams so one stream's draws
//! never shift another's.

use std::sync::Arc;

use eqasm_compiler::{emit, EmitOptions, Gate, GateKind, Schedule, TimedGate};
use eqasm_core::{Instantiation, Instruction, Qubit, Topology};
use eqasm_microarch::SimConfig;
use eqasm_quantum::{Clifford, NoiseModel, ReadoutModel};
use eqasm_runtime::{Job, RuntimeError, Submission, WorkloadKind, WorkloadSpec};

/// The seed the benchmark records as its default.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream `stream` of workload seed `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut root = SplitMix64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream + 1));
        SplitMix64(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How a shape's program is produced.
#[derive(Debug, Clone)]
pub enum Program {
    /// A server-side workload kind: submitted as a `WorkloadSpec` and
    /// expanded through the coordinator's program cache.
    Kind(WorkloadKind),
    /// Ideal 3-qubit Clifford RB (`k` Cliffords plus recovery per
    /// qubit, then a full measurement), built client-side and
    /// submitted as a prebuilt `Job`.
    Rb3q { k: usize, sequence_seed: u64 },
}

/// One program shape: a name, a program and a simulator configuration.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub program: Program,
    pub config: SimConfig,
}

impl Shape {
    /// Builds the instantiation and program (the work `asm.build_us`
    /// times).
    pub fn build(&self) -> Result<(Instantiation, Vec<Instruction>), RuntimeError> {
        match &self.program {
            Program::Kind(kind) => kind.build(),
            Program::Rb3q { k, sequence_seed } => rb3q_program(*k, *sequence_seed),
        }
    }

    /// Whether every gate is Clifford and the noise ideal, so `Auto`
    /// selection routes it to the stabilizer backend.
    pub fn clifford_route(&self) -> bool {
        matches!(
            self.program,
            Program::Rb3q { .. } | Program::Kind(WorkloadKind::CliffordChain { .. })
        )
    }
}

/// The 1-qubit noisy RB configuration of Fig. 12: T1 = T2 = 25 µs,
/// 9e-4 single-qubit gate error and 5% readout error.
fn noisy_rb_config() -> SimConfig {
    SimConfig::default()
        .with_noise(NoiseModel::with_coherence(25_000.0, 25_000.0).with_gate_error(0.0009, 0.0))
        .with_readout(ReadoutModel::symmetric(0.05))
}

/// AllXY calibration: ideal gates, 5% readout error.
fn calibration_config() -> SimConfig {
    SimConfig::default().with_readout(ReadoutModel::symmetric(0.05))
}

fn rb1q(name: &'static str, sequence_seed: u64) -> Shape {
    Shape {
        name,
        program: Program::Kind(WorkloadKind::Rb {
            k: 24,
            interval_cycles: 1,
            sequence_seed,
        }),
        config: noisy_rb_config(),
    }
}

fn allxy(name: &'static str, round: usize) -> Shape {
    Shape {
        name,
        program: Program::Kind(WorkloadKind::AllXy {
            round,
            init_cycles: 100,
        }),
        config: calibration_config(),
    }
}

/// Every shape any workload uses, in a fixed order (indices into this
/// list identify shapes everywhere else).
pub fn catalogue() -> Vec<Shape> {
    vec![
        rb1q("rb1q-noisy", 1),
        rb1q("rb1q-noisy-s2", 2),
        rb1q("rb1q-noisy-s3", 3),
        rb1q("rb1q-noisy-s4", 4),
        Shape {
            name: "rb3q-clifford",
            program: Program::Rb3q {
                k: 64,
                sequence_seed: 7,
            },
            config: SimConfig::default(),
        },
        Shape {
            name: "chain16x8",
            program: Program::Kind(WorkloadKind::CliffordChain {
                qubits: 16,
                layers: 8,
            }),
            config: SimConfig::default(),
        },
        allxy("allxy-r3", 3),
        allxy("allxy-r21", 21),
        allxy("allxy-r30", 30),
        allxy("allxy-r38", 38),
    ]
}

/// Index of a shape by name in [`catalogue`].
pub fn shape_index(shapes: &[Shape], name: &str) -> usize {
    shapes
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("shape `{name}` is not in the catalogue"))
}

/// Builds the 3-qubit Clifford RB program: per qubit, `k` random
/// Cliffords plus the recovery Clifford, back to back, then a
/// measurement of all three qubits. Ideal noise returns `|000⟩`.
fn rb3q_program(
    k: usize,
    sequence_seed: u64,
) -> Result<(Instantiation, Vec<Instruction>), RuntimeError> {
    let inst = Instantiation::paper().with_topology(Topology::linear(3));
    let mut rng = SplitMix64::stream(sequence_seed, 0);
    let mut ops = Vec::new();
    let mut end = 0u64;
    for q in 0..3u8 {
        let mut total = Clifford::identity();
        let mut seq = Vec::with_capacity(k + 1);
        for _ in 0..k {
            let c = Clifford::from_index(rng.range(0, 23) as usize).expect("24 Cliffords");
            total = total.compose(c);
            seq.push(c);
        }
        seq.push(total.inverse());
        let mut t = 0u64;
        for c in seq {
            for p in c.decomposition() {
                ops.push(TimedGate {
                    start: t,
                    duration: 1,
                    gate: Gate {
                        name: p.op_name().to_owned(),
                        kind: GateKind::Single {
                            qubit: Qubit::new(q),
                        },
                    },
                });
                t += 1;
            }
        }
        end = end.max(t);
    }
    for q in 0..3u8 {
        ops.push(TimedGate {
            start: end,
            duration: 15,
            gate: Gate {
                name: "MEASZ".to_owned(),
                kind: GateKind::Measure {
                    qubit: Qubit::new(q),
                },
            },
        });
    }
    let schedule = Schedule::from_timed(3, ops);
    let program = emit(&schedule, &inst, &EmitOptions::experiment())
        .map_err(|e| RuntimeError::Spec(format!("rb3q emission failed: {e}")))?;
    Ok((inst, program))
}

/// Everything needed to submit one job and to rebuild it for
/// verification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index into the shape catalogue.
    pub shape: usize,
    /// Unique job name as the coordinator reports it.
    pub name: String,
    pub tenant: &'static str,
    pub shots: u64,
    pub seed: u64,
}

/// An assembled program and the instantiation it targets.
pub type Built = Arc<(Instantiation, Vec<Instruction>)>;

/// Built programs, one per catalogue shape, shared by submission (for
/// prebuilt jobs) and verification.
#[derive(Clone)]
pub struct Builds {
    built: Vec<Option<Built>>,
}

impl Builds {
    pub fn new(shapes: &[Shape]) -> Self {
        Builds {
            built: vec![None; shapes.len()],
        }
    }

    pub fn get(&mut self, shapes: &[Shape], shape: usize) -> Result<Built, RuntimeError> {
        if let Some(b) = &self.built[shape] {
            return Ok(Arc::clone(b));
        }
        let b = Arc::new(shapes[shape].build()?);
        self.built[shape] = Some(Arc::clone(&b));
        Ok(b)
    }
}

/// The spec name a `WorkloadKind` job is submitted under; the
/// coordinator names instance 0 of it `<spec name>#0`.
fn spec_name(job_name: &str) -> &str {
    job_name.strip_suffix("#0").unwrap_or(job_name)
}

impl JobSpec {
    /// A job of shape `shape`, named after the shape and `label`.
    pub fn new(
        shapes: &[Shape],
        shape: usize,
        label: &str,
        tenant: &'static str,
        shots: u64,
        seed: u64,
    ) -> Self {
        let name = match shapes[shape].program {
            Program::Kind(_) => format!("{}-{label}#0", shapes[shape].name),
            Program::Rb3q { .. } => format!("{}-{label}", shapes[shape].name),
        };
        JobSpec {
            shape,
            name,
            tenant,
            shots,
            seed,
        }
    }

    /// The submission the client sends. Prebuilt programs come from
    /// `builds`, which the caller fills before any timed window.
    pub fn submission(
        &self,
        shapes: &[Shape],
        builds: &mut Builds,
    ) -> Result<Submission, RuntimeError> {
        let shape = &shapes[self.shape];
        Ok(match &shape.program {
            Program::Kind(kind) => Submission::workload(
                self.tenant,
                WorkloadSpec::new(spec_name(&self.name), kind.clone(), self.shots)
                    .with_seed(self.seed)
                    .with_config(shape.config.clone()),
            ),
            Program::Rb3q { .. } => Submission::job(self.tenant, self.job(shapes, builds)?),
        })
    }

    /// The exact `Job` the coordinator runs for this spec.
    pub fn job(&self, shapes: &[Shape], builds: &mut Builds) -> Result<Job, RuntimeError> {
        let built = builds.get(shapes, self.shape)?;
        let shape = &shapes[self.shape];
        Ok(match &shape.program {
            Program::Kind(kind) => {
                WorkloadSpec::new(spec_name(&self.name), kind.clone(), self.shots)
                    .with_seed(self.seed)
                    .with_config(shape.config.clone())
                    .instance_with_program(0, built.0.clone(), built.1.clone())?
            }
            Program::Rb3q { .. } => Job::new(self.name.clone(), built.0.clone(), built.1.clone())
                .with_config(shape.config.clone())
                .with_shots(self.shots)
                .with_seed(self.seed),
        })
    }
}

/// Shots of one bulk-watched job.
pub const BULK_SHOTS: u64 = 250_000;

/// The next job of bulk-watched user `user`: noisy 1-qubit RB k=24.
/// Both users belong to one tenant, so the queue runs their jobs in
/// admission order rather than alternating slots between them.
pub fn bulk_job(shapes: &[Shape], rng: &mut SplitMix64, user: usize, n: u64) -> JobSpec {
    JobSpec::new(
        shapes,
        shape_index(shapes, BULK_SHAPES[0]),
        &format!("u{user}-{n}"),
        BULK_TENANTS[0].0,
        BULK_SHOTS,
        rng.next_u64(),
    )
}

/// restart-mix tenants and their DRR weights.
pub const RESTART_TENANTS: &[(&str, u32)] = &[("tenant-a", 3), ("tenant-b", 2), ("tenant-c", 1)];

/// restart-mix shapes: more than the prefix cache's 8 entries.
pub const RESTART_SHAPES: &[&str] = &[
    "rb1q-noisy",
    "rb1q-noisy-s2",
    "rb1q-noisy-s3",
    "rb1q-noisy-s4",
    "rb3q-clifford",
    "chain16x8",
    "allxy-r3",
    "allxy-r21",
    "allxy-r30",
    "allxy-r38",
];

/// bulk-watched's tenant: both users share it, as the bulk job
/// comment explains.
pub const BULK_TENANTS: &[(&str, u32)] = &[("bulk", 1)];

/// Jobs in bulk-watched's recovered backlog: enough that set-up
/// replays real work.
pub const BULK_BACKLOG_JOBS: usize = 1024;

/// The shape of every bulk-watched job.
pub const BULK_SHAPES: &[&str] = &["rb1q-noisy"];

/// A seeded job stream: shapes cycle through `names` in a fresh seeded
/// order per cycle, tenants are uniform over `tenants`, shots are
/// uniform in `shots`.
pub struct JobStream {
    rng: SplitMix64,
    order: Vec<usize>,
    next: usize,
    tenants: &'static [(&'static str, u32)],
    label: &'static str,
    shots: (u64, u64),
    n: u64,
}

impl JobStream {
    pub fn new(
        shapes: &[Shape],
        names: &[&str],
        tenants: &'static [(&'static str, u32)],
        seed: u64,
        stream: u64,
        label: &'static str,
        shots: (u64, u64),
    ) -> Self {
        JobStream {
            rng: SplitMix64::stream(seed, stream),
            order: names.iter().map(|n| shape_index(shapes, n)).collect(),
            next: names.len(),
            tenants,
            label,
            shots,
            n: 0,
        }
    }

    pub fn next_job(&mut self, shapes: &[Shape]) -> JobSpec {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        let shape = self.order[self.next];
        self.next += 1;
        let tenant = self.tenants[self.rng.range(0, self.tenants.len() as u64 - 1) as usize].0;
        let shots = self.rng.range(self.shots.0, self.shots.1);
        let label = format!("{}{}", self.label, self.n);
        self.n += 1;
        JobSpec::new(shapes, shape, &label, tenant, shots, self.rng.next_u64())
    }
}

/// Shots per restart-mix live job.
pub const RESTART_SHOTS: (u64, u64) = (500, 4000);

/// Shots per backlog job: calibration-sized, so a backlog of a few
/// thousand jobs drains in seconds once recovered.
pub const BACKLOG_SHOTS: (u64, u64) = (16, 256);

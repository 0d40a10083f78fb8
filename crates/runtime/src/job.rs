//! The unit of work the engine executes: an assembled program plus
//! everything needed to run it for many shots.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

use eqasm_core::{Instantiation, Instruction};
use eqasm_microarch::SimConfig;

use crate::serve::CacheStats;

/// What a job runs: the instantiation, the assembled program and the
/// simulator configuration. eQASM configures quantum operations at
/// compile time, so these are fixed for every shot; only the seed and
/// shot count vary. Jobs of one shape share it behind an `Arc`, and
/// machine caches key on it. Equality is structural, with a pointer
/// fast path.
#[derive(Debug, Clone)]
pub struct JobShape {
    inst: Instantiation,
    program: Vec<Instruction>,
    config: SimConfig,
    /// The wire bytes interning compares (`None` when the wire cannot
    /// encode the shape): kept by the decoder, or encoded on first use.
    wire: OnceLock<Option<Box<[u8]>>>,
}

impl JobShape {
    /// A shape from its three parts.
    pub fn new(inst: Instantiation, program: Vec<Instruction>, config: SimConfig) -> Self {
        JobShape {
            inst,
            program,
            config,
            wire: OnceLock::new(),
        }
    }

    /// The instantiation the program targets.
    pub fn inst(&self) -> &Instantiation {
        &self.inst
    }

    /// The assembled instruction stream.
    pub fn program(&self) -> &[Instruction] {
        &self.program
    }

    /// Simulator configuration (noise, readout, latencies, backend).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Returns the decoded shape with the bytes it was decoded from.
    pub(crate) fn with_wire(self, bytes: &[u8]) -> Self {
        let _ = self.wire.set(Some(bytes.into()));
        self
    }

    /// The shape's wire bytes, `None` when the wire cannot encode it.
    pub(crate) fn wire(&self) -> Option<&[u8]> {
        self.wire
            .get_or_init(|| crate::wire::encode_shape(self))
            .as_deref()
    }
}

impl PartialEq for JobShape {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
            || (self.config == other.config
                && self.program == other.program
                && self.inst == other.inst)
    }
}

/// Interns job shapes, so every job of one shape shares one `Arc`.
/// Two weak indexes lead to a shape: its wire bytes, and, for a shape
/// built from a workload spec, the spec's key ([`crate::wire::spec_key`]).
/// Entries are weak: a shape dies with its last job, and the spec
/// index with it, so a stream of distinct specs holds nothing once its
/// jobs are released.
#[derive(Debug, Default)]
pub(crate) struct ShapeTable {
    shapes: WeakIndex,
    specs: WeakIndex,
    /// Spec lookups that found a live shape.
    hits: u64,
    /// Spec lookups that built one.
    misses: u64,
    /// Shapes decoded through this table because none was live.
    #[cfg(test)]
    pub(crate) decoded: usize,
}

impl ShapeTable {
    /// The live interned shape encoded as `bytes`.
    pub(crate) fn find(&self, bytes: &[u8]) -> Option<Arc<JobShape>> {
        self.shapes.find(bytes)
    }

    /// The live shape with `shape`'s wire bytes, or `shape` itself,
    /// now interned (dead entries are dropped first). A shape the wire
    /// cannot encode is returned as is.
    pub(crate) fn intern(&mut self, shape: &Arc<JobShape>) -> Arc<JobShape> {
        let Some(bytes) = shape.wire() else {
            return Arc::clone(shape);
        };
        if let Some(live) = self.find(bytes) {
            return live;
        }
        self.shapes.insert(bytes.into(), shape);
        Arc::clone(shape)
    }

    /// The live shape built for the spec keyed `key`, counted as a hit.
    pub(crate) fn find_spec(&mut self, key: &[u8]) -> Option<Arc<JobShape>> {
        let live = self.specs.find(key)?;
        self.hits += 1;
        crate::metrics::rt().cache_hits.inc();
        Some(live)
    }

    /// The shape the spec keyed `key` runs, given `built`, a shape
    /// just built for it. A live shape that raced in for the key first
    /// wins and counts as a hit. Otherwise the build counts as a miss
    /// and is interned by its wire bytes too, so it is shared with an
    /// equal prebuilt or recovered job's shape.
    pub(crate) fn insert_spec(&mut self, key: Box<[u8]>, built: &Arc<JobShape>) -> Arc<JobShape> {
        if let Some(live) = self.find_spec(&key) {
            return live;
        }
        self.misses += 1;
        crate::metrics::rt().cache_misses.inc();
        let shape = self.intern(built);
        self.specs.insert(key, &shape);
        shape
    }

    /// Spec hits and misses, and the spec keys with a live shape.
    pub(crate) fn spec_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.specs.live(),
        }
    }
}

/// Shapes by byte key, held weakly.
#[derive(Debug, Default)]
struct WeakIndex {
    map: HashMap<Box<[u8]>, Weak<JobShape>>,
}

impl WeakIndex {
    fn find(&self, key: &[u8]) -> Option<Arc<JobShape>> {
        self.map.get(key).and_then(Weak::upgrade)
    }

    /// Indexes `shape` under `key`, dropping dead entries first.
    fn insert(&mut self, key: Box<[u8]>, shape: &Arc<JobShape>) {
        self.map.retain(|_, w| w.strong_count() > 0);
        self.map.insert(key, Arc::downgrade(shape));
    }

    fn live(&self) -> usize {
        self.map.values().filter(|w| w.strong_count() > 0).count()
    }
}

/// An assembled program scheduled for repeated execution: a shared
/// [`JobShape`], how many shots to run and the base seed.
///
/// Shot `i` always runs under seed `base_seed + i` (wrapping), so a
/// job's aggregate results are a pure function of the job itself —
/// independent of worker count, scheduling order or machine reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Display name used in reports.
    pub name: String,
    /// What the job runs, shared with every job of the same shape.
    pub shape: Arc<JobShape>,
    /// Number of shots to execute.
    pub shots: u64,
    /// Seed of shot 0; shot `i` uses `base_seed.wrapping_add(i)`.
    pub base_seed: u64,
}

impl Job {
    /// Builds a single-shot job with the default simulator
    /// configuration and seed 0.
    pub fn new(name: impl Into<String>, inst: Instantiation, program: Vec<Instruction>) -> Self {
        Job {
            name: name.into(),
            shape: Arc::new(JobShape::new(inst, program, SimConfig::default())),
            shots: 1,
            base_seed: 0,
        }
    }

    /// Returns the job with the given simulator configuration (a
    /// shape of its own if the old one was shared).
    pub fn with_config(mut self, config: SimConfig) -> Self {
        let shape = Arc::make_mut(&mut self.shape);
        shape.config = config;
        shape.wire = OnceLock::new();
        self
    }

    /// Returns the job with the given shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Returns the job with the given base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// The seed of shot `index`.
    pub fn shot_seed(&self, index: u64) -> u64 {
        self.base_seed.wrapping_add(index)
    }
}

/// Splits `shots` into contiguous batches of at most `batch_size`
/// shots. Every shot index in `0..shots` appears in exactly one batch,
/// in order; batch boundaries depend only on `(shots, batch_size)` —
/// never on worker count — which is what makes aggregate f64
/// reductions bit-identical across pool sizes.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn partition_shots(shots: u64, batch_size: u64) -> Vec<std::ops::Range<u64>> {
    assert!(batch_size > 0, "batch_size must be nonzero");
    let mut out = Vec::with_capacity(shots.div_ceil(batch_size) as usize);
    let mut start = 0;
    while start < shots {
        let end = (start + batch_size).min(shots);
        out.push(start..end);
        start = end;
    }
    out
}

/// The batch size used when the engine is not given an explicit one:
/// small enough that every worker gets several batches (load balance),
/// and at most 256 shots. It fixes the partition, and with it the f64
/// bits of `mean_prob1`, so it is not a throughput knob: memoized
/// shots run a 256-shot batch in microseconds, and a serve slot pays
/// its dispatch per *lease* — a run of batches claimed under one lock
/// and folded under one — not per batch. Depends only on the shot
/// count, so results are reproducible across pool sizes by
/// construction.
pub fn default_batch_size(shots: u64) -> u64 {
    (shots / 64).clamp(1, 256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for shots in [0u64, 1, 7, 64, 65, 1000] {
            for batch in [1u64, 3, 64, 1024] {
                let parts = partition_shots(shots, batch);
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(r.end > r.start, "nonempty");
                    assert!(r.end - r.start <= batch, "bounded");
                    next = r.end;
                }
                assert_eq!(next, shots, "covers all shots");
            }
        }
    }

    #[test]
    fn default_batch_size_bounds() {
        assert_eq!(default_batch_size(0), 1);
        assert_eq!(default_batch_size(1), 1);
        assert_eq!(default_batch_size(640), 10);
        assert_eq!(default_batch_size(1_000_000), 256);
    }

    #[test]
    fn shape_table_interns_equal_shapes_weakly() {
        let inst = eqasm_core::Instantiation::paper_two_qubit();
        let stop = vec![eqasm_core::Instruction::Stop];
        let a = Job::new("a", inst.clone(), stop.clone());
        let b = Job::new("b", inst.clone(), stop).with_seed(9);
        let c = Job::new("c", inst, vec![eqasm_core::Instruction::Nop]);
        let mut table = ShapeTable::default();
        let first = table.intern(&a.shape);
        assert!(Arc::ptr_eq(&first, &a.shape));
        assert!(
            Arc::ptr_eq(&table.intern(&b.shape), &a.shape),
            "an equal shape interns onto the first"
        );
        assert!(!Arc::ptr_eq(&table.intern(&c.shape), &a.shape));

        let weak = Arc::downgrade(&a.shape);
        drop((a, first));
        assert!(weak.upgrade().is_none(), "the table holds shapes weakly");
        assert!(
            Arc::ptr_eq(&table.intern(&b.shape), &b.shape),
            "the next equal shape takes the dead one's place"
        );
    }

    #[test]
    fn with_config_never_changes_a_shared_shape() {
        let job = Job::new(
            "t",
            eqasm_core::Instantiation::paper_two_qubit(),
            vec![eqasm_core::Instruction::Stop],
        );
        let bytes = job.shape.wire().expect("encodes").to_vec();
        let other = job.clone().with_config(SimConfig {
            seed: 7,
            ..SimConfig::default()
        });
        assert_eq!(
            job.shape.config().seed,
            0,
            "the shared shape is copied, not edited"
        );
        assert_eq!(other.shape.config().seed, 7);
        assert_ne!(
            other.shape.wire().expect("encodes"),
            bytes,
            "the new shape gets its own bytes"
        );
    }

    #[test]
    fn shot_seed_derivation() {
        let job = Job::new(
            "t",
            eqasm_core::Instantiation::paper_two_qubit(),
            vec![eqasm_core::Instruction::Stop],
        )
        .with_seed(100);
        assert_eq!(job.shot_seed(0), 100);
        assert_eq!(job.shot_seed(5), 105);
        assert_eq!(
            Job::new("t2", job.shape.inst().clone(), vec![]).shot_seed(3),
            3
        );
    }
}

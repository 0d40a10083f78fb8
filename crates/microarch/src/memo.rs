//! Outcome-memoized shots: a byte-bounded trie from the sequence of a
//! forked shot's measurement outcomes to what the shot runtime reads
//! from it.
//!
//! When a program's measurements are its only draw sites
//! ([`BackendSelection::memo_eligible`](crate::BackendSelection::memo_eligible)),
//! a shot forked from the deterministic prefix is a pure function of
//! its (raw, reported) outcomes; [`crate::select`] gives the argument.
//! [`QuMa::run_shot_memo`] walks an [`OutcomeTrie`] built for one
//! (machine, prefix snapshot) pair, drawing exactly what a replay under
//! the same seed would draw, and returns the stored [`ShotRecord`] at
//! the end of a path it has seen. A path it has not seen replays the
//! shot with [`QuMa::run_shot_from`], recording each measurement, and
//! is added — until the trie reaches its byte bound, after which it
//! stops growing and unseen paths simply replay.

use std::mem::size_of;

use eqasm_core::Qubit;
use eqasm_quantum::{Measurement, ReadoutModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::machine::{QuMa, READOUT_SEED_SALT};
use crate::stats::{RunResult, RunStats, RunStatus};

/// The default byte bound of one [`OutcomeTrie`]: its nodes plus its
/// leaf records and their vectors.
pub const DEFAULT_TRIE_BYTES: usize = 256 * 1024;

/// What the shot runtime reads from one finished shot: its status and
/// counters, every qubit's last measured value and every qubit's final
/// `P(|1⟩)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotRecord {
    /// The shot's status and statistics.
    pub result: RunResult,
    /// Per qubit, the last finished measurement result, if any.
    pub measured: Vec<Option<bool>>,
    /// Per qubit, the final `P(|1⟩)`, read in qubit order.
    pub prob1: Vec<f64>,
}

impl Default for ShotRecord {
    fn default() -> Self {
        ShotRecord {
            result: RunResult {
                status: RunStatus::Halted,
                stats: RunStats::default(),
            },
            measured: Vec::new(),
            prob1: Vec::new(),
        }
    }
}

impl ShotRecord {
    /// Reads the shot `machine` just finished with `result` into this
    /// record, reusing its buffers. `P(|1⟩)` is read qubit by qubit
    /// through [`QuMa::prob1`], which flushes each qubit's pending idle
    /// decay first.
    pub fn capture(&mut self, machine: &mut QuMa, result: RunResult) {
        let n = machine.instantiation().topology().num_qubits();
        self.result = result;
        self.measured.clear();
        self.prob1.clear();
        for q in (0..n).map(|q| Qubit::new(q as u8)) {
            self.measured.push(machine.measurement_value(q));
        }
        for q in (0..n).map(|q| Qubit::new(q as u8)) {
            self.prob1.push(machine.prob1(q));
        }
    }

    /// Bytes this record occupies as a trie leaf.
    fn bytes(&self) -> usize {
        size_of::<ShotRecord>()
            + self.measured.len() * size_of::<Option<bool>>()
            + self.prob1.len() * size_of::<f64>()
    }
}

/// One measurement as a replay took it: what the recorder in
/// `QuMa::sample_measurement` saves on a miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Draw {
    pub(crate) qubit: Qubit,
    /// The `P(|1⟩)` the backend drew against.
    pub(crate) p1: f64,
    pub(crate) readout: ReadoutModel,
    pub(crate) raw: bool,
    pub(crate) reported: bool,
}

/// No link.
const NONE: u32 = u32::MAX;
/// Set on a link that names a leaf rather than an inner node.
const LEAF: u32 = 1 << 31;

/// The measurement every shot on this path takes next.
#[derive(Debug, Clone)]
struct Node {
    p1: f64,
    readout: ReadoutModel,
    /// Kept to check recorded paths against; the walk needs only `p1`
    /// and `readout`.
    qubit: Qubit,
    /// Links per (raw, reported) outcome, see [`branch`].
    children: [u32; 4],
}

fn branch(raw: bool, reported: bool) -> usize {
    (raw as usize) << 1 | reported as usize
}

/// A byte-bounded trie of one shape's shot outcomes; see the module
/// docs. It is valid only for the machine and prefix snapshot it was
/// filled from, and allocates nothing until its first shot.
#[derive(Debug)]
pub struct OutcomeTrie {
    root: u32,
    nodes: Vec<Node>,
    leaves: Vec<ShotRecord>,
    bytes: usize,
    limit: usize,
    full: bool,
    hits: u64,
    /// The record of a shot no leaf holds.
    scratch: ShotRecord,
}

impl Default for OutcomeTrie {
    fn default() -> Self {
        OutcomeTrie::with_limit(DEFAULT_TRIE_BYTES)
    }
}

impl OutcomeTrie {
    /// An empty trie bounded by [`DEFAULT_TRIE_BYTES`].
    pub fn new() -> Self {
        OutcomeTrie::default()
    }

    /// An empty trie that stops growing before it exceeds `bytes`.
    pub fn with_limit(bytes: usize) -> Self {
        OutcomeTrie {
            root: NONE,
            nodes: Vec::new(),
            leaves: Vec::new(),
            bytes: 0,
            limit: bytes,
            full: false,
            hits: 0,
            scratch: ShotRecord::default(),
        }
    }

    /// Bytes held by nodes and leaves.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Distinct outcome paths stored.
    pub fn leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Whether a path has been refused for lack of room; a full trie
    /// still serves the paths it holds.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Shots served from a leaf so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Walks from the root drawing what a replay under `seed` draws:
    /// per measurement, one backend-stream `f64` against the stored
    /// `P(|1⟩)`, then the readout model's conditional draw. Returns the
    /// index of the leaf at the end of a stored path and counts the
    /// hit.
    pub(crate) fn walk(&mut self, seed: u64) -> Option<usize> {
        let mut backend = StdRng::seed_from_u64(seed);
        let mut readout = StdRng::seed_from_u64(seed ^ READOUT_SEED_SALT);
        let mut at = self.root;
        while at != NONE && at & LEAF == 0 {
            let node = &self.nodes[at as usize];
            let raw = Measurement::draw(node.p1, &mut backend).outcome;
            let reported = node.readout.corrupt(raw, &mut readout);
            at = node.children[branch(raw, reported)];
        }
        if at == NONE {
            return None;
        }
        self.hits += 1;
        Some((at & !LEAF) as usize)
    }

    pub(crate) fn leaf(&self, index: usize) -> &ShotRecord {
        &self.leaves[index]
    }

    /// The record of the last replayed shot.
    pub(crate) fn scratch(&self) -> &ShotRecord {
        &self.scratch
    }

    pub(crate) fn scratch_mut(&mut self) -> &mut ShotRecord {
        &mut self.scratch
    }

    /// Stores the scratch record as the leaf of `path` and returns it,
    /// or returns the scratch record and marks the trie full when the
    /// new nodes and leaf would exceed the byte bound.
    pub(crate) fn insert_scratch(&mut self, path: &[Draw]) -> &ShotRecord {
        // Follow the stored prefix of `path` to the first missing link.
        let (mut at, mut parent, mut depth) = (self.root, None, 0);
        while at != NONE && at & LEAF == 0 && depth < path.len() {
            let (node, d) = (&self.nodes[at as usize], &path[depth]);
            debug_assert!(
                node.qubit == d.qubit
                    && node.p1.to_bits() == d.p1.to_bits()
                    && node.readout == d.readout,
                "a replay disagrees with the trie on a measurement it shares"
            );
            let b = branch(d.raw, d.reported);
            parent = Some((at as usize, b));
            at = node.children[b];
            depth += 1;
        }
        debug_assert!(
            at == NONE,
            "a replayed path is already stored, or ends where the trie continues"
        );
        let need = (path.len() - depth) * size_of::<Node>() + self.scratch.bytes();
        // Links are 31-bit indices.
        let indexable =
            self.nodes.len() + path.len() < LEAF as usize && self.leaves.len() < LEAF as usize;
        if at != NONE || self.bytes + need > self.limit || !indexable {
            self.full |= at == NONE;
            return &self.scratch;
        }
        self.bytes += need;
        let leaf = self.leaves.len();
        self.leaves.push(self.scratch.clone());
        // Build the new chain bottom-up, then hang it off its parent.
        let mut link = leaf as u32 | LEAF;
        for d in path[depth..].iter().rev() {
            let mut children = [NONE; 4];
            children[branch(d.raw, d.reported)] = link;
            link = self.nodes.len() as u32;
            self.nodes.push(Node {
                p1: d.p1,
                readout: d.readout,
                qubit: d.qubit,
                children,
            });
        }
        match parent {
            None => self.root = link,
            Some((node, b)) => self.nodes[node].children[b] = link,
        }
        &self.leaves[leaf]
    }
}

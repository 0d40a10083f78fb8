//! The eQASM wire protocol: a hand-rolled, length-prefixed, versioned
//! binary encoding of jobs and batch results, used by
//! [`crate::RemoteBackend`] to ship shot ranges to remote workers.
//!
//! The build environment has no registry access (no serde), so every
//! type that crosses a host boundary is encoded explicitly here:
//! [`crate::Job`] (name, [`Instantiation`], instruction stream,
//! [`SimConfig`], shots, base seed) and [`crate::BatchOut`]
//! (histogram, [`RunStats`], `P(|1⟩)` sums, latency histogram,
//! failure info).
//!
//! ## Encoding rules
//!
//! * All integers are little-endian fixed width; `f64`s are encoded as
//!   their IEEE-754 bit pattern via [`f64::to_bits`], so NaN payloads,
//!   signed zeros and infinities round-trip **bit-exactly** — the
//!   cross-host determinism guarantee depends on this (a remote worker
//!   must fold the very same `f64`s a local one would).
//! * Strings are a `u32` byte length plus UTF-8 bytes; sequences are a
//!   `u32` count plus elements.
//! * Sum types are a `u8` tag plus the variant payload; unknown tags
//!   are typed decode errors, never panics.
//! * [`OpConfig`] is encoded as a *builder replay*: the opcode width
//!   plus each operation definition (name, duration, pulse/gate,
//!   condition) in opcode order. The decoder replays
//!   [`OpConfig::builder`], which reallocates identical opcodes and
//!   codewords because the builder assigns both sequentially — the
//!   builder is the only way to construct an `OpConfig`, so any config
//!   a job can carry round-trips exactly.
//!
//! * Per-shot latencies travel as a log-linear histogram: varint
//!   occupied-bucket deltas and counts, so a batch result's size
//!   depends on how widely its shot times spread, not on its shots.
//!
//! ## Framing and versioning
//!
//! Every message on a connection is a *frame*: a `u32` length, a `u8`
//! message tag, then the payload. Connections open with a handshake —
//! the client sends [`Hello`] carrying [`PROTOCOL_VERSION`], and the
//! server answers [`HelloAck`] only when the versions are **equal**;
//! any other offer gets a typed [`ErrorKind::Version`] error before
//! any job bytes are interpreted. All decode failures surface as
//! [`WireError`], never as panics: a malformed or truncated frame from
//! the network must not take down a coordinator or a worker.
//!
//! ## The job registry
//!
//! [`LoadJob`] ships a job's bytes once per connection under a
//! caller-chosen `job_id`; [`RunRangeById`] then names the job by id
//! (24-byte payload, independent of program size). The worker keeps a
//! **capacity-bounded LRU** of loaded jobs per connection; a range
//! naming an evicted (or never-loaded) id gets the typed
//! [`ErrorKind::JobNotLoaded`] miss, which the client answers by
//! transparently re-sending [`LoadJob`] and retrying — eviction costs
//! one extra round trip, never a wrong answer. The full state machine
//! is specified in `PROTOCOL.md`.

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use eqasm_core::{
    ArchParams, Bundle, BundleOp, CmpFlag, ExecFlag, Instantiation, Instruction, MicroInstruction,
    OpArity, OpConfig, OpTarget, PulseKind, QOpcode, Qubit, QubitPair, SReg, TReg, Topology,
    TwoQubitGate,
};
use eqasm_microarch::{
    BackendSelect, LatencyModel, MeasurementSource, RunStats, SimConfig, TimingPolicy,
};
use eqasm_quantum::{NoiseModel, ReadoutModel};

use crate::aggregate::{
    BitString, Histogram, JobResult, LatencyHistogram, LatencyStats, LATENCY_BUCKETS,
};
use crate::backend::BatchOut;
use crate::job::{Job, JobShape, ShapeTable};
use crate::serve::{PartialResult, Submission, TenantId, Work};
use crate::workload::{WorkloadKind, WorkloadSpec};

/// The four magic bytes opening every handshake: "eQASM Wire
/// Protocol". A connection that does not start with them is not
/// speaking this protocol at all (as opposed to speaking an
/// incompatible *version* of it).
pub const MAGIC: [u8; 4] = *b"EQWP";

/// The one protocol version this build speaks. Bumped on any change
/// to the frame layout or the encoding of any type below. Every peer
/// ships from the same build, so the handshake checks the offered
/// version for equality and answers a mismatch with a typed
/// [`ErrorKind::Version`] error.
pub const PROTOCOL_VERSION: u16 = 7;

/// Upper bound on a single frame's length. A `LoadJob` frame carries
/// one job (program + instantiation, typically kilobytes). 1 GiB is
/// far beyond any legitimate frame and stops a corrupt length prefix
/// from triggering a giant allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why an encode, decode or frame read failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes clean EOF
    /// mid-frame).
    Io(std::io::Error),
    /// The handshake did not open with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// Both ends speak the protocol, but different versions of it.
    VersionMismatch {
        /// The version this build speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// A payload ended before the field being decoded.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A sum-type tag byte has no known variant.
    UnknownTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// The bytes decoded but describe an invalid value (bad topology,
    /// duplicate operation name, non-UTF-8 string…).
    Invalid(String),
    /// A frame length prefix exceeds the connection's frame cap
    /// (the global [`MAX_FRAME_LEN`], or a tighter per-connection
    /// budget).
    FrameTooLarge {
        /// The announced length.
        len: u32,
        /// The cap in force on this connection.
        cap: u32,
    },
    /// The peer's pre-shared-key authentication failed — wrong key,
    /// stale (replayed) proof, or a required key that was never
    /// configured on this side.
    AuthFailed {
        /// What went wrong, from whichever side detected it.
        message: String,
    },
    /// The remote peer reported a typed protocol error.
    Remote(ErrorMsg),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport i/o failed: {e}"),
            WireError::BadMagic { found } => {
                write!(f, "bad protocol magic {found:02x?} (expected {MAGIC:02x?})")
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
                )
            }
            WireError::Truncated { what, needed, have } => {
                write!(
                    f,
                    "truncated frame decoding {what}: needed {needed} bytes, have {have}"
                )
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag:#04x}")
            }
            WireError::Invalid(msg) => write!(f, "invalid wire value: {msg}"),
            WireError::FrameTooLarge { len, cap } => {
                write!(f, "frame length {len} exceeds the {cap}-byte cap")
            }
            WireError::AuthFailed { message } => {
                write!(f, "authentication failed: {message}")
            }
            WireError::Remote(e) => write!(f, "peer reported: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// True when retrying the same bytes against a *different* backend
/// could succeed — transport failures, not semantic rejections.
impl WireError {
    /// Whether this failure is a transport fault (worth re-dispatching
    /// the range to another backend) rather than a protocol or payload
    /// defect (which would fail identically anywhere).
    pub fn is_transport(&self) -> bool {
        matches!(self, WireError::Io(_))
    }
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// An append-only byte buffer with fixed-width primitive writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        // Bit pattern, not value: NaNs and signed zeros must survive.
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn put_varint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }
}

/// A cursor over a received payload with typed-error primitive
/// readers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn get_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn get_i32(&mut self, what: &'static str) -> Result<i32, WireError> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn get_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    pub(crate) fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what, tag }),
        }
    }

    pub(crate) fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Invalid(format!("{what}: non-UTF-8 string: {e}")))
    }

    pub(crate) fn get_bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    pub(crate) fn get_varint(&mut self, what: &'static str) -> Result<u64, WireError> {
        get_varint(&mut self.buf, what)
    }

    /// A count prefix, sanity-capped against the remaining payload so
    /// a corrupt length cannot pre-allocate unbounded memory.
    pub(crate) fn get_count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let n = self.get_u32(what)? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(WireError::Truncated {
                what,
                needed: floor,
                have: self.remaining(),
            });
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint, consuming from the front of `buf`.
pub(crate) fn get_varint(buf: &mut &[u8], what: &'static str) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let Some((&b, rest)) = buf.split_first() else {
            return Err(WireError::Truncated {
                what,
                needed: 1,
                have: 0,
            });
        };
        *buf = rest;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::Invalid(format!(
        "{what}: varint exceeds 64 bits"
    )))
}

// ---------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------

mod itag {
    pub const NOP: u8 = 0;
    pub const STOP: u8 = 1;
    pub const CMP: u8 = 2;
    pub const BR: u8 = 3;
    pub const FBR: u8 = 4;
    pub const LDI: u8 = 5;
    pub const LDUI: u8 = 6;
    pub const LD: u8 = 7;
    pub const ST: u8 = 8;
    pub const FMR: u8 = 9;
    pub const AND: u8 = 10;
    pub const OR: u8 = 11;
    pub const XOR: u8 = 12;
    pub const NOT: u8 = 13;
    pub const ADD: u8 = 14;
    pub const SUB: u8 = 15;
    pub const QWAIT: u8 = 16;
    pub const QWAITR: u8 = 17;
    pub const SMIS: u8 = 18;
    pub const SMIT: u8 = 19;
    pub const BUNDLE: u8 = 20;
}

fn put_cmp_flag(w: &mut Writer, flag: CmpFlag) {
    w.put_u8(flag.encode());
}

fn get_cmp_flag(r: &mut Reader<'_>) -> Result<CmpFlag, WireError> {
    let bits = r.get_u8("CmpFlag")?;
    CmpFlag::decode(bits).ok_or(WireError::UnknownTag {
        what: "CmpFlag",
        tag: bits,
    })
}

fn put_instruction(w: &mut Writer, instr: &Instruction) {
    use itag::*;
    match instr {
        Instruction::Nop => w.put_u8(NOP),
        Instruction::Stop => w.put_u8(STOP),
        Instruction::Cmp { rs, rt } => {
            w.put_u8(CMP);
            w.put_u8(rs.raw());
            w.put_u8(rt.raw());
        }
        Instruction::Br { flag, offset } => {
            w.put_u8(BR);
            put_cmp_flag(w, *flag);
            w.put_i32(*offset);
        }
        Instruction::Fbr { flag, rd } => {
            w.put_u8(FBR);
            put_cmp_flag(w, *flag);
            w.put_u8(rd.raw());
        }
        Instruction::Ldi { rd, imm } => {
            w.put_u8(LDI);
            w.put_u8(rd.raw());
            w.put_i32(*imm);
        }
        Instruction::Ldui { rd, imm, rs } => {
            w.put_u8(LDUI);
            w.put_u8(rd.raw());
            w.put_u16(*imm);
            w.put_u8(rs.raw());
        }
        Instruction::Ld { rd, rt, imm } => {
            w.put_u8(LD);
            w.put_u8(rd.raw());
            w.put_u8(rt.raw());
            w.put_i32(*imm);
        }
        Instruction::St { rs, rt, imm } => {
            w.put_u8(ST);
            w.put_u8(rs.raw());
            w.put_u8(rt.raw());
            w.put_i32(*imm);
        }
        Instruction::Fmr { rd, qubit } => {
            w.put_u8(FMR);
            w.put_u8(rd.raw());
            w.put_u8(qubit.raw());
        }
        Instruction::And { rd, rs, rt } => put_alu(w, AND, *rd, *rs, *rt),
        Instruction::Or { rd, rs, rt } => put_alu(w, OR, *rd, *rs, *rt),
        Instruction::Xor { rd, rs, rt } => put_alu(w, XOR, *rd, *rs, *rt),
        Instruction::Not { rd, rt } => {
            w.put_u8(NOT);
            w.put_u8(rd.raw());
            w.put_u8(rt.raw());
        }
        Instruction::Add { rd, rs, rt } => put_alu(w, ADD, *rd, *rs, *rt),
        Instruction::Sub { rd, rs, rt } => put_alu(w, SUB, *rd, *rs, *rt),
        Instruction::QWait { cycles } => {
            w.put_u8(QWAIT);
            w.put_u32(*cycles);
        }
        Instruction::QWaitR { rs } => {
            w.put_u8(QWAITR);
            w.put_u8(rs.raw());
        }
        Instruction::Smis { sd, mask } => {
            w.put_u8(SMIS);
            w.put_u8(sd.raw());
            w.put_u32(*mask);
        }
        Instruction::Smit { td, mask } => {
            w.put_u8(SMIT);
            w.put_u8(td.raw());
            w.put_u32(*mask);
        }
        Instruction::Bundle(b) => {
            w.put_u8(BUNDLE);
            w.put_u8(b.pre_interval);
            w.put_u32(b.ops.len() as u32);
            for op in &b.ops {
                w.put_u16(op.opcode.raw());
                match op.target {
                    OpTarget::None => w.put_u8(0),
                    OpTarget::S(s) => {
                        w.put_u8(1);
                        w.put_u8(s.raw());
                    }
                    OpTarget::T(t) => {
                        w.put_u8(2);
                        w.put_u8(t.raw());
                    }
                }
            }
        }
    }
}

fn put_alu(w: &mut Writer, tag: u8, rd: eqasm_core::Gpr, rs: eqasm_core::Gpr, rt: eqasm_core::Gpr) {
    w.put_u8(tag);
    w.put_u8(rd.raw());
    w.put_u8(rs.raw());
    w.put_u8(rt.raw());
}

fn get_gpr(r: &mut Reader<'_>) -> Result<eqasm_core::Gpr, WireError> {
    Ok(eqasm_core::Gpr::new(r.get_u8("Gpr")?))
}

fn get_instruction(r: &mut Reader<'_>) -> Result<Instruction, WireError> {
    use itag::*;
    let tag = r.get_u8("Instruction")?;
    Ok(match tag {
        NOP => Instruction::Nop,
        STOP => Instruction::Stop,
        CMP => Instruction::Cmp {
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        BR => Instruction::Br {
            flag: get_cmp_flag(r)?,
            offset: r.get_i32("Br.offset")?,
        },
        FBR => Instruction::Fbr {
            flag: get_cmp_flag(r)?,
            rd: get_gpr(r)?,
        },
        LDI => Instruction::Ldi {
            rd: get_gpr(r)?,
            imm: r.get_i32("Ldi.imm")?,
        },
        LDUI => Instruction::Ldui {
            rd: get_gpr(r)?,
            imm: r.get_u16("Ldui.imm")?,
            rs: get_gpr(r)?,
        },
        LD => Instruction::Ld {
            rd: get_gpr(r)?,
            rt: get_gpr(r)?,
            imm: r.get_i32("Ld.imm")?,
        },
        ST => Instruction::St {
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
            imm: r.get_i32("St.imm")?,
        },
        FMR => Instruction::Fmr {
            rd: get_gpr(r)?,
            qubit: Qubit::new(r.get_u8("Fmr.qubit")?),
        },
        AND => Instruction::And {
            rd: get_gpr(r)?,
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        OR => Instruction::Or {
            rd: get_gpr(r)?,
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        XOR => Instruction::Xor {
            rd: get_gpr(r)?,
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        NOT => Instruction::Not {
            rd: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        ADD => Instruction::Add {
            rd: get_gpr(r)?,
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        SUB => Instruction::Sub {
            rd: get_gpr(r)?,
            rs: get_gpr(r)?,
            rt: get_gpr(r)?,
        },
        QWAIT => Instruction::QWait {
            cycles: r.get_u32("QWait.cycles")?,
        },
        QWAITR => Instruction::QWaitR { rs: get_gpr(r)? },
        SMIS => Instruction::Smis {
            sd: SReg::new(r.get_u8("Smis.sd")?),
            mask: r.get_u32("Smis.mask")?,
        },
        SMIT => Instruction::Smit {
            td: TReg::new(r.get_u8("Smit.td")?),
            mask: r.get_u32("Smit.mask")?,
        },
        BUNDLE => {
            let pre_interval = r.get_u8("Bundle.pre_interval")?;
            let n = r.get_count("Bundle.ops", 3)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let opcode = QOpcode::new(r.get_u16("BundleOp.opcode")?);
                let target = match r.get_u8("OpTarget")? {
                    0 => OpTarget::None,
                    1 => OpTarget::S(SReg::new(r.get_u8("OpTarget.S")?)),
                    2 => OpTarget::T(TReg::new(r.get_u8("OpTarget.T")?)),
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "OpTarget",
                            tag,
                        })
                    }
                };
                ops.push(BundleOp { opcode, target });
            }
            Instruction::Bundle(Bundle { pre_interval, ops })
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "Instruction",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Instantiation: topology + arch params + op config
// ---------------------------------------------------------------------

fn put_topology(w: &mut Writer, t: &Topology) {
    w.put_str(t.name());
    w.put_u32(t.num_qubits() as u32);
    w.put_u32(t.num_pairs() as u32);
    for (_, pair) in t.pairs() {
        w.put_u8(pair.source().raw());
        w.put_u8(pair.target().raw());
    }
    w.put_u32(t.feedlines().len() as u32);
    for line in t.feedlines() {
        w.put_u32(line.len() as u32);
        for q in line {
            w.put_u8(q.raw());
        }
    }
}

fn get_topology(r: &mut Reader<'_>) -> Result<Topology, WireError> {
    let name = r.get_str("Topology.name")?;
    let num_qubits = r.get_u32("Topology.num_qubits")? as usize;
    let n_pairs = r.get_count("Topology.pairs", 2)?;
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let s = r.get_u8("QubitPair.source")?;
        let t = r.get_u8("QubitPair.target")?;
        pairs.push(QubitPair::from_raw(s, t));
    }
    let n_lines = r.get_count("Topology.feedlines", 4)?;
    let mut feedlines = Vec::with_capacity(n_lines);
    for _ in 0..n_lines {
        let n = r.get_count("Feedline.qubits", 1)?;
        let mut line = Vec::with_capacity(n);
        for _ in 0..n {
            line.push(Qubit::new(r.get_u8("Feedline.qubit")?));
        }
        feedlines.push(line);
    }
    Topology::new(name, num_qubits, pairs, feedlines)
        .map_err(|e| WireError::Invalid(format!("topology: {e}")))
}

fn put_arch_params(w: &mut Writer, p: &ArchParams) {
    w.put_u32(p.vliw_width as u32);
    w.put_u32(p.pi_bits);
    w.put_u32(p.opcode_bits);
    w.put_u32(p.num_gprs as u32);
    w.put_u32(p.num_sregs as u32);
    w.put_u32(p.num_tregs as u32);
    w.put_u32(p.qwait_bits);
    w.put_u32(p.ldi_bits);
    w.put_u32(p.ldui_bits);
    w.put_u32(p.branch_offset_bits);
    w.put_u32(p.mem_offset_bits);
    w.put_u64(p.data_memory_words as u64);
}

fn get_arch_params(r: &mut Reader<'_>) -> Result<ArchParams, WireError> {
    Ok(ArchParams {
        vliw_width: r.get_u32("ArchParams.vliw_width")? as usize,
        pi_bits: r.get_u32("ArchParams.pi_bits")?,
        opcode_bits: r.get_u32("ArchParams.opcode_bits")?,
        num_gprs: r.get_u32("ArchParams.num_gprs")? as usize,
        num_sregs: r.get_u32("ArchParams.num_sregs")? as usize,
        num_tregs: r.get_u32("ArchParams.num_tregs")? as usize,
        qwait_bits: r.get_u32("ArchParams.qwait_bits")?,
        ldi_bits: r.get_u32("ArchParams.ldi_bits")?,
        ldui_bits: r.get_u32("ArchParams.ldui_bits")?,
        branch_offset_bits: r.get_u32("ArchParams.branch_offset_bits")?,
        mem_offset_bits: r.get_u32("ArchParams.mem_offset_bits")?,
        data_memory_words: r.get_u64("ArchParams.data_memory_words")? as usize,
    })
}

fn put_pulse_kind(w: &mut Writer, p: &PulseKind) -> Result<(), WireError> {
    match p {
        PulseKind::None => w.put_u8(0),
        PulseKind::Rx(theta) => {
            w.put_u8(1);
            w.put_f64(*theta);
        }
        PulseKind::Ry(theta) => {
            w.put_u8(2);
            w.put_f64(*theta);
        }
        PulseKind::Rz(theta) => {
            w.put_u8(3);
            w.put_f64(*theta);
        }
        PulseKind::Hadamard => w.put_u8(4),
        PulseKind::Measure => w.put_u8(5),
        // The src/tgt halves never appear as a *single-qubit* pulse —
        // they exist only inside two-qubit definitions, which encode
        // their gate instead.
        PulseKind::TwoQubitSrc(_) | PulseKind::TwoQubitTgt(_) => {
            return Err(WireError::Invalid(
                "two-qubit pulse half in a single-qubit definition".to_owned(),
            ))
        }
    }
    Ok(())
}

fn get_pulse_kind(r: &mut Reader<'_>) -> Result<PulseKind, WireError> {
    Ok(match r.get_u8("PulseKind")? {
        0 => PulseKind::None,
        1 => PulseKind::Rx(r.get_f64("PulseKind.Rx")?),
        2 => PulseKind::Ry(r.get_f64("PulseKind.Ry")?),
        3 => PulseKind::Rz(r.get_f64("PulseKind.Rz")?),
        4 => PulseKind::Hadamard,
        5 => PulseKind::Measure,
        tag => {
            return Err(WireError::UnknownTag {
                what: "PulseKind",
                tag,
            })
        }
    })
}

fn put_two_qubit_gate(w: &mut Writer, g: &TwoQubitGate) {
    match g {
        TwoQubitGate::Cz => w.put_u8(0),
        TwoQubitGate::Cnot => w.put_u8(1),
        TwoQubitGate::CPhase(theta) => {
            w.put_u8(2);
            w.put_f64(*theta);
        }
        TwoQubitGate::Swap => w.put_u8(3),
    }
}

fn get_two_qubit_gate(r: &mut Reader<'_>) -> Result<TwoQubitGate, WireError> {
    Ok(match r.get_u8("TwoQubitGate")? {
        0 => TwoQubitGate::Cz,
        1 => TwoQubitGate::Cnot,
        2 => TwoQubitGate::CPhase(r.get_f64("TwoQubitGate.CPhase")?),
        3 => TwoQubitGate::Swap,
        tag => {
            return Err(WireError::UnknownTag {
                what: "TwoQubitGate",
                tag,
            })
        }
    })
}

/// Encodes an [`OpConfig`] as a builder replay. Fails (rather than
/// silently mis-encoding) if a definition's pulse library entry is
/// missing — impossible for builder-built configs, which are the only
/// kind that exists.
fn put_op_config(w: &mut Writer, cfg: &OpConfig) -> Result<(), WireError> {
    w.put_u32(cfg.opcode_bits());
    w.put_u32(cfg.len() as u32);
    for def in cfg.iter() {
        w.put_str(def.name());
        w.put_u32(def.duration_cycles());
        match (def.arity(), def.micro()) {
            (OpArity::SingleQubit, MicroInstruction::Single(op)) => {
                w.put_u8(0);
                let pulse = cfg.pulse(op.codeword()).ok_or_else(|| {
                    WireError::Invalid(format!(
                        "operation `{}` has no pulse for {}",
                        def.name(),
                        op.codeword()
                    ))
                })?;
                put_pulse_kind(w, pulse)?;
                w.put_u8(op.condition().encode());
            }
            (OpArity::TwoQubit, MicroInstruction::Pair { src, .. }) => {
                w.put_u8(1);
                let gate = match cfg.pulse(src.codeword()) {
                    Some(PulseKind::TwoQubitSrc(gate)) => *gate,
                    other => {
                        return Err(WireError::Invalid(format!(
                            "operation `{}` has no source-pulse gate (found {other:?})",
                            def.name()
                        )))
                    }
                };
                put_two_qubit_gate(w, &gate);
            }
            (arity, micro) => {
                return Err(WireError::Invalid(format!(
                    "operation `{}` mixes arity {arity:?} with micro {micro:?}",
                    def.name()
                )))
            }
        }
    }
    Ok(())
}

fn get_op_config(r: &mut Reader<'_>) -> Result<OpConfig, WireError> {
    let opcode_bits = r.get_u32("OpConfig.opcode_bits")?;
    // Opcodes are 16-bit and the builder counts them in a `u16`: a
    // wider (corrupt) width would overflow that counter.
    if opcode_bits > 15 {
        return Err(WireError::Invalid(format!(
            "OpConfig: opcode width {opcode_bits} exceeds 15 bits"
        )));
    }
    let n = r.get_count("OpConfig.defs", 6)?;
    let mut builder = OpConfig::builder(opcode_bits);
    for _ in 0..n {
        let name = r.get_str("OpDef.name")?;
        let duration = r.get_u32("OpDef.duration_cycles")?;
        match r.get_u8("OpDef.kind")? {
            0 => {
                let pulse = get_pulse_kind(r)?;
                let cond_bits = r.get_u8("OpDef.condition")?;
                let condition = ExecFlag::decode(cond_bits).ok_or(WireError::UnknownTag {
                    what: "ExecFlag",
                    tag: cond_bits,
                })?;
                builder
                    .single_conditional(&name, duration, pulse, condition)
                    .map_err(|e| WireError::Invalid(format!("operation `{name}`: {e}")))?;
            }
            1 => {
                let gate = get_two_qubit_gate(r)?;
                builder
                    .two(&name, duration, gate)
                    .map_err(|e| WireError::Invalid(format!("operation `{name}`: {e}")))?;
            }
            tag => {
                return Err(WireError::UnknownTag {
                    what: "OpDef.kind",
                    tag,
                })
            }
        }
    }
    Ok(builder.build())
}

fn put_instantiation(w: &mut Writer, inst: &Instantiation) -> Result<(), WireError> {
    put_topology(w, inst.topology());
    put_arch_params(w, inst.params());
    put_op_config(w, inst.ops())
}

fn get_instantiation(r: &mut Reader<'_>) -> Result<Instantiation, WireError> {
    let topology = get_topology(r)?;
    let params = get_arch_params(r)?;
    let ops = get_op_config(r)?;
    Ok(Instantiation::new(topology, params, ops))
}

// ---------------------------------------------------------------------
// SimConfig
// ---------------------------------------------------------------------

fn put_sim_config(w: &mut Writer, c: &SimConfig) {
    w.put_f64(c.cycle_time_ns);
    w.put_u64(c.classical_per_quantum);
    w.put_u64(c.latency.result_sync_cc);
    w.put_u64(c.latency.quantum_decode_cc);
    w.put_u64(c.latency.adi_output_cc);
    w.put_u64(c.latency.stall_release_cc);
    w.put_f64(c.noise.t1_ns);
    w.put_f64(c.noise.t2_ns);
    w.put_f64(c.noise.depol_1q);
    w.put_f64(c.noise.depol_2q);
    w.put_f64(c.readout.p_read1_given0);
    w.put_f64(c.readout.p_read0_given1);
    match &c.measurement_source {
        MeasurementSource::Quantum => w.put_u8(0),
        MeasurementSource::MockAlternating { start } => {
            w.put_u8(1);
            w.put_bool(*start);
        }
        MeasurementSource::MockFixed(values) => {
            w.put_u8(2);
            w.put_u32(values.len() as u32);
            for &v in values {
                w.put_bool(v);
            }
        }
    }
    w.put_u8(match c.timing_policy {
        TimingPolicy::SlipAndCount => 0,
        TimingPolicy::Fault => 1,
    });
    w.put_u64(c.seed);
    w.put_u64(c.max_classical_cycles);
    w.put_u8(match c.backend {
        BackendSelect::Auto => 0,
        BackendSelect::Dense => 1,
        BackendSelect::Stabilizer => 2,
        BackendSelect::Density => 3,
        BackendSelect::Pure => 4,
    });
    w.put_bool(c.record_trace);
}

fn get_sim_config(r: &mut Reader<'_>) -> Result<SimConfig, WireError> {
    let cycle_time_ns = r.get_f64("SimConfig.cycle_time_ns")?;
    let classical_per_quantum = r.get_u64("SimConfig.classical_per_quantum")?;
    let latency = LatencyModel {
        result_sync_cc: r.get_u64("LatencyModel.result_sync_cc")?,
        quantum_decode_cc: r.get_u64("LatencyModel.quantum_decode_cc")?,
        adi_output_cc: r.get_u64("LatencyModel.adi_output_cc")?,
        stall_release_cc: r.get_u64("LatencyModel.stall_release_cc")?,
    };
    let noise = NoiseModel {
        t1_ns: r.get_f64("NoiseModel.t1_ns")?,
        t2_ns: r.get_f64("NoiseModel.t2_ns")?,
        depol_1q: r.get_f64("NoiseModel.depol_1q")?,
        depol_2q: r.get_f64("NoiseModel.depol_2q")?,
    };
    let readout = ReadoutModel {
        p_read1_given0: r.get_f64("ReadoutModel.p_read1_given0")?,
        p_read0_given1: r.get_f64("ReadoutModel.p_read0_given1")?,
    };
    let measurement_source = match r.get_u8("MeasurementSource")? {
        0 => MeasurementSource::Quantum,
        1 => MeasurementSource::MockAlternating {
            start: r.get_bool("MockAlternating.start")?,
        },
        2 => {
            let n = r.get_count("MockFixed.values", 1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.get_bool("MockFixed.value")?);
            }
            MeasurementSource::MockFixed(values)
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "MeasurementSource",
                tag,
            })
        }
    };
    let timing_policy = match r.get_u8("TimingPolicy")? {
        0 => TimingPolicy::SlipAndCount,
        1 => TimingPolicy::Fault,
        tag => {
            return Err(WireError::UnknownTag {
                what: "TimingPolicy",
                tag,
            })
        }
    };
    Ok(SimConfig {
        cycle_time_ns,
        classical_per_quantum,
        latency,
        noise,
        readout,
        measurement_source,
        timing_policy,
        seed: r.get_u64("SimConfig.seed")?,
        max_classical_cycles: r.get_u64("SimConfig.max_classical_cycles")?,
        backend: match r.get_u8("SimConfig.backend")? {
            0 => BackendSelect::Auto,
            1 => BackendSelect::Dense,
            2 => BackendSelect::Stabilizer,
            3 => BackendSelect::Density,
            4 => BackendSelect::Pure,
            tag => {
                return Err(WireError::UnknownTag {
                    what: "SimConfig.backend",
                    tag,
                })
            }
        },
        record_trace: r.get_bool("SimConfig.record_trace")?,
    })
}

// ---------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------

/// Encodes a complete [`Job`] — everything a remote worker needs to
/// run any shot range of it.
pub fn encode_job(job: &Job) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.put_str(&job.name);
    match job.shape.wire() {
        Some(bytes) => w.buf.extend_from_slice(bytes),
        // The wire cannot encode this shape; `put_shape` says why.
        None => put_shape(&mut w, &job.shape)?,
    }
    w.put_u64(job.shots);
    w.put_u64(job.base_seed);
    Ok(w.into_bytes())
}

/// A job's shape: the middle of its encoding, between name and shots.
fn put_shape(w: &mut Writer, shape: &JobShape) -> Result<(), WireError> {
    put_instantiation(w, shape.inst())?;
    w.put_u32(shape.program().len() as u32);
    for instr in shape.program() {
        put_instruction(w, instr);
    }
    put_sim_config(w, shape.config());
    Ok(())
}

/// A shape's wire bytes, `None` when the wire cannot encode it.
pub(crate) fn encode_shape(shape: &JobShape) -> Option<Box<[u8]>> {
    let mut w = Writer::new();
    put_shape(&mut w, shape).ok()?;
    Some(w.buf.into())
}

/// Decodes a [`Job`] produced by [`encode_job`].
pub fn decode_job(bytes: &[u8]) -> Result<Job, WireError> {
    decode_job_interned(bytes, &mut ShapeTable::default())
}

/// [`decode_job`] with the job's shape interned in `shapes`. A shape
/// whose bytes an interned shape already has is not decoded again.
pub(crate) fn decode_job_interned(bytes: &[u8], shapes: &mut ShapeTable) -> Result<Job, WireError> {
    let mut r = Reader::new(bytes);
    let name = r.get_str("Job.name")?;
    // The shape runs from here to the shot count and seed, the last 16
    // bytes.
    let span = &r.buf[..r.remaining().saturating_sub(16)];
    let shape = match shapes.find(span) {
        Some(shape) => {
            r.take(span.len(), "Job.shape")?;
            shape
        }
        None => {
            #[cfg(test)]
            {
                shapes.decoded += 1;
            }
            let inst = get_instantiation(&mut r)?;
            let n = r.get_count("Job.program", 1)?;
            let mut program = Vec::with_capacity(n);
            for _ in 0..n {
                program.push(get_instruction(&mut r)?);
            }
            let config = get_sim_config(&mut r)?;
            Arc::new(JobShape::new(inst, program, config).with_wire(span))
        }
    };
    let shots = r.get_u64("Job.shots")?;
    let base_seed = r.get_u64("Job.base_seed")?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after job",
            r.remaining()
        )));
    }
    Ok(Job {
        name,
        shape: shapes.intern(&shape),
        shots,
        base_seed,
    })
}

// ---------------------------------------------------------------------
// RunStats / Histogram / BatchOut
// ---------------------------------------------------------------------

fn put_run_stats(w: &mut Writer, s: &RunStats) {
    // Field order is frozen by PROTOCOL_VERSION: a new counter in
    // RunStats is a version bump, not a silent layout change.
    w.put_u64(s.classical_cycles);
    w.put_u64(s.quantum_cycles);
    w.put_u64(s.classical_instructions);
    w.put_u64(s.quantum_instructions);
    w.put_u64(s.bundle_words);
    w.put_u64(s.timing_points);
    w.put_u64(s.ops_triggered);
    w.put_u64(s.ops_cancelled);
    w.put_u64(s.two_qubit_gates);
    w.put_u64(s.measurements);
    w.put_u64(s.fmr_stall_cycles);
    w.put_u64(s.timeline_slips);
    w.put_u64(s.slipped_cycles);
    w.put_u64(s.busy_overlaps);
    w.put_u64(s.last_timing_point);
}

fn get_run_stats(r: &mut Reader<'_>) -> Result<RunStats, WireError> {
    // RunStats is #[non_exhaustive]; start from default and assign.
    let mut s = RunStats::default();
    s.classical_cycles = r.get_u64("RunStats.classical_cycles")?;
    s.quantum_cycles = r.get_u64("RunStats.quantum_cycles")?;
    s.classical_instructions = r.get_u64("RunStats.classical_instructions")?;
    s.quantum_instructions = r.get_u64("RunStats.quantum_instructions")?;
    s.bundle_words = r.get_u64("RunStats.bundle_words")?;
    s.timing_points = r.get_u64("RunStats.timing_points")?;
    s.ops_triggered = r.get_u64("RunStats.ops_triggered")?;
    s.ops_cancelled = r.get_u64("RunStats.ops_cancelled")?;
    s.two_qubit_gates = r.get_u64("RunStats.two_qubit_gates")?;
    s.measurements = r.get_u64("RunStats.measurements")?;
    s.fmr_stall_cycles = r.get_u64("RunStats.fmr_stall_cycles")?;
    s.timeline_slips = r.get_u64("RunStats.timeline_slips")?;
    s.slipped_cycles = r.get_u64("RunStats.slipped_cycles")?;
    s.busy_overlaps = r.get_u64("RunStats.busy_overlaps")?;
    s.last_timing_point = r.get_u64("RunStats.last_timing_point")?;
    Ok(s)
}

fn put_histogram(w: &mut Writer, h: &Histogram) {
    w.put_u32(h.len() as u32);
    for (outcome, &count) in h.iter() {
        w.put_u64(outcome.measured);
        w.put_u64(outcome.bits);
        w.put_u64(count);
    }
}

fn get_histogram(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
    let n = r.get_count("Histogram.entries", 24)?;
    let mut h = Histogram::with_capacity(n);
    for _ in 0..n {
        let outcome = BitString {
            measured: r.get_u64("BitString.measured")?,
            bits: r.get_u64("BitString.bits")?,
        };
        let count = r.get_u64("Histogram.count")?;
        h.add(outcome, count);
    }
    Ok(h)
}

/// Encodes a [`LatencyHistogram`]: the varint sum (low then high
/// 64 bits) and maximum, the varint number of occupied buckets, then
/// per bucket the varint gap from the previous index (the first is
/// its index) and the varint count. The sample count is the sum of
/// the bucket counts.
fn put_latency_histogram(w: &mut Writer, h: &LatencyHistogram) {
    w.put_varint(h.sum() as u64);
    w.put_varint((h.sum() >> 64) as u64);
    w.put_varint(h.max());
    w.put_varint(h.buckets().count() as u64);
    let mut next = 0;
    for (bucket, n) in h.buckets() {
        w.put_varint((bucket - next) as u64);
        w.put_varint(n);
        next = bucket + 1;
    }
}

fn get_latency_histogram(r: &mut Reader<'_>) -> Result<LatencyHistogram, WireError> {
    let sum_lo = r.get_varint("LatencyHistogram.sum")?;
    let sum_hi = r.get_varint("LatencyHistogram.sum")?;
    let max = r.get_varint("LatencyHistogram.max")?;
    let n = r.get_varint("LatencyHistogram.buckets")?;
    // Each bucket takes at least two bytes, which bounds the
    // allocation by the payload actually present.
    if n > LATENCY_BUCKETS as u64 || n.saturating_mul(2) > r.remaining() as u64 {
        return Err(WireError::Invalid(format!(
            "LatencyHistogram: {n} buckets in {} bytes",
            r.remaining()
        )));
    }
    let mut buckets = Vec::with_capacity(n as usize);
    let mut next = 0u64;
    for _ in 0..n {
        let bucket = next.saturating_add(r.get_varint("LatencyHistogram.bucket")?);
        let count = r.get_varint("LatencyHistogram.count")?;
        buckets.push((usize::try_from(bucket).unwrap_or(usize::MAX), count));
        next = bucket.saturating_add(1);
    }
    let sum = u128::from(sum_hi) << 64 | u128::from(sum_lo);
    LatencyHistogram::from_parts(&buckets, sum, max)
        .map_err(|e| WireError::Invalid(format!("LatencyHistogram: {e}")))
}

/// Encodes a [`LatencyHistogram`] on its own (see
/// [`decode_latency_histogram`]); batch and job results embed the
/// same bytes.
pub fn encode_latency_histogram(h: &LatencyHistogram) -> Vec<u8> {
    let mut w = Writer::new();
    put_latency_histogram(&mut w, h);
    w.into_bytes()
}

/// Decodes a [`LatencyHistogram`] produced by
/// [`encode_latency_histogram`], rejecting any bytes a real histogram
/// could not have produced.
pub fn decode_latency_histogram(bytes: &[u8]) -> Result<LatencyHistogram, WireError> {
    let mut r = Reader::new(bytes);
    let h = get_latency_histogram(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after latency histogram",
            r.remaining()
        )));
    }
    Ok(h)
}

/// Encodes a [`BatchOut`] for the return trip.
pub fn encode_batch_out(out: &BatchOut) -> Vec<u8> {
    let mut w = Writer::new();
    put_histogram(&mut w, &out.histogram);
    put_run_stats(&mut w, &out.stats);
    w.put_u32(out.prob1_sum.len() as u32);
    for &p in &out.prob1_sum {
        w.put_f64(p);
    }
    put_latency_histogram(&mut w, &out.latency);
    w.put_u64(out.non_halted);
    match &out.first_failure {
        None => w.put_u8(0),
        Some((shot, message)) => {
            w.put_u8(1);
            w.put_u64(*shot);
            w.put_str(message);
        }
    }
    w.put_u64(out.elapsed_ns);
    w.into_bytes()
}

/// Decodes a [`BatchOut`] produced by [`encode_batch_out`].
pub fn decode_batch_out(bytes: &[u8]) -> Result<BatchOut, WireError> {
    let mut r = Reader::new(bytes);
    let histogram = get_histogram(&mut r)?;
    let stats = get_run_stats(&mut r)?;
    let n = r.get_count("BatchOut.prob1_sum", 8)?;
    let mut prob1_sum = Vec::with_capacity(n);
    for _ in 0..n {
        prob1_sum.push(r.get_f64("BatchOut.prob1")?);
    }
    let latency = get_latency_histogram(&mut r)?;
    let non_halted = r.get_u64("BatchOut.non_halted")?;
    let first_failure = match r.get_u8("BatchOut.first_failure")? {
        0 => None,
        1 => Some((
            r.get_u64("BatchOut.failure_shot")?,
            r.get_str("BatchOut.failure_message")?,
        )),
        tag => {
            return Err(WireError::UnknownTag {
                what: "BatchOut.first_failure",
                tag,
            })
        }
    };
    let elapsed_ns = r.get_u64("BatchOut.elapsed_ns")?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after batch result",
            r.remaining()
        )));
    }
    Ok(BatchOut {
        histogram,
        stats,
        prob1_sum,
        latency,
        non_halted,
        first_failure,
        elapsed_ns,
    })
}

// ---------------------------------------------------------------------
// Frames and messages
// ---------------------------------------------------------------------

/// Message tags carried in the frame header.
pub mod tag {
    /// Client → worker: magic + version.
    pub const HELLO: u8 = 1;
    /// Worker → client: magic + version + capacity + name.
    pub const HELLO_ACK: u8 = 2;
    /// Worker → client: the range's [`crate::BatchOut`].
    pub const BATCH: u8 = 4;
    /// Either direction: a typed failure.
    pub const ERROR: u8 = 5;
    /// Client → worker: liveness probe.
    pub const PING: u8 = 6;
    /// Worker → client: liveness answer.
    pub const PONG: u8 = 7;
    /// Client → worker: register a job's encoded bytes under a
    /// client-chosen id in the worker's job cache.
    pub const LOAD_JOB: u8 = 8;
    /// Worker → client: the job loaded and validated.
    pub const LOAD_ACK: u8 = 9;
    /// Client → worker: run a shot range of a previously loaded job,
    /// named by id — constant-size, however large the program.
    pub const RUN_RANGE_BY_ID: u8 = 10;
    /// Server → client: PSK challenge (sent instead of `HELLO_ACK`
    /// when the server requires authentication).
    pub const AUTH_CHALLENGE: u8 = 11;
    /// Client → server: nonce + proof answering a challenge.
    pub const AUTH_RESPONSE: u8 = 12;
    /// Server → client: the server's own proof (mutual auth), after
    /// which the delayed `HELLO_ACK` follows.
    pub const AUTH_OK: u8 = 13;
    /// (Serve front door) Client → coordinator: a tenant-tagged
    /// submission for the job queue.
    pub const SUBMIT: u8 = 16;
    /// Coordinator → client: ids of the jobs a submission expanded to.
    pub const SUBMIT_ACK: u8 = 17;
    /// Client → coordinator: one point-in-time snapshot of a job.
    pub const POLL: u8 = 18;
    /// Coordinator → client: an encoded
    /// [`crate::PartialResult`] snapshot.
    pub const SNAPSHOT: u8 = 19;
    /// Client → coordinator: stream snapshots of a job until it
    /// completes, then its final result.
    pub const SUBSCRIBE: u8 = 20;
    /// Coordinator → client: an encoded final [`crate::JobResult`],
    /// ending a subscription (or answering a wait).
    pub const RESULT: u8 = 21;
}

/// Assembles one frame — `u32` length (tag byte + payload), tag,
/// payload — into a single contiguous buffer. This is the one encode
/// path: [`write_frame`] writes its output to a blocking stream, and
/// the reactor queues it (behind an [`std::sync::Arc`]) on per-peer
/// [`FrameWriter`]s, so a snapshot fanned out to thousands of
/// subscribers is encoded exactly once.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = payload.len() as u64 + 1;
    if len > MAX_FRAME_LEN as u64 {
        return Err(WireError::FrameTooLarge {
            len: len as u32,
            cap: MAX_FRAME_LEN,
        });
    }
    let mut buf = Vec::with_capacity(payload.len() + 5);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Writes one frame: `u32` length (tag byte + payload), tag, payload.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), WireError> {
    let buf = encode_frame(tag, payload)?;
    w.write_all(&buf)?;
    w.flush()?;
    crate::metrics::record_frame(crate::metrics::FrameDir::Out, tag, buf.len() as u64);
    Ok(())
}

/// Reads one frame, returning `(tag, payload)`, under the global
/// [`MAX_FRAME_LEN`] cap. A peer that closes the connection cleanly
/// before any frame surfaces as [`WireError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    read_frame_limit(r, MAX_FRAME_LEN)
}

/// [`read_frame`] under an explicit per-connection frame cap — how a
/// worker or serve acceptor enforces its configured frame budget
/// (`max_len` is clamped to the global [`MAX_FRAME_LEN`]). The cap is
/// checked against the length *prefix*, before any payload is read or
/// allocated, so an over-budget (or corrupt) length costs nothing.
pub fn read_frame_limit(r: &mut impl Read, max_len: u32) -> Result<(u8, Vec<u8>), WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = validate_frame_len(len_bytes, max_len)?;
    // Tag byte first, payload straight into its own buffer: frames
    // carry whole jobs and per-shot duration vectors, so an
    // extract-the-tag shift of the body would be an O(frame) copy on
    // every request and response.
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)?;
    crate::metrics::record_frame(crate::metrics::FrameDir::In, tag[0], len as u64 + 4);
    Ok((tag[0], payload))
}

/// Validates a frame's 4-byte length prefix against a per-connection
/// cap (clamped to the global [`MAX_FRAME_LEN`]), returning the body
/// length (tag byte + payload). The one place the header is judged:
/// both the blocking [`read_frame_limit`] and the incremental
/// [`FrameReader`] call through here, so the two paths cannot drift on
/// what counts as a well-formed frame.
fn validate_frame_len(len_bytes: [u8; 4], max_len: u32) -> Result<u32, WireError> {
    let cap = max_len.min(MAX_FRAME_LEN);
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(WireError::Invalid("zero-length frame".to_owned()));
    }
    if len > cap {
        return Err(WireError::FrameTooLarge { len, cap });
    }
    Ok(len)
}

/// Incremental frame decoder for nonblocking sockets: bytes arrive in
/// whatever slices the kernel hands back across `EWOULDBLOCK`
/// boundaries, and [`FrameReader::next_frame`] yields each complete
/// `(tag, payload)` exactly as the blocking [`read_frame_limit`] would
/// have (same header validation via the shared length check, same
/// metrics) — property-tested decode-identical under byte-at-a-time
/// and random-split delivery.
///
/// The cap is enforced against the length *prefix* the moment its 4
/// bytes are available, before any payload accumulates, so an
/// over-budget peer is rejected without buying a giant buffer.
#[derive(Debug)]
pub struct FrameReader {
    cap: u32,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// once the parsed-out prefix dominates the buffer.
    start: usize,
}

impl FrameReader {
    /// A reader enforcing `max_len` (clamped to [`MAX_FRAME_LEN`]) on
    /// every frame, like [`read_frame_limit`].
    pub fn new(max_len: u32) -> FrameReader {
        FrameReader {
            cap: max_len.min(MAX_FRAME_LEN),
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Appends freshly-read bytes to the accumulation buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are
    /// needed, or the same typed errors the blocking reader raises
    /// (zero-length, over-cap). Errors are sticky in practice — the
    /// caller drops the connection, exactly as the blocking path does.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = validate_frame_len([avail[0], avail[1], avail[2], avail[3]], self.cap)?;
        if avail.len() < 4 + len as usize {
            self.compact();
            return Ok(None);
        }
        let tag = avail[4];
        let payload = avail[5..4 + len as usize].to_vec();
        self.start += 4 + len as usize;
        self.compact();
        crate::metrics::record_frame(crate::metrics::FrameDir::In, tag, len as u64 + 4);
        Ok(Some((tag, payload)))
    }

    /// Drops the consumed prefix once it outweighs the live remainder,
    /// keeping the buffer from growing with connection lifetime while
    /// amortising the memmove.
    fn compact(&mut self) {
        if self.start > 4096 && self.start >= self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Bounded outbound frame queue for nonblocking sockets: frames are
/// queued fully assembled (see [`encode_frame`]) behind `Arc`s — so one
/// snapshot encoding is shared by every subscriber — and drained by
/// [`FrameWriter::flush_into`] as the socket accepts bytes, tracking a
/// partial-write offset across `EWOULDBLOCK`. The byte cap turns a
/// persistently slow peer into a backpressure disconnect (the caller's
/// move when [`FrameWriter::enqueue`] refuses) instead of unbounded
/// buffering or a blocked reactor.
#[derive(Debug)]
pub struct FrameWriter {
    queue: std::collections::VecDeque<std::sync::Arc<Vec<u8>>>,
    /// Bytes of the front frame already written to the socket.
    front_written: usize,
    queued_bytes: usize,
    max_queued_bytes: usize,
}

impl FrameWriter {
    /// A writer refusing to queue beyond `max_queued_bytes` of
    /// not-yet-flushed frame data.
    pub fn new(max_queued_bytes: usize) -> FrameWriter {
        FrameWriter {
            queue: std::collections::VecDeque::new(),
            front_written: 0,
            queued_bytes: 0,
            max_queued_bytes,
        }
    }

    /// Queues one assembled frame. Returns `false` — frame *not*
    /// queued — when doing so would exceed the byte cap while other
    /// frames are already pending; the connection is then hopelessly
    /// behind and should be disconnected. A single frame larger than
    /// the cap is still accepted on an empty queue so the cap bounds
    /// *backlog*, not frame size (frame size has its own budget).
    #[must_use]
    pub fn enqueue(&mut self, frame: std::sync::Arc<Vec<u8>>) -> bool {
        if !self.queue.is_empty() && self.queued_bytes + frame.len() > self.max_queued_bytes {
            return false;
        }
        self.queued_bytes += frame.len();
        self.queue.push_back(frame);
        true
    }

    /// Whether any frame bytes await the socket.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Bytes queued and not yet written.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes - self.front_written
    }

    /// Writes queued frames until the queue drains or the socket stops
    /// accepting bytes. Returns `Ok(true)` when nothing remains
    /// pending, `Ok(false)` on `EWOULDBLOCK` (caller keeps writable
    /// interest armed), and `Err` on real transport failures.
    /// Per-frame metrics are recorded as each frame finishes hitting
    /// the socket, mirroring the blocking [`write_frame`].
    pub fn flush_into(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while let Some(front) = self.queue.front() {
            while self.front_written < front.len() {
                let n = match w.write(&front[self.front_written..]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                self.front_written += n;
            }
            crate::metrics::record_frame(
                crate::metrics::FrameDir::Out,
                front[4],
                front.len() as u64,
            );
            self.queued_bytes -= front.len();
            self.front_written = 0;
            self.queue.pop_front();
        }
        Ok(true)
    }
}

/// The client half of the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The protocol version the client speaks; the server accepts
    /// only its own [`PROTOCOL_VERSION`].
    pub version: u16,
}

impl Hello {
    /// Encodes the hello payload (magic + version).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u16(self.version);
        w.into_bytes()
    }

    /// Decodes and validates a hello payload.
    pub fn decode(bytes: &[u8]) -> Result<Hello, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4, "Hello.magic")?;
        if magic != MAGIC {
            return Err(WireError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        Ok(Hello {
            version: r.get_u16("Hello.version")?,
        })
    }
}

/// The worker half of the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The server's protocol version — equal to the client's offer,
    /// or the server would have sent a `Version` error instead.
    pub version: u16,
    /// How many ranges the worker is willing to run concurrently
    /// (clients typically open this many connections).
    pub capacity: u32,
    /// The worker's self-reported name, for diagnostics.
    pub name: String,
}

impl HelloAck {
    /// Encodes the acknowledgement payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u16(self.version);
        w.put_u32(self.capacity);
        w.put_str(&self.name);
        w.into_bytes()
    }

    /// Decodes and validates an acknowledgement payload.
    pub fn decode(bytes: &[u8]) -> Result<HelloAck, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4, "HelloAck.magic")?;
        if magic != MAGIC {
            return Err(WireError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        Ok(HelloAck {
            version: r.get_u16("HelloAck.version")?,
            capacity: r.get_u32("HelloAck.capacity")?,
            name: r.get_str("HelloAck.name")?,
        })
    }
}

/// Registers a job's encoded bytes under a client-chosen id in the
/// worker's capacity-bounded job cache, so later
/// [`RunRangeById`] requests can name it without re-shipping the
/// bytes. Ids are scoped to the connection (a fresh connection starts
/// with an empty cache), so a simple counter on the client side is
/// collision-free by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadJob {
    /// The id later ranges will use.
    pub job_id: u64,
    /// The [`encode_job`] bytes of the job.
    pub job_bytes: Vec<u8>,
}

impl LoadJob {
    /// Encodes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        LoadJob::encode_parts(self.job_id, &self.job_bytes)
    }

    /// Encodes a request payload from borrowed job bytes — the
    /// client keeps one cached encoding per job and must not clone it
    /// just to build the load frame.
    pub fn encode_parts(job_id: u64, job_bytes: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.reserve(8 + 4 + job_bytes.len());
        w.put_u64(job_id);
        w.put_bytes(job_bytes);
        w.into_bytes()
    }

    /// Decodes a request payload.
    pub fn decode(bytes: &[u8]) -> Result<LoadJob, WireError> {
        let mut r = Reader::new(bytes);
        Ok(LoadJob {
            job_id: r.get_u64("LoadJob.job_id")?,
            job_bytes: r.get_bytes("LoadJob.job_bytes")?,
        })
    }
}

/// Acknowledges a [`LoadJob`]: the job decoded, validated and is
/// cached under `job_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadAck {
    /// The id the job is cached under.
    pub job_id: u64,
    /// Jobs resident in this connection's cache after the load —
    /// lets a client observe eviction pressure without a second
    /// round trip.
    pub cached: u32,
}

impl LoadAck {
    /// Encodes the acknowledgement payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.job_id);
        w.put_u32(self.cached);
        w.into_bytes()
    }

    /// Decodes an acknowledgement payload.
    pub fn decode(bytes: &[u8]) -> Result<LoadAck, WireError> {
        let mut r = Reader::new(bytes);
        Ok(LoadAck {
            job_id: r.get_u64("LoadAck.job_id")?,
            cached: r.get_u32("LoadAck.cached")?,
        })
    }
}

/// Runs shots `start..end` of the job cached under `job_id`. A worker
/// that no longer holds the id answers [`ErrorKind::JobNotLoaded`],
/// and the client re-loads transparently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRangeById {
    /// The id a previous [`LoadJob`] registered.
    pub job_id: u64,
    /// First shot index of the range.
    pub start: u64,
    /// One past the last shot index.
    pub end: u64,
}

impl RunRangeById {
    /// Encodes the request payload (always 24 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.job_id);
        w.put_u64(self.start);
        w.put_u64(self.end);
        w.into_bytes()
    }

    /// Decodes a request payload.
    pub fn decode(bytes: &[u8]) -> Result<RunRangeById, WireError> {
        let mut r = Reader::new(bytes);
        Ok(RunRangeById {
            job_id: r.get_u64("RunRangeById.job_id")?,
            start: r.get_u64("RunRangeById.start")?,
            end: r.get_u64("RunRangeById.end")?,
        })
    }
}

/// The server half of the PSK challenge: a fresh random nonce the
/// client must bind into its proof (which is what makes a captured
/// proof worthless on any other connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthChallenge {
    /// The server's nonce for this connection.
    pub server_nonce: Vec<u8>,
}

impl AuthChallenge {
    /// Encodes the challenge payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.server_nonce);
        w.into_bytes()
    }

    /// Decodes a challenge payload.
    pub fn decode(bytes: &[u8]) -> Result<AuthChallenge, WireError> {
        let mut r = Reader::new(bytes);
        Ok(AuthChallenge {
            server_nonce: r.get_bytes("AuthChallenge.server_nonce")?,
        })
    }
}

/// The client's answer to an [`AuthChallenge`]: its own nonce plus
/// `HMAC-SHA-256(psk, client-context ‖ server_nonce ‖ client_nonce)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthResponse {
    /// The client's nonce (binds the server's return proof).
    pub client_nonce: Vec<u8>,
    /// The client's HMAC proof over both nonces.
    pub proof: Vec<u8>,
}

impl AuthResponse {
    /// Encodes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.client_nonce);
        w.put_bytes(&self.proof);
        w.into_bytes()
    }

    /// Decodes a response payload.
    pub fn decode(bytes: &[u8]) -> Result<AuthResponse, WireError> {
        let mut r = Reader::new(bytes);
        Ok(AuthResponse {
            client_nonce: r.get_bytes("AuthResponse.client_nonce")?,
            proof: r.get_bytes("AuthResponse.proof")?,
        })
    }
}

/// The server's return proof (mutual authentication), computed under
/// a distinct domain-separation context so it can never be satisfied
/// by reflecting the client's own proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthOk {
    /// The server's HMAC proof over both nonces.
    pub proof: Vec<u8>,
}

impl AuthOk {
    /// Encodes the proof payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.proof);
        w.into_bytes()
    }

    /// Decodes a proof payload.
    pub fn decode(bytes: &[u8]) -> Result<AuthOk, WireError> {
        let mut r = Reader::new(bytes);
        Ok(AuthOk {
            proof: r.get_bytes("AuthOk.proof")?,
        })
    }
}

/// What kind of failure an [`ErrorMsg`] reports — the split decides
/// the coordinator's reaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The job's program failed machine validation on the worker. The
    /// same program fails everywhere: the job is failed, not retried.
    Load,
    /// The worker hit an internal fault running the range. Another
    /// backend may succeed: the range is re-dispatched.
    Internal,
    /// The peer speaks an incompatible protocol version.
    Version,
    /// The peer sent bytes this version cannot interpret.
    Malformed,
    /// A [`RunRangeById`] named a job id this worker does not
    /// have loaded — never sent, or evicted from the job cache. The
    /// client recovers transparently: re-send [`LoadJob`], retry the
    /// range. Not a failure of the job or the connection.
    JobNotLoaded,
    /// The peer failed pre-shared-key authentication (wrong or
    /// missing key, or a proof that does not match this connection's
    /// nonces — e.g. a replay of an old handshake).
    AuthFailed,
    /// The request was rejected by a resource budget: a frame larger
    /// than this connection's cap, a request rate above the
    /// per-connection budget, or a submission past an admission cap.
    /// The work itself may be fine — the caller should back off,
    /// shrink, or spread the load.
    Budget,
}

impl ErrorKind {
    fn encode(self) -> u8 {
        match self {
            ErrorKind::Load => 0,
            ErrorKind::Internal => 1,
            ErrorKind::Version => 2,
            ErrorKind::Malformed => 3,
            ErrorKind::JobNotLoaded => 4,
            ErrorKind::AuthFailed => 5,
            ErrorKind::Budget => 6,
        }
    }

    fn decode(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => ErrorKind::Load,
            1 => ErrorKind::Internal,
            2 => ErrorKind::Version,
            3 => ErrorKind::Malformed,
            4 => ErrorKind::JobNotLoaded,
            5 => ErrorKind::AuthFailed,
            6 => ErrorKind::Budget,
            tag => {
                return Err(WireError::UnknownTag {
                    what: "ErrorKind",
                    tag,
                })
            }
        })
    }
}

/// A typed failure sent instead of the expected response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// The failure class.
    pub kind: ErrorKind,
    /// The sender's protocol version (meaningful for
    /// [`ErrorKind::Version`]; zero otherwise is fine).
    pub version: u16,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorMsg {
    /// The payload of an `ERROR` frame this build sends.
    pub(crate) fn payload(kind: ErrorKind, message: String) -> Vec<u8> {
        ErrorMsg {
            kind,
            version: PROTOCOL_VERSION,
            message,
        }
        .encode()
    }

    /// Encodes the error payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.kind.encode());
        w.put_u16(self.version);
        w.put_str(&self.message);
        w.into_bytes()
    }

    /// Decodes an error payload.
    pub fn decode(bytes: &[u8]) -> Result<ErrorMsg, WireError> {
        let mut r = Reader::new(bytes);
        Ok(ErrorMsg {
            kind: ErrorKind::decode(r.get_u8("ErrorMsg.kind")?)?,
            version: r.get_u16("ErrorMsg.version")?,
            message: r.get_str("ErrorMsg.message")?,
        })
    }
}

impl fmt::Display for ErrorMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::Load => write!(f, "program load failed: {}", self.message),
            ErrorKind::Internal => write!(f, "worker fault: {}", self.message),
            ErrorKind::Version => write!(
                f,
                "protocol version mismatch (peer speaks v{}): {}",
                self.version, self.message
            ),
            ErrorKind::Malformed => write!(f, "malformed frame: {}", self.message),
            ErrorKind::JobNotLoaded => write!(f, "job not loaded: {}", self.message),
            ErrorKind::AuthFailed => write!(f, "authentication failed: {}", self.message),
            ErrorKind::Budget => write!(f, "budget exceeded: {}", self.message),
        }
    }
}

/// A canonical fingerprint of an encoded job, used by worker-side
/// caches and diagnostics. FNV-1a over the job bytes; collisions only
/// affect *logging*, never correctness (caches compare full bytes).
pub fn job_fingerprint(job_bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in job_bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fingerprint over a result's **deterministic** fields only —
/// name, shot count, histogram, machine stats, mean populations,
/// non-halted count and first failure. Wall-clock fields (latencies,
/// elapsed, shots/sec) are excluded, so two runs of the same job
/// fingerprint identically however they were scheduled; `eqasm-cli
/// watch` prints it so scripts can assert bit-identical results
/// across processes (e.g. a broken-and-resumed watch vs an unbroken
/// one in CI).
pub fn result_fingerprint(res: &crate::JobResult) -> u64 {
    let mut w = Writer::new();
    w.put_str(&res.name);
    w.put_u64(res.shots);
    put_histogram(&mut w, &res.histogram);
    put_run_stats(&mut w, &res.stats);
    put_f64_vec(&mut w, &res.mean_prob1);
    w.put_u64(res.non_halted);
    match &res.first_failure {
        None => w.put_u8(0),
        Some((shot, message)) => {
            w.put_u8(1);
            w.put_u64(*shot);
            w.put_str(message);
        }
    }
    job_fingerprint(&w.into_bytes())
}

// ---------------------------------------------------------------------
// Serve front door: submissions, snapshots, results
// ---------------------------------------------------------------------

fn put_latency_stats(w: &mut Writer, l: &LatencyStats) {
    w.put_u64(l.p50_ns);
    w.put_u64(l.p95_ns);
    w.put_u64(l.p99_ns);
    w.put_u64(l.mean_ns);
    w.put_u64(l.max_ns);
}

fn get_latency_stats(r: &mut Reader<'_>) -> Result<LatencyStats, WireError> {
    Ok(LatencyStats {
        p50_ns: r.get_u64("LatencyStats.p50_ns")?,
        p95_ns: r.get_u64("LatencyStats.p95_ns")?,
        p99_ns: r.get_u64("LatencyStats.p99_ns")?,
        mean_ns: r.get_u64("LatencyStats.mean_ns")?,
        max_ns: r.get_u64("LatencyStats.max_ns")?,
    })
}

fn put_duration_ns(w: &mut Writer, d: Duration) {
    // Saturating: a >584-year duration is an upstream bug, not a
    // reason to wrap into a wrong small number.
    w.put_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn put_opt_str(w: &mut Writer, s: Option<&str>) {
    match s {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn get_opt_str(r: &mut Reader<'_>, what: &'static str) -> Result<Option<String>, WireError> {
    match r.get_u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.get_str(what)?)),
        tag => Err(WireError::UnknownTag { what, tag }),
    }
}

fn put_f64_vec(w: &mut Writer, v: &[f64]) {
    w.put_u32(v.len() as u32);
    for &x in v {
        w.put_f64(x);
    }
}

fn get_f64_vec(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<f64>, WireError> {
    let n = r.get_count(what, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f64(what)?);
    }
    Ok(out)
}

/// Encodes a streaming [`PartialResult`] snapshot. Deterministic
/// fields (histogram, stats, mean-`P(|1⟩)`) cross by bit pattern, so
/// a snapshot read over the wire is the same exact prefix of the
/// final aggregate that an in-process poller would see.
pub fn encode_partial_result(p: &PartialResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&p.name);
    w.put_str(p.tenant.as_str());
    w.put_u64(p.shots_done);
    w.put_u64(p.shots_total);
    w.put_u64(p.batches_done as u64);
    w.put_u64(p.batches_total as u64);
    put_histogram(&mut w, &p.histogram);
    put_run_stats(&mut w, &p.stats);
    put_f64_vec(&mut w, &p.mean_prob1);
    put_latency_stats(&mut w, &p.latency);
    w.put_u64(p.non_halted);
    w.put_bool(p.done);
    put_opt_str(&mut w, p.failed.as_deref());
    put_duration_ns(&mut w, p.queue_wait);
    put_duration_ns(&mut w, p.active);
    w.into_bytes()
}

/// Decodes a [`PartialResult`] produced by [`encode_partial_result`].
pub fn decode_partial_result(bytes: &[u8]) -> Result<PartialResult, WireError> {
    let mut r = Reader::new(bytes);
    let p = PartialResult {
        name: r.get_str("PartialResult.name")?,
        tenant: TenantId::new(r.get_str("PartialResult.tenant")?),
        shots_done: r.get_u64("PartialResult.shots_done")?,
        shots_total: r.get_u64("PartialResult.shots_total")?,
        batches_done: r.get_u64("PartialResult.batches_done")? as usize,
        batches_total: r.get_u64("PartialResult.batches_total")? as usize,
        histogram: get_histogram(&mut r)?,
        stats: get_run_stats(&mut r)?,
        mean_prob1: get_f64_vec(&mut r, "PartialResult.mean_prob1")?,
        latency: get_latency_stats(&mut r)?,
        non_halted: r.get_u64("PartialResult.non_halted")?,
        done: r.get_bool("PartialResult.done")?,
        failed: get_opt_str(&mut r, "PartialResult.failed")?,
        queue_wait: Duration::from_nanos(r.get_u64("PartialResult.queue_wait_ns")?),
        active: Duration::from_nanos(r.get_u64("PartialResult.active_ns")?),
    };
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok(p)
}

/// Encodes a final [`JobResult`] for the client wire.
pub fn encode_job_result(res: &JobResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&res.name);
    w.put_u64(res.shots);
    put_histogram(&mut w, &res.histogram);
    put_run_stats(&mut w, &res.stats);
    put_f64_vec(&mut w, &res.mean_prob1);
    put_latency_histogram(&mut w, &res.latency);
    put_duration_ns(&mut w, res.elapsed);
    w.put_f64(res.shots_per_sec);
    w.put_u64(res.non_halted);
    match &res.first_failure {
        None => w.put_u8(0),
        Some((shot, message)) => {
            w.put_u8(1);
            w.put_u64(*shot);
            w.put_str(message);
        }
    }
    w.into_bytes()
}

/// Decodes a [`JobResult`] produced by [`encode_job_result`]. The
/// absolute wall-clock window (an `Instant` pair, meaningless off the
/// producing host) does not cross the wire.
pub fn decode_job_result(bytes: &[u8]) -> Result<JobResult, WireError> {
    let mut r = Reader::new(bytes);
    let name = r.get_str("JobResult.name")?;
    let shots = r.get_u64("JobResult.shots")?;
    let histogram = get_histogram(&mut r)?;
    let stats = get_run_stats(&mut r)?;
    let mean_prob1 = get_f64_vec(&mut r, "JobResult.mean_prob1")?;
    let latency = get_latency_histogram(&mut r)?;
    let elapsed = Duration::from_nanos(r.get_u64("JobResult.elapsed_ns")?);
    let shots_per_sec = r.get_f64("JobResult.shots_per_sec")?;
    let non_halted = r.get_u64("JobResult.non_halted")?;
    let first_failure = match r.get_u8("JobResult.first_failure")? {
        0 => None,
        1 => Some((
            r.get_u64("JobResult.failure_shot")?,
            r.get_str("JobResult.failure_message")?,
        )),
        tag => {
            return Err(WireError::UnknownTag {
                what: "JobResult.first_failure",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after job result",
            r.remaining()
        )));
    }
    Ok(JobResult {
        name,
        shots,
        histogram,
        stats,
        mean_prob1,
        latency,
        elapsed,
        shots_per_sec,
        window: None,
        non_halted,
        first_failure,
    })
}

fn put_workload_kind(w: &mut Writer, kind: &WorkloadKind) {
    match kind {
        WorkloadKind::Rabi {
            amplitudes,
            amplitude_index,
        } => {
            w.put_u8(0);
            put_f64_vec(w, amplitudes);
            w.put_u64(*amplitude_index as u64);
        }
        WorkloadKind::AllXy { round, init_cycles } => {
            w.put_u8(1);
            w.put_u64(*round as u64);
            w.put_u32(*init_cycles);
        }
        WorkloadKind::Rb {
            k,
            interval_cycles,
            sequence_seed,
        } => {
            w.put_u8(2);
            w.put_u64(*k as u64);
            w.put_u32(*interval_cycles);
            w.put_u64(*sequence_seed);
        }
        WorkloadKind::ActiveReset { init_cycles } => {
            w.put_u8(3);
            w.put_u32(*init_cycles);
        }
        WorkloadKind::Source { text } => {
            w.put_u8(4);
            w.put_str(text);
        }
        WorkloadKind::CliffordChain { qubits, layers } => {
            w.put_u8(5);
            w.put_u64(*qubits as u64);
            w.put_u32(*layers);
        }
    }
}

fn get_workload_kind(r: &mut Reader<'_>) -> Result<WorkloadKind, WireError> {
    Ok(match r.get_u8("WorkloadKind")? {
        0 => WorkloadKind::Rabi {
            amplitudes: get_f64_vec(r, "Rabi.amplitudes")?,
            amplitude_index: r.get_u64("Rabi.amplitude_index")? as usize,
        },
        1 => WorkloadKind::AllXy {
            round: r.get_u64("AllXy.round")? as usize,
            init_cycles: r.get_u32("AllXy.init_cycles")?,
        },
        2 => WorkloadKind::Rb {
            k: r.get_u64("Rb.k")? as usize,
            interval_cycles: r.get_u32("Rb.interval_cycles")?,
            sequence_seed: r.get_u64("Rb.sequence_seed")?,
        },
        3 => WorkloadKind::ActiveReset {
            init_cycles: r.get_u32("ActiveReset.init_cycles")?,
        },
        4 => WorkloadKind::Source {
            text: r.get_str("Source.text")?,
        },
        5 => {
            let qubits = r.get_u64("CliffordChain.qubits")?;
            let layers = r.get_u32("CliffordChain.layers")?;
            let qubits = usize::try_from(qubits).unwrap_or(usize::MAX);
            crate::workload::check_clifford_chain(qubits, layers)
                .map_err(|e| WireError::Invalid(e.to_string()))?;
            WorkloadKind::CliffordChain { qubits, layers }
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "WorkloadKind",
                tag,
            })
        }
    })
}

fn put_workload_spec(w: &mut Writer, spec: &WorkloadSpec) {
    w.put_str(&spec.name);
    put_workload_kind(w, &spec.kind);
    w.put_u64(spec.shots);
    w.put_u32(spec.weight);
    w.put_u64(spec.base_seed);
    put_sim_config(w, &spec.config);
}

/// The key a spec's shape is interned under in the queue's shape
/// table: the encoding of its [`WorkloadKind`] and [`SimConfig`], the
/// whole input of the shape's build.
pub(crate) fn spec_key(spec: &WorkloadSpec) -> Box<[u8]> {
    let mut w = Writer::new();
    put_workload_kind(&mut w, &spec.kind);
    put_sim_config(&mut w, &spec.config);
    w.buf.into()
}

fn get_workload_spec(r: &mut Reader<'_>) -> Result<WorkloadSpec, WireError> {
    Ok(WorkloadSpec {
        name: r.get_str("WorkloadSpec.name")?,
        kind: get_workload_kind(r)?,
        shots: r.get_u64("WorkloadSpec.shots")?,
        weight: r.get_u32("WorkloadSpec.weight")?,
        base_seed: r.get_u64("WorkloadSpec.base_seed")?,
        config: get_sim_config(r)?,
    })
}

/// Encodes a tenant-tagged [`Submission`] for the serve front door —
/// a prebuilt job or a declarative workload spec, exactly the same
/// two shapes the in-process `JobQueue::submit` accepts.
pub fn encode_submission(submission: &Submission) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.put_str(submission.tenant().as_str());
    match submission.work() {
        Work::Job(job) => {
            w.put_u8(0);
            let bytes = encode_job(job)?;
            w.put_bytes(&bytes);
        }
        Work::Spec(spec) => {
            w.put_u8(1);
            put_workload_spec(&mut w, spec);
        }
    }
    Ok(w.into_bytes())
}

/// Decodes a [`Submission`] produced by [`encode_submission`].
pub fn decode_submission(bytes: &[u8]) -> Result<Submission, WireError> {
    decode_submission_interned(bytes, &mut ShapeTable::default())
}

/// [`decode_submission`] with a job's shape interned in `shapes` (see
/// [`decode_job_interned`]).
pub(crate) fn decode_submission_interned(
    bytes: &[u8],
    shapes: &mut ShapeTable,
) -> Result<Submission, WireError> {
    let mut r = Reader::new(bytes);
    let tenant = TenantId::new(r.get_str("Submission.tenant")?);
    let submission = match r.get_u8("Submission.work")? {
        0 => {
            let len = r.get_u32("Submission.job_bytes")? as usize;
            let job_bytes = r.take(len, "Submission.job_bytes")?;
            Submission::job(tenant, decode_job_interned(job_bytes, shapes)?)
        }
        1 => Submission::workload(tenant, get_workload_spec(&mut r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "Submission.work",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after submission",
            r.remaining()
        )));
    }
    Ok(submission)
}

/// Identity of one job a remote submission expanded to, echoed in a
/// [`SubmitAck`]. The id is the coordinator's handle for later
/// `POLL`/`SUBSCRIBE` requests — global to the serve acceptor, so a
/// job submitted on one connection can be watched from another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteJobInfo {
    /// The coordinator-assigned job id.
    pub job_id: u64,
    /// The job's display name.
    pub name: String,
    /// Total shots the job was submitted with.
    pub shots: u64,
}

/// Acknowledges a `SUBMIT`: one entry per job the submission expanded
/// to (one for a prebuilt job, `weight` instances for a spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitAck {
    /// The jobs now queued, in expansion order.
    pub jobs: Vec<RemoteJobInfo>,
}

impl SubmitAck {
    /// Encodes the acknowledgement payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.jobs.len() as u32);
        for job in &self.jobs {
            w.put_u64(job.job_id);
            w.put_str(&job.name);
            w.put_u64(job.shots);
        }
        w.into_bytes()
    }

    /// Decodes an acknowledgement payload.
    pub fn decode(bytes: &[u8]) -> Result<SubmitAck, WireError> {
        let mut r = Reader::new(bytes);
        let n = r.get_count("SubmitAck.jobs", 20)?;
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            jobs.push(RemoteJobInfo {
                job_id: r.get_u64("RemoteJobInfo.job_id")?,
                name: r.get_str("RemoteJobInfo.name")?,
                shots: r.get_u64("RemoteJobInfo.shots")?,
            });
        }
        Ok(SubmitAck { jobs })
    }
}

/// Encodes the 8-byte job-id payload of a `POLL` or `SUBSCRIBE`.
pub fn encode_job_id(job_id: u64) -> Vec<u8> {
    job_id.to_le_bytes().to_vec()
}

/// Decodes the job-id payload of a `POLL` or `SUBSCRIBE`.
pub fn decode_job_id(bytes: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(bytes);
    let id = r.get_u64("job_id")?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after job id",
            r.remaining()
        )));
    }
    Ok(id)
}

/// A `SUBSCRIBE` request: which job to stream, and — when resuming a
/// dropped subscription — the last snapshot prefix the client already
/// folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscribe {
    /// The coordinator-assigned job id.
    pub job_id: u64,
    /// `Some(n)`: the client has already folded the snapshot with
    /// `batches_done == n`; the server replays only snapshots strictly
    /// past it (the final done-snapshot and `RESULT` always flow).
    /// `None`: a fresh subscription — every snapshot flows.
    pub resume_after: Option<u64>,
}

/// Encodes a `SUBSCRIBE` payload. Without a resume point this is the
/// bare 8-byte job id; with one it is 16 bytes (job id, then
/// last-folded `batches_done`).
pub fn encode_subscribe(sub: &Subscribe) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(sub.job_id);
    if let Some(after) = sub.resume_after {
        w.put_u64(after);
    }
    w.into_bytes()
}

/// Decodes a `SUBSCRIBE` payload, accepting both the 8-byte fresh form
/// and the 16-byte resume form.
pub fn decode_subscribe(bytes: &[u8]) -> Result<Subscribe, WireError> {
    let mut r = Reader::new(bytes);
    let job_id = r.get_u64("Subscribe.job_id")?;
    let resume_after = if r.remaining() != 0 {
        Some(r.get_u64("Subscribe.resume_after")?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after subscribe",
            r.remaining()
        )));
    }
    Ok(Subscribe {
        job_id,
        resume_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> Job {
        let inst = Instantiation::paper_two_qubit();
        let program = vec![
            Instruction::Smis {
                sd: SReg::new(2),
                mask: 0b100,
            },
            Instruction::QWait { cycles: 100 },
            Instruction::Stop,
        ];
        Job::new("wire-sample", inst, program)
            .with_shots(32)
            .with_seed(7)
    }

    #[test]
    fn job_roundtrip_is_exact() {
        let job = sample_job();
        let bytes = encode_job(&job).expect("encodes");
        let back = decode_job(&bytes).expect("decodes");
        assert_eq!(job, back);
        // Canonical: re-encoding the decoded job yields the same bytes.
        assert_eq!(bytes, encode_job(&back).expect("re-encodes"));
    }

    #[test]
    fn decoded_shape_wire_bytes_match_its_encoding() {
        let job = sample_job();
        let bytes = encode_job(&job).expect("encodes");
        let decoded = decode_job(&bytes).expect("decodes");
        let kept = decoded.shape.wire().expect("kept");
        assert_eq!(kept, &*encode_shape(&job.shape).expect("encodes"));
        assert_eq!(encode_job(&decoded).expect("encodes"), bytes);
    }

    #[test]
    fn interned_decode_shares_a_known_shape() {
        let job = sample_job();
        let mut shapes = ShapeTable::default();
        let first =
            decode_job_interned(&encode_job(&job).expect("encodes"), &mut shapes).expect("decodes");
        let renamed = Job {
            name: "another name".to_owned(),
            ..job.clone()
        }
        .with_shots(7)
        .with_seed(8);
        let bytes = encode_job(&renamed).expect("encodes");
        let second = decode_job_interned(&bytes, &mut shapes).expect("decodes");
        assert!(Arc::ptr_eq(&first.shape, &second.shape));
        assert_eq!(second, renamed, "name, shots and seed come from the bytes");
        // A known shape followed by trailing bytes is still rejected.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_job_interned(&trailing, &mut shapes).is_err());
    }

    #[test]
    fn surface7_instantiation_roundtrips() {
        let job = Job::new(
            "s7",
            Instantiation::paper(),
            vec![Instruction::Nop, Instruction::Stop],
        );
        let back = decode_job(&encode_job(&job).unwrap()).unwrap();
        assert_eq!(job.shape.inst(), back.shape.inst());
        assert_eq!(back.shape.inst().topology().num_pairs(), 16);
        assert!(back.shape.inst().ops().contains("MEASZ"));
        assert!(back.shape.inst().ops().by_name("C_X").is_ok());
    }

    #[test]
    fn truncated_job_reports_typed_error() {
        let bytes = encode_job(&sample_job()).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_job(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Invalid(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_job(&sample_job()).unwrap();
        bytes.push(0xff);
        assert!(matches!(decode_job(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn hello_magic_and_version() {
        let hello = Hello {
            version: PROTOCOL_VERSION,
        };
        let decoded = Hello::decode(&hello.encode()).unwrap();
        assert_eq!(decoded, hello);

        let mut corrupt = hello.encode();
        corrupt[0] = b'X';
        assert!(matches!(
            Hello::decode(&corrupt),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::PING, b"abc").unwrap();
        let (t, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(t, tag::PING);
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn oversized_frame_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_count_prefix_cannot_overallocate() {
        // A histogram claiming u32::MAX entries in a 30-byte payload
        // must fail on the count check, not try to allocate.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_u64(1);
        let err = get_histogram(&mut Reader::new(&w.into_bytes())).expect_err("rejects");
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
    }

    #[test]
    fn varint_roundtrips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice, "t").unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn load_job_ships_job_bytes_verbatim() {
        let bytes = encode_job(&sample_job()).unwrap();
        // Every id bit is id: the top bit carries no flag.
        for id in [0u64, 42, 1 << 63, u64::MAX] {
            let payload = LoadJob::encode_parts(id, &bytes);
            assert_eq!(payload.len(), 8 + 4 + bytes.len());
            assert_eq!(&payload[12..], &bytes[..]);
            let back = LoadJob::decode(&payload).unwrap();
            assert_eq!((back.job_id, &back.job_bytes), (id, &bytes));
        }
    }
}

//! The coordinator's write-ahead job journal: append-only, CRC-framed
//! segments that make [`crate::JobQueue`] state survive a `kill -9`.
//!
//! ## Why this is cheap here
//!
//! Execution is deterministic and batch-indexed (shot `i` runs under
//! `base_seed + i`; batch boundaries are a pure function of
//! `(shots, batch_size)`), so durable state does not need to capture
//! *execution* at all — only which jobs were admitted and which batch
//! ranges already folded. Recovery re-admits incomplete jobs, restores
//! the recorded ranges, and re-dispatches **only the missing ranges**;
//! the recovered aggregates are bit-identical to an uninterrupted run
//! because the fold is strictly batch-index-ordered either way.
//!
//! ## Record grammar
//!
//! A journal is a directory of segment files `segment-NNNNNNNN.eqjl`
//! (ascending indices). Each segment opens with an 8-byte header —
//! magic `EQJL`, a `u16` version, a reserved `u16` — followed by
//! records framed as:
//!
//! ```text
//! u32 len | u32 crc32(payload) | payload   (payload[0] is the tag)
//! ```
//!
//! Four record types (see `rtag`):
//!
//! * `Admit` — job id, the job's [`crate::wire::encode_job`] bytes
//!   (the same bytes a `LoadJob` ships), and the tenant name.
//! * `RangeDone` — job id, batch index, shot range, and the batch's
//!   encoded [`crate::BatchOut`]. Carrying the full batch result is
//!   what makes recovery exact *without re-executing done ranges*: the
//!   fold consumed the data, so the journal is the only place it
//!   still exists. Its latencies are a histogram, so the record's size
//!   does not grow with the range's shots.
//! * `Complete` — job id; terminal. The job (succeeded, failed, or
//!   evicted) leaves durable state and is never resurrected.
//! * `Checkpoint` — opens a compacted segment. Replay resets its state
//!   when it sees one, so a checkpointed segment **supersedes** every
//!   earlier segment even if deleting them failed mid-crash. It also
//!   carries the id high-water mark, so job ids stay stable across
//!   restarts even after compaction drops every record of a completed
//!   job.
//!
//! ## Fsync semantics
//!
//! Appends are framed and written by a dedicated journal thread — the
//! queue mutex is never held across file I/O. [`FsyncPolicy::Batch`]
//! (the default) group-commits: the thread drains every queued append,
//! issues one write, one fsync. `Every` fsyncs per record; `Off` never
//! fsyncs (the OS decides). Compaction and recovery always fsync
//! before retiring old segments, whatever the policy. Because appends
//! are asynchronous, a crash can lose the tail of very recent records
//! — recovery then re-runs those ranges, which is correct by
//! determinism; durability of *results handed to clients* is ensured
//! by flushing the journal before a completed job is released.
//!
//! ## Torn tails
//!
//! Only the **last** segment can legitimately end mid-record (the
//! crash happened during the write). Replay accepts a truncated or
//! CRC-failing final record there and stops cleanly; the same damage
//! anywhere else is a typed [`JournalError`] — corruption, not a torn
//! write — and recovery refuses to guess.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use crate::backend::BatchOut;
use crate::job::{Job, ShapeTable};
use crate::wire::{self, Reader, WireError, Writer};

/// Record tags (first payload byte).
pub(crate) mod rtag {
    /// A job entered the queue: id, job bytes, tenant.
    pub const ADMIT: u8 = 1;
    /// A batch range folded: id, batch index, range, encoded result.
    pub const RANGE_DONE: u8 = 2;
    /// A job left durable state (completed, failed, or evicted).
    pub const COMPLETE: u8 = 3;
    /// Opens a compacted segment; replay state resets here.
    pub const CHECKPOINT: u8 = 4;
}

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: [u8; 4] = *b"EQJL";

/// Segment format version. Version 3 ships `Admit` job bytes plain;
/// a segment of any other version is a typed
/// [`JournalError::BadHeader`].
const SEGMENT_VERSION: u16 = 3;

/// Segment header length: magic + version + reserved.
const HEADER_LEN: usize = 8;

/// Upper bound on one record's payload, mirroring the wire frame cap:
/// a corrupt length prefix must not trigger a giant allocation.
const MAX_RECORD_LEN: u32 = wire::MAX_FRAME_LEN;

/// When to fsync journal appends. Parsed from the CLI's
/// `--journal-fsync <every|batch|off>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — the widest durability, the slowest.
    Every,
    /// Group commit: drain all queued appends, one write, one fsync.
    /// The default; the overhead budget in `BENCH_runtime.json` is
    /// measured here.
    Batch,
    /// Never fsync on append (the OS flushes when it pleases).
    /// Compaction and recovery still fsync before deleting segments.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "every" => Some(FsyncPolicy::Every),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Every => "every",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        })
    }
}

/// Configuration of a job journal, handed to
/// [`crate::JobQueue::recover`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The journal directory (created if missing).
    pub dir: PathBuf,
    /// When appends reach the disk — see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Appended bytes below this floor never trigger compaction, so a
    /// small queue does not churn segments.
    pub compact_min_bytes: u64,
}

impl JournalConfig {
    /// A journal at `dir` with batched fsync and a 256 KiB compaction
    /// floor.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            compact_min_bytes: 256 * 1024,
        }
    }

    /// Returns the config with the given fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Returns the config with the given compaction floor.
    pub fn with_compact_min_bytes(mut self, bytes: u64) -> Self {
        self.compact_min_bytes = bytes;
        self
    }
}

/// Why opening or replaying a journal failed. Every defect in the
/// on-disk state is typed — a corrupt journal must be an error the
/// operator sees, never a panic and never silently-wrong recovery.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// The path being operated on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A segment file does not open with the `EQJL` header (or its
    /// version is unknown).
    BadHeader {
        /// The offending segment.
        segment: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A record failed its CRC or length check somewhere replay cannot
    /// attribute to a torn final write.
    Corrupt {
        /// The offending segment.
        segment: PathBuf,
        /// Byte offset of the bad record's frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A record's CRC passed but its payload did not decode — version
    /// skew or a logic bug, not bit rot.
    Record {
        /// The offending segment.
        segment: PathBuf,
        /// Byte offset of the bad record's frame.
        offset: u64,
        /// The decode failure.
        source: WireError,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O on {}: {source}", path.display())
            }
            JournalError::BadHeader { segment, detail } => {
                write!(f, "journal segment {}: {detail}", segment.display())
            }
            JournalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "journal segment {} corrupt at byte {offset}: {detail}",
                segment.display()
            ),
            JournalError::Record {
                segment,
                offset,
                source,
            } => write!(
                f,
                "journal segment {} record at byte {offset} undecodable: {source}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Record { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`crate::JobQueue::recover`] found and did. The CLI prints
/// it; tests assert on it.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segment files replayed.
    pub segments_replayed: usize,
    /// Records applied across all segments.
    pub records_replayed: u64,
    /// Incomplete jobs re-admitted into the fresh queue.
    pub jobs_recovered: usize,
    /// Folded batch ranges restored without re-execution.
    pub ranges_recovered: usize,
    /// Jobs with a durable `Complete` record, dropped (their results
    /// were already surfaced or released; resurrecting them would leak
    /// memory forever on every restart). Their ids come back released
    /// (no entry each), so later jobs keep their pre-crash ids.
    pub jobs_dropped: usize,
    /// Whether the final segment ended in a torn record (expected
    /// after a mid-write crash; the lost tail re-executes).
    pub torn_tail: bool,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — hand-rolled; no crc dep offline.
// ---------------------------------------------------------------------

/// The reflected IEEE CRC-32 of `data` (polynomial `0xEDB88320`), the
/// checksum guarding every record frame.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------

/// Builds an `Admit` payload.
pub(crate) fn admit_payload(job_id: u64, tenant: &str, job: &Job) -> Result<Vec<u8>, WireError> {
    let job_bytes = wire::encode_job(job)?;
    let mut w = Writer::new();
    w.put_u8(rtag::ADMIT);
    w.put_u64(job_id);
    w.put_bytes(&job_bytes);
    w.put_str(tenant);
    Ok(w.into_bytes())
}

/// Builds a `RangeDone` payload carrying the batch's full encoded
/// result.
pub(crate) fn range_done_payload(
    job_id: u64,
    batch: u32,
    range: &Range<u64>,
    out: &BatchOut,
) -> Vec<u8> {
    let out_bytes = wire::encode_batch_out(out);
    let mut w = Writer::new();
    w.put_u8(rtag::RANGE_DONE);
    w.put_u64(job_id);
    w.put_u32(batch);
    w.put_u64(range.start);
    w.put_u64(range.end);
    w.put_bytes(&out_bytes);
    w.into_bytes()
}

/// Builds a `Complete` payload.
pub(crate) fn complete_payload(job_id: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(rtag::COMPLETE);
    w.put_u64(job_id);
    w.into_bytes()
}

/// Builds a `Checkpoint` payload. `live_jobs` is diagnostic;
/// `next_job_id` is the id high-water mark — the first id the queue
/// may hand out after replaying this segment. Carrying it through
/// every checkpoint is what keeps job ids stable across restarts even
/// when every job below it has completed and been compacted away.
fn checkpoint_payload(live_jobs: u64, next_job_id: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(rtag::CHECKPOINT);
    w.put_u64(live_jobs);
    w.put_u64(next_job_id);
    w.into_bytes()
}

/// One decoded record.
enum Record {
    Admit {
        job_id: u64,
        tenant: String,
        // Boxed: a decoded Job dwarfs every other variant, and records
        // live briefly on the replay path only.
        job: Box<Job>,
    },
    RangeDone {
        job_id: u64,
        batch: u32,
        range: Range<u64>,
        out: Box<BatchOut>,
    },
    Complete {
        job_id: u64,
    },
    Checkpoint {
        next_job_id: u64,
    },
}

/// Decodes one record payload, interning job shapes in `shapes`.
fn decode_record(payload: &[u8], shapes: &mut ShapeTable) -> Result<Record, WireError> {
    let mut r = Reader::new(payload);
    let tag = r.get_u8("journal.tag")?;
    let record = match tag {
        rtag::ADMIT => {
            let job_id = r.get_u64("Admit.job_id")?;
            let len = r.get_u32("Admit.job_bytes")? as usize;
            let job_bytes = r.take(len, "Admit.job_bytes")?;
            Record::Admit {
                job_id,
                tenant: r.get_str("Admit.tenant")?,
                job: Box::new(wire::decode_job_interned(job_bytes, shapes)?),
            }
        }
        rtag::RANGE_DONE => {
            let job_id = r.get_u64("RangeDone.job_id")?;
            let batch = r.get_u32("RangeDone.batch")?;
            let start = r.get_u64("RangeDone.start")?;
            let end = r.get_u64("RangeDone.end")?;
            let out = Box::new(wire::decode_batch_out(&r.get_bytes("RangeDone.out")?)?);
            if Some(out.shots()) != end.checked_sub(start) {
                return Err(WireError::Invalid(format!(
                    "RangeDone: {} shots recorded for range {start}..{end}",
                    out.shots()
                )));
            }
            Record::RangeDone {
                job_id,
                batch,
                range: start..end,
                out,
            }
        }
        rtag::COMPLETE => Record::Complete {
            job_id: r.get_u64("Complete.job_id")?,
        },
        rtag::CHECKPOINT => {
            let _live = r.get_u64("Checkpoint.live_jobs")?;
            Record::Checkpoint {
                next_job_id: r.get_u64("Checkpoint.next_job_id")?,
            }
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "journal.record",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after journal record",
            r.remaining()
        )));
    }
    Ok(record)
}

/// Frames `payload` as an on-disk record.
fn frame_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// On-disk size of a record framing `payload`.
pub(crate) fn framed_len(payload: &[u8]) -> u64 {
    8 + payload.len() as u64
}

// ---------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.eqjl"))
}

/// Parses a segment filename back to its index.
fn segment_index(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment-")?.strip_suffix(".eqjl")?;
    (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        .then(|| rest.parse().ok())
        .flatten()
}

fn io_err(path: &Path, source: std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Lists the journal's segment files, ascending by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if let Some(index) = entry.file_name().to_str().and_then(segment_index) {
            out.push((index, entry.path()));
        }
    }
    out.sort_by_key(|(index, _)| *index);
    Ok(out)
}

/// Creates segment `index` (truncating any half-written leftover from
/// a crash), writes the header plus a `Checkpoint`, fsyncs, and
/// returns the open file positioned for appends.
fn create_segment(
    dir: &Path,
    index: u64,
    live_jobs: u64,
    next_job_id: u64,
) -> Result<File, JournalError> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err(&path, e))?;
    let mut buf = Vec::with_capacity(HEADER_LEN + 32);
    buf.extend_from_slice(&SEGMENT_MAGIC);
    buf.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    frame_record(&mut buf, &checkpoint_payload(live_jobs, next_job_id));
    file.write_all(&buf).map_err(|e| io_err(&path, e))?;
    file.sync_all().map_err(|e| io_err(&path, e))?;
    Ok(file)
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// One incomplete (or completed) job reconstructed from the journal.
#[derive(Debug)]
pub(crate) struct RecoveredJob {
    pub(crate) tenant: String,
    pub(crate) job: Job,
    /// Folded ranges by batch index, with their recorded results.
    pub(crate) done: BTreeMap<usize, (Range<u64>, BatchOut)>,
    pub(crate) completed: bool,
}

/// Everything [`replay_dir`] reconstructs.
#[derive(Debug)]
pub(crate) struct Replay {
    /// Jobs by journal id, ascending (admission order within a
    /// generation).
    pub(crate) jobs: BTreeMap<u64, RecoveredJob>,
    /// Segment files that fed this replay, ascending.
    pub(crate) segments: Vec<PathBuf>,
    /// Index the next (fresh) segment should use.
    pub(crate) next_segment: u64,
    /// The id high-water mark: one past the highest job id the journal
    /// has ever recorded (via `Admit` records and the checkpoint
    /// carry-over). Recovery reconstructs the id space up to here, so
    /// a restarted queue never re-issues a pre-crash id.
    pub(crate) next_job_id: u64,
    /// Whether the final segment ended in a torn record.
    pub(crate) torn_tail: bool,
    /// Records applied.
    pub(crate) records: u64,
    /// The recovered jobs' interned shapes.
    pub(crate) shapes: ShapeTable,
}

/// Replays every segment in `dir` (creating the directory if it does
/// not exist), tolerating a torn final record in the final segment
/// only. A `Checkpoint` record resets the accumulated state:
/// checkpointed segments supersede everything before them, so a crash
/// between "write compacted segment" and "delete old segments" is
/// harmless.
pub(crate) fn replay_dir(dir: &Path) -> Result<Replay, JournalError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let segments = list_segments(dir)?;
    let mut replay = Replay {
        jobs: BTreeMap::new(),
        segments: segments.iter().map(|(_, p)| p.clone()).collect(),
        next_segment: segments.last().map_or(0, |(i, _)| i + 1),
        next_job_id: 0,
        torn_tail: false,
        records: 0,
        shapes: ShapeTable::default(),
    };
    let last = segments.len().saturating_sub(1);
    for (pos, (_, path)) in segments.iter().enumerate() {
        let is_last = pos == last;
        let torn = replay_segment(path, is_last, &mut replay.shapes, &mut |record| {
            replay.records += 1;
            apply_record(&mut replay.jobs, &mut replay.next_job_id, record);
        })?;
        replay.torn_tail |= torn;
    }
    Ok(replay)
}

fn apply_record(jobs: &mut BTreeMap<u64, RecoveredJob>, next_job_id: &mut u64, record: Record) {
    match record {
        // A checkpoint clears accumulated *jobs* but the id
        // high-water mark is monotonic across generations: ids are
        // never reused, even for jobs compaction dropped entirely.
        Record::Checkpoint { next_job_id: hwm } => {
            jobs.clear();
            *next_job_id = (*next_job_id).max(hwm);
        }
        Record::Admit {
            job_id,
            tenant,
            job,
        } => {
            *next_job_id = (*next_job_id).max(job_id + 1);
            jobs.insert(
                job_id,
                RecoveredJob {
                    tenant,
                    job: *job,
                    done: BTreeMap::new(),
                    completed: false,
                },
            );
        }
        Record::RangeDone {
            job_id,
            batch,
            range,
            out,
        } => {
            // Stale ids (already completed, or from a lost Admit in a
            // torn tail) are ignored: the journal is an append log,
            // not a strict state machine, and replay must accept any
            // prefix of a valid history.
            if let Some(entry) = jobs.get_mut(&job_id) {
                if !entry.completed {
                    entry.done.entry(batch as usize).or_insert((range, *out));
                }
            }
        }
        Record::Complete { job_id } => {
            if let Some(entry) = jobs.get_mut(&job_id) {
                entry.completed = true;
                entry.done.clear();
            }
        }
    }
}

/// Parses one segment, calling `apply` per record. Returns whether the
/// segment ended in a torn (accepted) tail.
fn replay_segment(
    path: &Path,
    is_last: bool,
    shapes: &mut ShapeTable,
    apply: &mut dyn FnMut(Record),
) -> Result<bool, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < HEADER_LEN
        || bytes[..4] != SEGMENT_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != SEGMENT_VERSION
    {
        return Err(JournalError::BadHeader {
            segment: path.to_path_buf(),
            detail: "missing or unknown EQJL header".to_owned(),
        });
    }
    let mut offset = HEADER_LEN;
    // A torn tail is only believable where a crash could have left one:
    // the end of the final segment. The same damage mid-file or in an
    // earlier segment is corruption and must stop recovery with a
    // typed error rather than silently dropping records.
    let torn = |offset: usize, detail: &str| -> Result<bool, JournalError> {
        if is_last {
            Ok(true)
        } else {
            Err(JournalError::Corrupt {
                segment: path.to_path_buf(),
                offset: offset as u64,
                detail: detail.to_owned(),
            })
        }
    };
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            return torn(offset, "truncated record frame");
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_LEN {
            return torn(offset, "absurd record length");
        }
        let len = len as usize;
        if remaining - 8 < len {
            return torn(offset, "record extends past end of segment");
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            // A CRC failure on the very last record of the last
            // segment is indistinguishable from a torn write that got
            // the length down but not all the bytes; anywhere else it
            // is bit rot.
            if is_last && offset + 8 + len == bytes.len() {
                return Ok(true);
            }
            return Err(JournalError::Corrupt {
                segment: path.to_path_buf(),
                offset: offset as u64,
                detail: "CRC mismatch".to_owned(),
            });
        }
        let record = decode_record(payload, shapes).map_err(|source| JournalError::Record {
            segment: path.to_path_buf(),
            offset: offset as u64,
            source,
        })?;
        apply(record);
        offset += 8 + len;
    }
    Ok(false)
}

// ---------------------------------------------------------------------
// The journal thread
// ---------------------------------------------------------------------

/// Operations the queue sends to the journal thread.
enum Op {
    /// Append one framed record (payload includes the tag byte).
    Append(Vec<u8>),
    /// Rewrite live state into a fresh segment and retire older ones.
    Compact {
        payloads: Vec<Vec<u8>>,
        live_jobs: u64,
        next_job_id: u64,
    },
    /// Write and fsync everything queued so far, then ack whether the
    /// journal is actually durable (fsync succeeded, no append lost).
    Flush(mpsc::Sender<bool>),
    /// Flush, ack, and exit the thread.
    Shutdown(mpsc::Sender<bool>),
}

/// The queue's handle to its journal thread. Cloneable and cheap: all
/// methods are one channel send (plus a blocking ack for
/// [`JournalHandle::flush`] / [`JournalHandle::shutdown`]).
#[derive(Clone)]
pub(crate) struct JournalHandle {
    tx: mpsc::Sender<Op>,
}

impl JournalHandle {
    /// Queues one record for appending. Never blocks on I/O.
    pub(crate) fn append(&self, payload: Vec<u8>) {
        let _ = self.tx.send(Op::Append(payload));
    }

    /// Queues a compaction rewriting `payloads` (the live state) into
    /// a fresh segment whose checkpoint records `next_job_id` as the
    /// id high-water mark.
    pub(crate) fn compact(&self, payloads: Vec<Vec<u8>>, live_jobs: u64, next_job_id: u64) {
        let _ = self.tx.send(Op::Compact {
            payloads,
            live_jobs,
            next_job_id,
        });
    }

    /// Blocks until everything queued before this call is written and
    /// fsynced, returning whether durability was actually confirmed.
    /// `false` — a wedged journal thread, a >30 s disk stall, or a
    /// failed write/fsync — means the caller must NOT act as if the
    /// records are on disk (no releasing a completed job, no deleting
    /// replayed segments). The barrier the queue takes, once per
    /// release, before dropping completed jobs' last in-memory copies.
    #[must_use]
    pub(crate) fn flush(&self) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(Op::Flush(ack_tx)).is_ok()
            && ack_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or(false)
    }

    /// Flushes and stops the journal thread. Returns whether the final
    /// flush was confirmed durable (see [`JournalHandle::flush`]).
    pub(crate) fn shutdown(&self) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(Op::Shutdown(ack_tx)).is_ok()
            && ack_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or(false)
    }
}

/// A spawned journal: the handle plus the thread to join at shutdown.
pub(crate) struct Journal {
    pub(crate) handle: JournalHandle,
    pub(crate) thread: std::thread::JoinHandle<()>,
}

/// Opens a fresh segment (`Checkpoint` first, fsynced before this
/// returns) and starts the journal thread. Old segments are left in
/// place — the caller deletes them once the state it re-emitted into
/// the fresh segment is flushed.
pub(crate) fn spawn(
    config: &JournalConfig,
    next_segment: u64,
    next_job_id: u64,
) -> Result<Journal, JournalError> {
    std::fs::create_dir_all(&config.dir).map_err(|e| io_err(&config.dir, e))?;
    let file = create_segment(&config.dir, next_segment, 0, next_job_id)?;
    crate::metrics::rt().journal_fsyncs.inc();
    let (tx, rx) = mpsc::channel();
    let mut writer = SegmentWriter {
        dir: config.dir.clone(),
        fsync: config.fsync,
        file,
        index: next_segment,
        oldest: next_segment,
        append_failed: false,
    };
    let thread = std::thread::Builder::new()
        .name("eqasm-journal".to_owned())
        .spawn(move || writer.run(rx))
        .map_err(|e| io_err(&config.dir, e))?;
    Ok(Journal {
        handle: JournalHandle { tx },
        thread,
    })
}

/// The journal thread's state: the open tail segment and the fsync
/// policy.
struct SegmentWriter {
    dir: PathBuf,
    fsync: FsyncPolicy,
    file: File,
    index: u64,
    /// Oldest segment index this writer is responsible for deleting at
    /// the next compaction. Tracking it keeps each compaction's unlink
    /// sweep O(own segments) instead of re-unlinking every index since
    /// journal origin (almost all ENOENT) on every compaction.
    oldest: u64,
    /// Whether an append write failed since the last durable full
    /// rewrite. While set, flushes ack `false` — acknowledged records
    /// may be missing from disk, so durability-gated actions must not
    /// proceed. A *successful* compaction clears it: the fresh segment
    /// is rebuilt from in-memory state and supersedes the damage.
    append_failed: bool,
}

impl SegmentWriter {
    fn run(&mut self, rx: mpsc::Receiver<Op>) {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let Ok(op) = rx.recv() else {
                // Every handle dropped without an explicit shutdown
                // (queue teardown on a panic path): leave what was
                // written; nothing more can arrive.
                self.sync();
                return;
            };
            let mut pending = Vec::new();
            let mut terminal: Option<Op> = None;
            match op {
                Op::Append(p) => pending.push(p),
                other => terminal = Some(other),
            }
            // Group commit: drain whatever else is already queued so
            // one write + one fsync covers the lot. `Every` still
            // fsyncs per record below.
            if terminal.is_none() {
                loop {
                    match rx.try_recv() {
                        Ok(Op::Append(p)) => pending.push(p),
                        Ok(other) => {
                            terminal = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
            if !pending.is_empty() {
                let m = crate::metrics::rt();
                match self.fsync {
                    FsyncPolicy::Every => {
                        for p in &pending {
                            buf.clear();
                            frame_record(&mut buf, p);
                            self.write(&buf);
                            self.sync();
                            m.journal_appends.inc();
                            m.journal_bytes.add(framed_len(p));
                        }
                    }
                    FsyncPolicy::Batch | FsyncPolicy::Off => {
                        buf.clear();
                        for p in &pending {
                            frame_record(&mut buf, p);
                            m.journal_appends.inc();
                            m.journal_bytes.add(framed_len(p));
                        }
                        self.write(&buf);
                        if self.fsync == FsyncPolicy::Batch {
                            self.sync();
                        }
                    }
                }
            }
            match terminal {
                None => {}
                Some(Op::Append(_)) => unreachable!("appends handled above"),
                Some(Op::Compact {
                    payloads,
                    live_jobs,
                    next_job_id,
                }) => self.compact(payloads, live_jobs, next_job_id),
                Some(Op::Flush(ack)) => {
                    let durable = self.sync() && !self.append_failed;
                    let _ = ack.send(durable);
                }
                Some(Op::Shutdown(ack)) => {
                    let durable = self.sync() && !self.append_failed;
                    let _ = ack.send(durable);
                    return;
                }
            }
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        if let Err(e) = self.file.write_all(bytes) {
            // The journal must never take the coordinator down; a
            // failing disk degrades durability, not service. The
            // operator sees it here and in a short (torn) journal, and
            // flushes ack non-durable until a compaction rewrites the
            // lost records from memory.
            self.append_failed = true;
            eprintln!("eqasm journal: write to segment {} failed: {e}", self.index);
        }
    }

    fn sync(&mut self) -> bool {
        match self.file.sync_all() {
            Ok(()) => {
                crate::metrics::rt().journal_fsyncs.inc();
                true
            }
            Err(e) => {
                eprintln!("eqasm journal: fsync of segment {} failed: {e}", self.index);
                false
            }
        }
    }

    /// Writes `payloads` (the queue's live state) into segment
    /// `index + 1` behind a `Checkpoint`, fsyncs it, then deletes the
    /// segments this writer produced before it (`oldest..next`).
    /// Crash-safe at any point: replay resets on the checkpoint, so
    /// the old segments are dead weight the moment the new one is
    /// durable.
    fn compact(&mut self, payloads: Vec<Vec<u8>>, live_jobs: u64, next_job_id: u64) {
        let next = self.index + 1;
        let mut file = match create_segment(&self.dir, next, live_jobs, next_job_id) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("eqasm journal: compaction aborted: {e}");
                return;
            }
        };
        let m = crate::metrics::rt();
        m.journal_fsyncs.inc();
        let mut buf = Vec::new();
        for p in &payloads {
            frame_record(&mut buf, p);
            m.journal_appends.inc();
            m.journal_bytes.add(framed_len(p));
        }
        if let Err(e) = file.write_all(&buf).and_then(|()| file.sync_all()) {
            eprintln!("eqasm journal: compaction write failed: {e}");
            let _ = std::fs::remove_file(segment_path(&self.dir, next));
            return;
        }
        m.journal_fsyncs.inc();
        for index in self.oldest..next {
            let _ = std::fs::remove_file(segment_path(&self.dir, index));
        }
        self.file = file;
        self.index = next;
        self.oldest = next;
        // The fresh segment is a durable, complete rewrite of live
        // state: any append lost to an earlier write failure is now
        // either re-covered (live job) or irrelevant (terminal job
        // excluded from durable state), so flushes are trustworthy
        // again.
        self.append_failed = false;
        m.journal_compactions.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eqasm-journal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_job(shots: u64) -> Job {
        Job::new(
            "journal-sample",
            eqasm_core::Instantiation::paper_two_qubit(),
            vec![
                eqasm_core::Instruction::QWait { cycles: 40 },
                eqasm_core::Instruction::Stop,
            ],
        )
        .with_shots(shots)
        .with_seed(11)
    }

    fn sample_out(shots: u64) -> BatchOut {
        let mut histogram = crate::aggregate::Histogram::new();
        histogram.add(crate::aggregate::BitString::EMPTY, shots);
        let mut latency = crate::aggregate::LatencyHistogram::new();
        for i in 0..shots {
            latency.record(100 + i);
        }
        BatchOut {
            histogram,
            stats: Default::default(),
            prob1_sum: vec![0.25, 0.75],
            latency,
            non_halted: 0,
            first_failure: None,
            elapsed_ns: 12_345,
        }
    }

    /// Writes a segment holding `payloads` and returns its path.
    fn write_segment(dir: &Path, index: u64, payloads: &[Vec<u8>]) -> PathBuf {
        let mut file = create_segment(dir, index, 0, 0).expect("create segment");
        let mut buf = Vec::new();
        for p in payloads {
            frame_record(&mut buf, p);
        }
        file.write_all(&buf).expect("write records");
        file.sync_all().expect("sync");
        segment_path(dir, index)
    }

    #[test]
    fn records_roundtrip_through_a_segment() {
        let dir = temp_dir("roundtrip");
        let job = sample_job(64);
        let out = sample_out(32);
        write_segment(
            &dir,
            0,
            &[
                admit_payload(3, "cal", &job).unwrap(),
                range_done_payload(3, 0, &(0..32), &out),
                admit_payload(4, "batch", &job).unwrap(),
                complete_payload(4),
            ],
        );
        let replay = replay_dir(&dir).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.jobs.len(), 2);
        assert_eq!(replay.next_job_id, 5, "high-water mark = max admit id + 1");
        let j3 = &replay.jobs[&3];
        assert!(!j3.completed);
        assert_eq!(j3.tenant, "cal");
        assert_eq!(j3.job, job);
        assert_eq!(j3.done.len(), 1);
        let (range, rec) = &j3.done[&0];
        assert_eq!(*range, 0..32);
        assert_eq!(rec.histogram, out.histogram);
        assert_eq!(rec.latency, out.latency);
        assert!(replay.jobs[&4].completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_offset_of_the_final_record_recovers() {
        let dir = temp_dir("trunc");
        let job = sample_job(64);
        let payloads = vec![
            admit_payload(0, "t", &job).unwrap(),
            range_done_payload(0, 0, &(0..32), &sample_out(32)),
        ];
        let path = write_segment(&dir, 0, &payloads);
        let full = std::fs::read(&path).expect("read segment");
        // The final record's frame spans the last framed_len bytes.
        let final_frame = framed_len(&payloads[1]) as usize;
        let keep_min = full.len() - final_frame;
        for cut in keep_min..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let replay = replay_dir(&dir)
                .unwrap_or_else(|e| panic!("cut at {cut} must replay cleanly, got: {e}"));
            // The Admit before the torn record always survives; the
            // torn RangeDone never half-applies.
            assert_eq!(replay.jobs.len(), 1, "cut at {cut}");
            assert!(replay.jobs[&0].done.is_empty(), "cut at {cut}");
            // At cut == keep_min the final record is cleanly absent —
            // that is a valid short journal, not a torn one.
            assert_eq!(replay.torn_tail, cut > keep_min, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_segment_is_a_typed_bad_header() {
        // Version 2 (RLE-packed `Admit` job bytes) is refused like 1.
        for version in [1u16, 2] {
            let dir = temp_dir("old-version");
            let path = write_segment(&dir, 0, &[admit_payload(0, "t", &sample_job(8)).unwrap()]);
            let mut bytes = std::fs::read(&path).expect("read segment");
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).expect("rewrite header");
            match replay_dir(&dir) {
                Err(JournalError::BadHeader { segment, .. }) => assert_eq!(segment, path),
                other => panic!(
                    "v{version}: expected BadHeader, got {:?}",
                    other.map(|r| r.records)
                ),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A `RangeDone` record's size does not grow with its range: a
    /// 1-qubit RB batch stays under 1 KiB at 64 and at 65,536 shots.
    #[test]
    fn range_done_payload_is_small_at_any_range_length() {
        use crate::ExecBackend as _;
        let (inst, program) = crate::WorkloadKind::Rb {
            k: 8,
            interval_cycles: 20,
            sequence_seed: 5,
        }
        .build()
        .expect("builds");
        let job = Job::new("rb", inst, program)
            .with_shots(65_536)
            .with_seed(1);
        let mut backend = crate::LocalBackend::new(0);
        for shots in [64u64, 65_536] {
            let out = backend.run_range(&job, 0..shots).expect("runs");
            assert_eq!(out.shots(), shots);
            let batch = wire::encode_batch_out(&out).len();
            let record = range_done_payload(0, 0, &(0..shots), &out).len();
            assert!(batch < 1024, "BatchOut of {shots} shots is {batch} B");
            assert!(record < 1024, "RangeDone of {shots} shots is {record} B");
        }
    }

    #[test]
    fn replayed_jobs_of_one_shape_share_it() {
        let mut shapes = ShapeTable::default();
        let mut replay = |job_id, shots| {
            let payload = admit_payload(job_id, "t", &sample_job(shots)).expect("encodes");
            match decode_record(&payload, &mut shapes) {
                Ok(Record::Admit { job, .. }) => job.shape,
                _ => panic!("an Admit record"),
            }
        };
        let (first, second) = (replay(1, 8), replay(2, 16));
        assert!(std::sync::Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn range_done_with_the_wrong_shot_count_is_rejected() {
        let payload = range_done_payload(0, 0, &(0..33), &sample_out(32));
        assert!(matches!(
            decode_record(&payload, &mut ShapeTable::default()),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_a_typed_error() {
        let dir = temp_dir("corrupt");
        let job = sample_job(64);
        let path = write_segment(&dir, 0, &[admit_payload(0, "t", &job).unwrap()]);
        write_segment(&dir, 1, &[complete_payload(0)]);
        // Flip one byte inside segment 0's record region.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match replay_dir(&dir) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_segment_corruption_in_the_last_segment_is_typed_too() {
        let dir = temp_dir("corrupt-mid");
        let job = sample_job(64);
        let path = write_segment(
            &dir,
            0,
            &[admit_payload(0, "t", &job).unwrap(), complete_payload(0)],
        );
        // Corrupt the FIRST record (not the tail) of the only segment:
        // valid records follow, so this cannot be a torn write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match replay_dir(&dir) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_supersedes_earlier_segments() {
        let dir = temp_dir("checkpoint");
        let job = sample_job(64);
        // Segment 0: two jobs from a previous generation.
        write_segment(
            &dir,
            0,
            &[
                admit_payload(0, "old", &job).unwrap(),
                admit_payload(1, "old", &job).unwrap(),
            ],
        );
        // Segment 1 opens with a Checkpoint (create_segment writes
        // it): only its own records count.
        write_segment(&dir, 1, &[admit_payload(0, "new", &job).unwrap()]);
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[&0].tenant, "new");
        assert_eq!(replay.next_segment, 2);
        // The checkpoint cleared the old jobs, but the id high-water
        // mark is monotonic across generations.
        assert_eq!(replay.next_job_id, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checkpoint's `next_job_id` keeps the id space reserved even
    /// when every job below it was compacted away — the state a
    /// long-running coordinator's journal is usually in.
    #[test]
    fn checkpoint_carries_the_id_high_water_mark() {
        let dir = temp_dir("hwm");
        let mut file = create_segment(&dir, 0, 0, 17).expect("create segment");
        let mut buf = Vec::new();
        frame_record(&mut buf, &admit_payload(17, "t", &sample_job(8)).unwrap());
        file.write_all(&buf).expect("write");
        file.sync_all().expect("sync");
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.next_job_id, 18);

        // A bare checkpoint (no surviving admits at all) still
        // reserves the whole pre-crash id space.
        let dir2 = temp_dir("hwm-bare");
        create_segment(&dir2, 0, 0, 23).expect("create segment");
        let replay = replay_dir(&dir2).unwrap();
        assert!(replay.jobs.is_empty());
        assert_eq!(replay.next_job_id, 23);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip property: any mix of records written to a
        /// segment replays to exactly the state those records
        /// describe.
        #[test]
        fn journal_codec_roundtrips(
            shots in 1u64..2000,
            batches in 1usize..6,
            complete in any::<bool>(),
            tenant in "[a-z]{1,12}",
        ) {
            let dir = temp_dir("prop");
            let job = sample_job(shots);
            let mut payloads = vec![admit_payload(9, &tenant, &job).unwrap()];
            for b in 0..batches {
                let lo = (b as u64) * 10;
                payloads.push(range_done_payload(
                    9,
                    b as u32,
                    &(lo..lo + 10),
                    &sample_out(10),
                ));
            }
            if complete {
                payloads.push(complete_payload(9));
            }
            write_segment(&dir, 0, &payloads);
            let replay = replay_dir(&dir).unwrap();
            prop_assert_eq!(replay.jobs.len(), 1);
            let entry = &replay.jobs[&9];
            prop_assert_eq!(entry.completed, complete);
            prop_assert_eq!(&entry.job, &job);
            if complete {
                prop_assert!(entry.done.is_empty());
            } else {
                prop_assert_eq!(entry.done.len(), batches);
                prop_assert_eq!(&entry.tenant, &tenant);
                for b in 0..batches {
                    let lo = (b as u64) * 10;
                    prop_assert_eq!(entry.done[&b].0.clone(), lo..lo + 10);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Truncating the final record anywhere recovers cleanly with
        /// the prefix state (randomized twin of the exhaustive test
        /// above, over varying record shapes).
        #[test]
        fn torn_tail_always_recovers(
            shots in 1u64..500,
            cut_back in 1usize..40,
        ) {
            let dir = temp_dir("prop-torn");
            let job = sample_job(shots);
            let payloads = vec![
                admit_payload(1, "t", &job).unwrap(),
                range_done_payload(1, 0, &(0..shots), &sample_out(shots.min(64))),
            ];
            let path = write_segment(&dir, 0, &payloads);
            let full = std::fs::read(&path).unwrap();
            let final_frame = framed_len(&payloads[1]) as usize;
            let cut = full.len() - cut_back.min(final_frame);
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = replay_dir(&dir).unwrap();
            prop_assert_eq!(replay.jobs.len(), 1);
            prop_assert!(replay.torn_tail);
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Hostile bytes into the record decoder: arbitrary bytes
        /// decode or give a typed error; every strict prefix of each
        /// record kind is a typed error; a mutated byte gives a typed
        /// error or a record. Never a panic.
        #[test]
        fn decode_record_survives_hostile_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..160),
            cut_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let typed = |e: &WireError| {
                matches!(
                    e,
                    WireError::Truncated { .. } | WireError::Invalid(_) | WireError::UnknownTag { .. }
                )
            };
            if let Err(e) = decode_record(&bytes, &mut ShapeTable::default()) {
                prop_assert!(typed(&e), "untyped: {}", e);
            }
            for payload in [
                admit_payload(4, "tenant", &sample_job(16)).unwrap(),
                range_done_payload(4, 1, &(16..32), &sample_out(16)),
                complete_payload(4),
                checkpoint_payload(2, 5),
            ] {
                let cut = (cut_seed % payload.len() as u64) as usize;
                let err = decode_record(&payload[..cut], &mut ShapeTable::default()).err().expect("a strict prefix is an error");
                prop_assert!(typed(&err), "untyped: {}", err);
                let mut mutated = payload.clone();
                mutated[cut] ^= flip;
                if let Err(e) = decode_record(&mutated, &mut ShapeTable::default()) {
                    prop_assert!(typed(&e), "untyped: {}", e);
                }
            }
        }
    }

    /// A length prefix claiming far more bytes than the record holds is
    /// a `Truncated` error raised before anything is allocated for it.
    #[test]
    fn record_lengths_are_bounded_by_the_bytes_present() {
        let mut admit = vec![rtag::ADMIT];
        admit.extend(4u64.to_le_bytes());
        admit.extend(u32::MAX.to_le_bytes());
        admit.extend([1, 2]);
        let mut range_done = vec![rtag::RANGE_DONE];
        range_done.extend(4u64.to_le_bytes());
        range_done.extend(1u32.to_le_bytes());
        range_done.extend(0u64.to_le_bytes());
        range_done.extend(8u64.to_le_bytes());
        range_done.extend(u32::MAX.to_le_bytes());
        range_done.extend([1, 2]);
        for payload in [admit, range_done] {
            match decode_record(&payload, &mut ShapeTable::default()) {
                Err(WireError::Truncated { needed, have, .. }) => {
                    assert_eq!((needed, have), (u32::MAX as usize, 2));
                }
                other => panic!("expected Truncated, got {:?}", other.err()),
            }
        }
    }
}

//! Crash-recovery contracts of the durable coordinator: a queue killed
//! at *any* point and restarted from its write-ahead journal finishes
//! every job with aggregates bit-identical to an uninterrupted run.
//!
//! The tests simulate crashes at the file level: run a journaled queue
//! to completion, then replay recovery from every record-boundary
//! prefix of the segment it wrote — each prefix is exactly the on-disk
//! state a `kill -9` between two fold steps would have left (the
//! journal is append-only, so a crash image *is* a prefix). A cut in
//! the middle of the final record exercises the torn-tail path. The
//! recorded run paces every batch past
//! [`eqasm_runtime::journal::PROGRESS_INTERVAL`], so each fold of the
//! running job journals its prefix as a `Progress` record.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eqasm_asm::assemble;
use eqasm_core::Instantiation;
use eqasm_runtime::journal::PROGRESS_INTERVAL;
use eqasm_runtime::{
    BackendDescriptor, BatchOut, ExecBackend, Job, JobQueue, JournalConfig, JournalError,
    LocalBackend, RuntimeError, ServeConfig, ShotEngine, Submission,
};

/// A Clifford-only two-qubit program with genuinely random outcomes on
/// both measured qubits, so a recovery bug (lost range, double fold,
/// wrong seed offset) cannot hide behind a deterministic histogram.
/// The `wait` parameter varies the program shape.
fn clifford_program(wait: u32) -> String {
    format!(
        "SMIS S0, {{0}}
SMIS S1, {{1}}
SMIT T0, {{(0, 2)}}
QWAIT {wait}
H S0
CZ T0
X90 S1
MEASZ S0
MEASZ S1
QWAIT 50
STOP"
    )
}

fn clifford_job(name: &str, wait: u32, shots: u64, base_seed: u64) -> Job {
    let inst = Instantiation::paper_two_qubit();
    let program = assemble(&clifford_program(wait), &inst).expect("assembles");
    Job::new(name, inst, program.instructions().to_vec())
        .with_shots(shots)
        .with_seed(base_seed)
}

/// A fresh unique journal directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eqasm-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn local_pool(workers: usize) -> Vec<Box<dyn ExecBackend>> {
    (0..workers)
        .map(|i| Box::new(LocalBackend::new(i)) as Box<dyn ExecBackend>)
        .collect()
}

/// The ranges a [`Paced`] backend ran, in run order.
type RangeLog = Arc<Mutex<Vec<Range<u64>>>>;

/// A local backend that logs every range it runs and then sleeps for
/// `pause`: a pause of at least [`PROGRESS_INTERVAL`] makes every fold
/// of a running job journal a `Progress` record.
struct Paced {
    inner: LocalBackend,
    pause: Duration,
    ran: RangeLog,
}

impl Paced {
    /// A one-slot pool of `Paced`, and the log of the ranges it runs.
    fn pool(pause: Duration) -> (Vec<Box<dyn ExecBackend>>, RangeLog) {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let backend = Paced {
            inner: LocalBackend::new(0),
            pause,
            ran: Arc::clone(&ran),
        };
        (vec![Box::new(backend) as Box<dyn ExecBackend>], ran)
    }
}

impl ExecBackend for Paced {
    fn descriptor(&self) -> BackendDescriptor {
        self.inner.descriptor()
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        self.ran.lock().unwrap().push(range.clone());
        let out = self.inner.run_range(job, range)?;
        std::thread::sleep(self.pause);
        Ok(out)
    }
}

/// The journal record tags the tests look for.
const PROGRESS: u8 = 2;
const COMPLETE: u8 = 3;

fn serve_config() -> ServeConfig {
    ServeConfig::default().with_batch_size(25)
}

/// The sorted segment files of a journal directory.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir readable")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            path.extension()
                .is_some_and(|x| x == "eqjl")
                .then_some(path)
        })
        .collect();
    out.sort();
    out
}

/// Byte offsets of every record boundary in a segment: walking the
/// length-prefixed frames from the 8-byte header, each entry is the
/// offset just *after* one record — i.e. the file length a crash
/// between that record and the next would have left behind.
fn record_cuts(bytes: &[u8]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut off = 8;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        assert!(off <= bytes.len(), "segment frame overruns the file");
        cuts.push(off);
    }
    cuts
}

/// Walks a segment's records and returns, per record, the byte offset
/// just after it (a valid crash cut), its tag byte, and the first
/// `u64` of its payload (the job id for Admit/Progress/Complete; the
/// live-job count for Checkpoint).
fn records(bytes: &[u8]) -> Vec<(usize, u8, u64)> {
    let mut out = Vec::new();
    let mut off = 8;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let payload = &bytes[off + 8..off + 8 + len];
        let id = if payload.len() >= 9 {
            u64::from_le_bytes(payload[1..9].try_into().unwrap())
        } else {
            0
        };
        off += 8 + len;
        assert!(off <= bytes.len(), "segment frame overruns the file");
        out.push((off, payload[0], id));
    }
    out
}

/// Writes the first `len` bytes of `segment` as the sole segment of a
/// fresh journal directory — the crash image to recover from.
fn crash_image(tag: &str, segment: &[u8], len: usize) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("create crash-image dir");
    std::fs::write(dir.join("segment-00000000.eqjl"), &segment[..len]).expect("write crash image");
    dir
}

/// Runs one journaled clifford job (16 batches, each paced past
/// [`PROGRESS_INTERVAL`]) to completion and returns the bytes of the
/// single segment it left behind, plus the expected serial result for
/// comparison.
fn completed_run(tag: &str, wait: u32) -> (Vec<u8>, eqasm_runtime::JobResult, Job) {
    let dir = temp_dir(tag);
    let job = clifford_job(tag, wait, 400, 11);
    let jc = JournalConfig::new(&dir);
    let (pool, _) = Paced::pool(PROGRESS_INTERVAL + Duration::from_millis(5));
    let (queue, report) =
        JobQueue::recover(serve_config(), pool, &jc).expect("cold start recovers");
    assert_eq!(report.jobs_recovered, 0, "cold start has nothing to replay");
    let handles = queue
        .submit(Submission::job("tenant-r", job.clone()))
        .expect("submits");
    handles[0].wait().expect("completes");
    queue.shutdown();

    let segs = segments(&dir);
    assert_eq!(segs.len(), 1, "small run stays in one segment");
    let bytes = std::fs::read(&segs[0]).expect("read segment");
    let _ = std::fs::remove_dir_all(&dir);

    let serial = ShotEngine::serial()
        .with_batch_size(25)
        .run_job(&job)
        .expect("serial reference");
    (bytes, serial, job)
}

/// The tentpole acceptance check: crash the coordinator between every
/// fold step (every record-boundary prefix of the journal), recover,
/// finish the job, and require aggregates bit-identical to a serial
/// uninterrupted run — histogram, stats and mean P(1), not just counts.
#[test]
fn kill_between_every_fold_step_recovers_bit_identically() {
    let (bytes, serial, _job) = completed_run("killstep", 100);
    let cuts = record_cuts(&bytes);
    // Checkpoint + Admit + 15 Progress + Complete: every fold but the
    // last journals the prefix, and the last one journals Complete.
    assert_eq!(cuts.len(), 18, "expected record count for 400/25 shots");

    let mut recovered_runs = 0usize;
    for (i, &cut) in cuts.iter().enumerate() {
        let dir = crash_image("killstep-cut", &bytes, cut);
        let jc = JournalConfig::new(&dir);
        let (queue, report) =
            JobQueue::recover(serve_config(), local_pool(2), &jc).expect("recovers");
        assert!(!report.torn_tail, "record-boundary cuts are never torn");
        let handles = queue.job_handles();
        if report.jobs_recovered == 0 {
            if report.jobs_dropped == 0 {
                // Crash before the Admit record was durable: nothing
                // to resume, and critically nothing resurrected.
                assert!(handles.is_empty(), "no jobs expected at cut {i}");
            } else {
                // Crash after the Complete record: the finished job is
                // not resurrected, but its id stays issued (released)
                // so later ids can never shift.
                assert_eq!(handles.len(), 1, "released id expected at cut {i}");
                assert!(
                    handles[0].wait().is_err(),
                    "cut {i}: a released id holds no result"
                );
            }
        } else {
            assert_eq!(handles.len(), 1);
            let result = handles[0].wait().expect("recovered job completes");
            assert_eq!(result.histogram, serial.histogram, "cut {i}: histogram");
            assert_eq!(result.stats, serial.stats, "cut {i}: stats");
            assert_eq!(result.mean_prob1, serial.mean_prob1, "cut {i}: mean P(1)");
            assert_eq!(result.shots, 400);
            recovered_runs += 1;
        }
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Every cut from Admit up to (not including) Complete resumes the
    // job: 16 of the 18 prefixes.
    assert_eq!(recovered_runs, 16);
}

/// A crash mid-write leaves a torn final record; recovery truncates it
/// and the lost range simply re-runs — still bit-identical.
#[test]
fn torn_final_record_recovers_bit_identically() {
    let (bytes, serial, _job) = completed_run("torn", 110);
    // Cut three bytes into the final (Complete) record's payload: the
    // job replays as incomplete with its 15-batch prefix, and only the
    // last batch re-runs.
    let dir = crash_image("torn-cut", &bytes, bytes.len() - 3);
    let jc = JournalConfig::new(&dir);
    let (queue, report) = JobQueue::recover(serve_config(), local_pool(1), &jc).expect("recovers");
    assert!(report.torn_tail, "mid-record cut must be reported as torn");
    assert_eq!(report.jobs_recovered, 1);
    assert_eq!(report.ranges_recovered, 15);
    let handles = queue.job_handles();
    let result = handles[0].wait().expect("completes");
    assert_eq!(result.histogram, serial.histogram);
    assert_eq!(result.stats, serial.stats);
    assert_eq!(result.mean_prob1, serial.mean_prob1);
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash after the k-th `Progress` record: recovery restores batches
/// `0..k` from it and re-runs exactly batches `k..`, bit-identically.
#[test]
fn only_batches_after_the_kth_progress_rerun() {
    let (bytes, serial, _job) = completed_run("kth", 105);
    let progress_cuts: Vec<usize> = records(&bytes)
        .into_iter()
        .filter_map(|(cut, tag, _)| (tag == PROGRESS).then_some(cut))
        .collect();
    assert_eq!(progress_cuts.len(), 15);
    for k in [1usize, 7, 15] {
        let dir = crash_image("kth-cut", &bytes, progress_cuts[k - 1]);
        let (pool, ran) = Paced::pool(Duration::ZERO);
        let (queue, report) =
            JobQueue::recover(serve_config(), pool, &JournalConfig::new(&dir)).expect("recovers");
        assert_eq!(report.jobs_recovered, 1);
        assert_eq!(report.ranges_recovered, k, "k = {k}");
        let result = queue.job_handles()[0].wait().expect("completes");
        assert_eq!(result.histogram, serial.histogram, "k = {k}: histogram");
        assert_eq!(result.stats, serial.stats, "k = {k}: stats");
        assert_eq!(result.mean_prob1, serial.mean_prob1, "k = {k}: mean P(1)");
        queue.shutdown();
        let mut ran = ran.lock().unwrap().clone();
        ran.sort_by_key(|r| r.start);
        let expected: Vec<Range<u64>> = (k as u64..16).map(|b| b * 25..b * 25 + 25).collect();
        assert_eq!(ran, expected, "k = {k}: only batches k.. re-run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `Progress` whose end shot is not the end of its batch count under
/// the restarted queue's partition (the batch size changed across the
/// restart) is discarded: the whole job re-runs under the new
/// partition, exactly as an uninterrupted run of it would.
#[test]
fn progress_that_disagrees_with_the_partition_is_discarded() {
    let (bytes, _, job) = completed_run("repartition", 115);
    let fifth = records(&bytes)
        .into_iter()
        .filter(|&(_, tag, _)| tag == PROGRESS)
        .nth(4)
        .map(|(cut, _, _)| cut)
        .expect("a fifth Progress record");
    // Five batches of 25 end at shot 125; five batches of 20 end at 100.
    let dir = crash_image("repartition-cut", &bytes, fifth);
    let (pool, ran) = Paced::pool(Duration::ZERO);
    let config = ServeConfig::default().with_batch_size(20);
    let (queue, report) =
        JobQueue::recover(config, pool, &JournalConfig::new(&dir)).expect("recovers");
    assert_eq!(report.jobs_recovered, 1);
    assert_eq!(report.ranges_recovered, 0, "the prefix is discarded");
    let result = queue.job_handles()[0].wait().expect("completes");
    queue.shutdown();
    assert_eq!(ran.lock().unwrap().len(), 20, "every batch re-runs");
    let serial = ShotEngine::serial()
        .with_batch_size(20)
        .run_job(&job)
        .expect("serial reference");
    assert_eq!(result.histogram, serial.histogram);
    assert_eq!(result.stats, serial.stats);
    assert_eq!(result.mean_prob1, serial.mean_prob1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal in an earlier segment format (version 1, per-shot
/// durations in every `RangeDone`) fails recovery with a typed
/// `BadHeader` instead of a misread record.
#[test]
fn version_1_journal_is_a_typed_bad_header() {
    let (bytes, _, _) = completed_run("segment-old", 160);
    // Version 2 (RLE-packed `Admit` job bytes) and version 3 (one
    // `RangeDone` per batch) are refused like 1.
    for version in [1u16, 2, 3] {
        let mut bytes = bytes.clone();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let dir = crash_image("segment-old-image", &bytes, bytes.len());
        let err = JobQueue::recover(serve_config(), local_pool(1), &JournalConfig::new(&dir))
            .err()
            .unwrap_or_else(|| panic!("a version-{version} segment must be refused"));
        assert!(
            matches!(err, RuntimeError::Journal(JournalError::BadHeader { .. })),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Retention eviction must be durable *before* the job is released: a
/// crash immediately after `release()` returns — simulated by copying
/// the journal at that instant — must never resurrect the evicted job.
#[test]
fn eviction_is_durable_before_release_returns() {
    let dir = temp_dir("evict");
    let job = clifford_job("evict", 120, 100, 7);
    let jc = JournalConfig::new(&dir);
    let (queue, _) =
        JobQueue::recover(serve_config(), local_pool(1), &jc).expect("cold start recovers");
    let handles = queue
        .submit(Submission::job("tenant-e", job))
        .expect("submits");
    handles[0].wait().expect("completes");
    assert!(handles[0].release(), "completed job releases");

    // Crash *now*: snapshot the journal exactly as it stands, before
    // any clean shutdown could paper over a missing Complete record.
    let segs = segments(&dir);
    let bytes = std::fs::read(&segs[0]).expect("read segment");
    let image = crash_image("evict-crash", &bytes, bytes.len());
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let (queue2, report) =
        JobQueue::recover(serve_config(), local_pool(1), &JournalConfig::new(&image))
            .expect("recovers");
    assert_eq!(report.jobs_recovered, 0, "released job must not resurrect");
    assert_eq!(report.jobs_dropped, 1, "its Complete record was durable");
    let handles2 = queue2.job_handles();
    assert_eq!(handles2.len(), 1, "the released job's id stays issued");
    assert!(handles2[0].wait().is_err(), "a released id holds no result");
    queue2.shutdown();
    let _ = std::fs::remove_dir_all(&image);
}

/// A recovered job keeps its pre-crash coordinator id: the serve
/// front door's ids are the queue's ids + 1, and recovery restores
/// each incomplete job at its journaled id. A client that held `--job 1` can still status/watch it
/// on the restarted coordinator without ever re-submitting.
#[test]
fn recovered_job_is_addressable_by_its_precrash_id() {
    use eqasm_runtime::{spawn_serve, Client, ServeNetConfig};
    use std::net::TcpListener;
    use std::sync::Arc;

    let (bytes, serial, job) = completed_run("addr", 150);
    let cuts = record_cuts(&bytes);
    // Crash after the Admit record and five folded batches' Progress.
    let dir = crash_image("addr-cut", &bytes, cuts[6]);
    let jc = JournalConfig::new(&dir);
    let (queue, report) = JobQueue::recover(serve_config(), local_pool(2), &jc).expect("recovers");
    assert_eq!(report.jobs_recovered, 1);

    let queue = Arc::new(queue);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle =
        spawn_serve(listener, Arc::clone(&queue), ServeNetConfig::default()).expect("spawn serve");
    let client = Client::connect(addr.to_string()).expect("connects");
    // Pre-crash SUBMIT_ACK handed out id 1; it survives the restart.
    let snapshot = client.poll_id(1).expect("recovered job resolves by id");
    assert_eq!(snapshot.name, job.name);
    let result = client.wait_id(1).expect("recovered job completes");
    assert_eq!(result.histogram, serial.histogram);
    assert_eq!(result.stats, serial.stats);
    assert_eq!(result.mean_prob1, serial.mean_prob1);
    // New ids resume *after* the recovered ones: no other job exists
    // yet, so id 2 must still be unknown.
    assert!(client.poll_id(2).is_err());
    drop(client);
    drop(handle);
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multi-job version of id stability: with several jobs in flight,
/// a job whose `Complete` record was durable before the crash must not
/// compact later jobs' queue indices on recovery — its id becomes a
/// released id, and every survivor resolves by its pre-crash id with
/// bit-identical aggregates.
#[test]
fn completed_jobs_do_not_shift_recovered_ids() {
    use eqasm_runtime::{spawn_serve, Client, ServeNetConfig};
    use std::net::TcpListener;
    use std::sync::Arc;

    let jobs: Vec<Job> = (0u32..3)
        .map(|i| clifford_job(&format!("ids-{i}"), 170 + i, 100, 21 + u64::from(i)))
        .collect();
    let serials: Vec<_> = jobs
        .iter()
        .map(|j| {
            ShotEngine::serial()
                .with_batch_size(25)
                .run_job(j)
                .expect("serial reference")
        })
        .collect();

    // Journal all three admissions before any record of progress, then
    // let one backend run them to completion.
    let dir = temp_dir("idshift");
    let jc = JournalConfig::new(&dir);
    let (queue, _) = JobQueue::recover(serve_config().with_hold_when_empty(true), Vec::new(), &jc)
        .expect("cold start recovers");
    let handles: Vec<_> = jobs
        .iter()
        .map(|j| {
            queue
                .submit(Submission::job("tenant-i", j.clone()))
                .expect("submits")
                .remove(0)
        })
        .collect();
    queue
        .attach_backend(Box::new(LocalBackend::new(0)))
        .expect("attaches");
    for h in &handles {
        h.wait().expect("completes");
    }
    queue.shutdown();

    let segs = segments(&dir);
    assert_eq!(segs.len(), 1, "small run stays in one segment");
    let bytes = std::fs::read(&segs[0]).expect("read segment");
    // Crash immediately after the first Complete record: one job's
    // completion is durable, the other two are mid-flight.
    let (cut, done_id) = records(&bytes)
        .into_iter()
        .find_map(|(cut, tag, id)| (tag == COMPLETE).then_some((cut, id as usize)))
        .expect("a Complete record exists");
    let image = crash_image("idshift-cut", &bytes, cut);
    let _ = std::fs::remove_dir_all(&dir);

    let (queue2, report) =
        JobQueue::recover(serve_config(), local_pool(2), &JournalConfig::new(&image))
            .expect("recovers");
    assert_eq!(report.jobs_dropped, 1, "the durably-completed job drops");
    assert_eq!(report.jobs_recovered, 2, "the other two resume");
    let handles2 = queue2.job_handles();
    assert_eq!(handles2.len(), 3, "the dropped job's id stays occupied");
    assert!(
        handles2[done_id].wait().is_err(),
        "the completed job is released, not a resurrected run"
    );

    // Address the survivors over the front door exactly as a pre-crash
    // client would (SUBMIT_ACK ids are queue index + 1).
    let queue2 = Arc::new(queue2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let serve =
        spawn_serve(listener, Arc::clone(&queue2), ServeNetConfig::default()).expect("spawn serve");
    let client = Client::connect(addr.to_string()).expect("connects");
    for (i, job) in jobs.iter().enumerate() {
        if i == done_id {
            continue;
        }
        let id = i as u64 + 1;
        let snapshot = client.poll_id(id).expect("survivor resolves by id");
        assert_eq!(
            snapshot.name, job.name,
            "id {id} must name its pre-crash job"
        );
        let result = client.wait_id(id).expect("survivor completes");
        assert_eq!(result.histogram, serials[i].histogram, "job {i}: histogram");
        assert_eq!(result.stats, serials[i].stats, "job {i}: stats");
        assert_eq!(
            result.mean_prob1, serials[i].mean_prob1,
            "job {i}: mean P(1)"
        );
    }
    // New ids resume past every pre-crash id.
    assert!(client.poll_id(4).is_err());
    drop(client);
    drop(serve);
    queue2.shutdown();
    let _ = std::fs::remove_dir_all(&image);
}

/// Compaction drops completed jobs from the journal entirely, so after
/// a restart their Admit records are gone — yet their ids must stay
/// occupied, across *multiple* restarts: the checkpoint's id
/// high-water mark, not the sparse surviving Admits, defines the id
/// space.
#[test]
fn compacted_ids_stay_stable_across_restarts() {
    let dir = temp_dir("compact-ids");
    // A zero floor lets the 2×live+4096-byte amortization rule fire on
    // a small test workload.
    let jc = JournalConfig::new(&dir).with_compact_min_bytes(0);
    let (queue, _) =
        JobQueue::recover(serve_config(), local_pool(1), &jc).expect("cold start recovers");

    // Complete jobs until compaction rewrites the journal into a later
    // segment (observable as the first segment file disappearing). The
    // rewrite runs on the journal thread after the job that triggered
    // it is done, so each job gives it a bounded grace period.
    let rewritten = || {
        let segs = segments(&dir);
        !segs.is_empty() && !segs[0].ends_with("segment-00000000.eqjl")
    };
    let mut count = 0u32;
    loop {
        let job = clifford_job(
            &format!("compact-{count}"),
            210 + count,
            100,
            31 + u64::from(count),
        );
        let handle = queue
            .submit(Submission::job("tenant-c", job))
            .expect("submits")
            .remove(0);
        handle.wait().expect("completes");
        count += 1;
        let deadline = Instant::now() + Duration::from_millis(50);
        while !rewritten() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if rewritten() {
            break;
        }
        assert!(count < 64, "compaction never triggered");
    }
    queue.shutdown();

    // Restart #1: nothing resumes, but every pre-crash id must still
    // be occupied — the compacted checkpoint carried the high-water
    // mark even though the completed jobs' records are gone.
    let (queue2, report) = JobQueue::recover(serve_config(), local_pool(1), &jc).expect("recovers");
    assert_eq!(report.jobs_recovered, 0, "all jobs had completed");
    let handles2 = queue2.job_handles();
    assert_eq!(
        handles2.len(),
        count as usize,
        "every pre-crash id stays occupied after compaction"
    );
    for h in &handles2 {
        assert!(h.wait().is_err(), "released ids hold no result");
    }

    // New work lands above the pre-crash id space and runs exactly.
    let job = clifford_job("compact-new", 209, 100, 97);
    let serial = ShotEngine::serial()
        .with_batch_size(25)
        .run_job(&job)
        .expect("serial reference");
    let handle = queue2
        .submit(Submission::job("tenant-c", job))
        .expect("submits")
        .remove(0);
    let result = handle.wait().expect("completes");
    assert_eq!(result.histogram, serial.histogram);
    assert_eq!(result.stats, serial.stats);
    assert_eq!(queue2.job_handles().len(), count as usize + 1);
    queue2.shutdown();

    // Restart #2: the resumed journal (fresh checkpoint plus the new
    // job's records) reproduces the same id layout again.
    let (queue3, report3) =
        JobQueue::recover(serve_config(), local_pool(1), &jc).expect("recovers again");
    assert_eq!(report3.jobs_recovered, 0);
    assert_eq!(
        queue3.job_handles().len(),
        count as usize + 1,
        "id layout survives a second restart"
    );
    queue3.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

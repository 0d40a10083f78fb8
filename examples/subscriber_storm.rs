//! Connection-scale probe: thousands of idle subscribers on one
//! reactor thread.
//!
//! The serve front door's event loop exists for exactly one number:
//! how many mostly-idle `SUBSCRIBE` streams one coordinator can hold
//! without spending a thread per peer. This probe opens N (default
//! 5,000) raw loopback subscriber connections against a single
//! in-flight job, then reads the answer off the process itself:
//!
//! * `Threads:` from `/proc/self/status` — must stay O(1) in N
//!   (reactor + queue workers + this main thread), never O(N);
//! * open file descriptors from `/proc/self/fd` — which *is* O(N),
//!   two per loopback connection, and is the resource the event loop
//!   trades the threads for;
//! * time-to-first-snapshot for a late subscriber — how fast the
//!   reactor turns a `SUBSCRIBE` around while already holding N
//!   streams.
//!
//! Every subscriber then drains its stream to completion and the
//! probe asserts the serve invariant at scale: each snapshot is a
//! monotonic prefix, and all N final results are byte-identical.
//!
//! The measured numbers feed the `subscribers` section of
//! `BENCH_runtime.json`.
//!
//! Run with: `cargo run --release --example subscriber_storm [n] [addr]`
//!
//! With `addr`, the storm targets an **external** `eqasm-cli serve
//! --listen` process instead of an in-process acceptor — CI uses this
//! to assert the *server* process's thread count from
//! `/proc/<pid>/status` while 2,000 subscribers are parked on it. (In
//! external mode the in-process thread assertion is skipped; this
//! process's threads say nothing about the server's.)

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eqasm::core::{Instantiation, Qubit, Topology};
use eqasm::microarch::SimConfig;
use eqasm::quantum::ReadoutModel;
use eqasm::runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm::runtime::{spawn_serve, wire, Client, Job, ServeNetConfig};
use eqasm::workloads::rb_program;

/// `Threads:` from `/proc/self/status` — the whole-process thread
/// count, exactly what an operator's `ps -o nlwp` would report.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Open file descriptors, counted the way `lsof` would.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Raises the soft `RLIMIT_NOFILE` to the hard limit so N loopback
/// connections (two fds each, both ends in this process) fit under
/// the default 1024. Same raw-FFI route the reactor takes for epoll.
#[cfg(target_os = "linux")]
fn raise_fd_limit() -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur < lim.max {
            let raised = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &raised);
            if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
                return 0;
            }
        }
        lim.cur
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_fd_limit() -> u64 {
    0
}

/// One raw wire subscriber: connect, HELLO/HELLO_ACK, SUBSCRIBE —
/// then park. No reader thread; the stream's frames sit in the kernel
/// buffer until [`drain`] collects them.
fn subscribe(addr: &std::net::SocketAddr, job_id: u64) -> Result<TcpStream, wire::WireError> {
    let mut stream = TcpStream::connect(addr).map_err(wire::WireError::Io)?;
    stream.set_nodelay(true).map_err(wire::WireError::Io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(wire::WireError::Io)?;
    let hello = wire::Hello {
        version: wire::PROTOCOL_VERSION,
    };
    wire::write_frame(&mut stream, wire::tag::HELLO, &hello.encode())?;
    let (tag, payload) = wire::read_frame(&mut stream)?;
    if tag != wire::tag::HELLO_ACK {
        return Err(wire::WireError::UnknownTag {
            what: "storm handshake",
            tag,
        });
    }
    wire::HelloAck::decode(&payload)?;
    let sub = wire::Subscribe {
        job_id,
        resume_after: None,
    };
    wire::write_frame(
        &mut stream,
        wire::tag::SUBSCRIBE,
        &wire::encode_subscribe(&sub),
    )?;
    Ok(stream)
}

/// Drains one subscription stream to its final `RESULT`, asserting
/// the prefix invariant on the way: `batches_done` and `shots_done`
/// only ever grow. Returns (snapshots seen, final result bytes).
fn drain(stream: &mut TcpStream) -> Result<(usize, Vec<u8>), wire::WireError> {
    let mut snapshots = 0usize;
    let mut last_batches = 0usize;
    let mut last_shots = 0u64;
    loop {
        let (tag, payload) = wire::read_frame(stream)?;
        match tag {
            wire::tag::SNAPSHOT => {
                let snap = wire::decode_partial_result(&payload)?;
                assert!(
                    snap.batches_done >= last_batches && snap.shots_done >= last_shots,
                    "snapshot stream went backwards: {}/{} after {}/{}",
                    snap.batches_done,
                    snap.shots_done,
                    last_batches,
                    last_shots,
                );
                last_batches = snap.batches_done;
                last_shots = snap.shots_done;
                snapshots += 1;
            }
            wire::tag::RESULT => return Ok((snapshots, payload)),
            other => {
                return Err(wire::WireError::UnknownTag {
                    what: "subscription stream",
                    tag: other,
                })
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000);
    let external: Option<String> = std::env::args().nth(2);
    let fd_limit = raise_fd_limit();
    let workers = 2usize;

    // A big batch size keeps the probe honest at N=5,000: few, small
    // snapshot frames per subscriber, so parked (unread) streams fit
    // in kernel socket buffers instead of tripping the outbound-queue
    // backpressure eviction this probe is not about.
    let shots = 30_000u64;
    let inst = Instantiation::paper().with_topology(Topology::linear(1));
    let (program, _) = rb_program(&inst, Qubit::new(0), 16, 1, 0x5702)?;
    let job = Job::new("storm", inst, program)
        .with_config(SimConfig::default().with_readout(ReadoutModel::symmetric(0.03)))
        .with_shots(shots)
        .with_seed(7);

    // In-process mode spins up the full front door here (identical
    // code path to `eqasm-cli serve --listen`); external mode keeps
    // the server handle alive only to pin the addr's lifetime.
    let mut _server = None;
    let addr: std::net::SocketAddr = match &external {
        Some(a) => a.parse()?,
        None => {
            let queue = Arc::new(JobQueue::new(
                ServeConfig::default()
                    .with_workers(workers)
                    .with_batch_size(2048),
            ));
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let server = spawn_serve(
                listener,
                Arc::clone(&queue),
                ServeNetConfig::default().with_name("storm-serve"),
            )?;
            let addr = server.addr();
            _server = Some((server, queue));
            addr
        }
    };
    let threads_baseline = thread_count();
    println!(
        "storm: serve on {addr}{}, fd limit {fd_limit}, \
         {threads_baseline} threads before any subscriber",
        if external.is_some() {
            " (external)".to_owned()
        } else {
            format!(", {workers} queue workers")
        }
    );

    // Submit over the wire so the job id is exactly what a remote
    // subscriber would have been handed.
    let client = Client::connect(addr.to_string())?;
    let handles = client.submit(Submission::job("storm", job))?;
    let job_id = handles[0].job_id();

    // The storm: N raw subscribers, no threads, no readers.
    let connect_started = Instant::now();
    let mut streams = Vec::with_capacity(n);
    for i in 0..n {
        match subscribe(&addr, job_id) {
            Ok(s) => streams.push(s),
            Err(e) => {
                eprintln!("subscriber {i}/{n} failed: {e} (fd limit {fd_limit}?)");
                return Err(e.into());
            }
        }
        if (i + 1) % 1000 == 0 {
            println!(
                "  {:>5} subscribers, {} threads, {} fds",
                i + 1,
                thread_count(),
                fd_count()
            );
            std::io::stdout().flush().ok();
        }
    }
    let connect_secs = connect_started.elapsed().as_secs_f64();
    let threads_peak = thread_count();
    let fds_peak = fd_count();

    // Time-to-first-snapshot for subscriber N+1: the reactor's
    // turnaround while already holding N streams.
    let ttfs_started = Instant::now();
    let mut probe = subscribe(&addr, job_id)?;
    let (probe_tag, _) = wire::read_frame(&mut probe)?;
    assert!(
        probe_tag == wire::tag::SNAPSHOT || probe_tag == wire::tag::RESULT,
        "probe subscriber expected a snapshot, got tag {probe_tag}"
    );
    let ttfs_us = ttfs_started.elapsed().as_secs_f64() * 1e6;
    drop(probe);

    println!(
        "{n} subscribers in {connect_secs:.2}s: {threads_peak} threads (baseline {threads_baseline}), \
         {fds_peak} fds, first snapshot for a late subscriber in {ttfs_us:.0} µs"
    );
    if external.is_none() {
        assert!(
            threads_peak <= threads_baseline + 2,
            "thread count grew with subscribers: {threads_baseline} -> {threads_peak}"
        );
    }

    // Let the job run out, then drain all N streams and hold the
    // invariant: monotonic prefixes everywhere, one identical final
    // result for everyone.
    let reference = handles[0].wait()?;
    let mut total_snapshots = 0usize;
    let mut final_bytes: Option<Vec<u8>> = None;
    for (i, stream) in streams.iter_mut().enumerate() {
        let (snaps, result) = drain(stream)
            .map_err(|e| std::io::Error::other(format!("subscriber {i} stream broke: {e}")))?;
        total_snapshots += snaps;
        match &final_bytes {
            None => {
                let decoded = wire::decode_job_result(&result)?;
                assert_eq!(decoded.histogram, reference.histogram);
                assert_eq!(decoded.stats, reference.stats);
                final_bytes = Some(result);
            }
            Some(first) => assert_eq!(
                first, &result,
                "subscriber {i} got a different final result"
            ),
        }
    }
    println!(
        "drained {total_snapshots} snapshots across {n} streams; all {n} final results \
         byte-identical to the watch result ✓"
    );

    // The JSON fragment BENCH_runtime.json carries as `subscribers`.
    println!(
        "\n  \"subscribers\": {{\n    \"connections\": {n},\n    \"queue_workers\": {workers},\n    \
         \"threads_baseline\": {threads_baseline},\n    \"threads_peak\": {threads_peak},\n    \
         \"fds_peak\": {fds_peak},\n    \"connect_s\": {connect_secs:.2},\n    \
         \"first_snapshot_us\": {ttfs_us:.0},\n    \"snapshots_drained\": {total_snapshots},\n    \
         \"bit_identical\": true\n  }}"
    );
    Ok(())
}

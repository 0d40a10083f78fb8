//! TCP transport for the wire protocol: the long-lived **worker
//! daemon** that executes shot ranges for remote coordinators, and the
//! [`RemoteBackend`] client that makes such a worker look like any
//! other [`ExecBackend`] slot.
//!
//! ## Topology
//!
//! One worker daemon serves many connections; each connection is one
//! execution *slot* (one thread, one cached machine) mirroring the
//! local pool's one-machine-per-worker design. A coordinator that
//! wants `n`-way parallelism on a worker opens `n` connections
//! ([`RemoteBackend::connect_pool`] opens as many as the worker
//! advertises in its handshake). Requests on one connection are
//! strictly sequential — request, response, request — so there is no
//! interleaving to get wrong and a dropped connection maps cleanly to
//! "this slot died".
//!
//! ## Failure model
//!
//! * Handshake problems (bad magic, a version other than
//!   [`PROTOCOL_VERSION`]) are typed
//!   [`wire::ErrorMsg`] responses, then the connection closes.
//! * A program that fails machine validation is reported as
//!   [`wire::ErrorKind::Load`] — the coordinator fails the job, it
//!   would fail identically everywhere.
//! * Everything else (connection reset, truncated frame, worker
//!   killed mid-batch) surfaces as [`RuntimeError::Transport`]; the
//!   serve pool re-dispatches the range to another backend. A batch
//!   is only ever folded from a complete, well-formed response, so a
//!   worker dying mid-range can lose *work* but never corrupt a
//!   result.
//! * A worker that **hangs** — host wedged, process stopped, TCP
//!   stack still acking — is caught by the client-side request
//!   deadline ([`ConnectOptions::io_timeout`], by default
//!   [`DEFAULT_IO_TIMEOUT`]): the stalled request becomes
//!   [`RuntimeError::Transport`] and the same re-dispatch/retire path
//!   takes over. Without the deadline a hung
//!   worker wedged its dispatch slot forever, and retirement never
//!   fired because no error ever surfaced.
//!
//! ## Worker lifecycle
//!
//! The daemon is built to *ride churn*, in both directions:
//!
//! * **One loop** — [`run_worker_until`] (the body of `eqasm-cli
//!   worker`) and [`spawn_worker`] (in-process, for tests, benches and
//!   embedding) run the same accept/drain loop: one thread per
//!   connection, each tracked for severing and counted in
//!   `eqasm_net_open_connections{role="worker"}`.
//! * **Dying gracefully** — flipping [`run_worker_until`]'s flag
//!   drains: the loop stops accepting, lets every in-flight batch
//!   finish and its response reach the coordinator, then exits.
//!   `eqasm-cli worker` wires SIGINT/SIGTERM to that flag, so a rolling
//!   restart never loses a completed batch — coordinators just see
//!   slots retire. A connection still busy at the 30 s drain deadline
//!   is severed, and the loop returns how many were.
//! * **Dying abruptly** — [`WorkerHandle::kill`] (and dropping the
//!   handle) flips the same flag and severs every connection at once,
//!   without waiting for in-flight batches: the "host died" failure.
//! * **Coming back** — a restarted worker is picked up by the
//!   coordinator's [`crate::PoolSupervisor`], which probes known
//!   addresses on a backoff schedule, re-handshakes, and attaches
//!   fresh slots to the live [`crate::serve::JobQueue`]
//!   ([`JobQueue::attach_backend`](crate::serve::JobQueue::attach_backend)).
//! * **Not dying needlessly** — one bad `accept` or one failed
//!   connection-thread spawn costs one connection, never the daemon:
//!   both are logged and survived.
//!
//! Workers configured with a pre-shared key ([`WorkerConfig::with_psk`])
//! admit only coordinators that pass the HMAC challenge–response; the
//! transport itself is not encrypted, so run workers on a private
//! network.

mod handshake;
#[cfg(target_os = "linux")]
mod reactor;

/// The serve reactor is epoll-only. On other targets this stand-in
/// makes [`spawn_serve`] and [`run_serve_until`] fail with a typed
/// [`std::io::ErrorKind::Unsupported`] error, and no epoll FFI is
/// compiled.
#[cfg(not(target_os = "linux"))]
mod reactor {
    use super::{Arc, AtomicBool, JobQueue, ServeNetConfig, TcpListener};

    pub(super) enum ServeReactor {}

    pub(crate) struct ReactorWaker;

    impl ServeReactor {
        pub(super) fn new(
            _: TcpListener,
            _: Arc<JobQueue>,
            _: ServeNetConfig,
        ) -> std::io::Result<ServeReactor> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the serve front door needs epoll (Linux only)",
            ))
        }

        pub(super) fn waker(&self) -> ReactorWaker {
            match *self {}
        }

        pub(super) fn run(self, _: &AtomicBool) -> std::io::Result<()> {
            match self {}
        }
    }

    impl ReactorWaker {
        pub(crate) fn wake(&self) {}
    }

    /// No serve reactor runs on this target; there is nothing to wake.
    pub fn wake_serve_shutdown() {}
}

pub use reactor::wake_serve_shutdown;

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::auth::{ct_eq, fresh_nonce, Psk};
use crate::backend::{BackendDescriptor, BackendKind, BatchOut, ExecBackend, LocalBackend};
use crate::engine::ExecPolicy;
use crate::error::RuntimeError;
use crate::job::{Job, ShapeTable};
use crate::serve::JobQueue;
use crate::wire::{
    self, AuthChallenge, AuthOk, AuthResponse, ErrorKind, ErrorMsg, Hello, HelloAck, LoadAck,
    LoadJob, RunRangeById, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use handshake::{AcceptPolicy, ServerHandshake, Step};

/// Default read/write deadline for remote requests. Generous — a
/// legitimate million-shot range on a loaded worker can take a while —
/// but finite: a worker that *hangs* (accepts requests, never answers)
/// must eventually surface as a transport failure so the serve pool
/// can re-dispatch the range and retire the slot, instead of wedging a
/// dispatch thread forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a parked worker connection re-checks the drain flag while
/// waiting for its next request.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How often the worker's nonblocking accept loop polls. Short enough
/// that [`WorkerHandle::kill`] and daemon shutdown are prompt; long
/// enough to cost nothing.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long a draining daemon waits for in-flight connections to
/// finish their current batch before severing them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// Worker daemon
// ---------------------------------------------------------------------

/// Default worker-side job-cache capacity: how many distinct jobs a
/// connection keeps loaded (decoded + machine-built) at once.
pub const DEFAULT_JOB_CACHE_CAPACITY: usize = 8;

/// Configuration of a worker daemon.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Self-reported name, echoed in the handshake and in backend
    /// descriptors on the coordinator.
    pub name: String,
    /// Concurrent-slot capacity advertised in the handshake. The
    /// worker does not *enforce* it — it sizes
    /// [`RemoteBackend::connect_pool`] on the client.
    pub capacity: usize,
    /// Pre-shared key; when set, every connection must pass the HMAC
    /// challenge–response before any other frame is interpreted.
    pub psk: Option<Psk>,
    /// Per-connection capacity of the job cache (LRU; clamped to
    /// at least 1). A [`wire::RunRangeById`] naming an evicted job
    /// gets the typed `JobNotLoaded` miss and the client re-loads.
    pub job_cache_capacity: usize,
    /// Per-connection frame-size budget (clamped to the global
    /// [`MAX_FRAME_LEN`]). A frame announcing more than this is
    /// rejected with a typed `Budget` error before any payload is
    /// read.
    pub max_frame_len: u32,
    /// Per-connection request-rate budget, in request frames per
    /// second (burst capacity equals the rate). `None` disables the
    /// limiter. A connection that exceeds it gets a typed `Budget`
    /// rejection and is closed.
    pub max_requests_per_sec: Option<u32>,
    /// How the worker builds machines and forks shots.
    pub policy: ExecPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "eqasm-worker".to_owned(),
            capacity: std::thread::available_parallelism().map_or(1, |n| n.get()),
            psk: None,
            job_cache_capacity: DEFAULT_JOB_CACHE_CAPACITY,
            max_frame_len: MAX_FRAME_LEN,
            max_requests_per_sec: None,
            policy: ExecPolicy::default(),
        }
    }
}

impl WorkerConfig {
    /// Returns the config with the given name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns the config with the given advertised capacity (clamped
    /// to at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Returns the config requiring PSK authentication on every
    /// connection.
    pub fn with_psk(mut self, psk: Psk) -> Self {
        self.psk = Some(psk);
        self
    }

    /// Returns the config with the given per-connection job-cache
    /// capacity (clamped to at least 1).
    pub fn with_job_cache_capacity(mut self, capacity: usize) -> Self {
        self.job_cache_capacity = capacity.max(1);
        self
    }

    /// Returns the config with a per-connection frame-size budget.
    pub fn with_max_frame_len(mut self, max_len: u32) -> Self {
        self.max_frame_len = max_len.clamp(64, MAX_FRAME_LEN);
        self
    }

    /// Returns the config with a per-connection request-rate budget
    /// (requests per second; `None` disables).
    pub fn with_max_requests_per_sec(mut self, rate: Option<u32>) -> Self {
        self.max_requests_per_sec = rate;
        self
    }

    /// Returns the config executing under `policy`.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }
}

// ---------------------------------------------------------------------
// Shared connection policy: version check, auth, budgets
// ---------------------------------------------------------------------

/// Options for the client side of a handshake — shared by
/// [`RemoteBackend`], [`crate::client::Client`], [`ping_opts`] and the
/// pool supervisor.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Read/write deadline on the connection (`None` waits forever).
    pub io_timeout: Option<Duration>,
    /// Pre-shared key. When set, the peer **must** run the
    /// challenge–response (an unauthenticated ack is rejected — a
    /// configured key must never silently downgrade).
    pub psk: Option<Psk>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            psk: None,
        }
    }
}

impl ConnectOptions {
    /// Returns the options with the given request deadline.
    pub fn with_io_timeout(mut self, io_timeout: Option<Duration>) -> Self {
        self.io_timeout = io_timeout;
        self
    }

    /// Returns the options authenticating with the given key.
    pub fn with_psk(mut self, psk: Psk) -> Self {
        self.psk = Some(psk);
        self
    }
}

/// A token-bucket request-rate limiter (burst capacity = rate).
struct RateLimiter {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl RateLimiter {
    fn new(rate: u32) -> Self {
        let rate = f64::from(rate.max(1));
        RateLimiter {
            rate,
            tokens: rate,
            last: Instant::now(),
        }
    }

    /// Spends one token; `false` means the budget is exhausted.
    fn admit(&mut self) -> bool {
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.rate);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Deadline on an accepted connection's handshake (and auth) rounds.
/// Without it, a client that connects and sends nothing pins a
/// connection thread forever *before* any budget can engage — and a
/// draining server waits the full drain timeout on it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Whether an I/O error is a socket deadline firing.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Drives the [`ServerHandshake`] over a blocking worker connection
/// under [`HANDSHAKE_TIMEOUT`], so a silent or stalling peer is cut off
/// in bounded time. Only a read or write that hits the deadline counts
/// as a handshake deadline drop; a peer the core rejects (wrong
/// version, wrong key, garbage) gets its typed error and is not one.
/// On success the deadline is cleared — post-handshake reads are paced
/// by [`wait_readable`]'s own poll timeout, and legitimate batch
/// responses may take long. Returns `false` when the connection should
/// close.
fn worker_handshake(stream: &mut TcpStream, config: &WorkerConfig) -> bool {
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
    {
        return false;
    }
    let policy = AcceptPolicy {
        name: &config.name,
        capacity: config.capacity as u32,
        psk: config.psk.as_ref(),
    };
    let count_deadline = |e: WireError| {
        if matches!(&e, WireError::Io(io) if is_timeout(io)) {
            crate::metrics::rt().handshake_deadline_drops.inc();
        }
        false
    };
    let mut core = ServerHandshake::AwaitHello;
    loop {
        let (tag, payload) = match wire::read_frame_limit(stream, config.max_frame_len) {
            Ok(frame) => frame,
            Err(WireError::FrameTooLarge { len, cap }) => {
                reject_oversized(stream, len, cap);
                return false;
            }
            Err(e) => return count_deadline(e),
        };
        let (frames, admitted) = match core.step(&policy, tag, &payload) {
            Step::Continue(frame) => (vec![frame], false),
            Step::Accept(frames) => (frames, true),
            Step::Reject(kind, message) => {
                send_error(stream, kind, message);
                return false;
            }
        };
        for (tag, payload) in frames {
            if let Err(e) = wire::write_frame(stream, tag, &payload) {
                return count_deadline(e);
            }
        }
        if admitted {
            return stream.set_read_timeout(None).is_ok() && stream.set_write_timeout(None).is_ok();
        }
    }
}

/// The typed rejection of an over-budget frame. The unread payload has
/// desynchronized the stream, so the connection closes after it.
fn reject_oversized(stream: &mut TcpStream, len: u32, cap: u32) {
    crate::metrics::rt().budget_frame_rejections.inc();
    send_error(
        stream,
        ErrorKind::Budget,
        format!("frame length {len} exceeds this connection's {cap}-byte budget"),
    );
}

/// Reads the next request frame under the connection's budgets —
/// the one request-loop preamble shared by the worker daemon and the
/// serve front door, so budget semantics cannot drift between them.
/// `None` means the connection must close (the typed `Budget`
/// rejection, where applicable, has already been sent).
fn read_request_frame(
    stream: &mut TcpStream,
    max_frame_len: u32,
    limiter: &mut Option<RateLimiter>,
) -> Option<(u8, Vec<u8>)> {
    let (tag, payload) = match wire::read_frame_limit(stream, max_frame_len) {
        Ok(frame) => frame,
        Err(WireError::FrameTooLarge { len, cap }) => {
            reject_oversized(stream, len, cap);
            return None;
        }
        Err(_) => return None, // disconnect or garbage
    };
    if let Some(limiter) = limiter {
        if !limiter.admit() {
            crate::metrics::rt().budget_rate_rejections.inc();
            send_error(
                stream,
                ErrorKind::Budget,
                format!(
                    "request rate exceeds this connection's {:.0}/s budget",
                    limiter.rate
                ),
            );
            return None;
        }
    }
    Some((tag, payload))
}

/// A handle to an in-process worker daemon, used by tests, benches and
/// embedded deployments. It runs [`run_worker_until`]'s accept/drain
/// loop on a background thread — the same daemon `eqasm-cli worker`
/// runs in the foreground.
pub struct WorkerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Conns>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// The address the worker is listening on (useful with a
    /// port-0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Abruptly severs every open connection and stops accepting new
    /// ones — the "worker host died mid-job" failure, as a method, so
    /// failover paths can be tested deterministically. Clients see
    /// transport errors on their next (or in-flight) request. Unlike a
    /// drain, nothing waits for in-flight batches: the loop finds no
    /// connection left to wait on and exits within one accept poll.
    pub fn kill(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.conns.sever();
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// The connections a worker's accept loop has open, each held as a
/// cloned stream so a kill or an expired drain can sever it. Once
/// severed, a connection accepted later is cut as it is tracked.
#[derive(Default)]
struct Conns(Mutex<ConnSet>);

#[derive(Default)]
struct ConnSet {
    next_id: u64,
    open: Vec<(u64, TcpStream)>,
    severed: bool,
}

impl Conns {
    fn lock(&self) -> std::sync::MutexGuard<'_, ConnSet> {
        self.0.lock().expect("conn list poisoned")
    }

    /// Tracks `stream` and returns its id; `None` when it cannot be
    /// cloned, and the connection must be dropped untracked.
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut set = self.lock();
        let id = set.next_id;
        set.next_id += 1;
        if set.severed {
            let _ = clone.shutdown(std::net::Shutdown::Both);
        } else {
            set.open.push((id, clone));
        }
        Some(id)
    }

    fn untrack(&self, id: u64) {
        self.lock().open.retain(|(i, _)| *i != id);
    }

    fn is_empty(&self) -> bool {
        self.lock().open.is_empty()
    }

    /// Shuts down every tracked connection, and every one tracked
    /// later; returns how many were open.
    fn sever(&self) -> usize {
        let mut set = self.lock();
        set.severed = true;
        let open = std::mem::take(&mut set.open);
        for (_, conn) in &open {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        open.len()
    }
}

/// Starts a worker daemon on `listener` in background threads and
/// returns a handle that stops it on drop (or explicitly via
/// [`WorkerHandle::kill`]).
pub fn spawn_worker(listener: TcpListener, config: WorkerConfig) -> std::io::Result<WorkerHandle> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(Conns::default());
    let (flag, tracked) = (Arc::clone(&shutdown), Arc::clone(&conns));
    let accept_thread = std::thread::Builder::new()
        .name("eqasm-worker-accept".to_owned())
        .spawn(move || {
            let _ = worker_loop(listener, config, &flag, &tracked, DRAIN_TIMEOUT);
        })?;
    Ok(WorkerHandle {
        addr,
        shutdown,
        conns,
        accept_thread: Some(accept_thread),
    })
}

/// Runs a worker daemon on `listener` until `shutdown` flips, then
/// **drains**: stops accepting, lets every in-flight batch finish and
/// its response reach the coordinator, and closes idle connections —
/// so a coordinator never loses a completed batch to a worker restart,
/// it only sees slots retire. The CLI flips the flag from its
/// SIGINT/SIGTERM handler.
///
/// A connection still busy after the drain deadline (30 s) is
/// severed. Returns how many were: `0` is a clean drain.
///
/// Availability hardening, both learned the hard way:
///
/// * Transient `accept` failures (a client resetting mid-handshake,
///   fd pressure during a reconnect storm) are reported to stderr and
///   survived — a long-lived daemon must not take all its slots
///   offline over one bad accept.
/// * A *thread-spawn* failure for one connection is the same story:
///   log it, close that one connection, keep serving the others.
pub fn run_worker_until(
    listener: TcpListener,
    config: WorkerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<usize> {
    worker_loop(listener, config, shutdown, &Arc::default(), DRAIN_TIMEOUT)
}

/// The worker daemon's one accept/drain loop, behind both
/// [`run_worker_until`] and [`spawn_worker`]. Each accepted
/// connection is tracked in `conns` and counted in
/// `eqasm_net_open_connections{role="worker"}` while its thread runs.
/// Connections still open `drain_timeout` after `shutdown` flips are
/// severed.
fn worker_loop(
    listener: TcpListener,
    config: WorkerConfig,
    shutdown: &AtomicBool,
    conns: &Arc<Conns>,
    drain_timeout: Duration,
) -> std::io::Result<usize> {
    listener.set_nonblocking(true)?;
    // Connections watch this (not the caller's reference, which this
    // function cannot outlive) and close after their current request.
    let drain = Arc::new(AtomicBool::new(false));
    let open = crate::metrics::rt().open_connections.with(&["worker"]);
    while !shutdown.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => {
                eprintln!("worker: accept failed ({e}); continuing");
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let _ = stream.set_nonblocking(false);
        let Some(id) = conns.track(&stream) else {
            eprintln!("worker: could not track a connection; dropping it");
            continue;
        };
        open.add(1);
        let (config, drain, tracked, gauge) = (
            config.clone(),
            Arc::clone(&drain),
            Arc::clone(conns),
            Arc::clone(&open),
        );
        let spawned = std::thread::Builder::new()
            .name("eqasm-worker-conn".to_owned())
            .spawn(move || {
                serve_connection(stream, &config, &drain);
                gauge.add(-1);
                tracked.untrack(id);
            });
        if let Err(e) = spawned {
            // The closure, and with it the stream, is already dropped.
            open.add(-1);
            conns.untrack(id);
            eprintln!("worker: could not spawn connection thread ({e}); dropping one connection");
        }
    }
    // Drain: no new work is accepted; every connection finishes the
    // request it is running (a batch mid-execution completes and its
    // response is written) and then closes. After a kill there is
    // nothing left to wait on.
    drain.store(true, Ordering::Release);
    let deadline = Instant::now() + drain_timeout;
    while !conns.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(conns.sever())
}

/// Sends a typed error frame, ignoring transport failures (the
/// connection is about to close anyway).
fn send_error(stream: &mut TcpStream, kind: ErrorKind, message: String) {
    let _ = wire::write_frame(stream, wire::tag::ERROR, &ErrorMsg::payload(kind, message));
}

/// Parks until `stream` has a readable byte (without consuming it),
/// re-checking `shutdown` every [`IDLE_POLL`]. Returns `false` when
/// the connection should close instead: peer EOF, a socket error, or a
/// drain request. The read timeout is always cleared before returning
/// `true`, so the subsequent frame read cannot be cut mid-frame by the
/// poll deadline.
fn wait_readable(stream: &TcpStream, shutdown: &AtomicBool) -> bool {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return false;
        }
        match stream.peek(&mut byte) {
            Ok(0) => return false, // peer closed
            Ok(_) => return stream.set_read_timeout(None).is_ok(),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
}

/// The worker's per-connection job registry: a capacity-bounded LRU
/// of `(job_id, decoded job)` entries, front = most recently used.
/// Ids are connection-scoped (a fresh connection starts empty), so a
/// client counter can never collide.
struct JobCache {
    entries: VecDeque<(u64, Job)>,
    capacity: usize,
}

impl JobCache {
    fn new(capacity: usize) -> Self {
        JobCache {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Inserts (or replaces) `job_id`, evicting the least recently
    /// used entry beyond capacity.
    fn insert(&mut self, job_id: u64, job: Job) {
        self.entries.retain(|(id, _)| *id != job_id);
        self.entries.push_front((job_id, job));
        while self.entries.len() > self.capacity {
            self.entries.pop_back();
            crate::metrics::rt().job_cache_evictions.inc();
        }
    }

    /// Looks up `job_id`, promoting it to most recently used.
    fn get(&mut self, job_id: u64) -> Option<&Job> {
        let m = crate::metrics::rt();
        let Some(pos) = self.entries.iter().position(|(id, _)| *id == job_id) else {
            m.job_cache_misses.inc();
            return None;
        };
        m.job_cache_hits.inc();
        let entry = self.entries.remove(pos).expect("position exists");
        self.entries.push_front(entry);
        self.entries.front().map(|(_, job)| job)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One connection = one execution slot: handshake (plus PSK auth and
/// budget enforcement when configured), then a sequential
/// request/response loop over the job registry (`LoadJob` /
/// `RunRangeById` against the bounded [`JobCache`]), with the typed
/// `JobNotLoaded` miss on eviction. Shapes are interned at `LoadJob`,
/// so job ids of one shape share the slot's [`LocalBackend`] machine.
///
/// `shutdown` is the daemon's drain flag: once it flips, the
/// connection finishes the request it is executing (if any), writes
/// the response, and closes instead of waiting for more work — the
/// coordinator sees a clean slot retirement, never a lost batch.
fn serve_connection(mut stream: TcpStream, config: &WorkerConfig, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);

    if !worker_handshake(&mut stream, config) {
        return;
    }

    // Jobs loaded by id, LRU-bounded.
    let mut registry = JobCache::new(config.job_cache_capacity);
    let mut shapes = ShapeTable::default();
    let mut backend = LocalBackend::named(config.name.clone()).with_policy(config.policy);
    let mut limiter = config.max_requests_per_sec.map(RateLimiter::new);

    loop {
        // Idle wait between requests is where a drain lands for a
        // healthy slot; a request already in progress below finishes
        // first (the flag is re-checked after the response).
        if !wait_readable(&stream, shutdown) {
            return;
        }
        let Some((tag, payload)) =
            read_request_frame(&mut stream, config.max_frame_len, &mut limiter)
        else {
            return;
        };
        match tag {
            wire::tag::PING => {
                if wire::write_frame(&mut stream, wire::tag::PONG, &[]).is_err() {
                    return;
                }
            }
            wire::tag::LOAD_JOB => {
                let request = match LoadJob::decode(&payload) {
                    Ok(r) => r,
                    Err(e) => {
                        send_error(
                            &mut stream,
                            ErrorKind::Malformed,
                            format!("bad load request: {e}"),
                        );
                        return;
                    }
                };
                let job = match wire::decode_job_interned(&request.job_bytes, &mut shapes) {
                    Ok(job) => job,
                    Err(e) => {
                        send_error(&mut stream, ErrorKind::Malformed, format!("bad job: {e}"));
                        return;
                    }
                };
                // Building here answers a bad program at load time.
                match backend.load(&job) {
                    Ok(_) => {
                        registry.insert(request.job_id, job);
                        let ack = LoadAck {
                            job_id: request.job_id,
                            cached: registry.len() as u32,
                        };
                        if wire::write_frame(&mut stream, wire::tag::LOAD_ACK, &ack.encode())
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(e) => {
                        send_error(&mut stream, ErrorKind::Load, e.to_string());
                        continue;
                    }
                }
            }
            wire::tag::RUN_RANGE_BY_ID => {
                let request = match RunRangeById::decode(&payload) {
                    Ok(r) => r,
                    Err(e) => {
                        send_error(
                            &mut stream,
                            ErrorKind::Malformed,
                            format!("bad request: {e}"),
                        );
                        return;
                    }
                };
                if request.start > request.end {
                    send_error(
                        &mut stream,
                        ErrorKind::Malformed,
                        format!("inverted range {}..{}", request.start, request.end),
                    );
                    return;
                }
                let Some(job) = registry.get(request.job_id) else {
                    // The recoverable miss: never sent, or evicted by
                    // cache pressure. The client answers with a fresh
                    // LoadJob and retries — keep serving.
                    send_error(
                        &mut stream,
                        ErrorKind::JobNotLoaded,
                        format!(
                            "job id {} is not loaded on this connection (cache holds {})",
                            request.job_id,
                            registry.len()
                        ),
                    );
                    continue;
                };
                let (tag, reply) = match backend.run_range(job, request.start..request.end) {
                    Ok(out) => (wire::tag::BATCH, wire::encode_batch_out(&out)),
                    Err(e) => (
                        wire::tag::ERROR,
                        ErrorMsg::payload(ErrorKind::Load, e.to_string()),
                    ),
                };
                if wire::write_frame(&mut stream, tag, &reply).is_err() {
                    return;
                }
            }
            other => {
                send_error(
                    &mut stream,
                    ErrorKind::Malformed,
                    format!("unexpected frame tag {other:#04x}"),
                );
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Remote backend (client)
// ---------------------------------------------------------------------

/// An [`ExecBackend`] that ships shot ranges to a worker daemon over
/// one TCP connection.
///
/// Determinism carries over the wire by construction: the worker runs
/// the identical `run_batch` code path on a bit-exact copy of the job
/// (the wire encodes `f64`s by bit pattern), so the [`BatchOut`] it
/// returns is the one a local backend would have produced.
///
/// On a transport failure the backend reconnects and retries the
/// request once; if the worker is still unreachable it reports
/// [`RuntimeError::Transport`] and the serve pool re-dispatches the
/// range elsewhere.
///
/// Every request runs under a read/write deadline
/// ([`DEFAULT_IO_TIMEOUT`] unless [`ConnectOptions::io_timeout`] says
/// otherwise): a worker that *hangs* — its
/// host wedged, its process stopped but the TCP stack alive — turns
/// into a [`RuntimeError::Transport`] after the deadline instead of
/// blocking a dispatch slot forever. A timed-out request is **not**
/// transparently retried (the same worker would very likely eat
/// another full deadline); the error goes straight to the pool, whose
/// re-dispatch/retire machinery handles it.
pub struct RemoteBackend {
    addr: String,
    name: String,
    capacity: u32,
    stream: Option<TcpStream>,
    /// Deadline and key used for every (re)connection.
    options: ConnectOptions,
    /// Client-side encode cache (bounded, MRU first): jobs already
    /// encoded, each with its connection-scoped job id — so
    /// alternating jobs re-encode nothing and keep their ids.
    encoded: VecDeque<EncodedJob>,
    /// Next job id to assign (connection-scoped namespace; never
    /// reused within a backend, so reconnect-then-reload is safe).
    next_job_id: u64,
    /// Ids believed loaded on the *current* connection (cleared on
    /// reconnect). The worker may still evict one — that surfaces as
    /// the recoverable `JobNotLoaded` miss.
    loaded: Vec<u64>,
    traffic: WireTraffic,
}

/// One entry of the client-side encode cache.
struct EncodedJob {
    job: Job,
    bytes: Vec<u8>,
    id: u64,
}

/// How many encoded jobs a backend keeps client-side. Small: a slot
/// rarely interleaves more than a couple of jobs, and the worker-side
/// registry (not this) is what bounds remote memory.
const ENCODE_CACHE_CAPACITY: usize = 8;

/// Frame header bytes (u32 length + u8 tag) counted into traffic.
const FRAME_OVERHEAD: u64 = 5;

/// Cumulative request-side wire accounting for one [`RemoteBackend`]
/// — what the job registry is buying, in bytes. Responses are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTraffic {
    /// `RunRangeById` requests sent, including the retry after a
    /// `JobNotLoaded` miss.
    pub range_requests: u64,
    /// Total bytes of those range requests, frame headers included.
    pub range_request_bytes: u64,
    /// `LoadJob` requests sent.
    pub load_requests: u64,
    /// Total bytes of those load requests, frame headers included.
    pub load_request_bytes: u64,
    /// `JobNotLoaded` misses recovered by a transparent re-load.
    pub reloads: u64,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .field("connected", &self.stream.is_some())
            .finish()
    }
}

impl RemoteBackend {
    /// Connects to a worker and performs the handshake, with the
    /// [`DEFAULT_IO_TIMEOUT`] request deadline.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when the worker is unreachable,
    /// does not speak the protocol (bad magic), or speaks another
    /// version; [`RuntimeError::Auth`] when PSK authentication fails.
    pub fn connect(addr: impl Into<String>) -> Result<Self, RuntimeError> {
        RemoteBackend::connect_opts(addr, ConnectOptions::default())
    }

    /// [`RemoteBackend::connect`] with full [`ConnectOptions`]
    /// (deadline, pre-shared key).
    pub fn connect_opts(
        addr: impl Into<String>,
        options: ConnectOptions,
    ) -> Result<Self, RuntimeError> {
        let addr = addr.into();
        let (stream, ack) = connect_handshake(&addr, &options, || format!("remote {addr}"))?;
        Ok(RemoteBackend {
            addr,
            name: ack.name,
            capacity: ack.capacity.max(1),
            stream: Some(stream),
            options,
            encoded: VecDeque::new(),
            next_job_id: 1,
            loaded: Vec::new(),
            traffic: WireTraffic::default(),
        })
    }

    /// Connects one backend per slot the worker advertises — the
    /// "give me this worker's full parallelism" constructor, with the
    /// [`DEFAULT_IO_TIMEOUT`] request deadline.
    ///
    /// # Errors
    ///
    /// Propagates [`RemoteBackend::connect`] failures; a worker that
    /// accepted the first connection but refuses later ones yields the
    /// connections that did succeed (at least one).
    pub fn connect_pool(addr: impl Into<String>) -> Result<Vec<Self>, RuntimeError> {
        RemoteBackend::connect_pool_opts(addr, ConnectOptions::default())
    }

    /// [`RemoteBackend::connect_pool`] with full [`ConnectOptions`]
    /// for every pooled connection.
    pub fn connect_pool_opts(
        addr: impl Into<String>,
        options: ConnectOptions,
    ) -> Result<Vec<Self>, RuntimeError> {
        let addr = addr.into();
        let first = RemoteBackend::connect_opts(addr.clone(), options.clone())?;
        let want = first.capacity as usize;
        let mut pool = vec![first];
        while pool.len() < want {
            match RemoteBackend::connect_opts(addr.clone(), options.clone()) {
                Ok(backend) => pool.push(backend),
                Err(_) => break, // partial pool beats no pool
            }
        }
        Ok(pool)
    }

    /// The slot capacity the worker advertised.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The worker's self-reported name.
    pub fn worker_name(&self) -> &str {
        &self.name
    }

    /// Request-side wire accounting since connect — how many bytes
    /// ranges and job loads have cost, and how many `JobNotLoaded`
    /// misses were transparently recovered.
    pub fn traffic(&self) -> WireTraffic {
        self.traffic
    }

    fn transport_err(&self, e: impl std::fmt::Display) -> RuntimeError {
        RuntimeError::Transport {
            backend: format!("{} ({})", self.name, self.addr),
            message: e.to_string(),
        }
    }

    /// The encode-cache id for `job`, encoding and caching it on
    /// first sight (bounded LRU).
    fn ensure_encoded(&mut self, job: &Job) -> Result<u64, RuntimeError> {
        if let Some(pos) = self.encoded.iter().position(|e| &e.job == job) {
            let entry = self.encoded.remove(pos).expect("position exists");
            let id = entry.id;
            self.encoded.push_front(entry);
            return Ok(id);
        }
        let bytes = wire::encode_job(job).map_err(|e| {
            // An unencodable job is a caller bug, not a transport
            // fault — surface it as a service failure.
            RuntimeError::Service(format!("job `{}` cannot be encoded: {e}", job.name))
        })?;
        let id = self.next_job_id;
        self.next_job_id += 1;
        self.encoded.push_front(EncodedJob {
            job: job.clone(),
            bytes,
            id,
        });
        while self.encoded.len() > ENCODE_CACHE_CAPACITY {
            if let Some(evicted) = self.encoded.pop_back() {
                // A job this backend can no longer name has no
                // business in the loaded-set: the id is dead (a
                // re-encounter mints a fresh id), and keeping it
                // would grow the set — and its per-range scan — by
                // one entry per evicted job forever.
                self.loaded.retain(|&l| l != evicted.id);
            }
        }
        Ok(id)
    }

    /// One request/response round trip on the current stream.
    fn send_request(&mut self, tag: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), Exchange> {
        let timeout = self.options.io_timeout;
        let stall = |what: &str| {
            Exchange::Fatal(format!(
                "worker stalled: no {what} progress within {timeout:?} — \
                 treating the slot as hung"
            ))
        };
        let stream = self.stream.as_mut().ok_or(Exchange::Reconnect)?;
        if let Err(e) = wire::write_frame(stream, tag, payload) {
            // A stalled *write* (the worker stopped reading and the
            // send buffer filled) is the hung-worker case, not a dead
            // connection: retrying on a fresh connection would just
            // eat another full deadline, so fail the slot now.
            return match e {
                WireError::Io(io) if is_timeout(&io) => Err(stall("write")),
                _ => Err(Exchange::Reconnect),
            };
        }
        match wire::read_frame(stream) {
            Ok(frame) => Ok(frame),
            Err(WireError::Io(io)) if is_timeout(&io) => Err(stall("read")),
            Err(WireError::Io(_)) => Err(Exchange::Reconnect),
            Err(e) => Err(Exchange::Fatal(e.to_string())),
        }
    }

    /// Classifies a response expected to be the `BATCH` of `range`. A
    /// batch whose latency histogram does not count exactly the
    /// range's shots is rejected like an undecodable one: folding it
    /// would corrupt `shots_done`, so the range goes back for
    /// re-dispatch instead.
    fn classify_batch(tag: u8, payload: &[u8], range: &Range<u64>) -> Result<BatchOut, Exchange> {
        match tag {
            wire::tag::BATCH => {
                let out = wire::decode_batch_out(payload)
                    .map_err(|e| Exchange::Fatal(format!("undecodable batch: {e}")))?;
                let expected = range.end - range.start;
                if out.shots() != expected {
                    return Err(Exchange::Fatal(format!(
                        "batch for range {}..{} covers {} shots, expected {expected}",
                        range.start,
                        range.end,
                        out.shots()
                    )));
                }
                Ok(out)
            }
            wire::tag::ERROR => {
                let msg = ErrorMsg::decode(payload)
                    .map_err(|e| Exchange::Fatal(format!("undecodable error frame: {e}")))?;
                match msg.kind {
                    ErrorKind::Load => Err(Exchange::Load(msg.message)),
                    ErrorKind::JobNotLoaded => Err(Exchange::NotLoaded),
                    _ => Err(Exchange::Fatal(msg.to_string())),
                }
            }
            other => Err(Exchange::Fatal(format!(
                "unexpected frame tag {other:#04x}"
            ))),
        }
    }

    /// Sends `LoadJob` for the cached job `id` and records it loaded.
    fn load_job(&mut self, id: u64) -> Result<(), Exchange> {
        let payload = {
            let entry = self
                .encoded
                .iter()
                .find(|e| e.id == id)
                .expect("job encoded before load");
            LoadJob::encode_parts(id, &entry.bytes)
        };
        self.traffic.load_requests += 1;
        self.traffic.load_request_bytes += payload.len() as u64 + FRAME_OVERHEAD;
        let (tag, resp) = self.send_request(wire::tag::LOAD_JOB, &payload)?;
        match tag {
            wire::tag::LOAD_ACK => {
                let ack = LoadAck::decode(&resp)
                    .map_err(|e| Exchange::Fatal(format!("undecodable load ack: {e}")))?;
                if ack.job_id != id {
                    return Err(Exchange::Fatal(format!(
                        "load ack names job {} (expected {id})",
                        ack.job_id
                    )));
                }
                if !self.loaded.contains(&id) {
                    self.loaded.push(id);
                }
                Ok(())
            }
            wire::tag::ERROR => {
                let msg = ErrorMsg::decode(&resp)
                    .map_err(|e| Exchange::Fatal(format!("undecodable error frame: {e}")))?;
                match msg.kind {
                    ErrorKind::Load => Err(Exchange::Load(msg.message)),
                    _ => Err(Exchange::Fatal(msg.to_string())),
                }
            }
            other => Err(Exchange::Fatal(format!(
                "unexpected load response tag {other:#04x}"
            ))),
        }
    }

    /// One range: ensure the job is registered, run the range by id,
    /// and transparently re-load on an eviction miss.
    fn exchange(&mut self, id: u64, range: &Range<u64>) -> Result<BatchOut, Exchange> {
        if !self.loaded.contains(&id) {
            self.load_job(id)?;
        }
        let payload = RunRangeById {
            job_id: id,
            start: range.start,
            end: range.end,
        }
        .encode();
        self.traffic.range_requests += 1;
        self.traffic.range_request_bytes += payload.len() as u64 + FRAME_OVERHEAD;
        let (tag, resp) = self.send_request(wire::tag::RUN_RANGE_BY_ID, &payload)?;
        match RemoteBackend::classify_batch(tag, &resp, range) {
            Err(Exchange::NotLoaded) => {
                // The worker evicted this job under cache pressure:
                // the typed miss costs one re-load round trip, never
                // a wrong answer.
                self.traffic.reloads += 1;
                crate::metrics::rt().job_registry_reloads.inc();
                self.loaded.retain(|&l| l != id);
                self.load_job(id)?;
                self.traffic.range_requests += 1;
                self.traffic.range_request_bytes += payload.len() as u64 + FRAME_OVERHEAD;
                let (tag, resp) = self.send_request(wire::tag::RUN_RANGE_BY_ID, &payload)?;
                match RemoteBackend::classify_batch(tag, &resp, range) {
                    Err(Exchange::NotLoaded) => Err(Exchange::Fatal(
                        "worker reports JobNotLoaded immediately after a load ack".to_owned(),
                    )),
                    outcome => outcome,
                }
            }
            outcome => outcome,
        }
    }
}

/// Outcome classification of one exchange attempt.
enum Exchange {
    /// The connection is gone; reconnect and retry once.
    Reconnect,
    /// The peer answered with something that will not improve on
    /// retry over this transport (protocol or load failure).
    Fatal(String),
    /// The worker rejected the *job* (validation failure): fail the
    /// job, do not retry anywhere.
    Load(String),
    /// The worker does not hold the named job — re-load and retry on
    /// this same connection.
    NotLoaded,
}

/// Opens a TCP connection to `addr` with the connect + I/O deadlines
/// applied.
fn open_stream(addr: &str, io_timeout: Option<Duration>) -> Result<TcpStream, WireError> {
    let mut last_err: Option<std::io::Error> = None;
    let mut stream = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, Duration::from_secs(5)) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let stream = stream.ok_or_else(|| {
        WireError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "no addresses resolved",
            )
        }))
    })?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(io_timeout).map_err(WireError::Io)?;
    stream
        .set_write_timeout(io_timeout)
        .map_err(WireError::Io)?;
    Ok(stream)
}

/// Connects and performs the client side of the handshake (version
/// check, optional PSK challenge–response). `opts.io_timeout` becomes
/// the stream's read/write deadline — covering the handshake itself (a
/// server that accepts the TCP connection and then goes silent must
/// not hang the caller) and every later request on the returned
/// stream.
///
/// Public as [`crate::client::handshake`] for callers that write wire
/// frames themselves, such as a subscriber that drops its stream
/// mid-subscription on purpose.
pub fn handshake(addr: &str, opts: &ConnectOptions) -> Result<(TcpStream, HelloAck), WireError> {
    let mut stream = open_stream(addr, opts.io_timeout)?;
    let hello = Hello {
        version: PROTOCOL_VERSION,
    };
    wire::write_frame(&mut stream, wire::tag::HELLO, &hello.encode())?;
    let (mut tag, mut payload) = wire::read_frame(&mut stream)?;
    let mut authed = false;
    if tag == wire::tag::AUTH_CHALLENGE {
        let Some(psk) = &opts.psk else {
            return Err(WireError::AuthFailed {
                message: format!("server {addr} requires a pre-shared key and none is configured"),
            });
        };
        let challenge = AuthChallenge::decode(&payload)?;
        let client_nonce = fresh_nonce();
        let response = AuthResponse {
            client_nonce: client_nonce.to_vec(),
            proof: psk
                .client_proof(&challenge.server_nonce, &client_nonce)
                .to_vec(),
        };
        wire::write_frame(&mut stream, wire::tag::AUTH_RESPONSE, &response.encode())?;
        let (ok_tag, ok_payload) = wire::read_frame(&mut stream)?;
        match ok_tag {
            wire::tag::AUTH_OK => {
                let ok = AuthOk::decode(&ok_payload)?;
                let expected = psk.server_proof(&challenge.server_nonce, &client_nonce);
                if !ct_eq(&expected, &ok.proof) {
                    return Err(WireError::AuthFailed {
                        message: format!("server {addr} failed mutual authentication"),
                    });
                }
            }
            wire::tag::ERROR => {
                let msg = ErrorMsg::decode(&ok_payload)?;
                return Err(match msg.kind {
                    ErrorKind::AuthFailed => WireError::AuthFailed {
                        message: msg.message,
                    },
                    _ => WireError::Remote(msg),
                });
            }
            other => {
                return Err(WireError::UnknownTag {
                    what: "auth response",
                    tag: other,
                })
            }
        }
        authed = true;
        (tag, payload) = wire::read_frame(&mut stream)?;
    }
    match tag {
        wire::tag::HELLO_ACK => {
            if opts.psk.is_some() && !authed {
                // A configured key must never silently downgrade to
                // an unauthenticated conversation — a misconfigured
                // (keyless) server is an error the operator wants to
                // see. Checked only on a *successful* ack: a typed
                // ERROR (e.g. a `Version` rejection) must reach its
                // own classification below, not be masked as an auth
                // problem.
                return Err(WireError::AuthFailed {
                    message: format!(
                        "a pre-shared key is configured but server {addr} did not request \
                         authentication"
                    ),
                });
            }
            let ack = HelloAck::decode(&payload)?;
            if ack.version != PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: ack.version,
                });
            }
            Ok((stream, ack))
        }
        wire::tag::ERROR => {
            let msg = ErrorMsg::decode(&payload)?;
            match msg.kind {
                ErrorKind::Version => Err(WireError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: msg.version,
                }),
                ErrorKind::AuthFailed => Err(WireError::AuthFailed {
                    message: msg.message,
                }),
                _ => Err(WireError::Remote(msg)),
            }
        }
        other => Err(WireError::UnknownTag {
            what: "handshake response",
            tag: other,
        }),
    }
}

/// [`handshake`] in the runtime's error space: a failed key exchange
/// is [`RuntimeError::Auth`], any other failure a
/// [`RuntimeError::Transport`] naming `backend`.
pub(crate) fn connect_handshake(
    addr: &str,
    opts: &ConnectOptions,
    backend: impl FnOnce() -> String,
) -> Result<(TcpStream, HelloAck), RuntimeError> {
    handshake(addr, opts).map_err(|e| match e {
        WireError::AuthFailed { message } => RuntimeError::Auth(message),
        e => RuntimeError::Transport {
            backend: backend(),
            message: e.to_string(),
        },
    })
}

impl ExecBackend for RemoteBackend {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            name: self.name.clone(),
            kind: BackendKind::Remote {
                addr: self.addr.clone(),
            },
            slots: 1,
        }
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        let id = self.ensure_encoded(job)?;

        // One transparent reconnect: a worker that restarted between
        // batches (or an idle connection a middlebox dropped) should
        // not count as a backend failure.
        for attempt in 0..2 {
            match self.exchange(id, &range) {
                Ok(out) => return Ok(out),
                Err(Exchange::Load(message)) => {
                    return Err(RuntimeError::Service(format!(
                        "worker {}: {message}",
                        self.name
                    )))
                }
                Err(Exchange::Fatal(message)) => {
                    self.stream = None;
                    self.loaded.clear();
                    return Err(self.transport_err(message));
                }
                Err(Exchange::NotLoaded) => {
                    // exchange already converts a post-reload miss to
                    // Fatal; a stray NotLoaded is a protocol bug.
                    self.stream = None;
                    self.loaded.clear();
                    return Err(self.transport_err("unexpected JobNotLoaded"));
                }
                Err(Exchange::Reconnect) => {
                    self.stream = None;
                    // A fresh connection has an empty worker-side
                    // registry: everything must be re-loaded.
                    self.loaded.clear();
                    if attempt == 0 {
                        match handshake(&self.addr, &self.options) {
                            Ok((stream, ack)) => {
                                self.name = ack.name;
                                self.stream = Some(stream);
                            }
                            Err(e) => return Err(self.transport_err(e)),
                        }
                    }
                }
            }
        }
        Err(self.transport_err("connection lost twice running one range"))
    }
}

/// Sends a liveness probe over a dedicated short-lived connection,
/// under the [`DEFAULT_IO_TIMEOUT`] deadline. Returns the worker's
/// handshake metadata.
///
/// # Errors
///
/// [`WireError`] when the worker is unreachable or unhealthy.
pub fn ping(addr: &str) -> Result<HelloAck, WireError> {
    ping_opts(addr, &ConnectOptions::default())
}

/// [`ping`] with full [`ConnectOptions`] — what the pool supervisor
/// uses, so its deadline bounds each probe and its key reaches
/// workers that demand authentication.
pub fn ping_opts(addr: &str, options: &ConnectOptions) -> Result<HelloAck, WireError> {
    let (mut stream, ack) = handshake(addr, options)?;
    wire::write_frame(&mut stream, wire::tag::PING, &[])?;
    let (tag, _) = wire::read_frame(&mut stream)?;
    if tag != wire::tag::PONG {
        return Err(WireError::UnknownTag {
            what: "ping response",
            tag,
        });
    }
    stream.flush().ok();
    Ok(ack)
}

// ---------------------------------------------------------------------
// Serve front door: the JobQueue over the wire
// ---------------------------------------------------------------------

/// Configuration of the serve acceptor — the network front door that
/// exposes a [`JobQueue`] to remote [`crate::client::Client`]s over
/// the framed transport.
#[derive(Debug, Clone)]
pub struct ServeNetConfig {
    /// Self-reported name, echoed in the handshake.
    pub name: String,
    /// Pre-shared key; when set, every client connection must pass
    /// the HMAC challenge–response.
    pub psk: Option<Psk>,
    /// Per-connection frame-size budget (a submission larger than
    /// this is rejected with a typed `Budget` error).
    pub max_frame_len: u32,
    /// Per-connection request-rate budget (requests per second;
    /// `None` disables). Streamed snapshot frames do not count — only
    /// client requests do.
    pub max_requests_per_sec: Option<u32>,
    /// How often a subscription re-checks a job for progress.
    pub snapshot_interval: Duration,
    /// A subscription with no progress re-sends its latest snapshot
    /// at this interval, so a slow job cannot trip the client's read
    /// deadline.
    pub keepalive: Duration,
    /// How many **completed** jobs stay addressable by id. A
    /// long-lived front door cannot retain every job it ever served
    /// (each final result holds a histogram); past this many finished
    /// jobs, each `SUBMIT` releases the oldest finished ones from the
    /// queue's job table — their `status`/`watch` lookups then report
    /// "released". Running jobs and jobs being streamed to a
    /// subscriber are never released.
    pub completed_retention: usize,
    /// Per-connection outbound-queue cap, in bytes. A subscriber that
    /// cannot keep up with the snapshot stream accumulates queued
    /// frames up to this bound and is then disconnected
    /// (`eqasm_net_backpressure_disconnects_total`) — backpressure by
    /// eviction, never by blocking the reactor.
    pub max_outbound_queue: usize,
    /// Disconnect a handshaked connection that has sent no request
    /// for this long (`None` disables — the default; clients keep
    /// idle pooled connections). Subscriptions are exempt: they are
    /// server-push and legitimately quiet on the read side.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeNetConfig {
    fn default() -> Self {
        ServeNetConfig {
            name: "eqasm-serve".to_owned(),
            psk: None,
            max_frame_len: MAX_FRAME_LEN,
            max_requests_per_sec: None,
            snapshot_interval: Duration::from_millis(5),
            keepalive: Duration::from_secs(1),
            completed_retention: 4096,
            max_outbound_queue: 8 << 20,
            idle_timeout: None,
        }
    }
}

impl ServeNetConfig {
    /// Returns the config with the given name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns the config requiring PSK authentication.
    pub fn with_psk(mut self, psk: Psk) -> Self {
        self.psk = Some(psk);
        self
    }

    /// Returns the config with a per-connection frame-size budget.
    pub fn with_max_frame_len(mut self, max_len: u32) -> Self {
        self.max_frame_len = max_len.clamp(64, MAX_FRAME_LEN);
        self
    }

    /// Returns the config with a per-connection request-rate budget.
    pub fn with_max_requests_per_sec(mut self, rate: Option<u32>) -> Self {
        self.max_requests_per_sec = rate;
        self
    }

    /// Returns the config retaining at most this many completed jobs
    /// addressable by id (clamped to at least 1).
    pub fn with_completed_retention(mut self, retention: usize) -> Self {
        self.completed_retention = retention.max(1);
        self
    }

    /// Returns the config with a per-connection outbound-queue cap in
    /// bytes (clamped to at least one max-size frame's length prefix;
    /// a single frame larger than the cap is still deliverable — the
    /// cap bounds *backlog*, not frame size).
    pub fn with_max_outbound_queue(mut self, bytes: usize) -> Self {
        self.max_outbound_queue = bytes.max(64);
        self
    }

    /// Returns the config disconnecting request connections idle for
    /// this long (`None` disables).
    pub fn with_idle_timeout(mut self, idle_timeout: Option<Duration>) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }
}

/// A handle to an in-process serve acceptor, used by tests, benches
/// and embedded deployments. The CLI's `eqasm-cli serve --listen`
/// uses the blocking [`run_serve_until`] instead.
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: reactor::ReactorWaker,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The address the acceptor is listening on (useful with a
    /// port-0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections; existing connections close
    /// after their current request or subscription. The waker matters:
    /// an idle reactor blocks indefinitely in its poller (no periodic
    /// tick), so the flag alone would sit unread until the next
    /// connection event.
    pub fn kill(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.kill();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the serve front door on `listener` in background threads:
/// remote clients can then submit to `queue`, poll snapshots and
/// stream partial results over TCP. Returns a handle that stops the
/// acceptor on drop (the queue itself is left running — it belongs to
/// the caller). Stopping drains like [`run_serve_until`]: in-flight
/// connections finish their current request before the handle's join
/// returns.
///
/// # Errors
///
/// Listener, epoll or thread failures; on a target other than Linux
/// (the reactor is epoll-only), [`std::io::ErrorKind::Unsupported`].
pub fn spawn_serve(
    listener: TcpListener,
    queue: Arc<JobQueue>,
    config: ServeNetConfig,
) -> std::io::Result<ServeHandle> {
    let addr = listener.local_addr()?;
    // Build the reactor on the caller's thread so bind/epoll/pipe
    // failures surface synchronously, then move it onto the one
    // accept-and-serve thread. One thread total, whatever the
    // connection count — the entire point of the reactor.
    let reactor = reactor::ServeReactor::new(listener, queue, config)?;
    let waker = reactor.waker();
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("eqasm-serve-reactor".to_owned())
        .spawn(move || {
            let _ = reactor.run(&accept_shutdown);
        })?;
    Ok(ServeHandle {
        addr,
        shutdown,
        waker,
        accept_thread: Some(accept_thread),
    })
}

/// Runs the serve front door on `listener`, blocking until `shutdown`
/// flips — the body of `eqasm-cli serve --listen <addr>`. On shutdown
/// the acceptor stops taking connections and in-flight connections
/// close after their current request (a subscription mid-stream is
/// told the server is draining), bounded by the drain timeout.
///
/// # Errors
///
/// As [`spawn_serve`].
pub fn run_serve_until(
    listener: TcpListener,
    queue: Arc<JobQueue>,
    config: ServeNetConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // The reactor parks in its poller with no timeout when idle, so a
    // signal-driven shutdown needs more than the flag: the CLI's
    // handler calls [`wake_serve_shutdown`] (async-signal-safe), and
    // `epoll_wait` additionally returns `EINTR` on any signal (it is
    // never restarted, even with `SA_RESTART`), after which
    // the loop re-reads `shutdown`.
    reactor::ServeReactor::new(listener, queue, config)?.run(shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_local_worker(capacity: usize) -> WorkerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        spawn_worker(
            listener,
            WorkerConfig::default()
                .with_name("test-worker")
                .with_capacity(capacity),
        )
        .expect("spawn worker")
    }

    fn tiny_job(shots: u64) -> Job {
        let (inst, program) = crate::WorkloadKind::ActiveReset { init_cycles: 20 }
            .build()
            .expect("builds");
        Job::new("net-test", inst, program)
            .with_shots(shots)
            .with_seed(5)
    }

    #[test]
    fn handshake_and_ping() {
        let worker = spawn_local_worker(3);
        let ack = ping(&worker.addr().to_string()).expect("pings");
        assert_eq!(ack.name, "test-worker");
        assert_eq!(ack.capacity, 3);
        assert_eq!(ack.version, PROTOCOL_VERSION);
    }

    #[test]
    fn remote_range_matches_local_range() {
        let worker = spawn_local_worker(1);
        let job = tiny_job(16);
        let mut remote = RemoteBackend::connect(worker.addr().to_string()).expect("connects");
        let mut local = crate::LocalBackend::new(0);
        for range in [0..8u64, 8..16] {
            let r = remote.run_range(&job, range.clone()).expect("remote runs");
            let l = local.run_range(&job, range).expect("local runs");
            assert_eq!(r.histogram, l.histogram);
            assert_eq!(r.stats, l.stats);
            assert_eq!(r.prob1_sum, l.prob1_sum, "bit-identical f64 sums");
            assert_eq!(r.shots(), l.shots());
        }
    }

    #[test]
    fn connect_pool_sizes_to_advertised_capacity() {
        let worker = spawn_local_worker(2);
        let pool = RemoteBackend::connect_pool(worker.addr().to_string()).expect("pools");
        assert_eq!(pool.len(), 2);
        for backend in &pool {
            assert_eq!(backend.worker_name(), "test-worker");
        }
    }

    #[test]
    fn remote_load_failure_is_not_transport() {
        let worker = spawn_local_worker(1);
        let bad = crate::backend::tests::unloadable_job();
        let mut remote = RemoteBackend::connect(worker.addr().to_string()).expect("connects");
        let err = remote.run_range(&bad, 0..1).expect_err("load fails");
        assert!(!err.is_transport(), "{err}");
        // The slot survives a load failure: a good job still runs.
        let out = remote.run_range(&tiny_job(4), 0..4).expect("recovers");
        assert_eq!(out.shots(), 4);
    }

    /// A worker that *hangs* instead of dying: accepts the TCP
    /// connection, completes the handshake, reads requests — and never
    /// answers one. The pre-deadline client would block in
    /// `read_frame` forever.
    fn spawn_hung_worker() -> SocketAddr {
        let server = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = server.accept() else {
                return;
            };
            let Ok((tag, payload)) = wire::read_frame(&mut stream) else {
                return;
            };
            assert_eq!(tag, wire::tag::HELLO);
            Hello::decode(&payload).expect("valid hello");
            let ack = HelloAck {
                version: PROTOCOL_VERSION,
                capacity: 1,
                name: "hung-worker".to_owned(),
            };
            let _ = wire::write_frame(&mut stream, wire::tag::HELLO_ACK, &ack.encode());
            // Swallow the request, answer nothing, keep the
            // connection open (the TCP stack stays healthy — only the
            // "worker" is wedged).
            let _ = wire::read_frame(&mut stream);
            std::thread::sleep(Duration::from_secs(30));
        });
        addr
    }

    #[test]
    fn hung_worker_times_out_as_transport_error() {
        // Regression: with only connect_timeout set, a worker that
        // accepted the request and then stalled blocked the dispatch
        // slot forever — no error ever surfaced, so retirement never
        // fired. The I/O deadline turns the stall into a transport
        // error the re-dispatch/retire path can act on.
        let addr = spawn_hung_worker();
        let mut remote = RemoteBackend::connect_opts(
            addr.to_string(),
            ConnectOptions::default().with_io_timeout(Some(Duration::from_millis(200))),
        )
        .expect("handshake succeeds; only requests hang");
        let started = Instant::now();
        let err = remote
            .run_range(&tiny_job(4), 0..4)
            .expect_err("stalled request must not block forever");
        assert!(err.is_transport(), "{err}");
        assert!(err.to_string().contains("stalled"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must fire in bounded time, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn drained_worker_finishes_requests_then_exits() {
        // run_worker_until: flipping the flag stops the accept loop
        // and closes connections *between* requests — the daemon-side
        // half of a clean rolling restart.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let flag = Arc::new(AtomicBool::new(false));
        let daemon_flag = Arc::clone(&flag);
        let daemon = std::thread::spawn(move || {
            run_worker_until(
                listener,
                WorkerConfig::default().with_name("drainer"),
                &daemon_flag,
            )
        });

        let mut remote = RemoteBackend::connect(addr.to_string()).expect("connects");
        let out = remote.run_range(&tiny_job(4), 0..4).expect("serves");
        assert_eq!(out.shots(), 4);

        flag.store(true, Ordering::Release);
        daemon
            .join()
            .expect("daemon thread")
            .expect("clean drain exit");

        // The drained daemon is gone: the next request cannot even
        // reconnect.
        let err = remote
            .run_range(&tiny_job(4), 0..4)
            .expect_err("drained daemon serves nothing");
        assert!(err.is_transport(), "{err}");
    }

    /// The drain deadline's severing path, run alone in a child process
    /// of this test binary: the worker connection gauge is
    /// process-global, and the other tests here move it too.
    #[test]
    fn drain_deadline_severs_a_stalled_connection() {
        let test = "net::tests::drain_deadline_severs_a_stalled_connection_alone";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([test, "--exact", "--ignored", "--test-threads=1"])
            .output()
            .expect("runs the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    #[ignore = "run in its own process by drain_deadline_severs_a_stalled_connection"]
    fn drain_deadline_severs_a_stalled_connection_alone() {
        let gauge = crate::metrics::rt().open_connections.with(&["worker"]);
        let before = gauge.get();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || {
            worker_loop(
                listener,
                WorkerConfig::default(),
                &flag,
                &Arc::default(),
                Duration::from_millis(200),
            )
        });

        // A peer that handshakes, then sends three bytes of a frame
        // header and stalls: its connection thread blocks mid-frame,
        // with no read deadline, where the drain flag cannot reach it.
        let (mut peer, _) = handshake(&addr, &ConnectOptions::default()).expect("handshakes");
        peer.write_all(&[wire::tag::PING, 0, 0]).expect("writes");
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge.get() != before + 1 {
            assert!(
                Instant::now() < deadline,
                "the connection was never counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let started = Instant::now();
        shutdown.store(true, Ordering::Release);
        let severed = daemon.join().expect("daemon thread").expect("drains");
        assert_eq!(severed, 1, "the stalled connection is severed");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a 200 ms drain deadline took {:?}",
            started.elapsed()
        );
        // The severed connection's thread wakes, exits and uncounts it.
        while gauge.get() != before {
            assert!(
                Instant::now() < deadline,
                "the worker gauge reads {}, expected {before}",
                gauge.get()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(peer);
    }

    #[test]
    fn kill_stops_worker_promptly() {
        // Regression for the kill race: kill() used to unblock the
        // accept loop by dialing itself with a 200 ms connect timeout
        // — on a loaded host the connect could time out and leave the
        // accept thread parked until the next real client. The
        // nonblocking accept poll makes kill + join bounded.
        let worker = spawn_local_worker(1);
        let started = Instant::now();
        worker.kill();
        drop(worker); // joins the accept thread
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "kill+join took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn killed_worker_yields_transport_error() {
        let worker = spawn_local_worker(1);
        let mut remote = RemoteBackend::connect(worker.addr().to_string()).expect("connects");
        remote
            .run_range(&tiny_job(4), 0..4)
            .expect("first range runs");
        worker.kill();
        let err = remote
            .run_range(&tiny_job(4), 0..4)
            .expect_err("dead worker fails");
        assert!(err.is_transport(), "{err}");
    }

    #[test]
    fn reconnect_after_idle_disconnect() {
        let worker = spawn_local_worker(1);
        let mut remote = RemoteBackend::connect(worker.addr().to_string()).expect("connects");
        // Sever just this connection (worker stays up): the next
        // request reconnects transparently.
        if let Some(stream) = remote.stream.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let out = remote.run_range(&tiny_job(4), 0..4).expect("reconnects");
        assert_eq!(out.shots(), 4);
    }

    /// Sends a `Hello` offering `version` and returns the typed
    /// rejection it earns.
    fn offer_rejected(version: u16) -> ErrorMsg {
        let worker = spawn_local_worker(1);
        let mut stream = TcpStream::connect(worker.addr()).expect("connects");
        wire::write_frame(&mut stream, wire::tag::HELLO, &Hello { version }.encode()).unwrap();
        let (tag, payload) = wire::read_frame(&mut stream).expect("gets answer");
        assert_eq!(tag, wire::tag::ERROR);
        ErrorMsg::decode(&payload).expect("typed error")
    }

    #[test]
    fn version_5_hello_gets_a_typed_version_error() {
        let msg = offer_rejected(5);
        assert_eq!(msg.kind, ErrorKind::Version);
        assert_eq!(msg.version, PROTOCOL_VERSION);
        assert!(msg.message.contains("v5"), "{}", msg.message);
    }

    #[test]
    fn higher_offer_is_rejected_too() {
        // Equality, not a floor: a newer offer is a mismatch as well.
        let msg = offer_rejected(PROTOCOL_VERSION + 1);
        assert_eq!(msg.kind, ErrorKind::Version);
    }

    #[test]
    fn short_remote_batch_is_a_transport_error() {
        // A fake worker that handshakes, loads the job and answers the
        // range with a batch covering one shot fewer than asked.
        let server = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = server.accept().expect("accept");
            wire::read_frame(&mut stream).expect("hello");
            let ack = HelloAck {
                version: PROTOCOL_VERSION,
                capacity: 1,
                name: "short".to_owned(),
            };
            wire::write_frame(&mut stream, wire::tag::HELLO_ACK, &ack.encode()).unwrap();
            loop {
                let Ok((tag, payload)) = wire::read_frame(&mut stream) else {
                    return;
                };
                match tag {
                    wire::tag::LOAD_JOB => {
                        let load = LoadJob::decode(&payload).expect("load");
                        let ack = LoadAck {
                            job_id: load.job_id,
                            cached: 1,
                        };
                        wire::write_frame(&mut stream, wire::tag::LOAD_ACK, &ack.encode()).unwrap();
                    }
                    wire::tag::RUN_RANGE_BY_ID => {
                        let run = RunRangeById::decode(&payload).expect("range");
                        let out = LocalBackend::new(0)
                            .run_range(&tiny_job(16), run.start..run.end - 1)
                            .expect("runs");
                        let bytes = wire::encode_batch_out(&out);
                        wire::write_frame(&mut stream, wire::tag::BATCH, &bytes).unwrap();
                    }
                    _ => return,
                }
            }
        });
        let mut remote = RemoteBackend::connect(addr.to_string()).expect("connects");
        let err = remote
            .run_range(&tiny_job(16), 0..8)
            .expect_err("a short batch must not fold");
        assert!(err.is_transport(), "{err}");
        assert!(
            err.to_string().contains("covers 7 shots, expected 8"),
            "{err}"
        );
        drop(remote);
        fake.join().unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let worker = spawn_local_worker(1);
        let mut stream = TcpStream::connect(worker.addr()).expect("connects");
        wire::write_frame(&mut stream, wire::tag::HELLO, b"XXXX\x01\x00").unwrap();
        let (tag, payload) = wire::read_frame(&mut stream).expect("gets answer");
        assert_eq!(tag, wire::tag::ERROR);
        let msg = ErrorMsg::decode(&payload).expect("typed error");
        assert_eq!(msg.kind, ErrorKind::Malformed);
    }
}

//! The serve front door's event loop: one thread, every connection.
//!
//! Thread-per-connection cannot hold tens of thousands of mostly-idle
//! `SUBSCRIBE` streams — each one pins an OS stack to sleep in a
//! 200-tick/s `progress_probe` poll. This module replaces that with a
//! single-threaded reactor over nonblocking `std::net` sockets:
//!
//! * **Readiness** comes from `epoll(7)` via raw FFI (the same
//!   no-dependency route the CLI uses for `signal(2)`). The module is
//!   Linux-only; elsewhere [`super::spawn_serve`] and
//!   [`super::run_serve_until`] return a typed
//!   [`std::io::ErrorKind::Unsupported`] error.
//! * **Connections** are per-fd state machines
//!   (`Handshake → Serving → Subscribed`), fed by the incremental
//!   [`wire::FrameReader`] and drained through the bounded
//!   [`wire::FrameWriter`] — a slow subscriber overflows its outbound
//!   queue and is disconnected (`eqasm_net_backpressure_disconnects_
//!   total`) instead of blocking the loop.
//! * **Progress** is pushed, not polled: the job queue's fold step
//!   fires a registered hook that writes one byte to the reactor's
//!   self-pipe; the reactor wakes, probes the handful of jobs with
//!   live subscriptions, encodes each advanced snapshot **once**, and
//!   fans the same `Arc`'d frame out to every subscriber. Between
//!   events the loop blocks in `epoll_wait` with **no periodic tick**
//!   — the wait timeout is the nearest deadline (handshake, keepalive,
//!   drain) or infinite.
//! * **Deadlines** replace per-thread `set_read_timeout`: handshakes
//!   must finish within the accept deadline, subscriptions re-send
//!   their latest snapshot on the keepalive interval, and an optional
//!   idle timeout reaps silent request connections.
//!
//! Workers stay threaded ([`super::run_worker_until`]): they are few
//! and busy, so an event loop buys them nothing. Both servers drive the
//! one sans-IO handshake core (`super::handshake`), so version, auth
//! and rejection semantics are the worker daemon's frame for frame.

use std::collections::HashMap;
use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::RuntimeError;
use crate::serve::{JobHandle, JobQueue, NoJob};
use crate::wire::{
    self, ErrorKind, ErrorMsg, FrameReader, FrameWriter, RemoteJobInfo, SubmitAck, WireError,
};

use super::handshake::{AcceptPolicy, ServerHandshake, Step};
use super::{RateLimiter, ServeNetConfig, DRAIN_TIMEOUT, HANDSHAKE_TIMEOUT};

// ---------------------------------------------------------------------
// Raw FFI: epoll, pipes
// ---------------------------------------------------------------------

/// Just enough libc, by hand — the repo's no-new-dependencies rule
/// (see the `signal(2)` precedent in `eqasm-cli`). Every constant is
/// from the Linux ABI and checked by the reactor's own tests.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI keeps
    /// the 64-bit data word unaligned there); naturally aligned
    /// everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Readiness: the fd has bytes to read (or a pending accept).
const READABLE: u32 = 1;
/// Readiness: the fd will accept writes.
const WRITABLE: u32 = 2;
/// Readiness: the peer closed or the socket errored — terminal.
const CLOSED: u32 = 4;

/// How many kernel events one wait call collects.
const EVENT_BATCH: usize = 256;

/// Level-triggered `epoll(7)` readiness: O(ready) wakeups however
/// many fds are registered — what lets one thread hold 5,000 idle
/// subscribers for free. Level triggering makes a missed edge
/// impossible by design: un-drained readiness simply reports again on
/// the next wait.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> std::io::Result<Poller> {
        // SAFETY: a plain syscall with a constant flag; no memory is
        // passed.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest & READABLE != 0 {
            events |= sys::EPOLLIN;
        }
        if interest & WRITABLE != 0 {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` the
        // kernel only reads for the duration of the call.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until readiness or `timeout` (`None` = forever — the
    /// no-periodic-tick guarantee lives here), appending
    /// `(token, readiness)` pairs to `out`. `EINTR` returns empty so
    /// the caller re-checks its shutdown flag — how a signal stops a
    /// reactor parked on an infinite wait.
    fn wait(
        &mut self,
        out: &mut Vec<(u64, u32)>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => {
                // Round up: rounding down busy-spins when a deadline
                // is sub-millisecond away.
                let ms = t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0));
                ms.min(i32::MAX as u128) as i32
            }
        };
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        // SAFETY: the kernel writes at most `EVENT_BATCH` entries into
        // `events`, which holds exactly that many.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                EVENT_BATCH as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in events.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let (bits, token) = (ev.events, ev.data);
            let mut readiness = 0;
            if bits & sys::EPOLLIN != 0 {
                readiness |= READABLE;
            }
            if bits & sys::EPOLLOUT != 0 {
                readiness |= WRITABLE;
            }
            if bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 {
                readiness |= CLOSED;
            }
            out.push((token, readiness));
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was opened by `Poller::new` and is closed only
        // here, once.
        unsafe { sys::close(self.epfd) };
    }
}

fn set_nonblocking_fd(fd: RawFd) -> std::io::Result<()> {
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 || unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Waking a parked reactor
// ---------------------------------------------------------------------

/// The write end of the reactor's self-pipe. Cheap, clonable,
/// thread-safe, and — critically — **async-signal-safe** to fire: one
/// `write(2)` of one byte, no locks. The job queue's progress hook,
/// [`super::ServeHandle::kill`], and the CLI's signal handler all wake
/// the loop through one of these. Writes into a full pipe fail with
/// `EAGAIN`, which is exactly the coalescing we want: a parked reactor
/// needs one pending byte, not one per fold.
#[derive(Clone)]
pub(crate) struct ReactorWaker {
    inner: Arc<WakerFd>,
}

struct WakerFd(RawFd);

impl Drop for WakerFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

impl ReactorWaker {
    /// Wakes the reactor (best-effort, never blocks).
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.inner.0, (&byte as *const u8).cast(), 1) };
    }
}

/// Builds the self-pipe: returns `(read_fd, waker)`. Both ends are
/// nonblocking — the read side so draining never stalls the loop, the
/// write side so wakers never block their caller.
fn wake_pipe() -> std::io::Result<(RawFd, ReactorWaker)> {
    let mut fds = [0i32; 2];
    if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    for fd in fds {
        if let Err(e) = set_nonblocking_fd(fd) {
            unsafe {
                sys::close(fds[0]);
                sys::close(fds[1]);
            }
            return Err(e);
        }
    }
    Ok((
        fds[0],
        ReactorWaker {
            inner: Arc::new(WakerFd(fds[1])),
        },
    ))
}

/// The wake fd a signal handler may write to (`-1` when no reactor is
/// parked). One slot suffices — a process runs one serve front door —
/// and an `AtomicI32` plus `write(2)` keeps the whole path
/// async-signal-safe, which a `Mutex<Vec<_>>` would not be.
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// Wakes a serve reactor parked in its poller, if one is running —
/// **async-signal-safe**, for use from the CLI's SIGINT/SIGTERM
/// handler right after it stores the shutdown flag. Without this the
/// flag would sit unread until the next connection event, because an
/// idle reactor blocks indefinitely (no periodic tick). Harmless when
/// no reactor is running.
pub fn wake_serve_shutdown() {
    let fd = SIGNAL_WAKE_FD.load(Ordering::Acquire);
    if fd >= 0 {
        let byte = 1u8;
        unsafe { sys::write(fd, (&byte as *const u8).cast(), 1) };
    }
}

// ---------------------------------------------------------------------
// Per-connection state machines
// ---------------------------------------------------------------------

/// Grace period for flushing a goodbye (typed error, final result)
/// before a closing connection is dropped outright.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Where a connection is in its life. `Handshake` holds the sans-IO
/// handshake core the worker daemon drives too; `Serving` is the
/// request loop; `Subscribed` is a parked stream the fanout pushes
/// into.
enum ConnState {
    /// Running the handshake (and PSK auth, when configured).
    Handshake(ServerHandshake),
    /// Authed (as configured) and serving sequential requests.
    Serving,
    /// Streaming one job's snapshots. The socket's read interest is
    /// dropped — exactly like the threaded streamer, which simply
    /// never read mid-subscription, so a client pipelining requests
    /// behind a subscribe backpressures in its socket buffer.
    Subscribed {
        job_id: u64,
        /// Highest `batches_done` already sent (or the client's resume
        /// point) — the strictly-monotonic send filter that makes
        /// resume exact: never re-deliver, never skip.
        last_sent_batches: Option<u64>,
        /// When the last snapshot went out (keepalive clock).
        last_sent: Instant,
    },
    /// Goodbye queued; flush it, then close.
    Closing,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    state: ConnState,
    limiter: Option<RateLimiter>,
    /// The state's deadline: handshake cutoff, optional idle timeout,
    /// or the closing grace.
    deadline: Option<Instant>,
    /// Interest bits currently registered with the poller.
    interest: u32,
}

impl Conn {
    fn desired_interest(&self) -> u32 {
        let read = match self.state {
            ConnState::Subscribed { .. } | ConnState::Closing => 0,
            _ => READABLE,
        };
        let write = if self.writer.has_pending() {
            WRITABLE
        } else {
            0
        };
        read | write
    }
}

/// One job with live subscribers: the handle to probe and the
/// connection tokens to fan snapshots out to.
struct SubEntry {
    handle: JobHandle,
    tokens: Vec<u64>,
    /// `batches_done` of the last snapshot this entry encoded — the
    /// probe-level change detector, so an idle wake touches nothing
    /// but one cheap probe per subscribed job.
    last_encoded: Option<usize>,
}

/// A job's final `RESULT` frame, encoded once and shared across every
/// subscriber — or the error goodbye to send instead.
type ResultFrame = Result<Arc<Vec<u8>>, (ErrorKind, String)>;

/// The wire id of queue job `id`: ids on the wire start at 1.
fn wire_id(id: usize) -> u64 {
    id as u64 + 1
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The serve front door's reactor. Owns the listener, the poller, the
/// self-pipe, every client connection, and the subscription fanout
/// table. Built on the caller's thread (so bind/epoll failures surface
/// synchronously), then `run` either inline ([`super::run_serve_until`])
/// or on one background thread ([`super::spawn_serve`]).
pub(super) struct ServeReactor {
    poller: Poller,
    listener: TcpListener,
    queue: Arc<JobQueue>,
    config: ServeNetConfig,
    conns: HashMap<u64, Conn>,
    /// Jobs with live subscribers, by wire id. The retention sweep
    /// skips them: a watcher must not have a *successful* run turned
    /// into a "released" error under its feet.
    subs: HashMap<u64, SubEntry>,
    next_token: u64,
    wake_rx: RawFd,
    waker: ReactorWaker,
    /// Set once shutdown is observed: the drain deadline.
    draining: Option<Instant>,
    accepting: bool,
}

impl ServeReactor {
    pub(super) fn new(
        listener: TcpListener,
        queue: Arc<JobQueue>,
        config: ServeNetConfig,
    ) -> std::io::Result<ServeReactor> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (wake_rx, waker) = wake_pipe()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, READABLE)?;
        poller.register(wake_rx, WAKER_TOKEN, READABLE)?;
        Ok(ServeReactor {
            poller,
            listener,
            queue,
            config,
            conns: HashMap::new(),
            subs: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            wake_rx,
            waker,
            draining: None,
            accepting: true,
        })
    }

    /// A waker for [`super::ServeHandle::kill`] to fire after flipping
    /// its shutdown flag.
    pub(super) fn waker(&self) -> ReactorWaker {
        self.waker.clone()
    }

    /// Runs the loop until `shutdown` flips and the drain completes.
    pub(super) fn run(mut self, shutdown: &AtomicBool) -> std::io::Result<()> {
        // Push-notification plumbing: every queue fold/completion
        // wakes this loop through the self-pipe.
        let hook_waker = self.waker.clone();
        self.queue
            .set_progress_hook(Some(Arc::new(move || hook_waker.wake())));
        // Let the CLI's signal handler reach us (one reactor per
        // process; a second one simply isn't signal-wakeable).
        let wake_fd = self.waker.inner.0;
        let installed_signal_fd = SIGNAL_WAKE_FD
            .compare_exchange(-1, wake_fd, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();

        let result = self.event_loop(shutdown);

        self.queue.set_progress_hook(None);
        if installed_signal_fd {
            let _ =
                SIGNAL_WAKE_FD.compare_exchange(wake_fd, -1, Ordering::AcqRel, Ordering::Acquire);
        }
        unsafe { sys::close(self.wake_rx) };
        let open = crate::metrics::rt().open_connections.with(&["serve"]);
        for _ in 0..self.conns.len() {
            open.add(-1);
        }
        result
    }

    fn event_loop(&mut self, shutdown: &AtomicBool) -> std::io::Result<()> {
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(EVENT_BATCH);
        loop {
            if self.draining.is_none() && shutdown.load(Ordering::Acquire) {
                self.begin_drain();
            }
            if let Some(deadline) = self.draining {
                if self.conns.is_empty() || Instant::now() >= deadline {
                    return Ok(());
                }
            }
            events.clear();
            self.poller.wait(&mut events, self.next_timeout())?;
            crate::metrics::rt().reactor_wakeups.inc();
            let mut woken = false;
            for &(token, readiness) in events.iter() {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {
                        let mut buf = [0u8; 64];
                        while unsafe { sys::read(self.wake_rx, buf.as_mut_ptr().cast(), buf.len()) }
                            > 0
                        {}
                        woken = true;
                    }
                    token => self.conn_ready(token, readiness),
                }
            }
            let now = Instant::now();
            // The waker fires on queue progress; keepalive deadlines
            // fire from the timeout path. Both funnel into one scan.
            if woken || !self.subs.is_empty() {
                self.scan_subscriptions(now);
            }
            self.sweep_deadlines(now);
        }
    }

    /// The nearest reason to wake up, or `None` to block forever.
    fn next_timeout(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = self.draining;
        for conn in self.conns.values() {
            let due = match &conn.state {
                ConnState::Subscribed { last_sent, .. } => Some(*last_sent + self.config.keepalive),
                _ => None,
            };
            for candidate in [conn.deadline, due].into_iter().flatten() {
                nearest = Some(nearest.map_or(candidate, |n| n.min(candidate)));
            }
        }
        nearest.map(|at| at.saturating_duration_since(Instant::now()))
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // Transient (peer reset mid-handshake, fd
                    // pressure): never take the front door down over
                    // one bad accept. Level-triggered readiness
                    // retries any still-pending connection.
                    eprintln!("serve: accept failed ({e}); continuing");
                    break;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            let conn = Conn {
                reader: FrameReader::new(self.config.max_frame_len),
                writer: FrameWriter::new(self.config.max_outbound_queue),
                stream,
                state: ConnState::Handshake(ServerHandshake::AwaitHello),
                limiter: self.config.max_requests_per_sec.map(RateLimiter::new),
                deadline: Some(Instant::now() + HANDSHAKE_TIMEOUT),
                interest: READABLE,
            };
            if self
                .poller
                .register(conn.stream.as_raw_fd(), token, READABLE)
                .is_err()
            {
                continue;
            }
            crate::metrics::rt()
                .open_connections
                .with(&["serve"])
                .add(1);
            self.conns.insert(token, conn);
        }
    }

    // -- per-connection I/O ------------------------------------------

    fn conn_ready(&mut self, token: u64, readiness: u32) {
        if readiness & CLOSED != 0 {
            // Half-open teardown: flush-worthy states still get their
            // writes attempted below only if the socket is writable,
            // but a peer-closed subscription or request conn is done.
            self.close_conn(token);
            return;
        }
        if readiness & WRITABLE != 0 {
            self.flush_conn(token);
        }
        if readiness & READABLE != 0 {
            self.read_conn(token);
        }
        self.update_interest(token);
    }

    fn read_conn(&mut self, token: u64) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if matches!(
                conn.state,
                ConnState::Subscribed { .. } | ConnState::Closing
            ) {
                // Parked states don't consume requests; leave bytes in
                // the kernel buffer (threaded-acceptor semantics).
                return;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.reader.extend(&buf[..n]);
                    if !self.drain_frames(token) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Parses every complete frame buffered on `token`. Returns
    /// `false` when the connection went away (or parked) and the read
    /// loop must stop.
    fn drain_frames(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if matches!(
                conn.state,
                ConnState::Subscribed { .. } | ConnState::Closing
            ) {
                // A SUBSCRIBE parked the connection; anything already
                // buffered waits until the stream finishes.
                return false;
            }
            match conn.reader.next_frame() {
                Ok(Some((tag, payload))) => {
                    if !self.process_frame(token, tag, payload) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(WireError::FrameTooLarge { len, cap }) => {
                    crate::metrics::rt().budget_frame_rejections.inc();
                    self.send_goodbye(
                        token,
                        ErrorKind::Budget,
                        format!("frame length {len} exceeds this connection's {cap}-byte budget"),
                    );
                    return false;
                }
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// Dispatches one inbound frame through the connection's state
    /// machine. Returns `false` when the connection closed or parked.
    fn process_frame(&mut self, token: u64, frame_tag: u8, payload: Vec<u8>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match &mut conn.state {
            ConnState::Handshake(core) => {
                let policy = AcceptPolicy {
                    name: &self.config.name,
                    capacity: self.queue.workers() as u32,
                    psk: self.config.psk.as_ref(),
                };
                let step = core.step(&policy, frame_tag, &payload);
                self.on_handshake_step(token, step)
            }
            ConnState::Serving => {
                // The request-rate budget, as in the worker's
                // read_request_frame.
                if let Some(limiter) = conn.limiter.as_mut() {
                    if !limiter.admit() {
                        let rate = limiter.rate;
                        crate::metrics::rt().budget_rate_rejections.inc();
                        self.send_goodbye(
                            token,
                            ErrorKind::Budget,
                            format!("request rate exceeds this connection's {rate:.0}/s budget"),
                        );
                        return false;
                    }
                }
                self.on_request(token, frame_tag, &payload)
            }
            ConnState::Subscribed { .. } | ConnState::Closing => false,
        }
    }

    /// Sends what one handshake step produced; an admitted connection
    /// moves on to serving requests.
    fn on_handshake_step(&mut self, token: u64, step: Step) -> bool {
        match step {
            Step::Continue((frame_tag, payload)) => self.send_frame(token, frame_tag, &payload),
            Step::Reject(kind, message) => {
                self.send_goodbye(token, kind, message);
                false
            }
            Step::Accept(frames) => {
                for (frame_tag, payload) in frames {
                    if !self.send_frame(token, frame_tag, &payload) {
                        return false;
                    }
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    return false;
                };
                conn.state = ConnState::Serving;
                conn.deadline = self.config.idle_timeout.map(|t| Instant::now() + t);
                true
            }
        }
    }

    fn on_request(&mut self, token: u64, frame_tag: u8, payload: &[u8]) -> bool {
        // Any complete request resets the idle clock.
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.deadline = self.config.idle_timeout.map(|t| Instant::now() + t);
        }
        match frame_tag {
            wire::tag::PING => self.send_frame(token, wire::tag::PONG, &[]),
            wire::tag::SUBMIT => self.on_submit(token, payload),
            wire::tag::POLL => self.on_poll(token, payload),
            wire::tag::SUBSCRIBE => self.on_subscribe(token, payload),
            other => {
                self.send_goodbye(
                    token,
                    ErrorKind::Malformed,
                    format!("unexpected frame tag {other:#04x}"),
                );
                false
            }
        }
    }

    fn on_submit(&mut self, token: u64, payload: &[u8]) -> bool {
        let submission = match self.queue.decode_submission(payload) {
            Ok(s) => s,
            Err(e) => {
                self.send_goodbye(token, ErrorKind::Malformed, format!("bad submission: {e}"));
                return false;
            }
        };
        match self.queue.submit(submission) {
            Ok(handles) => {
                let jobs = handles
                    .into_iter()
                    .map(|handle| {
                        let snap = handle.snapshot();
                        RemoteJobInfo {
                            job_id: wire_id(handle.job),
                            name: snap.name,
                            shots: snap.shots_total,
                        }
                    })
                    .collect();
                let ack = SubmitAck { jobs };
                let sent = self.send_frame(token, wire::tag::SUBMIT_ACK, &ack.encode());
                let subs = &self.subs;
                self.queue
                    .release_completed(self.config.completed_retention, |id| {
                        subs.contains_key(&wire_id(id))
                    });
                sent
            }
            Err(e @ RuntimeError::AdmissionRejected { .. }) => {
                // A budget, not a job defect: the client backs off and
                // resubmits; the connection lives on.
                self.send_soft_error(token, ErrorKind::Budget, e.to_string())
            }
            Err(e) => self.send_soft_error(token, ErrorKind::Load, e.to_string()),
        }
    }

    fn on_poll(&mut self, token: u64, payload: &[u8]) -> bool {
        let job_id = match wire::decode_job_id(payload) {
            Ok(id) => id,
            Err(e) => {
                self.send_goodbye(token, ErrorKind::Malformed, format!("bad poll: {e}"));
                return false;
            }
        };
        let handle = match self.lookup(job_id) {
            Ok(handle) => handle,
            Err(message) => return self.send_soft_error(token, ErrorKind::Malformed, message),
        };
        let snapshot = wire::encode_partial_result(&handle.snapshot());
        self.send_frame(token, wire::tag::SNAPSHOT, &snapshot)
    }

    fn on_subscribe(&mut self, token: u64, payload: &[u8]) -> bool {
        let sub = match wire::decode_subscribe(payload) {
            Ok(sub) => sub,
            Err(e) => {
                self.send_goodbye(token, ErrorKind::Malformed, format!("bad subscribe: {e}"));
                return false;
            }
        };
        let handle = match self.lookup(sub.job_id) {
            Ok(handle) => handle,
            Err(message) => return self.send_soft_error(token, ErrorKind::Malformed, message),
        };
        if sub.resume_after.is_some() {
            crate::metrics::rt().subscription_resumes.inc();
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.state = ConnState::Subscribed {
            job_id: sub.job_id,
            last_sent_batches: sub.resume_after,
            last_sent: Instant::now(),
        };
        conn.deadline = None;
        self.subs
            .entry(sub.job_id)
            .or_insert_with(|| SubEntry {
                handle,
                tokens: Vec::new(),
                last_encoded: None,
            })
            .tokens
            .push(token);
        // First delivery immediately (a fresh subscribe gets the
        // current prefix; a resume gets only what it hasn't seen) —
        // and a job that already finished completes the stream here
        // and now.
        self.fanout_job(sub.job_id, Instant::now());
        false // parked: stop draining buffered request frames
    }

    /// The queue's handle for wire id `job_id`, or the soft error that
    /// answers it: "released" for an id whose result is gone, "unknown
    /// job id" for one never issued.
    fn lookup(&self, job_id: u64) -> Result<JobHandle, String> {
        let id = job_id
            .checked_sub(1)
            .and_then(|id| usize::try_from(id).ok());
        match id.map(|id| self.queue.lookup(id)) {
            Some(Ok(handle)) => Ok(handle),
            Some(Err(NoJob::Released)) => Err(format!(
                "job id {job_id} was released: its result is no longer retained"
            )),
            Some(Err(NoJob::Unknown)) | None => Err(format!("unknown job id {job_id}")),
        }
    }

    // -- outbound ----------------------------------------------------

    /// Encodes and queues a small control frame on one connection.
    fn send_frame(&mut self, token: u64, frame_tag: u8, payload: &[u8]) -> bool {
        match wire::encode_frame(frame_tag, payload) {
            Ok(frame) => self.enqueue_frame(token, Arc::new(frame)),
            Err(_) => {
                self.close_conn(token);
                false
            }
        }
    }

    /// A typed error that does *not* end the connection (unknown job
    /// id, admission rejection) — the threaded acceptor `continue`s
    /// after these.
    fn send_soft_error(&mut self, token: u64, kind: ErrorKind, message: String) -> bool {
        self.send_frame(token, wire::tag::ERROR, &ErrorMsg::payload(kind, message))
    }

    /// A typed error after which the connection closes (malformed
    /// frames, version/auth/budget failures): queue the goodbye, flush
    /// what we can, drop the rest at the grace deadline.
    fn send_goodbye(&mut self, token: u64, kind: ErrorKind, message: String) {
        if !self.send_soft_error(token, kind, message) {
            return; // already closed (overflow or transport failure)
        }
        self.release_subscription(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.state = ConnState::Closing;
        conn.deadline = Some(Instant::now() + CLOSE_GRACE);
        if conn.writer.has_pending() {
            self.update_interest(token);
        } else {
            self.close_conn(token);
        }
    }

    /// Queues one assembled frame, opportunistically flushing. Returns
    /// `false` when the connection was closed (overflow or transport
    /// failure).
    fn enqueue_frame(&mut self, token: u64, frame: Arc<Vec<u8>>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if !conn.writer.enqueue(frame) {
            // The bounded queue is full: this peer is hopelessly
            // behind. Dropping it is the backpressure.
            crate::metrics::rt().backpressure_disconnects.inc();
            self.close_conn(token);
            return false;
        }
        self.flush_conn(token);
        self.conns.contains_key(&token)
    }

    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.writer.flush_into(&mut conn.stream) {
            Ok(true) => {
                if matches!(conn.state, ConnState::Closing) {
                    self.close_conn(token);
                }
            }
            Ok(false) => {}
            Err(_) => self.close_conn(token),
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = desired;
            let _ = self.poller.modify(fd, token, desired);
        }
    }

    // -- subscription fanout -----------------------------------------

    /// Probes every job with live subscribers; pushes advanced
    /// prefixes, keepalives, and completions. One encode per job per
    /// advance, shared across its subscribers.
    fn scan_subscriptions(&mut self, now: Instant) {
        let job_ids: Vec<u64> = self.subs.keys().copied().collect();
        for job_id in job_ids {
            self.fanout_job(job_id, now);
        }
    }

    fn fanout_job(&mut self, job_id: u64, now: Instant) {
        let Some(entry) = self.subs.get(&job_id) else {
            return;
        };
        let (folded, done) = entry.handle.progress_probe();
        let advanced = entry.last_encoded != Some(folded);
        let keepalive_due = self.conns.iter().any(|(token, conn)| {
            entry.tokens.contains(token)
                && matches!(&conn.state, ConnState::Subscribed { last_sent, .. }
                    if now.duration_since(*last_sent) >= self.config.keepalive)
        });
        if !(advanced || done || keepalive_due) {
            return;
        }
        // Materialize once: snapshot, encode, wrap. The snapshot may
        // have advanced past the probe (folds race this loop) — fine,
        // it is still an exact prefix and strictly monotonic.
        let handle = entry.handle.clone();
        let snapshot = handle.snapshot();
        let batches = snapshot.batches_done as u64;
        let snapshot_done = snapshot.done;
        let Ok(frame) =
            wire::encode_frame(wire::tag::SNAPSHOT, &wire::encode_partial_result(&snapshot))
        else {
            return;
        };
        let frame = Arc::new(frame);
        // The final result, encoded once as well when the job is done.
        let result_frame: Option<ResultFrame> = if snapshot_done {
            Some(match handle.wait() {
                Ok(result) => {
                    match wire::encode_frame(wire::tag::RESULT, &wire::encode_job_result(&result)) {
                        Ok(f) => Ok(Arc::new(f)),
                        Err(e) => Err((ErrorKind::Internal, e.to_string())),
                    }
                }
                Err(e) => Err((ErrorKind::Internal, e.to_string())),
            })
        } else {
            None
        };
        if let Some(entry) = self.subs.get_mut(&job_id) {
            entry.last_encoded = Some(snapshot.batches_done);
        }
        let tokens: Vec<u64> = self
            .subs
            .get(&job_id)
            .map(|e| e.tokens.clone())
            .unwrap_or_default();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let ConnState::Subscribed {
                last_sent_batches,
                last_sent,
                ..
            } = &mut conn.state
            else {
                continue;
            };
            let fresh = last_sent_batches.is_none_or(|sent| batches > sent);
            let keepalive = now.duration_since(*last_sent) >= self.config.keepalive;
            if fresh || snapshot_done || keepalive {
                *last_sent_batches = Some(batches.max(last_sent_batches.unwrap_or(0)));
                *last_sent = now;
                // The threaded streamer always sent a final snapshot
                // before RESULT (the client's monotonic filter drops
                // duplicates); mirror that exactly.
                if !self.enqueue_frame(token, Arc::clone(&frame)) {
                    continue; // connection closed (backpressure/transport)
                }
                if let Some(result) = &result_frame {
                    match result {
                        Ok(result_frame) => {
                            if !self.enqueue_frame(token, Arc::clone(result_frame)) {
                                continue;
                            }
                            self.finish_subscription(token, job_id);
                        }
                        Err((kind, message)) => {
                            // Mirror the threaded streamer: report the
                            // job failure, keep the connection.
                            if self.send_soft_error(token, *kind, message.clone()) {
                                self.finish_subscription(token, job_id);
                            }
                        }
                    }
                }
                self.update_interest(token);
            }
        }
        // Completed stream: the entry empties as conns finish; reap it.
        if let Some(entry) = self.subs.get(&job_id) {
            if entry.tokens.is_empty() {
                self.subs.remove(&job_id);
            }
        }
    }

    /// Ends one connection's subscription (stream completed): back to
    /// the request loop, re-armed for reads.
    fn finish_subscription(&mut self, token: u64, job_id: u64) {
        if let Some(entry) = self.subs.get_mut(&job_id) {
            entry.tokens.retain(|t| *t != token);
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Serving;
            conn.deadline = self.config.idle_timeout.map(|t| Instant::now() + t);
        }
        self.update_interest(token);
        // Requests the client pipelined behind the subscribe are
        // buffered in our reader; serve them now.
        self.drain_frames(token);
        self.update_interest(token);
    }

    /// Drops a subscription's bookkeeping for a dying connection.
    fn release_subscription(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if let ConnState::Subscribed { job_id, .. } = conn.state {
            if let Some(entry) = self.subs.get_mut(&job_id) {
                entry.tokens.retain(|t| *t != token);
                if entry.tokens.is_empty() {
                    self.subs.remove(&job_id);
                }
            }
        }
    }

    // -- deadlines, drain, teardown ----------------------------------

    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| match (conn.deadline, &conn.state) {
                (Some(deadline), state) if now >= deadline => {
                    let in_handshake = matches!(state, ConnState::Handshake(_));
                    Some((token, in_handshake))
                }
                _ => None,
            })
            .collect();
        for (token, in_handshake) in expired {
            if in_handshake {
                // The half-open peer: connected, then said nothing.
                crate::metrics::rt().handshake_deadline_drops.inc();
            }
            self.close_conn(token);
        }
    }

    fn begin_drain(&mut self) {
        self.accepting = false;
        self.poller.deregister(self.listener.as_raw_fd());
        self.draining = Some(Instant::now() + DRAIN_TIMEOUT);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let subscribed = matches!(
                self.conns.get(&token).map(|c| &c.state),
                Some(ConnState::Subscribed { .. })
            );
            if subscribed {
                // Tell mid-stream watchers the truth before hanging up.
                let draining = "serve front door is draining".to_owned();
                if !self.send_soft_error(token, ErrorKind::Internal, draining) {
                    continue;
                }
            }
            self.release_subscription(token);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.writer.has_pending() {
                conn.state = ConnState::Closing;
                conn.deadline = Some(Instant::now() + CLOSE_GRACE);
                self.update_interest(token);
            } else {
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.release_subscription(token);
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
            crate::metrics::rt()
                .open_connections
                .with(&["serve"])
                .add(-1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use crate::wire::{Hello, HelloAck, PROTOCOL_VERSION};

    #[test]
    fn wake_pipe_roundtrip() {
        let (rx, waker) = wake_pipe().expect("pipe");
        waker.wake();
        waker.wake();
        let mut buf = [0u8; 8];
        let n = unsafe { sys::read(rx, buf.as_mut_ptr().cast(), buf.len()) };
        assert!(n >= 1, "wake bytes arrive");
        // Drained: nonblocking read now reports EAGAIN (negative).
        let n = unsafe { sys::read(rx, buf.as_mut_ptr().cast(), buf.len()) };
        assert!(n < 0, "drained pipe would block");
        unsafe { sys::close(rx) };
    }

    #[test]
    fn poller_reports_readable_pipe() {
        let mut poller = Poller::new().expect("poller");
        let (rx, waker) = wake_pipe().expect("pipe");
        poller.register(rx, 7, READABLE).expect("register");
        let mut events = Vec::new();
        // Nothing pending: a zero timeout returns empty.
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert!(events.is_empty(), "idle pipe is silent");
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 7);
        assert!(events[0].1 & READABLE != 0);
        poller.deregister(rx);
        unsafe { sys::close(rx) };
    }

    #[test]
    fn poller_reports_closed_peer() {
        let mut poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server.as_raw_fd(), 3, READABLE)
            .expect("register");
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events
                .iter()
                .any(|&(t, r)| t == 3 && r & (CLOSED | READABLE) != 0),
            "peer close surfaces as readiness: {events:?}"
        );
    }

    #[test]
    fn frame_writer_overflow_is_refused() {
        let mut writer = FrameWriter::new(64);
        let frame = Arc::new(wire::encode_frame(wire::tag::SNAPSHOT, &[0u8; 40]).unwrap());
        assert!(writer.enqueue(Arc::clone(&frame)), "first frame fits");
        assert!(
            !writer.enqueue(Arc::clone(&frame)),
            "second frame exceeds the 64-byte backlog cap"
        );
        // An oversized frame alone still passes (the cap bounds
        // backlog, not frame size).
        let mut empty = FrameWriter::new(8);
        assert!(empty.enqueue(frame));
    }

    #[test]
    fn frame_writer_partial_writes_resume() {
        /// A sink accepting at most `cap` bytes per write call.
        struct Dribble {
            out: Vec<u8>,
            cap: usize,
        }
        impl std::io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = FrameWriter::new(1 << 20);
        let f1 = Arc::new(wire::encode_frame(wire::tag::SNAPSHOT, b"hello world").unwrap());
        let f2 = Arc::new(wire::encode_frame(wire::tag::RESULT, b"goodbye").unwrap());
        assert!(writer.enqueue(Arc::clone(&f1)));
        assert!(writer.enqueue(Arc::clone(&f2)));
        let mut sink = Dribble {
            out: Vec::new(),
            cap: 3,
        };
        assert!(writer.flush_into(&mut sink).expect("drains"));
        let mut expect = (*f1).clone();
        expect.extend_from_slice(&f2);
        assert_eq!(sink.out, expect, "byte-identical across 3-byte writes");
        assert!(!writer.has_pending());
    }

    /// End-to-end reactor harness over a real loopback socket.
    struct Fixture {
        addr: std::net::SocketAddr,
        shutdown: Arc<AtomicBool>,
        waker: ReactorWaker,
        thread: Option<std::thread::JoinHandle<()>>,
        _queue: Arc<JobQueue>,
    }

    fn reactor_fixture(config: ServeNetConfig) -> Fixture {
        let queue = Arc::new(JobQueue::new(ServeConfig::default().with_workers(1)));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let reactor = ServeReactor::new(listener, Arc::clone(&queue), config).expect("reactor");
        let waker = reactor.waker();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            let _ = reactor.run(&flag);
        });
        Fixture {
            addr,
            shutdown,
            waker,
            thread: Some(thread),
            _queue: queue,
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::Release);
            self.waker.wake();
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    #[test]
    fn reactor_serves_pings_alongside_a_silent_peer() {
        let fixture = reactor_fixture(ServeNetConfig::default());
        // A half-open peer: connects, says nothing. It must not wedge
        // the loop for anyone else (its own reaping is asserted by the
        // short-deadline test below).
        let silent = TcpStream::connect(fixture.addr).expect("connects");
        let ack = super::super::ping(&fixture.addr.to_string()).expect("reactor serves pings");
        assert_eq!(ack.version, PROTOCOL_VERSION);
        drop(silent);
    }

    #[test]
    fn half_open_peer_is_dropped_at_idle_deadline() {
        // The idle deadline is the same sweep that enforces the
        // handshake deadline; configure it tight and watch a
        // handshaked-but-silent connection get reaped.
        let fixture = reactor_fixture(
            ServeNetConfig::default().with_idle_timeout(Some(Duration::from_millis(50))),
        );
        let mut conn = TcpStream::connect(fixture.addr).expect("connects");
        let hello = Hello {
            version: PROTOCOL_VERSION,
        };
        wire::write_frame(&mut conn, wire::tag::HELLO, &hello.encode()).expect("hello");
        let (ack_tag, ack) = wire::read_frame(&mut conn).expect("ack arrives");
        assert_eq!(ack_tag, wire::tag::HELLO_ACK);
        HelloAck::decode(&ack).expect("decodes");
        // Now go silent: the reactor must close us at the idle
        // deadline — the blocking read observes EOF.
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match wire::read_frame(&mut conn) {
            Err(WireError::Io(_)) => {}
            other => panic!("expected idle disconnect, got {other:?}"),
        }
    }

    #[test]
    fn keepalive_expiry_resends_snapshot() {
        // Covered end-to-end (client sees keepalive snapshots while a
        // job makes no progress) by tests/client.rs on the reactor
        // acceptor; here we assert the deadline math that drives it.
        let now = Instant::now();
        let keepalive = Duration::from_millis(50);
        let last_sent = now - Duration::from_millis(80);
        assert!(now.duration_since(last_sent) >= keepalive);
    }
}

//! The coordinator under test, started in-process from the public API:
//! `JobQueue::recover` on a journal directory (default fsync policy)
//! with one local slot per available CPU, served by `spawn_serve` over
//! loopback TCP, and the benchmark's two `Client` connections.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eqasm_runtime::{
    spawn_serve, Client, ExecBackend, JobQueue, JournalConfig, LocalBackend, RecoveryReport,
    RuntimeError, ServeConfig, ServeHandle, ServeNetConfig, Submission,
};

use crate::gen::{Builds, JobSpec, Shape};
use crate::trace::{Tracer, TracingBackend};

pub struct Coordinator {
    pub queue: Arc<JobQueue>,
    pub serve: ServeHandle,
    pub clients: [Client; 2],
    pub recovery: RecoveryReport,
}

/// Times of one start-up.
#[derive(Debug, Clone, Copy)]
pub struct StartTimes {
    /// `JobQueue::recover`, journal replay included.
    pub replay_s: f64,
    /// Recovery through both client handshakes.
    pub setup_s: f64,
}

fn err(context: &str, e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Service(format!("{context}: {e}"))
}

/// Starts a coordinator on `journal`. `tracer` selects the tracing
/// backend wrapper; `tenants` are registered with their DRR weights.
pub fn start(
    slots: usize,
    journal: &Path,
    tracer: Option<&Arc<Tracer>>,
    tenants: &[(&str, u32)],
) -> Result<(Coordinator, StartTimes), RuntimeError> {
    let backends: Vec<Box<dyn ExecBackend>> = (0..slots)
        .map(|i| match tracer {
            Some(t) => Box::new(TracingBackend::new(i, Arc::clone(t))) as Box<dyn ExecBackend>,
            None => Box::new(LocalBackend::new(i)),
        })
        .collect();
    let t0 = Instant::now();
    let (queue, recovery) = JobQueue::recover(
        ServeConfig::default(),
        backends,
        &JournalConfig::new(journal),
    )?;
    let replay_s = t0.elapsed().as_secs_f64();
    for (tenant, weight) in tenants {
        queue.register_tenant(*tenant, *weight, u64::MAX);
    }
    let queue = Arc::new(queue);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err("bind loopback", e))?;
    let serve = spawn_serve(listener, Arc::clone(&queue), ServeNetConfig::default())
        .map_err(|e| err("spawn_serve", e))?;
    let addr = serve.addr().to_string();
    let clients = [Client::connect(addr.clone())?, Client::connect(addr)?];
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Coordinator {
            queue,
            serve,
            clients,
            recovery,
        },
        StartTimes { replay_s, setup_s },
    ))
}

impl Coordinator {
    /// Closes the clients, stops the acceptor (joining the reactor)
    /// and shuts the queue down (joining slots, warmer and journal).
    pub fn stop(self) {
        let Coordinator {
            queue,
            serve,
            clients,
            ..
        } = self;
        drop(clients);
        drop(serve);
        queue.shutdown();
    }
}

/// Prepares a journal holding `backlog` admitted but unrun jobs: a
/// slot-less queue that holds work while its pool is empty admits
/// them, then shuts down.
pub fn prepare_backlog(
    dir: &Path,
    shapes: &[Shape],
    builds: &mut Builds,
    backlog: &[JobSpec],
) -> Result<(), RuntimeError> {
    let (queue, _) = JobQueue::recover(
        ServeConfig::default().with_hold_when_empty(true),
        Vec::new(),
        &JournalConfig::new(dir),
    )?;
    for spec in backlog {
        let submission: Submission = spec.submission(shapes, builds)?;
        queue.submit(submission)?;
    }
    queue.shutdown();
    Ok(())
}

/// Copies the files of journal directory `from` into a fresh `to`.
pub fn copy_journal(from: &Path, to: &Path) -> Result<(), RuntimeError> {
    std::fs::create_dir_all(to).map_err(|e| err("create journal dir", e))?;
    for entry in std::fs::read_dir(from).map_err(|e| err("read journal dir", e))? {
        let entry = entry.map_err(|e| err("read journal dir", e))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| err("copy journal segment", e))?;
    }
    Ok(())
}

/// A scratch directory for one run's journals, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(root: &Path) -> Result<Self, RuntimeError> {
        let dir = root.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| err("create work dir", e))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

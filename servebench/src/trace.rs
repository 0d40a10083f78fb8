//! Spans for the traced run: the benchmark's own calls into each
//! layer's public functions, plus a tracing [`ExecBackend`] wrapper
//! around [`LocalBackend`] that times every `run_range` a slot makes.
//!
//! Spans stay in memory and are written out once the run ends. Each
//! records its name, start, end, parent span (0 for none) and the job
//! it belongs to, so the spans of one job share that job's id.

use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eqasm_runtime::{BackendDescriptor, BatchOut, ExecBackend, Job, LocalBackend, RuntimeError};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// The job's name; resolved to its coordinator id on write-out.
    pub job: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Shots covered (run_range spans).
    pub shots: u64,
    /// `BatchOut.elapsed_ns` (run_range spans).
    pub exec_ns: u64,
    /// Whether the slot had to rebuild its machine (run_range spans).
    pub rebuild: bool,
}

/// The span store. Recording is switched on only for the traced
/// window; while off, every hook is one relaxed load.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a plain span from `start` to `end`.
    pub fn span(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        job: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled() {
            self.record(Span {
                id,
                parent,
                name,
                job: job.to_owned(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                shots: 0,
                exec_ns: 0,
                rebuild: false,
            });
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Writes spans as JSON lines, with `job_id` resolved by `id_of`.
pub fn write_spans(
    path: &std::path::Path,
    spans: &[Span],
    id_of: impl Fn(&str) -> Option<u64>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let job = id_of(&s.job).map_or("null".to_owned(), |id| id.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"shots\":{},\"exec_ns\":{},\"rebuild\":{}}}",
            s.id, s.parent, s.name, job, s.start_ns, s.end_ns, s.shots, s.exec_ns, s.rebuild
        )?;
    }
    out.flush()
}

/// A [`LocalBackend`] whose `run_range` calls are timed into the
/// tracer. A rebuild is a call whose job differs from the slot's
/// previous job (job names are unique per job in this benchmark).
pub struct TracingBackend {
    inner: LocalBackend,
    tracer: Arc<Tracer>,
    last_job: Option<String>,
}

impl TracingBackend {
    pub fn new(slot: usize, tracer: Arc<Tracer>) -> Self {
        TracingBackend {
            inner: LocalBackend::new(slot),
            tracer,
            last_job: None,
        }
    }
}

impl ExecBackend for TracingBackend {
    fn descriptor(&self) -> BackendDescriptor {
        self.inner.descriptor()
    }

    fn run_range(&mut self, job: &Job, range: Range<u64>) -> Result<BatchOut, RuntimeError> {
        let rebuild = self.last_job.as_deref() != Some(job.name.as_str());
        if rebuild {
            self.last_job = Some(job.name.clone());
        }
        if !self.tracer.enabled() {
            return self.inner.run_range(job, range);
        }
        let start = Instant::now();
        let out = self.inner.run_range(job, range);
        let end = Instant::now();
        if let Ok(batch) = &out {
            self.tracer.record(Span {
                id: self.tracer.id(),
                parent: 0,
                name: "backend.run_range",
                job: job.name.clone(),
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
                shots: batch.shots(),
                exec_ns: batch.elapsed_ns,
                rebuild,
            });
        }
        out
    }
}

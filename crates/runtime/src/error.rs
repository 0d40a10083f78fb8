//! Runtime error type.

use std::fmt;

/// Errors surfaced while building or launching runtime work.
#[derive(Debug)]
pub enum RuntimeError {
    /// A job's program failed machine validation.
    Load {
        /// The offending job's name.
        job: String,
        /// The underlying load error.
        source: eqasm_microarch::LoadError,
    },
    /// A workload generator failed to assemble its program text.
    Asm(eqasm_asm::AsmError),
    /// A workload generator failed to emit its program.
    Compile(eqasm_compiler::CompileError),
    /// A workload spec is structurally invalid (bad sweep index,
    /// unknown chip, zero weight…).
    Spec(String),
    /// An execution-path switch ([`crate::ExecPolicy::parse`]) has a
    /// value it does not know.
    Policy(String),
    /// A queued job failed inside the serve pool, or the pool shut
    /// down before the job completed. The message preserves the
    /// worker-side error rendering (the original error is consumed on
    /// a worker thread; every poller of the handle gets this clonable
    /// form).
    Service(String),
    /// An execution backend's transport failed (connection refused or
    /// dropped, malformed or version-skewed frames, or a request that
    /// exceeded its I/O deadline because the worker hung rather than
    /// died). The *range* that was being run is fine — the serve pool
    /// re-dispatches it to another backend; only this backend is
    /// suspect, and enough of these in a row retire its slot.
    Transport {
        /// The failing backend's name.
        backend: String,
        /// What went wrong.
        message: String,
    },
    /// A handshake failed pre-shared-key authentication: wrong or
    /// missing key on either side. Unlike [`RuntimeError::Transport`],
    /// retrying will fail identically until someone fixes the key
    /// material — so callers should *not* treat this as a
    /// re-dispatchable backend fault.
    Auth(String),
    /// A submission was rejected at admission: accepting it would push
    /// the tenant's queued-but-not-started shots past its pending cap.
    /// Nothing was enqueued; the client should back off and resubmit.
    AdmissionRejected {
        /// The tenant whose backlog is full.
        tenant: String,
        /// Queued-but-not-started shots the tenant already has.
        pending_shots: u64,
        /// Shots the rejected submission would have added.
        requested_shots: u64,
        /// The tenant's pending-shot cap.
        cap: u64,
    },
    /// The write-ahead job journal could not be opened or replayed at
    /// startup. Recovery refuses to guess at corrupt durable state;
    /// the operator decides whether to repair or discard the journal
    /// directory.
    Journal(crate::journal::JournalError),
}

impl RuntimeError {
    /// True for failures of the *backend*, not the work: the shot
    /// range that hit this error can be re-dispatched to another
    /// backend and is expected to succeed there.
    pub fn is_transport(&self) -> bool {
        matches!(self, RuntimeError::Transport { .. })
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Load { job, source } => {
                write!(f, "job `{job}` failed to load: {source}")
            }
            RuntimeError::Asm(e) => write!(f, "workload assembly failed: {e}"),
            RuntimeError::Compile(e) => write!(f, "workload emission failed: {e}"),
            RuntimeError::Spec(msg) => write!(f, "invalid workload spec: {msg}"),
            RuntimeError::Policy(msg) => write!(f, "invalid execution policy: {msg}"),
            RuntimeError::Service(msg) => write!(f, "service failure: {msg}"),
            RuntimeError::Transport { backend, message } => {
                write!(f, "backend `{backend}` transport failure: {message}")
            }
            RuntimeError::Auth(msg) => write!(f, "authentication failed: {msg}"),
            RuntimeError::AdmissionRejected {
                tenant,
                pending_shots,
                requested_shots,
                cap,
            } => write!(
                f,
                "tenant `{tenant}` rejected at admission: {pending_shots} shots pending + \
                 {requested_shots} requested would exceed the {cap}-shot cap"
            ),
            RuntimeError::Journal(e) => write!(f, "journal recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Load { source, .. } => Some(source),
            RuntimeError::Asm(e) => Some(e),
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::Spec(_) => None,
            RuntimeError::Policy(_) => None,
            RuntimeError::Service(_) => None,
            RuntimeError::Transport { .. } => None,
            RuntimeError::Auth(_) => None,
            RuntimeError::AdmissionRejected { .. } => None,
            RuntimeError::Journal(e) => Some(e),
        }
    }
}

impl From<crate::journal::JournalError> for RuntimeError {
    fn from(e: crate::journal::JournalError) -> Self {
        RuntimeError::Journal(e)
    }
}

impl From<eqasm_asm::AsmError> for RuntimeError {
    fn from(e: eqasm_asm::AsmError) -> Self {
        RuntimeError::Asm(e)
    }
}

impl From<eqasm_compiler::CompileError> for RuntimeError {
    fn from(e: eqasm_compiler::CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

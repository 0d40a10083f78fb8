//! Hand-rolled Prometheus exposition: atomic counters, gauges and
//! fixed-bucket histograms, labeled families, a text-format v0.0.4
//! encoder, and a minimal HTTP/1.0 `GET /metrics` responder.
//!
//! The environment has no `prometheus` crate (offline build), so this
//! module implements the subset the service needs from scratch:
//!
//! * [`Counter`] / [`Gauge`] — single `AtomicU64`/`AtomicI64` cells;
//!   every update is one relaxed atomic RMW, safe to call while
//!   holding any runtime lock;
//! * [`Histogram`] — fixed upper-bound buckets chosen at registration
//!   (no dynamic resizing, no allocation on `observe`), with the
//!   `f64` sum maintained by a CAS loop over its bit pattern;
//! * [`CounterVec`] / [`GaugeVec`] — labeled families; `with()`
//!   returns an `Arc` child that call sites resolve **once** and then
//!   update lock-free, so the family map's mutex is off every hot
//!   path;
//! * [`Registry`] — owns the metric descriptors and renders the
//!   Prometheus text format v0.0.4 (`# HELP`/`# TYPE` comments,
//!   escaped label values, cumulative `_bucket`/`_sum`/`_count`
//!   histogram series);
//! * [`MetricsServer`] — a nonblocking-accept HTTP/1.0 listener (the
//!   same poll-loop shape as the worker and serve acceptors) that
//!   answers `GET /metrics` and nothing else. It is read-only and
//!   unauthenticated by design — bind it to loopback (the CLI's
//!   `--metrics <port>` shorthand does) unless the network is
//!   trusted.
//!
//! A scrape reads only atomics and the (tiny) family maps: it never
//! touches the job-queue mutex, so encoding under full dispatch load
//! cannot stall the scheduler. The process-global [`default_registry`]
//! carries every `eqasm_*` series the runtime exports; the full
//! catalogue lives in `METRICS.md` at the repository root.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop re-checks the shutdown flag while no
/// connection is pending (mirrors the worker/serve accept loops).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-connection read/write deadline: a scraper that stops talking
/// cannot pin the (single) responder thread for long.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on the request head we are willing to buffer; a
/// `GET /metrics HTTP/1.0` line fits in a fraction of this.
const MAX_REQUEST_HEAD: usize = 4096;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
///
/// Updates are single relaxed atomic adds — cheap enough to run while
/// holding the queue mutex, and safe to read concurrently from the
/// encoder without any lock.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can go up and down (queue depths,
/// slot counts, error conditions).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Bucket upper bounds are chosen at registration and never change;
/// `observe` is a linear scan over a handful of bounds plus two atomic
/// RMWs (bucket count and the bit-pattern CAS for the running sum) —
/// no allocation, no lock.
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing upper bounds; an implicit `+Inf` bucket
    /// follows the last.
    bounds: Box<[f64]>,
    /// One count per bound plus the `+Inf` overflow slot.
    counts: Box<[AtomicU64]>,
    /// Running sum of observations, stored as `f64::to_bits`.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given strictly increasing upper
    /// bounds (do not include `+Inf`; it is implicit).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            bounds: bounds.into(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// A labeled family of [`Counter`]s sharing one metric name.
#[derive(Debug)]
pub struct CounterVec {
    label_names: Vec<String>,
    children: Mutex<BTreeMap<Vec<String>, Arc<Counter>>>,
}

impl CounterVec {
    fn new(label_names: &[&str]) -> Self {
        Self {
            label_names: label_names.iter().map(|s| (*s).to_owned()).collect(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (creating on first use) the child for the given label
    /// values, in label-name order. Resolve once and keep the `Arc`:
    /// updates through it are lock-free.
    pub fn with(&self, values: &[&str]) -> Arc<Counter> {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label value count must match the registered label names"
        );
        let key: Vec<String> = values.iter().map(|s| (*s).to_owned()).collect();
        let mut children = self.children.lock().expect("metrics family poisoned");
        Arc::clone(children.entry(key).or_default())
    }
}

/// A labeled family of [`Gauge`]s sharing one metric name.
#[derive(Debug)]
pub struct GaugeVec {
    label_names: Vec<String>,
    children: Mutex<BTreeMap<Vec<String>, Arc<Gauge>>>,
}

impl GaugeVec {
    fn new(label_names: &[&str]) -> Self {
        Self {
            label_names: label_names.iter().map(|s| (*s).to_owned()).collect(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (creating on first use) the child for the given label
    /// values, in label-name order.
    pub fn with(&self, values: &[&str]) -> Arc<Gauge> {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label value count must match the registered label names"
        );
        let key: Vec<String> = values.iter().map(|s| (*s).to_owned()).collect();
        let mut children = self.children.lock().expect("metrics family poisoned");
        Arc::clone(children.entry(key).or_default())
    }
}

// ---------------------------------------------------------------------------
// Registry + text-format encoder
// ---------------------------------------------------------------------------

enum MetricKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    GaugeVec(Arc<GaugeVec>),
}

struct Registered {
    name: String,
    help: String,
    kind: MetricKind,
}

/// A set of registered metrics with a Prometheus text-format v0.0.4
/// encoder. Registration order is output order.
///
/// Most code uses the process-global [`default_registry`]; tests build
/// private registries to check the exposition format in isolation.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Registered>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, kind: MetricKind) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name `{name}`"
        );
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        assert!(
            metrics.iter().all(|m| m.name != name),
            "metric `{name}` registered twice"
        );
        metrics.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
        });
    }

    /// Registers and returns a new [`Counter`]. By convention the name
    /// should end in `_total`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, help, MetricKind::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a new [`Gauge`].
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register(name, help, MetricKind::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers and returns a new [`Histogram`] over the given upper
    /// bounds (see [`Histogram::new`]).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        self.register(name, help, MetricKind::Histogram(Arc::clone(&h)));
        h
    }

    /// Registers and returns a new [`CounterVec`] with the given label
    /// names.
    pub fn counter_vec(&self, name: &str, help: &str, labels: &[&str]) -> Arc<CounterVec> {
        let v = Arc::new(CounterVec::new(labels));
        self.register(name, help, MetricKind::CounterVec(Arc::clone(&v)));
        v
    }

    /// Registers and returns a new [`GaugeVec`] with the given label
    /// names.
    pub fn gauge_vec(&self, name: &str, help: &str, labels: &[&str]) -> Arc<GaugeVec> {
        let v = Arc::new(GaugeVec::new(labels));
        self.register(name, help, MetricKind::GaugeVec(Arc::clone(&v)));
        v
    }

    /// Renders every registered metric in Prometheus text format
    /// v0.0.4. Reads only atomics and the family maps — never any
    /// runtime lock — so scraping under load cannot stall dispatch.
    pub fn encode(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(4096);
        for m in metrics.iter() {
            encode_metric(&mut out, m);
        }
        out
    }

    /// Number of sample series the encoder would emit right now
    /// (sample lines, not comment lines) — the figure the throughput
    /// bench records next to the scrape cost.
    pub fn series_count(&self) -> usize {
        self.encode()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count()
    }
}

fn type_name(kind: &MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter(_) | MetricKind::CounterVec(_) => "counter",
        MetricKind::Gauge(_) | MetricKind::GaugeVec(_) => "gauge",
        MetricKind::Histogram(_) => "histogram",
    }
}

/// Escapes a `# HELP` text: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` the way the text format expects (no exponent for
/// ordinary magnitudes, `+Inf`/`-Inf`/`NaN` spelled out).
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    }
}

fn labels_fragment(names: &[String], values: &[String]) -> String {
    let pairs: Vec<String> = names
        .iter()
        .zip(values.iter())
        .map(|(n, v)| format!("{n}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

fn encode_metric(out: &mut String, m: &Registered) {
    out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(&m.help)));
    out.push_str(&format!("# TYPE {} {}\n", m.name, type_name(&m.kind)));
    match &m.kind {
        MetricKind::Counter(c) => {
            out.push_str(&format!("{} {}\n", m.name, c.get()));
        }
        MetricKind::Gauge(g) => {
            out.push_str(&format!("{} {}\n", m.name, g.get()));
        }
        MetricKind::Histogram(h) => {
            // Snapshot the per-bucket counts once so the cumulative
            // series and `_count` are self-consistent even while
            // observations race with the scrape.
            let snapshot: Vec<u64> = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            let mut cumulative = 0u64;
            for (i, n) in snapshot.iter().enumerate() {
                cumulative += n;
                let le = match h.bounds.get(i) {
                    Some(b) => format_f64(*b),
                    None => "+Inf".to_owned(),
                };
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cumulative}\n", m.name));
            }
            out.push_str(&format!("{}_sum {}\n", m.name, format_f64(h.sum())));
            out.push_str(&format!("{}_count {cumulative}\n", m.name));
        }
        MetricKind::CounterVec(v) => {
            let children = v.children.lock().expect("metrics family poisoned");
            for (values, c) in children.iter() {
                out.push_str(&format!(
                    "{}{} {}\n",
                    m.name,
                    labels_fragment(&v.label_names, values),
                    c.get()
                ));
            }
        }
        MetricKind::GaugeVec(v) => {
            let children = v.children.lock().expect("metrics family poisoned");
            for (values, g) in children.iter() {
                out.push_str(&format!(
                    "{}{} {}\n",
                    m.name,
                    labels_fragment(&v.label_names, values),
                    g.get()
                ));
            }
        }
    }
}

/// The process-global registry holding every `eqasm_*` series the
/// runtime exports (catalogued in `METRICS.md`). The CLI's `--metrics`
/// listener serves exactly this registry.
pub fn default_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// The runtime's own instrument panel
// ---------------------------------------------------------------------------

/// Bucket bounds (seconds) for the queue-wait and active-time
/// histograms: sub-millisecond dispatch up to minute-scale backlog.
const DURATION_BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
];

/// Direction of a wire frame for [`record_frame`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum FrameDir {
    /// A frame read off a socket.
    In,
    /// A frame written to a socket.
    Out,
}

/// Human name for a wire frame tag (label value of the
/// `eqasm_wire_frames_total` / `eqasm_wire_bytes_total` families).
fn frame_label(tag: u8) -> &'static str {
    use crate::wire::tag;
    match tag {
        tag::HELLO => "hello",
        tag::HELLO_ACK => "hello_ack",
        tag::BATCH => "batch",
        tag::ERROR => "error",
        tag::PING => "ping",
        tag::PONG => "pong",
        tag::LOAD_JOB => "load_job",
        tag::LOAD_ACK => "load_ack",
        tag::RUN_RANGE_BY_ID => "run_range_by_id",
        tag::AUTH_CHALLENGE => "auth_challenge",
        tag::AUTH_RESPONSE => "auth_response",
        tag::AUTH_OK => "auth_ok",
        tag::SUBMIT => "submit",
        tag::SUBMIT_ACK => "submit_ack",
        tag::POLL => "poll",
        tag::SNAPSHOT => "snapshot",
        tag::SUBSCRIBE => "subscribe",
        tag::RESULT => "result",
        _ => "unknown",
    }
}

/// Every tag [`frame_label`] can produce, for pre-resolving family
/// children so the per-frame hot path is two lock-free adds.
const KNOWN_TAGS: &[u8] = &[
    crate::wire::tag::HELLO,
    crate::wire::tag::HELLO_ACK,
    crate::wire::tag::BATCH,
    crate::wire::tag::ERROR,
    crate::wire::tag::PING,
    crate::wire::tag::PONG,
    crate::wire::tag::LOAD_JOB,
    crate::wire::tag::LOAD_ACK,
    crate::wire::tag::RUN_RANGE_BY_ID,
    crate::wire::tag::AUTH_CHALLENGE,
    crate::wire::tag::AUTH_RESPONSE,
    crate::wire::tag::AUTH_OK,
    crate::wire::tag::SUBMIT,
    crate::wire::tag::SUBMIT_ACK,
    crate::wire::tag::POLL,
    crate::wire::tag::SNAPSHOT,
    crate::wire::tag::SUBSCRIBE,
    crate::wire::tag::RESULT,
];

/// Pre-resolved `{dir, frame}` children indexed by tag byte, with the
/// `unknown` child as the fallback for unmapped tags.
struct FrameCounters {
    by_tag: Vec<Option<Arc<Counter>>>,
    unknown: Arc<Counter>,
}

impl FrameCounters {
    fn new(family: &CounterVec, dir: &str) -> Self {
        let mut by_tag: Vec<Option<Arc<Counter>>> = vec![None; 256];
        for &tag in KNOWN_TAGS {
            by_tag[tag as usize] = Some(family.with(&[dir, frame_label(tag)]));
        }
        let unknown = family.with(&[dir, "unknown"]);
        Self { by_tag, unknown }
    }

    fn get(&self, tag: u8) -> &Arc<Counter> {
        self.by_tag[tag as usize].as_ref().unwrap_or(&self.unknown)
    }
}

/// Typed handles to every series the runtime itself exports, all
/// registered in [`default_registry`]. Instrumentation sites use
/// [`rt()`] to reach them; encoding happens through the registry.
pub(crate) struct RuntimeMetrics {
    // --- coordinator: job queue ---------------------------------------
    /// `eqasm_queue_depth`
    pub queue_depth: Arc<Gauge>,
    /// `eqasm_tenant_pending_shots{tenant}`
    pub tenant_pending_shots: Arc<GaugeVec>,
    /// `eqasm_tenant_inflight_shots{tenant}`
    pub tenant_inflight_shots: Arc<GaugeVec>,
    /// `eqasm_admission_rejections_total`
    pub admission_rejections: Arc<Counter>,
    /// `eqasm_job_queue_wait_seconds`
    pub queue_wait_seconds: Arc<Histogram>,
    /// `eqasm_job_active_seconds`
    pub active_seconds: Arc<Histogram>,
    /// `eqasm_program_cache_hits_total`
    pub cache_hits: Arc<Counter>,
    /// `eqasm_program_cache_misses_total`
    pub cache_misses: Arc<Counter>,
    /// `eqasm_completed_retention_evictions_total`
    pub retention_evictions: Arc<Counter>,
    /// `eqasm_pool_slots{state="active"}`
    pub slots_active: Arc<Gauge>,
    /// `eqasm_pool_slots{state="draining"}`
    pub slots_draining: Arc<Gauge>,
    /// `eqasm_pool_slots{state="retired"}`
    pub slots_retired: Arc<Gauge>,
    /// `eqasm_batch_retries_total`
    pub batch_retries: Arc<Counter>,
    /// `eqasm_slot_retirements_total`
    pub slot_retirements: Arc<Counter>,
    /// `eqasm_batches_folded_total`
    pub batches_folded: Arc<Counter>,
    /// `eqasm_shots_completed_total`
    pub shots_completed: Arc<Counter>,
    /// `eqasm_jobs_completed_total{outcome}`
    pub jobs_completed: Arc<CounterVec>,

    // --- execution (local slots and the worker daemon) ----------------
    /// `eqasm_shots_executed_total`
    pub shots_executed: Arc<Counter>,
    /// `eqasm_batches_executed_total`
    pub batches_executed: Arc<Counter>,

    // --- program-aware execution paths ---------------------------------
    /// `eqasm_backend_selected_total{kind}`
    pub backend_selected: Arc<CounterVec>,
    /// `eqasm_prefix_cache_hits_total`
    pub prefix_cache_hits: Arc<Counter>,
    /// `eqasm_prefix_cache_misses_total`
    pub prefix_cache_misses: Arc<Counter>,
    /// `eqasm_prefix_fork_shots_total`
    pub prefix_fork_shots: Arc<Counter>,

    // --- wire / transport ---------------------------------------------
    frames_in: FrameCounters,
    frames_out: FrameCounters,
    bytes_in: FrameCounters,
    bytes_out: FrameCounters,
    /// `eqasm_worker_job_cache_hits_total`
    pub job_cache_hits: Arc<Counter>,
    /// `eqasm_worker_job_cache_misses_total`
    pub job_cache_misses: Arc<Counter>,
    /// `eqasm_worker_job_cache_evictions_total`
    pub job_cache_evictions: Arc<Counter>,
    /// `eqasm_job_registry_reloads_total`
    pub job_registry_reloads: Arc<Counter>,
    /// `eqasm_auth_failures_total`
    pub auth_failures: Arc<Counter>,
    /// `eqasm_budget_rejections_total{kind="frame"}`
    pub budget_frame_rejections: Arc<Counter>,
    /// `eqasm_budget_rejections_total{kind="rate"}`
    pub budget_rate_rejections: Arc<Counter>,
    /// `eqasm_handshake_deadline_drops_total`
    pub handshake_deadline_drops: Arc<Counter>,
    /// `eqasm_net_open_connections{role}`
    pub open_connections: Arc<GaugeVec>,
    /// `eqasm_net_reactor_wakeups_total`
    pub reactor_wakeups: Arc<Counter>,
    /// `eqasm_subscription_resumes_total`
    pub subscription_resumes: Arc<Counter>,
    /// `eqasm_net_backpressure_disconnects_total`
    pub backpressure_disconnects: Arc<Counter>,

    // --- durability: the write-ahead job journal ----------------------
    /// `eqasm_journal_appends_total`
    pub journal_appends: Arc<Counter>,
    /// `eqasm_journal_fsyncs_total`
    pub journal_fsyncs: Arc<Counter>,
    /// `eqasm_journal_bytes_total`
    pub journal_bytes: Arc<Counter>,
    /// `eqasm_journal_recovered_jobs_total`
    pub journal_recovered_jobs: Arc<Counter>,
    /// `eqasm_journal_recovered_ranges_total`
    pub journal_recovered_ranges: Arc<Counter>,
    /// `eqasm_journal_compactions_total`
    pub journal_compactions: Arc<Counter>,

    // --- pool supervisor ----------------------------------------------
    /// `eqasm_supervisor_probes_total{outcome="ok"}`
    pub probes_ok: Arc<Counter>,
    /// `eqasm_supervisor_probes_total{outcome="failed"}`
    pub probes_failed: Arc<Counter>,
    /// `eqasm_supervisor_attaches_total`
    pub supervisor_attaches: Arc<Counter>,
    /// `eqasm_supervisor_registry_error`
    pub supervisor_registry_error: Arc<Gauge>,
}

impl RuntimeMetrics {
    fn new(r: &Registry) -> Self {
        let pool_slots = r.gauge_vec(
            "eqasm_pool_slots",
            "Backend pool slots by lifecycle state (retired slots accumulate).",
            &["state"],
        );
        let wire_frames = r.counter_vec(
            "eqasm_wire_frames_total",
            "Wire-protocol frames by direction and frame type.",
            &["dir", "frame"],
        );
        let wire_bytes = r.counter_vec(
            "eqasm_wire_bytes_total",
            "Wire-protocol bytes (length prefix and tag included) by direction and frame type.",
            &["dir", "frame"],
        );
        let budget = r.counter_vec(
            "eqasm_budget_rejections_total",
            "Requests refused by a per-connection budget (frame-size or request-rate).",
            &["kind"],
        );
        let probes = r.counter_vec(
            "eqasm_supervisor_probes_total",
            "Supervisor worker-address probes by outcome.",
            &["outcome"],
        );
        Self {
            queue_depth: r.gauge(
                "eqasm_queue_depth",
                "Shot batches queued for dispatch (not yet handed to a slot).",
            ),
            tenant_pending_shots: r.gauge_vec(
                "eqasm_tenant_pending_shots",
                "Admitted-but-unfinished shots per tenant (the admission-cap ledger).",
                &["tenant"],
            ),
            tenant_inflight_shots: r.gauge_vec(
                "eqasm_tenant_inflight_shots",
                "Shots currently executing on a backend slot, per tenant.",
                &["tenant"],
            ),
            admission_rejections: r.counter(
                "eqasm_admission_rejections_total",
                "Submissions refused because a tenant's pending-shot cap was exceeded.",
            ),
            queue_wait_seconds: r.histogram(
                "eqasm_job_queue_wait_seconds",
                "Per-job wait between submission and first dispatched batch.",
                DURATION_BUCKETS,
            ),
            active_seconds: r.histogram(
                "eqasm_job_active_seconds",
                "Per-job wall time between first dispatch and completion.",
                DURATION_BUCKETS,
            ),
            cache_hits: r.counter(
                "eqasm_program_cache_hits_total",
                "Workload program builds served from the per-WorkloadKind cache.",
            ),
            cache_misses: r.counter(
                "eqasm_program_cache_misses_total",
                "Workload program builds that had to assemble from scratch.",
            ),
            retention_evictions: r.counter(
                "eqasm_completed_retention_evictions_total",
                "Completed jobs evicted (released) from the serve acceptor's bounded directory.",
            ),
            slots_active: pool_slots.with(&["active"]),
            slots_draining: pool_slots.with(&["draining"]),
            slots_retired: pool_slots.with(&["retired"]),
            batch_retries: r.counter(
                "eqasm_batch_retries_total",
                "Shot batches re-queued after a backend transport failure.",
            ),
            slot_retirements: r.counter(
                "eqasm_slot_retirements_total",
                "Backend slots retired (drained, failed out, or shut down).",
            ),
            batches_folded: r.counter(
                "eqasm_batches_folded_total",
                "Completed batches folded into job aggregates, in batch-index order.",
            ),
            shots_completed: r.counter(
                "eqasm_shots_completed_total",
                "Shots folded into completed job prefixes by the coordinator.",
            ),
            jobs_completed: r.counter_vec(
                "eqasm_jobs_completed_total",
                "Jobs leaving the queue, by outcome.",
                &["outcome"],
            ),
            shots_executed: r.counter(
                "eqasm_shots_executed_total",
                "Shots simulated by this process (local slots and worker daemons).",
            ),
            batches_executed: r.counter(
                "eqasm_batches_executed_total",
                "Shot batches simulated by this process.",
            ),
            backend_selected: r.counter_vec(
                "eqasm_backend_selected_total",
                "Machines built for batch execution, by selected simulation backend.",
                &["kind"],
            ),
            prefix_cache_hits: r.counter(
                "eqasm_prefix_cache_hits_total",
                "Shared-prefix snapshot lookups served from the per-job cache.",
            ),
            prefix_cache_misses: r.counter(
                "eqasm_prefix_cache_misses_total",
                "Shared-prefix snapshots computed because no cached entry matched.",
            ),
            prefix_fork_shots: r.counter(
                "eqasm_prefix_fork_shots_total",
                "Shots executed by forking from a cached prefix snapshot instead of a full reset.",
            ),
            frames_in: FrameCounters::new(&wire_frames, "in"),
            frames_out: FrameCounters::new(&wire_frames, "out"),
            bytes_in: FrameCounters::new(&wire_bytes, "in"),
            bytes_out: FrameCounters::new(&wire_bytes, "out"),
            job_cache_hits: r.counter(
                "eqasm_worker_job_cache_hits_total",
                "Job-registry LRU hits on the worker side.",
            ),
            job_cache_misses: r.counter(
                "eqasm_worker_job_cache_misses_total",
                "Job-registry LRU misses (answered with the typed JobNotLoaded error).",
            ),
            job_cache_evictions: r.counter(
                "eqasm_worker_job_cache_evictions_total",
                "Job-registry LRU evictions beyond the configured capacity.",
            ),
            job_registry_reloads: r.counter(
                "eqasm_job_registry_reloads_total",
                "Client-side transparent re-loads after a JobNotLoaded miss.",
            ),
            auth_failures: r.counter(
                "eqasm_auth_failures_total",
                "Connections refused for a bad pre-shared-key proof.",
            ),
            budget_frame_rejections: budget.with(&["frame"]),
            budget_rate_rejections: budget.with(&["rate"]),
            handshake_deadline_drops: r.counter(
                "eqasm_handshake_deadline_drops_total",
                "Accepted connections dropped for not completing the handshake in time.",
            ),
            open_connections: r.gauge_vec(
                "eqasm_net_open_connections",
                "Connections currently open, by serving role.",
                &["role"],
            ),
            reactor_wakeups: r.counter(
                "eqasm_net_reactor_wakeups_total",
                "Serve-reactor event-loop wakeups (epoll/poll returns). Flat while idle.",
            ),
            subscription_resumes: r.counter(
                "eqasm_subscription_resumes_total",
                "SUBSCRIBE requests carrying a resume point (reconnects of dropped watches).",
            ),
            backpressure_disconnects: r.counter(
                "eqasm_net_backpressure_disconnects_total",
                "Connections dropped because their bounded outbound queue overflowed.",
            ),
            journal_appends: r.counter(
                "eqasm_journal_appends_total",
                "Records appended to the write-ahead job journal.",
            ),
            journal_fsyncs: r.counter(
                "eqasm_journal_fsyncs_total",
                "fsync calls issued by the journal thread (batched appends share one).",
            ),
            journal_bytes: r.counter(
                "eqasm_journal_bytes_total",
                "Bytes written to journal segments, frame overhead included.",
            ),
            journal_recovered_jobs: r.counter(
                "eqasm_journal_recovered_jobs_total",
                "Incomplete jobs re-admitted from the journal at startup.",
            ),
            journal_recovered_ranges: r.counter(
                "eqasm_journal_recovered_ranges_total",
                "Folded batch ranges restored from the journal without re-execution.",
            ),
            journal_compactions: r.counter(
                "eqasm_journal_compactions_total",
                "Journal compactions (live state rewritten into a fresh segment).",
            ),
            probes_ok: probes.with(&["ok"]),
            probes_failed: probes.with(&["failed"]),
            supervisor_attaches: r.counter(
                "eqasm_supervisor_attaches_total",
                "Backend slots attached to the pool by the supervisor.",
            ),
            supervisor_registry_error: r.gauge(
                "eqasm_supervisor_registry_error",
                "1 while the supervisor's registry file is unreadable or malformed, else 0.",
            ),
        }
    }
}

/// The runtime's typed metric handles, registered in
/// [`default_registry`] on first use.
pub(crate) fn rt() -> &'static RuntimeMetrics {
    static RT: OnceLock<RuntimeMetrics> = OnceLock::new();
    RT.get_or_init(|| RuntimeMetrics::new(default_registry()))
}

/// Records one wire frame (tag byte plus total on-the-wire length,
/// including the 5-byte frame overhead) in the frame/byte families.
pub(crate) fn record_frame(dir: FrameDir, tag: u8, wire_len: u64) {
    let m = rt();
    let (frames, bytes) = match dir {
        FrameDir::In => (&m.frames_in, &m.bytes_in),
        FrameDir::Out => (&m.frames_out, &m.bytes_out),
    };
    frames.get(tag).inc();
    bytes.get(tag).add(wire_len);
}

// ---------------------------------------------------------------------------
// The HTTP/1.0 responder
// ---------------------------------------------------------------------------

/// A running `GET /metrics` listener.
///
/// [`MetricsServer::spawn`] binds the address and serves scrapes from
/// one background thread (nonblocking accept + poll, the same shape as
/// the worker and serve accept loops). Dropping the handle stops the
/// listener and joins the thread. The endpoint is read-only and
/// unauthenticated: bind loopback unless the network is trusted.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and serves `registry` until the handle is dropped.
    ///
    /// A bare port (`"9464"`) binds loopback (`127.0.0.1:9464`) — the
    /// safe default; pass an explicit `host:port` to expose the
    /// endpoint more widely.
    pub fn spawn(addr: &str, registry: &'static Registry) -> std::io::Result<MetricsServer> {
        let addr = if addr.contains(':') {
            addr.to_owned()
        } else {
            format!("127.0.0.1:{addr}")
        };
        let listener = TcpListener::bind(&addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("eqasm-metrics".to_owned())
            .spawn(move || accept_loop(listener, registry, &flag))?;
        Ok(MetricsServer {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, registry: &'static Registry, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrapes are answered inline: encoding is bounded and
                // cheap, and a single serialized responder cannot be
                // amplified into a thread flood.
                let _ = answer_scrape(stream, registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn answer_scrape(mut stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;

    // Read until the end of the request head (a GET has no body we
    // care about), EOF, or the size cap.
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_HEAD {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }

    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method == "GET" && path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.encode(),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "read-only endpoint; only GET /metrics is served\n".to_owned(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "see /metrics\n".to_owned(),
        )
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.sub(10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        h.observe(1.0); // boundary lands in the le="1" bucket
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 3.55).abs() < 1e-12);
        let r = Registry::new();
        let h = r.histogram("h_seconds", "help", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let text = r.encode();
        assert!(text.contains("h_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("h_seconds_bucket{le=\"1.0\"} 2\n"));
        assert!(text.contains("h_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("h_seconds_count 3\n"));
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        let v = r.counter_vec("c_total", "help", &["who"]);
        v.with(&["a\\b\"c\nd"]).inc();
        let text = r.encode();
        assert!(text.contains("c_total{who=\"a\\\\b\\\"c\\nd\"} 1"));
    }

    #[test]
    fn duplicate_name_panics() {
        let r = Registry::new();
        let _ = r.counter("dup_total", "help");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.counter("dup_total", "again")
        }))
        .is_err());
    }

    #[test]
    fn format_f64_shapes() {
        assert_eq!(format_f64(0.25), "0.25");
        assert_eq!(format_f64(3.0), "3.0");
        assert_eq!(format_f64(f64::INFINITY), "+Inf");
        assert_eq!(format_f64(f64::NAN), "NaN");
    }

    #[test]
    fn vec_children_are_shared() {
        let r = Registry::new();
        let v = r.counter_vec("shared_total", "help", &["k"]);
        let a = v.with(&["x"]);
        let b = v.with(&["x"]);
        a.inc();
        b.inc();
        assert_eq!(v.with(&["x"]).get(), 2);
    }
}

//! The open-loop load generator and capacity-sweep harness for the
//! serve front door.
//!
//! This module is a client of the service, not part of it: it speaks
//! through [`Client`], one raw subscribe over [`client::handshake`]
//! and an HTTP scrape of `/metrics`. It registers no series of its
//! own; every figure it measures is a field of its reports. A
//! [`LoadSpec`] describes a mixed,
//! multi-tenant traffic shape (workload classes with traffic shares, a
//! shots-per-job distribution, an optional subscribe-per-job ratio
//! that exercises the reactor's fanout path). [`run_rung`] drives a
//! running coordinator with it **open-loop**: a [`Pacer`] emits
//! submission ticks at a fixed target rate from wall-clock arithmetic
//! alone, so a lagging server never slows the offered load — the lag
//! *is* the measurement, surfacing as submit→final latency and
//! eventually as failures, exactly like real traffic that does not
//! politely wait for an overloaded service.
//!
//! [`capacity_sweep`] steps the target rate per rung
//! ([`SweepConfig`]), holds each rung for a measurement window,
//! scrapes the coordinator's `/metrics` endpoint for server-side truth
//! (queue depth, admission rejections, shots completed — never
//! stdout), and stops when a failure-rate or p50-latency ceiling is
//! breached ([`Ceilings`], [`Breach`]). The result is a
//! [`CapacityReport`]: per-rung p50/p95/p99 submit→final latency,
//! failure rates, server counters, and the **max sustainable rps** —
//! the service-granularity number every scaling PR is measured
//! against (the `capacity` section of `BENCH_runtime.json`).
//!
//! [`churn_sweep`] is the subscriber-churn companion: instead of
//! submissions it cycles watchers — connect, `SUBSCRIBE` (with a
//! resume point), read a few snapshots, disconnect — and verifies
//! resume correctness on every reconnect while reporting cycle and
//! reactor-wakeup rates.
//!
//! ## Determinism
//!
//! The pacing and shaping logic is pure arithmetic over the tick
//! index: [`Pacer::take_due`] is a function of elapsed time only (no
//! internal clock), [`LoadSpec::submission_for`] derives class, shot
//! count, seed and subscribe decision from the tick via a SplitMix64
//! hash, and [`check_ceilings`] is a pure threshold test. All of it is
//! unit-tested without a single wall-clock sleep; only [`run_rung`]
//! itself touches real time and real sockets.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eqasm_runtime::{
    client, wire, Client, ConnectOptions, LatencyHistogram, RuntimeError, Submission, WorkloadSpec,
};

// ---------------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------------

/// The open-loop scheduler: emits submission ticks at a fixed target
/// rate as a pure function of elapsed time.
///
/// Tick `i` is scheduled at `i / target_rps` seconds after the rung
/// start (tick 0 fires immediately). [`Pacer::take_due`] returns how
/// many ticks became due since the last call — computed from the
/// *absolute* elapsed time, never from an accumulator, so the pacer
/// cannot drift and, crucially, never slows down: if the consumer
/// stalls for a second, the next call returns the whole missed batch
/// at once. Absorbing lag is the server's job to fail at, not the
/// generator's job to hide.
#[derive(Debug, Clone)]
pub struct Pacer {
    target_rps: f64,
    issued: u64,
}

impl Pacer {
    /// A pacer for `target_rps` submissions per second. Rates are
    /// clamped to a tiny positive floor — a zero or negative rate
    /// would schedule nothing forever, which no rung wants.
    pub fn new(target_rps: f64) -> Pacer {
        Pacer {
            target_rps: if target_rps > 0.0 { target_rps } else { 1e-9 },
            issued: 0,
        }
    }

    /// Total ticks scheduled at or before `elapsed` (tick 0 at zero).
    fn due_total(&self, elapsed: Duration) -> u64 {
        (elapsed.as_secs_f64() * self.target_rps).floor() as u64 + 1
    }

    /// Takes every tick newly due at `elapsed` since the rung start,
    /// returning the half-open tick range `start..end` to emit.
    /// Monotonic in `elapsed`; going backwards in time yields an
    /// empty range rather than re-issuing ticks.
    pub fn take_due(&mut self, elapsed: Duration) -> std::ops::Range<u64> {
        let total = self.due_total(elapsed).max(self.issued);
        let range = self.issued..total;
        self.issued = total;
        range
    }

    /// How many ticks this pacer has issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// When tick `tick` is scheduled, as an offset from the rung
    /// start.
    pub fn scheduled(&self, tick: u64) -> Duration {
        Duration::from_secs_f64(tick as f64 / self.target_rps)
    }

    /// Time from `elapsed` until the next unissued tick is due
    /// (zero when it is already overdue) — the dispatcher's sleep
    /// hint.
    pub fn next_due_in(&self, elapsed: Duration) -> Duration {
        self.scheduled(self.issued).saturating_sub(elapsed)
    }
}

/// SplitMix64 — the cheap, well-mixed hash behind every per-tick
/// decision (class, shots, subscribe). Deterministic in the tick, so
/// a rung's traffic shape is reproducible from `(spec, base_seed)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Traffic shape
// ---------------------------------------------------------------------------

/// A weighted shots-per-job distribution: each submission draws its
/// shot count from these choices, proportionally to their weights,
/// keyed deterministically by the tick index.
#[derive(Debug, Clone)]
pub struct ShotsDist {
    choices: Vec<(u64, u32)>,
    total_weight: u64,
}

impl ShotsDist {
    /// Every job gets exactly `shots` shots.
    pub fn fixed(shots: u64) -> ShotsDist {
        ShotsDist {
            choices: vec![(shots, 1)],
            total_weight: 1,
        }
    }

    /// A weighted distribution over `(shots, weight)` choices.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Spec`] when `choices` is empty or any weight is
    /// zero.
    pub fn weighted(choices: &[(u64, u32)]) -> Result<ShotsDist, RuntimeError> {
        if choices.is_empty() {
            return Err(RuntimeError::Spec(
                "shots distribution needs at least one choice".into(),
            ));
        }
        if choices.iter().any(|(_, w)| *w == 0) {
            return Err(RuntimeError::Spec(
                "shots distribution weights must be positive".into(),
            ));
        }
        Ok(ShotsDist {
            choices: choices.to_vec(),
            total_weight: choices.iter().map(|(_, w)| *w as u64).sum(),
        })
    }

    /// The shot count for hash key `key` — a weighted pick, stable
    /// for a given key.
    pub fn pick(&self, key: u64) -> u64 {
        let mut point = splitmix64(key) % self.total_weight;
        for (shots, weight) in &self.choices {
            if point < *weight as u64 {
                return *shots;
            }
            point -= *weight as u64;
        }
        self.choices[self.choices.len() - 1].0
    }

    /// The mean shot count under this distribution.
    pub fn mean(&self) -> f64 {
        let weighted: f64 = self
            .choices
            .iter()
            .map(|(s, w)| *s as f64 * *w as f64)
            .sum();
        weighted / self.total_weight as f64
    }
}

/// One traffic class inside a [`LoadSpec`]: a workload template, the
/// tenant it is accounted against, and its share of the submission
/// stream.
#[derive(Debug, Clone)]
pub struct LoadClass {
    /// The tenant this class submits as.
    pub tenant: String,
    /// The workload template. Its `weight` is ignored (every tick is
    /// exactly one job); its `shots` is the default when the spec has
    /// no [`ShotsDist`] override.
    pub spec: WorkloadSpec,
    /// Relative share of submissions this class receives.
    pub share: u32,
}

/// The traffic shape a rung offers: workload classes with tenant
/// weights, a shots-per-job distribution, the subscribe-per-job
/// ratio, and the client-side concurrency.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// The workload mix.
    pub classes: Vec<LoadClass>,
    /// Shots-per-job distribution; `None` uses each class's own
    /// `spec.shots`.
    pub shots: Option<ShotsDist>,
    /// Fraction (0..=1) of submitted jobs that also get a dedicated
    /// `SUBSCRIBE` watcher — the reactor-fanout exercise. The rest
    /// are completion-polled.
    pub subscribe_ratio: f64,
    /// Concurrent submitter connections.
    pub connections: usize,
    /// Watcher connections servicing the subscribed fraction.
    pub watchers: usize,
    /// Base seed; per-tick seeds derive from it.
    pub base_seed: u64,
}

impl LoadSpec {
    /// A spec over `classes` with defaults: no shots override, no
    /// subscriptions, 4 submitter connections, 2 watchers, seed 0.
    pub fn new(classes: Vec<LoadClass>) -> LoadSpec {
        LoadSpec {
            classes,
            shots: None,
            subscribe_ratio: 0.0,
            connections: 4,
            watchers: 2,
            base_seed: 0,
        }
    }

    /// Returns the spec with the given shots-per-job distribution.
    pub fn with_shots(mut self, dist: ShotsDist) -> LoadSpec {
        self.shots = Some(dist);
        self
    }

    /// Returns the spec with the given subscribe-per-job ratio.
    pub fn with_subscribe_ratio(mut self, ratio: f64) -> LoadSpec {
        self.subscribe_ratio = ratio;
        self
    }

    /// Returns the spec with the given submitter connection count.
    pub fn with_connections(mut self, connections: usize) -> LoadSpec {
        self.connections = connections;
        self
    }

    /// Returns the spec with the given watcher connection count.
    pub fn with_watchers(mut self, watchers: usize) -> LoadSpec {
        self.watchers = watchers;
        self
    }

    /// Returns the spec with the given base seed.
    pub fn with_seed(mut self, base_seed: u64) -> LoadSpec {
        self.base_seed = base_seed;
        self
    }

    /// Checks the spec is drivable.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Spec`] for an empty mix, zero shares, zero
    /// connections, or a subscribe ratio outside `0..=1`.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.classes.is_empty() {
            return Err(RuntimeError::Spec("load spec has no classes".into()));
        }
        if self.classes.iter().any(|c| c.share == 0) {
            return Err(RuntimeError::Spec(
                "load class shares must be positive".into(),
            ));
        }
        if self.connections == 0 {
            return Err(RuntimeError::Spec(
                "load spec needs at least one submitter connection".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.subscribe_ratio) {
            return Err(RuntimeError::Spec(format!(
                "subscribe ratio {} outside 0..=1",
                self.subscribe_ratio
            )));
        }
        if self.subscribe_ratio > 0.0 && self.watchers == 0 {
            return Err(RuntimeError::Spec(
                "a positive subscribe ratio needs at least one watcher connection".into(),
            ));
        }
        Ok(())
    }

    /// Which class tick `tick` belongs to — shares are interleaved
    /// round-robin (tick modulo the share total), so a 4:1 mix is
    /// 4:1 in *every* window, not just in expectation.
    pub fn class_index(&self, tick: u64) -> usize {
        let total: u64 = self.classes.iter().map(|c| c.share as u64).sum();
        let mut point = tick % total.max(1);
        for (i, class) in self.classes.iter().enumerate() {
            if point < class.share as u64 {
                return i;
            }
            point -= class.share as u64;
        }
        self.classes.len() - 1
    }

    /// Materialises tick `tick` as a one-job submission plus its
    /// subscribe decision. Deterministic in `(self, tick)`: class by
    /// share interleave, shots by hashed weighted pick, seed offset by
    /// tick so no two jobs share shot seeds, subscribe by hashed
    /// Bernoulli draw against [`LoadSpec::subscribe_ratio`].
    pub fn submission_for(&self, tick: u64) -> (Submission, bool) {
        let class = &self.classes[self.class_index(tick)];
        let mut spec = class.spec.clone();
        spec.weight = 1;
        if let Some(dist) = &self.shots {
            spec.shots = dist.pick(self.base_seed ^ tick.wrapping_mul(3));
        }
        spec.name = format!("{}-t{tick}", spec.name);
        // Stride seeds by the per-job shot count so instance seed
        // ranges never collide (the same layout WorkloadSpec::
        // build_instance uses across weight expansion).
        spec.base_seed = self
            .base_seed
            .wrapping_add(tick.wrapping_mul(spec.shots.max(1)));
        let subscribe = self.subscribe_ratio > 0.0 && {
            let draw = splitmix64(self.base_seed ^ tick.wrapping_mul(7) ^ 0x5b5) % 1_000_000;
            (draw as f64) < self.subscribe_ratio * 1e6
        };
        (Submission::workload(class.tenant.as_str(), spec), subscribe)
    }
}

// ---------------------------------------------------------------------------
// Ceilings
// ---------------------------------------------------------------------------

/// The stop (or sustainability) thresholds of a sweep: a rung at or
/// past either one is over the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceilings {
    /// Failure-rate ceiling (failed / offered), `0..=1`.
    pub failure_rate: f64,
    /// Median submit→final latency ceiling.
    pub p50: Duration,
}

/// Why a rung went over a [`Ceilings`] line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Breach {
    /// The failure rate reached its ceiling.
    FailureRate {
        /// The rung's failure rate.
        rate: f64,
        /// The ceiling it met.
        limit: f64,
    },
    /// The median latency reached its ceiling.
    LatencyP50 {
        /// The rung's median submit→final latency.
        p50: Duration,
        /// The ceiling it met.
        limit: Duration,
    },
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Breach::FailureRate { rate, limit } => {
                write!(f, "failure rate {:.3} >= ceiling {:.3}", rate, limit)
            }
            Breach::LatencyP50 { p50, limit } => write!(
                f,
                "p50 latency {:.1} ms >= ceiling {:.1} ms",
                p50.as_secs_f64() * 1e3,
                limit.as_secs_f64() * 1e3
            ),
        }
    }
}

/// Tests a rung's observed failure rate and median latency against
/// `ceilings`. A value exactly **at** a ceiling breaches it (the
/// ceiling is the first unacceptable value, not the last acceptable
/// one). Failure rate is checked first: a rung can breach both, and
/// rejected load is the stronger signal.
pub fn check_ceilings(failure_rate: f64, p50: Duration, ceilings: &Ceilings) -> Option<Breach> {
    if failure_rate >= ceilings.failure_rate {
        return Some(Breach::FailureRate {
            rate: failure_rate,
            limit: ceilings.failure_rate,
        });
    }
    if p50 >= ceilings.p50 {
        return Some(Breach::LatencyP50 {
            p50,
            limit: ceilings.p50,
        });
    }
    None
}

// ---------------------------------------------------------------------------
// /metrics scraping — server-side truth
// ---------------------------------------------------------------------------

/// A `/metrics` scrape failure: which endpoint, and what went wrong.
/// Typed so the sweep can retry a mid-scrape coordinator restart once
/// and then *degrade* (rung reports without server counters) instead
/// of aborting the harness.
#[derive(Debug, Clone)]
pub struct ScrapeError {
    /// The metrics endpoint address.
    pub addr: String,
    /// What failed.
    pub detail: String,
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics scrape of {} failed: {}", self.addr, self.detail)
    }
}

impl std::error::Error for ScrapeError {}

/// One parsed `/metrics` exposition: series name (labels included,
/// exactly as exposed) to sample value.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    series: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Parses Prometheus text format v0.0.4: comment and blank lines
    /// are skipped, each sample line is `name[{labels}] value`.
    /// Unparseable lines are ignored — a scrape should degrade, not
    /// abort, on exotic series.
    pub fn parse(text: &str) -> MetricsSnapshot {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; the
            // name (with its optional label set) is everything before
            // it. Label values may themselves contain spaces, hence
            // rsplit rather than split.
            if let Some((name, value)) = line.rsplit_once(char::is_whitespace) {
                if let Ok(v) = value.trim().parse::<f64>() {
                    series.insert(name.trim().to_owned(), v);
                }
            }
        }
        MetricsSnapshot { series }
    }

    /// The sample for `series` (full name, labels included), if
    /// exposed.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.series.get(series).copied()
    }

    /// Like [`MetricsSnapshot::get`], defaulting to zero — the right
    /// reading for counters, which only appear once their subsystem
    /// has run.
    pub fn value(&self, series: &str) -> f64 {
        self.get(series).unwrap_or(0.0)
    }

    /// Number of series in the snapshot.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the snapshot holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Scrapes `http://{addr}/metrics` once. A hand-rolled HTTP/1.0 GET —
/// the exact counterpart of the runtime's [`eqasm_runtime::MetricsServer`]
/// responder, so no HTTP client dependency enters the build.
///
/// # Errors
///
/// [`ScrapeError`] on connect/read failure or a non-200 answer.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> Result<MetricsSnapshot, ScrapeError> {
    let fail = |detail: String| ScrapeError {
        addr: addr.to_owned(),
        detail,
    };
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| fail(format!("cannot resolve: {e}")))?
        .next()
        .ok_or_else(|| fail("resolves to no address".into()))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| fail(format!("connect: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| fail(format!("deadline: {e}")))?;
    stream
        .write_all(format!("GET /metrics HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| fail(format!("request: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| fail(format!("read: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| fail("no header/body separator in response".into()))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200") {
        return Err(fail(format!("status `{status}`")));
    }
    Ok(MetricsSnapshot::parse(body))
}

/// How long a failed scrape waits before its one retry — enough for a
/// supervised coordinator restart to re-bind its metrics listener.
const SCRAPE_RETRY_PAUSE: Duration = Duration::from_millis(500);

/// [`scrape_metrics`] with exactly one retry after a short pause.
/// A coordinator restarting mid-scrape (crash + supervisor, rolling
/// deploy) drops the first connection; the retry lands on the fresh
/// process. Still failing after the retry is a real outage and
/// surfaces as the typed [`ScrapeError`] of the *second* attempt,
/// with the first attempt's failure folded into the detail.
///
/// # Errors
///
/// [`ScrapeError`] when both attempts fail.
pub fn scrape_with_retry(addr: &str, timeout: Duration) -> Result<MetricsSnapshot, ScrapeError> {
    match scrape_metrics(addr, timeout) {
        Ok(snap) => Ok(snap),
        Err(first) => {
            std::thread::sleep(SCRAPE_RETRY_PAUSE);
            scrape_metrics(addr, timeout).map_err(|second| ScrapeError {
                addr: addr.to_owned(),
                detail: format!("{} (first attempt: {})", second.detail, first.detail),
            })
        }
    }
}

/// Server-side truth for one rung, computed from `/metrics` scrapes
/// at the rung boundaries (plus mid-window queue-depth samples).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerWindow {
    /// Highest `eqasm_queue_depth` sampled during the rung.
    pub peak_queue_depth: i64,
    /// `eqasm_admission_rejections_total` over the rung.
    pub admission_rejections: u64,
    /// `eqasm_shots_completed_total` over the rung.
    pub shots_completed: u64,
    /// `eqasm_jobs_completed_total{outcome="ok"}` over the rung.
    pub jobs_ok: u64,
    /// Jobs the coordinator re-admitted from its journal during the
    /// rung — nonzero exactly when it crash-restarted mid-rung.
    pub recovered_jobs: u64,
    /// Whether any counter went *backwards* between the boundary
    /// scrapes — the fingerprint of a coordinator restart (fresh
    /// process, fresh zeroed registry).
    pub restarted: bool,
}

impl ServerWindow {
    /// Folds boundary scrapes (and the sampled queue-depth peak) into
    /// per-rung deltas. A counter that regressed means the
    /// coordinator restarted mid-rung: the delta then restarts from
    /// zero too (the new process's count *is* the activity since
    /// recovery), `restarted` is set, and any journal-recovery count
    /// the fresh process reports is surfaced.
    pub fn from_scrapes(
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        peak_queue_depth: i64,
    ) -> ServerWindow {
        let mut restarted = false;
        let mut delta = |name: &str| -> u64 {
            let b = before.value(name);
            let a = after.value(name);
            if a + 0.5 < b {
                restarted = true;
                a as u64
            } else {
                (a - b).max(0.0) as u64
            }
        };
        let admission_rejections = delta("eqasm_admission_rejections_total");
        let shots_completed = delta("eqasm_shots_completed_total");
        let jobs_ok = delta("eqasm_jobs_completed_total{outcome=\"ok\"}");
        let recovered_jobs = delta("eqasm_journal_recovered_jobs_total");
        ServerWindow {
            peak_queue_depth: peak_queue_depth.max(after.value("eqasm_queue_depth") as i64),
            admission_rejections,
            shots_completed,
            jobs_ok,
            recovered_jobs: if restarted {
                // The fresh process's total is exactly what this
                // rung's restart recovered.
                after.value("eqasm_journal_recovered_jobs_total") as u64
            } else {
                recovered_jobs
            },
            restarted,
        }
    }
}

// ---------------------------------------------------------------------------
// Rung execution
// ---------------------------------------------------------------------------

/// Where a sweep points: the coordinator's front door, connect
/// options (deadline, PSK), and its `/metrics` endpoint.
#[derive(Debug, Clone)]
pub struct SweepTarget {
    /// The serve front door (`host:port`).
    pub connect: String,
    /// Connect options for every generated connection.
    pub options: ConnectOptions,
    /// The coordinator's `/metrics` endpoint; `None` runs the rung
    /// client-side only.
    pub metrics: Option<String>,
}

impl SweepTarget {
    /// A target with default connect options and no metrics endpoint.
    pub fn new(connect: impl Into<String>) -> SweepTarget {
        SweepTarget {
            connect: connect.into(),
            options: ConnectOptions::default(),
            metrics: None,
        }
    }

    /// Returns the target with the given connect options.
    pub fn with_options(mut self, options: ConnectOptions) -> SweepTarget {
        self.options = options;
        self
    }

    /// Returns the target with the given `/metrics` endpoint.
    pub fn with_metrics(mut self, addr: impl Into<String>) -> SweepTarget {
        self.metrics = Some(addr.into());
        self
    }
}

/// Everything one rung measured.
#[derive(Debug, Clone)]
pub struct RungReport {
    /// The rate this rung offered.
    pub target_rps: f64,
    /// The measurement window it held the rate for.
    pub window: Duration,
    /// Submission ticks the pacer scheduled inside the window.
    pub offered: u64,
    /// Submissions the coordinator acknowledged.
    pub submitted: u64,
    /// Aggregate shots across acknowledged submissions.
    pub shots_submitted: u64,
    /// Submissions refused or failed at submit time.
    pub submit_errors: u64,
    /// Jobs observed complete with a final result.
    pub completed: u64,
    /// Jobs that failed server-side.
    pub failed_jobs: u64,
    /// Jobs still unfinished at the drain deadline.
    pub timed_out: u64,
    /// `(submit_errors + failed_jobs + timed_out) / offered`.
    pub failure_rate: f64,
    /// Completed jobs per second of window.
    pub achieved_rps: f64,
    /// Median scheduled-tick→final latency (completed jobs),
    /// nearest-rank from a [`LatencyHistogram`], so within 1/64.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst pacer-tick→on-the-wire lag — how far the open-loop
    /// sender itself fell behind its schedule.
    pub max_submit_lag: Duration,
    /// Server-side truth, when a metrics endpoint was scraped and
    /// reachable.
    pub server: Option<ServerWindow>,
    /// The ceiling this rung went over, if any (stamped by
    /// [`capacity_sweep`]).
    pub breach: Option<Breach>,
}

impl RungReport {
    /// Failures of every kind this rung charged against the offered
    /// load.
    pub fn failed(&self) -> u64 {
        self.submit_errors + self.failed_jobs + self.timed_out
    }
}

/// A tick materialised for the submitter pool.
struct TickCmd {
    scheduled: Duration,
    submission: Submission,
    subscribe: bool,
}

/// A job whose completion is still owed to the rung.
struct Outstanding {
    job_id: u64,
    scheduled: Duration,
}

/// The rung's shared scoreboard. `sealed` freezes it at report time:
/// a watcher still blocked on an overlong job may complete *after*
/// the drain deadline, and its late record must not mutate a report
/// already returned.
#[derive(Default)]
struct Accum {
    submitted: u64,
    shots_submitted: u64,
    submit_errors: u64,
    completed: u64,
    failed_jobs: u64,
    latencies: LatencyHistogram,
    max_submit_lag: Duration,
    sealed: bool,
}

impl Accum {
    fn record_complete(&mut self, latency: Duration) {
        if self.sealed {
            return;
        }
        self.completed += 1;
        self.latencies.record(latency.as_nanos() as u64);
    }

    fn record_failed_job(&mut self) {
        if self.sealed {
            return;
        }
        self.failed_jobs += 1;
    }
}

/// How often the completion tracker sweeps its outstanding set.
const TRACK_PASS_PAUSE: Duration = Duration::from_millis(2);

/// Scrape deadline used for rung boundary and sample scrapes.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Drives one rung: offers `target_rps` submissions/sec from
/// [`LoadSpec`] for `window`, open-loop, then waits up to
/// `drain_timeout` for outstanding jobs before charging the remainder
/// as timeouts. Client-side latency is measured from each tick's
/// *scheduled* time — a submission sent late because the wire backed
/// up keeps its lag in its latency, which is the open-loop contract.
///
/// # Errors
///
/// [`RuntimeError`] when the spec is invalid or the initial
/// connections cannot be established. Mid-rung transport failures are
/// *data* (failed submissions), not errors; so are scrape failures
/// (the rung reports without server counters).
pub fn run_rung(
    spec: &LoadSpec,
    target: &SweepTarget,
    target_rps: f64,
    window: Duration,
    drain_timeout: Duration,
) -> Result<RungReport, RuntimeError> {
    spec.validate()?;

    // Pre-flight: every connection up before the clock starts, so
    // connect cost never pollutes the first tick's latency.
    let submitters: Vec<Client> = (0..spec.connections)
        .map(|_| Client::connect_opts(&target.connect, target.options.clone()))
        .collect::<Result<_, _>>()?;
    let trackers: Vec<Client> = (0..2.min(spec.connections))
        .map(|_| Client::connect_opts(&target.connect, target.options.clone()))
        .collect::<Result<_, _>>()?;
    let watchers: Vec<Client> = (0..spec.watchers)
        .map(|_| Client::connect_opts(&target.connect, target.options.clone()))
        .collect::<Result<_, _>>()?;

    let accum = Arc::new(Mutex::new(Accum::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    // Tick stream: dispatcher → submitters.
    let (tick_tx, tick_rx) = mpsc::channel::<TickCmd>();
    let tick_rx = Arc::new(Mutex::new(tick_rx));
    // Subscribed completions: submitters → watchers.
    let (watch_tx, watch_rx) = mpsc::channel::<Outstanding>();
    let watch_rx = Arc::new(Mutex::new(watch_rx));
    // Polled completions: submitters → the tracker's shared set.
    let tracked: Arc<Mutex<Vec<Outstanding>>> = Arc::new(Mutex::new(Vec::new()));

    let mut submit_threads = Vec::new();
    for client in submitters {
        let rx = Arc::clone(&tick_rx);
        let accum = Arc::clone(&accum);
        let watch_tx = watch_tx.clone();
        let tracked = Arc::clone(&tracked);
        submit_threads.push(std::thread::spawn(move || {
            loop {
                let cmd = {
                    let rx = rx.lock().expect("tick channel poisoned");
                    rx.recv()
                };
                let Ok(cmd) = cmd else { break };
                let lag = start.elapsed().saturating_sub(cmd.scheduled);
                match client.submit(cmd.submission) {
                    Ok(handles) => {
                        let shots: u64 = handles.iter().map(|h| h.shots()).sum();
                        {
                            let mut a = accum.lock().expect("accum poisoned");
                            if !a.sealed {
                                a.submitted += 1;
                                a.shots_submitted += shots;
                                a.max_submit_lag = a.max_submit_lag.max(lag);
                            }
                        }
                        for handle in handles {
                            let out = Outstanding {
                                job_id: handle.job_id(),
                                scheduled: cmd.scheduled,
                            };
                            if cmd.subscribe {
                                // A dropped watcher pool (sealed rung)
                                // just means nobody owes this
                                // completion anymore.
                                let _ = watch_tx.send(out);
                            } else {
                                tracked.lock().expect("tracked set poisoned").push(out);
                            }
                        }
                    }
                    Err(_) => {
                        let mut a = accum.lock().expect("accum poisoned");
                        if !a.sealed {
                            a.submit_errors += 1;
                        }
                    }
                }
            }
        }));
    }
    drop(watch_tx);

    // The multiplexed poller: one pass polls every outstanding
    // non-subscribed job on a couple of connections, so completion
    // tracking scales with outstanding count, not thread count.
    let tracker_thread = {
        let tracked = Arc::clone(&tracked);
        let accum = Arc::clone(&accum);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if trackers.is_empty() {
                return;
            }
            let mut turn = 0usize;
            while !stop.load(Ordering::Acquire) {
                let batch: Vec<(u64, Duration)> = {
                    let t = tracked.lock().expect("tracked set poisoned");
                    t.iter().map(|o| (o.job_id, o.scheduled)).collect()
                };
                if batch.is_empty() {
                    std::thread::sleep(TRACK_PASS_PAUSE);
                    continue;
                }
                for (job_id, scheduled) in batch {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let client = &trackers[turn % trackers.len()];
                    turn += 1;
                    let done = match client.poll_id(job_id) {
                        Ok(snap) if snap.done => {
                            let mut a = accum.lock().expect("accum poisoned");
                            if snap.failed.is_some() {
                                a.record_failed_job();
                            } else {
                                let latency = start.elapsed().saturating_sub(scheduled);
                                a.record_complete(latency);
                            }
                            true
                        }
                        Ok(_) => false,
                        // An unknown id (evicted) or transport error
                        // is a lost completion: charge it and stop
                        // polling for it.
                        Err(_) => {
                            accum.lock().expect("accum poisoned").record_failed_job();
                            true
                        }
                    };
                    if done {
                        tracked
                            .lock()
                            .expect("tracked set poisoned")
                            .retain(|o| o.job_id != job_id);
                    }
                }
                std::thread::sleep(TRACK_PASS_PAUSE);
            }
        })
    };

    // Watcher pool: each thread serially SUBSCRIBE-waits jobs from
    // the subscribed fraction — the reactor fanout path under churn.
    let mut watch_threads = Vec::new();
    for client in watchers {
        let rx = Arc::clone(&watch_rx);
        let accum = Arc::clone(&accum);
        watch_threads.push(std::thread::spawn(move || loop {
            let out = {
                let rx = rx.lock().expect("watch channel poisoned");
                rx.recv()
            };
            let Ok(out) = out else { break };
            match client.wait_id(out.job_id) {
                Ok(_) => {
                    let latency = start.elapsed().saturating_sub(out.scheduled);
                    accum
                        .lock()
                        .expect("accum poisoned")
                        .record_complete(latency);
                }
                Err(_) => accum.lock().expect("accum poisoned").record_failed_job(),
            }
        }));
    }
    drop(watch_rx);

    // Metrics sampler: boundary scrapes with retry, mid-window
    // queue-depth samples for the peak.
    let sampler = target.metrics.clone().map(|addr| {
        let stop = Arc::clone(&stop);
        let sample_every = (window / 8).max(Duration::from_millis(200));
        std::thread::spawn(move || {
            let before = scrape_with_retry(&addr, SCRAPE_TIMEOUT);
            let mut peak: i64 = 0;
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(sample_every.min(Duration::from_millis(200)));
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(snap) = scrape_metrics(&addr, SCRAPE_TIMEOUT) {
                    peak = peak.max(snap.value("eqasm_queue_depth") as i64);
                }
            }
            let after = scrape_with_retry(&addr, SCRAPE_TIMEOUT);
            match (before, after) {
                (Ok(b), Ok(a)) => Some(ServerWindow::from_scrapes(&b, &a, peak)),
                _ => None,
            }
        })
    });

    // The open-loop dispatcher (this thread): emit every tick
    // scheduled inside the window, at its scheduled time, no matter
    // how far behind the consumers are.
    let mut pacer = Pacer::new(target_rps);
    loop {
        let elapsed = start.elapsed();
        if elapsed >= window {
            break;
        }
        for tick in pacer.take_due(elapsed) {
            let scheduled = pacer.scheduled(tick);
            let (submission, subscribe) = spec.submission_for(tick);
            let _ = tick_tx.send(TickCmd {
                scheduled,
                submission,
                subscribe,
            });
        }
        let sleep = pacer
            .next_due_in(start.elapsed())
            .min(window.saturating_sub(start.elapsed()))
            .min(Duration::from_millis(10));
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
    let offered = pacer.issued();
    drop(tick_tx);

    // Drain: submitters flush their queue, then completions are owed
    // until the deadline.
    for t in submit_threads {
        let _ = t.join();
    }
    let drain_deadline = Instant::now() + drain_timeout;
    loop {
        let outstanding_tracked = tracked.lock().expect("tracked set poisoned").len();
        let done = {
            let a = accum.lock().expect("accum poisoned");
            let owed = a.submitted.saturating_sub(a.completed + a.failed_jobs);
            owed == 0 && outstanding_tracked == 0
        };
        if done || Instant::now() >= drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Seal the scoreboard and charge whatever never completed.
    stop.store(true, Ordering::Release);
    let mut a = accum.lock().expect("accum poisoned");
    a.sealed = true;
    let timed_out = a.submitted.saturating_sub(a.completed + a.failed_jobs);
    let latencies = std::mem::take(&mut a.latencies);
    let (submitted, shots_submitted, submit_errors, completed, failed_jobs, max_submit_lag) = (
        a.submitted,
        a.shots_submitted,
        a.submit_errors,
        a.completed,
        a.failed_jobs,
        a.max_submit_lag,
    );
    drop(a);

    // The tracker exits promptly on the stop flag; watcher threads
    // blocked inside an overlong wait are left to finish on their own
    // (their records hit a sealed scoreboard) — a rung must end at
    // its drain deadline even when the server is drowning.
    let _ = tracker_thread.join();
    for t in watch_threads {
        if t.is_finished() {
            let _ = t.join();
        }
    }

    let server = sampler.and_then(|t| t.join().ok()).flatten();

    let failed = submit_errors + failed_jobs + timed_out;
    let failure_rate = if offered > 0 {
        failed as f64 / offered as f64
    } else {
        0.0
    };
    Ok(RungReport {
        target_rps,
        window,
        offered,
        submitted,
        shots_submitted,
        submit_errors,
        completed,
        failed_jobs,
        timed_out,
        failure_rate,
        achieved_rps: completed as f64 / window.as_secs_f64().max(f64::MIN_POSITIVE),
        p50: Duration::from_nanos(latencies.quantile(0.50)),
        p95: Duration::from_nanos(latencies.quantile(0.95)),
        p99: Duration::from_nanos(latencies.quantile(0.99)),
        max_submit_lag,
        server,
        breach: None,
    })
}

// ---------------------------------------------------------------------------
// The capacity sweep
// ---------------------------------------------------------------------------

/// How a sweep steps the target rate between rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RpsStep {
    /// Add a fixed increment per rung.
    Add(f64),
    /// Multiply by a factor per rung (geometric ramp — reaches the
    /// knee of a saturating service in logarithmically many rungs).
    Mul(f64),
}

impl RpsStep {
    /// The rate after `rps` under this step.
    pub fn next(&self, rps: f64) -> f64 {
        match self {
            RpsStep::Add(inc) => rps + inc,
            RpsStep::Mul(factor) => rps * factor,
        }
    }
}

/// The ramp controller's parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First rung's target rate.
    pub initial_rps: f64,
    /// Rate step between rungs.
    pub step: RpsStep,
    /// Hard rate cap: the sweep stops rather than exceed it.
    pub max_rps: f64,
    /// Measurement window per rung.
    pub window: Duration,
    /// Post-window completion grace per rung.
    pub drain_timeout: Duration,
    /// Stop ceilings: the rung that reaches either ends the sweep.
    pub stop: Ceilings,
    /// Sustainability thresholds (tighter than `stop`): the max
    /// sustainable rate is the best rung that stayed under these.
    pub allow: Ceilings,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            initial_rps: 4.0,
            step: RpsStep::Mul(2.0),
            max_rps: 512.0,
            window: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(10),
            stop: Ceilings {
                failure_rate: 0.4,
                p50: Duration::from_secs(2),
            },
            allow: Ceilings {
                failure_rate: 0.05,
                p50: Duration::from_millis(1000),
            },
        }
    }
}

/// Why a sweep ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// A rung reached a stop ceiling (its index is in the report).
    CeilingBreached,
    /// The ramp reached `max_rps` without breaching.
    MaxRps,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::CeilingBreached => f.write_str("ceiling_breached"),
            StopCause::MaxRps => f.write_str("max_rps"),
        }
    }
}

/// The full result of a capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Every rung, in ramp order.
    pub rungs: Vec<RungReport>,
    /// Best achieved rate among rungs that stayed under the
    /// sustainability thresholds (zero when none did).
    pub max_sustainable_rps: f64,
    /// Why the ramp stopped.
    pub stop: StopCause,
}

/// Ramps the target rate per [`SweepConfig`] until a rung breaches a
/// stop ceiling or the cap is reached, one [`run_rung`] per rung.
///
/// # Errors
///
/// As [`run_rung`]; the first failing rung aborts the sweep (a sweep
/// that cannot even connect has nothing to measure).
pub fn capacity_sweep(
    spec: &LoadSpec,
    target: &SweepTarget,
    config: &SweepConfig,
) -> Result<CapacityReport, RuntimeError> {
    if config.initial_rps <= 0.0 {
        return Err(RuntimeError::Spec(
            "sweep needs a positive initial rate".into(),
        ));
    }
    if match config.step {
        RpsStep::Add(inc) => inc <= 0.0,
        RpsStep::Mul(f) => f <= 1.0,
    } {
        return Err(RuntimeError::Spec(
            "sweep step must strictly increase the rate".into(),
        ));
    }
    let mut rungs = Vec::new();
    let mut rps = config.initial_rps.min(config.max_rps);
    let stop = loop {
        let mut rung = run_rung(spec, target, rps, config.window, config.drain_timeout)?;
        rung.breach = check_ceilings(rung.failure_rate, rung.p50, &config.stop);
        let breached = rung.breach.is_some();
        rungs.push(rung);
        if breached {
            break StopCause::CeilingBreached;
        }
        let next = config.step.next(rps);
        if next > config.max_rps {
            break StopCause::MaxRps;
        }
        rps = next;
    };
    let max_sustainable_rps = rungs
        .iter()
        .filter(|r| check_ceilings(r.failure_rate, r.p50, &config.allow).is_none())
        .map(|r| r.achieved_rps)
        .fold(0.0, f64::max);
    Ok(CapacityReport {
        rungs,
        max_sustainable_rps,
        stop,
    })
}

impl CapacityReport {
    /// The rung that breached, if the sweep stopped on a ceiling.
    pub fn breach_rung(&self) -> Option<usize> {
        self.rungs.iter().position(|r| r.breach.is_some())
    }

    /// The sweep as a JSON object — the `capacity` section of
    /// `BENCH_runtime.json`. `indent` prefixes every line (pass
    /// `"  "` to nest).
    pub fn to_json(&self, indent: &str) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = String::new();
        out.push_str(&format!("{indent}{{\n"));
        out.push_str(&format!(
            "{indent}  \"max_sustainable_rps\": {:.3},\n",
            self.max_sustainable_rps
        ));
        out.push_str(&format!("{indent}  \"stop\": \"{}\",\n", self.stop));
        match self.breach_rung() {
            Some(i) => out.push_str(&format!("{indent}  \"stop_rung\": {i},\n")),
            None => out.push_str(&format!("{indent}  \"stop_rung\": null,\n")),
        }
        out.push_str(&format!("{indent}  \"rungs\": [\n"));
        for (i, r) in self.rungs.iter().enumerate() {
            let sep = if i + 1 == self.rungs.len() { "" } else { "," };
            let breach = match &r.breach {
                Some(Breach::FailureRate { .. }) => "\"failure_rate\"".to_owned(),
                Some(Breach::LatencyP50 { .. }) => "\"p50_latency\"".to_owned(),
                None => "null".to_owned(),
            };
            let server = match &r.server {
                Some(s) => format!(
                    "{{\"peak_queue_depth\": {}, \"admission_rejections\": {}, \
                     \"shots_completed\": {}, \"jobs_ok\": {}, \"recovered_jobs\": {}, \
                     \"restarted\": {}}}",
                    s.peak_queue_depth,
                    s.admission_rejections,
                    s.shots_completed,
                    s.jobs_ok,
                    s.recovered_jobs,
                    s.restarted
                ),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "{indent}    {{\"target_rps\": {:.3}, \"offered\": {}, \"submitted\": {}, \
                 \"shots_submitted\": {}, \"completed\": {}, \"failed\": {}, \
                 \"failure_rate\": {:.4}, \"achieved_rps\": {:.3}, \"p50_ms\": {:.2}, \
                 \"p95_ms\": {:.2}, \"p99_ms\": {:.2}, \"max_submit_lag_ms\": {:.2}, \
                 \"breach\": {breach}, \"server\": {server}}}{sep}\n",
                r.target_rps,
                r.offered,
                r.submitted,
                r.shots_submitted,
                r.completed,
                r.failed(),
                r.failure_rate,
                r.achieved_rps,
                ms(r.p50),
                ms(r.p95),
                ms(r.p99),
                ms(r.max_submit_lag),
            ));
        }
        out.push_str(&format!("{indent}  ]\n"));
        out.push_str(&format!("{indent}}}"));
        out
    }

    /// The human-readable rung table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>9} {:>8} {:>8} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>8}  {}\n",
            "rps",
            "offered",
            "done",
            "fail",
            "fail%",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "qpeak",
            "rej",
            "shots",
            "note"
        ));
        for r in &self.rungs {
            let (qpeak, rej, shots) = match &r.server {
                Some(s) => (
                    s.peak_queue_depth.to_string(),
                    s.admission_rejections.to_string(),
                    s.shots_completed.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let mut note = String::new();
            if let Some(b) = &r.breach {
                note.push_str(&format!("BREACH: {b}"));
            }
            if let Some(s) = &r.server {
                if s.restarted {
                    if !note.is_empty() {
                        note.push_str("; ");
                    }
                    note.push_str(&format!(
                        "coordinator restarted mid-rung ({} job(s) journal-recovered)",
                        s.recovered_jobs
                    ));
                }
            }
            out.push_str(&format!(
                "{:>9.1} {:>8} {:>8} {:>7} {:>6.1}% {:>9.1} {:>9.1} {:>9.1} {:>7} {:>6} {:>8}  {}\n",
                r.target_rps,
                r.offered,
                r.completed,
                r.failed(),
                r.failure_rate * 100.0,
                r.p50.as_secs_f64() * 1e3,
                r.p95.as_secs_f64() * 1e3,
                r.p99.as_secs_f64() * 1e3,
                qpeak,
                rej,
                shots,
                note
            ));
        }
        out.push_str(&format!(
            "max sustainable: {:.1} rps (stop: {})\n",
            self.max_sustainable_rps, self.stop
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Subscriber-churn sweep
// ---------------------------------------------------------------------------

/// Parameters of a subscriber-churn sweep.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Concurrent churn workers (each cycles its own connections).
    pub workers: usize,
    /// How long to churn.
    pub duration: Duration,
    /// Snapshots a worker reads before disconnecting — small values
    /// churn hardest.
    pub snapshots_per_cycle: u64,
    /// Shots of the long-running job the watchers churn against; it
    /// is resubmitted whenever it completes mid-sweep.
    pub job_shots: u64,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            workers: 8,
            duration: Duration::from_secs(5),
            snapshots_per_cycle: 2,
            job_shots: 200_000,
        }
    }
}

/// What a churn sweep observed.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Completed connect→subscribe→disconnect cycles.
    pub cycles: u64,
    /// Cycles that subscribed with a resume point (reconnects).
    pub resumed_cycles: u64,
    /// Snapshots delivered across all cycles.
    pub snapshots: u64,
    /// Resume-correctness violations: a snapshot older than the
    /// resume point, or a stream that went backwards. Zero or the
    /// reactor is broken.
    pub resume_violations: u64,
    /// Long-running jobs driven (resubmissions included).
    pub jobs_driven: u64,
    /// Wall-clock the sweep ran for.
    pub duration: Duration,
    /// Cycles per second across all workers.
    pub cycles_per_sec: f64,
    /// Server-side reactor wakeups per second over the sweep, when
    /// metrics were scraped.
    pub reactor_wakeups_per_sec: Option<f64>,
    /// Server-side `eqasm_subscription_resumes_total` delta.
    pub server_resumes: Option<u64>,
}

/// Shared churn scoreboard.
#[derive(Default)]
struct ChurnAccum {
    cycles: u64,
    resumed_cycles: u64,
    snapshots: u64,
    resume_violations: u64,
    jobs_driven: u64,
}

/// Submits generation `generation` of the churn sweep's long-running
/// job: `template` at `shots` shots, renamed and reseeded per
/// generation so no two generations share a job or its seeds.
fn submit_churn_job(
    control: &Client,
    template: &WorkloadSpec,
    shots: u64,
    generation: u64,
) -> Result<u64, RuntimeError> {
    let mut spec = template.clone();
    spec.weight = 1;
    spec.shots = shots.max(1);
    spec.name = format!("{}-churn{generation}", spec.name);
    spec.base_seed = spec.base_seed.wrapping_add(generation);
    let handles = control.submit(Submission::workload("churn", spec))?;
    Ok(handles[0].job_id())
}

/// Drives the subscriber-churn sweep: `workers` threads repeatedly
/// connect, `SUBSCRIBE` to a shared long-running job (with a resume
/// point after the first cycle), read a few snapshots, and hard-drop
/// the connection — the PR 9 follow-up that parked-subscriber tests
/// cannot cover. Every reconnect asserts resume correctness: no
/// delivered snapshot may precede the resume point, and no stream may
/// go backwards.
///
/// # Errors
///
/// [`RuntimeError`] when the control connection or initial job
/// submission fails; per-cycle transport failures are counted, not
/// fatal.
pub fn churn_sweep(
    job_template: &WorkloadSpec,
    target: &SweepTarget,
    config: &ChurnConfig,
) -> Result<ChurnReport, RuntimeError> {
    if config.workers == 0 {
        return Err(RuntimeError::Spec("churn needs at least one worker".into()));
    }
    let control = Client::connect_opts(&target.connect, target.options.clone())?;
    let first_id = submit_churn_job(&control, job_template, config.job_shots, 0)?;

    // (job id, generation): workers reset their resume point when the
    // generation moves under them.
    let current = Arc::new(Mutex::new((first_id, 0u64)));
    let control = Arc::new(Mutex::new(control));
    let accum = Arc::new(Mutex::new(ChurnAccum {
        jobs_driven: 1,
        ..ChurnAccum::default()
    }));

    let before = target
        .metrics
        .as_deref()
        .and_then(|addr| scrape_with_retry(addr, SCRAPE_TIMEOUT).ok());
    let started = Instant::now();
    let deadline = started + config.duration;

    let mut threads = Vec::new();
    for _ in 0..config.workers {
        let target = target.clone();
        let current = Arc::clone(&current);
        let control = Arc::clone(&control);
        let accum = Arc::clone(&accum);
        let job_template = job_template.clone();
        let config = config.clone();
        threads.push(std::thread::spawn(move || {
            // The worker's resume point, valid for (job, generation).
            let mut last_seen: Option<u64> = None;
            let mut my_generation = {
                let c = current.lock().expect("current job poisoned");
                c.1
            };
            while Instant::now() < deadline {
                let (job_id, generation) = *current.lock().expect("current job poisoned");
                if generation != my_generation {
                    last_seen = None;
                    my_generation = generation;
                }
                // Raw subscribe: the Client API intentionally has no
                // "abandon a live stream" — churn needs exactly that,
                // so it speaks the wire directly.
                let Ok((mut stream, _)) = client::handshake(&target.connect, &target.options)
                else {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                let resume_after = last_seen;
                let sub = wire::Subscribe {
                    job_id,
                    resume_after,
                };
                if wire::write_frame(
                    &mut stream,
                    wire::tag::SUBSCRIBE,
                    &wire::encode_subscribe(&sub),
                )
                .is_err()
                {
                    continue;
                }
                let mut stream_max: Option<u64> = None;
                let mut read = 0u64;
                let mut job_over = false;
                while read < config.snapshots_per_cycle && Instant::now() < deadline {
                    let Ok((tag, payload)) = wire::read_frame(&mut stream) else {
                        break;
                    };
                    match tag {
                        wire::tag::SNAPSHOT => {
                            let Ok(snap) = wire::decode_partial_result(&payload) else {
                                break;
                            };
                            let batches = snap.batches_done as u64;
                            let mut a = accum.lock().expect("churn accum poisoned");
                            a.snapshots += 1;
                            // Resume correctness: nothing older than
                            // the resume point (keepalives may repeat
                            // *at* it), nothing going backwards.
                            if resume_after.is_some_and(|r| batches < r)
                                || stream_max.is_some_and(|m| batches < m)
                            {
                                a.resume_violations += 1;
                            }
                            drop(a);
                            stream_max = Some(stream_max.unwrap_or(0).max(batches));
                            read += 1;
                            if snap.done {
                                job_over = true;
                                break;
                            }
                        }
                        wire::tag::RESULT | wire::tag::ERROR => {
                            job_over = true;
                            break;
                        }
                        _ => break,
                    }
                }
                // Hard disconnect mid-stream: drop the socket with
                // the subscription still live.
                drop(stream);
                {
                    let mut a = accum.lock().expect("churn accum poisoned");
                    a.cycles += 1;
                    if resume_after.is_some() {
                        a.resumed_cycles += 1;
                    }
                }
                if let Some(m) = stream_max {
                    last_seen = Some(last_seen.unwrap_or(0).max(m));
                }
                if job_over {
                    // First worker to notice rolls the generation.
                    let mut c = current.lock().expect("current job poisoned");
                    if c.0 == job_id && Instant::now() < deadline {
                        let control = control.lock().expect("control client poisoned");
                        let next = generation + 1;
                        if let Ok(new_id) =
                            submit_churn_job(&control, &job_template, config.job_shots, next)
                        {
                            *c = (new_id, next);
                            accum.lock().expect("churn accum poisoned").jobs_driven += 1;
                        }
                    }
                    drop(c);
                    last_seen = None;
                }
            }
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    let elapsed = started.elapsed();

    let after = target
        .metrics
        .as_deref()
        .and_then(|addr| scrape_with_retry(addr, SCRAPE_TIMEOUT).ok());
    let (reactor_wakeups_per_sec, server_resumes) = match (before, after) {
        (Some(b), Some(a)) => (
            Some(
                (a.value("eqasm_net_reactor_wakeups_total")
                    - b.value("eqasm_net_reactor_wakeups_total"))
                .max(0.0)
                    / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
            ),
            Some(
                (a.value("eqasm_subscription_resumes_total")
                    - b.value("eqasm_subscription_resumes_total"))
                .max(0.0) as u64,
            ),
        ),
        _ => (None, None),
    };

    let a = accum.lock().expect("churn accum poisoned");
    Ok(ChurnReport {
        cycles: a.cycles,
        resumed_cycles: a.resumed_cycles,
        snapshots: a.snapshots,
        resume_violations: a.resume_violations,
        jobs_driven: a.jobs_driven,
        duration: elapsed,
        cycles_per_sec: a.cycles as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        reactor_wakeups_per_sec,
        server_resumes,
    })
}

// ---------------------------------------------------------------------------
// Deterministic unit tests — no sockets, no sleeps, no clocks
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use eqasm_runtime::WorkloadKind;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    #[test]
    fn pacer_emits_exact_tick_counts_without_drift() {
        let mut p = Pacer::new(100.0);
        // Tick 0 is due immediately.
        assert_eq!(p.take_due(Duration::ZERO), 0..1);
        // 10 ms in: ticks at 0 and 10 ms — one new.
        assert_eq!(p.take_due(secs(0.010)), 1..2);
        // Nothing new if time stands still.
        assert_eq!(p.take_due(secs(0.010)), 2..2);
        // A 490 ms stall releases the whole missed batch at once —
        // the open-loop property.
        assert_eq!(p.take_due(secs(0.500)), 2..51);
        // One full second: exactly 101 ticks issued (0..=1000 ms at
        // 10 ms spacing), however the calls were sliced.
        assert_eq!(p.take_due(secs(1.0)), 51..101);
        assert_eq!(p.issued(), 101);
    }

    #[test]
    fn pacer_never_reissues_on_time_regression() {
        let mut p = Pacer::new(50.0);
        assert_eq!(p.take_due(secs(1.0)).count(), 51);
        assert!(p.take_due(secs(0.5)).is_empty());
        assert_eq!(p.issued(), 51);
    }

    #[test]
    fn pacer_schedule_and_sleep_hint_are_consistent() {
        let mut p = Pacer::new(8.0);
        assert_eq!(p.scheduled(0), Duration::ZERO);
        assert_eq!(p.scheduled(4), secs(0.5));
        let _ = p.take_due(secs(0.26));
        // 3 ticks issued (0, 125 ms, 250 ms); next due at 375 ms.
        assert_eq!(p.issued(), 3);
        assert_eq!(p.next_due_in(secs(0.275)), secs(0.1));
        assert_eq!(p.next_due_in(secs(0.5)), Duration::ZERO);
    }

    #[test]
    fn ceiling_breach_at_exact_thresholds() {
        let c = Ceilings {
            failure_rate: 0.4,
            p50: Duration::from_millis(2000),
        };
        // Strictly below both: no breach.
        assert_eq!(check_ceilings(0.399, Duration::from_millis(1999), &c), None);
        // Exactly at the failure-rate ceiling breaches it.
        assert!(matches!(
            check_ceilings(0.4, Duration::ZERO, &c),
            Some(Breach::FailureRate { rate, limit }) if rate == 0.4 && limit == 0.4
        ));
        // Exactly at the latency ceiling breaches it.
        assert!(matches!(
            check_ceilings(0.0, Duration::from_millis(2000), &c),
            Some(Breach::LatencyP50 { p50, .. }) if p50 == Duration::from_millis(2000)
        ));
        // Both over: failure rate wins.
        assert!(matches!(
            check_ceilings(1.0, Duration::from_secs(60), &c),
            Some(Breach::FailureRate { .. })
        ));
    }

    #[test]
    fn shots_dist_is_deterministic_and_respects_support() {
        let d = ShotsDist::weighted(&[(100, 3), (400, 1)]).expect("valid");
        let picks: Vec<u64> = (0..64).map(|t| d.pick(t)).collect();
        let again: Vec<u64> = (0..64).map(|t| d.pick(t)).collect();
        assert_eq!(picks, again, "picks are a pure function of the key");
        assert!(picks.iter().all(|s| *s == 100 || *s == 400));
        assert!(picks.contains(&100) && picks.contains(&400));
        assert!(ShotsDist::weighted(&[]).is_err());
        assert!(ShotsDist::weighted(&[(10, 0)]).is_err());
        assert_eq!(ShotsDist::fixed(42).pick(7), 42);
        assert!((ShotsDist::weighted(&[(100, 3), (400, 1)]).unwrap().mean() - 175.0).abs() < 1e-9);
    }

    fn two_class_spec() -> LoadSpec {
        LoadSpec::new(vec![
            LoadClass {
                tenant: "alpha".into(),
                spec: WorkloadSpec::new(
                    "reset",
                    WorkloadKind::ActiveReset { init_cycles: 50 },
                    100,
                ),
                share: 3,
            },
            LoadClass {
                tenant: "beta".into(),
                spec: WorkloadSpec::new(
                    "rb",
                    WorkloadKind::Rb {
                        k: 2,
                        interval_cycles: 1,
                        sequence_seed: 1,
                    },
                    100,
                ),
                share: 1,
            },
        ])
    }

    #[test]
    fn class_interleave_matches_shares_in_every_window() {
        let spec = two_class_spec();
        for window in (0..8).map(|w| (w * 4)..(w * 4 + 4)) {
            let alphas = window.clone().filter(|t| spec.class_index(*t) == 0).count();
            assert_eq!(alphas, 3, "3:1 in window {window:?}");
        }
    }

    #[test]
    fn submissions_are_deterministic_and_seed_disjoint() {
        let spec = two_class_spec()
            .with_shots(ShotsDist::fixed(64))
            .with_seed(9);
        let (a, _) = spec.submission_for(5);
        let (b, _) = spec.submission_for(5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "pure in the tick");
        // Different ticks get different names (and so different jobs).
        let (c, _) = spec.submission_for(6);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn subscribe_ratio_edges_are_exact() {
        let never = two_class_spec().with_subscribe_ratio(0.0);
        assert!((0..256).all(|t| !never.submission_for(t).1));
        let mut always = two_class_spec().with_subscribe_ratio(1.0);
        always.watchers = 1;
        assert!((0..256).all(|t| always.submission_for(t).1));
        let mut half = two_class_spec().with_subscribe_ratio(0.5);
        half.watchers = 1;
        let hits = (0..4096).filter(|t| half.submission_for(*t).1).count();
        assert!(
            (1500..=2600).contains(&hits),
            "hashed Bernoulli at 0.5 lands near half, got {hits}/4096"
        );
    }

    #[test]
    fn load_spec_validation_rejects_undrivable_shapes() {
        assert!(LoadSpec::new(vec![]).validate().is_err());
        let mut zero_share = two_class_spec();
        zero_share.classes[0].share = 0;
        assert!(zero_share.validate().is_err());
        let mut no_conns = two_class_spec();
        no_conns.connections = 0;
        assert!(no_conns.validate().is_err());
        let mut bad_ratio = two_class_spec();
        bad_ratio.subscribe_ratio = 1.5;
        assert!(bad_ratio.validate().is_err());
        let mut no_watchers = two_class_spec();
        no_watchers.subscribe_ratio = 0.5;
        no_watchers.watchers = 0;
        assert!(no_watchers.validate().is_err());
        assert!(two_class_spec().validate().is_ok());
    }

    #[test]
    fn metrics_snapshot_parses_the_exposition_format() {
        let text = "# HELP eqasm_queue_depth Shot batches queued.\n\
                    # TYPE eqasm_queue_depth gauge\n\
                    eqasm_queue_depth 17\n\
                    eqasm_shots_completed_total 123456\n\
                    eqasm_jobs_completed_total{outcome=\"ok\"} 41\n\
                    eqasm_jobs_completed_total{outcome=\"failed\"} 1\n\
                    not a sample line\n\
                    eqasm_scrape_micros 153.25\n";
        let snap = MetricsSnapshot::parse(text);
        assert_eq!(snap.get("eqasm_queue_depth"), Some(17.0));
        assert_eq!(snap.get("eqasm_shots_completed_total"), Some(123456.0));
        assert_eq!(
            snap.get("eqasm_jobs_completed_total{outcome=\"ok\"}"),
            Some(41.0)
        );
        assert_eq!(snap.get("eqasm_scrape_micros"), Some(153.25));
        assert_eq!(snap.get("missing"), None);
        assert_eq!(snap.value("missing"), 0.0);
        assert_eq!(snap.len(), 5);
    }

    #[test]
    fn server_window_deltas_and_restart_detection() {
        let before = MetricsSnapshot::parse(
            "eqasm_admission_rejections_total 5\n\
             eqasm_shots_completed_total 1000\n\
             eqasm_queue_depth 3\n",
        );
        let after = MetricsSnapshot::parse(
            "eqasm_admission_rejections_total 9\n\
             eqasm_shots_completed_total 1800\n\
             eqasm_queue_depth 1\n",
        );
        let w = ServerWindow::from_scrapes(&before, &after, 12);
        assert_eq!(w.admission_rejections, 4);
        assert_eq!(w.shots_completed, 800);
        assert_eq!(w.peak_queue_depth, 12);
        assert!(!w.restarted);
        assert_eq!(w.recovered_jobs, 0);

        // A regressed counter means a fresh process: deltas restart
        // from zero and the recovery counter is surfaced as-is.
        let restarted = MetricsSnapshot::parse(
            "eqasm_admission_rejections_total 0\n\
             eqasm_shots_completed_total 40\n\
             eqasm_journal_recovered_jobs_total 6\n\
             eqasm_queue_depth 9\n",
        );
        let w = ServerWindow::from_scrapes(&before, &restarted, 2);
        assert!(w.restarted);
        assert_eq!(w.shots_completed, 40);
        assert_eq!(w.recovered_jobs, 6);
        assert_eq!(w.peak_queue_depth, 9, "end-scrape depth beats stale peak");
    }

    #[test]
    fn rps_step_and_sweep_config_validation() {
        assert_eq!(RpsStep::Add(2.0).next(4.0), 6.0);
        assert_eq!(RpsStep::Mul(2.0).next(4.0), 8.0);
        let spec = two_class_spec();
        let target = SweepTarget::new("127.0.0.1:1");
        let bad = SweepConfig {
            step: RpsStep::Mul(1.0),
            ..SweepConfig::default()
        };
        assert!(capacity_sweep(&spec, &target, &bad).is_err());
        let bad = SweepConfig {
            initial_rps: 0.0,
            ..SweepConfig::default()
        };
        assert!(capacity_sweep(&spec, &target, &bad).is_err());
    }

    #[test]
    fn capacity_json_shape_is_stable() {
        let rung = RungReport {
            target_rps: 4.0,
            window: Duration::from_secs(2),
            offered: 9,
            submitted: 9,
            shots_submitted: 900,
            submit_errors: 0,
            completed: 8,
            failed_jobs: 0,
            timed_out: 1,
            failure_rate: 1.0 / 9.0,
            achieved_rps: 4.0,
            p50: Duration::from_millis(120),
            p95: Duration::from_millis(300),
            p99: Duration::from_millis(340),
            max_submit_lag: Duration::from_millis(2),
            server: Some(ServerWindow {
                peak_queue_depth: 7,
                admission_rejections: 1,
                shots_completed: 800,
                jobs_ok: 8,
                recovered_jobs: 0,
                restarted: false,
            }),
            breach: Some(Breach::LatencyP50 {
                p50: Duration::from_millis(120),
                limit: Duration::from_millis(100),
            }),
        };
        let report = CapacityReport {
            rungs: vec![rung],
            max_sustainable_rps: 4.0,
            stop: StopCause::CeilingBreached,
        };
        let json = report.to_json("");
        for needle in [
            "\"max_sustainable_rps\": 4.000",
            "\"stop\": \"ceiling_breached\"",
            "\"stop_rung\": 0",
            "\"target_rps\": 4.000",
            "\"p50_ms\": 120.00",
            "\"breach\": \"p50_latency\"",
            "\"peak_queue_depth\": 7",
            "\"admission_rejections\": 1",
            "\"shots_completed\": 800",
            "\"recovered_jobs\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(report.breach_rung(), Some(0));
        let table = report.table();
        assert!(table.contains("BREACH"));
        assert!(table.contains("max sustainable: 4.0 rps"));
    }
}

//! Per-layer metrics of the traced window, named after the runtime's
//! modules, plus the post-window probes that re-run single layers
//! (`QuMa::run_shot_from` / `run_prefix`, `WorkloadKind::build`, the
//! wire snapshot codec) in isolation.

use std::time::{Duration, Instant};

use eqasm_microarch::{BackendSelect, QuMa, SimConfig};
use eqasm_runtime::{wire, PartialResult};

use crate::drive::JobRecord;
use crate::gen::Shape;
use crate::probe::{role_cpu, Role, Scrape};
use crate::trace::Span;

/// One measured window: counter and per-thread CPU deltas.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub before: Scrape,
    pub after: Scrape,
    pub cpu: std::collections::BTreeMap<Role, f64>,
    /// Highest `eqasm_queue_depth` sampled (traced window only).
    pub peak_depth: f64,
    /// Per-second marks: time, thread CPU and counters.
    pub marks: Vec<(Instant, crate::probe::ThreadCpu, Scrape)>,
    /// Share of machine CPU time stolen by the hypervisor.
    pub steal: f64,
}

impl Window {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn delta(&self, name: &str, labels: &[&str]) -> f64 {
        self.before.delta(&self.after, name, labels)
    }

    pub fn contains(&self, at: Instant) -> bool {
        at >= self.start && at < self.end
    }

    /// Live jobs that completed inside the window.
    pub fn completed<'a>(&self, records: &'a [JobRecord]) -> Vec<&'a JobRecord> {
        records
            .iter()
            .filter(|r| !r.backlog && r.done.is_some_and(|d| self.contains(d)))
            .collect()
    }
}

/// Nearest-rank percentile of unsorted values (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A named per-layer value with its unit.
pub type Metric = (String, &'static str, f64);

/// Inputs of the per-layer ledger.
pub struct Ledger<'a> {
    pub window: &'a Window,
    pub records: &'a [JobRecord],
    pub spans: &'a [Span],
    pub tracer: &'a crate::trace::Tracer,
    pub slots: usize,
    /// Median `JobQueue::recover` time over the set-up repetitions.
    pub replay_s: f64,
}

/// Every per-layer metric computed from the traced window.
pub fn window_metrics(l: &Ledger<'_>) -> Vec<Metric> {
    let w = l.window;
    let done = w.completed(l.records);
    let jobs = done.len() as f64;
    let shots = w.delta("eqasm_shots_completed_total", &[]);
    let (w0, w1) = (l.tracer.ns(w.start), l.tracer.ns(w.end));
    let in_window = |s: &&Span| s.end_ns >= w0 && s.end_ns < w1;
    let durations = |name: &str| -> Vec<f64> {
        l.spans
            .iter()
            .filter(in_window)
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let latencies: Vec<f64> = done.iter().filter_map(|r| r.latency()).map(ms).collect();
    let first: Vec<f64> = done
        .iter()
        .filter_map(|r| r.first.map(|f| ms(f.saturating_duration_since(r.due))))
        .collect();
    let snapshots: Vec<f64> = done.iter().map(|r| r.snapshots as f64).collect();
    let server: Vec<(f64, f64)> = done
        .iter()
        .filter_map(|r| r.server_times.map(|(q, a)| (ms(q), ms(a))))
        .collect();
    let snap_frames = w.delta(
        "eqasm_wire_frames_total",
        &["dir=\"out\"", "frame=\"snapshot\""],
    );
    let reactor = role_cpu(&w.cpu, Role::Reactor);
    let cache_hits = w.delta("eqasm_program_cache_hits_total", &[]);
    let cache_misses = w.delta("eqasm_program_cache_misses_total", &[]);
    let prefix_hits = w.delta("eqasm_prefix_cache_hits_total", &[]);
    let prefix_misses = w.delta("eqasm_prefix_cache_misses_total", &[]);
    let runs: Vec<&Span> = l
        .spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name == "backend.run_range")
        .collect();
    let busy_ns: f64 = runs
        .iter()
        .map(|s| (s.end_ns.min(w1) - s.start_ns.max(w0)) as f64)
        .sum();
    let span_ns: f64 = runs.iter().map(|s| (s.end_ns - s.start_ns) as f64).sum();
    let exec_ns: f64 = runs.iter().map(|s| s.exec_ns as f64).sum();
    let run_shots: f64 = runs.iter().map(|s| s.shots as f64).sum();
    let rebuilds = runs.iter().filter(|s| s.rebuild).count() as f64;
    let secs = w.secs();
    let m = |name: &str, unit: &'static str, value: f64| (name.to_owned(), unit, value);
    vec![
        m(
            "client.submit_ms_p50",
            "ms",
            median(&durations("client.submit")),
        ),
        m("client.job_ms_p99", "ms", percentile(&latencies, 0.99)),
        m("client.first_result_ms_p50", "ms", median(&first)),
        m(
            "client.snapshots_per_job",
            "count",
            ratio(snapshots.iter().sum(), jobs),
        ),
        m("client.cpu_s", "s", role_cpu(&w.cpu, Role::Bench)),
        m(
            "wire.bytes_per_job",
            "bytes",
            ratio(w.delta("eqasm_wire_bytes_total", &["dir=\"out\""]), jobs),
        ),
        m(
            "wire.frames_per_job",
            "count",
            ratio(w.delta("eqasm_wire_frames_total", &["dir=\"out\""]), jobs),
        ),
        m("net.reactor_cpu_s", "s", reactor),
        m(
            "net.reactor_cpu_us_per_snapshot",
            "us",
            ratio(reactor * 1e6, snap_frames),
        ),
        m(
            "net.reactor_wakeups_per_job",
            "count",
            ratio(w.delta("eqasm_net_reactor_wakeups_total", &[]), jobs),
        ),
        m(
            "serve.queue_wait_ms_p50",
            "ms",
            median(&server.iter().map(|s| s.0).collect::<Vec<_>>()),
        ),
        m(
            "serve.active_ms_p50",
            "ms",
            median(&server.iter().map(|s| s.1).collect::<Vec<_>>()),
        ),
        m(
            "serve.batches_per_job",
            "count",
            ratio(w.delta("eqasm_batches_folded_total", &[]), jobs),
        ),
        m(
            "serve.program_cache_hit_ratio",
            "ratio",
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        m("serve.peak_queue_depth", "count", w.peak_depth),
        m(
            "serve.slot_idle_frac",
            "ratio",
            1.0 - ratio(busy_ns / 1e9, l.slots as f64 * secs),
        ),
        m(
            "journal.appends_per_job",
            "count",
            ratio(w.delta("eqasm_journal_appends_total", &[]), jobs),
        ),
        m(
            "journal.bytes_per_shot",
            "bytes",
            ratio(w.delta("eqasm_journal_bytes_total", &[]), shots),
        ),
        m(
            "journal.fsyncs_per_s",
            "1/s",
            ratio(w.delta("eqasm_journal_fsyncs_total", &[]), secs),
        ),
        m("journal.cpu_s", "s", role_cpu(&w.cpu, Role::Journal)),
        m("journal.replay_s", "s", l.replay_s),
        m(
            "backend.batch_ms_p50",
            "ms",
            median(&durations("backend.run_range")),
        ),
        m("backend.us_per_shot", "us", ratio(span_ns / 1e3, run_shots)),
        m("backend.exec_share", "ratio", ratio(exec_ns, span_ns)),
        m(
            "backend.machine_rebuilds_per_job",
            "count",
            ratio(rebuilds, jobs),
        ),
        m("backend.slot_cpu_s", "s", role_cpu(&w.cpu, Role::Slot)),
        m(
            "prefix.hit_ratio",
            "ratio",
            ratio(prefix_hits, prefix_hits + prefix_misses),
        ),
        m(
            "prefix.fork_share",
            "ratio",
            ratio(
                w.delta("eqasm_prefix_fork_shots_total", &[]),
                w.delta("eqasm_shots_executed_total", &[]),
            ),
        ),
        m("prefix.warmer_cpu_s", "s", role_cpu(&w.cpu, Role::Warmer)),
        m(
            "quantum.selected.stabilizer",
            "count",
            w.delta("eqasm_backend_selected_total", &["kind=\"stabilizer\""]),
        ),
        m(
            "quantum.selected.density",
            "count",
            w.delta("eqasm_backend_selected_total", &["kind=\"density\""]),
        ),
        m(
            "quantum.selected.pure",
            "count",
            w.delta("eqasm_backend_selected_total", &["kind=\"pure\""]),
        ),
    ]
}

/// Median wall time of `reps` calls of `f`, microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&v)
}

/// Mean per-call time of `f` over at least `budget` (and at least
/// `min_calls` calls), microseconds.
fn per_call_us(budget: Duration, min_calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    let mut calls = 0;
    while calls < min_calls || t.elapsed() < budget {
        f(calls);
        calls += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn machine(shape: &Shape, config: SimConfig) -> Option<QuMa> {
    let (inst, program) = shape.build().ok()?;
    let mut config = config;
    config.record_trace = false;
    let mut m = QuMa::new(inst, config);
    m.load(&program).ok()?;
    Some(m)
}

/// Per-shot time of full `run_shot` replays under `config`, µs.
fn replay_us(shape: &Shape, config: SimConfig, budget: Duration) -> f64 {
    let Some(mut m) = machine(shape, config) else {
        return 0.0;
    };
    per_call_us(budget, 3, |i| {
        std::hint::black_box(m.run_shot(1000 + i));
    })
}

/// The per-shape probes: program build (`asm`), prefix build and
/// forked shot (`microarch`), and for Clifford shapes the stabilizer
/// speed-up over the dense backends (`quantum`).
pub fn shape_metrics(shapes: &[Shape]) -> Vec<Metric> {
    let budget = Duration::from_millis(40);
    let mut out = Vec::new();
    for shape in shapes {
        let build = time_us(5, || {
            std::hint::black_box(shape.build().ok());
        });
        out.push((format!("asm.build_us.{}", shape.name), "us", build));
        let (mut shot, mut prefix) = (0.0, 0.0);
        if let Some(mut m) = machine(shape, shape.config.clone()) {
            match m.run_prefix(1) {
                Some(snap) => {
                    prefix = time_us(5, || {
                        std::hint::black_box(m.run_prefix(1));
                    });
                    shot = per_call_us(budget, 20, |i| {
                        std::hint::black_box(m.run_shot_from(&snap, 1000 + i));
                    });
                }
                None => {
                    shot = per_call_us(budget, 20, |i| {
                        std::hint::black_box(m.run_shot(1000 + i));
                    })
                }
            }
        }
        out.push((format!("microarch.shot_us.{}", shape.name), "us", shot));
        out.push((
            format!("microarch.prefix_build_us.{}", shape.name),
            "us",
            prefix,
        ));
        if shape.clifford_route() {
            let auto = replay_us(shape, shape.config.clone(), budget);
            // The density matrix where the register fits it, the dense
            // rule (state vector) beyond.
            let mut dense = replay_us(
                shape,
                shape.config.clone().with_backend(BackendSelect::Density),
                budget,
            );
            if dense == 0.0 {
                dense = replay_us(
                    shape,
                    shape.config.clone().with_backend(BackendSelect::Dense),
                    budget,
                );
            }
            out.push((
                format!("quantum.stabilizer_speedup.{}", shape.name),
                "x",
                ratio(dense, auto),
            ));
        }
    }
    out
}

/// Encode and decode cost of snapshots captured mid-job, µs per call.
pub fn wire_metrics(samples: &[&PartialResult]) -> Vec<Metric> {
    let (mut enc, mut dec) = (0.0, 0.0);
    if !samples.is_empty() {
        let budget = Duration::from_millis(20);
        let n = samples.len() as u64;
        enc = per_call_us(budget, n, |i| {
            std::hint::black_box(wire::encode_partial_result(samples[(i % n) as usize]));
        });
        let encoded: Vec<Vec<u8>> = samples
            .iter()
            .map(|s| wire::encode_partial_result(s))
            .collect();
        dec = per_call_us(budget, n, |i| {
            std::hint::black_box(wire::decode_partial_result(&encoded[(i % n) as usize]).ok());
        });
    }
    vec![
        ("wire.encode_partial_us".to_owned(), "us", enc),
        ("wire.decode_partial_us".to_owned(), "us", dec),
    ]
}

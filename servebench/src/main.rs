//! `servebench` — the service benchmark of the eQASM shot service.
//!
//! One process is one workload run. It starts the coordinator
//! in-process from the public API (`JobQueue::recover` on a journal
//! directory, one local slot per available CPU, `spawn_serve` on
//! loopback TCP), drives it from at most two generator threads over two
//! `Client` connections, checks every result against
//! `ShotEngine::run_job`, and prints its metrics.
//!
//! ```text
//! servebench --workload <bulk-watched|restart-mix>
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding every end-to-end metric. With `--trace 1` the run measures
//! one untraced reference window and then one traced window of the same
//! length, and reports the per-layer metrics of the traced window; the
//! spans and a per-layer table are written under `servebench/out/`.
//! The exit code is 0 only when every check passed.

mod coord;
mod drive;
mod gen;
mod layers;
mod probe;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drive::{Ctx, JobRecord};
use eqasm_runtime::ServeNetConfig;
use gen::{Builds, JobSpec};
use layers::{median, Metric, Window};
use probe::{coordinator_cpu, role_cpu, Role, Scrape, ThreadCpu};
use trace::Tracer;

/// Start-ups per run: most before the measured windows (the last of
/// them is the coordinator the windows measure), the rest after, so
/// one burst of host noise cannot cover them all. `setup_s` is their
/// median.
const SETUP_REPS_BEFORE: usize = 6;
const SETUP_REPS_AFTER: usize = 5;

/// How long the generators may take to finish their in-flight jobs
/// after the measured windows before the acceptor is killed and the
/// remaining jobs count as timed out.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BulkWatched,
    RestartMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "bulk-watched" => Some(Workload::BulkWatched),
            "restart-mix" => Some(Workload::RestartMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BulkWatched => "bulk-watched",
            Workload::RestartMix => "restart-mix",
        }
    }

    /// Untimed run-in before the first window.
    fn warmup(self) -> Duration {
        match self {
            Workload::BulkWatched => Duration::from_secs(2),
            Workload::RestartMix => Duration::from_secs(1),
        }
    }

    /// The shapes of the workload's jobs, its recovered backlog included.
    fn shapes(self) -> &'static [&'static str] {
        match self {
            Workload::BulkWatched => gen::BULK_SHAPES,
            Workload::RestartMix => gen::RESTART_SHAPES,
        }
    }

    /// Jobs in the journal backlog set-up recovers. restart-mix's fills
    /// the acceptor's completed retention exactly, so from the first
    /// live submit on every registration evicts one finished job.
    fn backlog_jobs(self) -> usize {
        match self {
            Workload::BulkWatched => gen::BULK_BACKLOG_JOBS,
            Workload::RestartMix => ServeNetConfig::default().completed_retention,
        }
    }

    /// Tenants and their DRR weights.
    fn tenants(self) -> &'static [(&'static str, u32)] {
        match self {
            Workload::BulkWatched => gen::BULK_TENANTS,
            Workload::RestartMix => gen::RESTART_TENANTS,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, gen::DEFAULT_SEED, 20.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// The commit under test, read from the checkout's `.git`, else
/// `unknown`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(c) = std::fs::read_to_string(git.join(reference)) {
        return c.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Measures one window of `length`, marking CPU and counters at every
/// second, and sampling the queue depth every 100 ms when
/// `sample_depth` is set (each sample renders the whole registry).
fn measure(length: Duration, sample_depth: bool) -> Window {
    let before = Scrape::take();
    let cpu0 = ThreadCpu::read();
    let ticks0 = probe::cpu_ticks();
    let start = Instant::now();
    let end_at = start + length;
    let mut marks = vec![(start, cpu0.clone(), before.clone())];
    let mut next_mark = start + Duration::from_secs(1);
    let mut peak_depth: f64 = 0.0;
    loop {
        let now = Instant::now();
        if now >= end_at {
            break;
        }
        let tick = if sample_depth {
            Duration::from_millis(100)
        } else {
            Duration::from_secs(1)
        };
        std::thread::sleep(
            (end_at - now)
                .min(next_mark.saturating_duration_since(now))
                .min(tick),
        );
        if sample_depth {
            peak_depth = peak_depth.max(Scrape::take().sum("eqasm_queue_depth", &[]));
        }
        let now = Instant::now();
        if now >= next_mark && now < end_at {
            marks.push((now, ThreadCpu::read(), Scrape::take()));
            next_mark += Duration::from_secs(1);
        }
    }
    let end = Instant::now();
    let steal = probe::steal_share(&ticks0, &probe::cpu_ticks());
    let cpu1 = ThreadCpu::read();
    let after = Scrape::take();
    marks.push((end, cpu1.clone(), after.clone()));
    Window {
        start,
        end,
        before,
        after,
        cpu: cpu0.delta(&cpu1),
        peak_depth,
        marks,
        steal,
    }
}

fn fmt_json_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// What one second of a window saw.
struct Second {
    secs: f64,
    shots: f64,
    cpu: f64,
    latencies: Vec<f64>,
}

/// Fewest jobs a second must complete for its own latency median to
/// count; with fewer, `job_ms_p50` is the median over the whole window.
const MIN_JOBS_PER_SECOND: usize = 20;

/// The end-to-end metrics of one window. Rates and CPU costs are
/// medians over the window's seconds, so a burst of host noise shorter
/// than half the window does not move them.
fn end_to_end(
    w: &Window,
    records: &[JobRecord],
    setup_s: f64,
    rss_mib: f64,
) -> (Vec<Metric>, Vec<String>) {
    let latency_ms = |r: &&JobRecord| r.latency().map(|d| d.as_secs_f64() * 1e3);
    let done = w.completed(records);
    let seconds: Vec<Second> = w
        .marks
        .windows(2)
        .map(|pair| {
            let ((a, cpu_a, scrape_a), (b, cpu_b, scrape_b)) = (&pair[0], &pair[1]);
            Second {
                secs: b.duration_since(*a).as_secs_f64(),
                shots: scrape_a.delta(scrape_b, "eqasm_shots_completed_total", &[]),
                cpu: coordinator_cpu(&cpu_a.delta(cpu_b)),
                latencies: done
                    .iter()
                    .filter(|r| r.done.is_some_and(|d| d >= *a && d < *b))
                    .filter_map(latency_ms)
                    .collect(),
            }
        })
        .collect();
    // Median over the seconds where `f` is defined.
    let per_second = |f: &dyn Fn(&Second) -> Option<f64>| -> f64 {
        median(&seconds.iter().filter_map(f).collect::<Vec<_>>())
    };
    let latencies: Vec<f64> = done.iter().filter_map(latency_ms).collect();
    let job_ms_p50 = if seconds
        .iter()
        .all(|s| s.latencies.len() >= MIN_JOBS_PER_SECOND)
    {
        per_second(&|s| Some(median(&s.latencies)))
    } else {
        median(&latencies)
    };
    let per_mshot = per_second(&|s| (s.shots > 0.0).then(|| s.cpu / s.shots * 1e6));
    let shots_per_s = per_second(&|s| Some(s.shots / s.secs));
    let metrics: Vec<Metric> = vec![
        ("setup_s".to_owned(), "s", setup_s),
        ("shots_per_s".to_owned(), "shots/s", shots_per_s),
        ("job_ms_p50".to_owned(), "ms", job_ms_p50),
        ("cpu_s_per_mshot".to_owned(), "s", per_mshot),
        ("rss_mb_peak".to_owned(), "MiB", rss_mib),
    ];
    let (shots, cpu) = (
        w.delta("eqasm_shots_completed_total", &[]),
        coordinator_cpu(&w.cpu),
    );
    let n = seconds.len();
    let notes = vec![
        format!(
            "median of {} start-ups",
            SETUP_REPS_BEFORE + SETUP_REPS_AFTER
        ),
        format!("median of {n} s; {shots:.0} shots in {:.3} s", w.secs()),
        format!(
            "n={} jobs completed in the window; {}",
            latencies.len(),
            if seconds
                .iter()
                .all(|s| s.latencies.len() >= MIN_JOBS_PER_SECOND)
            {
                format!("median of {n} per-second medians")
            } else {
                "median over the window".to_owned()
            }
        ),
        format!("median of {n} s; {cpu:.3} coordinator CPU-s / {shots:.0} shots in the window"),
        "VmHWM over set-up, run-in and the window".to_owned(),
    ];
    (metrics, notes)
}

fn run(args: &Args) -> Result<i32, String> {
    // Process-wide switches of the execution path; a benchmark run
    // measures the defaults.
    std::env::remove_var("EQASM_PREFIX");
    std::env::remove_var("EQASM_EXEC_PATH");
    let err = |e: eqasm_runtime::RuntimeError| e.to_string();
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let work = coord::WorkDir::new(&out_dir).map_err(err)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slots = host;
    let workload = args.workload;
    let shapes = Arc::new(gen::catalogue());
    let mut builds = Builds::new(&shapes);
    // Client-side builds of prebuilt-job shapes happen here, untimed.
    for name in gen::RESTART_SHAPES {
        builds
            .get(&shapes, gen::shape_index(&shapes, name))
            .map_err(err)?;
    }
    let tracer = args.trace.then(Tracer::new);

    let mut stream = gen::JobStream::new(
        &shapes,
        workload.shapes(),
        workload.tenants(),
        args.seed,
        40,
        "b",
        gen::BACKLOG_SHOTS,
    );
    let backlog: Vec<JobSpec> = (0..workload.backlog_jobs())
        .map(|_| stream.next_job(&shapes))
        .collect();
    let prep = work.0.join("prep");
    coord::prepare_backlog(&prep, &shapes, &mut builds, &backlog).map_err(err)?;

    // Set-up, repeated: every start-up but the one the windows measure
    // is torn down again.
    let start_rep = |rep: usize| -> Result<(coord::Coordinator, coord::StartTimes), String> {
        let dir = work.0.join(format!("journal-{rep}"));
        coord::copy_journal(&prep, &dir).map_err(err)?;
        coord::start(slots, &dir, tracer.as_ref(), workload.tenants()).map_err(err)
    };
    let mut times = Vec::with_capacity(SETUP_REPS_BEFORE + SETUP_REPS_AFTER);
    for rep in 0..SETUP_REPS_BEFORE - 1 {
        let (c, t) = start_rep(rep)?;
        times.push(t);
        c.stop();
    }
    let shots_base = Scrape::take().sum("eqasm_shots_completed_total", &[]);
    let (coord, t) = start_rep(SETUP_REPS_BEFORE - 1)?;
    times.push(t);
    let recovered = coord.recovery.jobs_recovered;
    if recovered != backlog.len() {
        return Err(format!(
            "journal recovery re-admitted {recovered} jobs, expected {}",
            backlog.len()
        ));
    }

    let ctx = Ctx {
        shapes: Arc::clone(&shapes),
        builds: builds.clone(),
        seed: args.seed,
        tracer: tracer.clone(),
        stop: Default::default(),
        live: Default::default(),
        finished: Default::default(),
    };
    let window_len = Duration::from_secs_f64(args.seconds);
    let generators = drive::USERS;
    let (records, windows, rss_mib) = std::thread::scope(|s| -> Result<_, String> {
        let (ctx, backlog) = (&ctx, &backlog);
        let mut users = Vec::new();
        for (u, client) in coord.clients.iter().enumerate() {
            let user = std::thread::Builder::new()
                .name(format!("{}{u}", probe::GEN_THREAD))
                .spawn_scoped(s, move || match workload {
                    Workload::BulkWatched => drive::bulk_user(ctx, u, client, backlog),
                    Workload::RestartMix => drive::restart_user(ctx, u, client, backlog),
                })
                .map_err(|e| format!("spawn generator thread: {e}"))?;
            users.push(user);
        }
        // Run-in: the users first collect the recovered backlog.
        let live_by = Instant::now() + DRAIN_DEADLINE;
        while ctx.live.load(Ordering::SeqCst) < generators
            && ctx.finished.load(Ordering::SeqCst) == 0
            && Instant::now() < live_by
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(workload.warmup());
        let mut windows = vec![measure(window_len, false)];
        let rss_mib = probe::rss_peak_mib();
        if let Some(t) = &tracer {
            t.set_enabled(true);
            windows.push(measure(window_len, true));
            t.set_enabled(false);
        }
        ctx.stop.store(true, Ordering::SeqCst);
        let drain_by = Instant::now() + DRAIN_DEADLINE;
        while ctx.finished.load(Ordering::SeqCst) < generators && Instant::now() < drain_by {
            std::thread::sleep(Duration::from_millis(5));
        }
        if ctx.finished.load(Ordering::SeqCst) < generators {
            // Wedged jobs: closing the acceptor fails their watches.
            coord.serve.kill();
        }
        let mut records = Vec::new();
        for h in users {
            records.extend(h.join().map_err(|_| "generator thread panicked")?);
        }
        Ok((records, windows, rss_mib))
    })?;
    drop(ctx);

    let shots_server = Scrape::take().sum("eqasm_shots_completed_total", &[]) - shots_base;
    let shots_client: u64 = records.iter().map(|r| r.shots_acked).sum();
    let id_of: std::collections::HashMap<String, u64> = records
        .iter()
        .map(|r| (r.spec.name.clone(), r.id))
        .collect();
    coord.stop();
    for rep in SETUP_REPS_BEFORE..SETUP_REPS_BEFORE + SETUP_REPS_AFTER {
        let (c, t) = start_rep(rep)?;
        times.push(t);
        c.stop();
    }
    let setup_s = median(&times.iter().map(|t| t.setup_s).collect::<Vec<_>>());
    let replay_s = median(&times.iter().map(|t| t.replay_s).collect::<Vec<_>>());

    // Correctness, outside every window.
    let mismatches = verify::verify(&shapes, &mut builds, &records, slots);
    let mut failed_idx: std::collections::BTreeSet<usize> =
        mismatches.iter().map(|m| m.0).collect();
    let mut problems: Vec<String> = mismatches.into_iter().map(|m| m.1).collect();
    for (i, r) in records.iter().enumerate() {
        if let Some(e) = &r.error {
            failed_idx.insert(i);
            problems.push(format!("`{}`: {e}", r.spec.name));
        }
    }
    let mut failed = failed_idx.len() as u64;
    if shots_server as u64 != shots_client {
        failed += 1;
        problems.push(format!(
            "client acknowledged {shots_client} shots, eqasm_shots_completed_total moved by {shots_server}"
        ));
    }
    let attempted = records.len() as u64;

    let w = &windows[0];
    // Report: printed, and kept under out/ with the spans.
    let mut report = String::new();
    macro_rules! say {
        ($($arg:tt)*) => {{
            let line = format!($($arg)*);
            println!("{line}");
            report.push_str(&line);
            report.push('\n');
        }};
    }
    let commit = commit(bench_dir.parent().unwrap_or(&bench_dir));
    say!(
        "servebench workload={} seed={} trace={} host_parallelism={host} slots={slots} commit={commit} window_s={:.3} host_steal_share={:.4}",
        workload.name(),
        args.seed,
        args.trace as u8,
        w.secs(),
        w.steal
    );
    let (e2e, notes) = end_to_end(w, &records, setup_s, rss_mib);
    for ((name, unit, value), note) in e2e.iter().zip(&notes) {
        say!("e2e      {name:<18} {value:>16.6} {unit:<8} ({note})");
    }
    say!(
        "e2e      {:<18} {:>16.6} {:<8} (failed={failed} attempted={attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    say!(
        "context  backlog_recovered={recovered} journal_replay_s={replay_s:.6} retention_evictions={} cpu_s: generator={:.3} coordinator={:.3} (slots={:.3} reactor={:.3} journal={:.3} warmer={:.3} other={:.3}) snapshot_frames={}",
        w.delta("eqasm_completed_retention_evictions_total", &[]),
        role_cpu(&w.cpu, Role::Bench),
        coordinator_cpu(&w.cpu),
        role_cpu(&w.cpu, Role::Slot),
        role_cpu(&w.cpu, Role::Reactor),
        role_cpu(&w.cpu, Role::Journal),
        role_cpu(&w.cpu, Role::Warmer),
        role_cpu(&w.cpu, Role::Other),
        w.delta("eqasm_wire_frames_total", &["dir=\"out\"", "frame=\"snapshot\""]),
    );
    for p in problems.iter().take(20) {
        say!("FAILED   {p}");
    }

    let metrics: Vec<Metric> = if let Some(t) = &tracer {
        let tw = &windows[1];
        let spans = t.take();
        let ledger = layers::Ledger {
            window: tw,
            records: &records,
            spans: &spans,
            tracer: t,
            slots,
            replay_s,
        };
        let mut m = layers::window_metrics(&ledger);
        let samples: Vec<_> = records
            .iter()
            .filter_map(|r| r.sample.as_ref())
            .take(256)
            .collect();
        m.extend(layers::wire_metrics(&samples));
        m.extend(layers::shape_metrics(&shapes));
        let (traced, _) = end_to_end(tw, &records, setup_s, rss_mib);
        let mut overhead = Vec::new();
        for ((name, _, reference), (_, _, traced)) in e2e.iter().zip(&traced) {
            let pct = if *reference != 0.0 {
                (traced / reference - 1.0) * 100.0
            } else {
                0.0
            };
            overhead.push(format!("{name}={pct:+.2}%"));
            if name == "job_ms_p50" {
                m.push(("trace.overhead_pct".to_owned(), "pct", pct));
            }
        }
        say!(
            "trace    overhead traced vs untraced window: {}",
            overhead.join(" ")
        );
        for (name, unit, value) in &m {
            say!("layer    {name:<40} {value:>16.6} {unit}");
        }
        let spans_path = out_dir.join(format!("spans-{}.jsonl", workload.name()));
        trace::write_spans(&spans_path, &spans, |name| id_of.get(name).copied())
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        say!(
            "trace    {} spans of {} jobs -> {}",
            spans.len(),
            tw.completed(&records).len(),
            spans_path.display()
        );
        m
    } else {
        e2e
    };

    let correct = problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_json_value(*value)
            )
        })
        .collect();
    say!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let report_path = out_dir.join(format!(
        "report-{}-trace{}.txt",
        workload.name(),
        args.trace as u8
    ));
    std::fs::write(&report_path, report)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    Ok(if correct { 0 } else { 1 })
}

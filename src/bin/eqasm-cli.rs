//! `eqasm-cli` — assemble, disassemble, inspect and execute eQASM
//! programs from the command line.
//!
//! ```text
//! eqasm-cli asm      <file.eqasm>            assemble; print 32-bit words
//! eqasm-cli disasm   <file.hex>              decode hex words; print assembly
//! eqasm-cli run      <file.eqasm> [options]  execute on the QuMA v2 simulator
//! eqasm-cli lift     <file.eqasm>            strip timing; print the circuit
//! eqasm-cli workload <spec> [options]        drive a built-in workload mix
//! eqasm-cli serve    <spec> [options]        same mix through the job queue:
//!                                            per-tenant fair scheduling with
//!                                            streaming progress lines
//! eqasm-cli serve    --listen <addr>         no spec: run the queue as a
//!                                            network service — remote clients
//!                                            submit over the wire protocol
//! eqasm-cli submit   <spec> --connect <addr> submit the named mix to a remote
//!                                            serve coordinator, stream partial
//!                                            results, print the final table
//! eqasm-cli status   --connect <addr> --job <id>   one snapshot per job id
//! eqasm-cli watch    --connect <addr> --job <id>   stream one job to completion
//!                    [--resume-after batches]       …skipping an already-folded prefix
//! eqasm-cli loadgen  [spec] --connect <addr> drive a running coordinator
//!                                            open-loop at stepped target
//!                                            submission rates until a
//!                                            failure-rate or p50-latency
//!                                            ceiling is breached; print the
//!                                            per-rung capacity table
//! eqasm-cli worker   --listen <addr>         long-lived remote shot worker
//!                                            speaking the versioned wire
//!                                            protocol
//!
//! options for `run`:
//!   --seed <n>       RNG seed (default 0)
//!   --shots <n>      repeat execution n times (default 1)
//!   --workers <n>    shot-engine worker threads (default: machine parallelism)
//!   --chip <name>    surface7 | two-qubit (default surface7)
//!   --trace          print the executed-operation trace of shot 0
//!
//! workload specs: rabi | allxy | rb | active-reset | mix
//! options for `workload` and `serve`:
//!   --shots <n>      shots per job instance (default 400)
//!   --workers <n>    local worker threads (default: machine parallelism)
//!   --seed <n>       base seed (default 0)
//!   --remote <a,b>   (serve only) comma-separated worker addresses; the
//!                    queue opens one slot per advertised worker slot and
//!                    mixes them with the local pool
//!   --rediscover <s> (serve only) run a pool supervisor that re-probes
//!                    the --remote (and --registry) addresses every <s>
//!                    seconds, reattaching workers that restart mid-run
//!                    and attaching newly listed ones
//!   --registry <f>   (serve only, with --rediscover) a worker-address
//!                    file (one host:port per line) re-read every probe
//!                    sweep; addresses that leave the file are drained
//!   --metrics <a>    (serve and worker) serve Prometheus text metrics
//!                    on `GET http://<a>/metrics`; a bare port binds
//!                    loopback (see METRICS.md for the series catalogue)
//!   --journal <dir>  (serve only) durable coordinator: append every
//!                    admission and folded range to a write-ahead
//!                    journal in <dir>; on startup, replay the journal
//!                    and resume incomplete jobs bit-identically (see
//!                    PROTOCOL.md "Durability")
//!   --journal-fsync <every|batch|off>
//!                    journal fsync policy (default batch: group-commit
//!                    one fsync per append burst)
//!
//! options for `submit`:
//!   --connect <addr>  the serve coordinator (required)
//!   --shots / --seed  as for `serve`
//!   --verify-serial   after the remote run, re-run every job locally on a
//!                     serial engine and require bit-identical aggregates
//!   --psk-file <f>    authenticate with the fleet pre-shared key
//!
//! options for `loadgen` (spec defaults to `mix`):
//!   --connect <addr>       the serve coordinator (required)
//!   --scrape <addr>        the coordinator's `/metrics` endpoint — scraped
//!                          per rung for server-side truth (queue depth,
//!                          admission rejections, shots completed)
//!   --initial-rps <r>      first rung's target submissions/sec (default 4)
//!   --rps-factor <f>       multiply the rate by f per rung (default 2)
//!   --rps-step <r>         …or add r per rung instead
//!   --max-rps <r>          stop ramping past this rate (default 256)
//!   --rung-secs <s>        measurement window per rung (default 5)
//!   --drain-secs <s>       post-window completion grace (default 10)
//!   --stop-failure-rate <x>  stop ceiling on failed/offered (default 0.4)
//!   --stop-p50-ms <ms>     stop ceiling on median latency (default 2000)
//!   --connections <n>      concurrent submitter connections (default 4)
//!   --watchers <n>         watcher connections for --subscribe-ratio
//!   --subscribe-ratio <x>  fraction of jobs watched via SUBSCRIBE (0..=1)
//!   --shots / --seed       per-job shots and base seed, as for `submit`
//!   --json                 print the `capacity` JSON object instead of
//!                          (well, after) the rung table
//!   --churn                subscriber-churn sweep instead of a rate ramp:
//!                          cycle connect/subscribe/resume/disconnect
//!                          watchers, verify resume correctness, report
//!                          cycles/sec and reactor wakeups/sec
//!   --churn-secs <s>       churn sweep duration (default 5)
//!
//! options for `worker`:
//!   --listen <addr>  address to bind, e.g. 127.0.0.1:7777 (required)
//!   --capacity <n>   advertised concurrent slots (default: parallelism)
//!   --name <s>       worker name shown to coordinators (default: hostname-ish)
//!   --psk-file <f>   require the fleet pre-shared key on every connection
//!   --job-cache <n>  per-connection job-registry capacity (default 8)
//!   --max-frame <n>  per-connection frame-size budget, bytes
//!   --rate-limit <n> per-connection request-rate budget, requests/sec
//!   --metrics <a>    Prometheus endpoint, as for `serve`
//!
//! `serve --listen` and `serve ... --remote` accept --psk-file too: the
//! same key then guards the client front door and the worker pool.
//!
//! `worker` drains cleanly on SIGINT/SIGTERM: it stops accepting, lets
//! in-flight batches finish (coordinators see slots retire, never a
//! lost batch), then exits — so rolling restarts compose with a
//! coordinator-side `--rediscover` supervisor into zero-intervention
//! fleet churn.
//! ```

use std::process::ExitCode;

use eqasm::asm::{disassemble_source, encoding};
use eqasm::compiler::lift_program;
use eqasm::prelude::*;
use eqasm::runtime::{
    Client, ConnectOptions, ExecBackend, ExecPolicy, FsyncPolicy, Job, JobHandle, JobQueue,
    JournalConfig, LocalBackend, MixedWorkload, PartialResult, PoolSupervisor, Psk, RemoteBackend,
    ServeConfig, ServeNetConfig, ShotEngine, Submission, SupervisorConfig, WorkerConfig,
    WorkloadKind, WorkloadReport, WorkloadSpec,
};
use eqasm_bench::loadgen::{
    capacity_sweep, churn_sweep, Ceilings, ChurnConfig, LoadClass, LoadSpec, RpsStep, SweepConfig,
    SweepTarget,
};

/// SIGINT/SIGTERM → one atomic flag, so the worker daemon can drain
/// (finish in-flight batches, then exit) instead of dying mid-range.
/// Raw `signal(2)` over FFI — the environment has no `libc`-style
/// crate, and an async-signal-safe handler needs nothing more than a
/// single atomic store.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Flipped by the handler; `run_worker_until` watches it.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Release);
        // Wake a serve reactor parked in epoll_wait/poll with no
        // timeout — an atomic load plus one write(2) on a pipe, both
        // async-signal-safe. (The syscalls also return EINTR on
        // signal delivery, but only if the signal lands on the
        // reactor's own thread; the wake covers every thread.)
        eqasm::runtime::wake_serve_shutdown();
    }

    extern "C" {
        // The previous handler may be SIG_DFL (null), so the return
        // type must not be a (non-nullable) fn pointer.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// No signal handling off unix: the flag never flips, and the daemons
/// run until the process is killed.
#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

fn load_instantiation(chip: &str) -> Result<Instantiation, String> {
    match chip {
        "surface7" => Ok(Instantiation::paper()),
        "two-qubit" => Ok(Instantiation::paper_two_qubit()),
        other => Err(format!(
            "unknown chip `{other}` (expected `surface7` or `two-qubit`)"
        )),
    }
}

/// The `loadgen` subcommand's knobs, parsed alongside the shared
/// flags and rejected on any other subcommand.
struct LoadgenOpts {
    initial_rps: f64,
    rps_step: Option<f64>,
    rps_factor: Option<f64>,
    max_rps: f64,
    rung_secs: f64,
    drain_secs: f64,
    stop_failure_rate: f64,
    stop_p50_ms: f64,
    connections: usize,
    watchers: usize,
    subscribe_ratio: f64,
    scrape: Option<String>,
    json: bool,
    churn: bool,
    churn_secs: f64,
}

impl Default for LoadgenOpts {
    fn default() -> LoadgenOpts {
        LoadgenOpts {
            initial_rps: 4.0,
            rps_step: None,
            rps_factor: None,
            max_rps: 256.0,
            rung_secs: 5.0,
            drain_secs: 10.0,
            stop_failure_rate: 0.4,
            stop_p50_ms: 2000.0,
            connections: 4,
            watchers: 2,
            subscribe_ratio: 0.0,
            scrape: None,
            json: false,
            churn: false,
            churn_secs: 5.0,
        }
    }
}

impl LoadgenOpts {
    /// Sets value-taking loadgen flag `flag` from `value`: `None` when
    /// `flag` is not one, `Some(false)` when `value` is rejected.
    fn set(&mut self, flag: &str, value: &str) -> Option<bool> {
        let positive = |x: &f64| *x > 0.0;
        let fraction = |x: &f64| (0.0..=1.0).contains(x);
        let real = |valid: fn(&f64) -> bool, wants| flag_value(flag, value, valid, wants);
        let set = match flag {
            "--initial-rps" => real(positive, "a positive rate").map(|r| self.initial_rps = r),
            "--rps-step" => {
                real(positive, "a positive rate increment").map(|r| self.rps_step = Some(r))
            }
            "--rps-factor" => real(|f| *f > 1.0, "a factor > 1").map(|f| self.rps_factor = Some(f)),
            "--max-rps" => real(positive, "a positive rate").map(|r| self.max_rps = r),
            "--rung-secs" => real(positive, "a positive duration").map(|s| self.rung_secs = s),
            "--drain-secs" => {
                real(|s| *s >= 0.0, "a duration in seconds").map(|s| self.drain_secs = s)
            }
            "--stop-failure-rate" => {
                real(fraction, "a fraction in 0..=1").map(|x| self.stop_failure_rate = x)
            }
            "--stop-p50-ms" => {
                real(positive, "a positive duration in ms").map(|x| self.stop_p50_ms = x)
            }
            "--connections" => flag_value(flag, value, |n: &usize| *n > 0, "a positive count")
                .map(|n| self.connections = n),
            "--watchers" => {
                flag_value(flag, value, |_| true, "a connection count").map(|n| self.watchers = n)
            }
            "--subscribe-ratio" => {
                real(fraction, "a fraction in 0..=1").map(|x| self.subscribe_ratio = x)
            }
            "--scrape" => {
                self.scrape = Some(value.to_owned());
                Some(())
            }
            "--churn-secs" => real(positive, "a positive duration").map(|s| self.churn_secs = s),
            _ => return None,
        };
        Some(set.is_some())
    }
}

/// Parses flag `flag`'s `value`, keeping it only when `valid` holds.
/// Numeric flags fail closed: any other value prints
/// `error: <flag> wants <wants>` and yields `None`, so a typo in a
/// limit or a ceiling refuses to start instead of running with the
/// default.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    valid: impl FnOnce(&T) -> bool,
    wants: &str,
) -> Option<T> {
    let parsed = value.parse().ok().filter(valid);
    if parsed.is_none() {
        eprintln!("error: {flag} wants {wants}");
    }
    parsed
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: eqasm-cli <asm|disasm|run|lift> <file> [--seed n] [--shots n] [--workers n] [--chip name] [--trace]\n       eqasm-cli <workload|serve> <rabi|allxy|rb|active-reset|mix> [--shots n] [--workers n] [--seed n] [--remote host:port,...] [--rediscover secs] [--registry file] [--psk-file f] [--metrics addr] [--journal dir] [--journal-fsync every|batch|off]\n       eqasm-cli serve --listen <addr> [--workers n] [--remote ...] [--rediscover secs] [--registry file] [--psk-file f] [--metrics addr] [--journal dir] [--journal-fsync every|batch|off]\n       eqasm-cli submit <rabi|allxy|rb|active-reset|mix> --connect <addr> [--shots n] [--seed n] [--verify-serial] [--psk-file f]\n       eqasm-cli status --connect <addr> --job <id> [--job <id> ...] [--psk-file f]\n       eqasm-cli loadgen [rabi|allxy|rb|active-reset|stabilizer|mix] --connect <addr> [--scrape addr] [--initial-rps r] [--rps-factor f | --rps-step r] [--max-rps r] [--rung-secs s] [--drain-secs s] [--stop-failure-rate x] [--stop-p50-ms ms] [--connections n] [--watchers n] [--subscribe-ratio x] [--shots n] [--seed n] [--json] [--churn] [--churn-secs s] [--psk-file f]\n       eqasm-cli watch --connect <addr> --job <id> [--resume-after batches] [--psk-file f]\n       eqasm-cli worker --listen <addr> [--capacity n] [--name s] [--psk-file f] [--job-cache n] [--max-frame bytes] [--rate-limit req/s] [--metrics addr]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let command = args[0].as_str();

    // The execution-path switches, read once here: the library reads
    // no environment.
    let policy = match ExecPolicy::parse(
        std::env::var("EQASM_EXEC_PATH").ok().as_deref(),
        std::env::var("EQASM_PREFIX").ok().as_deref(),
    ) {
        Ok(policy) => policy,
        Err(e) => {
            eprintln!("error: EQASM_EXEC_PATH / EQASM_PREFIX: {e}");
            return ExitCode::FAILURE;
        }
    };

    // `worker`, `status` and `watch` take only flags; `serve` may run
    // spec-less as a pure network service (`serve --listen`), and
    // `loadgen`'s spec is optional (defaulting to `mix`).
    let flag_start = match command {
        "worker" | "status" | "watch" => 1,
        "serve" | "loadgen" if args.len() > 1 && args[1].starts_with("--") => 1,
        _ => 2,
    };
    if args.len() < flag_start {
        return usage();
    }
    let target = if flag_start == 1 {
        ""
    } else {
        args[1].as_str()
    };

    let mut seed = 0u64;
    let mut shots: Option<u64> = None;
    let mut workers = 0usize;
    let mut chip = "surface7".to_owned();
    let mut trace = false;
    let mut listen: Option<String> = None;
    let mut capacity: Option<usize> = None;
    let mut name: Option<String> = None;
    let mut remotes: Vec<String> = Vec::new();
    let mut rediscover: Option<f64> = None;
    let mut registry: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut psk_file: Option<String> = None;
    let mut job_ids: Vec<u64> = Vec::new();
    let mut verify_serial = false;
    let mut resume_after: Option<u64> = None;
    let mut job_cache: Option<usize> = None;
    let mut max_frame: Option<u32> = None;
    let mut rate_limit: Option<u32> = None;
    let mut metrics_addr: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let mut journal_fsync: Option<FsyncPolicy> = None;
    let mut lg = LoadgenOpts::default();
    // Flags that only mean something to `loadgen`; accepting them
    // elsewhere would silently do nothing.
    let mut loadgen_flags: Vec<&str> = Vec::new();
    let mut i = flag_start;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(0);
                i += 2;
            }
            "--shots" if i + 1 < args.len() => {
                shots = args[i + 1].parse().ok();
                i += 2;
            }
            "--workers" if i + 1 < args.len() => {
                workers = args[i + 1].parse().unwrap_or(0);
                i += 2;
            }
            "--chip" if i + 1 < args.len() => {
                chip = args[i + 1].clone();
                i += 2;
            }
            "--trace" => {
                trace = true;
                i += 1;
            }
            "--listen" if i + 1 < args.len() => {
                listen = Some(args[i + 1].clone());
                i += 2;
            }
            "--capacity" if i + 1 < args.len() => {
                capacity = args[i + 1].parse().ok();
                i += 2;
            }
            "--name" if i + 1 < args.len() => {
                name = Some(args[i + 1].clone());
                i += 2;
            }
            "--remote" if i + 1 < args.len() => {
                remotes.extend(
                    args[i + 1]
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned),
                );
                i += 2;
            }
            "--rediscover" if i + 1 < args.len() => {
                let wants = "a positive interval in seconds";
                rediscover = flag_value("--rediscover", &args[i + 1], |s: &f64| *s > 0.0, wants);
                if rediscover.is_none() {
                    return usage();
                }
                i += 2;
            }
            "--registry" if i + 1 < args.len() => {
                registry = Some(args[i + 1].clone());
                i += 2;
            }
            "--connect" if i + 1 < args.len() => {
                connect = Some(args[i + 1].clone());
                i += 2;
            }
            "--psk-file" if i + 1 < args.len() => {
                psk_file = Some(args[i + 1].clone());
                i += 2;
            }
            "--job" if i + 1 < args.len() => {
                let Some(id) = flag_value("--job", &args[i + 1], |_| true, "a numeric job id")
                else {
                    return usage();
                };
                job_ids.push(id);
                i += 2;
            }
            "--verify-serial" => {
                verify_serial = true;
                i += 1;
            }
            "--resume-after" if i + 1 < args.len() => {
                let wants = format!("a folded-batch count, got `{}`", args[i + 1]);
                resume_after = flag_value("--resume-after", &args[i + 1], |_| true, &wants);
                if resume_after.is_none() {
                    return usage();
                }
                i += 2;
            }
            // The budget flags must never fail open: a typo in a
            // security limit silently disabling it is worse than a
            // refusal to start.
            "--job-cache" if i + 1 < args.len() => {
                let wants = format!("a job count, got `{}`", args[i + 1]);
                job_cache = flag_value("--job-cache", &args[i + 1], |_| true, &wants);
                if job_cache.is_none() {
                    return usage();
                }
                i += 2;
            }
            "--max-frame" if i + 1 < args.len() => {
                let wants = format!("a byte count, got `{}`", args[i + 1]);
                max_frame = flag_value("--max-frame", &args[i + 1], |_| true, &wants);
                if max_frame.is_none() {
                    return usage();
                }
                i += 2;
            }
            "--metrics" if i + 1 < args.len() => {
                metrics_addr = Some(args[i + 1].clone());
                i += 2;
            }
            "--journal" if i + 1 < args.len() => {
                journal_dir = Some(args[i + 1].clone());
                i += 2;
            }
            // Like the budget flags: a typo in a durability setting
            // must refuse to start, not silently fall back.
            "--journal-fsync" if i + 1 < args.len() => {
                match FsyncPolicy::parse(&args[i + 1]) {
                    Some(policy) => journal_fsync = Some(policy),
                    None => {
                        eprintln!(
                            "error: --journal-fsync wants every|batch|off, got `{}`",
                            args[i + 1]
                        );
                        return usage();
                    }
                }
                i += 2;
            }
            "--rate-limit" if i + 1 < args.len() => {
                let wants = format!("requests/sec, got `{}`", args[i + 1]);
                rate_limit = flag_value("--rate-limit", &args[i + 1], |_| true, &wants);
                if rate_limit.is_none() {
                    return usage();
                }
                i += 2;
            }
            "--json" => {
                lg.json = true;
                loadgen_flags.push("--json");
                i += 1;
            }
            "--churn" => {
                lg.churn = true;
                loadgen_flags.push("--churn");
                i += 1;
            }
            other => match args.get(i + 1).and_then(|value| lg.set(other, value)) {
                Some(true) => {
                    loadgen_flags.push(other);
                    i += 2;
                }
                Some(false) => return usage(),
                None => {
                    eprintln!("unknown option `{other}`");
                    return usage();
                }
            },
        }
    }

    // One parse of the optional PSK file, shared by every networked
    // subcommand.
    let psk = match psk_file.as_deref().map(Psk::from_file) {
        None => None,
        Some(Ok(psk)) => Some(psk),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if command != "loadgen" && !loadgen_flags.is_empty() {
        eprintln!(
            "error: {} applies to `loadgen` only",
            loadgen_flags.join(", ")
        );
        return usage();
    }

    // The journal is a property of the coordinator; accepting the flags
    // anywhere else would silently do nothing.
    if journal_dir.is_some() && command != "serve" {
        eprintln!("error: --journal applies to `serve` only");
        return usage();
    }
    if journal_fsync.is_some() && journal_dir.is_none() {
        eprintln!("error: --journal-fsync requires --journal <dir>");
        return usage();
    }
    let journal_config = journal_dir.map(|dir| {
        let mut jc = JournalConfig::new(dir);
        if let Some(policy) = journal_fsync {
            jc = jc.with_fsync(policy);
        }
        jc
    });

    if command == "worker" {
        let Some(addr) = listen else {
            eprintln!("error: worker requires --listen <addr>");
            return usage();
        };
        return match cmd_worker(
            &addr,
            capacity,
            name,
            psk,
            job_cache,
            max_frame,
            rate_limit,
            metrics_addr.as_deref(),
            policy,
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if command == "loadgen" {
        let Some(addr) = connect else {
            eprintln!("error: loadgen requires --connect <addr>");
            return usage();
        };
        let spec = if target.is_empty() { "mix" } else { target };
        return match cmd_loadgen(spec, &addr, shots.unwrap_or(200), seed, psk, &lg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if matches!(command, "submit" | "status" | "watch") {
        let Some(addr) = connect else {
            eprintln!("error: {command} requires --connect <addr>");
            return usage();
        };
        let result = match command {
            "submit" => cmd_submit(
                target,
                &addr,
                shots.unwrap_or(400),
                seed,
                psk,
                verify_serial,
            ),
            "status" => cmd_status(&addr, &job_ids, psk),
            _ => cmd_watch(&addr, &job_ids, resume_after, psk),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if command == "workload" || command == "serve" {
        let result = if command == "workload" {
            cmd_workload(target, shots.unwrap_or(400), workers, seed, policy)
        } else if let Some(listen_addr) = listen {
            if !target.is_empty() {
                eprintln!(
                    "error: `serve --listen` runs as a pure network service; drive it with \
                     `eqasm-cli submit <spec> --connect <addr>` instead of a local spec"
                );
                return usage();
            }
            cmd_serve_listen(
                &listen_addr,
                workers,
                &remotes,
                rediscover,
                registry,
                psk,
                max_frame,
                rate_limit,
                metrics_addr.as_deref(),
                journal_config,
                policy,
            )
        } else {
            cmd_serve(
                target,
                shots.unwrap_or(400),
                workers,
                seed,
                &remotes,
                rediscover,
                registry,
                psk,
                metrics_addr.as_deref(),
                journal_config,
                policy,
            )
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let inst = match load_instantiation(&chip) {
        Ok(inst) => inst,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(target) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {target}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match command {
        "asm" => cmd_asm(&text, &inst),
        "disasm" => cmd_disasm(&text, &inst),
        "run" => cmd_run(
            &text,
            &inst,
            seed,
            shots.unwrap_or(1),
            workers,
            trace,
            policy,
        ),
        "lift" => cmd_lift(&text, &inst),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_asm(text: &str, inst: &Instantiation) -> Result<(), String> {
    let program = assemble(text, inst).map_err(|e| e.to_string())?;
    let words =
        encoding::encode_program(program.instructions(), inst).map_err(|e| e.to_string())?;
    for w in words {
        println!("{w:08x}");
    }
    Ok(())
}

fn cmd_disasm(text: &str, inst: &Instantiation) -> Result<(), String> {
    let mut words = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let clean = line.trim().trim_start_matches("0x");
        if clean.is_empty() || clean.starts_with('#') {
            continue;
        }
        let w = u32::from_str_radix(clean, 16)
            .map_err(|e| format!("line {}: bad hex word `{clean}`: {e}", line_no + 1))?;
        words.push(w);
    }
    let out = disassemble_source(&words, inst).map_err(|e| e.to_string())?;
    print!("{out}");
    Ok(())
}

fn cmd_run(
    text: &str,
    inst: &Instantiation,
    seed: u64,
    shots: u64,
    workers: usize,
    trace: bool,
    policy: ExecPolicy,
) -> Result<(), String> {
    let program = assemble(text, inst).map_err(|e| e.to_string())?;

    if trace {
        // The trace of shot 0, reproduced on a local machine — the
        // engine disables trace recording on its workers.
        let mut machine = QuMa::new(inst.clone(), SimConfig::default().with_seed(seed));
        machine
            .load(program.instructions())
            .map_err(|e| e.to_string())?;
        machine.run_shot(seed);
        println!("# trace (shot 0):");
        for (cc, q, name) in machine.trace().executed_ops() {
            println!("#   cc {cc:>8}  {q}  {name}");
        }
    }

    let job = Job::new("cli-run", inst.clone(), program.instructions().to_vec())
        .with_config(SimConfig::default().with_seed(seed))
        .with_shots(shots)
        .with_seed(seed);
    let engine = ShotEngine::new(workers).with_policy(policy);
    let result = engine.run_job(&job).map_err(|e| e.to_string())?;

    if let Some((shot, status)) = &result.first_failure {
        return Err(format!(
            "{} of {} shots did not halt (first: shot {shot}: {status})",
            result.non_halted, result.shots
        ));
    }

    let per_shot = |v: u64| v / shots.max(1);
    println!(
        "halted after {} classical cycles/shot ({} instructions, {} bundles, {} measurements/shot)",
        per_shot(result.stats.classical_cycles),
        per_shot(result.stats.total_instructions()),
        per_shot(result.stats.bundle_words),
        per_shot(result.stats.measurements)
    );
    println!(
        "{} shots on {} workers in {:.1} ms ({:.0} shots/s; latency p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs)",
        result.shots,
        engine.workers(),
        result.elapsed.as_secs_f64() * 1e3,
        result.shots_per_sec,
        result.latency.stats().p50_ns as f64 / 1e3,
        result.latency.stats().p95_ns as f64 / 1e3,
        result.latency.stats().p99_ns as f64 / 1e3,
    );
    for q in 0..inst.topology().num_qubits() {
        // Count from the histogram: a qubit whose measurement is
        // conditional may be measured in only a subset of shots, so
        // the denominator is measured shots, not total shots.
        let (mut ones, mut measured) = (0u64, 0u64);
        for (outcome, &count) in result.histogram.iter() {
            if let Some(v) = outcome.get(q) {
                measured += count;
                if v {
                    ones += count;
                }
            }
        }
        if measured > 0 {
            println!(
                "q{q}: P(1) = {:.4}  ({ones} / {measured} measured shots)",
                ones as f64 / measured as f64
            );
        }
    }
    if result.histogram.len() > 1 {
        println!("outcomes:");
        for (outcome, count) in result.histogram.iter() {
            println!(
                "  {outcome}  {count:>8}  ({:.2}%)",
                *count as f64 * 100.0 / shots.max(1) as f64
            );
        }
    }
    if result.stats.timeline_slips > 0 {
        println!(
            "warning: {} timeline slips (issue rate exceeded)",
            result.stats.timeline_slips
        );
    }
    Ok(())
}

/// Builds the named built-in workload list: one weighted spec per
/// traffic class, shared by the `workload` (synchronous mix) and
/// `serve` (job queue) subcommands.
fn built_in_specs(spec: &str, shots: u64, seed: u64) -> Result<Vec<WorkloadSpec>, String> {
    let rabi = || {
        let amplitudes: Vec<f64> = (0..8).map(|i| i as f64 / 4.0).collect();
        WorkloadSpec::new(
            "rabi",
            WorkloadKind::Rabi {
                amplitudes,
                amplitude_index: 2,
            },
            shots,
        )
    };
    let allxy = || {
        WorkloadSpec::new(
            "allxy",
            WorkloadKind::AllXy {
                round: 21,
                init_cycles: 100,
            },
            shots,
        )
    };
    let rb = || {
        WorkloadSpec::new(
            "rb",
            WorkloadKind::Rb {
                k: 48,
                interval_cycles: 1,
                sequence_seed: seed ^ 0x5eed,
            },
            shots,
        )
    };
    let reset = || {
        WorkloadSpec::new(
            "active-reset",
            WorkloadKind::ActiveReset { init_cycles: 100 },
            shots,
        )
    };
    // Clifford-only brick-wall chains above the 10-qubit dense
    // ceiling: program-aware selection routes them to the stabilizer
    // backend — the scale regime no dense backend reaches. The mix
    // carries a 12-qubit chain (just past the ceiling, cheap even
    // when CI forces the dense path); the standalone spec goes wider.
    let stabilizer = |qubits: usize| {
        WorkloadSpec::new(
            "stabilizer",
            WorkloadKind::CliffordChain { qubits, layers: 2 },
            shots,
        )
    };

    match spec {
        "rabi" => Ok(vec![rabi().with_seed(seed)]),
        "allxy" => Ok(vec![allxy().with_seed(seed)]),
        "rb" => Ok(vec![rb().with_seed(seed)]),
        "active-reset" => Ok(vec![reset().with_seed(seed)]),
        "stabilizer" => Ok(vec![stabilizer(16).with_seed(seed)]),
        "mix" => Ok(vec![
            rb().with_seed(seed).with_weight(4),
            allxy().with_seed(seed ^ 1).with_weight(2),
            reset().with_seed(seed ^ 2).with_weight(2),
            rabi().with_seed(seed ^ 3),
            stabilizer(12).with_seed(seed ^ 4),
        ]),
        other => Err(format!(
            "unknown workload `{other}` (expected rabi|allxy|rb|active-reset|stabilizer|mix)"
        )),
    }
}

/// Builds the named workload mix and drives it on the shot engine.
fn cmd_workload(
    spec: &str,
    shots: u64,
    workers: usize,
    seed: u64,
    policy: ExecPolicy,
) -> Result<(), String> {
    let mut mix = MixedWorkload::new();
    for s in built_in_specs(spec, shots, seed)? {
        mix = mix.push(s);
    }

    let engine = ShotEngine::new(workers).with_policy(policy);
    let report = mix.run(&engine).map_err(|e| e.to_string())?;
    println!(
        "workload `{spec}`: {} jobs, {} shots on {} workers",
        report.aggregate.jobs,
        report.aggregate.shots,
        engine.workers()
    );
    println!(
        "{:>14} {:>6} {:>9} {:>11} {:>10} {:>10} {:>10} {:>8}",
        "workload", "jobs", "shots", "shots/s", "p50 µs", "p95 µs", "p99 µs", "slips"
    );
    for w in report.per_workload.iter().chain([&report.aggregate]) {
        print_workload_row(w);
    }
    Ok(())
}

fn print_workload_row(w: &WorkloadReport) {
    println!(
        "{:>14} {:>6} {:>9} {:>11.0} {:>10.1} {:>10.1} {:>10.1} {:>8}",
        w.name,
        w.jobs,
        w.shots,
        w.shots_per_sec,
        w.latency.stats().p50_ns as f64 / 1e3,
        w.latency.stats().p95_ns as f64 / 1e3,
        w.latency.stats().p99_ns as f64 / 1e3,
        w.stats.timeline_slips,
    );
}

/// Spawns the Prometheus `/metrics` listener when `--metrics` was
/// given. The returned handle must stay alive for the command's
/// lifetime — dropping it stops the endpoint.
fn spawn_metrics(addr: Option<&str>) -> Result<Option<eqasm::runtime::MetricsServer>, String> {
    let Some(addr) = addr else {
        return Ok(None);
    };
    let server =
        eqasm::runtime::MetricsServer::spawn(addr, eqasm::runtime::metrics::default_registry())
            .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    println!("metrics: http://{}/metrics", server.local_addr());
    Ok(Some(server))
}

/// Runs the long-lived remote shot worker: binds `addr`, prints one
/// status line and serves coordinators until killed.
#[allow(clippy::too_many_arguments)]
fn cmd_worker(
    addr: &str,
    capacity: Option<usize>,
    name: Option<String>,
    psk: Option<Psk>,
    job_cache: Option<usize>,
    max_frame: Option<u32>,
    rate_limit: Option<u32>,
    metrics_addr: Option<&str>,
    policy: ExecPolicy,
) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let _metrics = spawn_metrics(metrics_addr)?;
    let mut config = WorkerConfig::default().with_policy(policy);
    if let Some(capacity) = capacity {
        config = config.with_capacity(capacity);
    }
    if let Some(name) = name {
        config = config.with_name(name);
    }
    let authed = psk.is_some();
    if let Some(psk) = psk {
        config = config.with_psk(psk);
    }
    if let Some(n) = job_cache {
        config = config.with_job_cache_capacity(n);
    }
    if let Some(n) = max_frame {
        config = config.with_max_frame_len(n);
    }
    config = config.with_max_requests_per_sec(rate_limit);
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_owned());
    println!(
        "eqasm worker `{}` listening on {bound} ({} slots, wire protocol v{}{}, job cache {})",
        config.name,
        config.capacity,
        eqasm::runtime::wire::PROTOCOL_VERSION,
        if authed { ", PSK auth" } else { "" },
        config.job_cache_capacity,
    );
    // SIGINT/SIGTERM drain instead of kill: in-flight batches finish
    // and reach their coordinators, then the daemon exits.
    signals::install();
    let severed = eqasm::runtime::run_worker_until(listener, config, &signals::SHUTDOWN)
        .map_err(|e| e.to_string())?;
    if severed == 0 {
        println!("eqasm worker drained cleanly; exiting");
    } else {
        println!(
            "eqasm worker drain timed out; severed {severed} connection(s) still mid-batch; exiting"
        );
    }
    Ok(())
}

/// Builds the serve backend pool: `workers` local slots plus every
/// advertised slot of each `--remote` worker, under `connect_opts`
/// (request deadline, key). With `tolerate_down` (a supervisor is
/// running), a worker that is unreachable at startup is only a
/// warning — the supervisor attaches it when it appears.
fn build_backend_pool(
    workers: usize,
    remotes: &[String],
    connect_opts: &ConnectOptions,
    tolerate_down: bool,
    policy: ExecPolicy,
) -> Result<Vec<Box<dyn ExecBackend>>, String> {
    let local = if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    };
    let mut backends: Vec<Box<dyn ExecBackend>> = (0..local)
        .map(|i| Box::new(LocalBackend::new(i).with_policy(policy)) as Box<dyn ExecBackend>)
        .collect();
    for addr in remotes {
        match RemoteBackend::connect_pool_opts(addr.clone(), connect_opts.clone()) {
            Ok(pool) => {
                for backend in pool {
                    backends.push(Box::new(backend));
                }
            }
            Err(e) if tolerate_down => {
                eprintln!("warning: worker {addr} is down ({e}); the supervisor will keep probing")
            }
            Err(e) => return Err(format!("cannot attach remote worker {addr}: {e}")),
        }
    }
    Ok(backends)
}

/// Builds the serve queue (local workers, remote pool, optional
/// supervisor) shared by local `serve <spec>` runs and the
/// `serve --listen` network service.
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)]
fn build_serve_queue(
    workers: usize,
    remotes: &[String],
    rediscover: Option<f64>,
    registry: Option<&str>,
    psk: Option<Psk>,
    supervised: bool,
    journal: Option<JournalConfig>,
    policy: ExecPolicy,
) -> Result<(std::sync::Arc<JobQueue>, Option<PoolSupervisor>), String> {
    let serve_config = ServeConfig::default().with_policy(policy);
    let connect_opts = client_opts(psk);
    let queue = if let Some(jc) = journal {
        // Recovery needs the explicit-backend constructor, so build a
        // local pool by hand when no remotes are configured.
        let backends = if remotes.is_empty() && !supervised {
            let n = if workers == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                workers
            };
            (0..n)
                .map(|i| Box::new(LocalBackend::new(i).with_policy(policy)) as Box<dyn ExecBackend>)
                .collect()
        } else {
            let backends = build_backend_pool(workers, remotes, &connect_opts, supervised, policy)?;
            for backend in &backends {
                println!("backend: {}", backend.descriptor());
            }
            backends
        };
        let (queue, report) = JobQueue::recover(
            serve_config.clone().with_hold_when_empty(supervised),
            backends,
            &jc,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "journal: {} ({} fsync), replayed {} record(s) across {} segment(s): \
             {} job(s) / {} range(s) recovered, {} completed job(s) dropped{}",
            jc.dir.display(),
            jc.fsync,
            report.records_replayed,
            report.segments_replayed,
            report.jobs_recovered,
            report.ranges_recovered,
            report.jobs_dropped,
            if report.torn_tail {
                "; torn tail truncated"
            } else {
                ""
            },
        );
        // When stdout is a pipe or file (the crash-recovery CI step
        // greps this line while the coordinator is still serving),
        // block buffering would hold the report back until exit.
        let _ = std::io::Write::flush(&mut std::io::stdout());
        queue
    } else if remotes.is_empty() && !supervised {
        JobQueue::new(serve_config.clone().with_workers(workers))
    } else {
        let backends = build_backend_pool(workers, remotes, &connect_opts, supervised, policy)?;
        for backend in &backends {
            println!("backend: {}", backend.descriptor());
        }
        // Under a supervisor, an empty-pool window parks jobs (capacity
        // is expected back) instead of failing them.
        JobQueue::with_backends(
            serve_config.clone().with_hold_when_empty(supervised),
            backends,
        )
    };
    let queue = std::sync::Arc::new(queue);
    let supervisor = rediscover.map(|secs| {
        let mut config = SupervisorConfig::default()
            .with_probe_interval(std::time::Duration::from_secs_f64(secs))
            .with_connect(connect_opts.clone());
        if let Some(path) = registry {
            config = config.with_registry(path);
        }
        println!(
            "pool supervisor: probing {} address(es) every {secs}s{}",
            remotes.len(),
            registry
                .map(|r| format!(" + registry {r}"))
                .unwrap_or_default()
        );
        PoolSupervisor::spawn(std::sync::Arc::clone(&queue), remotes.to_vec(), config)
    });
    Ok((queue, supervisor))
}

/// Runs the job queue as a pure network service: binds `addr`, serves
/// remote `eqasm-cli submit/status/watch --connect` clients over the
/// wire protocol, and drains cleanly on SIGINT/SIGTERM.
#[allow(clippy::too_many_arguments)]
fn cmd_serve_listen(
    addr: &str,
    workers: usize,
    remotes: &[String],
    rediscover: Option<f64>,
    registry: Option<String>,
    psk: Option<Psk>,
    max_frame: Option<u32>,
    rate_limit: Option<u32>,
    metrics_addr: Option<&str>,
    journal: Option<JournalConfig>,
    policy: ExecPolicy,
) -> Result<(), String> {
    let supervised = rediscover.is_some();
    if supervised && remotes.is_empty() && registry.is_none() {
        return Err("--rediscover needs --remote addresses and/or a --registry file".to_owned());
    }
    if registry.is_some() && !supervised {
        return Err("--registry only takes effect with --rediscover <secs>".to_owned());
    }
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let _metrics = spawn_metrics(metrics_addr)?;
    let (queue, supervisor) = build_serve_queue(
        workers,
        remotes,
        rediscover,
        registry.as_deref(),
        psk.clone(),
        supervised,
        journal,
        policy,
    )?;
    let mut net_config = ServeNetConfig::default();
    let authed = psk.is_some();
    if let Some(psk) = psk {
        net_config = net_config.with_psk(psk);
    }
    if let Some(n) = max_frame {
        net_config = net_config.with_max_frame_len(n);
    }
    net_config = net_config.with_max_requests_per_sec(rate_limit);
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_owned());
    println!(
        "eqasm serve listening on {bound} ({} execution slot(s), wire protocol v{}{})",
        queue.workers(),
        eqasm::runtime::wire::PROTOCOL_VERSION,
        if authed { ", PSK auth" } else { "" },
    );
    signals::install();
    eqasm::runtime::run_serve_until(
        listener,
        std::sync::Arc::clone(&queue),
        net_config,
        &signals::SHUTDOWN,
    )
    .map_err(|e| e.to_string())?;
    drop(supervisor);
    queue.shutdown();
    println!("eqasm serve drained cleanly; exiting");
    Ok(())
}

/// Client-side connect options for `submit`/`status`/`watch`, remote
/// workers and the pool supervisor.
fn client_opts(psk: Option<Psk>) -> ConnectOptions {
    let mut opts = ConnectOptions::default();
    if let Some(psk) = psk {
        opts = opts.with_psk(psk);
    }
    opts
}

/// Drives a running coordinator from the open-loop load generator:
/// either a capacity sweep (step the target submission rate per rung
/// until a failure-rate or p50-latency ceiling is breached, printing
/// the per-rung table and optionally the `capacity` JSON object) or,
/// with `--churn`, a subscriber-churn sweep that cycles
/// connect/subscribe/resume/disconnect watchers and verifies resume
/// correctness.
fn cmd_loadgen(
    spec: &str,
    addr: &str,
    shots: u64,
    seed: u64,
    psk: Option<Psk>,
    lg: &LoadgenOpts,
) -> Result<(), String> {
    use std::time::Duration;

    if lg.rps_step.is_some() && lg.rps_factor.is_some() {
        return Err("--rps-step and --rps-factor are mutually exclusive".into());
    }
    let mut target = SweepTarget::new(addr).with_options(client_opts(psk));
    if let Some(scrape) = &lg.scrape {
        target = target.with_metrics(scrape.clone());
    } else {
        println!(
            "note: no --scrape <addr> given; rung reports carry client-side figures only \
             (no queue depth, rejection or shots-completed truth from the coordinator)"
        );
    }

    if lg.churn {
        // Churn wants one long-running job to subscribe against; the
        // first class of the named mix provides its shape, the sweep
        // resubmits it whenever it completes.
        let template = built_in_specs(spec, shots, seed)?.swap_remove(0);
        let config = ChurnConfig {
            workers: lg.connections,
            duration: Duration::from_secs_f64(lg.churn_secs),
            ..ChurnConfig::default()
        };
        println!(
            "churn sweep against {addr}: {} workers for {:.1}s (job template `{}`)",
            config.workers, lg.churn_secs, template.name
        );
        let report = churn_sweep(&template, &target, &config).map_err(|e| e.to_string())?;
        println!(
            "cycles: {} ({:.1}/s), resumed: {}, snapshots: {}, jobs driven: {}",
            report.cycles,
            report.cycles_per_sec,
            report.resumed_cycles,
            report.snapshots,
            report.jobs_driven
        );
        if let Some(w) = report.reactor_wakeups_per_sec {
            println!("reactor wakeups/sec: {w:.0}");
        }
        if let Some(r) = report.server_resumes {
            println!("server-side subscription resumes: {r}");
        }
        if report.resume_violations > 0 {
            return Err(format!(
                "{} resume violation(s): a resumed subscription delivered a snapshot older \
                 than its resume point (or a stream went backwards)",
                report.resume_violations
            ));
        }
        println!("resume correctness: OK (0 violations)");
        return Ok(());
    }

    let classes: Vec<LoadClass> = built_in_specs(spec, shots, seed)?
        .into_iter()
        .map(|s| LoadClass {
            tenant: s.name.clone(),
            share: s.weight.max(1),
            spec: s,
        })
        .collect();
    let load = LoadSpec::new(classes)
        .with_connections(lg.connections)
        .with_watchers(lg.watchers)
        .with_subscribe_ratio(lg.subscribe_ratio)
        .with_seed(seed);
    let step = match (lg.rps_step, lg.rps_factor) {
        (Some(inc), None) => RpsStep::Add(inc),
        (None, Some(f)) => RpsStep::Mul(f),
        _ => RpsStep::Mul(2.0),
    };
    let config = SweepConfig {
        initial_rps: lg.initial_rps,
        step,
        max_rps: lg.max_rps,
        window: Duration::from_secs_f64(lg.rung_secs),
        drain_timeout: Duration::from_secs_f64(lg.drain_secs),
        stop: Ceilings {
            failure_rate: lg.stop_failure_rate,
            p50: Duration::from_secs_f64(lg.stop_p50_ms / 1e3),
        },
        ..SweepConfig::default()
    };
    println!(
        "capacity sweep of `{spec}` against {addr}: {:.1} rps, {} per rung, \
         {:.1}s rungs, stop at failure >= {:.0}% or p50 >= {:.0} ms",
        config.initial_rps,
        match step {
            RpsStep::Add(inc) => format!("+{inc:.1}"),
            RpsStep::Mul(f) => format!("x{f:.1}"),
        },
        lg.rung_secs,
        lg.stop_failure_rate * 100.0,
        lg.stop_p50_ms
    );
    let report = capacity_sweep(&load, &target, &config).map_err(|e| e.to_string())?;
    print!("{}", report.table());
    if lg.json {
        println!("{}", report.to_json(""));
    }
    Ok(())
}

/// Submits the named workload mix to a remote serve coordinator,
/// streams every job's partial results, prints the final table, and
/// (with `--verify-serial`) re-runs each job locally on a serial
/// engine requiring bit-identical aggregates — the end-to-end proof
/// that the networked service computes exactly what the library does.
fn cmd_submit(
    spec: &str,
    addr: &str,
    shots: u64,
    seed: u64,
    psk: Option<Psk>,
    verify_serial: bool,
) -> Result<(), String> {
    let specs = built_in_specs(spec, shots, seed)?;
    let client = Client::connect_opts(addr, client_opts(psk)).map_err(|e| e.to_string())?;
    println!(
        "connected to `{}` at {addr} (wire v{})",
        client.server_name(),
        eqasm::runtime::wire::PROTOCOL_VERSION
    );

    let started = std::time::Instant::now();
    let mut submitted: Vec<(WorkloadSpec, Vec<eqasm::runtime::RemoteJobHandle>)> = Vec::new();
    for s in &specs {
        let handles = client
            .submit(Submission::workload(s.name.as_str(), s.clone()))
            .map_err(|e| e.to_string())?;
        let ids: Vec<String> = handles.iter().map(|h| h.job_id().to_string()).collect();
        println!(
            "submitted `{}`: {} job(s), {} shots each (job ids {})",
            s.name,
            handles.len(),
            s.shots,
            ids.join(", ")
        );
        submitted.push((s.clone(), handles));
    }

    // Stream each job to completion. Submissions already run
    // concurrently server-side; watching them in order just decides
    // which stream prints first.
    let mut results: Vec<(WorkloadSpec, u32, eqasm::runtime::JobResult)> = Vec::new();
    for (s, handles) in &submitted {
        for (instance, handle) in handles.iter().enumerate() {
            let result = handle
                .watch(|snap| {
                    println!(
                        "[{:7.3}s] {:>16} {:>8}/{} shots ({:3.0}%)",
                        started.elapsed().as_secs_f64(),
                        snap.name,
                        snap.shots_done,
                        snap.shots_total,
                        snap.progress() * 100.0,
                    );
                })
                .map_err(|e| format!("job {} failed: {e}", handle.job_id()))?;
            results.push((s.clone(), instance as u32, result));
        }
    }

    println!(
        "{:>16} {:>8} {:>11} {:>10} {:>10}",
        "job", "shots", "shots/s", "p50 µs", "p99 µs"
    );
    for (_, _, r) in &results {
        println!(
            "{:>16} {:>8} {:>11.0} {:>10.1} {:>10.1}",
            r.name,
            r.shots,
            r.shots_per_sec,
            r.latency.stats().p50_ns as f64 / 1e3,
            r.latency.stats().p99_ns as f64 / 1e3,
        );
    }

    if verify_serial {
        // The acceptance check: rebuild every job locally (specs are
        // deterministic generators) and require the remote aggregate
        // to be bit-identical to a serial engine run.
        for (s, instance, remote) in &results {
            let job = s.build_instance(*instance).map_err(|e| e.to_string())?;
            let reference = ShotEngine::serial()
                .run_job(&job)
                .map_err(|e| e.to_string())?;
            if remote.histogram != reference.histogram
                || remote.stats != reference.stats
                || remote.mean_prob1 != reference.mean_prob1
            {
                return Err(format!(
                    "job `{}` (instance {instance}) diverged from the serial reference — \
                     the remote aggregate is NOT bit-identical",
                    remote.name
                ));
            }
        }
        println!(
            "verified: {} remote job(s) bit-identical to local serial runs",
            results.len()
        );
    }
    Ok(())
}

/// Prints one snapshot line per requested job id.
fn cmd_status(addr: &str, job_ids: &[u64], psk: Option<Psk>) -> Result<(), String> {
    if job_ids.is_empty() {
        return Err("status requires at least one --job <id>".to_owned());
    }
    let client = Client::connect_opts(addr, client_opts(psk)).map_err(|e| e.to_string())?;
    println!(
        "{:>6} {:>16} {:>12} {:>16} {:>6} {:>8}",
        "job", "name", "tenant", "shots", "done", "failed"
    );
    for &id in job_ids {
        let snap = client.poll_id(id).map_err(|e| e.to_string())?;
        println!(
            "{:>6} {:>16} {:>12} {:>9}/{:<6} {:>6} {:>8}",
            id,
            snap.name,
            snap.tenant,
            snap.shots_done,
            snap.shots_total,
            if snap.done { "yes" } else { "no" },
            snap.failed.as_deref().unwrap_or("-"),
        );
    }
    Ok(())
}

/// Streams the requested jobs to completion, printing every snapshot.
/// `--resume-after <batches>` seeds the stream with a prefix a
/// previous watcher process already folded: the reassembled pair of
/// logs covers every prefix exactly once, and the final line's
/// fingerprint (a stable hash of the encoded result) lets scripts
/// assert bit-identical results across broken and unbroken watches.
fn cmd_watch(
    addr: &str,
    job_ids: &[u64],
    resume_after: Option<u64>,
    psk: Option<Psk>,
) -> Result<(), String> {
    if job_ids.is_empty() {
        return Err("watch requires at least one --job <id>".to_owned());
    }
    let client = Client::connect_opts(addr, client_opts(psk)).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    for &id in job_ids {
        let result = client
            .watch_id_from(id, resume_after, |snap| {
                println!(
                    "[{:7.3}s] job {id} {:>16} {:>8}/{} shots ({:3.0}%) batches {}/{}",
                    started.elapsed().as_secs_f64(),
                    snap.name,
                    snap.shots_done,
                    snap.shots_total,
                    snap.progress() * 100.0,
                    snap.batches_done,
                    snap.batches_total,
                );
            })
            .map_err(|e| e.to_string())?;
        println!(
            "job {id} `{}` done: {} shots, {:.0} shots/s, fingerprint {:#018x}",
            result.name,
            result.shots,
            result.shots_per_sec,
            eqasm::runtime::wire::result_fingerprint(&result),
        );
    }
    Ok(())
}

/// Drives the named workload through the `eqasm-serve` job queue:
/// every spec becomes a tenant whose scheduling weight is its traffic
/// weight, progress lines stream while the pool runs, and the final
/// table reports queue wait vs active time per job. With `--remote`,
/// the pool mixes local slots and remote workers — results are
/// bit-identical to a pure-local run by the batch-fold argument.
#[allow(clippy::too_many_arguments)]
fn cmd_serve(
    spec: &str,
    shots: u64,
    workers: usize,
    seed: u64,
    remotes: &[String],
    rediscover: Option<f64>,
    registry: Option<String>,
    psk: Option<Psk>,
    metrics_addr: Option<&str>,
    journal: Option<JournalConfig>,
    policy: ExecPolicy,
) -> Result<(), String> {
    let specs = built_in_specs(spec, shots, seed)?;
    let _metrics = spawn_metrics(metrics_addr)?;
    let supervised = rediscover.is_some();
    if supervised && remotes.is_empty() && registry.is_none() {
        return Err("--rediscover needs --remote addresses and/or a --registry file".to_owned());
    }
    if registry.is_some() && !supervised {
        // Silently ignoring the roster would leave the operator
        // believing the fleet file is in effect.
        return Err("--registry only takes effect with --rediscover <secs>".to_owned());
    }
    let (queue, supervisor) = build_serve_queue(
        workers,
        remotes,
        rediscover,
        registry.as_deref(),
        psk,
        supervised,
        journal,
        policy,
    )?;

    let started = std::time::Instant::now();
    let mut handles: Vec<JobHandle> = Vec::new();
    for s in &specs {
        queue.register_tenant(s.name.as_str(), s.weight, u64::MAX);
        handles.extend(
            queue
                .submit(Submission::workload(s.name.as_str(), s.clone()))
                .map_err(|e| e.to_string())?,
        );
    }
    let total: u64 = handles.iter().map(|h| h.snapshot().shots_total).sum();
    println!(
        "serve `{spec}`: {} jobs, {total} shots on {} workers",
        handles.len(),
        queue.workers()
    );

    // Streaming progress: one line whenever the folded shot count
    // moves, with per-tenant completion fractions; pool membership
    // changes (supervisor attaches, drains, retirements) get a line of
    // their own.
    let mut last_done = u64::MAX;
    let mut last_pool = queue.workers();
    // Registry trouble used to be invisible unless the operator polled
    // `registry_warning()` programmatically; the progress stream now
    // carries it (and its all-clear) the moment it changes.
    let mut last_warning: Option<String> = None;
    loop {
        let pool = queue.workers();
        if pool != last_pool {
            println!(
                "[{:7.3}s] pool: {last_pool} -> {pool} live slot(s)",
                started.elapsed().as_secs_f64()
            );
            last_pool = pool;
        }
        if let Some(sup) = &supervisor {
            let warning = sup.registry_warning();
            if warning != last_warning {
                match &warning {
                    Some(w) => {
                        println!("[{:7.3}s] supervisor: {w}", started.elapsed().as_secs_f64())
                    }
                    None if last_warning.is_some() => println!(
                        "[{:7.3}s] supervisor: registry readable again",
                        started.elapsed().as_secs_f64()
                    ),
                    None => {}
                }
                last_warning = warning;
            }
        }
        let snaps: Vec<PartialResult> = handles.iter().map(|h| h.snapshot()).collect();
        let done: u64 = snaps.iter().map(|s| s.shots_done).sum();
        if done != last_done {
            last_done = done;
            let mut per_tenant: Vec<(String, u64, u64)> = Vec::new();
            for s in &snaps {
                match per_tenant
                    .iter_mut()
                    .find(|(t, _, _)| *t == s.tenant.as_str())
                {
                    Some((_, d, t)) => {
                        *d += s.shots_done;
                        *t += s.shots_total;
                    }
                    None => per_tenant.push((s.tenant.to_string(), s.shots_done, s.shots_total)),
                }
            }
            let fields: Vec<String> = per_tenant
                .iter()
                .map(|(t, d, tot)| format!("{t} {d}/{tot}"))
                .collect();
            println!(
                "[{:7.3}s] {done:>8}/{total} shots ({:3.0}%)  {}",
                started.elapsed().as_secs_f64(),
                done as f64 * 100.0 / total.max(1) as f64,
                fields.join("  ")
            );
        }
        if snaps.iter().all(|s| s.done) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    println!(
        "{:>16} {:>12} {:>8} {:>11} {:>10} {:>10} {:>10}",
        "job", "tenant", "shots", "shots/s", "p50 µs", "wait ms", "active ms"
    );
    for handle in &handles {
        let snap = handle.snapshot();
        match handle.wait() {
            Ok(r) => println!(
                "{:>16} {:>12} {:>8} {:>11.0} {:>10.1} {:>10.1} {:>10.1}",
                r.name,
                snap.tenant,
                r.shots,
                r.shots_per_sec,
                r.latency.stats().p50_ns as f64 / 1e3,
                snap.queue_wait.as_secs_f64() * 1e3,
                snap.active.as_secs_f64() * 1e3,
            ),
            Err(e) => println!("{:>16} {:>12} failed: {e}", snap.name, snap.tenant),
        }
    }
    let cache = queue.cache_stats();
    println!(
        "spec shapes: {} built, {} reused ({} live)",
        cache.misses, cache.hits, cache.entries
    );
    if !remotes.is_empty() || supervised {
        println!("pool slots (lifetime):");
        for slot in queue.pool_status() {
            println!(
                "  slot {:>3}  {:>8}  {:>6} batches  {}",
                slot.slot_id, slot.state, slot.batches_completed, slot.descriptor
            );
        }
    }
    Ok(())
}

fn cmd_lift(text: &str, inst: &Instantiation) -> Result<(), String> {
    let program = assemble(text, inst).map_err(|e| e.to_string())?;
    let circuit = lift_program(program.instructions(), inst).map_err(|e| e.to_string())?;
    println!("# timing-free circuit ({} gates):", circuit.len());
    for gate in circuit.gates() {
        match &gate.kind {
            eqasm::compiler::GateKind::Single { qubit } => {
                println!("{} q{}", gate.name, qubit.index())
            }
            eqasm::compiler::GateKind::Two { pair } => println!(
                "{} q{} q{}",
                gate.name,
                pair.source().index(),
                pair.target().index()
            ),
            eqasm::compiler::GateKind::Measure { qubit } => {
                println!("MEASZ q{}", qubit.index())
            }
        }
    }
    Ok(())
}

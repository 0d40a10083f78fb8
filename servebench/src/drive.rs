//! The load generator: two threads, one `Client` connection each,
//! driving the workloads. Every job leaves a
//! [`JobRecord`]; the caller decides afterwards which records fall in
//! the measured window.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eqasm_runtime::{wire, Client, PartialResult};

use crate::gen::{self, Builds, JobSpec, Shape, SplitMix64};
use crate::trace::Tracer;

/// Generator threads, one per `Client` connection.
pub const USERS: usize = 2;

/// Jobs each restart-mix user keeps outstanding.
const RESTART_OUTSTANDING: usize = 4;

/// What the generator saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub spec: JobSpec,
    /// Coordinator job id (0 until acknowledged).
    pub id: u64,
    /// The start of its submit call. Latency is measured from here.
    pub due: Instant,
    pub sent: Instant,
    pub first: Option<Instant>,
    pub done: Option<Instant>,
    pub snapshots: u32,
    /// Shots of the final result the client received.
    pub shots_acked: u64,
    pub fingerprint: Option<u64>,
    /// `(queue_wait, active)` from the job's final snapshot.
    pub server_times: Option<(Duration, Duration)>,
    /// A snapshot captured mid-job, for the wire encode/decode probe.
    pub sample: Option<PartialResult>,
    pub error: Option<String>,
    /// Recovered from the journal rather than submitted by this run.
    pub backlog: bool,
}

impl JobRecord {
    pub fn new(spec: JobSpec, due: Instant) -> Self {
        JobRecord {
            spec,
            id: 0,
            due,
            sent: due,
            first: None,
            done: None,
            snapshots: 0,
            shots_acked: 0,
            fingerprint: None,
            server_times: None,
            sample: None,
            error: None,
            backlog: false,
        }
    }

    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }
}

/// State shared by the generator threads.
pub struct Ctx {
    pub shapes: Arc<Vec<Shape>>,
    pub builds: Builds,
    pub seed: u64,
    pub tracer: Option<Arc<Tracer>>,
    /// Set by the main thread when the measured windows are over.
    pub stop: AtomicBool,
    /// Generator threads that have started their steady loop.
    pub live: AtomicUsize,
    /// Generator threads that have finished.
    pub finished: AtomicUsize,
}

impl Ctx {
    fn span_id(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.id())
    }

    fn span(&self, id: u64, parent: u64, name: &'static str, job: &str, start: Instant) {
        if let Some(t) = &self.tracer {
            t.span(id, parent, name, job, start, Instant::now());
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Marks a generator thread finished when dropped, so the main thread
/// sees it even if the thread panics.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn submit_one(ctx: &Ctx, client: &Client, builds: &mut Builds, rec: &mut JobRecord, root: u64) {
    let id = ctx.span_id();
    rec.sent = Instant::now();
    let result = rec
        .spec
        .submission(&ctx.shapes, builds)
        .and_then(|s| client.submit(s));
    ctx.span(id, root, "client.submit", &rec.spec.name, rec.sent);
    match result {
        Ok(handles) => {
            rec.id = handles.first().map_or(0, |h| h.job_id());
        }
        Err(e) => rec.error = Some(format!("submit rejected: {e}")),
    }
}

/// Streams the job's snapshots until its final result and fills in the
/// record.
fn watch(ctx: &Ctx, client: &Client, rec: &mut JobRecord, root: u64) {
    let id = ctx.span_id();
    let start = Instant::now();
    let (mut first, mut count, mut times, mut sample) = (None, 0u32, None, None);
    let result = client.watch_id(rec.id, |snap: &PartialResult| {
        count += 1;
        first.get_or_insert_with(Instant::now);
        if snap.done {
            times = Some((snap.queue_wait, snap.active));
        } else if sample.is_none() && snap.batches_done * 2 >= snap.batches_total {
            sample = Some(snap.clone());
        }
    });
    let end = Instant::now();
    ctx.span(id, root, "client.watch_id", &rec.spec.name, start);
    rec.first = first;
    rec.snapshots = count;
    rec.server_times = times;
    rec.sample = sample;
    match result {
        Ok(res) => {
            rec.done = Some(end);
            rec.shots_acked = res.shots;
            rec.fingerprint = Some(wire::result_fingerprint(&res));
        }
        Err(e) => rec.error = Some(format!("watch failed: {e}")),
    }
}

fn job_span(ctx: &Ctx, root: u64, rec: &JobRecord) {
    ctx.span(root, 0, "client.job", &rec.spec.name, rec.due);
}

/// Watches user `user`'s half of the recovered backlog (`backlog[i]`
/// has coordinator id `i + 1`) to completion, then waits until every
/// user has done so. The backlog fills the acceptor's completed
/// retention, so the first live submit starts evicting the oldest
/// finished jobs; none may be one another user has yet to watch.
fn collect_backlog(ctx: &Ctx, user: usize, client: &Client, backlog: &[JobSpec]) -> Vec<JobRecord> {
    let mut out = Vec::new();
    for (i, spec) in backlog
        .iter()
        .enumerate()
        .filter(|(i, _)| i % USERS == user)
    {
        let mut rec = JobRecord::new(spec.clone(), Instant::now());
        rec.id = i as u64 + 1;
        rec.backlog = true;
        watch(ctx, client, &mut rec, 0);
        out.push(rec);
    }
    ctx.live.fetch_add(1, Ordering::SeqCst);
    while ctx.live.load(Ordering::SeqCst) < USERS && !ctx.stopped() {
        std::thread::sleep(Duration::from_millis(1));
    }
    out
}

/// bulk-watched user `user`: after the backlog, one 250k-shot job at a
/// time, every snapshot watched, next job submitted on completion.
pub fn bulk_user(ctx: &Ctx, user: usize, client: &Client, backlog: &[JobSpec]) -> Vec<JobRecord> {
    let _finished = Finished(&ctx.finished);
    let mut builds = ctx.builds.clone();
    let mut rng = SplitMix64::stream(ctx.seed, 10 + user as u64);
    let mut out = collect_backlog(ctx, user, client, backlog);
    let mut n = 0;
    while !ctx.stopped() {
        let spec = gen::bulk_job(&ctx.shapes, &mut rng, user, n);
        n += 1;
        let root = ctx.span_id();
        let mut rec = JobRecord::new(spec, Instant::now());
        submit_one(ctx, client, &mut builds, &mut rec, root);
        if rec.error.is_none() {
            watch(ctx, client, &mut rec, root);
        }
        job_span(ctx, root, &rec);
        out.push(rec);
    }
    out
}

/// restart-mix user `user`: after the backlog, a closed loop keeping
/// [`RESTART_OUTSTANDING`] jobs in flight, always waiting on its oldest.
pub fn restart_user(
    ctx: &Ctx,
    user: usize,
    client: &Client,
    backlog: &[JobSpec],
) -> Vec<JobRecord> {
    let _finished = Finished(&ctx.finished);
    let mut builds = ctx.builds.clone();
    let mut out = collect_backlog(ctx, user, client, backlog);
    let label = ["u0-", "u1-"][user];
    let mut stream = gen::JobStream::new(
        &ctx.shapes,
        gen::RESTART_SHAPES,
        gen::RESTART_TENANTS,
        ctx.seed,
        30 + user as u64,
        label,
        gen::RESTART_SHOTS,
    );
    let mut outstanding: VecDeque<(JobRecord, u64)> = VecDeque::new();
    loop {
        while !ctx.stopped() && outstanding.len() < RESTART_OUTSTANDING {
            let root = ctx.span_id();
            let mut rec = JobRecord::new(stream.next_job(&ctx.shapes), Instant::now());
            submit_one(ctx, client, &mut builds, &mut rec, root);
            rec.due = rec.sent;
            outstanding.push_back((rec, root));
        }
        let Some((mut rec, root)) = outstanding.pop_front() else {
            break;
        };
        if rec.error.is_none() {
            watch(ctx, client, &mut rec, root);
        }
        job_span(ctx, root, &rec);
        out.push(rec);
    }
    out
}

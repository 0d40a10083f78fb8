//! Correctness, checked outside the timed window: every final
//! aggregate the client received must be bit-identical to
//! `ShotEngine::run_job` on the same `Job` (compared through
//! `wire::result_fingerprint`, which covers histogram, machine stats,
//! `mean_prob1` and failure info).

use eqasm_runtime::{wire, ShotEngine};

use crate::drive::JobRecord;
use crate::gen::{Builds, Shape};

const CHUNK_SHOTS: u64 = 1_000_000;

/// Re-runs every acknowledged job on the local engine and returns one
/// message per mismatch, keyed by record index.
pub fn verify(
    shapes: &[Shape],
    builds: &mut Builds,
    records: &[JobRecord],
    workers: usize,
) -> Vec<(usize, String)> {
    let mut mismatches = Vec::new();
    let mut jobs = Vec::new();
    let mut index = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.fingerprint.is_none() {
            continue;
        }
        match rec.spec.job(shapes, builds) {
            Ok(job) => {
                jobs.push(job);
                index.push(i);
            }
            Err(e) => mismatches.push((i, format!("cannot rebuild `{}`: {e}", rec.spec.name))),
        }
    }
    let engine = ShotEngine::new(workers);
    let mut results = Vec::with_capacity(jobs.len());
    // Chunks of about a million shots bound the engine's per-shot
    // duration buffers.
    let mut start = 0;
    while start < jobs.len() {
        let mut end = start;
        let mut shots = 0;
        while end < jobs.len() && (end == start || shots + jobs[end].shots <= CHUNK_SHOTS) {
            shots += jobs[end].shots;
            end += 1;
        }
        let chunk = &jobs[start..end];
        match engine.run_jobs(chunk) {
            Ok(r) => results.extend(r.into_iter().map(Ok)),
            // One bad job fails the whole call; fall back to job by job.
            Err(_) => results.extend(chunk.iter().map(|j| engine.run_job(j))),
        }
        start = end;
    }
    for ((job, i), result) in jobs.iter().zip(index).zip(results) {
        let rec = &records[i];
        match result {
            Ok(expected) => {
                if rec.shots_acked != job.shots {
                    mismatches.push((
                        i,
                        format!(
                            "`{}`: client acknowledged {} shots, job has {}",
                            job.name, rec.shots_acked, job.shots
                        ),
                    ));
                } else if Some(wire::result_fingerprint(&expected)) != rec.fingerprint {
                    mismatches.push((
                        i,
                        format!("`{}`: aggregate differs from ShotEngine::run_job", job.name),
                    ));
                }
            }
            Err(e) => mismatches.push((i, format!("`{}`: engine failed: {e}", job.name))),
        }
    }
    mismatches
}

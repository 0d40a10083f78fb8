//! Readings taken from outside the program: per-thread CPU from
//! `/proc/self/task`, peak RSS, and the process-global metrics registry
//! (`eqasm_runtime::metrics::default_registry`) parsed from its text
//! exposition.

use std::collections::BTreeMap;
use std::fs;

/// Name prefix of the benchmark's own generator threads.
pub const GEN_THREAD: &str = "bench-gen-";

/// CPU time of every live thread, by thread id: `(name, nanoseconds)`.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu(BTreeMap<u32, (String, u64)>);

/// Which part of the process a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The benchmark: generator threads and the main thread.
    Bench,
    Reactor,
    Slot,
    Warmer,
    Journal,
    /// Any other coordinator thread.
    Other,
}

fn role(name: &str, tid: u32, main_tid: u32) -> Role {
    if name.starts_with(GEN_THREAD) || tid == main_tid {
        Role::Bench
    } else if name == "eqasm-serve-rea" || name.starts_with("eqasm-serve-reactor") {
        Role::Reactor
    } else if name.starts_with("eqasm-serve-") {
        Role::Slot
    } else if name.starts_with("eqasm-prefix-wa") {
        Role::Warmer
    } else if name == "eqasm-journal" {
        Role::Journal
    } else {
        Role::Other
    }
}

/// Nanoseconds of CPU a thread has run: `schedstat`'s first field, or
/// `stat`'s utime + stime (clock ticks of 10 ms) where schedstat is
/// missing.
fn task_cpu_ns(dir: &std::path::Path) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(dir.join("stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

impl ThreadCpu {
    pub fn read() -> Self {
        let mut out = BTreeMap::new();
        let Ok(entries) = fs::read_dir("/proc/self/task") else {
            return ThreadCpu(out);
        };
        for entry in entries.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            let dir = entry.path();
            let name = fs::read_to_string(dir.join("comm"))
                .map(|s| s.trim().to_owned())
                .unwrap_or_default();
            if let Some(ns) = task_cpu_ns(&dir) {
                out.insert(tid, (name, ns));
            }
        }
        ThreadCpu(out)
    }

    /// CPU seconds per role between `self` (earlier) and `later`.
    /// Threads born in between count from zero; threads that died in
    /// between are lost, and no thread of a running coordinator dies.
    pub fn delta(&self, later: &ThreadCpu) -> BTreeMap<Role, f64> {
        let main_tid = std::process::id();
        let mut out = BTreeMap::new();
        for (tid, (name, ns)) in &later.0 {
            let before = self.0.get(tid).map_or(0, |(_, b)| *b);
            *out.entry(role(name, *tid, main_tid)).or_insert(0.0) +=
                ns.saturating_sub(before) as f64 / 1e9;
        }
        out
    }
}

/// Sum of the roles that make up the coordinator (everything but the
/// benchmark's own threads).
pub fn coordinator_cpu(delta: &BTreeMap<Role, f64>) -> f64 {
    delta
        .iter()
        .filter(|(r, _)| **r != Role::Bench)
        .map(|(_, v)| v)
        .sum()
}

pub fn role_cpu(delta: &BTreeMap<Role, f64>, role: Role) -> f64 {
    delta.get(&role).copied().unwrap_or(0.0)
}

/// The machine-wide CPU tick counters of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal, ...).
pub fn cpu_ticks() -> Vec<u64> {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of machine CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = d.iter().sum();
    match d.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One scrape of the metrics registry: every sample line, keyed by
/// series (name plus label set).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn take() -> Self {
        let text = eqasm_runtime::metrics::default_registry().encode();
        let mut out = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(series.to_owned(), v);
                }
            }
        }
        Scrape(out)
    }

    /// Sum over every series of metric `name` whose labels contain
    /// all of `labels` (`key="value"` fragments).
    pub fn sum(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (metric, rest) = series.split_once('{').unwrap_or((series.as_str(), ""));
                metric == name && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `later − self` for [`Scrape::sum`].
    pub fn delta(&self, later: &Scrape, name: &str, labels: &[&str]) -> f64 {
        later.sum(name, labels) - self.sum(name, labels)
    }
}

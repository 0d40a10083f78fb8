//! Aggregated results of a job: measurement histograms, rolled-up
//! machine statistics and latency/throughput figures.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use eqasm_microarch::RunStats;

/// The final measurement outcome of one shot, packed as two bit masks
/// over qubit indices: `measured` marks qubits that produced a result,
/// `bits` holds those results. Supports up to 64 qubits — far beyond
/// the paper's seven-qubit surface chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitString {
    /// Which qubits were measured.
    pub measured: u64,
    /// The measured values, LSB = qubit 0; bits outside `measured` are
    /// zero.
    pub bits: u64,
}

impl BitString {
    /// An outcome with no measurements.
    pub const EMPTY: BitString = BitString {
        measured: 0,
        bits: 0,
    };

    /// Records qubit `q`'s result.
    pub fn set(&mut self, q: usize, value: bool) {
        self.measured |= 1 << q;
        if value {
            self.bits |= 1 << q;
        }
    }

    /// The result of qubit `q`, if it was measured.
    pub fn get(&self, q: usize) -> Option<bool> {
        (self.measured >> q & 1 == 1).then(|| self.bits >> q & 1 == 1)
    }
}

impl fmt::Display for BitString {
    /// Renders measured qubits MSB-first as a ket, e.g. `|q2=1 q0=0⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.measured == 0 {
            return write!(f, "|∅⟩");
        }
        write!(f, "|")?;
        let mut first = true;
        for q in (0..64).rev() {
            if self.measured >> q & 1 == 1 {
                if !first {
                    write!(f, " ")?;
                }
                first = false;
                write!(f, "q{}={}", q, (self.bits >> q) & 1)?;
            }
        }
        write!(f, "⟩")
    }
}

/// Counts of final measurement outcomes over a job's shots. Backed by
/// a `BTreeMap` so iteration order — and therefore rendered reports —
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<BitString, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one outcome.
    pub fn record(&mut self, outcome: BitString) {
        *self.counts.entry(outcome).or_insert(0) += 1;
    }

    /// Adds `count` observations of one outcome at once — the wire
    /// decoder's path (per-occurrence [`Histogram::record`] would be
    /// O(count) for nothing).
    pub fn add(&mut self, outcome: BitString, count: u64) {
        if count > 0 {
            *self.counts.entry(outcome).or_insert(0) += count;
        }
    }

    /// Adds every count of `other` into this histogram. Merging is
    /// commutative and associative, so any merge order yields the same
    /// histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Total recorded shots.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The count of one outcome.
    pub fn count(&self, outcome: &BitString) -> u64 {
        self.counts.get(outcome).copied().unwrap_or(0)
    }

    /// Iterates outcomes in deterministic (bit-pattern) order.
    pub fn iter(&self) -> impl Iterator<Item = (&BitString, &u64)> {
        self.counts.iter()
    }

    /// Number of distinct outcomes.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Fraction of shots in which qubit `q` was measured as `|1⟩`,
    /// over the shots in which it was measured at all. `None` if it
    /// was never measured.
    pub fn ones_fraction(&self, q: usize) -> Option<f64> {
        let mut measured = 0u64;
        let mut ones = 0u64;
        for (k, &n) in &self.counts {
            if let Some(v) = k.get(q) {
                measured += n;
                if v {
                    ones += n;
                }
            }
        }
        (measured > 0).then(|| ones as f64 / measured as f64)
    }
}

/// Wall-clock latency percentiles over per-shot execution times.
///
/// Unlike the histogram and statistics roll-ups, these are *measured*
/// quantities — they vary run to run and are reported for capacity
/// planning, not for reproducibility.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Median per-shot latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile per-shot latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile per-shot latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean per-shot latency, nanoseconds.
    pub mean_ns: u64,
    /// Slowest shot, nanoseconds.
    pub max_ns: u64,
}

/// Sub-buckets per power-of-two octave, as a bit count. Reporting a
/// bucket's midpoint bounds the relative error of any percentile at
/// `1 / 2^(SUB_BITS + 1)` = 1/64.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Octave 0 holds the exact values below [`SUB_BUCKETS`]; octave
/// `k ≥ 1` holds `[2^(k+4), 2^(k+5))` in [`SUB_BUCKETS`] equal steps.
const OCTAVES: usize = 64 - SUB_BITS as usize + 1;
/// Bucket indices run over `0..LATENCY_BUCKETS`.
pub(crate) const LATENCY_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// The bucket holding `v`. Indices are monotone in `v` and equal to
/// `v` below `2 * SUB_BUCKETS`, where every bucket is one value wide.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + (v >> shift) as usize - SUB_BUCKETS
}

/// The smallest value in `bucket` and the bucket's width.
fn bucket_range(bucket: usize) -> (u64, u64) {
    let (octave, sub) = (bucket >> SUB_BITS, (bucket % SUB_BUCKETS) as u64);
    if octave == 0 {
        return (sub, 1);
    }
    let shift = octave as u32 - 1;
    ((SUB_BUCKETS as u64 + sub) << shift, 1 << shift)
}

/// A mergeable log-linear histogram of per-shot wall-clock durations
/// (nanoseconds), in the style of HdrHistogram.
///
/// * Each power-of-two octave splits into 32 equal buckets, so p50,
///   p95 and p99 are within 1/64 of the exact nearest-rank value.
/// * The count, the `u128` sum (so the mean is exact) and the maximum
///   are exact.
/// * Recording is O(1): one bucket index, one popcount and one
///   increment. Storage is one 32-count array per occupied octave, so
///   memory and the wire encoding grow with the spread of the
///   durations, never with the number of shots.
/// * Merging is commutative and associative, so a job's histogram is
///   the same whatever order its batches are folded in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bit `k` is set when octave `k` has an entry in `chunks`.
    octaves: u64,
    /// One count array per occupied octave, in octave order.
    chunks: Vec<[u64; SUB_BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.add(bucket_of(ns), 1);
        self.count += 1;
        self.sum += u128::from(ns);
        self.max = self.max.max(ns);
    }

    /// Adds every sample of `other` into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (bucket, n) in other.buckets() {
            self.add(bucket, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Adds `n` to one bucket's count, opening its octave if needed.
    fn add(&mut self, bucket: usize, n: u64) {
        let octave = bucket >> SUB_BITS;
        let pos = (self.octaves & ((1 << octave) - 1)).count_ones() as usize;
        if self.octaves >> octave & 1 == 0 {
            self.octaves |= 1 << octave;
            self.chunks.insert(pos, [0; SUB_BUCKETS]);
        }
        self.chunks[pos][bucket % SUB_BUCKETS] += n;
    }

    /// Occupied buckets as `(index, count)`, in increasing index order.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let octaves = (0..OCTAVES).filter(|&k| self.octaves >> k & 1 == 1);
        octaves.zip(&self.chunks).flat_map(|(k, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(move |(sub, &n)| (k * SUB_BUCKETS + sub, n))
        })
    }

    /// Rebuilds a histogram from its occupied buckets, its sum and its
    /// maximum — the wire decoder's path. Rejects parts no sequence of
    /// [`LatencyHistogram::record`] calls could produce: indices that
    /// are out of range or not strictly increasing, zero counts, a
    /// count that overflows, a maximum outside the highest bucket, or
    /// a sum the buckets cannot add up to.
    pub(crate) fn from_parts(
        buckets: &[(usize, u64)],
        sum: u128,
        max: u64,
    ) -> Result<Self, String> {
        let mut h = LatencyHistogram::new();
        let (mut lo, mut hi) = (0u128, 0u128);
        let mut prev = None;
        for &(bucket, n) in buckets {
            if bucket >= LATENCY_BUCKETS || prev.is_some_and(|p| bucket <= p) || n == 0 {
                return Err(format!("bucket {bucket} (count {n}) out of order or empty"));
            }
            prev = Some(bucket);
            h.count = h
                .count
                .checked_add(n)
                .ok_or_else(|| "sample count overflows u64".to_owned())?;
            let (start, width) = bucket_range(bucket);
            lo += u128::from(start) * u128::from(n);
            hi += u128::from(start + (width - 1)) * u128::from(n);
            h.add(bucket, n);
        }
        let max_fits = match prev {
            None => max == 0,
            Some(last) => bucket_of(max) == last,
        };
        if !max_fits || sum < lo || sum > hi {
            return Err(format!(
                "sum {sum} / max {max} disagree with the bucket counts"
            ));
        }
        h.sum = sum;
        h.max = max;
        Ok(h)
    }

    /// Durations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every duration, nanoseconds.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The slowest duration, nanoseconds (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), reported as
    /// its bucket's midpoint capped at the exact maximum. `0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (bucket, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                let (start, width) = bucket_range(bucket);
                return (start + (width - 1) / 2).min(self.max);
            }
        }
        self.max
    }

    /// Percentiles, exact mean and exact maximum. All zero when empty.
    ///
    /// The mean divides the `u128` sum: a long service run sums
    /// nanosecond durations over arbitrarily many shots, and a `u64`
    /// accumulator overflows after only ~2e10 shot-seconds.
    pub fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            mean_ns: (self.sum / u128::from(self.count)) as u64,
            max_ns: self.max,
        }
    }
}

/// Everything the engine learned from running one [`crate::Job`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's name.
    pub name: String,
    /// Shots executed.
    pub shots: u64,
    /// Final-measurement outcome counts. Deterministic for a given
    /// job, independent of worker count.
    pub histogram: Histogram,
    /// Machine counters summed over all shots. Deterministic.
    pub stats: RunStats,
    /// Mean post-run `P(|1⟩)` per qubit, averaged over shots in shot
    /// order (bit-identical across worker counts thanks to fixed batch
    /// boundaries).
    pub mean_prob1: Vec<f64>,
    /// Per-shot wall-clock durations; [`LatencyHistogram::stats`]
    /// gives the percentiles.
    pub latency: LatencyHistogram,
    /// The job's active wall-clock window: from its first batch
    /// starting to its last batch finishing. Time the pool spent on
    /// *other* jobs before this one was picked up is excluded.
    pub elapsed: Duration,
    /// `shots / elapsed` over the active window.
    pub shots_per_sec: f64,
    /// Absolute bounds of the active window, for merging job results
    /// into workload-level spans.
    pub(crate) window: Option<(std::time::Instant, std::time::Instant)>,
    /// Shots that did not halt cleanly (fault or cycle-budget
    /// exhaustion).
    pub non_halted: u64,
    /// Shot index and status description of the first failure, if any.
    pub first_failure: Option<(u64, String)>,
}

impl JobResult {
    /// Fraction of shots measuring qubit `q` as `|1⟩` (`None` if the
    /// program never measures it).
    pub fn ones_fraction(&self, q: usize) -> Option<f64> {
        self.histogram.ones_fraction(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_set_get_display() {
        let mut b = BitString::EMPTY;
        b.set(0, false);
        b.set(2, true);
        assert_eq!(b.get(0), Some(false));
        assert_eq!(b.get(2), Some(true));
        assert_eq!(b.get(1), None);
        assert_eq!(b.to_string(), "|q2=1 q0=0⟩");
        assert_eq!(BitString::EMPTY.to_string(), "|∅⟩");
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut one = BitString::EMPTY;
        one.set(0, true);
        let mut zero = BitString::EMPTY;
        zero.set(0, false);
        let mut a = Histogram::new();
        a.record(zero);
        a.record(one);
        let mut b = Histogram::new();
        b.record(one);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 3);
        assert_eq!(ab.count(&one), 2);
        assert_eq!(ab.ones_fraction(0), Some(2.0 / 3.0));
    }

    /// The exact nearest-rank percentile, the reference the histogram
    /// approximates.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_within_64th(got: u64, exact: u64) {
        assert!(
            got.abs_diff(exact) as f64 <= exact as f64 / 64.0,
            "{got} is not within 1/64 of {exact}"
        );
    }

    #[test]
    fn latency_percentiles() {
        // A skewed spread over four decades, recorded out of order.
        let mut durations: Vec<u64> = (1..=1000u64)
            .map(|i| (i * i * 7919) % 9_999_991 + 1)
            .collect();
        let mut h = LatencyHistogram::new();
        for &d in &durations {
            h.record(d);
        }
        durations.sort_unstable();
        let l = h.stats();
        assert_within_64th(l.p50_ns, exact_quantile(&durations, 0.50));
        assert_within_64th(l.p95_ns, exact_quantile(&durations, 0.95));
        assert_within_64th(l.p99_ns, exact_quantile(&durations, 0.99));
        assert_eq!(l.max_ns, *durations.last().unwrap());
        let sum: u128 = durations.iter().map(|&d| u128::from(d)).sum();
        assert_eq!(l.mean_ns, (sum / durations.len() as u128) as u64);
        assert_eq!(h.count(), 1000);
        assert_eq!(LatencyHistogram::new().stats(), LatencyStats::default());
    }

    #[test]
    fn small_durations_are_exact() {
        let mut h = LatencyHistogram::new();
        for d in 1..=60 {
            h.record(d);
        }
        let l = h.stats();
        assert_eq!((l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns), (30, 57, 60, 60));
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        let mut next = 0u64;
        for bucket in 0..LATENCY_BUCKETS {
            let (start, width) = bucket_range(bucket);
            assert_eq!(start, next, "bucket {bucket} starts where the last ended");
            assert_eq!(bucket_of(start), bucket);
            assert_eq!(bucket_of(start + (width - 1)), bucket);
            assert!(
                width == 1 || width <= start / 32,
                "bucket {bucket} is too wide"
            );
            next = start.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn latency_mean_survives_huge_sums() {
        // Two durations near u64::MAX would overflow a u64 accumulator
        // (the long-service-run regime: ~5 GHz-ns × hours of shots).
        let big = u64::MAX / 2 + 7;
        let mut h = LatencyHistogram::new();
        h.record(big);
        h.record(big);
        let l = h.stats();
        assert_eq!(l.mean_ns, big);
        assert_eq!(l.max_ns, big);
        assert_within_64th(l.p50_ns, big);
    }

    #[test]
    fn from_parts_rejects_what_record_cannot_produce() {
        let mut h = LatencyHistogram::new();
        for d in [5, 900, 901, 70_000] {
            h.record(d);
        }
        let parts: Vec<_> = h.buckets().collect();
        assert_eq!(
            LatencyHistogram::from_parts(&parts, h.sum(), h.max()),
            Ok(h.clone())
        );
        let mut reversed = parts.clone();
        reversed.reverse();
        assert!(LatencyHistogram::from_parts(&reversed, h.sum(), h.max()).is_err());
        assert!(LatencyHistogram::from_parts(&parts, h.sum(), 6).is_err());
        assert!(LatencyHistogram::from_parts(&parts, h.sum() + 10_000, h.max()).is_err());
        assert!(LatencyHistogram::from_parts(&[(3, 0)], 0, 0).is_err());
        assert!(LatencyHistogram::from_parts(&[(LATENCY_BUCKETS, 1)], 0, 0).is_err());
        assert!(LatencyHistogram::from_parts(&[], 0, 1).is_err());
    }
}

//! Counters, latency histograms and renderable snapshots.

use std::time::Duration;

/// Summary statistics over a set of duration samples, in microseconds.
///
/// Produced either exactly from raw samples
/// ([`Summary::from_durations`]) or approximately from a log-bucketed
/// [`Histogram`] ([`Histogram::summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Mean, in microseconds.
    pub mean_us: f64,
    /// Median, in microseconds.
    pub p50_us: f64,
    /// 95th percentile, in microseconds.
    pub p95_us: f64,
    /// 99th percentile, in microseconds — the tail the load-harness
    /// SLO gates on.
    pub p99_us: f64,
    /// Maximum, in microseconds.
    pub max_us: f64,
}

impl Summary {
    /// Computes summary statistics from duration samples.
    #[must_use]
    pub fn from_durations(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let count = us.len();
        let mean_us = us.iter().sum::<f64>() / count as f64;
        let pick = |q: f64| us[(((count - 1) as f64) * q).round() as usize];
        Summary {
            count,
            mean_us,
            p50_us: pick(0.5),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: us[count - 1],
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs p50={:.1}µs p95={:.1}µs p99={:.1}µs max={:.1}µs",
            self.count, self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

const BUCKETS: usize = 64;

/// A fixed-footprint latency histogram with power-of-two buckets.
///
/// Bucket 0 holds exact zeros; bucket *i* ≥ 1 holds values in
/// `[2^(i-1), 2^i)` microseconds. The mean is exact (a running sum);
/// percentiles are bucket upper bounds, clamped to the observed
/// maximum — at most a 2× overestimate, which is plenty for the
/// order-of-magnitude comparisons the experiment harness makes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of a bucket, used for percentiles.
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded sample, in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The quantile `q` in `[0, 1]`, as the upper bound of the bucket
    /// holding that rank, clamped to the observed maximum.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return Self::bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Summarises the histogram (mean exact, percentiles bucketed).
    #[must_use]
    pub fn summary(&self) -> Summary {
        if self.count == 0 {
            return Summary::default();
        }
        Summary {
            count: usize::try_from(self.count).unwrap_or(usize::MAX),
            mean_us: self.sum_us as f64 / self.count as f64,
            p50_us: self.quantile_us(0.5) as f64,
            p95_us: self.quantile_us(0.95) as f64,
            p99_us: self.quantile_us(0.99) as f64,
            max_us: self.max_us as f64,
        }
    }
}

/// A point-in-time copy of a bus's counters, gauges and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Per-event-kind counts, in kind order (zero counts included).
    pub counters: Vec<(&'static str, u64)>,
    /// Named instantaneous values (current occupancies, queue depths),
    /// alphabetical. Unlike counters these move in both directions.
    pub gauges: Vec<(String, u64)>,
    /// Named latency summaries, alphabetical.
    pub histograms: Vec<(String, Summary)>,
}

impl Snapshot {
    /// The count for a named event kind (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The current value of a named gauge, if one was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The summary for a named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Summary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// Renders a plain-text report: non-zero counters, then gauges,
    /// then latency summaries.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("counters:\n");
        let mut any = false;
        for (name, value) in &self.counters {
            if *value > 0 {
                out.push_str(&format!("  {name:<14} {value}\n"));
                any = true;
            }
        }
        if !any {
            out.push_str("  (none)\n");
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<16} {value}\n"));
            }
        }
        out.push_str("latency:\n");
        if self.histograms.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, summary) in &self.histograms {
            out.push_str(&format!("  {name:<16} {summary}\n"));
        }
        out
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zeroes() {
        assert_eq!(Summary::from_durations(&[]).count, 0);
    }

    #[test]
    fn summary_statistics_from_durations() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = Summary::from_durations(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_us - 50.5).abs() < 0.01);
        assert!((s.p50_us - 50.0).abs() <= 1.0);
        assert!((s.p95_us - 95.0).abs() <= 1.0);
        assert!((s.p99_us - 99.0).abs() <= 1.0);
        assert!((s.max_us - 100.0).abs() < 0.01);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        // every boundary value lands in the bucket whose upper bound
        // contains it
        for i in 1..BUCKETS - 1 {
            let upper = Histogram::bucket_upper(i);
            assert_eq!(Histogram::bucket_of(upper), i, "upper of bucket {i}");
            assert_eq!(Histogram::bucket_of(upper + 1), i + 1);
        }
    }

    #[test]
    fn histogram_mean_is_exact_and_percentiles_bounded() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.observe(us);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean_us - 500.5).abs() < 0.01, "mean {}", s.mean_us);
        // p50's true value is 500; the bucketed answer may overshoot by
        // at most 2x
        assert!(s.p50_us >= 500.0 && s.p50_us <= 1000.0, "p50 {}", s.p50_us);
        assert!(s.p95_us >= 950.0, "p95 {}", s.p95_us);
        assert_eq!(s.max_us, 1000.0);
    }

    #[test]
    fn p99_at_bucket_boundaries() {
        // 98 fast samples in the [8, 16) bucket, two slow outliers: the
        // p99 rank (98 of 0..=99) lands on the first outlier, whose
        // bucket upper bound is clamped to the exact observed maximum.
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.observe(10);
        }
        h.observe(1000);
        h.observe(1000);
        let s = h.summary();
        assert_eq!(s.p50_us, 15.0, "upper bound of the [8, 16) bucket");
        assert_eq!(s.p99_us, 1000.0, "outlier bucket clamped to max");
        assert_eq!(s.max_us, 1000.0);

        // One outlier among 100 is *below* the p99 rank: the tail
        // percentile stays in the fast bucket while max records it.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(1000);
        let s = h.summary();
        assert_eq!(s.p99_us, 15.0);
        assert_eq!(s.max_us, 1000.0);

        // With the outliers at an exact power of two the clamp still
        // returns the observed value, not the bucket's 2x upper bound.
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.observe(10);
        }
        h.observe(1024);
        h.observe(1024);
        assert_eq!(h.summary().p99_us, 1024.0);

        // 100 identical samples on a bucket boundary: every percentile
        // is that sample.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(1024);
        }
        let s = h.summary();
        assert_eq!(s.p50_us, 1024.0);
        assert_eq!(s.p99_us, 1024.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for us in [1u64, 3, 7, 100, 5_000, 80_000, 1_000_000] {
            for _ in 0..10 {
                h.observe(us);
            }
        }
        let s = h.summary();
        assert!(s.p50_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.max_us);
        let text = format!("{s}");
        assert!(text.contains("p99="), "Display carries p99: {text}");
    }

    #[test]
    fn histogram_quantiles_clamp_to_max() {
        let mut h = Histogram::new();
        h.observe(5);
        // single sample: every quantile is the sample itself
        assert_eq!(h.quantile_us(0.0), 5);
        assert_eq!(h.quantile_us(0.5), 5);
        assert_eq!(h.quantile_us(1.0), 5);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q} on empty histogram");
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn out_of_range_quantiles_clamp_to_endpoints() {
        let mut h = Histogram::new();
        for us in [1u64, 10, 100, 1000] {
            h.observe(us);
        }
        // q outside [0, 1] clamps to the endpoints rather than
        // indexing out of range.
        assert_eq!(h.quantile_us(-1.0), h.quantile_us(0.0));
        assert_eq!(h.quantile_us(2.0), h.quantile_us(1.0));
        assert_eq!(h.quantile_us(1.0), 1000, "q=1 is the exact max");
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for us in [1u64, 10, 100] {
            a.observe(us);
        }
        for us in [1000u64, 10_000] {
            b.observe(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max_us(), 10_000);
        assert_eq!(a.summary().count, 5);
    }

    #[test]
    fn histogram_merge_preserves_count_and_max_each_way() {
        // Merging an empty histogram changes nothing.
        let mut a = Histogram::new();
        for us in [7u64, 70, 700] {
            a.observe(us);
        }
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging empty is the identity");

        // Merging *into* an empty histogram reproduces the source's
        // count and max exactly.
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty.count(), before.count());
        assert_eq!(empty.max_us(), before.max_us());
        assert_eq!(empty, before);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.summary().mean_us, 0.0);
    }

    #[test]
    fn snapshot_lookup_and_render() {
        let mut h = Histogram::new();
        h.observe(100);
        let snap = Snapshot {
            counters: vec![("action_begin", 2), ("action_commit", 0)],
            gauges: vec![("locks.entries".to_owned(), 12)],
            histograms: vec![("core.commit_us".to_owned(), h.summary())],
        };
        assert_eq!(snap.counter("action_begin"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("locks.entries"), Some(12));
        assert_eq!(snap.gauge("missing"), None);
        assert!(snap.histogram("core.commit_us").is_some());
        assert!(snap.histogram("missing").is_none());
        let text = snap.render();
        assert!(text.contains("action_begin"));
        assert!(!text.contains("action_commit"), "zero counters elided");
        assert!(text.contains("gauges:"));
        assert!(text.contains("locks.entries"));
        assert!(text.contains("core.commit_us"));
    }

    #[test]
    fn snapshot_without_gauges_elides_the_section() {
        let snap = Snapshot::default();
        assert!(!snap.render().contains("gauges:"));
    }
}

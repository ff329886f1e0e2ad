//! Order statistics the benchmark reports: exact percentiles over a
//! sample vector, a log-bucket histogram for the workload whose sample
//! count does not fit a vector, and the quartile rule of Python's
//! `statistics.quantiles(values, n=4)` that the driver applies to the
//! benchmark's own output.

/// Median of `values` (mean of the two middle ones for an even count).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(max - min) / median` — how far a run's repetitions disagree.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two or more values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        cuts[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// Value at quantile `q` (0..=1) of an ascending slice, interpolating
/// linearly between the two neighbouring ranks.
fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Sub-buckets per power of two: 64 keeps a bucket under 1.6 % wide.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one bucket each; above, `SUB` per octave up
/// to 2^40 ns (~18 minutes), where the last bucket absorbs the rest.
const OCTAVES: u64 = 40 - SUB_BITS as u64;
const BUCKETS: usize = (SUB + OCTAVES * SUB) as usize;

/// Log-bucket latency histogram over nanoseconds. Quantiles are
/// interpolated by rank inside the bucket they fall in, so they move
/// continuously with the data instead of snapping to bucket edges.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = u64::from(63 - ns.leading_zeros()) - u64::from(SUB_BITS);
        if octave >= OCTAVES {
            return BUCKETS - 1;
        }
        let sub = (ns >> octave) - SUB;
        (SUB + octave * SUB + sub) as usize
    }

    /// Inclusive lower and exclusive upper bound of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, index + 1);
        }
        let octave = (index - SUB) / SUB;
        let sub = (index - SUB) % SUB;
        let lo = (SUB + sub) << octave;
        (lo, lo + (1 << octave))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` (0..=1), in nanoseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // rank in 0..count, placed mid-sample so q=0.5 of one sample
        // lands in the middle of its bucket
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64 + 0.5;
        let mut below = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank <= (below + n) as f64 {
                let (lo, hi) = Self::bounds(index);
                let hi = hi.min(self.max + 1);
                let frac = (rank - below as f64) / n as f64;
                return lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
            }
            below += n;
        }
        self.max as f64
    }
}

/// Client-observed latencies of one repetition: an exact vector for
/// workloads of up to about a million operations, a histogram for
/// `read_mostly`, whose millions of samples must not inflate the
/// resident set the benchmark itself reports.
#[derive(Clone)]
pub enum Latencies {
    Exact(Vec<u64>),
    Bucketed(Histogram),
}

impl Latencies {
    pub fn exact() -> Self {
        Latencies::Exact(Vec::new())
    }

    pub fn bucketed() -> Self {
        Latencies::Bucketed(Histogram::default())
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self {
            Latencies::Exact(v) => v.push(ns),
            Latencies::Bucketed(h) => h.record(ns),
        }
    }

    /// Folds another client's samples in. Both sides must be the same
    /// variant (one workload records one way).
    pub fn merge(&mut self, other: &Latencies) {
        match (self, other) {
            (Latencies::Exact(a), Latencies::Exact(b)) => a.extend_from_slice(b),
            (Latencies::Bucketed(a), Latencies::Bucketed(b)) => a.merge(b),
            _ => panic!("latency recorders of one workload must agree"),
        }
    }

    pub fn count(&self) -> u64 {
        match self {
            Latencies::Exact(v) => v.len() as u64,
            Latencies::Bucketed(h) => h.count(),
        }
    }

    /// Sorts an exact recorder; call once before reading quantiles.
    pub fn seal(&mut self) {
        if let Latencies::Exact(v) = self {
            v.sort_unstable();
        }
    }

    /// Value at quantile `q` in nanoseconds ([`seal`](Self::seal) first).
    pub fn quantile(&self, q: f64) -> f64 {
        match self {
            Latencies::Exact(v) => quantile_sorted(v, q),
            Latencies::Bucketed(h) => h.quantile(q),
        }
    }

    pub fn max(&self) -> u64 {
        match self {
            Latencies::Exact(v) => v.iter().copied().max().unwrap_or(0),
            Latencies::Bucketed(h) => h.max(),
        }
    }

    pub fn total(&self) -> u64 {
        match self {
            Latencies::Exact(v) => v.iter().sum(),
            Latencies::Bucketed(_) => panic!("a bucketed recorder keeps no sum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(relative_spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn exact_percentile_edges() {
        let mut empty = Latencies::exact();
        empty.seal();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.max(), 0);

        let mut one = Latencies::exact();
        one.record(7);
        one.seal();
        assert_eq!(one.quantile(0.0), 7.0);
        assert_eq!(one.quantile(0.99), 7.0);

        let mut eight = Latencies::exact();
        for v in [80, 10, 70, 20, 60, 30, 50, 40] {
            eight.record(v);
        }
        eight.seal();
        assert_eq!(eight.quantile(0.0), 10.0);
        assert_eq!(eight.quantile(1.0), 80.0);
        assert_eq!(eight.quantile(0.5), 45.0); // mean of 4th and 5th
        assert_eq!(eight.max(), 80);
        assert_eq!(eight.total(), 360);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // every bucket's bounds map back to the bucket, and adjoin
        let mut expected_lo = 0;
        for index in 0..BUCKETS - 1 {
            let (lo, hi) = Histogram::bounds(index);
            assert_eq!(lo, expected_lo, "bucket {index} leaves a hole");
            assert_eq!(Histogram::bucket_of(lo), index);
            assert_eq!(Histogram::bucket_of(hi - 1), index);
            expected_lo = hi;
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantile_edges() {
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0.0);

        let mut small = Histogram::default();
        small.record(5); // exact bucket below SUB
        assert!((small.quantile(0.5) - 5.5).abs() < 1.0);
        assert_eq!(small.max(), 5);

        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.0, 1.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want * 0.02 + 1.0,
                "q{q}: got {got}, want about {want}"
            );
        }
        // never reports past the largest sample
        assert!(h.quantile(1.0) <= 100_001.0);
    }

    #[test]
    fn histogram_merge_adds_up() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
        let mut both = Latencies::Bucketed(a);
        both.merge(&Latencies::Bucketed(b));
        assert_eq!(both.count(), 3);
    }
}

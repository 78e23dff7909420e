//! Order statistics for the benchmark: medians and quartiles over small
//! sets of run results, and a fixed-memory latency histogram for the
//! measured phase.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median nanoseconds of `samples` individually timed calls (for calls of a
/// microsecond or more); the first failing call ends the measurement.
pub fn median_call_ns(
    samples: u64,
    mut call: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let called = std::time::Instant::now();
        call()?;
        times.push(called.elapsed().as_nanos() as f64);
    }
    Ok(median(&times))
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver computes its spreads with that function, so the
/// A/A study must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Sub-buckets per power of two: each bucket is at most 1/128 (0.8 %)
/// wide, and quantiles interpolate inside the bucket.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// Log-linear histogram of nanosecond latencies in 35 KiB, whatever the
/// sample count — a sample vector would grow with throughput and couple
/// `peak_rss_mb` to `auctions_per_s`.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = (63 - ns.leading_zeros()).min(MAX_EXP);
        let sub = if exp == MAX_EXP && ns >> MAX_EXP > 1 {
            SUB - 1
        } else {
            (ns >> (exp - SUB_BITS)) & (SUB - 1)
        };
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Lower edge and width of bucket `index`, in nanoseconds.
    fn edges(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, 1.0);
        }
        let exp = index / SUB - 1 + SUB_BITS as u64;
        let sub = index % SUB;
        let width = (1u64 << (exp - SUB_BITS as u64)) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket
    /// (0 for an empty histogram).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = seen + count as f64;
            if next >= rank {
                let (lo, width) = Self::edges(index);
                let inside = ((rank - seen) / count as f64).clamp(0.0, 1.0);
                return (lo + inside * width).min(self.max_ns as f64);
            }
            seen = next;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket_of_the_truth() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.max_ns(), 1_000_000);
        let mut big = Histogram::default();
        big.record(u64::MAX);
        assert_eq!(big.len(), 1);
    }
}

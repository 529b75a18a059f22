//! Mergeable log₂-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] puts each sample in a power-of-two bucket
//! (bucket `i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds zero),
//! so recording is O(1), the footprint is 65 counters regardless of run
//! length, and quantiles are exact to within a factor of two — plenty
//! to tell a healthy p99 from a pileup. The true maximum is tracked
//! exactly.
//!
//! The one type serves every latency figure in the crate: the event
//! ring's pre-/post-fault split, the metrics layer's whole-run and
//! per-class histograms, and its sliding window. Merging is
//! element-wise bucket addition — associative and commutative by
//! construction — so per-shard or per-interval histograms combine into
//! exactly the histogram a single observer would have built, and
//! sliding-window quantiles fall out of merging the live interval
//! ring. The only field that is not a sum is `max`, which merges by
//! maximum and stays exact.

/// Fixed-footprint mergeable histogram of `u64` samples (cycle counts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `i` holds.
fn upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Lossless: the result is exactly the
    /// histogram of the concatenated sample streams, so the operation
    /// is associative and commutative (the merge proptests pin this).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Returns the merge of `self` and `other` without mutating either.
    pub fn merged(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Empties the histogram in place.
    pub fn reset(&mut self) {
        *self = LatencyHistogram::default();
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket containing it, capped at the exact maximum (so
    /// `quantile(0.5)` is within 2× of the true median). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (upper bucket bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (upper bucket bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (upper bucket bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty `(bucket_upper_bound, count)` rows, low to high.
    pub fn rows(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_bound_truth_within_2x() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // True p50 = 500; bucket answer in [500, 1000).
        let p50 = h.p50();
        assert!((500..1000).contains(&p50), "{p50}");
        // p99 = 990; bucket answer in [990, 1980) but capped at max.
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "{p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.rows().is_empty());
    }

    #[test]
    fn rows_report_populated_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(5);
        h.record(6);
        assert_eq!(h.rows(), vec![(0, 1), (7, 2)]);
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i) % 7919).collect();
        let mut whole = LatencyHistogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let (left, right) = samples.split_at(137);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &v in left {
            a.record(v);
        }
        for &v in right {
            b.record(v);
        }
        assert_eq!(a.merged(&b), whole);
        assert_eq!(b.merged(&a), whole, "merge must be commutative");
    }

    #[test]
    fn empty_sketch_reads_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        // Merging an empty histogram is the identity.
        let mut t = LatencyHistogram::new();
        t.record(42);
        assert_eq!(t.merged(&h), t);
    }

    #[test]
    fn reset_restores_the_identity() {
        let mut h = LatencyHistogram::new();
        h.record(9);
        h.reset();
        assert_eq!(h, LatencyHistogram::new());
    }
}

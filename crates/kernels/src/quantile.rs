//! A deterministic streaming quantile sketch.
//!
//! [`QuantileSketch`] is an HDR-histogram-style log-linear bucketing
//! scheme over `u64` samples: values below 64 are counted exactly, larger
//! values land in one of 64 sub-buckets per power of two, bounding the
//! relative error of any reported quantile to one sub-bucket width
//! (≈ 1.6 %). Unlike sampling sketches (P², GK, t-digest) there is no
//! randomness and no data-order dependence anywhere: two runs that record
//! the same multiset of samples — in any order — report bit-identical
//! quantiles, which is what lets the cluster service's latency and
//! queue-depth percentiles sit next to bit-identity invariants.
//!
//! Memory is a fixed ~30 KiB table regardless of sample count.

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket groups: the linear range plus one group per exponent above it.
const GROUPS: usize = (64 - SUB_BITS as usize) + 1;

/// A fixed-size, order-independent, deterministic quantile estimator
/// over `u64` samples (≈ 1.6 % relative error above 64, exact below).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: vec![0; GROUPS * SUB as usize],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: identity below `SUB`, log-linear above.
    fn index(value: u64) -> usize {
        if value < SUB {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // ≥ SUB_BITS
            let group = (msb - SUB_BITS + 1) as usize;
            let sub = ((value >> (msb - SUB_BITS)) - SUB) as usize;
            group * SUB as usize + sub
        }
    }

    /// Representative value (lower bound + half a bucket width) for a
    /// bucket index.
    fn representative(index: usize) -> u64 {
        let group = index as u64 >> SUB_BITS;
        let sub = index as u64 & (SUB - 1);
        if group == 0 {
            sub
        } else {
            let msb = SUB_BITS as u64 + group - 1;
            let width = 1u64 << (msb - SUB_BITS as u64);
            ((SUB + sub) << (msb - SUB_BITS as u64)) + width / 2
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` ∈ [0, 1] (nearest-rank, clamped to the
    /// observed min/max; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return Self::representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The values at each requested quantile, aligned with the input
    /// slice. One pass over the bucket table regardless of how many
    /// quantiles are asked for — every percentile consumer (reports,
    /// telemetry snapshots, service summaries) derives from this one
    /// helper so they cannot disagree on rank arithmetic.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        let mut out = vec![0u64; qs.len()];
        if self.is_empty() || qs.is_empty() {
            return out;
        }
        // Resolve each quantile to its nearest-rank target, then walk
        // the bucket table once in ascending rank order.
        let mut order: Vec<usize> = (0..qs.len()).collect();
        let rank = |q: f64| -> u64 {
            let q = q.clamp(0.0, 1.0);
            ((q * self.total as f64).ceil() as u64).max(1)
        };
        order.sort_by(|&a, &b| rank(qs[a]).cmp(&rank(qs[b])).then_with(|| a.cmp(&b)));
        let mut seen = 0u64;
        let mut buckets = self.counts.iter().enumerate();
        let mut current = self.max;
        let mut exhausted = false;
        for &slot in &order {
            let target = rank(qs[slot]);
            while !exhausted && seen < target {
                match buckets.next() {
                    Some((i, &c)) => {
                        if c == 0 {
                            continue;
                        }
                        seen += c;
                        current = Self::representative(i).clamp(self.min, self.max);
                    }
                    None => {
                        current = self.max;
                        exhausted = true;
                    }
                }
            }
            out[slot] = current;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reports_zeroes() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!((s.min(), s.max(), s.count()), (0, 0, 0));
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..64u64 {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 31);
        assert_eq!(s.quantile(1.0), 63);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 63);
    }

    #[test]
    fn large_values_stay_within_relative_error() {
        let mut s = QuantileSketch::new();
        // A deterministic skewed stream: i² for i in 1..=1000.
        let values: Vec<u64> = (1..=1000u64).map(|i| i * i).collect();
        for &v in &values {
            s.record(v);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let approx = s.quantile(q) as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(rel <= 1.0 / 64.0, "q={q}: {approx} vs {exact} rel={rel}");
        }
    }

    #[test]
    fn order_independence_is_bit_exact() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2654435761) >> 16)
            .collect();
        for &v in &values {
            a.record(v);
        }
        for &v in values.iter().rev() {
            b.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
    }

    #[test]
    fn percentiles_agree_with_single_quantile_scans() {
        let mut s = QuantileSketch::new();
        for i in 0..2_000u64 {
            s.record(i.wrapping_mul(2654435761) >> 13);
        }
        // Unsorted, duplicated, and boundary quantiles all at once.
        let qs = [0.99, 0.5, 0.95, 0.5, 0.0, 1.0, 0.25];
        let batch = s.percentiles(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, s.quantile(*q), "q={q}");
        }
        assert!(QuantileSketch::new()
            .percentiles(&qs)
            .iter()
            .all(|&v| v == 0));
        assert!(s.percentiles(&[]).is_empty());
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut s = QuantileSketch::new();
        s.record(1_000_003);
        assert_eq!(
            s.percentiles(&[0.50, 0.95, 0.99]),
            vec![1_000_003, 1_000_003, 1_000_003]
        );
    }
}

//! Fixed-size log-linear latency histogram (the HdrHistogram idea).
//!
//! Every power of two is split into `2^SUB_BITS` equal buckets, so a
//! recorded value is kept to within 1/128 (< 0.8%) of itself whatever its
//! magnitude.  The bucket array is allocated once, when the histogram is
//! made; `record` never allocates, so recording does not show up in the
//! memory the benchmark reports for the map.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (about 18 minutes) land in the last bucket.
const MAX_MSB: u32 = 40;
const BUCKETS: usize = (MAX_MSB - SUB_BITS + 2) as usize * SUB;

pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = (63 - v.leading_zeros()).min(MAX_MSB);
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    ((shift as usize + 1) << SUB_BITS) + sub
}

/// Midpoint of bucket `i`, in the recorded unit.
fn value_at(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let low = ((SUB + (i & (SUB - 1))) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Mean of the samples ranked between the first and third quartile, or
    /// 0 when nothing was recorded.  Unlike the median it moves smoothly
    /// when the mix of two separate modes shifts (an insert that adds a key
    /// costs several times one that finds it present), and unlike the mean
    /// it ignores the tail a descheduled thread leaves.
    pub fn interquartile_mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let (lo, hi) = (self.total as f64 / 4.0, self.total as f64 * 3.0 / 4.0);
        let (mut seen, mut sum) = (0.0, 0.0);
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c as f64;
            let overlap = next.min(hi) - seen.max(lo);
            if overlap > 0.0 {
                sum += overlap * value_at(i);
            }
            seen = next;
        }
        sum / (hi - lo)
    }

    /// The value at quantile `q` (0..=1), or 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_at(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 123_456, 1 << 39] {
            let i = index(v);
            assert!(i >= prev, "index is monotone");
            prev = i;
            let mid = value_at(i);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} -> {mid}"
            );
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() < 50_000.0 / 100.0, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() < 99_000.0 / 100.0, "{p99}");
        let iqm = h.interquartile_mean();
        assert!((iqm - 50_050.0).abs() < 50_050.0 / 100.0, "{iqm}");
    }
}

//! Order statistics: a fixed-memory histogram for host latencies, exact
//! interpolated percentiles for modeled latencies, and the quartiles the
//! steadiness report uses.

/// Linear sub-buckets per power of two (bucket width < 1.6% of value).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Log-linear histogram of host nanoseconds. Memory is fixed, so the
/// process's resident set does not grow with the number of ops a run
/// completes (peak RSS is itself a reported metric).
pub struct HostHist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) - SUB;
    (SUB + (e - SUB_BITS) as u64 * SUB + sub) as usize
}

/// `(lower bound, width)` of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let e = (b - SUB) / SUB + SUB_BITS as u64;
    let sub = (b - SUB) % SUB;
    let shift = e - SUB_BITS as u64;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Default for HostHist {
    fn default() -> Self {
        HostHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl HostHist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    /// The `q`-quantile (0..=1), interpolated linearly inside the bucket
    /// that holds it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, width) = bucket_range(b);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * width;
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bucket_range(last);
        lo + width
    }
}

/// The `q`-quantile of `v` with linear interpolation between order
/// statistics (sorts `v`).
pub fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] as f64 + (h - lo as f64) * (v[hi] as f64 - v[lo] as f64)
}

/// Median of `v` (sorts a copy).
pub fn median_f64(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), which the acceptance check uses.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = (n + 1) as i64;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev_end = 0.0;
        for b in 0..BUCKETS - 1 {
            let (lo, w) = bucket_range(b);
            assert_eq!(
                lo,
                prev_end,
                "bucket {b} starts where {} ended",
                b as i64 - 1
            );
            assert!(w / lo.max(1.0) <= 1.0 / SUB as f64 + 1e-12 || lo < SUB as f64);
            prev_end = lo + w;
        }
        for v in [0u64, 1, 63, 64, 65, 1000, 123_456, u32::MAX as u64] {
            let (lo, w) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w, "{v} in its bucket");
        }
    }

    #[test]
    fn histogram_median_is_close() {
        let mut h = HostHist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.02, "p50 {p50}");
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let mut w: Vec<u64> = vec![4, 1, 3, 2];
        assert_eq!(percentile(&mut w, 0.5), 2.5);
    }
}

//! The latency histogram, medians, the seeded input generator, and
//! process memory.

/// Nearest rank (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Linear sub-buckets per octave: bucket width is at most 1/512 of its
/// lower edge, so a quantile is resolved to 0.2%.
const SUB_BITS: u32 = 10;
const HALF: u64 = 1 << (SUB_BITS - 1);

/// A latency histogram in log-linear buckets: exact below 1024 ns, then
/// 512 buckets per power of two, up to `u64::MAX` ns. Memory stays
/// constant (it grows only to the largest sample's bucket) whatever the
/// op count, so the process's peak RSS does not depend on throughput,
/// and no sample overflows.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < 2 * HALF {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - (SUB_BITS - 1);
        ((shift as u64) * HALF + (v >> shift)) as usize
    }

    /// `(lower edge, width)` of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < 2 * HALF {
            return (i, 1);
        }
        let shift = i / HALF - 1;
        ((i - shift * HALF) << shift, 1 << shift)
    }

    /// Records one sample, ns.
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples ranked above quantile `q` (nearest rank).
    pub fn count_beyond(&self, q: f64) -> u64 {
        self.total - rank(q, self.total.max(1)).min(self.total)
    }

    /// Quantile `q`, ns: the nearest-rank sample's bucket, interpolated
    /// linearly by rank inside the bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let r = rank(q, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= r {
                let (lo, width) = Self::bucket(i);
                let at = lo as f64 + width as f64 * ((r - seen) as f64 - 0.5) / c as f64;
                return at.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Median of a list of measurements (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of the lowest `1/parts` of a list of measurements. For
/// timings: interference from outside the process only ever adds time,
/// so the quickest samples are the steadiest estimate of the program's
/// own cost.
pub fn quiet_median(v: &[f64], parts: usize) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(parts));
    median(&v)
}

/// SplitMix64: the benchmark's only source of input randomness, seeded
/// from the command line.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The process's high-water resident set (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of an ascending slice (0 when empty).
    fn quantile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[rank(q, sorted.len() as u64) as usize - 1]
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn bucket_edges_invert_the_index() {
        for v in (0..5000).chain([1 << 20, (1 << 20) + 12345, 3 << 40, u64::MAX]) {
            let (lo, width) = Histogram::bucket(Histogram::index(v));
            assert!(lo <= v && v - lo < width, "{v}: [{lo}, +{width})");
            assert!(width == 1 || width * 512 <= lo, "{v}: relative width");
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut r = SplitMix::new(3);
        let mut h = Histogram::default();
        let mut exact: Vec<u64> = (0..50_000)
            .map(|_| 20_000 + r.below(200_000) * r.below(4))
            .collect();
        exact.iter().for_each(|&v| h.record(v));
        exact.sort_unstable();
        assert_eq!(h.count(), 50_000);
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let (want, got) = (quantile(&exact, q) as f64, h.quantile(q));
            assert!((got - want).abs() <= want / 256.0, "q{q}: {got} vs {want}");
        }
        assert!(h.quantile(1.0) <= *exact.last().unwrap() as f64);
        assert_eq!(h.count_beyond(0.99), 500);

        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        exact.iter().enumerate().for_each(
            |(i, &v)| {
                if i % 3 == 0 {
                    a.record(v)
                } else {
                    b.record(v)
                }
            },
        );
        a.merge(&b);
        assert_eq!(a.count(), h.count());
        assert_eq!(a.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_median_takes_the_lowest_share() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quiet_median(&v, 4), 1.5);
        assert_eq!(quiet_median(&v, 8), 1.0);
        assert_eq!(quiet_median(&[5.0], 4), 5.0);
        assert_eq!(quiet_median(&[], 4), 0.0);
    }

    #[test]
    fn the_generator_repeats_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(9);
            (0..8).map(|_| r.below(4)).collect()
        };
        let mut r = SplitMix::new(9);
        let b: Vec<u64> = (0..8).map(|_| r.below(4)).collect();
        assert_eq!(a, b);
        assert_ne!(SplitMix::new(1).next_u64(), SplitMix::new(2).next_u64());
    }
}

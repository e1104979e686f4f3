//! Exact latency percentiles, recognition digests and small helpers.
//!
//! Every timed call is kept. Durations below [`BINS`] ns go into one
//! counter per nanosecond, which is a counting sort of those values.
//! Longer durations are stored raw and sorted once. A percentile is
//! therefore the nearest-rank order statistic of all recorded calls.
//! Memory stays bounded whatever the call rate, so `rss_peak_mb`
//! measures the program and not the benchmark's buffers.

use std::time::Duration;

/// Durations below this many nanoseconds are counted per nanosecond.
const BINS: usize = 1 << 18;

/// A percentile read from [`Timings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The order statistic in nanoseconds. Calls sharing one clock
    /// reading are taken as spread evenly up to the next reading seen,
    /// which the clock cannot resolve.
    pub ns: f64,
    /// Calls recorded.
    pub n: u64,
    /// Calls ranked above the reported one.
    pub beyond: u64,
}

/// 0-based nearest-rank index of quantile `q` among `n` sorted values,
/// or `None` for an empty set.
#[must_use]
pub fn rank(n: u64, q: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let one_based = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
    Some(one_based.clamp(1, n) - 1)
}

/// Every duration recorded by one timed call site.
#[derive(Debug, Clone)]
pub struct Timings {
    bins: Vec<u64>,
    overflow: Vec<u64>,
    sorted: bool,
    n: u64,
    sum_ns: u128,
}

impl Default for Timings {
    fn default() -> Self {
        Timings::new()
    }
}

impl Timings {
    /// An empty record with every bin preallocated.
    #[must_use]
    pub fn new() -> Self {
        Timings {
            bins: vec![0; BINS],
            overflow: Vec::new(),
            sorted: true,
            n: 0,
            sum_ns: 0,
        }
    }

    /// Record one call.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one call of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        match self.bins.get_mut(ns as usize) {
            Some(bin) => *bin += 1,
            None => {
                self.overflow.push(ns);
                self.sorted = false;
            }
        }
        self.n += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Add every call recorded in `other`.
    pub fn merge(&mut self, other: &Timings) {
        for (bin, &count) in self.bins.iter_mut().zip(&other.bins) {
            *bin += count;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.sorted &= other.overflow.is_empty();
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Calls recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Total recorded time in nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean call time in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        ratio(self.sum_ns as f64, self.n as f64)
    }

    /// The nearest-rank percentile `q`, or `None` when nothing was
    /// recorded.
    pub fn quantile(&mut self, q: f64) -> Option<Pct> {
        let r = rank(self.n, q)?;
        if !self.sorted {
            self.overflow.sort_unstable();
            self.sorted = true;
        }
        let beyond = self.n - 1 - r;
        let mut below = 0u64;
        for (ns, &count) in self.bins.iter().enumerate() {
            if r < below + count {
                // The clock ticks in steps of several ns: spread the calls
                // of this reading evenly up to the next reading seen.
                let next = self.bins[ns + 1..]
                    .iter()
                    .position(|&c| c > 0)
                    .map(|gap| (ns + 1 + gap) as f64)
                    .or_else(|| self.overflow.first().map(|&v| v as f64))
                    .unwrap_or(ns as f64 + 1.0);
                let within = ((r - below) as f64 + 0.5) / count as f64;
                return Some(Pct {
                    ns: ns as f64 + within * (next - ns as f64),
                    n: self.n,
                    beyond,
                });
            }
            below += count;
        }
        let ns = *self.overflow.get((r - below) as usize)?;
        Some(Pct {
            ns: ns as f64,
            n: self.n,
            beyond,
        })
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 when empty); the mean of the middle pair for an
/// even count.
#[must_use]
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Digest of a recognition sequence: 64-bit FNV-1a over each
/// recognition's `Debug` rendering, which covers every field, floats
/// included.
#[must_use]
pub fn digest<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for item in items {
        for b in format!("{item:?};").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_handles_zero_one_and_ten_samples() {
        assert_eq!(rank(0, 0.5), None);
        assert_eq!(rank(0, 0.99), None);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(rank(1, q), Some(0));
        }
        assert_eq!(rank(10, 0.0), Some(0));
        assert_eq!(rank(10, 0.5), Some(4));
        assert_eq!(rank(10, 0.9), Some(8));
        assert_eq!(rank(10, 0.99), Some(9));
        assert_eq!(rank(10, 1.0), Some(9));
    }

    #[test]
    fn quantiles_match_sorted_raw_values() {
        let mut t = Timings::new();
        assert_eq!(t.quantile(0.5), None);
        t.record_ns(42);
        let one = t.quantile(0.99).expect("one sample");
        assert_eq!((one.ns.floor(), one.n, one.beyond), (42.0, 1, 0));

        // Ten samples straddling the bin limit: ranks land on the
        // sorted raw values, whichever side they were stored on.
        let raw = [
            900_000u64,
            5,
            300,
            7,
            BINS as u64 + 3,
            300,
            12,
            1 << 30,
            40,
            2,
        ];
        let mut t = Timings::new();
        for &v in &raw {
            t.record_ns(v);
        }
        let mut sorted = raw.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = t.quantile(q).expect("ten samples");
            let want = sorted[rank(10, q).expect("nonempty") as usize];
            // At the sorted raw value, short of the next larger one.
            let next = sorted.iter().find(|&&v| v > want).copied();
            assert!(p.ns >= want as f64, "q = {q}: {} < {want}", p.ns);
            assert!(p.ns < next.unwrap_or(want + 1) as f64, "q = {q}: {}", p.ns);
            assert_eq!(p.n, 10);
        }
        let p99 = t.quantile(0.99).expect("ten samples");
        assert_eq!(p99.beyond, 0);
        assert_eq!(t.quantile(0.5).expect("ten samples").beyond, 5);
        assert_eq!(t.count(), 10);
        assert_eq!(t.sum_ns(), raw.iter().map(|&v| u128::from(v)).sum());

        // Recording the values into two halves and merging them gives
        // the same percentiles.
        let (mut a, mut b) = (Timings::new(), Timings::new());
        for (i, &v) in raw.iter().enumerate() {
            if i % 2 == 0 {
                a.record_ns(v)
            } else {
                b.record_ns(v)
            }
        }
        a.merge(&b);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), t.quantile(q));
        }
    }

    #[test]
    fn ties_spread_up_to_the_next_reading() {
        let mut t = Timings::new();
        for _ in 0..4 {
            t.record_ns(100);
        }
        t.record_ns(110);
        // Ranks 0..4 share the reading 100 and spread over [100, 110).
        assert_eq!(t.quantile(0.0).expect("samples").ns, 101.25);
        assert_eq!(t.quantile(0.8).expect("samples").ns, 108.75);
        // The last reading has nothing above it: one ns wide.
        assert_eq!(t.quantile(1.0).expect("samples").ns, 110.5);
    }

    #[test]
    fn median_and_digest() {
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(digest::<u8>(&[]), 0xCBF2_9CE4_8422_2325);
        assert_ne!(digest(&[1u8, 2]), digest(&[2u8, 1]));
    }
}

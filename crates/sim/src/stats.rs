//! Counters and summary statistics.

use crate::time::Picos;
use std::collections::BTreeMap;
use std::fmt;

/// A named monotonically increasing counter.
///
/// # Examples
///
/// ```
/// use flick_sim::Counter;
///
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log-bucketed histogram over `u64` samples.
///
/// Samples land in power-of-two buckets (bucket `i` holds values whose
/// highest set bit is `i - 1`; bucket 0 holds zero), so `record` is O(1)
/// and the whole histogram is a fixed 65-slot array regardless of range.
/// Quantiles are estimated by linear interpolation inside the bucket that
/// crosses the requested rank — good to within a factor-of-two bucket
/// width, which is plenty for latency attribution — except for the very
/// last sample, where [`Histogram::max`] is exact.
///
/// The machine uses this for migration-span segment latencies (in
/// picoseconds) and descriptor-channel queue depths; see
/// [`Stats::record_hist`].
///
/// # Examples
///
/// ```
/// use flick_sim::Histogram;
///
/// let mut h = Histogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000);
/// let p50 = h.quantile(0.50);
/// assert!((256..=512).contains(&p50));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[i]` counts samples in
    /// `[2^(i-1), 2^i)` for `i in 1..=64`.
    buckets: [u64; 65],
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            total: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.total += u128::from(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, zero when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.total / u128::from(self.count)) as u64
        }
    }

    /// Estimated value at quantile `q` (clamped to `0.0..=1.0`), zero when
    /// empty. The estimate interpolates linearly within the bucket that
    /// crosses rank `q * count`. The bucket's nominal power-of-two value
    /// range is first tightened against the observed extremes — every
    /// sample in the crossing bucket lies in `[max(lo, min), min(hi,
    /// max+1))` — so tight distributions (all samples in a narrow slice of
    /// one bucket) are not overstated by a whole bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0.0f64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= rank {
                // Interpolate inside bucket `i`: value range [lo, hi).
                let (lo, hi) = if i == 0 {
                    (0u64, 1u64)
                } else {
                    (1u64 << (i - 1), if i == 64 { u64::MAX } else { 1u64 << i })
                };
                // Tighten against observed extremes: the bucket holds at
                // least one sample, and all samples are in [min, max].
                let lo = lo.max(self.min);
                let hi = hi.min(self.max.saturating_add(1)).max(lo + 1);
                let frac = if n == 0 { 0.0 } else { (rank - seen) / n as f64 };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen = next;
        }
        self.max
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate — the tail that decides serving
    /// viability under open-loop load.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// A bag of named counters, used by the machine to expose run statistics
/// (migrations, faults, TLB misses, DMA bursts, instructions retired, …).
///
/// Alongside the flat counters, a `Stats` can carry named [`Histogram`]s
/// (migration-span segment latencies, queue-depth gauges). The histogram
/// map is empty unless something records into it, so runs that never use
/// it produce `Stats` indistinguishable from pre-histogram builds.
///
/// # Examples
///
/// ```
/// use flick_sim::Stats;
///
/// let mut s = Stats::default();
/// s.bump("nx_faults");
/// s.bump_by("instructions", 100);
/// assert_eq!(s.get("nx_faults"), 1);
/// assert_eq!(s.get("missing"), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Stats {
    /// Increments counter `name` by one.
    pub fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Increments counter `name` by `n`.
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads counter `name`, zero when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Adds one sample to histogram `name`, creating it when absent.
    /// The key is allocated only on that first insert.
    pub fn record_hist(&mut self, name: &str, sample: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(sample);
        } else {
            self.hists
                .entry(name.to_string())
                .or_default()
                .record(sample);
        }
    }

    /// Reads histogram `name`, `None` when absent.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Iterates `(name, histogram)` in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another stats bag into this one (summing counters and
    /// merging histograms).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.hists() {
            self.hists.entry(k.to_string()).or_default().merge(h);
        }
    }

    /// Clears every counter and histogram.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.hists.clear();
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:>32}: {v}")?;
        }
        for (k, h) in &self.hists {
            writeln!(f, "{k:>32}: {h}")?;
        }
        Ok(())
    }
}

/// Summary of a sample of durations: count, mean, min, max.
///
/// # Examples
///
/// ```
/// use flick_sim::{Picos, Summary};
///
/// let mut s = Summary::default();
/// s.record(Picos::from_micros(18));
/// s.record(Picos::from_micros(20));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), Picos::from_micros(19));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    total: Picos,
    min: Option<Picos>,
    max: Option<Picos>,
}

impl Summary {
    /// Adds one sample.
    pub fn record(&mut self, sample: Picos) {
        self.count += 1;
        self.total += sample;
        self.min = Some(match self.min {
            Some(m) => m.min(sample),
            None => sample,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(sample),
            None => sample,
        });
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> Picos {
        self.total
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> Picos {
        if self.count == 0 {
            Picos::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<Picos> {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> Option<Picos> {
        self.max
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} min={} max={}",
            self.count,
            self.mean(),
            self.min.unwrap_or(Picos::ZERO),
            self.max.unwrap_or(Picos::ZERO)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn stats_bump_and_get() {
        let mut s = Stats::default();
        s.bump("a");
        s.bump("a");
        s.bump_by("b", 5);
        assert_eq!(s.get("a"), 2);
        assert_eq!(s.get("b"), 5);
        assert_eq!(s.get("c"), 0);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = Stats::default();
        a.bump_by("x", 2);
        let mut b = Stats::default();
        b.bump_by("x", 3);
        b.bump("y");
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::default();
        for us in [5u64, 1, 9, 3] {
            s.record(Picos::from_micros(us));
        }
        assert_eq!(s.min(), Some(Picos::from_micros(1)));
        assert_eq!(s.max(), Some(Picos::from_micros(9)));
        assert_eq!(s.mean(), Picos::from_micros(18) / 4);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        let s = Summary::default();
        assert_eq!(s.mean(), Picos::ZERO);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn histogram_single_sample_quantiles_are_exact() {
        let mut h = Histogram::default();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        // Every quantile clamps into [min, max] = {42}.
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_order_and_bounds() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        // Log-bucket estimate is within a factor of two of the truth.
        assert!((2_500..=10_000).contains(&p50), "p50={p50}");
        assert!((4_500..=10_000).contains(&p90), "p90={p90}");
        assert_eq!(h.max(), 10_000);
    }

    /// Nearest-rank quantile over a sorted sample vector, matching the
    /// histogram's `rank = q * count` crossing rule.
    fn ref_quantile(sorted: &[u64], q: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    #[test]
    fn histogram_quantile_tracks_sorted_reference() {
        // Property: across seeded uniform / tight / bimodal / constant
        // distributions, every estimated quantile (a) is monotone in q,
        // (b) stays inside the observed [min, max], and (c) lands in the
        // same log2 bucket as the sorted-vector reference, i.e. within a
        // factor of two.
        for seed in 0..8u64 {
            let mut rng = crate::rng::Xoshiro256::seeded(0xC0FFEE + seed);
            let mut dists: Vec<Vec<u64>> = Vec::new();
            dists.push((0..5_000).map(|_| rng.gen_range(1, 1_000_000)).collect());
            dists.push((0..5_000).map(|_| rng.gen_range(1_024, 1_101)).collect());
            dists.push(
                (0..4_000)
                    .map(|i| {
                        if i % 10 == 0 {
                            rng.gen_range(1 << 20, 1 << 21)
                        } else {
                            rng.gen_range(100, 200)
                        }
                    })
                    .collect(),
            );
            dists.push(vec![77; 1_000]);
            for samples in dists {
                let mut h = Histogram::default();
                let mut sorted = samples.clone();
                for &v in &samples {
                    h.record(v);
                }
                sorted.sort_unstable();
                let mut prev = 0u64;
                for q in [0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                    let est = h.quantile(q);
                    let truth = ref_quantile(&sorted, q);
                    assert!(est >= prev, "quantiles not monotone at q={q}");
                    assert!(
                        (h.min()..=h.max()).contains(&est),
                        "q={q}: est {est} outside [{}, {}]",
                        h.min(),
                        h.max()
                    );
                    assert!(
                        est <= truth.saturating_mul(2) && est >= truth / 2,
                        "q={q}: est {est} not within 2x of reference {truth}"
                    );
                    prev = est;
                }
            }
        }
    }

    #[test]
    fn histogram_tight_distribution_not_overstated() {
        // All samples in [1024, 1100]: the distribution occupies a thin
        // slice of the [1024, 2048) bucket. Interpolating over the full
        // bucket width put p50 at ~1536, clamped back to 1100 — i.e. the
        // "median" reported the maximum. Tightened interpolation against
        // the observed [min, max] lands next to the true median.
        let mut rng = crate::rng::Xoshiro256::seeded(0xBEEF);
        let samples: Vec<u64> = (0..5_000).map(|_| rng.gen_range(1_024, 1_101)).collect();
        let mut h = Histogram::default();
        let mut sorted = samples.clone();
        for &v in &samples {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.50, 0.99, 0.999] {
            let est = h.quantile(q);
            let truth = ref_quantile(&sorted, q);
            assert!(
                est.abs_diff(truth) <= 8,
                "q={q}: est {est} vs reference {truth}"
            );
        }
        assert!(h.p50() < 1_100, "tight-distribution p50 clamped to max");
    }

    #[test]
    fn histogram_p999_orders_with_tail() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let (p99, p999) = (h.p99(), h.p999());
        assert!(p99 <= p999 && p999 <= h.max());
        // The tightened estimate keeps the 99.9th inside the true tail's
        // bucket: within a factor of two of 99_900.
        assert!((50_000..=100_000).contains(&p999), "p999={p999}");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [3u64, 17, 900, 5] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 2_000_000, 64] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn stats_hist_roundtrip_and_merge() {
        let mut s = Stats::default();
        s.record_hist("seg", 10);
        s.record_hist("seg", 20);
        assert_eq!(s.hist("seg").unwrap().count(), 2);
        assert!(s.hist("missing").is_none());

        let mut t = Stats::default();
        t.record_hist("seg", 30);
        t.record_hist("other", 1);
        s.merge(&t);
        assert_eq!(s.hist("seg").unwrap().count(), 3);
        assert_eq!(s.hist("other").unwrap().count(), 1);
        assert_eq!(s.hists().count(), 2);

        s.clear();
        assert_eq!(s.hists().count(), 0);
    }

    #[test]
    fn stats_display_appends_hists_only_when_present() {
        let mut s = Stats::default();
        s.bump("a");
        let plain = s.to_string();
        assert!(!plain.contains("p50"));
        s.record_hist("lat", 100);
        let with = s.to_string();
        assert!(with.contains("lat"));
        assert!(with.contains("p50"));
    }
}

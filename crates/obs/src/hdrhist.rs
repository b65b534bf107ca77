//! Log-bucketed (HDR-style) latency histograms over integer nanoseconds.
//!
//! A linear binning cannot resolve a 460 ns cache hit and a 40 ms stall
//! in one instrument: any bin width wide enough for the stall is five
//! orders of magnitude too coarse for the hit. [`HdrHistogram`] keeps
//! *relative* resolution instead — bucket width grows with magnitude,
//! like the classic HdrHistogram — so one instrument spans nanoseconds
//! to minutes with a bounded worst-case quantile error.
//!
//! Layout (all derived from two integers, so bucket boundaries are a
//! deterministic pure function of the configuration):
//!
//! * values below `2^sub_bits` get exact unit-width buckets;
//! * above that, each power-of-two octave is split into
//!   `2^(sub_bits-1)` equal sub-buckets, giving a worst-case relative
//!   error of `2^-(sub_bits-1)` (6.25 % at the default `sub_bits = 5`);
//! * values above `max_trackable` are clamped into the top bucket and
//!   counted in `saturated` — recording never fails and never drops.
//!
//! Two histograms built with the same configuration have identical
//! boundaries, which is what makes [`HdrHistogram::merge`] exact:
//! per-thread instances can be folded into one without re-binning, and
//! the merged quantiles equal the quantiles of the combined stream (to
//! within bucket resolution). Quantile queries return the highest value
//! equivalent to the bucket the rank lands in, mirroring the cumulative
//! `le` semantics of the Prometheus exposition in
//! [`crate::exporter::to_prometheus_text`].

use std::sync::{Arc, Mutex};

/// Default sub-bucket precision: 32 unit buckets, then 16 sub-buckets
/// per octave (≤ 6.25 % relative error).
pub const DEFAULT_SUB_BITS: u32 = 5;

/// Default saturation point: 60 s in nanoseconds — far beyond any
/// request the exporter's 2 s socket timeouts would let live.
pub const DEFAULT_MAX_NS: u64 = 60_000_000_000;

/// A log-bucketed histogram of `u64` observations (nanoseconds by
/// convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    sub_bits: u32,
    max_trackable: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min_seen: u64,
    max_seen: u64,
    saturated: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// A histogram with the default precision and range
    /// ([`DEFAULT_SUB_BITS`], [`DEFAULT_MAX_NS`]).
    pub fn new() -> HdrHistogram {
        HdrHistogram::with_config(DEFAULT_SUB_BITS, DEFAULT_MAX_NS)
    }

    /// A histogram with `2^sub_bits` unit buckets, `2^(sub_bits-1)`
    /// sub-buckets per octave, and saturation at `max_trackable`.
    ///
    /// `sub_bits` must be in `2..=16` and `max_trackable >= 2^sub_bits`.
    pub fn with_config(sub_bits: u32, max_trackable: u64) -> HdrHistogram {
        assert!(
            (2..=16).contains(&sub_bits),
            "sub_bits {sub_bits} out of range 2..=16"
        );
        assert!(
            max_trackable >= (1 << sub_bits),
            "max_trackable {max_trackable} below the unit-bucket range"
        );
        let mut h = HdrHistogram {
            sub_bits,
            max_trackable,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min_seen: 0,
            max_seen: 0,
            saturated: 0,
        };
        let buckets = h.index_for(max_trackable) + 1;
        h.counts = vec![0; buckets];
        h
    }

    /// Sub-bucket precision bits of this configuration.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// The saturation point: larger observations clamp here.
    pub fn max_trackable(&self) -> u64 {
        self.max_trackable
    }

    /// Total observations recorded (saturated ones included).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded (clamped) observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min_seen
    }

    /// Largest recorded (clamped) observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Observations clamped at [`max_trackable`](Self::max_trackable).
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// The bucket index holding `v` (after clamping to the trackable
    /// range).
    fn index_for(&self, v: u64) -> usize {
        let v = v.min(self.max_trackable);
        let sub = 1u64 << self.sub_bits;
        if v < sub {
            return v as usize;
        }
        let m = 63 - v.leading_zeros(); // 2^m <= v < 2^(m+1), m >= sub_bits
        let shift = m - self.sub_bits + 1;
        let half = (sub / 2) as usize;
        let top = (v >> shift) as usize; // in [half, 2*half)
        sub as usize + (m - self.sub_bits) as usize * half + (top - half)
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers.
    fn bucket_range(&self, i: usize) -> (u64, u64) {
        let sub = 1u64 << self.sub_bits;
        if (i as u64) < sub {
            return (i as u64, i as u64 + 1);
        }
        let half = sub / 2;
        let j = i as u64 - sub;
        let octave = j / half;
        let pos = j % half;
        let shift = octave + 1;
        let lo = (half + pos) << shift;
        (lo, lo + (1 << shift))
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let clamped = v.min(self.max_trackable);
        if v > self.max_trackable {
            self.saturated += 1;
        }
        let i = self.index_for(clamped);
        self.counts[i] += 1;
        if self.total == 0 {
            self.min_seen = clamped;
            self.max_seen = clamped;
        } else {
            self.min_seen = self.min_seen.min(clamped);
            self.max_seen = self.max_seen.max(clamped);
        }
        self.total += 1;
        self.sum += u128::from(clamped);
    }

    /// Folds `other` into `self`. Both histograms must share a
    /// configuration (same boundaries), which makes the merge exact.
    pub fn merge(&mut self, other: &HdrHistogram) {
        assert_eq!(
            (self.sub_bits, self.max_trackable),
            (other.sub_bits, other.max_trackable),
            "cannot merge HDR histograms with different configurations"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if other.total > 0 {
            if self.total == 0 {
                self.min_seen = other.min_seen;
                self.max_seen = other.max_seen;
            } else {
                self.min_seen = self.min_seen.min(other.min_seen);
                self.max_seen = self.max_seen.max(other.max_seen);
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.saturated += other.saturated;
    }

    /// The `q`-quantile (`0 < q <= 1`) as the highest value equivalent
    /// to the bucket the rank lands in — i.e. the smallest exposed `le`
    /// boundary with cumulative count ≥ `ceil(q · total)`. `None` when
    /// empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(self.bucket_range(i).1 - 1);
            }
        }
        Some(self.bucket_range(self.counts.len() - 1).1 - 1)
    }

    /// Non-empty buckets as `(le, count)` pairs, ascending, where `le`
    /// is the bucket's inclusive upper value bound.
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_range(i).1 - 1, c))
            .collect()
    }

    /// Clears all recorded data, keeping the configuration.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min_seen = 0;
        self.max_seen = 0;
        self.saturated = 0;
    }
}

/// A shareable, thread-safe handle to one registered [`HdrHistogram`]
/// (see [`crate::metrics::Registry::hdr`]). Cloning shares storage.
#[derive(Debug, Clone)]
pub struct HdrHandle(Arc<Mutex<HdrHistogram>>);

impl HdrHandle {
    /// Wraps a histogram in a shareable handle.
    pub fn new(hist: HdrHistogram) -> HdrHandle {
        HdrHandle(Arc::new(Mutex::new(hist)))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.lock().expect("hdr histogram poisoned").record(v);
    }

    /// Runs `f` against the current state.
    pub fn with<R>(&self, f: impl FnOnce(&HdrHistogram) -> R) -> R {
        f(&self.0.lock().expect("hdr histogram poisoned"))
    }

    /// Clears recorded data, keeping the configuration.
    pub fn clear(&self) {
        self.0.lock().expect("hdr histogram poisoned").clear();
    }

    /// A frozen copy for rendering.
    pub fn snapshot(&self) -> HdrSnapshot {
        self.with(|h| HdrSnapshot::from(h))
    }
}

/// A frozen [`HdrHistogram`]: sparse non-empty buckets plus the scalar
/// aggregates, as embedded in [`crate::metrics::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrSnapshot {
    /// Sub-bucket precision bits.
    pub sub_bits: u32,
    /// Saturation point.
    pub max_trackable: u64,
    /// Total observations.
    pub total: u64,
    /// Exact sum of clamped observations.
    pub sum: u128,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest clamped observation (0 when empty).
    pub max: u64,
    /// Observations clamped at `max_trackable`.
    pub saturated: u64,
    /// Non-empty buckets as `(le, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl From<&HdrHistogram> for HdrSnapshot {
    fn from(h: &HdrHistogram) -> Self {
        HdrSnapshot {
            sub_bits: h.sub_bits,
            max_trackable: h.max_trackable,
            total: h.total,
            sum: h.sum,
            min: h.min_seen,
            max: h.max_seen,
            saturated: h.saturated,
            buckets: h.nonzero_buckets(),
        }
    }
}

impl HdrSnapshot {
    /// The `q`-quantile over the frozen buckets (`None` when empty);
    /// same semantics as [`HdrHistogram::value_at_quantile`].
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for &(le, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(le);
            }
        }
        self.buckets.last().map(|&(le, _)| le)
    }

    /// Cumulative `(le, count)` pairs over the non-empty buckets — the
    /// series the Prometheus exposition emits (plus `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .map(|&(le, c)| {
                cum += c;
                (le, cum)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        let h = HdrHistogram::new();
        for v in 0..(1 << DEFAULT_SUB_BITS) {
            let (lo, hi) = h.bucket_range(h.index_for(v));
            assert_eq!((lo, hi), (v, v + 1), "value {v} must get a unit bucket");
        }
    }

    #[test]
    fn bucket_boundaries_are_deterministic_and_contiguous() {
        let h = HdrHistogram::with_config(5, 1 << 20);
        let mut expected_lo = 0u64;
        for i in 0..h.counts.len() {
            let (lo, hi) = h.bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} not contiguous");
            assert!(hi > lo);
            expected_lo = hi;
        }
        // Every value indexes into the bucket whose range contains it.
        for v in [0, 1, 31, 32, 33, 100, 1023, 1024, 65_535, 1 << 20] {
            let (lo, hi) = h.bucket_range(h.index_for(v));
            assert!(
                lo <= v && v < hi,
                "value {v} outside its bucket [{lo},{hi})"
            );
        }
        // Same config ⇒ same boundaries.
        let h2 = HdrHistogram::with_config(5, 1 << 20);
        assert_eq!(h.counts.len(), h2.counts.len());
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = HdrHistogram::new();
        let half = (1u64 << (DEFAULT_SUB_BITS - 1)) as f64;
        for v in [100u64, 460, 999, 40_000_000, 7_777_777_777] {
            let (lo, hi) = h.bucket_range(h.index_for(v));
            let err = (hi - 1 - lo) as f64 / lo as f64;
            assert!(err <= 1.0 / half + 1e-12, "value {v}: error {err}");
        }
    }

    #[test]
    fn resolves_cache_hit_and_stall_in_one_instrument() {
        // The motivating case: 460 ns and 40 ms land in distinct buckets
        // with small relative error — impossible for one linear binning.
        let mut h = HdrHistogram::new();
        h.record(460);
        h.record(40_000_000);
        assert_ne!(h.index_for(460), h.index_for(40_000_000));
        let p50 = h.value_at_quantile(0.5).unwrap();
        let p100 = h.value_at_quantile(1.0).unwrap();
        assert!((p50 as f64 - 460.0).abs() / 460.0 < 0.07, "p50 {p50}");
        assert!(
            (p100 as f64 - 4e7).abs() / 4e7 < 0.07,
            "p100 {p100} too far from the 40 ms stall"
        );
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = HdrHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 10_000);
        assert_eq!(h.sum(), (10_000u128 * 10_001) / 2);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, want) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.value_at_quantile(q).unwrap() as f64;
            assert!(
                (got - want).abs() / want < 0.07,
                "q={q}: got {got}, want ~{want}"
            );
        }
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let mut h = HdrHistogram::with_config(3, 1000);
        h.record(5);
        h.record(10_000);
        h.record(u64::MAX);
        assert_eq!(h.total(), 3);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 5 + 1000 + 1000);
        assert_eq!(
            h.value_at_quantile(1.0),
            Some(h.bucket_range(h.counts.len() - 1).1 - 1)
        );
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut combined = HdrHistogram::new();
        for v in [12u64, 460, 999, 5_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [3u64, 40_000_000, 81, 81] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined, "merge must equal the combined stream");
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merge_rejects_mismatched_configs() {
        let mut a = HdrHistogram::with_config(4, 1 << 20);
        let b = HdrHistogram::with_config(5, 1 << 20);
        a.merge(&b);
    }

    #[test]
    fn snapshot_buckets_and_cumulative() {
        let mut h = HdrHistogram::with_config(2, 48);
        for v in [1u64, 5, 7, 100] {
            h.record(v);
        }
        let snap = HdrSnapshot::from(&h);
        assert_eq!(snap.total, 4);
        assert_eq!(snap.saturated, 1);
        assert_eq!(snap.sum, 1 + 5 + 7 + 48);
        assert_eq!(snap.buckets, vec![(1, 1), (5, 1), (7, 1), (63, 1)]);
        assert_eq!(
            snap.cumulative_buckets(),
            vec![(1, 1), (5, 2), (7, 3), (63, 4)]
        );
        assert_eq!(snap.value_at_quantile(0.5), Some(5));
        assert_eq!(snap.value_at_quantile(1.0), Some(63));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = HdrHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.value_at_quantile(0.5), None);
        let snap = HdrSnapshot::from(&h);
        assert_eq!(snap.value_at_quantile(0.99), None);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn handle_shares_storage_and_merges_thread_locals() {
        let handle = HdrHandle::new(HdrHistogram::new());
        let h2 = handle.clone();
        handle.observe(100);
        h2.observe(200);
        assert_eq!(handle.with(|h| h.total()), 2);
        // Per-thread locals folded into the shared histogram.
        let mut local = HdrHistogram::new();
        local.record(300);
        handle.0.lock().unwrap().merge(&local);
        assert_eq!(handle.with(|h| h.total()), 3);
        handle.clear();
        assert_eq!(handle.with(|h| h.total()), 0);
    }

    #[test]
    fn clear_keeps_configuration() {
        let mut h = HdrHistogram::with_config(4, 1 << 16);
        h.record(77);
        let buckets = h.counts.len();
        h.clear();
        assert_eq!(h.total(), 0);
        assert_eq!(h.counts.len(), buckets);
        h.record(77); // still usable
        assert_eq!(h.total(), 1);
    }
}

//! Statistics collection: running summaries, histograms, busy-time
//! accumulators and the metric registry.

use crate::json::{self, ToJson};
use crate::snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use crate::Cycle;

/// Running univariate summary (count / mean / min / max / variance) using
/// Welford's numerically stable online algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// New empty summary.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation; 0 if fewer than 2 observations.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum observation; 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation; 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

// Welford state travels as `f64` bit patterns (±∞ sentinels of an empty
// summary included), so post-restore records continue the identical
// numeric trajectory.
snap_struct!(Summary { n, mean, m2, min, max, sum });

/// Fixed-bucket histogram over `u64` values with an overflow bucket.
///
/// Bucket `i` counts values in `[i * width, (i+1) * width)`; values at or
/// beyond `buckets * width` land in the overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Histogram with `buckets` buckets of `width` each.
    pub fn new(width: u64, buckets: usize) -> Self {
        assert!(width > 0 && buckets > 0);
        Self { width, counts: vec![0; buckets], overflow: 0, summary: Summary::new() }
    }

    /// Record an observation.
    pub fn record(&mut self, x: u64) {
        let b = (x / self.width) as usize;
        if b < self.counts.len() {
            self.counts[b] += 1;
        } else {
            self.overflow += 1;
        }
        self.summary.record(x as f64);
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of regular buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Count of values beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Underlying summary statistics.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Value below which `q` (0..=1) of observations fall, estimated from
    /// bucket midpoints. Returns 0 for an empty histogram.
    ///
    /// A quantile landing in the overflow bucket reports the observed
    /// maximum ([`Summary::max`]): the overflow bucket is unbounded above,
    /// so its lower edge could understate the true value arbitrarily.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Cover at least one observation: a raw target of 0 (q = 0.0)
        // would otherwise satisfy `acc >= target` on the first bucket
        // even when that bucket is empty.
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i as u64 * self.width + self.width / 2;
            }
        }
        self.summary.max() as u64
    }
}

impl Snap for Histogram {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.width);
        self.counts.save(w);
        w.put_u64(self.overflow);
        self.summary.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let width = r.get_u64()?;
        let counts = Vec::load(r)?;
        if width == 0 || counts.is_empty() {
            return Err(SnapError::Corrupt("histogram with no buckets".to_string()));
        }
        Ok(Self { width, counts, overflow: r.get_u64()?, summary: Summary::load(r)? })
    }
}

/// Busy-time accumulator: tracks the total cycles a resource was busy, for
/// utilization and occupancy metrics where the resource is either busy or
/// idle (e.g. the directory controller).
#[derive(Debug, Clone, Default)]
pub struct BusyTime {
    total_busy: u64,
    busy_until: Cycle,
}

impl BusyTime {
    /// New accumulator (idle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the resource for `dur` cycles starting no earlier than `now`;
    /// if the resource is still busy, the work queues behind it.
    /// Returns the cycle at which this work completes.
    pub fn occupy(&mut self, now: Cycle, dur: Cycle) -> Cycle {
        let start = self.busy_until.max(now);
        self.busy_until = start + dur;
        self.total_busy += dur;
        self.busy_until
    }

    /// Earliest cycle at which the resource is free.
    pub fn free_at(&self) -> Cycle {
        self.busy_until
    }

    /// Total busy cycles accumulated.
    pub fn total(&self) -> u64 {
        self.total_busy
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.total_busy as f64 / now as f64
        }
    }
}

snap_struct!(BusyTime { total_busy, busy_until });

/// One exported metric value — a snapshot, detached from the live tracker.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Integer counter or gauge.
    Counter(u64),
    /// Floating-point gauge (means, utilizations, ratios).
    Gauge(f64),
    /// Snapshot of a [`Summary`].
    Summary {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Arithmetic mean.
        mean: f64,
        /// Minimum observation (0 when empty).
        min: f64,
        /// Maximum observation (0 when empty).
        max: f64,
        /// Population standard deviation.
        stddev: f64,
    },
    /// Snapshot of a [`Histogram`]: the non-empty buckets plus quantiles.
    Histogram {
        /// Bucket width.
        width: u64,
        /// `(lower_edge, count)` for each non-empty regular bucket.
        buckets: Vec<(u64, u64)>,
        /// Count of values beyond the last bucket.
        overflow: u64,
        /// Estimated median.
        p50: u64,
        /// Estimated 90th percentile.
        p90: u64,
        /// Estimated 99th percentile.
        p99: u64,
        /// Exact maximum observation.
        max: u64,
    },
}

impl Metric {
    /// The integer value, if this is a [`Metric::Counter`].
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

impl ToJson for Metric {
    fn write_json(&self, out: &mut String) {
        match self {
            Metric::Counter(v) => v.write_json(out),
            Metric::Gauge(v) => v.write_json(out),
            Metric::Summary { count, sum, mean, min, max, stddev } => {
                json::object(out, |o| {
                    o.field("count", count).field("sum", sum).field("mean", mean);
                    o.field("min", min).field("max", max).field("stddev", stddev);
                });
            }
            Metric::Histogram { width, buckets, overflow, p50, p90, p99, max } => {
                json::object(out, |o| {
                    o.field("width", width).field("buckets", buckets).field("overflow", overflow);
                    o.field("p50", p50).field("p90", p90).field("p99", p99).field("max", max);
                });
            }
        }
    }
}

/// Ordered name → [`Metric`] registry, exported per-run into the
/// farm's `/jobs` rows and printable as one JSON object keyed by metric
/// name ([`ToJson`]).
///
/// Insertion order is preserved (deterministic output); re-registering a
/// name overwrites its value in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register or overwrite a metric under `name`.
    pub fn set(&mut self, name: &str, value: Metric) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Register an integer counter/gauge.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.set(name, Metric::Counter(v));
    }

    /// Register a floating-point gauge.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.set(name, Metric::Gauge(v));
    }

    /// Register a snapshot of `s`.
    pub fn summary(&mut self, name: &str, s: &Summary) {
        self.set(
            name,
            Metric::Summary {
                count: s.count(),
                sum: s.sum(),
                mean: s.mean(),
                min: s.min(),
                max: s.max(),
                stddev: s.stddev(),
            },
        );
    }

    /// Register a snapshot of `h` (non-empty buckets + quantiles).
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        let buckets = h
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64 * h.width, c))
            .collect();
        self.set(
            name,
            Metric::Histogram {
                width: h.width(),
                buckets,
                overflow: h.overflow(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
                max: h.summary().max() as u64,
            },
        );
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate `(name, metric)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another registry's entries into this one, prefixing each
    /// name with `prefix` (e.g. `"net."`).
    pub fn absorb(&mut self, prefix: &str, other: &Registry) {
        for (name, v) in other.iter() {
            self.set(&format!("{prefix}{name}"), v.clone());
        }
    }

    /// Human-readable `name = value` lines, in insertion order.
    pub fn lines(&self) -> Vec<String> {
        self.iter().map(|(name, v)| format!("{name} = {}", v.to_json())).collect()
    }
}

impl ToJson for Registry {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            for (name, v) in self.iter() {
                o.field(name, v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_min_max_stddev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        h.record(1000); // overflow
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
    }

    /// q = 0.0 must report the bucket of the *smallest observation*, not
    /// the (possibly empty) first bucket. Regression: the old target of
    /// `ceil(0.0 * n) = 0` satisfied `acc >= target` immediately.
    #[test]
    fn histogram_quantile_zero_skips_empty_leading_buckets() {
        let mut h = Histogram::new(10, 10);
        h.record(55);
        h.record(72);
        assert_eq!(h.quantile(0.0), 55, "min lives in bucket [50,60) -> midpoint 55");
        assert_eq!(h.quantile(1.0), 75);
    }

    /// Quantiles landing in the overflow bucket must report the observed
    /// maximum, not the overflow bucket's lower edge. Regression: with
    /// every value in overflow, the old code returned `buckets * width`
    /// (50 here) while the true values were 20x larger.
    #[test]
    fn histogram_quantile_all_overflow_reports_true_max() {
        let mut h = Histogram::new(10, 5);
        for x in [900, 950, 1000] {
            h.record(x);
        }
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(1.0), h.summary().max() as u64, "consistent with summary");
    }

    /// Mixed case: p50 resolves in a regular bucket, p99 in overflow; the
    /// overflow report must never be below the last regular midpoint.
    #[test]
    fn histogram_quantile_overflow_tail_is_monotone() {
        let mut h = Histogram::new(10, 5);
        for x in 0..49 {
            h.record(x);
        }
        h.record(777); // single overflow outlier
        assert!(h.quantile(0.5) < 50);
        assert_eq!(h.quantile(1.0), 777);
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_quantile_empty_is_zero() {
        let h = Histogram::new(10, 5);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn registry_preserves_order_overwrites_and_renders_json() {
        let mut r = Registry::new();
        r.counter("cycles", 100);
        r.gauge("util", 0.25);
        let mut s = Summary::new();
        s.record(2.0);
        s.record(4.0);
        r.summary("lat", &s);
        let mut h = Histogram::new(10, 5);
        h.record(5);
        h.record(999);
        r.histogram("dist", &h);
        r.counter("cycles", 200); // overwrite keeps position
        assert_eq!(r.len(), 4);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["cycles", "util", "lat", "dist"]);
        assert_eq!(r.get("cycles"), Some(&Metric::Counter(200)));
        assert_eq!(r.get("cycles").unwrap().as_counter(), Some(200));
        assert_eq!(r.get("util").unwrap().as_counter(), None);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":200"));
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"buckets\":[[0,1]]"));
        assert!(j.contains("\"overflow\":1"));
        assert!(j.contains("\"max\":999"));
        let mut top = Registry::new();
        top.absorb("net.", &r);
        assert!(top.get("net.cycles").is_some());
        assert_eq!(top.lines()[0], "net.cycles = 200");
    }

    /// A metric name is a run-time string: it is escaped.
    #[test]
    fn registry_names_are_escaped() {
        let mut r = Registry::new();
        r.counter("a\"b", 1);
        let j = r.to_json();
        crate::json::validate_json(&j).unwrap_or_else(|e| panic!("{j}: {e}"));
        assert_eq!(j, r#"{"a\"b":1}"#);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new(1, 100);
        for x in 0..100 {
            h.record(x);
        }
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q50 <= q90);
        assert!((45..=55).contains(&q50), "median {q50}");
        assert!((85..=95).contains(&q90), "p90 {q90}");
    }

    #[test]
    fn busy_time_queues_work() {
        let mut b = BusyTime::new();
        let done1 = b.occupy(100, 10);
        assert_eq!(done1, 110);
        // Arrives while busy: queues behind.
        let done2 = b.occupy(105, 10);
        assert_eq!(done2, 120);
        // Arrives after idle period.
        let done3 = b.occupy(200, 5);
        assert_eq!(done3, 205);
        assert_eq!(b.total(), 25);
        assert!((b.utilization(250) - 0.1).abs() < 1e-12);
    }
}

//! Counters, gauges, log2-bucketed histograms, a named registry, and
//! Prometheus-style text exposition.
//!
//! Everything is plain `std` atomics: incrementing a [`Counter`] or
//! observing into a [`Histogram`] is one `fetch_add` (three for the
//! histogram: bucket, count, sum) — cheap enough for the engine's
//! per-request path and the elaborator's per-proof path.
//!
//! Histogram buckets are **fixed log2 boundaries in microseconds**:
//! `le ∈ {1, 2, 4, …, 2^21}` µs (≈ 2.1 s) plus `+Inf`. Fixed boundaries
//! mean two histograms (say, tracing-on vs tracing-off runs, or two
//! engine processes) are always mergeable bucket-by-bucket, and the
//! exposition never re-buckets — what lands in `le="64"` was ≤ 64 µs,
//! process-independently.
//!
//! Exposition follows the Prometheus text format conventions (`# HELP`,
//! `# TYPE`, cumulative `_bucket{le=…}` lines, `_sum`/`_count`) closely
//! enough for Prometheus itself or a human with `nc` to read; see
//! `docs/OBSERVABILITY.md` for every metric the stack exports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if it is lower: for a count read at
    /// render time from a monotone source, such as a clock.
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, workers busy).
#[derive(Default, Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets (upper bounds `2^0 … 2^(N-1)` µs).
pub const HISTOGRAM_BUCKETS: usize = 22;

/// A histogram of microsecond values over fixed log2 buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Values above the largest finite bound (the `+Inf` bucket).
    overflow: AtomicU64,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// Index of the smallest bucket whose upper bound `2^i` µs covers
/// `micros`, or `HISTOGRAM_BUCKETS` for the `+Inf` bucket.
pub fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    // ceil(log2(micros)): 2 → 1 (le=2), 3 → 2 (le=4), 4 → 2 (le=4) …
    let idx = (u64::BITS - (micros - 1).leading_zeros()) as usize;
    idx.min(HISTOGRAM_BUCKETS)
}

/// The upper bound, in microseconds, of finite bucket `i`.
pub fn bucket_bound_micros(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    /// A histogram with all buckets at zero.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records a value in microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let idx = bucket_index(micros);
        if idx < HISTOGRAM_BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records a duration (microsecond resolution).
    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros() as u64);
    }

    /// A point-in-time copy of all buckets and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of a [`Histogram`]'s state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Observations above the largest finite bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values, microseconds.
    pub sum_micros: u64,
}

// ---------------------------------------------------------------------
// Prometheus text exposition helpers.
// ---------------------------------------------------------------------

/// Appends one counter in Prometheus text format.
fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one gauge in Prometheus text format.
fn render_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one histogram in Prometheus text format (cumulative buckets,
/// `le` labels in microseconds, `_sum` in microseconds).
fn render_histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (i, b) in snap.buckets.iter().enumerate() {
        cum += b;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cum}",
            bucket_bound_micros(i)
        );
    }
    cum += snap.overflow;
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum {}", snap.sum_micros);
    let _ = writeln!(out, "{name}_count {}", snap.count);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics, rendered together. Each check session
/// (`fpop::Session`) owns one, and every layer working for that session
/// registers its instruments there once and keeps the returned handles,
/// so two sessions in one process never mix counts.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, (String, Metric)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it with
    /// `help` on first use. Panics if `name` is already a different
    /// metric type (a programming error worth failing loudly on).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut inner = self.inner.write().expect("registry poisoned");
        let entry = inner
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Counter(Arc::new(Counter::new()))));
        match &entry.1 {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// As [`Registry::counter`], for gauges.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut inner = self.inner.write().expect("registry poisoned");
        let entry = inner
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Gauge(Arc::new(Gauge::new()))));
        match &entry.1 {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// As [`Registry::counter`], for histograms.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut inner = self.inner.write().expect("registry poisoned");
        let entry = inner.entry(name.to_string()).or_insert_with(|| {
            (
                help.to_string(),
                Metric::Histogram(Arc::new(Histogram::new())),
            )
        });
        match &entry.1 {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The value of the counter registered under `name`, if there is one.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match &self.inner.read().expect("registry poisoned").get(name)?.1 {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders every registered metric in Prometheus text format, sorted
    /// by name.
    pub fn render(&self) -> String {
        let inner = self.inner.read().expect("registry poisoned");
        let mut out = String::new();
        for (name, (help, metric)) in inner.iter() {
            match metric {
                Metric::Counter(c) => render_counter(&mut out, name, help, c.get()),
                Metric::Gauge(g) => render_gauge(&mut out, name, help, g.get()),
                Metric::Histogram(h) => render_histogram(&mut out, name, help, &h.snapshot()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.raise_to(3);
        assert_eq!(c.get(), 5, "raise_to never lowers");
        c.raise_to(9);
        assert_eq!(c.get(), 9);
        let g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_boundaries_are_exact_log2() {
        // Boundary cases: a value equal to a bound lands IN that bound's
        // bucket; one above spills to the next.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0); // le=1
        assert_eq!(bucket_index(2), 1); // le=2
        assert_eq!(bucket_index(3), 2); // le=4
        assert_eq!(bucket_index(4), 2); // le=4
        assert_eq!(bucket_index(5), 3); // le=8
        assert_eq!(bucket_index(64), 6); // le=64
        assert_eq!(bucket_index(65), 7); // le=128
        let largest = bucket_bound_micros(HISTOGRAM_BUCKETS - 1);
        assert_eq!(largest, 2_097_152);
        assert_eq!(bucket_index(largest), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(largest + 1), HISTOGRAM_BUCKETS, "+Inf");
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS, "+Inf");
        // Every value v is covered by its bucket's bound…
        for v in [1u64, 2, 3, 7, 9, 100, 1023, 1025, 1 << 20] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound_micros(i), "v={v} bound covers");
            // …and not by the previous bound (tightness).
            if i > 0 {
                assert!(v > bucket_bound_micros(i - 1), "v={v} tight");
            }
        }
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::new();
        h.observe_micros(1);
        h.observe_micros(2);
        h.observe_micros(3);
        h.observe_micros(1 << 30); // overflow
        h.observe(Duration::from_micros(64));
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_micros, 1 + 2 + 3 + (1 << 30) + 64);
        assert_eq!(s.buckets[0], 1); // le=1: {1}
        assert_eq!(s.buckets[1], 1); // le=2: {2}
        assert_eq!(s.buckets[2], 1); // le=4: {3}
        assert_eq!(s.buckets[6], 1); // le=64: {64}
        assert_eq!(s.overflow, 1);
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_parses() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 100] {
            h.observe_micros(v);
        }
        let mut out = String::new();
        render_histogram(&mut out, "t_micros", "test histogram", &h.snapshot());
        assert!(out.contains("# TYPE t_micros histogram"));
        assert!(out.contains("t_micros_bucket{le=\"1\"} 2"));
        assert!(out.contains("t_micros_bucket{le=\"2\"} 3"));
        assert!(out.contains("t_micros_bucket{le=\"128\"} 4"));
        assert!(out.contains("t_micros_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("t_micros_sum 104"));
        assert!(out.contains("t_micros_count 4"));
        // Cumulative monotonicity across all bucket lines.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.starts_with("t_micros_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn registry_is_idempotent_and_renders_sorted() {
        let r = Registry::new();
        let a = r.counter("zz_total", "last");
        let b = r.counter("zz_total", "last");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same underlying counter");
        r.gauge("aa_depth", "first").set(7);
        r.histogram("mm_micros", "mid").observe_micros(3);
        let text = r.render();
        let zz = text.find("zz_total").unwrap();
        let aa = text.find("aa_depth").unwrap();
        let mm = text.find("mm_micros").unwrap();
        assert!(aa < mm && mm < zz, "sorted by name");
        assert!(text.contains("zz_total 2"));
        assert!(text.contains("aa_depth 7"));
        assert_eq!(r.counter_value("zz_total"), Some(2));
        assert_eq!(
            r.counter_value("aa_depth"),
            None,
            "a gauge is not a counter"
        );
        assert_eq!(r.counter_value("absent_total"), None);
    }

    #[test]
    fn counter_monotone_under_concurrency() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}

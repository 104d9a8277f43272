//! Process-wide metrics registry: counters, gauges, histograms.
//!
//! Metrics are named, registered once, and handed out as `&'static` handles
//! (leaked intentionally — the registry lives for the process). Hot paths
//! should cache the handle in a `OnceLock` so the steady-state cost of an
//! increment is a single striped atomic add; registration itself takes a
//! mutex but happens once per name.
//!
//! [`Counter`]s are lock-striped: increments scatter across 16 cache-line
//! padded atomics indexed by a per-thread id, so worker threads hammering
//! the same counter (tuner waves run on `parallel_map` threads) don't
//! serialize on one cache line. Reads sum the stripes — monotonic, but not
//! a point-in-time snapshot, which is fine for throughput counters.
//!
//! Everything here is resettable via [`reset_metrics`] so integration tests
//! that share a process can isolate their observations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

const STRIPES: usize = 16;

/// One cache line worth of counter stripe, padded to avoid false sharing.
#[repr(align(64))]
struct Stripe(AtomicU64);

/// Monotonic counter with lock-striped increments.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    fn new() -> Counter {
        Counter { stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))) }
    }

    /// Add `n` to the stripe owned by the calling thread.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[thread_stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across stripes. Monotonic but not an atomic snapshot.
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-write-wins signed gauge; [`Gauge::raise_to`] keeps a high-water mark.
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it reads lower.
    #[inline]
    pub fn raise_to(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets: values 0, 1, 2-3, 4-7, ... 2^62..; the
/// last bucket absorbs everything larger.
const BUCKETS: usize = 64;

/// Histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `i` (for `i > 0`) counts samples whose highest set bit is `i - 1`,
/// i.e. samples in `[2^(i-1), 2^i)`; bucket 0 counts zeros. Good enough to
/// read "most candidate evaluations took 256-512 µs" from, cheap enough to
/// record on every sample (one atomic add).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Max is tracked with a CAS loop; contention is negligible at our rates.
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Upper bound of the lowest bucket whose cumulative count reaches
    /// `q * count` (q in 0..=1). Coarse (power-of-two resolution) by design.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            if acc >= target.max(1) {
                return if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
            }
        }
        u64::MAX
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    // Poison-tolerant: the map is structurally consistent after every
    // operation; the only panic that can happen under the lock is the
    // kind-mismatch panic below, which leaves the map untouched.
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new())).lock().unwrap_or_else(|e| e.into_inner())
}

fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Look up or register the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Look up or register the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Look up or register the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
    {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// count, sum, max, mean, and the upper bounds of the buckets holding
    /// the median and the 99th percentile.
    Histogram {
        count: u64,
        sum: u64,
        max: u64,
        mean: f64,
        p50: u64,
        p99: u64,
    },
}

/// A named metric reading.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

/// Read every registered metric, sorted by name.
pub fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let reg = registry();
    reg.iter()
        .map(|(name, m)| MetricSnapshot {
            name: name.clone(),
            value: match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    mean: h.mean(),
                    p50: h.quantile_upper_bound(0.5),
                    p99: h.quantile_upper_bound(0.99),
                },
            },
        })
        .collect()
}

/// Zero every registered metric (names stay registered). For tests.
pub fn reset_metrics() {
    let reg = registry();
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// Render all registered metrics as an aligned two-column table.
pub fn render_metrics_table() -> String {
    let snaps = snapshot_metrics();
    let width = snaps.iter().map(|s| s.name.len()).max().unwrap_or(0).max(6);
    let mut out = String::new();
    out.push_str(&format!("{:<width$}  value\n", "metric"));
    for s in &snaps {
        let v = match &s.value {
            MetricValue::Counter(c) => format!("{c}"),
            MetricValue::Gauge(g) => format!("{g}"),
            MetricValue::Histogram { count, sum, max, mean, p50, p99 } => {
                format!("count={count} sum={sum} max={max} mean={mean:.1} p50<={p50} p99<={p99}")
            }
        };
        out.push_str(&format!("{:<width$}  {v}\n", s.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = counter("test.metrics.counter_threads");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn same_name_returns_same_handle() {
        let a = counter("test.metrics.same_handle") as *const Counter;
        let b = counter("test.metrics.same_handle") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("test.metrics.kind_clash");
        gauge("test.metrics.kind_clash");
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.metrics.gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.raise_to(2);
        assert_eq!(g.get(), 3, "a lower value leaves a high-water mark alone");
        g.raise_to(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = histogram("test.metrics.hist");
        for v in [0, 1, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        // All five samples fall at or below the 127 bucket (100 -> [64,128)).
        assert_eq!(h.quantile_upper_bound(1.0), 127);
        // Lowest bucket holds the single zero sample: p20 resolves to 0.
        assert_eq!(h.quantile_upper_bound(0.2), 0);
    }

    #[test]
    fn snapshot_lists_registered_names_sorted() {
        counter("test.metrics.snap_b").inc();
        counter("test.metrics.snap_a").inc();
        let names: Vec<String> = snapshot_metrics()
            .into_iter()
            .map(|s| s.name)
            .filter(|n| n.starts_with("test.metrics.snap_"))
            .collect();
        assert_eq!(names, vec!["test.metrics.snap_a", "test.metrics.snap_b"]);
    }

    #[test]
    fn table_renders_every_metric() {
        counter("test.metrics.table").add(7);
        let h = histogram("test.metrics.table_hist");
        for v in 1..=100 {
            h.record(v);
        }
        let t = render_metrics_table();
        assert!(t.contains("test.metrics.table"));
        // 50 samples are at most 63 and 99 at most 127: the bucket bounds.
        assert!(t.contains("max=100 mean=50.5 p50<=63 p99<=127"), "{t}");
    }
}

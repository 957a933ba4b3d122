//! Per-stage latency spans: monotonic-clock timers feeding lock-free
//! power-of-two histograms.
//!
//! The bucket layout matches the serve daemon's whole-request
//! histogram (bucket *i* covers `[2^i, 2^(i+1))` µs, with bucket 0
//! absorbing sub-µs observations and the last bucket open-ended), so
//! per-stage and whole-request quantiles read on the same scale.
//! Recording is wait-free (`Relaxed` counter bumps); snapshots are
//! advisory, like every other metrics read in the workspace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of power-of-two buckets: covers 1µs .. ~2^39µs (~6 days)
/// before the open-ended overflow bucket.
pub const BUCKETS: usize = 40;

/// The histogram bucket for a duration of `us` microseconds.
fn bucket_index(us: u64) -> usize {
    ((63 - us.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound (µs) of bucket `i` — the value quantiles
/// report. The last bucket is open-ended.
pub fn bucket_upper_bound_us(i: usize) -> u64 {
    (1u64 << (i + 1)) - 1
}

/// The `q`-quantile (as a bucket upper bound, µs) of `counts`, or 0
/// for an empty histogram.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper_bound_us(i);
        }
    }
    bucket_upper_bound_us(BUCKETS - 1)
}

/// A lock-free power-of-two latency histogram with sum and max
/// side-cars — enough to render a Prometheus histogram family. The
/// observation count is not stored: a snapshot derives it from the
/// buckets it loaded, so it can never disagree with them.
#[derive(Debug)]
pub struct Histogram {
    sum_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        // ordering: Relaxed — independent statistical counters; no
        // other memory is published through them and snapshots are
        // advisory.
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        // ordering: Relaxed — see above.
        self.max_us.fetch_max(us, Ordering::Relaxed);
        // ordering: Relaxed — see above.
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram. `count` is the sum of
    /// the copied buckets, so a snapshot taken mid-observation still
    /// renders a valid exposition (no cumulative bucket above
    /// `+Inf`/`_count`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            // ordering: Relaxed — advisory snapshot of independent
            // counters; the count is derived from these very loads.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            // ordering: Relaxed — see above.
            sum_us: self.sum_us.load(Ordering::Relaxed),
            // ordering: Relaxed — see above.
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations (µs).
    pub sum_us: u64,
    /// Largest observed duration (µs).
    pub max_us: u64,
    /// Per-bucket counts (power-of-two layout, [`BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (bucket upper bound, µs); 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        quantile_from_counts(&self.buckets, q)
    }
}

/// A named group of stage histograms — one per pipeline stage.
/// Stage names are fixed at construction; recording against an
/// unknown name is silently dropped (telemetry must never fail a
/// request).
#[derive(Debug)]
pub struct StageSet {
    stages: Vec<(&'static str, Histogram)>,
}

impl StageSet {
    /// A set with one empty histogram per name, in the given order
    /// (the order exposition and logs render in).
    pub fn new(names: &[&'static str]) -> StageSet {
        StageSet {
            stages: names.iter().map(|n| (*n, Histogram::new())).collect(),
        }
    }

    /// Record `us` against stage `name` (unknown names are dropped).
    pub fn observe_us(&self, name: &str, us: u64) {
        if let Some((_, h)) = self.stages.iter().find(|(n, _)| *n == name) {
            h.observe_us(us);
        }
    }

    /// Fold a request's `(stage, µs)` spans into the per-stage
    /// histograms.
    pub fn absorb(&self, spans: &[(&'static str, u64)]) {
        for (name, us) in spans {
            self.observe_us(name, *us);
        }
    }

    /// Iterate `(name, histogram)` in construction order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stages.iter().map(|(n, h)| (*n, h))
    }
}

/// Per-request span collection: the `(stage, µs)` pairs measured so
/// far, in recording order. Cheap enough to build per request; fold
/// into a [`StageSet`] at the end and hand to the slow log if the
/// request qualifies.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<(&'static str, u64)>,
}

impl SpanRecorder {
    /// An empty recorder for one request.
    pub fn start() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// Record a stage measured externally.
    pub fn record_us(&mut self, name: &'static str, us: u64) {
        self.spans.push((name, us));
    }

    /// Time `f` and record it as stage `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record_us(name, t0.elapsed().as_micros() as u64);
        out
    }

    /// The `(stage, µs)` pairs recorded so far.
    pub fn spans(&self) -> &[(&'static str, u64)] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_us(0.5), 0);
        assert_eq!(snap.quantile_us(0.99), 0);
        assert_eq!(snap.max_us, 0);
        assert_eq!(quantile_from_counts(&[], 0.5), 0);
    }

    #[test]
    fn observations_land_in_power_of_two_buckets() {
        let h = Histogram::new();
        h.observe_us(0); // clamps to bucket 0
        h.observe_us(1);
        h.observe_us(8);
        h.observe_us(4096);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 1 + 8 + 4096);
        assert_eq!(snap.max_us, 4096);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[3], 1); // 8µs → [8,16)
        assert_eq!(snap.buckets[12], 1); // 4096µs → [4096,8192)
        assert_eq!(snap.quantile_us(0.5), 1);
        assert_eq!(snap.quantile_us(1.0), 8191);
    }

    #[test]
    fn overflow_bucket_absorbs_absurd_durations() {
        let h = Histogram::new();
        h.observe_us(u64::MAX);
        h.observe_us(1u64 << 45);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.quantile_us(0.5), bucket_upper_bound_us(BUCKETS - 1));
    }

    #[test]
    fn snapshots_taken_mid_observation_stay_consistent() {
        use std::sync::atomic::AtomicBool;
        // Regression: `count` used to be loaded apart from the buckets,
        // so a snapshot racing an observer could render a cumulative
        // bucket above `+Inf`, which the exposition parser rejects.
        let h = Histogram::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut us = 0u64;
                // ordering: Relaxed — a lone stop flag.
                while !done.load(Ordering::Relaxed) {
                    h.observe_us(us % 5000);
                    us += 7;
                }
            });
            for _ in 0..2000 {
                let snap = h.snapshot();
                assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
                let mut x = crate::Exposition::new();
                x.histogram_us("race_us", "Observed while snapshotting.", &snap);
                let text = x.finish();
                if let Err(e) = crate::parse_exposition(&text) {
                    panic!("torn snapshot rendered an invalid exposition: {e}\n{text}");
                }
            }
            // ordering: Relaxed — see the load above.
            done.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn stage_set_routes_by_name_and_drops_unknowns() {
        let set = StageSet::new(&["parse", "score"]);
        set.observe_us("parse", 10);
        set.observe_us("score", 100);
        set.observe_us("nonexistent", 5);
        let counts: Vec<(&str, u64)> = set.iter().map(|(n, h)| (n, h.snapshot().count)).collect();
        assert_eq!(counts, vec![("parse", 1), ("score", 1)]);
    }

    #[test]
    fn recorder_times_stages_and_folds_into_a_set() {
        let mut rec = SpanRecorder::start();
        let v = rec.time("work", || 41 + 1);
        assert_eq!(v, 42);
        rec.record_us("queue_wait", 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1], ("queue_wait", 7));
        let set = StageSet::new(&["work", "queue_wait"]);
        set.absorb(rec.spans());
        for (_, h) in set.iter() {
            assert_eq!(h.snapshot().count, 1);
        }
    }
}

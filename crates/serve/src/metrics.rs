//! Lock-free serving metrics: the daemon's request counters by kind,
//! and the request [`Telemetry`] both serving tiers share.
//!
//! [`Telemetry`] owns what the daemon and the router measure the same
//! way: the process start, the whole-request latency histogram, the
//! per-stage histograms, and the optional slow/error trace log. Each
//! tier finishes every request through [`Telemetry::finish`] and
//! writes those five families into its `/metrics` with
//! [`Telemetry::expose`].
//!
//! Latencies go into a [`gpufreq_obs::Histogram`] — the power-of-two
//! layout the per-stage histograms use, so whole-request and stage
//! quantiles read on one scale. Quantiles are reported as the **upper
//! bound** of the bucket the quantile falls in — a conservative ≤2×
//! over-approximation that needs no stored samples, no locks, and no
//! floating point, which is all a `stats` request costs under load.

use crate::conn::error_code_of;
use crate::protocol::RequestCounts;
use crate::server::build_rev;
use gpufreq_obs::{trace, Exposition, Histogram, StageSet, TraceLog, TraceRecord};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Aggregate serving metrics; all methods take `&self` and are safe to
/// call from every worker and connection thread concurrently.
#[derive(Debug)]
pub struct Metrics {
    total: AtomicU64,
    predict: AtomicU64,
    predict_batch: AtomicU64,
    batch_kernels: AtomicU64,
    devices: AtomicU64,
    stats: AtomicU64,
    metrics: AtomicU64,
    shutdown: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    reload: AtomicU64,
    rejected_p99: AtomicU64,
    rejected_quota: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics {
            total: AtomicU64::new(0),
            predict: AtomicU64::new(0),
            predict_batch: AtomicU64::new(0),
            batch_kernels: AtomicU64::new(0),
            devices: AtomicU64::new(0),
            stats: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            shutdown: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            reload: AtomicU64::new(0),
            rejected_p99: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
        }
    }

    /// Count one incoming protocol line (well-formed or not).
    pub fn count_line(&self) {
        bump(&self.total, 1);
    }

    /// Count one `predict` request.
    pub fn count_predict(&self) {
        bump(&self.predict, 1);
    }

    /// Count one `predict_batch` request carrying `kernels` sources.
    pub fn count_predict_batch(&self, kernels: usize) {
        bump(&self.predict_batch, 1);
        bump(&self.batch_kernels, kernels as u64);
    }

    /// Count one `devices` request.
    pub fn count_devices(&self) {
        bump(&self.devices, 1);
    }

    /// Count one `stats` request.
    pub fn count_stats(&self) {
        bump(&self.stats, 1);
    }

    /// Count one `metrics` request (the exposition verb).
    pub fn count_metrics(&self) {
        bump(&self.metrics, 1);
    }

    /// Count one `shutdown` request.
    pub fn count_shutdown(&self) {
        bump(&self.shutdown, 1);
    }

    /// Count one error response (any code except `overloaded`).
    pub fn count_error(&self) {
        bump(&self.errors, 1);
    }

    /// Count one backpressure rejection (`overloaded`).
    pub fn count_rejected(&self) {
        bump(&self.rejected, 1);
    }

    /// Count one `reload` request (admin model hot-swap).
    pub fn count_reload(&self) {
        bump(&self.reload, 1);
    }

    /// Count one admission rejection caused by the windowed-p99 target.
    pub fn count_rejected_p99(&self) {
        bump(&self.rejected_p99, 1);
    }

    /// Count one admission rejection caused by a per-client quota.
    pub fn count_rejected_quota(&self) {
        bump(&self.rejected_quota, 1);
    }

    /// The request-counter snapshot.
    pub fn request_counts(&self) -> RequestCounts {
        RequestCounts {
            total: read(&self.total),
            predict: read(&self.predict),
            predict_batch: read(&self.predict_batch),
            batch_kernels: read(&self.batch_kernels),
            devices: read(&self.devices),
            stats: read(&self.stats),
            metrics: read(&self.metrics),
            shutdown: read(&self.shutdown),
            errors: read(&self.errors),
            rejected: read(&self.rejected),
            reload: read(&self.reload),
            rejected_p99: read(&self.rejected_p99),
            rejected_quota: read(&self.rejected_quota),
        }
    }
}

/// The request telemetry the daemon and the router share: the process
/// start, the whole-request latency histogram, the per-stage
/// histograms, and the optional slow/error trace log.
#[derive(Debug)]
pub struct Telemetry {
    /// Which tier writes the trace-log records (`"serve"`/`"router"`).
    component: &'static str,
    started: Instant,
    /// Whole-request latency (request read to response body ready).
    latency: Histogram,
    stages: Arc<StageSet>,
    trace_log: Option<Arc<TraceLog>>,
}

impl Telemetry {
    /// Fresh telemetry for `component` with one histogram per stage
    /// name, started now.
    pub fn new(component: &'static str, stage_names: &[&'static str]) -> Telemetry {
        Telemetry {
            component,
            started: Instant::now(),
            latency: Histogram::new(),
            stages: Arc::new(StageSet::new(stage_names)),
            trace_log: None,
        }
    }

    /// Attach the slow-request/error log.
    pub fn set_trace_log(&mut self, log: Arc<TraceLog>) {
        self.trace_log = Some(log);
    }

    /// The per-stage histograms, shared with whatever records stages
    /// outside a request's own spans (the router's backend dials).
    pub fn stages(&self) -> &Arc<StageSet> {
        &self.stages
    }

    /// The whole-request latency histogram.
    pub(crate) fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Whole seconds since construction.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Finish one request accepted at `accepted`: record its latency,
    /// fold `spans` into the stage histograms, write the slow/error
    /// record if it qualifies (minting an id for an untraced request,
    /// so the line is still greppable), and echo `trace_id` onto
    /// `body` unless the body already carries it (a relayed backend
    /// response). Untraced bodies are returned untouched.
    pub fn finish(
        &self,
        op: &str,
        trace_id: Option<&str>,
        accepted: Instant,
        spans: &[(&'static str, u64)],
        body: String,
        peer: Option<IpAddr>,
    ) -> String {
        let total_us = accepted.elapsed().as_micros() as u64;
        self.latency.observe_us(total_us);
        self.stages.absorb(spans);
        if let Some(log) = &self.trace_log {
            let error = error_code_of(&body);
            if log.qualifies(total_us, error.is_some()) {
                let id = trace_id.map_or_else(trace::mint, str::to_string);
                let peer = peer.map(|p| p.to_string());
                log.write(&TraceRecord {
                    component: self.component,
                    trace: &id,
                    op,
                    total_us,
                    stages: spans,
                    error,
                    peer: peer.as_deref(),
                });
            }
        }
        match trace_id {
            Some(id) if trace::extract(&body) != Some(id) => trace::attach(&body, id),
            _ => body,
        }
    }

    /// Write the families both tiers expose: build info, uptime, the
    /// whole-request latency histogram, one histogram per stage, and
    /// the trace-log counters when a log is attached.
    pub fn expose(&self, x: &mut Exposition) {
        x.info(
            "gpufreq_build_info",
            "Build metadata.",
            &[("component", self.component), ("build", build_rev())],
        );
        x.gauge(
            "gpufreq_uptime_seconds",
            "Seconds since the process started.",
            self.uptime_s(),
        );
        x.histogram_us(
            "gpufreq_request_latency_us",
            "Whole-request latency (request read to response body ready).",
            &self.latency.snapshot(),
        );
        for (name, h) in self.stages.iter() {
            x.histogram_us(
                &format!("gpufreq_stage_{name}_latency_us"),
                &format!("Latency of the `{name}` stage."),
                &h.snapshot(),
            );
        }
        if let Some(log) = &self.trace_log {
            x.counter(
                "gpufreq_trace_log_written_total",
                "Slow/error records written to the trace log.",
                log.written(),
            );
            x.counter(
                "gpufreq_trace_log_dropped_total",
                "Trace-log records dropped (rate limit or I/O errors).",
                log.dropped(),
            );
        }
    }
}

/// Add to a telemetry counter. Every counter bump in this module funnels
/// through here so the memory-ordering argument lives in one place.
fn bump(counter: &AtomicU64, n: u64) {
    // ordering: pure event counters — a bump publishes no other memory,
    // and totals stay exact regardless because fetch_add is a single
    // atomic RMW; Relaxed is sufficient and cheapest on the hot path.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Read a telemetry counter for a snapshot.
fn read(counter: &AtomicU64) -> u64 {
    // ordering: snapshots are diagnostics; a `stats` response may tear
    // between counters (e.g. `errors` bumped but `total` not yet), so
    // no acquire pairing would buy anything.
    counter.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LatencyStats;

    /// The wire summary of a histogram fed `observations` (µs).
    fn summary(observations: impl IntoIterator<Item = u64>) -> LatencyStats {
        let h = Histogram::new();
        for us in observations {
            h.observe_us(us);
        }
        let snap = h.snapshot();
        LatencyStats::from_buckets(snap.buckets, snap.max_us)
    }

    #[test]
    fn buckets_cover_the_expected_ranges() {
        let lat = summary([0, 1, 2, 3, 4, 1024, u64::MAX]);
        let counts = &lat.buckets;
        assert_eq!(counts.len(), gpufreq_obs::spans::BUCKETS);
        assert_eq!(counts[0], 2, "0 and 1µs share bucket 0");
        assert_eq!(counts[1], 2, "[2,4)");
        assert_eq!(counts[2], 1, "[4,8)");
        assert_eq!(counts[10], 1, "[1024,2048)");
        assert_eq!(counts[counts.len() - 1], 1, "the last bucket is open-ended");
        assert_eq!(lat.count, 7);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let empty = summary([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0);
        // 90 fast observations at ~8µs, 10 slow at ~4096µs.
        let lat = summary(std::iter::repeat_n(8, 90).chain(std::iter::repeat_n(4096, 10)));
        assert_eq!(lat.count, 100);
        assert_eq!(lat.p50, 15, "8µs falls in [8,16)");
        assert_eq!(lat.p95, 8191, "4096µs falls in [4096,8192)");
        assert_eq!(lat.p99, 8191);
        assert_eq!(lat.max, 4096, "max is exact");
    }

    #[test]
    fn finish_logs_the_spans_the_component_and_a_minted_id() {
        let dir = std::env::temp_dir().join("gpufreq-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("telemetry-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut telemetry = Telemetry::new("router", &["admission", "score"]);
        telemetry.set_trace_log(Arc::new(TraceLog::open(path.to_str().unwrap(), 0).unwrap()));
        let spans = [("admission", 2), ("score", 900)];
        let body = "{\"ok\":\"shutdown\"}".to_string();
        // Untraced: the body is untouched and the record gets an id.
        let out = telemetry.finish("predict", None, Instant::now(), &spans, body.clone(), None);
        assert_eq!(out, body);
        // Traced: the id is echoed once, even onto a body that already
        // carries it.
        let traced = telemetry.finish("stats", Some("abc"), Instant::now(), &[], body, None);
        assert_eq!(traced, "{\"ok\":\"shutdown\",\"trace\":\"abc\"}");
        let again = telemetry.finish(
            "stats",
            Some("abc"),
            Instant::now(),
            &[],
            traced.clone(),
            None,
        );
        assert_eq!(again, traced);
        let contents = std::fs::read_to_string(&path).unwrap();
        let first = contents.lines().next().expect("one record per request");
        assert!(first.contains("\"component\":\"router\""), "{first}");
        assert!(
            first.contains("\"stages\":{\"admission\":2,\"score\":900}"),
            "{first}"
        );
        let minted = trace::extract(first).expect("the untraced record carries an id");
        assert_eq!(minted.len(), 16, "{first}");
        assert_eq!(telemetry.latency().snapshot().count, 3);
        let stages: Vec<u64> = telemetry
            .stages()
            .iter()
            .map(|(_, h)| h.snapshot().count)
            .collect();
        assert_eq!(stages, vec![1, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn request_counts_accumulate() {
        let m = Metrics::new();
        m.count_line();
        m.count_line();
        m.count_predict();
        m.count_predict_batch(7);
        m.count_error();
        m.count_rejected();
        let c = m.request_counts();
        assert_eq!(c.total, 2);
        assert_eq!(c.predict, 1);
        assert_eq!(c.predict_batch, 1);
        assert_eq!(c.batch_kernels, 7);
        assert_eq!(c.errors, 1);
        assert_eq!(c.rejected, 1);
    }
}

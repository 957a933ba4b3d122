//! The structured slow-request/error log: sampled, rate-limited JSON
//! lines carrying a trace id and the per-stage latency breakdown.
//!
//! One record per qualifying request — total latency at or above the
//! configured threshold, or a typed error — written as a single line
//! so the log is greppable by trace id and parseable offline. A
//! token-bucket rate limiter bounds the write amplification a
//! pathological workload can cause (dropped records are counted and
//! surfaced in `/metrics`); telemetry never fails a request, so every
//! I/O error here is swallowed after bumping the drop counter.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sustained records per second the limiter admits.
const RATE_PER_SEC: f64 = 64.0;

/// Burst headroom: how many records a quiet log can absorb at once.
const BURST: f64 = 256.0;

/// One qualifying request, as logged.
#[derive(Debug)]
pub struct TraceRecord<'a> {
    /// Which process wrote the record (`"serve"` or `"router"`).
    pub component: &'a str,
    /// The request's trace id (minted locally if the client sent none).
    pub trace: &'a str,
    /// The request's wire op (or route), e.g. `"predict"`.
    pub op: &'a str,
    /// Whole-request latency in microseconds.
    pub total_us: u64,
    /// Per-stage breakdown, in recording order.
    pub stages: &'a [(&'static str, u64)],
    /// The typed error code, when the response was an error.
    pub error: Option<&'a str>,
    /// The peer address, when the request arrived over a socket.
    pub peer: Option<&'a str>,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceRecord<'_> {
    /// Render the record as one JSON line (no trailing newline), with
    /// a stable field order: `ts_ms`, `component`, `trace`, `op`,
    /// `total_us`, then optional `error`/`peer`, then `stages`.
    pub fn to_json(&self) -> String {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut out = String::with_capacity(160);
        out.push_str("{\"ts_ms\":");
        out.push_str(&ts_ms.to_string());
        out.push_str(",\"component\":\"");
        escape_into(&mut out, self.component);
        out.push_str("\",\"trace\":\"");
        escape_into(&mut out, self.trace);
        out.push_str("\",\"op\":\"");
        escape_into(&mut out, self.op);
        out.push_str("\",\"total_us\":");
        out.push_str(&self.total_us.to_string());
        if let Some(error) = self.error {
            out.push_str(",\"error\":\"");
            escape_into(&mut out, error);
            out.push('"');
        }
        if let Some(peer) = self.peer {
            out.push_str(",\"peer\":\"");
            escape_into(&mut out, peer);
            out.push('"');
        }
        out.push_str(",\"stages\":{");
        for (i, (name, us)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            out.push_str("\":");
            out.push_str(&us.to_string());
        }
        out.push_str("}}");
        out
    }
}

struct Limiter {
    tokens: f64,
    last: Instant,
}

struct Sink {
    writer: Box<dyn Write + Send>,
    limiter: Limiter,
}

/// The shared log handle: a sink (file or stderr) behind a mutex, the
/// slow threshold, and drop accounting.
pub struct TraceLog {
    sink: Mutex<Sink>,
    slow_threshold_us: u64,
    written: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("slow_threshold_us", &self.slow_threshold_us)
            .finish_non_exhaustive()
    }
}

impl TraceLog {
    /// Open a log writing to `spec` — the literal `stderr`, or a file
    /// path (created eagerly and appended to, so a log target exists
    /// even if nothing ever qualifies). Requests slower than
    /// `slow_threshold_us` — and every error — are logged; a
    /// threshold of 0 logs everything the rate limiter admits.
    pub fn open(spec: &str, slow_threshold_us: u64) -> std::io::Result<TraceLog> {
        let writer: Box<dyn Write + Send> = if spec == "stderr" {
            Box::new(std::io::stderr())
        } else {
            Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(spec)?,
            )
        };
        Ok(TraceLog {
            sink: Mutex::new(Sink {
                writer,
                limiter: Limiter {
                    tokens: BURST,
                    last: Instant::now(),
                },
            }),
            slow_threshold_us,
            written: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Whether a request with this latency/error outcome qualifies for
    /// a record (before rate limiting).
    pub fn qualifies(&self, total_us: u64, is_error: bool) -> bool {
        is_error || total_us >= self.slow_threshold_us
    }

    /// Write one record if the rate limiter admits it; otherwise count
    /// the drop. I/O errors are swallowed (and counted) — the log must
    /// never take a request down with it.
    pub fn write(&self, record: &TraceRecord<'_>) {
        let line = record.to_json();
        let Ok(mut sink) = self.sink.lock() else {
            // A panicked holder poisoned the lock; telemetry just
            // stops rather than propagating.
            // ordering: Relaxed — statistical counter, publishes nothing.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let now = Instant::now();
        let elapsed = now.duration_since(sink.limiter.last).as_secs_f64();
        sink.limiter.tokens = (sink.limiter.tokens + elapsed * RATE_PER_SEC).min(BURST);
        sink.limiter.last = now;
        if sink.limiter.tokens < 1.0 {
            // ordering: Relaxed — statistical counter, publishes nothing.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        sink.limiter.tokens -= 1.0;
        match writeln!(sink.writer, "{line}").and_then(|()| sink.writer.flush()) {
            Ok(()) => {
                // ordering: Relaxed — statistical counter, publishes nothing.
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // ordering: Relaxed — statistical counter, publishes nothing.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        // ordering: Relaxed — advisory read of a statistical counter.
        self.written.load(Ordering::Relaxed)
    }

    /// Records dropped by the rate limiter or I/O errors.
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — advisory read of a statistical counter.
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gpufreq-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_render_stable_parseable_json_lines() {
        let record = TraceRecord {
            component: "serve",
            trace: "deadbeefcafef00d",
            op: "predict",
            total_us: 1234,
            stages: &[("queue_wait", 10), ("score", 1200)],
            error: None,
            peer: Some("127.0.0.1:9"),
        };
        let line = record.to_json();
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"trace\":\"deadbeefcafef00d\""), "{line}");
        assert!(line.contains("\"op\":\"predict\""), "{line}");
        assert!(line.contains("\"total_us\":1234"), "{line}");
        assert!(
            line.ends_with("\"stages\":{\"queue_wait\":10,\"score\":1200}}"),
            "{line}"
        );
        assert!(!line.contains("\"error\""), "{line}");
        // Escaping: quotes and newlines in an error message stay one
        // line.
        let record = TraceRecord {
            component: "serve",
            trace: "t",
            op: "predict",
            total_us: 5,
            stages: &[],
            error: Some("bad \"kernel\"\nline 2"),
            peer: None,
        };
        let line = record.to_json();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("bad \\\"kernel\\\"\\nline 2"), "{line}");
    }

    #[test]
    fn file_sink_is_created_eagerly_and_appended() {
        let path = temp_path("eager.jsonl");
        std::fs::remove_file(&path).ok();
        let log = TraceLog::open(path.to_str().unwrap(), 1_000_000).unwrap();
        assert!(path.exists(), "sink created before any record");
        assert!(!log.qualifies(10, false), "fast + ok: no record");
        assert!(log.qualifies(10, true), "errors always qualify");
        assert!(log.qualifies(2_000_000, false), "slow qualifies");
        log.write(&TraceRecord {
            component: "serve",
            trace: "t1",
            op: "stats",
            total_us: 2_000_000,
            stages: &[("write", 3)],
            error: None,
            peer: None,
        });
        assert_eq!(log.written(), 1);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 1);
        assert!(contents.contains("\"trace\":\"t1\""), "{contents}");
    }

    #[test]
    fn rate_limiter_drops_past_the_burst() {
        let path = temp_path("burst.jsonl");
        std::fs::remove_file(&path).ok();
        let log = TraceLog::open(path.to_str().unwrap(), 0).unwrap();
        let record = TraceRecord {
            component: "router",
            trace: "t",
            op: "predict",
            total_us: 1,
            stages: &[],
            error: None,
            peer: None,
        };
        for _ in 0..(BURST as usize + 50) {
            log.write(&record);
        }
        assert!(log.written() >= BURST as u64, "burst admitted");
        assert!(log.dropped() > 0, "past-burst records dropped");
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines as u64, log.written());
    }
}

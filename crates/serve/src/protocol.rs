//! The JSON-lines wire protocol of the prediction service.
//!
//! Every request and every response is exactly one JSON object on one
//! line, terminated by `\n` — trivially streamable over TCP, a pipe,
//! or a transcript file. Requests are tagged by an `"op"` field,
//! responses by an `"ok"` field (or an `"error"` object):
//!
//! ```text
//! → {"op":"predict","device":"titan-x","source":"__kernel void ..."}
//! ← {"ok":"predict","device":"titan-x","prediction":{...}}
//! → {"op":"devices"}
//! ← {"ok":"devices","devices":[{"id":"titan-x",...}]}
//! → {"op":"nonsense"}
//! ← {"error":{"code":"bad_request","message":"unknown op `nonsense`"}}
//! ```
//!
//! The (de)serialization is hand-written against the vendored
//! mini-serde [`Value`] tree so the wire format uses
//! protocol-style snake_case tags (not Rust variant names) and stays
//! pinned independently of the Rust types; `tests/protocol_roundtrip.rs`
//! round-trips every variant.
//!
//! Malformed input is always answered with a typed
//! [`ErrorBody`] response — never a dropped connection.

use gpufreq_core::ParetoPrediction;
use gpufreq_sim::Device;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A client request, tagged on the wire by `"op"`.
///
/// Device ids travel as strings and are resolved by the server, so an
/// unknown id is a typed [`ErrorCode::UnknownDevice`] response rather
/// than a parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict the Pareto front for one kernel source on one device.
    Predict {
        /// Registry id of the target device (e.g. `titan-x`).
        device: String,
        /// OpenCL-C kernel source text.
        source: String,
    },
    /// Predict for a whole batch of sources on one device; slot `i` of
    /// the response corresponds to `sources[i]`.
    PredictBatch {
        /// Registry id of the target device.
        device: String,
        /// Kernel sources, answered in order.
        sources: Vec<String>,
    },
    /// List the devices this server is holding models for.
    Devices,
    /// Snapshot the server's request/cache/queue/latency metrics.
    Stats,
    /// Render the Prometheus-style text exposition (the same document
    /// `GET /metrics` serves), wrapped in a JSON response.
    Metrics,
    /// Hot-swap one device's model from a persisted
    /// `ModelArtifact` path without dropping connections (admin
    /// control-plane; in-flight requests finish on the old model).
    Reload {
        /// Registry id of the device whose model is replaced.
        device: String,
        /// Server-local filesystem path of the artifact JSON.
        path: String,
    },
    /// Stop accepting work, drain the queue, and exit cleanly.
    Shutdown,
}

impl Request {
    /// Convenience constructor for a single-kernel prediction.
    pub fn predict(device: Device, source: impl Into<String>) -> Request {
        Request::Predict {
            device: device.id().to_string(),
            source: source.into(),
        }
    }

    /// Convenience constructor for a batch prediction.
    pub fn predict_batch(device: Device, sources: Vec<String>) -> Request {
        Request::PredictBatch {
            device: device.id().to_string(),
            sources,
        }
    }

    /// The wire tag of this request (`"predict"`, `"stats"`, ...).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Predict { .. } => "predict",
            Request::PredictBatch { .. } => "predict_batch",
            Request::Devices => "devices",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Reload { .. } => "reload",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serialize to one compact JSON line (without the trailing `\n`).
    pub fn to_json(&self) -> String {
        // analyze:allow(panic-in-request-path, reason = "requests are enums of strings; serializing them cannot fail")
        serde_json::to_string(self).expect("request serialization is infallible")
    }

    /// Parse one line. Any failure — invalid JSON, a non-object, a
    /// missing or unknown `"op"`, wrong field types — is returned as
    /// the [`ErrorBody`] the server answers with.
    pub fn parse(line: &str) -> Result<Request, ErrorBody> {
        serde_json::from_str(line)
            .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("bad request: {e}")))
    }
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        let mut entries = vec![op_entry("op", self.op())];
        match self {
            Request::Predict { device, source } => {
                entries.push(("device".into(), device.serialize()));
                entries.push(("source".into(), source.serialize()));
            }
            Request::PredictBatch { device, sources } => {
                entries.push(("device".into(), device.serialize()));
                entries.push(("sources".into(), sources.serialize()));
            }
            Request::Reload { device, path } => {
                entries.push(("device".into(), device.serialize()));
                entries.push(("path".into(), path.serialize()));
            }
            Request::Devices | Request::Stats | Request::Metrics | Request::Shutdown => {}
        }
        Value::Object(entries)
    }
}

impl Deserialize for Request {
    fn deserialize(v: &Value) -> Result<Request, serde::Error> {
        let entries = serde::expect_object(v, "Request")?;
        let op: String = serde::field(entries, "op", "Request")?;
        match op.as_str() {
            "predict" => Ok(Request::Predict {
                device: serde::field(entries, "device", "predict")?,
                source: serde::field(entries, "source", "predict")?,
            }),
            "predict_batch" => Ok(Request::PredictBatch {
                device: serde::field(entries, "device", "predict_batch")?,
                sources: serde::field(entries, "sources", "predict_batch")?,
            }),
            "devices" => Ok(Request::Devices),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "reload" => Ok(Request::Reload {
                device: serde::field(entries, "device", "reload")?,
                path: serde::field(entries, "path", "reload")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(serde::Error::custom(format!("unknown op `{other}`"))),
        }
    }
}

/// A server response, tagged on the wire by `"ok"` — or an `"error"`
/// object when the request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Predict`].
    Predict {
        /// The resolved device the prediction is for.
        device: Device,
        /// The predicted Pareto front.
        prediction: ParetoPrediction,
    },
    /// Answer to [`Request::PredictBatch`]; slot `i` answers
    /// `sources[i]`, with per-kernel errors staying in their slot.
    PredictBatch {
        /// The resolved device the predictions are for.
        device: Device,
        /// One result per requested source, in request order.
        results: Vec<BatchResult>,
    },
    /// Answer to [`Request::Devices`].
    Devices {
        /// The devices this server holds trained models for.
        devices: Vec<DeviceInfo>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The metrics snapshot (boxed: the snapshot is by far the
        /// largest variant, and responses are moved around by value).
        stats: Box<ServerStats>,
    },
    /// Answer to [`Request::Metrics`]: the Prometheus-style text
    /// exposition, verbatim (the same bytes `GET /metrics` serves).
    Metrics {
        /// The exposition document (multi-line text, JSON-escaped on
        /// the wire).
        exposition: String,
    },
    /// Answer to [`Request::Reload`]: the swap happened; `version`
    /// counts swaps per device slot (1 = the model the server started
    /// with).
    Reload {
        /// The device whose model was replaced.
        device: Device,
        /// Slot version now serving (monotonic per device).
        version: u64,
    },
    /// Answer to [`Request::Shutdown`]: the server acknowledges, then
    /// drains and exits.
    Shutdown,
    /// The request could not be served at all.
    Error {
        /// What went wrong, typed.
        error: ErrorBody,
    },
}

impl Response {
    /// Serialize to one compact JSON line (without the trailing `\n`).
    pub fn to_json(&self) -> String {
        // analyze:allow(panic-in-request-path, reason = "responses are built from plain strings and numbers; serializing them cannot fail")
        serde_json::to_string(self).expect("response serialization is infallible")
    }

    /// Parse one line of server output.
    pub fn parse(line: &str) -> Result<Response, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The error body, if this is an error response.
    pub fn error(&self) -> Option<&ErrorBody> {
        match self {
            Response::Error { error } => Some(error),
            _ => None,
        }
    }
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Predict { device, prediction } => Value::Object(vec![
                op_entry("ok", "predict"),
                ("device".into(), device.serialize()),
                ("prediction".into(), prediction.serialize()),
            ]),
            Response::PredictBatch { device, results } => Value::Object(vec![
                op_entry("ok", "predict_batch"),
                ("device".into(), device.serialize()),
                ("results".into(), results.serialize()),
            ]),
            Response::Devices { devices } => Value::Object(vec![
                op_entry("ok", "devices"),
                ("devices".into(), devices.serialize()),
            ]),
            Response::Stats { stats } => Value::Object(vec![
                op_entry("ok", "stats"),
                ("stats".into(), stats.serialize()),
            ]),
            Response::Metrics { exposition } => Value::Object(vec![
                op_entry("ok", "metrics"),
                ("exposition".into(), exposition.serialize()),
            ]),
            Response::Reload { device, version } => Value::Object(vec![
                op_entry("ok", "reload"),
                ("device".into(), device.serialize()),
                ("version".into(), version.serialize()),
            ]),
            Response::Shutdown => Value::Object(vec![op_entry("ok", "shutdown")]),
            Response::Error { error } => Value::Object(vec![("error".into(), error.serialize())]),
        }
    }
}

impl Deserialize for Response {
    fn deserialize(v: &Value) -> Result<Response, serde::Error> {
        let entries = serde::expect_object(v, "Response")?;
        if entries.iter().any(|(k, _)| k == "error") {
            return Ok(Response::Error {
                error: serde::field(entries, "error", "Response")?,
            });
        }
        let ok: String = serde::field(entries, "ok", "Response")?;
        match ok.as_str() {
            "predict" => Ok(Response::Predict {
                device: serde::field(entries, "device", "predict")?,
                prediction: serde::field(entries, "prediction", "predict")?,
            }),
            "predict_batch" => Ok(Response::PredictBatch {
                device: serde::field(entries, "device", "predict_batch")?,
                results: serde::field(entries, "results", "predict_batch")?,
            }),
            "devices" => Ok(Response::Devices {
                devices: serde::field(entries, "devices", "devices")?,
            }),
            "stats" => Ok(Response::Stats {
                stats: Box::new(serde::field(entries, "stats", "stats")?),
            }),
            "metrics" => Ok(Response::Metrics {
                exposition: serde::field(entries, "exposition", "metrics")?,
            }),
            "reload" => Ok(Response::Reload {
                device: serde::field(entries, "device", "reload")?,
                version: serde::field(entries, "version", "reload")?,
            }),
            "shutdown" => Ok(Response::Shutdown),
            other => Err(serde::Error::custom(format!(
                "unknown response tag `{other}`"
            ))),
        }
    }
}

fn op_entry(key: &str, tag: &str) -> (String, Value) {
    (key.to_string(), Value::String(tag.to_string()))
}

/// One slot of a [`Response::PredictBatch`]: either a prediction or a
/// per-kernel typed error, mirroring
/// `TrainedPlanner::predict_batch`'s slot contract.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchResult {
    /// The kernel analyzed and predicted successfully.
    Ok(ParetoPrediction),
    /// The kernel failed (malformed source, analysis error) without
    /// disturbing its neighbours.
    Err(ErrorBody),
}

impl BatchResult {
    /// The prediction, if this slot succeeded.
    pub fn prediction(&self) -> Option<&ParetoPrediction> {
        match self {
            BatchResult::Ok(p) => Some(p),
            BatchResult::Err(_) => None,
        }
    }
}

impl Serialize for BatchResult {
    fn serialize(&self) -> Value {
        match self {
            BatchResult::Ok(p) => Value::Object(vec![("prediction".into(), p.serialize())]),
            BatchResult::Err(e) => Value::Object(vec![("error".into(), e.serialize())]),
        }
    }
}

impl Deserialize for BatchResult {
    fn deserialize(v: &Value) -> Result<BatchResult, serde::Error> {
        let entries = serde::expect_object(v, "BatchResult")?;
        if entries.iter().any(|(k, _)| k == "error") {
            return Ok(BatchResult::Err(serde::field(
                entries,
                "error",
                "BatchResult",
            )?));
        }
        Ok(BatchResult::Ok(serde::field(
            entries,
            "prediction",
            "BatchResult",
        )?))
    }
}

/// One served device, as listed by [`Response::Devices`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceInfo {
    /// Stable registry id (`titan-x`, ...).
    pub id: String,
    /// Marketing name (`GTX Titan X`, ...).
    pub name: String,
    /// Number of supported memory domains.
    pub memory_domains: usize,
    /// Number of actual `(mem, core)` configurations.
    pub configurations: usize,
}

/// Machine-readable error category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid request (bad JSON, unknown op, wrong
    /// field types).
    BadRequest,
    /// The device id names no registered device.
    UnknownDevice,
    /// The device is registered but this server holds no model for it.
    DeviceNotServed,
    /// The kernel source failed to parse or analyze.
    Kernel,
    /// The bounded request queue is full — explicit backpressure;
    /// retry later.
    Overloaded,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// A model hot-reload failed (unreadable artifact, wrong device);
    /// the previous model keeps serving.
    ReloadFailed,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// The stable wire spelling of this code.
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownDevice => "unknown_device",
            ErrorCode::DeviceNotServed => "device_not_served",
            ErrorCode::Kernel => "kernel",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ReloadFailed => "reload_failed",
            ErrorCode::Internal => "internal",
        }
    }

    /// Every code, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownDevice,
        ErrorCode::DeviceNotServed,
        ErrorCode::Kernel,
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::ReloadFailed,
        ErrorCode::Internal,
    ];
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ErrorCode {
    fn serialize(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for ErrorCode {
    fn deserialize(v: &Value) -> Result<ErrorCode, serde::Error> {
        let s = String::deserialize(v)?;
        ErrorCode::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| serde::Error::custom(format!("unknown error code `{s}`")))
    }
}

/// A typed error answer: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable category for programmatic handling.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Build an error body.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            code,
            message: message.into(),
        }
    }

    /// The error as a full [`Response`] line.
    pub fn into_response(self) -> Response {
        Response::Error { error: self }
    }

    /// The canonical `unknown_device` body for a device id that names
    /// no registered device. Shared by the daemon and the router so a
    /// router answering for an unserved shard is byte-identical to a
    /// single backend.
    pub fn unknown_device(error: &gpufreq_sim::UnknownDevice) -> ErrorBody {
        ErrorBody::new(ErrorCode::UnknownDevice, format!("{error}"))
    }

    /// The canonical `device_not_served` body for a registered device
    /// this process holds no model (or backend) for. `serving` is the
    /// served set in planner order.
    pub fn device_not_served(device: Device, serving: &[Device]) -> ErrorBody {
        ErrorBody::new(
            ErrorCode::DeviceNotServed,
            format!(
                "no model loaded for `{device}` (serving: {})",
                serving
                    .iter()
                    .map(|d| d.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Snapshot of the server's aggregate metrics
/// ([`Response::Stats`]). Every field is monotonically increasing
/// except the gauges (`queue.depth`, cache `len`s).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Request counters by kind.
    pub requests: RequestCounts,
    /// The response front cache keyed by `(device, source-hash)`, the
    /// daemon's one cache.
    pub front_cache: CacheStats,
    /// The bounded request queue feeding the worker pool.
    pub queue: QueueStats,
    /// Number of worker threads.
    pub workers: usize,
    /// Serving-latency histogram summary, in microseconds.
    pub latency_us: LatencyStats,
    /// Connection lifecycle counters (TCP + HTTP listeners).
    pub connections: ConnectionStats,
    /// Process identity: uptime, build revision, and the artifact
    /// version serving in each device slot. Appended last so older
    /// clients that stop reading early keep parsing.
    pub server: ServerInfo,
}

/// Process identity and model provenance, surfaced in `stats` and
/// `/healthz` so an operator can tell at a glance which build is
/// running, for how long, and which artifact version each device slot
/// is serving.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Whole seconds since the server started (monotonic clock).
    pub uptime_s: u64,
    /// Build revision baked in at compile time via the
    /// `GPUFREQ_BUILD_REV` env var; empty for local builds.
    pub build: String,
    /// One entry per served device slot, in planner order. A router
    /// reports the concatenation of its backends' slots.
    pub slots: Vec<SlotInfo>,
}

/// The artifact version serving in one device slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotInfo {
    /// Registry id of the device.
    pub device: String,
    /// Slot version now serving (1 = the model the server started
    /// with; bumped by each successful `reload`).
    pub version: u64,
}

/// Request counters by kind; `total` counts every protocol line seen.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestCounts {
    /// Every request line received (including malformed ones).
    pub total: u64,
    /// `predict` requests.
    pub predict: u64,
    /// `predict_batch` requests.
    pub predict_batch: u64,
    /// Individual kernels inside batch requests.
    pub batch_kernels: u64,
    /// `devices` requests.
    pub devices: u64,
    /// `stats` requests.
    pub stats: u64,
    /// `shutdown` requests.
    pub shutdown: u64,
    /// Requests answered with an error response (any code except
    /// `overloaded`).
    pub errors: u64,
    /// Requests rejected with `overloaded` — queue-full backpressure
    /// plus both admission-control causes broken out below.
    pub rejected: u64,
    /// `reload` requests (admin model hot-swaps).
    pub reload: u64,
    /// Of `rejected`: shed because the windowed p99 crossed the
    /// configured latency target.
    pub rejected_p99: u64,
    /// Of `rejected`: shed because the client exhausted its per-peer
    /// token-bucket quota.
    pub rejected_quota: u64,
    /// `metrics` requests (the exposition verb).
    pub metrics: u64,
}

/// Hit/miss/eviction counters plus the current-size gauge of one
/// bounded cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum entries (`0` = this cache is disabled — see
    /// `gpufreq_serve::ServerConfig::cache_capacity`).
    pub capacity: usize,
}

/// Connection lifecycle counters across both listeners. `active` is a
/// gauge (`opened - closed`); everything else is monotonic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConnectionStats {
    /// Connections accepted and handed to a connection thread.
    pub opened: u64,
    /// Connections whose thread has exited (any reason).
    pub closed: u64,
    /// Connections refused at the concurrent-connection cap with a
    /// typed `overloaded` line (they are never `opened`).
    pub refused: u64,
    /// Accepted connections dropped because socket setup
    /// (`try_clone`/`set_read_timeout`) failed.
    pub failed: u64,
    /// Connections currently being served (`opened - closed`).
    pub active: u64,
}

/// Depth/capacity of the bounded request queue.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Jobs currently waiting for a worker.
    pub depth: usize,
    /// Maximum queued jobs before requests are rejected with
    /// `overloaded`.
    pub capacity: usize,
}

/// Latency histogram summary. Quantiles are upper bounds of
/// power-of-two buckets (see `gpufreq_serve::metrics`), so they are
/// conservative approximations. The bucket counts travel along, so a
/// router can merge several daemons' histograms and read the cluster's
/// quantiles from the sum.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Observations recorded.
    pub count: u64,
    /// Median serving latency (µs, bucket upper bound).
    pub p50: u64,
    /// 95th-percentile serving latency (µs, bucket upper bound).
    pub p95: u64,
    /// 99th-percentile serving latency (µs, bucket upper bound).
    pub p99: u64,
    /// Largest single observation (µs, exact).
    pub max: u64,
    /// Per-bucket observation counts in the `gpufreq_obs::spans`
    /// layout: bucket `i` counts `[2^i, 2^(i+1))` µs, bucket 0 also
    /// takes sub-µs requests, and the last bucket is open-ended.
    pub buckets: Vec<u64>,
}

//! The router core: request dispatch and response aggregation behind
//! the shared client-facing listeners ([`gpufreq_serve::conn`]).
//!
//! The router owns client connections and fans requests out to backend
//! daemons over the same line protocol clients speak — it computes no
//! predictions itself. Routing is two-level: the request's `device`
//! picks the shard, and `key_hash(device, source)` picks the replica
//! within the shard so each replica's warm front cache stays disjoint.
//! Single-shard traffic is forwarded as the **raw request line** and
//! relayed verbatim; only a batch that genuinely splits across
//! replicas is re-framed, and its merged response splices the
//! backends' raw result slots so the bytes match a single-backend run
//! exactly.

use std::io::{self, BufReader, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpufreq_obs::spans::quantile_from_counts;
use gpufreq_obs::{trace, Exposition, Histogram, SpanRecorder, StageSet, TraceLog};
use gpufreq_serve::conn::{self, error_code_of, Connections, LineWriter};
use gpufreq_serve::http::Gateway;
use gpufreq_serve::protocol::{ErrorBody, ErrorCode, Request, Response, ServerStats};
use gpufreq_serve::{build_rev, LineClient};
use gpufreq_sim::Device;

use crate::backend::{Backend, CallError};
use crate::config::RouterConfig;
use crate::route::{merge_batch, replica_for, split_batch, split_results};
use crate::wire::{RouterCounters, RouterSnapshot};

/// The router's per-stage span names, in request order: shard/replica
/// selection, fresh backend dials, the backend exchange, and batch
/// response splicing. Each gets a latency histogram in `/metrics`.
pub const ROUTER_STAGE_NAMES: [&str; 4] = ["pick", "connect", "roundtrip", "merge"];

/// Why the router could not start.
#[derive(Debug)]
pub enum RouterError {
    /// No `--backend` was given.
    NoBackends,
    /// A backend without an explicit device list could not be asked
    /// for one at startup.
    Discovery {
        /// The unreachable backend's address.
        addr: String,
        /// What went wrong.
        error: String,
    },
    /// No backend serves any known device.
    NoDevices,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoBackends => f.write_str("no backends configured"),
            RouterError::Discovery { addr, error } => write!(
                f,
                "backend `{addr}` has no device list and discovery failed: {error} \
                 (pin devices with --backend {addr}=<device,...> to defer the connection)"
            ),
            RouterError::NoDevices => f.write_str("no backend serves any known device"),
        }
    }
}

impl std::error::Error for RouterError {}

/// The device-sharded router. Shared across connection threads by
/// reference; all interior state is synchronized.
pub struct Router {
    backends: Vec<Backend>,
    /// `(device, replica indices into backends)`, in [`Device::all`]
    /// order; only devices with at least one replica appear.
    shards: Vec<(Device, Vec<usize>)>,
    probe_interval: Duration,
    /// The client-connection cap across both listeners.
    conns: Connections,
    shutting_down: AtomicBool,
    routed: AtomicU64,
    retried: AtomicU64,
    broken_circuit: AtomicU64,
    malformed: AtomicU64,
    /// When the router started (uptime in healthz/metrics).
    started: Instant,
    /// Per-stage latency histograms ([`ROUTER_STAGE_NAMES`]); shared
    /// with the backends so fresh dials record `connect` spans.
    stages: Arc<StageSet>,
    /// Whole-request latency (line read to response body ready).
    latency: Histogram,
    /// Optional slow-request/error log (`--trace-log`).
    trace_log: Option<Arc<TraceLog>>,
}

impl Router {
    /// Build a router over `config.backends`. Backends with explicit
    /// device lists are taken on faith (their circuits handle
    /// unreachability); a backend without one is asked via a `devices`
    /// probe, and the router refuses to start if that fails.
    pub fn new(config: RouterConfig) -> Result<Router, RouterError> {
        if config.backends.is_empty() {
            return Err(RouterError::NoBackends);
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for spec in &config.backends {
            let (devices, info) = if spec.devices.is_empty() {
                let info = discover(&spec.addr, config.read_timeout).map_err(|error| {
                    RouterError::Discovery {
                        addr: spec.addr.clone(),
                        error,
                    }
                })?;
                let devices = info
                    .iter()
                    .filter_map(|i| i.id.parse::<Device>().ok())
                    .collect::<Vec<_>>();
                (devices, Some(info))
            } else {
                (spec.devices.clone(), None)
            };
            backends.push(Backend::new(spec.addr.clone(), devices, info, &config));
        }
        let shards: Vec<(Device, Vec<usize>)> = Device::all()
            .into_iter()
            .filter_map(|device| {
                let replicas: Vec<usize> = backends
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.devices().contains(&device))
                    .map(|(i, _)| i)
                    .collect();
                (!replicas.is_empty()).then_some((device, replicas))
            })
            .collect();
        if shards.is_empty() {
            return Err(RouterError::NoDevices);
        }
        let stages = Arc::new(StageSet::new(&ROUTER_STAGE_NAMES));
        for backend in &backends {
            backend.attach_stages(Arc::clone(&stages));
        }
        Ok(Router {
            backends,
            shards,
            probe_interval: config.probe_interval,
            conns: Connections::new("gpufreq-router", config.max_connections),
            shutting_down: AtomicBool::new(false),
            routed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            broken_circuit: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            started: Instant::now(),
            stages,
            latency: Histogram::new(),
            trace_log: None,
        })
    }

    /// Attach a slow-request/error trace log. Call before serving.
    pub fn set_trace_log(&mut self, log: Arc<TraceLog>) {
        self.trace_log = Some(log);
    }

    /// The devices the router serves, in shard order.
    pub fn devices(&self) -> Vec<Device> {
        self.shards.iter().map(|(d, _)| *d).collect()
    }

    /// The backends, in `--backend` argument order.
    pub(crate) fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// Whether a shutdown request has been observed.
    pub fn is_shutting_down(&self) -> bool {
        // ordering: a monotonic latch; observers only need to
        // eventually see `true`, and every control-flow consequence is
        // local to the observing thread.
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Latch the shutdown flag (idempotent). Backends keep running —
    /// only the router drains.
    pub fn initiate_shutdown(&self) {
        // ordering: see `is_shutting_down` — a monotonic latch.
        self.shutting_down.store(true, Ordering::Relaxed);
    }

    /// Router-level counters plus per-backend health.
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            counters: RouterCounters {
                routed: count(&self.routed),
                retried: count(&self.retried),
                broken_circuit: count(&self.broken_circuit),
                malformed: count(&self.malformed),
            },
            backends: self.backends.iter().map(|b| b.snapshot()).collect(),
        }
    }

    /// Resolve a request's device id to its shard, with the same typed
    /// errors (and bytes) a backend answers for unknown/unserved ids.
    fn resolve(&self, id: &str) -> Result<(Device, &[usize]), ErrorBody> {
        let device: Device = id.parse().map_err(|e| ErrorBody::unknown_device(&e))?;
        self.shards
            .iter()
            .find(|(d, _)| *d == device)
            .map(|(d, replicas)| (*d, replicas.as_slice()))
            .ok_or_else(|| ErrorBody::device_not_served(device, &self.devices()))
    }

    /// Handle one raw protocol line to its response line.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_from(line, None)
    }

    /// [`Router::handle_line`] with the client address for the trace
    /// log. Extracts the optional trace id, times the whole request,
    /// and records per-stage spans through [`Router::finish`].
    fn handle_line_from(&self, line: &str, peer: Option<IpAddr>) -> String {
        let accepted = Instant::now();
        let trace = trace::extract(line).map(str::to_string);
        let trace_id = trace.as_deref();
        let mut rec = SpanRecorder::start();
        let (op, body) = match Request::parse(line) {
            Ok(request) => (
                request.op(),
                self.dispatch(&request, Some(line), trace_id, &mut rec),
            ),
            Err(error) => {
                // ordering: see `snapshot` — monotonic counter.
                self.malformed.fetch_add(1, Ordering::Relaxed);
                ("invalid", error.into_response().to_json())
            }
        };
        self.finish(op, trace_id, accepted, &rec, peer, body)
    }

    /// Finish one request: record the whole-request latency, absorb
    /// the recorder's spans into the per-stage histograms, write the
    /// slow/error log record, and echo the trace id onto the body
    /// unless a backend already did (relayed bodies arrive traced).
    fn finish(
        &self,
        op: &str,
        trace_id: Option<&str>,
        accepted: Instant,
        rec: &SpanRecorder,
        peer: Option<IpAddr>,
        body: String,
    ) -> String {
        let total_us = accepted.elapsed().as_micros() as u64;
        self.latency.observe_us(total_us);
        self.stages.absorb(rec);
        if let Some(log) = &self.trace_log {
            let error = error_code_of(&body);
            if log.qualifies(total_us, error.is_some()) {
                let minted;
                let id = match trace_id {
                    Some(id) => id,
                    None => {
                        minted = trace::mint();
                        &minted
                    }
                };
                let peer = peer.map(|p| p.to_string());
                log.write(&gpufreq_obs::TraceRecord {
                    component: "router",
                    trace: id,
                    op,
                    total_us,
                    stages: rec.spans(),
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

    /// Dispatch a parsed request. `raw` is the original wire line when
    /// the request arrived on the line protocol — single-shard ops
    /// forward it verbatim; the HTTP gateway passes `None` and the
    /// forwarded line is re-framed from the typed request (the same
    /// serializer both ends use, so the bytes cannot differ), with the
    /// trace id attached so the backend's log carries the same id.
    fn dispatch(
        &self,
        request: &Request,
        raw: Option<&str>,
        trace_id: Option<&str>,
        rec: &mut SpanRecorder,
    ) -> String {
        let framed;
        let line = match raw {
            Some(line) => line,
            None => {
                let json = request.to_json();
                framed = match trace_id {
                    Some(id) => trace::attach(&json, id),
                    None => json,
                };
                &framed
            }
        };
        match request {
            Request::Predict { device, source } => self.route_predict(device, source, line, rec),
            Request::PredictBatch { device, sources } => {
                self.route_batch(device, sources, line, trace_id, rec)
            }
            Request::Devices => self.devices_body(),
            Request::Stats => self.stats_body(),
            Request::Metrics => Response::Metrics {
                exposition: self.exposition(),
            }
            .to_json(),
            Request::Reload { device, .. } => self.reload_body(device, line),
            Request::Shutdown => {
                self.initiate_shutdown();
                Response::Shutdown.to_json()
            }
        }
    }

    /// Forward `line` to the replica owning it, failing over to the
    /// other replicas in ring order. Returns the backend's raw
    /// response, a relayed `overloaded` if every live replica said so,
    /// or a synthesized `overloaded` when none could be reached.
    ///
    /// The answered exchange is recorded as a `roundtrip` span — into
    /// `rec` when the caller threads one, or straight into the shared
    /// histograms from batch fan-out threads (which cannot share the
    /// request's recorder without double-counting on absorb).
    fn call_replicas(
        &self,
        device: Device,
        replicas: &[usize],
        owner: usize,
        line: &str,
        mut rec: Option<&mut SpanRecorder>,
    ) -> String {
        let mut overloaded = None;
        for attempt in 0..replicas.len() {
            if attempt > 0 {
                // ordering: see `snapshot` — monotonic counter.
                self.retried.fetch_add(1, Ordering::Relaxed);
            }
            let idx = replicas[(owner + attempt) % replicas.len()];
            let exchange = Instant::now();
            match self.backends[idx].call(line) {
                Ok(response) => {
                    let us = exchange.elapsed().as_micros() as u64;
                    match rec.as_deref_mut() {
                        Some(rec) => rec.record_us("roundtrip", us),
                        None => self.stages.observe_us("roundtrip", us),
                    }
                    // ordering: see `snapshot` — monotonic counter.
                    self.routed.fetch_add(1, Ordering::Relaxed);
                    return response;
                }
                Err(CallError::Overloaded(response)) => overloaded = Some(response),
                Err(CallError::Broken) => {
                    // ordering: see `snapshot` — monotonic counter.
                    self.broken_circuit.fetch_add(1, Ordering::Relaxed);
                }
                Err(CallError::Busy) | Err(CallError::Io(_)) => {}
            }
        }
        overloaded.unwrap_or_else(|| Backend::all_unavailable(device))
    }

    fn route_predict(
        &self,
        device_id: &str,
        source: &str,
        line: &str,
        rec: &mut SpanRecorder,
    ) -> String {
        let pick = Instant::now();
        let resolved = self.resolve(device_id);
        rec.record_us("pick", pick.elapsed().as_micros() as u64);
        match resolved {
            Ok((device, replicas)) => {
                let owner = replica_for(device, source, replicas.len());
                self.call_replicas(device, replicas, owner, line, Some(rec))
            }
            Err(error) => error.into_response().to_json(),
        }
    }

    fn route_batch(
        &self,
        device_id: &str,
        sources: &[String],
        line: &str,
        trace_id: Option<&str>,
        rec: &mut SpanRecorder,
    ) -> String {
        let pick = Instant::now();
        let resolved = self.resolve(device_id);
        let (device, replicas) = match resolved {
            Ok(resolved) => resolved,
            Err(error) => {
                rec.record_us("pick", pick.elapsed().as_micros() as u64);
                return error.into_response().to_json();
            }
        };
        let shards = split_batch(device, sources, replicas.len());
        let occupied: Vec<usize> = (0..shards.len())
            .filter(|&r| !shards[r].is_empty())
            .collect();
        rec.record_us("pick", pick.elapsed().as_micros() as u64);
        // One replica owns everything (or the batch is empty): forward
        // the raw line, relay the raw response.
        if occupied.len() <= 1 {
            let owner = occupied.first().copied().unwrap_or(0);
            return self.call_replicas(device, replicas, owner, line, Some(rec));
        }
        // Genuinely split: re-frame one sub-batch per occupied replica
        // (tagged with the request's trace id so the backends' logs
        // carry it), fan out concurrently, splice the raw result slots
        // back in request order.
        let mut responses: Vec<Option<String>> = vec![None; occupied.len()];
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(occupied.len());
            for &replica in &occupied {
                let sub = Request::PredictBatch {
                    device: device.id().to_string(),
                    sources: shards[replica]
                        .iter()
                        .map(|&i| sources[i].clone())
                        .collect(),
                };
                let sub_line = {
                    let json = sub.to_json();
                    match trace_id {
                        Some(id) => trace::attach(&json, id),
                        None => json,
                    }
                };
                handles.push(
                    scope.spawn(move || {
                        self.call_replicas(device, replicas, replica, &sub_line, None)
                    }),
                );
            }
            for (slot, handle) in handles.into_iter().enumerate() {
                // analyze:allow(panic-in-request-path, reason = "join() only errors if the fan-out thread panicked; re-raising is the faithful report")
                responses[slot] = Some(handle.join().expect("batch fan-out thread panicked"));
            }
        });
        let merge = Instant::now();
        // Backends echo the trace id we attached onto each sub-response;
        // detach before splicing so the merged bytes stay identical to a
        // single-backend run (`finish` re-attaches the id once, at the end).
        let responses: Vec<Option<String>> = responses
            .into_iter()
            .map(|r| {
                r.map(|r| match trace::detach(&r) {
                    Some((restored, _)) => restored,
                    None => r,
                })
            })
            .collect();
        let mut slots: Vec<&str> = vec![""; sources.len()];
        for (slot, &replica) in occupied.iter().enumerate() {
            let Some(response) = responses[slot].as_deref() else {
                return Backend::all_unavailable(device);
            };
            match split_results(response, device.id()) {
                Some(parts) if parts.len() == shards[replica].len() => {
                    for (k, &i) in shards[replica].iter().enumerate() {
                        slots[i] = parts[k];
                    }
                }
                // An error line (overloaded, shutting_down, ...) or a
                // malformed body: a single backend would have answered
                // the whole batch with it, so relay it whole.
                _ => return response.to_string(),
            }
        }
        let merged = merge_batch(device.id(), &slots);
        rec.record_us("merge", merge.elapsed().as_micros() as u64);
        merged
    }

    /// Aggregate `devices`: one entry per served device in shard
    /// order, taken from the health probes' cached inventories (with
    /// an on-demand probe before giving up). Serialized through the
    /// same [`Response::Devices`] writer the backends use.
    fn devices_body(&self) -> String {
        let mut devices = Vec::with_capacity(self.shards.len());
        for (device, replicas) in &self.shards {
            let cached = replicas.iter().find_map(|&idx| {
                self.backends[idx]
                    .info()
                    .and_then(|list| list.into_iter().find(|i| i.id == device.id()))
            });
            let probed = cached.or_else(|| {
                replicas.iter().find_map(|&idx| {
                    self.backends[idx]
                        .probe()
                        .and_then(|list| list.into_iter().find(|i| i.id == device.id()))
                })
            });
            match probed {
                Some(info) => devices.push(info),
                None => return Backend::all_unavailable(*device),
            }
        }
        Response::Devices { devices }.to_json()
    }

    /// Aggregate `stats`: merge the reachable backends' snapshots
    /// ([`add_stats`]) and append the router's own section to the
    /// response object.
    fn stats_body(&self) -> String {
        let mut total = ServerStats::default();
        for backend in &self.backends {
            if let Ok(response) = backend.call(&Request::Stats.to_json()) {
                if let Ok(Response::Stats { stats }) = Response::parse(&response) {
                    add_stats(&mut total, &stats);
                }
            }
        }
        let mut body = Response::Stats {
            stats: Box::new(total),
        }
        .to_json();
        let section =
            serde_json::to_string(&self.snapshot().to_value()).unwrap_or_else(|_| "{}".to_string());
        // Splice `"router":{...}` into the top-level response object.
        body.truncate(body.len().saturating_sub(1));
        body.push_str(",\"router\":");
        body.push_str(&section);
        body.push('}');
        body
    }

    /// Render the router's Prometheus-style text exposition: routing
    /// counters, per-backend health gauges, the whole-request latency
    /// histogram, and one histogram per routing stage
    /// ([`ROUTER_STAGE_NAMES`]). Served by `GET /metrics` on the HTTP
    /// gateway and (JSON-wrapped) by the `metrics` line verb. Probe
    /// traffic appears only in `gpufreq_backend_probes`.
    pub fn exposition(&self) -> String {
        let snap = self.snapshot();
        let c = &snap.counters;
        let mut x = Exposition::new();
        x.info(
            "gpufreq_build_info",
            "Build metadata.",
            &[("component", "router"), ("build", build_rev())],
        );
        x.gauge(
            "gpufreq_uptime_seconds",
            "Seconds since the process started.",
            self.started.elapsed().as_secs(),
        );
        x.counter(
            "gpufreq_router_routed_total",
            "Requests successfully forwarded to a backend.",
            c.routed,
        );
        x.counter(
            "gpufreq_router_retried_total",
            "Failover attempts to another replica.",
            c.retried,
        );
        x.counter(
            "gpufreq_router_broken_circuit_total",
            "Requests turned away from a backend by an open circuit.",
            c.broken_circuit,
        );
        x.counter(
            "gpufreq_router_malformed_total",
            "Lines or HTTP bodies that failed to parse at the router.",
            c.malformed,
        );
        x.gauge(
            "gpufreq_connections_active",
            "Connections currently served.",
            self.conns.stats().active,
        );
        type BackendMetric = fn(&crate::wire::BackendSnapshot) -> u64;
        let per_backend: [(&str, &str, BackendMetric); 4] = [
            (
                "gpufreq_backend_requests",
                "Client requests forwarded per backend (probes excluded).",
                |b| b.requests,
            ),
            (
                "gpufreq_backend_probes",
                "Health probes sent per backend.",
                |b| b.probes,
            ),
            (
                "gpufreq_backend_failures",
                "Transport failures and `overloaded` rejections per backend.",
                |b| b.failures,
            ),
            (
                "gpufreq_backend_in_flight",
                "Requests currently outstanding per backend.",
                |b| b.in_flight,
            ),
        ];
        for (name, help, value) in per_backend {
            for (i, b) in snap.backends.iter().enumerate() {
                x.labeled_gauge(
                    name,
                    (i == 0).then_some(help),
                    &[("backend", &b.addr)],
                    value(b),
                );
            }
        }
        x.histogram_us(
            "gpufreq_request_latency_us",
            "Whole-request routing latency (line read to response body ready).",
            &self.latency.snapshot(),
        );
        for (name, h) in self.stages.iter() {
            x.histogram_us(
                &format!("gpufreq_stage_{name}_latency_us"),
                &format!("Latency of the `{name}` routing stage."),
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
        x.finish()
    }

    /// Fan a `reload` to every replica of the device, sequentially and
    /// in replica order. The first error (typed or transport) is
    /// relayed/reported immediately — replicas reloaded before it stay
    /// on the new model, which the error message says out loud.
    fn reload_body(&self, device_id: &str, line: &str) -> String {
        let (device, replicas) = match self.resolve(device_id) {
            Ok(resolved) => resolved,
            Err(error) => return error.into_response().to_json(),
        };
        let mut first = None;
        for &idx in replicas {
            match self.backends[idx].call(line) {
                Ok(response) if response.starts_with("{\"error\":") => return response,
                Ok(response) => {
                    if first.is_none() {
                        first = Some(response);
                    }
                }
                Err(_) => {
                    return ErrorBody::new(
                        ErrorCode::ReloadFailed,
                        format!(
                            "replica `{}` unreachable during reload; replicas of `{}` may now disagree",
                            self.backends[idx].addr(),
                            device.id()
                        ),
                    )
                    .into_response()
                    .to_json();
                }
            };
        }
        match first {
            Some(response) => response,
            None => Backend::all_unavailable(device),
        }
    }

    /// Serve JSON-lines connections on `listener` until a `shutdown`
    /// request arrives, then return the final router snapshot. The
    /// backends are left running.
    pub fn serve(&self, listener: TcpListener) -> io::Result<RouterSnapshot> {
        self.serve_with_http(listener, None)
    }

    /// Like [`serve`](Router::serve), with an optional HTTP gateway
    /// listener sharing the connection cap and the backends.
    pub fn serve_with_http(
        &self,
        listener: TcpListener,
        http: Option<TcpListener>,
    ) -> io::Result<RouterSnapshot> {
        conn::serve(self, &self.conns, listener, http, |s| {
            s.spawn(|| crate::health::run(self, self.probe_interval));
        })?;
        Ok(self.snapshot())
    }
}

impl Gateway for Router {
    fn execute(&self, request: Request, peer: IpAddr, trace: Option<&str>) -> String {
        let accepted = Instant::now();
        let mut rec = SpanRecorder::start();
        let body = self.dispatch(&request, None, trace, &mut rec);
        self.finish(request.op(), trace, accepted, &rec, Some(peer), body)
    }

    fn shutting_down(&self) -> bool {
        self.is_shutting_down()
    }

    fn exposition(&self) -> String {
        Router::exposition(self)
    }

    fn health_body(&self) -> String {
        format!(
            "{{\"ok\":\"healthz\",\"router\":{{\"uptime_s\":{},\"build\":\"{}\",\"backends\":{}}}}}",
            self.started.elapsed().as_secs(),
            build_rev(),
            self.backends.len(),
        )
    }

    fn malformed(&self, error: ErrorBody) -> String {
        // ordering: see `Router::snapshot` — monotonic counter.
        self.malformed.fetch_add(1, Ordering::Relaxed);
        error.into_response().to_json()
    }

    /// Requests on one connection are forwarded one at a time, so
    /// responses are in order by construction.
    fn serve_line_connection(
        &self,
        reader: BufReader<TcpStream>,
        mut writer: LineWriter<'_>,
        peer: IpAddr,
    ) {
        conn::pump(self, reader, false, |line| {
            let mut body = match line {
                Ok(line) => self.handle_line_from(line, Some(peer)),
                Err(refusal) => refusal,
            };
            body.push('\n');
            writer
                .write_all(body.as_bytes())
                .and_then(|()| writer.flush())
                .is_ok()
        });
    }
}

/// Load one router counter for a snapshot.
fn count(counter: &AtomicU64) -> u64 {
    // ordering: independent monotonic counters; a snapshot tolerates
    // skew between them.
    counter.load(Ordering::Relaxed)
}

/// Ask `addr` what it serves (startup discovery for backends given
/// without a device list).
fn discover(
    addr: &str,
    read_timeout: Option<Duration>,
) -> Result<Vec<gpufreq_serve::protocol::DeviceInfo>, String> {
    let mut client = LineClient::connect(addr).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(read_timeout)
        .map_err(|e| e.to_string())?;
    let response = client
        .request(&Request::Devices)
        .map_err(|e| e.to_string())?;
    match Response::parse(&response) {
        Ok(Response::Devices { devices }) => Ok(devices),
        Ok(other) => Err(format!("unexpected devices response: {}", other.to_json())),
        Err(e) => Err(format!("unparseable devices response: {e}")),
    }
}

/// Accumulate one backend's stats: counters and gauges sum; latency
/// buckets sum and the percentiles are read from the merged counts
/// (the cluster's distribution, not a max of per-backend quantiles);
/// the latency max takes the max.
fn add_stats(total: &mut ServerStats, stats: &ServerStats) {
    let r = (&mut total.requests, &stats.requests);
    r.0.total += r.1.total;
    r.0.predict += r.1.predict;
    r.0.predict_batch += r.1.predict_batch;
    r.0.batch_kernels += r.1.batch_kernels;
    r.0.devices += r.1.devices;
    r.0.stats += r.1.stats;
    r.0.metrics += r.1.metrics;
    r.0.shutdown += r.1.shutdown;
    r.0.errors += r.1.errors;
    r.0.rejected += r.1.rejected;
    r.0.reload += r.1.reload;
    r.0.rejected_p99 += r.1.rejected_p99;
    r.0.rejected_quota += r.1.rejected_quota;
    let (t, s) = (&mut total.front_cache, &stats.front_cache);
    t.hits += s.hits;
    t.misses += s.misses;
    t.evictions += s.evictions;
    t.len += s.len;
    t.capacity += s.capacity;
    total.queue.depth += stats.queue.depth;
    total.queue.capacity += stats.queue.capacity;
    total.workers += stats.workers;
    let (t, s) = (&mut total.latency_us, &stats.latency_us);
    t.count += s.count;
    if t.buckets.len() < s.buckets.len() {
        t.buckets.resize(s.buckets.len(), 0);
    }
    for (sum, n) in t.buckets.iter_mut().zip(&s.buckets) {
        *sum += n;
    }
    t.p50 = quantile_from_counts(&t.buckets, 0.50);
    t.p95 = quantile_from_counts(&t.buckets, 0.95);
    t.p99 = quantile_from_counts(&t.buckets, 0.99);
    t.max = t.max.max(s.max);
    total.connections.opened += stats.connections.opened;
    total.connections.closed += stats.connections.closed;
    total.connections.refused += stats.connections.refused;
    total.connections.failed += stats.connections.failed;
    total.connections.active += stats.connections.active;
    // Identity: uptime takes the max (the oldest backend), the build
    // is the first one reported (they should all agree), and the
    // per-device slot lists concatenate across backends.
    total.server.uptime_s = total.server.uptime_s.max(stats.server.uptime_s);
    if total.server.build.is_empty() {
        total.server.build = stats.server.build.clone();
    }
    total
        .server
        .slots
        .extend(stats.server.slots.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendSpec;

    fn config(backends: &[&str]) -> RouterConfig {
        RouterConfig {
            backends: backends
                .iter()
                .map(|s| s.parse::<BackendSpec>().unwrap())
                .collect(),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn startup_requires_backends_and_devices() {
        assert!(matches!(
            Router::new(RouterConfig::default()),
            Err(RouterError::NoBackends)
        ));
        // Explicit device lists defer connections, so construction
        // succeeds with nothing listening.
        let router = Router::new(config(&[
            "127.0.0.1:1=titan-x",
            "127.0.0.1:2=titan-x,tesla-p100",
        ]))
        .unwrap();
        assert_eq!(router.devices(), vec![Device::TitanX, Device::TeslaP100]);
        let shards = &router.shards;
        assert_eq!(shards[0].1, vec![0, 1]);
        assert_eq!(shards[1].1, vec![1]);
        // Discovery against nothing fails fast.
        let Err(err) = Router::new(config(&["127.0.0.1:1"])) else {
            panic!("discovery against a dead address must fail");
        };
        assert!(matches!(err, RouterError::Discovery { .. }), "{err}");
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
    }

    #[test]
    fn unknown_and_unserved_devices_answer_backend_identical_bytes() {
        let router = Router::new(config(&["127.0.0.1:1=titan-x"])).unwrap();
        let unknown =
            router.handle_line("{\"op\":\"predict\",\"device\":\"gtx-9000\",\"source\":\"k\"}");
        assert!(unknown.contains("\"code\":\"unknown_device\""), "{unknown}");
        assert!(
            unknown.contains("titan-x, tesla-p100, tesla-k20c"),
            "{unknown}"
        );
        let unserved =
            router.handle_line("{\"op\":\"predict\",\"device\":\"tesla-p100\",\"source\":\"k\"}");
        assert_eq!(
            unserved,
            ErrorBody::device_not_served(Device::TeslaP100, &[Device::TitanX])
                .into_response()
                .to_json()
        );
        // Malformed lines are counted and answered typed.
        let bad = router.handle_line("not json");
        assert!(bad.contains("\"code\":\"bad_request\""), "{bad}");
        assert_eq!(router.snapshot().counters.malformed, 1);
    }

    #[test]
    fn dead_replicas_answer_overloaded_and_open_circuits() {
        let mut cfg = config(&["127.0.0.1:1=titan-x", "127.0.0.1:2=titan-x"]);
        cfg.failure_threshold = 1;
        let router = Router::new(cfg).unwrap();
        let line = "{\"op\":\"predict\",\"device\":\"titan-x\",\"source\":\"kernel\"}";
        let first = router.handle_line(line);
        assert!(first.contains("\"code\":\"overloaded\""), "{first}");
        // Both circuits opened after one failure each; the next call
        // is rejected without touching the network.
        let snap = router.snapshot();
        assert!(snap
            .backends
            .iter()
            .all(|b| b.state == crate::wire::CircuitState::Open));
        let second = router.handle_line(line);
        assert!(second.contains("\"code\":\"overloaded\""), "{second}");
        assert_eq!(router.snapshot().counters.broken_circuit, 2);
    }

    /// One backend's `stats` snapshot with `n` requests at each given
    /// latency (µs).
    fn backend_stats(latencies: &[(u64, u64)]) -> ServerStats {
        let h = Histogram::new();
        for &(us, n) in latencies {
            for _ in 0..n {
                h.observe_us(us);
            }
        }
        let snap = h.snapshot();
        ServerStats {
            latency_us: gpufreq_serve::protocol::LatencyStats {
                count: snap.count,
                p50: snap.quantile_us(0.50),
                p95: snap.quantile_us(0.95),
                p99: snap.quantile_us(0.99),
                max: snap.max_us,
                buckets: snap.buckets,
            },
            ..ServerStats::default()
        }
    }

    #[test]
    fn merged_latency_quantiles_come_from_summed_buckets() {
        // A busy fast backend (90 requests at 10µs) and a quiet slow
        // one (10 at 1500µs). The cluster's median is fast; a max of
        // the per-backend medians would report the slow one's.
        let fast = backend_stats(&[(10, 90)]);
        let slow = backend_stats(&[(1500, 10)]);
        assert_eq!((fast.latency_us.p50, slow.latency_us.p50), (15, 2047));
        let mut total = ServerStats::default();
        add_stats(&mut total, &fast);
        add_stats(&mut total, &slow);
        let merged = backend_stats(&[(10, 90), (1500, 10)]).latency_us;
        let t = &total.latency_us;
        assert_eq!(t.p50, 15, "median of the merged counts, not the max");
        assert_eq!((t.p95, t.p99), (2047, 2047));
        assert_eq!((t.count, t.max), (100, 1500));
        assert_eq!(
            *t, merged,
            "merging equals observing everything in one daemon"
        );
    }
}

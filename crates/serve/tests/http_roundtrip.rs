//! HTTP gateway round trips against an in-process daemon: every route
//! answers on one keep-alive connection, typed error codes map to the
//! documented statuses, and an admin hot-reload swaps the model while
//! an open prediction connection keeps being served — zero drops.

use gpufreq_core::{Corpus, ModelConfig, Planner, TrainedPlanner};
use gpufreq_serve::protocol::{Request, Response};
use gpufreq_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

fn planner() -> TrainedPlanner {
    static PLANNER: OnceLock<TrainedPlanner> = OnceLock::new();
    PLANNER
        .get_or_init(|| {
            Planner::builder()
                .corpus(Corpus::Fast)
                .settings(4)
                .model_config(ModelConfig::relaxed())
                .train()
                .expect("fast corpus trains")
        })
        .clone()
}

/// Boot a daemon with both listeners on ephemeral loopback ports;
/// returns `(line_addr, http_addr, join_handle)`.
fn start() -> (SocketAddr, SocketAddr, JoinHandle<()>) {
    let line = TcpListener::bind("127.0.0.1:0").expect("line bind");
    let http = TcpListener::bind("127.0.0.1:0").expect("http bind");
    let line_addr = line.local_addr().unwrap();
    let http_addr = http.local_addr().unwrap();
    let server = Server::new(
        vec![planner()],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("one planner");
    let handle = std::thread::spawn(move || {
        server
            .serve_with_http(line, Some(http))
            .expect("serve loop");
    });
    (line_addr, http_addr, handle)
}

/// Shut the daemon down through the line port (the gateway
/// deliberately has no shutdown route).
fn shut_down(line_addr: SocketAddr, handle: JoinHandle<()>) {
    let mut stream = TcpStream::connect(line_addr).expect("connect for shutdown");
    writeln!(stream, "{}", Request::Shutdown.to_json()).expect("send shutdown");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("shutdown ack");
    handle.join().expect("daemon thread exits cleanly");
}

struct Reply {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// One HTTP exchange on an open connection; the framing mirrors what
/// any minimal client (curl, the loadgen `--http` mode) produces.
fn exchange(stream: &mut TcpStream, method: &str, target: &str, body: Option<&str>) -> Reply {
    let mut request = format!("{method} {target} HTTP/1.1\r\nhost: gpufreq-test\r\n");
    if let Some(body) = body {
        request.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes()).expect("send request");
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut reader = BufReader::new(&*stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .unwrap_or_else(|| panic!("not an HTTP/1.1 status line: {status_line:?}"))
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .expect("content-length on every gateway reply");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    Reply {
        status,
        headers,
        body: String::from_utf8(body).expect("utf-8 body"),
    }
}

#[test]
fn every_route_answers_on_one_keep_alive_connection() {
    let (line_addr, http_addr, handle) = start();
    let mut stream = TcpStream::connect(http_addr).expect("http connect");

    let health = exchange(&mut stream, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert!(
        health.body.starts_with("{\"ok\":\"healthz\""),
        "probe prefix is load-bearing: {}",
        health.body
    );
    assert!(
        health.body.contains("\"uptime_s\":") && health.body.contains("\"slots\":"),
        "healthz carries process identity: {}",
        health.body
    );
    assert_eq!(
        health.headers.get("connection").map(String::as_str),
        Some("keep-alive")
    );
    assert_eq!(
        health.headers.get("content-type").map(String::as_str),
        Some("application/json")
    );

    // The scrape endpoint answers a parseable Prometheus exposition
    // with the text content type, outside the request counters.
    let metrics = exchange(&mut stream, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    let families = gpufreq_obs::parse_exposition(&metrics.body).expect("exposition parses");
    assert!(
        families.iter().any(|f| f.name == "gpufreq_uptime_seconds"),
        "{}",
        metrics.body
    );

    let devices = exchange(&mut stream, "GET", "/devices", None);
    assert_eq!(devices.status, 200);
    let Response::Devices { devices } = Response::parse(&devices.body).unwrap() else {
        panic!("/devices body is the protocol devices response");
    };
    assert_eq!(devices.len(), 1);
    assert_eq!(devices[0].id, "titan-x");

    // Tagged (line-protocol) and untagged (plain-HTTP) predict bodies
    // land on the same execution path and answer identically shaped
    // predictions.
    let tagged = format!(
        "{{\"op\":\"predict\",\"device\":\"titan-x\",\"source\":{}}}",
        json_string(SAXPY)
    );
    let reply = exchange(&mut stream, "POST", "/predict", Some(&tagged));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(matches!(
        Response::parse(&reply.body).unwrap(),
        Response::Predict { .. }
    ));

    let untagged = format!(
        "{{\"device\":\"titan-x\",\"source\":{}}}",
        json_string(SAXPY)
    );
    let untagged_reply = exchange(&mut stream, "POST", "/predict", Some(&untagged));
    assert_eq!(untagged_reply.status, 200);
    assert_eq!(
        untagged_reply.body, reply.body,
        "same kernel, same prediction, regardless of body style"
    );

    let batch = format!(
        "{{\"device\":\"titan-x\",\"sources\":[{},\"not a kernel\"]}}",
        json_string(SAXPY)
    );
    let batch_reply = exchange(&mut stream, "POST", "/predict", Some(&batch));
    assert_eq!(batch_reply.status, 200);
    assert!(matches!(
        Response::parse(&batch_reply.body).unwrap(),
        Response::PredictBatch { .. }
    ));

    // Query strings are routing no-ops.
    let stats = exchange(&mut stream, "GET", "/stats?pretty=1", None);
    assert_eq!(stats.status, 200);
    let Response::Stats { stats } = Response::parse(&stats.body).unwrap() else {
        panic!("/stats body is the protocol stats response");
    };
    assert!(stats.requests.predict >= 2, "{:?}", stats.requests);
    assert_eq!(stats.connections.opened, 1, "one keep-alive connection");

    shut_down(line_addr, handle);
}

#[test]
fn typed_error_codes_map_to_the_documented_statuses() {
    let (line_addr, http_addr, handle) = start();
    let mut stream = TcpStream::connect(http_addr).expect("http connect");

    // Routing errors first: unroutable target, wrong method.
    assert_eq!(exchange(&mut stream, "GET", "/nope", None).status, 404);
    assert_eq!(exchange(&mut stream, "GET", "/predict", None).status, 405);
    assert_eq!(exchange(&mut stream, "POST", "/stats", None).status, 405);

    // Body errors: garbage, wrong op for the route, unknown device,
    // known-but-unserved device, unparsable kernel.
    let case = |stream: &mut TcpStream, body: &str| -> (u16, String) {
        let reply = exchange(stream, "POST", "/predict", Some(body));
        (reply.status, reply.body)
    };
    assert_eq!(case(&mut stream, "not json").0, 400);
    assert_eq!(case(&mut stream, "{\"op\":\"shutdown\"}").0, 400);
    assert_eq!(
        case(&mut stream, "{\"device\":\"gtx-9000\",\"source\":\"x\"}").0,
        404
    );
    assert_eq!(
        case(&mut stream, "{\"device\":\"tesla-p100\",\"source\":\"x\"}").0,
        404
    );
    let (status, body) = case(
        &mut stream,
        "{\"device\":\"titan-x\",\"source\":\"void not_a_kernel() {}\"}",
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"code\":\"kernel\""), "{body}");

    // A declared body larger than the line bound is refused before a
    // single body byte is read; the gateway then closes the
    // connection, since the unread body would desynchronize framing.
    let mut oversize = TcpStream::connect(http_addr).expect("http connect");
    oversize
        .write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 536870912\r\n\r\n")
        .expect("send oversize head");
    let reply = read_reply(&mut oversize);
    assert_eq!(reply.status, 413);
    assert_eq!(
        reply.headers.get("connection").map(String::as_str),
        Some("close")
    );
    let mut rest = Vec::new();
    (&oversize)
        .read_to_end(&mut rest)
        .expect("server closed the oversize connection");
    assert!(rest.is_empty());

    shut_down(line_addr, handle);
}

#[test]
fn deep_nesting_gets_a_422_kernel_error_and_the_connection_keeps_serving() {
    let (line_addr, http_addr, handle) = start();
    let mut stream = TcpStream::connect(http_addr).expect("http connect");
    let kernel = |stmt: String| {
        format!("__kernel void deep(__global float* x) {{\n    uint i = get_global_id(0);\n    {stmt}\n}}")
    };
    let poisons = [
        kernel(format!(
            "x[i] = {}1.0f{};",
            "(".repeat(20_000),
            ")".repeat(20_000)
        )),
        kernel(format!("{}{}", "{".repeat(50_000), "}".repeat(50_000))),
        kernel(format!(
            "x[i] = {}0{};",
            "x[".repeat(20_000),
            "]".repeat(20_000)
        )),
        kernel(format!("x[i] = {}1;", "!".repeat(200_000))),
    ];
    let body = |source: &str| {
        format!(
            "{{\"device\":\"titan-x\",\"source\":{}}}",
            json_string(source)
        )
    };
    for poison in &poisons {
        let reply = exchange(&mut stream, "POST", "/predict", Some(&body(poison)));
        assert_eq!(reply.status, 422, "{}", reply.body);
        assert!(reply.body.contains("\"code\":\"kernel\""), "{}", reply.body);
        assert!(reply.body.contains("nesting deeper than"), "{}", reply.body);
        // The same keep-alive connection still serves a normal predict.
        let ok = exchange(&mut stream, "POST", "/predict", Some(&body(SAXPY)));
        assert_eq!(ok.status, 200, "{}", ok.body);
    }
    shut_down(line_addr, handle);
}

#[test]
fn hot_reload_swaps_the_model_without_dropping_open_connections() {
    let dir = std::env::temp_dir().join("gpufreq-http-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("titan-x-v2.json");
    planner().save(&artifact).expect("artifact saves");

    let (line_addr, http_addr, handle) = start();

    // A long-lived data-plane connection, established before any swap.
    let mut data = TcpStream::connect(http_addr).expect("data connect");
    let body = format!(
        "{{\"device\":\"titan-x\",\"source\":{}}}",
        json_string(SAXPY)
    );
    let before = exchange(&mut data, "POST", "/predict", Some(&body));
    assert_eq!(before.status, 200);

    // Admin swaps the model twice from a second connection; versions
    // are monotonic per device slot (1 = the boot model).
    let mut admin = TcpStream::connect(http_addr).expect("admin connect");
    let reload_body = format!(
        "{{\"device\":\"titan-x\",\"path\":{}}}",
        json_string(&artifact.to_string_lossy())
    );
    for expected_version in [2u64, 3] {
        let reply = exchange(&mut admin, "POST", "/admin/reload", Some(&reload_body));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let Response::Reload { version, .. } = Response::parse(&reply.body).unwrap() else {
            panic!(
                "reload body is the protocol reload response: {}",
                reply.body
            );
        };
        assert_eq!(version, expected_version);

        // The pre-swap connection keeps being served — zero drops —
        // and the same kernel still predicts identically (same
        // artifact, so the swap is observable only via the version).
        let after = exchange(&mut data, "POST", "/predict", Some(&body));
        assert_eq!(after.status, 200);
        assert_eq!(after.body, before.body);
    }

    // A reload naming a missing artifact is a typed 500, and still
    // does not disturb the data plane.
    let broken = exchange(
        &mut admin,
        "POST",
        "/admin/reload",
        Some("{\"device\":\"titan-x\",\"path\":\"/nonexistent/model.json\"}"),
    );
    assert_eq!(broken.status, 500, "{}", broken.body);
    assert!(
        broken.body.contains("\"code\":\"reload_failed\""),
        "{}",
        broken.body
    );
    let after = exchange(&mut data, "POST", "/predict", Some(&body));
    assert_eq!(after.status, 200);

    let stats_reply = exchange(&mut admin, "GET", "/stats", None);
    let Response::Stats { stats } = Response::parse(&stats_reply.body).unwrap() else {
        panic!("stats parses");
    };
    assert_eq!(stats.requests.reload, 3);
    assert_eq!(stats.connections.opened, 2);
    assert_eq!(stats.connections.closed, 0, "zero dropped connections");

    shut_down(line_addr, handle);
}

/// Minimal JSON string escaping for test bodies (quotes, backslashes,
/// and the newlines inside kernel sources).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

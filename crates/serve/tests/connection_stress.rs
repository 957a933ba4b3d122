//! Connection-lifecycle stress tests against a real daemon on a
//! loopback socket: the concurrent-connection cap refuses with a
//! typed `overloaded` line (never a silent drop), concurrent clients
//! pipelining mixed traffic each get byte-identical in-order answers,
//! and every connection thread is reaped (`opened == closed`,
//! `active == 0`) — the regression net for the thread-per-connection
//! leak fixed in PR 8.

use gpufreq_core::{Corpus, ModelConfig, Planner, TrainedPlanner};
use gpufreq_serve::protocol::{ErrorCode, Request, Response, ServerStats};
use gpufreq_serve::{Server, ServerConfig};
use gpufreq_sim::Device;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

/// One fast planner shared by both tests (training dominates runtime).
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

/// Boot a daemon on an ephemeral loopback port; the thread returns the
/// final stats snapshot once a `shutdown` request drains it.
fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<ServerStats>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound addr");
    let server = Server::new(vec![planner()], config).expect("one planner");
    let handle = std::thread::spawn(move || server.serve(listener).expect("serve loop"));
    (addr, handle)
}

fn shut_down(addr: SocketAddr, handle: JoinHandle<ServerStats>) -> ServerStats {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    writeln!(stream, "{}", Request::Shutdown.to_json()).expect("send shutdown");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("shutdown ack");
    assert!(matches!(
        Response::parse(line.trim()).expect("ack parses"),
        Response::Shutdown
    ));
    handle.join().expect("daemon thread exits cleanly")
}

/// One round trip on an already-open connection.
fn ask(stream: &mut TcpStream, request: &Request) -> Response {
    writeln!(stream, "{}", request.to_json()).expect("send");
    let mut line = String::new();
    BufReader::new(&*stream).read_line(&mut line).expect("recv");
    Response::parse(line.trim()).expect("response parses")
}

#[test]
fn past_the_cap_connections_get_a_typed_refusal_then_recover() {
    let cap = 4;
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        max_connections: cap,
        ..ServerConfig::default()
    });

    // Fill the cap with holders; a served round trip proves each one
    // made it past dispatch (not just into a kernel accept queue).
    let mut holders = Vec::new();
    for _ in 0..cap {
        let mut stream = TcpStream::connect(addr).expect("holder connects");
        let response = ask(&mut stream, &Request::predict(Device::TitanX, SAXPY));
        assert!(matches!(response, Response::Predict { .. }), "{response:?}");
        holders.push(stream);
    }

    // Every socket past the cap is answered with one typed
    // `overloaded` line and then closed — never silently dropped,
    // never given a thread.
    for i in 0..3 {
        let stream = TcpStream::connect(addr).expect("victim connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut refusal = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut refusal)
            .expect("refusal line then EOF");
        let error = Response::parse(refusal.trim())
            .expect("refusal is protocol JSON")
            .error()
            .cloned()
            .unwrap_or_else(|| panic!("victim {i} got a non-error: {refusal}"));
        assert_eq!(error.code, ErrorCode::Overloaded, "{refusal}");
        assert!(error.message.contains("connection cap"), "{refusal}");
    }

    // Release the holders; their threads must be reaped so fresh
    // clients are admitted again (the leak regression: a stuck reader
    // would pin `active` at the cap forever).
    drop(holders);
    // A probe may itself be refused (or hit a dying socket) while the
    // holders drain, so tolerate every failure mode until the deadline.
    let probe = || -> Option<ServerStats> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        writeln!(stream, "{}", Request::Stats.to_json()).ok()?;
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).ok()?;
        match Response::parse(line.trim()).ok()? {
            Response::Stats { stats } => Some(*stats),
            _ => None,
        }
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        if let Some(stats) = probe() {
            if stats.connections.active == 1 {
                break stats; // only this probe is open
            }
        }
        assert!(
            Instant::now() < deadline,
            "holders were not reaped within 10s"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(stats.connections.refused, 3);
    assert_eq!(stats.connections.opened, stats.connections.closed + 1);

    let final_stats = shut_down(addr, handle);
    assert_eq!(final_stats.connections.active, 0, "no leaked threads");
    assert_eq!(
        final_stats.connections.opened,
        final_stats.connections.closed
    );
    assert_eq!(final_stats.connections.refused, 3);
}

#[test]
fn concurrent_pipelined_clients_get_identical_in_order_answers() {
    let clients = 8;
    let (addr, handle) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // A deterministic pipelined mix: two predicts (served + error
    // paths), a catalog read, a malformed line, and an oversize line
    // that must be discarded as it streams in. Every response is
    // independent of server state, so all clients must read the same
    // bytes in the same order.
    let mut script = Vec::new();
    for request in [
        Request::predict(Device::TitanX, SAXPY),
        Request::Devices,
        Request::Predict {
            device: "gtx-9000".into(), // unknown id -> unknown_device
            source: "x".into(),
        },
        Request::predict(Device::TeslaP100, "x"), // known, not loaded
        Request::predict_batch(
            Device::TitanX,
            vec![SAXPY.to_string(), "not a kernel".to_string()],
        ),
    ] {
        script.extend_from_slice(request.to_json().as_bytes());
        script.push(b'\n');
    }
    script.extend_from_slice(b"not json at all\n");
    // 4 MiB + 1 of 'x': one byte past MAX_LINE_BYTES.
    script.extend(std::iter::repeat_n(b'x', (4 << 20) + 1));
    script.push(b'\n');
    let script = Arc::new(script);
    let expected_lines = 7;

    let barrier = Arc::new(Barrier::new(clients));
    let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let script = Arc::clone(&script);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("client connects");
                    barrier.wait(); // all connections open before any traffic
                    stream.write_all(&script).expect("pipelined write");
                    stream.shutdown(Shutdown::Write).expect("half-close");
                    let mut out = Vec::new();
                    stream.read_to_end(&mut out).expect("drain responses");
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = String::from_utf8(outputs[0].clone()).expect("utf-8 responses");
    let lines: Vec<&str> = reference.lines().collect();
    assert_eq!(lines.len(), expected_lines, "{reference}");
    assert!(matches!(
        Response::parse(lines[0]).unwrap(),
        Response::Predict { .. }
    ));
    assert!(matches!(
        Response::parse(lines[1]).unwrap(),
        Response::Devices { .. }
    ));
    let code = |line: &str| Response::parse(line).unwrap().error().unwrap().code;
    assert_eq!(code(lines[2]), ErrorCode::UnknownDevice);
    assert_eq!(code(lines[3]), ErrorCode::DeviceNotServed);
    assert!(matches!(
        Response::parse(lines[4]).unwrap(),
        Response::PredictBatch { .. }
    ));
    assert_eq!(code(lines[5]), ErrorCode::BadRequest);
    assert_eq!(code(lines[6]), ErrorCode::BadRequest);
    assert!(
        lines[6].contains("exceeds"),
        "oversize line gets the bounded-buffer error: {}",
        lines[6]
    );

    // Byte-identical across clients: responses were never interleaved
    // across connections and always came back in request order.
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(
            out, &outputs[0],
            "client {i} read different bytes than client 0"
        );
    }

    let stats = shut_down(addr, handle);
    assert_eq!(stats.connections.active, 0, "no leaked threads");
    assert_eq!(stats.connections.opened, stats.connections.closed);
    assert_eq!(stats.connections.refused, 0);
    // 7 lines per client plus the shutdown line.
    assert_eq!(
        stats.requests.total,
        clients as u64 * expected_lines as u64 + 1
    );
}

/// Kernels that nest one construct far past the parser's limit: the
/// shapes and depths that used to overflow a worker's stack and abort
/// the daemon.
fn poison_sources() -> Vec<String> {
    let kernel = |stmt: String| {
        format!("__kernel void deep(__global float* x) {{\n    uint i = get_global_id(0);\n    {stmt}\n}}")
    };
    vec![
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
    ]
}

#[test]
fn deep_nesting_gets_a_typed_kernel_error_and_the_connection_keeps_serving() {
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let predict = |source: String| Request::Predict {
        device: Device::TitanX.id().into(),
        source,
    };
    for poison in poison_sources() {
        let answer = ask(&mut stream, &predict(poison));
        let error = answer.error().expect("a typed error");
        assert_eq!(error.code, ErrorCode::Kernel, "{error}");
        assert!(error.message.contains("nesting deeper than"), "{error}");
        // The same connection, on the same daemon, still serves.
        assert!(matches!(
            ask(&mut stream, &predict(SAXPY.into())),
            Response::Predict { .. }
        ));
    }
    drop(stream);
    let stats = shut_down(addr, handle);
    assert_eq!(stats.requests.errors, 4);
}

//! Property tests pinning the router's routing determinism and the
//! raw-byte batch merge, plus a live byte-identity check: a router
//! answers `predict_batch` with exactly the bytes a single daemon
//! would, for every replica count.

mod common;

use common::{shutdown, spawn_backend, spawn_router, test_router_config};
use gpufreq_router::route::{merge_batch, replica_for, split_batch, split_results};
use gpufreq_serve::Request;
use gpufreq_sim::Device;
use proptest::prelude::*;
use serde::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replica assignment is a pure function of (device, source,
    /// replica count): stable across calls and interleavings, always
    /// in range, and degenerate cases (0/1 replicas) pin to 0.
    #[test]
    fn replica_assignment_is_pure_and_bounded(
        device_idx in 0usize..3,
        sources in prop::collection::vec("\\PC{0,80}", 1..20),
        replicas in 0usize..8,
    ) {
        let device = Device::all()[device_idx];
        let first: Vec<usize> =
            sources.iter().map(|s| replica_for(device, s, replicas)).collect();
        // Re-evaluate in reverse order — interleaving cannot matter.
        let again: Vec<usize> = sources
            .iter()
            .rev()
            .map(|s| replica_for(device, s, replicas))
            .rev()
            .collect();
        prop_assert_eq!(&first, &again);
        for &r in &first {
            if replicas <= 1 {
                prop_assert_eq!(r, 0);
            } else {
                prop_assert!(r < replicas);
            }
        }
    }

    /// `split_batch` partitions the request indices: every slot lands
    /// in exactly the bucket its source hashes to, in request order.
    #[test]
    fn batch_split_partitions_in_request_order(
        device_idx in 0usize..3,
        sources in prop::collection::vec("\\PC{0,80}", 0..24),
        replicas in 1usize..6,
    ) {
        let device = Device::all()[device_idx];
        let shards = split_batch(device, &sources, replicas);
        prop_assert_eq!(shards.len(), replicas.max(1));
        let mut seen = vec![false; sources.len()];
        for (replica, bucket) in shards.iter().enumerate() {
            let mut last = None;
            for &i in bucket {
                prop_assert!(i < sources.len());
                prop_assert!(!seen[i], "index {} in two buckets", i);
                seen[i] = true;
                prop_assert_eq!(replica_for(device, &sources[i], replicas), replica);
                prop_assert!(last.is_none_or(|p| p < i), "bucket out of order");
                last = Some(i);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "index dropped by the split");
    }

    /// Merging arbitrary raw result slots and splitting the merged
    /// body returns the same slot bytes — the splice layer never
    /// re-serializes (or corrupts) a backend's result.
    #[test]
    fn batch_merge_round_trips_raw_slots(
        device_idx in 0usize..3,
        messages in prop::collection::vec("\\PC{0,60}", 0..12),
    ) {
        let device = Device::all()[device_idx];
        // Slots shaped like real backend results: a prediction-like
        // object or an error body whose message carries arbitrary
        // (JSON-escaped) text, including quotes, braces, commas.
        let slots: Vec<String> = messages
            .iter()
            .enumerate()
            .map(|(i, message)| {
                let value = if i % 2 == 0 {
                    Value::Object(vec![(
                        "prediction".to_string(),
                        Value::Object(vec![(
                            "pareto_set".to_string(),
                            Value::Array(vec![Value::String(message.clone())]),
                        )]),
                    )])
                } else {
                    Value::Object(vec![(
                        "error".to_string(),
                        Value::Object(vec![
                            ("code".to_string(), Value::String("parse".to_string())),
                            ("message".to_string(), Value::String(message.clone())),
                        ]),
                    )])
                };
                serde_json::to_string(&value).expect("slot serialization")
            })
            .collect();
        let borrowed: Vec<&str> = slots.iter().map(String::as_str).collect();
        let merged = merge_batch(device.id(), &borrowed);
        let split = split_results(&merged, device.id())
            .expect("a merged body must split back");
        prop_assert_eq!(split, borrowed);
    }
}

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

/// Live byte-identity: for 1, 2, and 3 replicas, the router's
/// `predict_batch` response is byte-for-byte the single daemon's —
/// split, fan-out, and merge are invisible on the wire.
#[test]
fn router_batches_are_byte_identical_to_a_single_daemon_for_any_replica_count() {
    let backends = [spawn_backend(), spawn_backend(), spawn_backend()];
    let mut reference = common::connect(backends[0].addr);

    // Batches sized to split across replicas, with an error slot and a
    // duplicate (cache-hit) slot mixed in.
    let sources: Vec<String> = (0..9)
        .map(|i| match i {
            4 => "definitely not OpenCL".to_string(),
            7 => format!("// batch 1\n{SAXPY}"),
            _ => format!("// batch {i}\n{SAXPY}"),
        })
        .collect();
    let requests: Vec<String> = (1..=sources.len())
        .step_by(4)
        .map(|n| {
            Request::PredictBatch {
                device: "titan-x".to_string(),
                sources: sources[..n].to_vec(),
            }
            .to_json()
        })
        .collect();
    let expected: Vec<String> = requests
        .iter()
        .map(|line| reference.call(line).expect("daemon batch"))
        .collect();

    for replicas in 1..=backends.len() {
        let addrs: Vec<_> = backends[..replicas].iter().map(|b| b.addr).collect();
        let router = spawn_router(test_router_config(&addrs));
        let mut client = common::connect(router.addr);
        for (line, want) in requests.iter().zip(&expected) {
            let got = client.call(line).expect("router batch");
            assert_eq!(
                &got, want,
                "router response diverged from the daemon at {replicas} replica(s)"
            );
        }
        shutdown(router.addr);
        router.thread.join().expect("router thread");
    }

    for backend in backends {
        shutdown(backend.addr);
        backend.thread.join().expect("backend thread");
    }
}

/// Send `bytes` on a fresh connection, half-close it, and return
/// everything the peer answers before it hangs up.
fn exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connecting");
    let mut reader = stream.try_clone().expect("cloning the socket");
    let reading = std::thread::spawn(move || {
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("reading the replies");
        out
    });
    stream.write_all(bytes).expect("sending the request bytes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-closing");
    reading.join().expect("reader thread")
}

/// Live line-path identity: raw bytes a client can send — lines past
/// the request bound, a non-UTF-8 line, a blank line before a real
/// request — get byte-identical replies from a daemon and from a
/// router over it. The router refuses every rejected line itself
/// (counted as malformed) and forwards none of them.
#[test]
fn router_line_path_is_byte_identical_to_a_daemon_for_raw_input() {
    use gpufreq_serve::conn::MAX_LINE_BYTES;
    let backend = spawn_backend();
    let oversize = |extra: usize| {
        let mut bytes = vec![b'x'; MAX_LINE_BYTES + extra];
        bytes.push(b'\n');
        bytes
    };
    let predict = Request::Predict {
        device: "titan-x".to_string(),
        source: SAXPY.to_string(),
    }
    .to_json();
    let rejected = [
        oversize(1),
        oversize(100),
        oversize(70_000),
        vec![0xff, 0xfe, b'x', b'\n'],
    ];
    let blank_then_predict = format!("\n{predict}\n").into_bytes();
    let inputs: Vec<&[u8]> = rejected
        .iter()
        .map(Vec::as_slice)
        .chain([blank_then_predict.as_slice()])
        .collect();

    let expected: Vec<Vec<u8>> = inputs.iter().map(|b| exchange(backend.addr, b)).collect();
    let router = spawn_router(test_router_config(&[backend.addr]));
    let before = backend.server.stats().requests;
    for (input, want) in inputs.iter().zip(&expected) {
        let got = exchange(router.addr, input);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(want),
            "router reply diverged from the daemon's for a {}-byte input",
            input.len()
        );
    }
    assert_eq!(
        router.router.snapshot().counters.malformed,
        rejected.len() as u64,
        "one malformed count per rejected line"
    );
    // Health probes are `devices` requests; everything else the
    // backend saw during the router phase is forwarded client traffic.
    let after = backend.server.stats().requests;
    assert_eq!(
        after.errors, before.errors,
        "no rejected line reached the backend"
    );
    assert_eq!(
        (after.total - after.devices) - (before.total - before.devices),
        1,
        "only the predict was forwarded"
    );

    shutdown(router.addr);
    router.thread.join().expect("router thread");
    shutdown(backend.addr);
    backend.thread.join().expect("backend thread");
}

/// The router's connection cap: with room for one connection, a
/// second line client gets the typed `overloaded` line and a second
/// HTTP client the 503 refusal, and the slot is served again once the
/// first connection closes.
#[test]
fn router_connection_cap_refuses_typed_and_frees_on_close() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    let backend = spawn_backend();
    let mut config = test_router_config(&[backend.addr]);
    config.max_connections = 1;
    let router = std::sync::Arc::new(gpufreq_router::Router::new(config).expect("router"));
    let line = TcpListener::bind("127.0.0.1:0").expect("binding the line port");
    let http = TcpListener::bind("127.0.0.1:0").expect("binding the http port");
    let (addr, http_addr) = (line.local_addr().unwrap(), http.local_addr().unwrap());
    let serving = {
        let router = std::sync::Arc::clone(&router);
        std::thread::spawn(move || router.serve_with_http(line, Some(http)).expect("serving"))
    };
    let devices = Request::Devices.to_json();
    // One request line on `stream` and its reply line; empty when the
    // router refused or dropped the connection.
    let round_trip = |stream: &TcpStream, request: &str| -> String {
        let mut writer = stream;
        let mut reply = String::new();
        if writeln!(writer, "{request}").is_ok() {
            let _ = BufReader::new(stream).read_line(&mut reply);
        }
        reply
    };

    // The first connection holds the only slot (a round-trip proves
    // it was accepted, not just queued in the backlog).
    let held = TcpStream::connect(addr).expect("connecting");
    assert!(round_trip(&held, &devices).starts_with("{\"ok\":\"devices\""));

    let mut refused = String::new();
    TcpStream::connect(addr)
        .expect("connecting")
        .read_to_string(&mut refused)
        .expect("reading the refusal");
    let refusal = gpufreq_serve::Response::parse(refused.trim()).expect("refusal parses");
    let error = refusal.error().expect("refusal is a typed error");
    assert_eq!(error.code, gpufreq_serve::ErrorCode::Overloaded);
    assert!(
        error.message.contains("connection cap"),
        "{}",
        error.message
    );

    let mut http_refused = String::new();
    TcpStream::connect(http_addr)
        .expect("connecting")
        .read_to_string(&mut http_refused)
        .expect("reading the HTTP refusal");
    assert!(http_refused.starts_with("HTTP/1.1 503 "), "{http_refused}");
    assert!(http_refused.contains("connection cap"), "{http_refused}");

    // Closing the first connection frees the slot: the next one is
    // served, and it shuts the router down.
    drop(held);
    let shutdown_line = Request::Shutdown.to_json();
    let served = common::wait_for(std::time::Duration::from_secs(10), || {
        let stream = TcpStream::connect(addr).expect("connecting");
        round_trip(&stream, &shutdown_line).starts_with("{\"ok\":\"shutdown\"")
    });
    assert!(served, "a new connection was served after the first closed");
    serving.join().expect("router thread");
    shutdown(backend.addr);
    backend.thread.join().expect("backend thread");
}

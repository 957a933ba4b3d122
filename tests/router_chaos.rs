//! Chaos integration test for the router: kill a backend mid-load,
//! watch its circuit breaker open while the survivor absorbs the
//! traffic, restart the backend on the same port, and watch the
//! health probes close the circuit again — with zero malformed
//! responses end to end.

mod common;

use common::{
    shutdown, spawn_backend, spawn_backend_on, spawn_router, test_router_config, wait_for,
};
use gpufreq_router::route::replica_for;
use gpufreq_router::CircuitState;
use gpufreq_serve::{Request, Response};
use gpufreq_sim::Device;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

/// The circuit state the router currently reports for `addr`.
fn circuit_of(router: &gpufreq_router::Router, addr: std::net::SocketAddr) -> CircuitState {
    router
        .snapshot()
        .backends
        .into_iter()
        .find(|b| b.addr == addr.to_string())
        .expect("backend missing from the router snapshot")
        .state
}

#[test]
fn a_killed_backend_opens_its_circuit_and_recovers_on_restart() {
    let survivor = spawn_backend();
    let victim = spawn_backend();
    let router = spawn_router(test_router_config(&[survivor.addr, victim.addr]));

    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let malformed = AtomicU64::new(0);
    let revived = std::thread::scope(|scope| {
        // Background load: unique predicts through the router for the
        // whole chaos window. Every response must parse as the typed
        // protocol — a prediction or a typed error — no matter what
        // happens to the backends underneath.
        for t in 0..3u64 {
            let (stop, answered, malformed) = (&stop, &answered, &malformed);
            let addr = router.addr;
            scope.spawn(move || {
                let mut client = common::connect(addr);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let request = Request::Predict {
                        device: "titan-x".to_string(),
                        source: format!("// chaos {t} {i}\n{SAXPY}"),
                    };
                    i += 1;
                    let Ok(response) = client.request(&request) else {
                        // The router never drops an accepted
                        // connection mid-request.
                        malformed.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    answered.fetch_add(1, Ordering::Relaxed);
                    if Response::parse(&response).is_err() {
                        malformed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Let the mix warm up, then kill the victim mid-load.
        assert!(
            wait_for(Duration::from_secs(10), || {
                answered.load(Ordering::Relaxed) >= 20
            }),
            "load never got going"
        );
        shutdown(victim.addr);
        let victim_summary = victim.thread.join().expect("victim thread");
        assert!(victim_summary.requests.total >= 1);

        // The router notices: failed calls and probes trip the
        // victim's breaker open while the survivor stays closed.
        assert!(
            wait_for(Duration::from_secs(10), || {
                circuit_of(&router.router, victim.addr) == CircuitState::Open
            }),
            "the victim's circuit never opened: {:?}",
            router.router.snapshot()
        );
        assert_eq!(
            circuit_of(&router.router, survivor.addr),
            CircuitState::Closed
        );

        // Restart the backend on the *same* port (SO_REUSEADDR); the
        // health probes half-open the circuit and close it again.
        let listener = TcpListener::bind(victim.addr).expect("rebinding the victim's port");
        let revived = spawn_backend_on(listener);
        assert!(
            wait_for(Duration::from_secs(10), || {
                circuit_of(&router.router, victim.addr) == CircuitState::Closed
            }),
            "the victim's circuit never re-closed: {:?}",
            router.router.snapshot()
        );

        stop.store(true, Ordering::Relaxed);
        revived
    });

    // Zero malformed responses across the whole window, and the
    // survivor genuinely absorbed traffic while the victim was down.
    assert_eq!(
        malformed.load(Ordering::Relaxed),
        0,
        "malformed responses under chaos"
    );
    assert!(answered.load(Ordering::Relaxed) >= 20);

    // With the circuit closed again, kernels owned by the revived
    // replica are served by it again: send predicts that hash to it
    // and check they succeed through the router.
    let mut client = common::connect(router.addr);
    let mut routed_to_revived = 0u64;
    for i in 0..64 {
        let source = format!("// recovery {i}\n{SAXPY}");
        // Backends are [survivor, victim] in config order, so the
        // revived replica is index 1.
        if replica_for(Device::TitanX, &source, 2) == 1 {
            routed_to_revived += 1;
            let response = client
                .request(&Request::Predict {
                    device: "titan-x".to_string(),
                    source,
                })
                .expect("post-recovery predict");
            assert!(
                response.starts_with("{\"ok\":\"predict\""),
                "post-recovery predict failed: {response}"
            );
        }
    }
    assert!(
        routed_to_revived > 0,
        "no recovery kernel hashed to the revived replica"
    );

    shutdown(router.addr);
    let snapshot = router.thread.join().expect("router thread");
    assert!(snapshot.counters.routed >= 20);
    shutdown(survivor.addr);
    survivor.thread.join().expect("survivor thread");
    // Draining the revived backend proves the recovery predicts really
    // landed on it (probes are `devices` ops, not predicts).
    shutdown(revived.addr);
    let revived_summary = revived.thread.join().expect("revived thread");
    assert!(
        revived_summary.requests.predict >= routed_to_revived,
        "the revived backend served {} predict(s), expected at least {routed_to_revived}",
        revived_summary.requests.predict
    );
}

#[test]
fn a_deeply_nested_kernel_gets_a_typed_error_and_kills_no_replica() {
    let replicas = [spawn_backend(), spawn_backend()];
    let router = spawn_router(test_router_config(&[replicas[0].addr, replicas[1].addr]));
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
    let predict = |source: &str| Request::Predict {
        device: "titan-x".to_string(),
        source: source.to_string(),
    };
    let mut client = common::connect(router.addr);
    for poison in &poisons {
        let response = client.request(&predict(poison)).expect("poison answer");
        assert!(response.contains("\"code\":\"kernel\""), "{response}");
        assert!(response.contains("nesting deeper than"), "{response}");
        let ok = client.request(&predict(SAXPY)).expect("normal answer");
        assert!(ok.starts_with("{\"ok\":\"predict\""), "{ok}");
    }
    // Both replicas are alive and closed: a typed answer is not a
    // backend failure, so nothing was retried elsewhere.
    for replica in &replicas {
        assert_eq!(
            circuit_of(&router.router, replica.addr),
            CircuitState::Closed
        );
    }
    assert_eq!(router.router.snapshot().counters.retried, 0);

    shutdown(router.addr);
    router.thread.join().expect("router thread");
    let mut errors = 0;
    for replica in replicas {
        shutdown(replica.addr);
        errors += replica
            .thread
            .join()
            .expect("replica thread")
            .requests
            .errors;
    }
    assert_eq!(errors, 4, "each poison reached exactly one replica once");
}

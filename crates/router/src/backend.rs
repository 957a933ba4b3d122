//! One backend daemon as seen from the router: a pooled set of
//! [`LineClient`] connections behind a circuit breaker and a bounded
//! in-flight counter.
//!
//! All mutable state sits in one mutex (`BackendState`) held only
//! for bookkeeping — never across a network call. A call takes a
//! pooled connection (or a permit to dial a new one) under the lock,
//! performs the exchange unlocked, then re-locks to return the
//! connection and record the outcome with the breaker.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gpufreq_obs::StageSet;
use gpufreq_serve::protocol::{DeviceInfo, ErrorBody, ErrorCode, Request, Response};
use gpufreq_serve::LineClient;
use gpufreq_sim::Device;

use crate::breaker::{Admit, Breaker};
use crate::config::RouterConfig;
use crate::wire::BackendSnapshot;

/// The serialized prefix of a typed `overloaded` error response —
/// checked against the protocol serializer by a unit test below so the
/// two cannot drift.
const OVERLOADED_PREFIX: &str = "{\"error\":{\"code\":\"overloaded\"";

/// Why a forwarding attempt did not produce a backend response.
#[derive(Debug)]
pub enum CallError {
    /// The circuit is open: the backend was not contacted.
    Broken,
    /// The backend is at its in-flight cap: not contacted.
    Busy,
    /// Connecting or exchanging failed at the transport layer.
    Io(io::Error),
    /// The backend answered, but with a typed `overloaded` rejection
    /// (the raw response line, relayable if every replica says so).
    Overloaded(String),
}

/// Mutable per-backend state, lock-protected as one unit.
struct BackendState {
    /// Idle pooled connections (LIFO: reuse the warmest socket).
    idle: Vec<LineClient>,
    /// Outstanding requests against this backend.
    in_flight: u64,
    breaker: Breaker,
    /// Client requests forwarded (health probes counted separately).
    requests: u64,
    /// Health probes sent (router-originated `devices` checks).
    probes: u64,
    /// Transport failures + `overloaded` rejections.
    failures: u64,
    /// Device inventory from the most recent successful probe.
    info: Option<Vec<DeviceInfo>>,
}

/// One backend daemon: address, served devices, pooled connections,
/// breaker.
pub struct Backend {
    addr: String,
    devices: Vec<Device>,
    max_in_flight: u64,
    pool_idle: usize,
    read_timeout: Option<std::time::Duration>,
    state: Mutex<BackendState>,
    /// Router-shared per-stage histograms; every fresh dial records a
    /// `connect` span.
    stages: Arc<StageSet>,
}

impl Backend {
    /// A backend at `addr` serving `devices`, with `config`'s breaker
    /// and pool knobs. `info` seeds the device-inventory cache when
    /// startup discovery already fetched it; fresh dials are timed
    /// into `stages`.
    pub fn new(
        addr: String,
        devices: Vec<Device>,
        info: Option<Vec<DeviceInfo>>,
        config: &RouterConfig,
        stages: Arc<StageSet>,
    ) -> Backend {
        Backend {
            addr,
            devices,
            max_in_flight: config.max_in_flight.max(1) as u64,
            pool_idle: config.pool_idle,
            read_timeout: config.read_timeout,
            state: Mutex::new(BackendState {
                idle: Vec::new(),
                in_flight: 0,
                breaker: Breaker::new(config.failure_threshold, config.cooldown),
                requests: 0,
                probes: 0,
                failures: 0,
                info,
            }),
            stages,
        }
    }

    /// The backend's `host:port` address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The devices this backend serves (fixed at router startup).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    fn lock(&self) -> MutexGuard<'_, BackendState> {
        // analyze:allow(panic-in-request-path, reason = "a poisoned lock means a router thread panicked mid-bookkeeping; state is unrecoverable and propagating the panic is the faithful report")
        self.state.lock().expect("backend state poisoned")
    }

    /// Forward one raw request line, respecting the breaker and the
    /// in-flight cap. On success returns the raw response line with
    /// the connection back in the pool.
    pub fn call(&self, line: &str) -> Result<String, CallError> {
        self.call_flagged(line, false)
    }

    /// [`Backend::call`] with an explicit probe flag: probe traffic is
    /// counted in its own `probes` counter so the `requests` counter
    /// reflects client load only. Breaker and in-flight bookkeeping
    /// are identical either way.
    fn call_flagged(&self, line: &str, is_probe: bool) -> Result<String, CallError> {
        let pooled = {
            let mut st = self.lock();
            if st.in_flight >= self.max_in_flight {
                return Err(CallError::Busy);
            }
            if st.breaker.admit(Instant::now()) == Admit::No {
                return Err(CallError::Broken);
            }
            st.in_flight += 1;
            if is_probe {
                st.probes += 1;
            } else {
                st.requests += 1;
            }
            st.idle.pop()
        };
        let outcome = self.exchange(pooled, line);
        let mut st = self.lock();
        st.in_flight -= 1;
        match outcome {
            Ok((client, response)) => {
                // The connection stayed response-aligned either way;
                // pool it. A typed `overloaded` still counts against
                // the breaker — the backend told us to back off.
                if st.idle.len() < self.pool_idle {
                    st.idle.push(client);
                }
                if response.starts_with(OVERLOADED_PREFIX) {
                    st.failures += 1;
                    st.breaker.record_failure(Instant::now());
                    Err(CallError::Overloaded(response))
                } else {
                    st.breaker.record_success();
                    Ok(response)
                }
            }
            Err(e) => {
                // The stream may hold a half-read response; the
                // connection was already dropped in `exchange`.
                st.failures += 1;
                st.breaker.record_failure(Instant::now());
                Err(CallError::Io(e))
            }
        }
    }

    /// Perform one exchange outside the lock, dialing if no pooled
    /// connection was available.
    fn exchange(&self, pooled: Option<LineClient>, line: &str) -> io::Result<(LineClient, String)> {
        let mut client = match pooled {
            Some(client) => client,
            None => {
                let dial = Instant::now();
                let client = LineClient::connect(&self.addr)?;
                client.set_read_timeout(self.read_timeout)?;
                self.stages
                    .observe_us("connect", dial.elapsed().as_micros() as u64);
                client
            }
        };
        let response = client.call(line)?;
        Ok((client, response))
    }

    /// Health-check: a `devices` probe through the normal [`Backend::call`]
    /// path, so an open breaker gates probes exactly like requests
    /// (the cooldown/half-open machinery decides when the network is
    /// touched again). A successful probe refreshes the cached device
    /// inventory; an unparseable answer counts as a failure.
    pub fn probe(&self) -> Option<Vec<DeviceInfo>> {
        let response = self.call_flagged(&Request::Devices.to_json(), true).ok()?;
        match Response::parse(&response) {
            Ok(Response::Devices { devices }) => {
                self.lock().info = Some(devices.clone());
                Some(devices)
            }
            _ => {
                let mut st = self.lock();
                st.failures += 1;
                st.breaker.record_failure(Instant::now());
                None
            }
        }
    }

    /// The device inventory from the most recent successful probe.
    pub fn info(&self) -> Option<Vec<DeviceInfo>> {
        self.lock().info.clone()
    }

    /// Health snapshot for the `router` stats section.
    pub fn snapshot(&self) -> BackendSnapshot {
        let st = self.lock();
        BackendSnapshot {
            addr: self.addr.clone(),
            devices: self.devices.iter().map(|d| d.id().to_string()).collect(),
            state: st.breaker.state(),
            requests: st.requests,
            probes: st.probes,
            failures: st.failures,
            in_flight: st.in_flight,
        }
    }

    /// Build an `overloaded` rejection for requests no replica could
    /// take (every circuit open, every pool at its cap, or every
    /// transport attempt failed).
    pub fn all_unavailable(device: Device) -> String {
        ErrorBody::new(
            ErrorCode::Overloaded,
            format!("no replica for `{}` is available; retry later", device.id()),
        )
        .into_response()
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CircuitState;

    #[test]
    fn overloaded_prefix_matches_the_protocol_serializer() {
        let body = ErrorBody::new(ErrorCode::Overloaded, "queue full; retry later")
            .into_response()
            .to_json();
        assert!(body.starts_with(OVERLOADED_PREFIX), "{body}");
        // Other codes must not match, or healthy errors would trip
        // the breaker.
        let kernel = ErrorBody::new(ErrorCode::Kernel, "parse error")
            .into_response()
            .to_json();
        assert!(!kernel.starts_with(OVERLOADED_PREFIX), "{kernel}");
    }

    #[test]
    fn unreachable_backend_trips_the_breaker_without_leaking_slots() {
        // A port from the TEST-NET-3 doc range refuses immediately.
        let config = RouterConfig {
            failure_threshold: 2,
            ..RouterConfig::default()
        };
        let backend = Backend::new(
            "127.0.0.1:1".to_string(),
            vec![Device::TitanX],
            None,
            &config,
            Arc::new(StageSet::new(&["connect"])),
        );
        assert!(matches!(
            backend.call("{\"op\":\"devices\"}"),
            Err(CallError::Io(_))
        ));
        assert!(matches!(
            backend.call("{\"op\":\"devices\"}"),
            Err(CallError::Io(_))
        ));
        // Threshold reached: circuit open, third call never dials.
        assert!(matches!(
            backend.call("{\"op\":\"devices\"}"),
            Err(CallError::Broken)
        ));
        let snap = backend.snapshot();
        assert_eq!(snap.state, CircuitState::Open);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.failures, 2);
    }
}

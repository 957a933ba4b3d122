//! The processes under test: `gpufreq serve` daemons and the
//! `gpufreq router`, launched from the built binary, timed from launch
//! to their first correct answer, and always stopped and reaped.

use crate::gen::{self, Item};
use crate::oracle::Oracle;
use gpufreq_serve::{LineClient, Request, Response, ServerStats};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a process may take to bind (the daemon trains first).
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest a process may take to exit after a `shutdown`.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// A child process that is killed and reaped if dropped while running.
pub struct Proc {
    name: String,
    child: Child,
}

impl Proc {
    fn spawn(gpufreq: &Path, work: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let log = File::create(work.join(format!("{name}.log"))).map_err(|e| e.to_string())?;
        let err = log.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(gpufreq)
            .args(args)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gpufreq.display()))?;
        Ok(Proc {
            name: name.to_string(),
            child,
        })
    }

    /// Peak resident memory (`VmHWM`) in kB.
    pub fn vm_hwm_kb(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("{}: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{}: no VmHWM in /proc status", self.name))
    }

    /// Wait for an exit already requested; a non-zero status or a hang
    /// is an error.
    fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("{} exited with {status}", self.name)),
                None if Instant::now() > deadline => {
                    return Err(format!("{} did not exit after shutdown", self.name))
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Poll for the port file the process writes once it listens.
    fn wait_port_file(&mut self, path: &Path) -> Result<String, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(path) {
                if text.ends_with('\n') {
                    return Ok(text.trim().to_string());
                }
            }
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "{} exited during start-up with {status}",
                    self.name
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not start listening", self.name));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What a workload talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One daemon serving every device; `http` adds its HTTP listener.
    Daemon { http: bool },
    /// `gpufreq router` over [`gen::REPLICAS`] titan-x daemons.
    Router,
}

/// A running set of processes under test.
pub struct Cluster {
    /// Daemons first, then the router if any.
    procs: Vec<Proc>,
    /// Line-protocol address of every daemon.
    pub backends: Vec<String>,
    /// Line-protocol address clients use (the router's, if any).
    pub front: String,
    /// HTTP address of the daemon, if it has one.
    pub http: Option<String>,
}

impl Cluster {
    /// Launch the processes of `topology` and return them once the
    /// front answered set-up probe `k` correctly, with the seconds from
    /// the first launch to that answer.
    pub fn start(
        gpufreq: &Path,
        work: &Path,
        topology: Topology,
        k: usize,
        oracle: &Oracle,
        kernels: &[String],
    ) -> Result<(Cluster, f64), String> {
        let started = Instant::now();
        let port_file = |name: &str| -> PathBuf { work.join(format!("{name}.addr")) };
        let serve_args = |name: &str, device: Option<&str>, http: bool| {
            let mut args = vec![
                "serve".to_string(),
                "--fast".into(),
                "--port".into(),
                "0".into(),
            ];
            args.extend(["--port-file".into(), port_file(name).display().to_string()]);
            if let Some(d) = device {
                args.extend(["--device".into(), d.to_string()]);
            }
            if http {
                args.extend(["--http-port".into(), "0".into(), "--http-port-file".into()]);
                args.push(port_file(&format!("{name}-http")).display().to_string());
            }
            args
        };
        let names: Vec<String> = match topology {
            Topology::Daemon { .. } => vec![format!("daemon{k}")],
            Topology::Router => (0..gen::REPLICAS)
                .map(|r| format!("replica{k}.{r}"))
                .collect(),
        };
        for name in &names {
            let _ = std::fs::remove_file(port_file(name));
            let _ = std::fs::remove_file(port_file(&format!("{name}-http")));
        }
        let mut procs = Vec::new();
        for name in &names {
            let args = match topology {
                Topology::Daemon { http } => serve_args(name, None, http),
                Topology::Router => serve_args(name, Some(oracle.served[0].id()), false),
            };
            procs.push(Proc::spawn(gpufreq, work, name, &args)?);
        }
        let mut backends = Vec::new();
        for (proc, name) in procs.iter_mut().zip(&names) {
            backends.push(proc.wait_port_file(&port_file(name))?);
        }
        let http = match topology {
            Topology::Daemon { http: true } => {
                Some(procs[0].wait_port_file(&port_file(&format!("{}-http", names[0])))?)
            }
            _ => None,
        };
        let front = if topology == Topology::Router {
            let name = format!("router{k}");
            let _ = std::fs::remove_file(port_file(&name));
            let mut args = vec!["router".to_string(), "--port".into(), "0".into()];
            args.extend(["--port-file".into(), port_file(&name).display().to_string()]);
            for b in &backends {
                args.extend(["--backend".into(), b.clone()]);
            }
            let mut router = Proc::spawn(gpufreq, work, &name, &args)?;
            let addr = router.wait_port_file(&port_file(&name))?;
            procs.push(router);
            addr
        } else {
            backends[0].clone()
        };
        let cluster = Cluster {
            procs,
            backends,
            front,
            http,
        };
        let probe: Item = gen::probe_item(k);
        let answer = LineClient::connect(&cluster.front)
            .and_then(|mut c| c.request(&probe.request(&oracle.served, kernels)))
            .map_err(|e| format!("set-up probe: {e}"))?;
        let setup_s = started.elapsed().as_secs_f64();
        if answer != oracle.predict_line(probe.device, probe.base) {
            return Err("the set-up probe was answered incorrectly".into());
        }
        Ok((cluster, setup_s))
    }

    /// How many processes are under test.
    pub fn processes(&self) -> usize {
        self.procs.len()
    }

    /// Summed `VmHWM` of every process under test, in MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0;
        for p in &self.procs {
            kb += p.vm_hwm_kb()?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Each daemon's `stats` snapshot, read straight from the daemon.
    pub fn daemon_stats(&self) -> Result<Vec<ServerStats>, String> {
        self.backends
            .iter()
            .map(|addr| match call(addr, &Request::Stats)? {
                Response::Stats { stats } => Ok(*stats),
                other => Err(format!("unexpected stats answer: {other:?}")),
            })
            .collect()
    }

    /// The router's `retried` counter (0 without a router).
    pub fn router_retried(&self) -> Result<u64, String> {
        if self.procs.len() == self.backends.len() {
            return Ok(0);
        }
        let line = LineClient::connect(&self.front)
            .and_then(|mut c| c.request(&Request::Stats))
            .map_err(|e| e.to_string())?;
        let value: serde::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        ["router", "retried"]
            .iter()
            .try_fold(&value, |v, key| match v {
                serde::Value::Object(entries) => {
                    entries.iter().find(|(k, _)| k == key).map(|e| &e.1)
                }
                _ => None,
            })
            .and_then(|v| match v {
                serde::Value::Number(n) => n.as_u64(),
                _ => None,
            })
            .ok_or_else(|| "router stats carry no router.retried".to_string())
    }

    /// Shut everything down through the protocol (router first) and
    /// require every process to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        let mut result = Ok(());
        let mut addrs = self.backends.clone();
        if self.procs.len() > self.backends.len() {
            addrs.push(self.front.clone());
        }
        while let Some(proc) = self.procs.pop() {
            let addr = addrs.pop().expect("one address per process");
            let stopped = call(&addr, &Request::Shutdown).and_then(|r| match r {
                Response::Shutdown => proc.wait_exit(),
                other => Err(format!("unexpected shutdown answer: {other:?}")),
            });
            if result.is_ok() {
                result = stopped;
            }
        }
        result
    }
}

fn call(addr: &str, request: &Request) -> Result<Response, String> {
    let line = LineClient::connect(addr)
        .and_then(|mut c| c.request(request))
        .map_err(|e| format!("{addr}: {e}"))?;
    Response::parse(&line).map_err(|e| format!("{addr}: {e}"))
}

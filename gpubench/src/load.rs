//! The load generators: a closed loop over the line protocol and a
//! pipelined closed loop over HTTP keep-alive. Every answer is compared
//! byte-for-byte with the oracle's; a wrong, refused or failed answer
//! counts as failed.

use crate::gen::{self, Item};
use crate::oracle::Oracle;
use gpufreq_serve::codec::{read_http_body, LineClient};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What one timed phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered wrongly, refused or with an error.
    pub failed: u64,
    /// Kernels in correctly answered requests.
    pub kernels: u64,
    /// Per-request latency in µs, correct answers only.
    pub latency_us: Vec<f64>,
    /// Wall time of the phase in seconds.
    pub elapsed_s: f64,
    /// The first wrong answer, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// One tally for phases run side by side (or, counting only answers
    /// and latencies, one after another).
    pub fn merged(parts: Vec<Tally>) -> Tally {
        let mut total = Tally::default();
        parts.into_iter().for_each(|t| total.merge(t));
        total
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.kernels += other.kernels;
        self.latency_us.extend(other.latency_us);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    fn record(&mut self, answer: &str, expected: &str, kernels: usize, sent: Instant) {
        if answer == expected {
            self.kernels += kernels as u64;
            self.latency_us.push(sent.elapsed().as_secs_f64() * 1e6);
        } else {
            self.failed += 1;
            if self.first_failure.is_none() {
                let cut: String = answer.chars().take(200).collect();
                self.first_failure = Some(format!("unexpected answer: {cut}"));
            }
        }
    }
}

/// A hung server fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One request of a closed loop and the answer it must get.
pub struct Exchange<'a> {
    /// The request line, without its newline: [`LineClient::send`]
    /// frames it.
    pub line: String,
    pub expected: Cow<'a, str>,
    pub kernels: usize,
}

/// An HTTP keep-alive connection. `LineClient` serves the line
/// protocol; HTTP answers are read with `read_http_body`, which needs
/// the reader itself.
fn http_connect(addr: &str) -> Result<(BufWriter<TcpStream>, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((writer, BufReader::new(stream)))
}

/// Run `conns` connection threads and merge what they observed.
fn fan_out<F>(conns: usize, body: F) -> Result<Tally, String>
where
    F: Fn(usize) -> Result<Tally, String> + Sync,
{
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    gen::check_fanout(conns, nproc)?;
    let per_conn = std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (0..conns).map(|c| s.spawn(move || body(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Tally::merged(per_conn))
}

/// `conns` line-protocol connections, each sending request `next(conn,
/// i)` only after the answer to request `i - 1`, until `duration` is
/// over.
pub fn closed_line<'a, F>(
    addr: &str,
    conns: usize,
    duration: Duration,
    next: F,
) -> Result<Tally, String>
where
    F: Fn(usize, u64) -> Exchange<'a> + Sync,
{
    let start = Instant::now();
    let deadline = start + duration;
    fan_out(conns, |conn| {
        let mut client = LineClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut tally = Tally::default();
        let mut i = 0u64;
        while Instant::now() < deadline {
            let exchange = next(conn, i);
            i += 1;
            let sent = Instant::now();
            client.send(&exchange.line).map_err(|e| e.to_string())?;
            tally.attempted += 1;
            let answer = client.recv().map_err(|e| e.to_string())?;
            tally.record(&answer, &exchange.expected, exchange.kernels, sent);
        }
        tally.elapsed_s = start.elapsed().as_secs_f64();
        Ok(tally)
    })
}

/// One pre-framed HTTP request and the kernel it asks about.
pub struct Framed {
    pub bytes: String,
    pub item: Item,
}

/// Send every request once on one connection, in order, and check
/// every answer (the un-timed warm-up pass of `hot_http`).
pub fn http_pass(addr: &str, requests: &[Framed], oracle: &Oracle) -> Result<(), String> {
    let (mut writer, mut reader) = http_connect(addr)?;
    let mut line = String::new();
    for r in requests {
        writer
            .write_all(r.bytes.as_bytes())
            .map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let body = read_http_body(&mut reader, &mut line)?;
        if body != oracle.predict_line(r.item.device, r.item.base) {
            return Err("a warm-up request was answered incorrectly".into());
        }
    }
    Ok(())
}

/// `hot_http`: one keep-alive connection per entry of `orders`, each
/// cycling through its order of `requests` with [`gen::HOT_WINDOW`]
/// requests in flight, until `duration` is over.
pub fn closed_http(
    addr: &str,
    requests: &[Framed],
    orders: &[Vec<usize>],
    oracle: &Oracle,
    duration: Duration,
) -> Result<Tally, String> {
    let start = Instant::now();
    let deadline = start + duration;
    fan_out(orders.len(), |conn| {
        let order = &orders[conn];
        let (mut writer, mut reader) = http_connect(addr)?;
        let mut tally = Tally::default();
        let mut line = String::new();
        let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut i = 0usize;
        loop {
            if Instant::now() < deadline && in_flight.len() < gen::HOT_WINDOW {
                let j = order[i % order.len()];
                i += 1;
                writer
                    .write_all(requests[j].bytes.as_bytes())
                    .map_err(|e| e.to_string())?;
                in_flight.push_back((j, Instant::now()));
                tally.attempted += 1;
                continue;
            }
            let Some((j, sent)) = in_flight.pop_front() else {
                break;
            };
            writer.flush().map_err(|e| e.to_string())?;
            let body = read_http_body(&mut reader, &mut line)?;
            let item = &requests[j].item;
            tally.record(&body, oracle.predict_line(item.device, item.base), 1, sent);
        }
        tally.elapsed_s = start.elapsed().as_secs_f64();
        Ok(tally)
    })
}

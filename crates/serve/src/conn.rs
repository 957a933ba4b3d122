//! The connection layer both serving tiers share: the accept loops,
//! the connection cap with its typed refusal, socket setup, and the
//! bounded line framer.
//!
//! The daemon ([`Server`](crate::Server)) and the router front end
//! each implement [`Gateway`] and hand their listeners to [`serve`].
//! Everything up to the first request byte is identical for both:
//!
//! * one accept loop per listener (JSON-lines and, optionally, the
//!   HTTP gateway), polling a nonblocking socket every
//!   `ACCEPT_POLL` so a shutdown is noticed;
//! * one [`Connections`] cap across both listeners — a connection past
//!   it gets a typed `overloaded` refusal (a JSON line or an HTTP 503)
//!   and no thread;
//! * one thread per admitted connection, whose socket is set up
//!   blocking with read and write timeouts and written through a
//!   [`ShutdownWriter`];
//! * one line framer ([`pump`]) that bounds a request line at
//!   [`MAX_LINE_BYTES`] and answers oversize and non-UTF-8 lines
//!   through [`Gateway::malformed`].
//!
//! What a tier does with a framed line stays behind
//! [`Gateway::serve_line_connection`]: the daemon pipelines lines
//! through its worker queue, the router forwards them one at a time.

use crate::http::{self, Gateway};
use crate::protocol::{ConnectionStats, ErrorBody, ErrorCode};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::Scope;
use std::time::Duration;

/// How often the nonblocking accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read timeout on accepted sockets, so connection readers notice a
/// shutdown even while their client is idle.
const READ_POLL: Duration = Duration::from_millis(200);

/// Write timeout on accepted sockets, so a connection blocked writing
/// to a peer that stopped reading re-checks the shutdown flag (see
/// [`ShutdownWriter`]).
const WRITE_POLL: Duration = Duration::from_millis(200);

/// Requests larger than this are answered with `bad_request` instead
/// of being parsed (a kernel source is kilobytes; a megabyte line is
/// not a kernel). The framer discards — never buffers — bytes beyond
/// the bound, so oversized (or newline-less) input cannot grow memory.
/// The HTTP gateway applies the same bound to request bodies, and the
/// router enforces it on its backend side too.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// The writer a line connection answers through: the socket, wrapped
/// so it cannot outlive a shutdown.
pub type LineWriter<'a> = ShutdownWriter<TcpStream, &'a (dyn Fn() -> bool + Sync)>;

/// A socket writer that cannot outlive a server-wide shutdown.
///
/// The socket carries a write timeout. A write that
/// times out — the peer read nothing for a whole poll interval, so the
/// send buffer stayed full — is retried while `stop` returns false and
/// fails with the timeout once it returns true. A slow but reading
/// peer therefore still gets every byte, while a peer that never reads
/// cannot pin its connection thread, and with it the drain, forever.
pub struct ShutdownWriter<W, F> {
    inner: W,
    stop: F,
}

impl<W: Write, F: Fn() -> bool> ShutdownWriter<W, F> {
    /// Wrap `inner`, whose socket must already have a write timeout.
    pub fn new(inner: W, stop: F) -> ShutdownWriter<W, F> {
        ShutdownWriter { inner, stop }
    }
}

impl<W: Write, F: Fn() -> bool> Write for ShutdownWriter<W, F> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.inner.write(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && !(self.stop)() => {}
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The typed error code of a serialized response body, if it is an
/// error response. Bodies are trusted output of this process, so the
/// prefix check is exact (the serializer puts `error.code` first).
pub fn error_code_of(body: &str) -> Option<&str> {
    let rest = body.strip_prefix("{\"error\":{\"code\":\"")?;
    rest.split('"').next()
}

/// Which protocol an accepted socket speaks.
#[derive(Debug, Clone, Copy)]
enum ConnKind {
    /// The canonical JSON-lines protocol.
    Line,
    /// The HTTP/1.1 gateway.
    Http,
}

/// The concurrent-connection cap across a process's listeners, and
/// the connection counters the daemon reports in `stats`.
#[derive(Debug)]
pub struct Connections {
    /// Log prefix, e.g. `gpufreq-serve`.
    component: &'static str,
    max: usize,
    /// The cap gate: connections currently served.
    active: AtomicUsize,
    opened: AtomicU64,
    refused: AtomicU64,
    failed: AtomicU64,
}

impl Connections {
    /// A cap of `max` (minimum 1) concurrent connections; `component`
    /// prefixes the process's connection-error log lines.
    pub fn new(component: &'static str, max: usize) -> Connections {
        Connections {
            component,
            max: max.max(1),
            active: AtomicUsize::new(0),
            opened: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// The connection-counter snapshot. `closed` is derived
    /// (`opened - active`), so a connection mid-accept may be counted
    /// closed for an instant — fine for a diagnostics gauge.
    pub fn stats(&self) -> ConnectionStats {
        // ordering: the cap gate is a self-contained counter — no
        // other memory is published through it (each connection's
        // state is created by the thread that owns it), so its RMWs
        // and this read are Relaxed; the CAS alone keeps the cap exact.
        let active = self.active.load(Ordering::Relaxed) as u64;
        let opened = read(&self.opened);
        ConnectionStats {
            opened,
            closed: opened.saturating_sub(active),
            refused: read(&self.refused),
            failed: read(&self.failed),
            active,
        }
    }

    /// Claim a slot under the cap. On success the caller owns one
    /// [`release`](Connections::release).
    fn claim(&self) -> bool {
        let claim = |n: usize| (n < self.max).then_some(n + 1);
        let claimed = self
            .active
            // ordering: see `stats` — a bare gate counter.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
            .is_ok();
        if claimed {
            bump(&self.opened);
        }
        claimed
    }

    /// Give back a slot claimed by [`claim`](Connections::claim).
    fn release(&self) {
        // ordering: see `stats` — a bare gate counter.
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Refuse a connection past the cap: count it and make a
    /// best-effort attempt to deliver a typed `overloaded` refusal
    /// (JSON line or HTTP 503, by listener) before dropping the
    /// socket. The write is nonblocking so a victim's socket can never
    /// stall the acceptor; the payload is far below any send buffer,
    /// so it lands whole or the peer was unreachable anyway.
    fn refuse(&self, mut stream: TcpStream, kind: ConnKind) {
        bump(&self.refused);
        let body = ErrorBody::new(
            ErrorCode::Overloaded,
            format!("connection cap reached ({} active); retry later", self.max),
        )
        .into_response()
        .to_json();
        let payload = match kind {
            ConnKind::Line => format!("{body}\n"),
            ConnKind::Http => http::refusal_payload(&body),
        };
        stream.set_nonblocking(true).ok();
        let _ = stream.write_all(payload.as_bytes());
    }

    /// Record a connection dropped because socket setup failed, and
    /// log the first occurrence (one line per process, not one per
    /// victim — fd exhaustion would otherwise spam the log).
    pub(crate) fn note_setup_failure(&self, error: &io::Error) {
        bump(&self.failed);
        static LOGGED: std::sync::Once = std::sync::Once::new();
        LOGGED.call_once(|| {
            eprintln!(
                "[{}] dropping connection: socket setup failed: {error} \
                 (further occurrences counted as conn_failed, not logged)",
                self.component
            );
        });
    }
}

/// Bump a connection counter.
fn bump(counter: &AtomicU64) {
    // ordering: pure event counters — a bump publishes no other memory
    // (reads in `read` tolerate skew between counters).
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Read a connection counter for a snapshot.
fn read(counter: &AtomicU64) -> u64 {
    // ordering: see `bump`.
    counter.load(Ordering::Relaxed)
}

/// Serve `line` (and the optional `http` listener) until the gateway
/// shuts down, then wait for every connection thread to finish.
///
/// `background` spawns the tier's own threads into the same scope
/// before the first accept: the daemon's worker pool, the router's
/// health prober. Both listeners share `connections`, so one cap
/// bounds the whole process.
pub fn serve<'env, G: Gateway>(
    gateway: &'env G,
    connections: &'env Connections,
    line: TcpListener,
    http: Option<TcpListener>,
    background: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>),
) -> io::Result<()> {
    line.set_nonblocking(true)?;
    if let Some(h) = &http {
        h.set_nonblocking(true)?;
    }
    std::thread::scope(|s| {
        background(s);
        if let Some(http) = http {
            s.spawn(move || accept_loop(gateway, connections, s, &http, ConnKind::Http));
        }
        accept_loop(gateway, connections, s, &line, ConnKind::Line);
        // Shutdown: connection threads notice the flag at their next
        // read timeout; the scope joins them and the background threads.
    });
    Ok(())
}

/// Accept sockets from `listener` until shutdown, spawning a handler
/// thread for each one the cap admits.
fn accept_loop<'scope, 'env, G: Gateway>(
    gateway: &'env G,
    connections: &'env Connections,
    scope: &'scope Scope<'scope, 'env>,
    listener: &TcpListener,
    kind: ConnKind,
) {
    while !gateway.shutting_down() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if !connections.claim() {
                    connections.refuse(stream, kind);
                    continue;
                }
                scope.spawn(move || {
                    connection(gateway, connections, stream, peer.ip(), kind);
                    connections.release();
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // A transient accept failure must not kill the
                // process; log and keep serving.
                eprintln!("[{}] accept error: {e}", connections.component);
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Set one admitted socket up and serve it until close. Setup can
/// fail under fd pressure; such connections are dropped and counted.
fn connection<G: Gateway>(
    gateway: &G,
    connections: &Connections,
    stream: TcpStream,
    peer: IpAddr,
    kind: ConnKind,
) {
    let setup = (|| -> io::Result<Option<TcpStream>> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(WRITE_POLL))?;
        match kind {
            ConnKind::Line => stream.try_clone().map(Some),
            ConnKind::Http => Ok(None),
        }
    })();
    match setup {
        Err(e) => connections.note_setup_failure(&e),
        Ok(None) => http::serve_http_connection(gateway, stream, peer),
        Ok(Some(reader)) => {
            let stop = || gateway.shutting_down();
            let writer = ShutdownWriter::new(stream, &stop as &(dyn Fn() -> bool + Sync));
            gateway.serve_line_connection(BufReader::new(reader), writer, peer);
        }
    }
}

/// Frame request lines out of `reader` until EOF, a read error, or
/// `on_line` returning false, handing each to `on_line`.
///
/// A line reaches `on_line` trimmed, as `Ok`; blank lines are
/// skipped. A line crossing [`MAX_LINE_BYTES`] is discarded *as it
/// streams in* (never accumulated) and a non-UTF-8 line is refused;
/// either reaches `on_line` as `Err` carrying the typed `bad_request`
/// body [`Gateway::malformed`] produced. A final unterminated line is
/// still a request.
///
/// On a read timeout (accepted sockets poll every 200 ms) a partial line
/// stays buffered and the pump stops if the gateway is shutting down.
/// Unless `drain_to_eof` — replaying a recorded stream, where every
/// line must get its answer — the pump also stops after any line read
/// during a shutdown, so a client that keeps streaming cannot pin its
/// connection open.
pub fn pump<G: Gateway + ?Sized, R: BufRead>(
    gateway: &G,
    mut reader: R,
    drain_to_eof: bool,
    mut on_line: impl FnMut(Result<&str, String>) -> bool,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let (consumed, complete) = match reader.fill_buf() {
            Ok([]) => {
                if !buf.is_empty() || overflowed {
                    finish_line(gateway, &mut buf, &mut overflowed, &mut on_line);
                }
                return;
            }
            Ok(bytes) => match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    append_bounded(&mut buf, &bytes[..pos], &mut overflowed);
                    (pos + 1, true)
                }
                None => {
                    append_bounded(&mut buf, bytes, &mut overflowed);
                    (bytes.len(), false)
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if gateway.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        reader.consume(consumed);
        if complete && !finish_line(gateway, &mut buf, &mut overflowed, &mut on_line) {
            return;
        }
        if !drain_to_eof && gateway.shutting_down() {
            return;
        }
    }
}

/// Hand one assembled line to `on_line` (see [`pump`]) and clear the
/// buffer for the next one, keeping its allocation. Returns
/// `on_line`'s verdict (true for a skipped blank line).
fn finish_line<G: Gateway + ?Sized>(
    gateway: &G,
    buf: &mut Vec<u8>,
    overflowed: &mut bool,
    on_line: &mut impl FnMut(Result<&str, String>) -> bool,
) -> bool {
    let refusal =
        |message: String| gateway.malformed(ErrorBody::new(ErrorCode::BadRequest, message));
    let verdict = if std::mem::take(overflowed) {
        on_line(Err(refusal(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))))
    } else {
        match std::str::from_utf8(buf) {
            Ok(line) => {
                let line = line.trim();
                line.is_empty() || on_line(Ok(line))
            }
            Err(_) => on_line(Err(refusal("request line is not valid UTF-8".into()))),
        }
    };
    buf.clear();
    verdict
}

/// Append `bytes` to the line buffer unless that would cross
/// [`MAX_LINE_BYTES`]; past the bound the line is marked overflowed
/// and everything further is dropped on the floor.
fn append_bounded(buf: &mut Vec<u8>, bytes: &[u8], overflowed: &mut bool) {
    if *overflowed || buf.len() + bytes.len() > MAX_LINE_BYTES {
        *overflowed = true;
    } else {
        buf.extend_from_slice(bytes);
    }
}

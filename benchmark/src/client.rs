//! The load generator's wire side: one keep-alive HTTP/1.1 connection
//! with reusable buffers, the two request encoders, and the open-loop
//! (fixed arrival schedule) driver with due-time accounting.
//!
//! Sockets are non-blocking and **busy-polled**. A generator that sleeps
//! in `read` parks its vCPU; under a hypervisor every response then pays
//! a halt exit and an IPI whose cost depends on the host, and that —
//! not the server — was the largest source of run-to-run variance here.
//! The generator has its own core (see `fixture::Cpus`), so spinning on
//! it costs the server nothing.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a response may take before the connection counts as dead.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Set when the generator has no core of its own (fewer than two CPUs):
/// a spinning generator would then starve the server it waits for.
static YIELD_WHEN_IDLE: AtomicBool = AtomicBool::new(false);

/// Make [`relax`] yield the CPU instead of spinning.
pub fn yield_when_idle(on: bool) {
    YIELD_WHEN_IDLE.store(on, Ordering::Relaxed);
}

/// One turn of a busy-poll loop.
pub fn relax() {
    if YIELD_WHEN_IDLE.load(Ordering::Relaxed) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// One response, borrowed from the connection's read buffer.
pub struct Reply<'a> {
    /// Status code of the status line.
    pub status: u16,
    /// `X-Artifact-Epoch` (the generation that ranked the request).
    pub epoch: Option<u64>,
    /// The body (`Content-Length` framing; the tier never chunks).
    pub body: &'a [u8],
    /// Head + body bytes read off the socket.
    pub wire_bytes: usize,
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of the response in progress already in `buf`.
    filled: usize,
    /// `(status, epoch, body_start, total)` once the head is parsed.
    head: Option<(u16, Option<u64>, usize, usize)>,
}

fn framing(what: &str) -> Error {
    Error::new(ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connect, Nagle off, non-blocking.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            filled: 0,
            head: None,
        })
    }

    /// Write one request (a single segment on loopback).
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request[sent..]) {
                Ok(0) => return Err(framing("connection closed while sending")),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => relax(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Take whatever bytes have arrived; `Some` once a full response is
    /// in the buffer. Never blocks.
    pub fn poll_reply(&mut self) -> std::io::Result<Option<Reply<'_>>> {
        Ok(if self.poll_complete()? {
            Some(self.take_reply())
        } else {
            None
        })
    }

    /// Read what has arrived; whether a full response is now buffered.
    fn poll_complete(&mut self) -> std::io::Result<bool> {
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Err(framing("connection closed before the response ended")),
            Ok(n) => self.filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(e) => return Err(e),
        }
        if self.head.is_none() {
            let Some(head_end) = self.buf[..self.filled]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            else {
                return if self.filled == self.buf.len() {
                    Err(framing("response head exceeds the read buffer"))
                } else {
                    Ok(false)
                };
            };
            let head =
                std::str::from_utf8(&self.buf[..head_end]).map_err(|_| framing("non-utf8 head"))?;
            let mut lines = head.split("\r\n");
            let status: u16 = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| framing("bad status line"))?;
            let mut content_length = None;
            let mut epoch = None;
            for line in lines {
                let (name, value) = line.split_once(':').ok_or_else(|| framing("bad header"))?;
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("x-artifact-epoch") {
                    epoch = value.trim().parse::<u64>().ok();
                }
            }
            let body_len = content_length.ok_or_else(|| framing("no content-length"))?;
            let total = head_end + 4 + body_len;
            if total > self.buf.len() {
                self.buf.resize(total, 0);
            }
            self.head = Some((status, epoch, head_end + 4, total));
        }
        let total = self.head.expect("head parsed above").3;
        if self.filled > total {
            return Err(framing("bytes past the response body"));
        }
        Ok(self.filled == total)
    }

    /// The buffered response; the connection is ready for the next one.
    fn take_reply(&mut self) -> Reply<'_> {
        let (status, epoch, body_start, total) = self.head.take().expect("a complete response");
        self.filled = 0;
        Reply {
            status,
            epoch,
            body: &self.buf[body_start..total],
            wire_bytes: total,
        }
    }

    /// Send one request and spin until its full response is in.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply<'_>> {
        self.send(request)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.poll_complete()? {
            if Instant::now() > deadline {
                return Err(Error::new(ErrorKind::TimedOut, "no response within 10 s"));
            }
            relax();
        }
        Ok(self.take_reply())
    }
}

fn post(out: &mut Vec<u8>, path: &str, body: &[u8]) {
    out.clear();
    write!(
        out,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write to a Vec");
    out.extend_from_slice(body);
}

/// Encode `POST /v1/recommend {user,k}` into `out` (cleared first).
pub fn recommend_request(out: &mut Vec<u8>, user: u32, k: usize) {
    let body = format!("{{\"user\":{user},\"k\":{k}}}");
    post(out, "/v1/recommend", body.as_bytes());
}

/// Encode `POST /v1/score` with `group` as its JSON body.
pub fn score_request(group: &odnet_core::GroupInput) -> Vec<u8> {
    let json = serde_json::to_string(group).expect("GroupInput serializes");
    let mut out = Vec::with_capacity(json.len() + 128);
    post(&mut out, "/v1/score", json.as_bytes());
    out
}

/// What one open-loop connection observed.
#[derive(Default)]
pub struct OpenReport {
    /// Per request: completion time minus *due* time, so the wait a stall
    /// imposes on the requests scheduled behind it is counted.
    pub latency_from_due_ns: Vec<u64>,
    /// Per request: actual send time minus due time (generator lateness).
    pub late_ns: Vec<u64>,
    /// Most requests that were due but not yet sent at any send.
    pub backlog_max: u64,
    /// Requests that did not come back `200` (or broke framing).
    pub failed: u64,
}

/// Drive one connection on a fixed arrival schedule: request `i` is due at
/// `start + i·interval` whether or not earlier ones have completed; a
/// request the connection could not send on time is sent as soon as the
/// connection frees up and is still timed from when it was due.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    interval: Duration,
    duration: Duration,
    mut next_request: impl FnMut(u64, &mut Vec<u8>),
) -> std::io::Result<OpenReport> {
    let mut conn = Conn::connect(addr)?;
    let mut report = OpenReport::default();
    let mut request = Vec::new();
    let total = (duration.as_nanos() / interval.as_nanos().max(1)) as u64;
    for i in 0..total {
        let due = start + interval * i as u32;
        while Instant::now() < due {
            relax();
        }
        let sent = Instant::now();
        let scheduled = ((sent - start).as_nanos() / interval.as_nanos().max(1)) as u64;
        report.backlog_max = report.backlog_max.max(scheduled.min(total - 1) - i);
        report.late_ns.push((sent - due).as_nanos() as u64);
        next_request(i, &mut request);
        match conn.roundtrip(&request) {
            Ok(reply) if reply.status == 200 => {}
            Ok(_) => report.failed += 1,
            Err(_) => {
                report.failed += 1;
                conn = Conn::connect(addr)?;
            }
        }
        report
            .latency_from_due_ns
            .push((Instant::now() - due).as_nanos() as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection stub: answers every request `200` with a small
    /// JSON body, sleeping `stall` before answering request `stall_at`.
    fn stub_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).expect("nodelay");
            let mut served = 0u64;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                // Requests are never pipelined here, so "head + declared
                // body present" delimits exactly one request.
                let complete = buf
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .and_then(|at| {
                        let head = std::str::from_utf8(&buf[..at]).ok()?;
                        let len: usize = head
                            .split("\r\n")
                            .find_map(|l| l.strip_prefix("Content-Length: "))?
                            .parse()
                            .ok()?;
                        (buf.len() >= at + 4 + len).then_some(())
                    });
                if complete.is_none() {
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return served,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    continue;
                }
                buf.clear();
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                let body = b"{\"ok\":true}";
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Artifact-Epoch: 7\r\n\r\n",
                    body.len()
                );
                let mut wire = head.into_bytes();
                wire.extend_from_slice(body);
                if s.write_all(&wire).is_err() {
                    return served;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn roundtrip_parses_status_epoch_and_body() {
        let (addr, server) = stub_server(u64::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).expect("connect");
        let mut req = Vec::new();
        recommend_request(&mut req, 41, 8);
        assert!(req.ends_with(b"\r\n\r\n{\"user\":41,\"k\":8}"));
        for _ in 0..3 {
            let reply = conn.roundtrip(&req).expect("roundtrip");
            assert_eq!(reply.status, 200);
            assert_eq!(reply.epoch, Some(7));
            assert_eq!(reply.body, b"{\"ok\":true}");
            assert!(reply.wire_bytes > reply.body.len());
        }
        drop(conn);
        assert_eq!(server.join().expect("stub"), 3);
    }

    /// 1000 req/s for 1 s against a server that stalls 50 ms once: every
    /// request scheduled during the stall inherits part of it, so at
    /// least rate × 0.05 = 50 due-time latencies must show it — a
    /// closed-loop clock (send → receive) would show it in exactly one.
    #[test]
    fn open_loop_counts_the_stall_in_every_request_it_delays() {
        let rate = 1000u64;
        let stall = Duration::from_millis(50);
        let (addr, server) = stub_server(200, stall);
        let interval = Duration::from_nanos(1_000_000_000 / rate);
        let report = open_loop(
            addr,
            Instant::now() + Duration::from_millis(5),
            interval,
            Duration::from_secs(1),
            |i, out| recommend_request(out, i as u32, 8),
        )
        .expect("open loop");
        assert_eq!(server.join().expect("stub"), rate);
        assert_eq!(report.failed, 0);
        assert_eq!(report.latency_from_due_ns.len() as u64, rate);
        // Request 200 + j is sent when the stall ends, ≈ (50 − j) ms after
        // it was due: all fifty of them sit far above the ~0.1 ms norm.
        let hit = report
            .latency_from_due_ns
            .iter()
            .filter(|&&ns| ns >= 300_000)
            .count() as u64;
        assert!(
            hit >= rate * 5 / 100,
            "stall visible in only {hit} latencies"
        );
        let worst = report.latency_from_due_ns.iter().max().expect("samples");
        assert!(*worst >= 45_000_000, "worst due-time latency {worst} ns");
        assert!(
            report.backlog_max >= 40,
            "backlog_max {}",
            report.backlog_max
        );
    }
}

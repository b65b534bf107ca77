//! Load generation: a seeded Poisson schedule, senders that wait for
//! each request's due time, latency timed from that due time, the
//! generator's own lateness recorded beside it, and the spinning HTTP
//! client the admit workloads send with.

use crate::util::mix;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due times (offsets from the start of the phase) of a Poisson stream
/// of `rate` requests per second lasting `secs` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for i in 0.. {
        // Uniform in (0, 1] from the top 53 bits of a stateless hash.
        let u = ((mix(seed ^ 0x6c6f_6164_6765_6e00, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= secs {
            break;
        }
        out.push(Duration::from_secs_f64(t));
    }
    out
}

/// Waits until `due` by spinning rather than sleeping. A
/// sleeping generator lets its vCPU go idle, and waking an idle vCPU
/// costs the hypervisor tens to hundreds of microseconds that depend on
/// the host's other tenants, not on the program; busy-waiting keeps
/// that cost out of every request's latency.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Per-request timing of an open-loop phase.
#[derive(Default)]
pub struct OpenLoopTimes {
    /// Due time to response, microseconds.
    pub latency_us: Vec<f64>,
    /// Due time to send, microseconds: how late the generator ran.
    pub late_us: Vec<f64>,
}

/// Runs `senders` threads over one schedule. Each thread owns a state
/// made by `init` (its connection) and calls `send(state, k)` for the
/// requests it claims; `send` returns whether the request succeeded. A
/// failed request is recorded at no less than `limit_us`, so it counts
/// as missing the latency limit.
pub fn run_open_loop<S, I, F>(
    schedule: &[Duration],
    senders: usize,
    limit_us: f64,
    init: I,
    send: F,
) -> OpenLoopTimes
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let per_thread: Vec<OpenLoopTimes> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let (next, init, send) = (&next, &init, &send);
                scope.spawn(move || {
                    let mut state = init();
                    let mut times = OpenLoopTimes::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = schedule.get(k) else {
                            break;
                        };
                        let due = start + *offset;
                        wait_until(due);
                        let sent = Instant::now();
                        let ok = send(&mut state, k);
                        let latency_us = (Instant::now() - due).as_secs_f64() * 1e6;
                        times.late_us.push((sent - due).as_secs_f64() * 1e6);
                        times.latency_us.push(if ok {
                            latency_us
                        } else {
                            latency_us.max(limit_us)
                        });
                    }
                    times
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    let mut all = OpenLoopTimes::default();
    for t in per_thread {
        all.latency_us.extend(t.latency_us);
        all.late_us.extend(t.late_us);
    }
    all
}

/// A keep-alive HTTP/1.1 client for GETs whose reads spin on a
/// non-blocking socket instead of sleeping, so the sender's vCPU never
/// halts while it waits for a reply. Waking a halted vCPU goes through
/// the hypervisor at a cost set by the host's other tenants; with a
/// spinning sender only the server's side of a round trip pays it.
pub struct SpinClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

impl SpinClient {
    pub fn connect(addr: SocketAddr) -> io::Result<SpinClient> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(SpinClient {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Sends one GET and spins until its whole reply is in; returns
    /// `(status, body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let request = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request.as_bytes()[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => spin(deadline)?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 1024];
        loop {
            if let Some((status, body, used)) = parse_reply(&self.buf)? {
                self.buf.drain(..used);
                return Ok((status, body));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => spin(deadline)?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn spin(deadline: Instant) -> io::Result<()> {
    if Instant::now() > deadline {
        return Err(io::ErrorKind::TimedOut.into());
    }
    std::hint::spin_loop();
    Ok(())
}

/// One whole `Content-Length`-framed reply at the front of `buf`, as
/// `(status, body, bytes used)`, or `None` while it is incomplete.
fn parse_reply(buf: &[u8]) -> io::Result<Option<(u16, String, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..end]);
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("missing content-length"))?;
    let start = end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[start..start + len]).into_owned();
    Ok(Some((status, body, start + len)))
}

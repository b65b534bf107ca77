//! Host speed calibration. A shared host runs the same instructions at
//! very different speeds from one second to the next: a fixed loop of
//! arithmetic, timed in CPU seconds with no time stolen from the vCPU,
//! moves by a factor of two within minutes, as other tenants contend
//! for the physical core's caches and execution units. Every timed
//! stretch of a workload is therefore flanked by a burst of fixed work
//! that belongs to the benchmark, never to the program, and its times
//! are rescaled by how much slower than a fixed reference speed that
//! burst ran: a change to the program moves them, the host's speed
//! does not.
//!
//! The burst mixes what the workloads spend their time on: `exp`/`ln`
//! arithmetic (certificates, θ-optimization, sources), scattered reads
//! and writes over a 1 MiB table (caches, statistics bins),
//! a branchy sort, and small TCP round trips over loopback (the HTTP
//! front end). It runs on `THREADS` threads at once, as the workloads
//! use every vCPU.

use crate::util::thread_cpu;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Threads a burst runs on: the host's 2 vCPUs.
const THREADS: usize = 2;
/// Rounds of the kernel each thread runs in one burst (about 40 ms).
const ROUNDS: u32 = 100;
/// Table the scattered accesses go to: 1 MiB of `u64`.
const TABLE: usize = 1 << 17;
/// Reference speed of the kernel, rounds per CPU second of one thread:
/// about its median on the 2-vCPU Intel Xeon guest the benchmark was
/// built on. Calibrated figures read as if the program had run on that
/// guest at that speed.
const REF_SPEED: f64 = 2400.0;

/// One thread's share of a burst: rounds of the kernel over its own
/// table and its own loopback connection.
fn kernel(seed: u64) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut tx = TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).expect("nodelay");
    // Touched before the clock starts, so no page fault is timed.
    let mut table = vec![1u64; TABLE];
    let mut sortbuf = vec![1u64; 2048];
    let mut msg = [0u8; 256];
    let mut sink = 0u64;
    let cpu0 = thread_cpu();
    for round in 0..ROUNDS {
        let mut x = 1.0f64 + seed as f64 * 1e-9 + round as f64 * 1e-7;
        for _ in 0..4000 {
            x = (x * 1.000_001).ln().exp() + 1e-12;
        }
        let mut h = seed ^ u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..40_000 {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let slot = (h as usize) & (TABLE - 1);
            table[slot] = table[slot].wrapping_add(h);
        }
        for (i, v) in sortbuf.iter_mut().enumerate() {
            *v = table[(i * 61) & (TABLE - 1)] ^ h;
        }
        sortbuf.sort_unstable();
        for i in 0..16u8 {
            msg[0] = i;
            tx.write_all(&msg).expect("loopback write");
            rx.read_exact(&mut msg).expect("loopback read");
        }
        sink ^= x.to_bits() ^ sortbuf[1024] ^ u64::from(msg[0]);
    }
    std::hint::black_box(sink);
    (thread_cpu() - cpu0).as_secs_f64()
}

/// One burst on every thread; the host's slowdown it saw: how much
/// slower than `REF_SPEED` the burst ran, in CPU time, above 1 when
/// slower. Dividing a time by it calibrates the time. CPU time leaves
/// out what the hypervisor steals from the vCPU, which comes in stalls
/// of milliseconds that a 40 ms burst reads far more often than they
/// delay the median request, so wall time is not used.
fn burst() -> f64 {
    let cpu: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || kernel(t as u64 + 1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    REF_SPEED * cpu / (f64::from(ROUNDS) * THREADS as f64)
}

/// Runs timed stretches back to back with a burst between each, so a
/// stretch's slowdown is read on both sides of it.
pub struct Calibrator {
    last: f64,
    /// Every burst's slowdown, in order.
    pub readings: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let last = burst();
        Calibrator {
            last,
            readings: vec![last],
        }
    }

    /// Runs `f`, then a burst; returns what `f` returned and the host's
    /// slowdown over it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let next = burst();
        self.readings.push(next);
        // Geometric mean: the host's speed across the stretch between.
        let s = (self.last * next).sqrt();
        self.last = next;
        (out, s)
    }
}

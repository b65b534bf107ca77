//! Shared plumbing: child processes, percentiles, hashing, metric sets.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the program's binaries live and where a run may write.
pub struct Ctx {
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A command for one of the program's binaries with an empty
    /// environment, so no `GPS_*` knob of the caller leaks into the
    /// program under test.
    pub fn command(&self, bin: &str) -> Command {
        let mut cmd = Command::new(self.bin_dir.join(bin));
        cmd.env_clear().stdin(Stdio::null()).stderr(Stdio::null());
        cmd
    }

    /// A fresh, empty directory under the run's work directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        dir
    }
}

/// A child process that is killed and reaped when dropped, so no path
/// out of the benchmark leaves a server running.
pub struct Proc {
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    /// Spawns `cmd` with its standard output piped.
    pub fn spawn(mut cmd: Command) -> std::io::Result<Proc> {
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Proc { child, stdout })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads one line of the child's standard output.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let out = self.stdout.as_mut().expect("stdout is piped");
        if out.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "child closed its output",
            ));
        }
        Ok(line)
    }

    /// Waits for the child to exit on its own, draining its output.
    pub fn wait_output(mut self, limit: Duration) -> Result<(ExitStatus, String), String> {
        let mut text = String::new();
        if let Some(mut out) = self.stdout.take() {
            std::io::Read::read_to_string(&mut out, &mut text)
                .map_err(|e| format!("read child output: {e}"))?;
        }
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((status, text)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("child did not exit in time".into()),
                Err(e) => return Err(format!("wait for child: {e}")),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Samples a child's `VmHWM` every few milliseconds until dropped: the
/// peak of a short-lived process, which is gone before anyone can ask.
/// A reaped child's `ru_maxrss` is no substitute: exec folds the
/// high-water mark of the address space the child had before it (the
/// spawning parent's, shared or copied) into it, so a child of a large
/// parent reports the parent's peak. Growth in the last interval before
/// the child exits can be missed.
pub struct HwmSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HwmSampler {
    pub fn start(pid: u32) -> HwmSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    p.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        HwmSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns the highest reading, in KiB.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("sampler thread panicked");
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// Polls until `path` holds a non-empty line; returns it trimmed.
pub fn wait_for_file(path: &Path, limit: Duration) -> Result<String, String> {
    let deadline = Instant::now() + limit;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.ends_with('\n') {
                return Ok(text.trim().to_string());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{} did not appear", path.display()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Nearest-rank quantile of unsorted samples (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Ratio that reads 0 when the base is empty.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// SplitMix64 finalizer: a stateless hash that turns `(seed, index)`
/// into a request, so request `i` is the same however threads share them.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Named metric values with their units, in a stable order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`; fails on
    /// a non-finite value, which JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, (value, unit)) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Appends a reconciliation table: each layer's share of the end-to-end
/// figure, their sum, and the residual the layers leave unexplained.
pub fn reconcile(out: &mut String, title: &str, rows: &[(&str, f64)], e2e_label: &str, e2e: f64) {
    use std::fmt::Write as _;
    let pct = |v: f64| 100.0 * ratio(v, e2e);
    let _ = writeln!(out, "{title}");
    for (name, v) in rows {
        let _ = writeln!(out, "  {name:<40} {v:>10.2}  {:>6.1}%", pct(*v));
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let _ = writeln!(
        out,
        "  {:<40} {sum:>10.2}  {:>6.1}%",
        "sum of layers",
        pct(sum)
    );
    let _ = writeln!(out, "  {e2e_label:<40} {e2e:>10.2}  {:>6.1}%", 100.0);
    let _ = writeln!(
        out,
        "  {:<40} {:>10.2}  {:>6.1}%",
        "unexplained residual",
        e2e - sum,
        pct(e2e - sum)
    );
}

/// Operation counts and checks shared by every workload.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why a check failed, one line each (printed, not part of the result).
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }
}

/// End-to-end figures every workload reports. Times are calibrated:
/// rescaled to the reference host speed the bursts beside them read.
pub struct EndToEnd {
    /// CPU seconds of the program under test, one sample per set-up.
    pub setup_s: Vec<f64>,
    /// Units of work (decisions, slots or replications) per CPU second
    /// of the program, one sample per timed window or campaign.
    pub ops_per_cpu_s: Vec<f64>,
    /// Latency samples in microseconds, timed by the wall clock.
    pub latency_us: Vec<f64>,
    /// Peak resident set of the process under test, in KiB.
    pub peak_rss_kb: u64,
    /// Every calibration burst's reading, in order.
    pub calibration: Vec<f64>,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.setup_s), "s");
        m.set("ops_per_cpu_s", median(&self.ops_per_cpu_s), "1/s");
        m.set("latency_p50_us", median(&self.latency_us), "us");
        m.set("peak_rss_mb", self.peak_rss_kb as f64 / 1024.0, "MB");
        m
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn rusage_cpu(who: i32) -> f64 {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `r` is a live, writable value with the layout of the
    // kernel's 64-bit `struct rusage`; getrusage writes only into it.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    let t = |v: &Timeval| v.sec as f64 + v.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// User plus system CPU seconds of every child this process has
/// reaped. The kernel charges a task only for time it actually ran,
/// so time the hypervisor steals from the vCPU is not in it.
pub fn children_cpu() -> f64 {
    rusage_cpu(RUSAGE_CHILDREN)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in nanoseconds. Layer timings
/// use it so that time stolen from the vCPU does not count as work.
pub fn thread_cpu() -> Duration {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable timespec; clock_gettime writes only
    // into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(t.sec as u64, t.nsec as u32)
}

/// User plus system CPU seconds of a live process, all threads, at the
/// 10 ms resolution `/proc` reports.
pub fn proc_cpu(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in USER_HZ (100 per second).
    let ticks: u64 = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

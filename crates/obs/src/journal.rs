//! The structured event journal: leveled, component-targeted events
//! serialized as NDJSON (one JSON object per line) to a runtime-selectable
//! sink.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** The default sink is [`Sink::Noop`]; an emission
//!    against it is two relaxed atomic loads — no allocation, no
//!    formatting, no lock. Call sites therefore never need their own
//!    `if verbose` guards.
//! 2. **Machine-readable.** Every line is a complete JSON object with a
//!    fixed key order (`seq`, `t_us`, `level`, `component`, `event`,
//!    `fields`), so journals are `diff`-able and greppable.
//! 3. **Line-atomic.** Concurrent emitters (the `gps_par` pool runs
//!    campaign replications on worker threads) must never interleave
//!    bytes within a line: each event is serialized to one buffer —
//!    including the trailing newline — and written with a single
//!    `write_all` under the sink lock. Sequence numbers are assigned
//!    under the same lock, so they are strictly increasing in file
//!    order.
//! 4. **Deterministic modulo time.** `t_us` (microseconds since the
//!    journal was created) is the *only* timing field; stripping it from
//!    two same-seed runs must yield byte-identical journals.
//!
//! The sink is runtime-swappable ([`Journal::reconfigure`]): the
//! process-global hub is frozen on first use, so benches and the exporter
//! need to redirect an already-installed journal without rebuilding it.

use crate::json::{self, write_escaped, Json};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// High-volume diagnostics (per-phase solver detail).
    Debug = 0,
    /// Campaign progress and provenance (the default emission level).
    Info = 1,
    /// Unexpected-but-survivable conditions.
    Warn = 2,
    /// Failures worth aborting over.
    Error = 3,
}

impl Level {
    /// The lowercase wire name (`"info"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a wire name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A borrowed field value; numbers and strings only, so emission never
/// heap-allocates on behalf of the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (seeds, counts, slot numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, probabilities); non-finite serializes as `null`.
    F64(f64),
    /// Borrowed string.
    Str(&'a str),
}

impl<'a> From<bool> for FieldValue<'a> {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl<'a> From<u64> for FieldValue<'a> {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl<'a> From<usize> for FieldValue<'a> {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl<'a> From<i64> for FieldValue<'a> {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl<'a> From<f64> for FieldValue<'a> {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl<'a> From<&'a str> for FieldValue<'a> {
    fn from(v: &'a str) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue<'_> {
    fn write(&self, out: &mut String) {
        match *self {
            FieldValue::Bool(b) => out.push_str(if b { "true" } else { "false" }),
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => out.push_str(&json::fmt_f64(v)),
            FieldValue::Str(s) => write_escaped(s, out),
        }
    }
}

/// Where journal lines go. Writers live behind the journal's sink lock,
/// so the variants hold plain (unsynchronized) handles.
#[derive(Debug)]
pub enum Sink {
    /// Discard everything; emission is a single branch.
    Noop,
    /// One line per event on standard error (one `write_all` per line on
    /// the locked handle — lines never interleave).
    Stderr,
    /// Append to a file (buffered; flushed per line so crashes lose at
    /// most the in-flight event).
    File(BufWriter<File>),
}

impl Sink {
    fn is_noop(&self) -> bool {
        matches!(self, Sink::Noop)
    }

    /// Opens the writer a [`SinkKind`] describes (parent directories are
    /// created for file sinks).
    pub fn open(kind: &SinkKind) -> std::io::Result<Sink> {
        Ok(match kind {
            SinkKind::Noop => Sink::Noop,
            SinkKind::Stderr => Sink::Stderr,
            SinkKind::File(path) => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                Sink::File(BufWriter::new(File::create(path)?))
            }
        })
    }
}

/// How a sink is requested before it is opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkKind {
    /// [`Sink::Noop`].
    Noop,
    /// [`Sink::Stderr`].
    Stderr,
    /// [`Sink::File`] at the given path.
    File(PathBuf),
}

impl SinkKind {
    /// Parses `"noop"` / `"stderr"`; anything else is treated as a file
    /// path.
    pub fn parse(s: &str) -> SinkKind {
        match s {
            "noop" | "none" | "off" => SinkKind::Noop,
            "stderr" => SinkKind::Stderr,
            path => SinkKind::File(PathBuf::from(path)),
        }
    }
}

/// The structured event journal.
///
/// `enabled()` is lock-free (two relaxed atomic loads) so the disabled
/// fast path costs nothing; an actual emission serializes the whole line
/// first-to-newline into one buffer and performs a single locked
/// `write_all`, keeping NDJSON line-atomic under concurrent emitters.
#[derive(Debug)]
pub struct Journal {
    sink: Mutex<Sink>,
    /// Mirror of `!sink.is_noop()`, readable without the lock.
    active: AtomicBool,
    min_level: AtomicU8,
    seq: AtomicU64,
    epoch: Instant,
}

impl Journal {
    /// A journal that discards everything (the library default).
    pub fn noop() -> Journal {
        Journal::new(Sink::Noop, Level::Info)
    }

    /// A journal with an explicit sink and minimum level.
    pub fn new(sink: Sink, min_level: Level) -> Journal {
        let active = !sink.is_noop();
        Journal {
            sink: Mutex::new(sink),
            active: AtomicBool::new(active),
            min_level: AtomicU8::new(min_level as u8),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Opens a journal writing NDJSON to `path` (parent directories are
    /// created).
    pub fn file(path: &Path, min_level: Level) -> std::io::Result<Journal> {
        Ok(Journal::new(
            Sink::open(&SinkKind::File(path.to_path_buf()))?,
            min_level,
        ))
    }

    /// Builds a journal from a [`SinkKind`].
    pub fn from_kind(kind: &SinkKind, min_level: Level) -> std::io::Result<Journal> {
        Ok(Journal::new(Sink::open(kind)?, min_level))
    }

    /// Swaps the sink and minimum level in place. The sequence counter
    /// and epoch carry over, so a redirected journal keeps a single
    /// monotone event stream.
    fn set_sink(&self, sink: Sink, min_level: Level) {
        let active = !sink.is_noop();
        let mut guard = self.sink.lock().expect("journal sink poisoned");
        *guard = sink;
        self.min_level.store(min_level as u8, Ordering::Relaxed);
        self.active.store(active, Ordering::Relaxed);
    }

    /// Opens the sink a [`SinkKind`] describes and installs it. On error
    /// the current sink is left untouched.
    pub fn reconfigure(&self, kind: &SinkKind, min_level: Level) -> std::io::Result<()> {
        let sink = Sink::open(kind)?;
        self.set_sink(sink, min_level);
        Ok(())
    }

    /// Whether an event at `level` would be written. Callers with
    /// expensive-to-compute fields should branch on this first.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        self.active.load(Ordering::Relaxed) && level as u8 >= self.min_level.load(Ordering::Relaxed)
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Emits one event. `component` is a dotted target (`"sim.runner"`),
    /// `event` a snake_case name, `fields` ordered key/value pairs.
    pub fn emit(&self, level: Level, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled(level) {
            return;
        }
        // Sequence assignment, serialization, and the write all happen
        // under the sink lock: lines land whole and in seq order even
        // with the gps_par pool emitting from many workers. Formatting
        // under the lock is deliberate — the journal is a telemetry
        // path, not a hot path, and ordering is worth more here than
        // emitter concurrency.
        let mut sink = self.sink.lock().expect("journal sink poisoned");
        if sink.is_noop() {
            return; // sink swapped to Noop after the enabled() check
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let mut line = String::with_capacity(96 + 24 * fields.len());
        line.push_str("{\"seq\":");
        line.push_str(&seq.to_string());
        line.push_str(",\"t_us\":");
        line.push_str(&t_us.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(level.as_str());
        line.push_str("\",\"component\":");
        write_escaped(component, &mut line);
        line.push_str(",\"event\":");
        write_escaped(event, &mut line);
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_escaped(k, &mut line);
            line.push(':');
            v.write(&mut line);
        }
        line.push_str("}}\n");
        match &mut *sink {
            Sink::Noop => unreachable!("checked above"),
            Sink::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = err.write_all(line.as_bytes());
            }
            Sink::File(w) => {
                let _ = w.write_all(line.as_bytes());
                let _ = w.flush();
            }
        }
    }

    /// [`Level::Debug`] convenience wrapper around [`Journal::emit`].
    pub fn debug(&self, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
        self.emit(Level::Debug, component, event, fields);
    }

    /// [`Level::Info`] convenience wrapper around [`Journal::emit`].
    pub fn info(&self, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
        self.emit(Level::Info, component, event, fields);
    }

    /// [`Level::Warn`] convenience wrapper around [`Journal::emit`].
    pub fn warn(&self, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
        self.emit(Level::Warn, component, event, fields);
    }

    /// [`Level::Error`] convenience wrapper around [`Journal::emit`].
    pub fn error(&self, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
        self.emit(Level::Error, component, event, fields);
    }
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Emission sequence number.
    pub seq: u64,
    /// Microseconds since journal creation (the timing field).
    pub t_us: u64,
    /// Severity.
    pub level: Level,
    /// Component target.
    pub component: String,
    /// Event name.
    pub event: String,
    /// Field pairs in emission order.
    pub fields: Vec<(String, Json)>,
}

/// Parses an NDJSON journal into events, verifying each line's shape.
pub fn parse_ndjson(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("line {}: missing key '{key}'", lineno + 1))
        };
        let level_str = field("level")?
            .as_str()
            .ok_or_else(|| format!("line {}: level not a string", lineno + 1))?;
        let fields = match field("fields")? {
            Json::Obj(pairs) => pairs.clone(),
            _ => return Err(format!("line {}: fields not an object", lineno + 1)),
        };
        events.push(ParsedEvent {
            seq: field("seq")?
                .as_u64()
                .ok_or_else(|| format!("line {}: bad seq", lineno + 1))?,
            t_us: field("t_us")?
                .as_u64()
                .ok_or_else(|| format!("line {}: bad t_us", lineno + 1))?,
            level: Level::parse(level_str)
                .ok_or_else(|| format!("line {}: bad level '{level_str}'", lineno + 1))?,
            component: field("component")?
                .as_str()
                .ok_or_else(|| format!("line {}: component not a string", lineno + 1))?
                .to_string(),
            event: field("event")?
                .as_str()
                .ok_or_else(|| format!("line {}: event not a string", lineno + 1))?
                .to_string(),
            fields,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_writes_nothing_and_costs_nothing() {
        let j = Journal::noop();
        assert!(!j.enabled(Level::Error));
        j.error("x", "boom", &[("k", FieldValue::U64(1))]);
        assert_eq!(j.events_written(), 0);
    }

    #[test]
    fn level_filtering() {
        let dir = std::env::temp_dir().join(format!("gps_obs_lvl_{}", std::process::id()));
        let path = dir.join("j.ndjson");
        let j = Journal::file(&path, Level::Warn).unwrap();
        assert!(!j.enabled(Level::Info));
        j.info("c", "skipped", &[]);
        j.warn("c", "kept", &[]);
        drop(j);
        let events = parse_ndjson(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip_preserves_everything() {
        let dir = std::env::temp_dir().join(format!("gps_obs_rt_{}", std::process::id()));
        let path = dir.join("j.ndjson");
        let j = Journal::file(&path, Level::Debug).unwrap();
        j.info(
            "sim.runner",
            "run_start",
            &[
                ("seed", FieldValue::U64(42)),
                ("rho", FieldValue::F64(0.25)),
                ("label", FieldValue::Str("set \"1\"")),
                ("quiet", FieldValue::Bool(false)),
                ("delta", FieldValue::I64(-3)),
            ],
        );
        j.debug("ebb", "xi_opt", &[("xi", FieldValue::F64(1.5))]);
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_ndjson(&text).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[0];
        assert_eq!(e.seq, 0);
        assert_eq!(e.level, Level::Info);
        assert_eq!(e.component, "sim.runner");
        assert_eq!(e.event, "run_start");
        assert_eq!(e.fields[0], ("seed".to_string(), Json::U64(42)));
        assert_eq!(e.fields[1], ("rho".to_string(), Json::F64(0.25)));
        assert_eq!(
            e.fields[2],
            ("label".to_string(), Json::Str("set \"1\"".into()))
        );
        assert_eq!(e.fields[3], ("quiet".to_string(), Json::Bool(false)));
        assert_eq!(e.fields[4], ("delta".to_string(), Json::I64(-3)));
        assert_eq!(events[1].seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn canonical_lines_equal_across_runs() {
        let emit = |path: &Path| {
            let j = Journal::file(path, Level::Info).unwrap();
            j.info("c", "e", &[("n", FieldValue::U64(7))]);
            j.info("c", "f", &[("x", FieldValue::F64(0.5))]);
        };
        let dir = std::env::temp_dir().join(format!("gps_obs_canon_{}", std::process::id()));
        let (p1, p2) = (dir.join("a.ndjson"), dir.join("b.ndjson"));
        emit(&p1);
        emit(&p2);
        let canon = |p: &Path| -> Vec<ParsedEvent> {
            parse_ndjson(&std::fs::read_to_string(p).unwrap())
                .unwrap()
                .into_iter()
                .map(|e| ParsedEvent { t_us: 0, ..e })
                .collect()
        };
        assert_eq!(canon(&p1), canon(&p2));
        // And the raw text without its `"t_us":N` field is byte-identical too.
        let strip = |p: &Path| -> String {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .map(|line| {
                    let (head, rest) = line.split_once(",\"t_us\":").unwrap();
                    format!(
                        "{head}{}",
                        rest.trim_start_matches(|c: char| c.is_ascii_digit())
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&p1), strip(&p2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("trace"), None);
        assert!(Level::Debug < Level::Error);
    }

    #[test]
    fn sink_swap_redirects_and_keeps_seq() {
        let dir = std::env::temp_dir().join(format!("gps_obs_swap_{}", std::process::id()));
        let (p1, p2) = (dir.join("a.ndjson"), dir.join("b.ndjson"));
        let j = Journal::file(&p1, Level::Info).unwrap();
        j.info("c", "first", &[]);
        j.reconfigure(&SinkKind::File(p2.clone()), Level::Info)
            .unwrap();
        j.info("c", "second", &[]);
        j.reconfigure(&SinkKind::Noop, Level::Info).unwrap();
        assert!(!j.enabled(Level::Error));
        j.info("c", "dropped", &[]);
        let a = parse_ndjson(&std::fs::read_to_string(&p1).unwrap()).unwrap();
        let b = parse_ndjson(&std::fs::read_to_string(&p2).unwrap()).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].seq, 0);
        assert_eq!(b[0].seq, 1); // counter carries across the swap
        assert_eq!(j.events_written(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: NDJSON line-atomicity under concurrent emitters. Four
    /// threads hammer one file journal; every line must parse, and the
    /// seq stream must be exactly 0..N in file order (assigned under the
    /// sink lock).
    #[test]
    fn concurrent_emitters_never_interleave_lines() {
        const THREADS: usize = 4;
        const EVENTS_EACH: usize = 500;
        let dir = std::env::temp_dir().join(format!("gps_obs_stress_{}", std::process::id()));
        let path = dir.join("stress.ndjson");
        let j = Journal::file(&path, Level::Debug).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let j = &j;
                scope.spawn(move || {
                    for k in 0..EVENTS_EACH {
                        j.info(
                            "stress",
                            "tick",
                            &[
                                ("thread", (t as u64).into()),
                                ("k", (k as u64).into()),
                                ("payload", "abcdefghijklmnopqrstuvwxyz0123456789".into()),
                            ],
                        );
                    }
                });
            }
        });
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_ndjson(&text).expect("every line parses");
        assert_eq!(events.len(), THREADS * EVENTS_EACH);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq dense and in file order");
            assert_eq!(e.event, "tick");
            assert_eq!(e.fields.len(), 3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

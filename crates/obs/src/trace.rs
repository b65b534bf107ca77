//! Campaign flight recorder: a bounded per-thread ring-buffer trace
//! collector behind the `GPS_OBS_TRACE` knob.
//!
//! Three modes, selected once per process:
//!
//! * **Off** (the default) — every record call is a single relaxed
//!   atomic load and an early return. No allocation, no locks: the
//!   disabled path rides inside the simulator hot loops under the same
//!   zero-allocation contract `hot_path_alloc.rs` pins for the journal.
//! * **Timing** (`GPS_OBS_TRACE=1`) — begin/end/instant events carry
//!   nanosecond timestamps into a fixed-capacity per-thread ring buffer
//!   (lock-free single-writer append; a global name-intern table is
//!   consulted only on each thread's *first* use of a label). When a
//!   buffer fills, further events are counted as dropped — never
//!   silently discarded: [`export_json`] raises the `obs.trace.dropped`
//!   counter and emits one `warn` journal event with the total.
//!   [`export_json`] renders Chrome trace-event JSON (an object with a
//!   `traceEvents` array) loadable in Perfetto / `chrome://tracing`,
//!   one lane per worker (`tid` = lane; lane 0 is the main thread,
//!   lane *w*+1 is pool worker *w* — see [`set_lane`]).
//! * **Counts** (`GPS_OBS_TRACE=counts`) — no timestamps, no bounded
//!   buffer: per-thread unbounded tallies of event counts and item
//!   totals, merged and sorted at export. The output is a pure function
//!   of the workload: byte-identical across `GPS_PAR_THREADS` and
//!   `GPS_PAR_CHUNK`, which is what the determinism tests pin.
//!
//! Determinism tiering inside counts mode: chunk *boundaries* depend on
//! the scheduler, so [`TraceKind::WorkerChunk`] exports only its summed
//! item count (= total indices processed, invariant) and omits its event
//! count; [`TraceKind::SpanScope`] events fire per worker and are
//! skipped in counts mode entirely. Everything else (checkpoint writes
//! and restores, monitor folds) happens exactly once per replication and
//! exports full counts.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Mode switch

/// What the flight recorder is doing this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Disabled: record calls cost one relaxed atomic load.
    Off,
    /// Deterministic tallies only (no timestamps, unbounded).
    Counts,
    /// Timestamped events into bounded per-thread ring buffers.
    Timing,
}

const MODE_OFF: u8 = 0;
const MODE_COUNTS: u8 = 1;
const MODE_TIMING: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);

/// The active mode.
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_COUNTS => TraceMode::Counts,
        MODE_TIMING => TraceMode::Timing,
        _ => TraceMode::Off,
    }
}

/// Whether any tracing is active — the one load on the disabled path.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// Switches the recorder's mode at runtime (tests and benches; binaries
/// normally go through [`init_from_env`]). Buffers already recorded are
/// kept — call [`reset`] for a clean slate.
pub fn configure(mode: TraceMode) {
    epoch(); // anchor timestamps before the first event
    let m = match mode {
        TraceMode::Off => MODE_OFF,
        TraceMode::Counts => MODE_COUNTS,
        TraceMode::Timing => MODE_TIMING,
    };
    MODE.store(m, Ordering::Relaxed);
}

/// Reads `GPS_OBS_TRACE`: unset/`0`/empty ⇒ off, `counts` ⇒ counts mode,
/// anything truthy (`1`, `true`, `timing`) ⇒ timing mode. Returns the
/// mode it configured.
pub fn init_from_env() -> TraceMode {
    let mode = match std::env::var("GPS_OBS_TRACE") {
        Ok(v) if v == "counts" => TraceMode::Counts,
        Ok(v) if v == "1" || v == "true" || v == "timing" => TraceMode::Timing,
        _ => TraceMode::Off,
    };
    configure(mode);
    mode
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------
// Event taxonomy

/// What a trace event describes. The set is closed on purpose: the
/// counts-mode determinism rules (see the module docs) are per-kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// One chunk of indices claimed and drained by a pool worker
    /// (`arg` = number of indices). Scheduling-dependent: counts mode
    /// exports only the summed items.
    WorkerChunk = 0,
    /// A [`crate::span::Span`] scope (timing mode only).
    SpanScope = 1,
    /// One replication appended to a supervised campaign checkpoint.
    CheckpointWrite = 2,
    /// One replication restored from a checkpoint instead of recomputed.
    CheckpointRestore = 3,
    /// One post-join bound-monitor fold over a finished replication.
    MonitorFold = 4,
    /// One HTTP request dispatched by the exporter (`arg` = request
    /// ID). Wall-clock-driven and client-dependent: excluded from the
    /// counts-mode deterministic tier, like [`TraceKind::SpanScope`].
    RequestDispatch = 5,
}

impl TraceKind {
    fn from_u8(v: u8) -> TraceKind {
        match v {
            0 => TraceKind::WorkerChunk,
            1 => TraceKind::SpanScope,
            2 => TraceKind::CheckpointWrite,
            3 => TraceKind::CheckpointRestore,
            5 => TraceKind::RequestDispatch,
            _ => TraceKind::MonitorFold,
        }
    }

    /// The Chrome trace-event `cat` / counts-mode kind label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::WorkerChunk => "worker_chunk",
            TraceKind::SpanScope => "span",
            TraceKind::CheckpointWrite => "checkpoint_write",
            TraceKind::CheckpointRestore => "checkpoint_restore",
            TraceKind::MonitorFold => "monitor_fold",
            TraceKind::RequestDispatch => "request",
        }
    }

    /// Whether the raw event count is a pure function of the workload
    /// (counts mode exports event counts only for these kinds).
    fn deterministic_count(self) -> bool {
        !matches!(
            self,
            TraceKind::WorkerChunk | TraceKind::SpanScope | TraceKind::RequestDispatch
        )
    }
}

// ---------------------------------------------------------------------
// Worker lanes

thread_local! {
    /// The Chrome-trace `tid` this thread records under: 0 = main
    /// thread, w+1 = pool worker w.
    static LANE: Cell<u16> = const { Cell::new(0) };
}

/// Tags the current thread's events with `lane` (the pool sets
/// `worker + 1`; lane 0 is reserved for the main thread).
pub fn set_lane(lane: u16) {
    LANE.with(|l| l.set(lane));
}

// ---------------------------------------------------------------------
// Name interning (timing mode)

/// Global intern table: id → name. Locked only when a thread meets a
/// label for the first time; afterwards the thread-local cache answers.
static NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    static NAME_CACHE: RefCell<Vec<(String, u32)>> = const { RefCell::new(Vec::new()) };
}

fn intern(name: &str) -> u32 {
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, id)) = cache.iter().find(|(n, _)| n == name) {
            return id;
        }
        let mut table = NAMES.lock().unwrap();
        let id = match table.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                table.push(name.to_string());
                (table.len() - 1) as u32
            }
        };
        drop(table);
        cache.push((name.to_string(), id));
        id
    })
}

fn name_of(id: u32) -> String {
    NAMES
        .lock()
        .unwrap()
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("name#{id}"))
}

// ---------------------------------------------------------------------
// Timing mode: per-thread ring buffers

const PHASE_BEGIN: u64 = 0;
const PHASE_END: u64 = 1;
const PHASE_INSTANT: u64 = 2;

/// One recorded event slot. All-atomic so the exporter may read while a
/// straggler thread is still writing (the writer is the only thread that
/// advances `len`, with a release store after the slot is filled).
struct Slot {
    ts_ns: AtomicU64,
    /// Packed: bits 0..8 phase, 8..16 kind, 16..32 lane, 32..64 name id.
    meta: AtomicU64,
    arg: AtomicU64,
}

struct RingBuffer {
    slots: Box<[Slot]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

impl RingBuffer {
    fn new(capacity: usize) -> RingBuffer {
        let slots = (0..capacity)
            .map(|_| Slot {
                ts_ns: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect();
        RingBuffer {
            slots,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Single-writer append: plain load/store on `len` (this thread owns
    /// it), release so the exporter's acquire load sees filled slots.
    fn push(&self, ts_ns: u64, phase: u64, kind: TraceKind, lane: u16, name_id: u32, arg: u64) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let meta = phase | ((kind as u64) << 8) | ((lane as u64) << 16) | ((name_id as u64) << 32);
        self.slots[i].ts_ns.store(ts_ns, Ordering::Relaxed);
        self.slots[i].meta.store(meta, Ordering::Relaxed);
        self.slots[i].arg.store(arg, Ordering::Relaxed);
        self.len.store(i + 1, Ordering::Release);
    }
}

/// Per-thread tally for counts mode: (kind, name id) → (events, items).
type CountMap = std::collections::BTreeMap<(u8, u32), (u64, u64)>;

/// Everything the collector knows about one recording thread. Buffers
/// outlive their threads (campaign scopes spawn and join workers many
/// times per run), so the registry holds `Arc`s.
struct ThreadBuf {
    ring: RingBuffer,
    counts: Mutex<CountMap>,
}

struct Collector {
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Bumped by [`reset`]; thread-locals from an older generation
    /// re-register before recording again.
    generation: AtomicU64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        buffers: Mutex::new(Vec::new()),
        generation: AtomicU64::new(0),
    })
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("GPS_OBS_TRACE_CAP")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&c: &usize| c > 0)
            .unwrap_or(65_536)
    })
}

thread_local! {
    static THREAD_BUF: RefCell<Option<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
}

fn with_thread_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    THREAD_BUF.with(|cell| {
        let mut slot = cell.borrow_mut();
        let gen_now = collector().generation.load(Ordering::Relaxed);
        let stale = match &*slot {
            Some((g, _)) => *g != gen_now,
            None => true,
        };
        if stale {
            let buf = Arc::new(ThreadBuf {
                ring: RingBuffer::new(ring_capacity()),
                counts: Mutex::new(CountMap::new()),
            });
            collector().buffers.lock().unwrap().push(Arc::clone(&buf));
            *slot = Some((gen_now, buf));
        }
        f(&slot.as_ref().unwrap().1)
    })
}

// ---------------------------------------------------------------------
// Recording

fn record(phase: u64, kind: TraceKind, name: &str, arg: u64) {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => {}
        MODE_COUNTS => {
            // Span scopes fire per worker and request dispatches per
            // client — both scheduling-dependent — so the deterministic
            // tier ignores them entirely.
            if kind == TraceKind::SpanScope
                || kind == TraceKind::RequestDispatch
                || phase == PHASE_END
            {
                return;
            }
            let id = intern(name);
            with_thread_buf(|buf| {
                let mut counts = buf.counts.lock().unwrap();
                let entry = counts.entry((kind as u8, id)).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += arg;
            });
        }
        _ => {
            let ts = epoch().elapsed().as_nanos() as u64;
            let id = intern(name);
            let lane = LANE.with(|l| l.get());
            with_thread_buf(|buf| buf.ring.push(ts, phase, kind, lane, id, arg));
        }
    }
}

/// Records the start of a `kind` scope named `name`. `arg` rides into
/// the Chrome event's `args.items` (chunk length, replication index, …).
#[inline]
pub fn begin(kind: TraceKind, name: &str, arg: u64) {
    if !enabled() {
        return;
    }
    record(PHASE_BEGIN, kind, name, arg);
}

/// Records the end of the innermost `kind` scope named `name`.
#[inline]
pub fn end(kind: TraceKind, name: &str) {
    if !enabled() {
        return;
    }
    record(PHASE_END, kind, name, 0);
}

/// Records a point event (checkpoint writes/restores).
#[inline]
pub fn instant(kind: TraceKind, name: &str, arg: u64) {
    if !enabled() {
        return;
    }
    record(PHASE_INSTANT, kind, name, arg);
}

/// RAII begin/end pair: [`begin`] now, [`end`] on drop. Inert (and
/// allocation-free) when tracing is off.
#[derive(Debug)]
pub struct TraceScope {
    active: Option<(TraceKind, u32)>,
}

/// Opens a traced scope; the matching end event is recorded on drop.
pub fn scope(kind: TraceKind, name: &str, arg: u64) -> TraceScope {
    if !enabled() {
        return TraceScope { active: None };
    }
    record(PHASE_BEGIN, kind, name, arg);
    TraceScope {
        active: Some((kind, intern(name))),
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some((kind, id)) = self.active.take() {
            if MODE.load(Ordering::Relaxed) == MODE_TIMING {
                let ts = epoch().elapsed().as_nanos() as u64;
                let lane = LANE.with(|l| l.get());
                with_thread_buf(|buf| buf.ring.push(ts, PHASE_END, kind, lane, id, 0));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Export

/// Total events dropped so far because a ring buffer was full.
fn dropped_total() -> u64 {
    collector()
        .buffers
        .lock()
        .unwrap()
        .iter()
        .map(|b| b.ring.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Discards every recorded event, tally, and drop count (the mode is
/// untouched). Thread-local buffers re-register lazily via a generation
/// bump, so tests can run several independent recordings in one process.
pub fn reset() {
    let c = collector();
    c.generation.fetch_add(1, Ordering::Relaxed);
    c.buffers.lock().unwrap().clear();
}

fn fmt_ts_us(ns: u64) -> String {
    // Chrome trace timestamps are microseconds; keep nanosecond
    // resolution as a fixed three-decimal fraction.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// One decoded event, ordered for export.
struct Decoded {
    ts_ns: u64,
    lane: u16,
    phase: u64,
    kind: TraceKind,
    name_id: u32,
    arg: u64,
}

fn drain_decoded() -> Vec<Decoded> {
    let buffers = collector().buffers.lock().unwrap();
    let mut out = Vec::new();
    for buf in buffers.iter() {
        let len = buf
            .ring
            .len
            .load(Ordering::Acquire)
            .min(buf.ring.slots.len());
        for slot in &buf.ring.slots[..len] {
            let meta = slot.meta.load(Ordering::Relaxed);
            out.push(Decoded {
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                lane: ((meta >> 16) & 0xffff) as u16,
                phase: meta & 0xff,
                kind: TraceKind::from_u8(((meta >> 8) & 0xff) as u8),
                name_id: ((meta >> 32) & 0xffff_ffff) as u32,
                arg: slot.arg.load(Ordering::Relaxed),
            });
        }
    }
    out.sort_by_key(|e| (e.ts_ns, e.lane, e.phase));
    out
}

fn export_timing(campaign: &str) -> String {
    let events = drain_decoded();
    let mut lanes: Vec<u16> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for &lane in &lanes {
        let label = if lane == 0 {
            "main".to_string()
        } else {
            format!("worker-{}", lane - 1)
        };
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }
    for e in &events {
        let ph = match e.phase {
            PHASE_BEGIN => "B",
            PHASE_END => "E",
            _ => "i",
        };
        let mut name = String::new();
        crate::json::write_escaped(&name_of(e.name_id), &mut name);
        let mut ev = format!(
            "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\
             \"pid\":1,\"tid\":{}",
            e.kind.label(),
            fmt_ts_us(e.ts_ns),
            e.lane
        );
        if e.phase == PHASE_INSTANT {
            ev.push_str(",\"s\":\"t\"");
        }
        if e.phase != PHASE_END {
            ev.push_str(&format!(",\"args\":{{\"items\":{}}}", e.arg));
        }
        ev.push('}');
        push(ev, &mut out, &mut first);
    }
    let mut camp = String::new();
    crate::json::write_escaped(campaign, &mut camp);
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"campaign\":{camp},\
         \"dropped\":{}}}}}",
        dropped_total()
    ));
    out
}

fn export_counts(campaign: &str) -> String {
    // Merge every thread's tallies; BTreeMap keys sort by (kind, name).
    let mut merged: std::collections::BTreeMap<(u8, String), (u64, u64)> =
        std::collections::BTreeMap::new();
    for buf in collector().buffers.lock().unwrap().iter() {
        for (&(kind, id), &(count, items)) in buf.counts.lock().unwrap().iter() {
            let entry = merged.entry((kind, name_of(id))).or_insert((0, 0));
            entry.0 += count;
            entry.1 += items;
        }
    }
    let mut out = String::from("{\"trace\":\"counts\",\"campaign\":");
    crate::json::write_escaped(campaign, &mut out);
    out.push_str(",\"events\":[");
    let mut first = true;
    for ((kind, name), (count, items)) in &merged {
        if !first {
            out.push(',');
        }
        first = false;
        let kind = TraceKind::from_u8(*kind);
        out.push_str("{\"kind\":\"");
        out.push_str(kind.label());
        out.push_str("\",\"name\":");
        crate::json::write_escaped(name, &mut out);
        if kind.deterministic_count() {
            out.push_str(&format!(",\"count\":{count}"));
        }
        out.push_str(&format!(",\"items\":{items}}}"));
    }
    out.push_str("]}");
    out
}

/// Renders everything recorded so far for the campaign named `campaign`:
/// Chrome trace-event JSON in timing mode, the deterministic tally
/// document in counts mode, `None` when tracing is off.
///
/// If any ring buffer overflowed, this also bumps the
/// `obs.trace.dropped` counter on the global registry and emits one
/// `warn` journal event carrying the total — truncation is never silent.
pub fn export_json(campaign: &str) -> Option<String> {
    let mode = mode();
    let dropped = dropped_total();
    if dropped > 0 {
        crate::metrics().counter("obs.trace.dropped").add(dropped);
        crate::warn(
            "obs.trace",
            "events_dropped",
            &[
                ("campaign", campaign.into()),
                ("dropped", dropped.into()),
                ("ring_capacity", (ring_capacity() as u64).into()),
            ],
        );
    }
    match mode {
        TraceMode::Off => None,
        TraceMode::Counts => Some(export_counts(campaign)),
        TraceMode::Timing => Some(export_timing(campaign)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The mode switch is process-global, so every test here serializes
    // behind one lock and restores Off on exit.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct ModeGuard;
    impl Drop for ModeGuard {
        fn drop(&mut self) {
            configure(TraceMode::Off);
            reset();
        }
    }

    // Tuple fields drop in order: the mode is restored before the lock
    // is released, so the next test cannot see this one's teardown.
    fn exclusive(mode: TraceMode) -> (ModeGuard, std::sync::MutexGuard<'static, ()>) {
        let lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        configure(mode);
        (ModeGuard, lock)
    }

    #[test]
    fn off_mode_records_and_exports_nothing() {
        let _g = exclusive(TraceMode::Off);
        begin(TraceKind::WorkerChunk, "chunk", 5);
        end(TraceKind::WorkerChunk, "chunk");
        instant(TraceKind::CheckpointWrite, "ckpt", 1);
        assert_eq!(export_json("t"), None);
        assert_eq!(dropped_total(), 0);
    }

    #[test]
    fn counts_mode_is_thread_independent() {
        let _g = exclusive(TraceMode::Counts);
        instant(TraceKind::CheckpointWrite, "ckpt", 1);
        instant(TraceKind::CheckpointWrite, "ckpt", 1);
        begin(TraceKind::WorkerChunk, "chunk", 7);
        end(TraceKind::WorkerChunk, "chunk");
        let solo = export_json("t").unwrap();
        reset();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| instant(TraceKind::CheckpointWrite, "ckpt", 1));
            }
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                begin(TraceKind::WorkerChunk, "chunk", 3);
                end(TraceKind::WorkerChunk, "chunk");
            });
            s.spawn(|| {
                begin(TraceKind::WorkerChunk, "chunk", 4);
                end(TraceKind::WorkerChunk, "chunk");
            });
        });
        let multi = export_json("t").unwrap();
        // Two chunk events instead of one, but the same summed items and
        // the same checkpoint count ⇒ identical bytes.
        assert_eq!(solo, multi);
        assert!(solo.contains("\"kind\":\"checkpoint_write\""));
        assert!(solo.contains("\"count\":2"));
        assert!(solo.contains("\"items\":7"));
        assert!(!solo.contains("\"kind\":\"worker_chunk\",\"name\":\"chunk\",\"count\""));
    }

    #[test]
    fn timing_mode_exports_chrome_events_with_lanes() {
        let _g = exclusive(TraceMode::Timing);
        begin(TraceKind::WorkerChunk, "chunk", 9);
        end(TraceKind::WorkerChunk, "chunk");
        std::thread::scope(|s| {
            s.spawn(|| {
                set_lane(2);
                let _scope = scope(TraceKind::WorkerChunk, "chunk", 4);
                instant(TraceKind::CheckpointWrite, "ckpt \"quoted\"", 1);
            });
        });
        let json = export_json("demo").unwrap();
        let doc = crate::json::parse(&json).expect("chrome trace parses");
        let events = match doc.get("traceEvents") {
            Some(crate::json::Json::Arr(evs)) => evs.clone(),
            other => panic!("no traceEvents array: {other:?}"),
        };
        // 2 thread_name metadata + 2 main events + 3 worker events.
        assert_eq!(events.len(), 7);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "M").count(), 2);
        assert_eq!(phases.iter().filter(|&&p| p == "B").count(), 2);
        assert_eq!(phases.iter().filter(|&&p| p == "E").count(), 2);
        assert_eq!(phases.iter().filter(|&&p| p == "i").count(), 1);
        // The quoted name survived escaping (the parser accepted it) and
        // the worker events carry tid 2.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("ckpt \"quoted\"")
                && e.get("tid").and_then(|t| t.as_u64()) == Some(2)
        }));
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped"))
                .and_then(|d| d.as_u64()),
            Some(0)
        );
    }

    #[test]
    fn full_ring_counts_drops_instead_of_blocking() {
        let _g = exclusive(TraceMode::Timing);
        let cap = ring_capacity();
        for i in 0..(cap as u64 + 10) {
            instant(TraceKind::CheckpointWrite, "w", i);
        }
        assert_eq!(dropped_total(), 10);
        let json = export_json("overflow").unwrap();
        assert!(json.contains("\"dropped\":10"));
    }

    #[test]
    fn scope_guard_is_inert_when_off() {
        let _g = exclusive(TraceMode::Off);
        {
            let s = scope(TraceKind::MonitorFold, "fold", 0);
            assert!(s.active.is_none());
        }
        assert_eq!(export_json("t"), None);
    }
}

//! Structured spans and events with a zero-overhead disabled path.
//!
//! The hot-path contract, in order of importance:
//!
//! 1. **Disabled means free.** With no sink installed, [`span!`](crate::span!) costs
//!    one relaxed atomic load and constructs a guard whose drop does
//!    nothing — no clock read, no allocation, no branch the optimizer
//!    cannot sink. The solver's zero-allocation pins (`tests/memory.rs`)
//!    run with the instrumentation compiled in and a disabled sink.
//! 2. **Enabled means ring-buffered.** Records go into a preallocated
//!    per-thread ring ([`RING_CAPACITY`] fixed-size [`SpanRecord`]s,
//!    allocated once on a thread's first record). The ring drains to the
//!    installed [`TelemetrySink`] when full and on
//!    [`flush_thread`]; between drains the hot path touches only the
//!    ring — no locks, no heap.
//!
//! Spans are guard-style: `let _g = span!("conflict_build", iter = i);`
//! measures from construction to drop. Events ([`event!`](crate::event!)) are
//! zero-duration records (degradation rungs, admission rejects).

use crate::sink::TelemetrySink;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Ring slots per thread. At ~48 B per record this is ~96 KiB a thread,
/// paid once, on the first record a thread writes.
pub const RING_CAPACITY: usize = 2048;

/// One completed span or event, fixed-size (names are `&'static str`,
/// so records copy without touching the heap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (the span taxonomy is documented in the README).
    pub name: &'static str,
    /// Attribute key (`""` when the span carries no attribute).
    pub attr_key: &'static str,
    /// Attribute value (e.g. the iteration number).
    pub attr: u64,
    /// Nanoseconds since the process-wide telemetry epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds; `0` for point events.
    pub dur_ns: u64,
    /// Whether this is a point event rather than a timed span.
    pub is_event: bool,
    /// Small dense id of the recording thread.
    pub thread: u32,
}

impl SpanRecord {
    /// The record as one JSONL object line (the format
    /// [`crate::trace::summarize_jsonl`] replays).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"{}\":{:?},\"attr_key\":{:?},\"attr\":{},\"start_ns\":{},\"dur_ns\":{},\"thread\":{}}}",
            if self.is_event { "event" } else { "span" },
            self.name,
            self.attr_key,
            self.attr,
            self.start_ns,
            self.dur_ns,
            self.thread
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TelemetrySink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Whether a sink is installed. One relaxed load — the whole cost of a
/// disabled [`span!`](crate::span!).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global span sink and enables
/// recording. Replaces (and returns) any previous sink; rings are *not*
/// retroactively flushed into it.
pub fn install(sink: Arc<dyn TelemetrySink>) -> Option<Arc<dyn TelemetrySink>> {
    epoch(); // pin the epoch before the first record
    let prev = SINK.write().replace(sink);
    ENABLED.store(true, Ordering::Relaxed);
    prev
}

/// Disables recording and removes the sink, returning it. The calling
/// thread's ring is flushed first; other threads flush on their next
/// [`flush_thread`] or ring-full drain (into nothing, once the sink is
/// gone).
pub fn uninstall() -> Option<Arc<dyn TelemetrySink>> {
    flush_thread();
    ENABLED.store(false, Ordering::Relaxed);
    SINK.write().take()
}

struct Ring {
    buf: Vec<SpanRecord>,
    thread: u32,
}

impl Ring {
    /// An empty ring: its slots are allocated by the first record, so a
    /// thread that only flushes (every solve does) holds none.
    fn new() -> Ring {
        Ring {
            buf: Vec::new(),
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        }
    }

    #[inline]
    fn push(&mut self, mut record: SpanRecord) {
        record.thread = self.thread;
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(RING_CAPACITY);
        } else if self.buf.len() == RING_CAPACITY {
            self.drain();
        }
        self.buf.push(record);
    }

    fn drain(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Some(sink) = SINK.read().as_ref() {
            sink.record_spans(&self.buf);
        }
        self.buf.clear();
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

#[inline]
fn record(record: SpanRecord) {
    RING.with(|ring| ring.borrow_mut().push(record));
}

/// Drains the current thread's ring into the installed sink. Call at
/// natural boundaries (end of a solve, end of a worker wave) — records
/// are otherwise delivered only when the ring fills.
pub fn flush_thread() {
    RING.with(|ring| ring.borrow_mut().drain());
}

/// Nanoseconds since the telemetry epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A guard measuring one span from construction to drop. Construct via
/// [`span!`](crate::span!); a disabled guard holds `None` and drops for free.
#[must_use = "a span guard measures until it drops; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    armed: Option<(Instant, u64)>,
    name: &'static str,
    attr_key: &'static str,
    attr: u64,
}

impl SpanGuard {
    /// Starts a span (no-op when disabled).
    #[inline]
    pub fn begin(name: &'static str, attr_key: &'static str, attr: u64) -> SpanGuard {
        let armed = if enabled() {
            Some((Instant::now(), now_ns()))
        } else {
            None
        };
        SpanGuard {
            armed,
            name,
            attr_key,
            attr,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((started, start_ns)) = self.armed.take() {
            record(SpanRecord {
                name: self.name,
                attr_key: self.attr_key,
                attr: self.attr,
                start_ns,
                dur_ns: started.elapsed().as_nanos() as u64,
                is_event: false,
                thread: 0,
            });
        }
    }
}

/// Records a zero-duration event (no-op when disabled).
#[inline]
pub fn emit_event(name: &'static str, attr_key: &'static str, attr: u64) {
    if !enabled() {
        return;
    }
    record(SpanRecord {
        name,
        attr_key,
        attr,
        start_ns: now_ns(),
        dur_ns: 0,
        is_event: true,
        thread: 0,
    });
}

/// Opens a guard-style span: measures from the macro site until the
/// returned guard drops.
///
/// ```
/// {
///     let _g = telemetry::span!("conflict_build", iter = 3u64);
///     // ... work measured while _g lives ...
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::begin($name, "", 0)
    };
    ($name:expr, $key:ident = $attr:expr) => {
        $crate::span::SpanGuard::begin($name, stringify!($key), $attr as u64)
    };
}

/// Records a point event (a mark, not a duration).
///
/// ```
/// telemetry::event!("degrade_backend", iter = 2u64);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::span::emit_event($name, "", 0)
    };
    ($name:expr, $key:ident = $attr:expr) => {
        $crate::span::emit_event($name, stringify!($key), $attr as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectingSink;

    // Span-state tests share the process-global sink; serialize them.
    use parking_lot::Mutex;
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = SINK_LOCK.lock();
        uninstall();
        {
            let _g = crate::span!("noop", iter = 1u64);
        }
        crate::event!("noop_event");
        let sink = Arc::new(CollectingSink::default());
        install(sink.clone());
        flush_thread();
        uninstall();
        assert!(
            sink.records().iter().all(|r| r.name != "noop"),
            "records made while disabled must not appear"
        );
    }

    #[test]
    fn spans_and_events_reach_the_sink_on_flush() {
        let _guard = SINK_LOCK.lock();
        let sink = Arc::new(CollectingSink::default());
        install(sink.clone());
        {
            let _g = crate::span!("unit_phase", iter = 7u64);
            std::hint::black_box(());
        }
        crate::event!("unit_mark", iter = 7u64);
        flush_thread();
        uninstall();
        let records = sink.records();
        let span = records
            .iter()
            .find(|r| r.name == "unit_phase")
            .expect("span recorded");
        assert!(!span.is_event);
        assert_eq!((span.attr_key, span.attr), ("iter", 7));
        let event = records
            .iter()
            .find(|r| r.name == "unit_mark")
            .expect("event recorded");
        assert!(event.is_event);
        assert_eq!(event.dur_ns, 0);
    }

    #[test]
    fn ring_drains_itself_when_full() {
        let _guard = SINK_LOCK.lock();
        let sink = Arc::new(CollectingSink::default());
        install(sink.clone());
        for i in 0..(RING_CAPACITY + 10) {
            crate::event!("ring_fill", iter = i as u64);
        }
        // The ring filled once, so at least RING_CAPACITY records have
        // already been delivered without an explicit flush.
        let delivered = sink
            .records()
            .iter()
            .filter(|r| r.name == "ring_fill")
            .count();
        assert!(delivered >= RING_CAPACITY, "delivered {delivered}");
        flush_thread();
        uninstall();
        let total = sink
            .records()
            .iter()
            .filter(|r| r.name == "ring_fill")
            .count();
        assert_eq!(total, RING_CAPACITY + 10);
    }

    #[test]
    fn json_line_round_trip_shape() {
        let r = SpanRecord {
            name: "assign",
            attr_key: "iter",
            attr: 3,
            start_ns: 10,
            dur_ns: 25,
            is_event: false,
            thread: 1,
        };
        let line = r.to_json_line();
        let v = serde_json::from_str(&line).expect("valid json");
        assert_eq!(v["span"].as_str(), Some("assign"));
        assert_eq!(v["attr"].as_u64(), Some(3));
        assert_eq!(v["dur_ns"].as_u64(), Some(25));
    }
}

//! Span sinks: where drained ring buffers deliver their records.
//!
//! The sink is the *cold* side of the tracing layer — it sees records in
//! ring-sized batches, never per-span. Three production sinks:
//!
//! * [`NoopSink`] — the explicit "enabled but discard" sink (useful for
//!   overhead measurement; the normal disabled state never reaches a
//!   sink at all).
//! * [`JsonlSink`] — accumulates one JSON object line per record, the
//!   format `picasso-cli trace` replays into a per-phase summary.
//! * [`AggregatingSink`] — folds spans into per-phase latency
//!   [`Histogram`]s (and events into counters) of a [`Registry`],
//!   allocation-free once a phase name has been seen.
//!
//! [`FanoutSink`] composes sinks; [`CollectingSink`] is a test helper.

use crate::metrics::{Counter, Histogram, Registry};
use crate::span::SpanRecord;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Receives batches of drained span records. Implementations must be
/// cheap relative to a ring drain and thread-safe (drains happen on the
/// recording thread).
pub trait TelemetrySink: Send + Sync {
    /// Consumes one drained ring batch. The default discards it, so a
    /// sink only implements what it consumes.
    fn record_spans(&self, spans: &[SpanRecord]) {
        let _ = spans;
    }
}

/// Discards everything (the "enabled, but nothing consumes it" sink) —
/// the trait's no-op default made nameable.
#[derive(Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// Accumulates records as JSONL text in memory; the caller writes the
/// drained text wherever it wants (the CLI writes a `--trace` file).
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Mutex<String>,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// The accumulated JSONL document so far.
    pub fn to_jsonl(&self) -> String {
        self.lines.lock().clone()
    }
}

impl TelemetrySink for JsonlSink {
    fn record_spans(&self, spans: &[SpanRecord]) {
        let mut lines = self.lines.lock();
        for s in spans {
            lines.push_str(&s.to_json_line());
            lines.push('\n');
        }
    }
}

/// Folds spans into per-phase duration histograms (`span_<name>_ns`)
/// and events into counters (`event_<name>_total`) of a [`Registry`].
///
/// Instrument handles are cached per `&'static str` name, so after one
/// warm batch per phase the fold path performs no allocation — the
/// property the enabled-sink memory pin in `tests/memory.rs` asserts.
pub struct AggregatingSink {
    registry: Arc<Registry>,
    span_cache: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    event_cache: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
}

impl AggregatingSink {
    /// A sink folding into `registry`.
    pub fn new(registry: Arc<Registry>) -> AggregatingSink {
        AggregatingSink {
            registry,
            span_cache: Mutex::new(BTreeMap::new()),
            event_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The registry this sink folds into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl TelemetrySink for AggregatingSink {
    fn record_spans(&self, spans: &[SpanRecord]) {
        let mut span_cache = self.span_cache.lock();
        let mut event_cache = self.event_cache.lock();
        for s in spans {
            if s.is_event {
                let counter = event_cache
                    .entry(s.name)
                    .or_insert_with(|| self.registry.counter(&format!("event_{}_total", s.name)));
                counter.inc();
            } else {
                let hist = span_cache
                    .entry(s.name)
                    .or_insert_with(|| self.registry.histogram(&format!("span_{}_ns", s.name)));
                hist.record(s.dur_ns);
            }
        }
    }
}

/// Delivers every batch to each inner sink in order (`--trace` and
/// `--metrics` together).
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// A fanout over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn record_spans(&self, spans: &[SpanRecord]) {
        for sink in &self.sinks {
            sink.record_spans(spans);
        }
    }
}

/// Test helper: keeps every record verbatim.
#[derive(Debug, Default)]
pub struct CollectingSink {
    records: Mutex<Vec<SpanRecord>>,
}

impl CollectingSink {
    /// Everything recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().clone()
    }
}

impl TelemetrySink for CollectingSink {
    fn record_spans(&self, spans: &[SpanRecord]) {
        self.records.lock().extend_from_slice(spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            attr_key: "iter",
            attr: 1,
            start_ns: 0,
            dur_ns,
            is_event: false,
            thread: 0,
        }
    }

    fn event(name: &'static str) -> SpanRecord {
        SpanRecord {
            is_event: true,
            dur_ns: 0,
            ..span(name, 0)
        }
    }

    #[test]
    fn jsonl_sink_accumulates_one_line_per_record() {
        let sink = JsonlSink::new();
        sink.record_spans(&[span("a", 5), event("b")]);
        let text = sink.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"span\":\"a\""));
        assert!(text.contains("\"event\":\"b\""));
    }

    #[test]
    fn aggregating_sink_folds_into_registry_instruments() {
        let registry = Arc::new(Registry::new());
        let sink = AggregatingSink::new(Arc::clone(&registry));
        sink.record_spans(&[
            span("assign", 100),
            span("assign", 300),
            event("degrade_backend"),
        ]);
        let h = registry.histogram("span_assign_ns");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400);
        assert_eq!(registry.counter("event_degrade_backend_total").get(), 1);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(CollectingSink::default());
        let b = Arc::new(CollectingSink::default());
        let fan = FanoutSink::new(vec![
            a.clone() as Arc<dyn TelemetrySink>,
            b.clone() as Arc<dyn TelemetrySink>,
        ]);
        fan.record_spans(&[span("x", 1)]);
        assert_eq!(a.records().len(), 1);
        assert_eq!(b.records().len(), 1);
    }
}

//! Trace replay: turning a JSONL span log (written by
//! [`JsonlSink`](crate::JsonlSink)) back into a per-phase flame-style
//! summary — the engine behind `picasso-cli trace <file>`.
//!
//! Spans nest (`conflict_build` contains `csr_assembly`, `packed_scan`
//! and `replica_pack`), so a phase's total time double-counts its
//! children. The replay derives each span's **self time** — its duration
//! minus the time its direct children cover — from per-thread interval
//! nesting over the `thread`, `start_ns` and `dur_ns` every record
//! carries, and the table's share column is self ÷ Σ self.

use crate::metrics::Histogram;
use serde_json::Value;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Aggregate of every span (or event) sharing one phase name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase name as recorded at the span site.
    pub name: String,
    /// Number of spans (or events) with this name.
    pub count: u64,
    /// Total nanoseconds across all spans; `0` for pure event rows.
    pub total_ns: u64,
    /// Self nanoseconds across all spans: each span's duration minus the
    /// time covered by its direct children on the same thread.
    pub self_ns: u64,
    /// Median span duration (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile span duration (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Whether the rows were point events rather than timed spans.
    pub is_event: bool,
}

/// One timed span of a replayed log: `[start, end)` on `thread`, and the
/// phase it belongs to.
struct Interval {
    thread: u64,
    start: u64,
    end: u64,
    phase: String,
}

/// Self time of each span in `spans` (same order): its duration minus
/// the part of it its direct children cover. A child is a span of the
/// same thread that starts inside the innermost still-open span; spans
/// are visited by start time (longer first on ties), so a guard-style
/// span tree is rebuilt exactly.
fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].thread, spans[i].start, Reverse(spans[i].end)));
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let span = &spans[i];
        while let Some(&top) = open.last() {
            if spans[top].thread == span.thread && span.start < spans[top].end {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let covered = span.end.min(spans[parent].end) - span.start;
            self_ns[parent] = self_ns[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    self_ns
}

/// Parses a JSONL span log and aggregates it per phase, sorted by self
/// time descending, then total time (events, which carry no duration,
/// sort last by count). Blank lines are skipped; a malformed line is an
/// error with its 1-based line number.
pub fn summarize_jsonl(text: &str) -> Result<Vec<PhaseSummary>, String> {
    struct Acc {
        hist: Histogram,
        self_ns: u64,
        is_event: bool,
    }
    let mut phases: BTreeMap<String, Acc> = BTreeMap::new();
    let mut spans: Vec<Interval> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let (name, is_event) = if let Some(name) = v["span"].as_str() {
            (name, false)
        } else if let Some(name) = v["event"].as_str() {
            (name, true)
        } else {
            return Err(format!("line {}: no \"span\" or \"event\" key", lineno + 1));
        };
        let dur_ns = v["dur_ns"].as_u64().unwrap_or(0);
        let acc = phases.entry(name.to_string()).or_insert_with(|| Acc {
            hist: Histogram::new(),
            self_ns: 0,
            is_event,
        });
        acc.hist.record(dur_ns);
        if !is_event {
            let start = v["start_ns"].as_u64().unwrap_or(0);
            spans.push(Interval {
                thread: v["thread"].as_u64().unwrap_or(0),
                start,
                end: start.saturating_add(dur_ns),
                phase: name.to_string(),
            });
        }
    }
    for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
        if let Some(acc) = phases.get_mut(&span.phase) {
            acc.self_ns += self_ns;
        }
    }
    let mut rows: Vec<PhaseSummary> = phases
        .into_iter()
        .map(|(name, acc)| PhaseSummary {
            name,
            count: acc.hist.count(),
            total_ns: acc.hist.sum(),
            self_ns: acc.self_ns,
            p50_ns: acc.hist.quantile(0.50).unwrap_or(0),
            p99_ns: acc.hist.quantile(0.99).unwrap_or(0),
            is_event: acc.is_event,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.self_ns, b.total_ns, b.count, a.name.as_str()).cmp(&(
            a.self_ns,
            a.total_ns,
            a.count,
            b.name.as_str(),
        ))
    });
    Ok(rows)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders phase summaries as a flame-style table: counts, totals, self
/// times, self-time share bars (self ÷ Σ self, so nested phases are not
/// counted twice), and p50/p99 per phase. Event rows show counts only.
pub fn render_table(rows: &[PhaseSummary]) -> String {
    let grand_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    const BAR_WIDTH: usize = 24;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>6}  {:>10}  {:>10}  flame\n",
        "phase", "count", "total", "self", "share", "p50", "p99"
    ));
    for r in rows {
        if r.is_event {
            out.push_str(&format!(
                "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>6}  {:>10}  {:>10}  (event)\n",
                r.name, r.count, "-", "-", "-", "-", "-"
            ));
            continue;
        }
        let share = if grand_self > 0 {
            r.self_ns as f64 / grand_self as f64
        } else {
            0.0
        };
        let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let bar: String = std::iter::repeat_n('#', filled)
            .chain(std::iter::repeat_n('.', BAR_WIDTH - filled))
            .collect();
        out.push_str(&format!(
            "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>5.1}%  {:>10}  {:>10}  {bar}\n",
            r.name,
            r.count,
            fmt_ns(r.total_ns),
            fmt_ns(r.self_ns),
            share * 100.0,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn jsonl_of(records: &[SpanRecord]) -> String {
        let mut s = String::new();
        for r in records {
            s.push_str(&r.to_json_line());
            s.push('\n');
        }
        s
    }

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            attr_key: "iter",
            attr: 0,
            start_ns,
            dur_ns,
            is_event: false,
            thread: 0,
        }
    }

    #[test]
    fn summarize_groups_and_sorts_by_self_time() {
        // Back-to-back siblings: self time equals total time.
        let text = jsonl_of(&[
            span("assign", 0, 100),
            span("conflict_build", 100, 5_000),
            span("assign", 5_100, 300),
            span("conflict_build", 5_400, 7_000),
            SpanRecord {
                is_event: true,
                ..span("degrade_scalar", 12_400, 0)
            },
        ]);
        let rows = summarize_jsonl(&text).unwrap();
        assert_eq!(rows[0].name, "conflict_build");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 12_000);
        assert_eq!(rows[0].self_ns, 12_000);
        assert_eq!(rows[1].name, "assign");
        assert_eq!(rows[1].total_ns, 400);
        let ev = rows.iter().find(|r| r.name == "degrade_scalar").unwrap();
        assert!(ev.is_event);
        assert_eq!(ev.count, 1);
    }

    #[test]
    fn summarize_rejects_malformed_lines_with_line_numbers() {
        let err = summarize_jsonl("{\"span\":\"a\",\"dur_ns\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = summarize_jsonl("{\"neither\":1}\n").unwrap_err();
        assert!(err.contains("no \"span\" or \"event\""), "{err}");
    }

    #[test]
    fn table_renders_shares_and_event_rows() {
        let text = jsonl_of(&[
            span("assign", 0, 750),
            span("color", 750, 250),
            SpanRecord {
                is_event: true,
                ..span("mark", 1_000, 0)
            },
        ]);
        let rows = summarize_jsonl(&text).unwrap();
        let table = render_table(&rows);
        assert!(table.contains("assign"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
        assert!(table.contains("(event)"), "{table}");
    }

    #[test]
    fn nested_spans_share_by_self_time() {
        // Thread 0: a 1000 ns build holding a 600 ns CSR assembly and a
        // 100 ns scan, then a 200 ns colour pass; thread 1 runs a 500 ns
        // build that overlaps thread 0's in time but nests nothing.
        let text = jsonl_of(&[
            span("csr_assembly", 150, 600),
            span("packed_scan", 800, 100),
            span("conflict_build", 100, 1_000),
            span("color", 1_100, 200),
            SpanRecord {
                thread: 1,
                ..span("conflict_build", 300, 500)
            },
        ]);
        let rows = summarize_jsonl(&text).unwrap();
        let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
        let build = row("conflict_build");
        assert_eq!(build.total_ns, 1_500);
        // Parent self = parent − children, on its own thread only.
        assert_eq!(build.self_ns, (1_000 - 600 - 100) + 500);
        assert_eq!(row("csr_assembly").self_ns, 600);
        assert_eq!(row("packed_scan").self_ns, 100);
        assert_eq!(row("color").self_ns, 200);
        assert_eq!(rows[0].name, "conflict_build", "sorted by self time");
        assert_eq!(rows[1].name, "csr_assembly");
        // Σ self is the wall time each thread spent inside spans.
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, 1_000 + 200 + 500);
        let table = render_table(&rows);
        let shares: Vec<f64> = table
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().find(|f| f.ends_with('%')))
            .map(|f| f.trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        // Each printed share is rounded to 0.1%.
        let share_sum: f64 = shares.iter().sum();
        let slack = 0.05 * shares.len() as f64 + 1e-9;
        assert!((share_sum - 100.0).abs() <= slack, "{share_sum}\n{table}");
        assert!(
            table.contains("35.3%"),
            "csr_assembly 600 of 1700:\n{table}"
        );
    }

    #[test]
    fn empty_log_is_an_empty_table() {
        let rows = summarize_jsonl("\n\n").unwrap();
        assert!(rows.is_empty());
        let table = render_table(&rows);
        assert!(table.starts_with("phase"));
    }
}

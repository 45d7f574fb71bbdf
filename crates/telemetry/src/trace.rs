//! Trace replay: turning a JSONL span log (written by
//! [`JsonlSink`](crate::JsonlSink)) back into a per-phase flame-style
//! summary — the engine behind `picasso-cli trace <file>`.

use crate::metrics::Histogram;
use serde_json::Value;
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
    /// Median span duration (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile span duration (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Whether the rows were point events rather than timed spans.
    pub is_event: bool,
}

/// Parses a JSONL span log and aggregates it per phase, sorted by total
/// time descending (events, which carry no duration, sort last by
/// count). Blank lines are skipped; a malformed line is an error with
/// its 1-based line number.
pub fn summarize_jsonl(text: &str) -> Result<Vec<PhaseSummary>, String> {
    struct Acc {
        hist: Histogram,
        is_event: bool,
    }
    let mut phases: BTreeMap<String, Acc> = BTreeMap::new();
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
            is_event,
        });
        acc.hist.record(dur_ns);
    }
    let mut rows: Vec<PhaseSummary> = phases
        .into_iter()
        .map(|(name, acc)| PhaseSummary {
            name,
            count: acc.hist.count(),
            total_ns: acc.hist.sum(),
            p50_ns: acc.hist.quantile(0.50).unwrap_or(0),
            p99_ns: acc.hist.quantile(0.99).unwrap_or(0),
            is_event: acc.is_event,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.total_ns, b.count, a.name.as_str()).cmp(&(a.total_ns, a.count, b.name.as_str()))
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

/// Renders phase summaries as a flame-style table: share-of-total bars,
/// counts, totals, and p50/p99 per phase. Event rows show counts only.
pub fn render_table(rows: &[PhaseSummary]) -> String {
    let grand_total: u64 = rows.iter().map(|r| r.total_ns).sum();
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    const BAR_WIDTH: usize = 24;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>10}  {:>6}  {:>10}  {:>10}  flame\n",
        "phase", "count", "total", "share", "p50", "p99"
    ));
    for r in rows {
        if r.is_event {
            out.push_str(&format!(
                "{:<name_width$}  {:>8}  {:>10}  {:>6}  {:>10}  {:>10}  (event)\n",
                r.name, r.count, "-", "-", "-", "-"
            ));
            continue;
        }
        let share = if grand_total > 0 {
            r.total_ns as f64 / grand_total as f64
        } else {
            0.0
        };
        let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let bar: String = std::iter::repeat_n('#', filled)
            .chain(std::iter::repeat_n('.', BAR_WIDTH - filled))
            .collect();
        out.push_str(&format!(
            "{:<name_width$}  {:>8}  {:>10}  {:>5.1}%  {:>10}  {:>10}  {bar}\n",
            r.name,
            r.count,
            fmt_ns(r.total_ns),
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

    fn span(name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            attr_key: "iter",
            attr: 0,
            start_ns: 0,
            dur_ns,
            is_event: false,
            thread: 0,
        }
    }

    #[test]
    fn summarize_groups_and_sorts_by_total_time() {
        let text = jsonl_of(&[
            span("assign", 100),
            span("conflict_build", 5_000),
            span("assign", 300),
            span("conflict_build", 7_000),
            SpanRecord {
                is_event: true,
                dur_ns: 0,
                ..span("degrade_scalar", 0)
            },
        ]);
        let rows = summarize_jsonl(&text).unwrap();
        assert_eq!(rows[0].name, "conflict_build");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 12_000);
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
            span("assign", 750),
            span("color", 250),
            SpanRecord {
                is_event: true,
                dur_ns: 0,
                ..span("mark", 0)
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
    fn empty_log_is_an_empty_table() {
        let rows = summarize_jsonl("\n\n").unwrap();
        assert!(rows.is_empty());
        let table = render_table(&rows);
        assert!(table.starts_with("phase"));
    }
}

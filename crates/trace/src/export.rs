//! Trace exporters: human-readable tree report, Chrome trace-event
//! JSON, and folded stacks for flamegraph tools.

use crate::{EventKind, SpanEvent, TraceSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Aggregate of all events sharing one `path`.
#[derive(Clone, Copy, Debug, Default)]
struct PathAgg {
    count: u64,
    total_ns: u64,
}

fn aggregate(events: &[SpanEvent]) -> BTreeMap<String, PathAgg> {
    let mut agg: BTreeMap<String, PathAgg> = BTreeMap::new();
    for e in events {
        let a = agg.entry(e.path.clone()).or_default();
        a.count += 1;
        a.total_ns += e.dur_ns;
    }
    agg
}

/// A duration in ns, rendered in the largest unit that keeps it ≥ 1.
pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Render the human-readable report: a span tree (count, total, mean
/// per path, indented by nesting depth), then counters, then
/// histograms.
pub fn render_report(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== majic trace report ==");

    let agg = aggregate(&snap.events);
    if agg.is_empty() {
        let _ = writeln!(out, "(no spans recorded)");
    } else {
        let _ = writeln!(out, "\nspans (per path):");
        // BTreeMap order visits parents before children ("a" < "a;b"),
        // and the `;` count is the depth.
        for (path, a) in &agg {
            let depth = path.matches(';').count();
            let leaf = path.rsplit(';').next().unwrap_or(path);
            let mean = a.total_ns / a.count.max(1);
            let _ = writeln!(
                out,
                "{:indent$}{leaf:<24} {:>7}×  total {:>12}  mean {:>12}",
                "",
                a.count,
                fmt_ns(a.total_ns),
                fmt_ns(mean),
                indent = depth * 2,
            );
        }
    }

    let live: Vec<_> = snap.counters.iter().filter(|c| c.value != 0).collect();
    if !live.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for c in live {
            let _ = writeln!(out, "  {:<32} {:>12}", c.name, c.value);
        }
    }

    let live: Vec<_> = snap.histograms.iter().filter(|h| h.count != 0).collect();
    if !live.is_empty() {
        let _ = writeln!(out, "\nhistograms:");
        for h in live {
            let _ = writeln!(
                out,
                "  {:<32} {:>7}×  mean {:>10.1}  p50 ≤ {:>6}  p99 ≤ {:>6}",
                h.name,
                h.count,
                h.mean(),
                h.quantile_bound(0.5),
                h.quantile_bound(0.99),
            );
        }
    }

    if snap.dropped > 0 {
        let _ = writeln!(
            out,
            "\n({} events dropped at the {}-event collector cap)",
            snap.dropped,
            crate::MAX_EVENTS
        );
    }
    out
}

pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_args(args: &[(&'static str, String)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape(k, out);
        out.push_str("\":\"");
        json_escape(v, out);
        out.push('"');
    }
    out.push('}');
}

/// Serialize the snapshot as Chrome trace-event JSON (the
/// `{"traceEvents": […]}` object format), loadable in `chrome://tracing`
/// and Perfetto. Spans become complete (`ph:"X"`) events, instants
/// become `ph:"i"` events, and each thread gets a `thread_name`
/// metadata record. Timestamps/durations are microseconds with
/// nanosecond precision kept in the fraction.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(snap.events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(s);
    };

    let mut threads: BTreeMap<u64, &str> = BTreeMap::new();
    for e in &snap.events {
        threads.entry(e.tid).or_insert(&e.thread_name);
    }
    for (tid, name) in &threads {
        let mut s = String::new();
        s.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(s, "{tid}");
        s.push_str(",\"args\":{\"name\":\"");
        json_escape(name, &mut s);
        s.push_str("\"}}");
        emit(&s, &mut out);
    }

    for e in &snap.events {
        let mut s = String::new();
        s.push_str("{\"name\":\"");
        json_escape(e.name, &mut s);
        let _ = write!(
            s,
            "\",\"cat\":\"majic\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
            e.tid,
            e.ts_ns as f64 / 1e3
        );
        match e.kind {
            EventKind::Span => {
                let _ = write!(s, ",\"ph\":\"X\",\"dur\":{:.3}", e.dur_ns as f64 / 1e3);
            }
            EventKind::Instant => s.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        s.push_str(",\"args\":");
        write_args(&e.args, &mut s);
        s.push('}');
        emit(&s, &mut out);
    }
    if snap.dropped > 0 {
        // A truncated trace must say so inside the trace itself, where
        // the person reading it in Perfetto will actually look.
        let last_ts = snap.events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\":\"dropped events\",\"cat\":\"majic\",\"ph\":\"i\",\"s\":\"g\",\
             \"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{\"dropped\":\"{}\",\
             \"note\":\"trace truncated at the {}-event collector cap\"}}}}",
            last_ts as f64 / 1e3,
            snap.dropped,
            crate::MAX_EVENTS
        );
        emit(&s, &mut out);
    }
    out.push_str("]}");
    out
}

/// Write the current snapshot as Chrome trace-event JSON to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(&crate::snapshot()))
}

/// Render folded stacks: one line per call path with its **self** time
/// in microseconds — the input format of `flamegraph.pl` and
/// `inferno-flamegraph`. Self time is a path's total minus the total of
/// its direct children (clamped at zero: children measured on other
/// threads, e.g. queue waits, may exceed the parent).
pub fn folded_stacks(snap: &TraceSnapshot) -> String {
    let agg = aggregate(
        &snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .cloned()
            .collect::<Vec<_>>(),
    );
    let mut children_total: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, a) in &agg {
        if let Some((parent, _)) = path.rsplit_once(';') {
            *children_total.entry(parent).or_default() += a.total_ns;
        }
    }
    let mut out = String::new();
    for (path, a) in &agg {
        let kids = children_total.get(path.as_str()).copied().unwrap_or(0);
        let self_us = a.total_ns.saturating_sub(kids) / 1_000;
        let _ = writeln!(out, "{path} {self_us}");
    }
    if snap.dropped > 0 {
        // Comment lines would break flamegraph tools, so the truncation
        // warning is a synthetic single-frame stack: it shows up in the
        // flamegraph as its own (zero-width) frame and survives
        // flamegraph.pl / inferno unmodified.
        let _ = writeln!(out, "[dropped-{}-events-at-cap] 0", snap.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(path: &str, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: "x",
            path: path.to_owned(),
            ts_ns: ts,
            dur_ns: dur,
            tid: 1,
            thread_name: Arc::from("main"),
            kind: EventKind::Span,
            args: vec![],
        }
    }

    #[test]
    fn folded_subtracts_children() {
        let snap = TraceSnapshot {
            events: vec![ev("a", 0, 10_000), ev("a;b", 1_000, 4_000)],
            ..TraceSnapshot::default()
        };
        let folded = folded_stacks(&snap);
        assert!(folded.contains("a 6\n"), "{folded}");
        assert!(folded.contains("a;b 4\n"), "{folded}");
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn chrome_trace_surfaces_dropped_events() {
        let snap = TraceSnapshot {
            events: vec![ev("a", 0, 1_000)],
            dropped: 7,
            ..TraceSnapshot::default()
        };
        let json = chrome_trace_json(&snap);
        assert!(json.contains("\"name\":\"dropped events\""), "{json}");
        assert!(json.contains("\"dropped\":\"7\""), "{json}");
        let clean = chrome_trace_json(&TraceSnapshot {
            events: vec![ev("a", 0, 1_000)],
            ..TraceSnapshot::default()
        });
        assert!(!clean.contains("dropped events"), "{clean}");
    }

    #[test]
    fn folded_stacks_surface_dropped_events() {
        let snap = TraceSnapshot {
            events: vec![ev("a", 0, 1_000)],
            dropped: 3,
            ..TraceSnapshot::default()
        };
        let folded = folded_stacks(&snap);
        assert!(folded.contains("[dropped-3-events-at-cap] 0\n"), "{folded}");
        // Every line must stay parseable as `stack count`.
        for line in folded.lines() {
            let (_, count) = line.rsplit_once(' ').expect("stack line");
            count.parse::<u64>().expect("numeric count");
        }
        let clean = folded_stacks(&TraceSnapshot {
            events: vec![ev("a", 0, 1_000)],
            ..TraceSnapshot::default()
        });
        assert!(!clean.contains("dropped"), "{clean}");
    }

    #[test]
    fn report_mentions_paths_and_counts() {
        let snap = TraceSnapshot {
            events: vec![ev("call", 0, 5_000), ev("call;infer", 0, 2_000)],
            ..TraceSnapshot::default()
        };
        let report = render_report(&snap);
        assert!(report.contains("call"));
        assert!(report.contains("infer"));
        assert!(report.contains("1×"));
    }
}

//! Exporters: human-readable summary table, the JSON metrics object
//! embedded in `results/BENCH_*` artifacts, and the Chrome `trace_event`
//! span export.
//!
//! The Chrome format is the JSON Object Format of the Trace Event
//! specification: `{"traceEvents": [...]}` where each span is a complete
//! event (`"ph": "X"` with `ts`/`dur` in microseconds) and each marker an
//! instant event (`"ph": "i"`). The output loads directly in
//! `chrome://tracing` and <https://ui.perfetto.dev>.

use crate::json::Json;
use crate::{FlowPhase, HistogramSnapshot, MetricsSnapshot, SpanRecord};
use std::fmt::Write as _;

/// Renders a fixed-width summary table of every counter, gauge, and
/// histogram.
#[must_use = "rendering has no side effects; print or write the returned text"]
pub fn summary(m: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !m.counters.is_empty() {
        let width = m
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(7);
        let _ = writeln!(out, "{:<width$} {:>14}", "counter", "value");
        for (name, value) in &m.counters {
            let _ = writeln!(out, "{name:<width$} {value:>14}");
        }
    }
    if !m.gauges.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let width = m
            .gauges
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(5);
        let _ = writeln!(out, "{:<width$} {:>14}", "gauge", "value");
        for (name, value) in &m.gauges {
            let _ = writeln!(out, "{name:<width$} {value:>14}");
        }
    }
    if !m.histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let width = m
            .histograms
            .iter()
            .map(|h| h.name.len())
            .max()
            .unwrap_or(0)
            .max(9);
        let _ = writeln!(
            out,
            "{:<width$} {:>10} {:>14} {:>12} {:>8} {:>10} {:>10}",
            "histogram", "count", "sum", "mean", "min", "p95", "max"
        );
        for h in &m.histograms {
            let _ = writeln!(
                out,
                "{:<width$} {:>10} {:>14} {:>12.1} {:>8} {:>10} {:>10}",
                h.name,
                h.count,
                h.sum,
                h.mean(),
                h.min,
                h.quantile(0.95),
                h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("type", "histogram".into()),
        ("name", h.name.clone().into()),
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("mean", h.mean().into()),
        ("min", h.min.into()),
        ("max", h.max.into()),
        ("p50", h.quantile(0.5).into()),
        ("p95", h.quantile(0.95).into()),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| Json::obj([("bucket", i.into()), ("count", (*c).into())]))
                    .collect(),
            ),
        ),
    ])
}

/// Renders the whole snapshot as one JSON object (for `results/BENCH_*`
/// artifacts that embed metrics next to their table data).
#[must_use = "serialization has no side effects; use the returned value"]
pub fn metrics_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), (*v).into()))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                m.gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::from(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(m.histograms.iter().map(histogram_json).collect()),
        ),
    ])
}

/// Renders spans as Chrome `trace_event` JSON (the object format, with a
/// `traceEvents` array of `"X"` complete and `"i"` instant events).
///
/// Span and parent ids travel in each event's `args`, and flow-tagged
/// spans additionally emit a flow event (`"s"`/`"t"`/`"f"` for
/// [`FlowPhase::Start`]/[`Step`](FlowPhase::Step)/[`End`](FlowPhase::End))
/// bound inside the span's time slice, so Perfetto draws arrows along the
/// causal chain.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len());
    for s in spans {
        let mut ev = vec![
            ("name", Json::from(s.name)),
            ("cat", Json::from(s.cat)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(s.tid)),
            ("ts", Json::from(s.start_us)),
        ];
        match s.dur_us {
            Some(dur) => {
                ev.push(("ph", "X".into()));
                ev.push(("dur", dur.into()));
            }
            None => {
                ev.push(("ph", "i".into()));
                ev.push(("s", "t".into()));
            }
        }
        if s.id != 0 {
            ev.push((
                "args",
                Json::obj([("span", s.id.into()), ("parent", s.parent.into())]),
            ));
        }
        events.push(Json::obj(ev));
        if s.flow == 0 {
            continue;
        }
        let Some(phase) = s.flow_phase else { continue };
        // Flow events bind to the slice enclosing their timestamp; the
        // midpoint keeps them inside even for zero-duration spans.
        let mut fl = vec![
            ("name", Json::from("flow")),
            ("cat", Json::from(s.cat)),
            ("id", Json::from(s.flow)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(s.tid)),
            ("ts", Json::from(s.start_us + s.dur_us.unwrap_or(0) / 2)),
        ];
        match phase {
            FlowPhase::Start => fl.push(("ph", "s".into())),
            FlowPhase::Step => fl.push(("ph", "t".into())),
            FlowPhase::End => {
                fl.push(("ph", "f".into()));
                // Bind the arrowhead to the enclosing slice.
                fl.push(("bp", "e".into()));
            }
        }
        events.push(Json::obj(fl));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = HistogramSnapshot {
            name: "h.latency".into(),
            count: 3,
            sum: 14,
            min: 2,
            max: 8,
            buckets: vec![0; crate::HISTOGRAM_BUCKETS],
        };
        h.buckets[2] = 1; // 2
        h.buckets[3] = 2; // 4 and 8? 8 is bucket 4; keep it synthetic
        MetricsSnapshot {
            counters: vec![("c.runs".into(), 7)],
            gauges: vec![("g.depth".into(), -3)],
            histograms: vec![h],
        }
    }

    #[test]
    fn summary_lists_everything() {
        let s = summary(&sample_snapshot());
        assert!(s.contains("c.runs"));
        assert!(s.contains('7'));
        assert!(s.contains("g.depth"));
        assert!(s.contains("-3"));
        assert!(s.contains("h.latency"));
    }

    fn record(name: &'static str, start_us: u64, dur_us: Option<u64>, id: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "test",
            tid: 1,
            start_us,
            dur_us,
            id,
            parent: 0,
            flow: 0,
            flow_phase: None,
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let mut child = record("phase", 10, Some(25), 2);
        child.parent = 1;
        let spans = vec![child, record("marker", 12, None, 3)];
        let text = chrome_trace(&spans);
        let v = Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(25.0));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("i"));
        for e in events {
            for key in ["name", "cat", "pid", "tid", "ts", "ph"] {
                assert!(e.get(key).is_some(), "missing {key}");
            }
        }
        let args = events[0].get("args").expect("span/parent args");
        assert_eq!(args.get("span").and_then(Json::as_f64), Some(2.0));
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn chrome_trace_emits_flow_events_inside_their_slices() {
        let mut start = record("enqueue", 0, Some(10), 1);
        start.flow = 42;
        start.flow_phase = Some(FlowPhase::Start);
        let mut step = record("execute", 20, Some(30), 2);
        step.flow = 42;
        step.flow_phase = Some(FlowPhase::Step);
        step.tid = 2;
        let mut end = record("consume", 60, Some(4), 3);
        end.flow = 42;
        end.flow_phase = Some(FlowPhase::End);
        let text = chrome_trace(&[start, step, end]);
        let v = Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        // Three slices plus one flow event each.
        assert_eq!(events.len(), 6);
        let flows: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("flow"))
            .collect();
        let phases: Vec<&str> = flows
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases, ["s", "t", "f"]);
        for f in &flows {
            assert_eq!(f.get("id").and_then(Json::as_f64), Some(42.0));
        }
        // The terminating event binds its arrowhead to the enclosing
        // slice, and every flow timestamp sits inside its span.
        assert_eq!(flows[2].get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(flows[0].get("ts").and_then(Json::as_f64), Some(5.0));
        assert_eq!(flows[1].get("ts").and_then(Json::as_f64), Some(35.0));
        assert_eq!(flows[2].get("ts").and_then(Json::as_f64), Some(62.0));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert!(summary(&MetricsSnapshot::default()).contains("no metrics"));
    }
}

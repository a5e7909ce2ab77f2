//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public API and kept in a per-thread in-memory buffer: name, start, end,
//! parent and the operation (run, diagnosis or snapshot) they belong to.
//! Recording is off unless [`set_enabled`] turned it on for the thread, so
//! untraced runs pay one thread-local flag check per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use stm_telemetry::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.session`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Operation id shared by all spans of one run, diagnosis or snapshot.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Closes its span when dropped; inert when recording was off.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` for operation `op`, nested under the
/// innermost open span of this thread.
pub fn span(name: &'static str, op: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[idx].end_ns = end;
            if r.open.last() == Some(&idx) {
                r.open.pop();
            }
        });
    }
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += own;
    }
    table
}

/// The layer table as JSON (ms).
pub fn layer_table_json(table: &BTreeMap<&'static str, LayerRow>) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, row)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::from(row.count)),
                        ("total_ms", Json::from(row.total_ns as f64 / 1e6)),
                        ("self_ms", Json::from(row.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

/// A Chrome trace (`chrome://tracing`, Perfetto) of the spans of the first
/// `max_ops` operation ids of every root span name, so the sample holds
/// complete span trees from each phase of the run.
pub fn chrome_trace(spans: &[Span], max_ops: u64, layers: Json) -> Json {
    let mut first_op: BTreeMap<&'static str, u64> = BTreeMap::new();
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        first_op.entry(s.name).or_insert(s.op);
    }
    let events = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            let root = &spans[root_of(*i)];
            s.op < first_op[root.name].saturating_add(max_ops)
        })
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("cat", Json::from("bench_perf")),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                (
                    "args",
                    Json::obj([
                        ("op", Json::from(s.op)),
                        ("span", Json::from(i)),
                        ("parent", s.parent.map(Json::from).unwrap_or(Json::Null)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
        ("layers", layers),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) has children [10,30) and [50,90); the second has a
        // grandchild [60,70) that must not be subtracted from root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let table = layer_table(&spans);
        assert_eq!(
            table["root"],
            LayerRow {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 60, Some(0)),
            span("a", 90, 120, Some(0)),
        ];
        // covered: [10,60) + [90,100) = 60
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(layer_table(&spans)["a"].count, 3);
    }

    #[test]
    fn guards_nest_and_share_the_op_id() {
        set_enabled(true);
        {
            let _outer = super::span("outer", 7);
            let _inner = super::span("inner", 7);
        }
        set_enabled(false);
        let _ignored = super::span("off", 8);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}

//! Critical-path attribution over the diagnosis pipeline's span DAG.
//!
//! A [`DiagnosisSession::collect`] leaves a well-shaped trace in the
//! telemetry collector: one `engine.collect` root, and `engine.enqueue` →
//! `engine.job` → `engine.consume` chains tied per job by flow ids, each
//! `engine.job` on the thread that claimed and ran it — a pool worker or
//! the calling thread, which runs jobs beside its workers. [`CriticalPathReport`]
//! walks that DAG and tiles the root's wall-clock **exactly** — every
//! microsecond between session start and end lands in exactly one
//! labeled [`PathSegment`] — so phase durations always sum to the
//! session duration and nothing hides in unattributed gaps.
//!
//! The walk is a monotone sweep along the caller's timeline. Each
//! ordered consumption closes one job; the gap in front of it is carved
//! up by that job's own flow chain (enqueue span, execution span) into
//! *setup/coordinator* (before the enqueue), *enqueue*, *queue wait*
//! (enqueued but not yet executing), *job execution*, and *result
//! hold-back* (executed but parked awaiting in-order consumption —
//! speculation cost). The enqueue span is the job's claim and the claim
//! starts the job, so queue wait is near 0 unless the claiming thread
//! was descheduled in between. Whatever follows the last consumption is
//! *finalize*. Sequential sessions have no consume spans; their
//! `engine.job` spans chain directly with *coordinator* gaps.
//!
//! Because the segments are wall-clock intervals, the report is a
//! measurement of this machine on this run — unlike the guest profile it
//! is *not* byte-stable across runs, and the determinism pin in
//! `tests/engine_determinism.rs` deliberately excludes it.
//!
//! [`DiagnosisSession::collect`]: ../stm_core/engine/struct.DiagnosisSession.html

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use stm_telemetry::json::Json;
use stm_telemetry::SpanRecord;

/// One labeled interval of the tiled session timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Interval start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Interval end (exclusive).
    pub end_us: u64,
    /// Phase label (`"job execution"`, `"queue wait"`, ...).
    pub label: &'static str,
    /// What the interval was attributed to (`"flow 17"`, `""` for
    /// session-level phases).
    pub detail: String,
}

impl PathSegment {
    /// Interval length in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Critical-path attribution of one `engine.collect` session.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// Session wall-clock, microseconds.
    pub wall_us: u64,
    /// Threads that ran the session's jobs, the calling thread included
    /// (1 for a sequential session).
    pub workers: usize,
    /// `engine.job` executions inside the session window.
    pub jobs: usize,
    /// Total microseconds workers spent executing jobs.
    pub busy_us: u64,
    /// `busy / (workers × wall)`, in percent — how much of the fleet's
    /// available time did useful job work.
    pub parallel_efficiency_pct: f64,
    /// The exact tiling of `[session start, session end]`, in time order.
    pub segments: Vec<PathSegment>,
}

/// Span view the sweep works over: `(start, end, flow)`.
type Iv = (u64, u64, u64);

fn interval(s: &SpanRecord) -> Option<Iv> {
    s.dur_us.map(|d| (s.start_us, s.start_us + d, s.flow))
}

impl CriticalPathReport {
    /// Attributes the **last** completed `engine.collect` session found in
    /// `spans`. Returns `None` when there is none (telemetry off, or the
    /// buffer was drained before the session ended).
    pub fn analyze(spans: &[SpanRecord]) -> Option<CriticalPathReport> {
        let root = spans
            .iter()
            .filter(|s| s.name == "engine.collect" && s.dur_us.is_some())
            .max_by_key(|s| (s.start_us, s.id))?;
        let (w_start, w_end, _) = interval(root)?;
        let inside = |iv: &Iv| iv.0 < w_end && iv.1 > w_start;

        let mut consumes: Vec<Iv> = vec![];
        let mut jobs: Vec<Iv> = vec![];
        let mut enqueues: BTreeMap<u64, Iv> = BTreeMap::new();
        // The threads that ran the session's jobs: the caller's thread
        // and the pool workers that claimed any.
        let mut job_threads = BTreeSet::new();
        for s in spans {
            let Some(iv) = interval(s) else { continue };
            match s.name {
                "engine.consume" if inside(&iv) => consumes.push(iv),
                "engine.job" if inside(&iv) => {
                    jobs.push(iv);
                    job_threads.insert(s.tid);
                }
                "engine.enqueue" if iv.2 != 0 => {
                    enqueues.insert(iv.2, iv);
                }
                _ => {}
            }
        }
        consumes.sort_unstable();
        jobs.sort_unstable();
        let job_by_flow: BTreeMap<u64, Iv> = jobs
            .iter()
            .filter(|j| j.2 != 0)
            .map(|j| (j.2, *j))
            .collect();

        let busy_us: u64 = jobs.iter().map(|(s, e, _)| e - s).sum();
        let workers = job_threads.len().max(1);
        let wall_us = w_end - w_start;
        let parallel_efficiency_pct = if wall_us == 0 {
            0.0
        } else {
            100.0 * busy_us as f64 / (workers as f64 * wall_us as f64)
        };

        // The monotone sweep: `push` clips every proposed interval to the
        // un-tiled remainder, so the segments partition the window no
        // matter how the underlying spans overlap.
        let mut cursor = w_start;
        let mut segments: Vec<PathSegment> = vec![];
        let mut push = |cursor: &mut u64, until: u64, label: &'static str, detail: &str| {
            let s = *cursor;
            let e = until.clamp(s, w_end);
            if e > s {
                segments.push(PathSegment {
                    start_us: s,
                    end_us: e,
                    label,
                    detail: detail.to_string(),
                });
                *cursor = e;
            }
        };

        if consumes.is_empty() {
            // Sequential session: chain the job spans directly.
            for (i, (js, je, _)) in jobs.iter().enumerate() {
                let lead = if i == 0 { "setup" } else { "coordinator" };
                push(&mut cursor, *js, lead, "");
                push(&mut cursor, *je, "job execution", &format!("job {i}"));
            }
            push(&mut cursor, w_end, "finalize", "");
        } else {
            for (i, (cs, ce, flow)) in consumes.iter().enumerate() {
                let detail = format!("flow {flow}");
                let lead = if i == 0 { "setup" } else { "coordinator" };
                match (enqueues.get(flow), job_by_flow.get(flow)) {
                    (enq, Some((js, je, _))) => {
                        if let Some((es, ee, _)) = enq {
                            push(&mut cursor, *es, lead, "");
                            push(&mut cursor, *ee, "enqueue", &detail);
                            push(&mut cursor, *js, "queue wait", &detail);
                        } else {
                            push(&mut cursor, *js, lead, "");
                        }
                        push(&mut cursor, *je, "job execution", &detail);
                        push(&mut cursor, *cs, "result hold-back", &detail);
                    }
                    // Orphan consume (its job ran before the window, or
                    // flows were off): the gap is coordinator time.
                    _ => push(&mut cursor, *cs, lead, ""),
                }
                push(&mut cursor, *ce, "ordered consumption", &detail);
            }
            push(&mut cursor, w_end, "finalize", "");
        }

        Some(CriticalPathReport {
            wall_us,
            workers,
            jobs: jobs.len(),
            busy_us,
            parallel_efficiency_pct,
            segments,
        })
    }

    /// Total attributed microseconds per label.
    #[must_use = "the computed table is the result; use it"]
    pub fn by_label(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for s in &self.segments {
            *m.entry(s.label).or_insert(0) += s.dur_us();
        }
        m
    }

    /// Attributed time as a percentage of the session wall-clock. 100 by
    /// construction (the sweep tiles the window exactly); anything else
    /// is a bug.
    pub fn coverage_pct(&self) -> f64 {
        if self.wall_us == 0 {
            return 100.0;
        }
        let covered: u64 = self.segments.iter().map(PathSegment::dur_us).sum();
        100.0 * covered as f64 / self.wall_us as f64
    }

    /// The `k` longest segments — the edges of the span DAG that
    /// dominated the session (ties break to the earlier segment).
    #[must_use = "the computed table is the result; use it"]
    pub fn top_edges(&self, k: usize) -> Vec<PathSegment> {
        let mut edges = self.segments.clone();
        edges.sort_by(|a, b| {
            b.dur_us()
                .cmp(&a.dur_us())
                .then_with(|| a.start_us.cmp(&b.start_us))
        });
        edges.truncate(k);
        edges
    }

    /// Renders the report as markdown: summary line, per-phase table,
    /// top-k edges.
    #[must_use = "rendering has no side effects; print or write the returned text"]
    pub fn render_md(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall {} us · {} jobs on {} thread(s) · busy {} us · parallel efficiency {:.1}% · coverage {:.1}%\n",
            self.wall_us,
            self.jobs,
            self.workers,
            self.busy_us,
            self.parallel_efficiency_pct,
            self.coverage_pct()
        );
        out.push_str("## Phase attribution\n\n| phase | us | % of wall |\n|---|---|---|\n");
        let mut rows: Vec<(&str, u64)> = self.by_label().into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (label, us) in rows {
            let pct = 100.0 * us as f64 / self.wall_us.max(1) as f64;
            let _ = writeln!(out, "| {label} | {us} | {pct:.1} |");
        }
        out.push_str(
            "\n## Longest edges\n\n| phase | detail | start us | dur us |\n|---|---|---|---|\n",
        );
        for e in self.top_edges(k) {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                e.label,
                if e.detail.is_empty() { "-" } else { &e.detail },
                e.start_us - self.segments.first().map_or(0, |s| s.start_us),
                e.dur_us()
            );
        }
        out
    }

    /// Serializes the report as one JSON object.
    #[must_use = "serialization has no side effects; use the returned value"]
    pub fn to_json(&self) -> Json {
        let by_label: std::collections::BTreeMap<String, Json> = self
            .by_label()
            .into_iter()
            .map(|(l, us)| (l.to_string(), Json::from(us)))
            .collect();
        let segments = self
            .segments
            .iter()
            .map(|s| {
                Json::obj([
                    ("label", s.label.into()),
                    ("detail", s.detail.clone().into()),
                    ("start_us", s.start_us.into()),
                    ("dur_us", s.dur_us().into()),
                ])
            })
            .collect();
        Json::obj([
            ("wall_us", self.wall_us.into()),
            ("workers", self.workers.into()),
            ("jobs", self.jobs.into()),
            ("busy_us", self.busy_us.into()),
            (
                "parallel_efficiency_pct",
                self.parallel_efficiency_pct.into(),
            ),
            ("coverage_pct", self.coverage_pct().into()),
            ("phases", Json::Obj(by_label)),
            ("segments", Json::Arr(segments)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, flow: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "engine",
            tid,
            start_us: start,
            dur_us: Some(end - start),
            id: start + 1,
            parent: 0,
            flow,
            flow_phase: None,
        }
    }

    #[test]
    fn parallel_session_tiles_exactly() {
        let spans = vec![
            span("engine.collect", 0, 100, 0, 1),
            span("engine.enqueue", 1, 2, 1, 1),
            span("engine.enqueue", 2, 3, 2, 1),
            span("engine.job", 3, 40, 1, 2),
            span("engine.job", 4, 60, 2, 3),
            span("engine.consume", 41, 45, 1, 1),
            span("engine.consume", 61, 70, 2, 1),
        ];
        let r = CriticalPathReport::analyze(&spans).expect("collect span present");
        assert_eq!(r.wall_us, 100);
        assert_eq!(r.workers, 2, "jobs ran on threads 2 and 3");
        assert_eq!(r.jobs, 2);
        assert_eq!(r.busy_us, 37 + 56);
        assert!((r.coverage_pct() - 100.0).abs() < 1e-9);
        assert!((r.parallel_efficiency_pct - 46.5).abs() < 1e-9);
        // The sweep must tile the window with no gaps or overlaps.
        assert_eq!(r.segments.first().unwrap().start_us, 0);
        assert_eq!(r.segments.last().unwrap().end_us, 100);
        for w in r.segments.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us);
        }
        let phases = r.by_label();
        assert_eq!(phases["setup"], 1);
        assert_eq!(phases["enqueue"], 1);
        assert_eq!(phases["queue wait"], 1);
        // Flow 1 executes [3,40]; flow 2's remainder [45,60] also counts.
        assert_eq!(phases["job execution"], 37 + 15);
        assert_eq!(phases["result hold-back"], 1 + 1);
        assert_eq!(phases["ordered consumption"], 4 + 9);
        assert_eq!(phases["finalize"], 30);
        let top = r.top_edges(2);
        assert_eq!(top[0].label, "job execution");
        assert_eq!(top[0].dur_us(), 37);
        assert_eq!(top[1].label, "finalize");
        let md = r.render_md(3);
        assert!(md.contains("parallel efficiency 46.5%"));
        assert!(md.contains("| job execution | 52 |"));
        let json = r.to_json().encode();
        assert!(json.contains("\"coverage_pct\":100"));
    }

    #[test]
    fn sequential_session_chains_job_spans() {
        let spans = vec![
            span("engine.collect", 0, 50, 0, 1),
            span("engine.job", 5, 20, 0, 1),
            span("engine.job", 22, 40, 0, 1),
        ];
        let r = CriticalPathReport::analyze(&spans).expect("collect span present");
        assert_eq!(r.workers, 1);
        assert!((r.coverage_pct() - 100.0).abs() < 1e-9);
        assert!((r.parallel_efficiency_pct - 66.0).abs() < 1e-9);
        let phases = r.by_label();
        assert_eq!(phases["setup"], 5);
        assert_eq!(phases["job execution"], 33);
        assert_eq!(phases["coordinator"], 2);
        assert_eq!(phases["finalize"], 10);
    }

    #[test]
    fn analyze_picks_the_last_session_and_handles_absence() {
        assert!(CriticalPathReport::analyze(&[]).is_none());
        let only_open = vec![SpanRecord {
            dur_us: None,
            ..span("engine.collect", 0, 0, 0, 1)
        }];
        assert!(CriticalPathReport::analyze(&only_open).is_none());
        let spans = vec![
            span("engine.collect", 0, 10, 0, 1),
            span("engine.job", 2, 8, 0, 7),
            span("engine.collect", 20, 30, 0, 1),
            span("engine.job", 21, 29, 0, 1),
        ];
        let r = CriticalPathReport::analyze(&spans).unwrap();
        assert_eq!(r.wall_us, 10);
        assert_eq!(r.jobs, 1);
        assert_eq!(r.workers, 1, "thread 7 ran only the earlier session");
    }
}

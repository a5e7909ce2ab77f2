//! The failure flight recorder: everything one failed run left behind,
//! decoded and bundled into a single shippable artifact.
//!
//! A [`FailureDossier`] is assembled at diagnosis time from a
//! [`RunReport`]: the failure symptom and site, the LBR ring decoded to
//! source branches, the LCR ring decoded to MESI state transitions, the
//! log calls the run executed, and the per-thread last-instruction
//! context (which instruction each thread was about to retire, and why it
//! was not running, when the run ended). It renders as strict JSON —
//! round-trippable through [`stm_telemetry::json::Json::parse`] — and as
//! developer-facing markdown.

use stm_core::logging::{failure_log, failure_log_for, FailureLog};
use stm_core::runner::{FailureSpec, Runner, Workload};
use stm_machine::events::{AccessKind, CoherenceState};
use stm_machine::ir::{LogKind, Program};
use stm_machine::layout::Decoded;
use stm_machine::report::{RunOutcome, RunReport};
use stm_telemetry::json::Json;

/// A MESI state transition implied by one LCR record: the state the access
/// observed, the state the line ends in, and what that means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MesiTransition {
    /// The transition, e.g. `"S -> M"`.
    pub transition: &'static str,
    /// What the transition tells the developer.
    pub meaning: &'static str,
}

/// Decodes the MESI transition implied by an access observing a state.
///
/// The LCR records the state a line was in *right before* the access
/// updated it (Table 2); combined with the access kind, that pins down
/// the transition the coherence protocol performed.
pub fn mesi_transition(access: AccessKind, observed: CoherenceState) -> MesiTransition {
    let (transition, meaning) = match (access, observed) {
        (AccessKind::Load, CoherenceState::Invalid) => (
            "I -> S/E",
            "load miss: the line was absent or had been invalidated by a remote write",
        ),
        (AccessKind::Load, CoherenceState::Shared) => (
            "S -> S",
            "load hit a line concurrently cached by another core",
        ),
        (AccessKind::Load, CoherenceState::Exclusive) => {
            ("E -> E", "load hit a clean line exclusive to this core")
        }
        (AccessKind::Load, CoherenceState::Modified) => {
            ("M -> M", "load hit a line this core had modified")
        }
        (AccessKind::Store, CoherenceState::Invalid) => (
            "I -> M",
            "store miss: ownership was fetched, invalidating any remote copies",
        ),
        (AccessKind::Store, CoherenceState::Shared) => (
            "S -> M",
            "store upgraded a shared line, invalidating the other cached copies",
        ),
        (AccessKind::Store, CoherenceState::Exclusive) => {
            ("E -> M", "store dirtied a clean exclusive line")
        }
        (AccessKind::Store, CoherenceState::Modified) => {
            ("M -> M", "store hit a line already modified locally")
        }
    };
    MesiTransition {
        transition,
        meaning,
    }
}

/// One decoded LBR ring entry of the dossier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbrLine {
    /// Ring position, 1 = most recent.
    pub position: usize,
    /// Raw `from` address.
    pub from: u64,
    /// Raw `to` address.
    pub to: u64,
    /// Source-level description ("branch b3 at sort.c:12 taken TRUE").
    pub desc: String,
}

/// One decoded LCR ring entry of the dossier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcrLine {
    /// Ring position, 1 = most recent.
    pub position: usize,
    /// Program counter of the access.
    pub pc: u64,
    /// `"load"` or `"store"`.
    pub access: String,
    /// Observed MESI state letter.
    pub state: String,
    /// The implied state transition, e.g. `"S -> M"`.
    pub transition: String,
    /// What the transition means.
    pub meaning: String,
    /// Rendered source location of the access.
    pub loc: String,
}

/// One executed logging call of the dossier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// The static site index.
    pub site: usize,
    /// `"error"`, `"warning"` or `"info"`.
    pub kind: String,
    /// Executing thread.
    pub thread: u32,
    /// Global step at which the call retired.
    pub step: u64,
    /// Rendered source location of the site.
    pub loc: String,
    /// The site's static message.
    pub message: String,
}

/// One thread's last-instruction context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadLine {
    /// The thread.
    pub thread: u32,
    /// Final scheduling state ("done", "blocked on lock 0x40", ...).
    pub status: String,
    /// Function of the last (or next pending) instruction.
    pub func: String,
    /// Rendered source location of that instruction.
    pub loc: String,
    /// Its program counter.
    pub pc: u64,
    /// Global step at which the thread last retired an instruction.
    pub last_step: u64,
}

/// The failure site, when the run ended in a fail-stop failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSite {
    /// The failure kind, rendered ("segmentation fault at 0x40").
    pub kind: String,
    /// The failure thread.
    pub thread: u32,
    /// Function of the failing statement.
    pub func: String,
    /// Rendered source location of the failing statement.
    pub loc: String,
    /// Program counter of the failing statement.
    pub pc: u64,
}

/// The failure flight recorder artifact: one failed run, fully decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDossier {
    /// Program name.
    pub program: String,
    /// The workload that produced the failure.
    pub inputs: Vec<i64>,
    /// Its scheduler seed.
    pub seed: u64,
    /// Human-readable failure symptom (the enhanced log's headline).
    pub symptom: String,
    /// The failure site, when the run failed fail-stop (`None` for runs
    /// whose symptom is an error log followed by a clean exit).
    pub failure: Option<FailureSite>,
    /// Decoded LBR ring, most recent first.
    pub lbr: Vec<LbrLine>,
    /// Decoded LCR ring, most recent first.
    pub lcr: Vec<LcrLine>,
    /// Log calls the run executed, in order.
    pub logs: Vec<LogLine>,
    /// Per-thread last-instruction context, in spawn order.
    pub threads: Vec<ThreadLine>,
    /// Total interpreter steps retired.
    pub steps: u64,
    /// Total branches retired.
    pub branches_retired: u64,
    /// Total data accesses retired.
    pub accesses_retired: u64,
}

fn log_kind_str(kind: LogKind) -> &'static str {
    match kind {
        LogKind::Error => "error",
        LogKind::Warning => "warning",
        LogKind::Info => "info",
    }
}

fn describe_lbr(program: &Program, decoded: Option<Decoded>) -> String {
    match decoded {
        Some(Decoded::SourceBranch {
            branch,
            outcome,
            loc,
            ..
        }) => format!(
            "branch {branch} at {} taken {}",
            program.render_loc(loc),
            if outcome { "TRUE" } else { "FALSE" }
        ),
        Some(Decoded::PlainJump { loc, .. }) => format!("jump at {}", program.render_loc(loc)),
        Some(Decoded::Call { loc, .. }) => format!("call at {}", program.render_loc(loc)),
        Some(Decoded::Return { loc, .. }) => format!("return at {}", program.render_loc(loc)),
        None => "<unmapped>".to_string(),
    }
}

impl FailureDossier {
    /// Assembles the dossier from one failed run.
    ///
    /// When `spec` is given, the rings are taken strictly from the
    /// profile matching that failure specification
    /// ([`failure_log_for`]); otherwise any failure-site profile is used.
    /// Returns `None` when the run collected no failure-site profile
    /// (e.g. it did not fail).
    pub fn collect(
        runner: &Runner,
        report: &RunReport,
        workload: &Workload,
        spec: Option<&FailureSpec>,
    ) -> Option<FailureDossier> {
        let log = match spec {
            Some(spec) => failure_log_for(runner, report, spec)?,
            None => failure_log(runner, report)?,
        };
        Some(FailureDossier::from_parts(runner, report, workload, &log))
    }

    /// Assembles the dossier from an already-built enhanced failure log.
    pub fn from_parts(
        runner: &Runner,
        report: &RunReport,
        workload: &Workload,
        log: &FailureLog,
    ) -> FailureDossier {
        let program = runner.machine().program();
        let failure = match &report.outcome {
            RunOutcome::Failed(f) => Some(FailureSite {
                kind: f.kind.to_string(),
                thread: f.thread.0,
                func: program.function(f.func).name.clone(),
                loc: program.render_loc(f.loc),
                pc: f.pc,
            }),
            RunOutcome::Completed { .. } => None,
        };
        let lbr = log
            .lbr
            .iter()
            .map(|e| LbrLine {
                position: e.position,
                from: e.record.from,
                to: e.record.to,
                desc: describe_lbr(program, e.decoded),
            })
            .collect();
        let lcr = log
            .lcr
            .iter()
            .map(|e| {
                let t = mesi_transition(e.event.access, e.event.state);
                LcrLine {
                    position: e.position,
                    pc: e.record.pc,
                    access: e.event.access.to_string(),
                    state: e.event.state.to_string(),
                    transition: t.transition.to_string(),
                    meaning: t.meaning.to_string(),
                    loc: program.render_loc(e.event.loc),
                }
            })
            .collect();
        let logs = report
            .logs
            .iter()
            .map(|l| {
                let info = &program.log_sites[l.site.index()];
                LogLine {
                    site: l.site.index(),
                    kind: log_kind_str(l.kind).to_string(),
                    thread: l.thread.0,
                    step: l.step,
                    loc: program.render_loc(info.loc),
                    message: info.message.clone(),
                }
            })
            .collect();
        let threads = report
            .thread_states
            .iter()
            .map(|t| ThreadLine {
                thread: t.thread.0,
                status: t.status.to_string(),
                func: program.function(t.func).name.clone(),
                loc: program.render_loc(t.loc),
                pc: t.pc,
                last_step: t.last_step,
            })
            .collect();
        FailureDossier {
            program: program.name.clone(),
            inputs: workload.inputs.clone(),
            seed: workload.seed,
            symptom: log.symptom.clone(),
            failure,
            lbr,
            lcr,
            logs,
            threads,
            steps: report.steps,
            branches_retired: report.branches_retired,
            accesses_retired: report.accesses_retired,
        }
    }

    /// Serializes the dossier as a strict-JSON value.
    #[must_use = "serialization has no side effects; use the returned value"]
    pub fn to_json(&self) -> Json {
        let failure = match &self.failure {
            Some(f) => Json::obj([
                ("kind", Json::Str(f.kind.clone())),
                ("thread", Json::from(f.thread as u64)),
                ("func", Json::Str(f.func.clone())),
                ("loc", Json::Str(f.loc.clone())),
                ("pc", Json::from(f.pc)),
            ]),
            None => Json::Null,
        };
        let lbr = self
            .lbr
            .iter()
            .map(|e| {
                Json::obj([
                    ("position", Json::from(e.position)),
                    ("from", Json::from(e.from)),
                    ("to", Json::from(e.to)),
                    ("desc", Json::Str(e.desc.clone())),
                ])
            })
            .collect();
        let lcr = self
            .lcr
            .iter()
            .map(|e| {
                Json::obj([
                    ("position", Json::from(e.position)),
                    ("pc", Json::from(e.pc)),
                    ("access", Json::Str(e.access.clone())),
                    ("state", Json::Str(e.state.clone())),
                    ("transition", Json::Str(e.transition.clone())),
                    ("meaning", Json::Str(e.meaning.clone())),
                    ("loc", Json::Str(e.loc.clone())),
                ])
            })
            .collect();
        let logs = self
            .logs
            .iter()
            .map(|l| {
                Json::obj([
                    ("site", Json::from(l.site)),
                    ("kind", Json::Str(l.kind.clone())),
                    ("thread", Json::from(l.thread as u64)),
                    ("step", Json::from(l.step)),
                    ("loc", Json::Str(l.loc.clone())),
                    ("message", Json::Str(l.message.clone())),
                ])
            })
            .collect();
        let threads = self
            .threads
            .iter()
            .map(|t| {
                Json::obj([
                    ("thread", Json::from(t.thread as u64)),
                    ("status", Json::Str(t.status.clone())),
                    ("func", Json::Str(t.func.clone())),
                    ("loc", Json::Str(t.loc.clone())),
                    ("pc", Json::from(t.pc)),
                    ("last_step", Json::from(t.last_step)),
                ])
            })
            .collect();
        Json::obj([
            ("program", Json::Str(self.program.clone())),
            (
                "workload",
                Json::obj([
                    (
                        "inputs",
                        Json::Arr(self.inputs.iter().map(|i| Json::Num(*i as f64)).collect()),
                    ),
                    ("seed", Json::from(self.seed)),
                ]),
            ),
            ("symptom", Json::Str(self.symptom.clone())),
            ("failure", failure),
            ("lbr", Json::Arr(lbr)),
            ("lcr", Json::Arr(lcr)),
            ("logs", Json::Arr(logs)),
            ("threads", Json::Arr(threads)),
            (
                "totals",
                Json::obj([
                    ("steps", Json::from(self.steps)),
                    ("branches_retired", Json::from(self.branches_retired)),
                    ("accesses_retired", Json::from(self.accesses_retired)),
                ]),
            ),
        ])
    }

    /// Renders the dossier as developer-facing markdown.
    #[must_use = "rendering has no side effects; use the returned text"]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Failure dossier — `{}`", self.program);
        let _ = writeln!(out);
        let _ = writeln!(out, "**Symptom:** {}", self.symptom);
        let _ = writeln!(
            out,
            "**Workload:** inputs `{:?}`, scheduler seed {}",
            self.inputs, self.seed
        );
        if let Some(f) = &self.failure {
            let _ = writeln!(
                out,
                "**Failing instruction:** {} in `{}` at {} (pc {:#x}, thread {})",
                f.kind, f.func, f.loc, f.pc, f.thread
            );
        }
        let _ = writeln!(
            out,
            "**Run totals:** {} steps, {} branches retired, {} accesses retired",
            self.steps, self.branches_retired, self.accesses_retired
        );
        if !self.lbr.is_empty() {
            let _ = writeln!(out, "\n### LBR ring (most recent first)\n");
            let _ = writeln!(out, "| # | from | to | decoded |");
            let _ = writeln!(out, "|---|------|----|---------|");
            for e in &self.lbr {
                let _ = writeln!(
                    out,
                    "| {} | {:#010x} | {:#010x} | {} |",
                    e.position, e.from, e.to, e.desc
                );
            }
        }
        if !self.lcr.is_empty() {
            let _ = writeln!(out, "\n### LCR ring (most recent first)\n");
            let _ = writeln!(out, "| # | pc | access | MESI transition | at | meaning |");
            let _ = writeln!(out, "|---|----|--------|-----------------|----|---------|");
            for e in &self.lcr {
                let _ = writeln!(
                    out,
                    "| {} | {:#010x} | {} | {} | {} | {} |",
                    e.position, e.pc, e.access, e.transition, e.loc, e.meaning
                );
            }
        }
        if !self.logs.is_empty() {
            let _ = writeln!(out, "\n### Log events\n");
            for l in &self.logs {
                let _ = writeln!(
                    out,
                    "- step {}: [{}] `{}` at {} (thread {})",
                    l.step, l.kind, l.message, l.loc, l.thread
                );
            }
        }
        if !self.threads.is_empty() {
            let _ = writeln!(out, "\n### Threads at end of run\n");
            let _ = writeln!(out, "| thread | status | last instruction | last step |");
            let _ = writeln!(out, "|--------|--------|------------------|-----------|");
            for t in &self.threads {
                let _ = writeln!(
                    out,
                    "| {} | {} | `{}` at {} (pc {:#x}) | {} |",
                    t.thread, t.status, t.func, t.loc, t.pc, t.last_step
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::transform::InstrumentOptions;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    fn failing_runner() -> (Runner, stm_machine::ids::LogSiteId) {
        let mut pb = ProgramBuilder::new("dossier-demo");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let c = f.bin(BinOp::Lt, x, 0);
            f.at(9);
            f.br(c, err, ok);
            f.set_block(err);
            f.at(10);
            site = f.log_error("boom");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        (Runner::instrumented(&p, &InstrumentOptions::lbrlog()), site)
    }

    #[test]
    fn collect_builds_a_dossier_for_a_failing_run() {
        let (runner, site) = failing_runner();
        let w = Workload::new(vec![-3]);
        let report = runner.run(&w);
        let spec = FailureSpec::ErrorLogAt(site);
        let d = FailureDossier::collect(&runner, &report, &w, Some(&spec)).unwrap();
        assert_eq!(d.program, "dossier-demo");
        assert!(!d.lbr.is_empty());
        assert_eq!(d.logs.len(), 1);
        assert_eq!(d.logs[0].message, "boom");
        assert_eq!(d.threads.len(), 1);
        // `exit(1)` ends the run before main returns, so the flight
        // recorder sees the thread still runnable at its exit call.
        assert_eq!(d.threads[0].status, "runnable");
        assert!(d.threads[0].last_step > 0);
    }

    #[test]
    fn successful_run_yields_no_dossier() {
        let (runner, _) = failing_runner();
        let w = Workload::new(vec![5]);
        let report = runner.run(&w);
        assert!(FailureDossier::collect(&runner, &report, &w, None).is_none());
    }

    #[test]
    fn json_round_trips_through_the_strict_parser() {
        let (runner, _) = failing_runner();
        let w = Workload::new(vec![-1]);
        let report = runner.run(&w);
        let d = FailureDossier::collect(&runner, &report, &w, None).unwrap();
        let text = d.to_json().encode();
        let back = Json::parse(&text).expect("strict parse");
        assert_eq!(back, d.to_json());
        assert_eq!(
            back.get("program").and_then(Json::as_str),
            Some("dossier-demo")
        );
        assert!(back.get("lbr").and_then(Json::as_array).is_some());
    }

    #[test]
    fn markdown_mentions_ring_and_threads() {
        let (runner, _) = failing_runner();
        let w = Workload::new(vec![-1]);
        let report = runner.run(&w);
        let d = FailureDossier::collect(&runner, &report, &w, None).unwrap();
        let md = d.to_markdown();
        assert!(md.contains("### LBR ring"), "{md}");
        assert!(md.contains("### Threads at end of run"), "{md}");
        assert!(md.contains("boom"), "{md}");
    }

    #[test]
    fn mesi_transitions_cover_all_combinations() {
        use AccessKind::*;
        use CoherenceState::*;
        assert_eq!(mesi_transition(Store, Shared).transition, "S -> M");
        assert_eq!(mesi_transition(Load, Invalid).transition, "I -> S/E");
        assert_eq!(mesi_transition(Store, Invalid).transition, "I -> M");
        for access in [Load, Store] {
            for state in [Invalid, Shared, Exclusive, Modified] {
                let t = mesi_transition(access, state);
                assert!(!t.meaning.is_empty());
                assert!(t.transition.contains("->"));
            }
        }
    }
}

//! What the two control workloads share: timing one `control_cycle`, and
//! replaying the isolated layer calls of that cycle as child spans.

use crate::load;
use crate::trace::Span;
use bskel_core::AutonomicManager;
use bskel_monitor::{Journal, SensorSnapshot};
use bskel_rules::stdlib::{farm_params, farm_rules_with_ft, params};
use bskel_rules::{OpCall, ParamTable, RuleEngine, WorkingMemory};
use std::time::Instant;

/// Throughput contract of the control workloads' farm managers, task/s.
pub const CONTRACT_FLOOR: f64 = 1_500.0;
/// Upper end of the contract: never reached, so nothing is removed.
pub const CONTRACT_CEIL: f64 = 1e6;

/// Replays, on a traced cycle's own snapshot, the calls a control cycle
/// is made of — `to_beans`, `WorkingMemory::from_beans`, one rule-engine
/// cycle over the farm + fault-tolerance program, one journal append —
/// and records each as a child span of that cycle. The replays run after
/// the cycle, on a private engine and journal, so they cost the traced
/// phase time but never change what the manager decides.
pub struct Replayer {
    engine: RuleEngine,
    params: ParamTable,
    journal: Journal,
}

impl Replayer {
    /// A replayer for a farm manager with fault-tolerance floor
    /// `ft_floor` and at most `max_workers` workers.
    pub fn new(ft_floor: u32, max_workers: u32) -> Self {
        Self {
            engine: RuleEngine::new(farm_rules_with_ft()),
            params: farm_params(CONTRACT_FLOOR, CONTRACT_CEIL, 1, max_workers, 4.0)
                .with(params::FT_MIN_WORKERS, f64::from(ft_floor)),
            journal: Journal::new(1024),
        }
    }

    /// Child spans of cycle `trace` for `snap`, appended to `spans`.
    pub fn replay(
        &mut self,
        t0: Instant,
        trace: u64,
        snap: &SensorSnapshot,
        spans: &mut Vec<Span>,
    ) {
        let mut child = |name: &'static str, start_ns: u64| {
            spans.push(Span {
                trace,
                name,
                parent: Some("control_cycle"),
                start_ns,
                end_ns: load::now_ns(t0),
            });
        };
        let t = load::now_ns(t0);
        let beans = std::hint::black_box(snap.to_beans());
        child("to_beans", t);
        let t = load::now_ns(t0);
        let wm = std::hint::black_box(WorkingMemory::from_beans(beans));
        child("wm_build", t);
        let t = load::now_ns(t0);
        // A program that evaluates is a precondition of both workloads;
        // an evaluation error would already have failed the manager.
        let _ = std::hint::black_box(self.engine.cycle(&wm, &self.params));
        child("rules_cycle", t);
        let t = load::now_ns(t0);
        self.journal.snapshot(snap.at, "replay", snap);
        child("journal_snapshot", t);
    }
}

/// Runs one control cycle at manager time `at`, returning its decisions
/// and how long it took, ns.
pub fn timed_cycle(manager: &mut AutonomicManager, at: f64) -> (Vec<OpCall>, u64) {
    let t = Instant::now();
    let ops = manager.control_cycle(at);
    (ops, t.elapsed().as_nanos() as u64)
}

/// A root span for a traced control cycle.
pub fn cycle_span(trace: u64, start_ns: u64, dur_ns: u64) -> Span {
    Span {
        trace,
        name: "control_cycle",
        parent: None,
        start_ns,
        end_ns: start_ns + dur_ns,
    }
}

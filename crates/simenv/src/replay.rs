//! Counterexample replay: run a model-checker trace through the
//! *production* autonomic manager over the deterministic DES kernel.
//!
//! `bskel_rules::mc` proves properties of an abstracted transition
//! system; a property failure is only as credible as the abstraction.
//! This module closes the loop: a [`Counterexample`]'s bean valuations
//! become scripted sensor snapshots, the same rule program and parameter
//! table drive a real [`AutonomicManager`] (the byte-for-byte production
//! analyse/plan/execute path), cycles are scheduled on the
//! [`EventQueue`], and the operations the manager actually fires are
//! compared step-for-step against the firings the checker predicted. A
//! trace that replays faithfully *and* keeps the contract-violation
//! condition true is a real defect of the rule program, not an artifact.
//!
//! Hierarchy beans (`violNotEnough` / `violTooMuch` / `endStream`) are
//! not sensors: single-program traces script them as mailbox pushes (the
//! protocol a real child would use), while composed traces let the real
//! child manager's `RAISE_VIOLATION` reach the parent through its actual
//! mailbox — the coupling the checker modelled is exercised for real.

use crate::des::EventQueue;
use bskel_core::abc::{Abc, AbcError, ActuationOutcome, ManagerOp};
use bskel_core::contract::Contract;
use bskel_core::events::EventLog;
use bskel_core::manager::{
    AutonomicManager, ManagerConfig, ManagerKind, RuleCheck, ViolationKind, ViolationReport,
};
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::analysis::BeanSchema;
use bskel_rules::mc::Counterexample;
use bskel_rules::stdlib::hier_beans;
use bskel_rules::{Condition, OpCall, ParamTable, RuleSet, WorkingMemory};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// What a [`ScriptedAbc`] was ordered to do, and when.
type ActuationLog = Arc<Mutex<Vec<(Time, ManagerOp)>>>;

/// An ABC that replays a fixed script of sensor snapshots.
///
/// Every [`Abc::sense`] pops the next snapshot (sticking on the last one
/// once the script runs out), and every actuation is recorded — the
/// plant is played back, not simulated, so the manager's *decisions*
/// are isolated from its *effects*. By default actuations report
/// applied; [`ScriptedAbc::with_outcomes`] scripts the plant's actual
/// responses instead (journal replay feeds the recorded ones back, so a
/// live `NoOp`/`Refused` reproduces exactly).
pub struct ScriptedAbc {
    script: VecDeque<SensorSnapshot>,
    last: SensorSnapshot,
    schema: BeanSchema,
    actuations: ActuationLog,
    outcomes: VecDeque<Result<ActuationOutcome, AbcError>>,
}

impl ScriptedAbc {
    /// Builds a scripted ABC over the given snapshots.
    pub fn new(script: Vec<SensorSnapshot>) -> Self {
        Self {
            script: script.into(),
            last: SensorSnapshot::empty(0.0),
            schema: crate::abc_impl::sim_bean_schema(),
            actuations: Arc::new(Mutex::new(Vec::new())),
            outcomes: VecDeque::new(),
        }
    }

    /// Scripts the plant's actuation responses, consumed in order; once
    /// exhausted (or when never set) actuations report applied.
    pub fn with_outcomes(mut self, outcomes: Vec<Result<ActuationOutcome, AbcError>>) -> Self {
        self.outcomes = outcomes.into();
        self
    }

    /// Shared handle to the recorded actuations (usable after the ABC has
    /// been boxed into a manager).
    pub fn actuation_log(&self) -> Arc<Mutex<Vec<(Time, ManagerOp)>>> {
        Arc::clone(&self.actuations)
    }
}

impl Abc for ScriptedAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        if let Some(mut s) = self.script.pop_front() {
            s.at = now;
            self.last = s;
        }
        let mut s = self.last.clone();
        s.at = now;
        s
    }

    fn bean_schema(&self) -> BeanSchema {
        self.schema.clone()
    }

    fn actuate(&mut self, op: &ManagerOp, now: Time) -> Result<ActuationOutcome, AbcError> {
        self.actuations
            .lock()
            .expect("actuation log lock")
            .push((now, op.clone()));
        self.outcomes
            .pop_front()
            .unwrap_or(Ok(ActuationOutcome::Applied))
    }
}

/// Builds a [`SensorSnapshot`] from a model-checker bean valuation.
///
/// Standard beans map onto their typed snapshot fields; hierarchy beans
/// and hidden model variables (`__`-prefixed) are not sensors and are
/// skipped; anything else (e.g. the simulator-only `speedGainRatio`)
/// rides along as an extra bean.
pub fn snapshot_from_beans(at: Time, beans: &BTreeMap<String, f64>) -> SensorSnapshot {
    let mut s = SensorSnapshot::empty(at);
    for (name, &v) in beans {
        let not_a_sensor = matches!(
            name.as_str(),
            hier_beans::VIOL_NOT_ENOUGH | hier_beans::VIOL_TOO_MUCH | hier_beans::END_STREAM
        ) || name.starts_with("__");
        if !not_a_sensor && !s.set_bean(name, v) {
            s.extra.push((name.clone(), v));
        }
    }
    s
}

/// One rule program participating in a replay, in the same order the
/// checker composed them (child first for composed counterexamples).
pub struct ReplayProgram {
    /// Program label, matching the labels in the counterexample firings.
    pub label: String,
    /// Manager kind (selects the production op→actuator binding).
    pub kind: ManagerKind,
    /// The rule program, byte-for-byte what the checker analysed.
    pub rules: RuleSet,
    /// The bound parameter table the checker used.
    pub params: ParamTable,
}

/// A step where the production manager fired different operations than
/// the checker predicted.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMismatch {
    /// Trace step index (0-based).
    pub step: usize,
    /// Which manager diverged.
    pub manager: String,
    /// Operations the counterexample predicted.
    pub expected: Vec<OpCall>,
    /// Operations the production manager fired.
    pub got: Vec<OpCall>,
}

/// Outcome of replaying a counterexample.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Steps replayed.
    pub steps: usize,
    /// Divergences between predicted and actual firings (empty = the
    /// trace is mechanically faithful).
    pub mismatches: Vec<ReplayMismatch>,
    /// Per step, whether the contract-violation condition held on the
    /// replayed beans (empty when no violation condition was supplied).
    pub violating_steps: Vec<bool>,
}

impl ReplayReport {
    /// Whether every step fired exactly the operations the checker
    /// predicted.
    pub fn faithful(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Whether the trace reproduces a recovery violation: every replayed
    /// step remains contract-violating (vacuously false without a
    /// violation condition).
    pub fn violation_reproduced(&self) -> bool {
        !self.violating_steps.is_empty() && self.violating_steps.iter().all(|&v| v)
    }
}

/// Replays a counterexample through production managers on the DES.
///
/// `programs` must be in checker order (the child program first for
/// composed counterexamples — composed replays wire the child's real
/// mailbox to the parent instead of scripting the coupling flags).
/// `violation` is the spec's contract-violation condition, evaluated on
/// each step's beans to confirm the reported violation is reproduced.
pub fn replay_counterexample(
    cex: &Counterexample,
    programs: &[ReplayProgram],
    violation: Option<&Condition>,
) -> ReplayReport {
    assert!(!programs.is_empty(), "replay needs at least one program");
    let coupled = programs.len() > 1;
    let log = EventLog::new();
    let script: Vec<SensorSnapshot> = cex
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| snapshot_from_beans(i as f64, &step.beans))
        .collect();

    // Build managers parent-last so the child can be wired to the
    // parent's real mailbox, then run them child-first each step.
    let mut managers: Vec<AutonomicManager> = Vec::new();
    for p in programs.iter().rev() {
        let mut cfg = match p.kind {
            ManagerKind::Farm => ManagerConfig::farm(&p.label),
            ManagerKind::Pipeline => ManagerConfig::pipeline(&p.label),
            ManagerKind::Producer => ManagerConfig::producer(&p.label),
            ManagerKind::Sequential => ManagerConfig::sequential(&p.label),
            ManagerKind::Tenant => ManagerConfig::tenant(&p.label),
        };
        // The checker's exact parameter binding, merged over any
        // contract-derived defaults; linting already happened upstream.
        cfg.rule_check = RuleCheck::Off;
        cfg.extra_params = p.params.iter().map(|(n, v)| (n.to_string(), v)).collect();
        let abc = ScriptedAbc::new(script.clone());
        let mut m = AutonomicManager::new(cfg, Box::new(abc), log.clone());
        if coupled && managers.len() == programs.len() - 1 {
            // This is the child (built last): report into the parent.
            m = m.with_parent(managers[0].mailbox());
        }
        m = m.with_rules(p.rules.clone());
        managers.push(m);
    }
    managers.reverse(); // child first, as the checker steps them

    let mut mismatches = Vec::new();
    let mut violating_steps = Vec::new();
    let mut queue: EventQueue<usize> = EventQueue::new();
    for i in 0..cex.steps.len() {
        queue.schedule(i as f64, i);
    }
    while let Some((t, i)) = queue.pop() {
        let step = &cex.steps[i];
        // Script the hierarchy beans the state carries. Coupling flags
        // are scripted only when the producing child is *outside* the
        // replay; end-of-stream is an environment fact either way.
        for m in &managers {
            if step.beans.get(hier_beans::END_STREAM) == Some(&1.0) {
                m.mailbox().push(ViolationReport {
                    from: "env".into(),
                    kind: ViolationKind::EndOfStream,
                    at: t,
                });
            }
            if !coupled {
                if step.beans.get(hier_beans::VIOL_NOT_ENOUGH) == Some(&1.0) {
                    m.mailbox().push(ViolationReport {
                        from: "child".into(),
                        kind: ViolationKind::NotEnoughTasks,
                        at: t,
                    });
                }
                if step.beans.get(hier_beans::VIOL_TOO_MUCH) == Some(&1.0) {
                    m.mailbox().push(ViolationReport {
                        from: "child".into(),
                        kind: ViolationKind::TooMuchTasks,
                        at: t,
                    });
                }
            }
        }
        for (m, p) in managers.iter_mut().zip(programs) {
            let got = m.control_cycle(t);
            let expected: Vec<OpCall> = step
                .firings
                .iter()
                .filter(|(label, _)| *label == p.label)
                .flat_map(|(_, f)| f.ops.iter().cloned())
                .collect();
            if got != expected {
                mismatches.push(ReplayMismatch {
                    step: i,
                    manager: p.label.clone(),
                    expected,
                    got,
                });
            }
        }
        if let Some(v) = violation {
            let wm = WorkingMemory::from_beans(step.beans.iter().map(|(n, &x)| (n.clone(), x)));
            let holds = v
                .eval(&wm, &ParamTable::new())
                .expect("violation condition over trace beans");
            violating_steps.push(holds);
        }
    }

    ReplayReport {
        steps: cex.steps.len(),
        mismatches,
        violating_steps,
    }
}

// -- journal replay ---------------------------------------------------
//
// The counterexample path above replays what a *checker* predicted; the
// journal path replays what a *production run* actually did. An ops
// journal (bskel_monitor::journal) recorded from a live system carries,
// per control cycle, the exact snapshot the manager sensed and the
// events it emitted. Feeding the snapshots back through a ScriptedAbc
// into a freshly built production manager must reproduce the recorded
// event sequence bit-for-bit — the manager's analyse/plan/execute path
// is a pure function of (config, rules, contract, snapshot stream).
// Replay determinism therefore does NOT require the recording run to
// have been deterministic: a wall-clock threaded chaos soak records
// nondeterministic *inputs*, and the replay check asserts the recorded
// *decisions* follow from them.

/// One manager participating in a journal replay: the exact
/// configuration and rule program the recording run used, plus the
/// contract it had adopted (if any).
pub struct JournalReplayProgram {
    /// The recording manager's configuration (`cfg.name` selects which
    /// journal entries belong to this manager). `rule_check` is forced
    /// off during replay — lint diagnostics are not plant events.
    pub cfg: ManagerConfig,
    /// The rule program the recording manager ran.
    pub rules: RuleSet,
    /// The contract posted to the recording manager, if any.
    pub contract: Option<Contract>,
}

/// One event in replay-comparison form.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedEvent {
    /// Event time.
    pub at: Time,
    /// Event-line label.
    pub kind: String,
    /// Optional detail.
    pub detail: Option<String>,
}

/// A position where the replayed event stream, or the replayed sequence
/// of ordered operations, diverged from the recorded one (`None` = one
/// side ran out).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplayMismatch {
    /// Which manager diverged.
    pub manager: String,
    /// Index into that manager's event sequence, or into its ordered
    /// operations when the mismatched entries are `actuation`s.
    pub index: usize,
    /// The recorded event.
    pub expected: Option<ReplayedEvent>,
    /// The replayed event.
    pub got: Option<ReplayedEvent>,
}

/// Outcome of a journal replay.
#[derive(Debug, Clone)]
pub struct JournalReplayReport {
    /// Snapshots fed back through the managers.
    pub snapshots: usize,
    /// Recorded events compared against.
    pub events: usize,
    /// Divergences (empty = the journal replays identically).
    pub mismatches: Vec<JournalReplayMismatch>,
}

impl JournalReplayReport {
    /// Whether the replay reproduced the recorded event sequence
    /// event-for-event.
    pub fn identical(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Rule-hygiene diagnostics (`rulelint:*`, `rulemc*`) are emitted at
/// construction/adoption time, not by the control loop acting on the
/// plant, so they are excluded from replay comparison on both sides
/// (the replay manager runs with linting off).
fn replayable_kind(kind: &str) -> bool {
    !(kind.starts_with("rulelint") || kind.starts_with("rulemc"))
}

/// An ordered operation in replay-comparison form: kind `actuation`, the
/// operation's journal form as detail.
fn ordered_op(at: Time, op: String) -> ReplayedEvent {
    ReplayedEvent {
        at,
        kind: "actuation".to_owned(),
        detail: Some(op),
    }
}

/// Decodes a journaled actuation outcome (`applied`, `noop`,
/// `refused:<reason>`, `error:<message>`) back into the plant response
/// the recording manager observed. Unknown tags (a newer recorder)
/// degrade to applied rather than failing the whole replay.
fn parse_outcome(s: &str) -> Result<ActuationOutcome, AbcError> {
    if let Some(reason) = s.strip_prefix("refused:") {
        Ok(ActuationOutcome::Refused {
            reason: reason.to_owned(),
        })
    } else if let Some(msg) = s.strip_prefix("error:") {
        Err(AbcError(msg.to_owned()))
    } else if s == "noop" {
        Ok(ActuationOutcome::NoOp)
    } else {
        Ok(ActuationOutcome::Applied)
    }
}

/// Replays a recorded ops journal through freshly built production
/// managers and compares the emitted events against the recorded ones.
///
/// For each program, the journal's `Snapshot` entries with that
/// manager's name become the sensor script (replayed at their recorded
/// times, interleaved across managers in global time order), its
/// `Actuation` entries script the plant's responses and name the
/// operations the replay must order, and its `Manager` entries are the
/// expected events. Farm/substrate entries and notes are context, not
/// compared.
pub fn replay_journal(
    records: &[bskel_monitor::JournalRecord],
    programs: Vec<JournalReplayProgram>,
) -> JournalReplayReport {
    use bskel_monitor::JournalEntry;
    assert!(!programs.is_empty(), "replay needs at least one program");
    let log = EventLog::new();
    let mut managers: Vec<AutonomicManager> = Vec::new();
    let mut scripts: Vec<Vec<(Time, SensorSnapshot)>> = Vec::new();
    let mut expected: Vec<Vec<ReplayedEvent>> = Vec::new();
    let mut ordered: Vec<(Vec<ReplayedEvent>, ActuationLog)> = Vec::new();
    for p in programs.iter() {
        let name = p.cfg.name.clone();
        let script: Vec<(Time, SensorSnapshot)> = records
            .iter()
            .filter_map(|r| match &r.entry {
                JournalEntry::Snapshot { at, source, beans } if *source == name => {
                    let map: BTreeMap<String, f64> =
                        beans.iter().map(|(n, v)| (n.to_string(), *v)).collect();
                    Some((*at, snapshot_from_beans(*at, &map)))
                }
                _ => None,
            })
            .collect();
        expected.push(
            records
                .iter()
                .filter_map(|r| match &r.entry {
                    JournalEntry::Manager {
                        at,
                        manager,
                        kind,
                        detail,
                    } if *manager == name && replayable_kind(kind) => Some(ReplayedEvent {
                        at: *at,
                        kind: kind.clone(),
                        detail: detail.clone(),
                    }),
                    _ => None,
                })
                .collect(),
        );
        let (ops, outcomes): (Vec<ReplayedEvent>, Vec<_>) = records
            .iter()
            .filter_map(|r| match &r.entry {
                JournalEntry::Actuation {
                    at,
                    manager,
                    op,
                    outcome,
                    ..
                } if *manager == name => {
                    Some((ordered_op(*at, op.clone()), parse_outcome(outcome)))
                }
                _ => None,
            })
            .unzip();
        let mut cfg = p.cfg.clone();
        cfg.rule_check = RuleCheck::Off;
        let abc = ScriptedAbc::new(script.iter().map(|(_, s)| s.clone()).collect())
            .with_outcomes(outcomes);
        ordered.push((ops, abc.actuation_log()));
        let m = AutonomicManager::new(cfg, Box::new(abc), log.clone()).with_rules(p.rules.clone());
        if let Some(c) = &p.contract {
            m.contract_slot().post(c.clone());
        }
        managers.push(m);
        scripts.push(script);
    }

    // One global schedule: each manager cycles at exactly its recorded
    // snapshot times, interleaved across managers as they were live.
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut snapshots = 0usize;
    for (mi, script) in scripts.iter().enumerate() {
        for (at, _) in script {
            queue.schedule(*at, mi);
            snapshots += 1;
        }
    }
    while let Some((t, mi)) = queue.pop() {
        managers[mi].control_cycle(t);
    }

    let mut mismatches = Vec::new();
    let mut events = 0usize;
    for ((p, want), (want_ops, acted)) in programs.iter().zip(&expected).zip(&ordered) {
        let name = &p.cfg.name;
        events += want.len();
        let got: Vec<ReplayedEvent> = log
            .by_manager(name)
            .into_iter()
            .filter(|e| replayable_kind(e.kind.label()))
            .map(|e| ReplayedEvent {
                at: e.at,
                kind: e.kind.label().to_owned(),
                detail: e.detail,
            })
            .collect();
        let got_ops: Vec<ReplayedEvent> = acted
            .lock()
            .expect("actuation log lock")
            .iter()
            .map(|(at, op)| ordered_op(*at, op.to_string()))
            .collect();
        for (want, got) in [(want, got), (want_ops, got_ops)] {
            for i in 0..want.len().max(got.len()) {
                if want.get(i) != got.get(i) {
                    mismatches.push(JournalReplayMismatch {
                        manager: name.clone(),
                        index: i,
                        expected: want.get(i).cloned(),
                        got: got.get(i).cloned(),
                    });
                }
            }
        }
    }

    JournalReplayReport {
        snapshots,
        events,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_core::ControllerKind;
    use bskel_rules::mc::{throughput_violation, ModelChecker, Spec};
    use bskel_rules::stdlib;
    use bskel_rules::{Cmp, Expr};

    fn schema() -> BeanSchema {
        crate::abc_impl::sim_bean_schema()
    }

    fn farm_spec() -> Spec {
        Spec::default()
            .violation(throughput_violation(0.4, 0.8).unwrap())
            .invariant(Condition::cmp(
                Expr::Bean("departureRate".into()),
                Cmp::Le,
                Expr::Bean("arrivalRate".into()),
            ))
            .initial("numWorkers", 0.0, 16.0)
    }

    #[test]
    fn scripted_abc_replays_and_sticks() {
        let mut s0 = SensorSnapshot::empty(0.0);
        s0.arrival_rate = 1.0;
        let mut s1 = SensorSnapshot::empty(0.0);
        s1.arrival_rate = 2.0;
        let mut abc = ScriptedAbc::new(vec![s0, s1]);
        assert_eq!(abc.sense(0.0).arrival_rate, 1.0);
        assert_eq!(abc.sense(1.0).arrival_rate, 2.0);
        // Script exhausted: stick on the last snapshot.
        let s = abc.sense(2.0);
        assert_eq!(s.arrival_rate, 2.0);
        assert_eq!(s.at, 2.0);
    }

    #[test]
    fn snapshot_mapping_skips_hierarchy_and_hidden_beans() {
        let beans: BTreeMap<String, f64> = [
            ("arrivalRate".to_string(), 0.6),
            ("numWorkers".to_string(), 3.0),
            ("violNotEnough".to_string(), 1.0),
            ("__cap:departureRate".to_string(), 0.9),
            ("speedGainRatio".to_string(), 1.7),
        ]
        .into();
        let s = snapshot_from_beans(0.0, &beans);
        assert_eq!(s.arrival_rate, 0.6);
        assert_eq!(s.num_workers, 3);
        assert_eq!(s.bean("speedGainRatio"), Some(1.7));
        assert_eq!(s.bean("violNotEnough"), None);
        assert_eq!(s.bean("__cap:departureRate"), None);
    }

    #[test]
    fn broken_farm_counterexample_replays_in_production_manager() {
        // A farm program whose grow rule was "mutated" away entirely:
        // low throughput can never be repaired, so the checker finds a
        // recovery counterexample — which must replay step-for-step.
        let src = r#"
            rule "OnlyBalance" when queueVariance > $FARM_MAX_UNBALANCE
            then fireOperation(BALANCE_LOAD); end
        "#;
        let rules = bskel_rules::parse_rules(src).unwrap();
        let params = ParamTable::new().with("FARM_MAX_UNBALANCE", 4.0);
        let spec = farm_spec().recovery_k(4);
        let report = ModelChecker::new(schema())
            .check("farm", &rules, &params, &spec)
            .unwrap();
        let cex = report
            .recovery
            .as_ref()
            .unwrap()
            .counterexample()
            .expect("balance-only farm cannot recover");
        let replay = replay_counterexample(
            cex,
            &[ReplayProgram {
                label: "farm".into(),
                kind: ManagerKind::Farm,
                rules,
                params,
            }],
            spec.violation.as_ref(),
        );
        assert!(replay.faithful(), "{:?}", replay.mismatches);
        assert!(replay.violation_reproduced());
    }

    #[test]
    fn recorded_journal_replays_identically() {
        use bskel_monitor::Journal;
        // Record: a production farm manager driven by a scripted plant,
        // with a journal attached — snapshots and events both land in it.
        let journal = Journal::shared();
        let mut script = Vec::new();
        for i in 0..6 {
            let mut s = SensorSnapshot::empty(0.0);
            s.arrival_rate = 1.0;
            s.departure_rate = 0.2; // persistently below the floor
            s.service_time = 0.5;
            s.num_workers = 2 + i / 2;
            script.push(s);
        }
        let mut cfg = ManagerConfig::farm("AM_R");
        cfg.rule_check = RuleCheck::Off;
        let log = EventLog::new();
        log.attach_journal(std::sync::Arc::clone(&journal));
        let mut m = AutonomicManager::new(cfg.clone(), Box::new(ScriptedAbc::new(script)), log)
            .with_rules(bskel_rules::stdlib::farm_rules());
        m.contract_slot().post(Contract::throughput_range(0.4, 0.8));
        for i in 0..6 {
            m.control_cycle(i as f64 * 0.5);
        }
        let records = journal.entries();
        assert!(records
            .iter()
            .any(|r| matches!(r.entry, bskel_monitor::JournalEntry::Snapshot { .. })));

        // Replay through a fresh manager and through the JSONL round trip.
        let text = journal.to_jsonl();
        let parsed = bskel_monitor::journal::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
        let report = replay_journal(
            &parsed,
            vec![JournalReplayProgram {
                cfg,
                rules: bskel_rules::stdlib::farm_rules(),
                contract: Some(Contract::throughput_range(0.4, 0.8)),
            }],
        );
        assert_eq!(report.snapshots, 6);
        assert!(report.events > 0, "recording must have produced events");
        assert!(report.identical(), "{:#?}", report.mismatches);
    }

    #[test]
    fn aimd_controller_journal_replays_identically() {
        use bskel_core::ControllerKind;
        use bskel_monitor::Journal;
        // Record: an AIMD-controlled farm manager (no rule program in
        // the loop) under sustained pressure — departure below the
        // contract floor drives additive ceiling growth and a stream of
        // ADD_EXECUTOR/BALANCE_LOAD actuations.
        let journal = Journal::shared();
        let mut script = Vec::new();
        for i in 0..8 {
            let mut s = SensorSnapshot::empty(0.0);
            s.arrival_rate = 0.6; // inside the contract band
            s.departure_rate = 0.2; // persistently below the floor
            s.service_time = 0.5;
            s.num_workers = 2 + i / 2;
            script.push(s);
        }
        let mut cfg = ManagerConfig::farm("AM_AIMD");
        cfg.rule_check = RuleCheck::Off;
        cfg.controller = ControllerKind::Aimd;
        let log = EventLog::new();
        log.attach_journal(std::sync::Arc::clone(&journal));
        let mut m = AutonomicManager::new(cfg.clone(), Box::new(ScriptedAbc::new(script)), log);
        m.contract_slot().post(Contract::throughput_range(0.4, 0.8));
        for i in 0..8 {
            m.control_cycle(i as f64 * 0.5);
        }
        let records = journal.entries();
        // Every actuation must be attributed to the AIMD law, and the
        // journaled snapshots must carry its ceiling state bean.
        let mut actuations = 0;
        for r in &records {
            if let bskel_monitor::JournalEntry::Actuation { controller, .. } = &r.entry {
                actuations += 1;
                assert_eq!(controller, "aimd");
            }
        }
        assert!(actuations > 0, "AIMD under pressure must have actuated");
        assert!(records.iter().any(|r| matches!(
            &r.entry,
            bskel_monitor::JournalEntry::Snapshot { beans, .. }
                if beans.iter().any(|(n, v)| n == "aimdCeiling" && *v > 0.0)
        )));

        // Replay through a fresh AIMD manager and the JSONL round trip:
        // the controller's internal state (its ceiling) must evolve
        // identically from the journaled sensor script alone.
        let text = journal.to_jsonl();
        let parsed = bskel_monitor::journal::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
        let report = replay_journal(
            &parsed,
            vec![JournalReplayProgram {
                cfg,
                rules: stdlib::farm_rules(), // ignored: AIMD takes no rules
                contract: Some(Contract::throughput_range(0.4, 0.8)),
            }],
        );
        assert_eq!(report.snapshots, 8);
        assert!(report.events > 0, "recording must have produced events");
        assert!(report.identical(), "{:#?}", report.mismatches);
    }

    #[test]
    fn mass_loss_journal_replays_identically() {
        use bskel_monitor::{Journal, JournalEntry};
        // Record: three of four workers die under the FT floor; the
        // manager orders the whole deficit at once, then the blackout and
        // a healed plant follow.
        let journal = Journal::shared();
        let snap = |workers: u32, lost: u64, reconfiguring: bool| {
            let mut s = SensorSnapshot::empty(0.0);
            s.arrival_rate = 0.5;
            s.departure_rate = 0.5;
            s.num_workers = workers;
            s.workers_lost = lost;
            s.ft_min_workers = 4;
            s.reconfiguring = reconfiguring;
            s
        };
        let script = vec![
            snap(4, 0, false),
            snap(1, 3, false),
            snap(4, 3, true),
            snap(4, 3, false),
        ];
        let mut cfg = ManagerConfig::farm("AM_FT");
        cfg.rule_check = RuleCheck::Off;
        cfg.extra_params
            .push((stdlib::params::FT_MIN_WORKERS.to_owned(), 4.0));
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let mut m = AutonomicManager::new(cfg.clone(), Box::new(ScriptedAbc::new(script)), log)
            .with_rules(stdlib::farm_rules_with_ft());
        m.contract_slot().post(Contract::BestEffort);
        for i in 0..4 {
            m.control_cycle(i as f64 * 0.5);
        }
        let records = journal.entries();
        let adds: Vec<&str> = records
            .iter()
            .filter_map(|r| match &r.entry {
                JournalEntry::Actuation { op, .. } if op.starts_with("addWorkers") => {
                    Some(op.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(adds, ["addWorkers(3)"]);

        let parsed = bskel_monitor::journal::parse_jsonl(&journal.to_jsonl()).unwrap();
        assert_eq!(parsed, records);
        let report = replay_journal(
            &parsed,
            vec![JournalReplayProgram {
                cfg,
                rules: stdlib::farm_rules_with_ft(),
                contract: Some(Contract::BestEffort),
            }],
        );
        assert_eq!(report.snapshots, 4);
        assert!(report.identical(), "{:#?}", report.mismatches);
    }

    #[test]
    fn failed_actuation_journal_replays_identically() {
        use bskel_monitor::Journal;
        let journal = Journal::shared();
        let mut s = SensorSnapshot::empty(0.0);
        s.arrival_rate = 1.0;
        s.departure_rate = 0.2; // below the floor: the manager actuates
        s.num_workers = 2;
        let mut cfg = ManagerConfig::farm("AM_ERR");
        cfg.rule_check = RuleCheck::Off;
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let abc = ScriptedAbc::new(vec![s]).with_outcomes(vec![Err(AbcError("boom".into()))]);
        let mut m =
            AutonomicManager::new(cfg.clone(), Box::new(abc), log).with_rules(stdlib::farm_rules());
        m.contract_slot().post(Contract::throughput_range(0.4, 0.8));
        m.control_cycle(0.0);
        let records = journal.entries();
        assert!(records.iter().any(|r| matches!(
            &r.entry,
            bskel_monitor::JournalEntry::Manager { kind, .. } if kind.starts_with("abcError:")
        )));
        let report = replay_journal(
            &records,
            vec![JournalReplayProgram {
                cfg,
                rules: stdlib::farm_rules(),
                contract: Some(Contract::throughput_range(0.4, 0.8)),
            }],
        );
        assert!(report.identical(), "{:#?}", report.mismatches);
    }

    #[test]
    fn failed_balance_is_logged_as_an_abc_error_and_replays_identically() {
        use bskel_core::events::EventKind;
        use bskel_monitor::Journal;
        let journal = Journal::shared();
        let mut s = SensorSnapshot::empty(0.0);
        s.arrival_rate = 1.0;
        s.departure_rate = 0.2; // below the floor: grow, then rebalance
        s.num_workers = 2;
        let mut cfg = ManagerConfig::farm("AM_BAL");
        cfg.rule_check = RuleCheck::Off;
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let abc = ScriptedAbc::new(vec![s]).with_outcomes(vec![
            Ok(ActuationOutcome::Applied),
            Err(AbcError("boom".into())),
        ]);
        let acted = abc.actuation_log();
        let mut m = AutonomicManager::new(cfg.clone(), Box::new(abc), log.clone())
            .with_rules(stdlib::farm_rules());
        m.contract_slot().post(Contract::throughput_range(0.4, 0.8));
        m.control_cycle(0.0);
        assert_eq!(acted.lock().unwrap()[1].1, ManagerOp::BalanceLoad);
        let errors = log.of_kind(&EventKind::Other("abcError:ABC error: boom".into()));
        assert_eq!(errors.len(), 1, "{:?}", log.snapshot());
        let report = replay_journal(
            &journal.entries(),
            vec![JournalReplayProgram {
                cfg,
                rules: stdlib::farm_rules(),
                contract: Some(Contract::throughput_range(0.4, 0.8)),
            }],
        );
        assert!(report.identical(), "{:#?}", report.mismatches);
    }

    #[test]
    fn replay_reports_an_ordered_op_the_journal_does_not_hold() {
        let fixture = include_str!("../../../tests/fixtures/journal_pre_table.jsonl");
        let replay = |text: &str| {
            let programs = [
                ("AM_RULES", ControllerKind::Rules),
                ("AM_AIMD", ControllerKind::Aimd),
            ]
            .map(|(name, controller)| {
                let mut cfg = ManagerConfig::farm(name);
                cfg.rule_check = RuleCheck::Off;
                cfg.controller = controller;
                JournalReplayProgram {
                    cfg,
                    rules: stdlib::farm_rules(),
                    contract: Some(Contract::throughput_range(0.4, 0.8)),
                }
            });
            let records = bskel_monitor::journal::parse_jsonl(text).unwrap();
            replay_journal(&records, programs.into())
        };
        let report = replay(fixture);
        assert!(report.identical(), "{:#?}", report.mismatches);

        let edited = fixture.replacen(r#""op":"balanceLoad""#, r#""op":"removeWorkers(1)""#, 1);
        assert_ne!(edited, fixture);
        let report = replay(&edited);
        assert_eq!(report.mismatches.len(), 1, "{:#?}", report.mismatches);
        let m = &report.mismatches[0];
        assert_eq!(m.manager, "AM_RULES");
        assert_eq!(
            m.expected.as_ref().unwrap().detail.as_deref(),
            Some("removeWorkers(1)")
        );
        assert_eq!(
            m.got.as_ref().unwrap().detail.as_deref(),
            Some("balanceLoad")
        );
    }

    #[test]
    fn healthy_farm_has_no_counterexample_to_replay() {
        let report = ModelChecker::new(schema())
            .check(
                "farm",
                &stdlib::farm_rules(),
                &stdlib::farm_params(0.4, 0.8, 2, 16, 4.0),
                &farm_spec(),
            )
            .unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(report.counterexamples().is_empty());
    }
}

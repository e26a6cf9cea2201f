//! Manager event streams.
//!
//! The evaluation of the paper is read off *event lines*: Figs. 3–4 plot,
//! per manager, the timestamped events its control loop emitted —
//! `contrLow`, `contrHigh`, `notEnough`, `raiseViol`, `incRate`, `decRate`,
//! `addWorker`, `removeWorker`, `rebalance`, `endStream` — alongside the
//! measured throughput and resource series. [`EventLog`] is a shared,
//! append-only record of such events; the experiment harness renders it as
//! the same series the paper plots.

use bskel_monitor::journal::Text;
use bskel_monitor::{Journal, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// The kinds of events a manager can emit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Delivered throughput below the contract floor.
    ContrLow,
    /// Delivered throughput above the contract ceiling.
    ContrHigh,
    /// Input pressure insufficient to exploit the allocated resources
    /// (paper: `notEnough`).
    NotEnough,
    /// Input pressure exceeds what the contract needs (paper's
    /// warning-type violation).
    TooMuch,
    /// A violation was reported to the parent manager (paper: `raiseViol`).
    RaiseViol,
    /// A new contract was sent to a child demanding a rate increase.
    IncRate,
    /// A new contract was sent to a child demanding a rate decrease.
    DecRate,
    /// Workers were added (paper: `addWorker`).
    AddWorker,
    /// Workers were removed.
    RemoveWorker,
    /// Queued tasks were redistributed (paper: `rebalance`).
    Rebalance,
    /// The end of the input stream was observed (paper: `endStream`).
    EndStream,
    /// A new contract was received and adopted.
    NewContract,
    /// The manager entered active mode.
    EnterActive,
    /// The manager entered passive mode.
    EnterPassive,
    /// Workers were lost to failures since the previous control cycle
    /// (fault-tolerance concern; detail carries the delta).
    WorkerLost,
    /// A tenant's fair-share weight was raised (multi-tenancy concern).
    GrowShare,
    /// A tenant's fair-share weight was lowered.
    ShrinkShare,
    /// Queued tasks were dropped from an over-budget tenant (detail
    /// carries the shed count when the substrate reports one).
    ShedLoad,
    /// Free-form event (substrate extensions).
    Other(String),
}

impl EventKind {
    /// The paper's event-line label.
    pub fn label(&self) -> &str {
        match self.static_label() {
            Ok(label) => label,
            Err(other) => other,
        }
    }

    /// The label: `Ok` with static lifetime for the paper's kinds, `Err`
    /// borrowing an [`EventKind::Other`]'s own.
    fn static_label(&self) -> Result<&'static str, &str> {
        Ok(match self {
            EventKind::ContrLow => "contrLow",
            EventKind::ContrHigh => "contrHigh",
            EventKind::NotEnough => "notEnough",
            EventKind::TooMuch => "tooMuch",
            EventKind::RaiseViol => "raiseViol",
            EventKind::IncRate => "incRate",
            EventKind::DecRate => "decRate",
            EventKind::AddWorker => "addWorker",
            EventKind::RemoveWorker => "removeWorker",
            EventKind::Rebalance => "rebalance",
            EventKind::EndStream => "endStream",
            EventKind::NewContract => "newContract",
            EventKind::EnterActive => "enterActive",
            EventKind::EnterPassive => "enterPassive",
            EventKind::WorkerLost => "workerLost",
            EventKind::GrowShare => "growShare",
            EventKind::ShrinkShare => "shrinkShare",
            EventKind::ShedLoad => "shedLoad",
            EventKind::Other(s) => return Err(s),
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One timestamped manager event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event time (seconds since run origin).
    pub at: Time,
    /// Emitting manager's name (e.g. `AM_F`), shared with the manager.
    pub manager: Arc<str>,
    /// Event kind.
    pub kind: EventKind,
    /// Optional detail (violation datum, worker count, new rate, …).
    pub detail: Option<String>,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mins = (self.at / 60.0).floor() as u64;
        let secs = self.at - mins as f64 * 60.0;
        write!(f, "{mins:02}:{secs:04.1} {:<6} {}", self.manager, self.kind)?;
        if let Some(d) = &self.detail {
            write!(f, " [{d}]")?;
        }
        Ok(())
    }
}

/// Shared state behind an [`EventLog`] handle: the event vector plus an
/// optional journal sink every event is mirrored into.
#[derive(Debug, Default)]
struct LogShared {
    events: Mutex<Vec<EventRecord>>,
    /// Set once, then read without a lock on every push.
    journal: OnceLock<Arc<Journal>>,
}

/// A shared, append-only event log. Cloning yields a handle onto the same
/// log, so every manager in a hierarchy writes into one merged trace.
///
/// A [`Journal`] can be attached with [`EventLog::attach_journal`]; from
/// then on every pushed event is also recorded as a structured journal
/// entry (the ops plane's durable, replayable trace). The attachment is
/// shared log state, so attaching through any clone takes effect for all
/// handles, including managers constructed earlier. A log mirrors into
/// one journal for its whole life.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<LogShared>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirrors all events (past none, future all) into `journal`.
    ///
    /// # Panics
    ///
    /// If a different journal is already attached.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let held = self.inner.journal.get_or_init(|| Arc::clone(&journal));
        assert!(
            Arc::ptr_eq(held, &journal),
            "an event log mirrors into one journal for its whole life"
        );
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.inner.journal.get()
    }

    /// Appends an event. A manager passes its shared name, so neither
    /// the record nor its journal line copies it.
    pub fn push(
        &self,
        at: Time,
        manager: impl Into<Arc<str>>,
        kind: EventKind,
        detail: Option<String>,
    ) {
        let manager = manager.into();
        if let Some(journal) = self.journal() {
            let label = match kind.static_label() {
                Ok(label) => Text::Static(label),
                Err(other) => Text::Shared(other.into()),
            };
            journal.manager_event(at, Arc::clone(&manager), label, detail.as_deref());
        }
        self.inner
            .events
            .lock()
            .expect("event log lock poisoned")
            .push(EventRecord {
                at,
                manager,
                kind,
                detail,
            });
    }

    /// A snapshot of all events so far, in append order.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.inner
            .events
            .lock()
            .expect("event log lock poisoned")
            .clone()
    }

    /// Events emitted by one manager.
    pub fn by_manager(&self, manager: &str) -> Vec<EventRecord> {
        self.snapshot()
            .into_iter()
            .filter(|e| *e.manager == *manager)
            .collect()
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: &EventKind) -> Vec<EventRecord> {
        self.snapshot()
            .into_iter()
            .filter(|e| &e.kind == kind)
            .collect()
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.inner
            .events
            .lock()
            .expect("event log lock poisoned")
            .len()
    }

    /// True when no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the log (between experiment repetitions).
    pub fn clear(&self) {
        self.inner
            .events
            .lock()
            .expect("event log lock poisoned")
            .clear();
    }

    /// Renders the log as the paper's event-line text, one event per line.
    pub fn render(&self) -> String {
        self.snapshot()
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.push(1.0, "AM_F", EventKind::ContrLow, None);
        log.push(2.0, "AM_F", EventKind::AddWorker, Some("2".into()));
        log.push(3.0, "AM_A", EventKind::IncRate, None);
        assert_eq!(log.len(), 3);
        let all = log.snapshot();
        assert_eq!(all[0].kind, EventKind::ContrLow);
        assert_eq!(all[1].detail.as_deref(), Some("2"));
    }

    #[test]
    fn clones_share_storage() {
        let log = EventLog::new();
        let handle = log.clone();
        handle.push(0.0, "m", EventKind::EndStream, None);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn filters() {
        let log = EventLog::new();
        log.push(1.0, "AM_F", EventKind::ContrLow, None);
        log.push(2.0, "AM_A", EventKind::ContrLow, None);
        log.push(3.0, "AM_F", EventKind::Rebalance, None);
        assert_eq!(log.by_manager("AM_F").len(), 2);
        assert_eq!(log.of_kind(&EventKind::ContrLow).len(), 2);
        assert_eq!(log.of_kind(&EventKind::Rebalance).len(), 1);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(EventKind::ContrLow.label(), "contrLow");
        assert_eq!(EventKind::NotEnough.label(), "notEnough");
        assert_eq!(EventKind::RaiseViol.label(), "raiseViol");
        assert_eq!(EventKind::IncRate.label(), "incRate");
        assert_eq!(EventKind::AddWorker.label(), "addWorker");
        assert_eq!(EventKind::EndStream.label(), "endStream");
        assert_eq!(EventKind::Other("x".into()).label(), "x");
    }

    #[test]
    fn record_display_uses_min_sec() {
        let r = EventRecord {
            at: 125.0,
            manager: "AM_F".into(),
            kind: EventKind::AddWorker,
            detail: Some("2".into()),
        };
        let s = r.to_string();
        assert!(s.starts_with("02:05.0"), "{s}");
        assert!(s.contains("addWorker"), "{s}");
        assert!(s.contains("[2]"), "{s}");
    }

    #[test]
    fn clear_resets() {
        let log = EventLog::new();
        log.push(0.0, "m", EventKind::EndStream, None);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn attached_journal_mirrors_events_across_clones() {
        use bskel_monitor::{Journal, JournalEntry};
        let log = EventLog::new();
        let handle = log.clone(); // cloned BEFORE the journal is attached
        let journal = Journal::shared();
        log.attach_journal(Arc::clone(&journal));
        handle.push(1.0, "AM_F", EventKind::AddWorker, Some("2".into()));
        let entries = journal.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].entry,
            JournalEntry::Manager {
                at: 1.0,
                manager: "AM_F".into(),
                kind: "addWorker".into(),
                detail: Some("2".into()),
            }
        );
    }

    #[test]
    fn render_joins_lines() {
        let log = EventLog::new();
        log.push(0.0, "a", EventKind::ContrLow, None);
        log.push(1.0, "b", EventKind::ContrHigh, None);
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
    }
}

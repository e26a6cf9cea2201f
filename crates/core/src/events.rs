//! Manager event streams.
//!
//! The evaluation of the paper is read off *event lines*: Figs. 3–4 plot,
//! per manager, the timestamped events its control loop emitted —
//! `contrLow`, `contrHigh`, `notEnough`, `raiseViol`, `incRate`, `decRate`,
//! `addWorker`, `removeWorker`, `rebalance`, `endStream` — alongside the
//! measured throughput and resource series. [`EventLog`] is a shared
//! handle onto the manager records of one [`Journal`], the run's only
//! trace; the experiment harness renders it as the same series the paper
//! plots.

use bskel_monitor::journal::Text;
use bskel_monitor::{Journal, JournalEntry, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Every kind but [`EventKind::Other`], with its label.
const PAPER_KINDS: [(EventKind, &str); 18] = [
    (EventKind::ContrLow, "contrLow"),
    (EventKind::ContrHigh, "contrHigh"),
    (EventKind::NotEnough, "notEnough"),
    (EventKind::TooMuch, "tooMuch"),
    (EventKind::RaiseViol, "raiseViol"),
    (EventKind::IncRate, "incRate"),
    (EventKind::DecRate, "decRate"),
    (EventKind::AddWorker, "addWorker"),
    (EventKind::RemoveWorker, "removeWorker"),
    (EventKind::Rebalance, "rebalance"),
    (EventKind::EndStream, "endStream"),
    (EventKind::NewContract, "newContract"),
    (EventKind::EnterActive, "enterActive"),
    (EventKind::EnterPassive, "enterPassive"),
    (EventKind::WorkerLost, "workerLost"),
    (EventKind::GrowShare, "growShare"),
    (EventKind::ShrinkShare, "shrinkShare"),
    (EventKind::ShedLoad, "shedLoad"),
];

impl EventKind {
    /// The kind labelled `label`: a paper kind, else [`EventKind::Other`].
    fn from_label(label: &str) -> Self {
        let paper = PAPER_KINDS.iter().find(|(_, l)| *l == label);
        paper.map_or_else(|| EventKind::Other(label.to_owned()), |(k, _)| k.clone())
    }

    /// The paper's event-line label.
    pub fn label(&self) -> &str {
        self.static_label().unwrap_or_else(|other| other)
    }

    /// The label: `Ok` with static lifetime for the paper's kinds, `Err`
    /// borrowing an [`EventKind::Other`]'s own.
    fn static_label(&self) -> Result<&'static str, &str> {
        let paper = PAPER_KINDS.iter().find(|(k, _)| k == self);
        match self {
            EventKind::Other(s) => Err(s),
            _ => Ok(paper.expect("every paper kind is listed").1),
        }
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

/// Shared state behind an [`EventLog`] handle.
#[derive(Debug, Default)]
struct LogShared {
    /// The journal, and whether it was attached rather than created by
    /// the first push: set once, then read without a lock on every push.
    sink: OnceLock<(Arc<Journal>, bool)>,
    /// Reads skip the journal records below this sequence number.
    cleared: AtomicU64,
}

/// A handle onto the manager events of one [`Journal`]: the ops journal
/// attached with [`EventLog::attach_journal`], else one the log creates on
/// its first push. Events live only there, so a log holds at most the
/// ring's capacity of them, and reads see every manager event of that
/// journal, from any log. Clones share the journal, so every manager in a
/// hierarchy writes into one merged trace, and attaching through any clone
/// takes effect for all, including managers constructed earlier.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<LogShared>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records all future events into `journal`.
    ///
    /// # Panics
    ///
    /// If a different journal is already attached, or the log already
    /// created its own.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let (held, attached) = self.inner.sink.get_or_init(|| (Arc::clone(&journal), true));
        assert!(
            *attached && Arc::ptr_eq(held, &journal),
            "an event log records into one journal for its whole life"
        );
    }

    /// The attached journal, if any (not one the log created itself).
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.inner.sink.get().filter(|(_, a)| *a).map(|(j, _)| j)
    }

    /// Records an event. A short name or detail is copied into the record
    /// and a paper kind's label is static, so none of them allocates.
    pub fn push(&self, at: Time, manager: impl Into<Text>, kind: EventKind, detail: Option<&str>) {
        let label = match kind.static_label() {
            Ok(label) => Text::Static(label),
            Err(other) => Text::Shared(other.into()),
        };
        let (journal, _) = self.inner.sink.get_or_init(|| (Journal::shared(), false));
        journal.manager_event(at, manager, label, detail);
    }

    /// A snapshot of the events since the last [`EventLog::clear`] that
    /// the journal still holds, in append order.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        let Some((journal, _)) = self.inner.sink.get() else {
            return Vec::new();
        };
        let from = self.inner.cleared.load(Ordering::Relaxed);
        let records = journal.entries().into_iter().filter(|r| r.seq >= from);
        records
            .filter_map(|r| match r.entry {
                JournalEntry::Manager {
                    at,
                    manager,
                    kind,
                    detail,
                } => Some(EventRecord {
                    at,
                    manager: manager.into(),
                    kind: EventKind::from_label(&kind),
                    detail,
                }),
                _ => None,
            })
            .collect()
    }

    /// Events emitted by one manager.
    pub fn by_manager(&self, manager: &str) -> Vec<EventRecord> {
        let mut events = self.snapshot();
        events.retain(|e| *e.manager == *manager);
        events
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: &EventKind) -> Vec<EventRecord> {
        let mut events = self.snapshot();
        events.retain(|e| &e.kind == kind);
        events
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Journal records of any kind overwritten to keep the ring within
    /// its capacity: 0 while the log still holds every event.
    pub fn dropped(&self) -> u64 {
        self.inner.sink.get().map_or(0, |(j, _)| j.dropped())
    }

    /// Hides the events logged so far from the reads (between experiment
    /// repetitions). The journal itself, which others may share, is left
    /// as it is.
    pub fn clear(&self) {
        if let Some((journal, _)) = self.inner.sink.get() {
            let recorded = journal.recorded();
            self.inner.cleared.store(recorded, Ordering::Relaxed);
        }
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
        log.push(2.0, "AM_F", EventKind::AddWorker, Some("2"));
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
    fn from_label_inverts_label() {
        for (kind, _) in PAPER_KINDS {
            assert_eq!(EventKind::from_label(kind.label()), kind);
        }
        let other = EventKind::Other("x".into());
        assert_eq!(EventKind::from_label(other.label()), other);
    }

    #[test]
    fn clear_resets() {
        let log = EventLog::new();
        log.push(0.0, "m", EventKind::EndStream, None);
        log.clear();
        assert!(log.is_empty());
        log.push(1.0, "m", EventKind::ContrLow, None);
        assert_eq!(log.snapshot()[0].kind, EventKind::ContrLow);
    }

    #[test]
    fn clear_leaves_an_attached_journal_as_it_is() {
        let journal = Arc::new(Journal::new(2));
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        for i in 0..3 {
            log.push(f64::from(i), "m", EventKind::AddWorker, Some("1"));
        }
        let before = (journal.recorded(), journal.dropped(), journal.len());
        assert_eq!(before, (3, 1, 2));
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(
            (journal.recorded(), journal.dropped(), journal.len()),
            before
        );
    }

    #[test]
    fn an_unattached_log_records_into_its_own_journal() {
        let log = EventLog::new();
        log.push(0.0, "m", EventKind::EndStream, None);
        assert!(
            log.journal().is_none(),
            "only an attached journal is exposed"
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one journal for its whole life")]
    fn attaching_after_the_first_push_panics() {
        let log = EventLog::new();
        log.push(0.0, "m", EventKind::EndStream, None);
        log.attach_journal(Journal::shared());
    }

    #[test]
    fn attached_journal_holds_events_across_clones() {
        let log = EventLog::new();
        let handle = log.clone(); // cloned BEFORE the journal is attached
        let journal = Journal::shared();
        log.attach_journal(Arc::clone(&journal));
        handle.push(1.0, "AM_F", EventKind::AddWorker, Some("2"));
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

//! The output oracle shared by every workload.
//!
//! Each workload embeds the task's input position in its payload, so a
//! delivery carries the identity of the task it answers even where the
//! substrate renumbers its output densely. The oracle checks ordered
//! exactly-once delivery against those identities, payload equality
//! against a reference, the per-tenant ledger
//! `submitted = completed + shed + lost`, the substrate's
//! [`ShutdownReport`], and (for `control_storm`) that two same-seed
//! passes decide identically. Every breach counts as a failed operation.

use bskel_skel::ShutdownReport;
use std::collections::BTreeSet;

/// Breach counts of one run. Anything non-zero fails the command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breaches {
    /// Deliveries that arrived after a later task's delivery.
    pub out_of_order: u64,
    /// Deliveries of a task that had already been delivered.
    pub duplicate: u64,
    /// Submitted tasks never accounted for by the end of the stream.
    pub missing: u64,
    /// Deliveries whose payload differs from the reference.
    pub wrong: u64,
    /// Tasks the substrate reported lost.
    pub lost: u64,
    /// Tasks shed on a stream that must never shed.
    pub shed: u64,
    /// Tenants whose ledger does not balance.
    pub ledger: u64,
    /// Control cycles whose decisions differ between same-seed passes.
    pub nondeterministic: u64,
    /// Findings in the shutdown report (panics, undelivered losses, ...).
    pub shutdown: Vec<String>,
}

impl Breaches {
    /// Failed operations: every counted breach plus one per shutdown
    /// finding.
    pub fn total(&self) -> u64 {
        self.out_of_order
            + self.duplicate
            + self.missing
            + self.wrong
            + self.lost
            + self.shed
            + self.ledger
            + self.nondeterministic
            + self.shutdown.len() as u64
    }

    /// True when nothing was breached.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Adds another stream's breaches to this one.
    pub fn absorb(&mut self, other: Breaches) {
        self.out_of_order += other.out_of_order;
        self.duplicate += other.duplicate;
        self.missing += other.missing;
        self.wrong += other.wrong;
        self.lost += other.lost;
        self.shed += other.shed;
        self.ledger += other.ledger;
        self.nondeterministic += other.nondeterministic;
        self.shutdown.extend(other.shutdown);
    }

    /// One line per non-zero breach kind, for the report.
    pub fn describe(&self) -> Vec<String> {
        let mut out: Vec<String> = [
            ("out-of-order", self.out_of_order),
            ("duplicate", self.duplicate),
            ("missing", self.missing),
            ("wrong payload", self.wrong),
            ("lost", self.lost),
            ("shed", self.shed),
            ("unbalanced ledger", self.ledger),
            ("non-deterministic cycle", self.nondeterministic),
        ]
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{n} {what}"))
        .collect();
        out.extend(self.shutdown.iter().map(|s| format!("shutdown: {s}")));
        out
    }
}

/// Checks one stream for ordered exactly-once delivery.
///
/// `id` is the task's input position as embedded in its payload. The
/// state is the contiguous delivered prefix plus the (normally empty)
/// set of ids seen ahead of it, so memory stays constant on a correct
/// stream.
#[derive(Debug, Default)]
pub struct OrderedStream {
    next: u64,
    ahead: BTreeSet<u64>,
    max_seen: Option<u64>,
    breaches: Breaches,
}

impl OrderedStream {
    /// A checker expecting id 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one delivery; `payload_ok` is the reference comparison.
    pub fn observe(&mut self, id: u64, payload_ok: bool) {
        if !payload_ok {
            self.breaches.wrong += 1;
        }
        if id < self.next || self.ahead.contains(&id) {
            self.breaches.duplicate += 1;
            return;
        }
        if self.max_seen.is_some_and(|m| id < m) {
            self.breaches.out_of_order += 1;
        }
        self.max_seen = Some(self.max_seen.map_or(id, |m| m.max(id)));
        if id == self.next {
            self.next += 1;
            while self.ahead.remove(&self.next) {
                self.next += 1;
            }
        } else {
            self.ahead.insert(id);
        }
    }

    /// Accounts a task the substrate declared lost (it still occupies
    /// its position, so later deliveries are not "ahead" of a hole).
    pub fn observe_lost(&mut self, id: u64) {
        self.breaches.lost += 1;
        self.observe(id, true);
    }

    /// Distinct ids accounted for so far.
    pub fn accounted(&self) -> u64 {
        self.next + self.ahead.len() as u64
    }

    /// Closes the stream: whatever of `submitted` never showed up is
    /// missing.
    pub fn finish(mut self, submitted: u64) -> Breaches {
        self.breaches.missing += submitted.saturating_sub(self.accounted());
        self.breaches
    }
}

/// One tenant's counters as the harness saw them, against the
/// front-end's own report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Tasks handed to `submit`.
    pub submitted: u64,
    /// Results delivered.
    pub completed: u64,
    /// Tasks shed by admission control.
    pub shed: u64,
    /// Tasks lost inside the substrate.
    pub lost: u64,
}

impl Ledger {
    /// `submitted = completed + shed + lost`.
    pub fn balances(&self) -> bool {
        self.submitted == self.completed + self.shed + self.lost
    }
}

/// Checks one tenant's output stream: results in submission order, and
/// every submitted task accounted exactly once as a result, a shed or a
/// loss. (Shed notices are queued at the door, ahead of results still in
/// flight, so only results are checked for order.)
#[derive(Debug, Default)]
pub struct TenantStream {
    seen: Vec<bool>,
    last_result: Option<u64>,
    ledger: Ledger,
    breaches: Breaches,
}

impl TenantStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    fn account(&mut self, seq: u64) -> bool {
        // No run submits this many tasks to one tenant: a larger number is
        // a corrupted sequence, not a reason to allocate for it.
        if seq >= 1 << 28 {
            self.breaches.wrong += 1;
            return false;
        }
        let i = seq as usize;
        if self.seen.len() <= i {
            self.seen.resize(i + 1, false);
        }
        if std::mem::replace(&mut self.seen[i], true) {
            self.breaches.duplicate += 1;
            return false;
        }
        true
    }

    /// A result for task `seq`; `payload_ok` is the reference comparison.
    pub fn result(&mut self, seq: u64, payload_ok: bool) {
        if !payload_ok {
            self.breaches.wrong += 1;
        }
        if self.account(seq) {
            self.ledger.completed += 1;
            if self.last_result.is_some_and(|last| seq < last) {
                self.breaches.out_of_order += 1;
            }
            self.last_result = Some(self.last_result.map_or(seq, |l| l.max(seq)));
        }
    }

    /// Task `seq` will never produce a result: shed at admission, or lost
    /// inside the substrate.
    pub fn no_result(&mut self, seq: u64, shed: bool) {
        if self.account(seq) {
            if shed {
                self.ledger.shed += 1;
            } else {
                self.ledger.lost += 1;
            }
        }
    }

    /// Closes the stream after `submitted` tasks: returns what was seen
    /// and the ordering/duplication/completeness breaches.
    pub fn finish(mut self, submitted: u64) -> (Ledger, Breaches) {
        self.ledger.submitted = submitted;
        let accounted = self.seen.iter().filter(|s| **s).count() as u64;
        self.breaches.missing += submitted.saturating_sub(accounted);
        (self.ledger, self.breaches)
    }
}

/// Checks a tenant's ledger: what the harness counted must balance and
/// must equal what the front-end reported. `may_shed` is false for a
/// stream that is inside its admission budget by construction.
pub fn check_ledger(seen: Ledger, reported: Ledger, may_shed: bool) -> Breaches {
    let mut b = Breaches::default();
    if !seen.balances() || !reported.balances() || seen != reported {
        b.ledger = 1;
    }
    b.lost = seen.lost;
    if !may_shed {
        b.shed = seen.shed;
    }
    b
}

/// Checks a substrate's shutdown report. `is_clean()` is false by design
/// once workers were killed, so with `kills_expected` only the fields a
/// kill cannot excuse are checked.
pub fn check_shutdown(report: &ShutdownReport, kills_expected: bool) -> Breaches {
    let mut b = Breaches::default();
    for p in &report.worker_panics {
        b.shutdown.push(format!("panic or join error: {p}"));
    }
    if !report.lost_undelivered.is_empty() {
        b.shutdown.push(format!(
            "{} loss notification(s) undelivered",
            report.lost_undelivered.len()
        ));
    }
    if !kills_expected {
        if report.workers_lost > 0 {
            b.shutdown
                .push(format!("{} worker(s) lost", report.workers_lost));
        }
        for d in &report.disconnects {
            b.shutdown.push(format!("disconnect: {d}"));
        }
    }
    b
}

/// Compares two same-seed passes' per-cycle decision checksums.
pub fn check_determinism(first: &[u64], second: &[u64]) -> Breaches {
    let differing = first.iter().zip(second).filter(|(a, b)| a != b).count();
    let unmatched = first.len().abs_diff(second.len());
    Breaches {
        nondeterministic: (differing + unmatched) as u64,
        ..Breaches::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_is_clean_and_constant_space() {
        let mut s = OrderedStream::new();
        for id in 0..10_000 {
            s.observe(id, true);
            assert!(s.ahead.is_empty());
        }
        assert!(s.finish(10_000).is_clean());
    }

    #[test]
    fn lost_task_counts_once_and_keeps_order() {
        let mut s = OrderedStream::new();
        s.observe(0, true);
        s.observe_lost(1);
        s.observe(2, true);
        let b = s.finish(3);
        assert_eq!((b.lost, b.out_of_order, b.missing), (1, 0, 0));
    }

    #[test]
    fn tenant_stream_orders_results_but_not_shed_notices() {
        let mut t = TenantStream::new();
        t.result(0, true);
        t.no_result(3, true); // shed at the door while 1 and 2 are in flight
        t.result(1, true);
        t.result(2, true);
        let (ledger, b) = t.finish(4);
        assert!(b.is_clean(), "{b:?}");
        assert_eq!(
            ledger,
            Ledger {
                submitted: 4,
                completed: 3,
                shed: 1,
                lost: 0
            }
        );

        let mut t = TenantStream::new();
        t.result(1, true);
        t.result(0, false);
        t.result(1, true);
        let (_, b) = t.finish(3);
        assert_eq!(
            (b.out_of_order, b.wrong, b.duplicate, b.missing),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn ledger_must_balance_and_agree() {
        let ok = Ledger {
            submitted: 10,
            completed: 7,
            shed: 3,
            lost: 0,
        };
        assert!(check_ledger(ok, ok, true).is_clean());
        assert_eq!(check_ledger(ok, ok, false).shed, 3);
        let off = Ledger { completed: 6, ..ok };
        assert_eq!(check_ledger(off, ok, true).ledger, 1);
        assert_eq!(check_ledger(ok, off, true).ledger, 1);
    }

    #[test]
    fn shutdown_fields_are_checked_even_when_kills_are_expected() {
        let mut r = ShutdownReport::default();
        assert!(check_shutdown(&r, false).is_clean());
        r.workers_lost = 3;
        r.disconnects.push("reset".into());
        assert!(check_shutdown(&r, true).is_clean());
        assert_eq!(check_shutdown(&r, false).total(), 2);
        r.lost_undelivered.push(9);
        r.worker_panics.push("boom".into());
        assert_eq!(check_shutdown(&r, true).total(), 2);
    }

    #[test]
    fn determinism_counts_differing_and_unmatched_cycles() {
        assert!(check_determinism(&[1, 2, 3], &[1, 2, 3]).is_clean());
        assert_eq!(check_determinism(&[1, 2, 3], &[1, 9]).nondeterministic, 2);
    }
}

//! Allocation budget of a control cycle. After warm-up, an in-contract
//! `AutonomicManager::control_cycle` allocates nothing, with or without a
//! journal. A cycle that acts allocates exactly the operation vector it
//! returns, with or without a journal: its events live only in a journal
//! ring, and their short details (an `addWorker`'s count) are formatted on
//! the stack and copied inside the record. A bean appearing costs
//! allocations in its own cycle only. The count comes from a global
//! allocator that tallies per thread, so tests running in parallel cannot
//! pollute each other's count.

use bskel_core::contract::Contract;
use bskel_core::events::{EventKind, EventLog};
use bskel_core::manager::{AutonomicManager, ManagerConfig};
use bskel_core::ControllerKind;
use bskel_monitor::{Journal, SensorSnapshot};
use bskel_rules::stdlib::{farm_params, farm_rules_with_ft, hier_beans, params};
use bskel_rules::{op, parse_rules, RuleEngine, RuleSet, WorkingMemory};
use bskel_sim::ScriptedAbc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (fresh blocks and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation into [`ALLOCATIONS`].
struct Counting;

fn count() {
    // A const-initialised `Cell` needs no allocation and no destructor,
    // so the count cannot recurse into the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the blocks handed out are `System`'s and meet `GlobalAlloc`'s contract;
// `count` neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const CONTRACT: (f64, f64) = (1_500.0, 3_000.0);
const FT_FLOOR: u32 = 4;

/// A plant inside the contract: no rule fires, AIMD holds its ceiling.
fn quiet_snapshot() -> SensorSnapshot {
    let mut s = SensorSnapshot::empty(0.0);
    s.arrival_rate = 2_000.0;
    s.departure_rate = 2_000.0;
    s.num_workers = 6;
    s.queue_variance = 0.5;
    s.queued_tasks = 12;
    s.service_time = 0.002;
    s.idle_for = 0.0;
    s.ft_min_workers = FT_FLOOR;
    s
}

/// A plant under the contract floor with arrivals to serve: the farm
/// program and AIMD both order `ADD_EXECUTOR` and `BALANCE_LOAD` every
/// cycle (the plant is scripted, so the worker count never moves).
fn acting_snapshot() -> SensorSnapshot {
    let mut s = quiet_snapshot();
    s.departure_rate = 1_000.0;
    s
}

fn manager(
    controller: ControllerKind,
    script: Vec<SensorSnapshot>,
    log: EventLog,
) -> AutonomicManager {
    let mut cfg = ManagerConfig::farm("AM_Q");
    cfg.controller = controller;
    cfg.extra_params
        .push((params::FT_MIN_WORKERS.to_owned(), f64::from(FT_FLOOR)));
    let m = AutonomicManager::new(cfg, Box::new(ScriptedAbc::new(script)), log)
        .with_rules(farm_rules_with_ft());
    m.contract_slot()
        .post(Contract::throughput_range(CONTRACT.0, CONTRACT.1));
    m
}

/// The most allocations any one of 20 cycles over `plant` made, after
/// enough warm-up cycles to fill a 64-entry journal ring. Every measured
/// cycle must order exactly `ordered`.
fn worst_cycle(
    controller: ControllerKind,
    journal: bool,
    plant: SensorSnapshot,
    ordered: &[&str],
) -> u64 {
    let log = EventLog::new();
    if journal {
        log.attach_journal(Arc::new(Journal::new(64)));
    }
    let mut m = manager(controller, vec![plant], log.clone());
    for i in 0..100 {
        m.control_cycle(f64::from(i));
    }
    let events = log.len();
    let worst = (100..120)
        .map(|i| {
            let before = allocations();
            let ops = m.control_cycle(f64::from(i));
            let n = allocations() - before;
            let names: Vec<&str> = ops.iter().map(|o| o.operation.as_ref()).collect();
            assert_eq!(names, ordered, "cycle {i}");
            n
        })
        .max()
        .expect("cycles ran");
    if ordered.is_empty() {
        assert_eq!(log.len(), events, "a quiet cycle logs no event");
    }
    worst
}

fn worst_quiet_cycle(controller: ControllerKind, journal: bool) -> u64 {
    worst_cycle(controller, journal, quiet_snapshot(), &[])
}

fn worst_acting_cycle(controller: ControllerKind, journal: bool) -> u64 {
    let ordered = [op::ADD_EXECUTOR, op::BALANCE_LOAD];
    worst_cycle(controller, journal, acting_snapshot(), &ordered)
}

#[test]
fn quiet_rules_cycle_allocates_nothing() {
    assert_eq!(worst_quiet_cycle(ControllerKind::Rules, false), 0);
    assert_eq!(worst_quiet_cycle(ControllerKind::Rules, true), 0);
}

#[test]
fn quiet_aimd_cycle_allocates_nothing() {
    assert_eq!(worst_quiet_cycle(ControllerKind::Aimd, false), 0);
    assert_eq!(worst_quiet_cycle(ControllerKind::Aimd, true), 0);
}

#[test]
fn acting_rules_cycle_allocates_only_its_ops() {
    assert_eq!(worst_acting_cycle(ControllerKind::Rules, false), 1);
    assert_eq!(worst_acting_cycle(ControllerKind::Rules, true), 1);
}

#[test]
fn acting_aimd_cycle_allocates_only_its_ops() {
    assert_eq!(worst_acting_cycle(ControllerKind::Aimd, false), 1);
    assert_eq!(worst_acting_cycle(ControllerKind::Aimd, true), 1);
}

/// A log holds no more events than its journal's ring: a long-lived
/// manager's event memory is flat in its cycles, and what the ring
/// overwrote is counted.
#[test]
fn a_long_lived_managers_events_stay_within_its_ring() {
    let journal = Arc::new(Journal::new(64));
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let mut m = manager(ControllerKind::Rules, vec![acting_snapshot()], log.clone());
    for i in 0..10_000 {
        m.control_cycle(f64::from(i));
    }
    let events = log.snapshot();
    assert!(!events.is_empty() && events.len() <= 64, "{}", events.len());
    assert_eq!(
        events.last().map(|e| (e.at, &e.kind)),
        Some((9_999.0, &EventKind::Rebalance))
    );
    assert_eq!(journal.len(), 64);
    assert_eq!(log.dropped(), journal.recorded() - 64);
    assert!(log.dropped() > 10_000, "{}", log.dropped());
}

/// Counting a log's events copies none of the journal: the snapshots the
/// manager records beside its events cost `len` nothing.
#[test]
fn counting_events_allocates_the_same_beside_any_number_of_snapshots() {
    fn len_allocations(snapshots: u32) -> u64 {
        let journal = Arc::new(Journal::new(2_048));
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let snap = quiet_snapshot();
        for i in 0..snapshots {
            journal.snapshot(f64::from(i), "AM_Q", &snap);
        }
        log.push(0.0, "AM_Q", EventKind::AddWorker, Some("1"));
        let before = allocations();
        let events = log.len();
        let n = allocations() - before;
        assert_eq!(events, 1);
        n
    }
    assert_eq!(len_allocations(1_000), len_allocations(0));
}

/// A layout change allocates on its own cycle only. An extra bean that
/// appears mid-list in cycle `K` relays the working memory out and
/// rebinds the engine in that cycle; from the next cycle on, refill plus
/// rule evaluation allocate nothing again.
#[test]
fn an_extra_bean_allocates_only_on_the_cycle_it_appears() {
    const K: usize = 10;
    let snap = quiet_snapshot();
    let table = farm_params(CONTRACT.0, CONTRACT.1, 1, 8, 4.0)
        .with(params::FT_MIN_WORKERS, f64::from(FT_FLOOR));
    let mut engine = RuleEngine::new(farm_rules_with_ft());
    let mut wm = WorkingMemory::new();
    let counts: Vec<u64> = (0..K + 20)
        .map(|cycle| {
            let extra = (cycle >= K).then_some(("nodeLoad", 0.5));
            let before = allocations();
            wm.refill(snap.beans().chain(extra).chain([
                (hier_beans::VIOL_NOT_ENOUGH, 0.0),
                (hier_beans::VIOL_TOO_MUCH, 0.0),
                (hier_beans::END_STREAM, 0.0),
            ]));
            let ops = engine.cycle_ops(&wm, &table).expect("program evaluates");
            assert!(ops.is_empty(), "cycle {cycle}: {ops:?}");
            allocations() - before
        })
        .collect();
    assert!(counts[K] > 0, "the new layout is built in cycle {K}");
    assert!(
        counts[1..K].iter().chain(&counts[K + 1..]).all(|&n| n == 0),
        "{counts:?}"
    );
}

/// The refilled working memory forgets a bean the plant stopped
/// publishing: a rule reading it fails to evaluate, as it would over a
/// working memory built afresh.
#[test]
fn a_vanished_extra_bean_is_a_rule_error_next_cycle() {
    let rules: RuleSet =
        parse_rules(r#"rule "hot" when nodeLoad > 0.9 then fire(BALANCE_LOAD) end"#).unwrap();
    let with_extra = quiet_snapshot().with_extra("nodeLoad", 0.5);
    let log = EventLog::new();
    let mut m = manager(
        ControllerKind::Rules,
        vec![with_extra, quiet_snapshot()],
        log.clone(),
    )
    .with_rules(rules);
    m.control_cycle(0.0);
    let errors = |log: &EventLog| {
        log.snapshot()
            .into_iter()
            .filter(|e| matches!(&e.kind, EventKind::Other(k) if k.starts_with("ruleError:")))
            .count()
    };
    assert_eq!(errors(&log), 0, "{:?}", log.snapshot());
    m.control_cycle(1.0);
    assert_eq!(errors(&log), 1, "{:?}", log.snapshot());
}

//! The bean table is the one definition of the standard sensor beans.
//! These tests pin what is derived from it: the journal bytes a recorded
//! run produces (against a fixture recorded before the table existed),
//! journal replay of every bean (no bean may fall back to an extra), the
//! rule schema, and the per-bean accessors.

use bskel_core::abc::{bean_type, standard_schema, ActuationOutcome};
use bskel_core::contract::Contract;
use bskel_core::events::EventLog;
use bskel_core::manager::{AutonomicManager, ManagerConfig, RuleCheck};
use bskel_core::ControllerKind;
use bskel_monitor::journal::parse_jsonl;
use bskel_monitor::snapshot::{BeanKind, BEAN_TABLE};
use bskel_monitor::{Journal, JournalEntry, SensorSnapshot};
use bskel_sim::replay::{snapshot_from_beans, ScriptedAbc};
use bskel_sim::{replay_journal, JournalReplayProgram};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Recorded at the parent commit of the bean table, from [`record`].
const FIXTURE: &str = include_str!("fixtures/journal_pre_table.jsonl");

const CYCLES: u32 = 6;

/// A snapshot in which every standard bean differs from its
/// [`SensorSnapshot::empty`] default (the two flags are raised in some
/// cycles only, so the rules manager still gets to act).
fn scripted(i: u32) -> SensorSnapshot {
    let n = f64::from(i);
    let mut s = SensorSnapshot::empty(0.0);
    s.arrival_rate = 1.0;
    s.departure_rate = 0.2; // below the contract floor: pressure to grow
    s.num_workers = 2 + i / 2;
    s.queue_variance = 0.5 + 0.25 * n;
    s.queued_tasks = 3 + u64::from(i);
    s.service_time = 0.5;
    s.end_of_stream = i == CYCLES - 1;
    s.idle_for = 0.125;
    s.reconfiguring = i == 3;
    s.workers_lost = 1;
    s.ft_min_workers = 2;
    s.remote_workers = 1;
    s.net_rtt_ms = 0.75;
    s.circuit_open_count = 1;
    s.reconnect_backoff_ms = 12.5;
    s.tasks_retried = 4;
    s.speculative_wins = 2;
    s.reactor_loop_lag_us = 33.0;
    s.net_send_queue_depth = 5;
    s.tasks_shed = 7;
    s.tenant_queue_depth = 9;
    s.tenant_share = 0.5;
    s.tenant_throughput = 0.3;
    s.retry_budget_tokens = 6.5;
    s.hedges_launched = 3;
    s.hedge_wins = 1;
    s.aimd_ceiling = 4.0;
    s
}

fn contract() -> Contract {
    Contract::throughput_range(0.4, 0.8)
}

/// The two recording managers: one on the farm rule program, one on
/// the AIMD law.
fn programs() -> Vec<JournalReplayProgram> {
    let mut rules = ManagerConfig::farm("AM_RULES");
    rules.rule_check = RuleCheck::Off;
    let mut aimd = ManagerConfig::farm("AM_AIMD");
    aimd.rule_check = RuleCheck::Off;
    aimd.controller = ControllerKind::Aimd;
    [rules, aimd]
        .into_iter()
        .map(|cfg| JournalReplayProgram {
            cfg,
            rules: bskel_rules::stdlib::farm_rules(),
            contract: Some(contract()),
        })
        .collect()
}

/// A deterministic run on manual times over scripted plants; the rules
/// manager's second actuation is refused.
fn record() -> Arc<Journal> {
    let journal = Journal::shared();
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let script: Vec<SensorSnapshot> = (0..CYCLES).map(scripted).collect();
    let mut managers: Vec<AutonomicManager> = programs()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mut abc = ScriptedAbc::new(script.clone());
            if i == 0 {
                abc = abc.with_outcomes(vec![
                    Ok(ActuationOutcome::Applied),
                    Ok(ActuationOutcome::Refused {
                        reason: "no free slot".into(),
                    }),
                ]);
            }
            let m = AutonomicManager::new(p.cfg, Box::new(abc), log.clone()).with_rules(p.rules);
            m.contract_slot().post(contract());
            m
        })
        .collect();
    for i in 0..CYCLES {
        for (k, m) in managers.iter_mut().enumerate() {
            m.control_cycle(f64::from(i) * 0.5 + k as f64 * 0.25);
        }
    }
    journal
}

#[test]
fn recording_reproduces_the_pre_table_journal_bytes() {
    assert_eq!(record().to_jsonl(), FIXTURE);
}

#[test]
fn fixture_reencodes_byte_for_byte() {
    let records = parse_jsonl(FIXTURE).expect("fixture parses");
    let journal = Journal::new(records.len());
    for r in &records {
        journal.record(r.entry.clone());
    }
    assert_eq!(journal.entries(), records);
    assert_eq!(journal.to_jsonl(), FIXTURE);
}

#[test]
fn fixture_covers_every_bean_a_refusal_and_both_laws() {
    let records = parse_jsonl(FIXTURE).unwrap();
    for def in BEAN_TABLE {
        let default = SensorSnapshot::empty(0.0).bean(def.name);
        assert!(
            records.iter().any(|r| matches!(
                &r.entry,
                JournalEntry::Snapshot { beans, .. }
                    if beans.iter().any(|(n, v)| n == def.name && Some(*v) != default)
            )),
            "{} never leaves its default in the fixture",
            def.name
        );
    }
    let outcomes: Vec<(&str, &str)> = records
        .iter()
        .filter_map(|r| match &r.entry {
            JournalEntry::Actuation {
                outcome,
                controller,
                ..
            } => Some((outcome.as_str(), controller.as_str())),
            _ => None,
        })
        .collect();
    assert!(outcomes.iter().any(|(o, _)| o.starts_with("refused:")));
    assert!(outcomes.iter().any(|(_, c)| *c == "rules"));
    assert!(outcomes.iter().any(|(_, c)| *c == "aimd"));
}

#[test]
fn every_journaled_snapshot_replays_to_the_same_beans() {
    let records = parse_jsonl(FIXTURE).unwrap();
    let mut seen = 0;
    for r in &records {
        if let JournalEntry::Snapshot { at, beans, .. } = &r.entry {
            let map: BTreeMap<String, f64> =
                beans.iter().map(|(n, v)| (n.to_string(), *v)).collect();
            let snap = snapshot_from_beans(*at, &map);
            assert!(
                snap.extra.is_empty(),
                "seq {}: extras {:?}",
                r.seq,
                snap.extra
            );
            assert_eq!(&snap.to_beans(), beans, "seq {}", r.seq);
            seen += 1;
        }
    }
    assert_eq!(seen, 2 * CYCLES as usize);
}

#[test]
fn fixture_replays_with_no_mismatch() {
    let records = parse_jsonl(FIXTURE).unwrap();
    let report = replay_journal(&records, programs());
    assert_eq!(report.snapshots, 2 * CYCLES as usize);
    assert!(report.events > 0, "the recording must have produced events");
    assert!(report.identical(), "{:#?}", report.mismatches);
}

#[test]
fn every_table_row_round_trips_through_set_bean() {
    for (i, def) in BEAN_TABLE.iter().enumerate() {
        let mut s = SensorSnapshot::empty(0.0);
        let v = (i + 1) as f64;
        let want = if def.kind == BeanKind::Flag { 1.0 } else { v };
        assert!(s.set_bean(def.name, v), "{} not settable", def.name);
        assert_eq!(s.bean(def.name), Some(want), "{}", def.name);
        assert_eq!(s.to_beans()[i], (def.name.into(), want));
        assert!(s.extra.is_empty());
    }
    let mut s = SensorSnapshot::empty(0.0);
    assert!(!s.set_bean("noSuchBean", 1.0));
    assert_eq!(s, SensorSnapshot::empty(0.0));
}

#[test]
fn standard_schema_holds_every_table_row_with_its_type() {
    let schema = standard_schema();
    for def in BEAN_TABLE {
        assert_eq!(
            schema.bean_type(def.name),
            Some(bean_type(def.kind)),
            "{}",
            def.name
        );
    }
}

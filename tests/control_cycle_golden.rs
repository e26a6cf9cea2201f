//! Cross-version golden of the control plane. A small scripted storm —
//! two managers on the farm + fault-tolerance rules and two on AIMD,
//! sharing one journal — runs over `ScriptedAbc` plants whose scripts pass
//! through in-contract, under-contract, over-contract, unbalanced and
//! below-the-FT-floor phases, with some actuations answered `NoOp` or
//! `Refused`. The decision stream (every cycle's returned operations) and
//! the journal's JSON lines must match the recorded fixtures byte for
//! byte: a change to the cycle's cost must not change what it decides or
//! what it records.
//!
//! To re-record after a deliberate change of behaviour:
//! `BSKEL_RECORD_GOLDEN=1 cargo test --test control_cycle_golden`.

use bskel_core::contract::Contract;
use bskel_core::events::EventLog;
use bskel_core::manager::{AutonomicManager, ManagerConfig};
use bskel_core::{AbcError, ActuationOutcome, ControllerKind};
use bskel_monitor::{Journal, SensorSnapshot};
use bskel_rules::stdlib::{farm_rules_with_ft, params};
use bskel_sim::ScriptedAbc;
use std::fmt::Write as _;
use std::sync::Arc;

const DECISIONS: &str = "tests/fixtures/control_cycle_decisions.txt";
const JOURNAL: &str = "tests/fixtures/control_cycle_journal.jsonl";

/// Managers: the first half run rules, the second half AIMD.
const MANAGERS: usize = 4;
/// Cycles per script phase.
const PHASE_LEN: usize = 4;
/// Phases per script: each of the five kinds twice.
const PHASES: usize = 10;
const CONTRACT: (f64, f64) = (1_500.0, 3_000.0);
const FT_FLOOR: u32 = 4;
const PERIOD_S: f64 = 0.01;

/// A tiny deterministic generator (64-bit LCG, high bits out), so the
/// fixture depends on nothing outside this file.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Uniform in `[0, 1)`, on a 1/1024 grid so values print short.
    fn unit(&mut self) -> f64 {
        (self.next() % 1024) as f64 / 1024.0
    }
}

/// Manager `m`'s script: phase kinds in a seeded order, values jittered.
/// Manager 1 also publishes a `nodeLoad` extra bean in its unbalanced
/// phases, so working memory changes layout and back; one cycle of every
/// script is a reconfiguration blackout, and the last one ends the stream.
fn script(m: usize) -> Vec<SensorSnapshot> {
    let mut rng = Lcg(0x5eed_0000 + m as u64);
    let mut kinds: Vec<usize> = (0..PHASES).map(|i| i % 5).collect();
    for i in (1..kinds.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let mut out = Vec::new();
    let mut lost = 0;
    for kind in kinds {
        if kind == 4 {
            lost += 1;
        }
        for _ in 0..PHASE_LEN {
            let jitter = 0.875 + 0.25 * rng.unit();
            let mut s = SensorSnapshot::empty(0.0);
            s.arrival_rate = 2_000.0 * jitter;
            s.departure_rate = 2_000.0 * jitter;
            s.num_workers = 6;
            s.queue_variance = rng.unit();
            s.queued_tasks = rng.next() % 64;
            s.service_time = 0.002;
            s.idle_for = 0.0;
            s.ft_min_workers = FT_FLOOR;
            s.workers_lost = lost;
            match kind {
                0 => {}
                1 => s.departure_rate = 1_000.0 * jitter,
                2 => s.departure_rate = 4_000.0 * jitter,
                3 => {
                    s.queue_variance = 6.0 + 4.0 * rng.unit();
                    if m == 1 {
                        s = s.with_extra("nodeLoad", rng.unit());
                    }
                }
                _ => {
                    s.num_workers = 2;
                    s.queue_variance = 2.0 * rng.unit();
                }
            }
            out.push(s);
        }
    }
    out[PHASE_LEN * 3 + 1].reconfiguring = true;
    out.last_mut().expect("scripts are not empty").end_of_stream = true;
    out
}

/// Plant responses: of every ten, one refused, one without effect.
fn outcomes(m: usize) -> Vec<Result<ActuationOutcome, AbcError>> {
    (0..4 * PHASES * PHASE_LEN)
        .map(|i| {
            Ok(match (i + m) % 10 {
                3 => ActuationOutcome::Refused {
                    reason: "scripted".into(),
                },
                7 => ActuationOutcome::NoOp,
                _ => ActuationOutcome::Applied,
            })
        })
        .collect()
}

fn manager(m: usize, log: EventLog) -> AutonomicManager {
    let abc = ScriptedAbc::new(script(m)).with_outcomes(outcomes(m));
    let mut cfg = ManagerConfig::farm(&format!("AM_G{m}"));
    cfg.control_period = PERIOD_S;
    cfg.max_workers = 16;
    cfg.extra_params
        .push((params::FT_MIN_WORKERS.to_owned(), f64::from(FT_FLOOR)));
    let rules = m < MANAGERS / 2;
    cfg.controller = if rules {
        ControllerKind::Rules
    } else {
        ControllerKind::Aimd
    };
    let mut manager = AutonomicManager::new(cfg, Box::new(abc), log);
    if rules {
        manager = manager.with_rules(farm_rules_with_ft());
    }
    manager
        .contract_slot()
        .post(Contract::throughput_range(CONTRACT.0, CONTRACT.1));
    manager
}

/// Runs the storm: the decision stream, one line per manager cycle, and
/// the journal's JSON lines.
fn run() -> (String, String) {
    let journal = Arc::new(Journal::new(1 << 16));
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let mut managers: Vec<_> = (0..MANAGERS).map(|m| manager(m, log.clone())).collect();
    let mut decisions = String::new();
    for cycle in 0..PHASES * PHASE_LEN {
        let now = cycle as f64 * PERIOD_S;
        for m in &mut managers {
            let ops = m.control_cycle(now);
            write!(decisions, "{cycle} {} {:?}", m.name(), m.state())
                .expect("a String takes any write");
            for call in &ops {
                match &call.data {
                    Some(data) => write!(decisions, " {}:{data}", call.operation),
                    None => write!(decisions, " {}", call.operation),
                }
                .expect("a String takes any write");
            }
            decisions.push('\n');
        }
    }
    (decisions, journal.to_jsonl())
}

#[test]
fn decisions_and_journal_match_the_recorded_fixtures() {
    let (decisions, jsonl) = run();
    let root = env!("CARGO_MANIFEST_DIR");
    let path = |rel: &str| format!("{root}/{rel}");
    if std::env::var_os("BSKEL_RECORD_GOLDEN").is_some() {
        std::fs::write(path(DECISIONS), &decisions).expect("fixture written");
        std::fs::write(path(JOURNAL), &jsonl).expect("fixture written");
    }
    let want_decisions = std::fs::read_to_string(path(DECISIONS)).expect("fixture present");
    let want_jsonl = std::fs::read_to_string(path(JOURNAL)).expect("fixture present");
    // Line by line first, so a divergence names its first line.
    for (i, (got, want)) in decisions.lines().zip(want_decisions.lines()).enumerate() {
        assert_eq!(got, want, "decision line {}", i + 1);
    }
    assert_eq!(decisions, want_decisions, "decision stream");
    for (i, (got, want)) in jsonl.lines().zip(want_jsonl.lines()).enumerate() {
        assert_eq!(got, want, "journal line {}", i + 1);
    }
    assert_eq!(jsonl, want_jsonl, "journal");
}

/// The fixtures exercise what they are meant to pin.
#[test]
fn the_storm_covers_both_laws_every_outcome_and_a_blackout() {
    let (decisions, jsonl) = run();
    for needle in [
        "\"controller\":\"rules\"",
        "\"controller\":\"aimd\"",
        "\"outcome\":\"applied\"",
        "\"outcome\":\"noop\"",
        "\"outcome\":\"refused:scripted\"",
        "\"kind\":\"workerLost\"",
        "\"kind\":\"addWorker\"",
        "\"kind\":\"removeWorker\"",
        "\"kind\":\"endStream\"",
        "[\"nodeLoad\",",
        "[\"reconfiguring\",1]",
    ] {
        assert!(jsonl.contains(needle), "journal lacks {needle}");
    }
    assert!(decisions.contains("Passive"), "no manager went passive");
    assert!(
        jsonl.len() + decisions.len() < 200 * 1024,
        "fixtures stay small"
    );
}

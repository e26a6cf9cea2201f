//! Ops plane, end to end: (1) a journal recorded off the *threaded*
//! self-healing soak replays event-for-event identically through a fresh
//! production manager on the simulator's scripted ABC, and (2) the
//! Prometheus exposition renders every standard-schema snapshot bean
//! exactly once, with the right metric types, and parses back.

use bskel_core::abc::standard_schema;
use bskel_core::contract::Contract;
use bskel_core::events::EventLog;
use bskel_core::manager::{AutonomicManager, ManagerConfig};
use bskel_monitor::expo::metric_name;
use bskel_monitor::journal::parse_jsonl;
use bskel_monitor::{Journal, JournalEntry, RealClock, ScrapeSeries, SensorSnapshot};
use bskel_sim::{replay_journal, JournalReplayProgram};
use bskel_skel::abc_impl::FarmAbc;
use bskel_skel::farm::{FarmBuilder, GatherPolicy};
use bskel_skel::runtime::ManagerDriver;
use bskel_skel::stream::StreamMsg;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TASKS: u64 = 800;
const FT_FLOOR: u32 = 3;

/// Records the fault-healing soak (threaded farm, real clock, worker
/// kills mid-stream) into a journal, round-trips the journal through
/// JSONL, and replays it against a fresh `AutonomicManager` running the
/// same rules/contract. The recording run is *not* deterministic — the
/// replay check is that the manager's decisions are a pure function of
/// the journaled inputs.
#[test]
fn recorded_soak_journal_replays_identically() {
    let journal = Journal::shared();

    let farm = FarmBuilder::from_fn(|x: u64| {
        std::thread::sleep(Duration::from_micros(200));
        x + 1
    })
    .name("ops-farm")
    .initial_workers(4)
    .max_workers(8)
    .gather(GatherPolicy::Unordered)
    .journal(Arc::clone(&journal))
    .build();
    let ctl = farm.control();
    let output = farm.output();

    let mut cfg = ManagerConfig::farm("AM_OPS");
    cfg.control_period = 0.005;
    cfg.add_batch = 2;
    cfg.extra_params.push((
        bskel_rules::stdlib::params::FT_MIN_WORKERS.to_owned(),
        f64::from(FT_FLOOR),
    ));
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let manager = AutonomicManager::new(
        cfg.clone(),
        Box::new(FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(FT_FLOOR)),
        log,
    )
    .with_rules(bskel_rules::stdlib::farm_rules_with_ft());
    manager.contract_slot().post(Contract::BestEffort);
    let driver = ManagerDriver::spawn(manager, Arc::new(RealClock::new()));

    let producer = {
        let tx = farm.input();
        std::thread::spawn(move || {
            for i in 0..TASKS {
                tx.send(StreamMsg::item(i, i)).unwrap();
                std::thread::sleep(Duration::from_micros(100));
            }
            tx.send(StreamMsg::End).unwrap();
        })
    };

    // Mid-stream fault burst: 4 -> 2 workers, below the FT floor.
    std::thread::sleep(Duration::from_millis(40));
    ctl.kill_workers(2).expect("4 workers are alive");
    let deadline = Instant::now() + Duration::from_secs(5);
    while ctl.num_workers() < FT_FLOOR as usize {
        assert!(
            Instant::now() < deadline,
            "AM never restored the pool: {} workers",
            ctl.num_workers()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut delivered = 0u64;
    for msg in output.iter() {
        match msg {
            StreamMsg::Item { .. } => delivered += 1,
            StreamMsg::End => break,
        }
    }
    assert_eq!(delivered, TASKS);
    producer.join().unwrap();
    driver.stop();
    farm.shutdown();

    // The journal captured the farm's fault events, the manager's event
    // lines AND every sensed snapshot.
    let records = journal.entries();
    assert!(
        records
            .iter()
            .any(|r| matches!(&r.entry, JournalEntry::Farm { source, .. } if source == "ops-farm")),
        "worker kills must be journaled as farm events"
    );
    let snapshots = records
        .iter()
        .filter(|r| matches!(&r.entry, JournalEntry::Snapshot { source, .. } if source == "AM_OPS"))
        .count();
    assert!(snapshots > 0, "control-loop inputs must be journaled");

    // JSONL round trip is lossless (floats included).
    let parsed = parse_jsonl(&journal.to_jsonl()).expect("journal parses back");
    assert_eq!(parsed, records, "JSONL round trip must be lossless");

    // Deterministic replay: same cfg, rules and contract; scripted ABC
    // fed the journaled snapshots at the journaled times.
    let report = replay_journal(
        &parsed,
        vec![JournalReplayProgram {
            cfg,
            rules: bskel_rules::stdlib::farm_rules_with_ft(),
            contract: Some(Contract::BestEffort),
        }],
    );
    assert_eq!(report.snapshots, snapshots);
    assert!(report.events > 0, "the soak must have produced event lines");
    assert!(
        report.identical(),
        "journal must replay identically: {:#?}",
        report.mismatches
    );
}

/// Every snapshot bean of the standard schema is exposed exactly once
/// per series, as a gauge, under its `bskel_`-prefixed snake-case name;
/// event counts come out as one `bskel_events_total` counter per kind;
/// and the whole document survives the exposition parser.
#[test]
fn metrics_exposition_covers_the_standard_schema() {
    let schema = standard_schema();
    let snapshot = SensorSnapshot::empty(1.5);
    let snapshot_beans: Vec<Cow<str>> = snapshot.to_beans().into_iter().map(|(n, _)| n).collect();

    // The schema's snapshot beans (everything except the hierarchy
    // flags, which only inter-manager coordination publishes) must all
    // be present in the rendered series.
    let hier: [&str; 3] = {
        use bskel_rules::stdlib::hier_beans;
        [
            hier_beans::VIOL_NOT_ENOUGH,
            hier_beans::VIOL_TOO_MUCH,
            hier_beans::END_STREAM,
        ]
    };
    for (bean, _) in schema.beans() {
        if hier.contains(&bean) {
            continue;
        }
        assert!(
            snapshot_beans.iter().any(|b| b == bean),
            "schema bean {bean} missing from SensorSnapshot::to_beans"
        );
    }

    let series = ScrapeSeries {
        tenant: "t0".into(),
        manager: "AM_X".into(),
        snapshot,
        event_counts: vec![("addWorker".into(), 3), ("contrLow".into(), 1)],
    };
    let text = bskel_monitor::expo::render(std::slice::from_ref(&series));
    let expo = bskel_monitor::expo::parse(&text).expect("rendered exposition parses");

    for bean in &snapshot_beans {
        let name = metric_name(bean);
        let samples = expo.samples_of(&name);
        assert_eq!(
            samples.len(),
            1,
            "bean {bean} must map to exactly one {name} sample"
        );
        assert_eq!(
            expo.type_of(&name),
            Some("gauge"),
            "bean {bean} must be typed gauge"
        );
        assert_eq!(samples[0].label("tenant"), Some("t0"));
        assert_eq!(samples[0].label("manager"), Some("AM_X"));
    }

    let events = expo.samples_of("bskel_events_total");
    assert_eq!(expo.type_of("bskel_events_total"), Some("counter"));
    assert_eq!(events.len(), 2, "one counter sample per event kind");
    let add = events
        .iter()
        .find(|s| s.label("kind") == Some("addWorker"))
        .expect("addWorker counter");
    assert_eq!(add.value, 3.0);
}

/// Exposition of [`golden_series`], recorded before the renderer stopped
/// building per-sample strings. Re-record with
/// `BLESS=1 cargo test --test ops_plane exposition_matches_the_recorded_bytes`.
const EXPO_FIXTURE: &str = "tests/fixtures/expo_four_series.prom";

/// Four series: extras on two of them (one family shared), one series
/// without events, label values that need escaping, and NaN/±Inf values.
fn golden_series() -> Vec<ScrapeSeries> {
    let mut busy = SensorSnapshot::empty(2.0);
    busy.arrival_rate = 12.5;
    busy.departure_rate = 0.1 + 0.2;
    busy.num_workers = 4;
    busy.queued_tasks = 17;
    busy.end_of_stream = true;
    busy.idle_for = 0.25;
    busy.aimd_ceiling = 6.0;
    let mut odd = SensorSnapshot::empty(3.0)
        .with_extra("node load!", f64::NAN)
        .with_extra("speedGainRatio", f64::NEG_INFINITY);
    odd.queue_variance = f64::NAN;
    odd.net_rtt_ms = f64::NEG_INFINITY;
    odd.service_time = f64::INFINITY;
    vec![
        ScrapeSeries {
            tenant: "default".into(),
            manager: "AM_F".into(),
            snapshot: busy.clone().with_extra("nodeLoad", 0.75),
            event_counts: vec![("addWorker".into(), 3), ("contrLow".into(), 2)],
        },
        ScrapeSeries {
            tenant: "t\"1\\\n".into(),
            manager: "AM_T".into(),
            snapshot: SensorSnapshot::empty(1.0),
            event_counts: vec![("shedLoad".into(), 1)],
        },
        ScrapeSeries {
            tenant: "_pool".into(),
            manager: "AM_P".into(),
            snapshot: odd,
            event_counts: Vec::new(),
        },
        ScrapeSeries {
            tenant: "default".into(),
            manager: "AM_S".into(),
            snapshot: busy.with_extra("nodeLoad", 1e-300),
            event_counts: vec![("addWorker".into(), 1), ("odd \"kind\"".into(), 7)],
        },
    ]
}

#[test]
fn exposition_matches_the_recorded_bytes() {
    let got = bskel_monitor::expo::render(&golden_series());
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPO_FIXTURE);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&fixture, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(&fixture).expect("fixture");
    assert!(
        got == want,
        "exposition changed; want {EXPO_FIXTURE}, got:\n{got}"
    );
}

/// Label values may hold `}` and `,`, which must not end the label set.
#[test]
fn label_values_with_braces_and_commas_parse_back() {
    let series = ScrapeSeries {
        tenant: "a}b".into(),
        manager: "x,y=\"z\"".into(),
        snapshot: SensorSnapshot::empty(0.0),
        event_counts: vec![("addWorker".into(), 2)],
    };
    let text = bskel_monitor::expo::render(std::slice::from_ref(&series));
    let expo = bskel_monitor::expo::parse(&text).expect("rendered exposition parses");
    let events = expo.samples_of("bskel_events_total");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].label("tenant"), Some("a}b"));
    assert_eq!(events[0].label("manager"), Some("x,y=\"z\""));
    assert_eq!(events[0].label("kind"), Some("addWorker"));
    assert_eq!(events[0].value, 2.0);
}

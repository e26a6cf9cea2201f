//! The farm-family paper experiments, run from their scenario files and
//! checked: FIG3 is `scenarios/fig3.json`, FT1's FT-rules arm is
//! `scenarios/fault_recovery.json`, and SEC1, ABL4, MIG1 and HOT1 are
//! `scenarios/experiments/*.json`. A sweep or a comparison arm sets
//! fields of the parsed config, the way `scenario_sweep.rs` sets
//! `controller`.
//!
//! Each test asserts the shape check its experiment's verdict printed as
//! `PASS`, and pins every number EXPERIMENTS.md tabulates for it. The
//! runs are discrete-event simulations, so the numbers reproduce exactly.

use std::path::PathBuf;

use bskel_bench::config::{ScenarioConfig, SecurePolicyConfig};
use bskel_core::contract::Contract;
use bskel_core::events::EventKind;
use bskel_rules::op;
use bskel_sim::{FarmOutcome, Trace};

/// Runs `scenarios/<$file>.json` with the given `farm` fields replaced.
macro_rules! farm {
    ($file:expr $(, $field:ident = $value:expr)* $(,)?) => {{
        let mut cfg = load($file);
        let ScenarioConfig::Farm { $($field,)* .. } = &mut cfg else {
            panic!("{} is not a farm scenario", $file);
        };
        $(*$field = $value;)*
        cfg.run_farm().expect("a farm scenario")
    }};
}

fn load(file: &str) -> ScenarioConfig {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{file}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioConfig::from_json(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn secs(t: Option<f64>) -> String {
    t.map_or_else(|| "never".into(), |t| format!("{t:.0} s"))
}

#[test]
fn fig3_staircase_meets_the_sla() {
    let o = farm!("fig3");
    let rate = o.final_snapshot.departure_rate;
    let workers = o.final_snapshot.num_workers;
    let workers_trace = o.trace.get("workers");
    let mut staircase: Vec<f64> = workers_trace.iter().map(|&(_, w)| w).collect();
    staircase.dedup();
    // The best one worker delivers before the second joins.
    let one_worker = workers_trace
        .iter()
        .zip(o.trace.get("throughput"))
        .filter(|((_, w), _)| *w == 1.0)
        .map(|(_, &(_, r))| r)
        .fold(0.0, f64::max);
    let settle = o.time_to_contract.expect("fig3 settles");
    let late_contr_low = o
        .events_of(&EventKind::ContrLow)
        .iter()
        .filter(|e| e.at > settle)
        .count();
    assert_eq!(
        format!(
            "1 worker {one_worker:.3} task/s, final {rate:.3} task/s, {workers} workers \
             {staircase:?}, {} addWorker, settle {}, {} tasks, {late_contr_low} contrLow after",
            o.events_of(&EventKind::AddWorker).len(),
            secs(Some(settle)),
            o.tasks_done,
        ),
        "1 worker 0.200 task/s, final 0.800 task/s, 4 workers \
         [1.0, 2.0, 3.0, 4.0], 3 addWorker, settle 35 s, 225 tasks, 0 contrLow after"
    );
    assert!(
        rate >= 0.6 * 0.9 && workers >= 3,
        "PASS (contract met with >= ceil(0.6*5)=3 workers)"
    );
}

#[test]
fn ft1_recovers_with_either_concern_manager() {
    // The file is the FT-rules arm; the other two drop the FT floor.
    let none = farm!("fault_recovery", ft_min_workers = None);
    let perf = farm!(
        "fault_recovery",
        contract = Contract::min_throughput(0.6),
        ft_min_workers = None,
    );
    let ft = farm!("fault_recovery");
    // First return to >= 3 workers after the failure at t=60.
    let recovery = |trace: &Trace| {
        trace
            .get("workers")
            .iter()
            .find(|&&(t, w)| t > 60.0 && w >= 3.0)
            .map(|&(t, _)| t - 60.0)
    };
    let arm = |name: &str, o: &FarmOutcome| {
        format!(
            "{name}: {} workers, recovery {}",
            o.final_snapshot.num_workers,
            secs(recovery(&o.trace)),
        )
    };
    assert_eq!(
        [
            arm("none", &none),
            arm("perf-driven", &perf),
            arm("ft-rules", &ft),
            format!("re-executed: {}", ft.reexecuted_tasks),
        ],
        [
            "none: 1 workers, recovery never",
            "perf-driven: 4 workers, recovery 15 s",
            "ft-rules: 3 workers, recovery 10 s",
            "re-executed: 2",
        ]
    );
    assert!(
        none.final_snapshot.num_workers == 1
            && perf.final_snapshot.num_workers >= 3
            && ft.final_snapshot.num_workers >= 3,
        "PASS (degraded without a concern manager; recovered with either)"
    );
}

/// SEC1's cells: `untrusted/8 policy: tasks, violations, handshakes`.
const SEC1_CELLS: [&str; 15] = [
    "0/8 never: 374 tasks, 0 violations, 0 handshakes",
    "0/8 always: 271 tasks, 0 violations, 8 handshakes",
    "0/8 selective: 374 tasks, 0 violations, 0 handshakes",
    "2/8 never: 374 tasks, 99 violations, 0 handshakes",
    "2/8 always: 271 tasks, 0 violations, 8 handshakes",
    "2/8 selective: 352 tasks, 0 violations, 2 handshakes",
    "4/8 never: 374 tasks, 203 violations, 0 handshakes",
    "4/8 always: 271 tasks, 0 violations, 8 handshakes",
    "4/8 selective: 326 tasks, 0 violations, 4 handshakes",
    "6/8 never: 374 tasks, 317 violations, 0 handshakes",
    "6/8 always: 271 tasks, 0 violations, 8 handshakes",
    "6/8 selective: 296 tasks, 0 violations, 6 handshakes",
    "8/8 never: 374 tasks, 481 violations, 0 handshakes",
    "8/8 always: 271 tasks, 0 violations, 8 handshakes",
    "8/8 selective: 271 tasks, 0 violations, 8 handshakes",
];

#[test]
fn sec1_selective_securing_is_clean_and_pays_only_where_needed() {
    let mut cells = Vec::new();
    let mut runs = Vec::new();
    for untrusted in [0, 2, 4, 6, 8] {
        for (name, policy) in [
            ("never", SecurePolicyConfig::Never),
            ("always", SecurePolicyConfig::Always),
            ("selective", SecurePolicyConfig::IfUntrusted),
        ] {
            let o = farm!(
                "experiments/security_cost",
                nodes = Some((8 - untrusted, untrusted)),
                secure = Some(policy),
            );
            cells.push(format!(
                "{untrusted}/8 {name}: {} tasks, {} violations, {} handshakes",
                o.tasks_done, o.plaintext_to_untrusted, o.handshakes
            ));
            runs.push(((untrusted, name), (o.tasks_done, o.plaintext_to_untrusted)));
        }
    }
    assert_eq!(cells, SEC1_CELLS);
    let get = |untrusted: usize, name: &str| {
        runs.iter()
            .find(|(key, _)| *key == (untrusted, name))
            .map(|&(_, cell)| cell)
            .expect("cell ran")
    };
    let all_trusted_gap = get(0, "selective").0.abs_diff(get(0, "never").0);
    let all_untrusted_gap = get(8, "selective").0.abs_diff(get(8, "always").0);
    assert!(
        all_trusted_gap <= 5
            && all_untrusted_gap <= 5
            && get(4, "never").1 > 0
            && [0, 2, 4, 6, 8].iter().all(|&u| get(u, "selective").1 == 0),
        "PASS"
    );
}

#[test]
fn abl4_model_init_is_never_slower_than_the_reactive_ramp() {
    let mut rows = Vec::new();
    let mut all_faster = true;
    for service in [5.0, 10.0, 20.0, 40.0] {
        let ttc = |model| {
            farm!(
                "experiments/ablation_model_init",
                service_time = service,
                model_initial_setup = model,
            )
            .time_to_contract
        };
        let (reactive, model) = (ttc(false), ttc(true));
        all_faster &= matches!((reactive, model), (Some(r), Some(m)) if m <= r);
        rows.push(format!(
            "{service} s, target {}: reactive {}, model-init {}",
            (0.6 * service).ceil(),
            secs(reactive),
            secs(model),
        ));
    }
    assert_eq!(
        rows,
        [
            "5 s, target 3: reactive 33 s, model-init 22 s",
            "10 s, target 6: reactive 63 s, model-init 23 s",
            "20 s, target 12: reactive 120 s, model-init 34 s",
            "40 s, target 24: reactive 240 s, model-init 54 s",
        ]
    );
    assert!(all_faster, "PASS (model-init never slower)");
}

#[test]
fn mig1_migration_restores_speed_without_extra_cores() {
    // The file is the migration-only arm.
    let stuck = farm!("experiments/migration", migrate_min_gain = None);
    let growth = farm!(
        "experiments/migration",
        contract = Contract::min_throughput(0.55),
        migrate_min_gain = None,
    );
    let migrate = farm!("experiments/migration");
    let late = |o: &FarmOutcome| o.trace.mean_over("throughput", 300.0, 400.0).unwrap_or(0.0);
    let migrations = migrate
        .events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Other(s) if s == op::MIGRATE_SLOWEST))
        .count();
    let arm = |name: &str, o: &FarmOutcome| {
        format!(
            "{name}: {:.3} task/s with {} workers",
            late(o),
            o.final_snapshot.num_workers
        )
    };
    assert_eq!(
        [
            arm("no adaptation", &stuck),
            arm("growth-only", &growth),
            format!(
                "{} after {migrations} migrations",
                arm("migration-only", &migrate)
            ),
        ],
        [
            "no adaptation: 0.150 task/s with 3 workers",
            "growth-only: 0.950 task/s with 7 workers",
            "migration-only: 0.600 task/s with 3 workers after 3 migrations",
        ]
    );
    assert!(
        late(&migrate) > late(&stuck) * 1.5
            && migrate.final_snapshot.num_workers <= growth.final_snapshot.num_workers,
        "PASS (migration restores speed without extra cores)"
    );
}

#[test]
fn hot1_contract_holds_through_and_after_the_hot_spot() {
    let o = farm!("experiments/hotspot_adaptation");
    let adds = o
        .events_of(&EventKind::AddWorker)
        .iter()
        .filter(|e| e.at >= 120.0 && e.at < 250.0)
        .count();
    let during = o.trace.mean_over("throughput", 200.0, 240.0).unwrap_or(0.0);
    let after = o.trace.mean_over("throughput", 300.0, 340.0).unwrap_or(0.0);
    let peak = o.trace.max("workers").unwrap_or(0.0);
    assert_eq!(
        format!(
            "{adds} adds in the window, {during:.3} task/s late in it, \
             {after:.3} task/s after, peak {peak:.0} workers"
        ),
        "9 adds in the window, 0.662 task/s late in it, 1.350 task/s after, peak 13 workers"
    );
    assert!(
        adds > 0 && during >= 0.5 && after >= 0.55,
        "PASS (contract held through and after the hot spot)"
    );
}

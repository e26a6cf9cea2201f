//! CTRL1's scenario sweep: every shipped `scenarios/*.json` run once per
//! control law ([`ControllerKind::all`]) through the same
//! [`ScenarioConfig::from_json`] + [`ScenarioConfig::run`] path
//! `run_scenario` uses.
//!
//! Gates:
//!
//! * fig3 and fig4 reach their contract floor under every law, or the
//!   law is not a viable drop-in for the rule program;
//! * no scenario sends a plaintext task to an untrusted node;
//! * the four discrete-event scenarios reproduce exactly: each row is
//!   pinned to the numbers EXPERIMENTS.md CTRL1 tabulates.
//! * fig3 over-provisioned (8 workers, a 0.3–0.5 task/s range) sheds
//!   workers under AIMD, and its two rows are pinned too: it is the one
//!   run that depends on AIMD's multiplicative-decrease factor.
//!
//! `multi_tenant` runs on the threaded substrate in wall-clock seconds,
//! so its rates do not reproduce and are not asserted here (the rate is
//! `throughput_tps @ tenants_mixed` of `bskel-perf`); it is shrunk to at
//! most 2 s and must complete tasks under every law.

use std::path::PathBuf;

use bskel_bench::config::{RunReport, ScenarioConfig};
use bskel_core::contract::Contract;
use bskel_core::ControllerKind;

/// The discrete-event scenarios, in table order.
const SIM_SCENARIOS: [&str; 4] = ["fig3", "fig4", "fault_recovery", "secure_mixed_pool"];

/// CTRL1's sim rows: `scenario/law: throughput, violations, settle,
/// worker-seconds, final workers`.
const CTRL1_SIM_ROWS: [&str; 8] = [
    "fig3/rules: thr 0.800, viol 11, settle 35.00, 1124.0 w-s, 4 workers",
    "fig3/aimd: thr 0.800, viol 11, settle 35.00, 1124.0 w-s, 4 workers",
    "fig4/rules: thr 0.500, viol 309, settle 18.00, 1461.0 w-s, 5 workers",
    "fig4/aimd: thr 0.400, viol 150, settle 18.00, 1179.0 w-s, 4 workers",
    "fault_recovery/rules: thr 0.600, viol 0, settle 1.00, 697.0 w-s, 3 workers",
    "fault_recovery/aimd: thr 0.600, viol 0, settle 1.00, 697.0 w-s, 3 workers",
    "secure_mixed_pool/rules: thr 3.300, viol 42, settle 75.00, 690.0 w-s, 8 workers",
    "secure_mixed_pool/aimd: thr 3.300, viol 80, settle 75.00, 690.0 w-s, 8 workers",
];

/// fig3 over-provisioned, 8 workers under a 0.3–0.5 task/s range: the one
/// row where a law must shed workers, so the one that drives AIMD's
/// multiplicative decrease.
const OVER_PROVISIONED_ROWS: [&str; 2] = [
    "fig3 over-provisioned/rules: thr 0.400, viol 196, settle 7.00, 590.0 w-s, 1 workers",
    "fig3 over-provisioned/aimd: thr 0.400, viol 196, settle 7.00, 596.0 w-s, 1 workers",
];

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Loads `scenarios/<name>.json` with the `controller` field set to
/// `law`, shrinking the wall-clock `multi_tenant` run to at most 2 s with
/// a control period of at most 0.25 s.
fn load(name: &str, law: ControllerKind) -> ScenarioConfig {
    let path = scenarios_dir().join(format!("{name}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut cfg = ScenarioConfig::from_json(&text)
        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    let named = Some(law.as_str().to_owned());
    match &mut cfg {
        ScenarioConfig::Farm { controller, .. } | ScenarioConfig::Pipeline { controller, .. } => {
            *controller = named;
        }
        ScenarioConfig::MultiTenant {
            controller,
            duration,
            control_period,
            ..
        } => {
            *controller = named;
            *duration = duration.min(2.0);
            *control_period = control_period.min(0.25);
        }
    }
    assert_eq!(cfg.controller(), Ok(law), "{name}: controller not pinned");
    cfg
}

fn run(name: &str, law: ControllerKind) -> RunReport {
    let report = load(name, law).run().0;
    assert_eq!(
        report.security_violations, 0,
        "{name}/{law}: plaintext task sent to an untrusted node"
    );
    report
}

fn row(name: &str, law: ControllerKind, r: &RunReport) -> String {
    let settle = r
        .time_to_contract
        .map_or_else(|| "never".into(), |t| format!("{t:.2}"));
    format!(
        "{name}/{law}: thr {:.3}, viol {}, settle {settle}, {:.1} w-s, {} workers",
        r.throughput, r.violations, r.worker_seconds, r.workers,
    )
}

#[test]
fn the_sweep_covers_every_scenario_file() {
    let mut found: Vec<String> = std::fs::read_dir(scenarios_dir())
        .expect("read scenarios/")
        .map(|e| e.expect("scenario dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    found.sort();
    let mut swept: Vec<&str> = SIM_SCENARIOS.into_iter().chain(["multi_tenant"]).collect();
    swept.sort_unstable();
    assert_eq!(found, swept, "a scenario file is not swept, or is gone");
}

#[test]
fn sim_scenarios_settle_stay_secure_and_reproduce_ctrl1() {
    let mut rows = Vec::new();
    for name in SIM_SCENARIOS {
        for law in ControllerKind::all() {
            let r = run(name, law);
            if matches!(name, "fig3" | "fig4") {
                assert!(
                    r.time_to_contract.is_some(),
                    "{name}/{law} never reached its contract floor: {r:?}"
                );
            }
            rows.push(row(name, law, &r));
        }
    }
    assert_eq!(rows, CTRL1_SIM_ROWS);
}

#[test]
fn multi_tenant_completes_tasks_under_every_law() {
    for law in ControllerKind::all() {
        let r = run("multi_tenant", law);
        assert!(
            r.tasks_done > 0,
            "multi_tenant/{law} completed nothing: {r:?}"
        );
    }
}

#[test]
fn over_provisioned_fig3_sheds_workers() {
    let mut rows = Vec::new();
    for law in ControllerKind::all() {
        let mut cfg = load("fig3", law);
        let ScenarioConfig::Farm {
            initial_workers,
            contract,
            ..
        } = &mut cfg
        else {
            panic!("fig3 is a farm scenario");
        };
        *initial_workers = 8;
        *contract = Contract::throughput_range(0.3, 0.5);
        let r = cfg.run().0;
        if law == ControllerKind::Aimd {
            assert!(r.workers < 8, "AIMD kept every worker: {r:?}");
        }
        rows.push(row("fig3 over-provisioned", law, &r));
    }
    assert_eq!(rows, OVER_PROVISIONED_ROWS);
}

//! The `rulemc` driver: explicit-state model checking of `.rules`
//! programs and of the rule programs a scenario JSON implies.
//!
//! Where `rulelint` decides what a program *could* do from its syntax
//! (shadowing, dormancy, heuristic oscillation), `rulemc` builds the
//! closed loop — rule program × operation-effect table × interval-
//! abstracted plant — and explores every reachable abstract state. It
//! proves (or refutes with a concrete, simulator-replayable trace):
//!
//! * **recovery within k** — from every reachable contract-violating
//!   state, some violation-free (or escalated) state is reached within
//!   `k` control firings;
//! * **livelock freedom** — no reachable cycle on which the controller
//!   fires forever without the environment moving (a lasso proof, not
//!   the `W-oscillation` syntactic heuristic);
//! * **dead rules** — rules that fire in no reachable state under any
//!   modelled environment.
//!
//! For a bare `.rules` file the program is checked under its canonical
//! deployment: the parameter table and contract spec the standard
//! scenarios bind it with (e.g. `farm.rules` under a 0.4–0.8 tasks/s
//! throughput range). For a `scenarios/*.json` file the driver
//! reconstructs what `run_scenario` would build — including the
//! farm-child/pipeline-parent *composition* for hierarchy scenarios —
//! and checks each loop with the deployment's actual thresholds.

use crate::config::ScenarioConfig;
use crate::rulelint::{farm_deployment, tenant_params};
use bskel_core::contract::Contract;
use bskel_core::{ControllerKind, ManagerConfig};
use bskel_rules::analysis::Severity;
use bskel_rules::{
    parse_rules, stdlib, throughput_violation, Cmp, Condition, Counterexample, EnvMove, McError,
    McReport, ModelChecker, ParamTable, Spec,
};
use bskel_sim::sim_bean_schema;
use bskel_tenancy::arbiter_config;

/// One model-checking run: a program (or composition) label plus the
/// checker's outcome for it.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Program label (`farm`, `producer`, `farm+pipeline`, ...).
    pub program: String,
    /// The report, or why the model could not be built/explored.
    pub result: Result<McReport, McError>,
}

impl CheckOutcome {
    /// Error-severity findings: property violations, or a model-build
    /// failure (an unexplored program proves nothing).
    pub(crate) fn error_count(&self) -> usize {
        match &self.result {
            Ok(r) => r
                .to_diagnostics()
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            Err(_) => 1,
        }
    }

    /// Warning-severity findings (dead rules).
    pub(crate) fn warning_count(&self) -> usize {
        match &self.result {
            Ok(r) => r
                .to_diagnostics()
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count(),
            Err(_) => 0,
        }
    }
}

/// Model-checking results for one input file.
#[derive(Debug)]
pub struct FileReport {
    /// The path (or label) the content came from.
    pub path: String,
    /// Fatal parse/decode failure, if the file never reached checking.
    pub parse_error: Option<String>,
    /// One outcome per checked control loop.
    pub checks: Vec<CheckOutcome>,
}

impl FileReport {
    /// Number of error-severity findings (a parse failure counts as one).
    pub(crate) fn error_count(&self) -> usize {
        self.parse_error.iter().len()
            + self
                .checks
                .iter()
                .map(CheckOutcome::error_count)
                .sum::<usize>()
    }

    /// Number of warning-severity findings.
    pub(crate) fn warning_count(&self) -> usize {
        self.checks.iter().map(CheckOutcome::warning_count).sum()
    }

    /// Renders one summary line per check plus `rulelint`-style
    /// diagnostic lines for every finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(e) = &self.parse_error {
            out.push_str(&format!("{}: error[parse]: {e}\n", self.path));
        }
        for check in &self.checks {
            match &check.result {
                Ok(r) => {
                    let recovery = match &r.recovery {
                        None => "skipped".to_string(),
                        Some(v) if v.proved() => "proved".to_string(),
                        Some(_) => "VIOLATED".to_string(),
                    };
                    let livelock = if r.livelock.proved() {
                        "proved"
                    } else {
                        "VIOLATED"
                    };
                    out.push_str(&format!(
                        "{}: [{}] {} states, {} transitions, recovery {recovery}, livelock {livelock}, {} dead rule(s) ({:.1?})\n",
                        self.path, check.program, r.states, r.transitions, r.dead_rules.len(), r.wall
                    ));
                    for d in r.to_diagnostics() {
                        out.push_str(&format!("{}: [{}] {d}\n", self.path, check.program));
                    }
                }
                Err(e) => {
                    out.push_str(&format!(
                        "{}: [{}] error[model]: {e}\n",
                        self.path, check.program
                    ));
                }
            }
        }
        out
    }

    /// True when every check proved every property with no findings.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }

    /// All counterexamples across this file's checks, with the program
    /// label each belongs to.
    pub fn counterexamples(&self) -> Vec<(&str, &Counterexample)> {
        self.checks
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|r| (c.program.as_str(), r)))
            .flat_map(|(label, r)| r.counterexamples().into_iter().map(move |c| (label, c)))
            .collect()
    }
}

/// The canonical deployment of a shipped `.rules` file: the parameter
/// table and property spec the standard scenarios bind it with. Returns
/// `None` for unrecognised file names (those are checked with an empty
/// parameter table — parameterised programs then fail honestly with
/// `UnboundParams` rather than being silently skipped).
fn canonical_deployment(path: &str) -> Option<(ParamTable, Spec)> {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    match stem {
        // Fig. 5 farm program under the reference 0.4–0.8 tasks/s
        // throughput-range contract over a 2..16-worker pool.
        "farm" => Some((
            stdlib::farm_params(0.4, 0.8, 2, 16, 4.0),
            Spec::default()
                .violation(throughput_violation(0.4, 0.8).expect("finite bounds"))
                .throughput_plant()
                .initial("numWorkers", 0.0, 16.0),
        )),
        // Fault-tolerance program maintaining a 3-worker floor; the
        // "contract" here is the floor itself.
        "fault" => Some((
            stdlib::fault_params(3),
            Spec::default()
                .violation(Condition::bean_vs_const("numWorkers", Cmp::Lt, 3.0))
                .initial("numWorkers", 0.0, 16.0),
        )),
        // Producer stage under a 0.4–0.8 output-rate contract; once the
        // stream ends, under-rate states are waived (the paper's AM
        // stops reacting to notEnough after end-of-stream).
        "producer" => Some((
            stdlib::producer_params(0.4, 0.8),
            Spec::default()
                .violation(throughput_violation(0.4, 0.8).expect("finite bounds"))
                .waiver(Condition::flag("endOfStream"))
                .env("endOfStream", EnvMove::UpOnly),
        )),
        // Concern programs with no leaf contract of their own: livelock
        // freedom and dead rules only.
        "migrate" => Some((stdlib::migrate_params(1.5), Spec::default())),
        "resilience" => Some((stdlib::resilience_params(16), Spec::default())),
        // Tenancy program under the reference tenant deployment (see
        // `tenancy_spec`).
        "tenancy" => Some((tenancy_params_canonical(), tenancy_spec())),
        _ => None,
    }
}

/// The reference tenant deployment: a 0.4–0.8 tasks/s contract stripe,
/// share weight bounded to [0.1, 0.8], a 64-task admission bound, and a
/// 16-worker shared-pool ceiling.
fn tenancy_params_canonical() -> ParamTable {
    stdlib::tenancy_params(0.4, 0.8, 0.1, 0.8, 64, 16)
}

/// The tenancy property spec. A tenant is *violating* when it has backlog
/// yet is delivered below its floor (a tenant whose offered load is simply
/// low is not starved — hence the conjunction). Delivered throughput is a
/// min-plant over offered demand: `GROW_SHARE`/`ADD_EXECUTOR` raise the
/// hidden capacity input, and a starved tenant whose demand itself is
/// below the floor recovers by escalating at the share ceiling (shedding
/// at admission time is invisible to this abstraction — the queue never
/// drains on its own — so escalation legitimately discharges).
fn tenancy_spec() -> Spec {
    Spec::default()
        .violation(Condition::And(vec![
            Condition::bean_vs_const("tenantThroughput", Cmp::Lt, 0.4),
            Condition::bean_vs_const("tenantQueueDepth", Cmp::Gt, 0.0),
        ]))
        .min_plant("tenantThroughput", "arrivalRate")
        .initial("numWorkers", 0.0, 16.0)
        .initial("tenantShare", 0.0, 1.0)
}

/// Model-checks file content by extension: `.json` is treated as a
/// scenario configuration, anything else as `.rules` program text.
pub fn check_content(path: &str, content: &str) -> FileReport {
    if path.ends_with(".json") {
        check_scenario(path, content)
    } else {
        check_rules_text(path, content)
    }
}

/// Model-checks a `.rules` program under its canonical deployment (see
/// module docs).
pub(crate) fn check_rules_text(path: &str, src: &str) -> FileReport {
    let set = match parse_rules(src) {
        Ok(s) => s,
        Err(e) => {
            return FileReport {
                path: path.to_string(),
                parse_error: Some(e.to_string()),
                checks: Vec::new(),
            }
        }
    };
    let checker = ModelChecker::new(sim_bean_schema());
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    // The pipeline coordinator's `violNotEnough`/`violTooMuch` beans are
    // derived from the child's mailbox each cycle, not free environment
    // inputs: checked standalone they would persist across cycles and
    // manufacture a spurious livelock. Its canonical deployment is the
    // closed hierarchy loop over the reference farm child.
    let check = if stem == "pipeline" {
        CheckOutcome {
            program: "farm+pipeline".to_string(),
            result: checker.check_composed(
                (
                    "farm",
                    &stdlib::farm_rules(),
                    &stdlib::farm_params(0.4, 0.8, 2, 16, 4.0),
                ),
                ("pipeline", &set, &ParamTable::new()),
                &Spec::default()
                    .violation(throughput_violation(0.4, 0.8).expect("finite bounds"))
                    .throughput_plant()
                    .initial("numWorkers", 0.0, 16.0)
                    .waiver(Condition::flag("endStream"))
                    .env("endStream", EnvMove::UpOnly)
                    .escalation_discharges(false)
                    .recovery_k(12),
            ),
        }
    } else {
        let (params, spec) =
            canonical_deployment(path).unwrap_or_else(|| (ParamTable::new(), Spec::default()));
        CheckOutcome {
            result: checker.check(&stem, &set, &params, &spec),
            program: stem,
        }
    };
    FileReport {
        path: path.to_string(),
        parse_error: None,
        checks: vec![check],
    }
}

/// The farm property spec implied by a scenario's contract: violation
/// and plant from the throughput bounds, initial pool from the
/// parallelism-degree bounds in the manager's derived `params`.
fn farm_spec_for(contract: &Contract, params: &ParamTable) -> Spec {
    let (lo, hi) = contract.throughput_bounds().unwrap_or((0.0, f64::INFINITY));
    let workers = |name| params.get(name).expect("farm parameters bound");
    let mut spec = Spec::default().initial(
        "numWorkers",
        workers(stdlib::params::FARM_MIN_NUM_WORKERS),
        workers(stdlib::params::FARM_MAX_NUM_WORKERS),
    );
    if let Some(v) = throughput_violation(lo, hi) {
        spec = spec.violation(v).throughput_plant();
    }
    spec
}

/// Model-checks the control loops a scenario JSON implies.
pub(crate) fn check_scenario(path: &str, json: &str) -> FileReport {
    let (parse_error, checks) = match ScenarioConfig::from_json(json) {
        Ok(cfg) => (None, check_scenario_config(&cfg)),
        Err(e) => (Some(format!("bad scenario config: {e}")), Vec::new()),
    };
    FileReport {
        path: path.to_string(),
        parse_error,
        checks,
    }
}

/// Model-checks the control loops implied by a scenario configuration.
///
/// Controller-aware: a manager handed to the `aimd` law runs no rule
/// program, so there is no rule × effect-table loop to model — its
/// checks are skipped. An unknown law name fails [`ScenarioConfig::from_json`].
pub(crate) fn check_scenario_config(cfg: &ScenarioConfig) -> Vec<CheckOutcome> {
    let checker = ModelChecker::new(sim_bean_schema());
    let mut out = Vec::new();
    match cfg {
        ScenarioConfig::Farm {
            contract,
            ft_min_workers,
            migrate_min_gain,
            ..
        } => {
            if cfg.controller() == Ok(ControllerKind::Aimd) {
                // The farm manager is the scenario's only manager, and
                // AIMD loads no rules.
                return out;
            }
            // The farm manager runs one merged program: check the merge,
            // not the concerns in isolation — interaction bugs (an FT
            // floor fighting the performance ceiling) only exist in the
            // product.
            let (merged, params) = farm_deployment(contract, *ft_min_workers, *migrate_min_gain);
            let mut spec = farm_spec_for(contract, &params);
            // Under a best-effort throughput contract the FT floor *is*
            // the contract: losing workers below it must be repaired
            // within k firings.
            if let (Some(ft), None) = (ft_min_workers, &spec.violation) {
                spec = spec.violation(Condition::bean_vs_const(
                    "numWorkers",
                    Cmp::Lt,
                    f64::from(*ft),
                ));
            }
            out.push(CheckOutcome {
                program: "farm".to_string(),
                result: checker.check("farm", &merged, &params, &spec),
            });
        }
        ScenarioConfig::Pipeline {
            initial_rate,
            contract,
            ..
        } => {
            // Only the farm stage honours the controller selection; the
            // coordinator and producer loops stay rule-driven regardless.
            let farm_is_ruled = cfg.controller() != Ok(ControllerKind::Aimd);
            // Leaf loops first: the producer under its own output-rate
            // contract, the farm stage under the application SLA.
            let source = Contract::output_rate(*initial_rate);
            let (floor, ceil) = source.output_rate_bounds().unwrap_or((0.0, f64::INFINITY));
            let producer_spec = {
                let mut s = Spec::default()
                    .waiver(Condition::flag("endOfStream"))
                    .env("endOfStream", EnvMove::UpOnly);
                if let Some(v) = throughput_violation(floor, ceil) {
                    s = s.violation(v);
                }
                s
            };
            out.push(CheckOutcome {
                program: "producer".to_string(),
                result: checker.check(
                    "producer",
                    &stdlib::producer_rules(),
                    &ManagerConfig::producer("producer").params(&source),
                    &producer_spec,
                ),
            });
            if farm_is_ruled {
                let farm_params = ManagerConfig::farm("farm").params(contract);
                out.push(CheckOutcome {
                    program: "farm".to_string(),
                    result: checker.check(
                        "farm",
                        &stdlib::farm_rules(),
                        &farm_params,
                        &farm_spec_for(contract, &farm_params),
                    ),
                });
                // The hierarchy composition: farm child escalates, pipeline
                // parent retunes the source. Escalation no longer discharges
                // recovery — the parent is in the model, so the obligation is
                // that the *closed* loop actually recovers.
                let composed_spec = farm_spec_for(contract, &farm_params)
                    .waiver(Condition::flag("endStream"))
                    .env("endStream", EnvMove::UpOnly)
                    .escalation_discharges(false)
                    .recovery_k(12);
                out.push(CheckOutcome {
                    program: "farm+pipeline".to_string(),
                    result: checker.check_composed(
                        ("farm", &stdlib::farm_rules(), &farm_params),
                        ("pipeline", &stdlib::pipeline_rules(), &ParamTable::new()),
                        &composed_spec,
                    ),
                });
            }
        }
        ScenarioConfig::MultiTenant {
            tenants,
            max_workers,
            ..
        } => {
            // One loop per tenant, under the parameters its manager
            // derives from that tenant's own contract. Escalation keeps
            // discharging recovery even though an arbiter exists: pool
            // growth raises delivered *capacity*, never offered demand,
            // and admission-time shedding is invisible to the interval
            // plant — so a tenant starved for lack of demand can only
            // discharge its obligation by raising.
            for t in tenants {
                out.push(CheckOutcome {
                    program: t.name.clone(),
                    result: checker.check(
                        "tenancy",
                        &stdlib::tenancy_rules(),
                        &tenant_params(&t.contract, *max_workers),
                        &tenant_spec_for(&t.contract, *max_workers),
                    ),
                });
            }
            // The hierarchy composition: the most demanding tenant's
            // RAISE_VIOLATION (data `tooMuchTasks`) sets the arbiter's
            // `violTooMuch` bean, whose pool-growth rule must neither
            // livelock against the child's share ops nor sit dead. The
            // arbiter runs the same program with its share pinned to 1.0,
            // so the share rules are (deliberately) dormant in the parent.
            let demanding = tenants.iter().max_by(|a, b| {
                let floor = |c: &Contract| c.throughput_bounds().map_or(0.0, |(lo, _)| lo);
                floor(&a.contract).total_cmp(&floor(&b.contract))
            });
            // An AIMD arbiter runs no rules, so there is no child+arbiter
            // rule composition to check — the per-tenant loops above
            // (always rule-driven) remain the checked surface.
            let arbiter_is_ruled = cfg.controller() != Ok(ControllerKind::Aimd);
            if let Some(t) = demanding.filter(|_| arbiter_is_ruled) {
                out.push(CheckOutcome {
                    program: format!("{}+arbiter", t.name),
                    result: checker.check_composed(
                        (
                            "tenant",
                            &stdlib::tenancy_rules(),
                            &tenant_params(&t.contract, *max_workers),
                        ),
                        (
                            "arbiter",
                            &stdlib::tenancy_rules(),
                            &arbiter_config(*max_workers).params(&Contract::BestEffort),
                        ),
                        &tenant_spec_for(&t.contract, *max_workers),
                    ),
                });
            }
        }
    }
    out
}

/// The tenancy property spec a scenario tenant implies: starvation is
/// *backlogged delivery below the floor* (demand-starved tenants are not
/// violating), delivered throughput is a min-plant over offered demand.
/// Mirrors `tenancy_spec` with the scenario's own floor and pool ceiling.
fn tenant_spec_for(contract: &Contract, max_workers: u32) -> Spec {
    let (lo, _hi) = contract.throughput_bounds().unwrap_or((0.0, f64::INFINITY));
    let mut spec = Spec::default()
        .min_plant("tenantThroughput", "arrivalRate")
        .initial("numWorkers", 0.0, f64::from(max_workers))
        .initial("tenantShare", 0.0, 1.0);
    if lo > 0.0 {
        spec = spec.violation(Condition::And(vec![
            Condition::bean_vs_const("tenantThroughput", Cmp::Lt, lo),
            Condition::bean_vs_const("tenantQueueDepth", Cmp::Gt, 0.0),
        ]));
    }
    spec
}

/// Serializes a counterexample as the JSON artifact format the CI
/// `verify` job uploads: one object per trace with the concrete bean
/// valuations and the labelled firings, the shape
/// `bskel_sim::replay::snapshot_from_beans` rebuilds sensor snapshots
/// from.
pub fn counterexample_json(file: &str, program: &str, cex: &Counterexample) -> serde::Value {
    use serde::Value;
    let string = |s: &str| Value::String(s.to_string());
    let steps = cex
        .steps
        .iter()
        .map(|s| {
            let beans = Value::Object(
                s.beans
                    .iter()
                    .map(|(name, &x)| (name.clone(), Value::Number(x)))
                    .collect(),
            );
            let firings = Value::Array(
                s.firings
                    .iter()
                    .map(|(label, f)| {
                        let ops = Value::Array(
                            f.ops
                                .iter()
                                .map(|o| {
                                    Value::Object(vec![
                                        ("operation".to_string(), string(&o.operation)),
                                        (
                                            "data".to_string(),
                                            o.data.as_deref().map_or(Value::Null, string),
                                        ),
                                    ])
                                })
                                .collect(),
                        );
                        Value::Object(vec![
                            ("program".to_string(), string(label)),
                            ("rule".to_string(), string(&f.rule)),
                            ("salience".to_string(), Value::Number(f64::from(f.salience))),
                            ("ops".to_string(), ops),
                        ])
                    })
                    .collect(),
            );
            Value::Object(vec![
                ("beans".to_string(), beans),
                ("firings".to_string(), firings),
            ])
        })
        .collect();
    Value::Object(vec![
        ("file".to_string(), string(file)),
        ("program".to_string(), string(program)),
        ("property".to_string(), string(&cex.property)),
        ("message".to_string(), string(&cex.message)),
        (
            "loops_to".to_string(),
            cex.loops_to
                .map_or(Value::Null, |i| Value::Number(i as f64)),
        ),
        ("steps".to_string(), Value::Array(steps)),
    ])
}

/// Model-checks many files and renders a combined report; returns the
/// reports for exit-code decisions and trace export.
pub fn check_files<'a>(
    inputs: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> (Vec<FileReport>, String) {
    let mut reports = Vec::new();
    let mut rendered = String::new();
    for (path, content) in inputs {
        let report = check_content(path, content);
        rendered.push_str(&report.render());
        reports.push(report);
    }
    let errors: usize = reports.iter().map(FileReport::error_count).sum();
    let warnings: usize = reports.iter().map(FileReport::warning_count).sum();
    rendered.push_str(&format!(
        "{} file(s) checked: {errors} error(s), {warnings} warning(s)\n",
        reports.len()
    ));
    (reports, rendered)
}

/// True when the reports justify a non-zero exit code.
pub fn should_fail(reports: &[FileReport], strict: bool) -> bool {
    reports
        .iter()
        .any(|r| r.error_count() > 0 || (strict && r.warning_count() > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(name: &str, text: &str) -> FileReport {
        let r = check_rules_text(name, text);
        assert!(r.parse_error.is_none(), "{name}: {:?}", r.parse_error);
        r
    }

    #[test]
    fn all_stdlib_rule_files_prove_recovery_and_livelock_freedom() {
        // The tentpole acceptance bar: every shipped program, under its
        // canonical deployment, proves its properties (dead rules are
        // allowed — some contracts legitimately disable rules).
        for (name, text) in [
            ("farm.rules", stdlib::FARM_RULES_TEXT),
            ("pipeline.rules", stdlib::PIPELINE_RULES_TEXT),
            ("producer.rules", stdlib::PRODUCER_RULES_TEXT),
            ("fault.rules", stdlib::FAULT_RULES_TEXT),
            ("migrate.rules", stdlib::MIGRATE_RULES_TEXT),
            ("resilience.rules", stdlib::RESILIENCE_RULES_TEXT),
            ("tenancy.rules", stdlib::TENANCY_RULES_TEXT),
        ] {
            let report = report_for(name, text);
            assert_eq!(report.error_count(), 0, "{name}:\n{}", report.render());
            let mc = report.checks[0].result.as_ref().expect(name);
            assert!(mc.livelock.proved(), "{name}:\n{}", report.render());
            if let Some(v) = &mc.recovery {
                assert!(v.proved(), "{name}:\n{}", report.render());
            }
        }
    }

    #[test]
    fn shipped_scenarios_prove_their_loops() {
        for path in [
            "../../scenarios/fig3.json",
            "../../scenarios/fig4.json",
            "../../scenarios/fault_recovery.json",
            "../../scenarios/secure_mixed_pool.json",
        ] {
            let content = std::fs::read_to_string(path).expect(path);
            let report = check_content(path, &content);
            assert_eq!(report.error_count(), 0, "{path}:\n{}", report.render());
            for check in &report.checks {
                let mc = check.result.as_ref().expect(path);
                assert!(
                    mc.wall.as_secs_f64() < 5.0,
                    "{path} [{}] took {:?}",
                    check.program,
                    mc.wall
                );
            }
        }
    }

    #[test]
    fn pipeline_scenario_includes_the_composition() {
        let content = std::fs::read_to_string("../../scenarios/fig4.json").expect("fig4");
        let report = check_content("fig4.json", &content);
        let labels: Vec<&str> = report.checks.iter().map(|c| c.program.as_str()).collect();
        assert_eq!(labels, vec!["producer", "farm", "farm+pipeline"]);
    }

    #[test]
    fn aimd_controller_drops_the_ruled_loops_from_the_check() {
        // An AIMD farm stage runs no rule program: the farm and
        // farm+pipeline compositions disappear while the producer's
        // rule-driven loop stays checked.
        let content = std::fs::read_to_string("../../scenarios/fig4.json").expect("fig4");
        let aimd = content.replacen('{', "{\n  \"controller\": \"aimd\",", 1);
        let report = check_content("fig4.json", &aimd);
        assert!(report.parse_error.is_none(), "{:?}", report.parse_error);
        let labels: Vec<&str> = report.checks.iter().map(|c| c.program.as_str()).collect();
        assert_eq!(labels, vec!["producer"]);
        // A pure AIMD farm scenario has no checkable loop at all.
        let fig3 = std::fs::read_to_string("../../scenarios/fig3.json").expect("fig3");
        let cfg = fig3.replacen('{', "{\n  \"controller\": \"aimd\",", 1);
        assert_eq!(check_content("fig3.json", &cfg).checks.len(), 0);
        // And an unknown law, pool-policy names included, is a
        // configuration error, not a panic and not a fallback to rules.
        for law in ["pid", "retry_budget", "hedge"] {
            let bad = fig3.replacen('{', &format!("{{\n  \"controller\": \"{law}\","), 1);
            let err = check_content("fig3.json", &bad).parse_error;
            assert!(
                err.as_deref().is_some_and(|e| e.contains("rules|aimd")),
                "{law}: {err:?}"
            );
        }
    }

    #[test]
    fn broken_program_yields_replayable_counterexample() {
        // Drop the grow rule: starvation can never be repaired, recovery
        // must fail, and the counterexample must carry concrete beans.
        let src = r#"
rule "CheckRateHigh"
when
    departureRate > $FARM_HIGH_PERF_LEVEL && numWorkers > $FARM_MIN_NUM_WORKERS
then
    fireOperation(REMOVE_EXECUTOR);
end
"#;
        let report = report_for("farm.rules", src);
        assert!(report.error_count() > 0, "{}", report.render());
        let cexs = report.counterexamples();
        assert!(!cexs.is_empty());
        let (_, cex) = cexs[0];
        assert!(!cex.steps.is_empty());
        assert!(cex.steps[0].beans.contains_key("departureRate"));
        let json = counterexample_json("farm.rules", "farm", cex);
        let text = serde_json::to_string(&json).expect("serialize");
        assert!(text.contains("\"file\":\"farm.rules\""), "{text}");
        assert!(text.contains("\"steps\":["), "{text}");
        assert!(text.contains("departureRate"), "{text}");
    }

    #[test]
    fn unknown_rules_file_with_params_fails_honestly() {
        let report = check_rules_text(
            "custom.rules",
            "rule \"r\" when departureRate < $MY_THRESHOLD then fire(ADD_EXECUTOR) end",
        );
        assert_eq!(report.error_count(), 1, "{}", report.render());
        assert!(matches!(
            report.checks[0].result,
            Err(McError::UnboundParams(_))
        ));
    }

    #[test]
    fn parse_failure_is_reported() {
        let report = check_rules_text("oops.rules", "rule \"r\" when x ?? 1 then end");
        assert_eq!(report.error_count(), 1);
        assert!(report.render().contains("error[parse]"));
    }
}

//! The `rulelint` driver: lints `.rules` programs and the rule programs a
//! scenario JSON implies, the same way the managers would load them.
//!
//! For a bare `.rules` file the program is checked against the standard
//! ABC schema with symbolic parameters. For a `scenarios/*.json` file the
//! driver reconstructs what `run_scenario` would build — which standard
//! programs are merged (farm + fault tolerance + migration, or the
//! pipeline/producer/farm hierarchy), and the parameter tables the
//! managers derive from the configured contract — so parameter-dependent
//! verdicts (dormant rules, missing dead bands, cross-manager conflicts)
//! are decided with the deployment's actual thresholds.

use crate::config::ScenarioConfig;
use bskel_core::contract::Contract;
use bskel_core::{ControllerKind, ManagerConfig};
use bskel_rules::analysis::{Analyzer, Diagnostic, Severity};
use bskel_rules::{parse_rules_spanned, stdlib, ParamTable, RuleSet};
use bskel_sim::sim_bean_schema;
use bskel_tenancy::arbiter_config;

/// Lint results for one input file.
#[derive(Debug)]
pub struct FileReport {
    /// The path (or label) the content came from.
    pub path: String,
    /// Fatal parse/decode failure, if the file never reached analysis.
    pub parse_error: Option<String>,
    /// Analyzer findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl FileReport {
    /// Number of error-severity findings (a parse failure counts as one).
    pub(crate) fn error_count(&self) -> usize {
        self.parse_error.iter().len()
            + self
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count()
    }

    /// Number of warning-severity findings.
    pub(crate) fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Renders `path:line:col:`-prefixed diagnostic lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(e) = &self.parse_error {
            out.push_str(&format!("{}: error[parse]: {e}\n", self.path));
        }
        for d in &self.diagnostics {
            match d.span {
                Some((l, c)) => out.push_str(&format!(
                    "{}:{l}:{c}: {}[{}] rule `{}`: {}\n",
                    self.path, d.severity, d.code, d.rule, d.message
                )),
                None => out.push_str(&format!("{}: {d}\n", self.path)),
            }
        }
        out
    }

    /// True when this file produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.parse_error.is_none() && self.diagnostics.is_empty()
    }
}

/// Lints file content by extension: `.json` is treated as a scenario
/// configuration, anything else as `.rules` program text.
pub fn lint_content(path: &str, content: &str) -> FileReport {
    if path.ends_with(".json") {
        lint_scenario(path, content)
    } else {
        lint_rules_text(path, content)
    }
}

/// Lints a `.rules` program against the standard ABC bean schema (plus
/// the simulator extras), with parameters left symbolic.
pub(crate) fn lint_rules_text(path: &str, src: &str) -> FileReport {
    match parse_rules_spanned(src) {
        Ok((set, spans)) => FileReport {
            path: path.to_string(),
            parse_error: None,
            diagnostics: Analyzer::new(sim_bean_schema()).analyze(&set, None, Some(&spans)),
        },
        Err(e) => FileReport {
            path: path.to_string(),
            parse_error: Some(e.to_string()),
            diagnostics: Vec::new(),
        },
    }
}

/// Lints the rule programs a scenario JSON implies, with the parameter
/// tables its managers would derive from the configured contract.
pub(crate) fn lint_scenario(path: &str, json: &str) -> FileReport {
    let (parse_error, diagnostics) = match ScenarioConfig::from_json(json) {
        Ok(cfg) => (None, lint_scenario_config(&cfg)),
        Err(e) => (Some(format!("bad scenario config: {e}")), Vec::new()),
    };
    FileReport {
        path: path.to_string(),
        parse_error,
        diagnostics,
    }
}

/// The farm manager a farm scenario deploys (as `FarmScenario::run`
/// builds it): its merged program and the parameters it derives from
/// `contract`.
pub(crate) fn farm_deployment(
    contract: &Contract,
    ft_min_workers: Option<u32>,
    migrate_min_gain: Option<f64>,
) -> (RuleSet, ParamTable) {
    let (rules, extra) = stdlib::farm_program(ft_min_workers, migrate_min_gain);
    let mut cfg = ManagerConfig::farm("AM_F");
    cfg.extra_params = extra.iter().map(|(n, v)| (n.to_owned(), v)).collect();
    (rules, cfg.params(contract))
}

/// The parameters a tenant manager of `bskel_tenancy::build_managers`
/// derives from its tenant's contract.
pub(crate) fn tenant_params(contract: &Contract, max_workers: u32) -> ParamTable {
    let mut cfg = ManagerConfig::tenant("AM_T");
    cfg.max_workers = max_workers;
    cfg.params(contract)
}

/// Analyzes the rule programs implied by a scenario configuration.
///
/// Controller-aware: a manager whose configured control law runs **no**
/// rule program (`aimd`) contributes nothing to lint — there is no
/// program to analyze, and findings against a program that never loads
/// would be noise. An unknown law name fails [`ScenarioConfig::from_json`].
pub(crate) fn lint_scenario_config(cfg: &ScenarioConfig) -> Vec<Diagnostic> {
    let analyzer = Analyzer::new(sim_bean_schema());
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
            // The farm manager loads one merged program; the analysis of
            // the merge catches intra-set problems, and the per-concern
            // pairings catch TR-09-10-style contradictions.
            let (merged, params) = farm_deployment(contract, *ft_min_workers, *migrate_min_gain);
            let mut concerns: Vec<(&str, RuleSet)> = Vec::new();
            if ft_min_workers.is_some() {
                concerns.push(("fault-tolerance", stdlib::fault_rules()));
            }
            if migrate_min_gain.is_some() {
                concerns.push(("migration", stdlib::migrate_rules()));
            }
            out.extend(analyzer.analyze(&merged, Some(&params), None));
            let perf = stdlib::farm_rules();
            for (label, set) in &concerns {
                out.extend(analyzer.check_conflicts(
                    (label, set, Some(&params)),
                    ("performance", &perf, Some(&params)),
                ));
            }
        }
        ScenarioConfig::Pipeline {
            initial_rate,
            contract,
            ..
        } => {
            // AM_A drives the source with output-rate contracts around the
            // configured initial rate; the farm stage gets the app SLA.
            // Only the farm stage honours the controller selection, so an
            // AIMD farm drops out of the lint while the coordinator and
            // producer programs stay checked.
            let farm_is_ruled = cfg.controller() != Ok(ControllerKind::Aimd);
            let mut programs: Vec<(&str, RuleSet, ParamTable)> = vec![
                ("pipeline", stdlib::pipeline_rules(), ParamTable::new()),
                (
                    "producer",
                    stdlib::producer_rules(),
                    ManagerConfig::producer("producer")
                        .params(&Contract::output_rate(*initial_rate)),
                ),
            ];
            if farm_is_ruled {
                let params = ManagerConfig::farm("farm").params(contract);
                programs.push(("farm", stdlib::farm_rules(), params));
            }
            for (_, set, params) in &programs {
                out.extend(analyzer.analyze(set, Some(params), None));
            }
            // Cross-conflict checks pair only the *sibling* stage managers
            // (producer vs farm). The coordinator is excluded: its
            // INC_RATE/DEC_RATE are contract-renegotiation messages to the
            // producer child, not direct writes to a shared actuator, so
            // pairing it against the producer would flag the hierarchy's
            // designed feedback path as a conflict.
            if farm_is_ruled {
                let (pl, ps, pp) = &programs[1];
                let (fl, fs, fp) = &programs[2];
                out.extend(analyzer.check_conflicts((pl, ps, Some(pp)), (fl, fs, Some(fp))));
            }
        }
        ScenarioConfig::MultiTenant {
            tenants,
            max_workers,
            ..
        } => {
            // One tenancy program per tenant, under the parameters its
            // manager derives from that tenant's own contract. There is
            // deliberately no cross-tenant conflict pass: GROW_SHARE /
            // SHRINK_SHARE write the firing tenant's *own* weight (a
            // per-tenant resource), so opposing firings across tenants
            // are the arbitration design, not a shared-actuator fight.
            for t in tenants {
                out.extend(analyzer.analyze(
                    &stdlib::tenancy_rules(),
                    Some(&tenant_params(&t.contract, *max_workers)),
                    None,
                ));
            }
            // The arbiter runs the same program with its share pinned —
            // unless it was handed to the AIMD law, which takes no rules.
            if cfg.controller() != Ok(ControllerKind::Aimd) {
                out.extend(analyzer.analyze(
                    &stdlib::tenancy_rules(),
                    Some(&arbiter_config(*max_workers).params(&Contract::BestEffort)),
                    None,
                ));
            }
        }
    }
    out
}

/// Lints many files and renders a combined report; returns the reports
/// for exit-code decisions.
pub fn lint_files<'a>(
    inputs: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> (Vec<FileReport>, String) {
    let mut reports = Vec::new();
    let mut rendered = String::new();
    for (path, content) in inputs {
        let report = lint_content(path, content);
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
    use bskel_rules::analysis::{has_errors as diag_has_errors, LintCode};

    #[test]
    fn stdlib_rule_files_lint_clean() {
        for (name, text) in [
            ("farm.rules", stdlib::FARM_RULES_TEXT),
            ("pipeline.rules", stdlib::PIPELINE_RULES_TEXT),
            ("producer.rules", stdlib::PRODUCER_RULES_TEXT),
            ("fault.rules", stdlib::FAULT_RULES_TEXT),
            ("migrate.rules", stdlib::MIGRATE_RULES_TEXT),
            ("resilience.rules", stdlib::RESILIENCE_RULES_TEXT),
        ] {
            let report = lint_rules_text(name, text);
            assert!(report.is_clean(), "{name}:\n{}", report.render());
        }
    }

    #[test]
    fn shipped_scenarios_have_no_errors() {
        for path in [
            "../../scenarios/fig3.json",
            "../../scenarios/fig4.json",
            "../../scenarios/fault_recovery.json",
            "../../scenarios/secure_mixed_pool.json",
        ] {
            let content = std::fs::read_to_string(path).expect(path);
            let report = lint_content(path, &content);
            assert_eq!(report.error_count(), 0, "{path}:\n{}", report.render());
        }
    }

    #[test]
    fn bad_rules_file_is_flagged() {
        let report = lint_rules_text(
            "bad.rules",
            "rule \"r\" when noSuchBean > 1 then fire(ADD_EXECUTOR) end",
        );
        assert!(diag_has_errors(&report.diagnostics));
        assert!(
            report.render().contains("bad.rules:1:6:"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn parse_failure_is_reported_with_position() {
        let report = lint_rules_text("oops.rules", "rule \"r\" when x ?? 1 then end");
        assert_eq!(report.error_count(), 1);
        assert!(
            report.render().contains("error[parse]"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn inverted_contract_scenario_flags_oscillation() {
        // A throughput "range" with lo > hi leaves no dead band between
        // the Fig. 5 grow/shrink rules.
        let cfg = ScenarioConfig::Farm {
            service_time: 1.0,
            arrival_rate: 1.0,
            initial_workers: 1,
            contract: Contract::throughput_range(0.7, 0.3),
            horizon: 10.0,
            nodes: None,
            secure: None,
            ssl: None,
            failures: vec![],
            ft_min_workers: None,
            migrate_min_gain: None,
            model_initial_setup: false,
            controller: None,
            seed: 1,
        };
        let diags = lint_scenario_config(&cfg);
        assert!(
            diags.iter().any(|d| d.code == LintCode::Oscillation),
            "{diags:?}"
        );
    }

    #[test]
    fn controller_state_beans_are_in_the_lint_schema() {
        // The published state beans — the pool's retry-budget token
        // level and hedge counters, and the AIMD ceiling — must be legal
        // sensors for operator rule programs.
        let report = lint_rules_text(
            "controllers.rules",
            r#"
            rule "BudgetLow" salience 5
            when
                retryBudgetTokens < 2
            then
                fireOperation(SHED_LOAD);
            end
            rule "HedgeStorm" salience 4
            when
                hedgesLaunched > 100 && hedgeWins < 10
            then
                fireOperation(BALANCE_LOAD);
            end
            rule "AimdPinned" salience 3
            when
                aimdCeiling < 2
            then
                fireOperation(ADD_EXECUTOR);
            end
            "#,
        );
        assert!(!diag_has_errors(&report.diagnostics), "{}", report.render());
    }

    #[test]
    fn aimd_scenario_lints_no_rule_program() {
        // The same inverted contract that flags Oscillation under rules
        // produces nothing under AIMD: no program loads, so there is
        // nothing to lint.
        let cfg = ScenarioConfig::Farm {
            service_time: 1.0,
            arrival_rate: 1.0,
            initial_workers: 1,
            contract: Contract::throughput_range(0.7, 0.3),
            horizon: 10.0,
            nodes: None,
            secure: None,
            ssl: None,
            failures: vec![],
            ft_min_workers: None,
            migrate_min_gain: None,
            model_initial_setup: false,
            controller: Some("aimd".into()),
            seed: 1,
        };
        assert!(lint_scenario_config(&cfg).is_empty());
    }

    #[test]
    fn unknown_controller_name_is_a_config_error() {
        // `retry_budget` and `hedge` name pool policies, not laws, so
        // they fail like any other unknown law.
        for law in ["pid", "retry_budget", "hedge"] {
            let report = lint_scenario(
                "bad_controller.json",
                &format!(
                    r#"{{
                        "kind": "farm",
                        "service_time": 1.0,
                        "arrival_rate": 1.0,
                        "contract": {{ "MinThroughput": 0.5 }},
                        "controller": "{law}"
                    }}"#
                ),
            );
            assert_eq!(report.error_count(), 1, "{law}");
            let rendered = report.render();
            assert!(rendered.contains("unknown controller"), "{rendered}");
            assert!(rendered.contains("rules|aimd"), "{rendered}");
        }
    }

    #[test]
    fn ft_floor_above_perf_floor_conflicts_under_range_contract() {
        // TR-09-10's central hazard: the FT concern insists on >= 6
        // workers while the performance concern sheds workers above the
        // throughput ceiling — both fireable in one state.
        let cfg = ScenarioConfig::Farm {
            service_time: 1.0,
            arrival_rate: 1.0,
            initial_workers: 8,
            contract: Contract::throughput_range(0.3, 0.7),
            horizon: 10.0,
            nodes: None,
            secure: None,
            ssl: None,
            failures: vec![],
            ft_min_workers: Some(6),
            migrate_min_gain: None,
            model_initial_setup: false,
            controller: None,
            seed: 1,
        };
        let diags = lint_scenario_config(&cfg);
        assert!(
            diags.iter().any(|d| d.code == LintCode::Conflict),
            "{diags:?}"
        );
    }
}

//! # bskel-rules — a precondition–action rule engine for autonomic managers
//!
//! The GCM reference implementation the paper builds on drives each
//! autonomic manager's analyse/plan phases with the JBoss (Drools) rule
//! engine: *precondition–action* rules whose preconditions are first-order
//! formulas over the beans monitored by the ABC, and whose actions invoke
//! ABC actuator services (paper §4.1, Fig. 5). This crate is a from-scratch
//! Rust equivalent scoped to exactly what behavioural skeletons need:
//!
//! * a [`wm::WorkingMemory`] of named scalar beans (booleans encode 0/1),
//!   refreshed from a sensor snapshot at each control-loop iteration;
//! * a condition [`ast`] (comparisons, `&&`/`||`/`!`, parameters `$NAME`
//!   standing for contract-derived thresholds such as
//!   `FARM_LOW_PERF_LEVEL`);
//! * an [`engine::RuleEngine`] implementing the paper's control cycle:
//!   select *fireable* rules, order by salience, execute their actions
//!   (with optional edge-triggering to avoid re-firing level conditions);
//! * a `parser` for a Drools-like text syntax, so rule programs ship as
//!   `.rules` files — the Fig. 5 farm rules are included verbatim
//!   (modulo syntax) in [`stdlib`];
//! * [`stdlib`] — the rule libraries used by the experiments: farm manager
//!   rules (Fig. 5), producer rules, and pipeline-manager rules;
//! * [`op`] — the operation table: every operation a rule can fire, its
//!   typed [`ManagerOp`], journal form and semantic effects, declared once;
//! * [`analysis`] and [`mc`] — `rulelint` and `rulemc`, which check
//!   programs against the bean schema and the operation table.
//!
//! The engine is deliberately substrate-free: actions are symbolic
//! operation invocations (`fire(ADD_EXECUTOR)`). The manager
//! (`bskel-core`) turns each into its typed [`ManagerOp`] and orders it
//! through the ABC.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod engine;
pub mod mc;
pub mod op;
mod parser;
pub mod stdlib;
pub mod wm;

pub use analysis::{Analyzer, BeanSchema, BeanType, Diagnostic, LintCode, Severity};
pub use ast::{Action, Cmp, Condition, Expr, OpCall, Rule, RuleSet};
pub use engine::{EngineError, Firing, RuleEngine};
pub use mc::{
    throughput_violation, Counterexample, EnvMove, McError, McReport, ModelChecker, Spec,
    TraceStep, Verdict,
};
pub use op::{ManagerOp, OpArgs};
pub use parser::{parse_rules, parse_rules_spanned, ParseError, SourceMap};
pub use wm::{ParamTable, WorkingMemory};

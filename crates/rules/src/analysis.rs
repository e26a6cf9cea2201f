//! # `rulelint` — static analysis of rule programs
//!
//! A bad rule program fails *silently* at runtime: a condition referencing
//! a bean the ABC never publishes simply raises `Unsatisfiable` every
//! cycle, a pair of rules with overlapping guards and opposing actions
//! makes the manager add and remove workers forever, and a rule shadowed
//! by a higher-salience sibling with a conflicting action never usefully
//! fires. Following the static-reasoning programme of "Toward a Formal
//! Semantics for Autonomic Components" (TR-08-08) and the multi-concern
//! conflict analysis of TR-09-10, this module checks a parsed [`RuleSet`]
//! against a declared bean/parameter schema *before* the manager runs:
//!
//! 1. **Schema/type errors** — beans absent from the ABC's published
//!    schema, parameters the manager never binds, and flag beans compared
//!    against non-boolean constants or numeric beans.
//! 2. **Unsatisfiable / tautological conditions** — by interval and
//!    constant propagation over a DNF of the condition. A condition that
//!    is unsatisfiable only once contract parameters are bound is
//!    reported as a *warning* (a dormant rule, e.g. a shedding rule under
//!    a best-effort contract), while a structurally unsatisfiable one is
//!    an *error*.
//! 3. **Shadowing/subsumption** — rule `B` whose condition implies the
//!    condition of a strictly-higher-salience rule `A`: if `A`'s action
//!    opposes `B`'s, `B` can never *usefully* fire (the engine fires all
//!    fireable rules, so `A` always counteracts `B` in the same cycle).
//! 4. **Oscillation cycles** — an action→condition effect graph: each
//!    operation is annotated with the monotone effect it has on sensed
//!    beans (e.g. `ADD_EXECUTOR` raises `departureRate`); two rules that
//!    mutually re-enable each other with opposing actions *and* whose
//!    guards are co-satisfiable have no damping dead band and will make
//!    the manager oscillate. The Fig. 5 farm rules pass: their enabling
//!    intervals `departureRate < LOW` / `departureRate > HIGH` are
//!    disjoint whenever `LOW <= HIGH`.
//! 5. **Cross-manager conflicts** — given the rule sets of two managers
//!    coordinated by the two-phase protocol (`bskel_core::coord`), rule
//!    pairs that drive the *same actuator* in opposite directions and are
//!    co-fireable under one reachable working-memory state.
//!
//! All satisfiability verdicts are three-valued: the analyzer only claims
//! *unsat* when provable by interval propagation, and only claims *sat*
//! when it can exhibit a concrete witness state (which is re-checked
//! against the condition, so `Sat` verdicts are sound by construction).
//! Everything else is `Unknown` and stays silent — symbolic parameters
//! (`$FARM_LOW_PERF_LEVEL`) make most cross-rule comparisons undecidable
//! until a contract binds them, which is exactly when the manager re-runs
//! the analysis (`bskel_core::manager`).

use crate::ast::{Cmp, Condition, Expr, Rule, RuleSet};
use crate::parser::SourceMap;
use crate::wm::{ParamTable, WorkingMemory};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Value domain of a published sensor bean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeanType {
    /// Boolean flag encoded as 0.0 / 1.0 (e.g. `endOfStream`).
    Flag,
    /// Non-negative integer-valued count (e.g. `numWorkers`).
    Count,
    /// Non-negative rate or ratio (e.g. `departureRate`, tasks/s).
    Rate,
    /// Non-negative duration in seconds; may be `+inf` (e.g. `idleFor`).
    Seconds,
    /// Unconstrained real.
    Real,
}

impl BeanType {
    fn domain(self) -> Interval {
        match self {
            BeanType::Flag => Interval::closed(0.0, 1.0),
            BeanType::Count | BeanType::Rate | BeanType::Seconds => {
                Interval::closed(0.0, f64::INFINITY)
            }
            BeanType::Real => Interval::full(),
        }
    }
}

/// The beans an ABC publishes and the parameters a manager binds: the
/// environment a rule program is checked against.
///
/// `bskel_core::abc::standard_schema()` derives the canonical instance
/// from the monitor snapshot bean names plus the hierarchy flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BeanSchema {
    beans: BTreeMap<String, BeanType>,
    params: BTreeSet<String>,
}

impl BeanSchema {
    /// An empty schema (accepts nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a published bean.
    pub fn bean(mut self, name: impl Into<String>, ty: BeanType) -> Self {
        self.beans.insert(name.into(), ty);
        self
    }

    /// Declares a bindable parameter name.
    pub fn param(mut self, name: impl Into<String>) -> Self {
        self.params.insert(name.into());
        self
    }

    /// Type of a declared bean.
    pub fn bean_type(&self, name: &str) -> Option<BeanType> {
        self.beans.get(name).copied()
    }

    /// Whether the parameter name is declared.
    pub(crate) fn has_param(&self, name: &str) -> bool {
        self.params.contains(name)
    }

    /// True when at least one parameter name is declared (enables
    /// unknown-parameter warnings in the absence of a bound table).
    pub(crate) fn declares_params(&self) -> bool {
        !self.params.is_empty()
    }

    /// Iterates over declared beans.
    pub fn beans(&self) -> impl Iterator<Item = (&str, BeanType)> {
        self.beans.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

/// Monotone direction of an effect on a bean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The operation raises the bean / the condition wants the bean higher.
    Up,
    /// The operation lowers the bean / the condition wants the bean lower.
    Down,
}

impl Dir {
    fn flip(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }
}

/// Monotone-effect annotations for operations: which sensed beans an
/// operation drives (and in which direction), plus which *actuator
/// resource* it sets (used for contradictory-action detection — two ops
/// conflict when they drive the same resource in opposite directions).
#[derive(Debug, Clone, Default)]
pub(crate) struct EffectTable {
    bean_effects: BTreeMap<String, Vec<(String, Dir)>>,
    actuators: BTreeMap<String, (String, Dir)>,
    inert: BTreeSet<String>,
}

impl EffectTable {
    /// An empty table (no known effects — disables checks 4 and 5).
    pub fn new() -> Self {
        Self::default()
    }

    /// Effects of every operation in [`crate::op::OP_TABLE`] on the
    /// standard ABC beans (`bskel_monitor::snapshot::beans`).
    pub fn standard() -> Self {
        let mut table = Self::new();
        for d in crate::op::OP_TABLE {
            if let Some((resource, dir)) = d.actuator {
                table = table.actuator(d.name, resource, dir);
            }
            for &(bean, dir) in d.effects {
                table = table.bean_effect(d.name, bean, dir);
            }
            if d.inert {
                table = table.inert(d.name);
            }
        }
        table
    }

    /// Annotates an operation with a monotone effect on a sensed bean.
    pub(crate) fn bean_effect(
        mut self,
        op: impl Into<String>,
        bean: impl Into<String>,
        dir: Dir,
    ) -> Self {
        self.bean_effects
            .entry(op.into())
            .or_default()
            .push((bean.into(), dir));
        self
    }

    /// Annotates an operation as setting an actuator resource up or down.
    pub fn actuator(
        mut self,
        op: impl Into<String>,
        resource: impl Into<String>,
        dir: Dir,
    ) -> Self {
        self.actuators.insert(op.into(), (resource.into(), dir));
        self
    }

    /// Declares an operation *intentionally* effect-free (pure
    /// signalling, e.g. `RAISE_VIOLATION`): `W-no-effect` will not flag
    /// rules whose only actions are inert operations.
    pub fn inert(mut self, op: impl Into<String>) -> Self {
        self.inert.insert(op.into());
        self
    }

    /// Whether an operation is declared intentionally effect-free.
    pub(crate) fn is_inert(&self, op: &str) -> bool {
        self.inert.contains(op)
    }

    /// Bean effects of an operation (empty if unannotated).
    pub(crate) fn effects_of(&self, op: &str) -> &[(String, Dir)] {
        self.bean_effects.get(op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The actuator resource an operation drives, if annotated.
    pub(crate) fn actuator_of(&self, op: &str) -> Option<(&str, Dir)> {
        self.actuators.get(op).map(|(r, d)| (r.as_str(), *d))
    }

    /// Returns the actuator resource two op lists drive in *opposite*
    /// directions, if any (the contradictory-reconfiguration test).
    pub(crate) fn opposing_actuator(&self, ops_a: &[String], ops_b: &[String]) -> Option<&str> {
        for a in ops_a {
            let Some((res, da)) = self.actuator_of(a) else {
                continue;
            };
            for b in ops_b {
                if let Some((res_b, db)) = self.actuator_of(b) {
                    if res == res_b && da == db.flip() {
                        return Some(res);
                    }
                }
            }
        }
        None
    }

    /// Like [`Self::opposing_actuator`], but also recognises opposition
    /// through opposing monotone effects on the same sensed bean (used
    /// for custom vocabularies without actuator annotations).
    fn opposing(&self, ops_a: &[String], ops_b: &[String]) -> Option<String> {
        if let Some(res) = self.opposing_actuator(ops_a, ops_b) {
            return Some(res.to_string());
        }
        for a in ops_a {
            for (bean, da) in self.effects_of(a) {
                for b in ops_b {
                    for (bean_b, db) in self.effects_of(b) {
                        if bean == bean_b && *da == db.flip() {
                            return Some(bean.clone());
                        }
                    }
                }
            }
        }
        None
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not fatal; logged by the manager.
    Warning,
    /// The rule set is broken; rejected under strict mode.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Diagnostic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// Condition references a bean the ABC does not publish.
    UnknownBean,
    /// Condition references a parameter the manager does not bind.
    UnknownParam,
    /// Ill-typed comparison (flag vs non-boolean constant or numeric bean).
    TypeError,
    /// Condition can never hold (structurally, or under bound parameters).
    Unsatisfiable,
    /// Condition always holds — the rule fires every control cycle.
    Tautology,
    /// Rule subsumed by a strictly-higher-salience rule.
    Shadowed,
    /// Two rules mutually re-enable each other with opposing actions.
    Oscillation,
    /// Two managers' rules drive one actuator in opposite directions.
    Conflict,
    /// Every action of a rule lacks an `EffectTable` entry, making the
    /// rule invisible to oscillation/conflict and model-checking analysis.
    NoEffect,
    /// Model checker: a reachable contract-violating state from which no
    /// violation-free state is reachable within the recovery bound.
    NoRecovery,
    /// Model checker: a reachable control cycle that keeps firing
    /// actuator operations (livelock/oscillation lasso).
    Livelock,
    /// Model checker: a rule that fires in no reachable state.
    DeadRule,
}

impl LintCode {
    /// Stable kebab-case code used in CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UnknownBean => "unknown-bean",
            LintCode::UnknownParam => "unknown-param",
            LintCode::TypeError => "type",
            LintCode::Unsatisfiable => "unsat",
            LintCode::Tautology => "tautology",
            LintCode::Shadowed => "shadowed",
            LintCode::Oscillation => "oscillation",
            LintCode::Conflict => "conflict",
            LintCode::NoEffect => "no-effect",
            LintCode::NoRecovery => "no-recovery",
            LintCode::Livelock => "livelock",
            LintCode::DeadRule => "dead-rule",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which check produced it.
    pub code: LintCode,
    /// Primary rule (for cross-manager findings, `manager:rule`).
    pub rule: String,
    /// Second rule involved (shadowing/oscillation/conflict pairs).
    pub peer: Option<String>,
    /// 1-based (line, col) of the primary rule, when a [`SourceMap`] was
    /// supplied.
    pub span: Option<(u32, u32)>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] rule `{}`", self.severity, self.code, self.rule)?;
        if let Some((l, c)) = self.span {
            write!(f, " ({l}:{c})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// True when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Substitutes bound parameters for `$NAME` references, turning them into
/// constants the interval engine can reason about. Unbound parameters are
/// left symbolic.
pub fn bind_params(cond: &Condition, params: &ParamTable) -> Condition {
    fn sub(e: &Expr, params: &ParamTable) -> Expr {
        match e {
            Expr::Param(p) => match params.get(p) {
                Some(v) => Expr::Const(v),
                None => e.clone(),
            },
            other => other.clone(),
        }
    }
    match cond {
        Condition::True => Condition::True,
        Condition::False => Condition::False,
        Condition::Cmp { lhs, op, rhs } => Condition::Cmp {
            lhs: sub(lhs, params),
            op: *op,
            rhs: sub(rhs, params),
        },
        Condition::And(cs) => Condition::And(cs.iter().map(|c| bind_params(c, params)).collect()),
        Condition::Or(cs) => Condition::Or(cs.iter().map(|c| bind_params(c, params)).collect()),
        Condition::Not(c) => Condition::Not(Box::new(bind_params(c, params))),
    }
}

// ---------------------------------------------------------------------------
// Interval / DNF satisfiability engine
// ---------------------------------------------------------------------------

/// Maximum number of DNF conjuncts before the analyzer gives up on a
/// condition (verdict `Unknown`). Hand-written rule guards are tiny; the
/// cap only matters for adversarial/randomized inputs.
const DNF_CAP: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: f64,
    hi: f64,
    lo_open: bool,
    hi_open: bool,
}

impl Interval {
    fn full() -> Self {
        Self::closed(f64::NEG_INFINITY, f64::INFINITY)
    }

    fn closed(lo: f64, hi: f64) -> Self {
        Interval {
            lo,
            hi,
            lo_open: false,
            hi_open: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_open || self.hi_open))
    }

    fn contains(&self, v: f64) -> bool {
        let above = if self.lo_open {
            v > self.lo
        } else {
            v >= self.lo
        };
        let below = if self.hi_open {
            v < self.hi
        } else {
            v <= self.hi
        };
        above && below
    }

    fn clamp_lo(&mut self, lo: f64, open: bool) {
        if lo > self.lo || (lo == self.lo && open && !self.lo_open) {
            self.lo = lo;
            self.lo_open = open;
        }
    }

    fn clamp_hi(&mut self, hi: f64, open: bool) {
        if hi < self.hi || (hi == self.hi && open && !self.hi_open) {
            self.hi = hi;
            self.hi_open = open;
        }
    }
}

/// Per-bean constraint state inside one DNF conjunct.
#[derive(Debug, Clone)]
struct VarState {
    ty: BeanType,
    iv: Interval,
    ne: Vec<f64>,
}

impl VarState {
    fn new(ty: BeanType) -> Self {
        VarState {
            ty,
            iv: ty.domain(),
            ne: Vec::new(),
        }
    }

    fn constrain(&mut self, op: Cmp, c: f64) {
        match op {
            Cmp::Lt => self.iv.clamp_hi(c, true),
            Cmp::Le => self.iv.clamp_hi(c, false),
            Cmp::Gt => self.iv.clamp_lo(c, true),
            Cmp::Ge => self.iv.clamp_lo(c, false),
            Cmp::Eq => {
                self.iv.clamp_lo(c, false);
                self.iv.clamp_hi(c, false);
            }
            Cmp::Ne => self.ne.push(c),
        }
    }

    fn feasible(&self) -> bool {
        if self.iv.is_empty() {
            return false;
        }
        if self.ty == BeanType::Flag {
            return [0.0, 1.0]
                .iter()
                .any(|v| self.iv.contains(*v) && !self.ne.contains(v));
        }
        if self.iv.lo == self.iv.hi {
            return !self.ne.contains(&self.iv.lo);
        }
        true
    }

    /// A concrete value satisfying the accumulated constraints, if the
    /// state is feasible.
    fn witness(&self) -> Option<f64> {
        let iv = &self.iv;
        let mut candidates: Vec<f64> = Vec::new();
        if self.ty == BeanType::Flag {
            candidates.extend([1.0, 0.0]);
        } else if iv.lo.is_finite() && iv.hi.is_finite() {
            let mid = (iv.lo + iv.hi) / 2.0;
            candidates.push(mid);
            for k in 1..8 {
                candidates.push(iv.lo + (iv.hi - iv.lo) * f64::from(k) / 8.0);
            }
            if !iv.lo_open {
                candidates.push(iv.lo);
            }
            if !iv.hi_open {
                candidates.push(iv.hi);
            }
        } else if iv.lo.is_finite() {
            candidates.extend([iv.lo + 1.0, iv.lo + 0.5, iv.lo + 2.0, iv.lo + 3.5]);
            if !iv.lo_open {
                candidates.push(iv.lo);
            }
        } else if iv.hi.is_finite() {
            candidates.extend([iv.hi - 1.0, iv.hi - 0.5, iv.hi - 2.0, iv.hi - 3.5]);
            if !iv.hi_open {
                candidates.push(iv.hi);
            }
        } else {
            candidates.extend([0.0, 1.0, -1.0, 2.5, -2.5]);
        }
        candidates
            .into_iter()
            .find(|v| v.is_finite() && iv.contains(*v) && !self.ne.contains(v))
    }
}

/// Three-valued satisfiability verdict. `Sat` carries a witness state
/// (bean → value) that has been re-checked against the condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Proof {
    /// Provably satisfiable, with a concrete witness assignment.
    Sat(BTreeMap<String, f64>),
    /// Provably unsatisfiable over the schema's bean domains.
    Unsat,
    /// Undecided (symbolic parameters, bean-vs-bean comparisons, or DNF
    /// blow-up).
    Unknown,
}

/// Negation-normal-form literal.
#[derive(Debug, Clone)]
enum Lit {
    Bool(bool),
    Cmp { lhs: Expr, op: Cmp, rhs: Expr },
}

fn negate_cmp(op: Cmp) -> Cmp {
    match op {
        Cmp::Lt => Cmp::Ge,
        Cmp::Le => Cmp::Gt,
        Cmp::Gt => Cmp::Le,
        Cmp::Ge => Cmp::Lt,
        Cmp::Eq => Cmp::Ne,
        Cmp::Ne => Cmp::Eq,
    }
}

/// `c op b` with the constant on the left is `b mirror(op) c`.
fn mirror_cmp(op: Cmp) -> Cmp {
    match op {
        Cmp::Lt => Cmp::Gt,
        Cmp::Le => Cmp::Ge,
        Cmp::Gt => Cmp::Lt,
        Cmp::Ge => Cmp::Le,
        Cmp::Eq => Cmp::Eq,
        Cmp::Ne => Cmp::Ne,
    }
}

/// Converts a condition to DNF (a disjunction of literal conjunctions),
/// pushing negation to the leaves. Returns `None` past [`DNF_CAP`].
fn dnf(cond: &Condition, neg: bool) -> Option<Vec<Vec<Lit>>> {
    match cond {
        Condition::True => Some(vec![vec![Lit::Bool(!neg)]]),
        Condition::False => Some(vec![vec![Lit::Bool(neg)]]),
        Condition::Cmp { lhs, op, rhs } => Some(vec![vec![Lit::Cmp {
            lhs: lhs.clone(),
            op: if neg { negate_cmp(*op) } else { *op },
            rhs: rhs.clone(),
        }]]),
        Condition::Not(c) => dnf(c, !neg),
        Condition::And(cs) if !neg => dnf_product(cs, false),
        Condition::Or(cs) if neg => dnf_product(cs, true),
        Condition::And(cs) | Condition::Or(cs) => {
            // De Morgan'd And, or plain Or: a disjunction of the parts.
            let mut out = Vec::new();
            for c in cs {
                out.extend(dnf(c, neg)?);
                if out.len() > DNF_CAP {
                    return None;
                }
            }
            Some(out)
        }
    }
}

/// Cross product of the parts' DNFs (used for conjunctions).
fn dnf_product(parts: &[Condition], neg: bool) -> Option<Vec<Vec<Lit>>> {
    let mut acc: Vec<Vec<Lit>> = vec![Vec::new()];
    for part in parts {
        let d = dnf(part, neg)?;
        let mut next = Vec::with_capacity(acc.len() * d.len());
        for conj in &acc {
            for extra in &d {
                let mut merged = conj.clone();
                merged.extend(extra.iter().cloned());
                next.push(merged);
            }
        }
        if next.len() > DNF_CAP {
            return None;
        }
        acc = next;
    }
    Some(acc)
}

enum Operand {
    Val(f64),
    Bean(String),
    Opaque,
}

fn resolve(e: &Expr) -> Operand {
    match e {
        Expr::Const(v) => Operand::Val(*v),
        Expr::Bean(b) => Operand::Bean(b.clone()),
        Expr::Param(_) => Operand::Opaque,
    }
}

/// Decides satisfiability of `cond` over the schema's bean domains.
/// Parameters must already be bound with [`bind_params`] to participate;
/// any remaining symbolic parameter makes affected literals opaque.
pub fn satisfiable(cond: &Condition, schema: &BeanSchema) -> Proof {
    let Some(conjuncts) = dnf(cond, false) else {
        return Proof::Unknown;
    };
    let mut any_unknown = false;
    for conj in &conjuncts {
        match conjunct_witness(conj, schema) {
            ConjunctVerdict::Witness(w) => {
                // A conjunct witness satisfies the whole (equivalent) DNF;
                // also re-check against the original condition when it is
                // closed, so `Sat` can never be reported for a state the
                // engine would not fire on.
                let mut full = w.clone();
                for bean in cond.beans() {
                    let ty = schema.bean_type(bean).unwrap_or(BeanType::Real);
                    full.entry(bean.to_string())
                        .or_insert(if ty.domain().contains(0.0) { 0.0 } else { 1.0 });
                }
                let wm = WorkingMemory::from_beans(full.clone());
                match cond.eval(&wm, &ParamTable::new()) {
                    Ok(true) => return Proof::Sat(full),
                    Ok(false) => any_unknown = true,
                    Err(_) => return Proof::Sat(full),
                }
            }
            ConjunctVerdict::Infeasible => {}
            ConjunctVerdict::Unknown => any_unknown = true,
        }
    }
    if any_unknown {
        Proof::Unknown
    } else {
        Proof::Unsat
    }
}

enum ConjunctVerdict {
    Witness(BTreeMap<String, f64>),
    Infeasible,
    Unknown,
}

fn conjunct_witness(conj: &[Lit], schema: &BeanSchema) -> ConjunctVerdict {
    let mut vars: BTreeMap<String, VarState> = BTreeMap::new();
    let mut uncertain = false;
    for lit in conj {
        match lit {
            Lit::Bool(true) => {}
            Lit::Bool(false) => return ConjunctVerdict::Infeasible,
            Lit::Cmp { lhs, op, rhs } => {
                let (bean, op, c) = match (resolve(lhs), resolve(rhs)) {
                    (Operand::Val(a), Operand::Val(b)) => {
                        if op.apply(a, b) {
                            continue;
                        }
                        return ConjunctVerdict::Infeasible;
                    }
                    (Operand::Bean(b), Operand::Val(c)) => (b, *op, c),
                    (Operand::Val(c), Operand::Bean(b)) => (b, mirror_cmp(*op), c),
                    _ => {
                        uncertain = true;
                        continue;
                    }
                };
                let ty = schema.bean_type(&bean).unwrap_or(BeanType::Real);
                vars.entry(bean)
                    .or_insert_with(|| VarState::new(ty))
                    .constrain(op, c);
            }
        }
    }
    if vars.values().any(|v| !v.feasible()) {
        return ConjunctVerdict::Infeasible;
    }
    if uncertain {
        return ConjunctVerdict::Unknown;
    }
    let mut witness = BTreeMap::new();
    for (bean, state) in &vars {
        match state.witness() {
            Some(v) => {
                witness.insert(bean.clone(), v);
            }
            // Feasible but no finite witness found (e.g. pinned at +inf):
            // don't claim sat.
            None => return ConjunctVerdict::Unknown,
        }
    }
    // Re-verify every literal at the witness; a failure means a witness
    // selection bug, so refuse to claim sat rather than mis-report.
    for lit in conj {
        if let Lit::Cmp { lhs, op, rhs } = lit {
            let ok = match (resolve(lhs), resolve(rhs)) {
                (Operand::Val(a), Operand::Val(b)) => op.apply(a, b),
                (Operand::Bean(b), Operand::Val(c)) => {
                    witness.get(&b).is_some_and(|v| op.apply(*v, c))
                }
                (Operand::Val(c), Operand::Bean(b)) => {
                    witness.get(&b).is_some_and(|v| op.apply(c, *v))
                }
                _ => true,
            };
            if !ok {
                return ConjunctVerdict::Unknown;
            }
        }
    }
    ConjunctVerdict::Witness(witness)
}

/// Direction in which a bean must move to help enable `cond`, if the
/// condition is monotone in that bean. `None` when the bean does not
/// appear, appears non-monotonically (`==`), or appears with both
/// polarities.
fn enabling_dir(
    cond: &Condition,
    bean: &str,
    neg: bool,
    dirs: &mut BTreeSet<Dir>,
    mixed: &mut bool,
) {
    match cond {
        Condition::True | Condition::False => {}
        Condition::Not(c) => enabling_dir(c, bean, !neg, dirs, mixed),
        Condition::And(cs) | Condition::Or(cs) => {
            for c in cs {
                enabling_dir(c, bean, neg, dirs, mixed);
            }
        }
        Condition::Cmp { lhs, op, rhs } => {
            let op = if neg { negate_cmp(*op) } else { *op };
            let lhs_is = matches!(lhs, Expr::Bean(b) if b == bean);
            let rhs_is = matches!(rhs, Expr::Bean(b) if b == bean);
            if lhs_is && rhs_is {
                *mixed = true;
                return;
            }
            let op = if rhs_is { mirror_cmp(op) } else { op };
            if lhs_is || rhs_is {
                match op {
                    Cmp::Lt | Cmp::Le => {
                        dirs.insert(Dir::Down);
                    }
                    Cmp::Gt | Cmp::Ge => {
                        dirs.insert(Dir::Up);
                    }
                    Cmp::Eq => *mixed = true,
                    // `!=` (incl. bare-flag sugar) carries no direction.
                    Cmp::Ne => {}
                }
            }
        }
    }
}

fn cond_direction(cond: &Condition, bean: &str) -> Option<Dir> {
    let mut dirs = BTreeSet::new();
    let mut mixed = false;
    enabling_dir(cond, bean, false, &mut dirs, &mut mixed);
    if mixed || dirs.len() != 1 {
        return None;
    }
    dirs.into_iter().next()
}

impl PartialOrd for Dir {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dir {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(d: &Dir) -> u8 {
            match d {
                Dir::Up => 0,
                Dir::Down => 1,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// The rule-program analyzer: a bean/parameter schema plus operation
/// effect annotations.
#[derive(Debug, Clone)]
pub struct Analyzer {
    schema: BeanSchema,
    effects: EffectTable,
}

impl Analyzer {
    /// Creates an analyzer over the given schema with the standard
    /// operation effects.
    pub fn new(schema: BeanSchema) -> Self {
        Analyzer {
            schema,
            effects: EffectTable::standard(),
        }
    }

    /// The schema under analysis.
    pub fn schema(&self) -> &BeanSchema {
        &self.schema
    }

    /// Runs all intra-set checks over a rule program.
    ///
    /// `params` is the manager's bound parameter table when known (at
    /// contract-adoption time); binding parameters makes cross-rule
    /// comparisons decidable, and any diagnostic that *only* appears once
    /// parameters are bound is downgraded to a warning (the program is
    /// fine; this contract merely makes a rule dormant or overlapping).
    /// `spans` attaches source positions when the program came from text.
    pub fn analyze(
        &self,
        rules: &RuleSet,
        params: Option<&ParamTable>,
        spans: Option<&SourceMap>,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let span_of = |rule: &str| spans.and_then(|s| s.span(rule));

        for rule in rules.rules() {
            self.check_schema(rule, params, span_of(&rule.name), &mut out);
            self.check_sat(rule, params, span_of(&rule.name), &mut out);
            self.check_no_effect(rule, span_of(&rule.name), &mut out);
        }
        self.check_shadowing(rules, params, &span_of, &mut out);
        self.check_oscillation(rules, params, &span_of, &mut out);
        out
    }

    /// Check: a rule none of whose actions carry an [`EffectTable`] entry
    /// (and are not declared [`EffectTable::inert`]) is invisible to the
    /// oscillation/conflict heuristics *and* to the model checker's plant
    /// abstraction — warn so the coverage gap is explicit. Skipped when
    /// the effect table is entirely empty (custom vocabularies without
    /// annotations).
    fn check_no_effect(&self, rule: &Rule, span: Option<(u32, u32)>, out: &mut Vec<Diagnostic>) {
        if self.effects.bean_effects.is_empty() && self.effects.actuators.is_empty() {
            return;
        }
        let ops = rule.execute();
        if ops.is_empty() {
            return;
        }
        let unmodelled: Vec<&str> = ops
            .iter()
            .filter(|call| {
                !self.effects.is_inert(&call.operation)
                    && self.effects.actuator_of(&call.operation).is_none()
                    && self.effects.effects_of(&call.operation).is_empty()
            })
            .map(|call| call.operation.as_ref())
            .collect();
        if unmodelled.len() == ops.len() {
            out.push(Diagnostic {
                severity: Severity::Warning,
                code: LintCode::NoEffect,
                rule: rule.name.clone(),
                peer: None,
                span,
                message: format!(
                    "no action of this rule has an effect-table entry ({}); the rule is \
                     invisible to oscillation/conflict analysis and to the model checker — \
                     annotate the operation(s) or declare them inert",
                    unmodelled.join(", ")
                ),
            });
        }
    }

    fn check_schema(
        &self,
        rule: &Rule,
        params: Option<&ParamTable>,
        span: Option<(u32, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut unknown_beans = BTreeSet::new();
        let mut unknown_params = BTreeSet::new();
        for bean in rule.when.beans() {
            if self.schema.bean_type(bean).is_none() {
                unknown_beans.insert(bean.to_string());
            }
        }
        for p in rule.when.params() {
            match params {
                Some(t) if t.get(p).is_none() => {
                    unknown_params.insert((p.to_string(), Severity::Error));
                }
                None if self.schema.declares_params() && !self.schema.has_param(p) => {
                    unknown_params.insert((p.to_string(), Severity::Warning));
                }
                _ => {}
            }
        }
        for bean in unknown_beans {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::UnknownBean,
                rule: rule.name.clone(),
                peer: None,
                span,
                message: format!(
                    "condition references bean `{bean}`, which the ABC never publishes; \
                     evaluation will fail every control cycle"
                ),
            });
        }
        for (p, severity) in unknown_params {
            let detail = if severity == Severity::Error {
                "not bound by the manager's parameter table"
            } else {
                "not among the declared contract parameters"
            };
            out.push(Diagnostic {
                severity,
                code: LintCode::UnknownParam,
                rule: rule.name.clone(),
                peer: None,
                span,
                message: format!("condition references parameter `${p}`, {detail}"),
            });
        }
        self.check_types(rule, span, out);
    }

    fn check_types(&self, rule: &Rule, span: Option<(u32, u32)>, out: &mut Vec<Diagnostic>) {
        let mut walk = vec![&rule.when];
        while let Some(c) = walk.pop() {
            match c {
                Condition::And(cs) | Condition::Or(cs) => walk.extend(cs.iter()),
                Condition::Not(inner) => walk.push(inner),
                Condition::Cmp { lhs, op, rhs } => {
                    let ty = |e: &Expr| match e {
                        Expr::Bean(b) => self.schema.bean_type(b),
                        _ => None,
                    };
                    let (lt, rt) = (ty(lhs), ty(rhs));
                    let push = |severity, message, out: &mut Vec<Diagnostic>| {
                        out.push(Diagnostic {
                            severity,
                            code: LintCode::TypeError,
                            rule: rule.name.clone(),
                            peer: None,
                            span,
                            message,
                        });
                    };
                    match (lt, rt) {
                        (Some(BeanType::Flag), Some(r)) if r != BeanType::Flag => push(
                            Severity::Error,
                            format!("flag bean compared against numeric bean in `{c}`"),
                            out,
                        ),
                        (Some(l), Some(BeanType::Flag)) if l != BeanType::Flag => push(
                            Severity::Error,
                            format!("numeric bean compared against flag bean in `{c}`"),
                            out,
                        ),
                        _ => {
                            let flag_vs_const = match (lt, rhs, rt, lhs) {
                                (Some(BeanType::Flag), Expr::Const(v), _, _) => Some(*v),
                                (_, _, Some(BeanType::Flag), Expr::Const(v)) => Some(*v),
                                _ => None,
                            };
                            if let Some(v) = flag_vs_const {
                                if matches!(op, Cmp::Eq | Cmp::Ne) && v != 0.0 && v != 1.0 {
                                    let (sev, what) = if *op == Cmp::Eq {
                                        (Severity::Error, "never holds")
                                    } else {
                                        (Severity::Warning, "always holds")
                                    };
                                    push(
                                        sev,
                                        format!(
                                            "flag bean takes only 0/1, so `{c}` {what} \
                                             (compared against {v})"
                                        ),
                                        out,
                                    );
                                } else if matches!(op, Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge) {
                                    push(
                                        Severity::Warning,
                                        format!(
                                            "ordering comparison on a 0/1 flag bean in `{c}`; \
                                             write the flag test directly"
                                        ),
                                        out,
                                    );
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn check_sat(
        &self,
        rule: &Rule,
        params: Option<&ParamTable>,
        span: Option<(u32, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Literal `true` / `false` guards are deliberate (unconditional
        // and disabled rules); skip them.
        if matches!(rule.when, Condition::True | Condition::False) {
            return;
        }
        let structural = satisfiable(&rule.when, &self.schema);
        if structural == Proof::Unsat {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::Unsatisfiable,
                rule: rule.name.clone(),
                peer: None,
                span,
                message: "condition can never hold for any published sensor state".into(),
            });
        } else if let Some(t) = params {
            if satisfiable(&bind_params(&rule.when, t), &self.schema) == Proof::Unsat {
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: LintCode::Unsatisfiable,
                    rule: rule.name.clone(),
                    peer: None,
                    span,
                    message: "condition can never hold under the bound contract parameters; \
                              the rule is dormant"
                        .into(),
                });
            }
        }
        let negated = Condition::Not(Box::new(rule.when.clone()));
        if satisfiable(&negated, &self.schema) == Proof::Unsat {
            out.push(Diagnostic {
                severity: Severity::Warning,
                code: LintCode::Tautology,
                rule: rule.name.clone(),
                peer: None,
                span,
                message: "condition always holds; the rule fires every control cycle \
                          (write `when true` if intended)"
                    .into(),
            });
        } else if let Some(t) = params {
            if satisfiable(&bind_params(&negated, t), &self.schema) == Proof::Unsat {
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: LintCode::Tautology,
                    rule: rule.name.clone(),
                    peer: None,
                    span,
                    message: "condition always holds under the bound contract parameters".into(),
                });
            }
        }
    }

    fn check_shadowing(
        &self,
        rules: &RuleSet,
        params: Option<&ParamTable>,
        span_of: &impl Fn(&str) -> Option<(u32, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        for shadower in rules.rules() {
            for shadowed in rules.rules() {
                if shadower.salience <= shadowed.salience {
                    continue;
                }
                if matches!(shadowed.when, Condition::True | Condition::False) {
                    continue;
                }
                // `shadowed ⇒ shadower` iff `shadowed ∧ ¬shadower` unsat.
                let gap = Condition::And(vec![
                    shadowed.when.clone(),
                    Condition::Not(Box::new(shadower.when.clone())),
                ]);
                let (proof, bound_only) = match satisfiable(&gap, &self.schema) {
                    Proof::Unsat => (true, false),
                    Proof::Unknown => match params {
                        Some(t) => (
                            satisfiable(&bind_params(&gap, t), &self.schema) == Proof::Unsat,
                            true,
                        ),
                        None => (false, false),
                    },
                    Proof::Sat(_) => (false, false),
                };
                if !proof {
                    continue;
                }
                let ops_a: Vec<String> = shadower
                    .execute()
                    .into_iter()
                    .map(|o| o.operation.into_owned())
                    .collect();
                let ops_b: Vec<String> = shadowed
                    .execute()
                    .into_iter()
                    .map(|o| o.operation.into_owned())
                    .collect();
                if let Some(resource) = self.effects.opposing(&ops_a, &ops_b) {
                    out.push(Diagnostic {
                        severity: if bound_only {
                            Severity::Warning
                        } else {
                            Severity::Error
                        },
                        code: LintCode::Shadowed,
                        rule: shadowed.name.clone(),
                        peer: Some(shadower.name.clone()),
                        span: span_of(&shadowed.name),
                        message: format!(
                            "whenever `{}` fires, higher-salience `{}` also fires and drives \
                             `{resource}` the opposite way in the same cycle, so `{}` can never \
                             usefully fire",
                            shadowed.name, shadower.name, shadowed.name
                        ),
                    });
                } else if !ops_b.is_empty() && ops_b.iter().all(|o| ops_a.contains(o)) {
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        code: LintCode::Shadowed,
                        rule: shadowed.name.clone(),
                        peer: Some(shadower.name.clone()),
                        span: span_of(&shadowed.name),
                        message: format!(
                            "redundant: whenever `{}` fires, higher-salience `{}` already fires \
                             the same operations",
                            shadowed.name, shadower.name
                        ),
                    });
                }
            }
        }
    }

    fn check_oscillation(
        &self,
        rules: &RuleSet,
        params: Option<&ParamTable>,
        span_of: &impl Fn(&str) -> Option<(u32, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let all = rules.rules();
        let ops: Vec<Vec<String>> = all
            .iter()
            .map(|r| {
                r.execute()
                    .into_iter()
                    .map(|o| o.operation.into_owned())
                    .collect()
            })
            .collect();
        // edge i → j: some effect of rule i's actions moves a bean in the
        // direction that enables rule j.
        let edge = |i: usize, j: usize| {
            ops[i].iter().any(|op| {
                self.effects
                    .effects_of(op)
                    .iter()
                    .any(|(bean, d)| cond_direction(&all[j].when, bean) == Some(*d))
            })
        };
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                if !(edge(i, j) && edge(j, i)) {
                    continue;
                }
                let Some(resource) = self.effects.opposing(&ops[i], &ops[j]) else {
                    continue;
                };
                // Undamped iff both guards can hold in one state: no dead
                // band separates them, so the pair adds and removes (or
                // raises and lowers) in the same or alternating cycles.
                let both = Condition::And(vec![all[i].when.clone(), all[j].when.clone()]);
                let (proof, bound_only) = match satisfiable(&both, &self.schema) {
                    Proof::Sat(w) => (Some(w), false),
                    Proof::Unknown => match params {
                        Some(t) => match satisfiable(&bind_params(&both, t), &self.schema) {
                            Proof::Sat(w) => (Some(w), true),
                            _ => (None, false),
                        },
                        None => (None, false),
                    },
                    Proof::Unsat => (None, false),
                };
                let Some(witness) = proof else {
                    continue;
                };
                out.push(Diagnostic {
                    severity: if bound_only {
                        Severity::Warning
                    } else {
                        Severity::Error
                    },
                    code: LintCode::Oscillation,
                    rule: all[i].name.clone(),
                    peer: Some(all[j].name.clone()),
                    span: span_of(&all[i].name),
                    message: format!(
                        "`{}` and `{}` re-enable each other and drive `{resource}` in opposite \
                         directions with no damping dead band (both fireable at {}); separate \
                         their thresholds",
                        all[i].name,
                        all[j].name,
                        fmt_witness(&witness)
                    ),
                });
            }
        }
    }

    /// Cross-manager conflict detection (TR-09-10): rule pairs from two
    /// managers that drive the same actuator in opposite directions and
    /// whose guards are co-satisfiable in one working-memory state.
    ///
    /// Each side carries its manager label and (optionally) its bound
    /// parameter table. With parameters bound a provable co-fireable
    /// conflict is an error; an undecidable one (symbolic thresholds) is
    /// a warning so the two-phase coordinator's arbitration is at least
    /// pointed at.
    pub fn check_conflicts(
        &self,
        a: (&str, &RuleSet, Option<&ParamTable>),
        b: (&str, &RuleSet, Option<&ParamTable>),
    ) -> Vec<Diagnostic> {
        let (label_a, set_a, params_a) = a;
        let (label_b, set_b, params_b) = b;
        let empty = ParamTable::new();
        let mut out = Vec::new();
        for ra in set_a.rules() {
            let ops_a: Vec<String> = ra
                .execute()
                .into_iter()
                .map(|o| o.operation.into_owned())
                .collect();
            let ca = bind_params(&ra.when, params_a.unwrap_or(&empty));
            for rb in set_b.rules() {
                let ops_b: Vec<String> = rb
                    .execute()
                    .into_iter()
                    .map(|o| o.operation.into_owned())
                    .collect();
                let Some(resource) = self.effects.opposing_actuator(&ops_a, &ops_b) else {
                    continue;
                };
                let cb = bind_params(&rb.when, params_b.unwrap_or(&empty));
                let both = Condition::And(vec![ca.clone(), cb.clone()]);
                let (severity, detail) = match satisfiable(&both, &self.schema) {
                    Proof::Sat(w) => (
                        Severity::Error,
                        format!("both fireable at {}", fmt_witness(&w)),
                    ),
                    Proof::Unknown => (
                        Severity::Warning,
                        "co-firing cannot be ruled out with the given parameters".into(),
                    ),
                    Proof::Unsat => continue,
                };
                out.push(Diagnostic {
                    severity,
                    code: LintCode::Conflict,
                    rule: format!("{label_a}:{}", ra.name),
                    peer: Some(format!("{label_b}:{}", rb.name)),
                    span: None,
                    message: format!(
                        "managers `{label_a}` and `{label_b}` drive `{resource}` in opposite \
                         directions ({} vs {}); {detail}",
                        ra.name, rb.name
                    ),
                });
            }
        }
        out
    }
}

fn fmt_witness(w: &BTreeMap<String, f64>) -> String {
    let parts: Vec<String> = w.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Action;
    use crate::parser::parse_rules_spanned;

    impl Analyzer {
        fn with_effects(mut self, effects: EffectTable) -> Self {
            self.effects = effects;
            self
        }
    }

    fn schema() -> BeanSchema {
        BeanSchema::new()
            .bean("arrivalRate", BeanType::Rate)
            .bean("departureRate", BeanType::Rate)
            .bean("numWorkers", BeanType::Count)
            .bean("queueVariance", BeanType::Rate)
            .bean("queuedTasks", BeanType::Count)
            .bean("endOfStream", BeanType::Flag)
            .bean("x", BeanType::Real)
            .param("LOW")
            .param("HIGH")
    }

    fn analyze_src(src: &str, params: Option<&ParamTable>) -> Vec<Diagnostic> {
        let (set, spans) = parse_rules_spanned(src).unwrap();
        Analyzer::new(schema()).analyze(&set, params, Some(&spans))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<(Severity, LintCode)> {
        diags.iter().map(|d| (d.severity, d.code)).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let d = analyze_src(
            r#"
            rule "grow" when departureRate < $LOW && numWorkers <= 16 then fire(ADD_EXECUTOR) end
            "#,
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unannotated_op_warns_no_effect() {
        let d = analyze_src(
            "rule \"r\" when departureRate < $LOW then fire(DO_MYSTERY) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::NoEffect)]);
        // One modelled action is enough to make the rule visible.
        let d = analyze_src(
            "rule \"r\" when departureRate < $LOW then fire(DO_MYSTERY); fire(ADD_EXECUTOR) end",
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn inert_ops_are_not_flagged_no_effect() {
        // RAISE_VIOLATION is declared inert in the standard table: pure
        // signalling, not a coverage gap.
        let d = analyze_src(
            "rule \"r\" when departureRate < $LOW then fireOperation(RAISE_VIOLATION) end",
            None,
        );
        assert!(d.is_empty(), "{d:?}");
        // An empty effect table disables the check entirely.
        let (set, _) =
            parse_rules_spanned("rule \"r\" when departureRate < $LOW then fire(DO_MYSTERY) end")
                .unwrap();
        let d = Analyzer::new(schema())
            .with_effects(EffectTable::new())
            .analyze(&set, None, None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_bean_is_error_with_span() {
        let d = analyze_src(
            "rule \"r\" when noSuchBean > 1 then fire(ADD_EXECUTOR) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Error, LintCode::UnknownBean)]);
        assert_eq!(d[0].span, Some((1, 6)));
    }

    #[test]
    fn unknown_param_warns_structurally_errors_when_bound() {
        let src = "rule \"r\" when departureRate < $NOPE then fire(ADD_EXECUTOR) end";
        let d = analyze_src(src, None);
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::UnknownParam)]);
        let t = ParamTable::new().with("LOW", 1.0);
        let d = analyze_src(src, Some(&t));
        assert_eq!(codes(&d), [(Severity::Error, LintCode::UnknownParam)]);
    }

    #[test]
    fn flag_type_errors() {
        let d = analyze_src(
            "rule \"r\" when endOfStream == 0.5 then fire(ADD_EXECUTOR) end",
            None,
        );
        assert!(
            codes(&d).contains(&(Severity::Error, LintCode::TypeError)),
            "{d:?}"
        );
        let d = analyze_src(
            "rule \"r\" when endOfStream < numWorkers then fire(ADD_EXECUTOR) end",
            None,
        );
        assert!(
            codes(&d).contains(&(Severity::Error, LintCode::TypeError)),
            "{d:?}"
        );
        let d = analyze_src(
            "rule \"r\" when endOfStream >= 1 then fire(ADD_EXECUTOR) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::TypeError)]);
    }

    #[test]
    fn structural_unsat_is_error() {
        let d = analyze_src(
            "rule \"r\" when departureRate < 5 && departureRate > 7 then fire(ADD_EXECUTOR) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Error, LintCode::Unsatisfiable)]);
    }

    #[test]
    fn domain_unsat_is_error() {
        // Rates are non-negative, so `< -1` can never hold.
        let d = analyze_src(
            "rule \"r\" when departureRate < -1 then fire(ADD_EXECUTOR) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Error, LintCode::Unsatisfiable)]);
    }

    #[test]
    fn param_bound_unsat_is_dormant_warning() {
        let src = "rule \"r\" when departureRate > $HIGH then fire(REMOVE_EXECUTOR) end";
        assert!(analyze_src(src, None).is_empty());
        let t = ParamTable::new().with("HIGH", f64::INFINITY);
        let d = analyze_src(src, Some(&t));
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Unsatisfiable)]);
    }

    #[test]
    fn tautology_warns() {
        let d = analyze_src(
            "rule \"r\" when departureRate >= 0 then fire(BALANCE_LOAD) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Tautology)]);
        // Literal `true` is an intentional unconditional rule: clean.
        let d = analyze_src("rule \"r\" when true then fire(BALANCE_LOAD) end", None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn excluded_middle_tautology_warns() {
        let d = analyze_src(
            "rule \"r\" when x < 5 || x >= 5 then fire(BALANCE_LOAD) end",
            None,
        );
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Tautology)]);
    }

    #[test]
    fn shadowed_conflicting_action_is_error() {
        let d = analyze_src(
            r#"
            rule "shrink" salience 10 when numWorkers > 2 then fire(REMOVE_EXECUTOR) end
            rule "grow" when numWorkers > 4 then fire(ADD_EXECUTOR) end
            "#,
            None,
        );
        assert_eq!(codes(&d), [(Severity::Error, LintCode::Shadowed)]);
        assert_eq!(d[0].rule, "grow");
        assert_eq!(d[0].peer.as_deref(), Some("shrink"));
    }

    #[test]
    fn shadowed_same_action_is_redundancy_warning() {
        let d = analyze_src(
            r#"
            rule "a" salience 10 when numWorkers > 2 then fire(ADD_EXECUTOR) end
            rule "b" when numWorkers > 4 then fire(ADD_EXECUTOR) end
            "#,
            None,
        );
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Shadowed)]);
    }

    #[test]
    fn non_overlapping_salience_pair_is_clean() {
        let d = analyze_src(
            r#"
            rule "a" salience 10 when numWorkers > 8 then fire(REMOVE_EXECUTOR) end
            rule "b" when numWorkers < 4 then fire(ADD_EXECUTOR) end
            "#,
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn undamped_oscillation_is_error() {
        let d = analyze_src(
            r#"
            rule "grow" when departureRate < 10 then fire(ADD_EXECUTOR) end
            rule "shrink" when departureRate > 5 then fire(REMOVE_EXECUTOR) end
            "#,
            None,
        );
        assert_eq!(codes(&d), [(Severity::Error, LintCode::Oscillation)]);
        assert!(d[0].message.contains("departureRate"), "{}", d[0].message);
    }

    #[test]
    fn dead_band_damps_oscillation() {
        let d = analyze_src(
            r#"
            rule "grow" when departureRate < 5 then fire(ADD_EXECUTOR) end
            rule "shrink" when departureRate > 10 then fire(REMOVE_EXECUTOR) end
            "#,
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn symbolic_thresholds_do_not_flag_oscillation() {
        // Fig. 5 shape: thresholds are contract parameters; without bound
        // values the analyzer must stay silent.
        let d = analyze_src(
            r#"
            rule "grow" when departureRate < $LOW then fire(ADD_EXECUTOR) end
            rule "shrink" when departureRate > $HIGH then fire(REMOVE_EXECUTOR) end
            "#,
            None,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn inverted_bound_params_flag_oscillation_as_warning() {
        let src = r#"
            rule "grow" when departureRate < $LOW then fire(ADD_EXECUTOR) end
            rule "shrink" when departureRate > $HIGH then fire(REMOVE_EXECUTOR) end
        "#;
        let t = ParamTable::new().with("LOW", 0.7).with("HIGH", 0.3);
        let d = analyze_src(src, Some(&t));
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Oscillation)]);
        // Properly ordered thresholds leave a dead band: clean.
        let t = ParamTable::new().with("LOW", 0.3).with("HIGH", 0.7);
        assert!(analyze_src(src, Some(&t)).is_empty());
    }

    #[test]
    fn fig5_farm_rules_pass_clean() {
        let (set, spans) = parse_rules_spanned(crate::stdlib::FARM_RULES_TEXT).unwrap();
        let schema = BeanSchema::new()
            .bean("arrivalRate", BeanType::Rate)
            .bean("departureRate", BeanType::Rate)
            .bean("numWorkers", BeanType::Count)
            .bean("queueVariance", BeanType::Rate);
        let d = Analyzer::new(schema).analyze(&set, None, Some(&spans));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cross_manager_conflict_detected() {
        let grow: RuleSet = RuleSet::new().with(Rule::new(
            "grow",
            Condition::bean_vs_const("numWorkers", Cmp::Lt, 3.0),
            vec![Action::Fire(crate::op::ADD_EXECUTOR.into())],
        ));
        let shrink: RuleSet = RuleSet::new().with(Rule::new(
            "shrink",
            Condition::bean_vs_const("numWorkers", Cmp::Gt, 1.0),
            vec![Action::Fire(crate::op::REMOVE_EXECUTOR.into())],
        ));
        let d =
            Analyzer::new(schema()).check_conflicts(("ft", &grow, None), ("perf", &shrink, None));
        assert_eq!(codes(&d), [(Severity::Error, LintCode::Conflict)]);
        assert_eq!(d[0].rule, "ft:grow");
        assert_eq!(d[0].peer.as_deref(), Some("perf:shrink"));
    }

    #[test]
    fn disjoint_cross_manager_guards_are_clean() {
        let grow: RuleSet = RuleSet::new().with(Rule::new(
            "grow",
            Condition::bean_vs_const("numWorkers", Cmp::Lt, 3.0),
            vec![Action::Fire(crate::op::ADD_EXECUTOR.into())],
        ));
        let shrink: RuleSet = RuleSet::new().with(Rule::new(
            "shrink",
            Condition::bean_vs_const("numWorkers", Cmp::Gt, 8.0),
            vec![Action::Fire(crate::op::REMOVE_EXECUTOR.into())],
        ));
        let d =
            Analyzer::new(schema()).check_conflicts(("ft", &grow, None), ("perf", &shrink, None));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn symbolic_cross_manager_conflict_warns() {
        let grow: RuleSet = RuleSet::new().with(Rule::new(
            "grow",
            Condition::bean_vs_param("numWorkers", Cmp::Lt, "FT_MIN"),
            vec![Action::Fire(crate::op::ADD_EXECUTOR.into())],
        ));
        let shrink: RuleSet = RuleSet::new().with(Rule::new(
            "shrink",
            Condition::bean_vs_param("numWorkers", Cmp::Gt, "MIN"),
            vec![Action::Fire(crate::op::REMOVE_EXECUTOR.into())],
        ));
        let d =
            Analyzer::new(schema()).check_conflicts(("ft", &grow, None), ("perf", &shrink, None));
        assert_eq!(codes(&d), [(Severity::Warning, LintCode::Conflict)]);
    }

    #[test]
    fn sat_witness_is_verified() {
        // A satisfiable condition yields a witness that actually
        // satisfies it.
        let cond = Condition::And(vec![
            Condition::bean_vs_const("x", Cmp::Gt, 2.0),
            Condition::bean_vs_const("x", Cmp::Lt, 3.0),
            Condition::bean_vs_const("x", Cmp::Ne, 2.5),
        ]);
        match satisfiable(&cond, &schema()) {
            Proof::Sat(w) => {
                let wm = WorkingMemory::from_beans(w);
                assert_eq!(cond.eval(&wm, &ParamTable::new()), Ok(true));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn flag_domain_reasoning() {
        // A flag pinned to both 0 and 1 is unsatisfiable.
        let cond = Condition::And(vec![
            Condition::flag("endOfStream"),
            Condition::not_flag("endOfStream"),
        ]);
        assert_eq!(satisfiable(&cond, &schema()), Proof::Unsat);
        // != 0 ∨ == 0 over {0,1} is a tautology.
        let cond = Condition::Or(vec![
            Condition::flag("endOfStream"),
            Condition::not_flag("endOfStream"),
        ]);
        let neg = Condition::Not(Box::new(cond));
        assert_eq!(satisfiable(&neg, &schema()), Proof::Unsat);
    }

    #[test]
    fn bean_vs_bean_is_unknown() {
        let cond = Condition::cmp(
            Expr::Bean("arrivalRate".into()),
            Cmp::Lt,
            Expr::Bean("departureRate".into()),
        );
        assert_eq!(satisfiable(&cond, &schema()), Proof::Unknown);
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            severity: Severity::Error,
            code: LintCode::Unsatisfiable,
            rule: "r".into(),
            peer: None,
            span: Some((3, 7)),
            message: "nope".into(),
        };
        assert_eq!(d.to_string(), "error[unsat] rule `r` (3:7): nope");
    }
}

//! Explicit-state bounded model checking of rule programs.
//!
//! `rulelint` (PR 2) checks rule programs with *local* heuristics: one
//! rule's guard is satisfiable, two rules' effect edges form a two-cycle.
//! This module checks the *temporal* properties those heuristics cannot
//! decide, by compiling (rule program × `EffectTable` × [`BeanSchema`] ×
//! contract) into a finite transition system and exploring it exhaustively:
//!
//! * **Recovery** — from every reachable contract-violating state, a
//!   violation-free state is reachable within `k` control firings (or the
//!   manager escalates by firing `RAISE_VIOLATION`, discharging the
//!   obligation to its parent — the paper's hierarchy semantics).
//! * **Livelock / oscillation freedom** — a lasso search over the
//!   deterministic controller-only successor function: any reachable cycle
//!   in which actuator operations keep firing is a proof of livelock, and
//!   a cycle driving one actuator resource both ways is an oscillation.
//!   This demotes `rulelint`'s `W-oscillation` effect-graph heuristic to a
//!   fast pre-pass.
//! * **Dead rules** — rules that fire in no reachable state under any
//!   environment behaviour.
//! * **Cross-manager composition** — the product of two programs sharing
//!   one bean space, coupled through the paper's hierarchy protocol: the
//!   child's `RAISE_VIOLATION` data sets the parent's `violNotEnough` /
//!   `violTooMuch` beans for the same round (`P_spl`-split contracts
//!   escalating through `bskel_core::hierarchy`).
//!
//! # The abstraction
//!
//! Bean values are abstracted into the *threshold intervals* induced by
//! the (param-bound) guard and contract constants: for each bean, every
//! constant it is compared against becomes a cut point, and the abstract
//! value is the region between cuts (cut points are their own singleton
//! regions, so strict and non-strict comparisons stay exact). Count beans
//! keep only regions containing an integer. A state is the vector of
//! region indices plus the engine's edge-trigger bits; each region carries
//! a concrete *representative* value, which the production
//! [`crate::engine::RuleEngine`] evaluates — the abstract controller is
//! the real controller.
//!
//! Transitions:
//!
//! * **Control edges** (deterministic): each program's production
//!   engine, restored to the state's edge bits, runs
//!   [`crate::engine::RuleEngine::cycle`] on the representative values;
//!   every affected bean then moves one region in the net direction of
//!   the fired operations' `EffectTable` entries. This folds the plant
//!   response into the firing step: `ADD_EXECUTOR` *eventually* raises
//!   `departureRate`, and in the abstraction "eventually" is the next
//!   region.
//! * **Environment edges**: beans not driven by any operation the program
//!   can fire are environment inputs; each may move one region up or down
//!   per step (configurable per bean, e.g. end-of-stream flags only rise).
//!   Plant beans move *only* through effects — failures and load swings
//!   are modelled by initial-state coverage, not plant perturbation (see
//!   DESIGN.md for the soundness discussion).
//!
//! Reductions: beans outside the cone of influence (guards ∪ property
//! conditions) are projected away entirely, and commuting environment
//! moves are explored in canonical (sorted) order only — a partial-order
//! reduction that preserves reachability because environment moves on
//! distinct beans commute.
//!
//! Every property failure carries a [`Counterexample`]: the concrete
//! representative valuations and rule firings step for step, which
//! `bskel_sim`'s replay adapter re-runs against the deterministic DES and
//! the production engine to confirm the trace is real.

use crate::analysis::{
    bind_params, BeanSchema, BeanType, Diagnostic, Dir, EffectTable, LintCode, Severity,
};
use crate::ast::{Condition, Expr, RuleSet};
use crate::engine::{Firing, RuleEngine};
use crate::op;
use crate::stdlib::{hier_beans, viol};
use crate::wm::{ParamTable, WorkingMemory};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Specification
// ---------------------------------------------------------------------------

/// How the environment may move a bean between control cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvMove {
    /// May move one region up or down per step (the default for beans the
    /// program never actuates).
    Free,
    /// May only rise (e.g. an end-of-stream flag, a cumulative counter).
    UpOnly,
    /// May only fall.
    DownOnly,
    /// Never moves on its own (the default for actuated beans).
    Frozen,
}

/// What to check, and under which environment assumptions.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Contract-violation condition over beans (param-free). `None`
    /// disables the recovery property (programs without a leaf contract).
    pub violation: Option<Condition>,
    /// States satisfying this condition are exempt from recovery (e.g.
    /// `endOfStream`: the paper's AM stops reacting to `notEnough` once
    /// the stream has ended).
    pub waiver: Option<Condition>,
    /// Recovery bound: a violation-free (or escalated) state must be
    /// reachable within this many control firings.
    pub recovery_k: usize,
    /// Whether firing `RAISE_VIOLATION` discharges the recovery
    /// obligation (true for leaf managers reporting to a parent; false
    /// when the parent is inside the model, i.e. composed checks).
    pub escalation_discharges: bool,
    /// Physical invariants assumed of every state (e.g.
    /// `departureRate <= arrivalRate`: delivered throughput cannot exceed
    /// offered load). Initial states and environment moves violating an
    /// invariant are pruned; a control effect that would cross one is
    /// clamped at it (the plant saturates).
    pub invariants: Vec<Condition>,
    /// Initial-value ranges per bean (inclusive); unlisted beans start in
    /// every region of their domain.
    pub initial: BTreeMap<String, (f64, f64)>,
    /// Per-bean environment overrides (by default actuated beans are
    /// [`EnvMove::Frozen`], all others [`EnvMove::Free`]).
    pub env: BTreeMap<String, EnvMove>,
    /// Min-plant refinement `(bean, input)`: `bean` is modelled as
    /// `min(input, capacity)` for a hidden capacity variable, and
    /// operation effects on `bean` are redirected — to `input` when the
    /// operation already drives `input` (rate actuators), to the hidden
    /// capacity otherwise (parallelism actuators). This is the physical
    /// law `delivered = min(offered, capacity)`: without it, a rate
    /// actuator appears able to drag delivered throughput below what the
    /// current worker pool sustains, producing spurious stuck states in
    /// composed farm/pipeline models. Ignored when `bean` is outside the
    /// cone of influence.
    pub plant_min: Option<(String, String)>,
    /// Exploration budget; exceeding it is an error, not a silent pass.
    pub max_states: usize,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            violation: None,
            waiver: None,
            recovery_k: 8,
            escalation_discharges: true,
            invariants: Vec::new(),
            initial: BTreeMap::new(),
            env: BTreeMap::new(),
            plant_min: None,
            max_states: 262_144,
        }
    }
}

impl Spec {
    /// Sets the contract-violation condition (builder style).
    pub fn violation(mut self, cond: Condition) -> Self {
        self.violation = Some(cond);
        self
    }

    /// Sets the recovery-waiver condition.
    pub fn waiver(mut self, cond: Condition) -> Self {
        self.waiver = Some(cond);
        self
    }

    /// Sets the recovery bound `k`.
    pub fn recovery_k(mut self, k: usize) -> Self {
        self.recovery_k = k;
        self
    }

    /// Sets whether `RAISE_VIOLATION` discharges recovery.
    pub fn escalation_discharges(mut self, yes: bool) -> Self {
        self.escalation_discharges = yes;
        self
    }

    /// Adds a physical invariant.
    pub fn invariant(mut self, cond: Condition) -> Self {
        self.invariants.push(cond);
        self
    }

    /// Constrains a bean's initial value to `[lo, hi]`.
    pub fn initial(mut self, bean: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.initial.insert(bean.into(), (lo, hi));
        self
    }

    /// Overrides a bean's environment behaviour.
    pub fn env(mut self, bean: impl Into<String>, mv: EnvMove) -> Self {
        self.env.insert(bean.into(), mv);
        self
    }

    /// Enables the min-plant refinement: `bean = min(input, capacity)`.
    pub fn min_plant(mut self, bean: impl Into<String>, input: impl Into<String>) -> Self {
        self.plant_min = Some((bean.into(), input.into()));
        self
    }

    /// The standard throughput plant: `departureRate` is the minimum of
    /// `arrivalRate` (offered load) and the hidden pool capacity, with
    /// the matching physical invariant.
    pub fn throughput_plant(self) -> Self {
        use crate::ast::Cmp;
        self.min_plant("departureRate", "arrivalRate")
            .invariant(Condition::cmp(
                Expr::Bean("departureRate".into()),
                Cmp::Le,
                Expr::Bean("arrivalRate".into()),
            ))
    }
}

/// Builds the standard throughput-contract violation condition
/// (`departureRate` outside `[lo, hi]`), skipping infinite bounds.
/// Returns `None` when both bounds are unconstrained.
pub fn throughput_violation(lo: f64, hi: f64) -> Option<Condition> {
    use crate::ast::Cmp;
    let mut parts = Vec::new();
    if lo > 0.0 && lo.is_finite() {
        parts.push(Condition::bean_vs_const("departureRate", Cmp::Lt, lo));
    }
    if hi.is_finite() {
        parts.push(Condition::bean_vs_const("departureRate", Cmp::Gt, hi));
    }
    match parts.len() {
        0 => None,
        1 => parts.pop(),
        _ => Some(Condition::Or(parts)),
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One step of a counterexample trace: the concrete bean valuation the
/// controller saw, and what it fired from that state. The firings of the
/// last step lead to the next step's valuation (or back to `loops_to`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Representative bean values (a full working memory for the cone).
    pub beans: BTreeMap<String, f64>,
    /// Firings, in engine order, labelled with the program that fired
    /// them (one label for single-program checks).
    pub firings: Vec<(String, Firing)>,
}

/// A concrete witness of a property violation, replayable against the
/// deterministic simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Which property failed (`recovery`, `livelock`, `oscillation`).
    pub property: String,
    /// The trace, one entry per control cycle.
    pub steps: Vec<TraceStep>,
    /// For lasso counterexamples: the step index the last step's firings
    /// lead back to.
    pub loops_to: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

/// Verdict of one checked property.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The property holds in every reachable state.
    Proved,
    /// The property fails; here is the trace.
    Violated(Box<Counterexample>),
}

impl Verdict {
    /// True when the property was proved.
    pub fn proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    /// The counterexample, if the property failed.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Proved => None,
            Verdict::Violated(c) => Some(c),
        }
    }
}

/// Everything one `check` run produced.
#[derive(Debug, Clone)]
pub struct McReport {
    /// The label the caller gave the program (file name, manager name).
    pub label: String,
    /// Reachable abstract states explored.
    pub states: usize,
    /// Transitions taken (control + environment).
    pub transitions: usize,
    /// Recovery-within-k verdict (`None` when no violation condition was
    /// supplied).
    pub recovery: Option<Verdict>,
    /// Livelock/oscillation-freedom verdict.
    pub livelock: Verdict,
    /// Rules that fired in no reachable state (guards `when false` are
    /// deliberate kill-switches and not reported).
    pub dead_rules: Vec<String>,
    /// Exploration + property-check wall time.
    pub wall: Duration,
}

impl McReport {
    /// True when every checked property was proved (dead rules are
    /// reported but do not fail a program).
    pub fn ok(&self) -> bool {
        self.recovery.as_ref().is_none_or(Verdict::proved) && self.livelock.proved()
    }

    /// All counterexamples in the report.
    pub fn counterexamples(&self) -> Vec<&Counterexample> {
        self.recovery
            .iter()
            .chain(std::iter::once(&self.livelock))
            .filter_map(Verdict::counterexample)
            .collect()
    }

    /// Renders the report as `rulelint`-style diagnostics: property
    /// failures as errors ([`LintCode::NoRecovery`] /
    /// [`LintCode::Livelock`]), dead rules as warnings
    /// ([`LintCode::DeadRule`]) — so managers and CLIs can funnel model
    /// checking through the same reporting path as the static analysis.
    pub fn to_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let cex_rule = |c: &Counterexample| {
            c.steps
                .iter()
                .flat_map(|s| s.firings.iter())
                .map(|(_, f)| f.rule.clone())
                .next()
                .unwrap_or_else(|| self.label.clone())
        };
        if let Some(Verdict::Violated(c)) = &self.recovery {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::NoRecovery,
                rule: cex_rule(c),
                peer: None,
                span: None,
                message: format!("{} ({} trace steps)", c.message, c.steps.len()),
            });
        }
        if let Verdict::Violated(c) = &self.livelock {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::Livelock,
                rule: cex_rule(c),
                peer: None,
                span: None,
                message: format!("{} ({} trace steps)", c.message, c.steps.len()),
            });
        }
        for rule in &self.dead_rules {
            out.push(Diagnostic {
                severity: Severity::Warning,
                code: LintCode::DeadRule,
                rule: rule.clone(),
                peer: None,
                span: None,
                message: "rule fires in no reachable state under any modelled environment"
                    .to_string(),
            });
        }
        out
    }
}

/// Why a model could not be built or explored.
#[derive(Debug, Clone, PartialEq)]
pub enum McError {
    /// Guard or property parameters left unbound — interval cuts need
    /// concrete thresholds.
    UnboundParams(Vec<String>),
    /// A guard or property references a bean missing from the schema.
    UnknownBean(String),
    /// The reachable state space exceeded [`Spec::max_states`].
    StateSpaceExceeded(usize),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::UnboundParams(ps) => {
                write!(f, "unbound parameters: {}", ps.join(", "))
            }
            McError::UnknownBean(b) => write!(f, "unknown bean `{b}`"),
            McError::StateSpaceExceeded(n) => {
                write!(f, "state space exceeded the {n}-state budget")
            }
        }
    }
}

impl std::error::Error for McError {}

// ---------------------------------------------------------------------------
// Interval domains
// ---------------------------------------------------------------------------

/// One abstract region of a bean's domain, with a concrete representative.
#[derive(Debug, Clone, Copy)]
struct Region {
    rep: f64,
}

#[derive(Debug, Clone)]
struct BeanDomain {
    name: String,
    regions: Vec<Region>,
}

/// Collects `bean ⋈ const` cut points per bean from a (bound) condition,
/// and records bean-vs-bean comparisons so the paired beans can share cut
/// sets (needed for region-level comparability).
fn collect_cuts(
    cond: &Condition,
    cuts: &mut BTreeMap<String, BTreeSet<u64>>,
    pairs: &mut Vec<(String, String)>,
) {
    match cond {
        Condition::True | Condition::False => {}
        Condition::Not(c) => collect_cuts(c, cuts, pairs),
        Condition::And(cs) | Condition::Or(cs) => {
            for c in cs {
                collect_cuts(c, cuts, pairs);
            }
        }
        Condition::Cmp { lhs, rhs, .. } => match (lhs, rhs) {
            (Expr::Bean(b), Expr::Const(c)) | (Expr::Const(c), Expr::Bean(b)) if c.is_finite() => {
                cuts.entry(b.clone()).or_default().insert(c.to_bits());
            }
            (Expr::Bean(a), Expr::Bean(b)) => pairs.push((a.clone(), b.clone())),
            _ => {}
        },
    }
}

fn build_domain(name: &str, ty: BeanType, cut_bits: &BTreeSet<u64>) -> BeanDomain {
    let mut cuts: Vec<f64> = cut_bits.iter().map(|b| f64::from_bits(*b)).collect();
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cuts"));
    let mut regions = Vec::new();
    match ty {
        BeanType::Flag => {
            regions.push(Region { rep: 0.0 });
            regions.push(Region { rep: 1.0 });
        }
        BeanType::Count => {
            // Integer domain [0, ∞): keep only regions containing an
            // integer; cut points that are themselves integers become
            // singleton regions.
            cuts.retain(|c| *c >= 0.0);
            let mut lo = -1.0_f64; // exclusive lower edge; first int is 0
            for c in &cuts {
                let first = (lo.floor() + 1.0).max(0.0);
                if first < *c {
                    regions.push(Region { rep: first });
                }
                if c.fract() == 0.0 {
                    regions.push(Region { rep: *c });
                }
                lo = *c;
            }
            let first = (lo.floor() + 1.0).max(0.0);
            regions.push(Region { rep: first });
        }
        BeanType::Rate | BeanType::Seconds => {
            // Real domain [0, ∞).
            cuts.retain(|c| *c >= 0.0);
            let mut lo = 0.0_f64;
            let mut lo_open = false;
            for c in &cuts {
                if *c > lo || (!lo_open && *c == lo) {
                    if *c > lo {
                        regions.push(Region {
                            rep: (lo + c) / 2.0,
                        });
                    }
                    regions.push(Region { rep: *c });
                }
                lo = *c;
                lo_open = true;
            }
            regions.push(Region {
                rep: if lo_open { lo + 1.0 } else { 1.0 },
            });
        }
        BeanType::Real => {
            if let Some(first) = cuts.first() {
                regions.push(Region { rep: first - 1.0 });
            }
            let mut prev: Option<f64> = None;
            for c in &cuts {
                if let Some(p) = prev {
                    regions.push(Region { rep: (p + c) / 2.0 });
                }
                regions.push(Region { rep: *c });
                prev = Some(*c);
            }
            regions.push(Region {
                rep: prev.map_or(0.0, |p| p + 1.0),
            });
        }
    }
    BeanDomain {
        name: name.to_string(),
        regions,
    }
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

struct Prog<'a> {
    label: &'a str,
    rules: &'a RuleSet,
    params: &'a ParamTable,
    /// The production engine that runs this program's control cycles.
    engine: RefCell<RuleEngine>,
    /// Edge-triggered rules: each owns one trailing bit of the state
    /// vector, in definition order (`RuleEngine::held`).
    edges: usize,
}

impl<'a> Prog<'a> {
    fn new(label: &'a str, rules: &'a RuleSet, params: &'a ParamTable) -> Self {
        Prog {
            label,
            rules,
            params,
            engine: RefCell::new(RuleEngine::new(rules.clone())),
            edges: rules.rules().iter().filter(|r| r.edge_triggered).count(),
        }
    }
}

/// Abstract state: one region index per cone bean, then one edge bit per
/// edge-triggered rule of each program.
type State = Vec<u8>;

/// Applies the min-plant redirection to an operation's bean effects:
/// effects on the derived bean go to `input` implicitly (dropped — the
/// operation already drives `input` directly) or to the hidden capacity.
fn redirect_effects(
    effects: &EffectTable,
    op: &str,
    plant: Option<&(String, String, String)>,
) -> Vec<(String, Dir)> {
    let list = effects.effects_of(op);
    list.iter()
        .filter_map(|(bean, dir)| {
            if let Some((derived, input, cap)) = plant {
                if bean == derived {
                    // Rate actuators (INC/DEC_RATE) drive the input side;
                    // their derived-bean effect is subsumed by the min.
                    if list.iter().any(|(x, _)| x == input) {
                        return None;
                    }
                    // Parallelism actuators move the capacity side.
                    return Some((cap.clone(), *dir));
                }
            }
            Some((bean.clone(), *dir))
        })
        .collect()
}

struct Model<'a> {
    effects: &'a EffectTable,
    progs: Vec<Prog<'a>>,
    coupled: bool,
    domains: Vec<BeanDomain>,
    bean_pos: BTreeMap<String, usize>,
    /// (bean position, direction) environment moves.
    env_edges: Vec<(usize, i8)>,
    spec: &'a Spec,
    /// Active min-plant names `(derived, input, capacity)`.
    plant_names: Option<(String, String, String)>,
    /// Positions matching `plant_names`.
    plant_pos: Option<(usize, usize, usize)>,
    /// Positions of `violNotEnough` / `violTooMuch` when coupled.
    viol_pos: (Option<usize>, Option<usize>),
    /// Edge-bit offset per program.
    edge_offset: Vec<usize>,
    state_len: usize,
}

struct StepOut {
    next: State,
    firings: Vec<(String, Firing)>,
    fired_raise: bool,
    fired_effectful: bool,
}

impl<'a> Model<'a> {
    fn build(
        schema: &BeanSchema,
        effects: &'a EffectTable,
        progs: Vec<Prog<'a>>,
        coupled: bool,
        spec: &'a Spec,
    ) -> Result<Self, McError> {
        // Validate params and collect cuts from bound guards + spec
        // conditions.
        let mut cuts: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
        let mut pairs = Vec::new();
        let mut unbound = BTreeSet::new();
        let mut cone: BTreeSet<String> = BTreeSet::new();
        for prog in &progs {
            for rule in prog.rules.rules() {
                let bound = bind_params(&rule.when, prog.params);
                for p in bound.params() {
                    unbound.insert(p.to_string());
                }
                for b in bound.beans() {
                    cone.insert(b.to_string());
                }
                collect_cuts(&bound, &mut cuts, &mut pairs);
            }
        }
        let spec_conds = spec
            .violation
            .iter()
            .chain(spec.waiver.iter())
            .chain(spec.invariants.iter());
        for cond in spec_conds {
            for p in cond.params() {
                unbound.insert(p.to_string());
            }
            for b in cond.beans() {
                cone.insert(b.to_string());
            }
            collect_cuts(cond, &mut cuts, &mut pairs);
        }
        if !unbound.is_empty() {
            return Err(McError::UnboundParams(unbound.into_iter().collect()));
        }
        if coupled {
            cone.insert(hier_beans::VIOL_NOT_ENOUGH.to_string());
            cone.insert(hier_beans::VIOL_TOO_MUCH.to_string());
        }
        // Activate the min-plant refinement only when the derived bean is
        // in the cone and type-compatible with its input.
        let plant_names = match &spec.plant_min {
            Some((b, input))
                if cone.contains(b)
                    && schema.bean_type(b).is_some()
                    && schema.bean_type(b) == schema.bean_type(input) =>
            {
                cone.insert(input.clone());
                pairs.push((b.clone(), input.clone()));
                Some((b.clone(), input.clone(), format!("__cap:{b}")))
            }
            _ => None,
        };
        for b in &cone {
            if schema.bean_type(b).is_none() {
                return Err(McError::UnknownBean(b.clone()));
            }
        }
        // Initial-range bounds are cuts too, so ranges align with region
        // boundaries.
        for (bean, (lo, hi)) in &spec.initial {
            if cone.contains(bean) {
                let e = cuts.entry(bean.clone()).or_default();
                if lo.is_finite() {
                    e.insert(lo.to_bits());
                }
                if hi.is_finite() {
                    e.insert(hi.to_bits());
                }
            }
        }
        // Beans compared against each other share cut sets (fixpoint).
        loop {
            let mut changed = false;
            for (a, b) in &pairs {
                let ca = cuts.get(a).cloned().unwrap_or_default();
                let cb = cuts.get(b).cloned().unwrap_or_default();
                let union: BTreeSet<u64> = ca.union(&cb).copied().collect();
                if union != ca {
                    cuts.insert(a.clone(), union.clone());
                    changed = true;
                }
                if union != cb {
                    cuts.insert(b.clone(), union);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut domains: Vec<BeanDomain> = cone
            .iter()
            .map(|b| {
                let ty = schema.bean_type(b).expect("validated above");
                build_domain(b, ty, cuts.get(b).unwrap_or(&BTreeSet::new()))
            })
            .collect();
        if let Some((b, _, cap)) = &plant_names {
            // The hidden capacity shares the derived bean's type and cut
            // set, so min() is computable region-index-wise.
            let ty = schema.bean_type(b).expect("validated above");
            domains.push(build_domain(
                cap,
                ty,
                cuts.get(b).unwrap_or(&BTreeSet::new()),
            ));
        }
        for d in &domains {
            assert!(d.regions.len() <= u8::MAX as usize, "region overflow");
        }
        let bean_pos: BTreeMap<String, usize> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        let plant_pos = plant_names.as_ref().map(|(b, input, cap)| {
            let (dp, ip, cp) = (bean_pos[b], bean_pos[input], bean_pos[cap]);
            assert_eq!(
                domains[dp].regions.len(),
                domains[ip].regions.len(),
                "plant domains must share cut sets"
            );
            assert_eq!(domains[dp].regions.len(), domains[cp].regions.len());
            (dp, ip, cp)
        });

        // Actuated (plant) beans: anything an op reachable from any rule
        // can move, per the (redirected) effect table — plus the coupling
        // flags.
        let mut controlled: BTreeSet<usize> = BTreeSet::new();
        for prog in &progs {
            for rule in prog.rules.rules() {
                for call in rule.execute() {
                    for (bean, _) in
                        redirect_effects(effects, &call.operation, plant_names.as_ref())
                    {
                        if let Some(&p) = bean_pos.get(&bean) {
                            controlled.insert(p);
                        }
                    }
                }
            }
        }
        let viol_pos = (
            bean_pos.get(hier_beans::VIOL_NOT_ENOUGH).copied(),
            bean_pos.get(hier_beans::VIOL_TOO_MUCH).copied(),
        );
        if coupled {
            controlled.extend(viol_pos.0.iter().chain(viol_pos.1.iter()));
        }
        let mut env_edges = Vec::new();
        for (pos, d) in domains.iter().enumerate() {
            // The derived bean never moves on its own: it is recomputed
            // from input and capacity after every transition.
            if plant_pos.is_some_and(|(dp, _, _)| dp == pos) {
                continue;
            }
            let default = if controlled.contains(&pos) {
                EnvMove::Frozen
            } else {
                EnvMove::Free
            };
            let mv = spec.env.get(&d.name).copied().unwrap_or(default);
            if matches!(mv, EnvMove::Free | EnvMove::UpOnly) {
                env_edges.push((pos, 1));
            }
            if matches!(mv, EnvMove::Free | EnvMove::DownOnly) {
                env_edges.push((pos, -1));
            }
        }

        let mut edge_offset = Vec::new();
        let mut state_len = domains.len();
        for prog in &progs {
            edge_offset.push(state_len);
            state_len += prog.edges;
        }

        Ok(Model {
            effects,
            progs,
            coupled,
            domains,
            bean_pos,
            env_edges,
            spec,
            plant_names,
            plant_pos,
            viol_pos,
            edge_offset,
            state_len,
        })
    }

    fn wm_of(&self, state: &State) -> WorkingMemory {
        let mut wm = WorkingMemory::new();
        for (i, d) in self.domains.iter().enumerate() {
            wm.insert(d.name.clone(), d.regions[state[i] as usize].rep);
        }
        wm
    }

    fn valuation(&self, state: &State) -> BTreeMap<String, f64> {
        self.domains
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.name.starts_with("__"))
            .map(|(i, d)| (d.name.clone(), d.regions[state[i] as usize].rep))
            .collect()
    }

    /// Re-derives the plant bean from its input and hidden capacity
    /// (`derived = min(input, capacity)`, computable region-index-wise
    /// because all three share one cut set).
    fn renorm(&self, state: &mut State) {
        if let Some((dp, ip, cp)) = self.plant_pos {
            state[dp] = state[ip].min(state[cp]);
        }
    }

    fn eval(&self, cond: &Condition, state: &State, params: &ParamTable) -> bool {
        cond.eval(&self.wm_of(state), params)
            .expect("cone beans and params validated at build time")
    }

    fn invariants_hold(&self, state: &State) -> bool {
        let empty = ParamTable::new();
        self.spec
            .invariants
            .iter()
            .all(|inv| self.eval(inv, state, &empty))
    }

    /// Applies net effect deltas (one region per step, in the net
    /// direction), clamping at domain edges and at the first state where
    /// an invariant would be crossed (the plant saturates there).
    fn apply_deltas(&self, state: &mut State, deltas: &BTreeMap<usize, i32>) {
        let before = state.clone();
        for (&pos, &delta) in deltas {
            let n = self.domains[pos].regions.len() as i32;
            let cur = state[pos] as i32;
            let next = (cur + delta.signum()).clamp(0, n - 1);
            state[pos] = next as u8;
        }
        // Re-derive the plant bean before invariant repair, so that a
        // legitimate input move isn't reverted on account of a stale
        // derived value.
        self.renorm(state);
        if !self.spec.invariants.is_empty() && !self.invariants_hold(state) {
            // Revert moved beans mentioned in a failing invariant, one at
            // a time; the predecessor satisfied the invariants, so this
            // always reaches a satisfying state.
            let empty = ParamTable::new();
            for inv in &self.spec.invariants {
                if self.eval(inv, state, &empty) {
                    continue;
                }
                for bean in inv.beans() {
                    if let Some(&p) = self.bean_pos.get(bean) {
                        if state[p] != before[p] {
                            state[p] = before[p];
                            if self.eval(inv, state, &empty) {
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Repair may have touched the plant's input or capacity.
        self.renorm(state);
    }

    /// One cycle of program `pi` on `state`: load the state's edge bits
    /// into the production engine, run [`RuleEngine::cycle`], apply the
    /// firings' effects and write the engine's edge bits back.
    fn prog_cycle(&self, pi: usize, state: &mut State, out: &mut StepOut) {
        let prog = &self.progs[pi];
        let wm = self.wm_of(state);
        let edge_bits = self.edge_offset[pi]..self.edge_offset[pi] + prog.edges;
        let held: Vec<bool> = state[edge_bits.clone()].iter().map(|&b| b != 0).collect();
        let mut engine = prog.engine.borrow_mut();
        engine.set_held(&held);
        let fired = engine
            .cycle(&wm, prog.params)
            .expect("cone beans and params validated at build time");
        let mut deltas: BTreeMap<usize, i32> = BTreeMap::new();
        let mut raised: Vec<Option<Cow<'static, str>>> = Vec::new();
        for firing in fired {
            for call in &firing.ops {
                if call.operation == op::RAISE_VIOLATION {
                    out.fired_raise = true;
                    raised.push(call.data.clone());
                }
                if self.effects.actuator_of(&call.operation).is_some()
                    || !self.effects.effects_of(&call.operation).is_empty()
                {
                    out.fired_effectful = true;
                }
                for (bean, dir) in
                    redirect_effects(self.effects, &call.operation, self.plant_names.as_ref())
                {
                    if let Some(&p) = self.bean_pos.get(&bean) {
                        *deltas.entry(p).or_insert(0) += match dir {
                            Dir::Up => 1,
                            Dir::Down => -1,
                        };
                    }
                }
            }
            out.firings.push((prog.label.to_string(), firing));
        }
        self.apply_deltas(state, &deltas);
        // Hierarchy coupling: the child's RAISE_VIOLATION data sets the
        // parent's violation flags for this round; no raise clears them.
        if self.coupled && pi == 0 {
            let not_enough = raised
                .iter()
                .any(|d| d.as_deref() == Some(viol::NOT_ENOUGH_TASKS));
            let too_much = raised
                .iter()
                .any(|d| d.as_deref() == Some(viol::TOO_MUCH_TASKS));
            if let Some(p) = self.viol_pos.0 {
                state[p] = u8::from(not_enough);
            }
            if let Some(p) = self.viol_pos.1 {
                state[p] = u8::from(too_much);
            }
        }
        for (bit, held) in state[edge_bits].iter_mut().zip(engine.held()) {
            *bit = u8::from(held);
        }
    }

    /// The deterministic control successor: every program runs one cycle
    /// (child before parent when coupled, matching the mailbox protocol).
    fn control_step(&self, state: &State) -> StepOut {
        let mut out = StepOut {
            next: state.clone(),
            firings: Vec::new(),
            fired_raise: false,
            fired_effectful: false,
        };
        let mut next = state.clone();
        for pi in 0..self.progs.len() {
            self.prog_cycle(pi, &mut next, &mut out);
        }
        out.next = next;
        out
    }

    fn initial_states(&self) -> Result<Vec<State>, McError> {
        // Per-bean allowed initial regions.
        let mut allowed: Vec<Vec<u8>> = Vec::new();
        for (pos, d) in self.domains.iter().enumerate() {
            if self.plant_pos.is_some_and(|(dp, _, _)| dp == pos) {
                // Derived plant bean: placeholder, renorm() at the
                // enumeration leaf computes the real value.
                allowed.push(vec![0]);
                continue;
            }
            let range = self.spec.initial.get(&d.name);
            let mut regs = Vec::new();
            for (ri, r) in d.regions.iter().enumerate() {
                let ok = range.is_none_or(|(lo, hi)| r.rep >= *lo && r.rep <= *hi);
                if ok {
                    regs.push(ri as u8);
                }
            }
            if regs.is_empty() {
                // An initial range excluding every region: fall back to
                // the full domain rather than an empty (vacuous) model.
                regs.extend(0..d.regions.len() as u8);
            }
            allowed.push(regs);
        }
        let mut states = Vec::new();
        let mut cur: State = vec![0; self.state_len];
        self.enumerate(&allowed, 0, &mut cur, &mut states)?;
        Ok(states)
    }

    fn enumerate(
        &self,
        allowed: &[Vec<u8>],
        pos: usize,
        cur: &mut State,
        out: &mut Vec<State>,
    ) -> Result<(), McError> {
        if pos == allowed.len() {
            self.renorm(cur);
            if self.invariants_hold(cur) {
                if out.len() >= self.spec.max_states {
                    return Err(McError::StateSpaceExceeded(self.spec.max_states));
                }
                out.push(cur.clone());
            }
            return Ok(());
        }
        for &r in &allowed[pos] {
            cur[pos] = r;
            self.enumerate(allowed, pos + 1, cur, out)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Exploration + properties
// ---------------------------------------------------------------------------

struct Explored {
    order: Vec<State>,
    /// Control successor index per state.
    succ: Vec<u32>,
    /// Per state: fired an effectful op / fired RAISE_VIOLATION on its
    /// control step.
    effectful: Vec<bool>,
    raised: Vec<bool>,
    transitions: usize,
    fired_rules: BTreeSet<(usize, String)>,
}

fn explore(model: &Model<'_>) -> Result<Explored, McError> {
    let mut index: HashMap<State, u32> = HashMap::new();
    let mut order: Vec<State> = Vec::new();
    // Minimal environment-POR restriction each state was reached with;
    // expanding again with a smaller restriction re-opens pruned moves.
    let mut restriction: Vec<u16> = Vec::new();
    let mut succ: Vec<u32> = Vec::new();
    let mut effectful: Vec<bool> = Vec::new();
    let mut raised: Vec<bool> = Vec::new();
    let mut fired_rules = BTreeSet::new();
    let mut transitions = 0usize;
    let mut queue: VecDeque<u32> = VecDeque::new();

    let intern = |s: State,
                  restr: u16,
                  index: &mut HashMap<State, u32>,
                  order: &mut Vec<State>,
                  restriction: &mut Vec<u16>,
                  queue: &mut VecDeque<u32>|
     -> Result<u32, McError> {
        if let Some(&i) = index.get(&s) {
            if restr < restriction[i as usize] {
                restriction[i as usize] = restr;
                queue.push_back(i);
            }
            return Ok(i);
        }
        if order.len() >= model.spec.max_states {
            return Err(McError::StateSpaceExceeded(model.spec.max_states));
        }
        let i = order.len() as u32;
        index.insert(s.clone(), i);
        order.push(s);
        restriction.push(restr);
        queue.push_back(i);
        Ok(i)
    };

    for s in model.initial_states()? {
        intern(s, 0, &mut index, &mut order, &mut restriction, &mut queue)?;
    }

    let mut expanded: Vec<bool> = Vec::new();
    while let Some(i) = queue.pop_front() {
        let i = i as usize;
        while expanded.len() < order.len() {
            expanded.push(false);
        }
        let state = order[i].clone();
        if !expanded[i] {
            expanded[i] = true;
            // Control edge (resets the environment restriction).
            let step = model.control_step(&state);
            for (label, f) in &step.firings {
                let pi = model
                    .progs
                    .iter()
                    .position(|p| p.label == *label)
                    .unwrap_or(0);
                fired_rules.insert((pi, f.rule.clone()));
            }
            transitions += 1;
            let si = intern(
                step.next,
                0,
                &mut index,
                &mut order,
                &mut restriction,
                &mut queue,
            )?;
            while succ.len() < order.len() {
                succ.push(u32::MAX);
                effectful.push(false);
                raised.push(false);
            }
            succ[i] = si;
            effectful[i] = step.fired_effectful;
            raised[i] = step.fired_raise;
        }
        // Environment edges ≥ the POR restriction this state was reached
        // with (commuting moves explored in sorted order only).
        let restr = restriction[i];
        for (ei, &(pos, dir)) in model.env_edges.iter().enumerate() {
            let ei = ei as u16;
            if ei < restr {
                continue;
            }
            let n = model.domains[pos].regions.len() as i32;
            let cur = state[pos] as i32;
            let next = cur + i32::from(dir);
            if next < 0 || next >= n {
                continue;
            }
            let mut t = state.clone();
            t[pos] = next as u8;
            model.renorm(&mut t);
            if !model.invariants_hold(&t) {
                continue;
            }
            transitions += 1;
            intern(t, ei, &mut index, &mut order, &mut restriction, &mut queue)?;
        }
    }

    // Successor slots exist for every state (states interned last may not
    // have been expanded via the control edge yet — expand them now; the
    // queue loop above always expands everything it interns, so this is
    // just a defensive resize).
    while succ.len() < order.len() {
        succ.push(u32::MAX);
        effectful.push(false);
        raised.push(false);
    }

    Ok(Explored {
        order,
        succ,
        effectful,
        raised,
        transitions,
        fired_rules,
    })
}

fn check_recovery(model: &Model<'_>, ex: &Explored) -> Option<Verdict> {
    let violation = model.spec.violation.as_ref()?;
    let empty = ParamTable::new();
    let k = model.spec.recovery_k;
    for (i, state) in ex.order.iter().enumerate() {
        if !model.eval(violation, state, &empty) {
            continue;
        }
        if let Some(w) = &model.spec.waiver {
            if model.eval(w, state, &empty) {
                continue;
            }
        }
        // Follow the deterministic controller-only chain for k firings.
        let mut cur = i;
        let mut discharged = false;
        let mut chain = vec![i];
        for _ in 0..k {
            if model.spec.escalation_discharges && ex.raised[cur] {
                discharged = true;
                break;
            }
            let next = ex.succ[cur] as usize;
            chain.push(next);
            let ns = &ex.order[next];
            let waived = model
                .spec
                .waiver
                .as_ref()
                .is_some_and(|w| model.eval(w, ns, &empty));
            if !model.eval(violation, ns, &empty) || waived {
                discharged = true;
                break;
            }
            cur = next;
        }
        if discharged {
            continue;
        }
        let steps: Vec<TraceStep> = chain
            .iter()
            .map(|&si| TraceStep {
                beans: model.valuation(&ex.order[si]),
                firings: model.control_step(&ex.order[si]).firings,
            })
            .collect();
        return Some(Verdict::Violated(Box::new(Counterexample {
            property: "recovery".into(),
            steps,
            loops_to: None,
            message: format!(
                "reachable contract-violating state with no violation-free \
                 state (or escalation) within {k} control firings"
            ),
        })));
    }
    Some(Verdict::Proved)
}

fn check_livelock(model: &Model<'_>, ex: &Explored) -> Verdict {
    // Cycle detection on the deterministic control-successor function:
    // colors 0 = unvisited, 1 = on current path, 2 = finished.
    let n = ex.order.len();
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        while color[cur] == 0 {
            color[cur] = 1;
            path.push(cur);
            cur = ex.succ[cur] as usize;
        }
        if color[cur] == 1 {
            // Found a fresh cycle: the suffix of `path` from `cur`.
            let cstart = path.iter().position(|&s| s == cur).expect("on path");
            let cycle = &path[cstart..];
            let churning = cycle.iter().any(|&s| ex.effectful[s]);
            if churning {
                let mut ops: Vec<String> = Vec::new();
                let steps: Vec<TraceStep> = cycle
                    .iter()
                    .map(|&si| {
                        let step = model.control_step(&ex.order[si]);
                        for (_, f) in &step.firings {
                            ops.extend(f.ops.iter().map(|o| o.operation.to_string()));
                        }
                        TraceStep {
                            beans: model.valuation(&ex.order[si]),
                            firings: step.firings,
                        }
                    })
                    .collect();
                let (property, message) = match model.effects.opposing_actuator(&ops, &ops) {
                    Some(res) => (
                        "oscillation".to_string(),
                        format!(
                            "reachable control cycle of length {} drives actuator \
                             `{res}` in both directions (undamped oscillation)",
                            cycle.len()
                        ),
                    ),
                    None => (
                        "livelock".to_string(),
                        format!(
                            "reachable control cycle of length {} keeps firing \
                             actuator operations without reaching quiescence",
                            cycle.len()
                        ),
                    ),
                };
                for &s in &path {
                    color[s] = 2;
                }
                return Verdict::Violated(Box::new(Counterexample {
                    property,
                    steps,
                    loops_to: Some(0),
                    message,
                }));
            }
        }
        for &s in &path {
            color[s] = 2;
        }
    }
    Verdict::Proved
}

fn dead_rules(model: &Model<'_>, ex: &Explored) -> Vec<String> {
    let mut out = Vec::new();
    for (pi, prog) in model.progs.iter().enumerate() {
        for rule in prog.rules.rules() {
            if matches!(rule.when, Condition::False) {
                continue;
            }
            if !ex.fired_rules.contains(&(pi, rule.name.clone())) {
                out.push(if model.progs.len() > 1 {
                    format!("{}:{}", prog.label, rule.name)
                } else {
                    rule.name.clone()
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The model checker: a bean schema plus operation-effect annotations,
/// reusable across programs.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    schema: BeanSchema,
    effects: EffectTable,
}

impl ModelChecker {
    /// A checker over `schema` with the standard effect table.
    pub fn new(schema: BeanSchema) -> Self {
        ModelChecker {
            schema,
            effects: EffectTable::standard(),
        }
    }

    /// Checks a single program with its bound parameter table.
    pub fn check(
        &self,
        label: &str,
        rules: &RuleSet,
        params: &ParamTable,
        spec: &Spec,
    ) -> Result<McReport, McError> {
        let progs = vec![Prog::new(label, rules, params)];
        self.run(label, progs, false, spec)
    }

    /// Checks the coupled product of a child and a parent program: each
    /// round the child fires first, its `RAISE_VIOLATION` data sets the
    /// parent's `violNotEnough`/`violTooMuch` beans, then the parent
    /// fires — the paper's hierarchy protocol, closed-loop.
    pub fn check_composed(
        &self,
        child: (&str, &RuleSet, &ParamTable),
        parent: (&str, &RuleSet, &ParamTable),
        spec: &Spec,
    ) -> Result<McReport, McError> {
        let label = format!("{}+{}", child.0, parent.0);
        let progs = vec![
            Prog::new(child.0, child.1, child.2),
            Prog::new(parent.0, parent.1, parent.2),
        ];
        self.run(&label, progs, true, spec)
    }

    fn run(
        &self,
        label: &str,
        progs: Vec<Prog<'_>>,
        coupled: bool,
        spec: &Spec,
    ) -> Result<McReport, McError> {
        let start = Instant::now();
        let model = Model::build(&self.schema, &self.effects, progs, coupled, spec)?;
        let ex = explore(&model)?;
        let recovery = check_recovery(&model, &ex);
        let livelock = check_livelock(&model, &ex);
        let dead = dead_rules(&model, &ex);
        Ok(McReport {
            label: label.to_string(),
            states: ex.order.len(),
            transitions: ex.transitions,
            recovery,
            livelock,
            dead_rules: dead,
            wall: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Cmp;
    use crate::parser::parse_rules;
    use crate::stdlib;

    fn schema() -> BeanSchema {
        BeanSchema::new()
            .bean("arrivalRate", BeanType::Rate)
            .bean("departureRate", BeanType::Rate)
            .bean("numWorkers", BeanType::Count)
            .bean("queueVariance", BeanType::Rate)
            .bean("workersLost", BeanType::Count)
            .bean("endOfStream", BeanType::Flag)
            .bean("violNotEnough", BeanType::Flag)
            .bean("violTooMuch", BeanType::Flag)
            .bean("endStream", BeanType::Flag)
    }

    fn farm_spec() -> Spec {
        Spec::default()
            .violation(throughput_violation(0.4, 0.8).unwrap())
            .invariant(Condition::cmp(
                Expr::Bean("departureRate".into()),
                Cmp::Le,
                Expr::Bean("arrivalRate".into()),
            ))
            .initial("numWorkers", 0.0, 16.0)
    }

    fn farm_params() -> ParamTable {
        stdlib::farm_params(0.4, 0.8, 2, 16, 4.0)
    }

    #[test]
    fn count_domain_keeps_only_integer_regions() {
        let mut cuts = BTreeSet::new();
        cuts.insert(3.0_f64.to_bits());
        cuts.insert(4.0_f64.to_bits());
        let d = build_domain("w", BeanType::Count, &cuts);
        let reps: Vec<f64> = d.regions.iter().map(|r| r.rep).collect();
        // [0,3) → 0, {3}, (3,4) has no integer, {4}, (4,∞) → 5.
        assert_eq!(reps, vec![0.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn rate_domain_has_points_and_midpoints() {
        let mut cuts = BTreeSet::new();
        cuts.insert(0.4_f64.to_bits());
        cuts.insert(0.8_f64.to_bits());
        let d = build_domain("r", BeanType::Rate, &cuts);
        let reps: Vec<f64> = d.regions.iter().map(|r| r.rep).collect();
        assert_eq!(reps, vec![0.2, 0.4, 0.6000000000000001, 0.8, 1.8]);
    }

    #[test]
    fn farm_rules_prove_recovery_and_livelock_freedom() {
        let rules = stdlib::farm_rules();
        let report = ModelChecker::new(schema())
            .check("farm", &rules, &farm_params(), &farm_spec())
            .unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(report.dead_rules.is_empty(), "{:?}", report.dead_rules);
        assert!(report.states > 0);
    }

    #[test]
    fn inverted_thresholds_oscillate_with_counterexample() {
        // low/high swapped: the dead band inverts into an overlap and the
        // grow/shrink pair chases itself — the MC must find the lasso.
        let params = stdlib::farm_params(0.8, 0.4, 2, 16, 4.0);
        let spec = Spec::default()
            .violation(throughput_violation(0.8, 0.4).unwrap())
            .invariant(Condition::cmp(
                Expr::Bean("departureRate".into()),
                Cmp::Le,
                Expr::Bean("arrivalRate".into()),
            ))
            .initial("numWorkers", 0.0, 16.0);
        let report = ModelChecker::new(schema())
            .check("farm-inverted", &stdlib::farm_rules(), &params, &spec)
            .unwrap();
        let cex = report.livelock.counterexample().expect("lasso expected");
        assert_eq!(cex.property, "oscillation");
        assert!(cex.loops_to.is_some());
        assert!(!cex.steps.is_empty());
    }

    #[test]
    fn fault_rules_recover_from_worker_loss() {
        let rules = stdlib::fault_rules();
        let params = stdlib::fault_params(3);
        let spec = Spec::default().violation(Condition::bean_vs_const("numWorkers", Cmp::Lt, 3.0));
        let report = ModelChecker::new(schema())
            .check("fault", &rules, &params, &spec)
            .unwrap();
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn unreachable_rule_is_reported_dead() {
        let src = r#"
            rule "live" when arrivalRate > 1 && numWorkers < 4 then fireOperation(ADD_EXECUTOR); end
            rule "dead" when numWorkers > 5 && numWorkers < 4 then fireOperation(BALANCE_LOAD); end
        "#;
        let rules = parse_rules(src).unwrap();
        let report = ModelChecker::new(schema())
            .check("deadtest", &rules, &ParamTable::new(), &Spec::default())
            .unwrap();
        assert_eq!(report.dead_rules, vec!["dead".to_string()]);
        assert!(report.livelock.proved());
    }

    #[test]
    fn stuck_violation_yields_recovery_counterexample() {
        // A program that never reacts to low departure rate: recovery
        // must fail with a concrete trace.
        let src = r#"
            rule "balance" when queueVariance > 4 then fireOperation(BALANCE_LOAD); end
        "#;
        let rules = parse_rules(src).unwrap();
        let spec = Spec::default()
            .violation(throughput_violation(0.4, f64::INFINITY).unwrap())
            .recovery_k(4);
        let report = ModelChecker::new(schema())
            .check("stuck", &rules, &ParamTable::new(), &spec)
            .unwrap();
        let cex = report
            .recovery
            .as_ref()
            .unwrap()
            .counterexample()
            .expect("recovery must fail");
        assert_eq!(cex.property, "recovery");
        assert_eq!(cex.steps.len(), 5); // violating state + k successors
        assert!(cex.steps[0].beans["departureRate"] < 0.4);
    }

    #[test]
    fn escalation_discharges_recovery() {
        // Starved farm (arrival below the floor): nothing to do locally,
        // but RAISE_VIOLATION escalates — recovery holds by escalation.
        let report = ModelChecker::new(schema())
            .check("farm", &stdlib::farm_rules(), &farm_params(), &farm_spec())
            .unwrap();
        assert!(report.recovery.as_ref().unwrap().proved());
        // With escalation disabled the starved states become stuck.
        let spec = farm_spec().escalation_discharges(false);
        let report = ModelChecker::new(schema())
            .check("farm", &stdlib::farm_rules(), &farm_params(), &spec)
            .unwrap();
        assert!(!report.recovery.as_ref().unwrap().proved());
    }

    #[test]
    fn composed_farm_pipeline_recovers_through_hierarchy() {
        // Child farm + parent pipeline: starvation escalates as
        // notEnoughTasks, the parent raises the source rate, arrival
        // rises, the farm recovers — provable only in the composition.
        let spec = Spec::default()
            .violation(throughput_violation(0.4, 0.8).unwrap())
            .throughput_plant()
            .initial("numWorkers", 0.0, 16.0)
            .waiver(Condition::flag("endStream"))
            .env("endStream", EnvMove::UpOnly)
            .escalation_discharges(false)
            .recovery_k(12);
        let report = ModelChecker::new(schema())
            .check_composed(
                ("farm", &stdlib::farm_rules(), &farm_params()),
                ("pipeline", &stdlib::pipeline_rules(), &ParamTable::new()),
                &spec,
            )
            .unwrap();
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn unbound_params_are_an_error() {
        let err = ModelChecker::new(schema())
            .check(
                "farm",
                &stdlib::farm_rules(),
                &ParamTable::new(),
                &Spec::default(),
            )
            .unwrap_err();
        assert!(matches!(err, McError::UnboundParams(_)));
    }

    #[test]
    fn state_budget_is_enforced() {
        let mut spec = farm_spec();
        spec.max_states = 3;
        let err = ModelChecker::new(schema())
            .check("farm", &stdlib::farm_rules(), &farm_params(), &spec)
            .unwrap_err();
        assert_eq!(err, McError::StateSpaceExceeded(3));
    }
}

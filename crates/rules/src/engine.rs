//! The rule engine: fireable-rule selection, salience ordering, execution.
//!
//! Mirrors the control cycle of the paper's §4.1: *"At each invocation,
//! 'fireable' rules are selected, prioritized and executed. Execution of a
//! JBoss rule leads to the invocation of the actuator mechanisms in the
//! action part of the rule."* The engine is deterministic: ties in salience
//! break by definition order, making manager behaviour reproducible under
//! the simulator's fixed seeds.

use crate::ast::{EvalError, Expr, OpCall, Operands, Rule, RuleSet};
use crate::op::OP_TABLE;
use crate::stdlib::viol;
use crate::wm::{Layout, ParamTable, WorkingMemory};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One rule firing: the rule's name and the operations its actions produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Name of the fired rule.
    pub rule: String,
    /// Salience the rule fired at.
    pub salience: i32,
    /// Operation calls produced by the rule's action list.
    pub ops: Vec<OpCall>,
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A rule condition failed to evaluate (unknown bean/parameter). The
    /// offending rule name is carried for diagnosis.
    Eval {
        /// Rule whose condition failed.
        rule: String,
        /// Underlying evaluation error.
        source: EvalError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Eval { rule, source } => {
                write!(f, "rule `{rule}`: {source}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A deterministic forward-chaining engine over a [`RuleSet`].
///
/// The engine is stateful only for *edge-triggered* rules, for which it
/// remembers whether each rule's condition held in the previous cycle.
/// Loading a program compiles each rule's operation calls once, with
/// table names borrowed, so [`RuleEngine::cycle_ops`] only copies them.
/// Conditions read their operands from slots bound to the working
/// memory's and parameter table's layouts, rebound only when one of
/// those changes.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleEngine {
    rules: RuleSet,
    /// Each rule's operation calls (see [`compile`]).
    calls: Vec<Vec<OpCall>>,
    /// Rule indices by descending salience, definition order within a tie.
    order: Vec<usize>,
    /// Per rule: an edge-triggered rule whose condition held last cycle.
    held_before: Vec<bool>,
    /// Per rule: whether it fires this cycle, kept to reuse its buffer.
    fires: Vec<bool>,
    /// Every rule's operands, in evaluation order, bound to `bound_to`.
    slots: Vec<Slot>,
    /// The bean and parameter layouts `slots` is bound to.
    bound_to: Option<(Arc<Layout>, Arc<Layout>)>,
    cycles: u64,
    firings: u64,
}

/// Where a bound operand reads its value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// A slot of the working memory.
    Bean(u32),
    /// A slot of the parameter table.
    Param(u32),
    /// A literal, or a name the layout lacks: [`Expr::eval`] returns the
    /// one and raises the same error by name for the other.
    ByName,
}

/// A program's operands read through the slots the engine bound.
struct Bound<'a> {
    slots: &'a [Slot],
    wm: &'a WorkingMemory,
    params: &'a ParamTable,
}

impl Operands for Bound<'_> {
    fn value(&self, at: usize, expr: &Expr) -> Result<f64, EvalError> {
        match self.slots[at] {
            Slot::Bean(s) => Ok(self.wm.at(s)),
            Slot::Param(s) => Ok(self.params.slots().at(s)),
            Slot::ByName => expr.eval(self.wm, self.params),
        }
    }
}

/// Whether `held` names the same slots as `now`, in which case `held`
/// becomes `now`, so the next check is one pointer comparison.
fn adopt(held: &mut Arc<Layout>, now: &Arc<Layout>) -> bool {
    if Arc::ptr_eq(held, now) {
        return true;
    }
    let same = **held == **now;
    if same {
        *held = Arc::clone(now);
    }
    same
}

/// `rule`'s operation calls, each name borrowed from the operation table
/// and each datum from [`viol`] when it is one of theirs.
fn compile(rule: &Rule) -> Vec<OpCall> {
    fn borrow(
        s: Cow<'static, str>,
        mut known: impl Iterator<Item = &'static str>,
    ) -> Cow<'static, str> {
        known.find(|k| *k == s).map_or(s, Cow::Borrowed)
    }
    rule.execute()
        .into_iter()
        .map(|call| OpCall {
            operation: borrow(call.operation, OP_TABLE.iter().map(|d| d.name)),
            data: call.data.map(|d| borrow(d, viol::ALL.iter().copied())),
        })
        .collect()
}

impl RuleEngine {
    /// Creates an engine over the given rule program.
    pub fn new(rules: RuleSet) -> Self {
        let n = rules.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Stable: salience descending, definition order preserved within
        // equal salience (matches Drools' default conflict resolution
        // closely enough for our single-pass managers).
        order.sort_by_key(|&i| std::cmp::Reverse(rules.rules()[i].salience));
        Self {
            calls: rules.rules().iter().map(compile).collect(),
            order,
            held_before: vec![false; n],
            fires: Vec::with_capacity(n),
            slots: Vec::with_capacity(rules.rules().iter().map(|r| r.when.width()).sum()),
            bound_to: None,
            rules,
            cycles: 0,
            firings: 0,
        }
    }

    /// The rule program.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Replaces the rule program (e.g. after receiving a contract whose
    /// concern needs a different policy set). Edge state is cleared.
    pub fn load(&mut self, rules: RuleSet) {
        *self = Self {
            cycles: self.cycles,
            firings: self.firings,
            ..Self::new(rules)
        };
    }

    /// Number of control cycles run so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of rule firings so far.
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// The edge state: for each edge-triggered rule, in definition order,
    /// whether its condition held last cycle.
    pub(crate) fn held(&self) -> impl Iterator<Item = bool> + '_ {
        self.rules
            .rules()
            .iter()
            .zip(&self.held_before)
            .filter(|(rule, _)| rule.edge_triggered)
            .map(|(_, &held)| held)
    }

    /// Restores the edge state [`RuleEngine::held`] reports: one bit per
    /// edge-triggered rule, in definition order.
    pub(crate) fn set_held(&mut self, held: &[bool]) {
        let mut bits = held.iter().copied();
        for (rule, slot) in self.rules.rules().iter().zip(&mut self.held_before) {
            if rule.edge_triggered {
                *slot = bits.next().expect("one bit per edge-triggered rule");
            }
        }
    }

    /// Binds every operand to its slot in `wm`'s or `params`' layout,
    /// unless the layouts bound last have the same names in the same
    /// slots. The engine holds the layouts it bound, and a memory never
    /// changes a layout it shares, so this compares content, never an
    /// address another table could reuse. The slot buffer is sized at
    /// load, so rebinding allocates nothing.
    fn bind(&mut self, wm: &WorkingMemory, params: &ParamTable) {
        let (beans, table) = (wm.layout(), params.slots().layout());
        if let Some((b, p)) = &mut self.bound_to {
            if adopt(b, beans) && adopt(p, table) {
                return;
            }
        }
        self.slots.clear();
        for rule in self.rules.rules() {
            rule.when.for_each_operand(|e| {
                self.slots.push(match e {
                    Expr::Bean(name) => beans.slot(name).map_or(Slot::ByName, Slot::Bean),
                    Expr::Param(name) => table.slot(name).map_or(Slot::ByName, Slot::Param),
                    Expr::Const(_) => Slot::ByName,
                })
            });
        }
        self.bound_to = Some((Arc::clone(beans), Arc::clone(table)));
    }

    /// Evaluates every condition, marks in `fires` the rules that fire
    /// this cycle and moves the edge state on.
    fn select(&mut self, wm: &WorkingMemory, params: &ParamTable) -> Result<(), EngineError> {
        self.cycles += 1;
        self.bind(wm, params);
        let operands = Bound {
            slots: &self.slots,
            wm,
            params,
        };

        // Evaluate all conditions first so edge bookkeeping sees a
        // consistent snapshot even if a later rule errors.
        self.fires.clear();
        let mut at = 0;
        for rule in self.rules.rules() {
            let held = rule.when.eval_in(&operands, &mut at);
            self.fires.push(held.map_err(|source| EngineError::Eval {
                rule: rule.name.clone(),
                source,
            })?);
        }

        // An edge-triggered rule fires only on the cycle its condition
        // starts to hold.
        for ((rule, fires), held_before) in self
            .rules
            .rules()
            .iter()
            .zip(&mut self.fires)
            .zip(&mut self.held_before)
        {
            if rule.edge_triggered {
                let held = *fires;
                *fires = held && !*held_before;
                *held_before = held;
            }
        }
        Ok(())
    }

    /// The rules that fire this cycle, in salience order.
    fn fired(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().copied().filter(|&i| self.fires[i])
    }

    /// Runs one control cycle: evaluates every rule against `wm`/`params`,
    /// selects the fireable ones, orders them by salience (descending,
    /// definition order within equal salience) and executes their actions.
    ///
    /// Returns the ordered list of firings. Execution here is *symbolic*:
    /// actually invoking actuators is the caller's (the manager's) job, so
    /// the engine never blocks the control loop.
    pub fn cycle(
        &mut self,
        wm: &WorkingMemory,
        params: &ParamTable,
    ) -> Result<Vec<Firing>, EngineError> {
        self.select(wm, params)?;
        let firings: Vec<Firing> = self
            .fired()
            .map(|i| Firing {
                rule: self.rules.rules()[i].name.clone(),
                salience: self.rules.rules()[i].salience,
                ops: self.calls[i].clone(),
            })
            .collect();
        self.firings += firings.len() as u64;
        Ok(firings)
    }

    /// Like [`RuleEngine::cycle`] but flattening the firings into the bare
    /// operation calls, in firing order. Copies the calls compiled at load
    /// time: with every name in the operation table and every datum in
    /// `stdlib::viol`, the returned vector is the only allocation.
    pub fn cycle_ops(
        &mut self,
        wm: &WorkingMemory,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, EngineError> {
        self.select(wm, params)?;
        let mut ops = Vec::with_capacity(self.fired().map(|i| self.calls[i].len()).sum());
        for i in self.fired() {
            ops.extend_from_slice(&self.calls[i]);
        }
        self.firings += self.fired().count() as u64;
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Action, Cmp, Condition};

    fn engine(rules: Vec<Rule>) -> RuleEngine {
        RuleEngine::new(rules.into_iter().collect())
    }

    fn fire(op: &str) -> Vec<Action> {
        vec![Action::Fire(op.into())]
    }

    #[test]
    fn fires_only_true_conditions() {
        let mut e = engine(vec![
            Rule::new(
                "yes",
                Condition::bean_vs_const("x", Cmp::Gt, 1.0),
                fire("A"),
            ),
            Rule::new("no", Condition::bean_vs_const("x", Cmp::Lt, 1.0), fire("B")),
        ]);
        let wm = WorkingMemory::from_beans([("x", 5.0)]);
        let fs = e.cycle(&wm, &ParamTable::new()).unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "yes");
        assert_eq!(fs[0].ops, vec![OpCall::new("A")]);
    }

    #[test]
    fn salience_orders_firings() {
        let mut e = engine(vec![
            Rule::new("low", Condition::True, fire("L")).salience(1),
            Rule::new("high", Condition::True, fire("H")).salience(10),
            Rule::new("mid", Condition::True, fire("M")).salience(5),
        ]);
        let names: Vec<String> = e
            .cycle(&WorkingMemory::new(), &ParamTable::new())
            .unwrap()
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(names, ["high", "mid", "low"]);
    }

    #[test]
    fn equal_salience_keeps_definition_order() {
        let mut e = engine(vec![
            Rule::new("first", Condition::True, fire("1")),
            Rule::new("second", Condition::True, fire("2")),
            Rule::new("third", Condition::True, fire("3")),
        ]);
        let names: Vec<String> = e
            .cycle(&WorkingMemory::new(), &ParamTable::new())
            .unwrap()
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(names, ["first", "second", "third"]);
    }

    #[test]
    fn level_triggered_refires_every_cycle() {
        let mut e = engine(vec![Rule::new("r", Condition::True, fire("A"))]);
        let wm = WorkingMemory::new();
        let p = ParamTable::new();
        assert_eq!(e.cycle(&wm, &p).unwrap().len(), 1);
        assert_eq!(e.cycle(&wm, &p).unwrap().len(), 1);
        assert_eq!(e.firings(), 2);
        assert_eq!(e.cycles(), 2);
    }

    #[test]
    fn edge_triggered_fires_once_per_activation() {
        let mut e = engine(vec![
            Rule::new("r", Condition::flag("cond"), fire("A")).edge_triggered()
        ]);
        let p = ParamTable::new();
        let on = WorkingMemory::from_beans([("cond", 1.0)]);
        let off = WorkingMemory::from_beans([("cond", 0.0)]);

        assert_eq!(e.cycle(&on, &p).unwrap().len(), 1, "rising edge fires");
        assert_eq!(e.cycle(&on, &p).unwrap().len(), 0, "held level suppressed");
        assert_eq!(e.cycle(&off, &p).unwrap().len(), 0, "falling edge silent");
        assert_eq!(e.cycle(&on, &p).unwrap().len(), 1, "re-arms after reset");
    }

    #[test]
    fn restored_edge_state_decides_whether_a_held_condition_refires() {
        let rules = || {
            engine(vec![
                Rule::new("level", Condition::True, fire("L")),
                Rule::new("edge", Condition::flag("cond"), fire("A")).edge_triggered(),
            ])
        };
        let p = ParamTable::new();
        let on = WorkingMemory::from_beans([("cond", 1.0)]);
        let names = |e: &mut RuleEngine| -> Vec<String> {
            e.cycle(&on, &p)
                .unwrap()
                .into_iter()
                .map(|f| f.rule)
                .collect()
        };

        let mut seen = rules();
        assert_eq!(names(&mut seen), ["level", "edge"]);
        assert_eq!(seen.held().collect::<Vec<_>>(), [true]);

        // A fresh engine restored to the state where the condition held
        // keeps the rule suppressed while it still holds.
        let mut restored = rules();
        restored.set_held(&seen.held().collect::<Vec<_>>());
        assert_eq!(names(&mut restored), ["level"]);
        assert_eq!(names(&mut restored), ["level"]);

        // Restored to the all-false state, the held condition is a rising
        // edge again.
        restored.set_held(&[false]);
        assert_eq!(names(&mut restored), ["level", "edge"]);
    }

    #[test]
    fn eval_error_carries_rule_name() {
        let mut e = engine(vec![Rule::new(
            "needs-bean",
            Condition::flag("missing"),
            fire("A"),
        )]);
        let err = e
            .cycle(&WorkingMemory::new(), &ParamTable::new())
            .unwrap_err();
        match err {
            EngineError::Eval { rule, source } => {
                assert_eq!(rule, "needs-bean");
                assert_eq!(source, EvalError::UnknownBean("missing".into()));
            }
        }
    }

    #[test]
    fn cycle_ops_flattens_in_order() {
        let mut e = engine(vec![
            Rule::new(
                "r1",
                Condition::True,
                vec![
                    Action::SetData("d".into()),
                    Action::Fire("A".into()),
                    Action::Fire("B".into()),
                ],
            )
            .salience(1),
            Rule::new("r2", Condition::True, fire("C")),
        ]);
        let ops = e
            .cycle_ops(&WorkingMemory::new(), &ParamTable::new())
            .unwrap();
        assert_eq!(
            ops,
            vec![
                OpCall::with_data("A", "d"),
                OpCall::with_data("B", "d"),
                OpCall::new("C"),
            ]
        );
    }

    #[test]
    fn load_replaces_program_and_clears_edges() {
        let mut e = engine(vec![
            Rule::new("r", Condition::flag("c"), fire("A")).edge_triggered()
        ]);
        let p = ParamTable::new();
        let on = WorkingMemory::from_beans([("c", 1.0)]);
        assert_eq!(e.cycle(&on, &p).unwrap().len(), 1);
        assert_eq!(e.cycle(&on, &p).unwrap().len(), 0);

        // Reloading the same program resets edge suppression.
        let fresh: RuleSet = vec![Rule::new("r", Condition::flag("c"), fire("A")).edge_triggered()]
            .into_iter()
            .collect();
        e.load(fresh);
        assert_eq!(e.cycle(&on, &p).unwrap().len(), 1);
    }

    #[test]
    fn empty_ruleset_cycles_cleanly() {
        let mut e = RuleEngine::new(RuleSet::new());
        assert!(e
            .cycle(&WorkingMemory::new(), &ParamTable::new())
            .unwrap()
            .is_empty());
    }
}

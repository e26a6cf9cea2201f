//! Rule abstract syntax: expressions, conditions, actions, rules.
//!
//! Preconditions are first-order formulas over beans and contract
//! parameters (paper §4.1); actions are symbolic actuator invocations. Both
//! can be built programmatically (builder methods here) or parsed from text
//! (`crate::parser`).

use crate::wm::{ParamTable, WorkingMemory};
use std::borrow::Cow;
use std::fmt;

/// A scalar expression: a bean reference, a `$PARAM` reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A working-memory bean, e.g. `arrivalRate`.
    Bean(String),
    /// A contract parameter, e.g. `$FARM_LOW_PERF_LEVEL`.
    Param(String),
    /// A numeric literal.
    Const(f64),
}

impl Expr {
    /// Evaluates against a working memory and parameter table.
    pub fn eval(&self, wm: &WorkingMemory, params: &ParamTable) -> Result<f64, EvalError> {
        match self {
            Expr::Bean(name) => wm
                .get(name)
                .ok_or_else(|| EvalError::UnknownBean(name.clone())),
            Expr::Param(name) => params
                .get(name)
                .ok_or_else(|| EvalError::UnknownParam(name.clone())),
            Expr::Const(v) => Ok(*v),
        }
    }
}

/// Where a condition's operands get their values. Operands are numbered
/// in evaluation order, two per comparison, so a [`RuleEngine`] can
/// resolve each one to a slot once and read it by number every cycle.
///
/// [`RuleEngine`]: crate::RuleEngine
pub(crate) trait Operands {
    /// The value of operand number `at`, which is `expr`.
    fn value(&self, at: usize, expr: &Expr) -> Result<f64, EvalError>;
}

/// By name: [`Condition::eval`]'s operands.
impl Operands for (&WorkingMemory, &ParamTable) {
    fn value(&self, _at: usize, expr: &Expr) -> Result<f64, EvalError> {
        expr.eval(self.0, self.1)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Bean(n) => write!(f, "{n}"),
            Expr::Param(n) => write!(f, "${n}"),
            Expr::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    /// Applies the comparison. Equality uses exact f64 comparison: beans are
    /// either exact flags (0/1, counts) or rates compared with `<`/`>`.
    pub fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A rule precondition.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true (unconditional rules, e.g. fall-back violation rules
    /// guarded only by salience).
    True,
    /// Always false (used to disable a rule without removing it).
    False,
    /// `lhs op rhs`.
    Cmp {
        /// Left operand.
        lhs: Expr,
        /// Operator.
        op: Cmp,
        /// Right operand.
        rhs: Expr,
    },
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Builds `lhs op rhs`.
    pub fn cmp(lhs: Expr, op: Cmp, rhs: Expr) -> Self {
        Condition::Cmp { lhs, op, rhs }
    }

    /// Convenience: `bean op constant`.
    pub fn bean_vs_const(bean: &str, op: Cmp, c: f64) -> Self {
        Self::cmp(Expr::Bean(bean.into()), op, Expr::Const(c))
    }

    /// Convenience: boolean bean is set (`bean != 0`).
    pub fn flag(bean: &str) -> Self {
        Self::bean_vs_const(bean, Cmp::Ne, 0.0)
    }

    /// Evaluates the condition. Unknown beans/params are *errors*, not
    /// silently false: a rule written against a missing sensor is a
    /// programming error the manager must surface, matching the fail-fast
    /// behaviour of the GCM prototype.
    pub fn eval(&self, wm: &WorkingMemory, params: &ParamTable) -> Result<bool, EvalError> {
        self.eval_in(&(wm, params), &mut 0)
    }

    /// Evaluates over `operands`, numbering this condition's operands
    /// from `*at`. Returning `Ok`, it leaves `*at` past all of them, the
    /// ones a short circuit skipped included.
    pub(crate) fn eval_in(
        &self,
        operands: &impl Operands,
        at: &mut usize,
    ) -> Result<bool, EvalError> {
        match self {
            Condition::True => Ok(true),
            Condition::False => Ok(false),
            Condition::Cmp { lhs, op, rhs } => {
                let i = *at;
                *at += 2;
                Ok(op.apply(operands.value(i, lhs)?, operands.value(i + 1, rhs)?))
            }
            // `And` stops at the first false child, `Or` at the first true.
            Condition::And(cs) | Condition::Or(cs) => {
                let stop = matches!(self, Condition::Or(_));
                for (i, c) in cs.iter().enumerate() {
                    if c.eval_in(operands, at)? == stop {
                        *at += cs[i + 1..].iter().map(Condition::width).sum::<usize>();
                        return Ok(stop);
                    }
                }
                Ok(!stop)
            }
            Condition::Not(c) => Ok(!c.eval_in(operands, at)?),
        }
    }

    /// Number of operands: two per comparison.
    pub(crate) fn width(&self) -> usize {
        let mut n = 0;
        self.for_each_operand(|_| n += 1);
        n
    }

    /// Calls `f` on every operand, in evaluation order.
    pub(crate) fn for_each_operand<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        self.walk(&mut |c| {
            if let Condition::Cmp { lhs, rhs, .. } = c {
                f(lhs);
                f(rhs);
            }
        });
    }

    /// All bean names read by this condition (with duplicates).
    pub fn beans(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.for_each_operand(|e| {
            if let Expr::Bean(name) = e {
                out.push(name.as_str());
            }
        });
        out
    }

    /// All parameter names read by this condition (with duplicates).
    pub fn params(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.for_each_operand(|e| {
            if let Expr::Param(name) = e {
                out.push(name.as_str());
            }
        });
        out
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Condition)) {
        f(self);
        match self {
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.walk(f);
                }
            }
            Condition::Not(c) => c.walk(f),
            _ => {}
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => write!(f, "true"),
            Condition::False => write!(f, "false"),
            Condition::Cmp { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Condition::And(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                write!(f, "{}", parts.join(" && "))
            }
            Condition::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                write!(f, "{}", parts.join(" || "))
            }
            Condition::Not(c) => write!(f, "!({c})"),
        }
    }
}

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A condition referenced a bean absent from the working memory.
    UnknownBean(String),
    /// A condition referenced a `$PARAM` absent from the parameter table.
    UnknownParam(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownBean(n) => write!(f, "unknown bean `{n}` in rule condition"),
            EvalError::UnknownParam(n) => write!(f, "unknown parameter `${n}` in rule condition"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A rule action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Attach a datum to the next fired operation(s) — the paper's
    /// `setData(ManagersConstants.notEnoughTasks_VIOL)`.
    SetData(String),
    /// Invoke a (symbolic) actuator operation — the paper's
    /// `fireOperation(ManagerOperation.ADD_EXECUTOR)`.
    Fire(String),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::SetData(d) => write!(f, "setData(\"{d}\")"),
            Action::Fire(o) => write!(f, "fire({o})"),
        }
    }
}

/// A resolved operation invocation produced by executing a rule's actions:
/// the operation name plus the datum attached by the most recent `setData`.
/// Names from the operation table and data from `stdlib::viol` are
/// borrowed, so cloning a call of a loaded program allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCall {
    /// Symbolic operation name (see [`crate::op`]).
    pub operation: Cow<'static, str>,
    /// Datum attached via `setData`, if any (e.g. the violation kind).
    pub data: Option<Cow<'static, str>>,
}

impl OpCall {
    /// Builds an operation call without a datum.
    pub fn new(operation: impl Into<Cow<'static, str>>) -> Self {
        Self {
            operation: operation.into(),
            data: None,
        }
    }

    /// Builds an operation call with a datum.
    pub fn with_data(
        operation: impl Into<Cow<'static, str>>,
        data: impl Into<Cow<'static, str>>,
    ) -> Self {
        Self {
            operation: operation.into(),
            data: Some(data.into()),
        }
    }
}

/// A precondition–action rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique rule name.
    pub name: String,
    /// Firing priority: higher salience fires first (JBoss semantics).
    pub salience: i32,
    /// If true the rule is *edge-triggered*: it fires when its condition
    /// becomes true and will not fire again until the condition has been
    /// observed false. Level-triggered (false) is the default, matching the
    /// paper's managers which e.g. keep adding workers every cycle while
    /// the contract is violated.
    pub edge_triggered: bool,
    /// Precondition.
    pub when: Condition,
    /// Action list, executed in order.
    pub then: Vec<Action>,
}

impl Rule {
    /// Creates a level-triggered rule with salience 0.
    pub fn new(name: impl Into<String>, when: Condition, then: Vec<Action>) -> Self {
        Self {
            name: name.into(),
            salience: 0,
            edge_triggered: false,
            when,
            then,
        }
    }

    /// Sets the salience (builder style).
    pub fn salience(mut self, salience: i32) -> Self {
        self.salience = salience;
        self
    }

    /// Marks the rule edge-triggered (builder style).
    pub fn edge_triggered(mut self) -> Self {
        self.edge_triggered = true;
        self
    }

    /// Executes the action list, folding `setData` into subsequent `fire`s.
    ///
    /// The datum set by `setData` sticks for *all* following fires in the
    /// same rule (matching the bean-field semantics of the paper's
    /// prototype, where `setData` writes a field later read by the
    /// operation handler).
    pub fn execute(&self) -> Vec<OpCall> {
        let mut data: Option<&str> = None;
        let mut out = Vec::new();
        for action in &self.then {
            match action {
                Action::SetData(d) => data = Some(d),
                Action::Fire(operation) => out.push(OpCall {
                    operation: Cow::Owned(operation.clone()),
                    data: data.map(|d| Cow::Owned(d.to_owned())),
                }),
            }
        }
        out
    }
}

/// An ordered collection of rules (a rule program).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    ///
    /// # Panics
    /// Panics if a rule with the same name is already present — duplicate
    /// names would make firing logs and refractory tracking ambiguous.
    pub fn push(&mut self, rule: Rule) {
        assert!(
            !self.rules.iter().any(|r| r.name == rule.name),
            "duplicate rule name `{}`",
            rule.name
        );
        self.rules.push(rule);
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, rule: Rule) -> Self {
        self.push(rule);
        self
    }

    /// The rules, in definition order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Looks a rule up by name.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Merges another rule set into this one.
    ///
    /// # Panics
    /// Panics on duplicate rule names, as [`RuleSet::push`] does.
    pub fn extend(&mut self, other: RuleSet) {
        for rule in other.rules {
            self.push(rule);
        }
    }

    /// Every parameter name referenced by any rule (sorted, deduplicated) —
    /// used by managers to validate that a contract provides all thresholds
    /// its rule program needs before activating it.
    pub fn required_params(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .rules
            .iter()
            .flat_map(|r| r.when.params().into_iter().map(str::to_owned))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Every bean name referenced by any rule (sorted, deduplicated).
    pub fn required_beans(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .rules
            .iter()
            .flat_map(|r| r.when.beans().into_iter().map(str::to_owned))
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        let mut set = Self::new();
        for rule in iter {
            set.push(rule);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Condition {
        /// `bean op $param`.
        pub(crate) fn bean_vs_param(bean: &str, op: Cmp, param: &str) -> Self {
            Self::cmp(Expr::Bean(bean.into()), op, Expr::Param(param.into()))
        }

        /// Boolean bean is clear (`bean == 0`).
        pub(crate) fn not_flag(bean: &str) -> Self {
            Self::bean_vs_const(bean, Cmp::Eq, 0.0)
        }
    }

    fn wm() -> WorkingMemory {
        WorkingMemory::from_beans([("x", 2.0), ("y", 3.0), ("flag", 1.0), ("off", 0.0)])
    }

    fn params() -> ParamTable {
        ParamTable::new().with("LIMIT", 2.5)
    }

    #[test]
    fn expr_eval_all_variants() {
        let wm = wm();
        let p = params();
        assert_eq!(Expr::Bean("x".into()).eval(&wm, &p), Ok(2.0));
        assert_eq!(Expr::Param("LIMIT".into()).eval(&wm, &p), Ok(2.5));
        assert_eq!(Expr::Const(7.0).eval(&wm, &p), Ok(7.0));
        assert_eq!(
            Expr::Bean("zzz".into()).eval(&wm, &p),
            Err(EvalError::UnknownBean("zzz".into()))
        );
        assert_eq!(
            Expr::Param("ZZZ".into()).eval(&wm, &p),
            Err(EvalError::UnknownParam("ZZZ".into()))
        );
    }

    #[test]
    fn cmp_operators() {
        assert!(Cmp::Lt.apply(1.0, 2.0));
        assert!(!Cmp::Lt.apply(2.0, 2.0));
        assert!(Cmp::Le.apply(2.0, 2.0));
        assert!(Cmp::Gt.apply(3.0, 2.0));
        assert!(Cmp::Ge.apply(2.0, 2.0));
        assert!(Cmp::Eq.apply(2.0, 2.0));
        assert!(Cmp::Ne.apply(2.0, 3.0));
    }

    #[test]
    fn condition_bean_vs_param() {
        let c = Condition::bean_vs_param("x", Cmp::Lt, "LIMIT");
        assert_eq!(c.eval(&wm(), &params()), Ok(true)); // 2.0 < 2.5
        let c = Condition::bean_vs_param("y", Cmp::Lt, "LIMIT");
        assert_eq!(c.eval(&wm(), &params()), Ok(false)); // 3.0 < 2.5
    }

    #[test]
    fn condition_boolean_combinators() {
        let t = Condition::flag("flag");
        let f = Condition::flag("off");
        assert_eq!(t.eval(&wm(), &params()), Ok(true));
        assert_eq!(f.eval(&wm(), &params()), Ok(false));
        assert_eq!(
            Condition::And(vec![t.clone(), f.clone()]).eval(&wm(), &params()),
            Ok(false)
        );
        assert_eq!(
            Condition::Or(vec![t.clone(), f.clone()]).eval(&wm(), &params()),
            Ok(true)
        );
        assert_eq!(Condition::Not(Box::new(f)).eval(&wm(), &params()), Ok(true));
        assert_eq!(Condition::True.eval(&wm(), &params()), Ok(true));
        assert_eq!(Condition::False.eval(&wm(), &params()), Ok(false));
    }

    #[test]
    fn and_shortcircuits_before_error() {
        // The first conjunct is false, so the unknown bean in the second is
        // never evaluated — mirroring Drools' left-to-right evaluation.
        let c = Condition::And(vec![Condition::False, Condition::flag("no-such-bean")]);
        assert_eq!(c.eval(&wm(), &params()), Ok(false));
    }

    /// By name, checking each operand's number against
    /// `for_each_operand`'s order.
    struct Numbered<'a>(Vec<&'a Expr>, (&'a WorkingMemory, &'a ParamTable));

    impl Operands for Numbered<'_> {
        fn value(&self, at: usize, expr: &Expr) -> Result<f64, EvalError> {
            assert!(std::ptr::eq(self.0[at], expr), "operand {at} is {expr}");
            self.1.value(at, expr)
        }
    }

    #[test]
    fn operands_are_numbered_in_evaluation_order_past_short_circuits() {
        let (wm, p) = (wm(), params());
        let c = Condition::And(vec![
            Condition::Or(vec![
                Condition::flag("flag"),
                Condition::bean_vs_const("x", Cmp::Gt, 9.0),
            ]),
            Condition::Not(Box::new(Condition::And(vec![
                Condition::flag("off"),
                Condition::bean_vs_param("y", Cmp::Lt, "LIMIT"),
            ]))),
            Condition::bean_vs_param("x", Cmp::Lt, "LIMIT"),
        ]);
        let mut order = Vec::new();
        c.for_each_operand(|e| order.push(e));
        let mut at = 0;
        assert_eq!(c.eval_in(&Numbered(order, (&wm, &p)), &mut at), Ok(true));
        assert_eq!(at, c.width());
        assert_eq!(c.width(), 10);
    }

    #[test]
    fn unknown_bean_is_error_not_false() {
        let c = Condition::flag("no-such-bean");
        assert!(matches!(
            c.eval(&wm(), &params()),
            Err(EvalError::UnknownBean(_))
        ));
    }

    #[test]
    fn beans_and_params_collection() {
        let c = Condition::And(vec![
            Condition::bean_vs_param("x", Cmp::Lt, "LIMIT"),
            Condition::Not(Box::new(Condition::bean_vs_const("y", Cmp::Gt, 1.0))),
        ]);
        let mut beans = c.beans();
        beans.sort_unstable();
        assert_eq!(beans, ["x", "y"]);
        assert_eq!(c.params(), ["LIMIT"]);
    }

    #[test]
    fn rule_execute_folds_set_data() {
        let rule = Rule::new(
            "r",
            Condition::True,
            vec![
                Action::SetData("notEnoughTasks".into()),
                Action::Fire("RAISE_VIOLATION".into()),
                Action::Fire("BALANCE_LOAD".into()),
            ],
        );
        let calls = rule.execute();
        assert_eq!(calls.len(), 2);
        assert_eq!(
            calls[0],
            OpCall::with_data("RAISE_VIOLATION", "notEnoughTasks")
        );
        // setData sticks for subsequent fires within the same rule.
        assert_eq!(
            calls[1],
            OpCall::with_data("BALANCE_LOAD", "notEnoughTasks")
        );
    }

    #[test]
    fn rule_execute_without_data() {
        let rule = Rule::new("r", Condition::True, vec![Action::Fire("X".into())]);
        assert_eq!(rule.execute(), vec![OpCall::new("X")]);
    }

    #[test]
    fn ruleset_push_and_lookup() {
        let set = RuleSet::new()
            .with(Rule::new("a", Condition::True, vec![]))
            .with(Rule::new("b", Condition::False, vec![]).salience(5));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("b").unwrap().salience, 5);
        assert!(set.get("c").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate rule name")]
    fn ruleset_rejects_duplicates() {
        RuleSet::new()
            .with(Rule::new("a", Condition::True, vec![]))
            .with(Rule::new("a", Condition::True, vec![]));
    }

    #[test]
    fn required_params_and_beans() {
        let set = RuleSet::new()
            .with(Rule::new(
                "a",
                Condition::bean_vs_param("arrivalRate", Cmp::Lt, "LOW"),
                vec![],
            ))
            .with(Rule::new(
                "b",
                Condition::And(vec![
                    Condition::bean_vs_param("arrivalRate", Cmp::Gt, "HIGH"),
                    Condition::bean_vs_param("numWorkers", Cmp::Le, "MAX"),
                ]),
                vec![],
            ));
        assert_eq!(set.required_params(), ["HIGH", "LOW", "MAX"]);
        assert_eq!(set.required_beans(), ["arrivalRate", "numWorkers"]);
    }

    #[test]
    fn display_roundtrip_smoke() {
        let c = Condition::And(vec![
            Condition::bean_vs_param("x", Cmp::Lt, "LIMIT"),
            Condition::Not(Box::new(Condition::flag("off"))),
        ]);
        let s = c.to_string();
        assert!(s.contains("x < $LIMIT"), "{s}");
        assert!(s.contains('!'), "{s}");
    }
}

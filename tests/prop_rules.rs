//! Property-based tests of the rule language: render → parse round-trips,
//! engine semantics under random programs, the compiled `cycle_ops` path
//! against `cycle`, a refilled working memory and the slot-bound engine
//! against a fresh memory and `Condition::eval`, and soundness of the
//! static analyzer's verdicts against engine evaluation.

use proptest::prelude::*;
use std::borrow::Cow;

use bskel::core::standard_schema;
use bskel::rules::analysis::{
    bind_params, satisfiable, Analyzer, BeanSchema, BeanType, LintCode, Proof,
};
use bskel::rules::ast::EvalError;
use bskel::rules::op::OP_TABLE;
use bskel::rules::stdlib::{self, viol};
use bskel::rules::{
    parse_rules, Action, Cmp, Condition, EngineError, Expr, Firing, OpCall, ParamTable, Rule,
    RuleEngine, RuleSet, WorkingMemory,
};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-zA-Z0-9_]{0,10}".prop_filter("not a keyword", |s| {
        !matches!(
            s.as_str(),
            "rule"
                | "when"
                | "then"
                | "end"
                | "salience"
                | "once"
                | "true"
                | "false"
                | "fire"
                | "setData"
                | "fireOperation"
        )
    })
}

fn expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        ident().prop_map(Expr::Bean),
        "[A-Z][A-Z0-9_]{0,8}".prop_map(Expr::Param),
        // Finite, parseable literals (the lexer reads digits and dots).
        (0u32..10_000).prop_map(|n| Expr::Const(f64::from(n) / 100.0)),
    ]
}

fn cmp() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
        Just(Cmp::Eq),
        Just(Cmp::Ne),
    ]
}

fn condition() -> impl Strategy<Value = Condition> {
    let leaf = prop_oneof![
        Just(Condition::True),
        Just(Condition::False),
        (expr(), cmp(), expr()).prop_map(|(l, op, r)| Condition::Cmp { lhs: l, op, rhs: r }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Condition::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Condition::Or),
            inner.prop_map(|c| Condition::Not(Box::new(c))),
        ]
    })
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        "[a-zA-Z][a-zA-Z0-9_]{0,12}".prop_map(Action::SetData),
        "[A-Z][A-Z0-9_]{0,12}".prop_map(Action::Fire),
    ]
}

fn rule() -> impl Strategy<Value = Rule> {
    (
        "[A-Za-z][A-Za-z0-9_]{0,14}",
        -20i32..20,
        any::<bool>(),
        condition(),
        proptest::collection::vec(action(), 0..5),
    )
        .prop_map(|(name, salience, edge, when, then)| {
            let mut r = Rule::new(name, when, then).salience(salience);
            if edge {
                r = r.edge_triggered();
            }
            r
        })
}

/// Renders a rule back to the `.rules` text syntax using the AST Display
/// impls (the inverse of the parser, up to whitespace).
fn render(rule: &Rule) -> String {
    let mut out = format!("rule \"{}\" salience {}", rule.name, rule.salience);
    if rule.edge_triggered {
        out.push_str(" once");
    }
    out.push_str(&format!("\nwhen\n    {}\nthen\n", rule.when));
    for action in &rule.then {
        out.push_str(&format!("    {action};\n"));
    }
    out.push_str("end\n");
    out
}

proptest! {
    /// render ∘ parse = id on random rules.
    #[test]
    fn rule_roundtrip(r in rule()) {
        let text = render(&r);
        let parsed = parse_rules(&text)
            .unwrap_or_else(|e| panic!("rendered rule failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(parsed.len(), 1);
        let back = parsed.get(&r.name).expect("same name");
        prop_assert_eq!(back, &r);
    }

    /// A whole random program round-trips (unique names enforced).
    #[test]
    fn program_roundtrip(rules in proptest::collection::vec(rule(), 1..6)) {
        let mut seen = std::collections::BTreeSet::new();
        let unique: Vec<Rule> = rules
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.name = format!("r{i}_{}", r.name);
                seen.insert(r.name.clone());
                r
            })
            .collect();
        let text: String = unique.iter().map(render).collect::<Vec<_>>().join("\n");
        let parsed = parse_rules(&text).expect("program parses");
        prop_assert_eq!(parsed.len(), unique.len());
        for r in &unique {
            prop_assert_eq!(parsed.get(&r.name).expect("present"), r);
        }
    }

    /// Engine semantics: the set of fired rules equals exactly the rules
    /// whose condition evaluates true (for level-triggered programs), and
    /// firings are sorted by salience descending.
    #[test]
    fn engine_fires_exactly_true_conditions(
        rules in proptest::collection::vec(rule(), 1..8),
        bean_vals in proptest::collection::vec(0.0f64..10.0, 8),
    ) {
        // Level-triggered only, unique names, conditions restricted to the
        // beans/params we will provide.
        let beans: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
        let mut wm = WorkingMemory::new();
        for (name, &v) in beans.iter().zip(&bean_vals) {
            wm.insert(name.clone(), v);
        }
        let params = ParamTable::new().with("P", 5.0);

        let rewritten: Vec<Rule> = rules
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.name = format!("r{i}");
                r.edge_triggered = false;
                r.when = rewrite(&r.when, &beans);
                r
            })
            .collect();
        let expected: Vec<String> = {
            let mut with_truth: Vec<(i32, usize, String)> = rewritten
                .iter()
                .enumerate()
                .filter(|(_, r)| r.when.eval(&wm, &params).expect("closed condition"))
                .map(|(i, r)| (r.salience, i, r.name.clone()))
                .collect();
            with_truth.sort_by_key(|&(s, i, _)| (std::cmp::Reverse(s), i));
            with_truth.into_iter().map(|(_, _, n)| n).collect()
        };

        let set: RuleSet = rewritten.into_iter().collect();
        let mut engine = RuleEngine::new(set);
        let fired: Vec<String> = engine
            .cycle(&wm, &params)
            .expect("closed conditions evaluate")
            .into_iter()
            .map(|f| f.rule)
            .collect();
        prop_assert_eq!(fired, expected);
    }
}

/// Every shipped rule program, the merged programs managers run (whose
/// later rules outrank the earlier ones), and one firing an operation
/// outside the table with a datum outside `stdlib::viol`.
fn engine_programs() -> Vec<(String, RuleSet)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/rules/rules");
    let mut programs: Vec<(String, RuleSet)> = std::fs::read_dir(dir)
        .expect("shipped rule programs")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("readable program");
            let set = parse_rules(&text).expect("shipped program parses");
            (path.display().to_string(), set)
        })
        .collect();
    programs.sort_by(|a, b| a.0.cmp(&b.0));
    programs.push(("farm+fault".into(), stdlib::farm_rules_with_ft()));
    programs.push((
        "fault+resilience".into(),
        stdlib::fault_rules_with_resilience(),
    ));
    let custom = r#"
        rule "edge" once when x > 4 then fire(ADD_EXECUTOR); end
        rule "custom" salience 3 when x > 1 then setData("hot"); fire(COOL_DOWN); fire(BALANCE_LOAD); end
    "#;
    programs.push((
        "custom".into(),
        parse_rules(custom).expect("custom program"),
    ));
    programs
}

/// A bean or parameter value: mostly near the shipped thresholds, with
/// exact zeros so that flags clear.
fn engine_value() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..10.0, 0.0f64..5_000.0,]
}

proptest! {
    /// `cycle_ops` orders exactly the calls of `cycle`'s firings, in the
    /// same order, both equal `reference_cycle`'s, and `cycle_ops` leaves
    /// the engine (edge state, counters) as `cycle` does — over every
    /// shipped program and a sequence of random working memories. Names
    /// from the table and data from `viol` are borrowed, others owned.
    #[test]
    fn cycle_ops_equals_flattened_cycle(
        params in proptest::collection::vec(engine_value(), 16),
        memories in proptest::collection::vec(
            proptest::collection::vec(engine_value(), 32),
            1..12,
        ),
    ) {
        for (name, set) in engine_programs() {
            let table: ParamTable = set
                .required_params()
                .into_iter()
                .zip(params.iter().cycle())
                .fold(ParamTable::new(), |t, (p, v)| t.with(p, *v));
            let beans = set.required_beans();
            let mut held = vec![false; set.len()];
            let reference = set.clone();
            let mut by_firings = RuleEngine::new(set);
            let mut by_ops = by_firings.clone();
            for values in &memories {
                let wm = WorkingMemory::from_beans(
                    beans.iter().cloned().zip(values.iter().copied().cycle()),
                );
                let want: Vec<OpCall> = by_firings
                    .cycle(&wm, &table)
                    .expect("closed program")
                    .into_iter()
                    .flat_map(|f| f.ops)
                    .collect();
                let got = by_ops.cycle_ops(&wm, &table).expect("closed program");
                prop_assert_eq!(&got, &want, "{}", name);
                // An oracle of its own: `cycle` and `cycle_ops` share the
                // engine's salience order and compiled calls.
                let oracle = reference_cycle(&reference, &mut held, &wm, &table)
                    .expect("closed program");
                prop_assert_eq!(&want, &oracle, "{}", name);
                for call in &got {
                    let known = OP_TABLE.iter().any(|d| d.name == call.operation);
                    prop_assert_eq!(
                        matches!(call.operation, Cow::Borrowed(_)),
                        known,
                        "{}: {:?}",
                        name,
                        call
                    );
                    if let Some(data) = &call.data {
                        prop_assert_eq!(
                            matches!(data, Cow::Borrowed(_)),
                            viol::ALL.contains(&data.as_ref()),
                            "{}: {:?}",
                            name,
                            call
                        );
                    }
                }
            }
            prop_assert_eq!(&by_ops, &by_firings, "{}", name);
        }
    }
}

/// How one step's bean list differs from the previous step's.
#[derive(Debug, Clone)]
enum Change {
    Same,
    Reorder(usize),
    Vanish(usize),
    Extra(usize),
    Repeat(usize),
}

fn change() -> impl Strategy<Value = Change> {
    prop_oneof![
        Just(Change::Same),
        Just(Change::Same),
        (0usize..1024).prop_map(Change::Reorder),
        (0usize..1024).prop_map(Change::Vanish),
        (0usize..1024).prop_map(Change::Extra),
        (0usize..1024).prop_map(Change::Repeat),
    ]
}

impl Change {
    /// Applies the change to `names`, drawing a new name from `universe`.
    fn apply(&self, names: &mut Vec<String>, universe: &[String]) {
        let n = names.len();
        match *self {
            Change::Same => {}
            Change::Reorder(k) if n > 1 => names.swap(k % n, k / n % n),
            Change::Vanish(k) if n > 0 => {
                names.remove(k % n);
            }
            Change::Extra(k) => {
                let absent: Vec<&String> = universe.iter().filter(|u| !names.contains(u)).collect();
                if !absent.is_empty() {
                    names.insert(k % (n + 1), absent[k % absent.len()].clone());
                }
            }
            Change::Repeat(k) if n > 0 => {
                let name = names[k % n].clone();
                names.insert(k / n % (n + 1), name);
            }
            _ => {}
        }
    }
}

/// What an engine orders over `wm`, worked out with `Condition::eval`
/// alone; `held` is the edge state, moved on only when every condition
/// evaluates.
fn reference_cycle(
    set: &RuleSet,
    held: &mut [bool],
    wm: &WorkingMemory,
    params: &ParamTable,
) -> Result<Vec<OpCall>, EngineError> {
    let mut holds = Vec::new();
    for rule in set.rules() {
        holds.push(
            rule.when
                .eval(wm, params)
                .map_err(|source| EngineError::Eval {
                    rule: rule.name.clone(),
                    source,
                })?,
        );
    }
    let mut fired: Vec<&Rule> = Vec::new();
    for ((rule, holds), held) in set.rules().iter().zip(holds).zip(held) {
        let fires = holds && !(rule.edge_triggered && *held);
        *held = holds;
        if fires {
            fired.push(rule);
        }
    }
    fired.sort_by_key(|r| std::cmp::Reverse(r.salience));
    Ok(fired.iter().flat_map(|r| r.execute()).collect())
}

proptest! {
    /// A working memory refilled through a seeded sequence of bean lists —
    /// kept, reordered, a bean vanishing, a new one appearing, a name
    /// repeated — equals `from_beans` of each list. Over it, the engine of
    /// every shipped program orders what `Condition::eval` over the fresh
    /// memory says, fails where it fails with the same rule name, and
    /// ends with the edge state of an engine fed the fresh memories.
    #[test]
    fn refill_and_bound_engine_match_a_fresh_memory(
        params in proptest::collection::vec(engine_value(), 16),
        steps in proptest::collection::vec(
            (change(), proptest::collection::vec(engine_value(), 64)),
            1..16,
        ),
    ) {
        let programs = engine_programs();
        let mut universe: Vec<String> = programs
            .iter()
            .flat_map(|(_, set)| set.required_beans())
            .chain((0..3).map(|i| format!("extra{i}")))
            .collect();
        universe.sort();
        universe.dedup();
        let mut engines: Vec<_> = programs
            .into_iter()
            .map(|(name, set)| {
                let table: ParamTable = set
                    .required_params()
                    .into_iter()
                    .zip(params.iter().cycle())
                    .fold(ParamTable::new(), |t, (p, v)| t.with(p, *v));
                let held = vec![false; set.len()];
                let engine = RuleEngine::new(set.clone());
                (name, set, table, held, engine.clone(), engine)
            })
            .collect();
        let mut names = universe.clone();
        let mut refilled = WorkingMemory::new();
        for (i, (change, values)) in steps.iter().enumerate() {
            change.apply(&mut names, &universe);
            let pairs = || names.iter().zip(values.iter().cycle()).map(|(n, v)| (n.as_str(), *v));
            refilled.refill(pairs());
            let fresh = WorkingMemory::from_beans(pairs());
            prop_assert_eq!(&refilled, &fresh);
            prop_assert_eq!(refilled.len(), fresh.len());
            prop_assert!(refilled.iter().eq(fresh.iter()));
            for name in &universe {
                prop_assert_eq!(refilled.get(name), fresh.get(name), "{}", name);
            }
            for (name, set, table, held, by_refill, by_fresh) in &mut engines {
                let want = reference_cycle(set, held, &fresh, table);
                let flat =
                    |fs: Vec<Firing>| -> Vec<OpCall> { fs.into_iter().flat_map(|f| f.ops).collect() };
                let got = if i % 2 == 0 {
                    by_refill.cycle_ops(&refilled, table)
                } else {
                    by_refill.cycle(&refilled, table).map(flat)
                };
                prop_assert_eq!(&got, &want, "{} step {}", name, i);
                prop_assert_eq!(&by_fresh.cycle(&fresh, table).map(flat), &want);
                prop_assert_eq!(&*by_refill, &*by_fresh, "{} step {}", name, i);
            }
        }
    }
}

/// Two memories holding the same names in other slots, and a third of the
/// same size with other names, fed in turn to one engine: every cycle
/// reads its own memory.
#[test]
fn one_engine_over_alternating_layouts() {
    let set = parse_rules(r#"rule "up" when a > b then fire(ADD_EXECUTOR); end"#).unwrap();
    let params = ParamTable::new();
    let ab = WorkingMemory::from_beans([("a", 2.0), ("b", 1.0)]);
    let ba = WorkingMemory::from_beans([("b", 2.0), ("a", 1.0)]);
    let ac = WorkingMemory::from_beans([("a", 2.0), ("c", 1.0)]);
    let mut engine = RuleEngine::new(set);
    for _ in 0..3 {
        assert_eq!(engine.cycle_ops(&ab, &params).unwrap().len(), 1);
        assert!(engine.cycle_ops(&ba, &params).unwrap().is_empty());
        let err = engine.cycle_ops(&ac, &params).unwrap_err();
        assert_eq!(
            err,
            EngineError::Eval {
                rule: "up".into(),
                source: EvalError::UnknownBean("b".into()),
            }
        );
    }
}

/// A parameter table replaced between cycles by one of the same size with
/// another threshold changes what fires; so does one changed in place,
/// and one of the same size naming another parameter fails.
#[test]
fn a_replaced_param_table_is_read_afresh() {
    let set = parse_rules(r#"rule "low" when departureRate < $FLOOR then fire(ADD_EXECUTOR); end"#)
        .unwrap();
    let wm = WorkingMemory::from_beans([("departureRate", 5.0)]);
    let mut engine = RuleEngine::new(set);
    let mut params = ParamTable::new().with("FLOOR", 10.0);
    assert_eq!(engine.cycle_ops(&wm, &params).unwrap().len(), 1);
    params = ParamTable::new().with("FLOOR", 1.0);
    assert!(engine.cycle_ops(&wm, &params).unwrap().is_empty());
    params.set("FLOOR", 20.0);
    assert_eq!(engine.cycle_ops(&wm, &params).unwrap().len(), 1);
    params = ParamTable::new().with("CEIL", 10.0);
    assert_eq!(
        engine.cycle_ops(&wm, &params),
        Err(EngineError::Eval {
            rule: "low".into(),
            source: EvalError::UnknownParam("FLOOR".into()),
        })
    );
}

/// The fixed analyzer environment matching [`rewrite`]: eight real-valued
/// beans and the single parameter `$P`.
fn prop_schema() -> BeanSchema {
    (0..8)
        .fold(BeanSchema::new(), |s, i| {
            s.bean(format!("b{i}"), BeanType::Real)
        })
        .param("P")
}

proptest! {
    /// Soundness of the satisfiability oracle on random closed conditions:
    /// `Unsat` conditions are false in every sampled state, a `Sat`
    /// witness really satisfies the condition, and a proven tautology
    /// holds in every sampled state. (`Unknown` claims nothing.)
    #[test]
    fn satisfiability_proofs_are_sound(
        c in condition(),
        bean_vals in proptest::collection::vec(0.0f64..10.0, 8),
    ) {
        let beans: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
        let params = ParamTable::new().with("P", 5.0);
        let cond = bind_params(&rewrite(&c, &beans), &params);
        let mut wm = WorkingMemory::new();
        for (name, &v) in beans.iter().zip(&bean_vals) {
            wm.insert(name.clone(), v);
        }
        match satisfiable(&cond, &prop_schema()) {
            Proof::Unsat => prop_assert!(
                !cond.eval(&wm, &params).expect("closed"),
                "proven-unsat condition held at {wm}: {cond}"
            ),
            Proof::Sat(witness) => {
                let wit = WorkingMemory::from_beans(witness);
                prop_assert!(
                    cond.eval(&wit, &params).expect("closed"),
                    "witness {wit} does not satisfy {cond}"
                );
            }
            Proof::Unknown => {}
        }
        let negated = Condition::Not(Box::new(cond.clone()));
        if satisfiable(&negated, &prop_schema()) == Proof::Unsat {
            prop_assert!(
                cond.eval(&wm, &params).expect("closed"),
                "proven tautology false at {wm}: {cond}"
            );
        }
    }

    /// The analyzer's per-rule verdicts agree with engine evaluation in
    /// every sampled state: a rule flagged unsatisfiable never fires, a
    /// flagged tautology always fires, and a shadowed rule never fires
    /// without its shadower.
    #[test]
    fn analyzer_verdicts_agree_with_engine(
        rules in proptest::collection::vec(rule(), 1..6),
        bean_vals in proptest::collection::vec(0.0f64..10.0, 8),
    ) {
        let beans: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
        let params = ParamTable::new().with("P", 5.0);
        let mut wm = WorkingMemory::new();
        for (name, &v) in beans.iter().zip(&bean_vals) {
            wm.insert(name.clone(), v);
        }
        let rewritten: Vec<Rule> = rules
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.name = format!("r{i}");
                r.when = rewrite(&r.when, &beans);
                r
            })
            .collect();
        let set: RuleSet = rewritten.into_iter().collect();
        let diags = Analyzer::new(prop_schema()).analyze(&set, Some(&params), None);
        for d in &diags {
            let fires = |name: &str| {
                set.get(name)
                    .expect("diagnostic names a rule in the set")
                    .when
                    .eval(&wm, &params)
                    .expect("closed condition")
            };
            match d.code {
                LintCode::Unsatisfiable => prop_assert!(!fires(&d.rule), "{d}"),
                LintCode::Tautology => prop_assert!(fires(&d.rule), "{d}"),
                LintCode::Shadowed => {
                    let peer = d.peer.as_deref().expect("shadow has a peer");
                    prop_assert!(!fires(&d.rule) || fires(peer), "{d}");
                }
                _ => {}
            }
        }
    }

    /// Threshold pairs separated by a dead band are never reported as
    /// oscillating: the analyzer recognises the damping guard for any
    /// `lo <= hi` (the Fig. 5 pattern).
    #[test]
    fn dead_band_programs_never_flag_oscillation(
        lo in 0.0f64..5.0,
        gap in 0.0f64..5.0,
    ) {
        let hi = lo + gap;
        let text = format!(
            "rule \"grow\" when departureRate < {lo:.4} then fire(ADD_EXECUTOR); end\n\
             rule \"shrink\" when departureRate > {hi:.4} then fire(REMOVE_EXECUTOR); end\n"
        );
        let set = parse_rules(&text).expect("well-formed program");
        let diags = Analyzer::new(standard_schema()).analyze(&set, None, None);
        prop_assert!(
            diags.iter().all(|d| d.code != LintCode::Oscillation),
            "damped pair flagged: {diags:?}"
        );
    }

    /// Conversely, overlapping grow/shrink thresholds (no dead band) are
    /// always caught.
    #[test]
    fn overlapping_thresholds_always_flag_oscillation(
        lo in 0.0f64..5.0,
        gap in 0.01f64..5.0,
    ) {
        let hi = lo + gap;
        // Grow below the *upper* threshold, shrink above the lower one:
        // every point in (lo, hi) enables both.
        let text = format!(
            "rule \"grow\" when departureRate < {hi:.4} then fire(ADD_EXECUTOR); end\n\
             rule \"shrink\" when departureRate > {lo:.4} then fire(REMOVE_EXECUTOR); end\n"
        );
        let set = parse_rules(&text).expect("well-formed program");
        let diags = Analyzer::new(standard_schema()).analyze(&set, None, None);
        prop_assert!(
            diags.iter().any(|d| d.code == LintCode::Oscillation),
            "undamped pair not flagged (lo={lo}, hi={hi}): {diags:?}"
        );
    }
}

/// Rewrites a random condition so every bean/param reference resolves in
/// the fixed test environment (b0..b7 / $P).
fn rewrite(c: &Condition, beans: &[String]) -> Condition {
    fn map_expr(e: &Expr, beans: &[String]) -> Expr {
        match e {
            Expr::Bean(name) => {
                let i = name.len() % beans.len();
                Expr::Bean(beans[i].clone())
            }
            Expr::Param(_) => Expr::Param("P".into()),
            Expr::Const(v) => Expr::Const(*v),
        }
    }
    match c {
        Condition::True => Condition::True,
        Condition::False => Condition::False,
        Condition::Cmp { lhs, op, rhs } => Condition::Cmp {
            lhs: map_expr(lhs, beans),
            op: *op,
            rhs: map_expr(rhs, beans),
        },
        Condition::And(cs) => Condition::And(cs.iter().map(|c| rewrite(c, beans)).collect()),
        Condition::Or(cs) => Condition::Or(cs.iter().map(|c| rewrite(c, beans)).collect()),
        Condition::Not(inner) => Condition::Not(Box::new(rewrite(inner, beans))),
    }
}

//! Pluggable control laws for the autonomic manager.
//!
//! The paper expresses management policy as JBoss-style rule programs; the
//! ninelives roadmap (and the RL-skeleton line of work in PAPERS.md) treat
//! the controller as a swappable policy instead. `Controller` is that
//! seam: the manager's MAPE loop senses and hands the snapshot, with the
//! hierarchy beans it derives, to whatever law is plugged in — the rule
//! engine or an AIMD congestion-control law — then interprets the
//! returned [`OpCall`]s exactly as it always has. Working memory is the
//! rule law's own state: it refills it from the snapshot every cycle,
//! and AIMD, which reads the snapshot's fields, keeps none. Policies stay
//! substrate-agnostic: a controller only ever sees sensed beans and emits
//! symbolic operations.
//!
//! One non-rule law ships beside `RuleController`:
//!
//! * `AimdController` — additive-increase/multiplicative-decrease of the
//!   par-degree ceiling: contract pressure (backlogged delivery below the
//!   floor) adds one worker's headroom per cycle; contract headroom
//!   (delivery above the ceiling) cuts the ceiling multiplicatively
//!   (×0.75). The asymmetry is the classic congestion-control argument:
//!   probing up is cheap, overshoot is expensive, and the multiplicative
//!   backoff is what prevents synchronized grow/shrink oscillation.
//!
//! Retry budgets and hedged requests are not laws: they gate re-dispatch
//! inside the plant (`bskel_net`'s pool `RetryBudget`, configured with
//! `RemotePoolBuilder::retry_budget` / `hedge_quantile`), which publishes
//! its bucket as the `retryBudgetTokens` bean.

use bskel_monitor::snapshot::BEAN_NAMES;
use bskel_monitor::SensorSnapshot;
use bskel_rules::stdlib::{hier_beans, params, viol};
use bskel_rules::{op, OpCall, ParamTable, RuleEngine, RuleSet, WorkingMemory};

/// Which control law a manager runs (wired through `ManagerConfig` and
/// scenario JSON as `"rules" | "aimd"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerKind {
    /// The rule engine over the kind's standard (or custom) program.
    #[default]
    Rules,
    /// AIMD par-degree control; no rule program.
    Aimd,
}

impl ControllerKind {
    /// Canonical JSON/journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ControllerKind::Rules => "rules",
            ControllerKind::Aimd => "aimd",
        }
    }

    /// Every shipped kind, in bench/table order.
    pub fn all() -> [ControllerKind; 2] {
        [ControllerKind::Rules, ControllerKind::Aimd]
    }
}

impl std::str::FromStr for ControllerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rules" => Ok(ControllerKind::Rules),
            "aimd" => Ok(ControllerKind::Aimd),
            other => Err(format!(
                "unknown controller {other:?} (expected rules|aimd)"
            )),
        }
    }
}

impl std::fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the manager adds to the sensed beans each cycle: its children's
/// violation reports since the last cycle, and whether the stream has
/// ended (the `hier_beans` flags).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hierarchy {
    pub not_enough: bool,
    pub too_much: bool,
    pub end_stream: bool,
}

impl Hierarchy {
    /// The flags as beans, encoded 0.0 / 1.0.
    fn beans(self) -> [(&'static str, f64); 3] {
        let flag = |set: bool| if set { 1.0 } else { 0.0 };
        [
            (hier_beans::VIOL_NOT_ENOUGH, flag(self.not_enough)),
            (hier_beans::VIOL_TOO_MUCH, flag(self.too_much)),
            (hier_beans::END_STREAM, flag(self.end_stream)),
        ]
    }
}

/// Refills a rule law's working memory: the snapshot's table row in one
/// copy, then its extras and the hierarchy beans by name.
fn fill(wm: &mut WorkingMemory, snap: &SensorSnapshot, hier: Hierarchy) {
    let extras = snap.extra.iter().map(|(name, v)| (name.as_str(), *v));
    wm.refill_row(&BEAN_NAMES, &snap.values(), extras.chain(hier.beans()));
}

/// A control law: sensed state in, symbolic operations out.
///
/// The manager owns the loop (sense, journal, blackout, hierarchy beans,
/// op interpretation, mode derivation); the controller owns only the
/// *analyse/plan* step. Laws with no rule program return `None` from
/// [`Controller::rules`], which disables rule linting for
/// that manager — there is nothing to lint.
pub(crate) trait Controller: Send {
    /// Law name as journaled on every actuation (`rules` or `aimd`).
    fn name(&self) -> &'static str;

    /// The rule program, when this law has one (lint/mc target).
    fn rules(&self) -> Option<&RuleSet> {
        None
    }

    /// Replaces the rule program (custom policies). Laws without a
    /// program ignore this — a caller swapping rules on an AIMD manager
    /// changes nothing, by design.
    fn set_rules(&mut self, _rules: RuleSet) {}

    /// One analyse/plan step: operations to order this cycle.
    fn decide(
        &mut self,
        snap: &SensorSnapshot,
        hier: Hierarchy,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String>;

    /// Writes controller-internal state into the sensed snapshot, before
    /// it is journaled and decided on, so replay and rule programs both
    /// see it.
    fn publish(&self, _snap: &mut SensorSnapshot) {}
}

/// Constructs the controller for a kind, over the given rule program
/// (used by the rule law; AIMD ignores it).
pub(crate) fn build_controller(kind: ControllerKind, rules: RuleSet) -> Box<dyn Controller> {
    match kind {
        ControllerKind::Rules => Box::new(RuleController::new(rules)),
        ControllerKind::Aimd => Box::new(AimdController::new()),
    }
}

/// The existing rule engine behind the [`Controller`] seam.
pub(crate) struct RuleController {
    engine: RuleEngine,
    /// Refilled every cycle rather than rebuilt.
    wm: WorkingMemory,
}

impl RuleController {
    /// Wraps a rule program.
    pub fn new(rules: RuleSet) -> Self {
        Self {
            engine: RuleEngine::new(rules),
            wm: WorkingMemory::new(),
        }
    }
}

impl Controller for RuleController {
    fn name(&self) -> &'static str {
        "rules"
    }

    fn rules(&self) -> Option<&RuleSet> {
        Some(self.engine.rules())
    }

    fn set_rules(&mut self, rules: RuleSet) {
        self.engine = RuleEngine::new(rules);
    }

    fn decide(
        &mut self,
        snap: &SensorSnapshot,
        hier: Hierarchy,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String> {
        fill(&mut self.wm, snap, hier);
        self.engine
            .cycle_ops(&self.wm, params)
            .map_err(|e| e.to_string())
    }
}

/// AIMD par-degree control.
///
/// Update law, per control cycle, over the contract thresholds the farm
/// rules also use (`$FARM_LOW_PERF_LEVEL` = floor, `$FARM_HIGH_PERF_LEVEL`
/// = ceiling, worker bounds from the contract):
///
/// ```text
/// pressure  = departureRate < floor ∧ arrivalRate ≥ floor
/// headroom  = departureRate > ceiling
/// pressure → C ← min(maxWorkers, C + 1)        (additive increase)
/// headroom → C ← max(minWorkers, 0.75 × C)     (multiplicative decrease)
/// target    = max(round(C), minWorkers, ftMinWorkers)
/// ```
///
/// then one `ADD_EXECUTOR`/`REMOVE_EXECUTOR` step toward `target` (plus a
/// `BALANCE_LOAD` alongside any resize, and standalone when
/// `queueVariance > $FARM_MAX_UNBALANCE`). Violation escalation mirrors
/// the farm program: starved arrivals raise `notEnoughTasks`, arrivals
/// above the ceiling raise `tooMuchTasks` — the hierarchy protocol is a
/// property of the manager, not of the law.
///
/// The fault-tolerance floor rides the `ftMinWorkers` bean (published by
/// substrates running with an FT policy), so AIMD composes with worker
/// loss without any merged rule program.
pub(crate) struct AimdController {
    ceiling: f64,
}

impl AimdController {
    /// A fresh law; the ceiling initializes from the first snapshot's
    /// observed par-degree.
    pub fn new() -> Self {
        Self { ceiling: 0.0 }
    }
}

impl Default for AimdController {
    fn default() -> Self {
        Self::new()
    }
}

/// Multiplicative-decrease factor: β = 0.75 sheds capacity fast enough to
/// matter yet keeps ⌈C×β⌉ < C only from C ≥ 2, so the law can never
/// underflow a one-worker farm on its own.
const AIMD_BETA: f64 = 0.75;

impl Controller for AimdController {
    fn name(&self) -> &'static str {
        "aimd"
    }

    fn decide(
        &mut self,
        snap: &SensorSnapshot,
        _hier: Hierarchy,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String> {
        let floor = params.get(params::FARM_LOW_PERF_LEVEL).unwrap_or(0.0);
        let ceil = params
            .get(params::FARM_HIGH_PERF_LEVEL)
            .unwrap_or(f64::INFINITY);
        let min_w = params.get(params::FARM_MIN_NUM_WORKERS).unwrap_or(1.0);
        let max_w = params.get(params::FARM_MAX_NUM_WORKERS).unwrap_or(64.0);
        let max_unbalance = params.get(params::FARM_MAX_UNBALANCE).unwrap_or(4.0);

        let num = f64::from(snap.num_workers);
        if self.ceiling <= 0.0 {
            self.ceiling = num.max(min_w).max(1.0);
        }

        let mut ops = Vec::new();

        // Escalation mirrors the farm rule program's arrival checks.
        if snap.arrival_rate < floor && !snap.end_of_stream {
            ops.push(OpCall::with_data(
                op::RAISE_VIOLATION,
                viol::NOT_ENOUGH_TASKS,
            ));
        } else if snap.arrival_rate > ceil {
            ops.push(OpCall::with_data(op::RAISE_VIOLATION, viol::TOO_MUCH_TASKS));
        }

        let pressure = snap.departure_rate < floor && snap.arrival_rate >= floor;
        let headroom = snap.departure_rate > ceil;
        if pressure {
            self.ceiling = (self.ceiling + 1.0).min(max_w);
        } else if headroom {
            self.ceiling = (self.ceiling * AIMD_BETA).max(min_w);
        }

        let ft_floor = f64::from(snap.ft_min_workers);
        let target = self.ceiling.round().max(min_w).max(ft_floor).max(1.0);

        if num < target {
            ops.push(OpCall::new(op::ADD_EXECUTOR));
            ops.push(OpCall::new(op::BALANCE_LOAD));
        } else if num > target {
            ops.push(OpCall::new(op::REMOVE_EXECUTOR));
            ops.push(OpCall::new(op::BALANCE_LOAD));
        } else if snap.queue_variance > max_unbalance {
            ops.push(OpCall::new(op::BALANCE_LOAD));
        }
        Ok(ops)
    }

    fn publish(&self, snap: &mut SensorSnapshot) {
        snap.aimd_ceiling = self.ceiling;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_rules::stdlib;

    impl AimdController {
        fn ceiling(&self) -> f64 {
            self.ceiling
        }
    }

    fn snap_at(at: f64) -> SensorSnapshot {
        SensorSnapshot::empty(at)
    }

    fn farm_params() -> ParamTable {
        stdlib::farm_params(4.0, 8.0, 1, 16, 4.0)
    }

    #[test]
    fn kind_round_trips_through_str() {
        for kind in ControllerKind::all() {
            assert_eq!(kind.as_str().parse::<ControllerKind>().unwrap(), kind);
        }
        for removed in ["nonsense", "retry_budget", "hedge"] {
            let err = removed.parse::<ControllerKind>().unwrap_err();
            assert!(err.contains("rules|aimd"), "{err}");
        }
    }

    #[test]
    fn aimd_additively_increases_under_pressure() {
        let mut c = AimdController::new();
        let params = farm_params();
        let mut snap = snap_at(1.0);
        snap.num_workers = 2;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 2.0; // below floor, demand present
        let ops = c.decide(&snap, Hierarchy::default(), &params).unwrap();
        assert!((c.ceiling() - 3.0).abs() < 1e-9);
        assert!(ops.iter().any(|o| o.operation == op::ADD_EXECUTOR));
    }

    #[test]
    fn aimd_multiplicatively_decreases_on_headroom() {
        let mut c = AimdController::new();
        let params = farm_params();
        let mut snap = snap_at(1.0);
        snap.num_workers = 8;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 9.0; // above ceiling
        let ops = c.decide(&snap, Hierarchy::default(), &params).unwrap();
        assert!((c.ceiling() - 6.0).abs() < 1e-9); // 8 × 0.75
        assert!(ops.iter().any(|o| o.operation == op::REMOVE_EXECUTOR));
    }

    #[test]
    fn aimd_ceiling_respects_contract_bounds() {
        let mut c = AimdController::new();
        let params = stdlib::farm_params(4.0, 8.0, 2, 3, 4.0);
        for i in 0..10 {
            let mut snap = snap_at(f64::from(i));
            snap.num_workers = 3;
            snap.arrival_rate = 6.0;
            snap.departure_rate = 2.0;
            c.decide(&snap, Hierarchy::default(), &params).unwrap();
        }
        assert!(c.ceiling() <= 3.0);
        for i in 10..30 {
            let mut snap = snap_at(f64::from(i));
            snap.num_workers = 2;
            snap.arrival_rate = 6.0;
            snap.departure_rate = 9.0;
            c.decide(&snap, Hierarchy::default(), &params).unwrap();
        }
        assert!(c.ceiling() >= 2.0);
    }

    #[test]
    fn aimd_honours_ft_floor_bean() {
        let mut c = AimdController::new();
        let params = farm_params();
        let mut snap = snap_at(1.0);
        snap.num_workers = 1;
        snap.ft_min_workers = 4;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 6.0; // in contract: no AIMD move
        let ops = c.decide(&snap, Hierarchy::default(), &params).unwrap();
        assert!(ops.iter().any(|o| o.operation == op::ADD_EXECUTOR));
    }
}

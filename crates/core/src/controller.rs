//! Pluggable control laws for the autonomic manager.
//!
//! The paper expresses management policy as JBoss-style rule programs; the
//! ninelives roadmap (and the RL-skeleton line of work in PAPERS.md) treat
//! the controller as a swappable policy instead. [`Controller`] is that
//! seam: the manager's MAPE loop senses, builds working memory, and hands
//! both to whatever law is plugged in — the rule engine, an AIMD
//! congestion-control law, or a budget-mirroring wrapper — then interprets
//! the returned [`OpCall`]s exactly as it always has. Policies stay
//! substrate-agnostic: a controller only ever sees sensed beans and emits
//! symbolic operations.
//!
//! Three non-rule laws ship beside [`RuleController`]:
//!
//! * [`AimdController`] — additive-increase/multiplicative-decrease of the
//!   par-degree ceiling: contract pressure (backlogged delivery below the
//!   floor) adds one worker's headroom per cycle; contract headroom
//!   (delivery above the ceiling) cuts the ceiling multiplicatively
//!   (×0.75). The asymmetry is the classic congestion-control argument:
//!   probing up is cheap, overshoot is expensive, and the multiplicative
//!   backoff is what prevents synchronized grow/shrink oscillation.
//! * [`BudgetedRuleController`] — the rule program for the manager's kind,
//!   plus a mirror of the plant-side retry-budget token bucket
//!   (`bskel_net`'s pool `RetryBudget`; ratio-of-successful-work deposits, a
//!   min-tokens floor). The mirror exists for observability and replay: it
//!   publishes `retryBudgetTokens` when the plant doesn't, and journals
//!   `PAUSE_REDISPATCH`/`RESUME_REDISPATCH` transitions bracketing every
//!   window in which re-dispatch was suppressed. Enforcement lives in the
//!   plant (the reactor pool), never here — a controller that merely
//!   *advises* cannot be bypassed by a stale snapshot.

use bskel_monitor::SensorSnapshot;
use bskel_rules::stdlib::{params, viol};
use bskel_rules::{op, OpCall, ParamTable, RuleEngine, RuleSet, WorkingMemory};

/// Which control law a manager runs (wired through `ManagerConfig` and
/// scenario JSON as `"rules" | "aimd" | "retry_budget" | "hedge"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerKind {
    /// The rule engine over the kind's standard (or custom) program.
    #[default]
    Rules,
    /// AIMD par-degree control; no rule program.
    Aimd,
    /// Rule program plus a retry-budget mirror (plant gates re-dispatch).
    RetryBudget,
    /// Rule program plus the budget mirror, with plant-side hedging
    /// enabled (quantile-triggered duplicate dispatch).
    Hedge,
}

impl ControllerKind {
    /// Canonical JSON/journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ControllerKind::Rules => "rules",
            ControllerKind::Aimd => "aimd",
            ControllerKind::RetryBudget => "retry_budget",
            ControllerKind::Hedge => "hedge",
        }
    }

    /// Every shipped kind, in bench/table order.
    pub fn all() -> [ControllerKind; 4] {
        [
            ControllerKind::Rules,
            ControllerKind::Aimd,
            ControllerKind::RetryBudget,
            ControllerKind::Hedge,
        ]
    }
}

impl std::str::FromStr for ControllerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rules" => Ok(ControllerKind::Rules),
            "aimd" => Ok(ControllerKind::Aimd),
            "retry_budget" | "retry-budget" | "budget" => Ok(ControllerKind::RetryBudget),
            "hedge" | "hedged" => Ok(ControllerKind::Hedge),
            other => Err(format!(
                "unknown controller {other:?} (expected rules|aimd|retry_budget|hedge)"
            )),
        }
    }
}

impl std::fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A control law: sensed state in, symbolic operations out.
///
/// The manager owns the loop (sense, journal, blackout, hierarchy beans,
/// op interpretation, mode derivation); the controller owns only the
/// *analyse/plan* step. Laws with no rule program return `None` from
/// [`Controller::rules`], which disables rule linting/model-checking for
/// that manager — there is nothing to lint.
pub trait Controller: Send {
    /// Law name as journaled on every actuation (`rules`, `aimd`, …).
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
        wm: &WorkingMemory,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String>;

    /// Writes controller-internal state into the sensed snapshot, before
    /// it is journaled and working memory is built, so replay and rule
    /// programs both see it.
    fn publish(&self, _snap: &mut SensorSnapshot) {}
}

/// Constructs the controller for a kind, over the given rule program
/// (used by the rule-based laws; AIMD ignores it).
pub fn build_controller(kind: ControllerKind, rules: RuleSet) -> Box<dyn Controller> {
    match kind {
        ControllerKind::Rules => Box::new(RuleController::new(rules)),
        ControllerKind::Aimd => Box::new(AimdController::new()),
        ControllerKind::RetryBudget => Box::new(BudgetedRuleController::new(rules, "retry_budget")),
        ControllerKind::Hedge => Box::new(BudgetedRuleController::new(rules, "hedge")),
    }
}

/// The existing rule engine behind the [`Controller`] seam.
pub struct RuleController {
    engine: RuleEngine,
}

impl RuleController {
    /// Wraps a rule program.
    pub fn new(rules: RuleSet) -> Self {
        Self {
            engine: RuleEngine::new(rules),
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
        _snap: &SensorSnapshot,
        wm: &WorkingMemory,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String> {
        self.engine.cycle_ops(wm, params).map_err(|e| e.to_string())
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
pub struct AimdController {
    ceiling: f64,
}

impl AimdController {
    /// A fresh law; the ceiling initializes from the first snapshot's
    /// observed par-degree.
    pub fn new() -> Self {
        Self { ceiling: 0.0 }
    }

    /// Current ceiling (0.0 before the first cycle).
    pub fn ceiling(&self) -> f64 {
        self.ceiling
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
        _wm: &WorkingMemory,
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

/// Default deposit ratio of the manager-side budget mirror (tokens per
/// unit of successful work) when the plant publishes no budget of its own.
const MIRROR_RATIO: f64 = 0.2;
/// Default floor of the mirror bucket (tokens held while idle).
const MIRROR_MIN_TOKENS: f64 = 5.0;

/// A rule program plus a mirror of the plant-side retry budget.
///
/// Scaling decisions come from the wrapped rule engine (so in scenarios
/// without re-dispatch this law is benchmark-identical to `rules`, which
/// the CTRL1 table makes explicit); the added value is the budget window:
/// the mirror deposits `ratio × delivered work` per cycle, drains one
/// token per observed re-dispatch (`Δ tasksRetried + Δ hedgesLaunched`),
/// and fires a transition-only `PAUSE_REDISPATCH`/`RESUME_REDISPATCH`
/// pair around every exhaustion window. Substrates treat the pair as a
/// no-op (the plant bucket is authoritative); the journal gains an
/// explicit, replayable record of *when* the storm brake held.
pub struct BudgetedRuleController {
    engine: RuleEngine,
    law: &'static str,
    tokens: f64,
    last_at: Option<f64>,
    last_redispatched: f64,
    paused: bool,
}

impl BudgetedRuleController {
    /// Wraps the rule program; `law` is the journaled name
    /// (`retry_budget` or `hedge`).
    pub fn new(rules: RuleSet, law: &'static str) -> Self {
        Self {
            engine: RuleEngine::new(rules),
            law,
            tokens: MIRROR_MIN_TOKENS,
            last_at: None,
            last_redispatched: 0.0,
            paused: false,
        }
    }

    /// Current mirror-bucket level.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

impl Controller for BudgetedRuleController {
    fn name(&self) -> &'static str {
        self.law
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
        wm: &WorkingMemory,
        params: &ParamTable,
    ) -> Result<Vec<OpCall>, String> {
        let mut ops = self
            .engine
            .cycle_ops(wm, params)
            .map_err(|e| e.to_string())?;

        if snap.retry_budget_tokens > 0.0 {
            // Plant-published truth wins over the mirror.
            self.tokens = snap.retry_budget_tokens;
        } else {
            let dt = self.last_at.map_or(0.0, |prev| (snap.at - prev).max(0.0));
            let cap = (MIRROR_MIN_TOKENS * 10.0).max(10.0);
            let deposit = MIRROR_RATIO * snap.departure_rate * dt;
            let redispatched = snap.tasks_retried as f64 + snap.hedges_launched as f64;
            let drain = (redispatched - self.last_redispatched).max(0.0);
            self.last_redispatched = redispatched;
            self.tokens = (self.tokens + deposit - drain).clamp(0.0, cap);
        }
        self.last_at = Some(snap.at);

        if self.tokens < 1.0 && !self.paused {
            self.paused = true;
            ops.push(OpCall::new(op::PAUSE_REDISPATCH));
        } else if self.tokens >= 1.0 && self.paused {
            self.paused = false;
            ops.push(OpCall::new(op::RESUME_REDISPATCH));
        }
        Ok(ops)
    }

    /// Plant-published tokens stay authoritative: the mirror fills in
    /// `retryBudgetTokens` only when the plant published none.
    fn publish(&self, snap: &mut SensorSnapshot) {
        if snap.retry_budget_tokens == 0.0 {
            snap.retry_budget_tokens = self.tokens;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_rules::stdlib;

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
        assert!("nonsense".parse::<ControllerKind>().is_err());
    }

    #[test]
    fn aimd_additively_increases_under_pressure() {
        let mut c = AimdController::new();
        let params = farm_params();
        let wm = WorkingMemory::new();
        let mut snap = snap_at(1.0);
        snap.num_workers = 2;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 2.0; // below floor, demand present
        let ops = c.decide(&snap, &wm, &params).unwrap();
        assert!((c.ceiling() - 3.0).abs() < 1e-9);
        assert!(ops.iter().any(|o| o.operation == op::ADD_EXECUTOR));
    }

    #[test]
    fn aimd_multiplicatively_decreases_on_headroom() {
        let mut c = AimdController::new();
        let params = farm_params();
        let wm = WorkingMemory::new();
        let mut snap = snap_at(1.0);
        snap.num_workers = 8;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 9.0; // above ceiling
        let ops = c.decide(&snap, &wm, &params).unwrap();
        assert!((c.ceiling() - 6.0).abs() < 1e-9); // 8 × 0.75
        assert!(ops.iter().any(|o| o.operation == op::REMOVE_EXECUTOR));
    }

    #[test]
    fn aimd_ceiling_respects_contract_bounds() {
        let mut c = AimdController::new();
        let params = stdlib::farm_params(4.0, 8.0, 2, 3, 4.0);
        let wm = WorkingMemory::new();
        for i in 0..10 {
            let mut snap = snap_at(f64::from(i));
            snap.num_workers = 3;
            snap.arrival_rate = 6.0;
            snap.departure_rate = 2.0;
            c.decide(&snap, &wm, &params).unwrap();
        }
        assert!(c.ceiling() <= 3.0);
        for i in 10..30 {
            let mut snap = snap_at(f64::from(i));
            snap.num_workers = 2;
            snap.arrival_rate = 6.0;
            snap.departure_rate = 9.0;
            c.decide(&snap, &wm, &params).unwrap();
        }
        assert!(c.ceiling() >= 2.0);
    }

    #[test]
    fn aimd_honours_ft_floor_bean() {
        let mut c = AimdController::new();
        let params = farm_params();
        let wm = WorkingMemory::new();
        let mut snap = snap_at(1.0);
        snap.num_workers = 1;
        snap.ft_min_workers = 4;
        snap.arrival_rate = 6.0;
        snap.departure_rate = 6.0; // in contract: no AIMD move
        let ops = c.decide(&snap, &wm, &params).unwrap();
        assert!(ops.iter().any(|o| o.operation == op::ADD_EXECUTOR));
    }

    #[test]
    fn budget_mirror_pauses_and_resumes_once_per_window() {
        let mut c = BudgetedRuleController::new(RuleSet::new(), "retry_budget");
        let params = ParamTable::new();
        let wm = WorkingMemory::new();
        // Drain the bucket: a retry storm with no successful work.
        let mut snap = snap_at(1.0);
        snap.tasks_retried = 50;
        let ops = c.decide(&snap, &wm, &params).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::PAUSE_REDISPATCH);
        // Still exhausted: no duplicate PAUSE.
        let mut snap = snap_at(2.0);
        snap.tasks_retried = 55;
        assert!(c.decide(&snap, &wm, &params).unwrap().is_empty());
        // Successful work refills past one token → RESUME, exactly once.
        let mut snap = snap_at(12.0);
        snap.tasks_retried = 55;
        snap.departure_rate = 2.0;
        let ops = c.decide(&snap, &wm, &params).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::RESUME_REDISPATCH);
    }

    #[test]
    fn budget_mirror_defers_to_plant_published_tokens() {
        let mut c = BudgetedRuleController::new(RuleSet::new(), "hedge");
        let params = ParamTable::new();
        let wm = WorkingMemory::new();
        let mut snap = snap_at(1.0);
        snap.retry_budget_tokens = 7.5;
        c.decide(&snap, &wm, &params).unwrap();
        assert!((c.tokens() - 7.5).abs() < 1e-9);
        let mut unpublished = snap_at(2.0);
        c.publish(&mut unpublished);
        assert_eq!(unpublished.retry_budget_tokens, 7.5);
        let mut plant = snap_at(2.0);
        plant.retry_budget_tokens = 3.0;
        c.publish(&mut plant);
        assert_eq!(plant.retry_budget_tokens, 3.0, "the plant's tokens win");
    }
}

//! Standard rule libraries for behavioural-skeleton managers.
//!
//! Three rule programs ship with the crate, as both text assets
//! (`crates/rules/rules/*.rules`) and pre-parsed constructors:
//!
//! * [`farm_rules`] — the task-farm manager program of the paper's Fig. 5
//!   (AM_F): violation raising on input starvation/overpressure, worker
//!   addition/removal on delivered-throughput deviations, queue rebalance;
//! * [`pipeline_rules`] — the pipeline coordinator program (AM_A of
//!   Fig. 4): incRate/decRate reactions to child violations;
//! * [`producer_rules`] — the producer self-tuning program (AM_P).
//!
//! Parameter names are centralised in [`params`], violation data in
//! [`viol`]; [`farm_params`] and [`producer_params`] derive parameter
//! tables from contract bounds so that the same rule text serves any SLA.

use crate::ast::RuleSet;
use crate::parser::parse_rules;
use crate::wm::ParamTable;

/// Text of the farm manager rule program (Fig. 5).
pub const FARM_RULES_TEXT: &str = include_str!("../rules/farm.rules");
/// Text of the pipeline manager rule program.
pub const PIPELINE_RULES_TEXT: &str = include_str!("../rules/pipeline.rules");
/// Text of the producer manager rule program.
pub const PRODUCER_RULES_TEXT: &str = include_str!("../rules/producer.rules");
/// Text of the fault-tolerance rule program.
pub const FAULT_RULES_TEXT: &str = include_str!("../rules/fault.rules");
/// Text of the worker-migration rule program.
pub const MIGRATE_RULES_TEXT: &str = include_str!("../rules/migrate.rules");
/// Text of the distributed-farm resilience rule program.
pub const RESILIENCE_RULES_TEXT: &str = include_str!("../rules/resilience.rules");
/// Text of the multi-tenant arbitration rule program.
pub const TENANCY_RULES_TEXT: &str = include_str!("../rules/tenancy.rules");

/// Parameter names referenced by the standard programs.
pub mod params {
    /// Farm lower throughput threshold (tasks/s) — contract floor.
    pub const FARM_LOW_PERF_LEVEL: &str = "FARM_LOW_PERF_LEVEL";
    /// Farm upper throughput threshold (tasks/s) — contract ceiling.
    pub const FARM_HIGH_PERF_LEVEL: &str = "FARM_HIGH_PERF_LEVEL";
    /// Minimum parallelism degree the manager may shrink to.
    pub const FARM_MIN_NUM_WORKERS: &str = "FARM_MIN_NUM_WORKERS";
    /// Maximum parallelism degree the manager may grow to.
    pub const FARM_MAX_NUM_WORKERS: &str = "FARM_MAX_NUM_WORKERS";
    /// Queue-length variance above which a rebalance is ordered.
    pub const FARM_MAX_UNBALANCE: &str = "FARM_MAX_UNBALANCE";
    /// Producer output-rate floor (tasks/s).
    pub const PROD_RATE_FLOOR: &str = "PROD_RATE_FLOOR";
    /// Producer output-rate ceiling (tasks/s).
    pub const PROD_RATE_CEIL: &str = "PROD_RATE_CEIL";
    /// Fault tolerance: minimum parallelism degree to restore after
    /// failures.
    pub const FT_MIN_WORKERS: &str = "FT_MIN_WORKERS";
    /// Migration: minimum best-free/slowest-live speed ratio worth a move.
    pub const MIGRATE_MIN_GAIN: &str = "MIGRATE_MIN_GAIN";
    /// Tenant delivered-throughput floor (tasks/s) — contract floor.
    pub const TENANT_RATE_FLOOR: &str = "TENANT_RATE_FLOOR";
    /// Tenant delivered-throughput ceiling (tasks/s) — contract ceiling.
    pub const TENANT_RATE_CEIL: &str = "TENANT_RATE_CEIL";
    /// Guaranteed minimum share weight the arbiter may shrink a tenant to.
    pub const TENANT_MIN_SHARE: &str = "TENANT_MIN_SHARE";
    /// Maximum share weight a single tenant may grow to.
    pub const TENANT_MAX_SHARE: &str = "TENANT_MAX_SHARE";
    /// Admission bound: queue depth above which a tenant is over budget.
    pub const TENANT_QUEUE_LIMIT: &str = "TENANT_QUEUE_LIMIT";
}

/// Violation data attached by `setData` in the standard programs.
pub mod viol {
    /// Input pressure below contract floor: the skeleton is starved and
    /// only an upstream actor can help (paper: `notEnough`).
    pub const NOT_ENOUGH_TASKS: &str = "notEnoughTasks";
    /// Input pressure above contract ceiling (paper: warning-type
    /// violation — buffering would absorb it, but reporting enables
    /// memory-use fine-tuning).
    pub const TOO_MUCH_TASKS: &str = "tooMuchTasks";
    /// Datum attached to worker-addition operations.
    pub(crate) const FARM_ADD_WORKERS: &str = "farmAddWorkers";
    /// Datum of the fault-tolerance program's worker replacement.
    pub(crate) const REPLACE_FAILED: &str = "replaceFailed";
    /// Datum of the migration program's move.
    pub const MIGRATE_SLOWEST: &str = "migrateSlowest";
    /// Datum of the resilience program's recruitment past open circuits.
    pub(crate) const CIRCUIT_OPEN: &str = "circuitOpen";
    /// Datum of the tenancy program's load shedding.
    pub(crate) const TENANT_OVER_BUDGET: &str = "tenantOverBudget";
    /// Datum of the tenancy program's share growth.
    pub(crate) const TENANT_UNDER_SERVED: &str = "tenantUnderServed";
    /// Datum of the tenancy program's pool growth.
    pub(crate) const TENANT_PRESSURE: &str = "tenantPressure";

    /// Every datum above: the ones a loaded program's calls borrow.
    pub const ALL: &[&str] = &[
        NOT_ENOUGH_TASKS,
        TOO_MUCH_TASKS,
        FARM_ADD_WORKERS,
        REPLACE_FAILED,
        MIGRATE_SLOWEST,
        CIRCUIT_OPEN,
        TENANT_OVER_BUDGET,
        TENANT_UNDER_SERVED,
        TENANT_PRESSURE,
    ];
}

/// Beans set by hierarchy-aware managers (in addition to the sensor beans
/// of `bskel_monitor::snapshot::beans`).
pub mod hier_beans {
    /// 1.0 when a child reported `notEnoughTasks` since the last cycle.
    pub const VIOL_NOT_ENOUGH: &str = "violNotEnough";
    /// 1.0 when a child reported `tooMuchTasks` since the last cycle.
    pub const VIOL_TOO_MUCH: &str = "violTooMuch";
    /// 1.0 once any child has observed the end of the input stream.
    pub const END_STREAM: &str = "endStream";
}

/// The farm manager rule program (paper Fig. 5).
///
/// # Panics
/// Never — the embedded text is covered by tests.
pub fn farm_rules() -> RuleSet {
    parse_rules(FARM_RULES_TEXT).expect("embedded farm.rules must parse")
}

/// The pipeline coordinator rule program.
pub fn pipeline_rules() -> RuleSet {
    parse_rules(PIPELINE_RULES_TEXT).expect("embedded pipeline.rules must parse")
}

/// The producer self-tuning rule program.
pub fn producer_rules() -> RuleSet {
    parse_rules(PRODUCER_RULES_TEXT).expect("embedded producer.rules must parse")
}

/// The fault-tolerance rule program (worker replacement after failures).
/// Its one `ADD_EXECUTOR` recruits the whole deficit under
/// `$FT_MIN_WORKERS`: the manager sizes a below-floor recruitment, so
/// lost workers are replaced in one actuation.
pub fn fault_rules() -> RuleSet {
    parse_rules(FAULT_RULES_TEXT).expect("embedded fault.rules must parse")
}

/// Fig. 5 farm rules + fault-tolerance rules merged — the paper's *SM*
/// design point: one manager handling two concerns (§3.2).
pub fn farm_rules_with_ft() -> RuleSet {
    let mut set = farm_rules();
    set.extend(fault_rules());
    set
}

/// The farm manager's program for the concerns a deployment enables: the
/// Fig. 5 rules, merged with the fault-tolerance rules when a worker floor
/// `ft_min_workers` is set and with the migration rules when a gain
/// threshold `migrate_min_gain` is set, plus the parameters those concerns
/// add to the contract-derived ones.
pub fn farm_program(
    ft_min_workers: Option<u32>,
    migrate_min_gain: Option<f64>,
) -> (RuleSet, ParamTable) {
    let mut rules = farm_rules();
    let mut extra = ParamTable::new();
    if let Some(n) = ft_min_workers {
        rules.extend(fault_rules());
        extra.set(params::FT_MIN_WORKERS, f64::from(n));
    }
    if let Some(gain) = migrate_min_gain {
        rules.extend(migrate_rules());
        extra.set(params::MIGRATE_MIN_GAIN, gain);
    }
    (rules, extra)
}

/// Builds the fault-tolerance parameter table.
pub fn fault_params(min_workers: u32) -> ParamTable {
    ParamTable::new().with(params::FT_MIN_WORKERS, f64::from(min_workers))
}

/// The distributed-farm resilience rule program (reacts to the pool's
/// circuit-breaker and speculative-retry beans).
pub fn resilience_rules() -> RuleSet {
    parse_rules(RESILIENCE_RULES_TEXT).expect("embedded resilience.rules must parse")
}

/// Fault-tolerance + resilience rules merged — the self-healing program
/// for the distributed pool (replace lost slots, route growth around
/// quarantined endpoints, smooth queues after retries).
pub fn fault_rules_with_resilience() -> RuleSet {
    let mut set = fault_rules();
    set.extend(resilience_rules());
    set
}

/// Builds the resilience parameter table.
pub fn resilience_params(max_workers: u32) -> ParamTable {
    ParamTable::new().with(params::FARM_MAX_NUM_WORKERS, f64::from(max_workers))
}

/// The worker-migration rule program.
pub fn migrate_rules() -> RuleSet {
    parse_rules(MIGRATE_RULES_TEXT).expect("embedded migrate.rules must parse")
}

/// The multi-tenant arbitration rule program (share grow/shrink, load
/// shedding, pool growth on aggregate pressure, escalation at the share
/// ceiling).
pub fn tenancy_rules() -> RuleSet {
    parse_rules(TENANCY_RULES_TEXT).expect("embedded tenancy.rules must parse")
}

/// Builds the tenancy parameter table from a tenant's contract bounds.
///
/// * `floor`/`ceil` — the delivered-throughput stripe (tasks/s); for a
///   pure `minThroughput` contract pass `ceil = f64::INFINITY`.
/// * `min_share`/`max_share` — bounds on the tenant's DRR share weight.
/// * `queue_limit` — admission bound on the tenant's queue depth.
/// * `max_workers` — shared-pool parallelism ceiling (arbiter growth
///   stops here; referenced by the pool-pressure rule).
pub fn tenancy_params(
    floor: f64,
    ceil: f64,
    min_share: f64,
    max_share: f64,
    queue_limit: u32,
    max_workers: u32,
) -> ParamTable {
    ParamTable::new()
        .with(params::TENANT_RATE_FLOOR, floor)
        .with(params::TENANT_RATE_CEIL, ceil)
        .with(params::TENANT_MIN_SHARE, min_share)
        .with(params::TENANT_MAX_SHARE, max_share)
        .with(params::TENANT_QUEUE_LIMIT, f64::from(queue_limit))
        .with(params::FARM_MAX_NUM_WORKERS, f64::from(max_workers))
}

/// Builds the migration parameter table.
pub fn migrate_params(min_gain: f64) -> ParamTable {
    ParamTable::new().with(params::MIGRATE_MIN_GAIN, min_gain)
}

/// Builds the farm parameter table from contract bounds.
///
/// * `low`/`high` — the throughput stripe (tasks/s). For a pure
///   `minThroughput` contract pass `high = f64::INFINITY`.
/// * `min_workers`/`max_workers` — parallelism-degree bounds.
/// * `max_unbalance` — queue-variance threshold for rebalancing.
pub fn farm_params(
    low: f64,
    high: f64,
    min_workers: u32,
    max_workers: u32,
    max_unbalance: f64,
) -> ParamTable {
    ParamTable::new()
        .with(params::FARM_LOW_PERF_LEVEL, low)
        .with(params::FARM_HIGH_PERF_LEVEL, high)
        .with(params::FARM_MIN_NUM_WORKERS, f64::from(min_workers))
        .with(params::FARM_MAX_NUM_WORKERS, f64::from(max_workers))
        .with(params::FARM_MAX_UNBALANCE, max_unbalance)
}

/// Builds the producer parameter table from an output-rate range contract.
pub fn producer_params(floor: f64, ceil: f64) -> ParamTable {
    ParamTable::new()
        .with(params::PROD_RATE_FLOOR, floor)
        .with(params::PROD_RATE_CEIL, ceil)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RuleEngine;
    use crate::op;
    use crate::wm::WorkingMemory;

    fn farm_wm(arrival: f64, departure: f64, workers: f64, qvar: f64) -> WorkingMemory {
        WorkingMemory::from_beans([
            ("arrivalRate", arrival),
            ("departureRate", departure),
            ("numWorkers", workers),
            ("queueVariance", qvar),
        ])
    }

    #[test]
    fn fig5_program_has_the_five_rules() {
        let set = farm_rules();
        let names: Vec<&str> = set.rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "CheckInterArrivalRateLow",
                "CheckInterArrivalRateHigh",
                "CheckRateLow",
                "CheckRateHigh",
                "CheckLoadBalance",
            ]
        );
    }

    #[test]
    fn fig5_starvation_raises_not_enough() {
        // Input pressure below the floor: the farm can't fix this locally;
        // it must report to its parent (paper Fig. 4, first phase).
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.1, 0.1, 2.0, 0.0), &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::RAISE_VIOLATION);
        assert_eq!(ops[0].data.as_deref(), Some(viol::NOT_ENOUGH_TASKS));
    }

    #[test]
    fn fig5_low_throughput_with_pressure_adds_workers() {
        // Enough input, not enough output: grow the farm (Fig. 4, second
        // phase — the addWorker events).
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.5, 0.2, 2.0, 0.0), &p).unwrap();
        let names: Vec<&str> = ops.iter().map(|o| o.operation.as_ref()).collect();
        assert_eq!(names, [op::ADD_EXECUTOR, op::BALANCE_LOAD]);
        assert_eq!(ops[0].data.as_deref(), Some(viol::FARM_ADD_WORKERS));
    }

    #[test]
    fn fig5_overpressure_raises_too_much() {
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.9, 0.5, 4.0, 0.0), &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::RAISE_VIOLATION);
        assert_eq!(ops[0].data.as_deref(), Some(viol::TOO_MUCH_TASKS));
    }

    #[test]
    fn fig5_high_throughput_sheds_workers() {
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.5, 0.9, 4.0, 0.0), &p).unwrap();
        let names: Vec<&str> = ops.iter().map(|o| o.operation.as_ref()).collect();
        assert_eq!(names, [op::REMOVE_EXECUTOR, op::BALANCE_LOAD]);
    }

    #[test]
    fn fig5_unbalance_triggers_rebalance() {
        // Within the stripe but queues skewed (Fig. 4, last phase — the
        // rebalance event at 38:10).
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.5, 0.5, 4.0, 9.0), &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::BALANCE_LOAD);
    }

    #[test]
    fn fig5_in_contract_is_quiet() {
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.5, 0.5, 4.0, 0.5), &p).unwrap();
        assert!(ops.is_empty(), "in-contract farm fired {ops:?}");
    }

    #[test]
    fn fig5_respects_max_workers() {
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 1, 4, 4.0);
        // Under-delivering but already above the max parallelism degree:
        // CheckRateLow must not fire.
        let ops = e.cycle_ops(&farm_wm(0.5, 0.2, 5.0, 0.0), &p).unwrap();
        assert!(ops.iter().all(|o| o.operation != op::ADD_EXECUTOR));
    }

    #[test]
    fn fig5_respects_min_workers() {
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.3, 0.7, 2, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(0.5, 0.9, 2.0, 0.0), &p).unwrap();
        assert!(ops.iter().all(|o| o.operation != op::REMOVE_EXECUTOR));
    }

    #[test]
    fn min_throughput_contract_never_sheds() {
        // minThroughput(0.6) => ceiling is +inf: CheckRateHigh and
        // CheckInterArrivalRateHigh can never fire (Fig. 3 scenario).
        let mut e = RuleEngine::new(farm_rules());
        let p = farm_params(0.6, f64::INFINITY, 1, 16, 4.0);
        let ops = e.cycle_ops(&farm_wm(5.0, 5.0, 8.0, 0.0), &p).unwrap();
        assert!(ops.is_empty(), "{ops:?}");
    }

    #[test]
    fn pipeline_rules_react_to_child_violations() {
        let mut e = RuleEngine::new(pipeline_rules());
        let p = ParamTable::new();
        let wm = WorkingMemory::from_beans([
            (hier_beans::VIOL_NOT_ENOUGH, 1.0),
            (hier_beans::VIOL_TOO_MUCH, 0.0),
            (hier_beans::END_STREAM, 0.0),
        ]);
        let ops = e.cycle_ops(&wm, &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::INC_RATE);
    }

    #[test]
    fn pipeline_ignores_not_enough_after_end_stream() {
        // Paper Fig. 4, last phase: AM_A stops reacting to notEnough once
        // endStream has been observed.
        let mut e = RuleEngine::new(pipeline_rules());
        let wm = WorkingMemory::from_beans([
            (hier_beans::VIOL_NOT_ENOUGH, 1.0),
            (hier_beans::VIOL_TOO_MUCH, 0.0),
            (hier_beans::END_STREAM, 1.0),
        ]);
        let ops = e.cycle_ops(&wm, &ParamTable::new()).unwrap();
        assert!(ops.is_empty());
    }

    #[test]
    fn pipeline_dec_rate_on_too_much() {
        let mut e = RuleEngine::new(pipeline_rules());
        let wm = WorkingMemory::from_beans([
            (hier_beans::VIOL_NOT_ENOUGH, 0.0),
            (hier_beans::VIOL_TOO_MUCH, 1.0),
            (hier_beans::END_STREAM, 1.0),
        ]);
        let ops = e.cycle_ops(&wm, &ParamTable::new()).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::DEC_RATE);
    }

    #[test]
    fn producer_rules_track_contract_range() {
        let mut e = RuleEngine::new(producer_rules());
        let p = producer_params(0.4, 0.8);
        let slow = WorkingMemory::from_beans([("departureRate", 0.2), ("endOfStream", 0.0)]);
        let ops = e.cycle_ops(&slow, &p).unwrap();
        assert_eq!(ops[0].operation, op::INC_RATE);

        let fast = WorkingMemory::from_beans([("departureRate", 1.0), ("endOfStream", 0.0)]);
        let ops = e.cycle_ops(&fast, &p).unwrap();
        assert_eq!(ops[0].operation, op::DEC_RATE);

        let done = WorkingMemory::from_beans([("departureRate", 0.0), ("endOfStream", 1.0)]);
        assert!(e.cycle_ops(&done, &p).unwrap().is_empty());
    }

    #[test]
    fn standard_programs_declare_their_params() {
        assert_eq!(
            farm_rules().required_params(),
            [
                params::FARM_HIGH_PERF_LEVEL,
                params::FARM_LOW_PERF_LEVEL,
                params::FARM_MAX_NUM_WORKERS,
                params::FARM_MAX_UNBALANCE,
                params::FARM_MIN_NUM_WORKERS,
            ]
        );
        assert_eq!(
            producer_rules().required_params(),
            [params::PROD_RATE_CEIL, params::PROD_RATE_FLOOR]
        );
        assert!(pipeline_rules().required_params().is_empty());
    }

    #[test]
    fn farm_params_builder_covers_required() {
        let p = farm_params(0.3, 0.7, 1, 16, 4.0);
        for name in farm_rules().required_params() {
            assert!(p.get(&name).is_some(), "missing param {name}");
        }
    }

    #[test]
    fn fault_rules_replace_lost_workers() {
        let mut e = RuleEngine::new(fault_rules());
        let p = fault_params(3);
        let degraded = WorkingMemory::from_beans([
            ("numWorkers", 1.0),
            ("workersLost", 2.0),
            ("queueVariance", 0.0),
        ]);
        let ops = e.cycle_ops(&degraded, &p).unwrap();
        assert_eq!(ops[0].operation, op::ADD_EXECUTOR);
        assert_eq!(ops[0].data.as_deref(), Some("replaceFailed"));
        let healthy = WorkingMemory::from_beans([
            ("numWorkers", 3.0),
            ("workersLost", 0.0),
            ("queueVariance", 0.0),
        ]);
        assert!(e.cycle_ops(&healthy, &p).unwrap().is_empty());
    }

    #[test]
    fn fault_rules_rebalance_after_loss() {
        // Pool already back at the floor but the survivors inherited the
        // dead worker's backlog unevenly: only the loss-triggered
        // rebalance fires.
        let mut e = RuleEngine::new(fault_rules());
        let p = fault_params(3);
        let skewed = WorkingMemory::from_beans([
            ("numWorkers", 3.0),
            ("workersLost", 1.0),
            ("queueVariance", 6.0),
        ]);
        let ops = e.cycle_ops(&skewed, &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::BALANCE_LOAD);
        // No losses: skew alone is the performance program's business.
        let skewed_no_loss = WorkingMemory::from_beans([
            ("numWorkers", 3.0),
            ("workersLost", 0.0),
            ("queueVariance", 6.0),
        ]);
        assert!(e.cycle_ops(&skewed_no_loss, &p).unwrap().is_empty());
    }

    #[test]
    fn resilience_rules_recruit_around_open_circuit() {
        let mut e = RuleEngine::new(resilience_rules());
        let p = resilience_params(8);
        let quarantined = WorkingMemory::from_beans([
            ("circuitOpenCount", 1.0),
            ("numWorkers", 3.0),
            ("tasksRetried", 0.0),
            ("queueVariance", 0.0),
        ]);
        let ops = e.cycle_ops(&quarantined, &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::ADD_EXECUTOR);
        assert_eq!(ops[0].data.as_deref(), Some("circuitOpen"));
        // Circuit closed again: nothing to do.
        let healthy = WorkingMemory::from_beans([
            ("circuitOpenCount", 0.0),
            ("numWorkers", 3.0),
            ("tasksRetried", 0.0),
            ("queueVariance", 0.0),
        ]);
        assert!(e.cycle_ops(&healthy, &p).unwrap().is_empty());
        // Already at the ceiling: quarantine alone must not overgrow.
        let full = WorkingMemory::from_beans([
            ("circuitOpenCount", 1.0),
            ("numWorkers", 8.0),
            ("tasksRetried", 0.0),
            ("queueVariance", 0.0),
        ]);
        assert!(e.cycle_ops(&full, &p).unwrap().is_empty());
    }

    #[test]
    fn resilience_rules_rebalance_after_retries() {
        let mut e = RuleEngine::new(resilience_rules());
        let p = resilience_params(8);
        let skewed = WorkingMemory::from_beans([
            ("circuitOpenCount", 0.0),
            ("numWorkers", 4.0),
            ("tasksRetried", 2.0),
            ("queueVariance", 5.0),
        ]);
        let ops = e.cycle_ops(&skewed, &p).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].operation, op::BALANCE_LOAD);
        // Retries with even queues: leave the pool alone.
        let even = WorkingMemory::from_beans([
            ("circuitOpenCount", 0.0),
            ("numWorkers", 4.0),
            ("tasksRetried", 2.0),
            ("queueVariance", 0.5),
        ]);
        assert!(e.cycle_ops(&even, &p).unwrap().is_empty());
    }

    #[test]
    fn merged_sm_program_handles_both_concerns() {
        // One manager, two concerns (the SM design point): FT replacement
        // outranks (salience 50) the performance growth rule when both
        // would fire, and both concern's rules coexist without clashes.
        let mut e = RuleEngine::new(farm_rules_with_ft());
        let mut p = farm_params(0.3, 0.7, 1, 16, 4.0);
        for (k, v) in fault_params(3).iter() {
            p.set(k, v);
        }
        // Degraded AND under-delivering with pressure: both fire, FT first.
        let wm = WorkingMemory::from_beans([
            ("arrivalRate", 0.5),
            ("departureRate", 0.1),
            ("numWorkers", 2.0),
            ("queueVariance", 0.0),
            ("workersLost", 1.0),
        ]);
        let firings = e.cycle(&wm, &p).unwrap();
        assert_eq!(firings[0].rule, "ReplaceLostWorkers");
        assert!(firings.iter().any(|f| f.rule == "CheckRateLow"));
    }

    #[test]
    fn every_datum_a_shipped_program_sets_is_a_viol_const() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/rules");
        let mut set = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            for rule in parse_rules(&text).unwrap().rules() {
                for action in &rule.then {
                    if let crate::Action::SetData(datum) = action {
                        set += 1;
                        assert!(
                            viol::ALL.contains(&datum.as_str()),
                            "`{}` sets `{datum}`, which is not in viol::ALL",
                            rule.name
                        );
                    }
                }
            }
        }
        assert!(set > 0);
    }
}

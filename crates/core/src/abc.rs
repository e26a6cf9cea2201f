//! The Autonomic Behaviour Controller (ABC) interface.
//!
//! Paper §4.1: *"The AM interacts with (uses services provided by) an
//! Autonomic Behaviour Controller (ABC) that provides methods to access the
//! computation status (monitoring) and to implement the actions ordered by
//! the AM (actuators)."* The [`Abc`] trait is that boundary: it is the
//! *only* way a manager touches the computation, which is what lets the
//! same manager (and the same rule programs) drive both the threaded
//! skeleton runtime and the discrete-event simulator.

use bskel_monitor::snapshot::{BeanKind, BEAN_TABLE};
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::analysis::{BeanSchema, BeanType};
use std::fmt;

/// The bean/parameter schema every standard ABC publishes: every row of
/// [`BEAN_TABLE`], the hierarchy flags a parent manager injects
/// (`bskel_rules::stdlib::hier_beans`), and the contract-derived
/// parameter names the standard rule libraries reference. This is what
/// `rulelint` checks rule programs against; ABCs publishing extra beans
/// override [`Abc::bean_schema`] and extend it.
pub fn standard_schema() -> BeanSchema {
    use bskel_rules::stdlib::{hier_beans, params};
    BEAN_TABLE
        .iter()
        .fold(BeanSchema::new(), |s, d| s.bean(d.name, bean_type(d.kind)))
        .bean(hier_beans::VIOL_NOT_ENOUGH, BeanType::Flag)
        .bean(hier_beans::VIOL_TOO_MUCH, BeanType::Flag)
        .bean(hier_beans::END_STREAM, BeanType::Flag)
        .param(params::FARM_LOW_PERF_LEVEL)
        .param(params::FARM_HIGH_PERF_LEVEL)
        .param(params::FARM_MIN_NUM_WORKERS)
        .param(params::FARM_MAX_NUM_WORKERS)
        .param(params::FARM_MAX_UNBALANCE)
        .param(params::PROD_RATE_FLOOR)
        .param(params::PROD_RATE_CEIL)
        .param(params::FT_MIN_WORKERS)
        .param(params::MIGRATE_MIN_GAIN)
        .param(params::TENANT_RATE_FLOOR)
        .param(params::TENANT_RATE_CEIL)
        .param(params::TENANT_MIN_SHARE)
        .param(params::TENANT_MAX_SHARE)
        .param(params::TENANT_QUEUE_LIMIT)
}

/// The rule-analysis domain of a bean kind.
pub fn bean_type(kind: BeanKind) -> BeanType {
    match kind {
        BeanKind::Flag => BeanType::Flag,
        BeanKind::Count => BeanType::Count,
        BeanKind::Rate => BeanType::Rate,
        BeanKind::Seconds => BeanType::Seconds,
    }
}

/// Typed actuator operations, declared in the operation table
/// (`bskel_rules::op`).
pub use bskel_rules::ManagerOp;

/// What happened to an ordered actuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActuationOutcome {
    /// The action was applied (possibly asynchronously — e.g. worker
    /// recruitment completes after a deployment delay, during which the
    /// ABC reports `reconfiguring` in its snapshots).
    Applied,
    /// The action was accepted but had no effect (e.g. `BalanceLoad` on
    /// already-balanced queues). Managers do not log an event for these.
    NoOp,
    /// The substrate refused the action (e.g. no recruitable resources
    /// left). The manager treats this as "no locally available plan" and
    /// reports a violation / enters passive mode.
    Refused {
        /// Human-readable reason.
        reason: String,
    },
}

impl ActuationOutcome {
    /// `Applied` when the substrate acted, `NoOp` when it had nothing to do.
    pub fn applied_if(acted: bool) -> Self {
        if acted {
            Self::Applied
        } else {
            Self::NoOp
        }
    }

    /// `Applied`, or `Refused` with the substrate's reason.
    pub fn from_result<T>(result: Result<T, String>) -> Self {
        result.map_or_else(|reason| Self::Refused { reason }, |_| Self::Applied)
    }
}

/// ABC errors: the substrate is broken (as opposed to merely refusing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbcError(pub String);

impl fmt::Display for AbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ABC error: {}", self.0)
    }
}

impl std::error::Error for AbcError {}

/// The monitoring + actuation boundary between a manager and its
/// computation.
pub trait Abc: Send {
    /// Samples the computation's sensors.
    fn sense(&mut self, now: Time) -> SensorSnapshot;

    /// Executes an actuator operation.
    fn actuate(&mut self, op: &ManagerOp, now: Time) -> Result<ActuationOutcome, AbcError>;

    /// The beans this ABC publishes (and the parameters the standard rule
    /// libraries may reference), used to lint rule programs at load time.
    /// Override when `sense` attaches extra beans via
    /// [`SensorSnapshot::with_extra`].
    fn bean_schema(&self) -> BeanSchema {
        standard_schema()
    }
}

/// A trivially inert ABC for managers over components with no actuators
/// (e.g. a consumer stage that is monitored but never reconfigured), and
/// for tests.
#[derive(Debug, Default)]
pub struct NullAbc {
    /// Snapshot returned by `sense` (tests can preload it).
    pub snapshot: Option<SensorSnapshot>,
}

impl Abc for NullAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        self.snapshot
            .clone()
            .unwrap_or_else(|| SensorSnapshot::empty(now))
    }

    fn actuate(&mut self, _op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        Ok(ActuationOutcome::NoOp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_abc_senses_empty() {
        let mut abc = NullAbc::default();
        let s = abc.sense(3.0);
        assert_eq!(s.at, 3.0);
        assert_eq!(s.num_workers, 0);
    }

    #[test]
    fn null_abc_returns_preloaded_snapshot() {
        let mut preset = SensorSnapshot::empty(1.0);
        preset.departure_rate = 0.5;
        let mut abc = NullAbc {
            snapshot: Some(preset.clone()),
        };
        assert_eq!(abc.sense(9.0), preset);
    }

    #[test]
    fn null_abc_actuations_are_noops() {
        let mut abc = NullAbc::default();
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(2), 0.0),
            Ok(ActuationOutcome::NoOp)
        );
    }

    #[test]
    fn abc_is_object_safe() {
        let _: Box<dyn Abc> = Box::new(NullAbc::default());
    }
}

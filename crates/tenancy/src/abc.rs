//! ABCs binding the front-end to autonomic managers, and the two-level
//! manager hierarchy the paper's arbitration story needs.
//!
//! Each tenant gets a `TenantAbc` under a `ManagerKind::Tenant` manager
//! running `tenancy.rules` with parameters derived from the tenant's own
//! contract: it grows/shrinks the tenant's fair-share weight, sheds load
//! when the admission queue overflows its budget, and — when the share
//! ceiling is reached and the contract is still missed — escalates with
//! `raiseViol` to its parent.
//!
//! The parent is the *pool arbiter*: an `ArbiterAbc` over the shared
//! farm's control surface, same rule program, but with its share pinned to
//! `1.0` (via `extra_params`), which makes the share rules dormant and
//! leaves the pool-growth rule (`violTooMuch → ADD_EXECUTOR`) and the
//! shed guard live. Child escalations arrive through the standard
//! violation mailbox and surface as the `violTooMuch` flag — the same
//! hierarchy machinery the paper's pipeline-of-farms uses.

use crate::frontend::{FrontShared, TenantFrontEnd, TenantHandle};
use bskel_core::{
    Abc, AbcError, ActuationOutcome, AutonomicManager, ControllerKind, EventLog, ManagerConfig,
    ManagerOp,
};
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::stdlib::params;
use std::sync::Arc;

/// Growth factor applied to a tenant's weight per `GROW_SHARE` firing.
const GROW_FACTOR: f64 = 1.25;
/// Shrink factor applied per `SHRINK_SHARE` firing.
const SHRINK_FACTOR: f64 = 0.8;

/// Per-tenant ABC: senses one tenant's queue, share, and delivered rate;
/// actuates share growth/shrink and load shedding.
pub(crate) struct TenantAbc<In, Out> {
    shared: Arc<FrontShared<In, Out>>,
    index: usize,
}

impl<In, Out> TenantAbc<In, Out> {
    pub(crate) fn new(shared: Arc<FrontShared<In, Out>>, index: usize) -> Self {
        Self { shared, index }
    }
}

impl<In: Send + 'static, Out: Send + 'static> Abc for TenantAbc<In, Out> {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        self.shared.sense_tenant(self.index, now)
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        let shared = &self.shared;
        Ok(ActuationOutcome::applied_if(match op {
            ManagerOp::GrowShare => shared.scale_weight(self.index, GROW_FACTOR).is_some(),
            ManagerOp::ShrinkShare => shared.scale_weight(self.index, SHRINK_FACTOR).is_some(),
            ManagerOp::ShedLoad => shared.shed_to_half(self.index) > 0,
            // Pool sizing is the arbiter's job, not a tenant's.
            _ => false,
        }))
    }
}

/// Pool-arbiter ABC: the shared farm's sensors plus tenant aggregates;
/// actuates pool sizing through the farm control surface.
pub(crate) struct ArbiterAbc<In, Out> {
    shared: Arc<FrontShared<In, Out>>,
}

impl<In, Out> ArbiterAbc<In, Out> {
    pub(crate) fn new(shared: Arc<FrontShared<In, Out>>) -> Self {
        Self { shared }
    }
}

impl<In: Send + 'static, Out: Send + 'static> Abc for ArbiterAbc<In, Out> {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        self.shared.sense_pool(now)
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        let control = &self.shared.control;
        Ok(match op {
            ManagerOp::AddWorkers(n) => ActuationOutcome::from_result(control.add_workers(*n)),
            ManagerOp::RemoveWorkers(n) => {
                ActuationOutcome::from_result(control.remove_workers(*n))
            }
            ManagerOp::BalanceLoad => ActuationOutcome::applied_if(control.rebalance()),
            // Share ops are pinned dormant by the arbiter's parameters;
            // anything else is not the pool's to perform.
            _ => ActuationOutcome::NoOp,
        })
    }
}

/// The assembled two-level control hierarchy over a front-end.
pub struct TenancyManagers {
    /// Pool arbiter (parent).
    pub arbiter: AutonomicManager,
    /// Per-tenant managers (children), in the order the handles were
    /// passed to [`build_managers`].
    pub children: Vec<AutonomicManager>,
}

impl TenancyManagers {
    /// Runs one control cycle across the hierarchy, children first so
    /// escalations raised this cycle reach the arbiter's mailbox before
    /// it senses.
    pub fn run_cycle(&mut self, now: Time) {
        for c in &mut self.children {
            c.control_cycle(now);
        }
        self.arbiter.control_cycle(now);
    }
}

/// The pool arbiter `AM_POOL`: a tenant manager over the whole pool,
/// growing it up to `max_workers`, with its share parameters pinned to 1.0
/// so only the pool-growth, shed and escalation rules of `tenancy.rules`
/// stay live.
pub fn arbiter_config(max_workers: u32) -> ManagerConfig {
    let mut cfg = ManagerConfig::tenant("AM_POOL");
    cfg.max_workers = max_workers;
    cfg.extra_params = vec![
        (params::TENANT_MIN_SHARE.to_owned(), 1.0),
        (params::TENANT_MAX_SHARE.to_owned(), 1.0),
    ];
    cfg
}

/// Builds the arbiter + per-tenant managers for `front`:
///
/// - one `ManagerConfig::tenant` child per handle, named `AM_T_<tenant>`,
///   its contract posted from the tenant's spec (deriving the rule
///   parameters: the contract floor/ceiling become `$TENANT_RATE_FLOOR` /
///   `$TENANT_RATE_CEIL`);
/// - the arbiter of [`arbiter_config`].
pub fn build_managers<In: Send + 'static, Out: Send + 'static>(
    front: &TenantFrontEnd<In, Out>,
    handles: &[&TenantHandle<In, Out>],
    log: EventLog,
    max_workers: u32,
) -> TenancyManagers {
    build_managers_with(front, handles, log, max_workers, ControllerKind::Rules)
}

/// [`build_managers`] with an explicit control law for the **arbiter**
/// (per-tenant managers always run the share rules — the tenant-level
/// AIMD law is the front-end's in-flight cap adaptation, which is a
/// plant mechanism, not a manager policy).
///
/// Under [`ControllerKind::Aimd`] the arbiter sizes the pool by AIMD
/// over aggregate targets: the contract floor/ceiling parameters are the
/// sums of the tenants' own floors/ceilings, so the pool grows while
/// total delivery misses total promises.
pub fn build_managers_with<In: Send + 'static, Out: Send + 'static>(
    front: &TenantFrontEnd<In, Out>,
    handles: &[&TenantHandle<In, Out>],
    log: EventLog,
    max_workers: u32,
    controller: ControllerKind,
) -> TenancyManagers {
    let mut cfg = arbiter_config(max_workers);
    cfg.controller = controller;
    if controller == ControllerKind::Aimd {
        let (floor, ceil) = handles.iter().fold((0.0_f64, 0.0_f64), |(lo, hi), h| {
            match h.contract().throughput_bounds() {
                Some((l, u)) => (lo + l, hi + if u.is_finite() { u } else { 0.0 }),
                None => (lo, hi),
            }
        });
        cfg.extra_params.extend([
            (params::FARM_LOW_PERF_LEVEL.to_owned(), floor),
            (
                params::FARM_HIGH_PERF_LEVEL.to_owned(),
                if ceil > floor { ceil } else { f64::INFINITY },
            ),
            (params::FARM_MIN_NUM_WORKERS.to_owned(), 1.0),
            (
                params::FARM_MAX_NUM_WORKERS.to_owned(),
                f64::from(max_workers),
            ),
        ]);
    }
    let arbiter = AutonomicManager::new(cfg, Box::new(front.arbiter_abc()), log.clone());

    let children = handles
        .iter()
        .map(|h| {
            let mut cfg = ManagerConfig::tenant(&format!("AM_T_{}", h.name()));
            cfg.max_workers = max_workers;
            let m = AutonomicManager::new(cfg, Box::new(front.tenant_abc(h)), log.clone())
                .with_parent(arbiter.mailbox());
            m.contract_slot().post(h.contract());
            m
        })
        .collect();

    TenancyManagers { arbiter, children }
}

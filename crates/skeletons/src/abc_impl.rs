//! ABC implementations binding the threaded runtime to autonomic managers.
//!
//! These are the runtime's *passive parts* in the paper's terminology: the
//! mechanisms (sensors + actuators) the managers' policies drive. Policies
//! never see the runtime types — only `bskel_core::abc::Abc`.

use crate::farm::FarmControl;
use crate::limiter::RateKnob;
use crate::seq::StageMetrics;
use bskel_core::abc::{Abc, AbcError, ActuationOutcome, ManagerOp};
use bskel_monitor::{SensorSnapshot, Time};
use std::sync::Arc;

/// ABC of a farm behavioural skeleton: full sensor set, worker add/remove
/// and queue rebalancing actuators, plus the fault-tolerance beans
/// (`workersLost` / `ftMinWorkers`) matching the simulator's schema so
/// the shared FT rule program drives both substrates unchanged.
pub struct FarmAbc {
    ctl: Arc<dyn FarmControl>,
    /// Parallelism floor published as the `ftMinWorkers` bean (0 = no
    /// fault-tolerance concern configured).
    ft_floor: u32,
}

impl FarmAbc {
    /// Binds to a farm's control surface (see `Farm::control`).
    pub fn new(ctl: Arc<dyn FarmControl>) -> Self {
        Self { ctl, ft_floor: 0 }
    }

    /// Declares a fault-tolerance parallelism floor: the `ftMinWorkers`
    /// bean the FT rule program (`rules/fault.rules`) restores the pool
    /// to after failures.
    pub fn with_ft_floor(mut self, n: u32) -> Self {
        self.ft_floor = n;
        self
    }
}

impl Abc for FarmAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        let mut snap = self.ctl.sense(now);
        snap.ft_min_workers = self.ft_floor;
        snap
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        Ok(match op {
            ManagerOp::AddWorkers(n) => ActuationOutcome::from_result(self.ctl.add_workers(*n)),
            ManagerOp::RemoveWorkers(n) => {
                ActuationOutcome::from_result(self.ctl.remove_workers(*n))
            }
            ManagerOp::BalanceLoad => ActuationOutcome::applied_if(self.ctl.rebalance()),
            // Fault injection (tests, bench harnesses, chaos rules).
            ManagerOp::KillWorker => ActuationOutcome::from_result(self.ctl.kill_workers(1)),
            // Rate operations are not a farm's to perform.
            _ => ActuationOutcome::NoOp,
        })
    }
}

/// ABC of a paced source stage: departure-rate sensing plus the rate knob
/// actuators (`IncRate` / `DecRate`).
pub(crate) struct SourceAbc {
    knob: Arc<RateKnob>,
    metrics: Arc<StageMetrics>,
}

impl SourceAbc {
    /// Binds to a source's knob and metrics.
    pub fn new(knob: Arc<RateKnob>, metrics: Arc<StageMetrics>) -> Self {
        Self { knob, metrics }
    }
}

impl Abc for SourceAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        let mut snap = self.metrics.snapshot(now);
        // A source has no input stream: expose its configured rate as the
        // arrival pressure so producer rules can compare target vs actual.
        snap.arrival_rate = self.knob.get();
        snap
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        match op {
            ManagerOp::IncRate(f) | ManagerOp::DecRate(f) => {
                self.knob.scale(*f);
                Ok(ActuationOutcome::Applied)
            }
            _ => Ok(ActuationOutcome::NoOp),
        }
    }
}

/// ABC of a data-parallel skeleton ([`crate::map::MapFarm`] /
/// [`crate::map::MapReduceFarm`]): worker add/remove actuators over the
/// scatter pool. `BALANCE_LOAD` is a no-op — scatter chunking is
/// re-balanced per item by construction.
pub struct MapAbc {
    ctl: Arc<dyn crate::map::MapControl>,
}

impl MapAbc {
    /// Binds to a map skeleton's control surface.
    pub fn new(ctl: Arc<dyn crate::map::MapControl>) -> Self {
        Self { ctl }
    }
}

impl Abc for MapAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        self.ctl.sense(now)
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        Ok(match op {
            ManagerOp::AddWorkers(n) => ActuationOutcome::from_result(self.ctl.add_workers(*n)),
            ManagerOp::RemoveWorkers(n) => {
                ActuationOutcome::from_result(self.ctl.remove_workers(*n))
            }
            _ => ActuationOutcome::NoOp,
        })
    }
}

/// Monitor-only ABC for sequential stages (e.g. the consumer): sensors
/// without actuators.
pub(crate) struct StageAbc {
    metrics: Arc<StageMetrics>,
}

impl StageAbc {
    /// Binds to a stage's metrics.
    pub fn new(metrics: Arc<StageMetrics>) -> Self {
        Self { metrics }
    }
}

impl Abc for StageAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        self.metrics.snapshot(now)
    }

    fn actuate(&mut self, _op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        Ok(ActuationOutcome::NoOp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{FarmBuilder, GatherPolicy};
    use crate::stream::StreamMsg;
    use bskel_monitor::{Clock, ManualClock};

    impl SourceAbc {
        /// The current emission rate (tasks/s).
        fn current_rate(&self) -> f64 {
            self.knob.get()
        }
    }

    #[test]
    fn farm_abc_actuates_worker_changes() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(2)
            .max_workers(4)
            .gather(GatherPolicy::Unordered)
            .build();
        let mut abc = FarmAbc::new(farm.control());
        assert_eq!(abc.sense(0.0).num_workers, 2);

        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(2), 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        assert_eq!(abc.sense(0.0).num_workers, 4);

        match abc.actuate(&ManagerOp::AddWorkers(1), 0.0).unwrap() {
            ActuationOutcome::Refused { reason } => {
                assert!(reason.contains("limit"), "{reason}")
            }
            other => panic!("expected refusal, got {other:?}"),
        }

        assert_eq!(
            abc.actuate(&ManagerOp::RemoveWorkers(1), 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        assert_eq!(abc.sense(0.0).num_workers, 3);

        // Balanced queues: rebalance is a no-op.
        assert_eq!(
            abc.actuate(&ManagerOp::BalanceLoad, 0.0).unwrap(),
            ActuationOutcome::NoOp
        );

        // Rate ops are not a farm concern.
        assert_eq!(
            abc.actuate(&ManagerOp::IncRate(1.25), 0.0).unwrap(),
            ActuationOutcome::NoOp
        );

        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn farm_abc_publishes_ft_beans_and_kills_on_demand() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(3).build();
        let mut abc = FarmAbc::new(farm.control()).with_ft_floor(3);
        let snap = abc.sense(0.0);
        assert_eq!(snap.ft_min_workers, 3);
        assert_eq!(snap.workers_lost, 0);
        assert_eq!(snap.bean("ftMinWorkers"), Some(3.0));
        assert_eq!(snap.bean("workersLost"), Some(0.0));

        // KILL_WORKER is the fault-injection actuator.
        assert_eq!(
            abc.actuate(&ManagerOp::KillWorker, 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        let snap = abc.sense(0.0);
        assert_eq!(snap.num_workers, 2);
        assert_eq!(snap.workers_lost, 1);
        assert_eq!(snap.bean("workersLost"), Some(1.0));

        // Unknown custom ops stay inert.
        assert_eq!(
            abc.actuate(&ManagerOp::Custom("NO_SUCH_OP".into()), 0.0)
                .unwrap(),
            ActuationOutcome::NoOp
        );
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn source_abc_scales_knob() {
        let knob = RateKnob::new(1.0);
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let metrics = StageMetrics::new(clock, 2.0);
        let mut abc = SourceAbc::new(Arc::clone(&knob), metrics);
        abc.actuate(&ManagerOp::IncRate(2.0), 0.0).unwrap();
        assert_eq!(abc.current_rate(), 2.0);
        abc.actuate(&ManagerOp::DecRate(0.25), 0.0).unwrap();
        assert_eq!(knob.get(), 0.5);
        // Sensing exposes the knob as arrival pressure.
        assert_eq!(abc.sense(0.0).arrival_rate, 0.5);
    }

    #[test]
    fn map_abc_grows_scatter_pool() {
        use crate::map::MapFarm;
        let farm = MapFarm::new(|x: u64| x, 2);
        let mut abc = MapAbc::new(farm.control());
        assert_eq!(abc.sense(0.0).num_workers, 2);
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(2), 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        assert_eq!(abc.sense(0.0).num_workers, 4);
        assert_eq!(
            abc.actuate(&ManagerOp::BalanceLoad, 0.0).unwrap(),
            ActuationOutcome::NoOp,
            "scatter rebalances per item by construction"
        );
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn stage_abc_is_monitor_only() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let metrics = StageMetrics::new(clock, 2.0);
        metrics.record_arrival(0.1);
        metrics.record_departure(0.2);
        let mut abc = StageAbc::new(metrics);
        let snap = abc.sense(0.5);
        assert!(snap.departure_rate > 0.0);
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(1), 0.0).unwrap(),
            ActuationOutcome::NoOp
        );
    }
}

//! `SimAbc`: binding autonomic managers to the simulated application.
//!
//! One shared `SimState` serves every manager in a scenario; each
//! manager's ABC is a `SimAbc` with a `SimRole` selecting which stage's
//! sensors and actuators it exposes. The managers, rule programs and
//! contracts are byte-for-byte the same ones that drive the threaded
//! runtime — only this boundary differs, which is the paper's
//! policy/mechanism separation made concrete.

use crate::models::SimState;
use bskel_core::abc::{standard_schema, Abc, AbcError, ActuationOutcome, ManagerOp};
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::analysis::{BeanSchema, BeanType};
use std::sync::{Arc, Mutex};

/// The beans a `SimAbc` publishes: the standard ABC schema plus the
/// simulator-only extras attached by the cost model
/// (`failedWorkers` for the fault injector, `speedGainRatio` for the
/// migration policy).
pub fn sim_bean_schema() -> BeanSchema {
    standard_schema()
        .bean("failedWorkers", BeanType::Count)
        .bean("speedGainRatio", BeanType::Rate)
}

/// Which stage of the simulated application an ABC fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimRole {
    /// The paced producer (rate actuators).
    Producer,
    /// The task farm (worker/balance actuators).
    Farm,
    /// The consumer (monitor only).
    Consumer,
    /// The whole pipeline, seen from the application manager: sensors are
    /// the consumer-side throughput; no actuators (AM_A acts by sending
    /// contracts to children, not through its ABC).
    Application,
}

/// A simulated Autonomic Behaviour Controller.
pub(crate) struct SimAbc {
    state: Arc<Mutex<SimState>>,
    role: SimRole,
}

impl SimAbc {
    /// Creates an ABC over the shared state for the given role.
    pub fn new(state: Arc<Mutex<SimState>>, role: SimRole) -> Self {
        Self { state, role }
    }
}

impl Abc for SimAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        let mut st = self.state.lock().expect("sim state lock");
        match self.role {
            SimRole::Producer => st.producer_snapshot(now),
            SimRole::Farm => st.farm_snapshot(now),
            SimRole::Consumer => st.consumer_snapshot(now),
            SimRole::Application => {
                // The application manager watches end-to-end delivery.
                let mut snap = st.consumer_snapshot(now);
                snap.num_workers = st.live_workers() as u32;
                snap
            }
        }
    }

    fn bean_schema(&self) -> BeanSchema {
        sim_bean_schema()
    }

    fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
        let mut st = self.state.lock().expect("sim state lock");
        Ok(match (self.role, op) {
            (SimRole::Farm, ManagerOp::AddWorkers(n)) => {
                ActuationOutcome::from_result(st.add_workers(*n))
            }
            (SimRole::Farm, ManagerOp::RemoveWorkers(n)) => {
                ActuationOutcome::from_result(st.remove_workers(*n))
            }
            (SimRole::Farm, ManagerOp::BalanceLoad) => ActuationOutcome::applied_if(st.rebalance()),
            (SimRole::Farm, ManagerOp::MigrateSlowest) => {
                ActuationOutcome::applied_if(st.migrate_slowest())
            }
            (SimRole::Producer, ManagerOp::IncRate(f) | ManagerOp::DecRate(f)) => {
                st.scale_rate(*f);
                ActuationOutcome::Applied
            }
            // Anything else is not this role's to perform.
            _ => ActuationOutcome::NoOp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Ev, SecureMode};
    use crate::net::SslCostModel;
    use crate::node::{Node, NodeRegistry};
    use crate::resources::ResourceManager;
    use bskel_workloads::ServiceDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shared_state() -> Arc<Mutex<SimState>> {
        let mut nodes = NodeRegistry::new();
        let ids: Vec<_> = (0..4)
            .map(|i| nodes.add(Node::trusted(format!("n{i}"), "lab")))
            .collect();
        let mut s = SimState::new(
            nodes,
            ResourceManager::new(ids, 1.0),
            SslCostModel::free(),
            SecureMode::Never,
            1.0,
            10,
            ServiceDist::det(0.5),
            StdRng::seed_from_u64(5),
            5.0,
        );
        s.spawn_worker_now().unwrap();
        Arc::new(Mutex::new(s))
    }

    #[test]
    fn farm_abc_adds_workers_through_pending_events() {
        let state = shared_state();
        let mut abc = SimAbc::new(Arc::clone(&state), SimRole::Farm);
        assert_eq!(abc.sense(0.0).num_workers, 1);
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(2), 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        {
            let mut st = state.lock().unwrap();
            let pending = st.take_pending();
            assert_eq!(pending.len(), 2);
            for (t, ev) in pending {
                st.handle(t, ev);
            }
        }
        assert_eq!(abc.sense(2.0).num_workers, 3);
    }

    #[test]
    fn farm_abc_refuses_when_pool_empty() {
        let state = shared_state();
        let mut abc = SimAbc::new(Arc::clone(&state), SimRole::Farm);
        abc.actuate(&ManagerOp::AddWorkers(3), 0.0).unwrap();
        match abc.actuate(&ManagerOp::AddWorkers(1), 0.0).unwrap() {
            ActuationOutcome::Refused { reason } => assert!(reason.contains("recruitable")),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn producer_abc_rate_ops() {
        let state = shared_state();
        let mut abc = SimAbc::new(Arc::clone(&state), SimRole::Producer);
        abc.actuate(&ManagerOp::IncRate(3.0), 0.0).unwrap();
        assert_eq!(state.lock().unwrap().producer.rate, 3.0);
        // Producer snapshots expose the configured rate as arrival.
        assert_eq!(abc.sense(0.0).arrival_rate, 3.0);
        // Worker ops are not the producer's.
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(1), 0.0).unwrap(),
            ActuationOutcome::NoOp
        );
    }

    #[test]
    fn consumer_and_application_are_monitor_only() {
        let state = shared_state();
        // Drive a couple of tasks through.
        {
            let mut st = state.lock().unwrap();
            let mut q = crate::des::EventQueue::new();
            q.schedule(0.0, Ev::Emit);
            while let Some((t, ev)) = q.pop() {
                if t > 100.0 {
                    break;
                }
                st.handle(t, ev);
                for (at, e) in st.take_pending() {
                    q.schedule(at, e);
                }
            }
        }
        let mut consumer = SimAbc::new(Arc::clone(&state), SimRole::Consumer);
        let mut app = SimAbc::new(Arc::clone(&state), SimRole::Application);
        let now = state.lock().unwrap().now;
        assert!(consumer.sense(now).end_of_stream);
        let app_snap = app.sense(now);
        assert!(app_snap.end_of_stream);
        assert_eq!(app_snap.num_workers, 1);
        assert_eq!(
            consumer.actuate(&ManagerOp::BalanceLoad, now).unwrap(),
            ActuationOutcome::NoOp
        );
    }
}

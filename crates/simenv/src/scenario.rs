//! Declarative experiment scenarios.
//!
//! Two scenario builders cover the paper's evaluation:
//!
//! * [`FarmScenario`] — Fig. 3: a single task-farm behavioural skeleton
//!   whose manager grows the parallelism degree until a throughput SLA
//!   holds (plus the security-policy variants used by the SEC1/ABL2
//!   experiments);
//! * [`PipelineScenario`] — Fig. 4: the three-stage pipeline
//!   `pipe(producer, farm, consumer)` under a throughput-range SLA with a
//!   full manager hierarchy (AM_A, AM_P, AM_F, AM_C).
//!
//! Scenarios are deterministic per `(scenario, seed)`; outcomes carry the
//! sampled time series and the merged manager event log the experiment
//! harness prints.

use crate::abc_impl::{SimAbc, SimRole};
use crate::des::EventQueue;
use crate::models::{Dispatch, Ev, SecureMode, SimState};
use crate::net::SslCostModel;
use crate::node::{Node, NodeRegistry};
use crate::resources::{RecruitPolicy, ResourceManager};
use crate::trace::Trace;
use bskel_core::abc::Abc;
use bskel_core::bs::BsExpr;
use bskel_core::contract::Contract;
use bskel_core::events::{EventKind, EventLog, EventRecord};
use bskel_core::hierarchy;
use bskel_core::manager::{AutonomicManager, ManagerConfig, ManagerKind};
use bskel_core::ControllerKind;
use bskel_monitor::SensorSnapshot;
use bskel_workloads::ServiceDist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

pub use crate::models::SecureMode as SecurityPolicy;

/// Shared event-loop driver: pumps model events and calls `on_tick` every
/// `tick` seconds (manager cycles + trace sampling happen there).
fn drive(
    state: &Arc<Mutex<SimState>>,
    horizon: f64,
    tick: f64,
    initial_events: &[(f64, Ev)],
    mut on_tick: impl FnMut(f64),
) {
    let mut queue = EventQueue::new();
    queue.schedule(0.0, Ev::Emit);
    for (at, ev) in initial_events {
        queue.schedule(*at, ev.clone());
    }
    let mut next_tick = tick;
    loop {
        match queue.peek_time() {
            Some(t) if t <= next_tick && t <= horizon => {
                let (t, ev) = queue.pop().expect("peeked");
                let mut st = state.lock().expect("sim state");
                st.handle(t, ev);
                for (at, e) in st.take_pending() {
                    queue.schedule(at.max(t), e);
                }
            }
            _ => {
                if next_tick > horizon {
                    break;
                }
                {
                    let mut st = state.lock().expect("sim state");
                    st.now = next_tick;
                }
                on_tick(next_tick);
                let mut st = state.lock().expect("sim state");
                for (at, e) in st.take_pending() {
                    queue.schedule(at.max(next_tick), e);
                }
                next_tick += tick;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 3: single farm manager
// ---------------------------------------------------------------------

/// The single-farm scenario (paper Fig. 3).
#[derive(Debug, Clone)]
pub struct FarmScenario {
    /// Per-task nominal cost.
    pub service: ServiceDist,
    /// Offered input rate, tasks/s.
    pub arrival_rate: f64,
    /// Stream length (defaults to `2 × rate × horizon` so the stream
    /// outlasts the run).
    pub count: u64,
    /// Workers at start-up.
    pub initial_workers: u32,
    /// The SLA posted to the farm manager.
    pub contract: Contract,
    /// Simulated run length, seconds.
    pub horizon: f64,
    /// Manager control period, seconds.
    pub tick: f64,
    /// Node recruitment latency, seconds.
    pub recruit_latency: f64,
    /// Trusted nodes in the pool.
    pub trusted_nodes: usize,
    /// Untrusted nodes in the pool (domain `untrusted_ip_domain_A`).
    pub untrusted_nodes: usize,
    /// Channel-securing policy.
    pub secure_mode: SecureMode,
    /// Communication cost model.
    pub ssl: SslCostModel,
    /// Workers added per `ADD_EXECUTOR`.
    pub add_batch: u32,
    /// Rate-estimator window, seconds.
    pub rate_window: f64,
    /// Emitter dispatch policy.
    pub dispatch: Dispatch,
    /// External-load windows applied to the first `n` trusted nodes:
    /// `(n, start, end, extra)`.
    pub load_windows: Vec<(usize, f64, f64, f64)>,
    /// Injected failures: at each `(time, count)`, kill `count` workers.
    pub failures: Vec<(f64, u32)>,
    /// Fault-tolerance floor: when set, the manager runs the merged
    /// perf+FT rule program and restores at least this many workers.
    pub ft_min_workers: Option<u32>,
    /// Migration policy: when set, the manager runs the migration rules
    /// and moves the slowest worker whenever the best free node is at
    /// least this factor faster.
    pub migrate_min_gain: Option<f64>,
    /// Model-based initial parallelism setup (vs purely reactive ramp).
    pub model_initial_setup: bool,
    /// The control law the farm manager runs (rules, AIMD, or a
    /// budget-mirroring rule wrapper — see
    /// [`bskel_core::ControllerKind`]).
    pub controller: ControllerKind,
}

impl FarmScenario {
    /// A builder pre-loaded with the Fig. 3 defaults.
    pub fn builder() -> FarmScenarioBuilder {
        FarmScenarioBuilder(Self {
            service: ServiceDist::det(5.0),
            arrival_rate: 1.0,
            count: 0, // 0 = auto (2 × rate × horizon)
            initial_workers: 1,
            contract: Contract::min_throughput(0.6),
            horizon: 300.0,
            tick: 1.0,
            recruit_latency: 10.0,
            trusted_nodes: 16,
            untrusted_nodes: 0,
            secure_mode: SecureMode::Never,
            ssl: SslCostModel::free(),
            add_batch: 1,
            rate_window: 10.0,
            dispatch: Dispatch::ShortestQueue,
            load_windows: Vec::new(),
            failures: Vec::new(),
            ft_min_workers: None,
            migrate_min_gain: None,
            model_initial_setup: false,
            controller: ControllerKind::Rules,
        })
    }

    fn build_state(&self, seed: u64) -> SimState {
        let mut nodes = NodeRegistry::new();
        let mut pool = Vec::new();
        for i in 0..self.trusted_nodes {
            let mut node = Node::trusted(format!("t{i}"), "lab");
            for &(n, start, end, extra) in &self.load_windows {
                if i < n {
                    node = node.with_load(start, end, extra);
                }
            }
            pool.push(nodes.add(node));
        }
        for i in 0..self.untrusted_nodes {
            pool.push(nodes.add(Node::untrusted(format!("u{i}"), "untrusted_ip_domain_A")));
        }
        let resources = ResourceManager::new(pool, self.recruit_latency);
        let count = if self.count == 0 {
            (2.0 * self.arrival_rate * self.horizon).ceil() as u64
        } else {
            self.count
        };
        let mut state = SimState::new(
            nodes,
            resources,
            self.ssl,
            self.secure_mode,
            self.arrival_rate,
            count,
            self.service.clone(),
            StdRng::seed_from_u64(seed),
            self.rate_window,
        );
        state.dispatch = self.dispatch;
        state.ft_min_workers = self.ft_min_workers.unwrap_or(0);
        for _ in 0..self.initial_workers {
            state
                .spawn_worker_now()
                .expect("initial workers fit the node pool");
        }
        state
    }

    /// Runs the scenario with the given RNG seed.
    pub fn run(&self, seed: u64) -> FarmOutcome {
        let state = Arc::new(Mutex::new(self.build_state(seed)));
        let log = EventLog::new();
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.control_period = self.tick;
        cfg.add_batch = self.add_batch;
        cfg.model_initial_setup = self.model_initial_setup;
        cfg.controller = self.controller;
        let (rules, extra) =
            bskel_rules::stdlib::farm_program(self.ft_min_workers, self.migrate_min_gain);
        let custom_rules = self.ft_min_workers.is_some() || self.migrate_min_gain.is_some();
        cfg.extra_params = extra.iter().map(|(n, v)| (n.to_owned(), v)).collect();
        let mut manager = AutonomicManager::new(
            cfg,
            Box::new(SimAbc::new(Arc::clone(&state), SimRole::Farm)),
            log.clone(),
        );
        if custom_rules {
            manager = manager.with_rules(rules);
        }
        manager.contract_slot().post(self.contract.clone());

        let (lo, hi) = self
            .contract
            .throughput_bounds()
            .unwrap_or((0.0, f64::INFINITY));
        let failure_events: Vec<(f64, Ev)> = self
            .failures
            .iter()
            .map(|&(at, count)| (at, Ev::InjectFailure { count }))
            .collect();
        let mut trace = Trace::new();
        drive(&state, self.horizon, self.tick, &failure_events, |now| {
            manager.control_cycle(now);
            let mut st = state.lock().expect("sim state");
            let snap = st.farm_snapshot(now);
            trace.push("throughput", now, snap.departure_rate);
            trace.push("arrival", now, snap.arrival_rate);
            trace.push("workers", now, f64::from(snap.num_workers));
            trace.push("queued", now, snap.queued_tasks as f64);
            trace.push("contract_lo", now, lo);
            if hi.is_finite() {
                trace.push("contract_hi", now, hi);
            }
        });

        let mut st = state.lock().expect("sim state");
        let final_snapshot = st.farm_snapshot(self.horizon);
        let time_to_contract = trace.first_reaching("throughput", lo);
        FarmOutcome {
            final_snapshot,
            trace,
            events: log.snapshot(),
            tasks_done: st.completed,
            time_to_contract,
            plaintext_to_untrusted: st.plaintext_to_untrusted,
            handshakes: st.handshakes,
            failed_workers: st.failed_workers,
            reexecuted_tasks: st.reexecuted_tasks,
        }
    }
}

/// Builder for [`FarmScenario`].
pub struct FarmScenarioBuilder(FarmScenario);

impl FarmScenarioBuilder {
    /// Deterministic per-task cost, seconds.
    pub fn service_time(mut self, secs: f64) -> Self {
        self.0.service = ServiceDist::det(secs);
        self
    }

    /// Arbitrary service distribution.
    pub fn service(mut self, dist: ServiceDist) -> Self {
        self.0.service = dist;
        self
    }

    /// Offered input rate, tasks/s.
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.0.arrival_rate = rate;
        self
    }

    /// Stream length (0 = auto).
    pub fn count(mut self, count: u64) -> Self {
        self.0.count = count;
        self
    }

    /// Workers at start-up.
    pub fn initial_workers(mut self, n: u32) -> Self {
        self.0.initial_workers = n.max(1);
        self
    }

    /// The SLA for the farm manager.
    pub fn contract(mut self, c: Contract) -> Self {
        self.0.contract = c;
        self
    }

    /// Run length, seconds.
    pub fn horizon(mut self, secs: f64) -> Self {
        self.0.horizon = secs;
        self
    }

    /// Control period, seconds.
    pub fn tick(mut self, secs: f64) -> Self {
        self.0.tick = secs;
        self
    }

    /// Recruitment latency, seconds.
    pub fn recruit_latency(mut self, secs: f64) -> Self {
        self.0.recruit_latency = secs;
        self
    }

    /// Node pool sizes.
    pub fn nodes(mut self, trusted: usize, untrusted: usize) -> Self {
        self.0.trusted_nodes = trusted;
        self.0.untrusted_nodes = untrusted;
        self
    }

    /// Channel-securing policy.
    pub fn secure_mode(mut self, mode: SecureMode) -> Self {
        self.0.secure_mode = mode;
        self
    }

    /// Communication cost model.
    pub fn ssl(mut self, ssl: SslCostModel) -> Self {
        self.0.ssl = ssl;
        self
    }

    /// Workers per `ADD_EXECUTOR` firing.
    pub fn add_batch(mut self, n: u32) -> Self {
        self.0.add_batch = n.max(1);
        self
    }

    /// Emitter dispatch policy.
    pub fn dispatch(mut self, d: Dispatch) -> Self {
        self.0.dispatch = d;
        self
    }

    /// Adds an external-load window on the first `n` trusted nodes.
    pub fn load_window(mut self, n: usize, start: f64, end: f64, extra: f64) -> Self {
        self.0.load_windows.push((n, start, end, extra));
        self
    }

    /// Injects a failure: `count` workers die abruptly at `at` seconds.
    pub fn inject_failure(mut self, at: f64, count: u32) -> Self {
        self.0.failures.push((at, count));
        self
    }

    /// Enables the fault-tolerance floor: the manager runs the merged
    /// perf+FT program and restores at least `n` workers after failures.
    pub fn ft_min_workers(mut self, n: u32) -> Self {
        self.0.ft_min_workers = Some(n);
        self
    }

    /// Enables model-based initial parallelism-degree setup.
    pub fn model_initial_setup(mut self, on: bool) -> Self {
        self.0.model_initial_setup = on;
        self
    }

    /// Selects the farm manager's control law (default: the rule engine).
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.0.controller = kind;
        self
    }

    /// Enables worker migration when the best free node is at least
    /// `min_gain` times faster than the slowest live worker.
    pub fn migrate_min_gain(mut self, min_gain: f64) -> Self {
        self.0.migrate_min_gain = Some(min_gain);
        self
    }

    /// Finalises the scenario.
    pub fn build(self) -> FarmScenario {
        self.0
    }
}

/// Result of a [`FarmScenario`] run.
#[derive(Debug, Clone)]
pub struct FarmOutcome {
    /// Farm sensors at the horizon.
    pub final_snapshot: SensorSnapshot,
    /// Sampled series (`throughput`, `arrival`, `workers`, `queued`,
    /// `contract_lo`[, `contract_hi`]).
    pub trace: Trace,
    /// The manager's event stream.
    pub events: Vec<EventRecord>,
    /// Tasks completed within the horizon.
    pub tasks_done: u64,
    /// First time the throughput reached the contract floor.
    pub time_to_contract: Option<f64>,
    /// Tasks sent in plaintext to untrusted nodes (c_sec violations).
    pub plaintext_to_untrusted: u64,
    /// Channels secured (handshakes paid).
    pub handshakes: u64,
    /// Workers lost to injected failures.
    pub failed_workers: u64,
    /// Tasks re-executed after their worker failed mid-service.
    pub reexecuted_tasks: u64,
}

impl FarmOutcome {
    /// Events of one kind.
    pub fn events_of(&self, kind: &EventKind) -> Vec<&EventRecord> {
        self.events.iter().filter(|e| &e.kind == kind).collect()
    }
}

// ---------------------------------------------------------------------
// Fig. 4: hierarchical three-stage pipeline
// ---------------------------------------------------------------------

/// The hierarchical pipeline scenario (paper Fig. 4).
#[derive(Debug, Clone)]
pub struct PipelineScenario {
    /// Producer's initial emission rate, tasks/s (the paper starts below
    /// the contract floor so the first phase is input starvation).
    pub initial_rate: f64,
    /// The application SLA (throughput stripe).
    pub contract: Contract,
    /// Farm-stage per-task cost.
    pub farm_service: ServiceDist,
    /// Stream length.
    pub count: u64,
    /// Farm workers at start-up.
    pub initial_workers: u32,
    /// Run length, seconds.
    pub horizon: f64,
    /// Control period, seconds.
    pub tick: f64,
    /// Recruitment latency, seconds.
    pub recruit_latency: f64,
    /// Node pool size (all trusted).
    pub nodes: usize,
    /// How many pool nodes are slow (half speed) — with round-robin
    /// dispatch this skews queues and exercises `BALANCE_LOAD`.
    pub slow_nodes: usize,
    /// Workers per `ADD_EXECUTOR` (the paper adds two at a time).
    pub add_batch: u32,
    /// Rate-estimator window, seconds.
    pub rate_window: f64,
    /// Emitter dispatch policy.
    pub dispatch: Dispatch,
    /// The control law run by the farm-stage manager (the hierarchy's
    /// other managers always run rules — AIMD is a worker-pool law).
    pub controller: ControllerKind,
}

impl PipelineScenario {
    /// A builder pre-loaded with the Fig. 4 defaults.
    pub fn builder() -> PipelineScenarioBuilder {
        PipelineScenarioBuilder(Self {
            initial_rate: 0.2,
            contract: Contract::throughput_range(0.3, 0.7),
            farm_service: ServiceDist::det(10.0),
            count: 120,
            initial_workers: 3,
            horizon: 300.0,
            tick: 1.0,
            recruit_latency: 10.0,
            nodes: 16,
            slow_nodes: 0,
            add_batch: 2,
            rate_window: 10.0,
            dispatch: Dispatch::ShortestQueue,
            controller: ControllerKind::Rules,
        })
    }

    /// Runs the scenario with the given RNG seed.
    pub fn run(&self, seed: u64) -> PipelineOutcome {
        let mut nodes = NodeRegistry::new();
        let mut pool = Vec::new();
        for i in 0..self.nodes {
            let speed = if i < self.slow_nodes { 0.5 } else { 1.0 };
            pool.push(nodes.add(Node::trusted(format!("n{i}"), "lab").with_speed(speed)));
        }
        let resources =
            ResourceManager::new(pool, self.recruit_latency).with_policy(RecruitPolicy::InOrder);
        let mut state = SimState::new(
            nodes,
            resources,
            SslCostModel::free(),
            SecureMode::Never,
            self.initial_rate,
            self.count,
            self.farm_service.clone(),
            StdRng::seed_from_u64(seed),
            self.rate_window,
        );
        state.dispatch = self.dispatch;
        for _ in 0..self.initial_workers {
            state.spawn_worker_now().expect("initial workers fit");
        }
        let state = Arc::new(Mutex::new(state));

        // The Fig. 2 (right) skeleton tree and its manager hierarchy.
        let expr = BsExpr::pipe(
            "app",
            vec![
                BsExpr::seq("producer"),
                BsExpr::farm("filter", BsExpr::seq("worker"), self.initial_workers),
                BsExpr::seq("consumer"),
            ],
        );
        let log = EventLog::new();
        let tick = self.tick;
        let add_batch = self.add_batch;
        let initial_rate = self.initial_rate;
        let controller = self.controller;
        let mut hierarchy = {
            let state = Arc::clone(&state);
            hierarchy::build(
                &expr,
                log.clone(),
                &mut |node, kind| {
                    let role = match (node.name(), kind) {
                        ("producer", _) => SimRole::Producer,
                        ("filter", _) | (_, ManagerKind::Farm) => SimRole::Farm,
                        ("consumer", _) => SimRole::Consumer,
                        _ => SimRole::Application,
                    };
                    Box::new(SimAbc::new(Arc::clone(&state), role)) as Box<dyn Abc>
                },
                &mut |_, mut cfg| {
                    cfg.control_period = tick;
                    cfg.add_batch = add_batch;
                    cfg.initial_source_rate = initial_rate;
                    if cfg.kind == ManagerKind::Farm {
                        cfg.controller = controller;
                    }
                    cfg
                },
            )
        };
        hierarchy.post_contract(self.contract.clone());

        let (lo, hi) = self
            .contract
            .throughput_bounds()
            .unwrap_or((0.0, f64::INFINITY));
        let mut trace = Trace::new();
        drive(&state, self.horizon, self.tick, &[], |now| {
            hierarchy.run_cycle(now);
            let mut st = state.lock().expect("sim state");
            let farm = st.farm_snapshot(now);
            let prod = st.producer_snapshot(now);
            trace.push("throughput", now, farm.departure_rate);
            trace.push("input_rate", now, prod.departure_rate);
            trace.push("workers", now, f64::from(farm.num_workers));
            // Producer + consumer cores + worker cores (Fig. 4's resource
            // plot counts all cores in use).
            trace.push("cores", now, f64::from(farm.num_workers) + 2.0);
            trace.push("queued", now, farm.queued_tasks as f64);
            trace.push("contract_lo", now, lo);
            trace.push("contract_hi", now, hi);
        });

        let mut st = state.lock().expect("sim state");
        let final_farm = st.farm_snapshot(self.horizon);
        PipelineOutcome {
            final_farm,
            consumed: st.consumer.consumed,
            trace,
            events: log.snapshot(),
            log,
        }
    }
}

/// Builder for [`PipelineScenario`].
pub struct PipelineScenarioBuilder(PipelineScenario);

impl PipelineScenarioBuilder {
    /// Producer's initial rate, tasks/s.
    pub fn initial_rate(mut self, r: f64) -> Self {
        self.0.initial_rate = r;
        self
    }

    /// The application SLA.
    pub fn contract(mut self, c: Contract) -> Self {
        self.0.contract = c;
        self
    }

    /// Farm per-task cost, seconds (deterministic).
    pub fn farm_service_time(mut self, secs: f64) -> Self {
        self.0.farm_service = ServiceDist::det(secs);
        self
    }

    /// Stream length.
    pub fn count(mut self, n: u64) -> Self {
        self.0.count = n;
        self
    }

    /// Farm workers at start-up.
    pub fn initial_workers(mut self, n: u32) -> Self {
        self.0.initial_workers = n.max(1);
        self
    }

    /// Run length, seconds.
    pub fn horizon(mut self, secs: f64) -> Self {
        self.0.horizon = secs;
        self
    }

    /// Control period, seconds.
    pub fn tick(mut self, secs: f64) -> Self {
        self.0.tick = secs;
        self
    }

    /// Recruitment latency, seconds.
    pub fn recruit_latency(mut self, secs: f64) -> Self {
        self.0.recruit_latency = secs;
        self
    }

    /// Node pool size.
    pub fn nodes(mut self, n: usize) -> Self {
        self.0.nodes = n;
        self
    }

    /// Slow (half-speed) nodes in the pool.
    pub fn slow_nodes(mut self, n: usize) -> Self {
        self.0.slow_nodes = n;
        self
    }

    /// Workers per `ADD_EXECUTOR`.
    pub fn add_batch(mut self, n: u32) -> Self {
        self.0.add_batch = n.max(1);
        self
    }

    /// Emitter dispatch policy.
    pub fn dispatch(mut self, d: Dispatch) -> Self {
        self.0.dispatch = d;
        self
    }

    /// Selects the farm-stage manager's control law (default: rules).
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.0.controller = kind;
        self
    }

    /// Finalises the scenario.
    pub fn build(self) -> PipelineScenario {
        self.0
    }
}

/// Result of a [`PipelineScenario`] run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Farm sensors at the horizon.
    pub final_farm: SensorSnapshot,
    /// Results the consumer displayed.
    pub consumed: u64,
    /// Sampled series (`throughput`, `input_rate`, `workers`, `cores`,
    /// `queued`, `contract_lo`, `contract_hi`).
    pub trace: Trace,
    /// The merged manager event stream.
    pub events: Vec<EventRecord>,
    /// The live log handle (per-manager filtering).
    pub log: EventLog,
}

impl PipelineOutcome {
    /// Events of one kind emitted by one manager.
    pub fn events_of(&self, manager: &str, kind: &EventKind) -> Vec<&EventRecord> {
        self.events
            .iter()
            .filter(|e| *e.manager == *manager && &e.kind == kind)
            .collect()
    }

    /// Timestamps of the first event of a kind from a manager.
    pub fn first_event(&self, manager: &str, kind: &EventKind) -> Option<f64> {
        self.events_of(manager, kind).first().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_farm_reaches_contract() {
        let outcome = FarmScenario::builder().build().run(42);
        // The manager grew the farm until ≥ 0.6 task/s was delivered.
        assert!(
            outcome.final_snapshot.departure_rate >= 0.6 * 0.9,
            "final throughput {}",
            outcome.final_snapshot.departure_rate
        );
        assert!(outcome.final_snapshot.num_workers >= 3, "needs ≥ 3 workers");
        assert!(outcome.time_to_contract.is_some());
        assert!(
            !outcome.events_of(&EventKind::AddWorker).is_empty(),
            "addWorker events present"
        );
    }

    #[test]
    fn fig3_aimd_controller_also_reaches_contract() {
        let outcome = FarmScenario::builder()
            .controller(ControllerKind::Aimd)
            .build()
            .run(42);
        // The AIMD law replaces the scaling rules yet must still honour
        // the same SLA: grow until ≥ 0.6 task/s is delivered.
        assert!(
            outcome.final_snapshot.departure_rate >= 0.6 * 0.9,
            "final throughput {}",
            outcome.final_snapshot.departure_rate
        );
        assert!(outcome.time_to_contract.is_some());
        assert!(
            !outcome.events_of(&EventKind::AddWorker).is_empty(),
            "AIMD issued ADD_EXECUTOR"
        );
        // Determinism is controller-independent.
        let again = FarmScenario::builder()
            .controller(ControllerKind::Aimd)
            .build()
            .run(42);
        assert_eq!(outcome.trace, again.trace);
    }

    #[test]
    fn fig3_workers_are_monotone_staircase() {
        let outcome = FarmScenario::builder().build().run(42);
        let workers = outcome.trace.get("workers");
        for w in workers.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "workers never removed under minThroughput"
            );
        }
        assert!(outcome.trace.max("workers").unwrap() >= 3.0);
    }

    #[test]
    fn fig3_is_deterministic_per_seed() {
        let a = FarmScenario::builder().build().run(7);
        let b = FarmScenario::builder().build().run(7);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.tasks_done, b.tasks_done);
    }

    #[test]
    fn fig4_pipeline_phases() {
        let outcome = PipelineScenario::builder().build().run(42);
        // Phase 1: farm starved → notEnough + raiseViol from AM_filter,
        // then incRate from AM_app.
        let not_enough = outcome.first_event("AM_filter", &EventKind::NotEnough);
        let inc_rate = outcome.first_event("AM_app", &EventKind::IncRate);
        assert!(not_enough.is_some(), "farm reported starvation");
        assert!(inc_rate.is_some(), "pipeline reacted with incRate");
        assert!(inc_rate.unwrap() >= not_enough.unwrap());
        // Phase 2: worker additions once pressure rose.
        let add_worker = outcome.first_event("AM_filter", &EventKind::AddWorker);
        assert!(add_worker.is_some(), "farm grew");
        assert!(add_worker.unwrap() > inc_rate.unwrap());
        // End of stream was observed and logged.
        assert!(
            !outcome
                .events_of("AM_producer", &EventKind::EndStream)
                .is_empty()
                || !outcome
                    .events_of("AM_filter", &EventKind::EndStream)
                    .is_empty(),
            "endStream observed"
        );
        // All tasks were displayed.
        assert_eq!(outcome.consumed, 120);
    }

    #[test]
    fn fig4_throughput_enters_contract_stripe() {
        let outcome = PipelineScenario::builder().build().run(42);
        // Mid-run (after convergence, before drain) throughput sits in the
        // stripe.
        let mean = outcome
            .trace
            .mean_over("throughput", 150.0, 250.0)
            .expect("samples exist");
        assert!(
            (0.25..=0.75).contains(&mean),
            "mid-run throughput {mean} outside stripe"
        );
    }

    #[test]
    fn fig4_resources_grow_from_initial() {
        let outcome = PipelineScenario::builder().build().run(42);
        let first = outcome.trace.get("cores").first().unwrap().1;
        let max = outcome.trace.max("cores").unwrap();
        assert_eq!(first, 5.0, "3 workers + producer + consumer");
        assert!(max > first, "cores grew ({first} → {max})");
    }

    #[test]
    fn security_policies_ranked_by_cost_and_violations() {
        let base = || {
            FarmScenario::builder()
                .nodes(2, 6)
                .initial_workers(2)
                .ssl(SslCostModel {
                    handshake: 0.5,
                    plain_comm: 0.2,
                    ssl_factor: 4.0,
                })
                .contract(Contract::min_throughput(0.8))
                .arrival_rate(1.5)
                .horizon(120.0)
        };
        let never = base().secure_mode(SecureMode::Never).build().run(1);
        let always = base().secure_mode(SecureMode::Always).build().run(1);
        let selective = base().secure_mode(SecureMode::IfUntrusted).build().run(1);

        assert!(never.plaintext_to_untrusted > 0, "never-SSL violates c_sec");
        assert_eq!(always.plaintext_to_untrusted, 0);
        assert_eq!(selective.plaintext_to_untrusted, 0);
        // Selective pays handshakes only for untrusted channels.
        assert!(selective.handshakes <= always.handshakes);
        // Selective delivers at least as much work as always-SSL (it skips
        // overhead on trusted channels).
        assert!(selective.tasks_done >= always.tasks_done);
    }

    #[test]
    fn failures_are_recovered_with_ft_floor() {
        // Best-effort contract: no throughput signal, so only the FT rules
        // can restore the farm after 2 of 3 workers die at t=60.
        let outcome = FarmScenario::builder()
            .contract(Contract::BestEffort)
            .initial_workers(3)
            .ft_min_workers(3)
            .inject_failure(60.0, 2)
            .count(100_000)
            .horizon(200.0)
            .build()
            .run(13);
        assert_eq!(outcome.failed_workers, 2);
        assert_eq!(outcome.final_snapshot.num_workers, 3, "floor restored");
        // In one recruitment of the whole deficit.
        let adds = outcome.events_of(&EventKind::AddWorker);
        assert_eq!(adds.len(), 1, "{adds:?}");
        assert_eq!(adds[0].detail.as_deref(), Some("2"));
        // Without the floor, the degraded farm stays degraded.
        let bare = FarmScenario::builder()
            .contract(Contract::BestEffort)
            .initial_workers(3)
            .inject_failure(60.0, 2)
            .count(100_000)
            .horizon(200.0)
            .build()
            .run(13);
        assert_eq!(bare.final_snapshot.num_workers, 1);
    }

    #[test]
    fn failures_do_not_lose_tasks() {
        // Short stream with mid-stream failures: every task still
        // completes exactly once (re-execution semantics).
        let outcome = FarmScenario::builder()
            .service_time(2.0)
            .arrival_rate(2.0)
            .initial_workers(4)
            .count(60)
            .contract(Contract::min_throughput(1.0))
            .inject_failure(10.0, 2)
            .inject_failure(20.0, 1)
            .horizon(400.0)
            .build()
            .run(3);
        assert_eq!(outcome.tasks_done, 60, "conservation under failures");
        assert_eq!(outcome.failed_workers, 3);
        assert!(outcome.reexecuted_tasks >= 1, "some work was in flight");
    }

    #[test]
    fn model_initial_setup_skips_the_ramp() {
        let reactive = FarmScenario::builder().build().run(4);
        let model = FarmScenario::builder()
            .model_initial_setup(true)
            .build()
            .run(4);
        let t_reactive = reactive.time_to_contract.expect("reaches contract");
        let t_model = model.time_to_contract.expect("reaches contract");
        assert!(
            t_model < t_reactive,
            "model-init ({t_model}) should beat the reactive ramp ({t_reactive})"
        );
        // The model jump lands at the analytic optimum straight away.
        let first_add = model
            .events_of(&EventKind::AddWorker)
            .first()
            .map(|e| e.detail.clone().unwrap_or_default())
            .unwrap_or_default();
        assert!(first_add.contains("model-init"), "got {first_add}");
    }

    #[test]
    fn migration_moves_workers_off_loaded_nodes() {
        // The three initial workers land on nodes t0..t2, which pick up
        // heavy external load at t=100; free nodes stay idle. With the
        // migration rules the workers move; without, they stay stuck.
        let base = || {
            FarmScenario::builder()
                .service_time(5.0)
                .arrival_rate(1.0)
                .initial_workers(3)
                .contract(Contract::BestEffort) // isolate migration: no growth rules fire
                .load_window(3, 100.0, 400.0, 3.0) // loaded nodes at 1/4 speed
                .count(100_000)
                .horizon(400.0)
        };
        let migrating = base().migrate_min_gain(1.5).build().run(21);
        let stuck = base().build().run(21);

        let migrated_events = migrating
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Other(s) if s == "MIGRATE_SLOWEST"))
            .count();
        assert!(
            migrated_events >= 3,
            "all three workers moved ({migrated_events})"
        );
        // Late-run throughput: migrated farm runs at full speed, the stuck
        // one at 1/4.
        let fast = migrating
            .trace
            .mean_over("throughput", 300.0, 400.0)
            .unwrap();
        let slow = stuck.trace.mean_over("throughput", 300.0, 400.0).unwrap();
        assert!(
            fast > slow * 1.5,
            "migration should lift throughput ({fast:.3} vs {slow:.3})"
        );
    }

    #[test]
    fn external_load_triggers_extra_workers() {
        // Load on every node from t=100: each worker halves; the manager
        // compensates with more workers than the unloaded run needed.
        let unloaded = FarmScenario::builder().build().run(3);
        let loaded = FarmScenario::builder()
            .load_window(16, 100.0, 300.0, 1.0)
            .build()
            .run(3);
        assert!(
            loaded.final_snapshot.num_workers > unloaded.final_snapshot.num_workers,
            "loaded {} vs unloaded {}",
            loaded.final_snapshot.num_workers,
            unloaded.final_snapshot.num_workers
        );
        assert!(
            loaded.final_snapshot.departure_rate >= 0.6 * 0.85,
            "contract still held under load: {}",
            loaded.final_snapshot.departure_rate
        );
    }
}

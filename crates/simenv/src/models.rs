//! Queueing models of the simulated application.
//!
//! `SimState` holds the whole simulated application — a paced producer,
//! a task farm over recruited nodes, and a consumer — plus the environment
//! (node registry, resource manager, SSL cost model). Event handlers
//! advance the model; actuator methods implement exactly the operations a
//! farm/producer ABC exposes, so `abc_impl::SimAbc` is a thin lock around
//! this type.
//!
//! Time semantics: service durations are sampled when a task *starts* on a
//! worker, using the node's effective speed at that instant (external-load
//! windows therefore stretch tasks that start inside them) plus the
//! channel's per-task communication cost (secured channels pay the SSL
//! factor).

use crate::net::SslCostModel;
use crate::node::{NodeId, NodeRegistry};
use crate::resources::ResourceManager;
use bskel_monitor::{queue_variance, RateEstimator, SensorSnapshot, Time};
use bskel_workloads::ServiceDist;
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// Simulation events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ev {
    /// The producer emits its next task.
    Emit,
    /// A worker slot finishes its in-service task.
    Complete {
        /// Worker slot index.
        slot: usize,
        /// Installation epoch of the worker the service was started on;
        /// a stale completion (worker failed or was replaced since) is
        /// ignored.
        epoch: u64,
    },
    /// A recruited node finishes deployment and joins the farm.
    WorkerReady {
        /// The recruited node.
        node: NodeId,
    },
    /// A (naively committed) worker's channel finally gets secured.
    Secure {
        /// Worker slot index.
        slot: usize,
    },
    /// Fault injection: abruptly kill up to `count` live workers (their
    /// nodes are lost, queued and in-service tasks are re-executed
    /// elsewhere).
    InjectFailure {
        /// Workers to kill.
        count: u32,
    },
}

/// When are channels to new workers secured?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SecureMode {
    /// Never secure (violates c_sec on untrusted nodes — the baseline the
    /// security experiments count violations against).
    Never,
    /// Secure every channel (pays SSL overhead even on trusted nodes).
    Always,
    /// Secure exactly the untrusted channels, *before* the worker joins —
    /// the two-phase intent protocol of §3.2.
    IfUntrusted,
    /// Naive commit: the worker joins immediately; the security manager
    /// reacts `delay` seconds later. Until then tasks flow in plaintext —
    /// the insecure window the ablation measures.
    DelayedIfUntrusted {
        /// Reaction delay, seconds.
        delay: f64,
    },
}

/// How the simulated farm's emitter picks a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Shortest queue first (adaptive; queues stay level).
    #[default]
    ShortestQueue,
    /// Blind round-robin (the paper's plain unicast policy; on
    /// heterogeneous nodes queues skew, exercising `BALANCE_LOAD`).
    RoundRobin,
}

/// A live farm worker.
#[derive(Debug, Clone)]
pub(crate) struct SimWorker {
    /// The node it runs on.
    pub node: NodeId,
    /// Installation epoch (distinguishes successive occupants of a slot;
    /// pending completion events for dead occupants are dropped by it).
    pub epoch: u64,
    /// Queued task sequence numbers.
    pub queue: VecDeque<u64>,
    /// Completion time of the in-service task, if busy.
    pub busy_until: Option<f64>,
    /// Sequence number of the in-service task (re-executed on failure).
    pub in_service: Option<u64>,
    /// Whether its channel runs the secure protocol.
    pub secured: bool,
    /// Marked for removal: finishes its in-service task, then leaves.
    pub retired: bool,
}

/// The paced producer.
#[derive(Debug, Clone)]
pub(crate) struct ProducerModel {
    /// Current emission rate, tasks/s.
    pub rate: f64,
    /// Stream length.
    pub count: u64,
    /// Tasks emitted so far.
    pub sent: u64,
    /// Emission-rate estimator.
    pub departures: RateEstimator,
    /// All tasks emitted.
    pub done: bool,
}

/// The consumer (display) stage.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerModel {
    /// Consumption-rate estimator.
    pub departures: RateEstimator,
    /// Results consumed.
    pub consumed: u64,
}

/// The complete simulated application + environment.
pub(crate) struct SimState {
    /// Current simulation time.
    pub now: Time,
    /// Node inventory.
    pub nodes: NodeRegistry,
    /// Recruitable node pool.
    pub resources: ResourceManager,
    /// Communication cost model.
    pub ssl: SslCostModel,
    /// Channel-securing policy for new workers.
    pub secure_mode: SecureMode,
    /// Emitter dispatch policy.
    pub dispatch: Dispatch,
    /// Round-robin cursor.
    rr_cursor: usize,
    /// Producer stage.
    pub producer: ProducerModel,
    /// Worker slots (`None` = vacated).
    pub slots: Vec<Option<SimWorker>>,
    /// Farm input-rate estimator.
    pub farm_arrivals: RateEstimator,
    /// Farm output-rate estimator.
    pub farm_departures: RateEstimator,
    /// Tasks completed by the farm.
    pub completed: u64,
    /// Sensor blackout until this time (reconfiguration in progress).
    pub reconfiguring_until: Time,
    /// Consumer stage.
    pub consumer: ConsumerModel,
    /// Per-task nominal cost distribution.
    pub service: ServiceDist,
    /// Seeded RNG (all stochastic choices draw from here).
    pub rng: StdRng,
    /// Events handlers/actuators want scheduled (drained by the driver).
    pub pending: Vec<(Time, Ev)>,
    /// Tasks sent in plaintext to workers on untrusted nodes — the c_sec
    /// violation count of the security experiments.
    pub plaintext_to_untrusted: u64,
    /// Channels secured so far (handshakes paid).
    pub handshakes: u64,
    /// Worker-installation epoch counter.
    next_epoch: u64,
    /// Workers lost to injected failures (cumulative).
    pub failed_workers: u64,
    /// FT parallelism floor published as the `ftMinWorkers` bean (0 = no
    /// fault-tolerance concern configured).
    pub ft_min_workers: u32,
    /// Tasks re-executed because their worker failed mid-service.
    pub reexecuted_tasks: u64,
    /// Tasks orphaned while no live worker exists (drained on the next
    /// worker installation).
    orphans: Vec<u64>,
}

impl SimState {
    /// Creates a state; workers are recruited via [`SimState::add_workers`]
    /// or pre-seeded with [`SimState::spawn_worker_now`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        nodes: NodeRegistry,
        resources: ResourceManager,
        ssl: SslCostModel,
        secure_mode: SecureMode,
        initial_rate: f64,
        count: u64,
        service: ServiceDist,
        rng: StdRng,
        rate_window: f64,
    ) -> Self {
        Self {
            now: 0.0,
            nodes,
            resources,
            ssl,
            secure_mode,
            dispatch: Dispatch::default(),
            rr_cursor: 0,
            producer: ProducerModel {
                rate: initial_rate,
                count,
                sent: 0,
                departures: RateEstimator::new(rate_window),
                done: false,
            },
            slots: Vec::new(),
            farm_arrivals: RateEstimator::new(rate_window),
            farm_departures: RateEstimator::new(rate_window),
            completed: 0,
            reconfiguring_until: 0.0,
            consumer: ConsumerModel {
                departures: RateEstimator::new(rate_window),
                consumed: 0,
            },
            service,
            rng,
            pending: Vec::new(),
            plaintext_to_untrusted: 0,
            handshakes: 0,
            next_epoch: 0,
            failed_workers: 0,
            ft_min_workers: 0,
            reexecuted_tasks: 0,
            orphans: Vec::new(),
        }
    }

    /// Recruits a node and places a ready worker immediately (initial
    /// configuration, before the simulation starts).
    pub(crate) fn spawn_worker_now(&mut self) -> Result<usize, String> {
        let node = self
            .resources
            .recruit(&self.nodes)
            .ok_or_else(|| "no free nodes".to_owned())?;
        Ok(self.install_worker(node))
    }

    fn install_worker(&mut self, node: NodeId) -> usize {
        let secured = match self.secure_mode {
            SecureMode::Never => false,
            SecureMode::Always => true,
            SecureMode::IfUntrusted => !self.nodes.get(node).trusted,
            SecureMode::DelayedIfUntrusted { .. } => false,
        };
        if secured {
            self.handshakes += 1;
        }
        self.next_epoch += 1;
        let worker = SimWorker {
            node,
            epoch: self.next_epoch,
            queue: VecDeque::new(),
            busy_until: None,
            in_service: None,
            secured,
            retired: false,
        };
        let slot = self.slots.iter().position(Option::is_none);
        let slot = match slot {
            Some(i) => {
                self.slots[i] = Some(worker);
                i
            }
            None => {
                self.slots.push(Some(worker));
                self.slots.len() - 1
            }
        };
        if let SecureMode::DelayedIfUntrusted { delay } = self.secure_mode {
            if !self.nodes.get(node).trusted {
                self.pending.push((self.now + delay, Ev::Secure { slot }));
            }
        }
        // Tasks stranded by a total-failure episode resume here.
        for seq in std::mem::take(&mut self.orphans) {
            self.farm_arrivals_requeue(seq);
        }
        slot
    }

    /// Live (non-vacated) worker count.
    pub(crate) fn live_workers(&self) -> usize {
        self.slots.iter().flatten().filter(|w| !w.retired).count()
    }

    fn live_slot_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|w| !w.retired))
            .map(|(i, _)| i)
            .collect()
    }

    // ---- event handlers ----

    /// Advances the model by one event. New events appear in
    /// [`SimState::pending`].
    pub fn handle(&mut self, t: Time, ev: Ev) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        match ev {
            Ev::Emit => self.on_emit(),
            Ev::Complete { slot, epoch } => self.on_complete(slot, epoch),
            Ev::WorkerReady { node } => {
                self.install_worker(node);
            }
            Ev::Secure { slot } => {
                if let Some(w) = self.slots.get_mut(slot).and_then(Option::as_mut) {
                    if !w.secured {
                        w.secured = true;
                        self.handshakes += 1;
                    }
                }
            }
            Ev::InjectFailure { count } => self.on_inject_failure(count),
        }
    }

    /// Kills up to `count` live workers: their nodes are lost for good,
    /// their queued and in-service tasks are re-executed on survivors (or
    /// stranded until a replacement is installed).
    fn on_inject_failure(&mut self, count: u32) {
        let victims: Vec<usize> = self
            .live_slot_indices()
            .into_iter()
            .take(count as usize)
            .collect();
        let mut recovered: Vec<u64> = Vec::new();
        for slot in victims {
            let w = self.slots[slot].take().expect("live victim");
            recovered.extend(w.queue);
            if let Some(seq) = w.in_service {
                recovered.push(seq);
                self.reexecuted_tasks += 1;
            }
            // The node is gone (not released): the pool genuinely shrinks,
            // as when a grid node vanishes.
            self.failed_workers += 1;
        }
        for seq in recovered {
            if self.live_slot_indices().is_empty() {
                self.orphans.push(seq);
            } else {
                self.farm_arrivals_requeue(seq);
            }
        }
    }

    fn on_emit(&mut self) {
        if self.producer.sent >= self.producer.count {
            self.producer.done = true;
            return;
        }
        let seq = self.producer.sent;
        self.producer.sent += 1;
        self.producer.departures.record(self.now);
        self.farm_arrival(seq);
        if self.producer.sent >= self.producer.count {
            self.producer.done = true;
        } else {
            self.pending
                .push((self.now + 1.0 / self.producer.rate, Ev::Emit));
        }
    }

    fn pick_slot(&mut self) -> usize {
        let candidates = self.live_slot_indices();
        assert!(!candidates.is_empty(), "farm has no live workers");
        match self.dispatch {
            Dispatch::ShortestQueue => candidates
                .into_iter()
                .min_by_key(|&i| {
                    let w = self.slots[i].as_ref().expect("live");
                    w.queue.len() + usize::from(w.busy_until.is_some())
                })
                .expect("non-empty"),
            Dispatch::RoundRobin => {
                let slot = candidates[self.rr_cursor % candidates.len()];
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                slot
            }
        }
    }

    fn farm_arrival(&mut self, seq: u64) {
        self.farm_arrivals.record(self.now);
        let slot = self.pick_slot();
        {
            let untrusted = {
                let w = self.slots[slot].as_ref().expect("live");
                !self.nodes.get(w.node).trusted && !w.secured
            };
            if untrusted {
                self.plaintext_to_untrusted += 1;
            }
        }
        let idle = self.slots[slot]
            .as_ref()
            .expect("live")
            .busy_until
            .is_none();
        if idle {
            self.start_service(slot, seq);
        } else {
            self.slots[slot]
                .as_mut()
                .expect("live")
                .queue
                .push_back(seq);
        }
    }

    fn start_service(&mut self, slot: usize, seq: u64) {
        let nominal = self.service.sample(self.now, &mut self.rng);
        let (node, secured, epoch) = {
            let w = self.slots[slot].as_ref().expect("worker exists");
            (w.node, w.secured, w.epoch)
        };
        let compute = self.nodes.get(node).service_time(nominal, self.now);
        let comm = self.ssl.per_task(secured);
        let done_at = self.now + compute + comm;
        {
            let w = self.slots[slot].as_mut().expect("worker exists");
            w.busy_until = Some(done_at);
            w.in_service = Some(seq);
        }
        self.pending.push((done_at, Ev::Complete { slot, epoch }));
    }

    fn on_complete(&mut self, slot: usize, epoch: u64) {
        // Stale completion: the worker failed (or the slot was re-used)
        // since this service started — its task was re-dispatched, so the
        // event must not count.
        match self.slots.get(slot).and_then(Option::as_ref) {
            Some(w) if w.epoch == epoch => {}
            _ => return,
        }

        self.farm_departures.record(self.now);
        self.completed += 1;
        self.consumer.departures.record(self.now);
        self.consumer.consumed += 1;

        let Some(worker) = self.slots[slot].as_mut() else {
            return;
        };
        worker.busy_until = None;
        worker.in_service = None;
        if worker.retired {
            let node = worker.node;
            self.slots[slot] = None;
            self.resources.release(node);
            return;
        }
        if let Some(next) = worker.queue.pop_front() {
            self.start_service(slot, next);
        }
    }

    // ---- actuators (the farm/producer ABC surface) ----

    /// Recruits up to `n` nodes; workers join after the recruitment
    /// latency. Errors when no node at all is available.
    pub fn add_workers(&mut self, n: u32) -> Result<u32, String> {
        let mut got = 0;
        for _ in 0..n {
            match self.resources.recruit(&self.nodes) {
                Some(node) => {
                    let mut ready_at = self.now + self.resources.recruit_latency;
                    // Two-phase securing pays the handshake before the
                    // worker joins.
                    let will_secure = match self.secure_mode {
                        SecureMode::Always => true,
                        SecureMode::IfUntrusted => !self.nodes.get(node).trusted,
                        _ => false,
                    };
                    if will_secure {
                        ready_at += self.ssl.handshake;
                    }
                    self.pending.push((ready_at, Ev::WorkerReady { node }));
                    self.reconfiguring_until = self.reconfiguring_until.max(ready_at);
                    got += 1;
                }
                None => break,
            }
        }
        if got == 0 {
            Err("no recruitable nodes left".into())
        } else {
            Ok(got)
        }
    }

    /// Retires `n` workers (most recently installed first), redistributing
    /// their queues. At least one live worker must remain.
    pub fn remove_workers(&mut self, n: u32) -> Result<u32, String> {
        let live = self.live_slot_indices();
        if live.len() as u32 <= n {
            return Err(format!("cannot remove {n} of {} workers", live.len()));
        }
        let victims: Vec<usize> = live.iter().rev().take(n as usize).copied().collect();
        let mut orphaned: Vec<u64> = Vec::new();
        for &slot in &victims {
            let w = self.slots[slot].as_mut().expect("live");
            orphaned.extend(w.queue.drain(..));
            w.retired = true;
            if w.busy_until.is_none() {
                let node = w.node;
                self.slots[slot] = None;
                self.resources.release(node);
            }
        }
        // Redistribute orphaned tasks; start service on idle survivors.
        for seq in orphaned {
            self.farm_arrivals_requeue(seq);
        }
        Ok(n)
    }

    fn farm_arrivals_requeue(&mut self, seq: u64) {
        // Like farm_arrival but without recording an arrival (the task
        // already arrived once).
        let slot = self.pick_slot();
        let idle = self.slots[slot]
            .as_ref()
            .expect("live")
            .busy_until
            .is_none();
        if idle {
            self.start_service(slot, seq);
        } else {
            self.slots[slot]
                .as_mut()
                .expect("live")
                .queue
                .push_back(seq);
        }
    }

    /// Evens out live workers' queues; true if any task moved.
    pub fn rebalance(&mut self) -> bool {
        let live = self.live_slot_indices();
        if live.len() < 2 {
            return false;
        }
        let lens: Vec<usize> = live
            .iter()
            .map(|&i| self.slots[i].as_ref().expect("live").queue.len())
            .collect();
        let max = *lens.iter().max().expect("non-empty");
        let min = *lens.iter().min().expect("non-empty");
        if max - min <= 1 {
            return false;
        }
        let mut all: Vec<u64> = Vec::new();
        for &i in &live {
            all.extend(self.slots[i].as_mut().expect("live").queue.drain(..));
        }
        all.sort_unstable(); // keep deterministic, roughly FIFO by seq
        for (k, seq) in all.into_iter().enumerate() {
            let slot = live[k % live.len()];
            self.slots[slot]
                .as_mut()
                .expect("live")
                .queue
                .push_back(seq);
        }
        true
    }

    /// Migrates the slowest live worker to the fastest free node (the
    /// paper's "migration of poorly performing activities to faster
    /// execution resources"): the victim finishes its in-service task and
    /// retires (queue redistributed now); the replacement joins after the
    /// recruitment latency. Returns whether a migration was initiated.
    pub(crate) fn migrate_slowest(&mut self) -> bool {
        let Some((slot, cur_speed)) = self.slowest_live_worker() else {
            return false;
        };
        let Some((node, best_speed)) = self.best_free_node() else {
            return false;
        };
        if best_speed <= cur_speed {
            return false;
        }
        if !self.resources.recruit_specific(node) {
            return false;
        }
        let ready_at = self.now + self.resources.recruit_latency;
        self.pending.push((ready_at, Ev::WorkerReady { node }));
        self.reconfiguring_until = self.reconfiguring_until.max(ready_at);
        // Retire the victim (same path as removal: queue redistributed,
        // in-service task completes, node released afterwards).
        let mut orphaned: Vec<u64> = Vec::new();
        {
            let w = self.slots[slot].as_mut().expect("live victim");
            orphaned.extend(w.queue.drain(..));
            w.retired = true;
            if w.busy_until.is_none() {
                let old = w.node;
                self.slots[slot] = None;
                self.resources.release(old);
            }
        }
        for seq in orphaned {
            if self.live_slot_indices().is_empty() {
                self.orphans.push(seq);
            } else {
                self.farm_arrivals_requeue(seq);
            }
        }
        true
    }

    fn slowest_live_worker(&self) -> Option<(usize, f64)> {
        self.live_slot_indices()
            .into_iter()
            .map(|i| {
                let node = self.slots[i].as_ref().expect("live").node;
                (i, self.nodes.get(node).effective_speed(self.now))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite speeds"))
    }

    fn best_free_node(&self) -> Option<(NodeId, f64)> {
        self.resources
            .free_nodes()
            .iter()
            .map(|&id| (id, self.nodes.get(id).effective_speed(self.now)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite speeds"))
    }

    /// Producer actuator: absolute rate.
    pub(crate) fn set_rate(&mut self, rate: f64) {
        self.producer.rate = rate.clamp(1e-6, 1e9);
    }

    /// Producer actuator: multiplicative rate change.
    pub(crate) fn scale_rate(&mut self, factor: f64) {
        self.set_rate(self.producer.rate * factor);
    }

    // ---- sensing ----

    /// The farm ABC's snapshot.
    pub(crate) fn farm_snapshot(&mut self, now: Time) -> SensorSnapshot {
        let live = self.live_slot_indices();
        let lens: Vec<u64> = live
            .iter()
            .map(|&i| self.slots[i].as_ref().expect("live").queue.len() as u64)
            .collect();
        let mut snap = SensorSnapshot::empty(now);
        snap.arrival_rate = self.farm_arrivals.rate(now);
        snap.departure_rate = self.farm_departures.rate(now);
        snap.num_workers = live.len() as u32;
        snap.queue_variance = queue_variance(&lens);
        snap.queued_tasks = lens.iter().sum();
        snap.service_time = self.service.mean();
        snap.end_of_stream = self.producer.done;
        snap.reconfiguring = now < self.reconfiguring_until;
        if let Some(idle) = self.farm_arrivals.idle_for(now) {
            snap.idle_for = idle;
        }
        // Fault-tolerance beans (see rules/fault.rules).
        snap.workers_lost = self.failed_workers;
        snap.ft_min_workers = self.ft_min_workers;
        snap = snap.with_extra("failedWorkers", self.failed_workers as f64);
        // Migration beans (see rules/migrate.rules): how much faster the
        // best free node is than the slowest live worker. 0.0 disables the
        // rule when there is nothing to migrate from/to.
        let gain = match (self.slowest_live_worker(), self.best_free_node()) {
            (Some((_, cur)), Some((_, best))) if cur > 0.0 => best / cur,
            _ => 0.0,
        };
        snap = snap.with_extra("speedGainRatio", gain);
        snap
    }

    /// The producer ABC's snapshot.
    pub(crate) fn producer_snapshot(&mut self, now: Time) -> SensorSnapshot {
        let mut snap = SensorSnapshot::empty(now);
        snap.departure_rate = self.producer.departures.rate(now);
        snap.arrival_rate = self.producer.rate;
        snap.end_of_stream = self.producer.done;
        snap
    }

    /// The consumer ABC's snapshot.
    pub(crate) fn consumer_snapshot(&mut self, now: Time) -> SensorSnapshot {
        let mut snap = SensorSnapshot::empty(now);
        snap.arrival_rate = self.consumer.departures.rate(now);
        snap.departure_rate = self.consumer.departures.rate(now);
        snap.end_of_stream = self.producer.done && self.consumer.consumed >= self.producer.count;
        snap
    }

    /// Drains events scheduled by handlers/actuators.
    pub(crate) fn take_pending(&mut self) -> Vec<(Time, Ev)> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use rand::SeedableRng;

    fn state(workers: usize, rate: f64, count: u64, service: f64) -> SimState {
        let mut nodes = NodeRegistry::new();
        let ids: Vec<NodeId> = (0..8)
            .map(|i| nodes.add(Node::trusted(format!("n{i}"), "lab")))
            .collect();
        let resources = ResourceManager::new(ids, 5.0);
        let mut s = SimState::new(
            nodes,
            resources,
            SslCostModel::free(),
            SecureMode::Never,
            rate,
            count,
            ServiceDist::det(service),
            StdRng::seed_from_u64(1),
            10.0,
        );
        for _ in 0..workers {
            s.spawn_worker_now().unwrap();
        }
        s
    }

    /// Runs the state's own pending events to completion (mini driver).
    fn run_to_end(s: &mut SimState, horizon: f64) {
        let mut queue = crate::des::EventQueue::new();
        queue.schedule(0.0, Ev::Emit);
        while let Some((t, ev)) = queue.pop() {
            if t > horizon {
                break;
            }
            s.handle(t, ev);
            for (at, e) in s.take_pending() {
                queue.schedule(at, e);
            }
        }
    }

    #[test]
    fn conservation_all_tasks_complete() {
        let mut s = state(2, 2.0, 50, 0.5);
        run_to_end(&mut s, 1e6);
        assert_eq!(s.producer.sent, 50);
        assert_eq!(s.completed, 50);
        assert_eq!(s.consumer.consumed, 50);
        assert!(s.producer.done);
    }

    #[test]
    fn single_slow_worker_throughput_matches_model() {
        // service 2 s, 1 worker => ~0.5 task/s sustained.
        let mut s = state(1, 5.0, 100, 2.0);
        run_to_end(&mut s, 1e6);
        assert_eq!(s.completed, 100);
        // Completion time ≈ 100 × 2 s = 200 s.
        assert!((s.now - 200.0).abs() < 5.0, "finished at {}", s.now);
    }

    #[test]
    fn adding_workers_scales_throughput() {
        let mut s = state(1, 10.0, 100, 1.0);
        let mut s4 = state(4, 10.0, 100, 1.0);
        run_to_end(&mut s, 1e6);
        run_to_end(&mut s4, 1e6);
        assert!(
            s4.now < s.now / 2.0,
            "4 workers ({}) should beat 1 ({}) by far",
            s4.now,
            s.now
        );
    }

    #[test]
    fn add_workers_arrive_after_latency() {
        let mut s = state(1, 100.0, 10_000, 10.0);
        s.now = 50.0;
        assert_eq!(s.add_workers(2), Ok(2));
        let pending = s.take_pending();
        assert_eq!(pending.len(), 2);
        for (t, ev) in &pending {
            assert_eq!(*t, 55.0, "latency 5 s");
            assert!(matches!(ev, Ev::WorkerReady { .. }));
        }
        assert!(s.farm_snapshot(52.0).reconfiguring);
        assert!(!s.farm_snapshot(56.0).reconfiguring);
        // Deliver them.
        for (t, ev) in pending {
            s.handle(t, ev);
        }
        assert_eq!(s.live_workers(), 3);
    }

    #[test]
    fn add_workers_exhausted_pool_errors() {
        let mut s = state(8, 1.0, 10, 1.0); // all 8 nodes recruited
        assert!(s.add_workers(1).is_err());
    }

    #[test]
    fn add_workers_partial_grant() {
        let mut s = state(7, 1.0, 10, 1.0);
        assert_eq!(s.add_workers(3), Ok(1), "only one node left");
    }

    #[test]
    fn remove_workers_preserves_tasks() {
        let mut s = state(4, 1000.0, 40, 100.0);
        // Emit everything quickly: all 40 tasks land in queues.
        run_to_end(&mut s, 1.0);
        let queued_before: u64 = s.farm_snapshot(1.0).queued_tasks;
        let in_service = 4;
        assert_eq!(queued_before + in_service, 40);
        s.remove_workers(2).unwrap();
        assert_eq!(s.live_workers(), 2);
        let snap = s.farm_snapshot(1.0);
        // Two still-busy retirees hold their in-service tasks; the rest
        // are queued on survivors.
        assert_eq!(snap.queued_tasks, queued_before);
    }

    #[test]
    fn cannot_remove_all_workers() {
        let mut s = state(2, 1.0, 10, 1.0);
        assert!(s.remove_workers(2).is_err());
        assert_eq!(s.remove_workers(1), Ok(1));
    }

    #[test]
    fn retired_worker_releases_node_after_completion() {
        let mut s = state(2, 1000.0, 4, 10.0);
        // Pump emits by hand, retaining the (t=10) Complete events.
        let mut completes = Vec::new();
        let mut emits = vec![(0.0, Ev::Emit)];
        while let Some((t, ev)) = emits.pop() {
            s.handle(t, ev);
            for (at, e) in s.take_pending() {
                match e {
                    Ev::Emit => emits.push((at, e)),
                    other => completes.push((at, other)),
                }
            }
        }
        assert_eq!(completes.len(), 2, "both workers busy");
        let free_before = s.resources.free_count();
        s.remove_workers(1).unwrap();
        // Busy: not yet released.
        assert_eq!(s.resources.free_count(), free_before);
        // Let its completion fire.
        completes.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (t, ev) in completes {
            s.handle(t, ev);
        }
        assert!(s.resources.free_count() > free_before);
    }

    #[test]
    fn rebalance_levels_queues() {
        let mut s = state(2, 1e6, 22, 100.0);
        run_to_end(&mut s, 0.01); // all tasks queued ~instantly
                                  // Shortest-queue dispatch keeps them level already; skew manually.
        let live = s.live_slot_indices();
        let moved: Vec<u64> = s.slots[live[0]].as_mut().unwrap().queue.drain(..).collect();
        s.slots[live[1]].as_mut().unwrap().queue.extend(moved);
        let snap = s.farm_snapshot(0.01);
        assert!(snap.queue_variance > 1.0);
        assert!(s.rebalance());
        let snap = s.farm_snapshot(0.01);
        assert!(
            snap.queue_variance <= 1.0,
            "variance {}",
            snap.queue_variance
        );
        assert!(!s.rebalance(), "already balanced");
    }

    #[test]
    fn rate_actuators() {
        let mut s = state(1, 1.0, 10, 1.0);
        s.scale_rate(2.0);
        assert_eq!(s.producer.rate, 2.0);
        s.set_rate(0.25);
        assert_eq!(s.producer.rate, 0.25);
    }

    #[test]
    fn plaintext_to_untrusted_counted() {
        let mut nodes = NodeRegistry::new();
        let id = nodes.add(Node::untrusted("u0", "untrusted_ip_domain_A"));
        let resources = ResourceManager::new(vec![id], 0.0);
        let mut s = SimState::new(
            nodes,
            resources,
            SslCostModel::default(),
            SecureMode::Never,
            10.0,
            20,
            ServiceDist::det(0.01),
            StdRng::seed_from_u64(2),
            10.0,
        );
        s.spawn_worker_now().unwrap();
        run_to_end(&mut s, 1e5);
        assert_eq!(s.completed, 20);
        assert_eq!(s.plaintext_to_untrusted, 20, "all tasks were plaintext");
        assert_eq!(s.handshakes, 0);
    }

    #[test]
    fn if_untrusted_secures_without_violations() {
        let mut nodes = NodeRegistry::new();
        let id = nodes.add(Node::untrusted("u0", "untrusted_ip_domain_A"));
        let resources = ResourceManager::new(vec![id], 0.0);
        let mut s = SimState::new(
            nodes,
            resources,
            SslCostModel::default(),
            SecureMode::IfUntrusted,
            10.0,
            20,
            ServiceDist::det(0.01),
            StdRng::seed_from_u64(2),
            10.0,
        );
        s.spawn_worker_now().unwrap();
        run_to_end(&mut s, 1e5);
        assert_eq!(s.plaintext_to_untrusted, 0);
        assert_eq!(s.handshakes, 1);
    }

    #[test]
    fn delayed_securing_has_insecure_window() {
        let mut nodes = NodeRegistry::new();
        let id = nodes.add(Node::untrusted("u0", "untrusted_ip_domain_A"));
        let resources = ResourceManager::new(vec![id], 0.0);
        let mut s = SimState::new(
            nodes,
            resources,
            SslCostModel::default(),
            SecureMode::DelayedIfUntrusted { delay: 1.0 },
            10.0,
            50,
            ServiceDist::det(0.01),
            StdRng::seed_from_u64(2),
            10.0,
        );
        s.spawn_worker_now().unwrap();
        run_to_end(&mut s, 1e5);
        assert!(s.plaintext_to_untrusted > 0, "window existed");
        assert!(
            s.plaintext_to_untrusted < 50,
            "but securing eventually happened"
        );
        assert_eq!(s.handshakes, 1);
    }

    #[test]
    fn ssl_overhead_slows_completion() {
        let mk = |mode| {
            let mut nodes = NodeRegistry::new();
            let id = nodes.add(Node::untrusted("u0", "wan"));
            let resources = ResourceManager::new(vec![id], 0.0);
            let mut s = SimState::new(
                nodes,
                resources,
                SslCostModel {
                    handshake: 0.0,
                    plain_comm: 0.1,
                    ssl_factor: 5.0,
                },
                mode,
                100.0,
                50,
                ServiceDist::det(0.1),
                StdRng::seed_from_u64(3),
                10.0,
            );
            s.spawn_worker_now().unwrap();
            run_to_end(&mut s, 1e5);
            s.now
        };
        let plain = mk(SecureMode::Never);
        let secured = mk(SecureMode::Always);
        assert!(secured > plain * 1.5, "secured {secured} vs plain {plain}");
    }

    #[test]
    fn end_of_stream_flags() {
        let mut s = state(1, 100.0, 5, 0.001);
        assert!(!s.farm_snapshot(0.0).end_of_stream);
        run_to_end(&mut s, 1e5);
        assert!(s.farm_snapshot(s.now).end_of_stream);
        assert!(s.consumer_snapshot(s.now).end_of_stream);
    }
}

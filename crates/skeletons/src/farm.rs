//! The reconfigurable task farm.
//!
//! Structure (paper Fig. 2, left): an **emitter** (the S component)
//! dispatches the input stream over per-worker queues; **workers** (W)
//! compute; a **collector** (C) gathers results, optionally restoring
//! stream order. The farm is *reconfigurable while running*: the manager's
//! actuators add workers, retire workers (redistributing their queued
//! tasks) and rebalance queues. Per-worker queues (rather than one shared
//! queue) are deliberate: they make the paper's `queueVariance` bean and
//! `BALANCE_LOAD` action meaningful.
//!
//! Where a worker runs is a deployment choice, not a second pattern: the
//! emitter, dispatch, collector, redistribution, stream sensors and fault
//! bookkeeping live in [`FarmCore`], generic over the [`FarmSlot`] a
//! worker is reached through. [`Farm`] plugs in worker threads; the
//! distributed pool in `bskel-net` plugs in remote daemon connections.
//!
//! Concurrency design — the steady-state task path acquires **no mutex**:
//!
//! * the emitter reads the worker set through an RCU [`crate::rcu`]
//!   handle (one atomic load per batch; reconfiguration *publishes* a new
//!   table instead of mutating a locked one);
//! * task hand-off is batched ([`crate::queue::WorkerQueue`]): the
//!   emitter drains up to `DISPATCH_BATCH` (32) inputs per wake-up and pays
//!   one per-worker queue lock per batch, workers pop in batches
//!   symmetrically and return results as one message per batch;
//! * every sensor on the task path is lock-free: windowed rates are
//!   [`AtomicRateEstimator`]s, per-worker service times are worker-owned
//!   [`bskel_monitor::LocalStats`] published through seqlock
//!   [`WelfordCell`]s and merged only at [`FarmControl::sense`] time.
//!
//! Locks remain on the cold paths only: reconfiguration (add/remove/
//! rebalance, serialised by the membership mutex), sensing, shutdown.
//!
//! Loss-freedom across reconfiguration: `remove_workers` publishes the
//! shrunken table *before* closing a victim queue, and a closed queue
//! hands pushed batches back ([`crate::queue`]), so an emitter caught
//! with a stale table re-reads (the generation necessarily changed) and
//! re-dispatches onto surviving workers.

use crate::queue::{Task, WorkerQueue};
use crate::rcu::{Published, ReadHandle};
use crate::stream::{ReorderBuffer, StreamMsg};
use bskel_monitor::{
    queue_variance, AtomicRateEstimator, Clock, Journal, LocalStats, RealClock, SensorSnapshot,
    Time, Welford, WelfordCell,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most inputs the emitter drains (and thus dispatches) per wake-up.
const DISPATCH_BATCH: usize = 32;
/// Most tasks a worker pops (and results it groups) per wake-up.
const WORKER_BATCH: usize = 32;

/// How the emitter picks a worker for the next task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Cycle through workers (the paper's unicast/round-robin policy).
    #[default]
    RoundRobin,
    /// Send to the worker with the shortest queue (on-demand-like).
    ShortestQueue,
}

/// How the collector orders results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatherPolicy {
    /// Deliver results in completion order (paper: gather).
    #[default]
    Unordered,
    /// Restore the input stream's order (sequence-number reordering).
    Ordered,
}

/// A worker thread's factory: called once per worker, on the worker's own
/// thread, so per-worker state needs no synchronisation.
pub(crate) type WorkerFactory<In, Out> =
    Arc<dyn Fn() -> Box<dyn FnMut(In) -> Out + Send> + Send + Sync>;

/// What flows into a farm's collector.
pub enum CollectMsg<Out> {
    /// One batch of delivered results.
    Batch(Vec<(u64, Out)>),
    /// A task was poisoned (its worker or codec panicked). The task is
    /// accounted for (no result will ever exist) so the End accounting
    /// still converges.
    Lost(u64),
    /// Emitter saw `End` after taking this many tasks off the input.
    Total(u64),
}

/// What kind of fault the farm recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmEventKind {
    /// A worker panicked while computing a task (the task is poisoned).
    WorkerPanic,
    /// A worker left the pool abruptly (panic or fault injection), its
    /// queued tasks recovered onto survivors.
    WorkerLost,
}

impl FarmEventKind {
    /// Stable event label (mirrors the manager's event vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            FarmEventKind::WorkerPanic => "worker:panic",
            FarmEventKind::WorkerLost => "worker:lost",
        }
    }
}

/// A fault event recorded by the farm substrate (worker panics and
/// losses), exposed through [`FarmControl::events`] and the
/// [`ShutdownReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FarmEvent {
    /// Clock time the fault was recorded.
    pub at: Time,
    /// What happened.
    pub kind: FarmEventKind,
    /// Human-readable cause (panic message or injection note).
    pub detail: String,
}

/// What [`Farm::shutdown`] found when tearing threads down: every panic
/// that was previously discarded by `let _ = handle.join()` is surfaced
/// here (and as [`FarmEvent`]s) instead of being silently dropped.
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Panic messages from workers (caught in-flight or at join time).
    pub worker_panics: Vec<String>,
    /// Cumulative workers lost to faults over the farm's lifetime.
    pub workers_lost: u64,
    /// The recorded fault events, in order.
    pub events: Vec<FarmEvent>,
    /// Errors tearing down remote connections (distributed substrates
    /// only; a purely local farm always leaves this empty). Mirrors the
    /// join-error capture: a failed goodbye/socket close is surfaced here
    /// instead of being silently dropped.
    pub disconnects: Vec<String>,
    /// Task sequence numbers whose loss notification could not be
    /// delivered downstream (the collector had already exited). Loss
    /// freedom is auditable — every task is accounted for either in the
    /// output stream, as a delivered hole, or here — instead of assumed.
    pub lost_undelivered: Vec<u64>,
}

impl ShutdownReport {
    /// True when no worker ever panicked or was lost, every connection
    /// closed cleanly, and every loss notification was delivered.
    pub fn is_clean(&self) -> bool {
        self.worker_panics.is_empty()
            && self.workers_lost == 0
            && self.disconnects.is_empty()
            && self.lost_undelivered.is_empty()
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_owned()
    }
}

/// One dispatch slot of a [`FarmCore`]: the queue the emitter pushes into
/// and the load [`SchedPolicy::ShortestQueue`] minimises.
pub trait FarmSlot {
    /// The task payload the slot's queue carries.
    type Item;
    /// The slot's task queue.
    fn queue(&self) -> &WorkerQueue<Self::Item>;
    /// Dispatch load. A worker thread's is its queue length (the
    /// default); a remote slot also counts what is on the wire.
    fn load(&self) -> usize {
        self.queue().len()
    }
}

/// The stream beans every farm substrate senses the same way: arrival
/// and departure rates, end of stream, the reconfiguration blackout,
/// idle time and the workers lost to faults.
pub struct StreamSensors {
    clock: Arc<dyn Clock>,
    rate_window: f64,
    arrivals: AtomicRateEstimator,
    /// Delivered results only: a poisoned task is not throughput.
    departures: AtomicRateEstimator,
    end_of_stream: AtomicBool,
    /// Set while an actuator deploys workers: the manager observes it
    /// and skips its cycles (the paper's Fig. 4 sensor blackout).
    pub reconfiguring: AtomicBool,
    /// Sensors stay blacked out until this time (f64 bits): after a
    /// reconfiguration the rate estimators hold no full window of fresh
    /// data, and acting on them would make the manager oscillate (add a
    /// worker, read a stale/empty window, add again, …).
    blackout_until_bits: AtomicU64,
    /// Cumulative workers lost to faults (panic, injected kill, dead
    /// connection) — the `workersLost` bean.
    pub workers_lost: AtomicU64,
}

impl StreamSensors {
    fn new(clock: Arc<dyn Clock>, rate_window: f64) -> Self {
        Self {
            clock,
            rate_window,
            arrivals: AtomicRateEstimator::new(rate_window),
            departures: AtomicRateEstimator::new(rate_window),
            end_of_stream: AtomicBool::new(false),
            reconfiguring: AtomicBool::new(false),
            blackout_until_bits: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
        }
    }

    /// The substrate's clock.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Records a reconfiguration at `now`. Stale pre-reconfiguration
    /// windows would bias the next readings, so the output estimator
    /// restarts and the sensors stay blacked out until a full window of
    /// post-reconfiguration data exists.
    pub fn reconfigured(&self, now: Time) {
        self.departures.reset(now);
        self.blackout_until_bits
            .store((now + self.rate_window).to_bits(), Ordering::SeqCst);
    }

    /// Fills the stream beans into `snap`, read at `snap.at`.
    fn fill(&self, snap: &mut SensorSnapshot) {
        let now = snap.at;
        snap.arrival_rate = self.arrivals.rate(now);
        snap.departure_rate = self.departures.rate(now);
        snap.end_of_stream = self.end_of_stream.load(Ordering::SeqCst);
        snap.workers_lost = self.workers_lost.load(Ordering::SeqCst);
        snap.reconfiguring = self.reconfiguring.load(Ordering::SeqCst)
            || now < f64::from_bits(self.blackout_until_bits.load(Ordering::SeqCst));
        if let Some(idle) = self.arrivals.idle_for(now) {
            snap.idle_for = idle;
        }
    }
}

/// The farm's stream machinery, whatever its workers are: loss-free RCU
/// dispatch, the emitter and collector loops, round-robin redistribution
/// and rebalancing, parking while no worker exists, the stream sensors
/// and fault/panic bookkeeping.
///
/// The substrate keeps its membership list — the reconfiguration
/// serialisation point — and calls the `members`/`survivors` methods
/// below with that list's lock held. Its death path stays its own.
pub struct FarmCore<S: FarmSlot, Out> {
    name: Arc<str>,
    /// The stream sensors.
    pub sensors: StreamSensors,
    /// The RCU-published dispatch table: reconfigurations replace it
    /// wholesale, the emitter reads it wait-free via a cached handle.
    pub table: Arc<Published<Vec<Arc<S>>>>,
    /// Set at teardown: dispatch and redistribution stop parking
    /// undeliverable tasks.
    pub terminating: AtomicBool,
    /// Tasks stranded while no worker exists; resumed by the next
    /// [`FarmCore::resume_parked`].
    parked: Mutex<Vec<Task<S::Item>>>,
    /// Capacity will never return (see [`FarmCore::poison`]): parking
    /// reports tasks lost instead.
    poisoned: AtomicBool,
    rr_cursor: AtomicUsize,
    results: Sender<CollectMsg<Out>>,
    /// Panic messages, surfaced in the [`ShutdownReport`].
    panics: Mutex<Vec<String>>,
    /// Fault events ([`FarmEventKind::WorkerPanic`]/`WorkerLost`).
    events: Mutex<Vec<FarmEvent>>,
    /// Tasks whose `Lost` notification found the collector gone.
    lost_undelivered: Mutex<Vec<u64>>,
    /// Optional ops journal every fault event is mirrored into.
    journal: Option<Arc<Journal>>,
}

impl<S: FarmSlot, Out: Send + 'static> FarmCore<S, Out> {
    /// A core with an empty dispatch table, plus the receiving end of
    /// its collector channel (hand it to [`FarmCore::collector`]).
    pub fn new(
        name: impl Into<Arc<str>>,
        clock: Arc<dyn Clock>,
        rate_window: f64,
        journal: Option<Arc<Journal>>,
    ) -> (Self, Receiver<CollectMsg<Out>>) {
        let (results, results_rx) = unbounded();
        let core = Self {
            name: name.into(),
            sensors: StreamSensors::new(clock, rate_window),
            table: Arc::new(Published::new(Vec::new())),
            terminating: AtomicBool::new(false),
            parked: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            rr_cursor: AtomicUsize::new(0),
            results,
            panics: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            lost_undelivered: Mutex::new(Vec::new()),
            journal,
        };
        (core, results_rx)
    }

    /// Refuses to add workers once teardown has begun: nothing would
    /// feed, close or reap them.
    pub fn refuse_if_terminating(&self) -> Result<(), String> {
        if self.terminating.load(Ordering::SeqCst) {
            return Err(format!("farm {} is shutting down", self.name));
        }
        Ok(())
    }

    /// Re-derives and publishes the dispatch table from the membership
    /// list.
    pub fn publish<M: Borrow<Arc<S>>>(&self, members: &[M]) {
        self.table
            .publish(members.iter().map(|m| Arc::clone(m.borrow())).collect());
    }

    /// Re-dispatches tasks round-robin onto the survivors, or parks them
    /// while none exists (dropped at teardown).
    pub fn redistribute<M: Borrow<Arc<S>>>(&self, survivors: &[M], mut tasks: Vec<Task<S::Item>>) {
        if tasks.is_empty() {
            return;
        }
        if survivors.is_empty() {
            if !self.terminating.load(Ordering::SeqCst) {
                self.park(&mut tasks);
            }
            return;
        }
        let n = survivors.len();
        let mut per: Vec<Vec<Task<S::Item>>> = (0..n)
            .map(|_| Vec::with_capacity(tasks.len() / n + 1))
            .collect();
        for (i, task) in tasks.into_iter().enumerate() {
            per[i % n].push(task);
        }
        for (s, mut chunk) in survivors.iter().zip(per) {
            let accepted = s.borrow().queue().push_batch(&mut chunk);
            debug_assert!(accepted, "survivor queues are open under the lock");
        }
    }

    /// Hands tasks parked by a total-failure episode to the members.
    pub fn resume_parked<M: Borrow<Arc<S>>>(&self, members: &[M]) {
        let parked = std::mem::take(&mut *self.parked.lock());
        self.redistribute(members, parked);
    }

    /// Evens the members' queue lengths; true if any task moved. Tasks
    /// keep their sequence tags, so ordered gathering is unaffected.
    pub fn rebalance<M: Borrow<Arc<S>>>(&self, members: &[M]) -> bool {
        if members.len() < 2 {
            return false;
        }
        let lens = members.iter().map(|m| m.borrow().queue().len());
        let (min, max) = lens.fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
        if max - min <= 1 {
            return false;
        }
        let mut all: Vec<Task<S::Item>> = Vec::new();
        for m in members {
            all.extend(m.borrow().queue().drain_open());
        }
        let moved = !all.is_empty();
        self.redistribute(members, all);
        moved
    }

    /// Parks tasks awaiting future capacity — unless the core is
    /// poisoned, in which case capacity will never return and each task
    /// is reported lost so the output stream still terminates. The
    /// parked lock orders parking against the poison drain.
    fn park(&self, tasks: &mut Vec<Task<S::Item>>) {
        let mut parked = self.parked.lock();
        if self.poisoned.load(Ordering::SeqCst) {
            drop(parked);
            for t in tasks.drain(..) {
                self.report_lost(t.seq);
            }
        } else {
            parked.append(tasks);
        }
    }

    /// Escalation when capacity can never return (e.g. the substrate's
    /// I/O loop failed): records `why` as a panic, and reports every
    /// parked and future parked task lost so the collector's accounting
    /// still closes.
    pub fn poison(&self, why: String) {
        self.journal_note(&why);
        self.panics.lock().push(why);
        // Flip the flag inside the parked critical section: concurrent
        // parking either lands before the drain (caught here) or
        // observes the flag and reports the loss itself.
        let stranded: Vec<Task<S::Item>> = {
            let mut parked = self.parked.lock();
            self.poisoned.store(true, Ordering::SeqCst);
            std::mem::take(&mut *parked)
        };
        for t in stranded {
            self.report_lost(t.seq);
        }
    }

    /// Hands a batch of results to the collector.
    pub fn deliver(&self, batch: Vec<(u64, Out)>) {
        if self.results.send(CollectMsg::Batch(batch)).is_err() {
            self.journal_note("result batch after the collector exited");
        }
    }

    /// Reports a task as lost downstream. When the collector has already
    /// exited, the seq is recorded in the shutdown accounting (and
    /// journaled) instead of being silently discarded.
    fn report_lost(&self, seq: u64) {
        if self.results.send(CollectMsg::Lost(seq)).is_err() {
            self.lost_undelivered.lock().push(seq);
            self.journal_note(&format!(
                "lost notification for task {seq} undeliverable: collector exited"
            ));
        }
    }

    /// A task that can never produce a result (its worker or codec
    /// panicked): the collector steps over it, and the panic is recorded.
    pub fn poison_task(&self, seq: u64, detail: String) {
        self.report_lost(seq);
        self.record_panic(self.sensors.now(), detail);
    }

    /// Appends a fault event, mirroring it into the ops journal when one
    /// is attached.
    pub fn record_event(&self, event: FarmEvent) {
        if let Some(j) = &self.journal {
            let (name, kind) = (Arc::clone(&self.name), event.kind.label());
            j.farm_event(event.at, name, kind, &event.detail);
        }
        self.events.lock().push(event);
    }

    /// Records a panic: one `worker:panic` event and one entry in the
    /// report's `worker_panics`.
    fn record_panic(&self, at: Time, detail: String) {
        self.record_event(FarmEvent {
            at,
            kind: FarmEventKind::WorkerPanic,
            detail: detail.clone(),
        });
        self.panics.lock().push(detail);
    }

    /// Records a join outcome: an `Err` is an un-caught panic of thread
    /// `who`.
    pub fn record_join(&self, who: &str, res: std::thread::Result<()>) {
        if let Err(payload) = res {
            let msg = format!("{who}: {}", panic_message(payload.as_ref()));
            self.record_panic(self.sensors.now(), msg);
        }
    }

    /// Fault events recorded so far, in order.
    pub fn events(&self) -> Vec<FarmEvent> {
        self.events.lock().clone()
    }

    fn journal_note(&self, text: &str) {
        if let Some(j) = &self.journal {
            j.note(self.sensors.now(), Arc::clone(&self.name), text);
        }
    }

    /// The structural and stream beans at `now`, plus the table they were
    /// read from (for the substrate's own per-slot beans).
    pub fn sense(&self, now: Time) -> (SensorSnapshot, Arc<Vec<Arc<S>>>) {
        let table = self.table.load();
        let loads: Vec<u64> = table.iter().map(|s| s.load() as u64).collect();
        let mut snap = SensorSnapshot::empty(now);
        snap.num_workers = loads.len() as u32;
        snap.queue_variance = queue_variance(&loads);
        snap.queued_tasks = loads.iter().sum();
        self.sensors.fill(&mut snap);
        (snap, table)
    }

    /// Drains the fault accounting into a report.
    pub fn shutdown_report(&self, disconnects: Vec<String>) -> ShutdownReport {
        let mut lost_undelivered = std::mem::take(&mut *self.lost_undelivered.lock());
        lost_undelivered.sort_unstable();
        ShutdownReport {
            worker_panics: std::mem::take(&mut *self.panics.lock()),
            workers_lost: self.sensors.workers_lost.load(Ordering::SeqCst),
            events: std::mem::take(&mut *self.events.lock()),
            disconnects,
            lost_undelivered,
        }
    }

    /// Dispatches one drained input batch over the current table,
    /// re-reading the table and re-dispatching any batch bounced off a
    /// queue that closed under a stale table.
    fn dispatch(
        &self,
        reader: &mut ReadHandle<Vec<Arc<S>>>,
        sched: SchedPolicy,
        items: &mut Vec<Task<S::Item>>,
    ) {
        while !items.is_empty() {
            let generation = self.table.generation();
            let table = Arc::clone(reader.get());
            if table.is_empty() {
                if self.terminating.load(Ordering::SeqCst) {
                    // Tearing down; parity with dropping a running farm.
                    items.clear();
                    return;
                }
                // Every worker died: park the batch for the next
                // `add_workers` instead of losing it.
                self.park(items);
                if self.table.generation() == generation {
                    return;
                }
                // A new table appeared while we parked — reclaim so the
                // items are not stranded until a later `add_workers`.
                items.append(&mut self.parked.lock());
                continue;
            }
            let n = table.len();
            let mut per: Vec<Vec<Task<S::Item>>> = (0..n).map(|_| Vec::new()).collect();
            match sched {
                SchedPolicy::RoundRobin => {
                    for task in items.drain(..) {
                        let i = self.rr_cursor.fetch_add(1, Ordering::Relaxed) % n;
                        per[i].push(task);
                    }
                }
                SchedPolicy::ShortestQueue => {
                    // One load snapshot per batch, tracked through the
                    // batch's own assignments.
                    let mut loads: Vec<usize> = table.iter().map(|s| s.load()).collect();
                    for task in items.drain(..) {
                        let i = (0..n).min_by_key(|&i| loads[i]).expect("non-empty");
                        loads[i] += 1;
                        per[i].push(task);
                    }
                }
            }
            for (slot, chunk) in table.iter().zip(per.iter_mut()) {
                if !slot.queue().push_batch(chunk) {
                    // Closed under us: hand back for re-dispatch.
                    items.append(chunk);
                }
            }
            if items.is_empty() {
                return;
            }
            if self.table.generation() == generation {
                // A queue closed with no newer table published — only
                // shutdown does that. Nobody will collect these.
                items.clear();
                return;
            }
            // Generation moved: loop re-reads the fresh table.
        }
    }

    /// The emitter loop: drains `input` in batches, turns each item into
    /// a slot payload with `encode`, dispatches the batch and calls
    /// `after_dispatch`. An `encode` panic poisons that task only.
    /// Returns after `End` (or when every input sender is gone).
    pub fn emitter<In>(
        &self,
        input: Receiver<StreamMsg<In>>,
        sched: SchedPolicy,
        mut encode: impl FnMut(In) -> S::Item,
        mut after_dispatch: impl FnMut(),
    ) {
        let mut reader = ReadHandle::new(Arc::clone(&self.table));
        let mut taken = 0u64;
        let mut batch: Vec<Task<S::Item>> = Vec::with_capacity(DISPATCH_BATCH);
        // Block for the first message, then opportunistically drain the
        // channel up to the batch bound.
        while let Ok(first) = input.recv() {
            let mut arrived = 0u64;
            let mut end = false;
            let mut next = Some(first);
            while let Some(msg) = next.take() {
                let StreamMsg::Item { seq, payload } = msg else {
                    end = true;
                    break;
                };
                arrived += 1;
                match catch_unwind(AssertUnwindSafe(|| encode(payload))) {
                    Ok(item) => batch.push(Task { seq, item }),
                    Err(p) => self.poison_task(
                        seq,
                        format!(
                            "emitter: encode panicked on task {seq}: {}",
                            panic_message(p.as_ref())
                        ),
                    ),
                }
                if batch.len() < DISPATCH_BATCH {
                    next = input.try_recv().ok();
                }
            }
            if arrived > 0 {
                self.sensors.arrivals.record_n(self.sensors.now(), arrived);
                taken += arrived;
            }
            if !batch.is_empty() {
                self.dispatch(&mut reader, sched, &mut batch);
                after_dispatch();
            }
            if end {
                self.sensors.end_of_stream.store(true, Ordering::SeqCst);
                if self.results.send(CollectMsg::Total(taken)).is_err() {
                    self.journal_note("end of stream after the collector exited");
                }
                return;
            }
        }
    }

    /// The collector loop: gathers result batches and poisoned-task
    /// holes onto `output` (renumbered densely under ordered gather),
    /// then sends `End` once every task the emitter took is accounted
    /// for. Departures count delivered results only.
    pub fn collector(
        &self,
        results: Receiver<CollectMsg<Out>>,
        output: Sender<StreamMsg<Out>>,
        gather: GatherPolicy,
    ) {
        // A consumer that dropped its receiver has stopped listening;
        // nothing downstream is left to tell.
        let forward = |msg| {
            output.send(msg).ok();
        };
        let mut reorder = ReorderBuffer::new();
        let mut done = 0u64;
        // Dense output renumbering under ordered gather: an explicit
        // counter (not `reorder.next_seq()`) so a poisoned task's skipped
        // hole leaves no gap.
        let mut emitted = 0u64;
        let mut emit_run = |run: Vec<Out>| {
            for item in run {
                forward(StreamMsg::item(emitted, item));
                emitted += 1;
            }
        };
        let mut expected: Option<u64> = None;
        for msg in results.iter() {
            match msg {
                CollectMsg::Batch(batch) => {
                    self.sensors
                        .departures
                        .record_n(self.sensors.now(), batch.len() as u64);
                    done += batch.len() as u64;
                    for (seq, out) in batch {
                        match gather {
                            GatherPolicy::Unordered => forward(StreamMsg::item(seq, out)),
                            GatherPolicy::Ordered => emit_run(reorder.push(seq, out)),
                        }
                    }
                }
                CollectMsg::Lost(seq) => {
                    // Poisoned: no result will ever exist. Account for it
                    // so the End check converges, and step the reorder
                    // front over the hole.
                    done += 1;
                    if gather == GatherPolicy::Ordered {
                        emit_run(reorder.skip(seq));
                    }
                }
                CollectMsg::Total(n) => expected = Some(n),
            }
            if expected == Some(done) {
                forward(StreamMsg::End);
                break;
            }
        }
    }
}

/// The dispatchable face of one worker thread: its queue plus its
/// published service-time cell. What the RCU table holds.
struct WorkerSlot<In> {
    queue: WorkerQueue<In>,
    service: Arc<WelfordCell>,
}

impl<In> FarmSlot for WorkerSlot<In> {
    type Item = In;

    fn queue(&self) -> &WorkerQueue<In> {
        &self.queue
    }
}

struct WorkerHandle<In> {
    /// Stable identity: the death path uses it to tell "still a member"
    /// (self-removal required) from "already removed by an actuator".
    id: u64,
    slot: Arc<WorkerSlot<In>>,
    /// Fault-injection flag: set by `kill_workers`, observed between
    /// tasks — the thread dies abruptly from the farm's point of view.
    kill: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl<In> Borrow<Arc<WorkerSlot<In>>> for WorkerHandle<In> {
    fn borrow(&self) -> &Arc<WorkerSlot<In>> {
        &self.slot
    }
}

struct Shared<In, Out> {
    /// Back-reference worker threads upgrade transiently on their death
    /// path (panic caught or kill flag observed) to hand unprocessed
    /// tasks back and deregister themselves.
    self_ref: std::sync::Weak<Shared<In, Out>>,
    core: FarmCore<WorkerSlot<In>, Out>,
    /// Membership (thread handles) and the reconfiguration serialisation
    /// point. Never touched by the task path.
    workers: Mutex<Vec<WorkerHandle<In>>>,
    retired: Mutex<Vec<JoinHandle<()>>>,
    /// Service cells of retired workers: their samples must keep counting
    /// toward the farm-level service statistic.
    retired_stats: Mutex<Vec<Arc<WelfordCell>>>,
    /// Join handles of workers that died (panic or kill) rather than
    /// retiring cooperatively; reaped — not discarded — at shutdown.
    dead: Mutex<Vec<JoinHandle<()>>>,
    /// Monotonic source for [`WorkerHandle::id`].
    next_worker_id: AtomicU64,
    factory: WorkerFactory<In, Out>,
    max_workers: u32,
}

impl<In: Send + 'static, Out: Send + 'static> Shared<In, Out> {
    fn spawn_worker(&self) -> WorkerHandle<In> {
        let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
        let service = Arc::new(WelfordCell::new());
        let kill = Arc::new(AtomicBool::new(false));
        let slot = Arc::new(WorkerSlot {
            queue: WorkerQueue::new(),
            service: Arc::clone(&service),
        });
        let queue = Arc::clone(&slot);
        let factory = Arc::clone(&self.factory);
        let results = self.core.results.clone();
        let clock = Arc::clone(&self.core.sensors.clock);
        let weak = self.self_ref.clone();
        let kill_flag = Arc::clone(&kill);
        let name = format!("{}-worker", self.core.name);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let queue = &queue.queue;
                let mut work = factory();
                let mut stats = LocalStats::new(service);
                let mut batch: Vec<Task<In>> = Vec::with_capacity(WORKER_BATCH);
                let mut out: Vec<(u64, Out)> = Vec::with_capacity(WORKER_BATCH);
                // A failed send means the collector is gone: the stream
                // already ended, so the results have no reader.
                let flush = |out: &mut Vec<(u64, Out)>| {
                    out.is_empty() || results.send(CollectMsg::Batch(std::mem::take(out))).is_ok()
                };
                while queue.pop_batch(WORKER_BATCH, &mut batch) {
                    // Pop from the back of the reversed batch: FIFO order,
                    // with the unprocessed remainder still owned by `batch`
                    // should this thread die mid-batch.
                    batch.reverse();
                    while let Some(task) = batch.pop() {
                        if kill_flag.load(Ordering::SeqCst) {
                            // Injected fault: die abruptly, handing the
                            // current task and the remainder back intact.
                            batch.push(task);
                            batch.reverse();
                            flush(&mut out);
                            if let Some(shared) = weak.upgrade() {
                                shared.on_worker_death(id, std::mem::take(&mut batch), None);
                            }
                            return;
                        }
                        let seq = task.seq;
                        let t0 = clock.now();
                        match catch_unwind(AssertUnwindSafe(|| work(task.item))) {
                            Ok(result) => {
                                stats.update(clock.now() - t0);
                                out.push((seq, result));
                            }
                            Err(payload) => {
                                // The task is poisoned; everything not yet
                                // started is recovered. Flush finished
                                // results first so nothing computed is lost.
                                flush(&mut out);
                                batch.reverse();
                                if let Some(shared) = weak.upgrade() {
                                    shared.core.report_lost(seq);
                                    shared.on_worker_death(
                                        id,
                                        std::mem::take(&mut batch),
                                        Some(panic_message(payload.as_ref())),
                                    );
                                }
                                return;
                            }
                        }
                    }
                    if !flush(&mut out) {
                        break;
                    }
                }
            })
            .expect("spawn worker thread");
        WorkerHandle {
            id,
            slot,
            kill,
            thread,
        }
    }

    /// A worker thread is dying (caught panic or observed kill flag):
    /// deregister it if it is still a member — the kill path's actuator
    /// has already removed it — and recover every unprocessed task it
    /// held (in-flight remainder plus queued backlog).
    fn on_worker_death(&self, id: u64, mut leftover: Vec<Task<In>>, panic_msg: Option<String>) {
        let now = self.core.sensors.now();
        let mut workers = self.workers.lock();
        if let Some(pos) = workers.iter().position(|h| h.id == id) {
            let victim = workers.remove(pos);
            // Publish the shrunken table BEFORE closing the dead queue:
            // a bounced emitter then observes a newer generation and
            // re-dispatches onto survivors (loss-freedom invariant).
            self.core.publish(&workers);
            leftover.extend(victim.slot.queue.close());
            self.retired_stats
                .lock()
                .push(Arc::clone(&victim.slot.service));
            self.dead.lock().push(victim.thread);
            self.core
                .sensors
                .workers_lost
                .fetch_add(1, Ordering::SeqCst);
            self.core.record_event(FarmEvent {
                at: now,
                kind: FarmEventKind::WorkerLost,
                detail: panic_msg
                    .clone()
                    .unwrap_or_else(|| "worker died".to_owned()),
            });
        }
        self.core.redistribute(&workers, leftover);
        drop(workers);
        if let Some(msg) = panic_msg {
            self.core.record_panic(now, msg);
        }
    }

    /// Fault injection: abruptly kills `n` workers. Unlike
    /// [`Shared::remove_workers`] this models failure, not retirement —
    /// the whole pool may die (tasks park until workers are added), the
    /// loss is counted in the `workersLost` bean, and no sensor blackout
    /// hides it from the manager.
    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        let mut workers = self.workers.lock();
        if (workers.len() as u32) < n {
            return Err(format!("cannot kill {n} of {} workers", workers.len()));
        }
        let keep = workers.len() - n as usize;
        let victims: Vec<WorkerHandle<In>> = workers.split_off(keep);
        // Same publish-before-close ordering as removal/death.
        self.core.publish(&workers);
        let now = self.core.sensors.now();
        let mut recovered: Vec<Task<In>> = Vec::new();
        for victim in victims {
            victim.kill.store(true, Ordering::SeqCst);
            recovered.extend(victim.slot.queue.close());
            self.retired_stats
                .lock()
                .push(Arc::clone(&victim.slot.service));
            self.dead.lock().push(victim.thread);
            self.core
                .sensors
                .workers_lost
                .fetch_add(1, Ordering::SeqCst);
            self.core.record_event(FarmEvent {
                at: now,
                kind: FarmEventKind::WorkerLost,
                detail: "worker killed (fault injection)".to_owned(),
            });
        }
        self.core.redistribute(&workers, recovered);
        drop(workers);
        Ok(n)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        let current = self.workers.lock().len() as u32;
        if current + n > self.max_workers {
            return Err(format!(
                "worker limit reached ({current}+{n} > {})",
                self.max_workers
            ));
        }
        let sensors = &self.core.sensors;
        sensors.reconfiguring.store(true, Ordering::SeqCst);
        let mut workers = self.workers.lock();
        // Teardown sets the flag before it takes the workers under this
        // lock, so a worker pushed after this check is always reaped.
        let refused = self.core.refuse_if_terminating();
        if refused.is_ok() {
            for _ in 0..n {
                workers.push(self.spawn_worker());
            }
            self.core.publish(&workers);
            // Tasks stranded by a total-failure episode resume here.
            self.core.resume_parked(&workers);
        }
        drop(workers);
        if refused.is_ok() {
            sensors.reconfigured(sensors.now());
        }
        sensors.reconfiguring.store(false, Ordering::SeqCst);
        refused.map(|()| n)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        let mut workers = self.workers.lock();
        if workers.len() as u32 <= n {
            return Err(format!(
                "cannot remove {n} of {} workers (at least one must remain)",
                workers.len()
            ));
        }
        let victims: Vec<WorkerHandle<In>> = {
            let keep = workers.len() - n as usize;
            workers.split_off(keep)
        };
        // Publish the shrunken table BEFORE closing any victim queue:
        // an emitter whose push then bounces off a closed queue is
        // guaranteed to observe a newer generation and re-dispatch onto
        // survivors — the loss-freedom invariant.
        self.core.publish(&workers);
        let mut stolen: Vec<Task<In>> = Vec::new();
        for victim in victims {
            stolen.extend(victim.slot.queue.close());
            // Joining may block for up to one in-flight task's service
            // time; retire instead and join at shutdown.
            self.retired.lock().push(victim.thread);
            self.retired_stats
                .lock()
                .push(Arc::clone(&victim.slot.service));
        }
        // The victims' backlog moves to the survivors.
        self.core.redistribute(&workers, stolen);
        drop(workers);
        self.core.sensors.reconfigured(self.core.sensors.now());
        Ok(n)
    }

    fn sense(&self, now: Time) -> SensorSnapshot {
        let (mut snap, table) = self.core.sense(now);
        // Merge the per-worker seqlock cells (plus retired workers') into
        // the farm-level service statistic — the snapshot-time fold that
        // lets the per-task path stay lock-free.
        let mut service = Welford::new();
        for slot in table.iter() {
            service.merge(&slot.service.read());
        }
        for cell in self.retired_stats.lock().iter() {
            service.merge(&cell.read());
        }
        snap.service_time = service.mean();
        snap
    }
}

/// Substrate-side control surface the ABC binds to (object-safe so the ABC
/// is not generic over the farm's item types).
pub trait FarmControl: Send + Sync {
    /// Current sensor snapshot.
    fn sense(&self, now: Time) -> SensorSnapshot;
    /// Adds workers; returns how many were added.
    fn add_workers(&self, n: u32) -> Result<u32, String>;
    /// Removes workers; returns how many were removed.
    fn remove_workers(&self, n: u32) -> Result<u32, String>;
    /// Rebalances queues; true if any task moved.
    fn rebalance(&self) -> bool;
    /// Current parallelism degree.
    fn num_workers(&self) -> usize;
    /// Fault injection: abruptly kills workers (no cooperative
    /// retirement, no blackout). Substrates without failure semantics
    /// keep the default.
    fn kill_workers(&self, _n: u32) -> Result<u32, String> {
        Err("kill_workers unsupported by this substrate".to_owned())
    }
    /// Cumulative workers lost to faults.
    fn workers_lost(&self) -> u64 {
        0
    }
    /// Fault events recorded so far (panics, losses), in order.
    fn events(&self) -> Vec<FarmEvent> {
        Vec::new()
    }
}

impl<In: Send + 'static, Out: Send + 'static> FarmControl for Shared<In, Out> {
    fn sense(&self, now: Time) -> SensorSnapshot {
        Shared::sense(self, now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        Shared::add_workers(self, n)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        Shared::remove_workers(self, n)
    }

    fn rebalance(&self) -> bool {
        self.core.rebalance(&self.workers.lock())
    }

    fn num_workers(&self) -> usize {
        self.core.table.load().len()
    }

    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        Shared::kill_workers(self, n)
    }

    fn workers_lost(&self) -> u64 {
        self.core.sensors.workers_lost.load(Ordering::SeqCst)
    }

    fn events(&self) -> Vec<FarmEvent> {
        self.core.events()
    }
}

/// Builder for a [`Farm`].
pub struct FarmBuilder<In, Out> {
    name: String,
    factory: WorkerFactory<In, Out>,
    initial_workers: u32,
    sched: SchedPolicy,
    gather: GatherPolicy,
    clock: Arc<dyn Clock>,
    max_workers: u32,
    rate_window: f64,
    journal: Option<Arc<Journal>>,
}

impl<In: Send + 'static, Out: Send + 'static> FarmBuilder<In, Out> {
    /// Creates a builder over a worker factory.
    pub fn new<F, W>(factory: F) -> Self
    where
        F: Fn() -> W + Send + Sync + 'static,
        W: FnMut(In) -> Out + Send + 'static,
    {
        Self {
            name: "farm".into(),
            factory: Arc::new(move || Box::new(factory()) as Box<dyn FnMut(In) -> Out + Send>),
            initial_workers: 1,
            sched: SchedPolicy::default(),
            gather: GatherPolicy::default(),
            clock: Arc::new(RealClock::new()),
            max_workers: 1024,
            rate_window: 2.0,
            journal: None,
        }
    }

    /// Convenience: a stateless worker function cloned per worker.
    pub fn from_fn<F>(f: F) -> Self
    where
        F: Fn(In) -> Out + Send + Sync + Clone + 'static,
    {
        Self::new(move || {
            let f = f.clone();
            move |x| f(x)
        })
    }

    /// Skeleton name (thread names, diagnostics).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Initial parallelism degree (≥ 1).
    pub fn initial_workers(mut self, n: u32) -> Self {
        self.initial_workers = n.max(1);
        self
    }

    /// Emitter scheduling policy.
    pub fn sched(mut self, p: SchedPolicy) -> Self {
        self.sched = p;
        self
    }

    /// Collector gathering policy.
    pub fn gather(mut self, p: GatherPolicy) -> Self {
        self.gather = p;
        self
    }

    /// Time source for metrics (tests inject a `ManualClock`).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Maximum parallelism degree the substrate will accept.
    pub fn max_workers(mut self, n: u32) -> Self {
        self.max_workers = n.max(1);
        self
    }

    /// Window length of the rate estimators, seconds.
    pub fn rate_window(mut self, secs: f64) -> Self {
        self.rate_window = secs;
        self
    }

    /// Attaches an ops journal: every substrate fault event is recorded
    /// into it as well as into the in-process event list.
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Builds and starts the farm.
    pub fn build(self) -> Farm<In, Out> {
        let (input_tx, input_rx) = unbounded::<StreamMsg<In>>();
        let (output_tx, output_rx) = unbounded::<StreamMsg<Out>>();
        let (core, results_rx) = FarmCore::new(
            self.name.clone(),
            self.clock,
            self.rate_window,
            self.journal,
        );

        let shared = Arc::new_cyclic(|self_ref| Shared {
            self_ref: self_ref.clone(),
            core,
            workers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            retired_stats: Mutex::new(Vec::new()),
            dead: Mutex::new(Vec::new()),
            next_worker_id: AtomicU64::new(0),
            factory: self.factory,
            max_workers: self.max_workers,
        });

        {
            let mut workers = shared.workers.lock();
            for _ in 0..self.initial_workers {
                workers.push(shared.spawn_worker());
            }
            shared.core.publish(&workers);
        }

        let emitter = {
            let shared = Arc::clone(&shared);
            let sched = self.sched;
            std::thread::Builder::new()
                .name(format!("{}-emitter", self.name))
                .spawn(move || shared.core.emitter(input_rx, sched, |x| x, || {}))
                .expect("spawn emitter thread")
        };

        let collector = {
            let shared = Arc::clone(&shared);
            let gather = self.gather;
            std::thread::Builder::new()
                .name(format!("{}-collector", self.name))
                .spawn(move || shared.core.collector(results_rx, output_tx, gather))
                .expect("spawn collector thread")
        };

        Farm {
            input: input_tx,
            output: output_rx,
            shared,
            emitter: Some(emitter),
            collector: Some(collector),
        }
    }
}

/// A running task farm.
pub struct Farm<In, Out> {
    input: Sender<StreamMsg<In>>,
    output: Receiver<StreamMsg<Out>>,
    shared: Arc<Shared<In, Out>>,
    emitter: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl<In: Send + 'static, Out: Send + 'static> Farm<In, Out> {
    /// The input channel: send `StreamMsg::Item`s then `StreamMsg::End`.
    pub fn input(&self) -> Sender<StreamMsg<In>> {
        self.input.clone()
    }

    /// The output channel: items followed by `StreamMsg::End`.
    pub fn output(&self) -> Receiver<StreamMsg<Out>> {
        self.output.clone()
    }

    /// The control surface an ABC binds to.
    pub fn control(&self) -> Arc<dyn FarmControl> {
        Arc::clone(&self.shared) as Arc<dyn FarmControl>
    }

    /// Current parallelism degree.
    pub fn num_workers(&self) -> usize {
        self.shared.core.table.load().len()
    }

    /// Cumulative workers lost to faults.
    pub fn workers_lost(&self) -> u64 {
        self.shared.core.sensors.workers_lost.load(Ordering::SeqCst)
    }

    /// Waits for the stream to complete (End observed on the output side
    /// by the collector) and tears all threads down. The report surfaces
    /// every worker panic instead of discarding join errors.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.join_all()
    }

    fn join_all(&mut self) -> ShutdownReport {
        let core = &self.shared.core;
        core.terminating.store(true, Ordering::SeqCst);
        if let Some(e) = self.emitter.take() {
            core.record_join("emitter", e.join());
        }
        if let Some(c) = self.collector.take() {
            core.record_join("collector", c.join());
        }
        let handles: Vec<WorkerHandle<In>> = std::mem::take(&mut *self.shared.workers.lock());
        for h in &handles {
            h.slot.queue.close();
        }
        core.table.publish(Vec::new());
        for h in handles {
            core.record_join("worker", h.thread.join());
        }
        for t in std::mem::take(&mut *self.shared.retired.lock()) {
            core.record_join("retired worker", t.join());
        }
        for t in std::mem::take(&mut *self.shared.dead.lock()) {
            core.record_join("dead worker", t.join());
        }
        core.shutdown_report(Vec::new())
    }
}

impl<In, Out> Drop for Farm<In, Out> {
    fn drop(&mut self) {
        // Best-effort shutdown: close the per-worker queues so workers
        // exit (the emitter, if still running, drops unplaceable tasks).
        // Collector exits when results senders drop.
        self.shared.core.terminating.store(true, Ordering::SeqCst);
        let handles: Vec<WorkerHandle<In>> = std::mem::take(&mut *self.shared.workers.lock());
        for h in &handles {
            h.slot.queue.close();
        }
        let dead = std::mem::take(&mut *self.shared.dead.lock());
        for thread in handles.into_iter().map(|h| h.thread).chain(dead) {
            if let Err(payload) = thread.join() {
                // Not silently dropped even on the best-effort path.
                eprintln!(
                    "farm {}: worker panicked: {}",
                    self.shared.core.name,
                    panic_message(payload.as_ref())
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<O: Send + 'static>(rx: &Receiver<StreamMsg<O>>) -> Vec<(u64, O)> {
        let mut out = Vec::new();
        for msg in rx.iter() {
            match msg {
                StreamMsg::Item { seq, payload } => out.push((seq, payload)),
                StreamMsg::End => break,
            }
        }
        out
    }

    #[test]
    fn farm_processes_all_tasks() {
        let farm = FarmBuilder::from_fn(|x: u64| x * 2)
            .initial_workers(4)
            .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let mut results = drain(&farm.output());
        results.sort_unstable();
        assert_eq!(results.len(), 100);
        for (i, (seq, val)) in results.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*val, seq * 2);
        }
        farm.shutdown();
    }

    #[test]
    fn ordered_gather_preserves_sequence() {
        // Variable service time scrambles completion order; ordered gather
        // must still deliver 0..n in order.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros((x % 7) * 300));
            x
        })
        .initial_workers(8)
        .gather(GatherPolicy::Ordered)
        .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        let vals: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (0..200).collect::<Vec<_>>());
        farm.shutdown();
    }

    #[test]
    fn add_workers_takes_effect() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(1).build();
        assert_eq!(farm.num_workers(), 1);
        let ctl = farm.control();
        assert_eq!(ctl.add_workers(3), Ok(3));
        assert_eq!(farm.num_workers(), 4);
        // New workers actually process tasks.
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 50);
        farm.shutdown();
    }

    #[test]
    fn add_workers_respects_cap() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(2)
            .max_workers(3)
            .build();
        let ctl = farm.control();
        assert!(ctl.add_workers(2).is_err());
        assert_eq!(ctl.add_workers(1), Ok(1));
        assert_eq!(farm.num_workers(), 3);
        let tx = farm.input();
        tx.send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn remove_workers_redistributes_and_completes() {
        // Slow workers with queued work: removing one must not lose tasks.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        let ctl = farm.control();
        // Give the emitter a moment to spread the queue.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctl.remove_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 2);
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 100, "no task lost");
        farm.shutdown();
    }

    #[test]
    fn cannot_remove_last_worker() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(1).build();
        assert!(farm.control().remove_workers(1).is_err());
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn rebalance_moves_queued_tasks() {
        // Block all workers on a first long task, queue everything on
        // round-robin, then skew by stuffing one queue via shortest-queue
        // impossibility — instead simply verify rebalance reports movement
        // when queues are skewed by construction.
        let farm = FarmBuilder::from_fn(|x: u64| {
            if x == u64::MAX {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            x
        })
        .initial_workers(2)
        .sched(SchedPolicy::RoundRobin)
        .build();
        let tx = farm.input();
        // Two blockers occupy both workers...
        tx.send(StreamMsg::item(0, u64::MAX)).unwrap();
        tx.send(StreamMsg::item(1, u64::MAX)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        // ...then add a third worker and queue more tasks round-robin over
        // all three; the new worker drains its share instantly while the
        // blocked two accumulate — skew guaranteed.
        let ctl = farm.control();
        ctl.add_workers(1).unwrap();
        for i in 2..30 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        let snap = ctl.sense(0.0);
        if snap.queue_variance > 0.0 {
            assert!(ctl.rebalance(), "skewed queues should rebalance");
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 30);
        farm.shutdown();
    }

    #[test]
    fn rebalance_on_balanced_queues_is_noop() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(3).build();
        assert!(!farm.control().rebalance());
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn sense_reports_structure_and_flags() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(3).build();
        let ctl = farm.control();
        let snap = ctl.sense(0.0);
        assert_eq!(snap.num_workers, 3);
        assert!(!snap.end_of_stream);
        let tx = farm.input();
        tx.send(StreamMsg::End).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let snap = ctl.sense(1.0);
        assert!(snap.end_of_stream);
        farm.shutdown();
    }

    #[test]
    fn throughput_sensing_sees_departures() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(2)
            .rate_window(5.0)
            .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 200);
        // The farm's RealClock started at build time, so all departures
        // were recorded well inside the 5 s window ending "now" ~= 0+.
        let snap = farm.control().sense(0.1);
        assert!(snap.departure_rate > 0.0, "departures recorded");
        farm.shutdown();
    }

    #[test]
    fn service_time_sensing_merges_worker_cells() {
        // Workers sleep ~2 ms per task; the merged service-time statistic
        // must land in that vicinity and count every task.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..40 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 40);
        let snap = farm.control().sense(0.0);
        assert!(
            snap.service_time >= 0.001,
            "merged mean service time reflects the sleep, got {}",
            snap.service_time
        );
        farm.shutdown();
    }

    #[test]
    fn shortest_queue_policy_runs() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(3)
            .sched(SchedPolicy::ShortestQueue)
            .build();
        let tx = farm.input();
        for i in 0..60 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 60);
        farm.shutdown();
    }

    #[test]
    fn stateful_workers_keep_per_worker_state() {
        // Each worker counts its own tasks; totals must equal the stream
        // length (factory state is per worker-thread, no sharing).
        let farm = FarmBuilder::new(|| {
            let mut count = 0u64;
            move |_: u64| {
                count += 1;
                count
            }
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 100);
        // Max per-worker counter can't exceed the stream length and the
        // sum of the final counters equals 100; spot-check bounds.
        assert!(results.iter().all(|(_, c)| *c >= 1 && *c <= 100));
        farm.shutdown();
    }

    #[test]
    fn empty_stream_completes() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(2).build();
        farm.input().send(StreamMsg::End).unwrap();
        assert!(drain(&farm.output()).is_empty());
        farm.shutdown();
    }

    #[test]
    fn panicking_worker_does_not_hang_the_farm() {
        // The headline bug: one poisoned task used to strand its batch and
        // the End accounting never converged. Every non-poisoned task must
        // still be delivered and the stream must End.
        let farm = FarmBuilder::from_fn(|x: u64| {
            assert!(x != 13, "poisoned task");
            x * 2
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let mut vals: Vec<u64> = drain(&farm.output()).into_iter().map(|(_, v)| v).collect();
        vals.sort_unstable();
        let want: Vec<u64> = (0..100).filter(|&x| x != 13).map(|x| x * 2).collect();
        assert_eq!(vals, want, "every non-poisoned task delivered");
        // The dying worker deregisters itself on its own thread; give it
        // a moment if End raced ahead of its bookkeeping.
        for _ in 0..500 {
            if farm.workers_lost() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(farm.workers_lost(), 1);
        assert_eq!(farm.num_workers(), 3, "the panicked worker left the pool");
        let report = farm.shutdown();
        assert!(!report.is_clean());
        assert_eq!(report.worker_panics.len(), 1);
        assert!(report.worker_panics[0].contains("poisoned task"));
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == FarmEventKind::WorkerPanic));
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == FarmEventKind::WorkerLost));
    }

    #[test]
    fn panicking_worker_ordered_gather_skips_the_hole() {
        // Ordered gather must step over the poisoned sequence number and
        // keep the output densely renumbered.
        let farm = FarmBuilder::from_fn(|x: u64| {
            assert!(x != 7, "poisoned task");
            x
        })
        .initial_workers(4)
        .gather(GatherPolicy::Ordered)
        .build();
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        let want_vals: Vec<u64> = (0..50).filter(|&x| x != 7).collect();
        let vals: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, want_vals, "order preserved around the hole");
        let seqs: Vec<u64> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..49).collect::<Vec<_>>(), "dense renumbering");
        farm.shutdown();
    }

    #[test]
    fn kill_workers_recovers_backlog_and_counts_losses() {
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        // Let queues build up, then kill half the pool abruptly.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ctl = farm.control();
        assert_eq!(ctl.kill_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 2);
        assert_eq!(ctl.workers_lost(), 2);
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 200, "no task lost");
        assert_eq!(farm.num_workers(), 2, "no manager, so nothing respawns");
        let lost = ctl
            .events()
            .iter()
            .filter(|e| e.kind == FarmEventKind::WorkerLost)
            .count();
        assert_eq!(lost, 2);
        let report = farm.shutdown();
        assert_eq!(report.workers_lost, 2);
        assert!(report.worker_panics.is_empty(), "kills are not panics");
    }

    #[test]
    fn kill_all_workers_parks_tasks_until_pool_restored() {
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros(500));
            x
        })
        .initial_workers(2)
        .build();
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ctl = farm.control();
        assert_eq!(ctl.kill_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 0, "whole pool dead");
        // Undispatched tasks park; restoring capacity resumes them.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctl.add_workers(2), Ok(2));
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 50, "parked tasks resumed");
        assert_eq!(farm.workers_lost(), 2);
        farm.shutdown();
    }

    #[test]
    fn kill_more_than_pool_is_an_error() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(2).build();
        assert!(farm.control().kill_workers(3).is_err());
        farm.input().send(StreamMsg::End).unwrap();
        let report = farm.shutdown();
        assert!(report.is_clean());
    }

    #[test]
    fn removal_mid_stream_with_slow_emitter_loses_nothing() {
        // Interleave sends with removals so the emitter's cached table
        // goes stale repeatedly; the bounce-and-redispatch path must keep
        // the stream complete.
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(6)
            .gather(GatherPolicy::Ordered)
            .build();
        let ctl = farm.control();
        let tx = farm.input();
        for i in 0..300 {
            tx.send(StreamMsg::item(i, i)).unwrap();
            if i == 100 {
                ctl.remove_workers(2).unwrap();
            }
            if i == 200 {
                ctl.remove_workers(2).unwrap();
            }
        }
        tx.send(StreamMsg::End).unwrap();
        let vals: Vec<u64> = drain(&farm.output()).into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, (0..300).collect::<Vec<_>>());
        assert_eq!(farm.num_workers(), 2);
        farm.shutdown();
    }
}

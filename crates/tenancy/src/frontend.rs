//! The multi-tenant front-end: bounded per-tenant admission queues, a
//! deficit-round-robin scheduler thread multiplexing them onto one shared
//! farm input, and a collector thread demultiplexing the farm output back
//! to per-tenant result streams.
//!
//! Isolation comes from two mechanisms working together:
//!
//! 1. **DRR dispatch order** ([`crate::drr`]): backlogged tenants are
//!    served in proportion to their live weights, so a flooding tenant
//!    cannot starve a modest one of *dispatch slots*.
//! 2. **Per-tenant in-flight caps**: each tenant may have at most
//!    `max(1, round(workers × share))` tasks inside the farm at once, so
//!    a flood cannot fill the worker queues and inflate the tail latency
//!    of a victim's next task: total in-flight stays near the worker
//!    count, and a freshly dispatched task finds a worker within about
//!    one service time. (Completions tick the scheduler, so the refill
//!    gap is dispatch latency, not a polling interval.)
//!
//! Sequence numbering is two-level: tenants see their own dense `seq`
//! assigned at admission; the farm sees a global sequence assigned at
//! dispatch. The collector maps global back to tenant sequence, which is
//! what lets one `GatherPolicy::Unordered` farm serve all tenants.

use crate::drr::Drr;
use crate::spec::{ShedPolicy, TenantSpec};
use bskel_monitor::{Clock, RateEstimator, RealClock, SensorSnapshot, Time};
use bskel_skel::{FarmControl, ShutdownReport, StreamMsg};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Window used by the per-tenant arrival/completion rate estimators.
const RATE_WINDOW: Time = 2.0;

/// Outcome of a [`TenantHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued. `seq` is the tenant-local sequence number; the result (or a
    /// [`TenantMsg::Lost`]) will carry it. Under
    /// [`ShedPolicy::ShedOldest`] an older queued task may have been
    /// evicted to make room — the eviction arrives as a `Lost` on the
    /// output stream.
    Admitted {
        /// Tenant-local sequence number of the accepted task.
        seq: u64,
    },
    /// Queue full under [`ShedPolicy::Reject`]: the task was shed at the
    /// door. The sequence number is still consumed (numbering stays
    /// dense) and a [`TenantMsg::Lost`] is queued on the output stream.
    Rejected {
        /// Tenant-local sequence number consumed by the shed task.
        seq: u64,
    },
    /// The tenant stream is closed; nothing was consumed.
    Closed,
}

/// Why a task produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// Dropped by admission control (queue bound or `SHED_LOAD`).
    Shed,
    /// Dispatched into the farm but poisoned by a worker panic.
    WorkerLost,
}

/// Per-tenant output stream element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantMsg<Out> {
    /// A result, tagged with the tenant-local sequence number.
    Item {
        /// Tenant-local sequence of the task this result answers.
        seq: u64,
        /// The result payload.
        payload: Out,
    },
    /// Task `seq` will never produce a result.
    Lost {
        /// Tenant-local sequence of the lost task.
        seq: u64,
        /// What happened to it.
        reason: LossReason,
    },
    /// No further messages for this tenant: the stream is closed and all
    /// accepted tasks are accounted (completed, shed, or lost).
    End,
}

/// Errors from [`TenantFrontEnd::attach`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// A tenant with this name is already attached.
    Duplicate(String),
    /// The shared stream has ended (shutdown already initiated).
    Closed,
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::Duplicate(n) => write!(f, "tenant {n:?} is already attached"),
            AttachError::Closed => f.write_str("front-end is shut down"),
        }
    }
}

impl std::error::Error for AttachError {}

/// A queued task awaiting dispatch.
struct Queued<In> {
    seq: u64,
    at: Time,
    payload: In,
}

/// All mutable state of one tenant.
struct TenantState<In, Out> {
    spec: TenantSpec,
    /// Live DRR weight; starts at `spec.weight`, adjusted by
    /// `GROW_SHARE` / `SHRINK_SHARE` actuations.
    weight: f64,
    queue: VecDeque<Queued<In>>,
    next_seq: u64,
    submitted: u64,
    shed: u64,
    completed: u64,
    lost: u64,
    in_flight: u64,
    closed: bool,
    /// `TenantMsg::End` delivered.
    finished: bool,
    out_tx: Sender<TenantMsg<Out>>,
    arrivals: RateEstimator,
    completions: RateEstimator,
    /// Admission-to-result latency of every completed task, seconds.
    latencies: Vec<f64>,
    /// AIMD adaptation of this tenant's in-flight cap (see
    /// [`crate::aimd::InFlightAimd`]).
    cap_aimd: crate::aimd::InFlightAimd,
}

impl<In, Out> TenantState<In, Out> {
    fn new(spec: TenantSpec, out_tx: Sender<TenantMsg<Out>>) -> Self {
        let weight = spec.weight;
        Self {
            spec,
            weight,
            queue: VecDeque::new(),
            next_seq: 0,
            submitted: 0,
            shed: 0,
            completed: 0,
            lost: 0,
            in_flight: 0,
            closed: false,
            finished: false,
            out_tx,
            arrivals: RateEstimator::new(RATE_WINDOW),
            completions: RateEstimator::new(RATE_WINDOW),
            latencies: Vec::new(),
            cap_aimd: crate::aimd::InFlightAimd::new(),
        }
    }

    /// Sheds one queued task (front of the queue), notifying the output
    /// stream.
    fn shed_front(&mut self) {
        if let Some(q) = self.queue.pop_front() {
            self.shed += 1;
            let _ = self.out_tx.send(TenantMsg::Lost {
                seq: q.seq,
                reason: LossReason::Shed,
            });
        }
    }

    /// Delivers `End` once the tenant is closed and fully accounted.
    fn maybe_finish(&mut self) {
        if self.closed && !self.finished && self.queue.is_empty() && self.in_flight == 0 {
            self.finished = true;
            let _ = self.out_tx.send(TenantMsg::End);
        }
    }
}

/// State shared by handles, scheduler, collector, and the ABCs.
struct Inner<In, Out> {
    tenants: Vec<TenantState<In, Out>>,
    /// Global farm sequence → (tenant index, tenant seq, admission time).
    in_flight_map: HashMap<u64, (usize, u64, Time)>,
    drr: Drr,
    /// `StreamMsg::End` has been sent to the farm input.
    end_sent: bool,
}

impl<In, Out> Inner<In, Out> {
    /// Normalised share of tenant `i` among unfinished tenants.
    fn share_of(&self, i: usize) -> f64 {
        let total: f64 = self
            .tenants
            .iter()
            .filter(|t| !t.finished)
            .map(|t| t.weight)
            .sum();
        if total <= 0.0 || self.tenants[i].finished {
            0.0
        } else {
            self.tenants[i].weight / total
        }
    }
}

/// Shared core of the front-end (see [`TenantFrontEnd`]).
pub(crate) struct FrontShared<In, Out> {
    inner: Mutex<Inner<In, Out>>,
    pub(crate) control: Arc<dyn FarmControl>,
    clock: Arc<dyn Clock>,
    next_global: AtomicU64,
    /// Shutdown requested: the scheduler may send `End` once drained.
    closing: AtomicBool,
    tick_tx: Sender<()>,
}

impl<In, Out> FrontShared<In, Out> {
    fn tick(&self) {
        let _ = self.tick_tx.send(());
    }

    /// Per-tenant sensor snapshot for [`crate::abc::TenantAbc`].
    pub(crate) fn sense_tenant(&self, i: usize, now: Time) -> SensorSnapshot {
        let mut inner = self.inner.lock();
        let share = inner.share_of(i);
        let workers = self.control.num_workers() as u32;
        let t = &mut inner.tenants[i];
        let mut s = SensorSnapshot::empty(now);
        s.arrival_rate = t.arrivals.rate(now);
        s.departure_rate = t.completions.rate(now);
        s.tenant_throughput = s.departure_rate;
        s.tenant_queue_depth = t.queue.len() as u64;
        s.queued_tasks = t.queue.len() as u64 + t.in_flight;
        s.tenant_share = share;
        s.tasks_shed = t.shed;
        s.num_workers = workers;
        s.end_of_stream = t.closed && t.queue.is_empty() && t.in_flight == 0;
        s
    }

    /// Pool-level snapshot for [`crate::abc::ArbiterAbc`]: the farm's own
    /// sensors plus tenant aggregates (total admission backlog and sheds).
    pub(crate) fn sense_pool(&self, now: Time) -> SensorSnapshot {
        let mut s = self.control.sense(now);
        let inner = self.inner.lock();
        s.tenant_share = 1.0;
        s.tenant_throughput = s.departure_rate;
        s.tenant_queue_depth = inner.tenants.iter().map(|t| t.queue.len() as u64).sum();
        s.tasks_shed = inner.tenants.iter().map(|t| t.shed).sum();
        s
    }

    /// Scales tenant `i`'s weight by `factor` (clamped to a sane range).
    /// Returns the new weight if it changed.
    pub(crate) fn scale_weight(&self, i: usize, factor: f64) -> Option<f64> {
        let mut inner = self.inner.lock();
        let t = &mut inner.tenants[i];
        let new = (t.weight * factor).clamp(1e-3, 1e9);
        if (new - t.weight).abs() < f64::EPSILON {
            return None;
        }
        t.weight = new;
        drop(inner);
        self.tick();
        Some(new)
    }

    /// Sheds queued tasks from tenant `i` down to half its queue capacity
    /// (the `SHED_LOAD` actuator). Returns how many were dropped.
    pub(crate) fn shed_to_half(&self, i: usize) -> u64 {
        let mut inner = self.inner.lock();
        let t = &mut inner.tenants[i];
        let target = t.spec.queue_capacity / 2;
        let mut dropped = 0;
        while t.queue.len() > target {
            t.shed_front();
            dropped += 1;
        }
        dropped
    }

    /// Tenant stats snapshot (shared by handles and reports).
    fn stats_of(&self, i: usize, now: Time) -> TenantStats {
        let mut inner = self.inner.lock();
        let share = inner.share_of(i);
        let t = &mut inner.tenants[i];
        TenantStats {
            name: t.spec.name.clone(),
            submitted: t.submitted,
            shed: t.shed,
            completed: t.completed,
            lost: t.lost,
            queue_depth: t.queue.len() as u64,
            in_flight: t.in_flight,
            weight: t.weight,
            share,
            arrival_rate: t.arrivals.rate(now),
            throughput: t.completions.rate(now),
            cap_factor: t.cap_aimd.factor(),
        }
    }

    /// `q`-quantile (0..=1) of tenant `i`'s completed-task latency.
    fn latency_quantile(&self, i: usize, q: f64) -> Option<f64> {
        let inner = self.inner.lock();
        let lat = &inner.tenants[i].latencies;
        if lat.is_empty() {
            return None;
        }
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency is never NaN"));
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }
}

/// Point-in-time statistics for one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Tasks ever submitted (admitted + rejected).
    pub submitted: u64,
    /// Tasks dropped by admission control or `SHED_LOAD`.
    pub shed: u64,
    /// Results delivered.
    pub completed: u64,
    /// Tasks poisoned by worker panics.
    pub lost: u64,
    /// Tasks waiting in the admission queue.
    pub queue_depth: u64,
    /// Tasks currently inside the farm.
    pub in_flight: u64,
    /// Live DRR weight.
    pub weight: f64,
    /// Normalised share (0..1).
    pub share: f64,
    /// Submissions per second over the rate window.
    pub arrival_rate: f64,
    /// Results per second over the rate window.
    pub throughput: f64,
    /// AIMD multiplicative factor on the static in-flight cap (see
    /// `crate::aimd::InFlightAimd`).
    pub cap_factor: f64,
}

/// Final per-tenant accounting, from [`TenantFrontEnd::shutdown`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Tasks ever submitted.
    pub submitted: u64,
    /// Tasks shed by admission control.
    pub shed: u64,
    /// Results delivered.
    pub completed: u64,
    /// Tasks lost to worker panics.
    pub lost: u64,
}

impl TenantReport {
    /// Every submitted task is accounted as completed, shed, or lost.
    pub fn accounted(&self) -> bool {
        self.submitted == self.completed + self.shed + self.lost
    }
}

/// Front-end shutdown summary: per-tenant accounting plus the pool's own
/// [`ShutdownReport`] when the front-end owns the farm.
#[derive(Debug)]
pub struct TenancyReport {
    /// Per-tenant final accounting, in attach order.
    pub tenants: Vec<TenantReport>,
    /// The owned farm's shutdown report (`None` for
    /// [`TenantFrontEnd::over_pool`] fronts, which borrow the pool).
    pub pool: Option<ShutdownReport>,
}

impl TenancyReport {
    /// True when every tenant's ledger balances and nothing was lost to
    /// failures (sheds are deliberate and allowed).
    pub fn is_loss_free(&self) -> bool {
        self.tenants.iter().all(|t| t.accounted() && t.lost == 0)
    }
}

impl fmt::Display for TenancyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tenants {
            writeln!(
                f,
                "{}: submitted={} completed={} shed={} lost={}{}",
                t.name,
                t.submitted,
                t.completed,
                t.shed,
                t.lost,
                if t.accounted() { "" } else { "  UNACCOUNTED" }
            )?;
        }
        Ok(())
    }
}

/// A tenant's handle on the front-end: submit tasks, read the result
/// stream, observe stats.
pub struct TenantHandle<In, Out> {
    index: usize,
    name: String,
    shared: Arc<FrontShared<In, Out>>,
    rx: Receiver<TenantMsg<Out>>,
}

// Manual impl: a handle is cloneable regardless of the stream types (a
// derive would demand `In: Clone, Out: Clone`). Clones share the tenant's
// one output channel — messages go to whichever clone receives first.
impl<In, Out> Clone for TenantHandle<In, Out> {
    fn clone(&self) -> Self {
        Self {
            index: self.index,
            name: self.name.clone(),
            shared: Arc::clone(&self.shared),
            rx: self.rx.clone(),
        }
    }
}

impl<In: Send + 'static, Out: Send + 'static> TenantHandle<In, Out> {
    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits a task through admission control. Never blocks: a full
    /// queue sheds (per the tenant's [`ShedPolicy`]) instead of exerting
    /// backpressure, which is what keeps tenants unable to stall each
    /// other at the front door.
    pub fn submit(&self, payload: In) -> Admission {
        let now = self.shared.clock.now();
        let mut inner = self.shared.inner.lock();
        let t = &mut inner.tenants[self.index];
        if t.closed {
            return Admission::Closed;
        }
        let seq = t.next_seq;
        t.next_seq += 1;
        t.submitted += 1;
        t.arrivals.record(now);
        let admission = if t.queue.len() >= t.spec.queue_capacity {
            match t.spec.shed_policy {
                ShedPolicy::Reject => {
                    t.shed += 1;
                    let _ = t.out_tx.send(TenantMsg::Lost {
                        seq,
                        reason: LossReason::Shed,
                    });
                    Admission::Rejected { seq }
                }
                ShedPolicy::ShedOldest => {
                    t.shed_front();
                    t.queue.push_back(Queued {
                        seq,
                        at: now,
                        payload,
                    });
                    Admission::Admitted { seq }
                }
            }
        } else {
            t.queue.push_back(Queued {
                seq,
                at: now,
                payload,
            });
            Admission::Admitted { seq }
        };
        drop(inner);
        self.shared.tick();
        admission
    }

    /// Closes the tenant stream: no further submissions; outstanding work
    /// still completes and the output stream ends with [`TenantMsg::End`]
    /// once everything is accounted.
    pub fn close(&self) {
        let mut inner = self.shared.inner.lock();
        let t = &mut inner.tenants[self.index];
        t.closed = true;
        t.maybe_finish();
        drop(inner);
        self.shared.tick();
    }

    /// The tenant's result stream.
    pub fn output(&self) -> &Receiver<TenantMsg<Out>> {
        &self.rx
    }

    /// The tenant's QoS contract, as attached.
    pub fn contract(&self) -> bskel_core::Contract {
        self.shared.inner.lock().tenants[self.index]
            .spec
            .contract
            .clone()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> TenantStats {
        let now = self.shared.clock.now();
        self.shared.stats_of(self.index, now)
    }

    /// `q`-quantile (0..=1) of admission-to-result latency, in seconds.
    /// `None` until the first result.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.shared.latency_quantile(self.index, q)
    }
}

/// The multi-tenant front-end over one shared farm. See the module docs
/// for the moving parts.
pub struct TenantFrontEnd<In, Out> {
    shared: Arc<FrontShared<In, Out>>,
    farm: Option<bskel_skel::Farm<In, Out>>,
    scheduler: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl<In: Send + 'static, Out: Send + 'static> TenantFrontEnd<In, Out> {
    /// Fronts a farm the front-end takes ownership of;
    /// [`TenantFrontEnd::shutdown`] will shut the farm down too and
    /// include its [`ShutdownReport`] in the [`TenancyReport`].
    pub fn over_farm(farm: bskel_skel::Farm<In, Out>) -> Self {
        let input = farm.input();
        let output = farm.output();
        let control = farm.control();
        let mut fe = Self::over_pool(input, output, control);
        fe.farm = Some(farm);
        fe
    }

    /// Fronts a borrowed pool through its stream endpoints and control
    /// surface (e.g. a remote farm behind `bskel_net`).
    pub fn over_pool(
        input: Sender<StreamMsg<In>>,
        output: Receiver<StreamMsg<Out>>,
        control: Arc<dyn FarmControl>,
    ) -> Self {
        let (tick_tx, tick_rx) = unbounded();
        let shared = Arc::new(FrontShared {
            inner: Mutex::new(Inner {
                tenants: Vec::new(),
                in_flight_map: HashMap::new(),
                drr: Drr::new(),
                end_sent: false,
            }),
            control,
            clock: Arc::new(RealClock::new()),
            next_global: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            tick_tx,
        });

        let sched_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("tenancy-sched".into())
            .spawn(move || scheduler_loop(&sched_shared, &tick_rx, &input))
            .expect("spawn tenancy scheduler");

        let coll_shared = Arc::clone(&shared);
        let collector = std::thread::Builder::new()
            .name("tenancy-collect".into())
            .spawn(move || collector_loop(&coll_shared, &output))
            .expect("spawn tenancy collector");

        Self {
            shared,
            farm: None,
            scheduler: Some(scheduler),
            collector: Some(collector),
        }
    }

    /// Attaches a tenant stream.
    pub fn attach(&self, spec: TenantSpec) -> Result<TenantHandle<In, Out>, AttachError> {
        let mut inner = self.shared.inner.lock();
        if inner.end_sent {
            return Err(AttachError::Closed);
        }
        if inner.tenants.iter().any(|t| t.spec.name == spec.name) {
            return Err(AttachError::Duplicate(spec.name));
        }
        let (out_tx, rx) = unbounded();
        let name = spec.name.clone();
        inner.tenants.push(TenantState::new(spec, out_tx));
        let index = inner.tenants.len() - 1;
        drop(inner);
        Ok(TenantHandle {
            index,
            name,
            shared: Arc::clone(&self.shared),
            rx,
        })
    }

    /// The shared pool's control surface.
    pub fn control(&self) -> Arc<dyn FarmControl> {
        Arc::clone(&self.shared.control)
    }

    /// An ABC exposing tenant `handle` to its per-tenant manager.
    pub(crate) fn tenant_abc(
        &self,
        handle: &TenantHandle<In, Out>,
    ) -> crate::abc::TenantAbc<In, Out> {
        crate::abc::TenantAbc::new(Arc::clone(&self.shared), handle.index)
    }

    /// An ABC exposing the shared pool to the arbiter manager.
    pub(crate) fn arbiter_abc(&self) -> crate::abc::ArbiterAbc<In, Out> {
        crate::abc::ArbiterAbc::new(Arc::clone(&self.shared))
    }

    /// Registers one scrape source per tenant attached so far — the
    /// exposition `tenant` label carries the real tenant name — plus the
    /// aggregate pool under the reserved `_pool` label. Tenants attached
    /// *after* this call need another call to appear in scrapes.
    pub fn register_metrics(&self, hub: &bskel_net::MetricsHub) {
        let names: Vec<String> = {
            let inner = self.shared.inner.lock();
            inner.tenants.iter().map(|t| t.spec.name.clone()).collect()
        };
        for (i, name) in names.into_iter().enumerate() {
            let beans = Arc::clone(&self.shared);
            let counts = Arc::clone(&self.shared);
            hub.register(
                name.clone(),
                format!("AM_T_{name}"),
                move || {
                    let now = beans.clock.now();
                    beans.sense_tenant(i, now)
                },
                move || {
                    let now = counts.clock.now();
                    let st = counts.stats_of(i, now);
                    vec![
                        ("taskDone".to_string(), st.completed),
                        ("shed".to_string(), st.shed),
                        ("lost".to_string(), st.lost),
                    ]
                },
            );
        }
        let pool = Arc::clone(&self.shared);
        hub.register(
            "_pool",
            "AM_POOL",
            move || {
                let now = pool.clock.now();
                pool.sense_pool(now)
            },
            Vec::new,
        );
    }

    /// Closes every tenant, drains the queues into the farm, ends the
    /// shared stream, and returns the final accounting. Blocks until the
    /// farm has delivered or accounted every dispatched task.
    pub fn shutdown(mut self) -> TenancyReport {
        {
            let mut inner = self.shared.inner.lock();
            for t in &mut inner.tenants {
                t.closed = true;
                t.maybe_finish();
            }
        }
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.tick();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.collector.take() {
            let _ = h.join();
        }
        let pool = self.farm.take().map(bskel_skel::Farm::shutdown);
        let inner = self.shared.inner.lock();
        let tenants = inner
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.spec.name.clone(),
                submitted: t.submitted,
                shed: t.shed,
                completed: t.completed,
                lost: t.lost,
            })
            .collect();
        TenancyReport { tenants, pool }
    }
}

/// Scheduler thread: waits for ticks (submissions, completions, share
/// changes) and dispatches by DRR; once shutdown is requested and every
/// queue has drained, forwards `End` to the farm and exits.
fn scheduler_loop<In: Send + 'static, Out: Send + 'static>(
    shared: &FrontShared<In, Out>,
    tick_rx: &Receiver<()>,
    farm_input: &Sender<StreamMsg<In>>,
) {
    loop {
        match tick_rx.recv_timeout(Duration::from_millis(1)) {
            Ok(()) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let mut inner = shared.inner.lock();
        dispatch(&mut inner, shared, farm_input);
        if shared.closing.load(Ordering::SeqCst)
            && !inner.end_sent
            && inner.tenants.iter().all(|t| t.queue.is_empty())
        {
            inner.end_sent = true;
            let _ = farm_input.send(StreamMsg::End);
            return;
        }
    }
}

/// One dispatch pass under the lock: DRR rounds until no tenant is both
/// backlogged and under its in-flight cap.
fn dispatch<In, Out>(
    inner: &mut Inner<In, Out>,
    shared: &FrontShared<In, Out>,
    farm_input: &Sender<StreamMsg<In>>,
) {
    let n = inner.tenants.len();
    if n == 0 || inner.end_sent {
        return;
    }
    let workers = shared.control.num_workers().max(1) as f64;
    let total_w: f64 = inner
        .tenants
        .iter()
        .filter(|t| !t.finished)
        .map(|t| t.weight)
        .sum();
    let weights: Vec<f64> = inner.tenants.iter().map(|t| t.weight).collect();
    let now = shared.clock.now();
    let caps: Vec<u64> = inner
        .tenants
        .iter_mut()
        .map(|t| {
            let share = if total_w > 0.0 {
                t.weight / total_w
            } else {
                0.0
            };
            let base = ((workers * share).round() as u64).max(1);
            // AIMD depth adaptation: grow the cap while the tenant is
            // backlogged and clean, halve it the moment it sheds.
            t.cap_aimd.observe(now, t.shed, !t.queue.is_empty());
            t.cap_aimd.apply(base)
        })
        .collect();
    loop {
        let backlogged: Vec<bool> = inner
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| !t.queue.is_empty() && t.in_flight < caps[i])
            .collect();
        if !inner.drr.begin_round(&weights, &backlogged) {
            break;
        }
        let mut progress = false;
        for i in 0..n {
            if !backlogged[i] {
                if inner.tenants[i].queue.is_empty() {
                    inner.drr.reset(i);
                }
                continue;
            }
            while inner.tenants[i].in_flight < caps[i]
                && !inner.tenants[i].queue.is_empty()
                && inner.drr.try_take(i)
            {
                let q = inner.tenants[i]
                    .queue
                    .pop_front()
                    .expect("backlogged queue is non-empty");
                let gseq = shared.next_global.fetch_add(1, Ordering::Relaxed);
                inner.in_flight_map.insert(gseq, (i, q.seq, q.at));
                inner.tenants[i].in_flight += 1;
                let _ = farm_input.send(StreamMsg::Item {
                    seq: gseq,
                    payload: q.payload,
                });
                progress = true;
            }
            if inner.tenants[i].queue.is_empty() {
                inner.drr.reset(i);
            }
        }
        if !progress {
            break;
        }
    }
}

/// Collector thread: demultiplexes farm results back to tenant streams;
/// on farm `End`, accounts any stranded in-flight tasks (worker panics)
/// as [`LossReason::WorkerLost`] and finishes every tenant stream.
fn collector_loop<In: Send + 'static, Out: Send + 'static>(
    shared: &FrontShared<In, Out>,
    farm_output: &Receiver<StreamMsg<Out>>,
) {
    for msg in farm_output.iter() {
        match msg {
            StreamMsg::Item { seq, payload } => {
                let mut inner = shared.inner.lock();
                if let Some((ti, tseq, admitted_at)) = inner.in_flight_map.remove(&seq) {
                    let now = shared.clock.now();
                    let t = &mut inner.tenants[ti];
                    t.in_flight -= 1;
                    t.completed += 1;
                    t.completions.record(now);
                    t.latencies.push(now - admitted_at);
                    let _ = t.out_tx.send(TenantMsg::Item { seq: tseq, payload });
                    t.maybe_finish();
                }
                drop(inner);
                shared.tick();
            }
            StreamMsg::End => {
                let mut inner = shared.inner.lock();
                let stranded: Vec<(usize, u64)> = inner
                    .in_flight_map
                    .drain()
                    .map(|(_, (ti, tseq, _))| (ti, tseq))
                    .collect();
                for (ti, tseq) in stranded {
                    let t = &mut inner.tenants[ti];
                    t.in_flight -= 1;
                    t.lost += 1;
                    let _ = t.out_tx.send(TenantMsg::Lost {
                        seq: tseq,
                        reason: LossReason::WorkerLost,
                    });
                }
                for t in &mut inner.tenants {
                    if !t.finished {
                        t.finished = true;
                        let _ = t.out_tx.send(TenantMsg::End);
                    }
                }
                return;
            }
        }
    }
}

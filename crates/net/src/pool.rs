//! The distributed worker pool: farm semantics over TCP remote workers.
//!
//! [`RemoteWorkerPool`] is the threaded farm with a different slot: it
//! runs on the farm's own core ([`FarmCore`]) — its emitter, loss-free
//! RCU dispatch, collector, redistribution, rebalancing, stream sensors
//! and fault bookkeeping — but each *slot* ([`FarmSlot`]) is a connection
//! to a `bskel-workerd` daemon instead of a local thread.
//!
//! All slot I/O runs on **one reactor thread** multiplexing every
//! connection through a readiness poller ([`crate::sys::Poller`], raw
//! `epoll`), instead of a reader + writer thread per slot plus a global
//! failure detector. The per-slot cost is therefore one nonblocking
//! socket, one send queue and one in-flight map — no stacks, no park/
//! unpark, no per-slot timers — which is what keeps a 256-slot fan-out as
//! cheap per slot as a 4-slot one:
//!
//! * **writes**: the reactor drains each slot's local [`WorkerQueue`] in
//!   wire batches, encodes them into pooled buffers ([`BufferPool`] — no
//!   per-frame allocation on the hot path) and ships them with vectored
//!   writes ([`SendQueue::write_to`] coalesces many frames into one
//!   syscall). `EPOLLOUT` interest is registered only while a send queue
//!   holds unflushed bytes. Every task is recorded in the slot's
//!   *in-flight map before it is even queued for the wire*, so a crash
//!   can never lose a task that was sent but not yet answered;
//! * **reads**: readiness wakes the reactor, which drains the socket
//!   through the incremental decoder and resolves `Result`/`Lost` frames
//!   zero-copy ([`crate::proto::Decoder::next_frame_view`]) into the
//!   collector channel, folding the daemon's piggybacked sensor beans
//!   into the slot. The reactor is the *single* thread that resolves
//!   in-flight entries, which is what makes crash recovery
//!   duplicate-free (see below);
//! * **timers**: heartbeat pings, per-slot silence deadlines, circuit
//!   breaker bookkeeping and the speculative-execution sweep are entries
//!   on a hashed `TimerWheel` serviced between polls — the poll timeout
//!   *is* the next deadline, so an idle pool sleeps in exactly one
//!   syscall. How late timers fire is exported as the
//!   `reactorLoopLagUs` sensor bean.
//!
//! **Crash recovery** has its own death path, because a dead connection
//! leaves an in-flight map behind where a dead thread leaves none: the
//! dying slot is removed from the published table *before* its queue
//! closes (bounced emitters re-dispatch onto survivors), then its queued
//! backlog *and* its in-flight map go through the core's redistribution
//! onto the surviving slots — or are parked until `add_workers` restores
//! capacity. Harvesting the in-flight
//! map is safe from duplicates precisely because the reactor both
//! resolves answers and runs the death path: once a connection is
//! finished no result for a harvested task can ever be forwarded.
//!
//! **Resilience policies** (set on the [`RemotePoolBuilder`]) sit
//! between the death/recovery machinery and the endpoints:
//!
//! * every endpoint carries a **circuit breaker** (Closed → Open →
//!   Half-Open): repeated connect failures or slot deaths inside a
//!   failure window open the circuit, after which `add_workers` stops
//!   hammering the endpoint until the cooldown elapses and a single
//!   Half-Open probe either closes the circuit or re-opens it with a
//!   longer backoff;
//! * reconnect attempts back off exponentially with **decorrelated
//!   jitter** (seeded, so schedules replay under a fixed
//!   [`RemotePoolBuilder::resilience_seed`]);
//! * an optional **soft task deadline** speculatively re-executes
//!   overdue in-flight tasks on a second slot. The speculation registry
//!   resolves the race: the first copy home wins, every other copy's
//!   in-flight entry is stripped (so death harvests cannot replay it)
//!   and late duplicates are counted and dropped — the collector's
//!   ordered stream never sees a sequence number twice.
//!
//! The pool implements [`FarmControl`], so the existing `FarmAbc`, rule
//! programs and contracts drive remote elasticity (ADD_WORKER connects a
//! new daemon slot, REMOVE_WORKER retires one cooperatively) with no rule
//! changes — remote workers are just workers with beans.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bskel_monitor::{Clock, Journal, RealClock, SensorSnapshot, Time, Welford};
use bskel_skel::farm::{
    panic_message, FarmControl, FarmCore, FarmEvent, FarmEventKind, FarmSlot, ShutdownReport,
};
use bskel_skel::queue::{Task, TryPop, WorkerQueue};
use bskel_skel::stream::StreamMsg;
use bskel_skel::{GatherPolicy, SchedPolicy};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use parking_lot::Mutex;

use crate::chaos::ChaosRng;
use crate::proto::{
    decode_hello_ack, decode_sensors, encode_frame, encode_hello, Decoder, FrameType, Hello,
    ProtoError,
};
use crate::reactor::{BufferPool, SendQueue, TimerWheel, WriteOutcome};
use crate::secure::{derive_session_keys, CostMeter, CostReport, MeteredCipher, StreamCipher};
use crate::sys::{Event, Interest, Poller, Waker};

/// Most tasks the reactor encodes per slot per fill (one send-queue chunk
/// per wire batch; `SendQueue::write_to` then coalesces many chunks into
/// one vectored syscall).
const WIRE_BATCH: usize = 32;
/// Most overdue tasks one slot may speculate per deadline sweep, so a
/// stalled slot with a deep in-flight map cannot flood the survivors. When
/// a retry budget is configured, it is the binding brake instead.
const SPEC_SWEEP_LIMIT: usize = 16;
/// How long a connect + handshake may take before the endpoint is
/// declared unreachable.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Rolling enqueue-to-delivery latency samples kept for hedging.
const LATENCY_WINDOW: usize = 512;
/// Delivery samples required before the hedge quantile is trusted (a
/// quantile over a handful of samples hedges on noise).
const HEDGE_MIN_SAMPLES: usize = 32;
/// Epoll token of the cross-thread waker eventfd (never a slot id).
const WAKER_TOKEN: u64 = u64::MAX;
/// Per-slot send-queue byte ceiling: the reactor stops encoding more
/// wire batches for a slot whose unflushed bytes exceed this, bounding
/// memory under a slow or stalled peer (backpressure stays visible in
/// the slot's local queue, where sensing and rebalancing can see it).
const SENDQ_HIGH_WATER: usize = 256 * 1024;
/// Most socket reads serviced per readiness event before yielding to the
/// other slots (level-triggered epoll re-signals whatever remains).
const MAX_READS_PER_EVENT: usize = 16;
/// Socket read chunk size.
const READ_CHUNK: usize = 64 * 1024;
/// Frame-buffer pool: how many recycled buffers to keep, and the largest
/// capacity worth keeping (a pathological frame's buffer is dropped).
const POOL_BUFFERS: usize = 64;
const POOL_BUF_CAP: usize = 128 * 1024;
/// Timer wheel resolution and bucket count.
const TICK: Duration = Duration::from_millis(1);
const WHEEL_SLOTS: usize = 256;

/// Clamps a builder-supplied duration into sane territory instead of
/// panicking — the `RateKnob::sanitize` idiom: actuator and builder
/// paths absorb nonsense, they do not abort the program.
fn clamp_duration(d: Duration) -> Duration {
    d.clamp(Duration::from_millis(1), Duration::from_secs(3600))
}

/// Encodes one input item to its wire payload.
pub(crate) type EncodeFn<In> = Arc<dyn Fn(In) -> Vec<u8> + Send + Sync>;
/// Decodes one result payload back to the output type.
pub(crate) type DecodeFn<Out> = Arc<dyn Fn(&[u8]) -> Out + Send + Sync>;

/// A `bskel-workerd` address the pool may open slots against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Whether slots on this endpoint run the secure channel.
    pub secure: bool,
}

impl Endpoint {
    /// A plain (clear-channel) endpoint.
    pub fn plain(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            secure: false,
        }
    }

    /// A secured endpoint (toy cipher + metered handshake).
    pub fn secure(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            secure: true,
        }
    }
}

/// Resilience policy knobs for a [`RemoteWorkerPool`]: reconnect backoff,
/// per-endpoint circuit breaking and soft task deadlines.
///
/// All durations are clamped (never panicking) into `[1ms, 1h]` when the
/// pool is built; `reconnect_cap` is raised to at least `reconnect_base`.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceConfig {
    /// First reconnect backoff step after an endpoint failure.
    pub reconnect_base: Duration,
    /// Upper bound the jittered backoff saturates at.
    pub reconnect_cap: Duration,
    /// Failures inside the window (10× the cooldown) that open the
    /// circuit. A failed Half-Open probe re-opens it regardless.
    pub breaker_threshold: u32,
    /// Minimum quarantine before an Open circuit is offered a Half-Open
    /// probe (the actual wait is `max(backoff, cooldown)`).
    pub breaker_cooldown: Duration,
    /// Soft per-task deadline: an in-flight task older than this is
    /// speculatively re-executed on a second slot. `None` disables
    /// speculation entirely (the default).
    pub task_deadline: Option<Duration>,
    /// Token-bucket retry budget gating every re-dispatch path
    /// (speculation, hedges, reconnect retries after a failure). `None`
    /// (the default) leaves re-dispatch uncapped.
    pub retry_budget: Option<RetryBudgetConfig>,
    /// Hedged dispatch: an in-flight task older than this rolling
    /// quantile of the enqueue-to-delivery latency distribution is
    /// duplicated onto a second slot (first result wins, via the
    /// speculation registry). `None` disables hedging (the default).
    pub hedge_quantile: Option<f64>,
    /// Seed for the backoff jitter, so reconnect schedules replay
    /// exactly under a fixed seed.
    pub seed: u64,
}

/// Finagle-style retry budget: every delivered result deposits `ratio`
/// tokens (capped), every re-dispatch withdraws one, and the bucket
/// starts (and idles) at `min_tokens` so cold starts and long quiet
/// periods still afford a little recovery work. Worker-loss recovery
/// re-queues are *never* blocked by the budget — loss freedom outranks
/// storm damping — but they are charged (down to zero), so a recovery
/// storm still suppresses discretionary speculation afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryBudgetConfig {
    /// Tokens deposited per successfully delivered result.
    pub ratio: f64,
    /// Bucket floor: tokens held when the pool has done no recent work.
    pub min_tokens: f64,
}

impl RetryBudgetConfig {
    fn sanitize(mut self) -> Self {
        self.ratio = if self.ratio.is_finite() {
            self.ratio.clamp(0.0, 10.0)
        } else {
            0.0
        };
        self.min_tokens = if self.min_tokens.is_finite() {
            self.min_tokens.clamp(0.0, 1e6)
        } else {
            0.0
        };
        self
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            task_deadline: None,
            retry_budget: None,
            hedge_quantile: None,
            seed: 0xB5E7,
        }
    }
}

impl ResilienceConfig {
    /// Clamps every knob into sane territory (see the type docs).
    fn sanitize(mut self) -> Self {
        self.reconnect_base = clamp_duration(self.reconnect_base);
        self.reconnect_cap = clamp_duration(self.reconnect_cap).max(self.reconnect_base);
        self.breaker_threshold = self.breaker_threshold.max(1);
        self.breaker_cooldown = clamp_duration(self.breaker_cooldown);
        self.task_deadline = self.task_deadline.map(clamp_duration);
        self.retry_budget = self.retry_budget.map(RetryBudgetConfig::sanitize);
        self.hedge_quantile = self
            .hedge_quantile
            .map(|q| if q.is_finite() { q } else { 0.95 })
            .map(|q| q.clamp(0.01, 0.999));
        self
    }

    /// The sliding window inside which endpoint failures accumulate.
    fn failure_window(&self) -> Duration {
        self.breaker_cooldown * 10
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Traffic admitted (after `retry_at`, which a recent failure pushes
    /// out by the current backoff).
    Closed,
    /// Quarantined: no connect attempts until `retry_at`.
    Open,
    /// One probe connect is in flight; its outcome decides the state.
    HalfOpen,
}

/// Per-endpoint failure accounting: consecutive-failure window,
/// decorrelated-jitter backoff and the circuit state machine.
struct Breaker {
    state: BreakerState,
    /// Failures inside the window; reset only by a successful Half-Open
    /// probe or by window expiry — a *connect* success alone does not
    /// clear it, so an endpoint that accepts connects and then kills the
    /// slot (a flapper) still accumulates toward Open.
    failures: u32,
    backoff: Duration,
    retry_at: Instant,
    last_failure: Option<Instant>,
    rng: ChaosRng,
}

impl Breaker {
    fn new(cfg: &ResilienceConfig, seed: u64) -> Self {
        Self {
            state: BreakerState::Closed,
            failures: 0,
            backoff: cfg.reconnect_base,
            retry_at: Instant::now(),
            last_failure: None,
            rng: ChaosRng::new(seed),
        }
    }

    /// Records a connect failure or a slot death on this endpoint.
    fn on_failure(&mut self, cfg: &ResilienceConfig) {
        let now = Instant::now();
        self.failures = match self.last_failure {
            Some(prev) if now.duration_since(prev) > cfg.failure_window() => 1,
            _ => self.failures.saturating_add(1),
        };
        self.last_failure = Some(now);
        // Decorrelated jitter: next = min(cap, rand[base, 3*prev)).
        let lo = cfg.reconnect_base.as_millis() as u64;
        let hi = (self.backoff.as_millis() as u64)
            .saturating_mul(3)
            .max(lo + 1);
        self.backoff = Duration::from_millis(self.rng.range_u64(lo, hi)).min(cfg.reconnect_cap);
        if self.state == BreakerState::HalfOpen || self.failures >= cfg.breaker_threshold {
            self.state = BreakerState::Open;
            self.retry_at = now + self.backoff.max(cfg.breaker_cooldown);
        } else {
            self.retry_at = now + self.backoff;
        }
    }

    /// Records a successful connect. A Half-Open probe success closes
    /// the circuit and forgets the failure history; a plain Closed-state
    /// success only resets the backoff (see `failures`).
    fn on_success(&mut self, cfg: &ResilienceConfig) {
        if self.state != BreakerState::Closed {
            self.failures = 0;
            self.last_failure = None;
        }
        self.state = BreakerState::Closed;
        self.backoff = cfg.reconnect_base;
        self.retry_at = Instant::now();
    }

    /// Lets an expired failure window lapse (the reactor's breaker
    /// bookkeeping timer; `on_failure` also applies this lazily).
    fn expire_window(&mut self, cfg: &ResilienceConfig) {
        if self.state == BreakerState::Closed
            && self
                .last_failure
                .is_some_and(|t| t.elapsed() > cfg.failure_window())
        {
            self.failures = 0;
            self.last_failure = None;
        }
    }

    /// Whether ordinary (non-probe) traffic may try this endpoint now.
    fn admits(&self, now: Instant) -> bool {
        self.state == BreakerState::Closed && now >= self.retry_at
    }
}

/// An endpoint plus its breaker: what the pool's connect paths consult.
struct EndpointState {
    endpoint: Endpoint,
    breaker: Mutex<Breaker>,
}

/// One task recorded in a slot's in-flight map.
struct InflightEntry {
    item: Vec<u8>,
    /// When the reactor queued it for the wire — what the deadline sweep
    /// ages.
    sent_at: Instant,
}

/// A task being speculatively re-executed: every slot holding a copy,
/// which one got the latest copy, and when. `hedged` records what
/// triggered the first duplicate (quantile hedge vs deadline
/// speculation), so a winning copy credits the right counter.
struct SpecEntry {
    holders: Vec<(u64, Weak<SlotShared>)>,
    last_retry_slot: u64,
    retried_at: Instant,
    hedged: bool,
}

/// The plant-side retry-budget token bucket (see [`RetryBudgetConfig`]).
/// One mutexed f64: every path that touches it does a few arithmetic ops,
/// and all callers are off the frame hot path except the per-result
/// deposit (which is two loads and a store's worth of work under an
/// uncontended lock).
struct RetryBudget {
    tokens: Mutex<f64>,
    ratio: f64,
    cap: f64,
}

impl RetryBudget {
    fn new(cfg: RetryBudgetConfig) -> Self {
        Self {
            tokens: Mutex::new(cfg.min_tokens),
            ratio: cfg.ratio,
            // Ten idle floors of headroom (at least 10 tokens) bounds
            // burst withdrawal after a long healthy stretch.
            cap: (cfg.min_tokens * 10.0).max(10.0),
        }
    }

    /// Credits one successfully delivered result.
    fn deposit(&self, n: f64) {
        let mut t = self.tokens.lock();
        *t = (*t + self.ratio * n).min(self.cap);
    }

    /// Withdraws `n` tokens if the bucket holds them (discretionary
    /// re-dispatch: speculation, hedges, reconnect retries).
    fn try_charge(&self, n: f64) -> bool {
        let mut t = self.tokens.lock();
        if *t >= n {
            *t -= n;
            true
        } else {
            false
        }
    }

    /// Withdraws `n` tokens unconditionally, flooring at zero (forced
    /// re-dispatch: worker-loss recovery, which is never blocked).
    fn charge_forced(&self, n: f64) {
        let mut t = self.tokens.lock();
        *t = (*t - n).max(0.0);
    }

    /// Returns `n` tokens after an aborted charge.
    fn refund(&self, n: f64) {
        let mut t = self.tokens.lock();
        *t = (*t + n).min(self.cap);
    }

    fn tokens(&self) -> f64 {
        *self.tokens.lock()
    }
}

/// Rolling window of enqueue-to-delivery latencies (seconds) feeding the
/// hedge trigger. A plain ring: the quantile is computed on demand by the
/// deadline sweep (once per heartbeat period), not per sample.
struct LatencyWindow {
    samples: Vec<f64>,
    next: usize,
    filled: bool,
}

impl LatencyWindow {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(LATENCY_WINDOW),
            next: 0,
            filled: false,
        }
    }

    fn record(&mut self, secs: f64) {
        if self.filled {
            self.samples[self.next] = secs;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        } else {
            self.samples.push(secs);
            if self.samples.len() == LATENCY_WINDOW {
                self.filled = true;
            }
        }
    }

    /// The `q`-quantile of the window, or `None` until enough samples
    /// have accumulated to make hedging on it defensible.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(sorted[idx.min(sorted.len() - 1)])
    }
}

/// The speculation registry: the single source of truth that makes
/// "first copy home wins" race-free. `resolved` remembers speculated
/// sequence numbers that already produced an answer, so late copies are
/// dropped; only speculated tasks ever enter it, so it stays small.
#[derive(Default)]
struct SpecRegistry {
    active: HashMap<u64, SpecEntry>,
    resolved: HashSet<u64>,
}

/// Everything a remote slot's machinery shares. The RCU table holds
/// `Arc`s of these.
struct SlotShared {
    id: u64,
    endpoint: Endpoint,
    /// Local staging queue the emitter dispatches into; the reactor
    /// drains it onto the wire.
    queue: WorkerQueue<Vec<u8>>,
    /// Tasks sent but not yet resolved by a `Result`/`Lost` frame, keyed
    /// by sequence number. Entries are inserted by the reactor *before*
    /// the bytes are queued for the wire and removed only when the
    /// reactor resolves an answer (or the speculation registry strips a
    /// superseded copy).
    inflight: Mutex<BTreeMap<u64, InflightEntry>>,
    inflight_count: AtomicUsize,
    /// The connection's only socket (no fd duplication). The reactor does
    /// all I/O through it and `take`s it when the connection finishes, so
    /// the fd closes even while `retired_slots` keeps the `Arc` for its
    /// service statistic. Other threads only ever `shutdown` it (sever).
    stream: Mutex<Option<TcpStream>>,
    /// Frames sitting in the reactor's send queue for this slot (the
    /// `netSendQueueDepth` sensor bean).
    send_q_depth: AtomicUsize,
    /// Latest daemon-reported cumulative service statistic.
    service: Mutex<Welford>,
    /// Heartbeat round-trip time, milliseconds (f64 bits; 0 = none yet).
    rtt_ms_bits: AtomicU64,
    /// When the last frame (any type) arrived from this slot.
    last_seen: Mutex<Instant>,
    /// Outstanding heartbeat pings: id → send time.
    pings: Mutex<HashMap<u64, Instant>>,
    /// Cooperative retirement in progress (`remove_workers`).
    retiring: AtomicBool,
    /// The death path has run (single-shot guard).
    dead: AtomicBool,
    /// Why this slot was severed, if a policy (failure deadline, fault
    /// injection) did it rather than the peer.
    suspect_reason: Mutex<Option<String>>,
}

impl FarmSlot for SlotShared {
    type Item = Vec<u8>;

    fn queue(&self) -> &WorkerQueue<Vec<u8>> {
        &self.queue
    }

    /// Tasks this slot is responsible for: staged locally, or in flight
    /// (on the wire or queued at the daemon). The daemon's own
    /// `queue_depth` report is not added: every task it holds is already
    /// in flight, and the report moves with how a wire batch happened to
    /// be cut.
    fn load(&self) -> usize {
        self.queue.len() + self.inflight_count.load(Ordering::Relaxed)
    }
}

impl SlotShared {
    fn rtt_ms(&self) -> f64 {
        f64::from_bits(self.rtt_ms_bits.load(Ordering::Relaxed))
    }

    fn touch(&self) {
        *self.last_seen.lock() = Instant::now();
    }

    /// Severs the socket (both directions); the reactor observes the
    /// hangup and runs the death path. Safe from any thread.
    fn sever(&self) {
        if let Some(s) = self.stream.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A freshly handshaken connection, handed from the connecting thread to
/// the reactor for registration.
struct ConnSeed {
    slot: Arc<SlotShared>,
    /// Decoder that already absorbed any post-handshake bytes.
    decoder: Decoder,
    /// Daemon→pool keystream (secure endpoints only).
    cipher_in: Option<MeteredCipher>,
    /// Pool→daemon keystream.
    cipher_out: Option<MeteredCipher>,
}

/// Control messages into the reactor thread (paired with a waker kick).
enum ReactorCmd {
    Register(ConnSeed),
    Shutdown,
}

/// Timer-wheel entries. Stale keys (for connections already finished)
/// simply fizzle when they fire — the wheel has no cancel.
enum TimerKey {
    /// Periodic heartbeat ping to every live slot.
    Heartbeat,
    /// Periodic speculative-execution sweep (armed only when a task
    /// deadline is configured).
    SpecSweep,
    /// Per-slot silence deadline, re-armed from `last_seen`.
    FailureDeadline(u64),
    /// Breaker failure-window bookkeeping for one endpoint.
    BackoffExpire(usize),
}

/// The pool's own counters; the stream beans live in the core's
/// `StreamSensors`.
#[derive(Default)]
struct PoolMetrics {
    /// Speculative re-executions dispatched by the deadline sweep.
    tasks_retried: AtomicU64,
    /// Hedged (quantile-triggered) duplicate dispatches.
    hedges_launched: AtomicU64,
    /// Hedged tasks whose duplicate copy resolved first.
    hedge_wins: AtomicU64,
    /// Speculated tasks whose *retry copy* resolved first.
    spec_wins: AtomicU64,
    /// Late answers for already-resolved speculated tasks, dropped.
    spec_dups: AtomicU64,
    /// Worst timer lateness of the reactor's latest sweep, microseconds
    /// (the `reactorLoopLagUs` sensor bean).
    reactor_lag_us: AtomicU64,
}

struct PoolShared<Out> {
    /// The farm's stream machinery over remote slots.
    core: FarmCore<SlotShared, Out>,
    metrics: PoolMetrics,
    /// Membership and the reconfiguration serialisation point.
    slots: Mutex<Vec<Arc<SlotShared>>>,
    /// Cooperatively retired slots: their service statistic keeps
    /// counting toward the pool's.
    retired_slots: Mutex<Vec<Arc<SlotShared>>>,
    disconnects: Mutex<Vec<String>>,
    next_slot_id: AtomicU64,
    next_endpoint: AtomicUsize,
    next_ping: AtomicU64,
    /// Hands new connections and the shutdown signal to the reactor.
    reactor_tx: Sender<ReactorCmd>,
    /// Kicks the reactor out of its poll (emitter dispatch, actuators).
    waker: Waker,
    decode: DecodeFn<Out>,
    endpoints: Vec<EndpointState>,
    workload: String,
    meter: Arc<CostMeter>,
    max_workers: u32,
    resilience: ResilienceConfig,
    /// Plant-side retry budget, when configured (see `ResilienceConfig`).
    budget: Option<RetryBudget>,
    /// Delivery-latency window feeding the hedge quantile (only ever
    /// written when hedging is configured).
    latency: Mutex<LatencyWindow>,
    spec: Mutex<SpecRegistry>,
    /// Fast-out for the frame hot path: the reactor consults the
    /// speculation registry only after the first task has ever been
    /// speculated, so a fault-free run never takes the `spec` lock per
    /// frame.
    spec_touched: AtomicBool,
}

impl<Out: Send + 'static> PoolShared<Out> {
    /// Kicks the reactor out of its poll.
    fn wake(&self) {
        self.waker.wake();
    }

    // -- connection establishment -------------------------------------

    /// Connects one slot against `endpoint`: blocking TCP connect plus
    /// handshake on the calling thread (connects can be slow and must
    /// not stall the reactor), then the stream is flipped nonblocking
    /// and handed to the reactor as a [`ConnSeed`].
    fn connect_slot(&self, endpoint: &Endpoint) -> Result<ConnSeed, String> {
        let id = self.next_slot_id.fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect(&endpoint.addr)
            .map_err(|e| format!("connect {}: {e}", endpoint.addr))?;
        let err = |e: &dyn std::fmt::Display| format!("handshake {}: {e}", endpoint.addr);
        stream.set_nodelay(true).map_err(|e| err(&e))?;

        // Not a secret — see crate::secure. Only varies keys per slot.
        let client_nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xC11E)
            ^ id.rotate_left(48);
        let mut hello = Vec::new();
        encode_frame(
            &mut hello,
            FrameType::Hello,
            0,
            &encode_hello(&Hello {
                secure: endpoint.secure,
                nonce: client_nonce,
                workload: self.workload.clone(),
            }),
        );
        (&stream).write_all(&hello).map_err(|e| err(&e))?;

        // Bounded wait for the HelloAck: a short read timeout polled
        // against a deadline.
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| err(&e))?;
        let mut decoder = Decoder::new();
        let mut chunk = vec![0u8; 8192];
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let ack = loop {
            match decoder.next_frame() {
                Ok(Some(f)) if f.ftype == FrameType::HelloAck => {
                    break decode_hello_ack(&f.payload)
                        .ok_or_else(|| err(&"malformed HelloAck"))?;
                }
                Ok(Some(_)) => return Err(err(&"unexpected frame before HelloAck")),
                Ok(None) => {}
                Err(e) => return Err(err(&e)),
            }
            match (&stream).read(&mut chunk) {
                Ok(0) => return Err(err(&"connection closed during handshake")),
                Ok(n) => decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if Instant::now() > deadline {
                        return Err(err(&"timed out waiting for HelloAck"));
                    }
                }
                Err(e) => return Err(err(&e)),
            }
        };
        stream.set_read_timeout(None).map_err(|e| err(&e))?;
        if !ack.ok {
            return Err(format!("{} refused slot: {}", endpoint.addr, ack.error));
        }
        let (cipher_in, cipher_out) = if endpoint.secure {
            if decoder.buffered() > 0 {
                return Err(err(&"cleartext residue before secure channel"));
            }
            let (c2s, s2c) = self
                .meter
                .time_handshake(|| derive_session_keys(client_nonce, ack.nonce));
            let metered = |key| MeteredCipher {
                cipher: StreamCipher::new(key),
                meter: Arc::clone(&self.meter),
            };
            (Some(metered(s2c)), Some(metered(c2s)))
        } else {
            (None, None)
        };
        stream.set_nonblocking(true).map_err(|e| err(&e))?;

        let slot = Arc::new(SlotShared {
            id,
            endpoint: endpoint.clone(),
            queue: WorkerQueue::new(),
            inflight: Mutex::new(BTreeMap::new()),
            inflight_count: AtomicUsize::new(0),
            stream: Mutex::new(Some(stream)),
            send_q_depth: AtomicUsize::new(0),
            service: Mutex::new(Welford::new()),
            rtt_ms_bits: AtomicU64::new(0),
            last_seen: Mutex::new(Instant::now()),
            pings: Mutex::new(HashMap::new()),
            retiring: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            suspect_reason: Mutex::new(None),
        });
        Ok(ConnSeed {
            slot,
            decoder,
            cipher_in,
            cipher_out,
        })
    }

    // -- the frame hot path -------------------------------------------

    /// Applies one received frame to the slot / the result stream. Runs
    /// on the reactor; the payload is borrowed zero-copy from the
    /// connection's decode buffer.
    fn handle_slot_frame(
        &self,
        slot: &Arc<SlotShared>,
        ftype: FrameType,
        seq: u64,
        payload: &[u8],
        out: &mut Vec<(u64, Out)>,
    ) {
        slot.touch();
        match ftype {
            FrameType::Result => {
                // `remove` guards against duplicates by construction: a
                // result for an already-harvested (recovered) task is
                // dropped rather than delivered twice.
                let entry = slot.inflight.lock().remove(&seq);
                let claimed = entry.is_some();
                if let Some(e) = entry {
                    slot.inflight_count.fetch_sub(1, Ordering::SeqCst);
                    if self.resilience.hedge_quantile.is_some() {
                        self.latency
                            .lock()
                            .record(e.sent_at.elapsed().as_secs_f64());
                    }
                }
                if self.resolve_answer(slot, seq, claimed) {
                    // A panicking decoder poisons this task only, as a
                    // panicking worker would.
                    match catch_unwind(AssertUnwindSafe(|| (self.decode)(payload))) {
                        Ok(result) => {
                            if let Some(b) = &self.budget {
                                b.deposit(1.0);
                            }
                            out.push((seq, result));
                        }
                        Err(p) => self.core.poison_task(
                            seq,
                            format!(
                                "decode panicked on task {seq} (slot {}, {}): {}",
                                slot.id,
                                slot.endpoint.addr,
                                panic_message(p.as_ref())
                            ),
                        ),
                    }
                }
            }
            FrameType::Lost => {
                // The remote worker panicked on this task: poisoned, no
                // result will ever exist. Propagate the hole.
                let claimed = slot.inflight.lock().remove(&seq).is_some();
                if claimed {
                    slot.inflight_count.fetch_sub(1, Ordering::SeqCst);
                }
                if self.resolve_answer(slot, seq, claimed) {
                    self.core.poison_task(
                        seq,
                        format!(
                            "remote worker panicked on task {} (slot {}, {})",
                            seq, slot.id, slot.endpoint.addr
                        ),
                    );
                }
            }
            FrameType::Sensors => {
                if let Some(blob) = decode_sensors(payload) {
                    *slot.service.lock() = blob.service;
                }
            }
            FrameType::HeartbeatAck => {
                if let Some(blob) = decode_sensors(payload) {
                    *slot.service.lock() = blob.service;
                }
                if let Some(sent) = slot.pings.lock().remove(&seq) {
                    let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
                    slot.rtt_ms_bits.store(rtt_ms.to_bits(), Ordering::Relaxed);
                }
            }
            // Goodbye: the daemon acknowledged retirement; EOF follows.
            // Handshake/task frames are never valid daemon→pool.
            _ => {}
        }
    }

    /// Decides whether an answer (Result or Lost) for `seq` may be
    /// forwarded. Without speculation this is just `claimed`; once the
    /// registry has been touched, the first answer for a speculated task
    /// wins — it strips every other copy's in-flight entry (so a later
    /// death harvest cannot replay the task) and marks the sequence
    /// resolved so late copies are dropped, never double-delivered.
    fn resolve_answer(&self, slot: &Arc<SlotShared>, seq: u64, claimed: bool) -> bool {
        if !self.spec_touched.load(Ordering::SeqCst) {
            return claimed;
        }
        let mut spec = self.spec.lock();
        if let Some(entry) = spec.active.remove(&seq) {
            spec.resolved.insert(seq);
            if claimed && slot.id == entry.last_retry_slot {
                if entry.hedged {
                    self.metrics.hedge_wins.fetch_add(1, Ordering::SeqCst);
                } else {
                    self.metrics.spec_wins.fetch_add(1, Ordering::SeqCst);
                }
            }
            for (holder_id, holder) in entry.holders {
                if holder_id == slot.id {
                    continue;
                }
                if let Some(h) = holder.upgrade() {
                    if h.inflight.lock().remove(&seq).is_some() {
                        h.inflight_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            true
        } else if spec.resolved.contains(&seq) {
            if claimed {
                self.metrics.spec_dups.fetch_add(1, Ordering::SeqCst);
            }
            false
        } else {
            claimed
        }
    }

    // -- task deadlines & speculative re-execution --------------------

    /// One deadline sweep: re-executes overdue in-flight tasks on a
    /// second slot. Needs at least two live slots (speculating back onto
    /// the only slot that already holds the task is pointless), and is a
    /// no-op unless a [`ResilienceConfig::task_deadline`] or a hedge
    /// quantile is configured.
    ///
    /// With hedging on, the effective deadline is the rolling latency
    /// quantile (once enough deliveries have been observed): tasks in
    /// the slow tail are duplicated long before any fixed deadline would
    /// fire. Both triggers share the registry, the per-sweep cap and the
    /// retry budget.
    fn deadline_sweep(&self) {
        let quantile_deadline = self.resilience.hedge_quantile.and_then(|q| {
            self.latency
                .lock()
                .quantile(q)
                .map(|s| clamp_duration(Duration::from_secs_f64(s.max(1e-3))))
        });
        let (deadline, hedged) = match (quantile_deadline, self.resilience.task_deadline) {
            // The tighter trigger wins; a quantile below the fixed
            // deadline is a hedge, not a failure suspicion.
            (Some(q), Some(f)) if q < f => (q, true),
            (_, Some(f)) => (f, false),
            (Some(q), None) => (q, true),
            (None, None) => return,
        };
        let table = self.core.table.load();
        if table.len() < 2 {
            return;
        }
        for slot in table.iter() {
            if slot.dead.load(Ordering::SeqCst) || slot.retiring.load(Ordering::SeqCst) {
                continue;
            }
            // Snapshot the overdue entries; the real decision is re-made
            // under the spec lock in `speculate`.
            let overdue: Vec<(u64, Vec<u8>)> = {
                let inflight = slot.inflight.lock();
                inflight
                    .iter()
                    .filter(|(_, e)| e.sent_at.elapsed() > deadline)
                    .take(SPEC_SWEEP_LIMIT)
                    .map(|(seq, e)| (*seq, e.item.clone()))
                    .collect()
            };
            for (seq, item) in overdue {
                self.speculate(slot, seq, item, &table, deadline, hedged);
            }
        }
    }

    /// Dispatches one speculative copy of `seq` (held by `source`) onto
    /// the least-loaded live slot that does not already hold a copy.
    /// Runs entirely under the spec lock, which is what makes the push
    /// and the registration atomic with respect to `resolve_answer`.
    fn speculate(
        &self,
        source: &Arc<SlotShared>,
        seq: u64,
        item: Vec<u8>,
        table: &[Arc<SlotShared>],
        deadline: Duration,
        hedged: bool,
    ) {
        use std::collections::hash_map::Entry;
        let mut spec = self.spec.lock();
        // Flip the hot-path gate *before* the copy can produce an
        // answer: any resolver claiming this task afterwards must consult
        // the registry (it will block on the lock we hold).
        self.spec_touched.store(true, Ordering::SeqCst);
        // Re-check under the lock: the resolver may have claimed the task
        // since the sweep's snapshot, or an earlier copy may have won.
        if spec.resolved.contains(&seq) || !source.inflight.lock().contains_key(&seq) {
            return;
        }
        let holders: Vec<u64> = match spec.active.get(&seq) {
            // Already speculated recently: give the copy its own
            // deadline before adding yet another.
            Some(e) if e.retried_at.elapsed() <= deadline => return,
            Some(e) => e.holders.iter().map(|(id, _)| *id).collect(),
            None => vec![source.id],
        };
        let target = table
            .iter()
            .filter(|s| !s.dead.load(Ordering::SeqCst) && !s.retiring.load(Ordering::SeqCst))
            .filter(|s| !holders.contains(&s.id))
            .min_by_key(|s| s.load());
        let Some(target) = target else {
            return; // every live slot already holds a copy
        };
        // Every discretionary duplicate — deadline speculation and hedge
        // alike — costs one budget token; an exhausted budget is the
        // storm brake.
        if let Some(b) = &self.budget {
            if !b.try_charge(1.0) {
                return;
            }
        }
        let mut one = vec![Task { seq, item }];
        if !target.queue.push_batch(&mut one) {
            // Target raced into its death path; next sweep retries.
            if let Some(b) = &self.budget {
                b.refund(1.0);
            }
            return;
        }
        match spec.active.entry(seq) {
            Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.holders.push((target.id, Arc::downgrade(target)));
                e.last_retry_slot = target.id;
                e.retried_at = Instant::now();
            }
            Entry::Vacant(v) => {
                v.insert(SpecEntry {
                    holders: vec![
                        (source.id, Arc::downgrade(source)),
                        (target.id, Arc::downgrade(target)),
                    ],
                    last_retry_slot: target.id,
                    retried_at: Instant::now(),
                    hedged,
                });
            }
        }
        if hedged {
            self.metrics.hedges_launched.fetch_add(1, Ordering::SeqCst);
        } else {
            self.metrics.tasks_retried.fetch_add(1, Ordering::SeqCst);
        }
    }

    // -- death & recovery ---------------------------------------------

    /// The single death path: deregisters a crashed slot and replays
    /// every task it held (staged backlog + in-flight map) onto the
    /// survivors. Runs on the reactor, *after* the connection stopped
    /// being read — so no harvested task can also be resolved.
    fn on_slot_death(&self, slot: &Arc<SlotShared>, reason: &str) {
        if slot.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        let now = self.core.sensors.now();
        let mut slots = self.slots.lock();
        let mut leftover: Vec<Task<Vec<u8>>> = Vec::new();
        if let Some(pos) = slots.iter().position(|s| s.id == slot.id) {
            slots.remove(pos);
            // Publish the shrunken table BEFORE closing the dead queue,
            // so a bounced emitter re-dispatches onto survivors.
            self.core.publish(&slots);
        }
        // In-flight first (oldest sequence numbers), then staged backlog.
        let harvested: Vec<Task<Vec<u8>>> = {
            let mut inflight = slot.inflight.lock();
            let drained = std::mem::take(&mut *inflight);
            drained
                .into_iter()
                .map(|(seq, e)| Task { seq, item: e.item })
                .collect()
        };
        slot.inflight_count.store(0, Ordering::SeqCst);
        leftover.extend(harvested);
        leftover.extend(slot.queue.close());
        let replayed = leftover.len();
        // Recovery re-queues are charged but never blocked: loss freedom
        // outranks the storm brake, and the drained bucket suppresses
        // discretionary speculation while the survivors absorb the replay.
        if let Some(b) = &self.budget {
            b.charge_forced(replayed as f64);
        }
        // The slot's completed work keeps counting toward the service
        // statistic.
        self.retired_slots.lock().push(Arc::clone(slot));
        // A slot death is an endpoint failure: a daemon that accepts
        // connects and then drops them (a flapper) must still open its
        // circuit, not just fail the occasional connect.
        self.record_endpoint_failure(&slot.endpoint);
        self.core
            .sensors
            .workers_lost
            .fetch_add(1, Ordering::SeqCst);
        self.core.record_event(FarmEvent {
            at: now,
            kind: FarmEventKind::WorkerLost,
            detail: format!(
                "remote slot {} ({}) lost: {reason}; {replayed} tasks replayed",
                slot.id, slot.endpoint.addr
            ),
        });
        self.core.redistribute(&slots, leftover);
        drop(slots);
    }

    // -- reconfiguration (the FarmControl actuators) ------------------

    /// Records a connect failure or slot death against the endpoint's
    /// breaker.
    fn record_endpoint_failure(&self, endpoint: &Endpoint) {
        if let Some(es) = self.endpoints.iter().find(|es| es.endpoint == *endpoint) {
            es.breaker.lock().on_failure(&self.resilience);
        }
    }

    /// Index of `endpoint` in the registered endpoint list.
    fn endpoint_index(&self, endpoint: &Endpoint) -> Option<usize> {
        self.endpoints
            .iter()
            .position(|es| es.endpoint == *endpoint)
    }

    /// Number of endpoints currently quarantined (breaker Open).
    fn open_circuits(&self) -> u32 {
        self.endpoints
            .iter()
            .filter(|es| es.breaker.lock().state == BreakerState::Open)
            .count() as u32
    }

    /// Picks the next endpoint a connect attempt should target, or
    /// `None` when every endpoint is quarantined.
    ///
    /// A *due* Open circuit gets its Half-Open probe first (recovering a
    /// quarantined endpoint beats spreading load; the probe transition
    /// happens under the breaker lock, so only one caller wins it). Then
    /// ordinary round-robin over endpoints whose breakers admit traffic.
    /// If nothing admits but some breaker is still Closed (merely backing
    /// off), the one closest to its retry time is used anyway:
    /// availability beats backoff purity when there is no alternative.
    /// Open circuits before their cooldown are never returned.
    fn pick_endpoint(&self) -> Option<usize> {
        let now = Instant::now();
        for (i, es) in self.endpoints.iter().enumerate() {
            let mut b = es.breaker.lock();
            if b.state == BreakerState::Open && now >= b.retry_at {
                b.state = BreakerState::HalfOpen;
                return Some(i);
            }
        }
        let n = self.endpoints.len();
        for _ in 0..n {
            let i = self.next_endpoint.fetch_add(1, Ordering::Relaxed) % n;
            if self.endpoints[i].breaker.lock().admits(now) {
                return Some(i);
            }
        }
        let mut best: Option<(usize, Instant)> = None;
        for (i, es) in self.endpoints.iter().enumerate() {
            let b = es.breaker.lock();
            let earlier = match best {
                Some((_, t)) => b.retry_at < t,
                None => true,
            };
            if b.state == BreakerState::Closed && earlier {
                best = Some((i, b.retry_at));
            }
        }
        best.map(|(i, _)| i)
    }

    fn add_workers_impl(&self, n: u32) -> Result<u32, String> {
        self.core.refuse_if_terminating()?;
        let current = self.slots.lock().len() as u32;
        if current + n > self.max_workers {
            return Err(format!(
                "worker limit reached ({current}+{n} > {})",
                self.max_workers
            ));
        }
        let sensors = &self.core.sensors;
        sensors.reconfiguring.store(true, Ordering::SeqCst);
        // Connect outside the membership lock: a slow or dead endpoint
        // must not stall sensing or the death path. The breaker decides
        // which endpoints may be attempted at all, which is what bounds
        // the connect traffic a flapping endpoint sees while Open.
        let mut connected: Vec<ConnSeed> = Vec::new();
        let mut last_err = String::new();
        let mut attempts = 0;
        while connected.len() < n as usize && attempts < n as usize * self.endpoints.len() {
            let Some(i) = self.pick_endpoint() else {
                break; // every endpoint quarantined, no probe due
            };
            attempts += 1;
            let es = &self.endpoints[i];
            match self.connect_slot(&es.endpoint) {
                Ok(seed) => {
                    es.breaker.lock().on_success(&self.resilience);
                    connected.push(seed);
                }
                Err(e) => {
                    es.breaker.lock().on_failure(&self.resilience);
                    last_err = e;
                    // Retrying after a failure is discretionary re-dispatch:
                    // each further attempt costs a budget token, so a mass
                    // outage cannot become a synchronized reconnect storm.
                    if let Some(b) = &self.budget {
                        if connected.len() < n as usize && !b.try_charge(1.0) {
                            break;
                        }
                    }
                }
            }
        }
        let added = connected.len() as u32;
        if added == 0 {
            sensors.reconfiguring.store(false, Ordering::SeqCst);
            if last_err.is_empty() {
                return Err(format!(
                    "no endpoint accepted a slot: {} circuit(s) open (quarantined), no probe due",
                    self.open_circuits()
                ));
            }
            return Err(format!("no endpoint accepted a slot: {last_err}"));
        }
        let mut slots = self.slots.lock();
        slots.extend(connected.iter().map(|seed| Arc::clone(&seed.slot)));
        self.core.publish(&slots);
        // Tasks stranded by a total-failure episode resume here.
        self.core.resume_parked(&slots);
        drop(slots);
        // Hand the connections to the reactor only after they are
        // published members, so the death path always finds them. A
        // reactor gone with a concurrent shutdown will never watch one:
        // it dies here, as one the poller refuses dies in `register`.
        for seed in connected {
            if let Err(SendError(ReactorCmd::Register(seed))) =
                self.reactor_tx.send(ReactorCmd::Register(seed))
            {
                seed.slot.sever();
                self.on_slot_death(&seed.slot, "reactor gone");
            }
        }
        self.wake();
        sensors.reconfigured(sensors.now());
        sensors.reconfiguring.store(false, Ordering::SeqCst);
        Ok(added)
    }

    fn remove_workers_impl(&self, n: u32) -> Result<u32, String> {
        let mut slots = self.slots.lock();
        if slots.len() as u32 <= n {
            return Err(format!(
                "cannot remove {n} of {} workers (at least one must remain)",
                slots.len()
            ));
        }
        let victims: Vec<Arc<SlotShared>> = {
            let keep = slots.len() - n as usize;
            slots.split_off(keep)
        };
        // Publish-before-close, as everywhere.
        self.core.publish(&slots);
        let mut stolen: Vec<Task<Vec<u8>>> = Vec::new();
        for victim in victims {
            victim.retiring.store(true, Ordering::SeqCst);
            // Staged tasks move to survivors; in-flight tasks finish at
            // the daemon and flow back through the still-registered
            // connection. The reactor sees the closed queue and sends
            // the Goodbye.
            stolen.extend(victim.queue.close());
            self.retired_slots.lock().push(victim);
        }
        self.core.redistribute(&slots, stolen);
        drop(slots);
        self.wake();
        self.core.sensors.reconfigured(self.core.sensors.now());
        Ok(n)
    }

    /// Fault injection: severs `n` slots' sockets. Recovery is
    /// asynchronous (the reactor runs the death path when it observes
    /// the hangup), so callers observe the loss through `workers_lost`,
    /// like an external daemon crash.
    fn kill_workers_impl(&self, n: u32) -> Result<u32, String> {
        let victims: Vec<Arc<SlotShared>> = {
            let slots = self.slots.lock();
            let live: Vec<&Arc<SlotShared>> = slots
                .iter()
                .filter(|s| !s.dead.load(Ordering::SeqCst))
                .collect();
            if (live.len() as u32) < n {
                return Err(format!("cannot kill {n} of {} slots", live.len()));
            }
            live[live.len() - n as usize..]
                .iter()
                .map(|s| Arc::clone(s))
                .collect()
        };
        for slot in victims {
            *slot.suspect_reason.lock() = Some("connection severed (fault injection)".into());
            slot.sever();
        }
        Ok(n)
    }

    fn sense_impl(&self, now: Time) -> SensorSnapshot {
        let (mut snap, table) = self.core.sense(now);
        snap.remote_workers = table.len() as u32;
        let mut service = Welford::new();
        let mut rtt_sum = 0.0;
        let mut rtt_n = 0u32;
        let mut send_depth = 0u64;
        for slot in table.iter() {
            service.merge(&slot.service.lock());
            let rtt = slot.rtt_ms();
            if rtt > 0.0 {
                rtt_sum += rtt;
                rtt_n += 1;
            }
            send_depth += slot.send_q_depth.load(Ordering::Relaxed) as u64;
        }
        for slot in self.retired_slots.lock().iter() {
            service.merge(&slot.service.lock());
        }
        snap.service_time = service.mean();
        if rtt_n > 0 {
            snap.net_rtt_ms = rtt_sum / f64::from(rtt_n);
        }
        snap.net_send_queue_depth = send_depth;
        snap.reactor_loop_lag_us = self.metrics.reactor_lag_us.load(Ordering::Relaxed) as f64;
        let mut open = 0u32;
        let mut backoff_ms = 0.0f64;
        for es in &self.endpoints {
            let b = es.breaker.lock();
            if b.state == BreakerState::Open {
                open += 1;
            }
            // Report the worst backoff among endpoints with a live
            // failure history — endpoints at rest contribute nothing.
            if b.failures > 0 {
                backoff_ms = backoff_ms.max(b.backoff.as_secs_f64() * 1e3);
            }
        }
        snap.circuit_open_count = open;
        snap.reconnect_backoff_ms = backoff_ms;
        snap.tasks_retried = self.metrics.tasks_retried.load(Ordering::SeqCst);
        snap.speculative_wins = self.metrics.spec_wins.load(Ordering::SeqCst);
        snap.hedges_launched = self.metrics.hedges_launched.load(Ordering::SeqCst);
        snap.hedge_wins = self.metrics.hedge_wins.load(Ordering::SeqCst);
        if let Some(b) = &self.budget {
            snap.retry_budget_tokens = b.tokens();
        }
        snap
    }
}

impl<Out: Send + 'static> FarmControl for PoolShared<Out> {
    fn sense(&self, now: Time) -> SensorSnapshot {
        self.sense_impl(now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        self.add_workers_impl(n)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        self.remove_workers_impl(n)
    }

    /// Only the *local* staging queues are rebalanced; what is on the
    /// wire or at a daemon is committed.
    fn rebalance(&self) -> bool {
        let moved = self.core.rebalance(&self.slots.lock());
        if moved {
            self.wake();
        }
        moved
    }

    fn num_workers(&self) -> usize {
        self.core.table.load().len()
    }

    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        self.kill_workers_impl(n)
    }

    fn workers_lost(&self) -> u64 {
        self.core.sensors.workers_lost.load(Ordering::SeqCst)
    }

    fn events(&self) -> Vec<FarmEvent> {
        self.core.events()
    }
}

// -- the reactor -------------------------------------------------------

/// Per-connection reactor state: decoder, keystreams and the send queue.
/// Everything here is owned by the reactor thread alone.
struct Conn {
    slot: Arc<SlotShared>,
    /// Raw fd the connection is registered under (the stream itself may
    /// be locked briefly during I/O; interest toggles must not wait).
    fd: RawFd,
    decoder: Decoder,
    cipher_in: Option<MeteredCipher>,
    cipher_out: Option<MeteredCipher>,
    sendq: SendQueue,
    /// Whether `EPOLLOUT` interest is currently registered.
    want_write: bool,
    /// The retirement Goodbye has been queued (at most once).
    goodbye_queued: bool,
}

impl Conn {
    /// Queues one payload-less control frame, ciphered on a secure channel.
    fn push_control(&mut self, buffers: &mut BufferPool, ftype: FrameType, seq: u64) {
        let mut buf = buffers.get();
        encode_frame(&mut buf, ftype, seq, &[]);
        if let Some(c) = self.cipher_out.as_mut() {
            c.apply(&mut buf);
        }
        self.sendq.push(buf, 1);
    }
}

/// Drains a readable socket through the decoder and resolves frames.
/// Returns the connection's death reason, if it reached one.
fn service_readable<Out: Send + 'static>(
    shared: &Arc<PoolShared<Out>>,
    scratch: &mut [u8],
    out: &mut Vec<(u64, Out)>,
    conn: &mut Conn,
    closed_hint: bool,
) -> Option<String> {
    let mut reads = 0;
    loop {
        let read = {
            let guard = conn.slot.stream.lock();
            let Some(stream) = guard.as_ref() else {
                return Some("connection closed".to_owned());
            };
            (&*stream).read(scratch)
        };
        match read {
            Ok(0) => return Some("connection closed".to_owned()),
            Ok(n) => {
                if let Some(c) = conn.cipher_in.as_mut() {
                    c.apply(&mut scratch[..n]);
                }
                conn.decoder.extend(&scratch[..n]);
                loop {
                    match conn.decoder.next_frame_view() {
                        Ok(Some(v)) => {
                            shared.handle_slot_frame(&conn.slot, v.ftype, v.seq, v.payload, out);
                        }
                        Ok(None) => break,
                        Err(ProtoError::Oversized { len }) => {
                            return Some(format!(
                                "protocol violation: frame announcing {len} bytes"
                            ));
                        }
                    }
                }
                reads += 1;
                // A short read means the socket is drained; a full one
                // may hide more, but after a fairness cap we yield and
                // let level-triggered epoll re-signal the rest.
                if n < scratch.len() || reads >= MAX_READS_PER_EVENT {
                    return None;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Spurious wakeup or drained socket — unless the kernel
                // already flagged the connection closed (ERR with nothing
                // buffered), in which case reads will never progress.
                return closed_hint.then(|| "connection closed".to_owned());
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Some(format!("read error: {e}")),
        }
    }
}

/// Fills a slot's send queue from its staging queue (recording in-flight
/// entries first), flushes it with vectored writes, and toggles write
/// interest. Returns the connection's death reason, if it reached one.
fn pump_conn<Out: Send + 'static>(
    shared: &Arc<PoolShared<Out>>,
    poller: &Poller,
    buffers: &mut BufferPool,
    batch: &mut Vec<Task<Vec<u8>>>,
    conn: &mut Conn,
) -> Option<String> {
    let slot = &conn.slot;
    // Fill: encode staged wire batches until the queue runs dry, closes,
    // or the send queue hits its high-water mark (backpressure).
    while conn.sendq.bytes() < SENDQ_HIGH_WATER {
        match slot.queue.try_pop_batch(WIRE_BATCH, batch) {
            TryPop::Got => {
                // Record in-flight BEFORE queueing bytes: there is no
                // window in which a task exists only as wire bytes. Each
                // payload is encoded, then moved into the map under the
                // same lock, so it is never copied on this thread. The
                // `dead` check mirrors the old writer-thread race guard;
                // with the death path on this same thread it is merely
                // defensive.
                let mut inflight = slot.inflight.lock();
                if slot.dead.load(Ordering::SeqCst) {
                    drop(inflight);
                    // Died under us before these tasks were recorded
                    // anywhere a harvest could see: replay them directly.
                    let slots = shared.slots.lock();
                    shared.core.redistribute(&slots, std::mem::take(batch));
                    break;
                }
                let now = Instant::now();
                let mut buf = buffers.get();
                let frames = batch.len();
                // Count only *fresh* inserts: a recovery replay can route
                // the same sequence number back onto this slot while a
                // stale copy is still recorded, and counting it twice
                // would leak `inflight_count` forever.
                let mut fresh = 0usize;
                for t in batch.drain(..) {
                    encode_frame(&mut buf, FrameType::Task, t.seq, &t.item);
                    let entry = InflightEntry {
                        item: t.item,
                        sent_at: now,
                    };
                    if inflight.insert(t.seq, entry).is_none() {
                        fresh += 1;
                    }
                }
                drop(inflight);
                slot.inflight_count.fetch_add(fresh, Ordering::SeqCst);
                if let Some(c) = conn.cipher_out.as_mut() {
                    c.apply(&mut buf);
                }
                conn.sendq.push(buf, frames);
            }
            TryPop::Empty => break,
            TryPop::Closed => {
                // Retirement or shutdown: tell the daemon to finish
                // pending work and close — once, and never on a corpse.
                if !conn.goodbye_queued {
                    conn.goodbye_queued = true;
                    if !slot.dead.load(Ordering::SeqCst) {
                        conn.push_control(buffers, FrameType::Goodbye, 0);
                    }
                }
                break;
            }
        }
    }
    // Flush: one vectored write per call services many wire batches.
    let slot = &conn.slot;
    let mut death = None;
    let want_write = if conn.sendq.is_empty() {
        false
    } else {
        let guard = slot.stream.lock();
        match guard.as_ref() {
            None => {
                death = Some("connection closed".to_owned());
                false
            }
            Some(stream) => {
                let mut w = stream;
                match conn.sendq.write_to(&mut w, buffers) {
                    Ok(WriteOutcome::Drained) => false,
                    Ok(WriteOutcome::Blocked) => true,
                    Err(e) => {
                        death = Some(format!("write error: {e}"));
                        false
                    }
                }
            }
        }
    };
    if death.is_none() && want_write != conn.want_write {
        let interest = if want_write {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if poller.modify(conn.fd, slot.id, interest).is_ok() {
            conn.want_write = want_write;
        }
    }
    slot.send_q_depth
        .store(conn.sendq.frames(), Ordering::Relaxed);
    death
}

/// The single-reactor event loop: owns every connection, the poller, the
/// timer wheel and the frame-buffer pool. One instance, one thread, any
/// number of slots.
struct Reactor<Out: Send + 'static> {
    shared: Arc<PoolShared<Out>>,
    poller: Poller,
    waker: Waker,
    cmds: Receiver<ReactorCmd>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel<TimerKey>,
    buffers: BufferPool,
    /// Socket read chunk, reused across every connection.
    scratch: Vec<u8>,
    /// Reused readiness-event and due-timer buffers.
    events: Vec<Event>,
    due: Vec<TimerKey>,
    /// Reused wire-batch staging buffer.
    batch: Vec<Task<Vec<u8>>>,
    /// Reused pump-order scratch (round-robin fairness across slots).
    order: Vec<u64>,
    pump_cursor: usize,
    /// Decoded results staged per connection service, then batched into
    /// the collector channel.
    out: Vec<(u64, Out)>,
    heartbeat_period: Duration,
    failure_timeout: Duration,
    stopping: bool,
}

impl<Out: Send + 'static> Reactor<Out> {
    fn run(mut self) {
        let now = Instant::now();
        self.wheel
            .arm(now + self.heartbeat_period, TimerKey::Heartbeat);
        if self.shared.resilience.task_deadline.is_some()
            || self.shared.resilience.hedge_quantile.is_some()
        {
            self.wheel
                .arm(now + self.heartbeat_period, TimerKey::SpecSweep);
        }
        loop {
            self.drain_cmds();
            self.fire_timers();
            self.pump_all();
            if self.stopping {
                self.finalize();
                return;
            }
            let timeout = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // `Poller::wait` retries EINTR internally, so any error
                // surfacing here means the poller itself is broken and
                // no readiness will ever be observed again. Escalate to
                // a pool shutdown instead of busy-spinning on the error.
                self.poison(&e);
            }
            self.handle_events(&events);
            self.events = events;
        }
    }

    /// Poller-failure escalation: fail every connection (recovering
    /// in-flight work), mark the pool poisoned so stranded tasks are
    /// reported lost rather than parked forever (the collector's
    /// convergence accounting stays closed and the output stream still
    /// terminates), journal the escalation, and shut the reactor down.
    fn poison(&mut self, err: &std::io::Error) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.finish_conn(token, "reactor poller failed".into());
        }
        self.shared.core.poison(format!(
            "reactor: epoll_wait failed: {err}; escalating to pool shutdown"
        ));
        self.stopping = true;
    }

    fn drain_cmds(&mut self) {
        while let Ok(cmd) = self.cmds.try_recv() {
            match cmd {
                ReactorCmd::Register(seed) => self.register(seed),
                ReactorCmd::Shutdown => self.stopping = true,
            }
        }
    }

    fn register(&mut self, seed: ConnSeed) {
        let token = seed.slot.id;
        let fd = seed.slot.stream.lock().as_ref().map(|s| s.as_raw_fd());
        let Some(fd) = fd else {
            return; // severed before registration: nothing to watch
        };
        if let Err(e) = self.poller.add(fd, token, Interest::READ) {
            // Pathological (fd limit, etc.): treat as an immediate death
            // so the slot's tasks are recovered rather than stranded.
            if let Some(stream) = seed.slot.stream.lock().take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            self.shared
                .on_slot_death(&seed.slot, &format!("epoll register: {e}"));
            return;
        }
        self.wheel.arm(
            Instant::now() + self.failure_timeout,
            TimerKey::FailureDeadline(token),
        );
        self.conns.insert(
            token,
            Conn {
                slot: seed.slot,
                fd,
                decoder: seed.decoder,
                cipher_in: seed.cipher_in,
                cipher_out: seed.cipher_out,
                sendq: SendQueue::new(),
                want_write: false,
                goodbye_queued: false,
            },
        );
    }

    fn handle_events(&mut self, events: &[Event]) {
        let shared = Arc::clone(&self.shared);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out);
        let mut deaths: Vec<(u64, String)> = Vec::new();
        for ev in events {
            if ev.token == WAKER_TOKEN {
                self.waker.drain();
                continue;
            }
            if !ev.readable {
                continue; // write readiness alone: the pump phase flushes
            }
            let Some(conn) = self.conns.get_mut(&ev.token) else {
                continue; // already finished this tick
            };
            let death = service_readable(&shared, &mut scratch, &mut out, conn, ev.closed);
            // Forward the decoded batch per connection: one collector
            // message (and one departures record) per connection service.
            if !out.is_empty() {
                shared.core.deliver(std::mem::take(&mut out));
            }
            if let Some(reason) = death {
                deaths.push((ev.token, reason));
            }
        }
        self.scratch = scratch;
        self.out = out;
        for (token, reason) in deaths {
            self.finish_conn(token, reason);
        }
    }

    fn fire_timers(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        let lag = self.wheel.pop_due(Instant::now(), &mut due);
        if !due.is_empty() {
            self.shared
                .metrics
                .reactor_lag_us
                .store(lag.as_micros() as u64, Ordering::Relaxed);
        }
        let mut deaths: Vec<(u64, String)> = Vec::new();
        for key in due.drain(..) {
            match key {
                TimerKey::Heartbeat => {
                    self.send_heartbeats();
                    self.wheel
                        .arm(Instant::now() + self.heartbeat_period, TimerKey::Heartbeat);
                }
                TimerKey::SpecSweep => {
                    self.shared.deadline_sweep();
                    self.wheel
                        .arm(Instant::now() + self.heartbeat_period, TimerKey::SpecSweep);
                }
                TimerKey::FailureDeadline(token) => {
                    let Some(conn) = self.conns.get(&token) else {
                        continue; // stale key for a finished connection
                    };
                    let slot = &conn.slot;
                    let silent_for = slot.last_seen.lock().elapsed();
                    if !slot.retiring.load(Ordering::SeqCst) && silent_for > self.failure_timeout {
                        *slot.suspect_reason.lock() = Some(format!(
                            "heartbeat deadline missed: silent for {silent_for:?} (timeout {:?})",
                            self.failure_timeout
                        ));
                        deaths.push((token, "connection closed".to_owned()));
                    } else {
                        // Any inbound frame pushed the deadline out; the
                        // daemon's busy pulse keeps a slot mid-long-task
                        // alive through exactly this re-arm.
                        let due = *slot.last_seen.lock() + self.failure_timeout;
                        self.wheel.arm(due, TimerKey::FailureDeadline(token));
                    }
                }
                TimerKey::BackoffExpire(idx) => {
                    // Bookkeeping only: never a connect attempt — an Open
                    // circuit is probed solely through `pick_endpoint`
                    // when an actuator asks for capacity.
                    if let Some(es) = self.shared.endpoints.get(idx) {
                        es.breaker.lock().expire_window(&self.shared.resilience);
                    }
                }
            }
        }
        self.due = due;
        for (token, reason) in deaths {
            self.finish_conn(token, reason);
        }
    }

    /// Queues a heartbeat ping on every live connection (the pump phase
    /// flushes them, coalesced with any task frames).
    fn send_heartbeats(&mut self) {
        for conn in self.conns.values_mut() {
            let slot = &conn.slot;
            if slot.dead.load(Ordering::SeqCst) || slot.retiring.load(Ordering::SeqCst) {
                continue;
            }
            let ping = self.shared.next_ping.fetch_add(1, Ordering::Relaxed);
            slot.pings.lock().insert(ping, Instant::now());
            conn.push_control(&mut self.buffers, FrameType::Heartbeat, ping);
        }
    }

    /// One pump pass over every connection, rotating the start slot so a
    /// chatty connection cannot starve the rest.
    fn pump_all(&mut self) {
        self.order.clear();
        self.order.extend(self.conns.keys().copied());
        let n = self.order.len();
        if n == 0 {
            return;
        }
        self.pump_cursor = self.pump_cursor.wrapping_add(1);
        let start = self.pump_cursor % n;
        let mut deaths: Vec<(u64, String)> = Vec::new();
        for i in 0..n {
            let token = self.order[(start + i) % n];
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if let Some(reason) = pump_conn(
                &self.shared,
                &self.poller,
                &mut self.buffers,
                &mut self.batch,
                conn,
            ) {
                deaths.push((token, reason));
            }
        }
        for (token, reason) in deaths {
            self.finish_conn(token, reason);
        }
    }

    /// Ends one connection: deregisters and closes the socket, then
    /// decides between a clean retirement and the crash-recovery death
    /// path — the same decision the dedicated reader thread used to make
    /// on exit.
    fn finish_conn(&mut self, token: u64, io_reason: String) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let slot = conn.slot;
        if let Some(stream) = slot.stream.lock().take() {
            let _ = self.poller.delete(stream.as_raw_fd());
            let _ = stream.shutdown(Shutdown::Both);
        }
        slot.send_q_depth.store(0, Ordering::Relaxed);
        let reason = slot.suspect_reason.lock().take().unwrap_or(io_reason);
        if self.shared.core.terminating.load(Ordering::SeqCst) {
            return; // pool shutdown: the stream already completed.
        }
        let unresolved = slot.inflight_count.load(Ordering::SeqCst) > 0 || !slot.queue.is_empty();
        if slot.retiring.load(Ordering::SeqCst) && !unresolved {
            return; // clean cooperative retirement.
        }
        // Abrupt death (or a retiring daemon that crashed with work still
        // unresolved): recover everything this slot held.
        self.shared.on_slot_death(&slot, &reason);
        // Schedule the breaker's failure-window bookkeeping tick.
        if let Some(idx) = self.shared.endpoint_index(&slot.endpoint) {
            let window = self.shared.resilience.failure_window();
            self.wheel
                .arm(Instant::now() + window, TimerKey::BackoffExpire(idx));
        }
    }

    /// Shutdown: flush every remaining Goodbye with a bounded blocking
    /// write, then close everything. Teardown errors are surfaced in the
    /// pool's disconnect log instead of silently dropped.
    fn finalize(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if !conn.goodbye_queued && !conn.slot.dead.load(Ordering::SeqCst) {
                conn.push_control(&mut self.buffers, FrameType::Goodbye, 0);
            }
            let slot = &conn.slot;
            if let Some(stream) = slot.stream.lock().take() {
                let _ = self.poller.delete(stream.as_raw_fd());
                if !conn.sendq.is_empty() {
                    // Bounded blocking flush: a wedged daemon cannot hang
                    // shutdown for more than the write timeout.
                    let flushed = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_write_timeout(Some(GOODBYE_TIMEOUT)))
                        .and_then(|()| {
                            flush_goodbye(&mut conn.sendq, &mut &stream, &mut self.buffers)
                        });
                    if let Err(e) = flushed {
                        self.shared.disconnects.lock().push(format!(
                            "slot {} ({}): goodbye failed: {e}",
                            slot.id, slot.endpoint.addr
                        ));
                    }
                }
                let _ = stream.shutdown(Shutdown::Both);
            }
            slot.send_q_depth.store(0, Ordering::Relaxed);
        }
    }
}

/// How long shutdown waits for a daemon to take its Goodbye.
const GOODBYE_TIMEOUT: Duration = Duration::from_millis(250);

/// Flushes a connection's last queued bytes at shutdown, through a writer
/// that blocks for at most its write timeout. A blocking socket reports
/// that timeout as `WouldBlock`, which `write_to` turns into
/// [`WriteOutcome::Blocked`]: a Goodbye left unsent that way has failed too.
fn flush_goodbye(
    sendq: &mut SendQueue,
    w: &mut impl Write,
    buffers: &mut BufferPool,
) -> std::io::Result<()> {
    match sendq.write_to(w, buffers)? {
        WriteOutcome::Drained => Ok(()),
        WriteOutcome::Blocked => Err(std::io::Error::new(
            ErrorKind::TimedOut,
            format!("{} bytes unsent", sendq.bytes()),
        )),
    }
}

/// Builder for a [`RemoteWorkerPool`].
pub struct RemotePoolBuilder<In, Out> {
    name: String,
    endpoints: Vec<Endpoint>,
    workload: String,
    encode: EncodeFn<In>,
    decode: DecodeFn<Out>,
    initial_workers: u32,
    max_workers: u32,
    sched: SchedPolicy,
    gather: GatherPolicy,
    clock: Arc<dyn Clock>,
    rate_window: f64,
    heartbeat_period: Duration,
    failure_timeout: Duration,
    resilience: ResilienceConfig,
    journal: Option<Arc<Journal>>,
}

impl<In: Send + 'static, Out: Send + 'static> RemotePoolBuilder<In, Out> {
    /// A builder over the daemon workload name and the item codecs.
    pub fn new(
        workload: impl Into<String>,
        encode: impl Fn(In) -> Vec<u8> + Send + Sync + 'static,
        decode: impl Fn(&[u8]) -> Out + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: "rfarm".into(),
            endpoints: Vec::new(),
            workload: workload.into(),
            encode: Arc::new(encode),
            decode: Arc::new(decode),
            initial_workers: 1,
            max_workers: 64,
            sched: SchedPolicy::default(),
            gather: GatherPolicy::default(),
            clock: Arc::new(RealClock::new()),
            rate_window: 2.0,
            heartbeat_period: Duration::from_millis(50),
            failure_timeout: Duration::from_millis(500),
            resilience: ResilienceConfig::default(),
            journal: None,
        }
    }

    /// Adds a daemon endpoint the pool may open slots against. Slots are
    /// placed round-robin over all registered endpoints.
    pub fn endpoint(mut self, e: Endpoint) -> Self {
        self.endpoints.push(e);
        self
    }

    /// Pool name (thread names, diagnostics).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attaches an ops journal: slot losses, remote panics, undeliverable
    /// loss notifications and reactor escalations are recorded into it.
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Initial number of remote slots (≥ 1).
    pub fn initial_workers(mut self, n: u32) -> Self {
        self.initial_workers = n.max(1);
        self
    }

    /// Maximum number of remote slots.
    pub fn max_workers(mut self, n: u32) -> Self {
        self.max_workers = n.max(1);
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

    /// Time source for metrics.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Window length of the rate estimators, seconds.
    pub fn rate_window(mut self, secs: f64) -> Self {
        self.rate_window = secs;
        self
    }

    /// Heartbeat send period. The failure timeout should be several
    /// periods; the daemon's busy pulse answers even mid-task, so the
    /// timeout need *not* exceed one task's service time.
    pub fn heartbeat_period(mut self, d: Duration) -> Self {
        self.heartbeat_period = d;
        self
    }

    /// Silence deadline after which a slot is declared dead.
    pub fn failure_timeout(mut self, d: Duration) -> Self {
        self.failure_timeout = d;
        self
    }

    /// Reconnect backoff bounds: first step and saturation cap for the
    /// decorrelated-jitter schedule.
    pub fn reconnect_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.resilience.reconnect_base = base;
        self.resilience.reconnect_cap = cap;
        self
    }

    /// Endpoint failures (within the failure window) that open the
    /// circuit.
    pub fn breaker_threshold(mut self, n: u32) -> Self {
        self.resilience.breaker_threshold = n;
        self
    }

    /// Minimum quarantine an Open circuit serves before a Half-Open
    /// probe is due.
    pub fn breaker_cooldown(mut self, d: Duration) -> Self {
        self.resilience.breaker_cooldown = d;
        self
    }

    /// Soft per-task deadline enabling speculative re-execution of
    /// overdue in-flight tasks.
    pub fn task_deadline(mut self, d: Duration) -> Self {
        self.resilience.task_deadline = Some(d);
        self
    }

    /// Seed for the reconnect-jitter RNG (deterministic replay).
    pub fn resilience_seed(mut self, seed: u64) -> Self {
        self.resilience.seed = seed;
        self
    }

    /// Enables the retry budget gating every re-dispatch path: each
    /// delivered result deposits `ratio` tokens, each re-dispatch
    /// withdraws one, and the bucket idles at `min_tokens`.
    pub fn retry_budget(mut self, ratio: f64, min_tokens: f64) -> Self {
        self.resilience.retry_budget = Some(RetryBudgetConfig { ratio, min_tokens });
        self
    }

    /// Enables hedged dispatch at the given rolling latency quantile
    /// (e.g. `0.95`; clamped into `[0.01, 0.999]` at build time).
    pub fn hedge_quantile(mut self, q: f64) -> Self {
        self.resilience.hedge_quantile = Some(q);
        self
    }

    /// Connects the initial slots and starts the pool.
    ///
    /// Fails if no endpoint was registered or fewer than the requested
    /// initial slots could be connected.
    pub fn build(self) -> Result<RemoteWorkerPool<In, Out>, String> {
        if self.endpoints.is_empty() {
            return Err("no endpoints registered".into());
        }
        let resilience = self.resilience.sanitize();
        let heartbeat_period = clamp_duration(self.heartbeat_period);
        let failure_timeout = clamp_duration(self.failure_timeout);
        // One jitter stream per endpoint, derived from the policy seed,
        // so a fixed seed replays the whole reconnect schedule.
        let endpoint_states: Vec<EndpointState> = self
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| EndpointState {
                endpoint: e.clone(),
                breaker: Mutex::new(Breaker::new(
                    &resilience,
                    resilience
                        .seed
                        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )),
            })
            .collect();
        let (input_tx, input_rx) = unbounded::<StreamMsg<In>>();
        let (output_tx, output_rx) = unbounded::<StreamMsg<Out>>();
        let (reactor_tx, reactor_rx) = unbounded::<ReactorCmd>();

        // The reactor's poller and its cross-thread waker exist before
        // any slot does: a failed epoll/eventfd setup fails the build.
        let poller = Poller::new().map_err(|e| format!("epoll setup: {e}"))?;
        let waker = Waker::new().map_err(|e| format!("eventfd setup: {e}"))?;
        poller
            .add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)
            .map_err(|e| format!("epoll waker registration: {e}"))?;

        let (core, results_rx) = FarmCore::new(
            self.name.clone(),
            self.clock,
            self.rate_window,
            self.journal,
        );
        let shared = Arc::new(PoolShared {
            core,
            metrics: PoolMetrics::default(),
            slots: Mutex::new(Vec::new()),
            retired_slots: Mutex::new(Vec::new()),
            disconnects: Mutex::new(Vec::new()),
            next_slot_id: AtomicU64::new(0),
            next_endpoint: AtomicUsize::new(0),
            next_ping: AtomicU64::new(0),
            reactor_tx: reactor_tx.clone(),
            waker: waker.clone(),
            decode: Arc::clone(&self.decode),
            endpoints: endpoint_states,
            workload: self.workload.clone(),
            meter: Arc::new(CostMeter::new()),
            max_workers: self.max_workers,
            budget: resilience.retry_budget.map(RetryBudget::new),
            resilience,
            latency: Mutex::new(LatencyWindow::new()),
            spec: Mutex::new(SpecRegistry::default()),
            spec_touched: AtomicBool::new(false),
        });

        {
            // Initial slots: all-or-nothing so a misconfigured endpoint
            // fails loudly at build time (no breaker second-guessing —
            // the caller asked for exactly this capacity).
            let mut seeds = Vec::new();
            for i in 0..self.initial_workers {
                let idx = i as usize % shared.endpoints.len();
                let es = &shared.endpoints[idx];
                seeds.push(shared.connect_slot(&es.endpoint)?);
                es.breaker.lock().on_success(&shared.resilience);
            }
            let mut slots = shared.slots.lock();
            slots.extend(seeds.iter().map(|seed| Arc::clone(&seed.slot)));
            shared.core.publish(&slots);
            drop(slots);
            for seed in seeds {
                reactor_tx
                    .send(ReactorCmd::Register(seed))
                    .expect("the reactor's receiver is still local");
            }
        }

        // The reactor: every slot's I/O, every timer, one thread.
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{}-reactor", self.name))
                .spawn(move || {
                    Reactor {
                        shared,
                        poller,
                        waker,
                        cmds: reactor_rx,
                        conns: HashMap::new(),
                        wheel: TimerWheel::new(Instant::now(), TICK, WHEEL_SLOTS),
                        buffers: BufferPool::new(POOL_BUFFERS, POOL_BUF_CAP),
                        scratch: vec![0u8; READ_CHUNK],
                        events: Vec::with_capacity(64),
                        due: Vec::new(),
                        batch: Vec::with_capacity(WIRE_BATCH),
                        order: Vec::new(),
                        pump_cursor: 0,
                        out: Vec::new(),
                        heartbeat_period,
                        failure_timeout,
                        stopping: false,
                    }
                    .run()
                })
                .map_err(|e| format!("spawn reactor: {e}"))?
        };

        // Emitter: the farm's, with the encode step and a reactor kick
        // after each dispatch.
        let emitter = {
            let shared = Arc::clone(&shared);
            let encode = Arc::clone(&self.encode);
            let sched = self.sched;
            std::thread::Builder::new()
                .name(format!("{}-emitter", self.name))
                .spawn(move || {
                    shared
                        .core
                        .emitter(input_rx, sched, |x| encode(x), || shared.wake())
                })
                .map_err(|e| format!("spawn emitter: {e}"))?
        };

        let collector = {
            let shared = Arc::clone(&shared);
            let gather = self.gather;
            std::thread::Builder::new()
                .name(format!("{}-collector", self.name))
                .spawn(move || shared.core.collector(results_rx, output_tx, gather))
                .map_err(|e| format!("spawn collector: {e}"))?
        };

        Ok(RemoteWorkerPool {
            input: input_tx,
            output: output_rx,
            shared,
            emitter: Some(emitter),
            collector: Some(collector),
            reactor: Some(reactor),
        })
    }
}

/// A running distributed farm over remote `bskel-workerd` slots.
///
/// Same interface as the local `Farm`: an input/output stream pair and a
/// [`FarmControl`] surface for the autonomic manager.
pub struct RemoteWorkerPool<In, Out> {
    input: Sender<StreamMsg<In>>,
    output: Receiver<StreamMsg<Out>>,
    shared: Arc<PoolShared<Out>>,
    emitter: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
    reactor: Option<JoinHandle<()>>,
}

impl<In: Send + 'static, Out: Send + 'static> RemoteWorkerPool<In, Out> {
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

    /// Current number of live remote slots.
    pub fn num_workers(&self) -> usize {
        self.shared.core.table.load().len()
    }

    /// Cumulative slots lost to failures.
    pub fn workers_lost(&self) -> u64 {
        self.shared.core.sensors.workers_lost.load(Ordering::SeqCst)
    }

    /// Speculative re-executions the deadline sweep has dispatched.
    pub fn tasks_retried(&self) -> u64 {
        self.shared.metrics.tasks_retried.load(Ordering::SeqCst)
    }

    /// Speculated tasks whose retry copy answered first.
    pub fn speculative_wins(&self) -> u64 {
        self.shared.metrics.spec_wins.load(Ordering::SeqCst)
    }

    /// Late answers for already-resolved speculated tasks that were
    /// dropped instead of double-delivered.
    pub fn duplicates_dropped(&self) -> u64 {
        self.shared.metrics.spec_dups.load(Ordering::SeqCst)
    }

    /// Endpoints currently quarantined by their circuit breaker.
    pub fn circuit_open_count(&self) -> u32 {
        self.shared.open_circuits()
    }

    /// Hedged (quantile-triggered) duplicate dispatches launched.
    pub fn hedges_launched(&self) -> u64 {
        self.shared.metrics.hedges_launched.load(Ordering::SeqCst)
    }

    /// Hedged tasks whose duplicate copy answered first.
    pub fn hedge_wins(&self) -> u64 {
        self.shared.metrics.hedge_wins.load(Ordering::SeqCst)
    }

    /// Tokens left in the retry budget, `None` when no budget is
    /// configured.
    pub fn retry_budget_tokens(&self) -> Option<f64> {
        self.shared.budget.as_ref().map(RetryBudget::tokens)
    }

    /// Accumulated secure-channel costs (zero for plain endpoints) — the
    /// measured counterpart of the simulator's `SslCostModel`.
    pub fn cost_report(&self) -> CostReport {
        self.shared.meter.report()
    }

    /// Waits for the stream to complete, retires every connection with a
    /// `Goodbye`, and tears everything down. Connection-teardown errors
    /// are surfaced in [`ShutdownReport::disconnects`] instead of being
    /// silently dropped.
    pub fn shutdown(mut self) -> ShutdownReport {
        // Stream completion first (mirrors Farm::shutdown): the caller
        // sent End, the collector exits once all results converged — the
        // reactor must stay alive until then.
        let core = &self.shared.core;
        if let Some(e) = self.emitter.take() {
            core.record_join("emitter", e.join());
        }
        if let Some(c) = self.collector.take() {
            core.record_join("collector", c.join());
        }
        core.terminating.store(true, Ordering::SeqCst);
        let slots: Vec<Arc<SlotShared>> = std::mem::take(&mut *self.shared.slots.lock());
        // Closing the queues routes every connection into the reactor's
        // Goodbye path; the reactor's finalize flushes and closes.
        for s in &slots {
            s.queue.close();
        }
        core.table.publish(Vec::new());
        let _ = self.shared.reactor_tx.send(ReactorCmd::Shutdown);
        self.shared.wake();
        if let Some(r) = self.reactor.take() {
            core.record_join("reactor", r.join());
        }
        core.shutdown_report(std::mem::take(&mut *self.shared.disconnects.lock()))
    }
}

impl<In, Out> Drop for RemoteWorkerPool<In, Out> {
    fn drop(&mut self) {
        // Best-effort teardown when shutdown() was not called: sever
        // everything (the stream may never complete, so the reactor must
        // not wait on daemons) and reap the reactor.
        let Some(reactor) = self.reactor.take() else {
            return; // shutdown() already ran
        };
        self.shared.core.terminating.store(true, Ordering::SeqCst);
        let slots: Vec<Arc<SlotShared>> = std::mem::take(&mut *self.shared.slots.lock());
        for s in &slots {
            s.queue.close();
            s.sever();
        }
        self.shared.core.table.publish(Vec::new());
        let _ = self.shared.reactor_tx.send(ReactorCmd::Shutdown);
        self.shared.waker.wake();
        if let Err(payload) = reactor.join() {
            // Not silently dropped even on the best-effort path.
            eprintln!(
                "remote pool: reactor panicked: {}",
                panic_message(payload.as_ref())
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- shutdown -------------------------------------------------------

    /// A peer that takes no bytes: every write would block, as a blocking
    /// socket's does once its write timeout has run out.
    struct Wedged;

    impl Write for Wedged {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::WouldBlock.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_goodbye_cut_off_by_the_write_timeout_is_reported() {
        let mut buffers = BufferPool::new(4, 1 << 16);
        let mut sendq = SendQueue::new();
        let mut goodbye = Vec::new();
        encode_frame(&mut goodbye, FrameType::Goodbye, 0, &[]);
        let n = goodbye.len();
        sendq.push(goodbye, 1);
        let err = flush_goodbye(&mut sendq, &mut Wedged, &mut buffers)
            .expect_err("a wedged peer took no byte of the Goodbye");
        assert_eq!(err.to_string(), format!("{n} bytes unsent"));

        let mut peer = Vec::new();
        flush_goodbye(&mut sendq, &mut peer, &mut buffers).expect("a live peer takes it all");
        assert_eq!(peer.len(), n);
    }

    // -- resilience-policy configuration --------------------------------

    #[test]
    fn budget_and_hedge_config_sanitize() {
        let cfg = ResilienceConfig {
            retry_budget: Some(RetryBudgetConfig {
                ratio: f64::NAN,
                min_tokens: -3.0,
            }),
            hedge_quantile: Some(7.0),
            ..ResilienceConfig::default()
        }
        .sanitize();
        let b = cfg.retry_budget.unwrap();
        assert_eq!(b.ratio, 0.0);
        assert_eq!(b.min_tokens, 0.0);
        assert!((cfg.hedge_quantile.unwrap() - 0.999).abs() < 1e-12);
    }

    // -- retry-budget token bucket --------------------------------------

    #[test]
    fn retry_budget_floors_deposits_and_forced_charges() {
        let b = RetryBudget::new(RetryBudgetConfig {
            ratio: 0.5,
            min_tokens: 2.0,
        });
        assert!((b.tokens() - 2.0).abs() < 1e-12);
        assert!(b.try_charge(1.0));
        assert!(b.try_charge(1.0));
        assert!(!b.try_charge(1.0)); // empty: discretionary work refused
        b.charge_forced(5.0); // forced work floors at zero, never refuses
        assert_eq!(b.tokens(), 0.0);
        for _ in 0..1000 {
            b.deposit(1.0);
        }
        assert!((b.tokens() - 20.0).abs() < 1e-12); // cap = 10 × floor
    }

    #[test]
    fn zero_budget_refuses_all_discretionary_work() {
        let b = RetryBudget::new(RetryBudgetConfig {
            ratio: 0.0,
            min_tokens: 0.0,
        });
        b.deposit(100.0);
        assert!(!b.try_charge(1.0));
    }

    // -- hedging latency window -----------------------------------------

    #[test]
    fn latency_quantile_needs_min_samples_then_tracks_tail() {
        let mut w = LatencyWindow::new();
        for _ in 0..(HEDGE_MIN_SAMPLES - 1) {
            w.record(0.010);
        }
        assert!(w.quantile(0.95).is_none());
        w.record(0.010);
        let q = w.quantile(0.95).unwrap();
        assert!((q - 0.010).abs() < 1e-9);
        // A slow tail pulls the p95 up without moving the median much.
        for _ in 0..4 {
            w.record(0.500);
        }
        assert!(w.quantile(0.95).unwrap() > 0.010);
        assert!((w.quantile(0.50).unwrap() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn latency_window_wraps_at_capacity() {
        let mut w = LatencyWindow::new();
        for _ in 0..LATENCY_WINDOW {
            w.record(1.0);
        }
        for _ in 0..LATENCY_WINDOW {
            w.record(0.001);
        }
        // The old generation is fully evicted.
        assert!(w.quantile(0.999).unwrap() < 0.01);
    }

    // -- decorrelated-jitter reconnect backoff (property test) ----------

    /// Property: for any failure history, every backoff delay stays in
    /// `[reconnect_base, reconnect_cap]`, and the whole schedule is a
    /// deterministic function of the resilience seed.
    #[test]
    fn breaker_backoff_bounded_and_deterministic_per_seed() {
        let cfg = ResilienceConfig {
            reconnect_base: Duration::from_millis(20),
            reconnect_cap: Duration::from_millis(700),
            ..ResilienceConfig::default()
        }
        .sanitize();
        for seed in [0u64, 1, 0xB5E7, 0xDEAD_BEEF, u64::MAX] {
            let schedule = |s: u64| -> Vec<Duration> {
                let mut b = Breaker::new(&cfg, s);
                let mut out = Vec::new();
                for i in 0..200 {
                    b.on_failure(&cfg);
                    out.push(b.backoff);
                    // Interleave successes so the schedule also covers
                    // post-reset growth, not just saturation at the cap.
                    if i % 17 == 16 {
                        b.on_success(&cfg);
                    }
                }
                out
            };
            let a = schedule(seed);
            for (i, d) in a.iter().enumerate() {
                assert!(
                    *d >= cfg.reconnect_base,
                    "seed {seed}, step {i}: {d:?} fell below base {:?}",
                    cfg.reconnect_base
                );
                assert!(
                    *d <= cfg.reconnect_cap,
                    "seed {seed}, step {i}: {d:?} exceeded cap {:?}",
                    cfg.reconnect_cap
                );
            }
            // Deterministic per seed: same seed, same schedule ...
            assert_eq!(a, schedule(seed));
        }
        // ... and different seeds actually diverge (jitter is real).
        let cfg2 = cfg.clone();
        let mut b1 = Breaker::new(&cfg2, 1);
        let mut b2 = Breaker::new(&cfg2, 2);
        let mut diverged = false;
        for _ in 0..50 {
            b1.on_failure(&cfg2);
            b2.on_failure(&cfg2);
            if b1.backoff != b2.backoff {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "distinct seeds produced identical schedules");
    }
}

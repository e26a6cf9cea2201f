//! The seven workloads and the machinery they share: the run plan, the
//! coordinator that samples `/proc` at the measured part's edges, and the
//! generator/drain pair that drives one ordered stream.

pub mod control;
pub mod elastic;
pub mod farm;
pub mod pool;
pub mod storm;
pub mod tenants;

use crate::check::{Breaches, OrderedStream};
use crate::load::{self, Credit, GenReport, Recorder, SentTimes, Switches, WindowSummary};
use crate::procfs::{self, CpuDelta};
use crate::trace::Span;
use bskel_skel::stream::StreamMsg;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 7] = [
    "farm_fine",
    "pool_echo_wide",
    "pool_open",
    "pool_bulk_secure",
    "tenants_mixed",
    "elastic_heal",
    "control_storm",
];

/// Warm-up discarded before the measured part.
pub const WARMUP_S: f64 = 2.0;
/// An open-loop schedule runs this much past the measured part, so every
/// thread is still alive when the coordinator takes its last snapshot.
pub const COOLDOWN_S: f64 = 0.25;
/// Busy threads the harness itself runs per workload (`perf-gen` plus
/// `perf-drain` or `perf-ctl`); the coordinating main thread sleeps.
pub const HARNESS_THREADS: usize = 2;

/// What one child process is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured part, s.
    pub seconds: u64,
    /// Split the measured part into an untraced and a traced half and
    /// report per-layer metrics.
    pub trace: bool,
    /// Stop once the first task was accepted (set-up timing only).
    pub setup_only: bool,
    /// Origin of every timestamp: the child's start.
    pub t0: Instant,
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Child start to first task accepted, s.
    pub setup_s: f64,
    /// End-to-end metric values by name (`setup_s` and `peak_rss_mb` are
    /// added by the caller).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layer: Vec<(String, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Oracle breaches.
    pub breaches: Breaches,
    /// Why the run's numbers cannot be trusted, if so.
    pub invalid: Option<String>,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
    /// Checksum of the generated inputs.
    pub input_hash: u64,
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "farm_fine" => farm::run(args),
        "pool_echo_wide" => pool::run(&pool::ECHO_WIDE, args),
        "pool_open" => pool::run(&pool::OPEN, args),
        "pool_bulk_secure" => pool::run(&pool::BULK_SECURE, args),
        "tenants_mixed" => tenants::run(args),
        "elastic_heal" => elastic::run(args),
        "control_storm" => storm::run(args),
        _ => return None,
    })
}

/// The measured part of a run: `seconds` one-second windows after the
/// warm-up; a traced run's second half is the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up, ns.
    pub warmup_ns: u64,
    /// Measured windows.
    pub seconds: u64,
    /// Whether the second half is traced.
    pub trace: bool,
}

impl Plan {
    /// The plan for `args`.
    pub fn new(args: &RunArgs) -> Self {
        Self {
            warmup_ns: (WARMUP_S * 1e9) as u64,
            seconds: args.seconds,
            trace: args.trace,
        }
    }

    /// Warm-up, measured part and cool-down: how long an open-loop
    /// schedule lasts, s.
    pub fn total_s(&self) -> f64 {
        self.warmup_ns as f64 / 1e9 + self.seconds as f64 + COOLDOWN_S
    }

    fn split(&self) -> usize {
        if self.trace {
            (self.seconds / 2) as usize
        } else {
            self.seconds as usize
        }
    }

    /// Windows measured without tracing (all of them in an untraced run).
    pub fn untraced(&self) -> std::ops::Range<usize> {
        0..self.split()
    }

    /// Windows of the traced phase (empty in an untraced run).
    pub fn traced(&self) -> std::ops::Range<usize> {
        self.split()..self.seconds as usize
    }

    /// The windows the reported numbers come from: the traced phase in a
    /// traced run, everything otherwise.
    pub fn reported(&self) -> std::ops::Range<usize> {
        if self.trace {
            self.traced()
        } else {
            self.untraced()
        }
    }
}

/// State shared by the coordinator and the harness threads of one run.
#[derive(Debug)]
pub struct Shared {
    /// Origin of every timestamp.
    pub t0: Instant,
    /// Tracing and stop switches.
    pub switches: Switches,
    /// When the generator started (ns from `t0`); 0 until it has.
    pub run_start_ns: AtomicU64,
}

impl Shared {
    /// Fresh state with origin `t0`.
    pub fn new(t0: Instant) -> Arc<Self> {
        Arc::new(Self {
            t0,
            switches: Switches::default(),
            run_start_ns: AtomicU64::new(0),
        })
    }

    /// Generator: marks the run's start and returns it.
    pub fn start_run(&self) -> u64 {
        let now = load::now_ns(self.t0).max(1);
        self.run_start_ns.store(now, Ordering::SeqCst);
        now
    }

    /// Set-up time so far, s: call right after the first submit returned.
    pub fn setup_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Blocks until the generator has started; returns the start.
    pub fn wait_run_start(&self) -> u64 {
        loop {
            let s = self.run_start_ns.load(Ordering::SeqCst);
            if s != 0 {
                return s;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn sleep_until(&self, ns: u64) {
        let target = self.t0 + Duration::from_nanos(ns);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    }
}

/// What the coordinator measured around the harness threads.
#[derive(Debug, Default)]
pub struct Coordinated {
    /// CPU over the reported windows (see [`Plan::reported`]).
    pub cpu: CpuDelta,
    /// Most threads alive at a poll.
    pub threads_peak: usize,
    /// Most descriptors open at a poll.
    pub fds_peak: usize,
}

/// Runs the calling (main) thread as coordinator: sleeps to the edges of
/// the measured part, snapshots `/proc` there, flips the tracing switch
/// for the traced phase and polls `poll` at 10 Hz while it lasts, and
/// finally stops a closed loop.
pub fn coordinate(
    shared: &Shared,
    plan: &Plan,
    closed_loop: bool,
    mut poll: impl FnMut(),
) -> Coordinated {
    let start = shared.wait_run_start() + plan.warmup_ns;
    let window = |w: usize| start + w as u64 * 1_000_000_000;
    let mut out = Coordinated::default();
    let reported = plan.reported();
    shared.sleep_until(window(reported.start));
    let before = procfs::cpu_snapshot();
    if plan.trace {
        shared.switches.tracing.store(true, Ordering::SeqCst);
        let mut next = window(reported.start);
        while next < window(reported.end) {
            poll();
            out.threads_peak = out.threads_peak.max(procfs::thread_count());
            out.fds_peak = out.fds_peak.max(procfs::fd_count());
            next += 100_000_000;
            shared.sleep_until(next.min(window(reported.end)));
        }
    }
    shared.sleep_until(window(reported.end));
    let after = procfs::cpu_snapshot();
    shared.switches.tracing.store(false, Ordering::SeqCst);
    out.cpu = CpuDelta::between(&before, &after);
    if closed_loop {
        // Let the last window fill before the generator stops.
        std::thread::sleep(Duration::from_millis(20));
        shared.switches.stop.store(true, Ordering::SeqCst);
    }
    out
}

/// How a stream is loaded.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Fixed schedule of `rate` tasks/s.
    Open {
        /// Offered rate, tasks/s.
        rate: f64,
    },
    /// At most `window` tasks outstanding.
    Closed {
        /// Credit window.
        window: u64,
    },
}

/// Work the drain thread does between deliveries (`elastic_heal`'s
/// control loop); with a hook the drain polls instead of blocking and is
/// named `perf-ctl`.
pub trait DrainHook: Send + 'static {
    /// Called at least every 100 µs with the current time.
    fn poll(&mut self, now_ns: u64);

    /// Called for every sampled delivery with its time.
    fn delivered(&mut self, _now_ns: u64) {}
}

impl DrainHook for () {
    fn poll(&mut self, _now_ns: u64) {}
}

/// How often a hooked drain polls.
const HOOK_PERIOD: Duration = Duration::from_micros(100);

/// What driving one stream produced.
#[derive(Debug)]
pub struct StreamRun<H> {
    /// Generator side.
    pub gen: GenReport,
    /// Drain side; `None` when nothing was ever delivered.
    pub rec: Option<Recorder>,
    /// Ordering, payload and completeness breaches.
    pub breaches: Breaches,
    /// Coordinator's measurements.
    pub coord: Coordinated,
    /// The hook, handed back.
    pub hook: Option<H>,
}

/// Drives one ordered stream: `perf-gen` submits `make(seq)` open- or
/// closed-loop, the drain checks every delivery with `verify` (which
/// returns the task's embedded position and whether the payload matches
/// the reference), and the calling thread coordinates. Latency is
/// sampled on every `stride`-th task. Tasks before `first_seq` were
/// already submitted by the set-up. Returns once the stream's `End` came
/// back.
#[allow(clippy::too_many_arguments)]
pub fn drive_stream<In, Out, H>(
    shared: &Arc<Shared>,
    plan: Plan,
    mode: Loop,
    stride: u64,
    first_seq: u64,
    tx: Sender<StreamMsg<In>>,
    rx: Receiver<StreamMsg<Out>>,
    make: impl Fn(u64) -> In + Send + 'static,
    verify: impl Fn(&Out) -> (u64, bool) + Send + 'static,
    hook: Option<H>,
    poll: impl FnMut(),
) -> StreamRun<H>
where
    In: Send + 'static,
    Out: Send + 'static,
    H: DrainHook,
{
    let window = match mode {
        Loop::Closed { window } => window,
        Loop::Open { .. } => 1,
    };
    let credit = Arc::new(Credit::new(window, first_seq));
    let sent_times = Arc::new(SentTimes::new(window, stride));
    let gap_ns = |seq: u64, rate: f64| (seq as f64 * 1e9 / rate) as u64;

    let gen = {
        let (shared, credit, sent_times) = (
            Arc::clone(shared),
            Arc::clone(&credit),
            Arc::clone(&sent_times),
        );
        std::thread::Builder::new()
            .name("perf-gen".into())
            .spawn(move || {
                let start = shared.start_run();
                let submit = |seq: u64| {
                    // A send only fails once the stream is torn down,
                    // which the drain reports as missing deliveries.
                    let _ = tx.send(StreamMsg::item(seq, make(seq)));
                };
                let report = match mode {
                    Loop::Open { rate } => {
                        let n = (rate * plan.total_s()).floor() as u64;
                        let due = (first_seq..n).map(|i| (i, start + gap_ns(i, rate)));
                        load::open_loop(
                            shared.t0,
                            due,
                            start + plan.warmup_ns,
                            &shared.switches,
                            submit,
                        )
                    }
                    Loop::Closed { .. } => load::closed_loop(
                        shared.t0,
                        first_seq,
                        &credit,
                        &sent_times,
                        &shared.switches,
                        submit,
                    ),
                };
                let _ = tx.send(StreamMsg::End);
                report
            })
            .expect("spawn perf-gen")
    };

    let drain = {
        let shared = Arc::clone(shared);
        let hooked = hook.is_some();
        std::thread::Builder::new()
            .name(if hooked { "perf-ctl" } else { "perf-drain" }.into())
            .spawn(move || {
                let mut hook = hook;
                let mut rec: Option<Recorder> = None;
                let mut check = OrderedStream::new();
                let mut next_poll = 0u64;
                loop {
                    let msg = if hooked {
                        match rx.recv_timeout(HOOK_PERIOD) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match rx.recv() {
                            Ok(m) => Some(m),
                            Err(_) => break,
                        }
                    };
                    match msg {
                        Some(StreamMsg::Item { payload, .. }) => {
                            let (id, ok) = verify(&payload);
                            check.observe(id, ok);
                            if matches!(mode, Loop::Closed { .. }) {
                                credit.release();
                            }
                            if id % stride == 0 {
                                let now = load::now_ns(shared.t0);
                                let start = shared.run_start_ns.load(Ordering::SeqCst);
                                let rec = rec.get_or_insert_with(|| {
                                    Recorder::new(start + plan.warmup_ns, plan.seconds as usize)
                                });
                                let from = match mode {
                                    Loop::Open { rate } => start + gap_ns(id, rate),
                                    Loop::Closed { .. } => sent_times.get(id),
                                };
                                rec.count(now, stride);
                                rec.latency(now, now.saturating_sub(from));
                                if let Some(h) = hook.as_mut() {
                                    h.delivered(now);
                                }
                                if id % load::TRACE_STRIDE == 0
                                    && shared.switches.tracing.load(Ordering::Relaxed)
                                {
                                    rec.stamp(id, now);
                                }
                            }
                        }
                        Some(StreamMsg::End) => break,
                        None => {}
                    }
                    if let Some(h) = hook.as_mut() {
                        let now = load::now_ns(shared.t0);
                        if now >= next_poll {
                            h.poll(now);
                            next_poll = now + HOOK_PERIOD.as_nanos() as u64;
                        }
                    }
                }
                (rec, check, hook)
            })
            .expect("spawn drain")
    };

    let coord = coordinate(shared, &plan, matches!(mode, Loop::Closed { .. }), poll);
    let gen = gen.join().expect("perf-gen panicked");
    let (rec, check, hook) = drain.join().expect("drain panicked");
    let breaches = check.finish(first_seq + gen.sent);
    StreamRun {
        gen,
        rec,
        breaches,
        coord,
        hook,
    }
}

/// The end-to-end numbers every stream workload derives the same way.
#[derive(Debug, Default)]
pub struct StreamNumbers {
    /// Over the reported windows.
    pub reported: WindowSummary,
    /// Over the untraced windows of a traced run (else same as reported).
    pub untraced: WindowSummary,
    /// CPU µs of everything but the harness threads, per delivery.
    pub cpu_us_per_task: f64,
    /// Generator lateness median, µs (open loop).
    pub gen_lateness_p50_us: f64,
    /// Generator lateness p99, µs (open loop).
    pub gen_lateness_p99_us: f64,
}

impl StreamNumbers {
    /// Derives the numbers from a finished run.
    pub fn of<H>(run: &StreamRun<H>, plan: &Plan) -> Self {
        let summarise = |r: std::ops::Range<usize>| {
            run.rec
                .as_ref()
                .map(|rec| rec.summary(r))
                .unwrap_or_default()
        };
        let reported = summarise(plan.reported());
        let untraced = summarise(plan.untraced());
        Self {
            cpu_us_per_task: run.coord.cpu.system_cpu_s() * 1e6 / reported.delivered.max(1) as f64,
            gen_lateness_p50_us: crate::stats::quantile(&run.gen.lateness_ns, 0.50) / 1e3,
            gen_lateness_p99_us: crate::stats::quantile(&run.gen.lateness_ns, 0.99) / 1e3,
            reported,
            untraced,
        }
    }

    /// The end-to-end metrics (all but `setup_s` and `peak_rss_mb`, which
    /// the child's `main` adds), given the workload's contract attainment.
    pub fn end_to_end(&self, contract_share: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("throughput_tps", self.reported.rate_median),
            ("latency_p50_us", self.reported.p50_us),
            ("contract_share", contract_share),
        ]
    }

    /// The `system.*` per-layer metrics: CPU per task and the latency
    /// distribution beyond its median. They are not end-to-end metrics
    /// because identical runs on a shared two-core machine spread wider
    /// than any bound worth setting (see `README.md`).
    pub fn system_layer(&self) -> Vec<(String, f64)> {
        system_layer(self.cpu_us_per_task, &self.reported)
    }
}

/// The `system.*` per-layer metrics from a CPU cost and a latency summary.
pub fn system_layer(cpu_us_per_task: f64, latency: &WindowSummary) -> Vec<(String, f64)> {
    vec![
        ("system.cpu_us_per_task".into(), cpu_us_per_task),
        ("system.latency_p90_us".into(), latency.p90_us),
        ("system.latency_p99w_us".into(), latency.p99w_us),
        ("system.latency_p999_us".into(), latency.p999_us),
        ("system.latency_max_us".into(), latency.max_us),
        ("system.latency_samples".into(), latency.samples as f64),
    ]
}

/// How much worse the traced phase's headline number is than the
/// untraced phase's, in percent of the untraced one.
pub fn overhead_pct(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if untraced == 0.0 {
        return 0.0;
    }
    let worse = if higher_is_better {
        untraced - traced
    } else {
        traced - untraced
    };
    100.0 * worse / untraced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_sign_follows_direction() {
        assert_eq!(overhead_pct(100.0, 90.0, true), 10.0);
        assert_eq!(overhead_pct(100.0, 110.0, false), 10.0);
        assert_eq!(overhead_pct(0.0, 5.0, true), 0.0);
    }
}

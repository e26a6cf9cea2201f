//! `tenants_mixed`: three tenants offer more than a sleep-bound pool can
//! serve, so admission control, deficit round robin and the in-flight
//! caps of `tenancy` decide who gets what. The measured stream is
//! `steady`, the victim that stays inside its budget.

use super::pool::{decode_echo, loopback_endpoints, net_layer, sense_poll, Echo, Payloads, Polled};
use super::{coordinate, system_layer, Outcome, Plan, RunArgs, Shared};
use crate::check::{check_ledger, check_shutdown, Ledger, TenantStream};
use crate::load::{self, Recorder};
use crate::seed::{burst_schedule, merge_schedules, schedule_hash, uniform_schedule, SplitMix64};
use crate::{stats, trace};
use bskel_core::Contract;
use bskel_monitor::{Clock, RealClock};
use bskel_net::RemotePoolBuilder;
use bskel_skel::GatherPolicy;
use bskel_tenancy::{LossReason, ShedPolicy, TenantFrontEnd, TenantHandle, TenantMsg, TenantSpec};
use crossbeam::channel::RecvTimeoutError;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool slots, each a daemon sleeping [`SERVICE_US`] per task, so the
/// capacity (8 000 task/s) does not depend on the machine.
pub const SLOTS: u32 = 4;
/// Daemon service time, µs.
pub const SERVICE_US: u64 = 500;
/// Payload bytes per task.
pub const PAYLOAD: usize = 64;

/// One tenant's frozen parameters.
#[derive(Debug)]
pub struct Tenant {
    /// Name.
    pub name: &'static str,
    /// DRR weight.
    pub weight: f64,
    /// Admission queue capacity.
    pub queue: usize,
    /// Full-queue policy.
    pub shed: ShedPolicy,
    /// Whether shedding is expected (offered above its share).
    pub may_shed: bool,
}

/// `steady`: 1 500 task/s uniform, weight 2 — the measured victim.
/// `bursty`: 4 000 task/s for 250 ms of every second, seeded phase.
/// `flood`: 8 000 task/s against a 64-deep rejecting queue.
pub const TENANTS: [Tenant; 3] = [
    Tenant {
        name: "steady",
        weight: 2.0,
        queue: 256,
        shed: ShedPolicy::Reject,
        may_shed: false,
    },
    Tenant {
        name: "bursty",
        weight: 1.0,
        queue: 1024,
        shed: ShedPolicy::Reject,
        may_shed: true,
    },
    Tenant {
        name: "flood",
        weight: 1.0,
        queue: 64,
        shed: ShedPolicy::Reject,
        may_shed: true,
    },
];
const STEADY: usize = 0;
const FLOOD: usize = 2;
/// `steady`'s offered rate, task/s.
pub const STEADY_RATE: f64 = 1_500.0;

/// The three due-time schedules over `duration_s`.
pub fn schedules(rng: &SplitMix64, duration_s: f64) -> [Vec<u64>; 3] {
    let phase = rng.fork("bursty-phase").next_f64();
    [
        uniform_schedule(STEADY_RATE, duration_s),
        burst_schedule(4_000.0, 0.25, 1.0, phase, duration_s),
        uniform_schedule(8_000.0, duration_s),
    ]
}

type Handle = TenantHandle<Vec<u8>, Echo>;

/// What the drain thread hands back.
struct Drained {
    steady: Option<Recorder>,
    total: Option<Recorder>,
    streams: Vec<TenantStream>,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let rng = SplitMix64::new(args.seed).fork("tenants_mixed");
    let plan = Plan::new(args);
    let due = schedules(&rng, plan.total_s());
    let payloads: Vec<Arc<Payloads>> = TENANTS
        .iter()
        .map(|t| Arc::new(Payloads::new(&mut rng.fork(t.name), PAYLOAD)))
        .collect();
    let mut merged = merge_schedules(&due);
    // `steady`'s first task is the one the set-up submits.
    let first = merged
        .iter()
        .position(|&(_, t)| t == STEADY)
        .expect("steady has tasks");
    merged.remove(first);
    let mut out = Outcome {
        input_hash: schedule_hash(merged.iter().map(|&(d, t)| d ^ t as u64)),
        ..Outcome::default()
    };
    let shared = Shared::new(args.t0);

    let clock = Arc::new(RealClock::new());
    let mut builder =
        RemotePoolBuilder::new(format!("sleep:{SERVICE_US}"), |p: Vec<u8>| p, decode_echo)
            .name("tm")
            .initial_workers(SLOTS)
            .max_workers(SLOTS)
            .gather(GatherPolicy::Ordered)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>);
    for e in loopback_endpoints(SLOTS, false) {
        builder = builder.endpoint(e);
    }
    let pool = builder.build().expect("every loopback daemon is reachable");
    let front = TenantFrontEnd::over_pool(pool.input(), pool.output(), pool.control());
    let handles: Vec<Handle> = TENANTS
        .iter()
        .map(|t| {
            let spec = TenantSpec::new(t.name, Contract::BestEffort)
                .with_weight(t.weight)
                .with_queue_capacity(t.queue)
                .with_shed_policy(t.shed);
            front.attach(spec).expect("tenant names are distinct")
        })
        .collect();
    handles[STEADY].submit(payloads[STEADY].make(0));
    out.setup_s = shared.setup_s();
    if args.setup_only {
        return out;
    }

    // Global schedule index of each `steady` task, to join its generator
    // and drain stamps (index 0 is the set-up's task, never traced).
    let steady_global: Arc<Vec<u64>> = Arc::new(
        std::iter::once(u64::MAX)
            .chain(
                merged
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, t))| t == STEADY)
                    .map(|(i, _)| i as u64),
            )
            .collect(),
    );
    let steady_due = Arc::new(std::mem::take(&mut { due }[STEADY]));
    let submitted = Arc::new(Mutex::new([1u64, 0, 0]));

    let gen = {
        let (shared, handles, payloads, submitted) = (
            Arc::clone(&shared),
            handles.clone(),
            payloads.clone(),
            Arc::clone(&submitted),
        );
        std::thread::Builder::new()
            .name("perf-gen".into())
            .spawn(move || {
                let start = shared.start_run();
                let mut next = [1u64, 0, 0];
                let schedule = merged
                    .iter()
                    .enumerate()
                    .map(|(i, &(d, _))| (i as u64, start + d));
                let report = load::open_loop(
                    shared.t0,
                    schedule,
                    start + plan.warmup_ns,
                    &shared.switches,
                    |i| {
                        let t = merged[i as usize].1;
                        // Admission is accounted from the output stream (a
                        // rejected task arrives there as a shed notice).
                        let _ = handles[t].submit(payloads[t].make(next[t]));
                        next[t] += 1;
                    },
                );
                for h in &handles {
                    h.close();
                }
                *submitted.lock().expect("submitted counts") = next;
                report
            })
            .expect("spawn perf-gen")
    };

    let drain = {
        let (shared, handles, payloads, steady_due, steady_global) = (
            Arc::clone(&shared),
            handles.clone(),
            payloads.clone(),
            Arc::clone(&steady_due),
            Arc::clone(&steady_global),
        );
        std::thread::Builder::new()
            .name("perf-drain".into())
            .spawn(move || {
                drain_loop(
                    &shared,
                    plan,
                    &handles,
                    &payloads,
                    &steady_due,
                    &steady_global,
                )
            })
            .expect("spawn perf-drain")
    };

    let polled = Polled::default();
    let depth = Arc::new(Mutex::new(Vec::new()));
    let stats_ns = Arc::new(Mutex::new(Vec::new()));
    let mut sense = sense_poll(pool.control(), Arc::clone(&clock), Arc::clone(&polled));
    let coord = coordinate(&shared, &plan, false, || {
        sense();
        let t = Instant::now();
        let s = handles[STEADY].stats();
        stats_ns
            .lock()
            .expect("stats timings")
            .push(t.elapsed().as_nanos() as f64);
        depth
            .lock()
            .expect("queue depths")
            .push(s.queue_depth as f64);
    });
    let gen = gen.join().expect("perf-gen panicked");
    let drained = drain.join().expect("perf-drain panicked");
    let frontend_p99_us = handles[STEADY].latency_quantile(0.99).unwrap_or(0.0) * 1e6;
    let report = front.shutdown();

    let submitted = *submitted.lock().expect("submitted counts");
    let mut ledgers = Vec::new();
    for (i, stream) in drained.streams.into_iter().enumerate() {
        let (seen, breaches) = stream.finish(submitted[i]);
        out.breaches.absorb(breaches);
        let reported = report
            .tenants
            .iter()
            .find(|t| t.name == TENANTS[i].name)
            .map_or(Ledger::default(), |t| Ledger {
                submitted: t.submitted,
                completed: t.completed,
                shed: t.shed,
                lost: t.lost,
            });
        out.breaches
            .absorb(check_ledger(seen, reported, TENANTS[i].may_shed));
        ledgers.push(seen);
    }
    out.attempted = submitted.iter().sum();

    let summarise =
        |rec: &Option<Recorder>, r| rec.as_ref().map(|rec| rec.summary(r)).unwrap_or_default();
    let steady = summarise(&drained.steady, plan.reported());
    let total = summarise(&drained.total, plan.reported());
    let lateness_p99_ns = stats::quantile(&gen.lateness_ns, 0.99);
    let offered_steady = (STEADY_RATE * steady.rates.len() as f64) as u64;
    let mean_gap_ns = 1e9 * plan.total_s() / (gen.sent.max(1)) as f64;
    out.invalid = load::open_loop_verdict(
        stats::median(&gen.lateness_ns),
        mean_gap_ns,
        offered_steady,
        steady.delivered,
    );
    out.e2e = vec![
        ("throughput_tps", total.rate_median),
        ("latency_p50_us", steady.p50_us),
        ("contract_share", steady.share_at_least(0.9 * STEADY_RATE)),
    ];
    if args.trace {
        out.spans = trace::task_spans(
            &gen.stamps,
            drained
                .steady
                .as_ref()
                .map_or(&[][..], |r| &r.delivered_stamps),
        );
        let untraced = summarise(&drained.steady, plan.untraced());
        let cpu = &coord.cpu;
        let system = cpu.system_cpu_s().max(f64::MIN_POSITIVE);
        // Backlogged tenants split what `steady` leaves by weight; the
        // error is how far `flood`'s completed share is from that.
        let done: Vec<f64> = ledgers.iter().map(|l| l.completed as f64).collect();
        let backlogged = done[1] + done[FLOOD];
        let share_err = if backlogged > 0.0 {
            (done[FLOOD] / backlogged - flood_fair_share(&done)).abs()
        } else {
            0.0
        };
        out.layer = net_layer(
            &pool,
            "tm",
            &coord,
            &polled.lock().expect("poll buffer"),
            &steady,
        );
        out.layer.extend(system_layer(
            cpu.system_cpu_s() * 1e6 / total.delivered.max(1) as f64,
            &steady,
        ));
        out.layer.extend([
            (
                "tenancy.submit_ns".into(),
                trace::median_ns(&out.spans, "submit"),
            ),
            (
                "tenancy.stats_ns".into(),
                stats::median(&stats_ns.lock().expect("stats timings")),
            ),
            (
                "tenancy.sched_cpu_share".into(),
                cpu.cpu_of(|t| t == "tenancy-sched") / system,
            ),
            (
                "tenancy.collect_cpu_share".into(),
                cpu.cpu_of(|t| t == "tenancy-collect") / system,
            ),
            (
                "tenancy.queue_depth_p50.steady".into(),
                stats::median(&depth.lock().expect("queue depths")),
            ),
            ("tenancy.frontend_p99_us.steady".into(), frontend_p99_us),
            (
                "tenancy.shed_share.flood".into(),
                ledgers[FLOOD].shed as f64 / ledgers[FLOOD].submitted.max(1) as f64,
            ),
            (
                "tenancy.shed_share.steady".into(),
                ledgers[STEADY].shed as f64 / ledgers[STEADY].submitted.max(1) as f64,
            ),
            ("tenancy.share_err".into(), share_err),
            ("harness.gen_lateness_p99_us".into(), lateness_p99_ns / 1e3),
            (
                "harness.trace_overhead_pct".into(),
                super::overhead_pct(untraced.p50_us, steady.p50_us, false),
            ),
            ("harness.spans".into(), out.spans.len() as f64),
        ]);
    }
    out.breaches.absorb(check_shutdown(&pool.shutdown(), false));
    out
}

/// `flood`'s fair share of what the two over-budget tenants complete
/// together: `bursty` is only backlogged while it bursts, so it takes
/// what it offers and `flood` the rest — by weight they would split
/// evenly only if both were always backlogged.
fn flood_fair_share(done: &[f64]) -> f64 {
    let bursty_offered_share = done[1] / (done[1] + done[FLOOD]);
    1.0 - bursty_offered_share.min(TENANTS[1].weight / (TENANTS[1].weight + TENANTS[FLOOD].weight))
}

/// The drain thread's state.
struct Drain<'a> {
    shared: &'a Shared,
    plan: Plan,
    payloads: &'a [Arc<Payloads>],
    streams: Vec<TenantStream>,
    ended: [bool; 3],
    total: Option<Recorder>,
}

impl Drain<'_> {
    fn recorder(&self) -> Recorder {
        let start = self.shared.run_start_ns.load(Ordering::SeqCst);
        Recorder::new(start + self.plan.warmup_ns, self.plan.seconds as usize)
    }

    /// Accounts one message of tenant `t`; for a result, returns its
    /// tenant-local sequence number and delivery time.
    fn account(&mut self, t: usize, msg: TenantMsg<Echo>) -> Option<(u64, u64)> {
        match msg {
            TenantMsg::Item { seq, payload } => {
                let (id, ok) = self.payloads[t].verify(&payload);
                self.streams[t].result(seq, ok && id == seq);
                let now = load::now_ns(self.shared.t0);
                if self.total.is_none() {
                    self.total = Some(self.recorder());
                }
                if let Some(total) = self.total.as_mut() {
                    total.count(now, 1);
                }
                Some((seq, now))
            }
            TenantMsg::Lost { seq, reason } => {
                self.streams[t].no_result(seq, reason == LossReason::Shed);
                None
            }
            TenantMsg::End => {
                self.ended[t] = true;
                None
            }
        }
    }
}

/// The drain thread: blocks on `steady`'s output (so its deliveries are
/// stamped at once) and sweeps the other two at least every millisecond,
/// until all three streams have ended.
fn drain_loop(
    shared: &Shared,
    plan: Plan,
    handles: &[Handle],
    payloads: &[Arc<Payloads>],
    steady_due: &[u64],
    steady_global: &[u64],
) -> Drained {
    let mut d = Drain {
        shared,
        plan,
        payloads,
        streams: TENANTS.iter().map(|_| TenantStream::new()).collect(),
        ended: [false; 3],
        total: None,
    };
    let mut steady: Option<Recorder> = None;
    while d.ended != [true; 3] {
        match handles[STEADY]
            .output()
            .recv_timeout(Duration::from_millis(1))
        {
            Ok(msg) => {
                if let Some((seq, now)) = d.account(STEADY, msg) {
                    let rec = steady.get_or_insert_with(|| d.recorder());
                    rec.count(now, 1);
                    if let Some(&due) = steady_due.get(seq as usize) {
                        let start = shared.run_start_ns.load(Ordering::SeqCst);
                        rec.latency(now, now.saturating_sub(start + due));
                    }
                    let global = steady_global.get(seq as usize).copied().unwrap_or(u64::MAX);
                    if global % load::TRACE_STRIDE == 0
                        && shared.switches.tracing.load(Ordering::Relaxed)
                    {
                        rec.stamp(global, now);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // The front-end is gone; whatever is missing shows up as such.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        for (t, h) in handles.iter().enumerate().skip(1) {
            for msg in h.output().try_iter() {
                d.account(t, msg);
            }
        }
    }
    Drained {
        steady,
        total: d.total,
        streams: d.streams,
    }
}

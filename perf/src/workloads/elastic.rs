//! `elastic_heal`: the paper's scenario. A production `AutonomicManager`
//! with the farm + fault-tolerance rule program keeps a remote pool on
//! its throughput contract while the harness kills workers; `core`,
//! `rules` and `monitor` decide, `net` executes the recruitment, and the
//! data plane (1 700 task/s of 2 ms sleeps) costs next to nothing.

use super::control::{cycle_span, timed_cycle, Replayer, CONTRACT_CEIL, CONTRACT_FLOOR};
use super::pool::{decode_echo, loopback_endpoints, net_layer, sense_poll, Echo, Payloads, Polled};
use super::{drive_stream, DrainHook, Loop, Outcome, Plan, RunArgs, Shared, StreamNumbers};
use crate::check::check_shutdown;
use crate::load::{self, TRACE_KEEP};
use crate::seed::SplitMix64;
use crate::trace::{self, Span};
use crate::{seed, stats};
use bskel_core::manager::ManagerConfig;
use bskel_core::{AutonomicManager, Contract, EventLog};
use bskel_monitor::{Clock, Journal, RealClock};
use bskel_net::RemotePoolBuilder;
use bskel_rules::stdlib::{farm_rules_with_ft, params};
use bskel_skel::stream::StreamMsg;
use bskel_skel::{FarmAbc, FarmControl, GatherPolicy};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Loopback endpoints (daemons), each sleeping [`SERVICE_US`] per task.
pub const ENDPOINTS: u32 = 8;
/// Daemon service time, µs: one worker serves 500 task/s.
pub const SERVICE_US: u64 = 1_500;
/// Workers the pool is built with; the manager recruits the rest.
pub const INITIAL: u32 = 1;
/// Fault-tolerance floor the manager restores the pool to.
pub const FLOOR: u32 = 4;
/// Offered rate, task/s (capacity at the floor: 2 000).
pub const RATE: f64 = 1_700.0;
/// The pool's rate window (and so its sensor blackout after a change), s.
pub const RATE_WINDOW_S: f64 = 0.2;
/// Control period, ns: the harness runs `control_cycle` itself.
pub const PERIOD_NS: u64 = 10_000_000;
/// Slot deaths per endpoint the circuit breaker tolerates: above anything
/// the kill script produces.
pub const BREAKER_THRESHOLD: u32 = 1_000;
/// Workers a mass kill takes from the floor.
pub const MASS_KILL: u32 = 3;
/// Mass kills are this far apart, s.
const MASS_GAP_S: f64 = 1.25;
/// Single kills are this far apart, s.
const SINGLE_GAP_S: f64 = 0.25;
/// A surplus above the floor is retired this long before the next kill,
/// so every kill starts from exactly the floor with sensing settled.
const TRIM_AHEAD_NS: u64 = 300_000_000;

/// One scripted kill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kill {
    /// Earliest firing time, ns from the start of the measured part.
    pub at_ns: u64,
    /// `MASS_KILL` workers at once, or one.
    pub mass: bool,
    /// Single kills fire this share of a control period after a cycle, so
    /// that over the stratified set the sampling phase averages to half a
    /// period exactly.
    pub phase: f64,
}

/// The kill script for phases of the measured part, each given as
/// `(start_s, length_s)`: mass kills over a phase's first half, single
/// kills (stratified phases, seeded order) over its second.
pub fn kill_script(rng: &SplitMix64, phases: &[(f64, f64)]) -> Vec<Kill> {
    let mut rng = rng.fork("kills");
    let mut script = Vec::new();
    for &(start, len) in phases {
        let half = len / 2.0;
        let n_mass = ((half / MASS_GAP_S).floor() as u64).max(1);
        for i in 0..n_mass {
            let jitter = 0.04 * rng.next_f64();
            let at = start + 0.1 + jitter + i as f64 * MASS_GAP_S;
            script.push(Kill {
                at_ns: (at * 1e9) as u64,
                mass: true,
                phase: 0.0,
            });
        }
        let n_single = ((half / SINGLE_GAP_S).floor() as u64).max(1);
        let mut phases_of: Vec<f64> = (0..n_single)
            .map(|k| (k as f64 + 0.5) / n_single as f64)
            .collect();
        rng.shuffle(&mut phases_of);
        for (k, phase) in phases_of.into_iter().enumerate() {
            let at = start + half + k as f64 * SINGLE_GAP_S;
            script.push(Kill {
                at_ns: (at * 1e9) as u64,
                mass: false,
                phase,
            });
        }
    }
    script
}

/// Checksum of a kill script.
pub fn script_hash(script: &[Kill]) -> u64 {
    seed::schedule_hash(
        script
            .iter()
            .flat_map(|k| [k.at_ns, u64::from(k.mass), k.phase.to_bits()]),
    )
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Nothing,
    /// Killed at `.0`; the pool's loss counter has not reached `.2` yet.
    Drop(u64, bool, u64),
    /// Killed at `.0`; the pool is below the floor.
    Restore(u64, bool),
}

/// The `perf-ctl` thread's work between deliveries: control cycles, the
/// kill script, and restore detection.
struct Ctl {
    t0: Instant,
    shared: Arc<Shared>,
    plan: Plan,
    clock: Arc<RealClock>,
    ctl: Arc<dyn FarmControl>,
    manager: AutonomicManager,
    replayer: Replayer,
    script: Vec<Kill>,
    next_kill: usize,
    trimmed: bool,
    pending: Pending,
    next_cycle_ns: u64,
    last_cycle_ns: u64,
    measured_start_ns: u64,
    // results
    cycle_ns: Vec<f64>,
    sense_ns: Vec<f64>,
    cycles: u64,
    ops: u64,
    blackout_cycles: u64,
    mass_kill_ns: Vec<u64>,
    restore_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    deliveries_ns: Vec<u64>,
    spans: Vec<Span>,
}

impl Ctl {
    fn in_reported(&self, now_ns: u64) -> bool {
        let r = self.plan.reported();
        let rel = now_ns.saturating_sub(self.measured_start_ns);
        self.measured_start_ns != 0
            && now_ns >= self.measured_start_ns
            && (r.start as u64 * 1_000_000_000..r.end as u64 * 1_000_000_000).contains(&rel)
    }

    fn cycle(&mut self, now_ns: u64) {
        let at = self.clock.now();
        let (ops, dur_ns) = timed_cycle(&mut self.manager, at);
        self.last_cycle_ns = now_ns;
        if !self.in_reported(now_ns) {
            return;
        }
        self.cycles += 1;
        self.ops += ops.len() as u64;
        self.cycle_ns.push(dur_ns as f64);
        let snap = self.manager.last_snapshot().cloned();
        if snap.as_ref().is_some_and(|s| s.reconfiguring) {
            self.blackout_cycles += 1;
        }
        if self.shared.switches.tracing.load(Ordering::Relaxed) && self.spans.len() < TRACE_KEEP {
            let trace = self.cycles;
            self.spans.push(cycle_span(trace, now_ns, dur_ns));
            let t = load::now_ns(self.t0);
            let sensed = std::hint::black_box(self.manager.abc_mut().sense(at));
            let end_ns = load::now_ns(self.t0);
            self.sense_ns.push((end_ns - t) as f64);
            self.spans.push(Span {
                trace,
                name: "sense",
                parent: Some("control_cycle"),
                start_ns: t,
                end_ns,
            });
            self.replayer
                .replay(self.t0, trace, &snap.unwrap_or(sensed), &mut self.spans);
        }
    }

    /// Advances the pending kill's state: the pool noticed the loss (its
    /// cumulative loss counter reached the kill's target), then the pool
    /// is back at the floor. Counter-based, so a loss that is repaired
    /// between two looks is still seen.
    fn observe(&mut self) {
        loop {
            match self.pending {
                Pending::Drop(at, mass, target) if self.ctl.workers_lost() >= target => {
                    self.detect_ms
                        .push((load::now_ns(self.t0) - at) as f64 / 1e6);
                    self.pending = Pending::Restore(at, mass);
                }
                Pending::Restore(at, mass) if self.ctl.num_workers() as u32 >= FLOOR => {
                    if !mass {
                        self.restore_ms
                            .push((load::now_ns(self.t0) - at) as f64 / 1e6);
                    }
                    self.pending = Pending::Nothing;
                }
                _ => return,
            }
        }
    }

    fn kills(&mut self, now_ns: u64) {
        let workers = self.ctl.num_workers() as u32;
        let Some(kill) = self.script.get(self.next_kill).copied() else {
            return;
        };
        let Some(rel) = now_ns
            .checked_sub(self.measured_start_ns)
            .filter(|_| self.measured_start_ns != 0)
        else {
            return;
        };
        if !matches!(self.pending, Pending::Nothing) {
            return;
        }
        if !self.trimmed && rel + TRIM_AHEAD_NS >= kill.at_ns {
            self.trimmed = true;
            if workers > FLOOR {
                // Refused only if the pool shrank meanwhile, which the
                // floor check below then sees.
                let _ = self.ctl.remove_workers(workers - FLOOR);
            }
        }
        let since_cycle = now_ns.saturating_sub(self.last_cycle_ns) as f64;
        if rel >= kill.at_ns && workers >= FLOOR && since_cycle >= kill.phase * PERIOD_NS as f64 {
            let n = if kill.mass { MASS_KILL } else { 1 };
            let target = self.ctl.workers_lost() + u64::from(n);
            if self.ctl.kill_workers(n).is_ok() {
                let at = load::now_ns(self.t0);
                if self.in_reported(at) {
                    if kill.mass {
                        self.mass_kill_ns.push(at);
                    }
                    self.pending = Pending::Drop(at, kill.mass, target);
                } else {
                    // Outside the reported windows: still heal, but do
                    // not count the timings.
                    self.pending = Pending::Drop(at, true, target);
                }
            }
            self.next_kill += 1;
            self.trimmed = false;
        }
    }
}

impl DrainHook for Ctl {
    fn poll(&mut self, now_ns: u64) {
        if self.measured_start_ns == 0 {
            let start = self.shared.run_start_ns.load(Ordering::SeqCst);
            if start != 0 {
                self.measured_start_ns = start + self.plan.warmup_ns;
            }
        }
        self.observe();
        if now_ns >= self.next_cycle_ns {
            self.cycle(now_ns);
            self.next_cycle_ns = now_ns.max(self.next_cycle_ns + PERIOD_NS);
            self.observe();
        }
        self.kills(now_ns);
    }

    fn delivered(&mut self, now_ns: u64) {
        self.deliveries_ns.push(now_ns);
    }
}

/// Time from `kill_ns` to the first instant from which the delivery rate
/// over the trailing 200 ms is at least `floor` task/s and stays so for
/// 500 ms, in ms; `None` if that never happens before `deliveries` end.
/// `deliveries` is ascending; instants are tried on a 5 ms grid.
pub fn time_to_contract_ms(deliveries: &[u64], kill_ns: u64, floor: f64) -> Option<f64> {
    const WINDOW: u64 = 200_000_000;
    const HOLD: u64 = 500_000_000;
    const STEP: u64 = 5_000_000;
    let last = *deliveries.last()?;
    let rate_at = |t: u64| {
        let hi = deliveries.partition_point(|&d| d <= t);
        let lo = deliveries.partition_point(|&d| d + WINDOW <= t);
        (hi - lo) as f64 / (WINDOW as f64 / 1e9)
    };
    let mut held_since: Option<u64> = None;
    let mut t = kill_ns;
    while t <= last {
        if rate_at(t) >= floor {
            let since = *held_since.get_or_insert(t);
            if t - since >= HOLD {
                return Some((since - kill_ns) as f64 / 1e6);
            }
        } else {
            held_since = None;
        }
        t += STEP;
    }
    None
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let rng = SplitMix64::new(args.seed).fork("elastic_heal");
    let plan = Plan::new(args);
    let payloads = Arc::new(Payloads::new(&mut rng.fork("payload"), 64));
    let window = |r: std::ops::Range<usize>| (r.start as f64, r.len() as f64);
    let phases: Vec<(f64, f64)> = [plan.untraced(), plan.traced()]
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(window)
        .collect();
    let script = kill_script(&rng, &phases);
    let mut out = Outcome {
        input_hash: payloads.hash() ^ script_hash(&script),
        ..Outcome::default()
    };
    let shared = Shared::new(args.t0);

    let clock = Arc::new(RealClock::new());
    let journal = Journal::shared();
    let mut builder =
        RemotePoolBuilder::new(format!("sleep:{SERVICE_US}"), |p: Vec<u8>| p, decode_echo)
            .name("eh")
            .initial_workers(INITIAL)
            .max_workers(ENDPOINTS)
            .gather(GatherPolicy::Ordered)
            .rate_window(RATE_WINDOW_S)
            // Injected kills are not endpoint faults: keep the circuit breaker
            // (3 deaths in 5 s by default) from quarantining the endpoints the
            // script keeps hitting, which would stall recruitment for 500 ms.
            .breaker_threshold(BREAKER_THRESHOLD)
            .journal(Arc::clone(&journal))
            .clock(Arc::clone(&clock) as Arc<dyn Clock>);
    for e in loopback_endpoints(ENDPOINTS, false) {
        builder = builder.endpoint(e);
    }
    let pool = builder
        .build()
        .expect("the first loopback daemon is reachable");
    let ctl = pool.control();
    let mut cfg = ManagerConfig::farm("AM_EH");
    cfg.control_period = PERIOD_NS as f64 / 1e9;
    cfg.max_workers = ENDPOINTS;
    cfg.extra_params
        .push((params::FT_MIN_WORKERS.to_owned(), f64::from(FLOOR)));
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let manager = AutonomicManager::new(
        cfg,
        Box::new(FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(FLOOR)),
        log,
    )
    .with_rules(farm_rules_with_ft());
    manager
        .contract_slot()
        .post(Contract::throughput_range(CONTRACT_FLOOR, CONTRACT_CEIL));
    let (tx, rx) = (pool.input(), pool.output());
    tx.send(StreamMsg::item(0, payloads.make(0)))
        .expect("pool accepts the first task");
    out.setup_s = shared.setup_s();
    if args.setup_only {
        return out;
    }

    let hook = Ctl {
        t0: args.t0,
        shared: Arc::clone(&shared),
        plan,
        clock: Arc::clone(&clock),
        ctl: Arc::clone(&ctl),
        manager,
        replayer: Replayer::new(FLOOR, ENDPOINTS),
        script,
        next_kill: 0,
        trimmed: false,
        pending: Pending::Nothing,
        next_cycle_ns: 0,
        last_cycle_ns: 0,
        measured_start_ns: 0,
        cycle_ns: Vec::new(),
        sense_ns: Vec::new(),
        cycles: 0,
        ops: 0,
        blackout_cycles: 0,
        mass_kill_ns: Vec::new(),
        restore_ms: Vec::new(),
        detect_ms: Vec::new(),
        deliveries_ns: Vec::new(),
        spans: Vec::new(),
    };
    let polled = Polled::default();
    let (make, verify) = (Arc::clone(&payloads), Arc::clone(&payloads));
    let mut run = drive_stream(
        &shared,
        plan,
        Loop::Open { rate: RATE },
        1,
        1,
        tx,
        rx,
        move |seq| make.make(seq),
        move |e: &Echo| verify.verify(e),
        Some(hook),
        sense_poll(Arc::clone(&ctl), Arc::clone(&clock), Arc::clone(&polled)),
    );
    let hook = run.hook.take().expect("the hook comes back");

    let n = StreamNumbers::of(&run, &plan);
    out.attempted = 1 + run.gen.sent;
    out.breaches = run.breaches.clone();
    let contract_share = n.reported.share_at_least(CONTRACT_FLOOR);
    let offered = (RATE * n.reported.rates.len() as f64) as u64;
    out.invalid = load::open_loop_verdict(
        n.gen_lateness_p50_us * 1e3,
        1e9 / RATE,
        offered,
        n.reported.delivered,
    );
    out.e2e = n.end_to_end(contract_share);
    if args.trace {
        let rec = run.rec.as_ref();
        out.spans = trace::task_spans(
            &run.gen.stamps,
            rec.map_or(&[][..], |r| &r.delivered_stamps),
        );
        out.spans.extend(hook.spans.iter().cloned());
        let to_contract: Vec<f64> = hook
            .mass_kill_ns
            .iter()
            .filter_map(|&k| time_to_contract_ms(&hook.deliveries_ns, k, CONTRACT_FLOOR))
            .collect();
        out.layer = net_layer(
            &pool,
            "eh",
            &run.coord,
            &polled.lock().expect("poll buffer"),
            &n.reported,
        );
        out.layer.extend(n.system_layer());
        out.layer.extend([
            (
                "skeletons.submit_ns".into(),
                trace::median_ns(&out.spans, "submit"),
            ),
            ("core.cycle_us".into(), stats::median(&hook.cycle_ns) / 1e3),
            ("core.sense_us".into(), stats::median(&hook.sense_ns) / 1e3),
            (
                "core.cycle_self_us".into(),
                trace::median_self_ns(&out.spans, "control_cycle") / 1e3,
            ),
            ("core.cycles".into(), hook.cycles as f64),
            ("core.actuations".into(), hook.ops as f64),
            ("core.blackout_cycles".into(), hook.blackout_cycles as f64),
            ("core.contract_share".into(), contract_share),
            (
                "core.time_to_contract_ms".into(),
                stats::median(&to_contract),
            ),
            ("core.restore_ms".into(), stats::mean(&hook.restore_ms)),
            ("core.mass_kills".into(), to_contract.len() as f64),
            ("core.single_kills".into(), hook.restore_ms.len() as f64),
            ("net.detect_ms".into(), stats::median(&hook.detect_ms)),
            ("rules.firings".into(), hook.ops as f64),
            ("monitor.journal_dropped".into(), journal.dropped() as f64),
            ("harness.gen_lateness_p99_us".into(), n.gen_lateness_p99_us),
            (
                "harness.trace_overhead_pct".into(),
                super::overhead_pct(n.untraced.p50_us, n.reported.p50_us, false),
            ),
            ("harness.spans".into(), out.spans.len() as f64),
        ]);
    }
    drop(hook);
    out.breaches.absorb(check_shutdown(&pool.shutdown(), true));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_has_stratified_single_kills_and_repeats_per_seed() {
        let rng = SplitMix64::new(11);
        let script = kill_script(&rng, &[(0.0, 10.0)]);
        assert_eq!(script.iter().filter(|k| k.mass).count(), 4);
        let mut phases: Vec<f64> = script.iter().filter(|k| !k.mass).map(|k| k.phase).collect();
        assert_eq!(phases.len(), 20);
        assert!(
            (stats::mean(&phases) - 0.5).abs() < 1e-12,
            "phases average to half a period"
        );
        phases.sort_by(f64::total_cmp);
        assert!((phases[0] - 0.025).abs() < 1e-12 && (phases[19] - 0.975).abs() < 1e-12);
        assert_eq!(
            script_hash(&script),
            script_hash(&kill_script(&SplitMix64::new(11), &[(0.0, 10.0)]))
        );
        assert_ne!(
            script_hash(&script),
            script_hash(&kill_script(&SplitMix64::new(12), &[(0.0, 10.0)]))
        );
    }

    #[test]
    fn time_to_contract_needs_the_rate_to_hold() {
        // 2 000/s, a 300 ms outage from t = 1 s, then 2 000/s again.
        let mut d: Vec<u64> = (0..2_000).map(|i| i * 500_000).collect();
        d.extend((0..4_000).map(|i| 1_300_000_000 + i * 500_000));
        let ms = time_to_contract_ms(&d, 1_000_000_000, 1_500.0).expect("recovers");
        // The trailing 200 ms window refills to 1 500/s 150 ms after the
        // outage ends, i.e. 450 ms after the kill (5 ms grid).
        assert!((445.0..=460.0).contains(&ms), "{ms}");
        assert_eq!(
            time_to_contract_ms(&d[..2_100], 1_000_000_000, 1_500.0),
            None
        );
    }
}

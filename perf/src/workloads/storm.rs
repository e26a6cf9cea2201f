//! `control_storm`: the control plane with no plant. Thirty-two
//! production `AutonomicManager`s — half running the farm +
//! fault-tolerance rule program, half the AIMD law — cycle over seeded
//! `ScriptedAbc` scripts on one thread, sharing one journal, so
//! `SensorSnapshot::to_beans`, `WorkingMemory::from_beans`, the rule
//! engine, the journal and the exposition are all the work there is.
//!
//! The run is a sequence of *passes*. A pass builds the managers afresh
//! from the same inputs and runs every script to its end, so every pass
//! must decide exactly as the first one did: the determinism oracle runs
//! for the whole measurement, not once. A pass is also the unit the rates
//! and latency quantiles are taken over (it plays the part the one-second
//! window plays in the stream workloads); building the managers between
//! passes is not timed.

use super::control::{cycle_span, timed_cycle, Replayer};
use super::{Outcome, Plan, RunArgs, WARMUP_S};
use crate::check::check_determinism;
use crate::load::{self, TRACE_KEEP, TRACE_STRIDE};
use crate::seed::{fnv1a, fnv1a_word, SplitMix64};
use crate::trace::{self, Span};
use crate::{procfs, stats};
use bskel_core::controller::ControllerKind;
use bskel_core::manager::ManagerConfig;
use bskel_core::{AbcError, ActuationOutcome, AutonomicManager, Contract, EventLog, ManagerOp};
use bskel_monitor::{expo, Journal, ScrapeSeries, SensorSnapshot, Time};
use bskel_rules::stdlib::{farm_rules_with_ft, params};
use bskel_rules::OpCall;
use bskel_sim::ScriptedAbc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Managers: the first half run rules, the second half AIMD.
pub const MANAGERS: usize = 32;
/// Snapshots per script, i.e. cycles per manager per pass.
pub const SCRIPT_LEN: usize = 1_000;
/// One `expo::render` of every manager's last snapshot per this many cycles.
pub const EXPO_EVERY: u64 = 320;
/// The event log and the actuation logs are cleared per this many cycles.
pub const CLEAR_EVERY: u64 = 1_000;
/// The managers' throughput contract, task/s: narrow enough that the
/// scripts cross it both ways.
pub const CONTRACT: (f64, f64) = (1_500.0, 3_000.0);
/// Fault-tolerance floor the scripts drop below in their worker-lost phases.
pub const FT_FLOOR: u32 = 4;
/// Par-degree ceiling.
pub const MAX_WORKERS: u32 = 16;
/// Manager time between two cycles of one manager, s.
const PERIOD_S: f64 = 0.01;

type Outcomes = Vec<Result<ActuationOutcome, AbcError>>;
/// A `ScriptedAbc`'s record of what it was asked to do.
pub type ActuationLog = Arc<Mutex<Vec<(Time, ManagerOp)>>>;

/// The generated inputs: one script and one list of plant responses per
/// manager.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One script per manager.
    pub scripts: Vec<Vec<SensorSnapshot>>,
    outcomes: Vec<Outcomes>,
    /// Checksum of everything generated.
    pub hash: u64,
}

/// Cycles per phase of a script.
const PHASE_LEN: usize = 20;

/// One script: phases of [`PHASE_LEN`] cycles, each in contract, under
/// it, over it, unbalanced, or below the fault-tolerance floor. Every
/// script holds the same number of phases of each kind — the seed decides
/// their order and the values within them — so the work a pass does
/// depends on the seed as little as possible.
fn script(rng: &mut SplitMix64) -> Vec<SensorSnapshot> {
    let mut kinds: Vec<usize> = (0..SCRIPT_LEN / PHASE_LEN).map(|i| i % 5).collect();
    rng.shuffle(&mut kinds);
    let mut out = Vec::with_capacity(SCRIPT_LEN);
    let mut lost = 0u64;
    for kind in kinds {
        if kind == 4 {
            lost += 1;
        }
        for _ in 0..PHASE_LEN {
            let jitter = 0.9 + 0.2 * rng.next_f64();
            let mut s = SensorSnapshot::empty(0.0);
            s.arrival_rate = 2_000.0 * jitter;
            s.departure_rate = 2_000.0 * jitter;
            s.num_workers = 6;
            s.queue_variance = rng.next_f64();
            s.queued_tasks = rng.below(64);
            s.service_time = 0.002;
            s.idle_for = 0.0;
            s.ft_min_workers = FT_FLOOR;
            s.workers_lost = lost;
            match kind {
                0 => {}
                1 => s.departure_rate = 1_000.0 * jitter,
                2 => s.departure_rate = 4_000.0 * jitter,
                3 => s.queue_variance = 6.0 + 4.0 * rng.next_f64(),
                _ => {
                    s.num_workers = 2;
                    s.queue_variance = 2.0 * rng.next_f64();
                }
            }
            out.push(s);
        }
    }
    out
}

/// Plant responses, in seeded order: of every twenty, seventeen applied,
/// two without effect, one refused.
fn outcomes(rng: &mut SplitMix64) -> Outcomes {
    let mut out: Outcomes = (0..2 * SCRIPT_LEN)
        .map(|i| {
            Ok(match i % 20 {
                0 => ActuationOutcome::Refused {
                    reason: "scripted".into(),
                },
                1 | 2 => ActuationOutcome::NoOp,
                _ => ActuationOutcome::Applied,
            })
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

fn snapshot_word(s: &SensorSnapshot) -> u64 {
    [s.arrival_rate, s.departure_rate, s.queue_variance]
        .iter()
        .fold(
            u64::from(s.num_workers) ^ s.workers_lost << 32 ^ s.queued_tasks << 48,
            |h, v| fnv1a_word(h, v.to_bits()),
        )
}

/// Generates the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let rng = SplitMix64::new(seed).fork("control_storm");
    let mut hash = fnv1a(b"control_storm");
    let mut scripts = Vec::with_capacity(MANAGERS);
    let mut all_outcomes = Vec::with_capacity(MANAGERS);
    for m in 0..MANAGERS {
        let s = script(&mut rng.fork(&format!("script-{m}")));
        let o = outcomes(&mut rng.fork(&format!("outcomes-{m}")));
        hash = s.iter().fold(hash, |h, s| fnv1a_word(h, snapshot_word(s)));
        hash = o.iter().fold(hash, |h, o| {
            fnv1a_word(h, u64::from(o != &Ok(ActuationOutcome::Applied)))
        });
        scripts.push(s);
        all_outcomes.push(o);
    }
    Inputs {
        scripts,
        outcomes: all_outcomes,
        hash,
    }
}

/// Manager `m` of the storm over a fresh copy of its inputs (rule program
/// parsed and linted, contract posted), and its ABC's actuation log. The
/// first half of the managers run rules, the second half AIMD.
pub fn scripted_manager(
    inputs: &Inputs,
    m: usize,
    log: EventLog,
) -> (AutonomicManager, ActuationLog) {
    let abc = ScriptedAbc::new(inputs.scripts[m].clone()).with_outcomes(inputs.outcomes[m].clone());
    let actuations = abc.actuation_log();
    let mut cfg = ManagerConfig::farm(&format!("AM_S{m}"));
    cfg.control_period = PERIOD_S;
    cfg.max_workers = MAX_WORKERS;
    cfg.extra_params
        .push((params::FT_MIN_WORKERS.to_owned(), f64::from(FT_FLOOR)));
    let rules = m < MANAGERS / 2;
    cfg.controller = if rules {
        ControllerKind::Rules
    } else {
        ControllerKind::Aimd
    };
    let mut manager = AutonomicManager::new(cfg, Box::new(abc), log);
    if rules {
        manager = manager.with_rules(farm_rules_with_ft());
    }
    manager
        .contract_slot()
        .post(Contract::throughput_range(CONTRACT.0, CONTRACT.1));
    (manager, actuations)
}

/// The managers of one pass and what they share.
struct Storm {
    managers: Vec<AutonomicManager>,
    actuations: Vec<ActuationLog>,
    log: EventLog,
    journal: Arc<Journal>,
}

impl Storm {
    /// Builds the managers (rule programs parsed and linted) over fresh
    /// copies of the inputs and posts their contract.
    fn build(inputs: &Inputs) -> Self {
        let journal = Journal::shared();
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let mut managers = Vec::with_capacity(MANAGERS);
        let mut actuations = Vec::with_capacity(MANAGERS);
        for m in 0..MANAGERS {
            let (manager, acted) = scripted_manager(inputs, m, log.clone());
            managers.push(manager);
            actuations.push(acted);
        }
        Self {
            managers,
            actuations,
            log,
            journal,
        }
    }

    fn render(&self, at: Time) -> String {
        let series: Vec<ScrapeSeries> = self
            .managers
            .iter()
            .map(|m| ScrapeSeries {
                tenant: "default".into(),
                manager: m.name().to_owned(),
                snapshot: m
                    .last_snapshot()
                    .cloned()
                    .unwrap_or_else(|| SensorSnapshot::empty(at)),
                event_counts: Vec::new(),
            })
            .collect();
        expo::render(&series)
    }

    fn clear_logs(&self) {
        self.log.clear();
        for a in &self.actuations {
            a.lock().expect("actuation log lock").clear();
        }
    }
}

fn decision_word(ops: &[OpCall]) -> u64 {
    ops.iter().fold(fnv1a(b"ops"), |h, op| {
        let h = fnv1a_word(h, fnv1a(op.operation.as_bytes()));
        fnv1a_word(h, op.data.as_deref().map_or(0, |d| fnv1a(d.as_bytes())))
    })
}

/// What one pass measured.
struct Pass {
    /// One checksum per cycle, in execution order.
    decisions: Vec<u64>,
    /// Wall time of the cycling loop (renders and log clears included), s.
    wall_s: f64,
    /// CPU time of the cycling loop, s.
    cpu_s: f64,
    /// Operation calls decided.
    ops: u64,
    /// Median and 99th percentile of one cycle, ns.
    cycle_p50_ns: f64,
    cycle_p99_ns: f64,
    /// Median of one exposition render, ns.
    render_ns: f64,
    /// Journal entries overwritten.
    journal_dropped: u64,
}

fn thread_cpu_s() -> f64 {
    procfs::cpu_snapshot()
        .threads
        .iter()
        .map(|(_, t)| t.cpu_s)
        .sum()
}

/// Runs one pass; with `tracing`, every [`TRACE_STRIDE`]-th cycle gets a
/// span and the replayed layer calls as its children.
fn pass(
    inputs: &Inputs,
    t0: Instant,
    mut tracing: Option<(&mut Replayer, &mut Vec<Span>)>,
) -> Pass {
    let mut storm = Storm::build(inputs);
    let cycles = MANAGERS * SCRIPT_LEN;
    let mut decisions = Vec::with_capacity(cycles);
    let mut cycle_ns = Vec::with_capacity(cycles);
    let mut render_ns = Vec::new();
    let mut ops_total = 0u64;
    let cpu0 = thread_cpu_s();
    let started = Instant::now();
    let mut n = 0u64;
    for step in 0..SCRIPT_LEN {
        let at = step as f64 * PERIOD_S;
        for m in 0..MANAGERS {
            let start_ns = load::now_ns(t0);
            let (ops, dur_ns) = timed_cycle(&mut storm.managers[m], at);
            cycle_ns.push(dur_ns as f64);
            decisions.push(decision_word(&ops));
            ops_total += ops.len() as u64;
            n += 1;
            if let Some((replayer, spans)) = tracing.as_mut() {
                if n.is_multiple_of(TRACE_STRIDE) && spans.len() < TRACE_KEEP {
                    spans.push(cycle_span(n, start_ns, dur_ns));
                    if let Some(snap) = storm.managers[m].last_snapshot() {
                        replayer.replay(t0, n, snap, spans);
                    }
                }
            }
            if n.is_multiple_of(EXPO_EVERY) {
                let t = Instant::now();
                std::hint::black_box(storm.render(at));
                render_ns.push(t.elapsed().as_nanos() as f64);
            }
            if n.is_multiple_of(CLEAR_EVERY) {
                storm.clear_logs();
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;
    stats::sort(&mut cycle_ns);
    Pass {
        decisions,
        wall_s,
        cpu_s,
        ops: ops_total,
        cycle_p50_ns: stats::quantile_sorted(&cycle_ns, 0.50),
        cycle_p99_ns: stats::quantile_sorted(&cycle_ns, 0.99),
        render_ns: stats::median(&render_ns),
        journal_dropped: storm.journal.dropped(),
    }
}

/// The end-to-end numbers over a set of passes.
#[derive(Default)]
struct Numbers {
    cycles: u64,
    rate_median: f64,
    p50_us: f64,
    p99w_us: f64,
    cpu_us_per_cycle: f64,
    not_stalled: f64,
}

fn numbers(passes: &[&Pass]) -> Numbers {
    if passes.is_empty() {
        return Numbers::default();
    }
    let per_pass = (MANAGERS * SCRIPT_LEN) as f64;
    let rates: Vec<f64> = passes.iter().map(|p| per_pass / p.wall_s).collect();
    let rate_median = stats::median(&rates);
    let of =
        |f: fn(&Pass) -> f64| stats::median(&passes.iter().map(|p| f(p)).collect::<Vec<f64>>());
    Numbers {
        cycles: passes.len() as u64 * per_pass as u64,
        rate_median,
        p50_us: of(|p| p.cycle_p50_ns) / 1e3,
        p99w_us: of(|p| p.cycle_p99_ns) / 1e3,
        cpu_us_per_cycle: passes.iter().map(|p| p.cpu_s).sum::<f64>() * 1e6
            / (passes.len() as f64 * per_pass),
        not_stalled: rates.iter().filter(|&&r| r >= 0.5 * rate_median).count() as f64
            / rates.len() as f64,
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let inputs = inputs(args.seed);
    let mut out = Outcome {
        input_hash: inputs.hash,
        ..Outcome::default()
    };

    // Set-up: managers built, contract posted, first cycle done.
    let mut first = Storm::build(&inputs);
    std::hint::black_box(first.managers[0].control_cycle(0.0));
    out.setup_s = args.t0.elapsed().as_secs_f64();
    if args.setup_only {
        return out;
    }
    drop(first);

    let plan = Plan::new(args);
    let mut replayer = Replayer::new(FT_FLOOR, MAX_WORKERS);
    let mut spans = Vec::new();
    let run_start = Instant::now();
    // (window the pass started in, the pass); warm-up passes have none.
    let mut passes: Vec<(Option<usize>, Pass)> = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    loop {
        let measured_s = run_start.elapsed().as_secs_f64() - WARMUP_S;
        if measured_s >= plan.seconds as f64 {
            break;
        }
        let window = (measured_s >= 0.0).then_some(measured_s as usize);
        let traced = window.is_some_and(|w| plan.traced().contains(&w));
        let mut p = pass(
            &inputs,
            args.t0,
            traced.then_some((&mut replayer, &mut spans)),
        );
        // Every pass must decide as the first one did; only the first
        // one's decisions are kept.
        let decisions = std::mem::take(&mut p.decisions);
        match &reference {
            Some(first) => out.breaches.absorb(check_determinism(first, &decisions)),
            None => reference = Some(decisions),
        }
        passes.push((window, p));
    }
    out.attempted = (passes.len() * MANAGERS * SCRIPT_LEN) as u64;

    let within = |r: std::ops::Range<usize>| -> Vec<&Pass> {
        passes
            .iter()
            .filter(|(w, _)| w.is_some_and(|w| r.contains(&w)))
            .map(|(_, p)| p)
            .collect()
    };
    let reported = within(plan.reported());
    let n = numbers(&reported);
    out.e2e = vec![
        ("throughput_tps", n.rate_median),
        ("latency_p50_us", n.p50_us),
        ("contract_share", n.not_stalled),
    ];
    if args.trace {
        let untraced = numbers(&within(plan.untraced()));
        let render_us: Vec<f64> = reported.iter().map(|p| p.render_ns / 1e3).collect();
        out.layer = vec![
            ("system.cpu_us_per_task".into(), n.cpu_us_per_cycle),
            ("system.latency_p99w_us".into(), n.p99w_us),
            ("system.latency_samples".into(), n.cycles as f64),
            ("core.cycle_us".into(), n.p50_us),
            (
                "core.cycle_self_us".into(),
                trace::median_self_ns(&spans, "control_cycle") / 1e3,
            ),
            ("core.cycles".into(), n.cycles as f64),
            (
                "core.actuations".into(),
                reported.iter().map(|p| p.ops).sum::<u64>() as f64,
            ),
            ("core.contract_share".into(), n.not_stalled),
            (
                "rules.firings".into(),
                reported.iter().map(|p| p.ops).sum::<u64>() as f64,
            ),
            (
                "monitor.journal_dropped".into(),
                reported.iter().map(|p| p.journal_dropped).sum::<u64>() as f64,
            ),
            ("monitor.expo_render_us".into(), stats::median(&render_us)),
            (
                "harness.trace_overhead_pct".into(),
                super::overhead_pct(untraced.rate_median, n.rate_median, true),
            ),
            ("harness.spans".into(), spans.len() as f64),
        ];
        out.spans = spans;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_cover_every_phase() {
        let a = inputs(5);
        assert_eq!(a.hash, inputs(5).hash);
        assert_ne!(a.hash, inputs(6).hash);
        assert_eq!(a.scripts.len(), MANAGERS);
        let s = &a.scripts[0];
        assert_eq!(s.len(), SCRIPT_LEN);
        assert!(s.iter().any(|s| s.departure_rate < CONTRACT.0));
        assert!(s.iter().any(|s| s.departure_rate > CONTRACT.1));
        assert!(s.iter().any(|s| s.queue_variance > 4.0));
        assert!(s.iter().any(|s| s.num_workers < FT_FLOOR));
        assert!(a.outcomes[0]
            .iter()
            .any(|o| matches!(o, Ok(ActuationOutcome::Refused { .. }))));
    }

    #[test]
    fn two_passes_over_the_same_inputs_decide_identically() {
        let inputs = inputs(9);
        let t0 = Instant::now();
        let a = pass(&inputs, t0, None);
        let b = pass(&inputs, t0, None);
        assert_eq!(a.decisions.len(), MANAGERS * SCRIPT_LEN);
        assert!(a.ops > 0, "the scripts make the managers act");
        assert!(check_determinism(&a.decisions, &b.decisions).is_clean());
        let other = pass(&super::inputs(10), t0, None);
        assert!(!check_determinism(&a.decisions, &other.decisions).is_clean());
    }
}

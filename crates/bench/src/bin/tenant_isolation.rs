//! MT1 — tenant isolation under a hot-spot flood.
//!
//! Two runs over the same fixed-size spin farm:
//!
//! * **solo** — the victim tenant alone, paced well inside its admission
//!   budget, establishing its uncontended p99 latency baseline;
//! * **contended** — the same victim while a hot-spot tenant with 4× the
//!   victim's DRR weight floods the front-end flat out, with the
//!   per-tenant managers and the pool arbiter cycling live
//!   (`tenancy.rules`: the hot tenant's over-budget queue keeps
//!   triggering `SHED_LOAD`; the pool is already at its ceiling, so
//!   isolation must come from DRR and the admission caps alone).
//!
//! PASS requires, in the contended run: the victim's manager records
//! **zero** contract violations (no `contrLow`, no escalation, no shed
//! actuation), the victim's own ledger sheds and loses nothing while the
//! hot tenant demonstrably sheds, and the victim's p99 stays within 2×
//! its solo baseline.
//!
//! Results go to `BENCH_tenant_isolation.json` at the workspace root,
//! with the manager event stream flushed to
//! `JOURNAL_tenant_isolation.jsonl`. `--quick` shrinks the run for CI.

use bskel_bench::table;
use bskel_core::{Contract, EventKind, EventLog};
use bskel_monitor::Journal;
use bskel_skel::{FarmBuilder, GatherPolicy};
use bskel_tenancy::{build_managers, ShedPolicy, TenantFrontEnd, TenantSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVICE_US: u64 = 500;
const WORKERS: u32 = 4;
/// Victim pacing: 200 tasks/s, far below its fair capacity share.
const VICTIM_PERIOD: Duration = Duration::from_micros(5_000);
/// The victim's contract floor (tasks/s) — modest on purpose; the run
/// starts counting violations only after the rate windows are warm.
const VICTIM_FLOOR: f64 = 20.0;
const CONTROL_PERIOD: f64 = 0.25;
const WARMUP_S: f64 = 1.0;

// Sleep-based service, not a busy-spin: CI runners can have a single
// core, where four spinning workers measure OS preemption rather than
// the front-end's scheduling. A sleeping worker still occupies its
// in-flight slot for the full service time, which is what the DRR and
// admission-cap isolation story is about.
fn service_farm() -> bskel_skel::Farm<u64, u64> {
    FarmBuilder::from_fn(|x: u64| {
        std::thread::sleep(Duration::from_micros(SERVICE_US));
        x
    })
    .name("mt1-pool")
    .initial_workers(WORKERS)
    .gather(GatherPolicy::Unordered)
    .build()
}

struct Phase {
    victim_p99_ms: f64,
    victim_completed: u64,
    victim_shed: u64,
    victim_lost: u64,
    hot_completed: u64,
    hot_shed: u64,
    victim_violations: u64,
    shed_actuations: u64,
    loss_free: bool,
}

/// One run of `duration` seconds; `contended` adds the flooding tenant
/// and the manager hierarchy.
fn run_phase(duration: f64, contended: bool, journal: Option<&Journal>) -> Phase {
    let front = TenantFrontEnd::over_farm(service_farm());
    let victim = front
        .attach(
            TenantSpec::new("victim", Contract::min_throughput(VICTIM_FLOOR))
                .with_weight(1.0)
                .with_queue_capacity(256),
        )
        .expect("attach victim");
    let hot = contended.then(|| {
        front
            .attach(
                TenantSpec::new("hot", Contract::BestEffort)
                    .with_weight(4.0)
                    .with_queue_capacity(512)
                    .with_shed_policy(ShedPolicy::ShedOldest),
            )
            .expect("attach hot")
    });

    // Sink threads: keep the per-tenant output channels drained until
    // each stream's End.
    fn sink(
        rx: crossbeam::channel::Receiver<bskel_tenancy::TenantMsg<u64>>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                if matches!(msg, bskel_tenancy::TenantMsg::End) {
                    break;
                }
            }
        })
    }
    let victim_sink = sink(victim.output().clone());
    let hot_sink = hot.as_ref().map(|h| sink(h.output().clone()));

    let stop = Arc::new(AtomicBool::new(false));
    let flooder = hot.as_ref().map(|h| {
        let h = h.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Keep the hot queue saturated far past the managers'
                // 64-task shed budget without spinning a whole core.
                if h.stats().queue_depth < 480 {
                    for _ in 0..64 {
                        h.submit(i);
                        i += 1;
                    }
                } else {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        })
    });

    // The manager hierarchy only runs contended: per-tenant managers
    // under the arbiter, pool already at its ceiling.
    let log = EventLog::new();
    let mut managers = contended.then(|| {
        let mut refs = vec![&victim];
        if let Some(h) = hot.as_ref() {
            refs.push(h);
        }
        build_managers(&front, &refs, log.clone(), WORKERS)
    });

    let started = Instant::now();
    let mut next_control = WARMUP_S;
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < duration {
        victim.submit(i);
        i += 1;
        let now = started.elapsed().as_secs_f64();
        if now >= next_control {
            if let Some(m) = managers.as_mut() {
                m.run_cycle(now);
            }
            next_control += CONTROL_PERIOD;
        }
        std::thread::sleep(VICTIM_PERIOD);
    }

    stop.store(true, Ordering::Relaxed);
    if let Some(f) = flooder {
        f.join().expect("flooder join");
    }
    let victim_p99_ms = victim
        .latency_quantile(0.99)
        .expect("victim completed tasks")
        * 1_000.0;
    victim.close();
    if let Some(h) = hot.as_ref() {
        h.close();
    }
    let report = front.shutdown();
    victim_sink.join().expect("victim sink join");
    if let Some(s) = hot_sink {
        s.join().expect("hot sink join");
    }
    drop(managers.take());

    // Victim violations: anything its manager recorded past warmup that
    // signals a broken contract — a detected low-throughput violation,
    // an escalation to the arbiter, or a shed actuation on its queue.
    let events = log.snapshot();
    let victim_violations = events
        .iter()
        .filter(|e| {
            &*e.manager == "AM_T_victim"
                && e.at >= WARMUP_S
                && matches!(
                    e.kind,
                    EventKind::ContrLow | EventKind::RaiseViol | EventKind::ShedLoad
                )
        })
        .count() as u64;
    let shed_actuations = events
        .iter()
        .filter(|e| e.kind == EventKind::ShedLoad)
        .count() as u64;
    if let Some(j) = journal {
        for e in &events {
            j.manager_event(e.at, &e.manager, e.kind.label(), e.detail.as_deref());
        }
    }

    let stats_of = |name: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map(|t| (t.completed, t.shed, t.lost))
            .unwrap_or_default()
    };
    let (victim_completed, victim_shed, victim_lost) = stats_of("victim");
    let (hot_completed, hot_shed, _) = stats_of("hot");
    Phase {
        victim_p99_ms,
        victim_completed,
        victim_shed,
        victim_lost,
        hot_completed,
        hot_shed,
        victim_violations,
        shed_actuations,
        loss_free: report.is_loss_free(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick { 3.0 } else { 10.0 };
    println!(
        "MT1: tenant isolation under a hot-spot flood \
         ({duration:.0} s/phase, {WORKERS} workers, {SERVICE_US} µs service, victim floor {VICTIM_FLOOR} tasks/s)\n"
    );

    let journal = Journal::shared();
    journal.note(0.0, "mt1", "solo baseline starting");
    let solo = run_phase(duration, false, None);
    journal.note(0.0, "mt1", "contended run starting");
    let contended = run_phase(duration, true, Some(&journal));

    let p99_ratio = contended.victim_p99_ms / solo.victim_p99_ms;
    let pass = contended.victim_violations == 0
        && contended.victim_shed == 0
        && contended.victim_lost == 0
        && contended.hot_shed > 0
        && contended.loss_free
        && solo.loss_free
        && p99_ratio <= 2.0;

    let rows = vec![
        (
            "solo: victim p99".to_string(),
            format!(
                "{:.3} ms ({} done)",
                solo.victim_p99_ms, solo.victim_completed
            ),
        ),
        (
            "contended: victim p99".to_string(),
            format!(
                "{:.3} ms ({:.2}x solo, {} done)",
                contended.victim_p99_ms, p99_ratio, contended.victim_completed
            ),
        ),
        (
            "contended: victim violations".to_string(),
            format!(
                "{} (shed {}, lost {})",
                contended.victim_violations, contended.victim_shed, contended.victim_lost
            ),
        ),
        (
            "contended: hot tenant".to_string(),
            format!(
                "{} done, {} shed ({} SHED_LOAD actuations)",
                contended.hot_completed, contended.hot_shed, contended.shed_actuations
            ),
        ),
        (
            "verdict".to_string(),
            if pass { "PASS".into() } else { "FAIL".into() },
        ),
    ];
    println!("{}", table("MT1 summary", &rows));

    let phase_json = |p: &Phase| {
        format!(
            "{{\"victim_p99_ms\": {:.4}, \"victim_completed\": {}, \"victim_shed\": {}, \
             \"victim_lost\": {}, \"hot_completed\": {}, \"hot_shed\": {}, \
             \"victim_violations\": {}, \"shed_actuations\": {}, \"loss_free\": {}}}",
            p.victim_p99_ms,
            p.victim_completed,
            p.victim_shed,
            p.victim_lost,
            p.hot_completed,
            p.hot_shed,
            p.victim_violations,
            p.shed_actuations,
            p.loss_free,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"tenant_isolation\",\n  \"quick\": {quick},\n  \
         \"duration_s\": {duration},\n  \"workers\": {WORKERS},\n  \"service_us\": {SERVICE_US},\n  \
         \"victim_floor\": {VICTIM_FLOOR},\n  \"solo\": {},\n  \"contended\": {},\n  \
         \"p99_ratio\": {p99_ratio:.4},\n  \"pass\": {pass}\n}}\n",
        phase_json(&solo),
        phase_json(&contended),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tenant_isolation.json"
    );
    std::fs::write(path, &json).expect("write BENCH_tenant_isolation.json");
    println!("wrote {path}");

    let journal_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../JOURNAL_tenant_isolation.jsonl"
    );
    journal
        .flush_jsonl(journal_path)
        .expect("write JOURNAL_tenant_isolation.jsonl");
    println!("journal: {} recorded -> {journal_path}", journal.recorded());

    if !pass {
        std::process::exit(1);
    }
}

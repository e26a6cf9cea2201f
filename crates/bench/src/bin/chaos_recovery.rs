//! CHAOS1 — recovery latency and throughput retention of the
//! distributed farm under seeded fault injection, per fault class.
//!
//! Every run drives the same windowed stream (bounded outstanding
//! tasks, so in-flight dwell stays far below the task deadline) through
//! the soak topology: one chaos-proxied endpoint plus one clean one,
//! two slots, a 20 µs spin workload. The **baseline** run uses an inert
//! chaos plan, so the relay cost itself is in the baseline and the
//! per-class *retention* (class throughput / baseline throughput)
//! isolates the cost of the faults and of the recovery machinery —
//! deadline speculation, in-flight replay, breaker-paced reconnects.
//!
//! **Recovery latency** is measured for the classes that kill slots
//! (disconnect, stall, refuse): a restorer thread samples the worker
//! count, re-adds capacity exactly as the autonomic manager's FT rule
//! would, and reports the time from the first observed capacity drop to
//! the pool being whole again. Frame-level classes (drop, corrupt,
//! duplicate, delay) recover per task instead; their `retried` /
//! `spec_wins` / `dups_dropped` counters quantify that path.
//!
//! Results are printed and written to `BENCH_chaos_recovery.json` at
//! the workspace root. `--quick` shrinks the stream for CI smoke runs.

use bskel_bench::table;
use bskel_monitor::Journal;
use bskel_net::{
    spawn_chaos_local, spawn_local, ChaosPlan, ChaosPolicy, Endpoint, RemotePoolBuilder,
};
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const SEED: u64 = 0xC4A05;
const SPIN_US: u64 = 20;
const WINDOW: u64 = 64;

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

struct ClassRun {
    name: &'static str,
    elapsed_s: f64,
    delivered: u64,
    ordered: bool,
    faults: usize,
    retried: u64,
    spec_wins: u64,
    dups_dropped: u64,
    workers_lost: u64,
    recovery_ms: Option<f64>,
    /// No worker panicked and every loss notification was delivered.
    loss_free: bool,
}

impl ClassRun {
    fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed_s
    }
}

/// Process-wide ops journal shared by every class run; flushed to
/// `JOURNAL_chaos_recovery.jsonl` at the end of `main` (and archived by
/// the chaos CI job).
fn ops_journal() -> Arc<Journal> {
    static JOURNAL: OnceLock<Arc<Journal>> = OnceLock::new();
    Arc::clone(JOURNAL.get_or_init(Journal::shared))
}

fn run_class(name: &'static str, policy: ChaosPolicy, tasks: u64) -> ClassRun {
    let plan = ChaosPlan { seed: SEED, policy };
    let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
    let clean = spawn_local("127.0.0.1:0").expect("spawn clean daemon");
    let pool = RemotePoolBuilder::new(format!("spin:{SPIN_US}"), enc, dec)
        .name(name)
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(400))
        .reconnect_backoff(Duration::from_millis(20), Duration::from_millis(200))
        .breaker_cooldown(Duration::from_millis(150))
        .task_deadline(Duration::from_millis(150))
        .resilience_seed(SEED)
        .journal(ops_journal())
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .endpoint(Endpoint::plain(clean.to_string()))
        .build()
        .expect("chaos + clean endpoints reachable");
    ops_journal().note(0.0, name, "chaos class run starting");
    let ctl = pool.control();

    // FT-rule stand-in + recovery stopwatch: restore capacity whenever a
    // slot dies, and time first-drop → whole-again.
    let stop = Arc::new(AtomicBool::new(false));
    let restorer = {
        let stop = Arc::clone(&stop);
        let ctl = Arc::clone(&ctl);
        std::thread::spawn(move || {
            let mut down_at: Option<Instant> = None;
            let mut recovery: Option<f64> = None;
            // Fires on the first tick and every 5th after (10 ms cadence).
            let mut until_nudge = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let workers = ctl.num_workers();
                match (workers < 2, down_at) {
                    (true, None) => down_at = Some(Instant::now()),
                    (false, Some(t)) => {
                        recovery.get_or_insert(t.elapsed().as_secs_f64() * 1e3);
                        down_at = None;
                    }
                    _ => {}
                }
                if workers < 2 && until_nudge == 0 {
                    let _ = ctl.add_workers(1);
                }
                if until_nudge == 0 {
                    until_nudge = 5;
                }
                until_nudge -= 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            recovery
        })
    };

    let received = Arc::new(AtomicU64::new(0));
    let tx = pool.input();
    let t0 = Instant::now();
    let producer = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            for i in 0..tasks {
                while i.saturating_sub(received.load(Ordering::SeqCst)) >= WINDOW {
                    std::thread::yield_now();
                }
                tx.send(StreamMsg::item(i, i)).unwrap();
            }
            tx.send(StreamMsg::End).unwrap();
        })
    };
    let mut delivered = 0u64;
    let mut ordered = true;
    let mut expect = 0u64;
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { payload, .. } => {
                ordered &= payload == expect;
                expect += 1;
                delivered += 1;
                received.fetch_add(1, Ordering::SeqCst);
            }
            StreamMsg::End => break,
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    producer.join().expect("producer");
    stop.store(true, Ordering::SeqCst);
    let recovery_ms = restorer.join().expect("restorer");

    let mut run = ClassRun {
        name,
        elapsed_s,
        delivered,
        ordered,
        faults: proxy.log().len(),
        retried: pool.tasks_retried(),
        spec_wins: pool.speculative_wins(),
        dups_dropped: pool.duplicates_dropped(),
        workers_lost: pool.workers_lost(),
        recovery_ms,
        loss_free: false,
    };
    let report = pool.shutdown();
    run.loss_free = report.worker_panics.is_empty() && report.lost_undelivered.is_empty();
    run
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tasks: u64 = if quick { 2_000 } else { 10_000 };
    let cut: u64 = if quick { 400 } else { 1_500 };
    println!(
        "CHAOS1: fault-class recovery vs fault-free baseline \
         ({tasks} tasks, 2 slots, {SPIN_US} µs spin, seed {SEED:#x})\n"
    );

    let classes: Vec<(&'static str, ChaosPolicy)> = vec![
        ("baseline", ChaosPolicy::default()),
        (
            "drop",
            ChaosPolicy {
                drop_p: 0.02,
                ..ChaosPolicy::default()
            },
        ),
        (
            "corrupt",
            ChaosPolicy {
                corrupt_p: 0.02,
                ..ChaosPolicy::default()
            },
        ),
        (
            "duplicate",
            ChaosPolicy {
                dup_p: 0.05,
                ..ChaosPolicy::default()
            },
        ),
        (
            "delay",
            ChaosPolicy {
                delay_p: 0.05,
                delay_ms: (1, 20),
                ..ChaosPolicy::default()
            },
        ),
        (
            "disconnect",
            ChaosPolicy {
                disconnect_after: Some(cut),
                ..ChaosPolicy::default()
            },
        ),
        (
            "stall",
            ChaosPolicy {
                stall_after: Some(cut),
                ..ChaosPolicy::default()
            },
        ),
        (
            "refuse",
            ChaosPolicy {
                disconnect_after: Some(cut),
                refuse_connects: 2,
                healthy_connects: 2,
                ..ChaosPolicy::default()
            },
        ),
    ];

    let runs: Vec<ClassRun> = classes
        .into_iter()
        .map(|(name, policy)| run_class(name, policy, tasks))
        .collect();
    let base_tp = runs[0].throughput();
    let pass = runs
        .iter()
        .all(|r| r.delivered == tasks && r.ordered && r.loss_free);

    let mut rows: Vec<(String, String)> = Vec::new();
    for r in &runs {
        rows.push((
            format!("{}: throughput", r.name),
            format!(
                "{:.0} tasks/s ({:.0}% of baseline)",
                r.throughput(),
                100.0 * r.throughput() / base_tp
            ),
        ));
        rows.push((
            format!("{}: recovery", r.name),
            match r.recovery_ms {
                Some(ms) => format!(
                    "{ms:.0} ms (lost {}, retried {}, spec wins {}, dups {})",
                    r.workers_lost, r.retried, r.spec_wins, r.dups_dropped
                ),
                None => format!(
                    "per-task (retried {}, spec wins {}, dups {}, faults {})",
                    r.retried, r.spec_wins, r.dups_dropped, r.faults
                ),
            },
        ));
    }
    rows.push((
        "verdict".into(),
        if pass { "PASS".into() } else { "FAIL".into() },
    ));
    println!("{}", table("CHAOS1 summary", &rows));

    let mut json = String::new();
    json.push_str(&format!(
        "{{\n  \"bench\": \"chaos_recovery\",\n  \"tasks\": {tasks},\n  \"quick\": {quick},\n  \
         \"seed\": {SEED},\n  \"spin_us\": {SPIN_US},\n  \"window\": {WINDOW},\n  \"classes\": [\n"
    ));
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"class\": \"{}\", \"elapsed_s\": {:.4}, \"throughput\": {:.1}, \
             \"retention\": {:.4}, \"faults_injected\": {}, \"tasks_retried\": {}, \
             \"speculative_wins\": {}, \"duplicates_dropped\": {}, \"workers_lost\": {}, \
             \"recovery_ms\": {}, \"loss_free\": {}}}{}\n",
            r.name,
            r.elapsed_s,
            r.throughput(),
            r.throughput() / base_tp,
            r.faults,
            r.retried,
            r.spec_wins,
            r.dups_dropped,
            r.workers_lost,
            r.recovery_ms
                .map_or("null".to_string(), |ms| format!("{ms:.1}")),
            r.loss_free,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!("  ],\n  \"pass\": {pass}\n}}\n"));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_chaos_recovery.json"
    );
    std::fs::write(path, &json).expect("write BENCH_chaos_recovery.json");
    println!("wrote {path}");

    let journal = ops_journal();
    let journal_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../JOURNAL_chaos_recovery.jsonl"
    );
    std::fs::write(journal_path, journal.to_jsonl()).expect("write JOURNAL_chaos_recovery.jsonl");
    println!(
        "wrote {journal_path} ({} records, {} dropped)",
        journal.len(),
        journal.dropped()
    );

    if !pass {
        std::process::exit(1);
    }
}

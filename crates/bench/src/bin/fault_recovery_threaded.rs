//! FT2 — fault recovery on the *threaded* runtime (the simulator analogue
//! is `fault_tolerance.rs` / FT1).
//!
//! Three scenarios over a real thread-pool farm:
//!
//! * **isolation** — a worker panics on a poisoned task: the panic is
//!   caught, the task is reported lost, the rest of the stream drains
//!   (before this subsystem existed the farm hung forever);
//! * **no-am** — two of four workers are killed abruptly with no manager
//!   attached: their queued tasks are recovered onto survivors and the
//!   stream completes, but the pool stays degraded;
//! * **am-ft** — same kill with an autonomic manager running the shared
//!   FT rule program (`rules/fault.rules`): the pool is restored to the
//!   `ftMinWorkers` floor; the recovery latency is measured.
//!
//! Results are printed and written to `BENCH_fault_recovery.json` at the
//! workspace root. `--quick` shrinks the stream for CI smoke runs.

use bskel_bench::table;
use bskel_core::contract::Contract;
use bskel_core::events::{EventKind, EventLog};
use bskel_core::manager::{AutonomicManager, ManagerConfig};
use bskel_monitor::RealClock;
use bskel_skel::abc_impl::FarmAbc;
use bskel_skel::farm::{Farm, FarmBuilder, GatherPolicy};
use bskel_skel::runtime::ManagerDriver;
use bskel_skel::stream::StreamMsg;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FT_FLOOR: u32 = 3;

fn build_farm(poison: Option<u64>) -> Farm<u64, u64> {
    FarmBuilder::from_fn(move |x: u64| {
        if Some(x) == poison {
            panic!("poisoned task {x}");
        }
        std::thread::sleep(Duration::from_micros(200));
        x + 1
    })
    .name("ft2")
    .initial_workers(4)
    .max_workers(8)
    .gather(GatherPolicy::Unordered)
    .build()
}

fn feed(farm: &Farm<u64, u64>, tasks: u64) -> std::thread::JoinHandle<()> {
    let tx = farm.input();
    std::thread::spawn(move || {
        for i in 0..tasks {
            if tx.send(StreamMsg::item(i, i)).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let _ = tx.send(StreamMsg::End);
    })
}

fn drain(farm: &Farm<u64, u64>) -> u64 {
    let mut delivered = 0u64;
    for msg in farm.output().iter() {
        match msg {
            StreamMsg::Item { .. } => delivered += 1,
            StreamMsg::End => break,
        }
    }
    delivered
}

struct Outcome {
    delivered: u64,
    workers_lost: u64,
    panics: u64,
    final_workers: usize,
    recovery_ms: Option<f64>,
}

/// A poisoned task panics one worker mid-stream; no manager attached.
fn run_isolation(tasks: u64) -> Outcome {
    let farm = build_farm(Some(tasks / 2));
    let producer = feed(&farm, tasks);
    let delivered = drain(&farm);
    producer.join().expect("producer");
    let final_workers = farm.control().num_workers();
    let report = farm.shutdown();
    Outcome {
        delivered,
        workers_lost: report.workers_lost,
        panics: report.worker_panics.len() as u64,
        final_workers,
        recovery_ms: None,
    }
}

/// Kill 2 of 4 workers mid-stream; optionally attach an AM with FT rules.
fn run_kill(tasks: u64, with_am: bool) -> Outcome {
    let farm = build_farm(None);
    let ctl = farm.control();
    let driver = with_am.then(|| {
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.control_period = 0.005;
        cfg.add_batch = 2;
        cfg.extra_params.push((
            bskel_rules::stdlib::params::FT_MIN_WORKERS.to_owned(),
            f64::from(FT_FLOOR),
        ));
        let manager = AutonomicManager::new(
            cfg,
            Box::new(FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(FT_FLOOR)),
            EventLog::new(),
        )
        .with_rules(bskel_rules::stdlib::farm_rules_with_ft());
        manager.contract_slot().post(Contract::BestEffort);
        ManagerDriver::spawn(manager, Arc::new(RealClock::new()))
    });

    let producer = feed(&farm, tasks);
    std::thread::sleep(Duration::from_millis(20));
    ctl.kill_workers(2).expect("4 workers alive");
    let killed_at = Instant::now();

    let recovery_ms = with_am.then(|| {
        let deadline = killed_at + Duration::from_secs(10);
        while ctl.num_workers() < FT_FLOOR as usize && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(500));
        }
        killed_at.elapsed().as_secs_f64() * 1e3
    });

    let delivered = drain(&farm);
    producer.join().expect("producer");
    if let Some(d) = driver {
        let manager = d.stop();
        assert!(
            !manager.log().of_kind(&EventKind::WorkerLost).is_empty(),
            "AM never sensed the loss"
        );
    }
    let final_workers = ctl.num_workers();
    let report = farm.shutdown();
    Outcome {
        delivered,
        workers_lost: report.workers_lost,
        panics: report.worker_panics.len() as u64,
        final_workers,
        recovery_ms,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tasks: u64 = if quick { 400 } else { 2_000 };
    println!("FT2: fault recovery on the threaded farm ({tasks} tasks, 4 workers)\n");

    let isolation = run_isolation(tasks);
    let no_am = run_kill(tasks, false);
    let am_ft = run_kill(tasks, true);

    let recovery = am_ft
        .recovery_ms
        .map_or("never".into(), |ms| format!("{ms:.1} ms"));
    let pass = isolation.delivered == tasks - 1
        && isolation.panics == 1
        && no_am.delivered == tasks
        && no_am.final_workers == 2
        && am_ft.delivered == tasks
        && am_ft.final_workers >= FT_FLOOR as usize;
    println!(
        "{}",
        table(
            "FT2 summary (2 of 4 workers die mid-stream)",
            &[
                (
                    "isolation: delivered".into(),
                    format!("{}/{} (1 poisoned)", isolation.delivered, tasks)
                ),
                (
                    "isolation: panics caught".into(),
                    isolation.panics.to_string()
                ),
                (
                    "no-am: delivered".into(),
                    format!("{}/{}", no_am.delivered, tasks)
                ),
                (
                    "no-am: final workers".into(),
                    no_am.final_workers.to_string()
                ),
                (
                    "am-ft: delivered".into(),
                    format!("{}/{}", am_ft.delivered, tasks)
                ),
                (
                    "am-ft: final workers".into(),
                    am_ft.final_workers.to_string()
                ),
                ("am-ft: recovery time".into(), recovery.clone()),
                (
                    "verdict".into(),
                    if pass { "PASS".into() } else { "FAIL".into() }
                ),
            ]
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"fault_recovery_threaded\",\n  \"tasks\": {tasks},\n  \
         \"quick\": {quick},\n  \"ft_floor\": {FT_FLOOR},\n  \
         \"isolation\": {{\"delivered\": {}, \"panics\": {}, \"workers_lost\": {}}},\n  \
         \"no_am\": {{\"delivered\": {}, \"final_workers\": {}, \"workers_lost\": {}}},\n  \
         \"am_ft\": {{\"delivered\": {}, \"final_workers\": {}, \"workers_lost\": {}, \
         \"recovery_ms\": {}}},\n  \"pass\": {pass}\n}}\n",
        isolation.delivered,
        isolation.panics,
        isolation.workers_lost,
        no_am.delivered,
        no_am.final_workers,
        no_am.workers_lost,
        am_ft.delivered,
        am_ft.final_workers,
        am_ft.workers_lost,
        am_ft
            .recovery_ms
            .map_or("null".into(), |ms| format!("{ms:.1}")),
    );
    // The bin's cwd is the package dir; anchor at the manifest to land the
    // report at the workspace root.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_recovery.json"
    );
    std::fs::write(path, &json).expect("write BENCH_fault_recovery.json");
    println!("wrote {path}");

    if !pass {
        std::process::exit(1);
    }
}

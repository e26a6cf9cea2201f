//! CTRL1 — control-law diversity, benchmarked head-to-head.
//!
//! Two sweeps:
//!
//! * **scenario sweep** — every shipped scenario config
//!   (`scenarios/*.json`: fig3, fig4, fault_recovery, secure_mixed_pool,
//!   multi_tenant) is run once per [`ControllerKind`] (rules, aimd,
//!   retry_budget, hedge), collecting contract violations, settle time
//!   (first time the contract floor is reached), delivered throughput
//!   and resource cost in worker-seconds;
//! * **chaos soak** — a wall-clock distributed pool whose four endpoints
//!   *all* sit behind seeded delay-only [`ChaosProxy`](bskel_net::ChaosProxy)s,
//!   with an aggressive soft task deadline. Without a brake, every delayed
//!   task is speculatively re-dispatched each sweep and the duplicate
//!   traffic slows the proxies further — the classic self-amplifying retry
//!   storm. The soak measures re-dispatch amplification
//!   `(dispatches / tasks)` per controller.
//!
//! PASS requires: fig3 and fig4 settle (reach their contract floors)
//! under **every** controller; every soak delivers its full doubled
//! stream in order with loss-free accounting; the uncapped baseline's
//! amplification exceeds 2× while `retry_budget` and `hedge` (both
//! budget-braked) stay under 2×.
//!
//! Results go to `BENCH_controller_compare.json` at the workspace root,
//! with per-run notes flushed to `JOURNAL_controller_compare.jsonl`.
//! `--quick` shrinks the wall-clock parts for CI.

use bskel_bench::config::ScenarioConfig;
use bskel_bench::table;
use bskel_core::ControllerKind;
use bskel_monitor::Journal;
use bskel_net::{
    spawn_chaos_local, ChaosPlan, ChaosPolicy, Endpoint, RemotePoolBuilder, RemoteWorkerPool,
};
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;
use std::time::{Duration, Instant};

const SCENARIOS: [&str; 5] = [
    "fig3",
    "fig4",
    "fault_recovery",
    "secure_mixed_pool",
    "multi_tenant",
];

/// One scenario × controller result row.
struct SimRow {
    scenario: &'static str,
    controller: ControllerKind,
    throughput: f64,
    violations: u64,
    settle: Option<f64>,
    worker_seconds: f64,
    workers: u32,
    security_violations: u64,
}

/// One chaos-soak result row.
struct SoakRow {
    controller: ControllerKind,
    tasks: u64,
    retried: u64,
    hedges: u64,
    hedge_wins: u64,
    amplification: f64,
    budget_tokens: Option<f64>,
    loss_free: bool,
    wall_s: f64,
}

fn scenario_path(name: &str) -> String {
    format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Loads a scenario config, pins the controller, and (in quick mode)
/// shrinks the wall-clock multi-tenant run. Sim scenarios keep their
/// full horizons — discrete-event seconds are nearly free.
fn load_scenario(name: &str, controller: ControllerKind, quick: bool) -> ScenarioConfig {
    let text = std::fs::read_to_string(scenario_path(name))
        .unwrap_or_else(|e| panic!("read scenarios/{name}.json: {e}"));
    let mut cfg = ScenarioConfig::from_json(&text)
        .unwrap_or_else(|e| panic!("parse scenarios/{name}.json: {e}"));
    let law = Some(controller.as_str().to_owned());
    match &mut cfg {
        ScenarioConfig::Farm { controller, .. } | ScenarioConfig::Pipeline { controller, .. } => {
            *controller = law;
        }
        ScenarioConfig::MultiTenant {
            controller,
            duration,
            control_period,
            ..
        } => {
            *controller = law;
            if quick {
                *duration = duration.min(2.0);
                *control_period = control_period.min(0.25);
            }
        }
    }
    cfg
}

fn run_scenarios(quick: bool, journal: &Journal) -> Vec<SimRow> {
    let mut rows = Vec::new();
    for name in SCENARIOS {
        for controller in ControllerKind::all() {
            let cfg = load_scenario(name, controller, quick);
            let (report, _csv) = cfg.run();
            journal.note(
                0.0,
                "ctrl1",
                &format!(
                    "{name}/{controller}: thr {:.3}, viol {}, settle {:?}, {:.0} w-s",
                    report.throughput,
                    report.violations,
                    report.time_to_contract,
                    report.worker_seconds,
                ),
            );
            rows.push(SimRow {
                scenario: name,
                controller,
                throughput: report.throughput,
                violations: report.violations,
                settle: report.time_to_contract,
                worker_seconds: report.worker_seconds,
                workers: report.workers,
                security_violations: report.security_violations,
            });
        }
    }
    rows
}

// -- chaos soak ---------------------------------------------------------

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Four delay-only chaos proxies (one per slot — there is no clean
/// escape hatch) with per-endpoint seeds derived from `seed`. Delay-only
/// is deliberate: every frame arrives eventually, so even a zero-token
/// budget cannot wedge the stream, and any amplification measured is
/// pure re-dispatch policy, not loss recovery.
fn soak_pool(
    controller: ControllerKind,
    seed: u64,
    delay_ms: (u64, u64),
) -> RemoteWorkerPool<u64, u64> {
    let mut b = RemotePoolBuilder::new("double", enc, dec)
        .name(format!("soak-{controller}"))
        .initial_workers(4)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(250))
        .failure_timeout(Duration::from_secs(60))
        .resilience_seed(seed);
    // The re-dispatch discipline under test. `rules` and `aimd` manage
    // par-degree only — their pools re-dispatch uncapped, the seed of
    // the storm. The budget laws brake the same deadline/hedge triggers.
    b = match controller {
        ControllerKind::Rules | ControllerKind::Aimd => b.task_deadline(Duration::from_millis(15)),
        ControllerKind::RetryBudget => b
            .task_deadline(Duration::from_millis(15))
            .retry_budget(0.2, 5.0),
        ControllerKind::Hedge => b.hedge_quantile(0.5).retry_budget(0.2, 5.0),
    };
    for i in 0..4u64 {
        let plan = ChaosPlan {
            seed: seed ^ (0x9E37_79B9 * (i + 1)),
            policy: ChaosPolicy {
                delay_p: 0.45,
                delay_ms,
                ..ChaosPolicy::default()
            },
        };
        let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
        b = b.endpoint(Endpoint::plain(proxy.addr().to_string()));
    }
    b.build().expect("all four chaos endpoints reachable")
}

fn run_soak(controller: ControllerKind, n: u64, delay_ms: (u64, u64)) -> SoakRow {
    let pool = soak_pool(controller, 0xC0117 + controller as u64, delay_ms);
    let started = Instant::now();
    let tx = pool.input();
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let mut got = Vec::with_capacity(n as usize);
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { payload, .. } => got.push(payload),
            StreamMsg::End => break,
        }
    }
    producer.join().unwrap();
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(
        got, want,
        "{controller}: soak lost, reordered or duplicated"
    );

    let retried = pool.tasks_retried();
    let hedges = pool.hedges_launched();
    let hedge_wins = pool.hedge_wins();
    let budget_tokens = pool.retry_budget_tokens();
    let report = pool.shutdown();
    SoakRow {
        controller,
        tasks: n,
        retried,
        hedges,
        hedge_wins,
        amplification: (n + retried + hedges) as f64 / n as f64,
        budget_tokens,
        loss_free: report.worker_panics.is_empty() && report.lost_undelivered.is_empty(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn run_soaks(quick: bool, journal: &Journal) -> Vec<SoakRow> {
    let (n, delay_ms) = if quick {
        (80, (80, 160))
    } else {
        (240, (150, 300))
    };
    ControllerKind::all()
        .into_iter()
        .map(|controller| {
            let row = run_soak(controller, n, delay_ms);
            journal.note(
                0.0,
                "ctrl1-soak",
                &format!(
                    "{controller}: amp {:.2}x ({} retried, {} hedges/{} wins), \
                     tokens {:?}, {:.1}s wall",
                    row.amplification,
                    row.retried,
                    row.hedges,
                    row.hedge_wins,
                    row.budget_tokens,
                    row.wall_s,
                ),
            );
            row
        })
        .collect()
}

// -- reporting ----------------------------------------------------------

fn fmt_settle(s: Option<f64>) -> String {
    s.map_or_else(|| "-".into(), |t| format!("{t:.1}s"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "CTRL1: control-law diversity — {} scenarios x {} controllers + chaos soak{}\n",
        SCENARIOS.len(),
        ControllerKind::all().len(),
        if quick { " (--quick)" } else { "" },
    );

    let journal = Journal::shared();
    let sims = run_scenarios(quick, &journal);
    let soaks = run_soaks(quick, &journal);

    let sim_rows: Vec<(String, String)> = sims
        .iter()
        .map(|r| {
            (
                format!("{}/{}", r.scenario, r.controller),
                format!(
                    "thr {:>7.3}  viol {:>3}  settle {:>7}  {:>6.0} w-s  {} workers",
                    r.throughput,
                    r.violations,
                    fmt_settle(r.settle),
                    r.worker_seconds,
                    r.workers,
                ),
            )
        })
        .collect();
    println!("{}", table("CTRL1 scenario sweep", &sim_rows));

    let soak_rows: Vec<(String, String)> = soaks
        .iter()
        .map(|r| {
            (
                format!("soak/{}", r.controller),
                format!(
                    "amp {:.2}x  retried {:>4}  hedges {:>3} ({} wins)  tokens {}  \
                     loss-free {}  {:.1}s",
                    r.amplification,
                    r.retried,
                    r.hedges,
                    r.hedge_wins,
                    r.budget_tokens
                        .map_or_else(|| "-".into(), |t| format!("{t:.1}")),
                    r.loss_free,
                    r.wall_s,
                ),
            )
        })
        .collect();
    println!(
        "{}",
        table("CTRL1 chaos soak (4 delayed endpoints)", &soak_rows)
    );

    // Settling: the contract-floor scenarios must converge under every
    // law, or the law is not a viable drop-in for the rule program.
    let settles_ok = sims
        .iter()
        .filter(|r| matches!(r.scenario, "fig3" | "fig4"))
        .all(|r| r.settle.is_some());
    let secure_ok = sims.iter().all(|r| r.security_violations == 0);
    let amp_of = |k: ControllerKind| {
        soaks
            .iter()
            .find(|r| r.controller == k)
            .expect("all controllers soaked")
            .amplification
    };
    let storm_ok = amp_of(ControllerKind::Rules) > 2.0
        && amp_of(ControllerKind::RetryBudget) < 2.0
        && amp_of(ControllerKind::Hedge) < 2.0;
    let loss_ok = soaks.iter().all(|r| r.loss_free);
    let pass = settles_ok && secure_ok && storm_ok && loss_ok;

    println!(
        "{}",
        table(
            "CTRL1 verdict",
            &[
                (
                    "fig3/fig4 settle under every law".into(),
                    settles_ok.to_string()
                ),
                ("no security violations".into(), secure_ok.to_string()),
                (
                    "storm braking (uncapped >2x, budget/hedge <2x)".into(),
                    storm_ok.to_string(),
                ),
                ("loss-free soaks".into(), loss_ok.to_string()),
                (
                    "verdict".into(),
                    if pass { "PASS".into() } else { "FAIL".into() }
                ),
            ],
        )
    );

    let sims_json = sims
        .iter()
        .map(|r| {
            format!(
                "    {{\"scenario\": \"{}\", \"controller\": \"{}\", \"throughput\": {:.4}, \
                 \"violations\": {}, \"settle_s\": {}, \"worker_seconds\": {:.1}, \
                 \"workers\": {}, \"security_violations\": {}}}",
                r.scenario,
                r.controller.as_str(),
                r.throughput,
                r.violations,
                r.settle
                    .map_or_else(|| "null".into(), |t| format!("{t:.2}")),
                r.worker_seconds,
                r.workers,
                r.security_violations,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let soaks_json = soaks
        .iter()
        .map(|r| {
            format!(
                "    {{\"controller\": \"{}\", \"tasks\": {}, \"retried\": {}, \
                 \"hedges\": {}, \"hedge_wins\": {}, \"amplification\": {:.4}, \
                 \"budget_tokens\": {}, \"loss_free\": {}, \"wall_s\": {:.2}}}",
                r.controller.as_str(),
                r.tasks,
                r.retried,
                r.hedges,
                r.hedge_wins,
                r.amplification,
                r.budget_tokens
                    .map_or_else(|| "null".into(), |t| format!("{t:.2}")),
                r.loss_free,
                r.wall_s,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"controller_compare\",\n  \"quick\": {quick},\n  \
         \"scenarios\": [\n{sims_json}\n  ],\n  \"soak\": [\n{soaks_json}\n  ],\n  \
         \"pass\": {pass}\n}}",
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_controller_compare.json"
    );
    std::fs::write(path, json + "\n").expect("write BENCH_controller_compare.json");
    println!("wrote {path}");

    let journal_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../JOURNAL_controller_compare.jsonl"
    );
    journal
        .flush_jsonl(journal_path)
        .expect("write JOURNAL_controller_compare.jsonl");
    println!("journal: {} recorded -> {journal_path}", journal.recorded());

    if !pass {
        std::process::exit(1);
    }
}

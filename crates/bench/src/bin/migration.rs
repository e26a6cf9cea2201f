//! MIG1 — worker migration experiment (paper §3 lists "migration of
//! poorly performing activities to faster execution resources" among the
//! performance manager's policies; built here, evaluated nowhere in the
//! paper).
//!
//! Three workers start on nodes that pick up heavy external load at
//! t=100 s (effective speed drops to 1/4) while identical idle nodes sit
//! free in the pool. With the migration rule program the manager moves
//! the slowest worker whenever the best free node is ≥1.5× faster; the
//! sweep compares against no-migration and against growth-only recovery
//! (adding workers while leaving the stuck ones in place).

use bskel_bench::{ascii_series, table};
use bskel_core::contract::Contract;
use bskel_core::events::EventKind;
use bskel_rules::op;
use bskel_sim::FarmScenario;

fn main() {
    let base = || {
        FarmScenario::builder()
            .service_time(5.0)
            .arrival_rate(1.0)
            .initial_workers(3)
            .load_window(3, 100.0, 400.0, 3.0)
            .count(100_000)
            .horizon(400.0)
    };

    // (a) no adaptation at all.
    let stuck = base().contract(Contract::BestEffort).build().run(21);
    // (b) growth-only: the Fig. 5 rules add workers when throughput drops.
    let growth = base()
        .contract(Contract::min_throughput(0.55))
        .build()
        .run(21);
    // (c) migration-only: move the slow workers, no growth.
    let migrate = base()
        .contract(Contract::BestEffort)
        .migrate_min_gain(1.5)
        .build()
        .run(21);

    println!("MIG1: external load hits the workers' nodes at t=100\n");
    println!("throughput — no adaptation:");
    print!("{}", ascii_series(&stuck.trace, "throughput", 25.0, 0.8));
    println!("\nthroughput — growth-only (0.55 task/s SLA):");
    print!("{}", ascii_series(&growth.trace, "throughput", 25.0, 0.8));
    println!("\nthroughput — migration-only:");
    print!("{}", ascii_series(&migrate.trace, "throughput", 25.0, 0.8));

    let late =
        |o: &bskel_sim::FarmOutcome| o.trace.mean_over("throughput", 300.0, 400.0).unwrap_or(0.0);
    let migrations = migrate
        .events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Other(s) if s == op::MIGRATE_SLOWEST))
        .count();

    println!(
        "\n{}",
        table(
            "MIG1 summary (late-run throughput, t=300..400)",
            &[
                (
                    "no adaptation".into(),
                    format!("{:.3} task/s (stuck at 1/4 speed)", late(&stuck))
                ),
                (
                    "growth-only".into(),
                    format!(
                        "{:.3} task/s with {} workers (pays extra cores)",
                        late(&growth),
                        growth.final_snapshot.num_workers
                    )
                ),
                (
                    "migration-only".into(),
                    format!(
                        "{:.3} task/s with {} workers after {migrations} migrations",
                        late(&migrate),
                        migrate.final_snapshot.num_workers
                    )
                ),
                (
                    "verdict".into(),
                    if late(&migrate) > late(&stuck) * 1.5
                        && migrate.final_snapshot.num_workers <= growth.final_snapshot.num_workers
                    {
                        "PASS (migration restores speed without extra cores)".into()
                    } else {
                        "FAIL".into()
                    }
                ),
            ]
        )
    );
}

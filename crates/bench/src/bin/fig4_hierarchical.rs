//! FIG4 — reproduces Fig. 4 of the paper: *"Hierarchical AM in action:
//! actions taken by a task farm BS AM in a three stage pipeline."*
//!
//! The application is `pipe(producer, farm(filter), consumer)` with four
//! managers (AM_app ≙ AM_A, AM_producer ≙ AM_P, AM_filter ≙ AM_F,
//! AM_consumer ≙ AM_C). The user posts a 0.3–0.7 task/s throughput-range
//! SLA to AM_app. The paper's phases, all of which this run must exhibit:
//!
//! 1. the producer is slow (0.2 task/s): AM_F sees `contrLow` but
//!    identifies starvation (`notEnough`) → `raiseViol` to AM_A → AM_A
//!    reacts with `incRate` contracts to AM_P;
//! 2. pressure restored: AM_F adds workers (two at a time, with a
//!    reconfiguration blackout), possibly asks for `decRate` when arrivals
//!    overshoot;
//! 3. further `addWorker` until the throughput enters the contract stripe;
//! 4. `endStream`: AM_A stops compensating; AM_F may `rebalance` queued
//!    tasks.
//!
//! Output: the four "graphs" of Fig. 4 as event lines + series, and a
//! phase-order check.

use bskel_bench::{ascii_series, mmss, table};
use bskel_core::contract::Contract;
use bskel_core::events::EventKind;
use bskel_sim::models::Dispatch;
use bskel_sim::PipelineScenario;

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let scenario = PipelineScenario::builder()
        .initial_rate(0.2)
        .contract(Contract::throughput_range(0.3, 0.7))
        .farm_service_time(10.0)
        .initial_workers(3) // 3 workers + producer + consumer = 5 cores
        .add_batch(2) // the paper adds two workers at a time
        .recruit_latency(10.0)
        .count(120)
        .horizon(300.0)
        .slow_nodes(4)
        .dispatch(Dispatch::RoundRobin)
        .build();
    let outcome = scenario.run(42);

    println!("FIG4: hierarchical management of pipe(producer, farm, consumer)\n");

    // Graph 1+2: event lines of the application and farm managers.
    for manager in ["AM_app", "AM_filter", "AM_producer"] {
        println!("events of {manager}:");
        let events: Vec<String> = outcome
            .events
            .iter()
            .filter(|e| *e.manager == *manager)
            .take(30)
            .map(|e| e.to_string())
            .collect();
        println!("{}\n", events.join("\n"));
    }

    // Graph 3: input rate and delivered throughput vs the contract stripe.
    println!("input task rate (bucketed 10 s):");
    print!("{}", ascii_series(&outcome.trace, "input_rate", 10.0, 1.0));
    println!("\nfarm throughput (contract stripe 0.3–0.7):");
    print!("{}", ascii_series(&outcome.trace, "throughput", 10.0, 1.0));

    // Graph 4: resources.
    println!("\ncores in use:");
    print!("{}", ascii_series(&outcome.trace, "cores", 10.0, 12.0));

    // Phase-order check.
    let t_not_enough = outcome.first_event("AM_filter", &EventKind::NotEnough);
    let t_raise = outcome.first_event("AM_filter", &EventKind::RaiseViol);
    let t_inc = outcome.first_event("AM_app", &EventKind::IncRate);
    let t_add = outcome.first_event("AM_filter", &EventKind::AddWorker);
    let t_dec = outcome.first_event("AM_app", &EventKind::DecRate);
    let t_end = outcome
        .first_event("AM_app", &EventKind::EndStream)
        .or_else(|| outcome.first_event("AM_filter", &EventKind::EndStream));
    let t_rebalance = outcome.first_event("AM_filter", &EventKind::Rebalance);

    let ordered = matches!(
        (t_not_enough, t_raise, t_inc, t_add),
        (Some(a), Some(b), Some(c), Some(d)) if a <= b && b <= c && c < d
    );
    let fmt = |t: Option<f64>| t.map_or("—".to_owned(), mmss);
    println!(
        "\n{}",
        table(
            "FIG4 phase summary (paper order: notEnough→raiseViol→incRate→addWorker→…→endStream)",
            &[
                ("first notEnough (AM_F)".into(), fmt(t_not_enough)),
                ("first raiseViol (AM_F)".into(), fmt(t_raise)),
                ("first incRate  (AM_A)".into(), fmt(t_inc)),
                ("first addWorker (AM_F)".into(), fmt(t_add)),
                ("first decRate  (AM_A)".into(), fmt(t_dec)),
                ("endStream".into(), fmt(t_end)),
                ("first rebalance (AM_F)".into(), fmt(t_rebalance)),
                (
                    "mid-run throughput".into(),
                    format!(
                        "{:.3} task/s",
                        outcome
                            .trace
                            .mean_over("throughput", 150.0, 250.0)
                            .unwrap_or(0.0)
                    )
                ),
                ("tasks displayed".into(), outcome.consumed.to_string()),
                (
                    "phase order".into(),
                    if ordered {
                        "PASS".into()
                    } else {
                        "FAIL".into()
                    }
                ),
            ]
        )
    );

    if csv {
        println!("\n--- CSV ---");
        println!("{}", outcome.trace.to_csv());
    }
}

//! Integration tests: the paper's experiments end-to-end on the simulator.
//!
//! These assert the *shapes* the figures show (see EXPERIMENTS.md): who
//! reacts, in what order, and where the system converges — not absolute
//! numbers, which belonged to the authors' testbed.

use bskel::core::contract::Contract;
use bskel::core::events::EventKind;
use bskel::sim::models::Dispatch;
use bskel::sim::{FarmScenario, PipelineScenario, SecurityPolicy, SslCostModel};
use bskel::workloads::ServiceDist;

#[test]
fn fig3_staircase_to_contract() {
    let outcome = FarmScenario::builder()
        .service_time(5.0)
        .arrival_rate(1.0)
        .initial_workers(1)
        .contract(Contract::min_throughput(0.6))
        .horizon(300.0)
        .build()
        .run(42);

    // Converged above the SLA with at least the model-optimal 3 workers.
    assert!(outcome.final_snapshot.departure_rate >= 0.54);
    assert!(outcome.final_snapshot.num_workers >= 3);
    // Workers only ever grew (minThroughput has no ceiling).
    let workers = outcome.trace.get("workers");
    assert!(workers.windows(2).all(|w| w[1].1 >= w[0].1));
    // The manager logged the adaptation trail.
    assert!(!outcome.events_of(&EventKind::AddWorker).is_empty());
    assert!(!outcome.events_of(&EventKind::ContrLow).is_empty());
    // Once satisfied, the contrLow events stop: none in the last quarter.
    let t_contract = outcome.time_to_contract.expect("contract reached");
    let late_contr_low = outcome
        .events_of(&EventKind::ContrLow)
        .iter()
        .filter(|e| e.at > t_contract + 60.0)
        .count();
    assert_eq!(late_contr_low, 0, "contract kept after convergence");
}

#[test]
fn fig3_hot_spot_triggers_readaptation() {
    // The paper: "contract satisfaction is guaranteed ... in the case of
    // temporary hot spots in image processing". Processing cost triples in
    // [120, 200): the manager must add workers beyond the base
    // configuration, and throughput must recover.
    let base = FarmScenario::builder().horizon(300.0).build().run(5);
    let hot = FarmScenario::builder()
        .service(ServiceDist::det(5.0).with_hot_spot(3.0, 120.0, 200.0))
        .horizon(300.0)
        .build()
        .run(5);
    assert!(
        hot.final_snapshot.num_workers > base.final_snapshot.num_workers,
        "hot spot forced extra workers ({} vs {})",
        hot.final_snapshot.num_workers,
        base.final_snapshot.num_workers
    );
    // Recovered by the end.
    assert!(hot.final_snapshot.departure_rate >= 0.54);
}

#[test]
fn fig3_external_load_adaptation() {
    // Cores slow down at t=100 (external load); the farm compensates.
    let outcome = FarmScenario::builder()
        .load_window(16, 100.0, 300.0, 1.0)
        .horizon(300.0)
        .build()
        .run(9);
    assert!(outcome.final_snapshot.departure_rate >= 0.5);
    let added_after_load: usize = outcome
        .events_of(&EventKind::AddWorker)
        .iter()
        .filter(|e| e.at >= 100.0)
        .count();
    assert!(added_after_load > 0, "manager reacted to the load");
}

#[test]
fn fig4_full_phase_sequence() {
    let outcome = PipelineScenario::builder()
        .slow_nodes(4)
        .dispatch(Dispatch::RoundRobin)
        .build()
        .run(42);

    // Phase 1: starvation reported, escalated, compensated.
    let t_not_enough = outcome
        .first_event("AM_filter", &EventKind::NotEnough)
        .expect("notEnough");
    let t_raise = outcome
        .first_event("AM_filter", &EventKind::RaiseViol)
        .expect("raiseViol");
    let t_inc = outcome
        .first_event("AM_app", &EventKind::IncRate)
        .expect("incRate");
    assert!(t_not_enough <= t_raise && t_raise <= t_inc);

    // Phase 2/3: worker growth strictly after rate compensation.
    let t_add = outcome
        .first_event("AM_filter", &EventKind::AddWorker)
        .expect("addWorker");
    assert!(t_add > t_inc);

    // Multiple incRate actions, as the paper reports.
    assert!(outcome.events_of("AM_app", &EventKind::IncRate).len() >= 2);

    // Convergence into the stripe before the stream drains.
    let mid = outcome
        .trace
        .mean_over("throughput", 150.0, 250.0)
        .expect("mid-run samples");
    assert!((0.25..=0.75).contains(&mid), "mid-run throughput {mid}");

    // Final phase: endStream observed; every task displayed.
    assert!(outcome
        .events
        .iter()
        .any(|e| e.kind == EventKind::EndStream));
    assert_eq!(outcome.consumed, 120);
}

#[test]
fn fig4_passive_mode_round_trip() {
    // AM_F enters passive mode while starved and reactivates once input
    // pressure returns (paper Fig. 1 right / §4.2).
    let outcome = PipelineScenario::builder().build().run(42);
    let filter_events: Vec<_> = outcome
        .events
        .iter()
        .filter(|e| &*e.manager == "AM_filter")
        .collect();
    let t_passive = filter_events
        .iter()
        .find(|e| e.kind == EventKind::EnterPassive)
        .map(|e| e.at)
        .expect("went passive during starvation");
    let t_active = filter_events
        .iter()
        .find(|e| e.kind == EventKind::EnterActive && e.at > t_passive)
        .map(|e| e.at)
        .expect("reactivated");
    assert!(t_active > t_passive);
}

#[test]
fn fig4_reconfiguration_blackout_visible() {
    // During worker recruitment the farm manager is blind (paper: "No
    // sensor data is available for AM_F during the reconfiguration"), so
    // between addWorker and the workers' arrival the farm logs nothing.
    let outcome = PipelineScenario::builder()
        .recruit_latency(10.0)
        .build()
        .run(42);
    let t_add = outcome
        .first_event("AM_filter", &EventKind::AddWorker)
        .expect("addWorker");
    let farm_events_in_blackout = outcome
        .events
        .iter()
        .filter(|e| &*e.manager == "AM_filter" && e.at > t_add && e.at < t_add + 9.0)
        .count();
    assert_eq!(
        farm_events_in_blackout, 0,
        "no AM_F activity during the 10 s deployment window"
    );
}

#[test]
fn sec1_policy_table_shape() {
    let run = |untrusted: usize, policy: SecurityPolicy| {
        FarmScenario::builder()
            .nodes(8 - untrusted, untrusted)
            .initial_workers(2)
            .service_time(2.0)
            .arrival_rate(4.0)
            .contract(Contract::min_throughput(3.0))
            .recruit_latency(2.0)
            .ssl(SslCostModel {
                handshake: 1.0,
                plain_comm: 0.25,
                ssl_factor: 4.0,
            })
            .secure_mode(policy)
            .horizon(120.0)
            .build()
            .run(7)
    };

    // Mixed pool: never-SSL violates, the others don't.
    let never = run(4, SecurityPolicy::Never);
    let always = run(4, SecurityPolicy::Always);
    let selective = run(4, SecurityPolicy::IfUntrusted);
    assert!(never.plaintext_to_untrusted > 0);
    assert_eq!(always.plaintext_to_untrusted, 0);
    assert_eq!(selective.plaintext_to_untrusted, 0);
    // Selective pays no more handshakes and loses no more work than
    // always-on security.
    assert!(selective.handshakes <= always.handshakes);
    assert!(selective.tasks_done >= always.tasks_done);
    // All-trusted pool: selective matches never-SSL exactly (no secured
    // channels at all).
    let sel_trusted = run(0, SecurityPolicy::IfUntrusted);
    assert_eq!(sel_trusted.handshakes, 0);
}

#[test]
fn runs_are_deterministic_per_seed_and_differ_across_seeds() {
    let mk = || {
        FarmScenario::builder()
            .service(ServiceDist::exp(5.0))
            .horizon(120.0)
            .build()
    };
    let a = mk().run(1);
    let b = mk().run(1);
    let c = mk().run(2);
    assert_eq!(a.trace, b.trace, "same seed, same trace");
    assert_eq!(a.events.len(), b.events.len());
    assert_ne!(
        a.trace.get("throughput"),
        c.trace.get("throughput"),
        "different seed should perturb the stochastic service times"
    );
}

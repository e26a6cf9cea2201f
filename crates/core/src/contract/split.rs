//! Contract splitting — the paper's P_spl problem.
//!
//! §3.1: *"A strategy must be devised that allows splitting of a contract c
//! of a top level manager into a set of sub-contracts c₁…c_m to be
//! propagated to the nested managers."* No general solution exists; the
//! paper adopts *domain-specific heuristics* keyed on the well-known
//! performance models of the patterns:
//!
//! * **pipeline / throughput** — a pipeline's throughput is bounded by its
//!   slowest stage, so a throughput SLA splits into *identical* throughput
//!   SLAs for every stage;
//! * **pipeline / parallelism degree** — split *proportionally* to the
//!   relative computational weight of the stages;
//! * **farm** — workers receive `bestEffort` (paper §4.2: "it passes the
//!   AM_Wi a c_bestEffort contract in accordance with the definition of
//!   task farm BS");
//! * **security** — secure-domain sets are global facts and propagate
//!   unchanged to every child.

use crate::bs::BsExpr;
use crate::contract::Contract;

/// A sub-contract assigned to a named child.
#[derive(Debug, Clone, PartialEq)]
pub struct SubContract {
    /// Child node name (a [`BsExpr`] child of the split node).
    pub child: String,
    /// The contract the child must ensure.
    pub contract: Contract,
}

/// Splits `contract` at skeleton node `node` into sub-contracts for its
/// direct children. Leaves split to nothing (they have no children).
pub fn split(contract: &Contract, node: &BsExpr) -> Vec<SubContract> {
    match node {
        BsExpr::Seq { .. } => Vec::new(),
        BsExpr::Farm { worker, .. } => split_farm(contract, worker),
        BsExpr::Pipe { stages, .. } => split_pipe(contract, stages),
    }
}

fn split_farm(contract: &Contract, worker: &BsExpr) -> Vec<SubContract> {
    // Workers receive best-effort, conjoined with any security goal (a
    // boolean concern cannot be weakened by delegation).
    let base = match contract.secure_domain_set() {
        Some(domains) if !domains.is_empty() => {
            Contract::all([Contract::BestEffort, Contract::SecureDomains(domains)])
        }
        _ => Contract::BestEffort,
    };
    vec![SubContract {
        child: worker.name().to_owned(),
        contract: base,
    }]
}

fn split_pipe(contract: &Contract, stages: &[BsExpr]) -> Vec<SubContract> {
    let throughput = contract.throughput_bounds();
    let par_degree = contract.par_degree_bounds();
    let security = contract.secure_domain_set();
    let total_weight: f64 = stages.iter().map(BsExpr::weight).sum();

    stages
        .iter()
        .map(|stage| {
            let mut parts = Vec::new();
            if let Some((lo, hi)) = throughput {
                // Identical stage SLAs: the pipeline delivers the minimum
                // over stages, so every stage holding [lo, hi] keeps the
                // composition inside [lo, hi].
                parts.push(if hi.is_finite() {
                    Contract::ThroughputRange { lo, hi }
                } else {
                    Contract::MinThroughput(lo)
                });
            }
            if let Some((min, max)) = par_degree {
                // Proportional split by relative stage weight; every stage
                // keeps at least one worker.
                let share = if total_weight > 0.0 {
                    stage.weight() / total_weight
                } else {
                    1.0 / stages.len() as f64
                };
                let smin = ((f64::from(min) * share).floor() as u32).max(1);
                let smax = ((f64::from(max) * share).ceil() as u32).max(smin);
                parts.push(Contract::ParDegree {
                    min: smin,
                    max: smax,
                });
            }
            if let Some(domains) = &security {
                if !domains.is_empty() {
                    parts.push(Contract::SecureDomains(domains.clone()));
                }
            }
            let contract = if parts.is_empty() {
                Contract::BestEffort
            } else {
                Contract::all(parts)
            };
            SubContract {
                child: stage.name().to_owned(),
                contract,
            }
        })
        .collect()
}

/// The pipeline performance model used by the splitting heuristic and by
/// the soundness property tests: the delivered throughput of a pipeline is
/// the minimum of its stages' throughputs.
pub fn pipeline_throughput(stage_throughputs: &[f64]) -> f64 {
    stage_throughputs
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// The farm performance model: `n` workers of per-worker service time `ts`
/// deliver up to `n / ts` tasks/s, capped by the input arrival rate.
pub(crate) fn farm_throughput(workers: u32, service_time: f64, arrival_rate: f64) -> f64 {
    if service_time <= 0.0 {
        return arrival_rate;
    }
    (f64::from(workers) / service_time).min(arrival_rate)
}

/// The minimum parallelism degree a farm needs to sustain `rate` tasks/s at
/// per-worker service time `ts` — the "optimal initial value" heuristic the
/// paper cites from its earlier work (ref. \[10\]).
pub(crate) fn optimal_farm_workers(rate: f64, service_time: f64) -> u32 {
    if rate <= 0.0 || service_time <= 0.0 {
        return 1;
    }
    (rate * service_time).ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_right() -> BsExpr {
        BsExpr::pipe(
            "app",
            vec![
                BsExpr::seq("producer"),
                BsExpr::farm("filter", BsExpr::seq("worker"), 3),
                BsExpr::seq("consumer"),
            ],
        )
    }

    #[test]
    fn pipeline_throughput_contract_replicates() {
        // Paper §4.2: "As the topmost behavioural skeleton is a pipeline,
        // its manager AM_A simply forwards the contract to the stage
        // managers."
        let c = Contract::throughput_range(0.3, 0.7);
        let subs = split(&c, &fig2_right());
        assert_eq!(subs.len(), 3);
        for sub in &subs {
            assert_eq!(sub.contract, c, "stage {} got {}", sub.child, sub.contract);
        }
        assert_eq!(subs[0].child, "producer");
        assert_eq!(subs[1].child, "filter");
        assert_eq!(subs[2].child, "consumer");
    }

    #[test]
    fn min_throughput_splits_to_min_throughput() {
        let c = Contract::min_throughput(0.6);
        let subs = split(&c, &fig2_right());
        for sub in subs {
            assert_eq!(sub.contract, Contract::min_throughput(0.6));
        }
    }

    #[test]
    fn farm_gives_workers_best_effort() {
        let farm = BsExpr::farm("filter", BsExpr::seq("worker"), 4);
        let subs = split(&Contract::throughput_range(0.3, 0.7), &farm);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].child, "worker");
        assert_eq!(subs[0].contract, Contract::BestEffort);
    }

    #[test]
    fn par_degree_splits_proportionally_to_weight() {
        let pipe = BsExpr::pipe(
            "p",
            vec![
                BsExpr::seq_weighted("light", 1.0),
                BsExpr::seq_weighted("heavy", 3.0),
            ],
        );
        let subs = split(&Contract::par_degree(4, 8), &pipe);
        let light = &subs[0].contract;
        let heavy = &subs[1].contract;
        assert_eq!(light.par_degree_bounds(), Some((1, 2)));
        assert_eq!(heavy.par_degree_bounds(), Some((3, 6)));
    }

    #[test]
    fn par_degree_split_never_starves_a_stage() {
        let pipe = BsExpr::pipe(
            "p",
            vec![
                BsExpr::seq_weighted("tiny", 0.01),
                BsExpr::seq_weighted("huge", 100.0),
            ],
        );
        let subs = split(&Contract::par_degree(2, 4), &pipe);
        for sub in subs {
            let (min, max) = sub.contract.par_degree_bounds().unwrap();
            assert!(min >= 1);
            assert!(max >= min);
        }
    }

    #[test]
    fn security_goal_propagates_everywhere() {
        let c = Contract::all([
            Contract::throughput_range(0.3, 0.7),
            Contract::secure_domains(["untrusted_ip_domain_A"]),
        ]);
        let subs = split(&c, &fig2_right());
        for sub in &subs {
            let domains = sub.contract.secure_domain_set().unwrap();
            assert!(domains.contains("untrusted_ip_domain_A"), "{}", sub.child);
        }
        // ...including through a farm to its workers.
        let farm = fig2_right().find("filter").unwrap().clone();
        let farm_subs = split(&c, &farm);
        assert!(farm_subs[0].contract.secure_domain_set().is_some());
        assert!(!farm_subs[0].contract.is_best_effort());
    }

    #[test]
    fn best_effort_splits_to_best_effort() {
        let subs = split(&Contract::BestEffort, &fig2_right());
        for sub in subs {
            assert!(sub.contract.is_best_effort());
        }
    }

    #[test]
    fn leaves_split_to_nothing() {
        assert!(split(&Contract::min_throughput(1.0), &BsExpr::seq("s")).is_empty());
    }

    #[test]
    fn split_soundness_on_pipeline_model() {
        // If every stage meets the identical sub-contract, the pipeline
        // model (min over stages) meets the parent contract.
        let c = Contract::throughput_range(0.3, 0.7);
        let (lo, hi) = c.throughput_bounds().unwrap();
        // Any per-stage throughputs inside [lo, hi]:
        let stages = [0.45, 0.7, 0.3];
        let composed = pipeline_throughput(&stages);
        assert!(composed >= lo && composed <= hi);
    }

    #[test]
    fn farm_model_caps_at_arrival() {
        assert!((farm_throughput(4, 5.0, 10.0) - 0.8).abs() < 1e-12);
        assert!((farm_throughput(100, 5.0, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(farm_throughput(4, 0.0, 2.0), 2.0);
    }

    #[test]
    fn optimal_workers_heuristic() {
        // 0.6 task/s at 5 s/task needs ceil(3) = 3 workers (Fig. 3's
        // final configuration shape).
        assert_eq!(optimal_farm_workers(0.6, 5.0), 3);
        assert_eq!(optimal_farm_workers(0.6, 5.1), 4);
        assert_eq!(optimal_farm_workers(0.0, 5.0), 1);
        assert_eq!(optimal_farm_workers(1.0, 0.0), 1);
    }
}

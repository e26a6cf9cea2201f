//! The metric names, units and directions, exactly as `BENCHMARK.json`
//! lists them (a test compares the two).
//!
//! Every run prints every metric of its kind: an untraced run all
//! end-to-end metrics, a traced run all per-layer metrics. A per-layer
//! metric a workload does not exercise reads 0 there.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `candidate` is worse than `base` by more than `bound`
    /// (a share of `base`).
    pub fn worse_by_more_than(self, base: f64, candidate: f64, bound: f64) -> bool {
        match self {
            Better::Lower => candidate > base * (1.0 + bound),
            Better::Higher => candidate < base * (1.0 - bound),
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// A single layer's metric; `moves` names the end-to-end metric and
/// workload it should move (on every other workload: no change).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, as printed: `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The prediction written down before measuring.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_tps",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "contract_share",
        unit: "ratio",
        better: Higher,
        bound: 0.10,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const FARM: &str = "throughput_tps @ farm_fine";
const HEAL: &str = "contract_share @ elastic_heal";
const WIDE: &str = "throughput_tps @ pool_echo_wide";
const OPEN: &str = "latency_p50_us @ pool_open";
const POOLS: &str = "throughput_tps @ pool_echo_wide; latency_p50_us @ pool_open";
const BULK: &str = "throughput_tps @ pool_bulk_secure";
const TENANTS: &str = "latency_p50_us, throughput_tps @ tenants_mixed";
const STORM: &str = "throughput_tps, latency_p50_us @ control_storm";
const DIAG: &str = "diagnosis of latency_p50_us on the open-loop workloads";
const COST: &str = "what a gain costs or saves beside the end-to-end metric it moves";
const ZERO: &str = "must be 0 off elastic_heal";
const VALID: &str = "validity only";

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: [PerLayer; 82] = [
    layer("system.cpu_us_per_task", "us", Lower, COST),
    layer("system.latency_p90_us", "us", Lower, DIAG),
    layer("system.latency_p99w_us", "us", Lower, DIAG),
    layer("system.latency_p999_us", "us", Lower, DIAG),
    layer("system.latency_max_us", "us", Lower, DIAG),
    layer("system.latency_samples", "count", Higher, DIAG),
    layer("skeletons.submit_ns", "ns", Lower, FARM),
    layer("skeletons.transit_us", "us", Lower, FARM),
    layer("skeletons.reorder_push_ns", "ns", Lower, FARM),
    layer("skeletons.emitter_cpu_share", "ratio", Lower, FARM),
    layer("skeletons.collector_cpu_share", "ratio", Lower, FARM),
    layer("skeletons.worker_cpu_share", "ratio", Higher, FARM),
    layer("skeletons.ctx_switches_per_task", "count", Lower, FARM),
    layer("skeletons.sense_ns", "ns", Lower, HEAL),
    layer("skeletons.add_worker_us", "us", Lower, HEAL),
    layer("skeletons.remove_worker_us", "us", Lower, HEAL),
    layer("skeletons.rebalance_us", "us", Lower, HEAL),
    layer("net.encode_ns_64", "ns", Lower, POOLS),
    layer("net.decode_ns_64", "ns", Lower, POOLS),
    layer("net.sendq_write_ns", "ns", Lower, POOLS),
    layer("net.daemon_apply_ns_64", "ns", Lower, POOLS),
    layer("net.reactor_cpu_share", "ratio", Lower, POOLS),
    layer("net.emitter_cpu_share", "ratio", Lower, POOLS),
    layer("net.collector_cpu_share", "ratio", Lower, POOLS),
    layer("net.daemon_cpu_share", "ratio", Lower, POOLS),
    layer("net.ctx_switches_per_task", "count", Lower, POOLS),
    layer("net.reactor_lag_us", "us", Lower, OPEN),
    layer("net.sendq_depth_max", "count", Lower, WIDE),
    layer("net.encode_ns_64k", "ns", Lower, BULK),
    layer("net.decode_ns_64k", "ns", Lower, BULK),
    layer("net.daemon_apply_ns_64k", "ns", Lower, BULK),
    layer("net.cipher_ns_per_byte", "ns", Lower, BULK),
    layer(
        "net.handshake_ms",
        "ms",
        Lower,
        "setup_s @ pool_bulk_secure",
    ),
    layer("net.goodput_mbps", "MB/s", Higher, BULK),
    layer(
        "net.connect_us",
        "us",
        Lower,
        "contract_share @ elastic_heal; setup_s @ pool_echo_wide",
    ),
    layer(
        "net.connect_secure_us",
        "us",
        Lower,
        "setup_s @ pool_bulk_secure",
    ),
    layer("net.detect_ms", "ms", Lower, HEAL),
    layer("net.rtt_us", "us", Lower, OPEN),
    layer("net.sense_ns", "ns", Lower, HEAL),
    layer("net.tasks_retried", "count", Lower, ZERO),
    layer("net.duplicates_dropped", "count", Lower, ZERO),
    layer("net.workers_lost", "count", Lower, ZERO),
    layer(
        "net.threads_peak",
        "count",
        Lower,
        "peak_rss_mb @ pool_echo_wide",
    ),
    layer(
        "net.fds_peak",
        "count",
        Lower,
        "peak_rss_mb @ pool_echo_wide",
    ),
    layer("tenancy.submit_ns", "ns", Lower, TENANTS),
    layer("tenancy.stats_ns", "ns", Lower, TENANTS),
    layer("tenancy.sched_cpu_share", "ratio", Lower, TENANTS),
    layer("tenancy.collect_cpu_share", "ratio", Lower, TENANTS),
    layer("tenancy.queue_depth_p50.steady", "count", Lower, TENANTS),
    layer("tenancy.frontend_p99_us.steady", "us", Lower, TENANTS),
    layer(
        "tenancy.shed_share.flood",
        "ratio",
        Lower,
        "throughput_tps @ tenants_mixed",
    ),
    layer("tenancy.shed_share.steady", "ratio", Lower, "must be 0"),
    layer("tenancy.share_err", "ratio", Lower, TENANTS),
    layer("monitor.to_beans_ns", "ns", Lower, STORM),
    layer("monitor.bean_lookup_ns", "ns", Lower, STORM),
    layer("monitor.journal_snapshot_ns", "ns", Lower, STORM),
    layer("monitor.journal_event_ns", "ns", Lower, STORM),
    layer("monitor.journal_dropped", "count", Lower, STORM),
    layer("monitor.expo_render_us", "us", Lower, STORM),
    layer("monitor.jsonl_us_per_entry", "us", Lower, STORM),
    layer(
        "monitor.rate_record_ns",
        "ns",
        Lower,
        "throughput_tps @ farm_fine",
    ),
    layer("rules.wm_build_ns", "ns", Lower, STORM),
    layer("rules.cycle_ns", "ns", Lower, STORM),
    layer("rules.firings", "count", Lower, STORM),
    layer(
        "rules.parse_us",
        "us",
        Lower,
        "setup_s @ elastic_heal, control_storm",
    ),
    layer(
        "rules.lint_us",
        "us",
        Lower,
        "setup_s @ elastic_heal, control_storm",
    ),
    layer("core.cycle_us", "us", Lower, STORM),
    layer("core.sense_us", "us", Lower, HEAL),
    layer("core.cycle_self_us", "us", Lower, STORM),
    layer("core.cycles", "count", Higher, STORM),
    layer("core.actuations", "count", Lower, HEAL),
    layer("core.blackout_cycles", "count", Lower, HEAL),
    layer("core.contract_share", "ratio", Higher, HEAL),
    layer("core.time_to_contract_ms", "ms", Lower, HEAL),
    layer("core.restore_ms", "ms", Lower, HEAL),
    layer("core.mass_kills", "count", Higher, VALID),
    layer("core.single_kills", "count", Higher, VALID),
    layer("harness.gen_lateness_p99_us", "us", Lower, VALID),
    layer("harness.trace_overhead_pct", "%", Lower, VALID),
    layer("harness.scripted_sense_ns", "ns", Lower, VALID),
    layer("harness.spans", "count", Higher, VALID),
    layer("harness.micro_s", "s", Lower, VALID),
];

/// Looks a value up by name in a `(name, value)` list.
pub fn value_of<S: AsRef<str>>(values: &[(S, f64)], name: &str) -> Option<f64> {
    values
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn worse_by_more_than_respects_direction() {
        assert!(Lower.worse_by_more_than(100.0, 111.0, 0.1));
        assert!(!Lower.worse_by_more_than(100.0, 109.0, 0.1));
        assert!(Higher.worse_by_more_than(100.0, 89.0, 0.1));
        assert!(!Higher.worse_by_more_than(100.0, 91.0, 0.1));
    }
}

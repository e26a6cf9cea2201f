//! # bskel-bench — the experiment harness
//!
//! One scenario file or binary per paper artefact (DESIGN.md §3 indexes them):
//!
//! | artefact | run by |
//! |---|---|
//! | Fig. 3 — single farm AM ensuring a 0.6 task/s SLA | `scenarios/fig3.json`, checked by `tests/experiments.rs` |
//! | Fig. 4 — hierarchical management of the 3-stage pipeline | `fig4_hierarchical` |
//! | Fig. 5 — the AM_F rule program, parsed and exercised | `fig5_rules` |
//! | SEC1 — SSL policy cost/violation table (refs \[20\],\[31\]) | `scenarios/experiments/security_cost.json`, checked by `tests/experiments.rs` |
//! | ABL1 — hierarchy vs a single non-cooperating manager | `ablation_hierarchy` |
//! | ABL2 — two-phase commit vs naive multi-concern commit | `ablation_two_phase` |
//! | ABL3 — identical vs weighted contract splitting | `ablation_split` |
//! | ABL4 — model-based initial setup vs reactive ramp | `scenarios/experiments/ablation_model_init.json`, checked by `tests/experiments.rs` |
//! | HOT1 — re-adaptation under processing hot spots | `scenarios/experiments/hotspot_adaptation.json`, checked by `tests/experiments.rs` |
//! | FT1 — recovery from worker/node failures | `scenarios/fault_recovery.json`, checked by `tests/experiments.rs` |
//! | MIG1 — migration off loaded nodes | `scenarios/experiments/migration.json`, checked by `tests/experiments.rs` |
//! | POW1 — perf/power linear-combination arbitration | `power_tradeoff` |
//! | any scenario file (see [`config`]): its JSON summary and series | `run_scenario` |
//!
//! The engineering-side costs (rule-engine cycles, rate estimators, farm
//! overhead, reconfiguration latency) are per-layer metrics of the
//! `bskel-perf` benchmark under `perf/`. So are the network experiments'
//! rates, while their gates are tests of `bskel-net`: CHAOS1's
//! loss-freedom per fault class in `tests/chaos.rs` (recovery time is
//! `core.restore_ms @ elastic_heal`), NET2's constant client threads and
//! flat per-slot fds in `tests/fan_out.rs` (footprint is
//! `net.threads_peak` and `net.fds_peak @ pool_echo_wide`). CTRL1's
//! control-law comparison is this crate's `tests/scenario_sweep.rs`
//! (every scenario under every law; the discrete-event rows pinned), and
//! its retry-storm soak is `bskel-net`'s `tests/hedging.rs`.
//!
//! This library holds the scenario runner and the shared text-rendering
//! helpers the remaining figure binaries print with.

pub mod config;
pub mod rulelint;
pub mod rulemc;

use bskel_sim::Trace;

/// Renders a series as an ASCII strip chart: one row of `#`-height buckets
/// per `step` seconds. Good enough to eyeball a ramp in a terminal; the
/// CSV output is the real artefact.
pub fn ascii_series(trace: &Trace, series: &str, step: f64, max_value: f64) -> String {
    let samples = trace.get(series);
    if samples.is_empty() {
        return format!("{series}: <no samples>\n");
    }
    let mut out = String::new();
    let t_end = samples.last().expect("non-empty").0;
    let mut t = 0.0;
    while t <= t_end {
        let window: Vec<f64> = samples
            .iter()
            .filter(|&&(st, _)| st >= t && st < t + step)
            .map(|&(_, v)| v)
            .collect();
        if !window.is_empty() {
            let mean = window.iter().sum::<f64>() / window.len() as f64;
            let bars = ((mean / max_value) * 50.0).round().clamp(0.0, 50.0) as usize;
            out.push_str(&format!("{t:7.1}s |{:<50}| {mean:.3}\n", "#".repeat(bars)));
        }
        t += step;
    }
    out
}

/// Renders an aligned two-column table.
pub fn table(title: &str, rows: &[(String, String)]) -> String {
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(8);
    let mut out = format!("== {title} ==\n");
    for (k, v) in rows {
        out.push_str(&format!("  {k:<width$}  {v}\n"));
    }
    out
}

/// Formats seconds as the paper's `mm:ss` axis labels.
pub fn mmss(t: f64) -> String {
    format!("{:02}:{:02}", (t / 60.0) as u64, (t % 60.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_series_renders_buckets() {
        let mut tr = Trace::new();
        for i in 0..10 {
            tr.push("x", i as f64, i as f64 / 10.0);
        }
        let s = ascii_series(&tr, "x", 2.0, 1.0);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains('#'));
        assert!(ascii_series(&tr, "missing", 1.0, 1.0).contains("no samples"));
    }

    #[test]
    fn table_aligns_keys() {
        let t = table(
            "demo",
            &[("a".into(), "1".into()), ("longer-key".into(), "2".into())],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("longer-key  2"));
    }

    #[test]
    fn mmss_formats() {
        assert_eq!(mmss(0.0), "00:00");
        assert_eq!(mmss(125.0), "02:05");
        assert_eq!(mmss(3599.0), "59:59");
    }
}

//! # bskel-bench — the experiment harness
//!
//! One binary per paper artefact (see DESIGN.md §3 for the index):
//!
//! | binary | artefact |
//! |---|---|
//! | `fig3_single_farm` | Fig. 3 — single farm AM ensuring a 0.6 task/s SLA |
//! | `fig4_hierarchical` | Fig. 4 — hierarchical management of the 3-stage pipeline |
//! | `fig5_rules` | Fig. 5 — the AM_F rule program, parsed and exercised |
//! | `security_cost` | SEC1 — SSL policy cost/violation table (refs \[20\],\[31\]) |
//! | `ablation_hierarchy` | ABL1 — hierarchy vs a single non-cooperating manager |
//! | `ablation_two_phase` | ABL2 — two-phase commit vs naive multi-concern commit |
//! | `ablation_split` | ABL3 — identical vs weighted contract splitting |
//! | `ablation_model_init` | ABL4 — model-based initial setup vs reactive ramp |
//! | `hotspot_adaptation` | HOT1 — re-adaptation under processing hot spots |
//! | `fault_tolerance` | FT1 — recovery from worker/node failures |
//! | `migration` | MIG1 — migration off loaded nodes |
//! | `power_tradeoff` | POW1 — perf/power linear-combination arbitration |
//! | `run_scenario` | JSON-config scenario runner (see [`config`]) |
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
//! This library holds the shared text-rendering helpers: every binary
//! prints the same kind of series/tables the paper's figures plot.

pub mod config;
pub mod rulelint;
pub mod rulemc;

use bskel_core::events::EventRecord;
use bskel_sim::Trace;

/// Renders a series as an ASCII strip chart: one row of `#`-height buckets
/// per `step` seconds. Good enough to eyeball the Fig. 3 ramp in a
/// terminal; the CSV output is the real artefact.
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

/// Renders the first `limit` manager events as the paper's event lines.
pub fn event_lines(events: &[EventRecord], limit: usize) -> String {
    events
        .iter()
        .take(limit)
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
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

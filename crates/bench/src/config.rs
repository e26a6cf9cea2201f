//! Declarative scenario configuration (JSON) for the `run_scenario` CLI.
//!
//! Experiments are data: a JSON file selects the scenario kind, workload,
//! contract and knobs, and the runner produces a summary plus optional
//! trace exports. This is the "SLA as configuration" surface an operator
//! (rather than a Rust programmer) would touch.

use bskel_core::contract::Contract;
use bskel_core::ControllerKind;
use bskel_sim::models::SecureMode;
use bskel_sim::{FarmOutcome, FarmScenario, PipelineScenario, SslCostModel};
use bskel_workloads::ServiceDist;
use serde::{Deserialize, Serialize, Value};

fn default_seed() -> u64 {
    42
}

fn default_horizon() -> f64 {
    300.0
}

fn default_one() -> u32 {
    1
}

fn default_queue_capacity() -> u32 {
    64
}

fn default_mt_max_workers() -> u32 {
    8
}

fn default_mt_duration() -> f64 {
    5.0
}

fn default_control_period() -> f64 {
    0.5
}

/// Serializable securing policy (mirrors `bskel_sim::models::SecureMode`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SecurePolicyConfig {
    /// Never secure channels.
    Never,
    /// Secure every channel.
    Always,
    /// Secure untrusted channels before first use (two-phase).
    IfUntrusted,
    /// Naive commit with a reaction delay, seconds.
    Delayed {
        /// Security-manager reaction delay.
        delay: f64,
    },
}

impl From<SecurePolicyConfig> for SecureMode {
    fn from(c: SecurePolicyConfig) -> Self {
        match c {
            SecurePolicyConfig::Never => SecureMode::Never,
            SecurePolicyConfig::Always => SecureMode::Always,
            SecurePolicyConfig::IfUntrusted => SecureMode::IfUntrusted,
            SecurePolicyConfig::Delayed { delay } => SecureMode::DelayedIfUntrusted { delay },
        }
    }
}

/// Serializable admission policy (mirrors `bskel_tenancy::ShedPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ShedPolicyConfig {
    /// Drop the oldest queued task on overflow.
    #[default]
    ShedOldest,
    /// Refuse new arrivals on overflow.
    Reject,
}

impl From<ShedPolicyConfig> for bskel_tenancy::ShedPolicy {
    fn from(c: ShedPolicyConfig) -> Self {
        match c {
            ShedPolicyConfig::ShedOldest => bskel_tenancy::ShedPolicy::ShedOldest,
            ShedPolicyConfig::Reject => bskel_tenancy::ShedPolicy::Reject,
        }
    }
}

/// One tenant of a multi-tenant scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Tenant name (metrics label).
    pub name: String,
    /// The tenant's SLA.
    pub contract: Contract,
    /// Offered load, tasks/s.
    pub arrival_rate: f64,
    /// On/off burst period, seconds: the tenant submits only during the
    /// first half of each period (phase-shifted by the seed). `None` =
    /// steady offered load.
    #[serde(default)]
    pub burst_period: Option<f64>,
    /// Bounded admission-queue capacity.
    #[serde(default = "default_queue_capacity")]
    pub queue_capacity: u32,
    /// Behaviour when the queue is full.
    #[serde(default)]
    pub shed_policy: ShedPolicyConfig,
}

/// A runnable scenario description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ScenarioConfig {
    /// Single-farm scenario (Fig. 3 family).
    Farm {
        /// Per-task cost, seconds (deterministic).
        service_time: f64,
        /// Offered input rate, tasks/s.
        arrival_rate: f64,
        /// Workers at start-up.
        #[serde(default = "default_one")]
        initial_workers: u32,
        /// The SLA (uses `bskel_core::contract::Contract`'s serde form).
        contract: Contract,
        /// Run length, seconds.
        #[serde(default = "default_horizon")]
        horizon: f64,
        /// Trusted / untrusted pool sizes.
        #[serde(default)]
        nodes: Option<(usize, usize)>,
        /// Channel-securing policy.
        #[serde(default)]
        secure: Option<SecurePolicyConfig>,
        /// SSL cost model.
        #[serde(default)]
        ssl: Option<SslCostModel>,
        /// Injected failures `(time, workers killed)`.
        #[serde(default)]
        failures: Vec<(f64, u32)>,
        /// Fault-tolerance floor.
        #[serde(default)]
        ft_min_workers: Option<u32>,
        /// Migration gain threshold.
        #[serde(default)]
        migrate_min_gain: Option<f64>,
        /// Model-based initial setup.
        #[serde(default)]
        model_initial_setup: bool,
        /// Node recruitment latency, seconds (simulator default: 10 s).
        #[serde(default)]
        recruit_latency: Option<f64>,
        /// External load `(nodes, start, end, extra)`: the first `nodes`
        /// trusted nodes run at `1 / (1 + extra)` speed in `[start, end)`.
        #[serde(default)]
        load_window: Option<(usize, f64, f64, f64)>,
        /// Processing hot spot `(factor, start, end)`: a task started in
        /// `[start, end)` costs `factor × service_time`.
        #[serde(default)]
        hot_spot: Option<(f64, f64, f64)>,
        /// Control law for the farm manager
        /// (`"rules" | "aimd"`; default rules).
        #[serde(default)]
        controller: Option<String>,
        /// RNG seed.
        #[serde(default = "default_seed")]
        seed: u64,
    },
    /// Hierarchical pipeline scenario (Fig. 4 family).
    Pipeline {
        /// Producer's initial rate, tasks/s.
        initial_rate: f64,
        /// The SLA.
        contract: Contract,
        /// Farm-stage per-task cost, seconds.
        farm_service_time: f64,
        /// Farm workers at start-up.
        #[serde(default = "default_one")]
        initial_workers: u32,
        /// Workers per `ADD_EXECUTOR`.
        #[serde(default = "default_one")]
        add_batch: u32,
        /// Stream length.
        count: u64,
        /// Run length, seconds.
        #[serde(default = "default_horizon")]
        horizon: f64,
        /// Control law for the farm-stage manager (default rules).
        #[serde(default)]
        controller: Option<String>,
        /// RNG seed.
        #[serde(default = "default_seed")]
        seed: u64,
    },
    /// Multi-tenant front-end scenario: N tenant streams with their own
    /// contracts and admission policies share one worker pool through the
    /// DRR scheduler, arbitrated by `tenancy.rules` managers. Runs on the
    /// threaded substrate (`bskel_tenancy`), wall-clock seconds.
    MultiTenant {
        /// The tenant mix.
        tenants: Vec<TenantConfig>,
        /// Per-task cost, seconds (busy-spin on a real worker).
        service_time: f64,
        /// Workers at start-up.
        #[serde(default = "default_one")]
        initial_workers: u32,
        /// Pool ceiling the arbiter may grow to.
        #[serde(default = "default_mt_max_workers")]
        max_workers: u32,
        /// Run length, wall seconds.
        #[serde(default = "default_mt_duration")]
        duration: f64,
        /// Seconds between manager control cycles.
        #[serde(default = "default_control_period")]
        control_period: f64,
        /// Control law for the pool arbiter (default rules).
        #[serde(default)]
        controller: Option<String>,
        /// Seed for burst phase offsets.
        #[serde(default = "default_seed")]
        seed: u64,
    },
}

/// The runner's summary, serialised back to the caller as JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Delivered throughput at the horizon (farm) or mid-run mean
    /// (pipeline), tasks/s.
    pub throughput: f64,
    /// Final parallelism degree.
    pub workers: u32,
    /// Tasks completed.
    pub tasks_done: u64,
    /// First time the contract floor was reached, if ever (multi-tenant:
    /// the first control cycle at which every tenant's floor held).
    pub time_to_contract: Option<f64>,
    /// c_sec violations (plaintext tasks to untrusted nodes).
    pub security_violations: u64,
    /// Manager events emitted.
    pub events: usize,
    /// Contract-violation events observed (`contrLow` + `raiseViol`).
    #[serde(default)]
    pub violations: u64,
    /// Resource cost: ∫ workers dt over the run, worker-seconds.
    #[serde(default)]
    pub worker_seconds: f64,
}

/// Piecewise-constant integral of a sampled series (worker-seconds when
/// fed the `workers` trace), extended to `horizon` at the last value.
fn integrate(series: &[(f64, f64)], horizon: f64) -> f64 {
    let mut area = 0.0;
    for w in series.windows(2) {
        area += w[0].1 * (w[1].0 - w[0].0);
    }
    if let Some(&(t, v)) = series.last() {
        area += v * (horizon - t).max(0.0);
    }
    area
}

/// Counts contract-violation events (`contrLow` + `raiseViol`).
fn count_violations(events: &[bskel_core::EventRecord]) -> u64 {
    use bskel_core::EventKind;
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ContrLow | EventKind::RaiseViol))
        .count() as u64
}

/// The first key of `given` that `known`, the parsed config serialised
/// back, does not carry: at the top level, then in each `tenants` entry.
fn unknown_key(given: &Value, known: &Value) -> Option<String> {
    let (Value::Object(given), Value::Object(known)) = (given, known) else {
        return None;
    };
    given.iter().find_map(
        |(key, value)| match (known.iter().find(|(k, _)| k == key), value) {
            (None, _) => Some(key.clone()),
            (Some((_, Value::Array(known))), Value::Array(given)) if key == "tenants" => {
                given.iter().zip(known).find_map(|(g, k)| unknown_key(g, k))
            }
            _ => None,
        },
    )
}

impl ScenarioConfig {
    /// Parses a config from JSON text, rejecting an unknown key (a misspelt
    /// field would silently run its default) and an unknown controller name.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let cfg: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let given: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if let Some(key) = unknown_key(&given, &cfg.to_value()) {
            return Err(format!("unknown key {key:?}"));
        }
        cfg.controller()?;
        Ok(cfg)
    }

    /// The control law named by the `controller` field (rules when unset),
    /// or why the name is unknown.
    pub fn controller(&self) -> Result<ControllerKind, String> {
        let (ScenarioConfig::Farm { controller, .. }
        | ScenarioConfig::Pipeline { controller, .. }
        | ScenarioConfig::MultiTenant { controller, .. }) = self;
        controller
            .as_deref()
            .map_or(Ok(ControllerKind::Rules), str::parse)
    }

    /// Runs a `farm` config on the simulator and returns the whole outcome
    /// that [`ScenarioConfig::run`] summarises (`None` for the other kinds).
    /// Each field sets the [`FarmScenario`] builder method of its name
    /// (`hot_spot` wraps the service time). Panics like `run`.
    pub fn run_farm(&self) -> Option<FarmOutcome> {
        let ScenarioConfig::Farm {
            service_time,
            arrival_rate,
            initial_workers,
            contract,
            horizon,
            nodes,
            secure,
            ssl,
            failures,
            ft_min_workers,
            migrate_min_gain,
            model_initial_setup,
            recruit_latency,
            load_window,
            hot_spot,
            seed,
            ..
        } = self.clone()
        else {
            return None;
        };
        let mut b = FarmScenario::builder()
            .service_time(service_time)
            .arrival_rate(arrival_rate)
            .initial_workers(initial_workers)
            .contract(contract)
            .horizon(horizon)
            .controller(self.controller().expect("known controller name"))
            .model_initial_setup(model_initial_setup);
        if let Some((trusted, untrusted)) = nodes {
            b = b.nodes(trusted, untrusted);
        }
        if let Some(policy) = secure {
            b = b.secure_mode(policy.into());
        }
        if let Some(ssl) = ssl {
            b = b.ssl(ssl);
        }
        for (at, count) in failures {
            b = b.inject_failure(at, count);
        }
        if let Some(ft) = ft_min_workers {
            b = b.ft_min_workers(ft);
        }
        if let Some(gain) = migrate_min_gain {
            b = b.migrate_min_gain(gain);
        }
        if let Some(latency) = recruit_latency {
            b = b.recruit_latency(latency);
        }
        if let Some((n, start, end, extra)) = load_window {
            b = b.load_window(n, start, end, extra);
        }
        if let Some((factor, start, end)) = hot_spot {
            b = b.service(ServiceDist::det(service_time).with_hot_spot(factor, start, end));
        }
        Some(b.build().run(seed))
    }

    /// Runs the scenario; returns the report and the trace CSV.
    ///
    /// # Panics
    ///
    /// On an unknown controller name, which [`ScenarioConfig::from_json`]
    /// rejects.
    pub fn run(&self) -> (RunReport, String) {
        let law = self.controller().expect("known controller name");
        match self.clone() {
            ScenarioConfig::Farm { horizon, .. } => {
                let outcome = self.run_farm().expect("a farm config");
                let report = RunReport {
                    throughput: outcome.final_snapshot.departure_rate,
                    workers: outcome.final_snapshot.num_workers,
                    tasks_done: outcome.tasks_done,
                    time_to_contract: outcome.time_to_contract,
                    security_violations: outcome.plaintext_to_untrusted,
                    events: outcome.events.len(),
                    violations: count_violations(&outcome.events),
                    worker_seconds: integrate(outcome.trace.get("workers"), horizon),
                };
                (report, outcome.trace.to_csv())
            }
            ScenarioConfig::Pipeline {
                initial_rate,
                contract,
                farm_service_time,
                initial_workers,
                add_batch,
                count,
                horizon,
                seed,
                ..
            } => {
                let outcome = PipelineScenario::builder()
                    .initial_rate(initial_rate)
                    .contract(contract.clone())
                    .farm_service_time(farm_service_time)
                    .initial_workers(initial_workers)
                    .add_batch(add_batch)
                    .count(count)
                    .horizon(horizon)
                    .controller(law)
                    .build()
                    .run(seed);
                let lo = contract.throughput_bounds().map_or(0.0, |(lo, _)| lo);
                let report = RunReport {
                    throughput: outcome
                        .trace
                        .mean_over("throughput", horizon / 2.0, horizon * 0.85)
                        .unwrap_or(0.0),
                    workers: outcome.final_farm.num_workers,
                    tasks_done: outcome.consumed,
                    time_to_contract: outcome.trace.first_reaching("throughput", lo),
                    security_violations: 0,
                    events: outcome.events.len(),
                    violations: count_violations(&outcome.events),
                    worker_seconds: integrate(outcome.trace.get("workers"), horizon),
                };
                (report, outcome.trace.to_csv())
            }
            ScenarioConfig::MultiTenant {
                tenants,
                service_time,
                initial_workers,
                max_workers,
                duration,
                control_period,
                seed,
                ..
            } => run_multi_tenant(
                &tenants,
                service_time,
                initial_workers,
                max_workers,
                duration,
                control_period,
                law,
                seed,
            ),
        }
    }
}

/// Runs a multi-tenant scenario on the threaded front-end: paced offered
/// load per tenant, manager cycles at `control_period`, and a per-tenant
/// accounting CSV as the trace.
#[allow(clippy::too_many_arguments)]
fn run_multi_tenant(
    tenants: &[TenantConfig],
    service_time: f64,
    initial_workers: u32,
    max_workers: u32,
    duration: f64,
    control_period: f64,
    controller: ControllerKind,
    seed: u64,
) -> (RunReport, String) {
    use bskel_tenancy::{build_managers_with, TenantFrontEnd, TenantSpec};
    use std::time::{Duration, Instant};

    let spin_us = (service_time * 1e6).max(1.0) as u64;
    let farm = bskel_skel::FarmBuilder::from_fn(move |x: u64| {
        let until = Instant::now() + Duration::from_micros(spin_us);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        x
    })
    .name("multi-tenant-pool")
    .initial_workers(initial_workers)
    .max_workers(max_workers)
    .gather(bskel_skel::GatherPolicy::Unordered)
    .build();

    let front = TenantFrontEnd::over_farm(farm);
    let handles: Vec<_> = tenants
        .iter()
        .map(|t| {
            front
                .attach(
                    TenantSpec::new(&t.name, t.contract.clone())
                        .with_queue_capacity(t.queue_capacity.max(1) as usize)
                        .with_shed_policy(t.shed_policy.into()),
                )
                .expect("tenant names are unique")
        })
        .collect();
    let log = bskel_core::EventLog::new();
    let mut managers = build_managers_with(
        &front,
        &handles.iter().collect::<Vec<_>>(),
        log.clone(),
        max_workers,
        controller,
    );

    // Deterministic burst phase offsets from the seed (splitmix64 step).
    let phase_of = |i: usize| {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };

    let start = Instant::now();
    let mut acc = vec![0.0_f64; tenants.len()];
    let mut payload = 0_u64;
    let mut last_step = 0.0_f64;
    let mut next_cycle = control_period;
    let mut time_to_contract = None;
    while start.elapsed().as_secs_f64() < duration {
        let now = start.elapsed().as_secs_f64();
        let dt = now - last_step;
        last_step = now;
        for (i, t) in tenants.iter().enumerate() {
            let active = match t.burst_period {
                Some(p) if p > 0.0 => (now + phase_of(i) * p) % p < p / 2.0,
                _ => true,
            };
            if active {
                acc[i] += t.arrival_rate * dt;
            }
            while acc[i] >= 1.0 {
                acc[i] -= 1.0;
                handles[i].submit(payload);
                payload += 1;
            }
        }
        if now >= next_cycle {
            managers.run_cycle(now);
            next_cycle += control_period;
            // Settled once every tenant with a throughput floor meets it.
            if time_to_contract.is_none()
                && tenants.iter().zip(&handles).all(|(t, h)| {
                    t.contract
                        .throughput_bounds()
                        .is_none_or(|(lo, _)| h.stats().throughput >= lo)
                })
            {
                time_to_contract = Some(now);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut csv = String::from("tenant,submitted,completed,shed,lost,share,throughput,p50,p99\n");
    for h in &handles {
        let s = h.stats();
        csv.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.1},{:.6},{:.6}\n",
            s.name,
            s.submitted,
            s.completed,
            s.shed,
            s.lost,
            s.share,
            s.throughput,
            h.latency_quantile(0.5).unwrap_or(0.0),
            h.latency_quantile(0.99).unwrap_or(0.0),
        ));
    }
    let workers = front.control().num_workers() as u32;
    for h in &handles {
        h.close();
    }
    let report_mt = front.shutdown();
    let tasks_done: u64 = report_mt.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(log.dropped(), 0, "a report counts every event");
    let report = RunReport {
        throughput: tasks_done as f64 / duration,
        workers,
        tasks_done,
        time_to_contract,
        security_violations: 0,
        events: log.len(),
        violations: count_violations(&log.snapshot()),
        // The threaded front-end has no workers trace; approximate the
        // resource cost with the final pool size over the whole run.
        worker_seconds: f64::from(workers) * duration,
    };
    (report, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_config_roundtrip_and_run() {
        let json = r#"{
            "kind": "farm",
            "service_time": 5.0,
            "arrival_rate": 1.0,
            "initial_workers": 1,
            "contract": { "MinThroughput": 0.6 },
            "horizon": 120.0,
            "seed": 7
        }"#;
        let cfg = ScenarioConfig::from_json(json).unwrap();
        let back = serde_json::to_string(&cfg).unwrap();
        assert_eq!(ScenarioConfig::from_json(&back).unwrap(), cfg);
        let (report, csv) = cfg.run();
        assert!(report.throughput >= 0.5, "{report:?}");
        assert!(report.workers >= 3);
        assert!(csv.starts_with("t,"));
    }

    #[test]
    fn pipeline_config_runs() {
        let json = r#"{
            "kind": "pipeline",
            "initial_rate": 0.2,
            "contract": { "ThroughputRange": { "lo": 0.3, "hi": 0.7 } },
            "farm_service_time": 10.0,
            "initial_workers": 3,
            "add_batch": 2,
            "count": 60,
            "horizon": 200.0
        }"#;
        let cfg = ScenarioConfig::from_json(json).unwrap();
        let (report, _) = cfg.run();
        assert_eq!(report.tasks_done, 60);
        assert!(report.time_to_contract.is_some());
    }

    #[test]
    fn security_fields_parse() {
        let json = r#"{
            "kind": "farm",
            "service_time": 2.0,
            "arrival_rate": 4.0,
            "contract": { "MinThroughput": 3.0 },
            "nodes": [2, 6],
            "secure": "if_untrusted",
            "ssl": { "handshake": 0.5, "plain_comm": 0.1, "ssl_factor": 3.0 },
            "horizon": 60.0
        }"#;
        let cfg = ScenarioConfig::from_json(json).unwrap();
        let (report, _) = cfg.run();
        assert_eq!(report.security_violations, 0);
    }

    #[test]
    fn multi_tenant_config_roundtrip_and_run() {
        let json = r#"{
            "kind": "multi_tenant",
            "service_time": 0.0005,
            "initial_workers": 2,
            "max_workers": 4,
            "duration": 0.7,
            "control_period": 0.2,
            "tenants": [
                { "name": "hot", "contract": "BestEffort",
                  "arrival_rate": 4000.0, "queue_capacity": 32 },
                { "name": "victim", "contract": { "MinThroughput": 20.0 },
                  "arrival_rate": 100.0, "queue_capacity": 64,
                  "shed_policy": "reject" },
                { "name": "bursty", "contract": "BestEffort",
                  "arrival_rate": 500.0, "burst_period": 0.4 }
            ]
        }"#;
        let cfg = ScenarioConfig::from_json(json).unwrap();
        let back = serde_json::to_string(&cfg).unwrap();
        assert_eq!(ScenarioConfig::from_json(&back).unwrap(), cfg);
        let (report, csv) = cfg.run();
        assert!(report.tasks_done > 0, "{report:?}");
        assert!(report.events > 0, "managers must have emitted events");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + one row per tenant:\n{csv}");
        assert!(lines[0].starts_with("tenant,"));
        assert!(lines[1].starts_with("hot,") && lines[3].starts_with("bursty,"));
    }

    #[test]
    fn multi_tenant_reports_when_every_floor_is_met() {
        let json = r#"{
            "kind": "multi_tenant",
            "service_time": 0.0005,
            "initial_workers": 2,
            "duration": 0.6,
            "control_period": 0.1,
            "tenants": [
                { "name": "floored", "contract": { "MinThroughput": 1.0 },
                  "arrival_rate": 200.0 },
                { "name": "free", "contract": "BestEffort", "arrival_rate": 50.0 }
            ]
        }"#;
        let (report, _) = ScenarioConfig::from_json(json).unwrap().run();
        assert!(report.time_to_contract.is_some(), "{report:?}");
    }

    #[test]
    fn bad_json_reports_error() {
        assert!(ScenarioConfig::from_json("{").is_err());
        assert!(ScenarioConfig::from_json(r#"{"kind": "nope"}"#).is_err());
        // A misspelt key in a `tenants` entry is named, not read as absent.
        let tenant = r#"{ "kind": "multi_tenant", "service_time": 0.001, "tenants": [
            { "name": "a", "contract": "BestEffort", "arrival_rate": 1.0, "burst": 2.0 } ] }"#;
        assert_eq!(
            ScenarioConfig::from_json(tenant),
            Err(r#"unknown key "burst""#.into())
        );
    }
}

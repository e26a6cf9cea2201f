//! Multi-concern coordination (paper §3.2).
//!
//! When several non-functional concerns are managed at once, the paper
//! identifies the MM design point — one manager (hierarchy) per concern
//! plus a *general manager* (GM) orchestrating them — and a **two-phase
//! protocol** for actions that cross concern boundaries:
//!
//! 1. the initiating manager *expresses the intent* (e.g. "AM_perf intends
//!    to add a worker on node n in `untrusted_ip_domain_A`");
//! 2. the other managers *react* (AM_sec prompts securing of the
//!    communications to/from n — an [`Obligation`] applied **before** the
//!    action is actuated);
//! 3. the initiating manager *instantiates the new secure worker*.
//!
//! Boolean concerns (security) have priority over quantitative ones
//! (performance): a veto from a higher-priority concern aborts the intent.
//! Without the protocol there is a window in which tasks flow to the new
//! worker over a plain channel — the `ablation_two_phase` experiment
//! measures exactly that window.

use crate::concern::Concern;
use crate::events::{EventKind, EventLog};
use std::collections::BTreeSet;
use std::fmt;

/// A node of the (possibly virtualised) execution environment, as seen by
/// concern managers when reviewing intents.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Node identifier.
    pub id: String,
    /// IP domain the node belongs to (paper: `untrusted_ip_domain_A`).
    pub domain: String,
    /// Whether the domain is trusted (private network segments).
    pub trusted: bool,
    /// Relative speed of the node (1.0 = reference core).
    pub speed: f64,
}

impl NodeInfo {
    /// A trusted node at reference speed.
    pub fn trusted(id: impl Into<String>, domain: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            domain: domain.into(),
            trusted: true,
            speed: 1.0,
        }
    }

    /// An untrusted node at reference speed.
    pub fn untrusted(id: impl Into<String>, domain: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            domain: domain.into(),
            trusted: false,
            speed: 1.0,
        }
    }

    /// Sets the relative speed (builder style).
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }
}

/// The environment state concern managers review intents against: the node
/// inventory, which node channels are currently secured, and which nodes
/// are occupied by running activities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnvView {
    /// Known nodes.
    pub nodes: Vec<NodeInfo>,
    /// Node ids whose channels currently run the secure protocol.
    pub secured: BTreeSet<String>,
    /// Node ids currently hosting activities (cores drawing power).
    pub in_use: BTreeSet<String>,
}

impl EnvView {
    /// Creates a view over a node inventory; no channels secured yet.
    pub fn new(nodes: Vec<NodeInfo>) -> Self {
        Self {
            nodes,
            secured: BTreeSet::new(),
            in_use: BTreeSet::new(),
        }
    }

    /// Looks a node up.
    pub fn node(&self, id: &str) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Whether the channel to `node` runs the secure protocol.
    pub fn is_secured(&self, node: &str) -> bool {
        self.secured.contains(node)
    }

    /// Marks the channel to `node` secure.
    pub fn secure(&mut self, node: &str) {
        self.secured.insert(node.to_owned());
    }

    /// Marks a node occupied (after the caller actuates a committed
    /// worker-placement intent).
    // Public: paper feature S13 in DESIGN.md (power concern).
    pub fn occupy(&mut self, node: &str) {
        self.in_use.insert(node.to_owned());
    }

    /// Marks a node free again.
    // Public: paper feature S13 in DESIGN.md (power concern).
    pub fn vacate(&mut self, node: &str) {
        self.in_use.remove(node);
    }

    /// Nodes currently in use.
    pub(crate) fn in_use_count(&self) -> usize {
        self.in_use.len()
    }
}

/// A reconfiguration intent expressed by a concern manager.
#[derive(Debug, Clone, PartialEq)]
pub enum Intent {
    /// Recruit `node` and instantiate a worker on it.
    AddWorkerOn {
        /// Target node id.
        node: String,
    },
    /// Migrate an activity between nodes.
    Migrate {
        /// Current node id.
        from: String,
        /// Destination node id.
        to: String,
    },
    /// Change a producer's emission rate.
    SetRate(
        /// New rate, tasks/s.
        f64,
    ),
}

impl fmt::Display for Intent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intent::AddWorkerOn { node } => write!(f, "addWorkerOn({node})"),
            Intent::Migrate { from, to } => write!(f, "migrate({from}→{to})"),
            Intent::SetRate(r) => write!(f, "setRate({r})"),
        }
    }
}

/// Something a reviewing concern requires to happen *before* the intent is
/// actuated.
#[derive(Debug, Clone, PartialEq)]
pub enum Obligation {
    /// Secure the channel to `node` first (SSL instead of plain sockets).
    SecureChannel {
        /// Node whose channel must be secured.
        node: String,
    },
    /// Cap a rate change.
    LimitRate {
        /// Maximum admissible rate, tasks/s.
        max: f64,
    },
}

/// A concern manager's verdict on an intent.
#[derive(Debug, Clone, PartialEq)]
pub enum Review {
    /// No objection.
    Approve,
    /// Approve provided the obligations are fulfilled before commit.
    ApproveWith(Vec<Obligation>),
    /// Refuse outright.
    Veto {
        /// Why.
        reason: String,
    },
}

/// The per-concern participant in the GM's two-phase protocol.
///
/// The paper (§3.2): "all managers make available means to ask for contract
/// satisfiability of a given system configuration … and ways to intervene
/// to finalize the configuration before it is actually used" — that is
/// [`ConcernManager::review`] and [`ConcernManager::prepare`].
pub trait ConcernManager: Send {
    /// The concern this manager is responsible for.
    fn concern(&self) -> Concern;

    /// Phase 1: would the post-intent configuration still satisfy this
    /// concern's contract? Returns obligations needed to make it so.
    fn review(&self, intent: &Intent, env: &EnvView) -> Review;

    /// Phase 2: fulfil one of this manager's own obligations, adjusting
    /// the environment before the intent commits.
    fn prepare(
        &mut self,
        intent: &Intent,
        obligation: &Obligation,
        env: &mut EnvView,
    ) -> Result<(), String>;
}

/// Outcome of proposing an intent to the general manager.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Whether the intent may now be actuated.
    pub committed: bool,
    /// Obligations applied during phase 2, with the concern that imposed
    /// each.
    pub obligations: Vec<(Concern, Obligation)>,
    /// The concern that vetoed, if any.
    pub vetoed_by: Option<Concern>,
    /// Veto/failure reason, if any.
    pub reason: Option<String>,
}

/// The general manager orchestrating per-concern managers (the MM design
/// point of §3.2).
pub struct GeneralManager {
    concerns: Vec<Box<dyn ConcernManager>>,
    log: EventLog,
}

impl GeneralManager {
    /// Creates a GM logging into `log`.
    pub fn new(log: EventLog) -> Self {
        Self {
            concerns: Vec::new(),
            log,
        }
    }

    /// Registers a concern manager. Managers are consulted in descending
    /// concern priority (boolean concerns first, per §3.2).
    pub fn register(&mut self, cm: Box<dyn ConcernManager>) {
        self.concerns.push(cm);
        self.concerns
            .sort_by_key(|c| std::cmp::Reverse(c.concern().priority()));
    }

    /// Registered concerns, in consultation order.
    pub fn concerns(&self) -> Vec<Concern> {
        self.concerns.iter().map(|c| c.concern()).collect()
    }

    /// Runs the two-phase protocol for `intent` against `env`.
    ///
    /// On commit, `env` reflects all fulfilled obligations (e.g. channels
    /// secured); the *caller* then actuates the intent itself — the
    /// protocol guarantees the configuration was finalised "before it is
    /// actually used".
    pub fn propose(&mut self, intent: &Intent, env: &mut EnvView, now: f64) -> Decision {
        self.log.push(
            now,
            "GM",
            EventKind::Other(format!("intent:{intent}")),
            None,
        );

        // Phase 1: collect reviews in priority order.
        let mut pending: Vec<(usize, Obligation)> = Vec::new();
        for (i, cm) in self.concerns.iter().enumerate() {
            match cm.review(intent, env) {
                Review::Approve => {}
                Review::ApproveWith(obls) => {
                    pending.extend(obls.into_iter().map(|o| (i, o)));
                }
                Review::Veto { reason } => {
                    let concern = cm.concern();
                    self.log.push(
                        now,
                        "GM",
                        EventKind::Other(format!("veto:{concern}")),
                        Some(reason.clone()),
                    );
                    return Decision {
                        committed: false,
                        obligations: Vec::new(),
                        vetoed_by: Some(concern),
                        reason: Some(reason),
                    };
                }
            }
        }

        // Phase 2: fulfil obligations (priority order is preserved because
        // reviews were collected in that order).
        let mut applied = Vec::new();
        for (i, obligation) in pending {
            let concern = self.concerns[i].concern();
            match self.concerns[i].prepare(intent, &obligation, env) {
                Ok(()) => {
                    self.log.push(
                        now,
                        "GM",
                        EventKind::Other(format!("prepared:{concern}")),
                        Some(format!("{obligation:?}")),
                    );
                    applied.push((concern, obligation));
                }
                Err(reason) => {
                    self.log.push(
                        now,
                        "GM",
                        EventKind::Other(format!("prepareFailed:{concern}")),
                        Some(reason.clone()),
                    );
                    return Decision {
                        committed: false,
                        obligations: applied,
                        vetoed_by: Some(concern),
                        reason: Some(reason),
                    };
                }
            }
        }

        self.log.push(
            now,
            "GM",
            EventKind::Other(format!("commit:{intent}")),
            None,
        );
        Decision {
            committed: true,
            obligations: applied,
            vetoed_by: None,
            reason: None,
        }
    }
}

/// The security concern manager: enforces a secure-domains contract
/// (channels to nodes in untrusted domains must run the secure protocol).
#[derive(Debug, Clone)]
pub struct SecurityConcern {
    /// Domains whose nodes require secured channels.
    pub untrusted_domains: BTreeSet<String>,
}

impl SecurityConcern {
    /// Creates a security manager for the given untrusted domains.
    pub fn new<I, S>(domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            untrusted_domains: domains.into_iter().map(Into::into).collect(),
        }
    }

    fn needs_securing(&self, env: &EnvView, node: &str) -> bool {
        match env.node(node) {
            Some(info) => {
                (self.untrusted_domains.contains(&info.domain) || !info.trusted)
                    && !env.is_secured(node)
            }
            // Unknown node: fail safe — it needs securing.
            None => !env.is_secured(node),
        }
    }
}

impl ConcernManager for SecurityConcern {
    fn concern(&self) -> Concern {
        Concern::Security
    }

    fn review(&self, intent: &Intent, env: &EnvView) -> Review {
        let target = match intent {
            Intent::AddWorkerOn { node } => Some(node),
            Intent::Migrate { to, .. } => Some(to),
            Intent::SetRate(_) => None,
        };
        match target {
            Some(node) if self.needs_securing(env, node) => {
                Review::ApproveWith(vec![Obligation::SecureChannel { node: node.clone() }])
            }
            _ => Review::Approve,
        }
    }

    fn prepare(
        &mut self,
        _intent: &Intent,
        obligation: &Obligation,
        env: &mut EnvView,
    ) -> Result<(), String> {
        match obligation {
            Obligation::SecureChannel { node } => {
                env.secure(node);
                Ok(())
            }
            other => Err(format!("security cannot fulfil {other:?}")),
        }
    }
}

/// The performance concern manager's GM-facing half: it reviews *other*
/// managers' intents (its own planning lives in the `AutonomicManager`
/// hierarchy). It vetoes deployments on nodes too slow to help.
#[derive(Debug, Clone)]
pub struct PerformanceConcern {
    /// Minimum relative node speed worth recruiting.
    pub min_node_speed: f64,
    /// Maximum admissible producer rate, if any.
    pub max_rate: Option<f64>,
}

impl Default for PerformanceConcern {
    fn default() -> Self {
        Self {
            min_node_speed: 0.25,
            max_rate: None,
        }
    }
}

impl ConcernManager for PerformanceConcern {
    fn concern(&self) -> Concern {
        Concern::Performance
    }

    fn review(&self, intent: &Intent, env: &EnvView) -> Review {
        match intent {
            Intent::AddWorkerOn { node } | Intent::Migrate { to: node, .. } => {
                match env.node(node) {
                    Some(info) if info.speed < self.min_node_speed => Review::Veto {
                        reason: format!(
                            "node {node} speed {} below minimum {}",
                            info.speed, self.min_node_speed
                        ),
                    },
                    Some(_) => Review::Approve,
                    None => Review::Veto {
                        reason: format!("unknown node {node}"),
                    },
                }
            }
            Intent::SetRate(r) => match self.max_rate {
                Some(max) if *r > max => Review::ApproveWith(vec![Obligation::LimitRate { max }]),
                _ => Review::Approve,
            },
        }
    }

    fn prepare(
        &mut self,
        _intent: &Intent,
        obligation: &Obligation,
        _env: &mut EnvView,
    ) -> Result<(), String> {
        match obligation {
            Obligation::LimitRate { .. } => Ok(()),
            other => Err(format!("performance cannot fulfil {other:?}")),
        }
    }
}

/// The power concern manager: caps the number of occupied nodes (cores
/// drawing power). Power is a *quantitative* concern (paper Fig. 1 left
/// lists it among the classic concerns); unlike security it does not veto
/// structurally — it vetoes only past its budget.
#[derive(Debug, Clone)]
// Public: paper feature S13 in DESIGN.md (power concern).
pub struct PowerConcern {
    /// Maximum nodes that may be occupied simultaneously.
    pub max_nodes: usize,
}

impl ConcernManager for PowerConcern {
    fn concern(&self) -> Concern {
        Concern::Power
    }

    fn review(&self, intent: &Intent, env: &EnvView) -> Review {
        match intent {
            Intent::AddWorkerOn { .. } if env.in_use_count() >= self.max_nodes => Review::Veto {
                reason: format!(
                    "power budget exhausted ({} of {} nodes in use)",
                    env.in_use_count(),
                    self.max_nodes
                ),
            },
            // Migration is power-neutral (one node vacated per node
            // occupied); rate changes do not recruit nodes.
            _ => Review::Approve,
        }
    }

    fn prepare(
        &mut self,
        _intent: &Intent,
        obligation: &Obligation,
        _env: &mut EnvView,
    ) -> Result<(), String> {
        Err(format!("power imposes no obligations, got {obligation:?}"))
    }
}

/// Linear-combination arbitration between quantitative concerns — the
/// paper's §3.2 suggestion for deriving a summary contract c̄ from
/// c₁…c_h: "it may be possible to devise c̄ from c₁,…,c_h using some sort
/// of linear combination".
///
/// Concretely for the performance/power pair on a farm: given the farm
/// model (throughput `min(n/ts, λ)`) and a per-core power cost, the
/// summary utility of running `n` workers is
///
/// ```text
/// U(n) = w_perf · throughput(n)/target  −  w_power · n/max_workers
/// ```
///
/// [`tradeoff::choose_par_degree`] returns the `n` maximising `U` — the parallelism
/// degree a combined perf+power manager would adopt as its working target.
pub mod tradeoff {
    use crate::contract::split::farm_throughput;

    /// Inputs of the summary-contract optimisation.
    #[derive(Debug, Clone, Copy)]
    pub struct TradeoffModel {
        /// Per-task service time on a reference core, seconds.
        pub service_time: f64,
        /// Offered load, tasks/s.
        pub arrival_rate: f64,
        /// Throughput target the performance goal normalises against.
        pub target_rate: f64,
        /// Largest admissible parallelism degree.
        pub max_workers: u32,
    }

    /// The linear-combination utility of `n` workers.
    pub fn utility(m: &TradeoffModel, n: u32, w_perf: f64, w_power: f64) -> f64 {
        let perf = (farm_throughput(n, m.service_time, m.arrival_rate) / m.target_rate).min(1.5);
        let power = f64::from(n) / f64::from(m.max_workers.max(1));
        w_perf * perf - w_power * power
    }

    /// The parallelism degree maximising the weighted utility (ties break
    /// toward fewer cores — the power-frugal choice).
    pub fn choose_par_degree(m: &TradeoffModel, w_perf: f64, w_power: f64) -> u32 {
        (1..=m.max_workers.max(1))
            .map(|n| (n, utility(m, n, w_perf, w_power)))
            .fold((1u32, f64::NEG_INFINITY), |(bn, bu), (n, u)| {
                if u > bu + 1e-12 {
                    (n, u)
                } else {
                    (bn, bu)
                }
            })
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_env() -> EnvView {
        EnvView::new(vec![
            NodeInfo::trusted("n0", "lab"),
            NodeInfo::trusted("n1", "lab"),
            NodeInfo::untrusted("n2", "untrusted_ip_domain_A"),
            NodeInfo::untrusted("n3", "untrusted_ip_domain_A").with_speed(0.1),
        ])
    }

    fn gm_with_both() -> GeneralManager {
        let mut gm = GeneralManager::new(EventLog::new());
        gm.register(Box::new(PerformanceConcern::default()));
        gm.register(Box::new(SecurityConcern::new(["untrusted_ip_domain_A"])));
        gm
    }

    #[test]
    fn security_consulted_before_performance() {
        let gm = gm_with_both();
        assert_eq!(
            gm.concerns(),
            vec![Concern::Security, Concern::Performance],
            "boolean concern outranks quantitative"
        );
    }

    #[test]
    fn trusted_node_commits_without_obligations() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(&Intent::AddWorkerOn { node: "n0".into() }, &mut env, 0.0);
        assert!(d.committed);
        assert!(d.obligations.is_empty());
        assert!(!env.is_secured("n0"), "no needless encryption overhead");
    }

    #[test]
    fn untrusted_node_is_secured_before_commit() {
        // The paper's two-phase example: AM_perf wants a worker on a node
        // in untrusted_ip_domain_A; AM_sec secures the channel first.
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(&Intent::AddWorkerOn { node: "n2".into() }, &mut env, 0.0);
        assert!(d.committed);
        assert_eq!(d.obligations.len(), 1);
        assert_eq!(d.obligations[0].0, Concern::Security);
        assert!(env.is_secured("n2"), "channel secured before actuation");
    }

    #[test]
    fn already_secured_node_needs_no_obligation() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        env.secure("n2");
        let d = gm.propose(&Intent::AddWorkerOn { node: "n2".into() }, &mut env, 0.0);
        assert!(d.committed);
        assert!(d.obligations.is_empty());
    }

    #[test]
    fn slow_node_vetoed_by_performance() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(&Intent::AddWorkerOn { node: "n3".into() }, &mut env, 0.0);
        assert!(!d.committed);
        assert_eq!(d.vetoed_by, Some(Concern::Performance));
        // Security had already been consulted (higher priority), but the
        // performance veto aborts before phase 2 — nothing was secured.
        assert!(!env.is_secured("n3"));
    }

    #[test]
    fn unknown_node_vetoed() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(
            &Intent::AddWorkerOn {
                node: "ghost".into(),
            },
            &mut env,
            0.0,
        );
        assert!(!d.committed);
        assert!(d.reason.unwrap().contains("unknown node"));
    }

    #[test]
    fn migration_target_is_reviewed() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(
            &Intent::Migrate {
                from: "n0".into(),
                to: "n2".into(),
            },
            &mut env,
            0.0,
        );
        assert!(d.committed);
        assert!(env.is_secured("n2"));
    }

    #[test]
    fn rate_intents_bypass_security() {
        let mut gm = gm_with_both();
        let mut env = mixed_env();
        let d = gm.propose(&Intent::SetRate(2.0), &mut env, 0.0);
        assert!(d.committed);
        assert!(d.obligations.is_empty());
    }

    #[test]
    fn rate_cap_obligation() {
        let mut gm = GeneralManager::new(EventLog::new());
        gm.register(Box::new(PerformanceConcern {
            min_node_speed: 0.0,
            max_rate: Some(1.0),
        }));
        let mut env = mixed_env();
        let d = gm.propose(&Intent::SetRate(5.0), &mut env, 0.0);
        assert!(d.committed);
        assert_eq!(
            d.obligations,
            vec![(Concern::Performance, Obligation::LimitRate { max: 1.0 })]
        );
    }

    #[test]
    fn untrusted_flag_alone_triggers_securing() {
        // A node outside the contract's named domains but marked untrusted
        // still gets secured (fail-safe).
        let sec = SecurityConcern::new(Vec::<String>::new());
        let env = EnvView::new(vec![NodeInfo::untrusted("nx", "other_domain")]);
        match sec.review(&Intent::AddWorkerOn { node: "nx".into() }, &env) {
            Review::ApproveWith(obls) => {
                assert_eq!(obls, vec![Obligation::SecureChannel { node: "nx".into() }]);
            }
            other => panic!("expected obligation, got {other:?}"),
        }
    }

    #[test]
    fn gm_logs_protocol_steps() {
        let log = EventLog::new();
        let mut gm = GeneralManager::new(log.clone());
        gm.register(Box::new(SecurityConcern::new(["untrusted_ip_domain_A"])));
        let mut env = mixed_env();
        gm.propose(&Intent::AddWorkerOn { node: "n2".into() }, &mut env, 1.0);
        let rendered = log.render();
        assert!(rendered.contains("intent:addWorkerOn(n2)"), "{rendered}");
        assert!(rendered.contains("prepared:security"), "{rendered}");
        assert!(rendered.contains("commit:addWorkerOn(n2)"), "{rendered}");
    }

    #[test]
    fn env_view_basics() {
        let mut env = mixed_env();
        assert_eq!(env.node("n0").unwrap().domain, "lab");
        assert!(env.node("zz").is_none());
        assert!(!env.is_secured("n2"));
        env.secure("n2");
        assert!(env.is_secured("n2"));
        env.occupy("n0");
        env.occupy("n1");
        assert_eq!(env.in_use_count(), 2);
        env.vacate("n0");
        assert_eq!(env.in_use_count(), 1);
    }

    #[test]
    fn power_concern_caps_occupied_nodes() {
        let mut gm = GeneralManager::new(EventLog::new());
        gm.register(Box::new(PowerConcern { max_nodes: 2 }));
        gm.register(Box::new(SecurityConcern::new(["untrusted_ip_domain_A"])));
        let mut env = mixed_env();

        for node in ["n0", "n1"] {
            let d = gm.propose(&Intent::AddWorkerOn { node: node.into() }, &mut env, 0.0);
            assert!(d.committed, "{node} within budget");
            env.occupy(node);
        }
        let d = gm.propose(&Intent::AddWorkerOn { node: "n2".into() }, &mut env, 1.0);
        assert!(!d.committed);
        assert_eq!(d.vetoed_by, Some(Concern::Power));
        // ...and the security phase never secured the vetoed node.
        assert!(!env.is_secured("n2"));

        // Migration stays power-neutral: allowed at the cap.
        let d = gm.propose(
            &Intent::Migrate {
                from: "n0".into(),
                to: "n2".into(),
            },
            &mut env,
            2.0,
        );
        assert!(d.committed);
    }

    #[test]
    fn power_outranked_by_security_but_not_perf() {
        let mut gm = GeneralManager::new(EventLog::new());
        gm.register(Box::new(PowerConcern { max_nodes: 8 }));
        gm.register(Box::new(PerformanceConcern::default()));
        gm.register(Box::new(SecurityConcern::new(["d"])));
        assert_eq!(
            gm.concerns(),
            vec![Concern::Security, Concern::Performance, Concern::Power]
        );
    }

    #[test]
    fn tradeoff_extremes() {
        use tradeoff::{choose_par_degree, TradeoffModel};
        let m = TradeoffModel {
            service_time: 5.0,
            arrival_rate: 1.0,
            target_rate: 0.6,
            max_workers: 16,
        };
        // Pure performance: grow until throughput saturates at the
        // arrival rate (5 workers: 5/5 = 1.0 task/s = λ).
        assert_eq!(choose_par_degree(&m, 1.0, 0.0), 5);
        // Pure power: one core.
        assert_eq!(choose_par_degree(&m, 0.0, 1.0), 1);
    }

    #[test]
    fn tradeoff_is_monotone_in_power_weight() {
        use tradeoff::{choose_par_degree, TradeoffModel};
        let m = TradeoffModel {
            service_time: 10.0,
            arrival_rate: 2.0,
            target_rate: 1.0,
            max_workers: 32,
        };
        let mut last = u32::MAX;
        for w_power in [0.0, 0.2, 0.5, 1.0, 2.0, 5.0] {
            let n = choose_par_degree(&m, 1.0, w_power);
            assert!(n <= last, "more power weight must not add cores");
            last = n;
        }
        assert!(last >= 1);
    }

    #[test]
    fn tradeoff_utility_shape() {
        use tradeoff::{utility, TradeoffModel};
        let m = TradeoffModel {
            service_time: 5.0,
            arrival_rate: 1.0,
            target_rate: 0.6,
            max_workers: 16,
        };
        // Beyond saturation, extra workers only cost power.
        assert!(utility(&m, 5, 1.0, 0.5) > utility(&m, 10, 1.0, 0.5));
        // Below saturation with tiny power weight, more workers help.
        assert!(utility(&m, 3, 1.0, 0.01) > utility(&m, 1, 1.0, 0.01));
    }
}

//! The autonomic manager: a MAPE control loop over an ABC.
//!
//! Each behavioural skeleton carries an autonomic manager executing the
//! classical control loop (paper §3): *monitor* (sample the ABC's sensors),
//! *analyse* (evaluate the rule program against the sampled beans),
//! *plan/execute* (run the fired rules' actions through the ABC's
//! actuators, or report a violation to the parent manager when no local
//! action applies).
//!
//! ## Active/passive roles (P_rol)
//!
//! Following §4.2, the manager's mode is *derived from rule fireability*:
//! "transition to the passive state is modelled by the absence of fireable
//! 'active' rules (rules not raising a violation)". Concretely, after each
//! cycle:
//!
//! * some actuator rule fired → **active**;
//! * only violation-raising rules fired → **passive** (the manager has
//!   reported upward and is waiting for the situation to change — a new
//!   contract, or sensors making a local rule fireable again);
//! * nothing fired → the contract is being met; the manager stays active.
//!
//! ## Hierarchy plumbing
//!
//! Managers communicate through two tiny shared cells: a parent posts
//! contracts into each child's [`ContractSlot`]; children push
//! [`ViolationReport`]s into their parent's [`Mailbox`]. Both substrates
//! (threads, simulator) drive managers by calling
//! [`AutonomicManager::control_cycle`] at each control period.

use crate::abc::{Abc, AbcError, ActuationOutcome, ManagerOp};
use crate::contract::split::optimal_farm_workers;
use crate::contract::Contract;
use crate::controller::{build_controller, Controller, ControllerKind, Hierarchy};
use crate::events::{EventKind, EventLog};
use bskel_monitor::journal::Text;
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::stdlib::{self, viol};
use bskel_rules::{op, Analyzer, OpArgs, OpCall, ParamTable, RuleSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Manager mode (paper Fig. 1, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmState {
    /// Autonomically ensuring the contract via the local control loop.
    #[default]
    Active,
    /// Only monitoring; a violation has been reported and no local plan is
    /// fireable. Left when a new contract arrives or a local rule becomes
    /// fireable again.
    Passive,
}

/// A violation reported by a manager to its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Input pressure below what the contract requires (only an upstream
    /// actor can fix this).
    NotEnoughTasks,
    /// Input pressure above what the contract needs (warning; enables
    /// upstream throttling / memory tuning).
    TooMuchTasks,
    /// The reporting manager observed the end of its input stream.
    EndOfStream,
    /// The contract cannot be met and no local plan exists.
    Unsatisfiable(String),
}

/// A violation report in a parent's mailbox.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// Reporting manager's name.
    pub from: String,
    /// What went wrong.
    pub kind: ViolationKind,
    /// When it was reported.
    pub at: Time,
}

/// A value behind a mutex, plus a flag set while it holds something, so
/// a reader that finds nothing pending — the usual control cycle — takes
/// no lock. A writer racing such a reader is seen on the next read, as it
/// would be had it taken the lock a moment later.
#[derive(Debug, Default)]
struct Pending<T> {
    /// Written only under the lock. The value itself is read under the
    /// lock too, so the flag publishes nothing: its `Release` store after
    /// a write pairs with the `Acquire` load before a read only so that a
    /// reader seeing it set finds the write it announces.
    any: AtomicBool,
    value: Mutex<T>,
}

impl<T: Default> Pending<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.value.lock().expect("hierarchy cell poisoned")
    }

    /// Changes the value and marks it pending.
    fn update(&self, f: impl FnOnce(&mut T)) {
        let mut value = self.lock();
        f(&mut value);
        self.any.store(true, Ordering::Release);
    }

    /// Takes the value, leaving the default.
    fn take(&self) -> T {
        if !self.any.load(Ordering::Acquire) {
            return T::default();
        }
        let mut value = self.lock();
        self.any.store(false, Ordering::Relaxed);
        std::mem::take(&mut *value)
    }
}

/// A shared mailbox children push violation reports into.
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    inner: Arc<Pending<Vec<ViolationReport>>>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a report.
    pub fn push(&self, report: ViolationReport) {
        self.inner.update(|reports| reports.push(report));
    }

    /// Takes all pending reports.
    pub fn drain(&self) -> Vec<ViolationReport> {
        self.inner.take()
    }

    /// Number of pending reports.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no reports are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shared cell a parent posts contracts into.
#[derive(Debug, Clone, Default)]
pub struct ContractSlot {
    inner: Arc<Pending<Option<Contract>>>,
}

impl ContractSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a contract, replacing any unconsumed one.
    pub fn post(&self, c: Contract) {
        self.inner.update(|slot| *slot = Some(c));
    }

    /// Takes the pending contract, if any.
    pub fn take(&self) -> Option<Contract> {
        self.inner.take()
    }
}

/// A parent's handle on one child manager.
#[derive(Debug, Clone)]
pub(crate) struct ChildLink {
    /// Slot to post sub-contracts into.
    pub slot: ContractSlot,
    /// Whether this child is the stream *source* (a producer stage): the
    /// pipeline manager drives sources with output-rate contracts
    /// (incRate/decRate) rather than forwarding the throughput SLA.
    pub is_source: bool,
}

/// What pattern the manager manages — selects the rule program and the
/// binding of symbolic operations to actuators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerKind {
    /// Functional-replication (task farm) manager: Fig. 5 rules.
    Farm,
    /// Pipeline coordinator: reacts to child violations with rate
    /// contracts for the source stage.
    Pipeline,
    /// Stream-source (producer) manager: self-tunes its emission rate
    /// within the output-rate contract.
    Producer,
    /// Monitor-only sequential stage (e.g. the consumer).
    Sequential,
    /// Multi-tenant share manager: arbitrates one tenant's slice of a
    /// shared worker pool (grow/shrink the fair-share weight, shed load,
    /// escalate at the share ceiling). Runs `tenancy.rules`; the same
    /// kind serves both the per-tenant child managers and the
    /// pool-level arbiter (whose share is pinned to 1.0, leaving only
    /// the pool-growth and escalation rules live).
    Tenant,
}

/// How strictly a manager checks its rule program with
/// `bskel_rules::analysis` when the program is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleCheck {
    /// Skip the analysis entirely.
    Off,
    /// Run the analysis and log every finding as a `rulelint` event, but
    /// accept the program (the default: misconfigured policies surface in
    /// the event log instead of failing silently at runtime).
    #[default]
    Warn,
    /// Reject a rule program with error-severity findings at load time
    /// (deploy-time enforcement; see ROADMAP "production system").
    Strict,
}

/// A rule program rejected at load time under [`RuleCheck::Strict`].
#[derive(Debug, Clone)]
pub(crate) struct RuleLintError(pub Vec<bskel_rules::Diagnostic>);

impl fmt::Display for RuleLintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule program rejected by rulelint:")?;
        for d in &self.0 {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RuleLintError {}

/// Manager tuning knobs.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Manager name (e.g. `AM_F`).
    pub name: String,
    /// Pattern kind.
    pub kind: ManagerKind,
    /// Seconds between control cycles.
    pub control_period: f64,
    /// Workers added per `ADD_EXECUTOR` firing (the paper's Fig. 4 adds
    /// two at a time): the step of the performance laws. Below the
    /// fault-tolerance floor (the `ftMinWorkers` bean) a firing recruits
    /// the whole deficit instead when that is larger, so a mass loss is
    /// healed by one actuation.
    pub add_batch: u32,
    /// Parallelism-degree floor when the contract does not constrain it.
    pub min_workers: u32,
    /// Parallelism-degree ceiling when the contract does not constrain it.
    pub max_workers: u32,
    /// Multiplicative step of an `incRate` contract (paper: the producer
    /// emits "more and more frequently").
    pub rate_inc_factor: f64,
    /// Initial target rate assumed for a source child before the first
    /// incRate (tasks/s).
    pub initial_source_rate: f64,
    /// Extra rule parameters merged over the contract-derived ones
    /// (e.g. `FT_MIN_WORKERS` for a merged perf+FT rule program).
    pub extra_params: Vec<(String, f64)>,
    /// Model-based initial parallelism-degree setup (the ASSIST-heritage
    /// policy the paper cites from refs. \[10\]/\[13\]): on adopting a throughput
    /// contract, a farm manager jumps straight to
    /// `ceil(rate_floor × service_time)` workers instead of ramping
    /// reactively. Requires a service-time sensor (the simulator's cost
    /// model, or a workload specification).
    pub model_initial_setup: bool,
    /// Load-time rule-program checking policy (see [`RuleCheck`]).
    pub rule_check: RuleCheck,
    /// The control law this manager runs (see
    /// [`crate::controller::ControllerKind`]). Defaults to the rule
    /// engine; `Aimd` replaces the scaling rules with a congestion-control
    /// law. Retry budgets and hedging are pool policies of `bskel_net`,
    /// not laws.
    pub controller: ControllerKind,
}

impl ManagerConfig {
    fn base(name: &str, kind: ManagerKind) -> Self {
        Self {
            name: name.to_owned(),
            kind,
            control_period: 1.0,
            add_batch: 1,
            min_workers: 1,
            max_workers: 64,
            rate_inc_factor: 1.25,
            initial_source_rate: 0.2,
            extra_params: Vec::new(),
            model_initial_setup: false,
            rule_check: RuleCheck::default(),
            controller: ControllerKind::Rules,
        }
    }

    /// Defaults for a farm manager.
    pub fn farm(name: &str) -> Self {
        Self::base(name, ManagerKind::Farm)
    }

    /// Defaults for a pipeline manager.
    pub fn pipeline(name: &str) -> Self {
        Self::base(name, ManagerKind::Pipeline)
    }

    /// Defaults for a producer manager.
    pub fn producer(name: &str) -> Self {
        Self::base(name, ManagerKind::Producer)
    }

    /// Defaults for a monitor-only sequential-stage manager.
    pub fn sequential(name: &str) -> Self {
        Self::base(name, ManagerKind::Sequential)
    }

    /// Defaults for a tenant share manager.
    pub fn tenant(name: &str) -> Self {
        Self::base(name, ManagerKind::Tenant)
    }

    /// The rule parameters a manager so configured derives from
    /// `contract`: its kind's table, with [`ManagerConfig::extra_params`]
    /// merged over it.
    pub fn params(&self, contract: &Contract) -> ParamTable {
        let mut params = match self.kind {
            ManagerKind::Farm => {
                let (lo, hi) = contract.throughput_bounds().unwrap_or((0.0, f64::INFINITY));
                let (min_w, max_w) = contract
                    .par_degree_bounds()
                    .unwrap_or((self.min_workers, self.max_workers));
                stdlib::farm_params(lo, hi, min_w, max_w, MAX_UNBALANCE)
            }
            ManagerKind::Producer => {
                let (floor, ceil) = contract
                    .output_rate_bounds()
                    .or_else(|| contract.throughput_bounds())
                    .unwrap_or((0.0, f64::INFINITY));
                stdlib::producer_params(floor, ceil)
            }
            ManagerKind::Tenant => {
                // Contract stripe → delivered-throughput thresholds; the
                // share/admission knobs default conservatively and are
                // tuned per tenant via `extra_params`.
                let (lo, hi) = contract.throughput_bounds().unwrap_or((0.0, f64::INFINITY));
                stdlib::tenancy_params(lo, hi, 0.05, 0.8, 64, self.max_workers)
            }
            ManagerKind::Pipeline | ManagerKind::Sequential => ParamTable::new(),
        };
        for (name, value) in &self.extra_params {
            params.set(name.clone(), *value);
        }
        params
    }
}

/// Workers removed per `REMOVE_EXECUTOR` firing.
const REMOVE_BATCH: u32 = 1;
/// Queue-variance threshold for rebalancing (`$FARM_MAX_UNBALANCE`).
const MAX_UNBALANCE: f64 = 4.0;
/// Multiplicative step of a `decRate` contract ("slightly decrease").
const RATE_DEC_FACTOR: f64 = 0.92;

/// An autonomic manager bound to a computation through an ABC.
pub struct AutonomicManager {
    cfg: ManagerConfig,
    /// `cfg.name`, shared by every event and journal record.
    name: Arc<str>,
    /// Each operation ordered so far with its journal form, rendered once.
    op_forms: Vec<(ManagerOp, Text)>,
    state: AmState,
    contract: Contract,
    controller: Box<dyn Controller>,
    params: ParamTable,
    abc: Box<dyn Abc>,
    log: EventLog,
    contract_slot: ContractSlot,
    parent: Option<Mailbox>,
    inbox: Mailbox,
    children: Vec<ChildLink>,
    source_rate: f64,
    end_stream_seen: bool,
    end_stream_reported: bool,
    needs_initial_setup: bool,
    last_snapshot: Option<SensorSnapshot>,
}

impl AutonomicManager {
    /// Creates a manager with its pattern's standard rule program and a
    /// best-effort contract; call [`AutonomicManager::contract_slot`] /
    /// [`AutonomicManager::mailbox`] to wire it into a hierarchy, and post
    /// the real contract into its slot.
    ///
    /// # Panics
    ///
    /// Under [`RuleCheck::Strict`], if the standard rule program for this
    /// kind fails the static analysis (it doesn't).
    pub fn new(cfg: ManagerConfig, abc: Box<dyn Abc>, log: EventLog) -> Self {
        Self::try_new(cfg, abc, log).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AutonomicManager::new`]: returns the `rulelint`
    /// diagnostics instead of panicking when the standard rule program is
    /// rejected under [`RuleCheck::Strict`].
    pub(crate) fn try_new(
        cfg: ManagerConfig,
        abc: Box<dyn Abc>,
        log: EventLog,
    ) -> Result<Self, RuleLintError> {
        let rules = match cfg.kind {
            ManagerKind::Farm => stdlib::farm_rules(),
            ManagerKind::Pipeline => stdlib::pipeline_rules(),
            ManagerKind::Producer => stdlib::producer_rules(),
            ManagerKind::Sequential => RuleSet::new(),
            ManagerKind::Tenant => stdlib::tenancy_rules(),
        };
        let source_rate = cfg.initial_source_rate;
        let controller = build_controller(cfg.controller, rules);
        let mut m = Self {
            name: cfg.name.as_str().into(),
            op_forms: Vec::new(),
            cfg,
            state: AmState::Active,
            contract: Contract::BestEffort,
            controller,
            params: ParamTable::new(),
            abc,
            log,
            contract_slot: ContractSlot::new(),
            parent: None,
            inbox: Mailbox::new(),
            children: Vec::new(),
            source_rate,
            end_stream_seen: false,
            end_stream_reported: false,
            needs_initial_setup: false,
            last_snapshot: None,
        };
        m.params = m.cfg.params(&Contract::BestEffort);
        m.check_rules()?;
        Ok(m)
    }

    /// Replaces the rule program (custom policies).
    ///
    /// # Panics
    ///
    /// Under [`RuleCheck::Strict`], if the program fails the static
    /// analysis.
    pub fn with_rules(self, rules: RuleSet) -> Self {
        self.try_with_rules(rules).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replaces the rule program, first checking it with
    /// `bskel_rules::analysis` against the ABC's published bean schema
    /// according to [`ManagerConfig::rule_check`]: findings are logged as
    /// `rulelint` events, and under [`RuleCheck::Strict`] error-severity
    /// findings (unknown beans, unsatisfiable guards, undamped
    /// oscillation pairs, conflicting shadowing) reject the program.
    pub(crate) fn try_with_rules(mut self, rules: RuleSet) -> Result<Self, RuleLintError> {
        self.controller.set_rules(rules);
        self.check_rules()?;
        Ok(self)
    }

    /// Load-time check of the rule program: findings are logged, and
    /// error-severity ones reject the program under [`RuleCheck::Strict`].
    fn check_rules(&self) -> Result<(), RuleLintError> {
        let mut errors = Vec::new();
        self.lint_rules(None, 0.0, Some(&mut errors));
        if self.cfg.rule_check == RuleCheck::Strict && !errors.is_empty() {
            return Err(RuleLintError(errors));
        }
        Ok(())
    }

    /// Runs the rule-program analysis, logging every finding and collecting the error-severity ones into
    /// `errors` when given. With `params` bound (contract adoption) the
    /// verdicts are sharper but only ever logged: a contract making a rule
    /// dormant is a property of this contract, not of the program.
    fn lint_rules(
        &self,
        params: Option<&ParamTable>,
        now: Time,
        errors: Option<&mut Vec<bskel_rules::Diagnostic>>,
    ) {
        if self.cfg.rule_check == RuleCheck::Off {
            return;
        }
        // Laws without a rule program have nothing to lint.
        let Some(rules) = self.controller.rules() else {
            return;
        };
        let analyzer = Analyzer::new(self.abc.bean_schema());
        let diags = analyzer.analyze(rules, params, None);
        for d in &diags {
            self.emit(
                now,
                EventKind::Other(format!("rulelint:{}", d.code)),
                Some(d.to_string()),
            );
        }
        if let Some(errors) = errors {
            errors.extend(
                diags
                    .into_iter()
                    .filter(|d| d.severity == bskel_rules::Severity::Error),
            );
        }
    }

    /// Sets the parent mailbox violations are reported to.
    pub fn with_parent(mut self, parent: Mailbox) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Registers a child manager link.
    pub(crate) fn add_child(&mut self, link: ChildLink) {
        self.children.push(link);
    }

    /// The slot a parent (or the user) posts this manager's contract into.
    pub fn contract_slot(&self) -> ContractSlot {
        self.contract_slot.clone()
    }

    /// The mailbox this manager's children report violations into.
    pub fn mailbox(&self) -> Mailbox {
        self.inbox.clone()
    }

    /// Manager name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current mode.
    pub fn state(&self) -> AmState {
        self.state
    }

    /// Currently adopted contract.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// Configured control period (seconds).
    pub fn control_period(&self) -> f64 {
        self.cfg.control_period
    }

    /// The most recent sensor snapshot (for inspection/tests).
    pub fn last_snapshot(&self) -> Option<&SensorSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// The event log handle.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Mutable access to the underlying ABC (substrate-specific drivers).
    pub fn abc_mut(&mut self) -> &mut dyn Abc {
        self.abc.as_mut()
    }

    fn emit(&self, at: Time, kind: EventKind, detail: Option<String>) {
        self.log.push(at, Arc::clone(&self.name), kind, detail);
    }

    /// Adopts a new contract: recomputes rule parameters, propagates
    /// sub-contracts to children, (re-)enters active mode.
    fn adopt_contract(&mut self, contract: Contract, now: Time) {
        self.params = self.cfg.params(&contract);
        self.emit(now, EventKind::NewContract, Some(contract.to_string()));
        self.contract = contract;
        // Binding the contract's parameters makes cross-rule reasoning
        // decidable; re-lint against the adopted contract so dormant rules and parameter-induced
        // overlaps land in the event log (never a rejection).
        self.lint_rules(Some(&self.params), now, None);
        if self.cfg.model_initial_setup && self.cfg.kind == ManagerKind::Farm {
            self.needs_initial_setup = true;
        }
        if self.state == AmState::Passive {
            self.state = AmState::Active;
            self.emit(now, EventKind::EnterActive, None);
        }

        // Contract propagation (P_spl): the pipeline forwards the SLA to
        // its non-source children; the source is driven by rate contracts.
        // The farm hands workers best-effort — our ChildLinks for farms are
        // the worker managers, if any are registered.
        if self.children.is_empty() {
            return;
        }
        match self.cfg.kind {
            ManagerKind::Pipeline => {
                for child in &self.children {
                    if child.is_source {
                        child.slot.post(Contract::output_rate(self.source_rate));
                    } else {
                        child.slot.post(self.contract.clone());
                    }
                }
            }
            ManagerKind::Farm => {
                let workers_sub = match self.contract.secure_domain_set() {
                    Some(d) if !d.is_empty() => {
                        Contract::all([Contract::BestEffort, Contract::SecureDomains(d)])
                    }
                    _ => Contract::BestEffort,
                };
                for child in &self.children {
                    child.slot.post(workers_sub.clone());
                }
            }
            // Tenant children receive their contracts from their tenant
            // specs, not from the arbiter: the arbiter redistributes
            // *shares*, it does not rewrite tenant SLAs.
            ManagerKind::Producer | ManagerKind::Sequential | ManagerKind::Tenant => {}
        }
    }

    /// Orders one actuation through the ABC, journaling the plant's
    /// response. Outcomes are control-loop *inputs* — a `NoOp` emits no
    /// event line yet still shapes the decision trajectory — so the ops
    /// journal must carry them for deterministic replay.
    fn actuate(&mut self, op: &ManagerOp, now: Time) -> Result<ActuationOutcome, AbcError> {
        let result = self.abc.actuate(op, now);
        if let Some(journal) = self.log.journal() {
            let outcome = match &result {
                Ok(ActuationOutcome::Applied) => Text::Static("applied"),
                Ok(ActuationOutcome::NoOp) => Text::Static("noop"),
                Ok(ActuationOutcome::Refused { reason }) => format!("refused:{reason}").into(),
                // The message alone: `AbcError`'s `Display` adds a prefix
                // that replay would otherwise double.
                Err(e) => format!("error:{}", e.0).into(),
            };
            journal.actuation(
                now,
                &self.name,
                op_form(&mut self.op_forms, op),
                outcome,
                self.controller.name(),
            );
        }
        result
    }

    /// Runs one monitor–analyse–plan–execute cycle at time `now`.
    ///
    /// Returns the operation calls the rule engine produced (after their
    /// effects have been applied), which drivers may inspect.
    pub fn control_cycle(&mut self, now: Time) -> Vec<OpCall> {
        // New contract first: adopting is allowed even mid-reconfiguration.
        if let Some(c) = self.contract_slot.take() {
            self.adopt_contract(c, now);
        }

        let mut snap = self.abc.sense(now);
        // Controller-internal state (the AIMD ceiling) rides the
        // snapshot so both the journal and the law's next decision see it.
        self.controller.publish(&mut snap);
        // Ops plane: every sensed snapshot is journaled (when a journal
        // is attached to the log), making the control loop's full input
        // durable and the run replayable offline.
        if let Some(journal) = self.log.journal() {
            journal.snapshot(now, &self.name, &snap);
        }
        // Failure sensing: a rise in the cumulative `workersLost` bean is
        // logged even during a blackout — the FT rules may be the only
        // thing that ever reacts to it.
        let prev_lost = self
            .last_snapshot
            .as_ref()
            .map_or(0, |prev| prev.workers_lost);
        if snap.workers_lost > prev_lost {
            self.emit(
                now,
                EventKind::WorkerLost,
                Some(format!("{}", snap.workers_lost - prev_lost)),
            );
        }
        // Sensor blackout during reconfiguration (paper: "No sensor data is
        // available for AM_F during the reconfiguration").
        let ops = if snap.reconfiguring {
            Vec::new()
        } else {
            self.plan_and_execute(&snap, now)
        };
        self.last_snapshot = Some(snap);
        ops
    }

    /// The analyse–plan–execute half of a cycle over the sensed `snap`,
    /// outside a reconfiguration blackout.
    fn plan_and_execute(&mut self, snap: &SensorSnapshot, now: Time) -> Vec<OpCall> {
        // Model-based initial parallelism-degree setup (paper §3, citing
        // [10]: the parallelism degree "can be initially set to some
        // 'optimal' value and then adapted"). One shot per contract; never
        // lands below the fault-tolerance floor.
        if self.needs_initial_setup {
            self.needs_initial_setup = false;
            if let Some((lo, _)) = self.contract.throughput_bounds() {
                if snap.service_time > 0.0 && lo > 0.0 {
                    let target = optimal_farm_workers(lo, snap.service_time);
                    let add = recruitment(
                        target.saturating_sub(snap.num_workers),
                        snap.ft_min_workers,
                        snap.num_workers,
                    );
                    if add > 0 {
                        if let Ok(ActuationOutcome::Applied) =
                            self.actuate(&ManagerOp::AddWorkers(add), now)
                        {
                            self.emit(
                                now,
                                EventKind::AddWorker,
                                Some(format!("{add} (model-init)")),
                            );
                            // Reconfiguration in flight; resume next cycle.
                            return Vec::new();
                        }
                    }
                }
            }
        }

        // Drain child violations into hierarchy beans.
        let mut viol_not_enough = false;
        let mut viol_too_much = false;
        for report in self.inbox.drain() {
            match report.kind {
                ViolationKind::NotEnoughTasks => viol_not_enough = true,
                ViolationKind::TooMuchTasks => viol_too_much = true,
                ViolationKind::EndOfStream => {
                    if !self.end_stream_seen {
                        self.end_stream_seen = true;
                        self.emit(now, EventKind::EndStream, Some(report.from.clone()));
                    }
                }
                ViolationKind::Unsatisfiable(reason) => {
                    // Escalate: this manager has no generic plan for an
                    // unsatisfiable child; report upward.
                    self.raise(now, ViolationKind::Unsatisfiable(reason));
                }
            }
        }

        // Own end-of-stream observation: report once to the parent.
        if snap.end_of_stream && !self.end_stream_reported {
            self.end_stream_reported = true;
            self.end_stream_seen = true;
            self.emit(now, EventKind::EndStream, None);
            if let Some(parent) = &self.parent {
                parent.push(ViolationReport {
                    from: self.cfg.name.clone(),
                    kind: ViolationKind::EndOfStream,
                    at: now,
                });
            }
        }

        // Contract-check events (the contrLow/contrHigh lines of Fig. 4).
        let check_bounds = match self.cfg.kind {
            ManagerKind::Producer => self
                .contract
                .output_rate_bounds()
                .or_else(|| self.contract.throughput_bounds()),
            _ => self.contract.throughput_bounds(),
        };
        if let Some((lo, hi)) = check_bounds {
            if snap.departure_rate < lo && !(snap.end_of_stream && snap.queued_tasks == 0) {
                self.emit(now, EventKind::ContrLow, None);
            } else if snap.departure_rate > hi {
                self.emit(now, EventKind::ContrHigh, None);
            }
        }

        let hier = Hierarchy {
            not_enough: viol_not_enough,
            too_much: viol_too_much,
            end_stream: self.end_stream_seen,
        };
        let ops = match self.controller.decide(snap, hier, &self.params) {
            Ok(ops) => ops,
            Err(e) => {
                // A broken rule program is a policy bug: surface it loudly
                // in the event log and raise it upward.
                self.emit(now, EventKind::Other(format!("ruleError:{e}")), None);
                self.raise(now, ViolationKind::Unsatisfiable(e.to_string()));
                return Vec::new();
            }
        };

        let mut acted = false;
        let mut violated = false;
        let mut refused = false;
        let args = self.op_args();
        // The par-degree once this cycle's applied resizes land: a second
        // recruitment in the same cycle must not count the floor's deficit
        // twice.
        let mut planned = snap.num_workers;
        for call in &ops {
            if call.operation == op::RAISE_VIOLATION {
                violated = true;
                let kind = match call.data.as_deref() {
                    Some(viol::NOT_ENOUGH_TASKS) => {
                        self.emit(now, EventKind::NotEnough, None);
                        ViolationKind::NotEnoughTasks
                    }
                    Some(viol::TOO_MUCH_TASKS) => {
                        self.emit(now, EventKind::TooMuch, None);
                        ViolationKind::TooMuchTasks
                    }
                    other => {
                        ViolationKind::Unsatisfiable(other.unwrap_or("unspecified").to_owned())
                    }
                };
                self.raise(now, kind);
                continue;
            }
            let op_ = match ManagerOp::from_rule(&call.operation, &args) {
                ManagerOp::AddWorkers(step) => {
                    ManagerOp::AddWorkers(recruitment(step, snap.ft_min_workers, planned))
                }
                op_ => op_,
            };
            match &op_ {
                // The pipeline drives its source with rate contracts, not
                // through its own ABC.
                ManagerOp::IncRate(f) | ManagerOp::DecRate(f)
                    if self.cfg.kind == ManagerKind::Pipeline =>
                {
                    self.source_rate *= *f;
                    let c = Contract::output_rate(self.source_rate);
                    for child in self.children.iter().filter(|c| c.is_source) {
                        child.slot.post(c.clone());
                    }
                    acted = true;
                    let (kind, _) = applied_event(&op_, &call.operation);
                    self.emit(now, kind, Some(format!("{:.3}", self.source_rate)));
                }
                _ => match self.actuate(&op_, now) {
                    Ok(ActuationOutcome::Applied) => {
                        acted = true;
                        match op_ {
                            ManagerOp::AddWorkers(n) => planned += n,
                            ManagerOp::RemoveWorkers(n) => planned = planned.saturating_sub(n),
                            _ => {}
                        }
                        let (kind, detail) = applied_event(&op_, &call.operation);
                        self.emit(now, kind, detail);
                    }
                    Ok(ActuationOutcome::NoOp) => {}
                    // A refused recruitment leaves no local plan: escalate.
                    Ok(ActuationOutcome::Refused { reason }) => {
                        if let ManagerOp::AddWorkers(_) = op_ {
                            violated = true;
                            refused = true;
                            self.raise(now, ViolationKind::Unsatisfiable(reason));
                        }
                    }
                    Err(e) => self.emit(now, EventKind::Other(format!("abcError:{e}")), None),
                },
            }
        }

        // Mode derivation (P_rol, §4.2). A refused corrective action means
        // the planned local repair is unavailable — passive even if some
        // secondary actuation (e.g. a rebalance) went through.
        let new_state = if refused {
            AmState::Passive
        } else if acted {
            AmState::Active
        } else if violated {
            AmState::Passive
        } else {
            self.state
        };
        if new_state != self.state {
            self.state = new_state;
            self.emit(
                now,
                match new_state {
                    AmState::Active => EventKind::EnterActive,
                    AmState::Passive => EventKind::EnterPassive,
                },
                None,
            );
        }

        ops
    }

    /// The configured payloads of the parametrised operations.
    fn op_args(&self) -> OpArgs {
        OpArgs {
            add_batch: self.cfg.add_batch,
            remove_batch: REMOVE_BATCH,
            rate_inc_factor: self.cfg.rate_inc_factor,
            rate_dec_factor: RATE_DEC_FACTOR,
        }
    }

    fn raise(&self, now: Time, kind: ViolationKind) {
        self.emit(now, EventKind::RaiseViol, Some(format!("{kind:?}")));
        if let Some(parent) = &self.parent {
            parent.push(ViolationReport {
                from: self.cfg.name.clone(),
                kind,
                at: now,
            });
        }
    }
}

/// Workers one recruitment orders: the law's `step`, or the whole deficit
/// under the fault-tolerance `floor` (the `ftMinWorkers` bean, 0 = none)
/// of a plant at `planned` workers when that is larger. Restoring the
/// floor in one actuation keeps the repair from being split across the
/// sensor blackout the first recruitment starts.
fn recruitment(step: u32, floor: u32, planned: u32) -> u32 {
    step.max(floor.saturating_sub(planned))
}

/// `op`'s journal form, rendered on its first actuation: the payloads are
/// a step or a floor deficit, so a manager orders few distinct operations.
fn op_form(forms: &mut Vec<(ManagerOp, Text)>, op: &ManagerOp) -> Text {
    if let Some((_, form)) = forms.iter().find(|(known, _)| known == op) {
        return form.clone();
    }
    let form = Text::from(op.to_string());
    forms.push((op.clone(), form.clone()));
    form
}

/// The event an applied operation emits: the paper's event lines for the
/// operations that have one, the rule name for the rest.
fn applied_event(op: &ManagerOp, rule_name: &str) -> (EventKind, Option<String>) {
    match op {
        ManagerOp::AddWorkers(n) => (EventKind::AddWorker, Some(n.to_string())),
        ManagerOp::RemoveWorkers(n) => (EventKind::RemoveWorker, Some(n.to_string())),
        ManagerOp::BalanceLoad => (EventKind::Rebalance, None),
        ManagerOp::IncRate(_) => (EventKind::IncRate, None),
        ManagerOp::DecRate(_) => (EventKind::DecRate, None),
        ManagerOp::GrowShare => (EventKind::GrowShare, None),
        ManagerOp::ShrinkShare => (EventKind::ShrinkShare, None),
        ManagerOp::ShedLoad => (EventKind::ShedLoad, None),
        _ => (EventKind::Other(rule_name.to_owned()), None),
    }
}

impl std::fmt::Debug for AutonomicManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutonomicManager")
            .field("name", &self.cfg.name)
            .field("kind", &self.cfg.kind)
            .field("state", &self.state)
            .field("contract", &self.contract)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abc::{AbcError, NullAbc};

    /// Scripted ABC: a queue of snapshots plus a log of actuations.
    struct MockAbc {
        snapshots: Vec<SensorSnapshot>,
        cursor: usize,
        pub actuations: Arc<Mutex<Vec<ManagerOp>>>,
        refuse_adds: bool,
    }

    impl MockAbc {
        fn new(snapshots: Vec<SensorSnapshot>) -> Self {
            Self {
                snapshots,
                cursor: 0,
                actuations: Arc::new(Mutex::new(Vec::new())),
                refuse_adds: false,
            }
        }
    }

    impl Abc for MockAbc {
        fn sense(&mut self, now: Time) -> SensorSnapshot {
            let i = self.cursor.min(self.snapshots.len().saturating_sub(1));
            self.cursor += 1;
            self.snapshots
                .get(i)
                .cloned()
                .unwrap_or_else(|| SensorSnapshot::empty(now))
        }

        fn actuate(&mut self, op: &ManagerOp, _now: Time) -> Result<ActuationOutcome, AbcError> {
            self.actuations.lock().unwrap().push(op.clone());
            if self.refuse_adds && matches!(op, ManagerOp::AddWorkers(_)) {
                return Ok(ActuationOutcome::Refused {
                    reason: "no resources".into(),
                });
            }
            Ok(ActuationOutcome::Applied)
        }
    }

    fn farm_snap(arrival: f64, departure: f64, workers: u32, qvar: f64) -> SensorSnapshot {
        let mut s = SensorSnapshot::empty(0.0);
        s.arrival_rate = arrival;
        s.departure_rate = departure;
        s.num_workers = workers;
        s.queue_variance = qvar;
        s
    }

    fn farm_manager(snaps: Vec<SensorSnapshot>) -> (AutonomicManager, Arc<Mutex<Vec<ManagerOp>>>) {
        let abc = MockAbc::new(snaps);
        let acts = Arc::clone(&abc.actuations);
        let m = AutonomicManager::new(ManagerConfig::farm("AM_F"), Box::new(abc), EventLog::new());
        (m, acts)
    }

    /// An undamped grow/shrink pair: both guards hold at departureRate 7.
    fn oscillating_rules() -> RuleSet {
        bskel_rules::parse_rules(
            r#"
            rule "grow" when departureRate < 10 then fire(ADD_EXECUTOR) end
            rule "shrink" when departureRate > 5 then fire(REMOVE_EXECUTOR) end
            "#,
        )
        .unwrap()
    }

    #[test]
    fn strict_mode_rejects_oscillating_rules_at_load_time() {
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.rule_check = RuleCheck::Strict;
        let m = AutonomicManager::new(cfg, Box::new(MockAbc::new(vec![])), EventLog::new());
        let err = m.try_with_rules(oscillating_rules()).unwrap_err();
        assert!(
            err.0
                .iter()
                .any(|d| d.code == bskel_rules::LintCode::Oscillation),
            "{err}"
        );
        assert!(err.to_string().contains("oscillation"), "{err}");
    }

    #[test]
    fn warn_mode_accepts_oscillating_rules_but_logs() {
        let (m, _) = farm_manager(vec![]);
        let m = m.with_rules(oscillating_rules());
        let events = m
            .log()
            .of_kind(&EventKind::Other("rulelint:oscillation".into()));
        assert_eq!(events.len(), 1, "{:?}", m.log().snapshot());
    }

    #[test]
    fn off_mode_skips_linting() {
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.rule_check = RuleCheck::Off;
        let m = AutonomicManager::new(cfg, Box::new(MockAbc::new(vec![])), EventLog::new())
            .with_rules(oscillating_rules());
        assert!(m.log().is_empty());
    }

    #[test]
    fn strict_mode_accepts_standard_programs() {
        for cfg in [
            ManagerConfig::farm("f"),
            ManagerConfig::pipeline("p"),
            ManagerConfig::producer("s"),
        ] {
            let mut cfg = cfg;
            cfg.rule_check = RuleCheck::Strict;
            let m = AutonomicManager::try_new(cfg, Box::new(MockAbc::new(vec![])), EventLog::new());
            assert!(m.is_ok());
        }
    }

    #[test]
    fn adopting_contract_relints_with_bound_params() {
        // A best-effort contract pins FARM_HIGH_PERF_LEVEL to +inf, which
        // makes the shedding rule provably dormant: warn, don't reject.
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.rule_check = RuleCheck::Strict;
        let mut m = AutonomicManager::new(cfg, Box::new(MockAbc::new(vec![])), EventLog::new());
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        let events = m.log().of_kind(&EventKind::Other("rulelint:unsat".into()));
        assert!(
            events
                .iter()
                .any(|e| e.detail.as_deref().is_some_and(|d| d.contains("dormant"))),
            "{:?}",
            m.log().snapshot()
        );
    }

    #[test]
    fn adopts_contract_and_derives_params() {
        let (mut m, _) = farm_manager(vec![farm_snap(0.5, 0.5, 4, 0.0)]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(m.contract(), &Contract::throughput_range(0.3, 0.7));
        assert!(!m.log().of_kind(&EventKind::NewContract).is_empty());
    }

    #[test]
    fn rise_in_workers_lost_emits_one_delta_event() {
        let mut lost2 = farm_snap(0.5, 0.5, 2, 0.0);
        lost2.workers_lost = 2;
        let (mut m, _) = farm_manager(vec![
            farm_snap(0.5, 0.5, 4, 0.0),
            lost2.clone(),
            lost2, // plateau: cumulative bean unchanged
        ]);
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        assert!(m.log().of_kind(&EventKind::WorkerLost).is_empty());
        m.control_cycle(1.0);
        let events = m.log().of_kind(&EventKind::WorkerLost);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail.as_deref(), Some("2"));
        // No new losses: no new event.
        m.control_cycle(2.0);
        assert_eq!(m.log().of_kind(&EventKind::WorkerLost).len(), 1);
    }

    #[test]
    fn workers_lost_is_sensed_through_a_blackout() {
        let mut lost = farm_snap(0.5, 0.5, 3, 0.0);
        lost.workers_lost = 1;
        lost.reconfiguring = true;
        let (mut m, _) = farm_manager(vec![farm_snap(0.5, 0.5, 4, 0.0), lost]);
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        m.control_cycle(1.0);
        assert_eq!(
            m.log().of_kind(&EventKind::WorkerLost).len(),
            1,
            "failure sensing must not be suppressed by the blackout"
        );
    }

    #[test]
    fn underdelivery_with_pressure_adds_workers() {
        let (mut m, acts) = farm_manager(vec![farm_snap(0.5, 0.1, 1, 0.0)]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        let ops = m.control_cycle(0.0);
        assert!(!ops.is_empty());
        assert!(acts
            .lock()
            .unwrap()
            .iter()
            .any(|o| matches!(o, ManagerOp::AddWorkers(_))));
        assert_eq!(m.state(), AmState::Active);
        assert_eq!(m.log().of_kind(&EventKind::AddWorker).len(), 1);
        assert_eq!(m.log().of_kind(&EventKind::ContrLow).len(), 1);
    }

    #[test]
    fn starvation_raises_violation_and_goes_passive() {
        let (mut m, acts) = farm_manager(vec![farm_snap(0.05, 0.05, 2, 0.0)]);
        let parent = Mailbox::new();
        m = m.with_parent(parent.clone());
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert!(acts.lock().unwrap().is_empty(), "no local action possible");
        assert_eq!(m.state(), AmState::Passive);
        let reports = parent.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, ViolationKind::NotEnoughTasks);
        assert_eq!(reports[0].from, "AM_F");
        assert_eq!(m.log().of_kind(&EventKind::NotEnough).len(), 1);
        assert_eq!(m.log().of_kind(&EventKind::RaiseViol).len(), 1);
        assert_eq!(m.log().of_kind(&EventKind::EnterPassive).len(), 1);
    }

    #[test]
    fn passive_manager_reactivates_when_local_rule_fires() {
        // Cycle 1: starvation → passive. Cycle 2: pressure returned and
        // throughput low → addWorker fires → active again (paper §4.2,
        // second phase).
        let (mut m, _) = farm_manager(vec![
            farm_snap(0.05, 0.05, 2, 0.0),
            farm_snap(0.5, 0.2, 2, 0.0),
        ]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(m.state(), AmState::Passive);
        m.control_cycle(1.0);
        assert_eq!(m.state(), AmState::Active);
        assert_eq!(m.log().of_kind(&EventKind::EnterActive).len(), 1);
    }

    #[test]
    fn new_contract_reactivates_passive_manager() {
        let (mut m, _) = farm_manager(vec![
            farm_snap(0.05, 0.05, 2, 0.0),
            farm_snap(0.05, 0.05, 2, 0.0),
        ]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(m.state(), AmState::Passive);
        m.contract_slot()
            .post(Contract::throughput_range(0.01, 0.7));
        m.control_cycle(1.0);
        assert_eq!(m.state(), AmState::Active);
    }

    #[test]
    fn refused_add_escalates_unsatisfiable() {
        let mut abc = MockAbc::new(vec![farm_snap(0.5, 0.1, 4, 0.0)]);
        abc.refuse_adds = true;
        let parent = Mailbox::new();
        let mut m =
            AutonomicManager::new(ManagerConfig::farm("AM_F"), Box::new(abc), EventLog::new())
                .with_parent(parent.clone());
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(m.state(), AmState::Passive);
        let reports = parent.drain();
        assert!(reports
            .iter()
            .any(|r| matches!(r.kind, ViolationKind::Unsatisfiable(_))));
    }

    #[test]
    fn reconfiguration_blackout_suppresses_cycle() {
        let mut blackout = farm_snap(0.5, 0.1, 1, 0.0);
        blackout.reconfiguring = true;
        let (mut m, acts) = farm_manager(vec![blackout]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        let ops = m.control_cycle(0.0);
        assert!(ops.is_empty());
        assert!(acts.lock().unwrap().is_empty());
        // Contract was still adopted (only sensing is blacked out).
        assert_eq!(m.contract(), &Contract::throughput_range(0.3, 0.7));
    }

    #[test]
    fn overdelivery_removes_workers() {
        let (mut m, acts) = farm_manager(vec![farm_snap(0.5, 0.9, 4, 0.0)]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert!(acts
            .lock()
            .unwrap()
            .iter()
            .any(|o| matches!(o, ManagerOp::RemoveWorkers(_))));
        assert_eq!(m.log().of_kind(&EventKind::RemoveWorker).len(), 1);
    }

    #[test]
    fn queue_unbalance_rebalances() {
        let (mut m, acts) = farm_manager(vec![farm_snap(0.5, 0.5, 4, 25.0)]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert!(acts
            .lock()
            .unwrap()
            .iter()
            .any(|o| matches!(o, ManagerOp::BalanceLoad)));
        assert_eq!(m.log().of_kind(&EventKind::Rebalance).len(), 1);
    }

    #[test]
    fn end_of_stream_reported_once() {
        let mut eos = farm_snap(0.0, 0.0, 2, 0.0);
        eos.end_of_stream = true;
        let parent = Mailbox::new();
        let (mut m, _) = farm_manager(vec![eos.clone(), eos]);
        m = m.with_parent(parent.clone());
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        m.control_cycle(1.0);
        let eos_reports: Vec<_> = parent
            .drain()
            .into_iter()
            .filter(|r| r.kind == ViolationKind::EndOfStream)
            .collect();
        assert_eq!(eos_reports.len(), 1);
        assert_eq!(m.log().of_kind(&EventKind::EndStream).len(), 1);
    }

    #[test]
    fn pipeline_inc_rate_posts_contract_to_source() {
        let log = EventLog::new();
        let mut am_a = AutonomicManager::new(
            ManagerConfig::pipeline("AM_A"),
            Box::new(NullAbc::default()),
            log.clone(),
        );
        let source_slot = ContractSlot::new();
        am_a.add_child(ChildLink {
            slot: source_slot.clone(),
            is_source: true,
        });
        // A child reported starvation.
        am_a.mailbox().push(ViolationReport {
            from: "AM_F".into(),
            kind: ViolationKind::NotEnoughTasks,
            at: 0.0,
        });
        am_a.control_cycle(0.0);
        let posted = source_slot.take().expect("incRate contract posted");
        let (floor, _) = posted.output_rate_bounds().unwrap();
        assert!(floor > 0.0);
        assert_eq!(log.of_kind(&EventKind::IncRate).len(), 1);
        assert_eq!(am_a.state(), AmState::Active);
    }

    #[test]
    fn pipeline_stops_reacting_after_end_stream() {
        let mut am_a = AutonomicManager::new(
            ManagerConfig::pipeline("AM_A"),
            Box::new(NullAbc::default()),
            EventLog::new(),
        );
        let source_slot = ContractSlot::new();
        am_a.add_child(ChildLink {
            slot: source_slot.clone(),
            is_source: true,
        });
        am_a.mailbox().push(ViolationReport {
            from: "AM_F".into(),
            kind: ViolationKind::EndOfStream,
            at: 0.0,
        });
        am_a.control_cycle(0.0);
        am_a.mailbox().push(ViolationReport {
            from: "AM_F".into(),
            kind: ViolationKind::NotEnoughTasks,
            at: 1.0,
        });
        am_a.control_cycle(1.0);
        assert!(source_slot.take().is_none(), "no incRate after endStream");
        assert!(am_a.log().of_kind(&EventKind::IncRate).is_empty());
    }

    #[test]
    fn pipeline_dec_rate_on_too_much() {
        let mut am_a = AutonomicManager::new(
            ManagerConfig::pipeline("AM_A"),
            Box::new(NullAbc::default()),
            EventLog::new(),
        );
        let source_slot = ContractSlot::new();
        am_a.add_child(ChildLink {
            slot: source_slot.clone(),
            is_source: true,
        });
        am_a.mailbox().push(ViolationReport {
            from: "AM_F".into(),
            kind: ViolationKind::TooMuchTasks,
            at: 0.0,
        });
        am_a.control_cycle(0.0);
        let posted = source_slot.take().unwrap();
        let (_, ceil) = posted.output_rate_bounds().unwrap();
        // decRate shrank the target below the initial 0.2·1.2 ceiling.
        assert!(ceil < 0.2 * 1.2);
        assert_eq!(am_a.log().of_kind(&EventKind::DecRate).len(), 1);
    }

    #[test]
    fn pipeline_forwards_contract_to_stages_on_adoption() {
        let mut am_a = AutonomicManager::new(
            ManagerConfig::pipeline("AM_A"),
            Box::new(NullAbc::default()),
            EventLog::new(),
        );
        let prod = ContractSlot::new();
        let farm = ContractSlot::new();
        let cons = ContractSlot::new();
        am_a.add_child(ChildLink {
            slot: prod.clone(),
            is_source: true,
        });
        am_a.add_child(ChildLink {
            slot: farm.clone(),
            is_source: false,
        });
        am_a.add_child(ChildLink {
            slot: cons.clone(),
            is_source: false,
        });
        am_a.contract_slot()
            .post(Contract::throughput_range(0.3, 0.7));
        am_a.control_cycle(0.0);
        assert_eq!(farm.take(), Some(Contract::throughput_range(0.3, 0.7)));
        assert_eq!(cons.take(), Some(Contract::throughput_range(0.3, 0.7)));
        // The source gets a rate contract at the initial source rate.
        let p = prod.take().unwrap();
        assert!(p.output_rate_bounds().is_some());
    }

    #[test]
    fn producer_scales_rate_within_contract() {
        let mut snap = SensorSnapshot::empty(0.0);
        snap.departure_rate = 0.1;
        let abc = MockAbc::new(vec![snap]);
        let acts = Arc::clone(&abc.actuations);
        let mut m = AutonomicManager::new(
            ManagerConfig::producer("AM_P"),
            Box::new(abc),
            EventLog::new(),
        );
        m.contract_slot().post(Contract::output_rate(0.5));
        m.control_cycle(0.0);
        let recorded = acts.lock().unwrap();
        assert!(recorded
            .iter()
            .any(|o| matches!(o, ManagerOp::IncRate(f) if *f > 1.0)));
    }

    #[test]
    fn sequential_manager_is_quiet() {
        let mut m = AutonomicManager::new(
            ManagerConfig::sequential("AM_C"),
            Box::new(NullAbc::default()),
            EventLog::new(),
        );
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        let ops = m.control_cycle(0.0);
        assert!(ops.is_empty());
        // It still logs contract-check events (contrLow at zero rate).
        assert_eq!(m.log().of_kind(&EventKind::ContrLow).len(), 1);
        assert_eq!(m.state(), AmState::Active);
    }

    #[test]
    fn farm_propagates_best_effort_to_worker_children() {
        let (mut m, _) = farm_manager(vec![farm_snap(0.5, 0.5, 2, 0.0)]);
        let w0 = ContractSlot::new();
        m.add_child(ChildLink {
            slot: w0.clone(),
            is_source: false,
        });
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(w0.take(), Some(Contract::BestEffort));
    }

    #[test]
    fn rule_error_surfaces_as_violation() {
        use bskel_rules::{Condition, Rule};
        let parent = Mailbox::new();
        let bad_rules: RuleSet = vec![Rule::new(
            "needs-missing-bean",
            Condition::flag("noSuchBean"),
            vec![],
        )]
        .into_iter()
        .collect();
        let mut m = AutonomicManager::new(
            ManagerConfig::sequential("AM_X"),
            Box::new(NullAbc::default()),
            EventLog::new(),
        )
        .with_rules(bad_rules)
        .with_parent(parent.clone());
        m.control_cycle(0.0);
        assert!(parent
            .drain()
            .iter()
            .any(|r| matches!(r.kind, ViolationKind::Unsatisfiable(_))));
    }

    #[test]
    fn mailbox_and_slot_basics() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        mb.push(ViolationReport {
            from: "x".into(),
            kind: ViolationKind::NotEnoughTasks,
            at: 0.0,
        });
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.drain().len(), 1);
        assert!(mb.is_empty());
        assert!(mb.drain().is_empty());

        let slot = ContractSlot::new();
        assert!(slot.take().is_none());
        slot.post(Contract::BestEffort);
        slot.post(Contract::min_throughput(1.0));
        assert_eq!(slot.take(), Some(Contract::min_throughput(1.0)));
        assert!(slot.take().is_none());
    }

    /// A farm manager running the merged perf + FT program over `snap`
    /// with fault-tolerance floor `floor` and the given `add_batch`.
    fn ft_manager(
        mut snap: SensorSnapshot,
        floor: u32,
        add_batch: u32,
        controller: ControllerKind,
    ) -> (AutonomicManager, Arc<Mutex<Vec<ManagerOp>>>) {
        snap.ft_min_workers = floor;
        let abc = MockAbc::new(vec![snap]);
        let acts = Arc::clone(&abc.actuations);
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.add_batch = add_batch;
        cfg.controller = controller;
        cfg.extra_params
            .push((stdlib::params::FT_MIN_WORKERS.to_owned(), f64::from(floor)));
        let m = AutonomicManager::new(cfg, Box::new(abc), EventLog::new())
            .with_rules(stdlib::farm_rules_with_ft());
        (m, acts)
    }

    fn adds(acts: &Mutex<Vec<ManagerOp>>) -> Vec<u32> {
        acts.lock()
            .unwrap()
            .iter()
            .filter_map(|o| match o {
                ManagerOp::AddWorkers(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn mass_loss_is_healed_by_one_recruitment_of_the_whole_deficit() {
        // Best effort: only the FT rule can fire. Three of four workers
        // died; the floor comes back in one actuation, not one per cycle.
        let (mut m, acts) = ft_manager(farm_snap(0.5, 0.5, 1, 0.0), 4, 1, ControllerKind::Rules);
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        assert_eq!(adds(&acts), [3]);
        let events = m.log().of_kind(&EventKind::AddWorker);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail.as_deref(), Some("3"));
    }

    #[test]
    fn a_second_recruitment_in_the_cycle_does_not_count_the_deficit_twice() {
        // Under-delivery and a mass loss at once: the FT rule and
        // CheckRateLow both fire ADD_EXECUTOR. The first restores the
        // floor, the second takes one performance step above it.
        let (mut m, acts) = ft_manager(farm_snap(0.5, 0.1, 1, 0.0), 4, 1, ControllerKind::Rules);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(adds(&acts), [3, 1]);
    }

    #[test]
    fn at_or_without_a_floor_a_recruitment_is_one_step() {
        for add_batch in [1, 2] {
            // At the floor: the performance rule's step.
            let (mut m, acts) = ft_manager(
                farm_snap(0.5, 0.1, 4, 0.0),
                4,
                add_batch,
                ControllerKind::Rules,
            );
            m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
            m.control_cycle(0.0);
            assert_eq!(adds(&acts), [add_batch], "at the floor");
            // No floor: a one-worker farm still grows by one step.
            let (mut m, acts) = ft_manager(
                farm_snap(0.5, 0.1, 1, 0.0),
                0,
                add_batch,
                ControllerKind::Rules,
            );
            m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
            m.control_cycle(0.0);
            assert_eq!(adds(&acts), [add_batch], "no floor");
        }
    }

    #[test]
    fn aimd_below_the_floor_recruits_the_deficit() {
        let (mut m, acts) = ft_manager(farm_snap(0.5, 0.5, 1, 0.0), 4, 1, ControllerKind::Aimd);
        m.contract_slot().post(Contract::BestEffort);
        m.control_cycle(0.0);
        assert_eq!(adds(&acts), [3]);
    }

    #[test]
    fn model_initial_setup_never_lands_below_the_floor() {
        // The model asks for ceil(0.3 × 2) = 1 worker; the floor wins.
        let mut snap = farm_snap(0.5, 0.5, 1, 0.0);
        snap.service_time = 2.0;
        let (mut m, acts) = ft_manager(snap, 4, 1, ControllerKind::Rules);
        m.cfg.model_initial_setup = true;
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert_eq!(adds(&acts), [3]);
        let events = m.log().of_kind(&EventKind::AddWorker);
        assert_eq!(events[0].detail.as_deref(), Some("3 (model-init)"));
    }

    #[test]
    fn in_contract_farm_logs_nothing_and_stays_active() {
        let (mut m, acts) = farm_manager(vec![farm_snap(0.5, 0.5, 3, 0.0)]);
        m.contract_slot().post(Contract::throughput_range(0.3, 0.7));
        m.control_cycle(0.0);
        assert!(acts.lock().unwrap().is_empty());
        assert_eq!(m.state(), AmState::Active);
        assert!(m.log().of_kind(&EventKind::ContrLow).is_empty());
    }
}

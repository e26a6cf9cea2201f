//! Manager hierarchies over behavioural-skeleton trees.
//!
//! §3.1: managers are attached to the software modules of the application
//! and therefore themselves form a tree. Contracts flow downward (split per
//! pattern), violations flow upward (mailbox callbacks). [`build`]
//! constructs the manager tree mirroring a [`BsExpr`]:
//!
//! * every **pipe** gets a [`ManagerKind::Pipeline`] manager;
//! * every **farm** gets a [`ManagerKind::Farm`] manager;
//! * a **seq** that is the *first* stage of a pipe gets a
//!   [`ManagerKind::Producer`] manager (it is the stream source the
//!   pipeline drives with incRate/decRate contracts);
//! * any other **seq** pipe stage gets a monitor-only
//!   [`ManagerKind::Sequential`] manager;
//! * a **seq** farm worker gets *no* manager of its own (workers receive
//!   best-effort sub-contracts; their micro-management is the farm
//!   runtime's job) — but a *composite* farm worker gets its own manager
//!   subtree, nested under the farm manager.
//!
//! The resulting [`Hierarchy`] is substrate-free: the caller supplies one
//! ABC per managed node through a factory closure.

use crate::abc::Abc;
use crate::bs::BsExpr;
use crate::contract::Contract;
use crate::events::EventLog;
use crate::manager::{AutonomicManager, ChildLink, Mailbox, ManagerConfig, ManagerKind};
use bskel_monitor::Time;
use bskel_rules::OpCall;

/// A built manager tree.
pub struct Hierarchy {
    /// Managers in post-order (children before parents); the root is last.
    managers: Vec<AutonomicManager>,
    log: EventLog,
}

/// The structural role a node plays, deciding its manager kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRole {
    Root,
    PipeSource,
    PipeStage,
    FarmWorker,
}

/// Builds the manager hierarchy for `expr`.
///
/// `make_abc` is called once per managed node with the node and the chosen
/// manager kind, and must return the ABC binding that manager to the
/// substrate. `configure` may adjust each manager's [`ManagerConfig`]
/// (e.g. control periods, worker batches) before construction.
pub fn build(
    expr: &BsExpr,
    log: EventLog,
    make_abc: &mut dyn FnMut(&BsExpr, &ManagerKind) -> Box<dyn Abc>,
    configure: &mut dyn FnMut(&BsExpr, ManagerConfig) -> ManagerConfig,
) -> Hierarchy {
    let mut managers = Vec::new();
    build_node(
        expr,
        NodeRole::Root,
        None,
        &log,
        make_abc,
        configure,
        &mut managers,
    );
    Hierarchy { managers, log }
}

/// Recursively builds the manager for `expr` (if its role warrants one) and
/// its descendants, pushing managers in post-order. Returns the link a
/// parent needs to adopt the node as a child.
fn build_node(
    expr: &BsExpr,
    role: NodeRole,
    parent: Option<&Mailbox>,
    log: &EventLog,
    make_abc: &mut dyn FnMut(&BsExpr, &ManagerKind) -> Box<dyn Abc>,
    configure: &mut dyn FnMut(&BsExpr, ManagerConfig) -> ManagerConfig,
    out: &mut Vec<AutonomicManager>,
) -> Option<ChildLink> {
    let kind = match (expr, role) {
        (BsExpr::Seq { .. }, NodeRole::FarmWorker) => return None,
        (BsExpr::Seq { .. }, NodeRole::PipeSource) => ManagerKind::Producer,
        (BsExpr::Seq { .. }, _) => ManagerKind::Sequential,
        (BsExpr::Farm { .. }, _) => ManagerKind::Farm,
        (BsExpr::Pipe { .. }, _) => ManagerKind::Pipeline,
    };

    let cfg = configure(expr, base_config(expr.name(), kind.clone()));
    let abc = make_abc(expr, &kind);
    let mut manager = AutonomicManager::new(cfg, abc, log.clone());
    if let Some(parent_mailbox) = parent {
        manager = manager.with_parent(parent_mailbox.clone());
    }
    let mailbox = manager.mailbox();
    let slot = manager.contract_slot();

    // Recurse into managed children.
    match expr {
        BsExpr::Seq { .. } => {}
        BsExpr::Farm { worker, .. } => {
            if let Some(link) = build_node(
                worker,
                NodeRole::FarmWorker,
                Some(&mailbox),
                log,
                make_abc,
                configure,
                out,
            ) {
                manager.add_child(link);
            }
        }
        BsExpr::Pipe { stages, .. } => {
            for (i, stage) in stages.iter().enumerate() {
                let stage_role = if i == 0 && matches!(stage, BsExpr::Seq { .. }) {
                    NodeRole::PipeSource
                } else {
                    NodeRole::PipeStage
                };
                if let Some(link) = build_node(
                    stage,
                    stage_role,
                    Some(&mailbox),
                    log,
                    make_abc,
                    configure,
                    out,
                ) {
                    manager.add_child(link);
                }
            }
        }
    }

    out.push(manager);
    Some(ChildLink {
        slot,
        is_source: role == NodeRole::PipeSource,
    })
}

fn base_config(node_name: &str, kind: ManagerKind) -> ManagerConfig {
    let name = format!("AM_{node_name}");
    match kind {
        ManagerKind::Farm => ManagerConfig::farm(&name),
        ManagerKind::Pipeline => ManagerConfig::pipeline(&name),
        ManagerKind::Producer => ManagerConfig::producer(&name),
        ManagerKind::Sequential => ManagerConfig::sequential(&name),
        ManagerKind::Tenant => ManagerConfig::tenant(&name),
    }
}

impl Hierarchy {
    /// Number of managers in the tree.
    pub fn len(&self) -> usize {
        self.managers.len()
    }

    /// True when the tree holds no managers.
    pub fn is_empty(&self) -> bool {
        self.managers.is_empty()
    }

    /// Manager names, in post-order.
    pub fn names(&self) -> Vec<&str> {
        self.managers.iter().map(AutonomicManager::name).collect()
    }

    /// The root manager (the application manager the user talks to).
    ///
    /// # Panics
    /// Panics on an empty hierarchy.
    pub fn root(&self) -> &AutonomicManager {
        self.managers.last().expect("hierarchy has a root manager")
    }

    /// Looks a manager up by name (`AM_<node>`).
    pub fn manager(&self, name: &str) -> Option<&AutonomicManager> {
        self.managers.iter().find(|m| m.name() == name)
    }

    /// Posts the user's top-level SLA to the root manager.
    pub fn post_contract(&self, contract: Contract) {
        self.root().contract_slot().post(contract);
    }

    /// Runs one control cycle on every manager, children before parents,
    /// so a violation raised by a child is seen by its parent within the
    /// same hierarchy pass. Returns the per-manager operation calls.
    pub fn run_cycle(&mut self, now: Time) -> Vec<(String, Vec<OpCall>)> {
        self.managers
            .iter_mut()
            .map(|m| (m.name().to_owned(), m.control_cycle(now)))
            .collect()
    }

    /// The shared event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Iterates managers in post-order.
    pub fn iter(&self) -> impl Iterator<Item = &AutonomicManager> {
        self.managers.iter()
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("managers", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abc::NullAbc;
    use crate::events::EventKind;
    use crate::manager::{AmState, ViolationKind, ViolationReport};
    use bskel_monitor::SensorSnapshot;

    fn null_factory() -> impl FnMut(&BsExpr, &ManagerKind) -> Box<dyn Abc> {
        |_, _| Box::new(NullAbc::default()) as Box<dyn Abc>
    }

    fn fig2_right() -> BsExpr {
        BsExpr::parse("pipe:app(seq:producer, farm:filter(seq:worker)*2, seq:consumer)").unwrap()
    }

    fn build_fig2() -> Hierarchy {
        build(
            &fig2_right(),
            EventLog::new(),
            &mut null_factory(),
            &mut |_, c| c,
        )
    }

    #[test]
    fn builds_the_four_managers_of_fig4() {
        let h = build_fig2();
        assert_eq!(h.len(), 4);
        let names = h.names();
        assert!(names.contains(&"AM_app"));
        assert!(names.contains(&"AM_producer"));
        assert!(names.contains(&"AM_filter"));
        assert!(names.contains(&"AM_consumer"));
        assert_eq!(h.root().name(), "AM_app", "root is last (post-order)");
    }

    #[test]
    fn post_order_puts_children_first() {
        let h = build_fig2();
        let names = h.names();
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("AM_producer") < pos("AM_app"));
        assert!(pos("AM_filter") < pos("AM_app"));
        assert!(pos("AM_consumer") < pos("AM_app"));
    }

    #[test]
    fn farm_seq_worker_gets_no_manager() {
        let h = build(
            &BsExpr::parse("farm:f(seq:w)*4").unwrap(),
            EventLog::new(),
            &mut null_factory(),
            &mut |_, c| c,
        );
        assert_eq!(h.len(), 1);
        assert_eq!(h.root().name(), "AM_f");
    }

    #[test]
    fn composite_farm_worker_gets_nested_managers() {
        // §3.1's farm(pipeline(seq, farm(seq), seq)): outer farm AM +
        // inner pipe AM + inner stage AMs (source, farm, sink) + none for
        // the innermost seq worker.
        let e = BsExpr::parse("farm(pipeline(sequential, farm(sequential), sequential))").unwrap();
        let h = build(&e, EventLog::new(), &mut null_factory(), &mut |_, c| c);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn contract_propagates_down_the_tree() {
        let mut h = build_fig2();
        h.post_contract(Contract::throughput_range(0.3, 0.7));
        // Cycle 1: root adopts and posts sub-contracts; children already
        // ran this pass, so they adopt on cycle 2.
        h.run_cycle(0.0);
        h.run_cycle(1.0);
        assert_eq!(
            h.manager("AM_filter").unwrap().contract(),
            &Contract::throughput_range(0.3, 0.7)
        );
        assert_eq!(
            h.manager("AM_consumer").unwrap().contract(),
            &Contract::throughput_range(0.3, 0.7)
        );
        // The producer got an output-rate contract instead.
        assert!(h
            .manager("AM_producer")
            .unwrap()
            .contract()
            .output_rate_bounds()
            .is_some());
    }

    #[test]
    fn child_violation_reaches_parent_within_a_pass() {
        let mut h = build_fig2();
        h.post_contract(Contract::throughput_range(0.3, 0.7));
        h.run_cycle(0.0);
        // Fake the farm manager reporting starvation by pushing straight
        // into the root's mailbox (the farm's NullAbc senses nothing).
        h.root().mailbox().push(ViolationReport {
            from: "AM_filter".into(),
            kind: ViolationKind::NotEnoughTasks,
            at: 1.0,
        });
        h.run_cycle(1.0);
        assert_eq!(h.log().of_kind(&EventKind::IncRate).len(), 1);
    }

    #[test]
    fn inc_rate_contract_reaches_producer_next_cycle() {
        let mut h = build_fig2();
        h.post_contract(Contract::throughput_range(0.3, 0.7));
        h.run_cycle(0.0);
        h.run_cycle(1.0);
        let before = h
            .manager("AM_producer")
            .unwrap()
            .contract()
            .output_rate_bounds()
            .unwrap();
        h.root().mailbox().push(ViolationReport {
            from: "AM_filter".into(),
            kind: ViolationKind::NotEnoughTasks,
            at: 2.0,
        });
        h.run_cycle(2.0); // root posts incRate contract
        h.run_cycle(3.0); // producer adopts it
        let after = h
            .manager("AM_producer")
            .unwrap()
            .contract()
            .output_rate_bounds()
            .unwrap();
        assert!(after.0 > before.0, "floor raised: {before:?} -> {after:?}");
    }

    #[test]
    fn configure_hook_customises_managers() {
        let h = build(
            &fig2_right(),
            EventLog::new(),
            &mut null_factory(),
            &mut |_, mut cfg| {
                cfg.add_batch = 2;
                cfg.control_period = 0.5;
                cfg
            },
        );
        assert_eq!(h.root().control_period(), 0.5);
    }

    #[test]
    fn end_stream_propagates_to_root_log() {
        let mut h = build(
            &fig2_right(),
            EventLog::new(),
            &mut |_, _| {
                let mut snap = SensorSnapshot::empty(0.0);
                snap.end_of_stream = true;
                Box::new(NullAbc {
                    snapshot: Some(snap),
                }) as Box<dyn Abc>
            },
            &mut |_, c| c,
        );
        h.post_contract(Contract::BestEffort);
        h.run_cycle(0.0);
        h.run_cycle(1.0);
        // Every stage manager and the root observed/logged endStream.
        assert!(!h.log().of_kind(&EventKind::EndStream).is_empty());
        let root_events = h.log().by_manager("AM_app");
        assert!(root_events.iter().any(|e| e.kind == EventKind::EndStream));
    }

    #[test]
    fn managers_start_active() {
        let h = build_fig2();
        for m in h.iter() {
            assert_eq!(m.state(), AmState::Active);
        }
    }

    #[test]
    fn single_seq_root_builds_one_sequential_manager() {
        let h = build(
            &BsExpr::seq("only"),
            EventLog::new(),
            &mut null_factory(),
            &mut |_, c| c,
        );
        assert_eq!(h.len(), 1);
        assert_eq!(h.root().name(), "AM_only");
    }
}

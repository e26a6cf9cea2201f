//! The resource manager skeleton ABCs recruit worker nodes from.
//!
//! Paper §3.2, footnote: adding a farm worker means the manager "recruits a
//! new resource, possibly interacting with some kind of external resource
//! manager, and instantiates a new worker on the resource". This module is
//! that external resource manager: a pool of free nodes with a
//! recruitment+deployment latency. The latency is what produces the
//! paper's reconfiguration dead time (Fig. 4: addWorker at 36:20, workers
//! effective at 36:30).

use crate::node::{NodeId, NodeRegistry};

/// Preference order when several free nodes qualify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum RecruitPolicy {
    /// Prefer trusted nodes, then fastest (the sensible default: avoids
    /// securing overhead when trusted capacity remains).
    #[default]
    TrustedFirst,
    /// Pool order (deterministic FIFO).
    InOrder,
}

/// A pool of recruitable nodes.
#[derive(Debug, Clone)]
pub(crate) struct ResourceManager {
    free: Vec<NodeId>,
    busy: Vec<NodeId>,
    /// Seconds between a recruitment request and the worker being ready.
    pub recruit_latency: f64,
    policy: RecruitPolicy,
}

impl ResourceManager {
    /// Creates a manager over the given free pool.
    pub fn new(free: Vec<NodeId>, recruit_latency: f64) -> Self {
        Self {
            free,
            busy: Vec::new(),
            recruit_latency: recruit_latency.max(0.0),
            policy: RecruitPolicy::default(),
        }
    }

    /// Sets the recruitment preference (builder style).
    pub(crate) fn with_policy(mut self, policy: RecruitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The free pool, in pool order.
    pub(crate) fn free_nodes(&self) -> &[NodeId] {
        &self.free
    }

    /// Recruits a specific free node; returns whether it was available.
    pub(crate) fn recruit_specific(&mut self, id: NodeId) -> bool {
        match self.free.iter().position(|&n| n == id) {
            Some(pos) => {
                self.free.remove(pos);
                self.busy.push(id);
                true
            }
            None => false,
        }
    }

    /// Recruits one node per the policy; returns its id, or `None` when
    /// the pool is exhausted.
    pub(crate) fn recruit(&mut self, registry: &NodeRegistry) -> Option<NodeId> {
        if self.free.is_empty() {
            return None;
        }
        let idx = match self.policy {
            RecruitPolicy::InOrder => 0,
            RecruitPolicy::TrustedFirst => {
                // (trusted desc, speed desc) — stable within the pool order.
                let mut best = 0usize;
                for i in 1..self.free.len() {
                    let a = registry.get(self.free[i]);
                    let b = registry.get(self.free[best]);
                    let a_key = (a.trusted as u8, a.speed);
                    let b_key = (b.trusted as u8, b.speed);
                    if a_key.0 > b_key.0 || (a_key.0 == b_key.0 && a_key.1 > b_key.1) {
                        best = i;
                    }
                }
                best
            }
        };
        let id = self.free.remove(idx);
        self.busy.push(id);
        Some(id)
    }

    /// Releases a recruited node back to the pool.
    ///
    /// # Panics
    /// Panics if the node was not recruited from this manager — releasing
    /// foreign resources is a bookkeeping bug.
    pub fn release(&mut self, id: NodeId) {
        let pos = self
            .busy
            .iter()
            .position(|&n| n == id)
            .unwrap_or_else(|| panic!("node {id:?} was not recruited here"));
        self.busy.remove(pos);
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    impl ResourceManager {
        pub(crate) fn free_count(&self) -> usize {
            self.free.len()
        }

        fn busy_count(&self) -> usize {
            self.busy.len()
        }
    }

    fn setup() -> (NodeRegistry, ResourceManager) {
        let mut reg = NodeRegistry::new();
        let slow_trusted = reg.add(Node::trusted("t-slow", "lab").with_speed(0.5));
        let fast_untrusted = reg.add(Node::untrusted("u-fast", "wan").with_speed(2.0));
        let fast_trusted = reg.add(Node::trusted("t-fast", "lab").with_speed(1.5));
        let rm = ResourceManager::new(vec![slow_trusted, fast_untrusted, fast_trusted], 10.0);
        (reg, rm)
    }

    #[test]
    fn trusted_first_prefers_trusted_fastest() {
        let (reg, mut rm) = setup();
        let first = rm.recruit(&reg).unwrap();
        assert_eq!(reg.get(first).name, "t-fast");
        let second = rm.recruit(&reg).unwrap();
        assert_eq!(reg.get(second).name, "t-slow");
        let third = rm.recruit(&reg).unwrap();
        assert_eq!(reg.get(third).name, "u-fast");
        assert!(rm.recruit(&reg).is_none(), "pool exhausted");
    }

    #[test]
    fn in_order_is_fifo() {
        let (reg, rm) = setup();
        let mut rm = rm.with_policy(RecruitPolicy::InOrder);
        let first = rm.recruit(&reg).unwrap();
        assert_eq!(reg.get(first).name, "t-slow");
    }

    #[test]
    fn release_returns_to_pool() {
        let (reg, mut rm) = setup();
        let a = rm.recruit(&reg).unwrap();
        assert_eq!(rm.free_count(), 2);
        assert_eq!(rm.busy_count(), 1);
        rm.release(a);
        assert_eq!(rm.free_count(), 3);
        assert_eq!(rm.busy_count(), 0);
        // Can be recruited again.
        let again = rm.recruit(&reg).unwrap();
        assert_eq!(again, a);
    }

    #[test]
    #[should_panic(expected = "not recruited here")]
    fn foreign_release_rejected() {
        let (_, mut rm) = setup();
        rm.release(NodeId(99));
    }

    #[test]
    fn latency_clamped_non_negative() {
        let rm = ResourceManager::new(vec![], -5.0);
        assert_eq!(rm.recruit_latency, 0.0);
    }

    #[test]
    fn recruit_specific_node() {
        let (reg, mut rm) = setup();
        let target = reg.ids().find(|&id| reg.get(id).name == "u-fast").unwrap();
        assert!(rm.recruit_specific(target));
        assert!(!rm.recruit_specific(target), "already recruited");
        assert_eq!(rm.free_nodes().len(), 2);
        rm.release(target);
        assert!(rm.recruit_specific(target));
    }
}

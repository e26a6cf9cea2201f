//! Simulated nodes: speeds, IP domains, external-load profiles.

use serde::{Deserialize, Serialize};

/// Index of a node in a [`NodeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A time window of additional external load on a node.
///
/// While active, the node's effective speed divides by `1 + extra`: an
/// `extra` of 1.0 halves throughput (a co-scheduled job of equal weight).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LoadWindow {
    /// Window start, seconds.
    pub start: f64,
    /// Window end, seconds.
    pub end: f64,
    /// Additional load, as a fraction of the node's capacity.
    pub extra: f64,
}

/// A simulated execution node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable identifier (`node3`).
    pub name: String,
    /// IP domain (the paper's `untrusted_ip_domain_A`).
    pub domain: String,
    /// Whether the domain's network segment is private/trusted.
    pub trusted: bool,
    /// Base speed relative to the reference core (2.0 = twice as fast).
    pub speed: f64,
    /// External-load windows.
    pub(crate) load: Vec<LoadWindow>,
}

impl Node {
    /// A trusted node at reference speed.
    pub fn trusted(name: impl Into<String>, domain: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            domain: domain.into(),
            trusted: true,
            speed: 1.0,
            load: Vec::new(),
        }
    }

    /// An untrusted node at reference speed.
    pub fn untrusted(name: impl Into<String>, domain: impl Into<String>) -> Self {
        Self {
            trusted: false,
            ..Self::trusted(name, domain)
        }
    }

    /// Sets the base speed (builder style).
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0, "node speed must be positive");
        self.speed = speed;
        self
    }

    /// Adds an external-load window (builder style).
    pub(crate) fn with_load(mut self, start: f64, end: f64, extra: f64) -> Self {
        assert!(start <= end && extra >= 0.0, "bad load window");
        self.load.push(LoadWindow { start, end, extra });
        self
    }

    /// Total external load active at time `t`.
    pub(crate) fn external_load(&self, t: f64) -> f64 {
        self.load
            .iter()
            .filter(|w| t >= w.start && t < w.end)
            .map(|w| w.extra)
            .sum()
    }

    /// Effective speed at time `t`: base speed shared with external load.
    pub(crate) fn effective_speed(&self, t: f64) -> f64 {
        self.speed / (1.0 + self.external_load(t))
    }

    /// Seconds a task of nominal cost `cost` takes on this node at `t`.
    pub fn service_time(&self, cost: f64, t: f64) -> f64 {
        cost / self.effective_speed(t)
    }
}

/// The inventory of simulated nodes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeRegistry {
    nodes: Vec<Node>,
}

impl NodeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Looks a node up.
    pub fn get(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Converts to the `EnvView` node list the coordination protocol uses.
    pub fn env_nodes(&self) -> Vec<bskel_core::coord::NodeInfo> {
        self.nodes
            .iter()
            .map(|n| bskel_core::coord::NodeInfo {
                id: n.name.clone(),
                domain: n.domain.clone(),
                trusted: n.trusted,
                speed: n.speed,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_speed_under_load() {
        let n = Node::trusted("n0", "lab").with_load(10.0, 20.0, 1.0);
        assert_eq!(n.effective_speed(5.0), 1.0);
        assert_eq!(n.effective_speed(10.0), 0.5);
        assert_eq!(n.effective_speed(19.9), 0.5);
        assert_eq!(n.effective_speed(20.0), 1.0);
    }

    #[test]
    fn load_windows_stack() {
        let n = Node::trusted("n0", "lab")
            .with_load(0.0, 10.0, 0.5)
            .with_load(5.0, 10.0, 0.5);
        assert_eq!(n.external_load(2.0), 0.5);
        assert_eq!(n.external_load(7.0), 1.0);
        assert_eq!(n.effective_speed(7.0), 0.5);
    }

    #[test]
    fn service_time_scales_with_speed() {
        let fast = Node::trusted("f", "lab").with_speed(2.0);
        assert_eq!(fast.service_time(10.0, 0.0), 5.0);
        let slow = Node::trusted("s", "lab").with_speed(0.5);
        assert_eq!(slow.service_time(10.0, 0.0), 20.0);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = NodeRegistry::new();
        let a = reg.add(Node::trusted("a", "lab"));
        let b = reg.add(Node::untrusted("b", "wan"));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).name, "a");
        assert!(!reg.get(b).trusted);
        assert_eq!(reg.ids().count(), 2);
    }

    #[test]
    fn env_nodes_conversion() {
        let mut reg = NodeRegistry::new();
        reg.add(Node::untrusted("x", "untrusted_ip_domain_A").with_speed(0.5));
        let env = reg.env_nodes();
        assert_eq!(env.len(), 1);
        assert_eq!(env[0].id, "x");
        assert!(!env[0].trusted);
        assert_eq!(env[0].speed, 0.5);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        Node::trusted("n", "d").with_speed(0.0);
    }
}

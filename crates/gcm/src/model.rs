//! The component registry and its checked structural operations.
//!
//! [`Gcm`] is an arena of components. Structural operations mirror the
//! Fractal/GCM controller APIs and enforce the model's invariants:
//!
//! * content operations (add/remove child, bind/unbind) require the
//!   enclosing composite to be **stopped** — this is the invariant that
//!   forces the farm ABC to run worker addition as a stop–reconfigure–start
//!   sequence, producing the sensor blackout visible in the paper's Fig. 4;
//! * bindings connect a client interface to a server interface of equal
//!   signature, within one composite's content (with the usual Fractal
//!   import/export forms for the composite's own faces);
//! * starting a composite requires every mandatory client interface of its
//!   content to be bound, recursively.

use crate::component::{Binding, CompId, ComponentKind, Endpoint, InterfaceDecl, LcState, Role};
use crate::membrane::Membrane;
use std::fmt;

/// Errors raised by structural operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcmError {
    /// Operation requires a composite component.
    NotComposite(CompId),
    /// Component is already a child of some composite.
    HasParent(CompId),
    /// Adding the child would create a containment cycle.
    WouldCycle {
        /// Intended parent.
        parent: CompId,
        /// Intended child (an ancestor of `parent`).
        child: CompId,
    },
    /// Structural mutation attempted while the composite is started.
    MutationWhileStarted(CompId),
    /// The named interface does not exist on the component.
    UnknownInterface(CompId, String),
    /// An interface with this name is already declared.
    DuplicateInterface(CompId, String),
    /// Binding endpoints have incompatible roles.
    RoleMismatch {
        /// Offending endpoint.
        endpoint: Endpoint,
        /// Role the binding required there.
        expected: Role,
    },
    /// Binding endpoints have different signatures.
    SignatureMismatch(String, String),
    /// The client endpoint is already bound.
    AlreadyBound(Endpoint),
    /// No binding exists from this endpoint.
    NotBound(Endpoint),
    /// The endpoint's component is not part of this composite's content.
    NotInContent(CompId, CompId),
    /// The component is not a child of the given composite.
    NotChild {
        /// Composite searched.
        parent: CompId,
        /// Component that was not found among its children.
        child: CompId,
    },
    /// Start refused: a mandatory client interface is unbound.
    UnboundMandatory {
        /// Component owning the unbound interface.
        component: CompId,
        /// Interface name.
        interface: String,
    },
    /// The child still participates in bindings and cannot be removed.
    StillBound(CompId),
}

impl fmt::Display for GcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcmError::NotComposite(id) => write!(f, "component {id} is not a composite"),
            GcmError::HasParent(id) => write!(f, "component {id} already has a parent"),
            GcmError::WouldCycle { parent, child } => {
                write!(f, "adding {child} under {parent} would create a cycle")
            }
            GcmError::MutationWhileStarted(id) => {
                write!(
                    f,
                    "composite {id} is started; stop it before mutating content"
                )
            }
            GcmError::UnknownInterface(id, name) => {
                write!(f, "component {id} has no interface `{name}`")
            }
            GcmError::DuplicateInterface(id, name) => {
                write!(f, "component {id} already declares interface `{name}`")
            }
            GcmError::RoleMismatch { endpoint, expected } => write!(
                f,
                "interface `{}` on {} must be a {:?} interface here",
                endpoint.interface, endpoint.component, expected
            ),
            GcmError::SignatureMismatch(a, b) => {
                write!(f, "binding signature mismatch: `{a}` vs `{b}`")
            }
            GcmError::AlreadyBound(e) => {
                write!(
                    f,
                    "interface `{}` on {} is already bound",
                    e.interface, e.component
                )
            }
            GcmError::NotBound(e) => {
                write!(
                    f,
                    "interface `{}` on {} is not bound",
                    e.interface, e.component
                )
            }
            GcmError::NotInContent(composite, id) => {
                write!(
                    f,
                    "component {id} is not in the content of composite {composite}"
                )
            }
            GcmError::NotChild { parent, child } => {
                write!(f, "component {child} is not a child of {parent}")
            }
            GcmError::UnboundMandatory {
                component,
                interface,
            } => write!(
                f,
                "cannot start: mandatory client interface `{interface}` of {component} is unbound"
            ),
            GcmError::StillBound(id) => {
                write!(f, "component {id} still participates in bindings")
            }
        }
    }
}

impl std::error::Error for GcmError {}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: ComponentKind,
    membrane: Membrane,
    interfaces: Vec<InterfaceDecl>,
    state: LcState,
    parent: Option<CompId>,
    children: Vec<CompId>,
    bindings: Vec<Binding>,
}

/// An arena of GCM components.
#[derive(Debug, Clone, Default)]
pub struct Gcm {
    nodes: Vec<Node>,
}

impl Gcm {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a primitive component.
    pub(crate) fn primitive(&mut self, name: impl Into<String>) -> CompId {
        self.insert(name.into(), ComponentKind::Primitive, Membrane::basic())
    }

    /// Registers a plain composite component.
    pub fn composite(&mut self, name: impl Into<String>) -> CompId {
        self.insert(name.into(), ComponentKind::Composite, Membrane::composite())
    }

    /// Registers a behavioural-skeleton composite (membrane hosts AM+ABC).
    pub(crate) fn behavioural_skeleton(&mut self, name: impl Into<String>) -> CompId {
        self.insert(
            name.into(),
            ComponentKind::Composite,
            Membrane::behavioural_skeleton(),
        )
    }

    fn insert(&mut self, name: String, kind: ComponentKind, membrane: Membrane) -> CompId {
        let id = CompId(self.nodes.len());
        self.nodes.push(Node {
            name,
            kind,
            membrane,
            interfaces: Vec::new(),
            state: LcState::Stopped,
            parent: None,
            children: Vec::new(),
            bindings: Vec::new(),
        });
        id
    }

    fn node(&self, id: CompId) -> &Node {
        &self.nodes[id.0]
    }

    fn node_mut(&mut self, id: CompId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no components are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All component ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = CompId> {
        (0..self.nodes.len()).map(CompId)
    }

    // ---- name / membrane / kind accessors (name controller) ----

    /// Component name.
    pub fn name(&self, id: CompId) -> &str {
        &self.node(id).name
    }

    /// Component kind.
    pub fn kind(&self, id: CompId) -> ComponentKind {
        self.node(id).kind
    }

    /// Lifecycle state.
    pub fn state(&self, id: CompId) -> LcState {
        self.node(id).state
    }

    // ---- interface declaration ----

    /// Declares an interface on a component.
    pub(crate) fn add_interface(
        &mut self,
        id: CompId,
        decl: InterfaceDecl,
    ) -> Result<(), GcmError> {
        if self.node(id).interfaces.iter().any(|i| i.name == decl.name) {
            return Err(GcmError::DuplicateInterface(id, decl.name));
        }
        self.node_mut(id).interfaces.push(decl);
        Ok(())
    }

    /// Looks an interface up.
    pub fn interface(&self, id: CompId, name: &str) -> Result<&InterfaceDecl, GcmError> {
        self.node(id)
            .interfaces
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| GcmError::UnknownInterface(id, name.to_owned()))
    }

    // ---- content controller ----

    /// Children of a composite (empty for primitives).
    pub fn children(&self, id: CompId) -> &[CompId] {
        &self.node(id).children
    }

    /// Parent composite, if any.
    pub fn parent(&self, id: CompId) -> Option<CompId> {
        self.node(id).parent
    }

    /// Adds `child` to the content of `parent`.
    pub fn add_child(&mut self, parent: CompId, child: CompId) -> Result<(), GcmError> {
        if self.node(parent).kind != ComponentKind::Composite {
            return Err(GcmError::NotComposite(parent));
        }
        if self.node(parent).state == LcState::Started {
            return Err(GcmError::MutationWhileStarted(parent));
        }
        if self.node(child).parent.is_some() {
            return Err(GcmError::HasParent(child));
        }
        // Reject cycles: parent (or any ancestor of parent) must not be the
        // child itself.
        let mut cursor = Some(parent);
        while let Some(c) = cursor {
            if c == child {
                return Err(GcmError::WouldCycle { parent, child });
            }
            cursor = self.node(c).parent;
        }
        self.node_mut(parent).children.push(child);
        self.node_mut(child).parent = Some(parent);
        Ok(())
    }

    /// Removes `child` from the content of `parent`. The child must not
    /// participate in any of the composite's bindings.
    pub(crate) fn remove_child(&mut self, parent: CompId, child: CompId) -> Result<(), GcmError> {
        if self.node(parent).kind != ComponentKind::Composite {
            return Err(GcmError::NotComposite(parent));
        }
        if self.node(parent).state == LcState::Started {
            return Err(GcmError::MutationWhileStarted(parent));
        }
        let Some(pos) = self.node(parent).children.iter().position(|&c| c == child) else {
            return Err(GcmError::NotChild { parent, child });
        };
        let involved = self
            .node(parent)
            .bindings
            .iter()
            .any(|b| b.from.component == child || b.to.component == child);
        if involved {
            return Err(GcmError::StillBound(child));
        }
        self.node_mut(parent).children.remove(pos);
        self.node_mut(child).parent = None;
        Ok(())
    }

    // ---- binding controller ----

    /// Bindings registered in a composite's content.
    pub fn bindings(&self, id: CompId) -> &[Binding] {
        &self.node(id).bindings
    }

    /// Binds `from` (client side) to `to` (server side) inside `composite`.
    ///
    /// Fractal's three binding forms are supported:
    /// * *normal*: child client → child server;
    /// * *import*: composite's own **server** face → child server (requests
    ///   entering the composite);
    /// * *export*: child client → composite's own **client** face (requests
    ///   leaving the composite).
    pub fn bind(
        &mut self,
        composite: CompId,
        from: Endpoint,
        to: Endpoint,
    ) -> Result<(), GcmError> {
        if self.node(composite).kind != ComponentKind::Composite {
            return Err(GcmError::NotComposite(composite));
        }
        if self.node(composite).state == LcState::Started {
            return Err(GcmError::MutationWhileStarted(composite));
        }
        self.check_in_content(composite, from.component)?;
        self.check_in_content(composite, to.component)?;

        let from_decl = self.interface(from.component, &from.interface)?.clone();
        let to_decl = self.interface(to.component, &to.interface)?.clone();

        // Role checks depend on whether the endpoint is the composite's own
        // face (import/export) or a child's.
        let from_expected = if from.component == composite {
            Role::Server // import: the composite's server face forwards inward
        } else {
            Role::Client
        };
        let to_expected = if to.component == composite {
            Role::Client // export: a child's client forwards to the composite's client face
        } else {
            Role::Server
        };
        if from_decl.role != from_expected {
            return Err(GcmError::RoleMismatch {
                endpoint: from,
                expected: from_expected,
            });
        }
        if to_decl.role != to_expected {
            return Err(GcmError::RoleMismatch {
                endpoint: to,
                expected: to_expected,
            });
        }
        if from_decl.signature != to_decl.signature {
            return Err(GcmError::SignatureMismatch(
                from_decl.signature,
                to_decl.signature,
            ));
        }
        if self.node(composite).bindings.iter().any(|b| b.from == from) {
            return Err(GcmError::AlreadyBound(from));
        }
        self.node_mut(composite).bindings.push(Binding { from, to });
        Ok(())
    }

    /// Removes the binding whose client side is `from`.
    pub(crate) fn unbind(
        &mut self,
        composite: CompId,
        from: &Endpoint,
    ) -> Result<Binding, GcmError> {
        if self.node(composite).state == LcState::Started {
            return Err(GcmError::MutationWhileStarted(composite));
        }
        let pos = self
            .node(composite)
            .bindings
            .iter()
            .position(|b| &b.from == from)
            .ok_or_else(|| GcmError::NotBound(from.clone()))?;
        Ok(self.node_mut(composite).bindings.remove(pos))
    }

    fn check_in_content(&self, composite: CompId, id: CompId) -> Result<(), GcmError> {
        if id == composite || self.node(composite).children.contains(&id) {
            Ok(())
        } else {
            Err(GcmError::NotInContent(composite, id))
        }
    }

    // ---- lifecycle controller ----

    /// Starts a component and (recursively) its content.
    ///
    /// Fails if any mandatory client interface of a content child is
    /// unbound in its enclosing composite.
    pub fn start(&mut self, id: CompId) -> Result<(), GcmError> {
        self.check_startable(id)?;
        self.set_state_recursive(id, LcState::Started);
        Ok(())
    }

    /// Stops a component and (recursively) its content.
    pub fn stop(&mut self, id: CompId) {
        self.set_state_recursive(id, LcState::Stopped);
    }

    fn check_startable(&self, id: CompId) -> Result<(), GcmError> {
        if self.node(id).kind == ComponentKind::Composite {
            for &child in &self.node(id).children {
                for decl in &self.node(child).interfaces {
                    if decl.role == Role::Client && decl.mandatory {
                        let ep_bound =
                            self.node(id).bindings.iter().any(|b| {
                                b.from.component == child && b.from.interface == decl.name
                            });
                        if !ep_bound {
                            return Err(GcmError::UnboundMandatory {
                                component: child,
                                interface: decl.name.clone(),
                            });
                        }
                    }
                }
                self.check_startable(child)?;
            }
        }
        Ok(())
    }

    fn set_state_recursive(&mut self, id: CompId, state: LcState) {
        self.node_mut(id).state = state;
        let children = self.node(id).children.clone();
        for child in children {
            self.set_state_recursive(child, state);
        }
    }

    /// Renders the containment tree as an indented string (debugging aid).
    pub fn render_tree(&self, root: CompId) -> String {
        let mut out = String::new();
        self.render_into(root, 0, &mut out);
        out
    }

    fn render_into(&self, id: CompId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let n = self.node(id);
        let tag = match n.kind {
            ComponentKind::Primitive => "prim",
            ComponentKind::Composite if n.membrane.is_autonomic() => "bskel",
            ComponentKind::Composite => "comp",
        };
        let _ = writeln!(
            out,
            "{}{} {} [{}]",
            "  ".repeat(depth),
            tag,
            n.name,
            n.state
        );
        for &child in &n.children {
            self.render_into(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Gcm {
        /// The component's membrane.
        pub(crate) fn membrane(&self, id: CompId) -> &Membrane {
            &self.node(id).membrane
        }
    }

    /// Builds the composite of the paper's Fig. 2 (left): a farm BS with a
    /// scheduler S, workers W, and a collector C.
    fn farm_fixture(workers: usize) -> (Gcm, CompId, CompId, Vec<CompId>, CompId) {
        let mut g = Gcm::new();
        let farm = g.behavioural_skeleton("farm");
        let s = g.primitive("S");
        let c = g.primitive("C");
        g.add_interface(s, InterfaceDecl::client("dispatch", "task"))
            .unwrap();
        g.add_interface(c, InterfaceDecl::server("collect", "result"))
            .unwrap();
        g.add_child(farm, s).unwrap();
        g.add_child(farm, c).unwrap();
        let mut ws = Vec::new();
        for i in 0..workers {
            let w = g.primitive(format!("W{i}"));
            g.add_interface(w, InterfaceDecl::server("in", "task"))
                .unwrap();
            g.add_interface(w, InterfaceDecl::client("out", "result"))
                .unwrap();
            g.add_child(farm, w).unwrap();
            ws.push(w);
        }
        // S dispatches to W0 (representative binding); workers feed C.
        g.bind(
            farm,
            Endpoint::new(s, "dispatch"),
            Endpoint::new(ws[0], "in"),
        )
        .unwrap();
        for &w in &ws {
            g.bind(farm, Endpoint::new(w, "out"), Endpoint::new(c, "collect"))
                .unwrap();
        }
        (g, farm, s, ws, c)
    }

    #[test]
    fn build_and_start_farm() {
        let (mut g, farm, s, ws, _c) = farm_fixture(2);
        g.start(farm).unwrap();
        assert_eq!(g.state(farm), LcState::Started);
        assert_eq!(g.state(s), LcState::Started);
        assert_eq!(g.state(ws[1]), LcState::Started);
        assert_eq!(g.children(farm).len(), 4);
    }

    #[test]
    fn start_requires_mandatory_bindings() {
        let mut g = Gcm::new();
        let comp = g.composite("c");
        let a = g.primitive("a");
        g.add_interface(a, InterfaceDecl::client("needs", "svc"))
            .unwrap();
        g.add_child(comp, a).unwrap();
        let err = g.start(comp).unwrap_err();
        assert_eq!(
            err,
            GcmError::UnboundMandatory {
                component: a,
                interface: "needs".into()
            }
        );
    }

    #[test]
    fn optional_client_interfaces_do_not_block_start() {
        let mut g = Gcm::new();
        let comp = g.composite("c");
        let a = g.primitive("a");
        g.add_interface(a, InterfaceDecl::client("dbg", "log").optional())
            .unwrap();
        g.add_child(comp, a).unwrap();
        g.start(comp).unwrap();
    }

    #[test]
    fn content_mutation_requires_stopped() {
        let (mut g, farm, _s, _ws, _c) = farm_fixture(1);
        g.start(farm).unwrap();
        let w_new = g.primitive("Wnew");
        assert_eq!(
            g.add_child(farm, w_new),
            Err(GcmError::MutationWhileStarted(farm))
        );
        // The farm ABC's add-worker actuator does exactly this dance:
        g.stop(farm);
        g.add_child(farm, w_new).unwrap();
        g.start(farm).unwrap();
        assert_eq!(g.children(farm).len(), 4); // S + C + W0 + Wnew
    }

    #[test]
    fn remove_child_refuses_bound_children() {
        let (mut g, farm, _s, ws, c) = farm_fixture(2);
        assert_eq!(
            g.remove_child(farm, ws[1]),
            Err(GcmError::StillBound(ws[1]))
        );
        g.unbind(farm, &Endpoint::new(ws[1], "out")).unwrap();
        g.remove_child(farm, ws[1]).unwrap();
        assert_eq!(g.children(farm).len(), 3);
        assert!(g.parent(ws[1]).is_none());
        // collector untouched
        assert_eq!(g.parent(c), Some(farm));
    }

    #[test]
    fn bind_signature_mismatch_rejected() {
        let mut g = Gcm::new();
        let comp = g.composite("c");
        let a = g.primitive("a");
        let b = g.primitive("b");
        g.add_interface(a, InterfaceDecl::client("out", "task"))
            .unwrap();
        g.add_interface(b, InterfaceDecl::server("in", "pixel"))
            .unwrap();
        g.add_child(comp, a).unwrap();
        g.add_child(comp, b).unwrap();
        let err = g
            .bind(comp, Endpoint::new(a, "out"), Endpoint::new(b, "in"))
            .unwrap_err();
        assert_eq!(
            err,
            GcmError::SignatureMismatch("task".into(), "pixel".into())
        );
    }

    #[test]
    fn bind_role_mismatch_rejected() {
        let mut g = Gcm::new();
        let comp = g.composite("c");
        let a = g.primitive("a");
        let b = g.primitive("b");
        g.add_interface(a, InterfaceDecl::server("in", "t"))
            .unwrap();
        g.add_interface(b, InterfaceDecl::server("in", "t"))
            .unwrap();
        g.add_child(comp, a).unwrap();
        g.add_child(comp, b).unwrap();
        let err = g
            .bind(comp, Endpoint::new(a, "in"), Endpoint::new(b, "in"))
            .unwrap_err();
        assert!(matches!(err, GcmError::RoleMismatch { .. }));
    }

    #[test]
    fn double_bind_rejected() {
        let (mut g, farm, s, ws, _c) = farm_fixture(2);
        let err = g
            .bind(
                farm,
                Endpoint::new(s, "dispatch"),
                Endpoint::new(ws[1], "in"),
            )
            .unwrap_err();
        assert_eq!(err, GcmError::AlreadyBound(Endpoint::new(s, "dispatch")));
    }

    #[test]
    fn bind_outside_content_rejected() {
        let mut g = Gcm::new();
        let comp = g.composite("c");
        let a = g.primitive("a");
        let stranger = g.primitive("x");
        g.add_interface(a, InterfaceDecl::client("out", "t"))
            .unwrap();
        g.add_interface(stranger, InterfaceDecl::server("in", "t"))
            .unwrap();
        g.add_child(comp, a).unwrap();
        let err = g
            .bind(comp, Endpoint::new(a, "out"), Endpoint::new(stranger, "in"))
            .unwrap_err();
        assert_eq!(err, GcmError::NotInContent(comp, stranger));
    }

    #[test]
    fn import_export_bindings() {
        // pipeline composite: its server face forwards to stage1 (import);
        // stage1's client forwards out through the composite's client face
        // (export).
        let mut g = Gcm::new();
        let pipe = g.composite("pipe");
        let stage = g.primitive("stage");
        g.add_interface(pipe, InterfaceDecl::server("in", "t"))
            .unwrap();
        g.add_interface(pipe, InterfaceDecl::client("out", "t").optional())
            .unwrap();
        g.add_interface(stage, InterfaceDecl::server("in", "t"))
            .unwrap();
        g.add_interface(stage, InterfaceDecl::client("out", "t"))
            .unwrap();
        g.add_child(pipe, stage).unwrap();
        g.bind(pipe, Endpoint::new(pipe, "in"), Endpoint::new(stage, "in"))
            .unwrap();
        g.bind(
            pipe,
            Endpoint::new(stage, "out"),
            Endpoint::new(pipe, "out"),
        )
        .unwrap();
        g.start(pipe).unwrap();
    }

    #[test]
    fn add_child_rejects_cycles_and_double_parents() {
        let mut g = Gcm::new();
        let outer = g.composite("outer");
        let inner = g.composite("inner");
        g.add_child(outer, inner).unwrap();
        assert_eq!(
            g.add_child(inner, outer),
            Err(GcmError::WouldCycle {
                parent: inner,
                child: outer
            })
        );
        assert_eq!(
            g.add_child(outer, outer),
            Err(GcmError::WouldCycle {
                parent: outer,
                child: outer
            })
        );
        let p = g.primitive("p");
        g.add_child(inner, p).unwrap();
        assert_eq!(g.add_child(outer, p), Err(GcmError::HasParent(p)));
    }

    #[test]
    fn primitives_cannot_hold_content() {
        let mut g = Gcm::new();
        let p = g.primitive("p");
        let q = g.primitive("q");
        assert_eq!(g.add_child(p, q), Err(GcmError::NotComposite(p)));
    }

    #[test]
    fn duplicate_interface_rejected() {
        let mut g = Gcm::new();
        let p = g.primitive("p");
        g.add_interface(p, InterfaceDecl::server("in", "t"))
            .unwrap();
        assert_eq!(
            g.add_interface(p, InterfaceDecl::client("in", "t")),
            Err(GcmError::DuplicateInterface(p, "in".into()))
        );
    }

    #[test]
    fn stop_is_recursive() {
        let (mut g, farm, s, _ws, _c) = farm_fixture(1);
        g.start(farm).unwrap();
        g.stop(farm);
        assert_eq!(g.state(farm), LcState::Stopped);
        assert_eq!(g.state(s), LcState::Stopped);
    }

    #[test]
    fn render_tree_shows_structure() {
        let (g, farm, ..) = farm_fixture(1);
        let tree = g.render_tree(farm);
        assert!(tree.contains("bskel farm"));
        assert!(tree.contains("prim S"));
        assert!(tree.contains("prim W0"));
        assert!(tree.contains("prim C"));
    }

    #[test]
    fn unbind_unknown_errors() {
        let (mut g, farm, s, _ws, _c) = farm_fixture(1);
        g.unbind(farm, &Endpoint::new(s, "dispatch")).unwrap();
        assert!(matches!(
            g.unbind(farm, &Endpoint::new(s, "dispatch")),
            Err(GcmError::NotBound(_))
        ));
    }
}

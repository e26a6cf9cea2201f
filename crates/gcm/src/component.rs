//! Component records: identity, interfaces, kinds, lifecycle states.

use std::fmt;

/// Arena index identifying a component inside a [`crate::model::Gcm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub(crate) usize);

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interface role, as in Fractal: a *client* interface requires a service,
/// a *server* interface provides one. Bindings connect client → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Requires a service (outgoing).
    Client,
    /// Provides a service (incoming).
    Server,
}

/// A declared interface on a component boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDecl {
    /// Interface name, unique per component.
    pub name: String,
    /// Client or server.
    pub role: Role,
    /// Free-form signature tag; bindings require equal signatures, which
    /// stands in for Java interface-type conformance in the prototype.
    pub signature: String,
    /// Whether a client interface must be bound before start. Optional
    /// (contingent, in Fractal terms) interfaces may stay unbound.
    pub mandatory: bool,
}

impl InterfaceDecl {
    /// A mandatory client interface.
    pub fn client(name: impl Into<String>, signature: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            role: Role::Client,
            signature: signature.into(),
            mandatory: true,
        }
    }

    /// A server interface.
    pub fn server(name: impl Into<String>, signature: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            role: Role::Server,
            signature: signature.into(),
            mandatory: false,
        }
    }

    /// Marks the interface optional (contingent).
    pub(crate) fn optional(mut self) -> Self {
        self.mandatory = false;
        self
    }
}

/// Primitive components carry behaviour; composites carry content
/// (subcomponents and internal bindings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// A leaf component (sequential code in the paper's skeletons).
    Primitive,
    /// A composite with content (a behavioural skeleton is one of these).
    Composite,
}

/// Lifecycle-controller states (Fractal `LifeCycleController`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LcState {
    /// Not running; structural operations allowed.
    #[default]
    Stopped,
    /// Running; structure frozen (content/binding changes rejected).
    Started,
}

impl fmt::Display for LcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LcState::Stopped => write!(f, "STOPPED"),
            LcState::Started => write!(f, "STARTED"),
        }
    }
}

/// One end of a binding: an interface on a child, or on the composite's own
/// internal face.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// The component owning the interface (may be the composite itself for
    /// export/import bindings).
    pub component: CompId,
    /// Interface name on that component.
    pub interface: String,
}

impl Endpoint {
    /// Builds an endpoint.
    pub fn new(component: CompId, interface: impl Into<String>) -> Self {
        Self {
            component,
            interface: interface.into(),
        }
    }
}

/// A client→server binding registered in a composite's content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Client (requiring) end.
    pub from: Endpoint,
    /// Server (providing) end.
    pub to: Endpoint,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_builders() {
        let c = InterfaceDecl::client("out", "stream<T>");
        assert_eq!(c.role, Role::Client);
        assert!(c.mandatory);
        let s = InterfaceDecl::server("in", "stream<T>");
        assert_eq!(s.role, Role::Server);
        assert!(!s.mandatory);
        let opt = InterfaceDecl::client("dbg", "log").optional();
        assert!(!opt.mandatory);
    }

    #[test]
    fn lcstate_default_is_stopped() {
        assert_eq!(LcState::default(), LcState::Stopped);
        assert_eq!(LcState::Stopped.to_string(), "STOPPED");
        assert_eq!(LcState::Started.to_string(), "STARTED");
    }

    #[test]
    fn compid_displays_index() {
        assert_eq!(CompId(3).to_string(), "#3");
    }
}

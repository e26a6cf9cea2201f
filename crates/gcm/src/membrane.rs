//! Membranes: the non-functional side of a component.
//!
//! In Fractal/GCM the *membrane* hosts the controllers and, in GCM's
//! extension, full non-functional membrane components. A behavioural
//! skeleton's membrane hosts its autonomic manager (AM) and autonomic
//! behaviour controller (ABC) (paper Fig. 2, left). The membrane here
//! records which NF facilities a component carries; the facilities
//! themselves (manager objects, sensors) live in `bskel-core` /
//! `bskel-skel` and are looked up by these well-known names.

use std::collections::BTreeSet;

/// Well-known non-functional controller names.
pub(crate) mod nf {
    /// Lifecycle controller (always present).
    pub(crate) const LIFECYCLE: &str = "lifecycle-controller";
    /// Binding controller (always present).
    pub(crate) const BINDING: &str = "binding-controller";
    /// Content controller (composites only).
    pub(crate) const CONTENT: &str = "content-controller";
    /// Name controller (always present).
    pub const NAME: &str = "name-controller";
    /// Autonomic manager membrane component (behavioural skeletons).
    pub(crate) const AUTONOMIC_MANAGER: &str = "autonomic-manager";
    /// Autonomic behaviour controller: monitoring + actuation mechanisms.
    pub const ABC: &str = "autonomic-behaviour-controller";
}

/// The set of non-functional controllers a component's membrane hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Membrane {
    controllers: BTreeSet<String>,
}

impl Membrane {
    /// The minimal membrane every component carries: lifecycle, binding and
    /// name controllers.
    pub(crate) fn basic() -> Self {
        let mut controllers = BTreeSet::new();
        controllers.insert(nf::LIFECYCLE.to_owned());
        controllers.insert(nf::BINDING.to_owned());
        controllers.insert(nf::NAME.to_owned());
        Self { controllers }
    }

    /// The membrane of a composite: basic + content controller.
    pub fn composite() -> Self {
        let mut m = Self::basic();
        m.attach(nf::CONTENT);
        m
    }

    /// The membrane of a behavioural skeleton: composite + AM + ABC.
    pub(crate) fn behavioural_skeleton() -> Self {
        let mut m = Self::composite();
        m.attach(nf::AUTONOMIC_MANAGER);
        m.attach(nf::ABC);
        m
    }

    /// Attaches a (possibly custom) NF controller by name. Idempotent.
    pub fn attach(&mut self, name: impl Into<String>) {
        self.controllers.insert(name.into());
    }

    /// Whether the membrane hosts the named controller.
    pub fn has(&self, name: &str) -> bool {
        self.controllers.contains(name)
    }

    /// Whether this membrane makes its component autonomic (hosts an AM).
    pub(crate) fn is_autonomic(&self) -> bool {
        self.has(nf::AUTONOMIC_MANAGER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Membrane {
        fn controllers(&self) -> impl Iterator<Item = &str> {
            self.controllers.iter().map(String::as_str)
        }
    }

    #[test]
    fn basic_membrane_contents() {
        let m = Membrane::basic();
        assert!(m.has(nf::LIFECYCLE));
        assert!(m.has(nf::BINDING));
        assert!(m.has(nf::NAME));
        assert!(!m.has(nf::CONTENT));
        assert!(!m.is_autonomic());
    }

    #[test]
    fn composite_membrane_adds_content() {
        let m = Membrane::composite();
        assert!(m.has(nf::CONTENT));
    }

    #[test]
    fn bs_membrane_is_autonomic() {
        let m = Membrane::behavioural_skeleton();
        assert!(m.has(nf::AUTONOMIC_MANAGER));
        assert!(m.has(nf::ABC));
        assert!(m.is_autonomic());
    }

    #[test]
    fn attach_is_idempotent() {
        let mut m = Membrane::basic();
        let before = m.controllers().count();
        m.attach(nf::LIFECYCLE);
        assert_eq!(m.controllers().count(), before);
    }
}

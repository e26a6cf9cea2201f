//! Component templates for the paper's skeleton structures.
//!
//! [`functional_replication`] builds the composite of Fig. 2 (left): a
//! behavioural skeleton with a scheduler/emitter `S`, `n` workers `W_i` and
//! a collector `C`, plus the membrane AM/ABC.

use crate::component::{CompId, Endpoint, InterfaceDecl};
use crate::model::{Gcm, GcmError};

/// Ids of the parts of a functional-replication composite.
#[derive(Debug, Clone)]
pub struct FunctionalReplication {
    /// The behavioural-skeleton composite itself.
    pub farm: CompId,
    /// Scheduler/emitter primitive (`S` in Fig. 2).
    pub scheduler: CompId,
    /// Worker primitives (`W` in Fig. 2).
    pub workers: Vec<CompId>,
    /// Collector primitive (`C` in Fig. 2).
    pub collector: CompId,
}

/// Builds a functional-replication behavioural skeleton with `n_workers`
/// workers inside `gcm`, fully bound and ready to start.
pub fn functional_replication(
    gcm: &mut Gcm,
    name: &str,
    n_workers: usize,
) -> Result<FunctionalReplication, GcmError> {
    let farm = gcm.behavioural_skeleton(name);
    gcm.add_interface(farm, InterfaceDecl::server("in", "task"))?;
    gcm.add_interface(farm, InterfaceDecl::client("out", "result").optional())?;

    let scheduler = gcm.primitive(format!("{name}.S"));
    gcm.add_interface(scheduler, InterfaceDecl::server("in", "task"))?;
    let collector = gcm.primitive(format!("{name}.C"));
    gcm.add_interface(collector, InterfaceDecl::server("collect", "result"))?;
    gcm.add_interface(collector, InterfaceDecl::client("out", "result").optional())?;
    gcm.add_child(farm, scheduler)?;
    gcm.add_child(farm, collector)?;

    // The composite's input face forwards to the scheduler; the collector
    // forwards out through the composite's output face.
    gcm.bind(
        farm,
        Endpoint::new(farm, "in"),
        Endpoint::new(scheduler, "in"),
    )?;
    gcm.bind(
        farm,
        Endpoint::new(collector, "out"),
        Endpoint::new(farm, "out"),
    )?;

    let mut fr = FunctionalReplication {
        farm,
        scheduler,
        workers: Vec::with_capacity(n_workers),
        collector,
    };
    for _ in 0..n_workers {
        add_worker(gcm, &mut fr)?;
    }
    Ok(fr)
}

/// Adds one worker to an existing functional-replication composite — the
/// structural half of the farm ABC's `ADD_EXECUTOR` actuator. The composite
/// must be stopped (the runtime stops it, reconfigures, restarts; the
/// resulting sensor blackout is visible in the paper's Fig. 4).
pub fn add_worker(gcm: &mut Gcm, fr: &mut FunctionalReplication) -> Result<CompId, GcmError> {
    let idx = fr.workers.len();
    let name = gcm.name(fr.farm).to_owned();
    let w = gcm.primitive(format!("{name}.W{idx}"));
    gcm.add_interface(w, InterfaceDecl::server("in", "task"))?;
    gcm.add_interface(w, InterfaceDecl::client("out", "result"))?;
    gcm.add_child(fr.farm, w)?;
    gcm.bind(
        fr.farm,
        Endpoint::new(w, "out"),
        Endpoint::new(fr.collector, "collect"),
    )?;
    fr.workers.push(w);
    Ok(w)
}

/// Removes the most recently added worker — the structural half of
/// `REMOVE_EXECUTOR`. Returns the removed worker's id, or `None` if no
/// workers remain.
pub fn remove_worker(
    gcm: &mut Gcm,
    fr: &mut FunctionalReplication,
) -> Result<Option<CompId>, GcmError> {
    let Some(w) = fr.workers.pop() else {
        return Ok(None);
    };
    gcm.unbind(fr.farm, &Endpoint::new(w, "out"))?;
    gcm.remove_child(fr.farm, w)?;
    Ok(Some(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LcState;
    use crate::membrane::nf;

    #[test]
    fn functional_replication_builds_and_starts() {
        let mut g = Gcm::new();
        let fr = functional_replication(&mut g, "farm", 3).unwrap();
        assert_eq!(fr.workers.len(), 3);
        assert_eq!(g.children(fr.farm).len(), 5); // S + C + 3 workers
        assert!(g.membrane(fr.farm).has(nf::AUTONOMIC_MANAGER));
        assert!(g.membrane(fr.farm).has(nf::ABC));
        g.start(fr.farm).unwrap();
        assert_eq!(g.state(fr.workers[2]), LcState::Started);
    }

    #[test]
    fn add_worker_requires_stop_when_started() {
        let mut g = Gcm::new();
        let mut fr = functional_replication(&mut g, "farm", 1).unwrap();
        g.start(fr.farm).unwrap();
        assert!(add_worker(&mut g, &mut fr).is_err());
        g.stop(fr.farm);
        let w = add_worker(&mut g, &mut fr).unwrap();
        g.start(fr.farm).unwrap();
        assert_eq!(g.state(w), LcState::Started);
        assert_eq!(fr.workers.len(), 2);
    }

    #[test]
    fn remove_worker_unwinds_structure() {
        let mut g = Gcm::new();
        let mut fr = functional_replication(&mut g, "farm", 2).unwrap();
        let removed = remove_worker(&mut g, &mut fr).unwrap().unwrap();
        assert_eq!(fr.workers.len(), 1);
        assert!(g.parent(removed).is_none());
        // Removing beyond empty is a no-op.
        remove_worker(&mut g, &mut fr).unwrap().unwrap();
        assert_eq!(remove_worker(&mut g, &mut fr).unwrap(), None);
    }

    #[test]
    fn worker_names_are_sequential() {
        let mut g = Gcm::new();
        let fr = functional_replication(&mut g, "f", 2).unwrap();
        assert_eq!(g.name(fr.workers[0]), "f.W0");
        assert_eq!(g.name(fr.workers[1]), "f.W1");
        assert_eq!(g.name(fr.scheduler), "f.S");
        assert_eq!(g.name(fr.collector), "f.C");
    }
}

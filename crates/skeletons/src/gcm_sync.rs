//! GCM mirroring: the component-model view of a running skeleton.
//!
//! In the paper's prototype a behavioural skeleton *is* a GCM composite:
//! worker addition goes through the content/binding/lifecycle controllers
//! (stop → add subcomponent → bind → start). Our threaded runtime executes
//! on channels and threads for efficiency, but the GCM structure is still
//! the system's introspectable self-model. [`GcmMirroredFarm`] wraps a
//! farm's control surface so every reconfiguration is *also* performed on
//! a `bskel_gcm::Gcm` composite, with the model's invariants (no content
//! mutation while started) enforced on every step — if the runtime and the
//! model ever disagreed, the controllers would reject the operation and
//! the mirror surfaces it as a refusal.

use crate::farm::FarmControl;
use bskel_gcm::templates::{self, FunctionalReplication};
use bskel_gcm::{Gcm, LcState};
use bskel_monitor::{SensorSnapshot, Time};
use parking_lot::Mutex;
use std::sync::Arc;

/// A [`FarmControl`] decorator that replays every structural operation on
/// a GCM composite.
// Public: paper feature S15 in DESIGN.md (GCM/runtime mirroring).
pub struct GcmMirroredFarm {
    inner: Arc<dyn FarmControl>,
    model: Mutex<(Gcm, FunctionalReplication)>,
}

impl GcmMirroredFarm {
    /// Wraps `inner`, building a GCM composite with one worker component
    /// per current runtime worker, fully bound and started.
    pub fn new(inner: Arc<dyn FarmControl>, name: &str) -> Self {
        let mut gcm = Gcm::new();
        let fr = templates::functional_replication(&mut gcm, name, inner.num_workers())
            .expect("fresh registry accepts the template");
        gcm.start(fr.farm).expect("template is fully bound");
        Self {
            inner,
            model: Mutex::new((gcm, fr)),
        }
    }

    /// A snapshot of the mirrored component model.
    pub fn model(&self) -> Gcm {
        self.model.lock().0.clone()
    }

    /// Renders the mirrored containment tree.
    pub fn render(&self) -> String {
        let m = self.model.lock();
        m.0.render_tree(m.1.farm)
    }

    /// Number of worker components in the mirror (must equal the runtime's
    /// parallelism degree at quiescence).
    // Public: paper feature S15 in DESIGN.md (GCM/runtime mirroring).
    pub fn model_workers(&self) -> usize {
        self.model.lock().1.workers.len()
    }

    /// Whether the mirrored composite is started.
    // Public: paper feature S15 in DESIGN.md (GCM/runtime mirroring).
    pub fn model_started(&self) -> bool {
        let m = self.model.lock();
        m.0.state(m.1.farm) == LcState::Started
    }
}

impl FarmControl for GcmMirroredFarm {
    fn sense(&self, now: Time) -> SensorSnapshot {
        self.inner.sense(now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        let got = self.inner.add_workers(n)?;
        let mut m = self.model.lock();
        let (gcm, fr) = &mut *m;
        // The paper's reconfiguration protocol: stop, mutate content,
        // restart. The content controller would reject mutation while
        // started.
        gcm.stop(fr.farm);
        for _ in 0..got {
            templates::add_worker(gcm, fr).map_err(|e| format!("GCM mirror diverged: {e}"))?;
        }
        gcm.start(fr.farm)
            .map_err(|e| format!("GCM mirror failed to restart: {e}"))?;
        Ok(got)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        let got = self.inner.remove_workers(n)?;
        let mut m = self.model.lock();
        let (gcm, fr) = &mut *m;
        gcm.stop(fr.farm);
        for _ in 0..got {
            templates::remove_worker(gcm, fr).map_err(|e| format!("GCM mirror diverged: {e}"))?;
        }
        gcm.start(fr.farm)
            .map_err(|e| format!("GCM mirror failed to restart: {e}"))?;
        Ok(got)
    }

    fn rebalance(&self) -> bool {
        // Queue contents are not part of the component structure.
        self.inner.rebalance()
    }

    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        let got = self.inner.kill_workers(n)?;
        // A failure is still a structural change: the self-model drops the
        // dead worker components so introspection matches reality.
        let mut m = self.model.lock();
        let (gcm, fr) = &mut *m;
        gcm.stop(fr.farm);
        for _ in 0..got {
            templates::remove_worker(gcm, fr).map_err(|e| format!("GCM mirror diverged: {e}"))?;
        }
        gcm.start(fr.farm)
            .map_err(|e| format!("GCM mirror failed to restart: {e}"))?;
        Ok(got)
    }

    fn workers_lost(&self) -> u64 {
        self.inner.workers_lost()
    }

    fn events(&self) -> Vec<crate::farm::FarmEvent> {
        self.inner.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abc_impl::FarmAbc;
    use crate::farm::FarmBuilder;
    use crate::stream::StreamMsg;
    use bskel_core::abc::{Abc, ActuationOutcome, ManagerOp};
    use bskel_gcm::ComponentKind;

    fn mirrored_farm(workers: u32) -> (crate::farm::Farm<u64, u64>, Arc<GcmMirroredFarm>) {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(workers)
            .max_workers(8)
            .build();
        let mirror = Arc::new(GcmMirroredFarm::new(farm.control(), "farm"));
        (farm, mirror)
    }

    #[test]
    fn mirror_tracks_initial_structure() {
        let (farm, mirror) = mirrored_farm(3);
        assert_eq!(mirror.model_workers(), 3);
        assert!(mirror.model_started());
        let tree = mirror.render();
        assert!(tree.contains("bskel farm"), "{tree}");
        assert!(tree.contains("farm.W2"), "{tree}");
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn add_and_remove_keep_model_in_sync() {
        let (farm, mirror) = mirrored_farm(2);
        let ctl: Arc<dyn FarmControl> = mirror.clone();
        assert_eq!(ctl.add_workers(2), Ok(2));
        assert_eq!(mirror.model_workers(), 4);
        assert_eq!(farm.num_workers(), 4);
        assert_eq!(ctl.remove_workers(1), Ok(1));
        assert_eq!(mirror.model_workers(), 3);
        assert!(mirror.model_started(), "restarted after each mutation");
        // Model components carry the right kinds.
        let model = mirror.model();
        let root = model
            .ids()
            .find(|&id| model.name(id) == "farm")
            .expect("root exists");
        assert_eq!(model.kind(root), ComponentKind::Composite);
        assert_eq!(model.children(root).len(), 3 + 2); // S + C + workers
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn refused_runtime_operation_leaves_model_untouched() {
        let (farm, mirror) = mirrored_farm(2);
        let ctl: Arc<dyn FarmControl> = mirror.clone();
        // Runtime cap is 8; ask for far more in one call.
        assert!(ctl.add_workers(100).is_err());
        assert_eq!(mirror.model_workers(), 2, "mirror untouched on refusal");
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn injected_failure_updates_model() {
        let (farm, mirror) = mirrored_farm(3);
        let ctl: Arc<dyn FarmControl> = mirror.clone();
        assert_eq!(ctl.kill_workers(1), Ok(1));
        assert_eq!(mirror.model_workers(), 2, "dead worker left the model");
        assert_eq!(ctl.workers_lost(), 1);
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn manager_driven_reconfiguration_updates_model() {
        // The full stack: an ABC over the mirror, actuated as a manager
        // would.
        let (farm, mirror) = mirrored_farm(1);
        let mut abc = FarmAbc::new(mirror.clone() as Arc<dyn FarmControl>);
        assert_eq!(
            abc.actuate(&ManagerOp::AddWorkers(2), 0.0).unwrap(),
            ActuationOutcome::Applied
        );
        assert_eq!(mirror.model_workers(), 3);
        assert_eq!(abc.sense(0.0).num_workers, 3);
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }
}

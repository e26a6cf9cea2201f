//! Read-copy-update publication for reconfigurable state.
//!
//! The farm emitter used to take the worker-list mutex *per task* just to
//! pick a queue — a lock shared with the (rare) reconfiguration path. The
//! RCU idiom inverts that cost: reconfiguration *publishes* a brand-new
//! immutable table ([`Published::publish`]) and bumps a generation
//! counter; steady-state readers hold a [`ReadHandle`] that caches the
//! current `Arc` and revalidates with **one atomic load** per access,
//! touching the slot mutex only when the generation actually moved — i.e.
//! only across a reconfiguration.
//!
//! This is safe-Rust RCU: grace periods are delegated to `Arc` reference
//! counting (an unpublished table dies when its last cached handle lets
//! go), so no epochs, no deferred reclamation, no `unsafe`.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A value slot whose current version is swapped atomically-by-publication
/// and read wait-free through cached [`ReadHandle`]s.
#[derive(Debug)]
pub struct Published<T> {
    /// Bumped after every publish; readers revalidate against it.
    generation: AtomicU64,
    /// The current version. Only locked by publishers and by readers whose
    /// cached generation went stale — never on the steady-state path.
    slot: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    /// Publishes an initial value at generation 0.
    pub fn new(value: T) -> Self {
        Self {
            generation: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// The current generation number (0 until the first re-publish).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Replaces the current value. Readers observe the new version on
    /// their next access; old versions die with their last reader.
    pub fn publish(&self, value: T) {
        *self.slot.lock() = Arc::new(value);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// A one-off read (locks the slot — reconfiguration/sensing cadence,
    /// not the per-task path; per-task readers use [`ReadHandle`]).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock())
    }
}

/// A reader's cached view of a [`Published`] slot.
///
/// `get` costs one `Acquire` load while the generation is unchanged; on a
/// publish it refreshes through the slot lock once and returns to the
/// wait-free regime.
#[derive(Debug)]
pub struct ReadHandle<T> {
    source: Arc<Published<T>>,
    cached: Arc<T>,
    generation: u64,
}

impl<T> ReadHandle<T> {
    /// Creates a handle over `source`, caching its current version.
    pub fn new(source: Arc<Published<T>>) -> Self {
        let generation = source.generation();
        let cached = source.load();
        Self {
            source,
            cached,
            generation,
        }
    }

    /// The current value; revalidates the cache iff a publish happened.
    #[inline]
    pub fn get(&mut self) -> &Arc<T> {
        let gen_now = self.source.generation.load(Ordering::Acquire);
        if gen_now != self.generation {
            // Read the generation before the slot: the slot content is
            // then at least as new as `gen_now`, so caching that pair can
            // only under-report the generation — the next access merely
            // refreshes again, which is correct and cheap.
            self.cached = self.source.load();
            self.generation = gen_now;
        }
        &self.cached
    }
}

impl<T> Clone for ReadHandle<T> {
    fn clone(&self) -> Self {
        Self {
            source: Arc::clone(&self.source),
            cached: Arc::clone(&self.cached),
            generation: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_handle_sees_publishes() {
        let p = Arc::new(Published::new(vec![1, 2, 3]));
        let mut r = ReadHandle::new(Arc::clone(&p));
        assert_eq!(**r.get(), vec![1, 2, 3]);
        p.publish(vec![4]);
        assert_eq!(**r.get(), vec![4]);
        assert_eq!(p.generation(), 1);
    }

    #[test]
    fn stale_handles_keep_old_version_alive() {
        let p = Arc::new(Published::new(String::from("old")));
        let mut r = ReadHandle::new(Arc::clone(&p));
        let pinned = Arc::clone(r.get()); // simulate an in-flight use
        p.publish(String::from("new"));
        assert_eq!(*pinned, "old", "pinned version unaffected by publish");
        assert_eq!(**r.get(), "new");
    }

    #[test]
    fn concurrent_publish_and_read_converges() {
        let p = Arc::new(Published::new(0u64));
        let writer = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                for i in 1..=1000u64 {
                    p.publish(i);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mut r = ReadHandle::new(Arc::clone(&p));
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = **r.get();
                        assert!(v >= last, "reads are monotone: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let mut r = ReadHandle::new(p);
        assert_eq!(**r.get(), 1000);
    }
}

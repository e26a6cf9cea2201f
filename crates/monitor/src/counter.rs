//! Hot-path counters.
//!
//! Skeleton workers increment these on every task; the manager's control
//! loop reads them once per second. The write side must therefore be as
//! cheap as possible and must never contend with the (rare) read side.
//! Counters are monotone `u64` atomics padded to a cache line so that
//! per-worker counters placed in a `Vec` do not false-share.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads the wrapped value to (at least) a typical cache-line size.
///
/// 64 bytes covers x86-64; 128 would also cover Apple Silicon's 128-byte
/// lines, but 64 is the conventional compromise (crossbeam uses a
/// per-platform table; we keep this substrate dependency-free).
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// A monotone event counter (tasks received, tasks completed, bytes moved).
///
/// `fetch_add` with relaxed ordering: the counter carries no synchronisation
/// obligations of its own — readers only need an eventually-consistent
/// value, which relaxed atomics provide.
#[derive(Debug, Default)]
pub struct Counter {
    value: CachePadded<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero, returning the previous value.
    ///
    /// Used by delta-sampling monitors that convert a counter into a rate by
    /// reading-and-resetting once per control period.
    pub fn take(&self) -> u64 {
        self.value.0.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_cache_line_sized() {
        assert!(std::mem::size_of::<Counter>() >= 64);
        assert_eq!(std::mem::align_of::<Counter>(), 64);
    }

    #[test]
    fn counter_concurrent_increments_sum() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}

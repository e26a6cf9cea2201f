//! Lock-free windowed rate estimation.
//!
//! [`rate::RateEstimator`](crate::rate::RateEstimator) keeps exact event
//! timestamps behind `&mut self`, which forces the skeleton hot path to
//! wrap it in a mutex — one more lock acquired *per task* by the emitter
//! and the collector. [`AtomicRateEstimator`] is its shared-memory
//! sibling: the window is discretised into a ring of cache-padded atomic
//! buckets keyed by a coarse time epoch, so any number of threads can
//! [`record`](AtomicRateEstimator::record) through `&self` wait-free and
//! the manager's once-per-second [`rate`](AtomicRateEstimator::rate) read
//! never blocks a writer.
//!
//! The trade-off is resolution: the window edge is quantised to one
//! bucket width (`window / buckets`), so a rate read can include events
//! up to one bucket older than `now - window`. Skeleton sensing tolerates
//! this — the paper's rules compare rates against contract thresholds
//! over second-scale windows, not bucket-scale ones.

use crate::clock::Time;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of ring buckets when not specified explicitly.
const DEFAULT_BUCKETS: usize = 16;

/// One ring slot: the low 32 bits count events, the high 32 bits tag the
/// epoch the count belongs to, so a single CAS keeps tag and count
/// consistent (no torn reset between a lazy bucket recycle and a
/// concurrent increment). Padded so adjacent buckets do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Bucket(AtomicU64);

fn pack(tag: u32, count: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(count)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A sliding-window event-rate estimator shared by reference.
///
/// Semantics mirror [`rate::RateEstimator`](crate::rate::RateEstimator):
/// the rate is `events in (now - window, now] / window` and therefore
/// *decays as the query time advances* past the last event; [`reset`]
/// empties the window (the paper's post-reconfiguration sensor blackout)
/// but preserves the lifetime [`total`].
///
/// [`reset`]: AtomicRateEstimator::reset
/// [`total`]: AtomicRateEstimator::total
#[derive(Debug)]
pub struct AtomicRateEstimator {
    window: f64,
    bucket_width: f64,
    buckets: Vec<Bucket>,
    total: AtomicU64,
    /// Bit pattern of the latest event time; `f64::NAN` bits when no event
    /// has ever been recorded.
    last_event_bits: AtomicU64,
}

impl AtomicRateEstimator {
    /// Creates an estimator over a sliding window of `window` seconds with
    /// the default bucket count.
    ///
    /// # Panics
    /// Panics unless `window` is finite and positive.
    pub fn new(window: f64) -> Self {
        Self::with_buckets(window, DEFAULT_BUCKETS)
    }

    /// Creates an estimator with an explicit ring size. More buckets mean
    /// a sharper window edge at the cost of a longer read loop.
    ///
    /// # Panics
    /// Panics unless `window` is finite and positive and `buckets >= 2`.
    pub(crate) fn with_buckets(window: f64, buckets: usize) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "rate window must be finite and positive"
        );
        assert!(buckets >= 2, "need at least two ring buckets");
        Self {
            window,
            bucket_width: window / buckets as f64,
            buckets: (0..buckets).map(|_| Bucket::default()).collect(),
            total: AtomicU64::new(0),
            last_event_bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// The window length in seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    fn epoch_of(&self, t: Time) -> u64 {
        if t <= 0.0 {
            0
        } else {
            (t / self.bucket_width) as u64
        }
    }

    /// The epoch a slot would hold for a query at `now_epoch`: the most
    /// recent epoch `e <= now_epoch` with `e % buckets == slot`, or `None`
    /// when no such epoch exists yet (early in time).
    fn slot_epoch(&self, now_epoch: u64, slot: usize) -> Option<u64> {
        let n = self.buckets.len() as u64;
        let r = now_epoch % n;
        let s = slot as u64;
        let delta = if s <= r { r - s } else { r + n - s };
        now_epoch.checked_sub(delta)
    }

    /// Records one event at time `t`. Wait-free for all practical
    /// purposes (a CAS loop that only retries under same-bucket
    /// contention).
    #[inline]
    pub fn record(&self, t: Time) {
        self.record_n(t, 1);
    }

    /// Records `n` simultaneous events at time `t` — the batched-dispatch
    /// entry point: one call per drained batch instead of one per task.
    pub fn record_n(&self, t: Time, n: u64) {
        if n == 0 {
            return;
        }
        let epoch = self.epoch_of(t);
        let tag = epoch as u32; // low 32 bits; aliasing needs 2^32 epochs
        let cell = &self.buckets[(epoch % self.buckets.len() as u64) as usize].0;
        let add = u32::try_from(n).unwrap_or(u32::MAX);
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let (cur_tag, cur_count) = unpack(cur);
            let next = if cur_tag == tag {
                pack(tag, cur_count.saturating_add(add))
            } else {
                // The slot still holds a stale epoch: recycle it.
                pack(tag, add)
            };
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        self.total.fetch_add(n, Ordering::Relaxed);
        // Advance the last-event time monotonically (events may arrive
        // slightly out of order across threads).
        let mut cur = self.last_event_bits.load(Ordering::Relaxed);
        loop {
            // NaN (the "never" sentinel) fails every `>=` comparison, so
            // the first event always proceeds to the exchange.
            if f64::from_bits(cur) >= t {
                break;
            }
            match self.last_event_bits.compare_exchange_weak(
                cur,
                t.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Number of events currently inside the window ending at `now`,
    /// up to bucket-width quantisation at the trailing edge.
    pub(crate) fn in_window(&self, now: Time) -> u64 {
        let now_epoch = self.epoch_of(now);
        let mut count = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            let (tag, c) = unpack(bucket.0.load(Ordering::Relaxed));
            if self.slot_epoch(now_epoch, slot).map(|e| e as u32) == Some(tag) {
                count += u64::from(c);
            }
        }
        count
    }

    /// Events per second over the window ending at `now`. Decays toward
    /// zero as `now` advances past the last recorded event.
    pub fn rate(&self, now: Time) -> f64 {
        self.in_window(now) as f64 / self.window
    }

    /// Lifetime event count; unaffected by [`reset`](Self::reset).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Time of the latest recorded event, if any. Survives `reset` (the
    /// blackout hides the *rate*, not the fact that traffic existed).
    pub(crate) fn last_event(&self) -> Option<Time> {
        let t = f64::from_bits(self.last_event_bits.load(Ordering::Relaxed));
        (!t.is_nan()).then_some(t)
    }

    /// Seconds since the latest event as seen from `now` (clamped at 0),
    /// or `None` when nothing was ever recorded.
    pub fn idle_for(&self, now: Time) -> Option<f64> {
        self.last_event().map(|t| (now - t).max(0.0))
    }

    /// Empties the window as of `now` while keeping [`total`](Self::total)
    /// — the post-reconfiguration blackout: stale pre-reconfiguration
    /// samples must not bias the next manager reading.
    pub fn reset(&self, now: Time) {
        let now_epoch = self.epoch_of(now);
        for (slot, bucket) in self.buckets.iter().enumerate() {
            // A zero count is inert whatever the tag, so the fallback tag
            // for not-yet-reachable slots is harmless.
            let tag = self.slot_epoch(now_epoch, slot).unwrap_or(0) as u32;
            bucket.0.store(pack(tag, 0), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn steady_stream_rate() {
        let est = AtomicRateEstimator::new(2.0);
        // 10 events/s for 2 s.
        for i in 0..20 {
            est.record(i as f64 * 0.1);
        }
        let r = est.rate(1.95);
        assert!((r - 10.0).abs() < 1.5, "rate ~10/s, got {r}");
        assert_eq!(est.total(), 20);
    }

    #[test]
    fn rate_decays_when_stream_stalls() {
        let est = AtomicRateEstimator::new(1.0);
        for i in 0..10 {
            est.record(i as f64 * 0.05);
        }
        assert!(est.rate(0.5) > 0.0);
        assert_eq!(est.rate(10.0), 0.0, "window fully aged out");
        assert_eq!(est.total(), 10);
    }

    #[test]
    fn record_n_counts_batch() {
        let est = AtomicRateEstimator::new(4.0);
        est.record_n(1.0, 32);
        est.record_n(1.1, 0);
        assert_eq!(est.in_window(1.2), 32);
        assert!((est.rate(1.2) - 8.0).abs() < 1e-9);
        assert_eq!(est.total(), 32);
    }

    #[test]
    fn reset_clears_window_but_keeps_total() {
        let est = AtomicRateEstimator::new(2.0);
        for i in 0..10 {
            est.record(0.1 * i as f64);
        }
        est.reset(1.0);
        assert_eq!(est.rate(1.0), 0.0);
        assert_eq!(est.total(), 10);
        est.record(1.2);
        assert_eq!(est.in_window(1.3), 1, "fresh events count after reset");
    }

    #[test]
    fn idle_for_tracks_last_event() {
        let est = AtomicRateEstimator::new(1.0);
        assert_eq!(est.idle_for(5.0), None);
        est.record(2.0);
        est.record(1.5); // out of order: must not regress
        assert_eq!(est.last_event(), Some(2.0));
        let idle = est.idle_for(3.25).unwrap();
        assert!((idle - 1.25).abs() < 1e-12);
    }

    #[test]
    fn window_panics_rejected() {
        assert!(std::panic::catch_unwind(|| AtomicRateEstimator::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| AtomicRateEstimator::new(f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(|| AtomicRateEstimator::with_buckets(1.0, 1)).is_err());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let est = Arc::new(AtomicRateEstimator::new(8.0));
        let threads: Vec<_> = (0..8)
            .map(|k| {
                let est = Arc::clone(&est);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        est.record(0.5 + (k as f64) * 1e-7 + (i as f64) * 1e-9);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(est.total(), 80_000);
        assert_eq!(est.in_window(1.0), 80_000, "all events in one window");
    }

    #[test]
    fn ring_recycles_old_buckets() {
        let est = AtomicRateEstimator::with_buckets(1.0, 4);
        est.record(0.1);
        // Far in the future the slot is recycled for the new epoch.
        est.record(100.0);
        assert_eq!(est.in_window(100.1), 1);
        assert_eq!(est.total(), 2);
    }
}

//! Online statistics.
//!
//! The `CheckLoadBalance` rule of the paper (Fig. 5) fires on a
//! `QueueVarianceBean`: the dispersion of per-worker queue lengths in a
//! farm. This module provides the [`queue_variance`] helper computing that
//! bean, plus the online ([`Welford`]) accumulator used for service-time
//! smoothing.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Numerically stable online mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Reconstructs an accumulator from its transported parts (count,
    /// mean, sum of squared deviations, min, max) — the inverse of the
    /// accessors, used to ship a remote worker's statistic over the wire
    /// and merge it on the receiving side.
    pub fn from_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        if n == 0 {
            return Self::new();
        }
        Self {
            n,
            mean,
            m2: m2.max(0.0),
            min,
            max,
        }
    }

    /// Sum of squared deviations from the mean (the raw `M2` term).
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Feeds one sample.
    pub fn update(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest sample seen, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination), enabling per-worker accumulators to be folded into a
    /// farm-level statistic without locking on the hot path.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.n = n_total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A lock-free published view of a single-writer [`Welford`] accumulator.
///
/// The skeleton hot path must not funnel every worker's service-time
/// sample through one `Mutex<Welford>`: with sub-microsecond tasks the
/// workers spend more time on that lock than on the tasks. Instead each
/// worker owns a private [`Welford`] (see [`LocalStats`]) and publishes it
/// into its cell after every sample; the manager's snapshot merges the
/// per-worker cells on its own (cold) cadence with [`Welford::merge`].
///
/// Publication uses a seqlock: an even/odd version word brackets the five
/// value words. Readers retry while a write is in flight or intervened —
/// the *writer* never waits, which is the asymmetry the hot path needs.
/// All fields are atomics, so the scheme is race-free safe Rust; the
/// version word only provides cross-field consistency.
///
/// `publish` must only ever be called from one thread at a time (it is a
/// single-writer protocol); [`LocalStats`] enforces this by ownership.
#[derive(Debug, Default)]
#[repr(align(64))] // keep per-worker cells in a Vec from false sharing
pub struct WelfordCell {
    /// Seqlock version: odd while a publish is in flight.
    version: AtomicU64,
    n: AtomicU64,
    mean_bits: AtomicU64,
    m2_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl WelfordCell {
    /// Creates a cell holding an empty accumulator.
    pub fn new() -> Self {
        let cell = Self::default();
        // Default atomics are all-zero; fix min/max to the empty-Welford
        // sentinels so a read before the first publish is a valid empty.
        cell.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        cell.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        cell
    }

    /// Publishes a snapshot of `w`. Single-writer: the owning worker.
    pub fn publish(&self, w: &Welford) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed); // odd: in flight
        fence(Ordering::Release);
        self.n.store(w.n, Ordering::Relaxed);
        self.mean_bits.store(w.mean.to_bits(), Ordering::Relaxed);
        self.m2_bits.store(w.m2.to_bits(), Ordering::Relaxed);
        self.min_bits.store(w.min.to_bits(), Ordering::Relaxed);
        self.max_bits.store(w.max.to_bits(), Ordering::Relaxed);
        self.version.store(v.wrapping_add(2), Ordering::Release); // even: settled
    }

    /// Reads a consistent snapshot, retrying if a publish intervenes.
    pub fn read(&self) -> Welford {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = Welford {
                n: self.n.load(Ordering::Relaxed),
                mean: f64::from_bits(self.mean_bits.load(Ordering::Relaxed)),
                m2: f64::from_bits(self.m2_bits.load(Ordering::Relaxed)),
                min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            };
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                return snap;
            }
            std::hint::spin_loop();
        }
    }
}

/// A worker-owned statistics accumulator publishing through a
/// [`WelfordCell`].
///
/// The accumulator itself is plain unsynchronised [`Welford`] updated by
/// the owning worker thread; every update is then published to the shared
/// cell so a snapshotting manager sees a view at most one sample old.
#[derive(Debug)]
pub struct LocalStats {
    local: Welford,
    cell: Arc<WelfordCell>,
}

impl LocalStats {
    /// Creates an accumulator publishing into `cell`. The caller must be
    /// the cell's only writer.
    pub fn new(cell: Arc<WelfordCell>) -> Self {
        Self {
            local: Welford::new(),
            cell,
        }
    }

    /// Feeds one sample and publishes the updated statistic.
    #[inline]
    pub fn update(&mut self, x: f64) {
        self.local.update(x);
        self.cell.publish(&self.local);
    }

    /// The private accumulator (the owning thread's exact view).
    pub fn local(&self) -> &Welford {
        &self.local
    }
}

/// Population variance of per-worker queue lengths — the paper's
/// `QueueVarianceBean`.
///
/// An empty farm (no workers) has zero variance by definition: there is
/// nothing to rebalance.
pub fn queue_variance(queue_lengths: &[u64]) -> f64 {
    let n = queue_lengths.len();
    if n < 2 {
        return 0.0;
    }
    let mean = queue_lengths.iter().sum::<u64>() as f64 / n as f64;
    queue_lengths
        .iter()
        .map(|&q| {
            let d = q as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.update(x);
        }
        assert!((w.mean() - 4.5).abs() < 1e-12);
        assert!((w.variance() - naive_variance(&xs)).abs() < 1e-12);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(8.0));
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        w.update(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0, 10.0, 20.0];
        let ys = [4.0, 5.0, 6.0];
        let mut all = Welford::new();
        for &x in xs.iter().chain(ys.iter()) {
            all.update(x);
        }
        let mut a = Welford::new();
        for &x in &xs {
            a.update(x);
        }
        let mut b = Welford::new();
        for &y in &ys {
            b.update(y);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.update(1.0);
        a.update(2.0);
        let before = (a.mean(), a.variance(), a.count());
        a.merge(&Welford::new());
        assert_eq!((a.mean(), a.variance(), a.count()), before);

        let mut empty = Welford::new();
        empty.merge(&a);
        assert!((empty.mean() - a.mean()).abs() < 1e-12);
    }

    #[test]
    fn queue_variance_balanced_is_zero() {
        assert_eq!(queue_variance(&[5, 5, 5, 5]), 0.0);
        assert_eq!(queue_variance(&[]), 0.0);
        assert_eq!(queue_variance(&[9]), 0.0);
    }

    #[test]
    fn queue_variance_unbalanced() {
        // mean 5, deviations [-5, +5] => variance 25
        assert!((queue_variance(&[0, 10]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn welford_cell_roundtrip() {
        let cell = WelfordCell::new();
        let empty = cell.read();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), None);

        let mut w = Welford::new();
        for x in [1.0, 4.0, 2.0, 8.0] {
            w.update(x);
        }
        cell.publish(&w);
        let got = cell.read();
        assert_eq!(got.count(), 4);
        assert!((got.mean() - w.mean()).abs() < 1e-12);
        assert!((got.variance() - w.variance()).abs() < 1e-12);
        assert_eq!(got.min(), Some(1.0));
        assert_eq!(got.max(), Some(8.0));
    }

    #[test]
    fn local_stats_publish_every_update() {
        let cell = std::sync::Arc::new(WelfordCell::new());
        let mut stats = LocalStats::new(std::sync::Arc::clone(&cell));
        stats.update(3.0);
        stats.update(5.0);
        let snap = cell.read();
        assert_eq!(snap.count(), 2);
        assert!((snap.mean() - 4.0).abs() < 1e-12);
        assert_eq!(stats.local().count(), 2);
    }

    #[test]
    fn welford_cell_reads_are_internally_consistent_under_writes() {
        // The seqlock must never hand a reader a snapshot mixing two
        // publishes. With samples all equal to a constant, any consistent
        // snapshot has (mean == c, m2 == 0); a torn read would show an
        // impossible combination (non-zero variance or a mean between
        // publishes). Hammer from one writer and several readers.
        let cell = std::sync::Arc::new(WelfordCell::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let cell = std::sync::Arc::clone(&cell);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stats = LocalStats::new(cell);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    stats.update(7.25); // exactly representable
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = std::sync::Arc::clone(&cell);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let w = cell.read();
                        if w.count() > 0 {
                            assert_eq!(w.mean(), 7.25, "torn mean");
                            assert_eq!(w.variance(), 0.0, "torn m2");
                            assert_eq!(w.min(), Some(7.25));
                            assert_eq!(w.max(), Some(7.25));
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        let seen: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(seen > 0, "readers observed published data");
    }
}

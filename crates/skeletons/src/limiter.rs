//! Paced stream sources.
//!
//! The producer stage of the paper's Fig. 4 emits tasks at a rate its
//! manager controls: `incRate`/`decRate` contracts translate into
//! [`PacedSource`] rate changes. The rate is an atomic `f64` so the source
//! thread reads it per emission without locking and the manager's actuator
//! updates it from another thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A thread-safe emission-rate knob (tasks/second).
#[derive(Debug)]
pub(crate) struct RateKnob {
    bits: AtomicU64,
}

/// Forces a rate into the knob's sane positive range. `f64::clamp`
/// propagates NaN, so that case is pinned to the floor explicitly —
/// an AM actuator fed a degenerate scenario-derived rate must never
/// panic or poison the knob.
fn sanitize(rate: f64) -> f64 {
    if rate.is_nan() {
        1e-6
    } else {
        rate.clamp(1e-6, 1e9)
    }
}

impl RateKnob {
    /// Creates a knob at the given rate, clamped to a sane positive range
    /// (same policy as [`RateKnob::set`] — a non-positive or non-finite
    /// scenario-derived rate must not panic an actuator path).
    pub fn new(rate: f64) -> Arc<Self> {
        Arc::new(Self {
            bits: AtomicU64::new(sanitize(rate).to_bits()),
        })
    }

    /// Current rate in tasks/second.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Multiplies the rate by `factor` (the `IncRate`/`DecRate` actuators).
    pub fn scale(&self, factor: f64) -> f64 {
        // A CAS loop keeps concurrent scalings composable.
        loop {
            let cur = self.bits.load(Ordering::Acquire);
            let new = sanitize(f64::from_bits(cur) * factor);
            if self
                .bits
                .compare_exchange(cur, new.to_bits(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return new;
            }
        }
    }

    /// Seconds between emissions at the current rate.
    pub fn interval(&self) -> f64 {
        1.0 / self.get()
    }
}

/// A paced source: emits `count` generated items at the knob's rate.
///
/// Construction returns the knob (for the manager's actuator) and the
/// source is started with [`PacedSource::spawn`], which feeds a crossbeam
/// channel with [`crate::stream::StreamMsg`]s and finishes with `End`.
pub struct PacedSource<T> {
    knob: Arc<RateKnob>,
    generate: Box<dyn FnMut(u64) -> T + Send>,
    count: u64,
    metrics: Option<Arc<crate::seq::StageMetrics>>,
}

impl<T: Send + 'static> PacedSource<T> {
    /// A source producing `count` items via `generate(seq)`, initially at
    /// `rate` tasks/s.
    pub fn new(rate: f64, count: u64, generate: impl FnMut(u64) -> T + Send + 'static) -> Self {
        Self {
            knob: RateKnob::new(rate),
            generate: Box::new(generate),
            count,
            metrics: None,
        }
    }

    /// Attaches stage metrics: each emission records a departure, and the
    /// end of the stream is marked, so a `SourceAbc` can monitor the
    /// source.
    pub(crate) fn with_metrics(mut self, metrics: Arc<crate::seq::StageMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The rate knob controlling this source.
    pub(crate) fn knob(&self) -> Arc<RateKnob> {
        Arc::clone(&self.knob)
    }

    /// Spawns the emitting thread, sending into `tx`.
    ///
    /// Emission uses absolute-deadline pacing (not fixed sleeps), so rate
    /// changes take effect at the next emission and sleep jitter does not
    /// accumulate into rate error.
    pub fn spawn(
        mut self,
        tx: crossbeam::channel::Sender<crate::stream::StreamMsg<T>>,
    ) -> std::thread::JoinHandle<u64> {
        std::thread::Builder::new()
            .name("bskel-source".into())
            .spawn(move || {
                let start = std::time::Instant::now();
                let mut next_deadline = 0.0f64;
                let mut sent = 0u64;
                for seq in 0..self.count {
                    next_deadline += self.knob.interval();
                    loop {
                        let elapsed = start.elapsed().as_secs_f64();
                        let wait = next_deadline - elapsed;
                        if wait <= 0.0 {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_secs_f64(
                            wait.min(0.01), // re-check the knob every 10 ms
                        ));
                        // A rate increase shortens the pending deadline.
                        let min_deadline = elapsed + self.knob.interval().min(wait);
                        if min_deadline < next_deadline {
                            next_deadline = min_deadline;
                        }
                    }
                    let item = (self.generate)(seq);
                    if tx.send(crate::stream::StreamMsg::item(seq, item)).is_err() {
                        return sent; // downstream hung up
                    }
                    if let Some(m) = &self.metrics {
                        m.record_departure(m.now());
                    }
                    sent += 1;
                }
                let _ = tx.send(crate::stream::StreamMsg::End);
                if let Some(m) = &self.metrics {
                    m.mark_end_in();
                }
                sent
            })
            .expect("spawn source thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamMsg;

    impl RateKnob {
        /// Sets the rate, clamping to a sane positive range.
        fn set(&self, rate: f64) {
            self.bits.store(sanitize(rate).to_bits(), Ordering::Release);
        }
    }

    #[test]
    fn knob_get_set_scale() {
        let k = RateKnob::new(2.0);
        assert_eq!(k.get(), 2.0);
        assert_eq!(k.interval(), 0.5);
        k.set(4.0);
        assert_eq!(k.get(), 4.0);
        let new = k.scale(0.5);
        assert_eq!(new, 2.0);
        assert_eq!(k.get(), 2.0);
    }

    #[test]
    fn knob_clamps() {
        let k = RateKnob::new(1.0);
        k.set(0.0);
        assert!(k.get() > 0.0);
        k.set(f64::INFINITY);
        assert!(k.get().is_finite());
    }

    #[test]
    fn knob_clamps_degenerate_initial_rates() {
        // Constructor policy now matches `set`: clamp, never panic.
        assert!(RateKnob::new(-1.0).get() > 0.0);
        assert!(RateKnob::new(0.0).get() > 0.0);
        assert!(RateKnob::new(f64::INFINITY).get().is_finite());
        let k = RateKnob::new(f64::NAN);
        assert!(k.get() > 0.0, "NaN pinned to the floor, not propagated");
        k.set(f64::NAN);
        assert!(k.get() > 0.0);
        k.set(2.0);
        assert_eq!(k.scale(f64::NAN), 1e-6, "NaN scale clamps to the floor");
    }

    #[test]
    fn source_emits_count_then_end() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let src = PacedSource::new(1000.0, 5, |seq| seq * 10);
        let handle = src.spawn(tx);
        let mut items = Vec::new();
        while let StreamMsg::Item { seq, payload } = rx.recv().unwrap() {
            items.push((seq, payload));
        }
        assert_eq!(items, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        assert_eq!(handle.join().unwrap(), 5);
    }

    #[test]
    fn source_respects_rate_roughly() {
        let (tx, rx) = crossbeam::channel::unbounded();
        // 100 items at 1000/s ≈ 0.1 s.
        let src = PacedSource::new(1000.0, 100, |s| s);
        let start = std::time::Instant::now();
        let handle = src.spawn(tx);
        let mut n = 0;
        while let Ok(msg) = rx.recv() {
            if msg.is_end() {
                break;
            }
            n += 1;
        }
        let dt = start.elapsed().as_secs_f64();
        handle.join().unwrap();
        assert_eq!(n, 100);
        assert!(dt > 0.05, "too fast: {dt}s");
        assert!(dt < 2.0, "too slow: {dt}s");
    }

    #[test]
    fn rate_increase_takes_effect() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let src = PacedSource::new(10.0, 30, |s| s);
        let knob = src.knob();
        let start = std::time::Instant::now();
        let handle = src.spawn(tx);
        // After 3 items (~0.3 s) crank the rate up 100×.
        let mut n = 0;
        while let Ok(msg) = rx.recv() {
            if msg.is_end() {
                break;
            }
            n += 1;
            if n == 3 {
                knob.set(1000.0);
            }
        }
        let dt = start.elapsed().as_secs_f64();
        handle.join().unwrap();
        assert_eq!(n, 30);
        // At 10/s the remaining 27 items would need 2.7 s; with the bump
        // the whole run finishes well under that.
        assert!(dt < 1.5, "rate change ignored: took {dt}s");
    }

    #[test]
    fn source_stops_when_receiver_drops() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let src = PacedSource::new(10_000.0, 1_000_000, |s| s);
        let handle = src.spawn(tx);
        // Take a few items then hang up.
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        drop(rx);
        let sent = handle.join().unwrap();
        assert!(sent < 1_000_000);
    }
}

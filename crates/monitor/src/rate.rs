//! Rate estimation.
//!
//! The autonomic managers of the paper reason almost exclusively about
//! *rates*: the `arrivalRate` (input pressure) and `departureRate`
//! (delivered throughput) beans tested by every rule in Fig. 5, and the SLA
//! contracts themselves ("0.6 tasks/s", "0.3–0.7 tasks/s").
//!
//! [`RateEstimator`] is an exact sliding-window estimator over event
//! timestamps. It matches how the GCM prototype's ABC computed
//! inter-arrival rates, and is robust for the low rates (≪ 1 kHz) of the
//! paper's experiments.

use crate::clock::Time;
use std::collections::VecDeque;

/// Sliding-window event-rate estimator.
///
/// Records event timestamps and reports `events-in-window / window` at query
/// time. The window slides with the *query* time, so a stalled stream decays
/// to zero rate — essential for detecting the paper's `notEnough` (input
/// starvation) condition.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: Time,
    /// Event timestamps within `window` of the most recent `record`/`rate`.
    events: VecDeque<Time>,
    /// Total events ever recorded (survives pruning).
    total: u64,
    /// Timestamp of the most recent event, if any.
    last_event: Option<Time>,
}

impl RateEstimator {
    /// Creates an estimator with the given window length in seconds.
    ///
    /// # Panics
    /// Panics if `window` is not strictly positive and finite.
    pub fn new(window: Time) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "rate window must be positive and finite, got {window}"
        );
        Self {
            window,
            events: VecDeque::new(),
            total: 0,
            last_event: None,
        }
    }

    /// The window length, in seconds.
    pub fn window(&self) -> Time {
        self.window
    }

    /// Records one event at time `t`.
    ///
    /// Out-of-order timestamps (within the window) are tolerated; pruning
    /// only relies on the front of the deque being oldest, so `t` values are
    /// inserted in arrival order.
    pub fn record(&mut self, t: Time) {
        self.total += 1;
        self.last_event = Some(match self.last_event {
            Some(prev) => prev.max(t),
            None => t,
        });
        self.events.push_back(t);
        self.prune(t);
    }

    /// Records `n` simultaneous events at time `t` (batch completion).
    pub fn record_n(&mut self, t: Time, n: u64) {
        for _ in 0..n {
            self.record(t);
        }
    }

    /// Estimated rate in events/second at query time `now`.
    pub fn rate(&mut self, now: Time) -> f64 {
        self.prune(now);
        self.events.len() as f64 / self.window
    }

    /// Seconds since the last recorded event, or `None` if no event yet.
    pub fn idle_for(&self, now: Time) -> Option<f64> {
        self.last_event.map(|t| (now - t).max(0.0))
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Drops all state, as after a reconfiguration blackout (the paper's
    /// Fig. 4 shows no sensor data during worker addition; resetting avoids
    /// the stale pre-reconfiguration rate biasing the first post-blackout
    /// reading).
    pub fn reset(&mut self) {
        self.events.clear();
        self.last_event = None;
    }

    fn prune(&mut self, now: Time) {
        let horizon = now - self.window;
        while let Some(&front) = self.events.front() {
            if front <= horizon {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_rate() {
        // 10 events/s for 5 s over a 2 s window => rate 10.
        let mut r = RateEstimator::new(2.0);
        let mut t = 0.0;
        while t < 5.0 {
            r.record(t);
            t += 0.1;
        }
        // Window (3.0, 5.0] holds the 19 events at 3.1..4.9 => 9.5 ev/s;
        // the half-event bias is inherent to edge effects of a finite window.
        let rate = r.rate(5.0);
        assert!((rate - 10.0).abs() <= 0.5 + 1e-9, "rate was {rate}");
    }

    #[test]
    fn rate_decays_when_stream_stalls() {
        let mut r = RateEstimator::new(1.0);
        for i in 0..10 {
            r.record(i as f64 * 0.1);
        }
        assert!(r.rate(1.0) > 5.0);
        assert_eq!(r.rate(10.0), 0.0, "all events fell out of the window");
    }

    #[test]
    fn empty_estimator_reports_zero() {
        let mut r = RateEstimator::new(1.0);
        assert_eq!(r.rate(100.0), 0.0);
        assert_eq!(r.idle_for(100.0), None);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn idle_for_tracks_last_event() {
        let mut r = RateEstimator::new(1.0);
        r.record(3.0);
        assert!((r.idle_for(5.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_counts_batch() {
        let mut r = RateEstimator::new(1.0);
        r.record_n(0.5, 4);
        assert_eq!(r.total(), 4);
        assert!((r.rate(0.5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_window_but_not_total() {
        let mut r = RateEstimator::new(1.0);
        r.record(0.1);
        r.record(0.2);
        r.reset();
        assert_eq!(r.rate(0.2), 0.0);
        assert_eq!(r.total(), 2);
    }

    #[test]
    #[should_panic(expected = "rate window must be positive")]
    fn zero_window_rejected() {
        RateEstimator::new(0.0);
    }
}

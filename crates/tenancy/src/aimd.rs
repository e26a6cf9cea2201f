//! AIMD adaptation of the per-tenant in-flight cap.
//!
//! The front-end's static cap — `max(1, round(workers × share))` — keeps
//! a flooding tenant from monopolising the worker queues, but it is
//! blind to how the tenant's own traffic behaves: a tenant whose queue
//! is persistently backlogged could safely pipeline deeper, while one
//! whose admission queue is shedding is *already* over-subscribed and
//! should be pipelining shallower, not merely no deeper.
//!
//! `InFlightAimd` closes that loop with the classic congestion-control
//! law the `aimd` manager controller applies to the pool's par-degree,
//! here applied per tenant to a multiplicative factor on the static cap:
//!
//! * **additive increase** — while the tenant is backlogged and clean
//!   (no new sheds), the factor grows by `InFlightAimd::AI_STEP` once
//!   per `InFlightAimd::PERIOD` seconds, up to
//!   `InFlightAimd::MAX_FACTOR`;
//! * **multiplicative decrease** — the moment the tenant's shed counter
//!   advances, the factor is cut by `InFlightAimd::MD_BETA`
//!   immediately (congestion signals are not rate-limited), down to
//!   `InFlightAimd::MIN_FACTOR`.
//!
//! The effective cap is `max(1, round(base × factor))`, so a tenant can
//! never be starved outright and fairness between tenants still comes
//! from the DRR weights — AIMD only adapts pipeline *depth*.

/// Per-tenant AIMD state: a multiplicative factor on the static
/// in-flight cap. See the module docs for the control law.
#[derive(Debug, Clone)]
pub(crate) struct InFlightAimd {
    factor: f64,
    sheds_seen: u64,
    last_adjust: f64,
}

impl InFlightAimd {
    /// Floor of the cap factor (a quarter of the fair-share cap).
    pub(crate) const MIN_FACTOR: f64 = 0.25;
    /// Ceiling of the cap factor (four times the fair-share cap).
    pub(crate) const MAX_FACTOR: f64 = 4.0;
    /// Additive step applied per clean backlogged period.
    pub(crate) const AI_STEP: f64 = 0.25;
    /// Multiplicative cut applied per shed observation.
    pub(crate) const MD_BETA: f64 = 0.5;
    /// Minimum seconds between additive increases — the dispatch pass
    /// runs every millisecond, far faster than the control timescale.
    pub(crate) const PERIOD: f64 = 0.05;

    /// A fresh controller at the neutral factor `1.0` (the static cap).
    pub fn new() -> Self {
        Self {
            factor: 1.0,
            sheds_seen: 0,
            last_adjust: f64::NEG_INFINITY,
        }
    }

    /// The current multiplicative factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Feeds one observation: the tenant's cumulative shed counter and
    /// whether its admission queue is backlogged right now. Returns the
    /// updated factor.
    pub fn observe(&mut self, now: f64, sheds_total: u64, backlogged: bool) -> f64 {
        if sheds_total > self.sheds_seen {
            // MD: react to every shed burst immediately.
            self.sheds_seen = sheds_total;
            self.factor = (self.factor * Self::MD_BETA).max(Self::MIN_FACTOR);
            self.last_adjust = now;
        } else if backlogged && now - self.last_adjust >= Self::PERIOD {
            // AI: probe for depth while demand persists and sheds don't.
            self.factor = (self.factor + Self::AI_STEP).min(Self::MAX_FACTOR);
            self.last_adjust = now;
        }
        self.factor
    }

    /// Applies the factor to a static cap, never starving the tenant.
    pub fn apply(&self, base_cap: u64) -> u64 {
        ((base_cap as f64 * self.factor).round() as u64).max(1)
    }
}

impl Default for InFlightAimd {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_increase_is_period_gated() {
        let mut a = InFlightAimd::new();
        assert_eq!(a.observe(0.0, 0, true), 1.25);
        // Same instant, still backlogged: no second step.
        assert_eq!(a.observe(0.0, 0, true), 1.25);
        assert_eq!(a.observe(0.01, 0, true), 1.25);
        // One full period later the next step lands.
        assert_eq!(a.observe(0.05, 0, true), 1.5);
        // Idle (not backlogged) tenants do not grow.
        assert_eq!(a.observe(1.0, 0, false), 1.5);
    }

    #[test]
    fn multiplicative_decrease_on_shed_is_immediate() {
        let mut a = InFlightAimd::new();
        for i in 0..100 {
            a.observe(i as f64 * 0.05, 0, true);
        }
        assert_eq!(a.factor(), InFlightAimd::MAX_FACTOR);
        // A shed burst (counter advanced) halves the factor at once,
        // even though the last adjustment was this very instant.
        assert_eq!(a.observe(100.0 * 0.05, 1, true), 2.0);
        // The same cumulative count is not a fresh signal.
        assert_eq!(a.observe(100.0 * 0.05 + 0.05, 1, false), 2.0);
        // Further bursts keep cutting, down to the floor.
        let mut t = 6.0;
        for sheds in 2..12 {
            a.observe(t, sheds, false);
            t += 0.001;
        }
        assert_eq!(a.factor(), InFlightAimd::MIN_FACTOR);
    }

    #[test]
    fn factor_stays_within_bounds_under_any_interleaving() {
        let mut a = InFlightAimd::new();
        let mut sheds = 0;
        for i in 0..1000 {
            if i % 7 == 0 {
                sheds += 1;
            }
            let f = a.observe(i as f64 * 0.06, sheds, i % 3 != 0);
            assert!(
                (InFlightAimd::MIN_FACTOR..=InFlightAimd::MAX_FACTOR).contains(&f),
                "factor {f} escaped its bounds at step {i}"
            );
        }
    }

    #[test]
    fn apply_floors_the_effective_cap_at_one() {
        let mut a = InFlightAimd::new();
        for sheds in 1..10 {
            a.observe(sheds as f64, sheds, false);
        }
        assert_eq!(a.factor(), InFlightAimd::MIN_FACTOR);
        assert_eq!(a.apply(1), 1, "a capped-out tenant still progresses");
        assert_eq!(a.apply(8), 2);
        let mut b = InFlightAimd::new();
        for i in 0..100 {
            b.observe(i as f64, 0, true);
        }
        assert_eq!(b.apply(8), 32);
    }
}

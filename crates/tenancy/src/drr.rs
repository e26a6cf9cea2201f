//! Deficit round robin over weighted tenant queues.
//!
//! Classic DRR (Shreedhar & Varghese) with unit task cost: each *round*
//! credits every backlogged queue a quantum proportional to its weight
//! (normalised so the heaviest backlogged queue earns exactly one task
//! per round), and a queue may dispatch whenever its accumulated deficit
//! covers a task. Idle queues carry no deficit forward, so a tenant
//! cannot hoard credit while empty and later burst past its share.
//!
//! The struct is pure bookkeeping — no channels, no time — so fairness is
//! unit-testable: over many rounds the per-queue dispatch counts converge
//! to the weight vector (see the tests at the bottom).

/// Deficit state for a fixed-size set of queues.
#[derive(Debug, Default)]
pub(crate) struct Drr {
    deficits: Vec<f64>,
}

/// One task's worth of deficit (unit task cost).
const TASK_COST: f64 = 1.0;

impl Drr {
    /// An empty scheduler; queues are added with [`Drr::ensure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the deficit vector to cover `n` queues (new ones start at 0).
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.deficits.len() < n {
            self.deficits.resize(n, 0.0);
        }
    }

    /// Starts a round: credits every *backlogged* queue its quantum,
    /// `weight[i] / max(backlogged weights)`, so the heaviest backlogged
    /// queue earns one task per round and the others earn proportionally
    /// less. Returns `false` when nothing is backlogged.
    pub(crate) fn begin_round(&mut self, weights: &[f64], backlogged: &[bool]) -> bool {
        self.ensure(weights.len());
        let heaviest = weights
            .iter()
            .zip(backlogged)
            .filter(|(_, b)| **b)
            .map(|(w, _)| *w)
            .fold(0.0_f64, f64::max);
        if heaviest <= 0.0 {
            return false;
        }
        for ((d, w), b) in self.deficits.iter_mut().zip(weights).zip(backlogged) {
            if *b {
                *d += *w / heaviest;
            }
        }
        true
    }

    /// Attempts to spend one task's worth of deficit for queue `i`.
    /// Returns `true` (and debits the deficit) when the queue has earned a
    /// dispatch.
    pub(crate) fn try_take(&mut self, i: usize) -> bool {
        if self.deficits[i] >= TASK_COST {
            self.deficits[i] -= TASK_COST;
            true
        } else {
            false
        }
    }

    /// Clears queue `i`'s deficit — call when its queue goes empty so idle
    /// periods do not bank credit.
    pub fn reset(&mut self, i: usize) {
        if i < self.deficits.len() {
            self.deficits[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Drr {
        /// Current deficit of queue `i` (diagnostics).
        fn deficit(&self, i: usize) -> f64 {
            self.deficits.get(i).copied().unwrap_or(0.0)
        }
    }

    /// Simulates `rounds` DRR rounds with always-backlogged queues and
    /// returns per-queue dispatch counts.
    fn run(weights: &[f64], rounds: usize) -> Vec<u64> {
        let mut drr = Drr::new();
        drr.ensure(weights.len());
        let backlogged = vec![true; weights.len()];
        let mut served = vec![0_u64; weights.len()];
        for _ in 0..rounds {
            assert!(drr.begin_round(weights, &backlogged));
            for (i, count) in served.iter_mut().enumerate() {
                while drr.try_take(i) {
                    *count += 1;
                }
            }
        }
        served
    }

    #[test]
    fn equal_weights_equal_service() {
        let served = run(&[1.0, 1.0, 1.0], 300);
        assert_eq!(served[0], 300);
        assert_eq!(served[1], 300);
        assert_eq!(served[2], 300);
    }

    #[test]
    fn service_converges_to_weight_ratio() {
        let served = run(&[3.0, 1.0], 400);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.1,
            "expected ~3:1 service, got {served:?} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn fractional_weights_accumulate() {
        // Weight 0.25 vs 1.0: the light queue earns a task every 4 rounds.
        let served = run(&[1.0, 0.25], 400);
        assert_eq!(served[0], 400);
        assert_eq!(served[1], 100);
    }

    #[test]
    fn idle_queue_earns_nothing() {
        let mut drr = Drr::new();
        drr.ensure(2);
        // Queue 1 idle for 50 rounds.
        for _ in 0..50 {
            drr.begin_round(&[1.0, 1.0], &[true, false]);
            assert!(drr.try_take(0));
        }
        assert_eq!(drr.deficit(1), 0.0);
        // When it becomes backlogged it starts from scratch: one task per
        // round, no burst from banked credit.
        drr.begin_round(&[1.0, 1.0], &[true, true]);
        assert!(drr.try_take(1));
        assert!(!drr.try_take(1));
    }

    #[test]
    fn reset_clears_leftover_deficit() {
        let mut drr = Drr::new();
        drr.ensure(1);
        drr.begin_round(&[2.0], &[true]);
        drr.reset(0);
        assert_eq!(drr.deficit(0), 0.0);
    }

    #[test]
    fn no_backlog_no_round() {
        let mut drr = Drr::new();
        drr.ensure(2);
        assert!(!drr.begin_round(&[1.0, 1.0], &[false, false]));
    }
}

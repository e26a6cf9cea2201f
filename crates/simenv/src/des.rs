//! The discrete-event kernel: a time-ordered event queue.
//!
//! Events are `(time, payload)` pairs popped in non-decreasing time order;
//! ties break by insertion order (FIFO), which keeps simulations
//! deterministic without relying on payload ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry (internal): ordered by time, then insertion sequence.
struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time (then the
        // lowest sequence number) is popped first. Times are finite by
        // construction (asserted on push).
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is not finite or lies in the popped past — both are
    /// simulation bugs worth failing loudly on.
    pub fn schedule(&mut self, at: f64, payload: E) {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past (now = {}, at = {at})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// The time of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(2.5, ());
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(4.0, 4);
        assert_eq!(q.pop().unwrap(), (1.0, 1));
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        assert_eq!(q.pop().unwrap(), (2.0, 2));
        assert_eq!(q.pop().unwrap(), (3.0, 3));
        assert_eq!(q.pop().unwrap(), (4.0, 4));
    }
}

//! Per-worker task queues with batched hand-off.
//!
//! The farm's emitter/worker rendezvous is the hottest lock in the whole
//! runtime: with microsecond tasks, a per-task `lock → push → notify`
//! and a per-task `lock → pop` dominate the cost of the task itself. The
//! queue therefore moves **batches**: the emitter accumulates up to a
//! dispatch batch of tasks per worker and pays one lock + one notify per
//! batch ([`WorkerQueue::push_batch`]), and the worker drains up to a
//! batch per wake-up ([`WorkerQueue::pop_batch`]) and processes it
//! outside the lock.
//!
//! Shutdown and worker retirement are modelled by **closing** the queue
//! ([`WorkerQueue::close`]) instead of an in-band stop message: a closed
//! queue rejects pushes (handing the batch back to the emitter, which
//! re-dispatches via the fresh worker table) and wakes its worker to
//! drain and exit. This is what makes RCU dispatch loss-free: the worker
//! table is republished *before* a victim queue closes, so an emitter
//! whose push fails is guaranteed to find a newer table to retry against.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sequence-tagged unit of farm work.
#[derive(Debug)]
pub struct Task<T> {
    /// Position in the input stream (assigned at the source).
    pub seq: u64,
    /// The payload handed to the worker function.
    pub item: T,
}

#[derive(Debug)]
struct Inner<T> {
    deque: VecDeque<Task<T>>,
    closed: bool,
}

/// Outcome of a [`WorkerQueue::try_pop_batch`] poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPop {
    /// Tasks were moved into the caller's buffer.
    Got,
    /// Open but currently empty.
    Empty,
    /// Closed *and* fully drained — the consumer's exit signal (same
    /// condition under which [`WorkerQueue::pop_batch`] returns `false`).
    Closed,
}

/// A single-consumer task queue accepting batched pushes, with a cached
/// length readable without the lock (sensing and shortest-queue
/// scheduling must not take every worker's lock).
#[derive(Debug)]
pub struct WorkerQueue<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    len: AtomicUsize,
}

impl<T> Default for WorkerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkerQueue<T> {
    /// Creates an open, empty queue.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                deque: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Appends every task in `batch` under one lock acquisition and wakes
    /// the worker once. On success `batch` is left empty and `true` is
    /// returned; if the queue is closed the batch is left untouched and
    /// `false` is returned so the caller can re-dispatch it elsewhere.
    pub fn push_batch(&self, batch: &mut Vec<Task<T>>) -> bool {
        if batch.is_empty() {
            return true;
        }
        let mut q = self.inner.lock();
        if q.closed {
            return false;
        }
        q.deque.extend(batch.drain(..));
        self.len.store(q.deque.len(), Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
        true
    }

    /// Blocks until work or closure, then moves up to `max` tasks into
    /// `out`. Returns `false` only when the queue is closed *and* fully
    /// drained — the worker's signal to exit.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Task<T>>) -> bool {
        let mut q = self.inner.lock();
        while q.deque.is_empty() {
            if q.closed {
                return false;
            }
            self.cv.wait(&mut q);
        }
        let take = q.deque.len().min(max.max(1));
        out.extend(q.deque.drain(..take));
        self.len.store(q.deque.len(), Ordering::Relaxed);
        true
    }

    /// Non-blocking [`pop_batch`](Self::pop_batch): moves up to `max`
    /// tasks into `out` if any are ready, never waiting. Designed for a
    /// reactor-style consumer that polls many queues from one thread and
    /// must not sleep on any single one.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Task<T>>) -> TryPop {
        let mut q = self.inner.lock();
        if q.deque.is_empty() {
            return if q.closed {
                TryPop::Closed
            } else {
                TryPop::Empty
            };
        }
        let take = q.deque.len().min(max.max(1));
        out.extend(q.deque.drain(..take));
        self.len.store(q.deque.len(), Ordering::Relaxed);
        TryPop::Got
    }

    /// Closes the queue and returns every queued task for redistribution.
    /// Subsequent pushes fail; the worker drains and exits.
    pub fn close(&self) -> Vec<Task<T>> {
        let mut q = self.inner.lock();
        q.closed = true;
        let drained: Vec<Task<T>> = q.deque.drain(..).collect();
        self.len.store(0, Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
        drained
    }

    /// Drains every queued task *without* closing (load rebalancing).
    pub(crate) fn drain_open(&self) -> Vec<Task<T>> {
        let mut q = self.inner.lock();
        let drained: Vec<Task<T>> = q.deque.drain(..).collect();
        self.len.store(0, Ordering::Relaxed);
        drained
    }

    /// Cached queue length (lock-free; may trail the true length by a
    /// moment, which sensing tolerates).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the cached length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl<T> WorkerQueue<T> {
        /// True once [`close`](Self::close) has been called.
        fn is_closed(&self) -> bool {
            self.inner.lock().closed
        }
    }

    fn tasks(range: std::ops::Range<u64>) -> Vec<Task<u64>> {
        range.map(|i| Task { seq: i, item: i }).collect()
    }

    #[test]
    fn push_pop_batches_roundtrip() {
        let q = WorkerQueue::new();
        let mut batch = tasks(0..5);
        assert!(q.push_batch(&mut batch));
        assert!(batch.is_empty());
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        assert!(q.pop_batch(3, &mut out));
        assert_eq!(out.iter().map(|t| t.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(q.len(), 2);
        out.clear();
        assert!(q.pop_batch(10, &mut out));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_push_and_returns_backlog() {
        let q = WorkerQueue::new();
        let mut batch = tasks(0..4);
        assert!(q.push_batch(&mut batch));
        let drained = q.close();
        assert_eq!(drained.len(), 4);
        assert!(q.is_closed());
        let mut rejected = tasks(4..6);
        assert!(!q.push_batch(&mut rejected));
        assert_eq!(rejected.len(), 2, "batch handed back intact");
        let mut out = Vec::new();
        assert!(!q.pop_batch(8, &mut out), "closed and empty: exit signal");
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(WorkerQueue::<u64>::new());
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(8, &mut out)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!consumer.join().unwrap(), "woken with the exit signal");
    }

    #[test]
    fn try_pop_batch_never_blocks_and_signals_closure() {
        let q = WorkerQueue::new();
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(8, &mut out), TryPop::Empty);
        let mut batch = tasks(0..5);
        q.push_batch(&mut batch);
        assert_eq!(q.try_pop_batch(3, &mut out), TryPop::Got);
        assert_eq!(out.len(), 3);
        assert_eq!(q.try_pop_batch(8, &mut out), TryPop::Got);
        assert_eq!(out.len(), 5);
        assert_eq!(q.try_pop_batch(8, &mut out), TryPop::Empty);
        q.close();
        assert_eq!(q.try_pop_batch(8, &mut out), TryPop::Closed);
    }

    #[test]
    fn drain_open_leaves_queue_usable() {
        let q = WorkerQueue::new();
        let mut batch = tasks(0..3);
        q.push_batch(&mut batch);
        assert_eq!(q.drain_open().len(), 3);
        assert!(!q.is_closed());
        let mut batch = tasks(3..4);
        assert!(q.push_batch(&mut batch));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_producer_consumer_conserves_tasks() {
        let q = Arc::new(WorkerQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for chunk in 0..100u64 {
                    let mut batch = tasks(chunk * 100..(chunk + 1) * 100);
                    assert!(q.push_batch(&mut batch));
                }
                q.close()
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut buf = Vec::new();
                while q.pop_batch(32, &mut buf) {
                    seen.extend(buf.drain(..).map(|t| t.seq));
                }
                seen
            })
        };
        let leftover = producer.join().unwrap();
        let mut seen = consumer.join().unwrap();
        seen.extend(leftover.iter().map(|t| t.seq));
        seen.sort_unstable();
        assert_eq!(seen, (0..10_000).collect::<Vec<_>>());
    }
}

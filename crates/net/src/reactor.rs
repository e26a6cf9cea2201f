//! Reactor building blocks: pooled frame buffers, a vectored-write send
//! queue, and a hashed timer wheel.
//!
//! These are the allocation- and syscall-economy pieces of the pool's
//! single-thread event loop (see [`crate::pool`]), kept free of any
//! socket or slot types so they unit-test in isolation:
//!
//! * [`BufferPool`] recycles encode buffers — the hot path encodes a
//!   whole wire batch into one pooled `Vec<u8>` instead of allocating
//!   per frame;
//! * [`SendQueue`] owns a connection's pending outgoing bytes and
//!   drains them with `write_vectored`, resuming cleanly from a
//!   `WouldBlock` mid-frame (the partially-written chunk keeps an
//!   offset; nothing is re-sent, nothing is dropped);
//! * `TimerWheel` schedules the reactor's time-driven duties —
//!   heartbeat ticks, per-slot failure deadlines, speculation sweeps,
//!   breaker window expiries — as wheel entries, replacing the old
//!   dedicated detector thread.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::time::{Duration, Instant};

/// Most `IoSlice`s handed to one `write_vectored` call (the kernel caps
/// at `UIO_MAXIOV` = 1024; 32 already amortises the syscall).
const MAX_IOV: usize = 32;

// -- buffer pool -------------------------------------------------------

/// A free list of encode buffers. Buffers keep their capacity across
/// reuse, so a steady-state reactor stops allocating on the frame path
/// entirely; oversized one-offs (a huge payload) are dropped rather than
/// pinned forever.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    max_capacity: usize,
}

impl BufferPool {
    /// A pool retaining up to `max_buffers` buffers of up to
    /// `max_capacity` bytes each.
    pub fn new(max_buffers: usize, max_capacity: usize) -> Self {
        Self {
            free: Vec::new(),
            max_buffers,
            max_capacity,
        }
    }

    /// Takes a cleared buffer from the pool (or allocates a fresh one).
    pub fn get(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; cleared here so `get` is O(1).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_buffers && buf.capacity() <= self.max_capacity {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

// -- send queue --------------------------------------------------------

/// Why [`SendQueue::write_to`] stopped draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Every queued byte hit the socket.
    Drained,
    /// The socket would block; an offset into the first chunk remembers
    /// exactly where to resume (mid-frame is fine).
    Blocked,
}

/// One connection's pending outgoing bytes: a FIFO of encoded (and, on
/// secure channels, already-ciphered) chunks, each holding one or more
/// whole frames. Draining coalesces chunks into a single
/// `write_vectored` call and survives partial writes at any byte
/// position.
#[derive(Debug, Default)]
pub struct SendQueue {
    chunks: VecDeque<(Vec<u8>, usize)>,
    /// How far into the *first* chunk previous writes got.
    head_offset: usize,
    bytes: usize,
    frames: usize,
}

impl SendQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues one encoded chunk carrying `frames` whole frames.
    pub fn push(&mut self, chunk: Vec<u8>, frames: usize) {
        if chunk.is_empty() {
            return;
        }
        self.bytes += chunk.len();
        self.frames += frames;
        self.chunks.push_back((chunk, frames));
    }

    /// Bytes not yet written.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Frames not yet fully written (a chunk's frames count as pending
    /// until the whole chunk is on the wire).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Drains as much as the writer accepts, returning drained chunks to
    /// `pool`. `Interrupted` retries; `WouldBlock` returns
    /// [`WriteOutcome::Blocked`] with the resume offset saved.
    pub fn write_to(
        &mut self,
        w: &mut impl Write,
        pool: &mut BufferPool,
    ) -> io::Result<WriteOutcome> {
        loop {
            if self.chunks.is_empty() {
                return Ok(WriteOutcome::Drained);
            }
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV.min(self.chunks.len()));
            for (i, (chunk, _)) in self.chunks.iter().enumerate().take(MAX_IOV) {
                let from = if i == 0 { self.head_offset } else { 0 };
                iov.push(IoSlice::new(&chunk[from..]));
            }
            match w.write_vectored(&iov) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.advance(n, pool),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(WriteOutcome::Blocked)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Accounts `n` written bytes across the chunk FIFO.
    fn advance(&mut self, mut n: usize, pool: &mut BufferPool) {
        self.bytes -= n;
        while n > 0 {
            let (chunk, frames) = self.chunks.front().expect("wrote bytes not queued");
            let remaining = chunk.len() - self.head_offset;
            if n >= remaining {
                n -= remaining;
                self.frames -= *frames;
                self.head_offset = 0;
                let (done, _) = self.chunks.pop_front().expect("checked front");
                pool.put(done);
            } else {
                self.head_offset += n;
                n = 0;
            }
        }
    }
}

// -- timer wheel -------------------------------------------------------

/// A hashed timer wheel: deadlines land in `slots[tick % n]` and fire
/// when the cursor sweeps past their tick. Arming is O(1); firing is
/// O(slots scanned + entries due). Entries carry an opaque key — there
/// is no cancel API, the owner drops stale keys on fire (a dead slot's
/// deadline entry simply fizzles).
#[derive(Debug)]
pub(crate) struct TimerWheel<K> {
    epoch: Instant,
    tick: Duration,
    slots: Vec<Vec<(u64, K)>>,
    /// The next tick the sweep will process (everything strictly before
    /// it has already fired).
    cursor: u64,
    len: usize,
}

impl<K> TimerWheel<K> {
    /// A wheel of `slots` buckets at `tick` granularity, starting `epoch`
    /// as tick zero. Granularity below 1ms is clamped up (the reactor's
    /// epoll timeout has millisecond resolution anyway).
    pub fn new(epoch: Instant, tick: Duration, slots: usize) -> Self {
        Self {
            epoch,
            tick: tick.max(Duration::from_millis(1)),
            slots: (0..slots.max(8)).map(|_| Vec::new()).collect(),
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.epoch);
        // Ceiling division: a deadline lands on the first tick at or
        // after it, never early.
        since.as_nanos().div_ceil(self.tick.as_nanos()) as u64
    }

    /// Schedules `key` to fire at `at` (clamped to the cursor: a deadline
    /// already in the past fires on the next sweep).
    pub(crate) fn arm(&mut self, at: Instant, key: K) {
        let due = self.tick_of(at).max(self.cursor);
        let slot = (due % self.slots.len() as u64) as usize;
        self.slots[slot].push((due, key));
        self.len += 1;
    }

    /// The earliest pending deadline, if any (what the reactor turns
    /// into its epoll timeout).
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut min: Option<u64> = None;
        for slot in &self.slots {
            for (due, _) in slot {
                match min {
                    Some(m) if m <= *due => {}
                    _ => min = Some(*due),
                }
            }
        }
        min.map(|t| self.epoch + self.tick * (t.min(u64::from(u32::MAX)) as u32))
    }

    /// Moves every entry due at or before `now` into `out` (unordered
    /// within a sweep) and advances the cursor. Returns the worst
    /// lateness among fired entries — the reactor's loop-lag sensor.
    pub(crate) fn pop_due(&mut self, now: Instant, out: &mut Vec<K>) -> Duration {
        let now_tick = {
            let since = now.saturating_duration_since(self.epoch);
            (since.as_nanos() / self.tick.as_nanos()) as u64
        };
        if now_tick < self.cursor || self.len == 0 {
            self.cursor = self.cursor.max(now_tick + 1);
            return Duration::ZERO;
        }
        let n = self.slots.len() as u64;
        // Scanning min(range, n) consecutive buckets covers every bucket
        // a tick in [cursor, now_tick] can hash to.
        let span = (now_tick - self.cursor + 1).min(n);
        let mut worst = Duration::ZERO;
        for i in 0..span {
            let s = ((self.cursor + i) % n) as usize;
            let bucket = &mut self.slots[s];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].0 <= now_tick {
                    let (due, key) = bucket.swap_remove(j);
                    self.len -= 1;
                    let due_at = self.epoch + self.tick * (due.min(u64::from(u32::MAX)) as u32);
                    worst = worst.max(now.saturating_duration_since(due_at));
                    out.push(key);
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = now_tick + 1;
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K> TimerWheel<K> {
        fn len(&self) -> usize {
            self.len
        }

        fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    // A writer that accepts at most `cap` bytes per call, then blocks.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.cap == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let take = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..take]);
            Ok(take)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let mut pool = BufferPool::new(4, 1024);
        let mut b = pool.get();
        b.extend_from_slice(&[0u8; 512]);
        let cap = b.capacity();
        pool.put(b);
        assert_eq!(pool.idle(), 1);
        let b2 = pool.get();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap, "capacity survives the round trip");
        // Oversized buffers are dropped, not pinned.
        pool.put(Vec::with_capacity(4096));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn send_queue_resumes_mid_frame_after_would_block() {
        let mut pool = BufferPool::new(8, 1 << 20);
        let mut q = SendQueue::new();
        let frame: Vec<u8> = (0..=255u8).collect();
        q.push(frame.clone(), 1);
        q.push(frame.iter().rev().copied().collect(), 1);
        assert_eq!(q.bytes(), 512);
        assert_eq!(q.frames(), 2);

        // 100 bytes per call: the first call ends mid-frame.
        let mut w = Throttled {
            accepted: Vec::new(),
            cap: 100,
            calls: 0,
        };
        // Let 300 bytes through (in up-to-100-byte slices), then block:
        // the stop lands 44 bytes into the second frame.
        let mut budget = 300usize;
        let mut gated = GatedWriter {
            inner: &mut w,
            budget: &mut budget,
        };
        assert_eq!(
            q.write_to(&mut gated, &mut pool).unwrap(),
            WriteOutcome::Blocked
        );
        assert_eq!(q.bytes(), 512 - 300);
        assert_eq!(q.frames(), 1, "first frame fully out, second pending");

        // Unblock: the remainder resumes from byte 300, no re-send.
        let mut budget2 = usize::MAX;
        let mut open = GatedWriter {
            inner: &mut w,
            budget: &mut budget2,
        };
        assert_eq!(
            q.write_to(&mut open, &mut pool).unwrap(),
            WriteOutcome::Drained
        );
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
        assert_eq!(q.frames(), 0);
        let mut expect = frame.clone();
        expect.extend(frame.iter().rev().copied());
        assert_eq!(w.accepted, expect, "byte-exact, no duplication or loss");
        assert_eq!(pool.idle(), 2, "drained chunks returned to the pool");
    }

    struct GatedWriter<'a, W> {
        inner: &'a mut W,
        budget: &'a mut usize,
    }

    impl<W: Write> Write for GatedWriter<'_, W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if *self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let take = buf.len().min(*self.budget);
            let n = self.inner.write(&buf[..take])?;
            *self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn send_queue_write_zero_is_an_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _b: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut pool = BufferPool::new(1, 1024);
        let mut q = SendQueue::new();
        q.push(vec![1, 2, 3], 1);
        assert!(q.write_to(&mut Zero, &mut pool).is_err());
    }

    #[test]
    fn timer_wheel_fires_in_deadline_windows() {
        let t0 = Instant::now();
        let mut w: TimerWheel<&'static str> = TimerWheel::new(t0, Duration::from_millis(1), 64);
        w.arm(t0 + Duration::from_millis(5), "five");
        w.arm(t0 + Duration::from_millis(20), "twenty");
        w.arm(t0 + Duration::from_millis(200), "far"); // beyond one wheel round
        assert_eq!(w.len(), 3);

        let mut out = Vec::new();
        w.pop_due(t0 + Duration::from_millis(3), &mut out);
        assert!(out.is_empty(), "nothing due at 3ms");
        w.pop_due(t0 + Duration::from_millis(6), &mut out);
        assert_eq!(out, ["five"]);
        out.clear();
        // Jump straight past both remaining deadlines (a long epoll
        // sleep): one sweep collects both, including the far entry that
        // wrapped the wheel.
        w.pop_due(t0 + Duration::from_millis(400), &mut out);
        out.sort_unstable();
        assert_eq!(out, ["far", "twenty"]);
        assert!(w.is_empty());
    }

    #[test]
    fn timer_wheel_past_deadlines_fire_immediately_with_lag() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u32> = TimerWheel::new(t0, Duration::from_millis(1), 32);
        let now = t0 + Duration::from_millis(50);
        // Advance the cursor to "now" first.
        let mut out = Vec::new();
        w.pop_due(now, &mut out);
        // Arm something 40ms in the past: it must fire on the next sweep.
        w.arm(t0 + Duration::from_millis(10), 9);
        let lag = w.pop_due(now + Duration::from_millis(1), &mut out);
        assert_eq!(out, [9]);
        assert!(lag >= Duration::ZERO);
    }

    #[test]
    fn timer_wheel_next_deadline_tracks_minimum() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u8> = TimerWheel::new(t0, Duration::from_millis(1), 16);
        assert!(w.next_deadline().is_none());
        w.arm(t0 + Duration::from_millis(30), 1);
        w.arm(t0 + Duration::from_millis(10), 2);
        let d = w.next_deadline().unwrap();
        assert!(d <= t0 + Duration::from_millis(11), "min of the two");
        let mut out = Vec::new();
        w.pop_due(t0 + Duration::from_millis(15), &mut out);
        assert_eq!(out, [2]);
        let d2 = w.next_deadline().unwrap();
        assert!(d2 > t0 + Duration::from_millis(15));
    }

    #[test]
    fn timer_wheel_rearm_cycle_is_stable() {
        // The heartbeat pattern: fire, re-arm one period out, repeat.
        let t0 = Instant::now();
        let mut w: TimerWheel<()> = TimerWheel::new(t0, Duration::from_millis(1), 64);
        let period = Duration::from_millis(7);
        w.arm(t0 + period, ());
        let mut fired = 0;
        let mut now = t0;
        let mut out = Vec::new();
        for _ in 0..100 {
            now += Duration::from_millis(3);
            out.clear();
            w.pop_due(now, &mut out);
            for () in out.drain(..) {
                fired += 1;
                w.arm(now + period, ());
            }
        }
        // 300ms of simulated time at a 7ms period, observed every 3ms —
        // the effective cadence quantizes to 9ms, so ≈33 firings; the
        // wheel must neither stall nor double-fire.
        assert!((30..=45).contains(&fired), "fired {fired} times");
        assert_eq!(w.len(), 1, "exactly one armed entry survives");
    }
}

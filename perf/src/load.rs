//! Load generation and recording: the open-loop pacer, the closed-loop
//! credit window, and the per-second window recorder.
//!
//! Open loop: tasks are sent on a precomputed schedule whatever the
//! system does, and latency runs from the task's *due* time, so a stall
//! charges every task that was due during it (no coordinated omission).
//! Closed loop: at most `window` tasks are outstanding; latency runs from
//! the entry into the submit call.

use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Every how-many-th task a traced run records spans for.
pub const TRACE_STRIDE: u64 = 64;
/// Most traced tasks kept in memory per run (the span file stays small;
/// timing still happens for every [`TRACE_STRIDE`]-th task).
pub const TRACE_KEEP: usize = 5_000;
/// A pacer sleeps until this long before a due time, then spins.
const SPIN_AHEAD: Duration = Duration::from_micros(300);

/// Nanoseconds since the run's origin.
pub fn now_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Waits until `due_ns` after `t0` (sleeping while far, spinning when
/// close) and returns how late the wake-up was, in ns.
pub fn wait_until(t0: Instant, due_ns: u64) -> u64 {
    let due = Duration::from_nanos(due_ns);
    loop {
        let now = t0.elapsed();
        if now >= due {
            return (now - due).as_nanos() as u64;
        }
        let ahead = due - now;
        if ahead > SPIN_AHEAD {
            std::thread::sleep(ahead - SPIN_AHEAD);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one traced task looked like from the generator's side.
#[derive(Debug, Clone, Copy)]
pub struct GenStamp {
    /// Task position in the stream.
    pub seq: u64,
    /// When the task was due (open loop) or credit was asked (closed).
    pub due_ns: u64,
    /// Entry into the submit call.
    pub enter_ns: u64,
    /// Return from the submit call.
    pub return_ns: u64,
}

/// What the generator thread hands back.
#[derive(Debug, Default)]
pub struct GenReport {
    /// Tasks submitted.
    pub sent: u64,
    /// How late each send started relative to its due time, ns (open
    /// loop, measured part only).
    pub lateness_ns: Vec<f64>,
    /// Stamps of traced tasks.
    pub stamps: Vec<GenStamp>,
}

/// Shared switches between the coordinator and the harness threads.
#[derive(Debug, Default)]
pub struct Switches {
    /// Set while the traced phase is running.
    pub tracing: AtomicBool,
    /// Set to end a closed-loop run.
    pub stop: AtomicBool,
}

/// Runs an open-loop generator over a schedule of `(seq, due)` pairs (due
/// in ns from `t0`): `submit(seq)` is called at or after its due time,
/// never earlier, and never skipped — a late generator catches up by
/// sending back to back. Lateness is recorded for tasks due at or after
/// `measure_from_ns`.
pub fn open_loop(
    t0: Instant,
    schedule: impl Iterator<Item = (u64, u64)>,
    measure_from_ns: u64,
    switches: &Switches,
    mut submit: impl FnMut(u64),
) -> GenReport {
    let mut report = GenReport::default();
    for (seq, due_ns) in schedule {
        let late = wait_until(t0, due_ns);
        if due_ns >= measure_from_ns {
            report.lateness_ns.push(late as f64);
        }
        let traced = seq % TRACE_STRIDE == 0 && switches.tracing.load(Ordering::Relaxed);
        if traced {
            let enter_ns = due_ns + late;
            submit(seq);
            let return_ns = now_ns(t0);
            if report.stamps.len() < TRACE_KEEP {
                report.stamps.push(GenStamp {
                    seq,
                    due_ns,
                    enter_ns,
                    return_ns,
                });
            }
        } else {
            submit(seq);
        }
        report.sent += 1;
    }
    report
}

/// The closed loop's credit window. The generator blocks once `window`
/// tasks are outstanding and is woken when half the window has drained,
/// so wake-ups cost one futex call per half window, not per task.
#[derive(Debug)]
pub struct Credit {
    window: u64,
    sent: AtomicU64,
    delivered: AtomicU64,
    waiting: AtomicBool,
    generator: OnceLock<Thread>,
}

impl Credit {
    /// A window of `window` outstanding tasks, `already_sent` of which
    /// were submitted before the generator started.
    pub fn new(window: u64, already_sent: u64) -> Self {
        Self {
            window: window.max(1),
            sent: AtomicU64::new(already_sent),
            delivered: AtomicU64::new(0),
            waiting: AtomicBool::new(false),
            generator: OnceLock::new(),
        }
    }

    /// Generator side: blocks until a task may be sent or `stop` is set;
    /// false means stop.
    fn acquire(&self, stop: &AtomicBool) -> bool {
        let _ = self.generator.get_or_init(std::thread::current);
        loop {
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            let sent = self.sent.load(Ordering::Relaxed);
            if sent - self.delivered.load(Ordering::Acquire) < self.window {
                self.sent.store(sent + 1, Ordering::Release);
                return true;
            }
            self.waiting.store(true, Ordering::SeqCst);
            // Re-check after publishing `waiting`: a delivery that raced
            // the store would otherwise leave nobody to wake us.
            if self.sent.load(Ordering::Relaxed) - self.delivered.load(Ordering::SeqCst)
                < self.window
            {
                self.waiting.store(false, Ordering::SeqCst);
                continue;
            }
            std::thread::park_timeout(Duration::from_millis(5));
        }
    }

    /// Drain side: one task came back.
    pub fn release(&self) {
        let delivered = self.delivered.fetch_add(1, Ordering::SeqCst) + 1;
        if self.waiting.load(Ordering::SeqCst)
            && self.sent.load(Ordering::Acquire) - delivered <= self.window / 2
            && self.waiting.swap(false, Ordering::SeqCst)
        {
            if let Some(t) = self.generator.get() {
                t.unpark();
            }
        }
    }
}

/// Send times of sampled tasks, written by the generator and read by the
/// drain: slot `(seq / stride) % len`. Sized so a slot is never reused
/// while its task is outstanding.
#[derive(Debug)]
pub struct SentTimes {
    stride: u64,
    slots: Vec<AtomicU64>,
}

impl SentTimes {
    /// Room for `window` outstanding tasks sampled every `stride`.
    pub fn new(window: u64, stride: u64) -> Self {
        let stride = stride.max(1);
        let len = (window / stride + 2).next_power_of_two() as usize;
        Self {
            stride,
            slots: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// True when `seq` is one of the sampled tasks.
    pub fn sampled(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.stride)
    }

    fn slot(&self, seq: u64) -> &AtomicU64 {
        &self.slots[(seq / self.stride) as usize & (self.slots.len() - 1)]
    }

    /// Generator: task `seq` entered submit at `ns`.
    pub fn set(&self, seq: u64, ns: u64) {
        self.slot(seq).store(ns, Ordering::Release);
    }

    /// Drain: when did task `seq` enter submit.
    pub fn get(&self, seq: u64) -> u64 {
        self.slot(seq).load(Ordering::Acquire)
    }
}

/// Runs a closed-loop generator from task `first_seq` until
/// `switches.stop`: each task waits for credit, stamps its send time if
/// sampled, and is submitted.
pub fn closed_loop(
    t0: Instant,
    first_seq: u64,
    credit: &Credit,
    sent_times: &SentTimes,
    switches: &Switches,
    mut submit: impl FnMut(u64),
) -> GenReport {
    let mut report = GenReport::default();
    let mut seq = first_seq;
    loop {
        let traced = seq.is_multiple_of(TRACE_STRIDE) && switches.tracing.load(Ordering::Relaxed);
        let due_ns = if traced { now_ns(t0) } else { 0 };
        if !credit.acquire(&switches.stop) {
            break;
        }
        let sampled = sent_times.sampled(seq);
        let enter_ns = if sampled || traced { now_ns(t0) } else { 0 };
        if sampled {
            sent_times.set(seq, enter_ns);
        }
        submit(seq);
        if traced && report.stamps.len() < TRACE_KEEP {
            report.stamps.push(GenStamp {
                seq,
                due_ns,
                enter_ns,
                return_ns: now_ns(t0),
            });
        }
        seq += 1;
    }
    report.sent = seq - first_seq;
    report
}

/// Counting bins per one-second window.
pub const BINS_PER_WINDOW: usize = 10;

/// Per-second windows of the measured part of a run, with deliveries
/// counted in 100 ms bins so contract attainment can be read off them.
///
/// Owned by the drain thread. `weight` lets a sampled stream (every
/// `stride`-th delivery timestamped) still count every delivery.
#[derive(Debug)]
pub struct Recorder {
    start_ns: u64,
    bins: Vec<u64>,
    latencies_ns: Vec<Vec<f64>>,
    /// Delivery times of traced tasks, `(seq, ns)`.
    pub delivered_stamps: Vec<(u64, u64)>,
}

const WINDOW_NS: u64 = 1_000_000_000;
const BIN_NS: u64 = WINDOW_NS / BINS_PER_WINDOW as u64;

impl Recorder {
    /// `windows` one-second windows starting at `start_ns`.
    pub fn new(start_ns: u64, windows: usize) -> Self {
        Self {
            start_ns,
            bins: vec![0; windows * BINS_PER_WINDOW],
            latencies_ns: vec![Vec::new(); windows],
            delivered_stamps: Vec::new(),
        }
    }

    /// Counts `weight` deliveries at `at_ns` (ignored outside the
    /// measured windows).
    pub fn count(&mut self, at_ns: u64, weight: u64) {
        if let Some(bin) = at_ns
            .checked_sub(self.start_ns)
            .map(|d| (d / BIN_NS) as usize)
        {
            if let Some(b) = self.bins.get_mut(bin) {
                *b += weight;
            }
        }
    }

    /// Records one latency sample for a delivery at `at_ns`.
    pub fn latency(&mut self, at_ns: u64, latency_ns: u64) {
        if let Some(w) = at_ns
            .checked_sub(self.start_ns)
            .map(|d| (d / WINDOW_NS) as usize)
        {
            if let Some(l) = self.latencies_ns.get_mut(w) {
                l.push(latency_ns as f64);
            }
        }
    }

    /// The latency samples of window `w`, ns, in delivery order.
    pub fn latencies_ns(&self, w: usize) -> &[f64] {
        self.latencies_ns.get(w).map_or(&[], Vec::as_slice)
    }

    /// Notes a traced task's delivery time.
    pub fn stamp(&mut self, seq: u64, at_ns: u64) {
        if self.delivered_stamps.len() < TRACE_KEEP {
            self.delivered_stamps.push((seq, at_ns));
        }
    }

    /// Summarises windows `range` (all of them for an untraced run).
    pub fn summary(&self, range: std::ops::Range<usize>) -> WindowSummary {
        let bins = &self.bins[range.start * BINS_PER_WINDOW..range.end * BINS_PER_WINDOW];
        let bin_rates: Vec<f64> = bins
            .iter()
            .map(|&c| (c * BINS_PER_WINDOW as u64) as f64)
            .collect();
        let rates: Vec<f64> = bins
            .chunks(BINS_PER_WINDOW)
            .map(|w| w.iter().sum::<u64>() as f64)
            .collect();
        let mut all = Vec::new();
        let mut p99_by_window = Vec::new();
        for w in &self.latencies_ns[range] {
            if !w.is_empty() {
                p99_by_window.push(stats::quantile(w, 0.99));
                all.extend_from_slice(w);
            }
        }
        stats::sort(&mut all);
        WindowSummary {
            delivered: bins.iter().sum(),
            rate_median: stats::median(&rates),
            rates,
            bin_rates,
            p50_us: stats::quantile_sorted(&all, 0.50) / 1e3,
            p90_us: stats::quantile_sorted(&all, 0.90) / 1e3,
            p99w_us: stats::median(&p99_by_window) / 1e3,
            p999_us: stats::quantile_sorted(&all, 0.999) / 1e3,
            max_us: all.last().copied().unwrap_or(0.0) / 1e3,
            samples: all.len() as u64,
        }
    }
}

/// What a [`Recorder`] saw over some windows.
#[derive(Debug, Clone, Default)]
pub struct WindowSummary {
    /// Deliveries counted.
    pub delivered: u64,
    /// Deliveries per second, one value per window.
    pub rates: Vec<f64>,
    /// Deliveries per second, one value per 100 ms bin.
    pub bin_rates: Vec<f64>,
    /// Median of `rates`.
    pub rate_median: f64,
    /// Latency quantiles over all samples, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// Median over windows of each window's 99th percentile, µs.
    pub p99w_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Largest sample, µs.
    pub max_us: f64,
    /// Latency samples taken.
    pub samples: u64,
}

impl WindowSummary {
    /// Contract attainment: the share of 100 ms bins whose delivery rate
    /// was at least `floor` tasks/s (1 when there are no bins).
    pub fn share_at_least(&self, floor: f64) -> f64 {
        if self.bin_rates.is_empty() {
            return 1.0;
        }
        self.bin_rates.iter().filter(|&&r| r >= floor).count() as f64 / self.bin_rates.len() as f64
    }

    /// Attainment against half this run's own median bin rate: the share
    /// of bins in which a closed loop was not stalled.
    pub fn share_not_stalled(&self) -> f64 {
        self.share_at_least(0.5 * stats::median(&self.bin_rates))
    }
}

/// Why an open-loop run's numbers cannot be trusted, if so.
///
/// A run is invalid when the generator itself could not keep the schedule
/// (its median lateness above a tenth of the mean inter-arrival gap: it
/// was late as a rule, not by accident) or the system fell behind it
/// (delivered under 98 % of offered over the measured windows, i.e. a
/// growing backlog). Lateness in the tail does not invalidate a run: it is
/// part of every latency, which runs from the due time, and is reported.
pub fn open_loop_verdict(
    lateness_p50_ns: f64,
    mean_gap_ns: f64,
    offered: u64,
    delivered: u64,
) -> Option<String> {
    if lateness_p50_ns > 0.1 * mean_gap_ns {
        return Some(format!(
            "generator late: median {:.1} us exceeds a tenth of the {:.1} us gap",
            lateness_p50_ns / 1e3,
            mean_gap_ns / 1e3
        ));
    }
    if (delivered as f64) < 0.98 * offered as f64 {
        return Some(format!(
            "backlog grew: delivered {delivered} of {offered} offered"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recorder_buckets_by_window_and_ignores_warmup_and_tail() {
        const S: u64 = 1_000_000_000;
        let mut r = Recorder::new(S, 3);
        r.count(S / 2, 1); // warm-up
        r.count(S, 2);
        r.count(3 * S - 1, 4);
        r.count(4 * S - 1, 8);
        r.count(4 * S, 16); // after the end
        r.latency(S + S / 2, 2_000);
        r.latency(2 * S + S / 2, 4_000);
        let s = r.summary(0..3);
        assert_eq!(s.delivered, 14);
        assert_eq!(s.samples, 2);
        assert_eq!(s.rates, vec![2.0, 4.0, 8.0]);
        assert_eq!(s.rate_median, 4.0);
        assert_eq!(s.bin_rates.len(), 30);
        assert_eq!(s.bin_rates[0], 20.0);
        assert!((s.share_at_least(20.0) - 3.0 / 30.0).abs() < 1e-12);
        assert_eq!(r.summary(1..3).delivered, 12);
    }

    #[test]
    fn credit_window_bounds_outstanding_tasks() {
        let credit = Arc::new(Credit::new(8, 0));
        let switches = Arc::new(Switches::default());
        let sent_times = Arc::new(SentTimes::new(8, 1));
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        let t0 = Instant::now();
        let gen = {
            let (credit, switches, sent_times) =
                (credit.clone(), switches.clone(), sent_times.clone());
            std::thread::spawn(move || {
                closed_loop(t0, 0, &credit, &sent_times, &switches, |seq| {
                    tx.send(seq).unwrap()
                })
            })
        };
        let mut got = 0u64;
        while got < 1_000 {
            let seq = rx.recv().unwrap();
            assert_eq!(seq, got);
            let outstanding =
                credit.sent.load(Ordering::SeqCst) - credit.delivered.load(Ordering::SeqCst);
            assert!(outstanding <= 8, "{outstanding} outstanding");
            assert!(sent_times.get(seq) > 0);
            got += 1;
            credit.release();
        }
        switches.stop.store(true, Ordering::SeqCst);
        let report = gen.join().unwrap();
        assert!(report.sent >= 1_000);
    }
}

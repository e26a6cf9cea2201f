//! Sequential stages and shared stage metrics.
//!
//! A sequential stage is a thread mapping the input stream to the output
//! stream one item at a time. Every stage (and the paced source / sink)
//! publishes `StageMetrics` — the arrival/departure estimators a stage
//! manager's ABC reads.

use crate::stream::StreamMsg;
use bskel_monitor::{Clock, Counter, RateEstimator, SensorSnapshot, Time};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shared monitoring state of one stage.
pub(crate) struct StageMetrics {
    clock: Arc<dyn Clock>,
    arrivals: Mutex<RateEstimator>,
    departures: Mutex<RateEstimator>,
    end_in: AtomicBool,
    processed: Counter,
}

impl StageMetrics {
    /// Creates metrics with the given clock and rate window (seconds).
    pub fn new(clock: Arc<dyn Clock>, rate_window: f64) -> Arc<Self> {
        Arc::new(Self {
            clock,
            arrivals: Mutex::new(RateEstimator::new(rate_window)),
            departures: Mutex::new(RateEstimator::new(rate_window)),
            end_in: AtomicBool::new(false),
            processed: Counter::new(),
        })
    }

    /// The stage's time source.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Records an input arrival.
    pub(crate) fn record_arrival(&self, t: Time) {
        self.arrivals.lock().record(t);
    }

    /// Records an output departure.
    pub(crate) fn record_departure(&self, t: Time) {
        self.departures.lock().record(t);
        self.processed.incr();
    }

    /// Marks end-of-stream observed on the input.
    pub(crate) fn mark_end_in(&self) {
        self.end_in.store(true, Ordering::SeqCst);
    }

    /// Builds a sensor snapshot at time `now`.
    pub fn snapshot(&self, now: Time) -> SensorSnapshot {
        let mut snap = SensorSnapshot::empty(now);
        snap.arrival_rate = self.arrivals.lock().rate(now);
        snap.departure_rate = self.departures.lock().rate(now);
        snap.end_of_stream = self.end_in.load(Ordering::SeqCst);
        if let Some(idle) = self.arrivals.lock().idle_for(now) {
            snap.idle_for = idle;
        }
        snap
    }
}

/// Spawns a sequential mapping stage.
pub(crate) fn spawn_stage<In, Out>(
    name: &str,
    rx: Receiver<StreamMsg<In>>,
    tx: Sender<StreamMsg<Out>>,
    mut f: impl FnMut(In) -> Out + Send + 'static,
    metrics: Arc<StageMetrics>,
) -> JoinHandle<u64>
where
    In: Send + 'static,
    Out: Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("bskel-stage-{name}"))
        .spawn(move || {
            let mut n = 0u64;
            for msg in rx.iter() {
                match msg {
                    StreamMsg::Item { seq, payload } => {
                        metrics.record_arrival(metrics.now());
                        let out = f(payload);
                        metrics.record_departure(metrics.now());
                        n += 1;
                        if tx.send(StreamMsg::item(seq, out)).is_err() {
                            break;
                        }
                    }
                    StreamMsg::End => {
                        metrics.mark_end_in();
                        let _ = tx.send(StreamMsg::End);
                        break;
                    }
                }
            }
            n
        })
        .expect("spawn stage thread")
}

/// Spawns a sink stage consuming the stream; returns the number of items
/// consumed when joined.
pub(crate) fn spawn_sink<In>(
    name: &str,
    rx: Receiver<StreamMsg<In>>,
    mut f: impl FnMut(In) + Send + 'static,
    metrics: Arc<StageMetrics>,
) -> JoinHandle<u64>
where
    In: Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("bskel-sink-{name}"))
        .spawn(move || {
            let mut n = 0u64;
            for msg in rx.iter() {
                match msg {
                    StreamMsg::Item { payload, .. } => {
                        metrics.record_arrival(metrics.now());
                        f(payload);
                        metrics.record_departure(metrics.now());
                        n += 1;
                    }
                    StreamMsg::End => {
                        metrics.mark_end_in();
                        break;
                    }
                }
            }
            n
        })
        .expect("spawn sink thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_monitor::ManualClock;
    use crossbeam::channel::unbounded;

    impl StageMetrics {
        /// Whether the input stream has ended.
        fn end_in(&self) -> bool {
            self.end_in.load(Ordering::SeqCst)
        }

        /// Total items processed.
        fn processed(&self) -> u64 {
            self.processed.get()
        }
    }

    fn clock() -> Arc<dyn Clock> {
        Arc::new(ManualClock::new())
    }

    #[test]
    fn stage_maps_stream_and_forwards_end() {
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let metrics = StageMetrics::new(clock(), 5.0);
        let h = spawn_stage(
            "double",
            rx_in,
            tx_out,
            |x: u64| x * 2,
            Arc::clone(&metrics),
        );
        for i in 0..5 {
            tx_in.send(StreamMsg::item(i, i)).unwrap();
        }
        tx_in.send(StreamMsg::End).unwrap();
        let mut got = Vec::new();
        for msg in rx_out.iter() {
            match msg {
                StreamMsg::Item { seq, payload } => got.push((seq, payload)),
                StreamMsg::End => break,
            }
        }
        assert_eq!(got, vec![(0, 0), (1, 2), (2, 4), (3, 6), (4, 8)]);
        assert_eq!(h.join().unwrap(), 5);
        assert!(metrics.end_in());
        assert_eq!(metrics.processed(), 5);
    }

    #[test]
    fn sink_consumes_and_counts() {
        let (tx, rx) = unbounded();
        let metrics = StageMetrics::new(clock(), 5.0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let h = spawn_sink(
            "sink",
            rx,
            move |x: u64| seen2.lock().push(x),
            Arc::clone(&metrics),
        );
        for i in 0..3 {
            tx.send(StreamMsg::item(i, i * 10)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(h.join().unwrap(), 3);
        assert_eq!(*seen.lock(), vec![0, 10, 20]);
        assert!(metrics.end_in());
    }

    #[test]
    fn metrics_snapshot_rates() {
        let manual = ManualClock::new();
        let metrics = StageMetrics::new(Arc::new(manual.clone()), 2.0);
        for i in 0..10 {
            metrics.record_arrival(i as f64 * 0.1);
            metrics.record_departure(i as f64 * 0.1 + 0.05);
        }
        let snap = metrics.snapshot(1.0);
        assert!(snap.arrival_rate > 3.0);
        assert!(snap.departure_rate > 3.0);
        assert!(!snap.end_of_stream);
        assert!(snap.idle_for < 1.0);
    }

    #[test]
    fn stage_stops_when_downstream_drops() {
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded::<StreamMsg<u64>>();
        let metrics = StageMetrics::new(clock(), 5.0);
        let h = spawn_stage("s", rx_in, tx_out, |x: u64| x, metrics);
        tx_in.send(StreamMsg::item(0, 1)).unwrap();
        rx_out.recv().unwrap();
        drop(rx_out);
        tx_in.send(StreamMsg::item(1, 2)).unwrap();
        // The stage notices the closed output and exits.
        h.join().unwrap();
    }
}

//! Data-parallel functional replication: scatter/gather **map** and
//! scatter/reduce **map-reduce**.
//!
//! The paper's functional-replication BS covers more than task farms: "by
//! varying the way input tasks are distributed to the available concurrent
//! computations \[and\] the way the results are gathered into the output
//! stream … several distinct parallel patterns can be modeled, including
//! embarrassingly parallel computation on streams (task farm) and data
//! parallel computation" (§3), with Fig. 2 naming the *scatter* dispatch
//! and *gather/reduce* collection policies. This module implements those:
//!
//! * [`MapFarm`] — each stream item is a `Vec<T>`; the emitter *scatters*
//!   it in balanced chunks over the current workers, each worker maps its
//!   chunk element-wise, and the collector *gathers* the chunks back into
//!   a `Vec<U>` preserving element order (and stream order);
//! * [`MapReduceFarm`] — same scatter, but each worker folds its chunk
//!   locally and the collector *reduces* the partials with an associative
//!   combiner, emitting one scalar per input vector.
//!
//! Both reconfigure like the task farm (workers can be added/removed
//! between items — the chunk count simply follows the current parallelism
//! degree) and expose the same sensor set through [`MapControl`], so the
//! ordinary farm manager rules drive them unchanged (`departureRate`
//! counts vectors, not elements).

use crate::farm::panic_message;
use crate::rcu::{Published, ReadHandle};
use crate::stream::{ReorderBuffer, StreamMsg};
use bskel_monitor::{AtomicRateEstimator, Clock, RealClock, SensorSnapshot, Time};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Splits `len` into `parts` contiguous chunk ranges, sizes differing by
/// at most one (the scatter policy's balancing rule).
pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "cannot scatter over zero workers");
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// One scattered piece of a stream item, in flight to a worker. Workers
/// exit when their channel disconnects (every sender clone dropped) — no
/// in-band stop sentinel, so a chunk sent through a stale worker-table
/// snapshot during a concurrent removal is still processed, never lost.
struct WorkerJob<T> {
    seq: u64,
    chunk: usize,
    data: Vec<T>,
}

/// Chunks collected so far for one stream item: remaining count + slots.
type PendingChunks<U> = std::collections::HashMap<u64, (usize, Vec<Option<Vec<U>>>)>;

enum Gathered<U> {
    Expect {
        seq: u64,
        chunks: usize,
    },
    Chunk {
        seq: u64,
        chunk: usize,
        data: Vec<U>,
    },
    /// A chunk's element panicked in `map`: the whole stream item is
    /// poisoned and will never complete — the collector must stop
    /// waiting for it instead of hanging the stream.
    Poisoned {
        seq: u64,
    },
    EndOfStream,
}

struct MapShared<T, U> {
    /// RCU-published worker senders: the emitter and the broadcast adapter
    /// read snapshots wait-free; reconfiguration republishes.
    workers: Arc<Published<Vec<Sender<WorkerJob<T>>>>>,
    /// Serialises reconfigurations (the task path never takes it).
    reconfig: Mutex<()>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    gathered_tx: Sender<Gathered<U>>,
    map_element: Arc<dyn Fn(T) -> U + Send + Sync>,
    clock: Arc<dyn Clock>,
    arrivals: AtomicRateEstimator,
    departures: AtomicRateEstimator,
    end_of_stream: AtomicBool,
    max_workers: u32,
}

impl<T: Send + 'static, U: Send + 'static> MapShared<T, U> {
    fn spawn_worker(&self) -> Sender<WorkerJob<T>> {
        let (tx, rx) = unbounded::<WorkerJob<T>>();
        let map = Arc::clone(&self.map_element);
        let out = self.gathered_tx.clone();
        let handle = std::thread::Builder::new()
            .name("bskel-map-worker".into())
            .spawn(move || {
                // Exits when every sender clone (published table + any
                // stale emitter snapshots) has been dropped, guaranteeing
                // no chunk is left behind by a concurrent removal.
                while let Ok(WorkerJob { seq, chunk, data }) = rx.recv() {
                    // Panic isolation: a poisoned element must not kill
                    // this thread (it keeps serving later items) nor
                    // strand the collector waiting for the chunk.
                    let mapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        data.into_iter().map(|x| map(x)).collect::<Vec<U>>()
                    }));
                    let msg = match mapped {
                        Ok(data) => Gathered::Chunk { seq, chunk, data },
                        Err(_) => Gathered::Poisoned { seq },
                    };
                    if out.send(msg).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn map worker");
        self.threads.lock().push(handle);
        tx
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        let _guard = self.reconfig.lock();
        let mut workers: Vec<Sender<WorkerJob<T>>> = (*self.workers.load()).clone();
        if workers.len() as u32 + n > self.max_workers {
            return Err(format!(
                "worker limit reached ({} + {n} > {})",
                workers.len(),
                self.max_workers
            ));
        }
        for _ in 0..n {
            let tx = self.spawn_worker();
            workers.push(tx);
        }
        self.workers.publish(workers);
        Ok(n)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        let _guard = self.reconfig.lock();
        let mut workers: Vec<Sender<WorkerJob<T>>> = (*self.workers.load()).clone();
        if workers.len() as u32 <= n {
            return Err(format!("cannot remove {n} of {} workers", workers.len()));
        }
        // Dropping the sender (rather than sending a stop sentinel)
        // retires the worker: it drains whatever is still in flight from
        // stale snapshots, then its channel disconnects and it exits.
        workers.truncate(workers.len() - n as usize);
        self.workers.publish(workers);
        Ok(n)
    }

    fn sense(&self, now: Time) -> SensorSnapshot {
        let mut snap = SensorSnapshot::empty(now);
        snap.arrival_rate = self.arrivals.rate(now);
        snap.departure_rate = self.departures.rate(now);
        snap.num_workers = self.workers.load().len() as u32;
        snap.end_of_stream = self.end_of_stream.load(Ordering::SeqCst);
        snap
    }
}

/// Control surface of the data-parallel skeletons (same shape as the task
/// farm's, so `FarmAbc` logic can be replicated trivially).
pub trait MapControl: Send + Sync {
    /// Current sensor snapshot (`departureRate` counts whole vectors).
    fn sense(&self, now: Time) -> SensorSnapshot;
    /// Adds workers (effective from the next scattered item).
    fn add_workers(&self, n: u32) -> Result<u32, String>;
    /// Removes workers.
    fn remove_workers(&self, n: u32) -> Result<u32, String>;
    /// Current parallelism degree.
    fn num_workers(&self) -> usize;
}

impl<T: Send + 'static, U: Send + 'static> MapControl for MapShared<T, U> {
    fn sense(&self, now: Time) -> SensorSnapshot {
        MapShared::sense(self, now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        MapShared::add_workers(self, n)
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        MapShared::remove_workers(self, n)
    }

    fn num_workers(&self) -> usize {
        self.workers.load().len()
    }
}

/// How the collector combines a completed item's mapped chunks (received
/// in chunk order): concatenation for gather, an ordered fold for reduce.
type Collection<U, Out> = Box<dyn Fn(Vec<Vec<U>>) -> Out + Send>;

/// Internals shared by [`MapFarm`] and [`MapReduceFarm`].
struct MapEngine<T, U, Out> {
    input: Sender<StreamMsg<Vec<T>>>,
    output: Receiver<StreamMsg<Out>>,
    shared: Arc<MapShared<T, U>>,
    emitter: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl<T: Send + 'static, U: Send + 'static, Out: Send + 'static> MapEngine<T, U, Out> {
    fn build(
        map_element: Arc<dyn Fn(T) -> U + Send + Sync>,
        collection: Collection<U, Out>,
        initial_workers: u32,
        max_workers: u32,
        clock: Arc<dyn Clock>,
        rate_window: f64,
    ) -> Self {
        let (input_tx, input_rx) = unbounded::<StreamMsg<Vec<T>>>();
        let (gathered_tx, gathered_rx) = unbounded::<Gathered<U>>();
        let (output_tx, output_rx) = unbounded::<StreamMsg<Out>>();

        let shared = Arc::new(MapShared {
            workers: Arc::new(Published::new(Vec::new())),
            reconfig: Mutex::new(()),
            threads: Mutex::new(Vec::new()),
            gathered_tx: gathered_tx.clone(),
            map_element,
            clock,
            arrivals: AtomicRateEstimator::new(rate_window),
            departures: AtomicRateEstimator::new(rate_window),
            end_of_stream: AtomicBool::new(false),
            max_workers: max_workers.max(1),
        });
        shared
            .add_workers(initial_workers.max(1))
            .expect("initial workers under cap");

        // Emitter: scatter each vector over the current workers.
        let emitter = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bskel-map-emitter".into())
                .spawn(move || {
                    let mut reader = ReadHandle::new(Arc::clone(&shared.workers));
                    for msg in input_rx.iter() {
                        match msg {
                            StreamMsg::Item { seq, payload } => {
                                let now = shared.clock.now();
                                shared.arrivals.record(now);
                                let workers = Arc::clone(reader.get());
                                let parts = workers.len().min(payload.len()).max(1);
                                let ranges = chunk_ranges(payload.len(), parts);
                                if shared
                                    .gathered_tx
                                    .send(Gathered::Expect { seq, chunks: parts })
                                    .is_err()
                                {
                                    break;
                                }
                                let mut data = payload;
                                // Walk ranges back-to-front so split_off is
                                // O(chunk) each.
                                let mut pieces: Vec<Vec<T>> = Vec::with_capacity(parts);
                                for range in ranges.iter().rev() {
                                    pieces.push(data.split_off(range.start));
                                }
                                pieces.reverse();
                                for (chunk, piece) in pieces.into_iter().enumerate() {
                                    let _ = workers[chunk % workers.len()].send(WorkerJob {
                                        seq,
                                        chunk,
                                        data: piece,
                                    });
                                }
                            }
                            StreamMsg::End => {
                                shared.end_of_stream.store(true, Ordering::SeqCst);
                                let _ = shared.gathered_tx.send(Gathered::EndOfStream);
                                break;
                            }
                        }
                    }
                })
                .expect("spawn map emitter")
        };

        // Collector: gather chunks per item; emit in stream order.
        let collector = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bskel-map-collector".into())
                .spawn(move || {
                    let mut pending: PendingChunks<U> = PendingChunks::new();
                    let mut reorder = ReorderBuffer::new();
                    let mut poisoned: std::collections::HashSet<u64> =
                        std::collections::HashSet::new();
                    let mut eos = false;
                    let mut open = 0usize;
                    // Dense output renumbering (explicit counter so a
                    // poisoned item's hole leaves no gap in the seqs).
                    let mut emitted = 0u64;
                    for msg in gathered_rx.iter() {
                        match msg {
                            Gathered::Expect { seq, chunks } => {
                                let mut slots = Vec::with_capacity(chunks);
                                slots.resize_with(chunks, || None);
                                pending.insert(seq, (chunks, slots));
                                open += 1;
                            }
                            Gathered::Chunk { seq, chunk, data } => {
                                if poisoned.contains(&seq) {
                                    continue; // sibling chunk of a dead item
                                }
                                let entry =
                                    pending.get_mut(&seq).expect("chunk follows its Expect");
                                entry.0 -= 1;
                                entry.1[chunk] = Some(data);
                                if entry.0 == 0 {
                                    let (_, slots) = pending.remove(&seq).expect("entry exists");
                                    let chunks: Vec<Vec<U>> = slots
                                        .into_iter()
                                        .map(|c| c.expect("all chunks arrived"))
                                        .collect();
                                    // A panicking collection (an empty vector
                                    // to reduce, a panicking combiner) poisons
                                    // only its item, like a panicking `map`.
                                    let collected = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| collection(chunks)),
                                    );
                                    open -= 1;
                                    let released = match collected {
                                        Ok(out) => {
                                            shared.departures.record(shared.clock.now());
                                            reorder.push(seq, out)
                                        }
                                        Err(_) => reorder.skip(seq),
                                    };
                                    for item in released {
                                        let _ = output_tx.send(StreamMsg::item(emitted, item));
                                        emitted += 1;
                                    }
                                    if eos && open == 0 && reorder.is_empty() {
                                        let _ = output_tx.send(StreamMsg::End);
                                        break;
                                    }
                                }
                            }
                            Gathered::Poisoned { seq } => {
                                if poisoned.insert(seq) && pending.remove(&seq).is_some() {
                                    open -= 1;
                                    for item in reorder.skip(seq) {
                                        let _ = output_tx.send(StreamMsg::item(emitted, item));
                                        emitted += 1;
                                    }
                                    if eos && open == 0 && reorder.is_empty() {
                                        let _ = output_tx.send(StreamMsg::End);
                                        break;
                                    }
                                }
                            }
                            Gathered::EndOfStream => {
                                eos = true;
                                if open == 0 && reorder.is_empty() {
                                    let _ = output_tx.send(StreamMsg::End);
                                    break;
                                }
                            }
                        }
                    }
                })
                .expect("spawn map collector")
        };

        Self {
            input: input_tx,
            output: output_rx,
            shared,
            emitter: Some(emitter),
            collector: Some(collector),
        }
    }

    /// Joins every thread of the skeleton; returns the panic message of
    /// each one that died.
    fn shutdown(mut self) -> Vec<String> {
        let mut panics = Vec::new();
        let mut join = |thread: JoinHandle<()>| {
            if let Err(payload) = thread.join() {
                panics.push(panic_message(&*payload));
            }
        };
        if let Some(e) = self.emitter.take() {
            join(e);
        }
        if let Some(c) = self.collector.take() {
            join(c);
        }
        // Publishing an empty table drops the last sender clones (the
        // emitter's snapshot died with its thread), disconnecting every
        // worker channel; workers drain and exit.
        self.shared.workers.publish(Vec::new());
        for t in std::mem::take(&mut *self.shared.threads.lock()) {
            join(t);
        }
        panics
    }
}

/// A data-parallel map skeleton: `Vec<T>` in, `Vec<U>` out, element order
/// preserved, work scattered over the current workers.
// Public: paper feature S12 in DESIGN.md (data-parallel farms).
pub struct MapFarm<T, U> {
    engine: MapEngine<T, U, Vec<U>>,
}

impl<T: Send + 'static, U: Send + 'static> MapFarm<T, U> {
    /// Builds and starts the skeleton.
    pub fn new(f: impl Fn(T) -> U + Send + Sync + 'static, initial_workers: u32) -> Self {
        Self::with_options(f, initial_workers, 1024, Arc::new(RealClock::new()), 2.0)
    }

    /// Builds with explicit limits and clock.
    pub fn with_options(
        f: impl Fn(T) -> U + Send + Sync + 'static,
        initial_workers: u32,
        max_workers: u32,
        clock: Arc<dyn Clock>,
        rate_window: f64,
    ) -> Self {
        let engine = MapEngine::build(
            Arc::new(f),
            Box::new(|chunks: Vec<Vec<U>>| {
                let total = chunks.iter().map(Vec::len).sum();
                let mut out = Vec::with_capacity(total);
                for c in chunks {
                    out.extend(c);
                }
                out
            }),
            initial_workers,
            max_workers,
            clock,
            rate_window,
        );
        Self { engine }
    }

    /// Input channel (vectors + `End`).
    pub fn input(&self) -> Sender<StreamMsg<Vec<T>>> {
        self.engine.input.clone()
    }

    /// Output channel (mapped vectors in stream order + `End`).
    pub fn output(&self) -> Receiver<StreamMsg<Vec<U>>> {
        self.engine.output.clone()
    }

    /// The control surface for an ABC.
    pub fn control(&self) -> Arc<dyn MapControl> {
        Arc::clone(&self.engine.shared) as Arc<dyn MapControl>
    }

    /// Tears the skeleton down after the stream completes; returns the
    /// panic messages of its threads that died (empty when clean).
    pub fn shutdown(self) -> Vec<String> {
        self.engine.shutdown()
    }
}

/// A data-parallel map-reduce skeleton: `Vec<T>` in, one `U` out per
/// vector, combined with an **associative** combiner.
pub struct MapReduceFarm<T, U> {
    engine: MapEngine<T, U, U>,
}

impl<T: Send + 'static, U: Send + 'static> MapReduceFarm<T, U> {
    /// Builds and starts the skeleton. `map` transforms elements; workers
    /// fold their chunk with `combine`, and the collector folds the
    /// per-chunk partials with the same `combine` (which must therefore be
    /// associative; chunk order is preserved, so commutativity is *not*
    /// required).
    pub fn new(
        map: impl Fn(T) -> U + Send + Sync + 'static,
        combine: impl Fn(U, U) -> U + Send + Sync + Clone + 'static,
        initial_workers: u32,
    ) -> Self {
        Self::with_options(
            map,
            combine,
            initial_workers,
            1024,
            Arc::new(RealClock::new()),
            2.0,
        )
    }

    /// Builds with explicit limits and clock.
    pub fn with_options(
        map: impl Fn(T) -> U + Send + Sync + 'static,
        combine: impl Fn(U, U) -> U + Send + Sync + Clone + 'static,
        initial_workers: u32,
        max_workers: u32,
        clock: Arc<dyn Clock>,
        rate_window: f64,
    ) -> Self {
        // Chunks arrive in chunk order and elements keep their order
        // within a chunk, so an ordered fold over the flattened chunks
        // equals the sequential left fold — associativity lets the
        // per-chunk folds commute with the final combination, and no
        // commutativity is needed.
        let engine = MapEngine::build(
            Arc::new(map),
            Box::new(move |chunks: Vec<Vec<U>>| {
                let mut it = chunks.into_iter().flatten();
                let first = it.next().expect("reduce of an empty vector");
                it.fold(first, &combine)
            }),
            initial_workers,
            max_workers,
            clock,
            rate_window,
        );
        Self { engine }
    }

    /// Input channel.
    pub fn input(&self) -> Sender<StreamMsg<Vec<T>>> {
        self.engine.input.clone()
    }

    /// Output channel (one reduced value per input vector).
    pub fn output(&self) -> Receiver<StreamMsg<U>> {
        self.engine.output.clone()
    }

    /// The control surface for an ABC.
    pub fn control(&self) -> Arc<dyn MapControl> {
        Arc::clone(&self.engine.shared) as Arc<dyn MapControl>
    }

    /// Tears the skeleton down after the stream completes; returns the
    /// panic messages of its threads that died (empty when clean).
    pub fn shutdown(self) -> Vec<String> {
        self.engine.shutdown()
    }
}

/// A broadcast skeleton (Fig. 2's *broadcast* dispatch policy): every
/// worker receives a **clone of every item**, each applies the worker
/// function to its replica, and the collector combines the replica results
/// in worker order — e.g. by majority vote, the "redundant control"
/// flavour of fault tolerance the paper mentions in §2.
///
/// Implemented as an adapter over the scatter engine: an item fans out as
/// a vector of `num_workers` clones, one element per worker.
// Public: paper feature S12 in DESIGN.md (data-parallel farms).
pub struct BroadcastFarm<T, U, Out> {
    engine: MapEngine<T, U, Out>,
    adapter_input: Sender<StreamMsg<T>>,
    adapter: Option<JoinHandle<()>>,
}

impl<T, U, Out> BroadcastFarm<T, U, Out>
where
    T: Clone + Send + 'static,
    U: Send + 'static,
    Out: Send + 'static,
{
    /// Builds a broadcast skeleton with `initial_workers` replicas.
    /// `combine` receives one result per replica, in worker order.
    pub fn new(
        f: impl Fn(T) -> U + Send + Sync + 'static,
        combine: impl Fn(Vec<U>) -> Out + Send + 'static,
        initial_workers: u32,
    ) -> Self {
        let engine: MapEngine<T, U, Out> = MapEngine::build(
            Arc::new(f),
            Box::new(move |chunks: Vec<Vec<U>>| {
                // One replica per chunk (each worker got one element).
                combine(chunks.into_iter().flatten().collect())
            }),
            initial_workers,
            1024,
            Arc::new(RealClock::new()),
            2.0,
        );
        let (in_tx, in_rx) = unbounded::<StreamMsg<T>>();
        let engine_in = engine.input.clone();
        let shared = Arc::clone(&engine.shared);
        let adapter = std::thread::Builder::new()
            .name("bskel-broadcast-adapter".into())
            .spawn(move || {
                let mut reader = ReadHandle::new(Arc::clone(&shared.workers));
                for msg in in_rx.iter() {
                    match msg {
                        StreamMsg::Item { seq, payload } => {
                            let replicas = reader.get().len().max(1);
                            let v: Vec<T> = vec![payload; replicas];
                            if engine_in.send(StreamMsg::item(seq, v)).is_err() {
                                break;
                            }
                        }
                        StreamMsg::End => {
                            let _ = engine_in.send(StreamMsg::End);
                            break;
                        }
                    }
                }
            })
            .expect("spawn broadcast adapter");
        Self {
            engine,
            adapter_input: in_tx,
            adapter: Some(adapter),
        }
    }

    /// A majority-voting broadcast over `replicas` workers: the combined
    /// output is the most frequent replica result (ties break toward the
    /// lowest worker index). The classic redundant-control construction.
    // Public: paper feature S12 in DESIGN.md (data-parallel farms).
    pub fn voting(
        f: impl Fn(T) -> U + Send + Sync + 'static,
        replicas: u32,
    ) -> BroadcastFarm<T, U, U>
    where
        U: Eq + std::hash::Hash + Clone,
    {
        BroadcastFarm::new(
            f,
            |results: Vec<U>| {
                let mut counts: Vec<(U, usize)> = Vec::new();
                for r in &results {
                    match counts.iter_mut().find(|(v, _)| v == r) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((r.clone(), 1)),
                    }
                }
                counts
                    .into_iter()
                    .max_by_key(|&(_, c)| c)
                    .map(|(v, _)| v)
                    .expect("at least one replica")
            },
            replicas,
        )
    }

    /// Input channel (single items; the skeleton replicates internally).
    pub fn input(&self) -> Sender<StreamMsg<T>> {
        self.adapter_input.clone()
    }

    /// Output channel (one combined result per item, in stream order).
    pub fn output(&self) -> Receiver<StreamMsg<Out>> {
        self.engine.output.clone()
    }

    /// The control surface for an ABC (replica count = worker count).
    pub fn control(&self) -> Arc<dyn MapControl> {
        Arc::clone(&self.engine.shared) as Arc<dyn MapControl>
    }

    /// Tears the skeleton down after the stream completes; returns the
    /// panic messages of its threads that died (empty when clean).
    pub fn shutdown(mut self) -> Vec<String> {
        let mut panics = Vec::new();
        if let Some(a) = self.adapter.take() {
            if let Err(payload) = a.join() {
                panics.push(panic_message(&*payload));
            }
        }
        panics.extend(self.engine.shutdown());
        panics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<O: Send + 'static>(rx: &Receiver<StreamMsg<O>>) -> Vec<O> {
        let mut out = Vec::new();
        for msg in rx.iter() {
            match msg {
                StreamMsg::Item { payload, .. } => out.push(payload),
                StreamMsg::End => break,
            }
        }
        out
    }

    #[test]
    fn chunk_ranges_balanced() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(4, 4), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(chunk_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(chunk_ranges(0, 2), vec![0..0, 0..0]);
        let ranges = chunk_ranges(1000, 7);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 1000);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn map_farm_preserves_element_and_stream_order() {
        let farm = MapFarm::new(|x: u64| x * 2, 4);
        let tx = farm.input();
        for seq in 0..10u64 {
            let v: Vec<u64> = (0..100).map(|i| seq * 1000 + i).collect();
            tx.send(StreamMsg::item(seq, v)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 10);
        for (seq, v) in results.iter().enumerate() {
            let expected: Vec<u64> = (0..100).map(|i| (seq as u64 * 1000 + i) * 2).collect();
            assert_eq!(v, &expected, "vector {seq} scrambled");
        }
        farm.shutdown();
    }

    #[test]
    fn map_farm_handles_vectors_smaller_than_worker_count() {
        let farm = MapFarm::new(|x: u64| x + 1, 8);
        let tx = farm.input();
        tx.send(StreamMsg::item(0, vec![1u64, 2])).unwrap();
        tx.send(StreamMsg::item(1, vec![])).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results, vec![vec![2, 3], vec![]]);
        farm.shutdown();
    }

    #[test]
    fn map_reduce_failed_reduction_poisons_only_its_item() {
        // Reducing the empty vector panics in the collector: that item is
        // dropped, the items around it are delivered, and the stream Ends.
        let farm = MapReduceFarm::new(|x: u64| x, |a, b| a + b, 2);
        let tx = farm.input();
        tx.send(StreamMsg::item(0, vec![1, 2])).unwrap();
        tx.send(StreamMsg::item(1, vec![])).unwrap();
        tx.send(StreamMsg::item(2, vec![3])).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let rx = farm.output();
        let mut results = Vec::new();
        loop {
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(StreamMsg::Item { payload, .. }) => results.push(payload),
                Ok(StreamMsg::End) => break,
                Err(e) => panic!("stream ended without End after {results:?}: {e}"),
            }
        }
        assert_eq!(results, vec![3, 3]);
        assert!(farm.shutdown().is_empty());
    }

    #[test]
    fn map_farm_poisoned_element_does_not_hang_the_stream() {
        // One element panics in `map`: its whole vector is poisoned, but
        // the stream must still End and deliver every other item.
        let farm = MapFarm::new(
            |x: u64| {
                assert!(x != 1005, "poisoned element");
                x * 2
            },
            4,
        );
        let tx = farm.input();
        for seq in 0..4u64 {
            let v: Vec<u64> = (0..100).map(|i| seq * 1000 + i).collect();
            tx.send(StreamMsg::item(seq, v)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        // Item 1 contained the poisoned element; items 0, 2, 3 survive
        // in order.
        assert_eq!(results.len(), 3);
        for (k, expect_seq) in [0u64, 2, 3].iter().enumerate() {
            let expected: Vec<u64> = (0..100).map(|i| (expect_seq * 1000 + i) * 2).collect();
            assert_eq!(results[k], expected);
        }
        farm.shutdown();
    }

    #[test]
    fn map_farm_reconfigures_between_items() {
        let farm = MapFarm::new(|x: u64| x, 2);
        let ctl = farm.control();
        let tx = farm.input();
        tx.send(StreamMsg::item(0, (0..50).collect())).unwrap();
        ctl.add_workers(4).unwrap();
        tx.send(StreamMsg::item(1, (0..50).collect())).unwrap();
        ctl.remove_workers(3).unwrap();
        tx.send(StreamMsg::item(2, (0..50).collect())).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 3);
        for v in results {
            assert_eq!(v, (0..50).collect::<Vec<u64>>());
        }
        assert_eq!(ctl.num_workers(), 3);
        farm.shutdown();
    }

    #[test]
    fn map_control_sense_and_caps() {
        let farm = MapFarm::with_options(
            |x: u64| x,
            2,
            3,
            Arc::new(bskel_monitor::ManualClock::new()),
            2.0,
        );
        let ctl = farm.control();
        assert_eq!(ctl.sense(0.0).num_workers, 2);
        assert!(ctl.add_workers(2).is_err(), "cap respected");
        assert_eq!(ctl.add_workers(1), Ok(1));
        assert!(ctl.remove_workers(3).is_err(), "keep one worker");
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn map_reduce_sums_vectors() {
        let farm = MapReduceFarm::new(|x: u64| x, |a, b| a + b, 4);
        let tx = farm.input();
        tx.send(StreamMsg::item(0, (1..=100).collect())).unwrap();
        tx.send(StreamMsg::item(1, vec![7, 8, 9])).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results, vec![5050, 24]);
        farm.shutdown();
    }

    #[test]
    fn map_reduce_non_commutative_combiner_respects_chunk_order() {
        // String concatenation is associative but not commutative: the
        // reduce must preserve chunk order.
        let farm = MapReduceFarm::new(|x: u64| x.to_string(), |a: String, b: String| a + &b, 3);
        let tx = farm.input();
        tx.send(StreamMsg::item(0, (0..10).collect())).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results, vec!["0123456789".to_owned()]);
        farm.shutdown();
    }

    #[test]
    fn broadcast_every_worker_sees_every_item() {
        // Combine collects the replica results; with 3 replicas each item
        // yields exactly 3 identical results.
        let farm: BroadcastFarm<u64, u64, Vec<u64>> =
            BroadcastFarm::new(|x: u64| x * 10, |rs: Vec<u64>| rs, 3);
        let tx = farm.input();
        for i in 0..5 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 5);
        for (i, replicas) in results.iter().enumerate() {
            assert_eq!(replicas, &vec![i as u64 * 10; 3], "item {i}");
        }
        farm.shutdown();
    }

    #[test]
    fn broadcast_voting_majority() {
        let farm = BroadcastFarm::<u64, u64, u64>::voting(|x: u64| x % 7, 5);
        let tx = farm.input();
        for i in 0..20 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results, (0..20).map(|i| i % 7).collect::<Vec<u64>>());
        farm.shutdown();
    }

    #[test]
    fn broadcast_replica_count_follows_pool() {
        let farm: BroadcastFarm<u64, u64, usize> =
            BroadcastFarm::new(|x: u64| x, |rs: Vec<u64>| rs.len(), 2);
        let ctl = farm.control();
        let tx = farm.input();
        tx.send(StreamMsg::item(0, 1)).unwrap();
        // Let item 0 pass through before resizing (the adapter reads the
        // pool size at replication time).
        let out = farm.output();
        let first = loop {
            if let StreamMsg::Item { payload, .. } = out.recv().unwrap() {
                break payload;
            }
        };
        assert_eq!(first, 2);
        ctl.add_workers(2).unwrap();
        tx.send(StreamMsg::item(1, 1)).unwrap();
        tx.send(StreamMsg::End).unwrap();
        let rest = drain(&out);
        assert_eq!(rest, vec![4], "second item replicated over 4 workers");
        farm.shutdown();
    }
}

//! The pipeline skeleton: source → stages (sequential or farm) → sink.
//!
//! Mirrors the application of the paper's Fig. 2 (right): a paced producer,
//! any number of processing stages, and a consumer, connected by channels.
//! Each stage registers a named ABC that the hierarchy builder hands to the
//! corresponding stage manager (AM_P, AM_F, AM_C in Fig. 4).

use crate::abc_impl::{FarmAbc, SourceAbc, StageAbc};
use crate::farm::Farm;
use crate::limiter::PacedSource;
use crate::seq::{spawn_sink, spawn_stage, StageMetrics};
use crate::stream::StreamMsg;
use bskel_core::abc::Abc;
use bskel_monitor::{Clock, RealClock};
use crossbeam::channel::{unbounded, Receiver};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Staged pipeline under construction; `T` is the current stream type.
pub struct PipelineBuilder<T> {
    rx: Receiver<StreamMsg<T>>,
    clock: Arc<dyn Clock>,
    rate_window: f64,
    joins: Vec<JoinHandle<u64>>,
    shutdowns: Vec<Box<dyn FnOnce() + Send>>,
    abcs: HashMap<String, Box<dyn Abc>>,
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Starts a pipeline with a paced source emitting `count` items at
    /// `rate` tasks/s via `generate(seq)`.
    pub fn source(
        name: &str,
        rate: f64,
        count: u64,
        generate: impl FnMut(u64) -> T + Send + 'static,
    ) -> Self {
        Self::source_with_clock(name, rate, count, generate, Arc::new(RealClock::new()), 2.0)
    }

    /// Like [`PipelineBuilder::source`] with an explicit clock and rate
    /// window (tests, scaled-time experiments).
    pub fn source_with_clock(
        name: &str,
        rate: f64,
        count: u64,
        generate: impl FnMut(u64) -> T + Send + 'static,
        clock: Arc<dyn Clock>,
        rate_window: f64,
    ) -> Self {
        let metrics = StageMetrics::new(Arc::clone(&clock), rate_window);
        let source = PacedSource::new(rate, count, generate).with_metrics(Arc::clone(&metrics));
        let knob = source.knob();
        let (tx, rx) = unbounded();
        let handle = source.spawn(tx);
        let mut abcs: HashMap<String, Box<dyn Abc>> = HashMap::new();
        abcs.insert(name.to_owned(), Box::new(SourceAbc::new(knob, metrics)));
        Self {
            rx,
            clock,
            rate_window,
            joins: vec![handle],
            shutdowns: Vec::new(),
            abcs,
        }
    }

    /// Appends a sequential mapping stage.
    pub fn stage<U: Send + 'static>(
        mut self,
        name: &str,
        f: impl FnMut(T) -> U + Send + 'static,
    ) -> PipelineBuilder<U> {
        let metrics = StageMetrics::new(Arc::clone(&self.clock), self.rate_window);
        let (tx, rx) = unbounded();
        let handle = spawn_stage(name, self.rx, tx, f, Arc::clone(&metrics));
        self.joins.push(handle);
        self.abcs
            .insert(name.to_owned(), Box::new(StageAbc::new(metrics)));
        PipelineBuilder {
            rx,
            clock: self.clock,
            rate_window: self.rate_window,
            joins: self.joins,
            shutdowns: self.shutdowns,
            abcs: self.abcs,
        }
    }

    /// Appends a (pre-built, running) farm as a stage, wiring this
    /// pipeline's stream through it.
    pub fn farm<U: Send + 'static>(mut self, name: &str, farm: Farm<T, U>) -> PipelineBuilder<U> {
        let farm_in = farm.input();
        let upstream = self.rx;
        // Pump: upstream → farm input.
        let pump_in = std::thread::Builder::new()
            .name(format!("bskel-pump-{name}-in"))
            .spawn(move || {
                let mut n = 0u64;
                for msg in upstream.iter() {
                    let end = msg.is_end();
                    if farm_in.send(msg).is_err() {
                        break;
                    }
                    if end {
                        break;
                    }
                    n += 1;
                }
                n
            })
            .expect("spawn farm input pump");
        // Pump: farm output → downstream.
        let farm_out = farm.output();
        let (tx, rx) = unbounded();
        let pump_out = std::thread::Builder::new()
            .name(format!("bskel-pump-{name}-out"))
            .spawn(move || {
                let mut n = 0u64;
                for msg in farm_out.iter() {
                    let end = msg.is_end();
                    if tx.send(msg).is_err() {
                        break;
                    }
                    if end {
                        break;
                    }
                    n += 1;
                }
                n
            })
            .expect("spawn farm output pump");
        self.joins.push(pump_in);
        self.joins.push(pump_out);
        self.abcs
            .insert(name.to_owned(), Box::new(FarmAbc::new(farm.control())));
        self.shutdowns.push(Box::new(move || {
            farm.shutdown();
        }));
        PipelineBuilder {
            rx,
            clock: self.clock,
            rate_window: self.rate_window,
            joins: self.joins,
            shutdowns: self.shutdowns,
            abcs: self.abcs,
        }
    }

    /// Terminates the pipeline with a consuming sink.
    pub fn sink(mut self, name: &str, f: impl FnMut(T) + Send + 'static) -> Pipeline {
        let metrics = StageMetrics::new(Arc::clone(&self.clock), self.rate_window);
        let handle = spawn_sink(name, self.rx, f, Arc::clone(&metrics));
        self.abcs
            .insert(name.to_owned(), Box::new(StageAbc::new(metrics)));
        Pipeline {
            sink: handle,
            joins: self.joins,
            shutdowns: self.shutdowns,
            abcs: self.abcs,
        }
    }
}

/// A running pipeline.
pub struct Pipeline {
    sink: JoinHandle<u64>,
    joins: Vec<JoinHandle<u64>>,
    shutdowns: Vec<Box<dyn FnOnce() + Send>>,
    abcs: HashMap<String, Box<dyn Abc>>,
}

impl Pipeline {
    /// Takes the ABC registered under a stage name (to hand to that
    /// stage's manager). Each ABC can be taken once.
    pub fn take_abc(&mut self, name: &str) -> Option<Box<dyn Abc>> {
        self.abcs.remove(name)
    }

    /// Waits for the stream to drain end-to-end; returns the number of
    /// items the sink consumed.
    ///
    /// # Panics
    ///
    /// With the first stage's panic (source and farm pumps included), once
    /// every thread is joined and every farm shut down: a panicking stage
    /// ends the stream early, so its count would be short. Then, if the
    /// sink panicked.
    pub fn wait(self) -> u64 {
        let consumed = self.sink.join();
        let mut panic = None;
        for j in self.joins {
            if let Err(payload) = j.join() {
                panic.get_or_insert(payload);
            }
        }
        for s in self.shutdowns {
            s();
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        consumed.expect("sink thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::FarmBuilder;
    use parking_lot::Mutex;

    impl Pipeline {
        /// Names of ABCs not yet taken.
        fn abc_names(&self) -> Vec<String> {
            let mut names: Vec<String> = self.abcs.keys().cloned().collect();
            names.sort();
            names
        }
    }

    #[test]
    fn three_stage_pipeline_end_to_end() {
        let results = Arc::new(Mutex::new(Vec::new()));
        let sink_results = Arc::clone(&results);
        let pipe = PipelineBuilder::source("producer", 5000.0, 50, |seq| seq)
            .stage("double", |x| x * 2)
            .sink("consumer", move |x| sink_results.lock().push(x));
        let consumed = pipe.wait();
        assert_eq!(consumed, 50);
        let got = results.lock().clone();
        assert_eq!(got, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "stage failed on item 10")]
    fn a_panicking_stage_fails_wait() {
        let pipe = PipelineBuilder::source("producer", 5000.0, 50, |seq| seq)
            .stage("fragile", |x| {
                assert!(x != 10, "stage failed on item {x}");
                x
            })
            .sink("consumer", |_| {});
        pipe.wait();
    }

    #[test]
    fn pipeline_with_farm_stage() {
        let count = Arc::new(Mutex::new(0u64));
        let sink_count = Arc::clone(&count);
        let farm = FarmBuilder::from_fn(|x: u64| x + 1)
            .initial_workers(3)
            .build();
        let pipe = PipelineBuilder::source("producer", 5000.0, 120, |seq| seq)
            .farm("filter", farm)
            .sink("consumer", move |_| *sink_count.lock() += 1);
        assert_eq!(pipe.wait(), 120);
        assert_eq!(*count.lock(), 120);
    }

    #[test]
    fn abcs_registered_per_stage() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(1).build();
        let mut pipe = PipelineBuilder::source("producer", 10_000.0, 10, |s| s)
            .farm("filter", farm)
            .sink("consumer", |_| {});
        assert_eq!(pipe.abc_names(), ["consumer", "filter", "producer"]);
        let abc = pipe.take_abc("filter");
        assert!(abc.is_some());
        assert!(pipe.take_abc("filter").is_none(), "taken once");
        assert_eq!(pipe.abc_names(), ["consumer", "producer"]);
        pipe.wait();
    }

    #[test]
    fn farm_abc_senses_live_pipeline() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(2).build();
        let mut pipe = PipelineBuilder::source("producer", 10_000.0, 200, |s| s)
            .farm("filter", farm)
            .sink("consumer", |_| {});
        let mut abc = pipe.take_abc("filter").unwrap();
        assert_eq!(abc.sense(0.0).num_workers, 2);
        pipe.wait(); // farm is shut down here; flags survive in metrics
        let snap = abc.sense(1e9);
        assert!(snap.end_of_stream);
    }
}

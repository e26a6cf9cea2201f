//! # bskel-skel — the threaded algorithmic-skeleton runtime
//!
//! This crate is the *execution* substrate of `bskel`: native-thread
//! implementations of the parallelism-exploitation patterns the paper's
//! behavioural skeletons wrap —
//!
//! * a reconfigurable **task farm** ([`farm`]): an emitter dispatching a
//!   stream of tasks over per-worker queues (round-robin or
//!   shortest-queue, the paper's scatter/unicast policies), worker threads,
//!   and a collector gathering results (ordered or unordered — the
//!   paper's gather policies). Workers can be **added, removed and
//!   rebalanced at run time**, which is what the farm manager's
//!   `ADD_EXECUTOR` / `REMOVE_EXECUTOR` / `BALANCE_LOAD` actuators do;
//! * a **pipeline** ([`pipeline`]): a paced source, processing stages
//!   (sequential or farm), and a sink, connected by bounded channels;
//! * a **paced source** ([`limiter`]): the token-bucket rate limiter the
//!   `incRate`/`decRate` contracts actuate;
//! * **ABC bindings** ([`abc_impl`]): `FarmAbc`, `SourceAbc` and `StageAbc`
//!   implement `bskel_core::abc::Abc`, exposing the runtime's sensors and
//!   actuators to autonomic managers;
//! * a **manager driver** ([`runtime`]): threads running each manager's
//!   control loop at its configured period.
//!
//! Design notes (following the crate's HPC guides): the steady-state task
//! path acquires **no mutex** — the emitter reads the worker set through
//! an RCU-published table ([`rcu`]) and hands tasks over in batches
//! through per-worker queues ([`queue`]) at one lock acquisition per
//! *batch*, not per task; every sensor it touches is lock-free
//! (`bskel_monitor::AtomicRateEstimator`, seqlock-published
//! `bskel_monitor::WelfordCell`s). Mutexes survive only on the cold
//! paths: reconfiguration, sensing, shutdown.

#![warn(missing_docs)]

pub mod abc_impl;
pub mod farm;
mod gcm_sync;
pub mod limiter;
pub mod map;
pub mod pipeline;
pub mod queue;
pub mod rcu;
pub mod runtime;
mod seq;
pub mod stream;

pub use abc_impl::{FarmAbc, MapAbc};
pub use farm::{
    Farm, FarmBuilder, FarmControl, FarmEvent, FarmEventKind, GatherPolicy, SchedPolicy,
    ShutdownReport,
};
// Public: paper feature S15 in DESIGN.md (GCM/runtime mirroring).
pub use gcm_sync::GcmMirroredFarm;
pub use limiter::PacedSource;
// Public: paper feature S12 in DESIGN.md (data-parallel farms).
pub use map::{BroadcastFarm, MapFarm, MapReduceFarm};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use queue::{Task, WorkerQueue};
pub use rcu::{Published, ReadHandle};
pub use stream::StreamMsg;

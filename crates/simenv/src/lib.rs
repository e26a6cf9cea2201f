//! # bskel-sim — a deterministic simulator of the execution environment
//!
//! The paper's experiments ran on an 8-core SMP inside the GridCOMP grid
//! testbed: real nodes, real recruitment latency, real SSL overhead. None
//! of that is reproducible in CI, so this crate simulates the environment
//! with a discrete-event kernel:
//!
//! * `des` — the event queue and simulated clock;
//! * [`node`] — nodes with speeds, IP domains (trusted/untrusted) and
//!   external-load profiles (the paper's "load increase or decrease");
//! * `resources` — the resource manager farms recruit worker nodes from,
//!   with recruitment/deployment latency (the source of Fig. 4's sensor
//!   blackout during reconfiguration);
//! * [`net`] — the SSL cost model: secured channels pay a handshake and a
//!   per-task overhead (paper refs \[20\], \[31\]);
//! * [`models`] — queueing models of the producer, farm and consumer that
//!   generate exactly the sensor streams the ABC exposes;
//! * [`abc_impl`] — `SimAbc`: binds the *same* `bskel-core` managers and
//!   rule programs that drive the threaded runtime to the simulated
//!   sensors/actuators;
//! * [`trace`] — time-series recording (CSV/JSON) for the experiment
//!   harness;
//! * [`replay`] — replays `bskel_rules::mc` counterexample traces through
//!   production managers on the DES, confirming a property violation is
//!   real and not an abstraction artifact;
//! * [`scenario`] — declarative builders for the paper's experiments
//!   (Fig. 3 single-manager farm, Fig. 4 hierarchical pipeline, the
//!   security-cost and ablation studies).
//!
//! Everything is seeded: the same scenario and seed produce bit-identical
//! traces, which the integration tests rely on.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod abc_impl;
mod des;
pub mod models;
pub mod net;
pub mod node;
pub mod replay;
mod resources;
pub mod scenario;
pub mod trace;

pub use abc_impl::sim_bean_schema;
pub use des::EventQueue;
pub use net::SslCostModel;
pub use node::{Node, NodeId, NodeRegistry};
pub use replay::{
    replay_counterexample, replay_journal, snapshot_from_beans, JournalReplayMismatch,
    JournalReplayProgram, JournalReplayReport, ReplayMismatch, ReplayProgram, ReplayReport,
    ReplayedEvent, ScriptedAbc,
};
pub use scenario::{FarmOutcome, FarmScenario, PipelineOutcome, PipelineScenario, SecurityPolicy};
pub use trace::Trace;

//! # bskel-core — behavioural skeletons and autonomic management
//!
//! This crate implements the contribution of Aldinucci, Danelutto &
//! Kilpatrick, *"Autonomic management of non-functional concerns in
//! distributed & parallel application programming"* (IPDPS 2009):
//!
//! * **Behavioural skeletons** ([`bs`]): pairs ⟨parallelism-exploitation
//!   pattern 𝒫, autonomic manager ℳ_C⟩, expressed as a skeleton tree of
//!   farms, pipelines and sequential stages;
//! * **Contracts** ([`contract`]): the SLA grammar users hand to a top-level
//!   manager (throughput ranges, parallelism-degree bounds, security
//!   domains) and the per-pattern splitting heuristics for the paper's
//!   P_spl problem ([`contract::split`]);
//! * **Autonomic managers** ([`manager`]): the MAPE control loop with the
//!   paper's *active/passive* role state machine (P_rol), driven by the
//!   rule engine of `bskel-rules` and bound to a computation through the
//!   [`abc::Abc`] trait — the Autonomic Behaviour Controller separating
//!   policy (manager) from mechanism (substrate);
//! * **Manager hierarchies** ([`hierarchy`]): contract propagation downward
//!   and violation reporting upward through a tree of managers mirroring
//!   the skeleton tree (paper §3.1, Fig. 4);
//! * **Multi-concern coordination** ([`coord`]): the two-phase
//!   intent/review/commit protocol between per-concern managers
//!   orchestrated by a general manager, with boolean concerns (security)
//!   taking priority over quantitative ones (performance) — paper §3.2;
//! * **Event streams** ([`events`]): the timestamped manager event records
//!   (`contrLow`, `notEnough`, `raiseViol`, `incRate`, `addWorker`,
//!   `rebalance`, …) from which the paper's Figs. 3–4 are plotted.
//!
//! The crate is substrate-agnostic: both the threaded runtime
//! (`bskel-skel`) and the discrete-event simulator (`bskel-sim`) implement
//! [`abc::Abc`] and run the *same* managers and rule programs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod abc;
pub mod bs;
pub mod concern;
pub mod contract;
pub mod controller;
pub mod coord;
pub mod events;
pub mod hierarchy;
pub mod manager;

pub use abc::{standard_schema, Abc, AbcError, ActuationOutcome, ManagerOp};
pub use concern::Concern;
pub use contract::Contract;
pub use controller::ControllerKind;
pub use events::{EventKind, EventLog, EventRecord};
pub use manager::{AmState, AutonomicManager, ManagerConfig, ManagerKind, RuleCheck};

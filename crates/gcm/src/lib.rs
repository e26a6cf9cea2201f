//! # bskel-gcm — a Grid Component Model substrate
//!
//! The paper's behavioural skeletons are packaged as **GCM composite
//! components**: the Grid Component Model (CoreGRID D.PM.02/04) extends the
//! Fractal component model with collective interfaces and autonomic
//! controllers. A GCM component exposes *functional* interfaces (the
//! computation) and a *membrane* of non-functional controllers:
//!
//! * the **lifecycle controller** — start/stop state machine;
//! * the **binding controller** — wires client interfaces to server
//!   interfaces;
//! * the **content controller** — adds/removes subcomponents of a
//!   composite (this is what worker addition in a farm BS uses);
//! * the **name controller** — component identity;
//! * non-functional *membrane components*, notably the **autonomic
//!   manager (AM)** and the **autonomic behaviour controller (ABC)** of a
//!   behavioural skeleton (paper Fig. 2, left).
//!
//! This crate implements that model as an arena-based registry
//! ([`model::Gcm`]) with checked structural operations, and provides the
//! functional-replication template of Fig. 2 ([`templates`]). It is a
//! *structural* substrate: execution semantics (threads, queues) live in
//! `bskel-skel`, which keeps its runtime farm structure in sync with a GCM
//! composite so that structural invariants (e.g. "content operations
//! require the composite stopped") are enforced uniformly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod component;
mod membrane;
pub mod model;
pub mod templates;

pub use component::{CompId, ComponentKind, InterfaceDecl, LcState, Role};
pub use model::{Gcm, GcmError};

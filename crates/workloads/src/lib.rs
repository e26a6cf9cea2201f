//! # bskel-workloads — synthetic workload generation
//!
//! The paper's experiments run a medical image processing application: a
//! stream of images filtered in parallel by a task farm (Fig. 3) or by the
//! farm stage of a three-stage pipeline (Fig. 4). The images themselves are
//! irrelevant to the managers — only the input pressure and the
//! *service-time distribution* (per-task compute cost) shape the autonomic
//! behaviour. This crate provides:
//!
//! * [`service`] — deterministic, exponential, uniform and hot-spot
//!   service-time distributions (the paper's "temporary hot spots in image
//!   processing");
//! * [`imaging`] — a CPU-burning image task body for the threaded runtime.
//!
//! All randomness is drawn from caller-seeded RNGs: every experiment in
//! `bskel-bench` is reproducible bit-for-bit.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod imaging;
pub mod service;

pub use imaging::ImageTask;
pub use service::ServiceDist;

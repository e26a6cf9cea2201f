//! # bskel-monitor — monitoring substrate for behavioural skeletons
//!
//! This crate implements the *passive part* of an autonomic manager as
//! described in Aldinucci, Danelutto & Kilpatrick (IPDPS 2009): the
//! mechanisms needed to **monitor** the behaviour of a running skeleton
//! computation. It provides:
//!
//! * a [`Clock`] abstraction ([`clock`]) so that the same monitoring code
//!   runs against wall-clock time (threaded runtime) and simulated time
//!   (discrete-event simulator);
//! * lock-free, cache-padded [`counter`]s for task/byte accounting on the
//!   hot path of skeleton workers;
//! * sliding-window and exponentially-weighted [`rate`] estimators for the
//!   `arrivalRate` / `departureRate` beans the paper's Fig. 5 rules test,
//!   plus their lock-free shared-memory sibling ([`atomic_rate`]) used on
//!   the skeleton hot path;
//! * seqlock-published per-worker statistics cells
//!   ([`stats::WelfordCell`] / [`stats::LocalStats`]) so service-time
//!   sensing never takes a lock on the task path;
//! * online [`stats`] (Welford mean/variance, queue-length dispersion)
//!   backing the `queueVariance` bean used by the `CheckLoadBalance` rule;
//! * the [`snapshot::SensorSnapshot`] record: the typed set of beans an
//!   Autonomic Behaviour Controller (ABC) hands to the rule engine at each
//!   control-loop iteration;
//! * the ops plane's passive half: a ring-buffered structured event
//!   [`journal`] (JSONL flush + parse, feeding deterministic replay) and
//!   Prometheus text-[`expo`]sition rendering of beans and event counters.
//!
//! Nothing in this crate knows about managers, contracts or skeletons: it is
//! a leaf substrate reused by both execution back-ends.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod atomic_rate;
pub mod clock;
pub mod counter;
pub mod expo;
pub mod journal;
pub mod rate;
pub mod snapshot;
pub mod stats;

pub use atomic_rate::AtomicRateEstimator;
pub use clock::{Clock, ManualClock, RealClock, Time};
pub use counter::Counter;
pub use expo::ScrapeSeries;
pub use journal::{Journal, JournalEntry, JournalRecord};
pub use rate::{Ewma, RateEstimator};
pub use snapshot::{beans, SensorSnapshot};
pub use stats::{queue_variance, LocalStats, Welford, WelfordCell};

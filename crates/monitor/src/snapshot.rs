//! Sensor snapshots — the bean vector an ABC hands to the rule engine.
//!
//! The paper's autonomic control loop begins with a *monitor* phase in which
//! the Autonomic Behaviour Controller (ABC) samples the computation and
//! materialises a set of named *beans* (`ArrivalRateBean`,
//! `DepartureRateBean`, `NumWorkerBean`, `QueueVarianceBean`, …) over which
//! the JBoss-style rules are written. [`SensorSnapshot`] is our typed
//! equivalent: a plain value object produced once per control period,
//! convertible into the `(name, value)` pairs a rule engine's working memory
//! consumes.
//!
//! The standard beans are declared once, in the `bean_table!` below: each
//! row generates the [`beans`] name constant, the snapshot field, its
//! default, its position in [`SensorSnapshot::beans`] and
//! [`SensorSnapshot::to_beans`], its
//! [`SensorSnapshot::bean`]/[`SensorSnapshot::set_bean`] arm and its
//! [`BEAN_TABLE`] entry, from which the rule schema, journal replay and the
//! `/metrics` HELP text are derived. Adding a bean is one row here.

use crate::clock::Time;
use std::borrow::Cow;

/// What a bean's value means: the domain rule analysis gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeanKind {
    /// Boolean flag encoded as 0.0 / 1.0.
    Flag,
    /// Non-negative integer-valued count.
    Count,
    /// Non-negative rate, ratio or magnitude.
    Rate,
    /// Non-negative duration in seconds; may be `+inf`.
    Seconds,
}

/// One row of the bean table, as data.
#[derive(Debug, Clone, Copy)]
pub struct BeanDef {
    /// Bean name as rules, journals and `/metrics` see it.
    pub name: &'static str,
    /// Value domain.
    pub kind: BeanKind,
    /// One-line description (also the `/metrics` HELP text).
    pub help: &'static str,
}

/// How a typed snapshot field travels as a bean value. Decoding is
/// lenient, as journal replay needs: counts round and floor at 0, flags
/// are any non-zero value.
trait BeanValue {
    fn to_bean(self) -> f64;
    fn from_bean(v: f64) -> Self;
}

impl BeanValue for f64 {
    fn to_bean(self) -> f64 {
        self
    }
    fn from_bean(v: f64) -> Self {
        v
    }
}

impl BeanValue for u32 {
    fn to_bean(self) -> f64 {
        f64::from(self)
    }
    fn from_bean(v: f64) -> Self {
        v.max(0.0).round() as u32
    }
}

impl BeanValue for u64 {
    fn to_bean(self) -> f64 {
        self as f64
    }
    fn from_bean(v: f64) -> Self {
        v.max(0.0).round() as u64
    }
}

impl BeanValue for bool {
    fn to_bean(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
    fn from_bean(v: f64) -> Self {
        v != 0.0
    }
}

macro_rules! bean_table {
    ($(
        $konst:ident = $name:literal, $kind:ident,
        $field:ident: $ty:ty = $default:expr, $help:literal;
    )*) => {
        /// Canonical bean names shared between ABCs, rule files and tests.
        ///
        /// Keeping these in one place means a rule file written against the
        /// simulator drives the threaded runtime unchanged.
        pub mod beans {
            $(
                #[doc = $help]
                pub const $konst: &str = $name;
            )*
        }

        /// Every standard bean, in [`SensorSnapshot::beans`] order.
        pub const BEAN_TABLE: &[BeanDef] = &[
            $(BeanDef { name: $name, kind: BeanKind::$kind, help: $help },)*
        ];

        /// The standard beans' names, in [`BEAN_TABLE`] order: the names of
        /// [`SensorSnapshot::values`]. A `static`, so that its address
        /// identifies it (a working memory's `refill_row` header).
        pub static BEAN_NAMES: [&str; BEAN_TABLE.len()] = [$($name,)*];

        /// A point-in-time reading of every sensor a skeleton ABC exposes.
        ///
        /// Extra substrate-specific beans (e.g. the simulator's per-node
        /// load) can be attached through [`SensorSnapshot::with_extra`].
        #[derive(Debug, Clone, PartialEq)]
        pub struct SensorSnapshot {
            /// Monitoring timestamp (seconds since run origin).
            pub at: Time,
            $(
                #[doc = $help]
                pub $field: $ty,
            )*
            /// Additional substrate-specific beans.
            pub extra: Vec<(String, f64)>,
        }

        impl SensorSnapshot {
            /// A snapshot with all sensors at rest, timestamped `at`.
            pub fn empty(at: Time) -> Self {
                Self {
                    at,
                    $($field: $default,)*
                    extra: Vec::new(),
                }
            }

            /// The snapshot's `(bean name, value)` pairs, without
            /// allocating: the standard beans in table order, then the
            /// extras. Booleans encode as 0.0/1.0.
            pub fn beans(&self) -> impl Iterator<Item = (&str, f64)> + Clone + '_ {
                BEAN_TABLE
                    .iter()
                    .map(|def| def.name)
                    .zip(self.values())
                    .chain(self.extra.iter().map(|(n, v)| (n.as_str(), *v)))
            }

            /// The standard beans' values in table order, e.g. the journal's
            /// row for this snapshot.
            pub fn values(&self) -> [f64; BEAN_TABLE.len()] {
                [$(self.$field.to_bean(),)*]
            }

            /// [`SensorSnapshot::beans`] as an owned row, e.g. for the
            /// journal: table rows borrow their `'static` name, extras
            /// own a copy of theirs.
            pub fn to_beans(&self) -> Vec<(Cow<'static, str>, f64)> {
                let mut out = Vec::with_capacity(BEAN_TABLE.len() + self.extra.len());
                $(out.push((Cow::Borrowed($name), self.$field.to_bean()));)*
                out.extend(self.extra.iter().map(|(n, v)| (Cow::Owned(n.clone()), *v)));
                out
            }

            /// Looks a bean up by name, including extras.
            pub fn bean(&self, name: &str) -> Option<f64> {
                match name {
                    $($name => Some(self.$field.to_bean()),)*
                    _ => self.extra.iter().find_map(|(n, v)| (n == name).then_some(*v)),
                }
            }

            /// Sets a standard bean from its encoded value (counts round and
            /// floor at 0, flags are `v != 0`). Returns `false`, leaving the
            /// snapshot untouched, when `name` is not a standard bean.
            pub fn set_bean(&mut self, name: &str, v: f64) -> bool {
                match name {
                    $($name => self.$field = BeanValue::from_bean(v),)*
                    _ => return false,
                }
                true
            }
        }
    };
}

bean_table! {
    ARRIVAL_RATE = "arrivalRate", Rate, arrival_rate: f64 = 0.0,
        "Task arrival rate into the skeleton (tasks/s).";
    DEPARTURE_RATE = "departureRate", Rate, departure_rate: f64 = 0.0,
        "Task departure (completion) rate (tasks/s).";
    NUM_WORKERS = "numWorkers", Count, num_workers: u32 = 0,
        "Current worker count.";
    QUEUE_VARIANCE = "queueVariance", Rate, queue_variance: f64 = 0.0,
        "Variance of per-worker queue lengths.";
    QUEUED_TASKS = "queuedTasks", Count, queued_tasks: u64 = 0,
        "Tasks queued awaiting a worker.";
    SERVICE_TIME = "serviceTime", Seconds, service_time: f64 = 0.0,
        "Mean per-task service time (s).";
    END_OF_STREAM = "endOfStream", Flag, end_of_stream: bool = false,
        "1 when the input stream has ended.";
    IDLE_FOR = "idleFor", Seconds, idle_for: f64 = f64::INFINITY,
        "Seconds since the last task arrival.";
    RECONFIGURING = "reconfiguring", Flag, reconfiguring: bool = false,
        "1 while a reconfiguration blackout is in effect.";
    WORKERS_LOST = "workersLost", Count, workers_lost: u64 = 0,
        "Cumulative workers lost to faults.";
    FT_MIN_WORKERS = "ftMinWorkers", Count, ft_min_workers: u32 = 0,
        "Fault-tolerance concern's worker floor.";
    REMOTE_WORKERS = "remoteWorkers", Count, remote_workers: u32 = 0,
        "Workers provided by remote pool slots.";
    NET_RTT_MS = "netRttMs", Rate, net_rtt_ms: f64 = 0.0,
        "Smoothed heartbeat round-trip time (ms).";
    CIRCUIT_OPEN_COUNT = "circuitOpenCount", Count, circuit_open_count: u32 = 0,
        "Endpoints with an open circuit breaker.";
    RECONNECT_BACKOFF_MS = "reconnectBackoffMs", Rate, reconnect_backoff_ms: f64 = 0.0,
        "Current reconnect backoff (ms).";
    TASKS_RETRIED = "tasksRetried", Count, tasks_retried: u64 = 0,
        "Cumulative tasks re-dispatched speculatively after missing their soft deadline.";
    SPECULATIVE_WINS = "speculativeWins", Count, speculative_wins: u64 = 0,
        "Speculative duplicates that beat the original.";
    REACTOR_LOOP_LAG_US = "reactorLoopLagUs", Rate, reactor_loop_lag_us: f64 = 0.0,
        "Reactor event-loop lag (µs).";
    NET_SEND_QUEUE_DEPTH = "netSendQueueDepth", Count, net_send_queue_depth: u64 = 0,
        "Frames waiting in per-connection send queues.";
    TASKS_SHED = "tasksShed", Count, tasks_shed: u64 = 0,
        "Cumulative tasks dropped by admission control.";
    TENANT_QUEUE_DEPTH = "tenantQueueDepth", Count, tenant_queue_depth: u64 = 0,
        "Tasks waiting in this tenant's admission queue.";
    TENANT_SHARE = "tenantShare", Rate, tenant_share: f64 = 1.0,
        "This tenant's normalised share of the pool (0..1).";
    TENANT_THROUGHPUT = "tenantThroughput", Rate, tenant_throughput: f64 = 0.0,
        "Tasks/s delivered to this tenant by the shared pool.";
    RETRY_BUDGET_TOKENS = "retryBudgetTokens", Rate, retry_budget_tokens: f64 = 0.0,
        "Tokens left in the retry budget gating re-dispatch (0 when none is configured).";
    HEDGES_LAUNCHED = "hedgesLaunched", Count, hedges_launched: u64 = 0,
        "Cumulative hedged task dispatches.";
    HEDGE_WINS = "hedgeWins", Count, hedge_wins: u64 = 0,
        "Hedged dispatches that beat the original.";
    AIMD_CEILING = "aimdCeiling", Rate, aimd_ceiling: f64 = 0.0,
        "AIMD controller's par-degree ceiling (0 under other control laws).";
}

impl SensorSnapshot {
    /// Attaches an extra named bean (builder style).
    pub fn with_extra(mut self, name: impl Into<String>, value: f64) -> Self {
        self.extra.push((name.into(), value));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_defaults() {
        let s = SensorSnapshot::empty(1.0);
        assert_eq!(s.at, 1.0);
        assert_eq!(s.arrival_rate, 0.0);
        assert_eq!(s.num_workers, 0);
        assert!(!s.end_of_stream);
        assert!(s.idle_for.is_infinite());
    }

    #[test]
    fn beans_roundtrip_core_fields() {
        let mut s = SensorSnapshot::empty(0.0);
        s.arrival_rate = 0.55;
        s.departure_rate = 0.4;
        s.num_workers = 3;
        s.queue_variance = 2.25;
        s.end_of_stream = true;
        assert_eq!(s.bean(beans::ARRIVAL_RATE), Some(0.55));
        assert_eq!(s.bean(beans::DEPARTURE_RATE), Some(0.4));
        assert_eq!(s.bean(beans::NUM_WORKERS), Some(3.0));
        assert_eq!(s.bean(beans::QUEUE_VARIANCE), Some(2.25));
        assert_eq!(s.bean(beans::END_OF_STREAM), Some(1.0));
        assert_eq!(s.bean("noSuchBean"), None);
    }

    #[test]
    fn extra_beans_are_exposed() {
        let s = SensorSnapshot::empty(0.0).with_extra("nodeLoad", 0.75);
        assert_eq!(s.bean("nodeLoad"), Some(0.75));
        assert!(s
            .to_beans()
            .iter()
            .any(|(n, v)| n == "nodeLoad" && *v == 0.75));
    }

    #[test]
    fn bool_beans_encode_as_zero_one() {
        let mut s = SensorSnapshot::empty(0.0);
        assert_eq!(s.bean(beans::RECONFIGURING), Some(0.0));
        s.reconfiguring = true;
        assert_eq!(s.bean(beans::RECONFIGURING), Some(1.0));
    }

    #[test]
    fn bean_names_are_the_table_names() {
        assert!(BEAN_NAMES.iter().eq(BEAN_TABLE.iter().map(|def| &def.name)));
    }

    #[test]
    fn to_beans_emits_every_core_bean_once() {
        let s = SensorSnapshot::empty(0.0);
        let all = s.to_beans();
        assert_eq!(all.len(), BEAN_TABLE.len());
        for def in BEAN_TABLE {
            assert_eq!(
                all.iter().filter(|(n, _)| n == def.name).count(),
                1,
                "bean {} missing or duplicated",
                def.name
            );
        }
    }

    #[test]
    fn beans_match_to_beans_and_only_extras_own_their_names() {
        let mut s = SensorSnapshot::empty(0.0).with_extra("nodeLoad", 0.75);
        s.num_workers = 3;
        let owned = s.to_beans();
        assert!(s.beans().eq(owned.iter().map(|(n, v)| (n.as_ref(), *v))));
        for (i, (name, _)) in owned.iter().enumerate() {
            let borrowed = matches!(name, Cow::Borrowed(_));
            assert_eq!(borrowed, i < BEAN_TABLE.len(), "{name}");
        }
    }

    #[test]
    fn set_bean_decodes_like_journal_replay() {
        let mut s = SensorSnapshot::empty(0.0);
        assert!(s.set_bean(beans::NUM_WORKERS, 2.6));
        assert!(s.set_bean(beans::QUEUED_TASKS, -4.0));
        assert!(s.set_bean(beans::END_OF_STREAM, 0.5));
        assert!(s.set_bean(beans::IDLE_FOR, 0.25));
        assert!(!s.set_bean("nodeLoad", 1.0));
        assert_eq!(s.num_workers, 3);
        assert_eq!(s.queued_tasks, 0);
        assert!(s.end_of_stream);
        assert_eq!(s.idle_for, 0.25);
        assert!(s.extra.is_empty());
    }
}

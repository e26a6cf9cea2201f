//! The three plain pool workloads — `pool_echo_wide`, `pool_open`,
//! `pool_bulk_secure` — and the pieces every pool-backed workload shares:
//! seeded payloads with an O(1) reference, loopback daemons, and the
//! `net.*` per-layer metrics read off a run.

use super::{drive_stream, Coordinated, Loop, Outcome, Plan, RunArgs, Shared, StreamNumbers};
use crate::check::check_shutdown;
use crate::load::WindowSummary;
use crate::seed::{fnv1a, SplitMix64};
use crate::{procfs, stats, trace};
use bskel_monitor::{Clock, RealClock, SensorSnapshot};
use bskel_net::{spawn_local, Endpoint, RemotePoolBuilder, RemoteWorkerPool};
use bskel_skel::stream::StreamMsg;
use bskel_skel::{FarmControl, GatherPolicy};
use std::sync::{Arc, Mutex};

/// Frozen parameters of one pool workload.
#[derive(Debug)]
pub struct PoolSpec {
    /// Pool name: the prefix of its three client threads.
    pub pool: &'static str,
    /// Loopback slots, one `spawn_local` daemon each.
    pub slots: u32,
    /// Secure channel (handshake plus stream cipher) on every slot.
    pub secure: bool,
    /// Payload bytes per task.
    pub payload: usize,
    /// Open or closed loop.
    pub mode: Loop,
    /// Latency is sampled on every this-many-th task.
    pub stride: u64,
}

/// Smallest message over the widest fan-out: per-frame and per-slot cost.
pub const ECHO_WIDE: PoolSpec = PoolSpec {
    pool: "pw",
    slots: 32,
    secure: false,
    payload: 64,
    mode: Loop::Closed { window: 256 },
    stride: 8,
};
/// Unloaded path latency with throughput pinned by the schedule.
pub const OPEN: PoolSpec = PoolSpec {
    pool: "po",
    slots: 4,
    secure: false,
    payload: 64,
    mode: Loop::Open { rate: 20_000.0 },
    stride: 1,
};
/// Per-byte cost: large frames over the secure channel.
pub const BULK_SECURE: PoolSpec = PoolSpec {
    pool: "pb",
    slots: 2,
    secure: true,
    payload: 65_536,
    mode: Loop::Closed { window: 16 },
    stride: 1,
};

/// What comes back from an `echo`-like daemon workload, reduced on the
/// collector thread to what the oracle needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Echo {
    /// The task's position, read from the payload's first word.
    pub id: u64,
    /// Payload length.
    pub len: usize,
    /// Wrapping sum of the payload's little-endian words.
    pub sum: u64,
}

fn word_sum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0, u64::wrapping_add)
}

/// The pool's decode function.
pub fn decode_echo(bytes: &[u8]) -> Echo {
    let mut lead = [0u8; 8];
    let n = bytes.len().min(8);
    lead[..n].copy_from_slice(&bytes[..n]);
    Echo {
        id: u64::from_le_bytes(lead),
        len: bytes.len(),
        sum: word_sum(bytes),
    }
}

/// Seeded payloads: task `i`'s payload is one random block with its
/// first word replaced by `i`, so the reference checksum is O(1).
#[derive(Debug)]
pub struct Payloads {
    block: Vec<u8>,
    rest_sum: u64,
}

impl Payloads {
    /// A block of `len` random bytes (`len` a multiple of 8, at least 8).
    pub fn new(rng: &mut SplitMix64, len: usize) -> Self {
        assert!(
            len >= 8 && len.is_multiple_of(8),
            "payload length {len} must be a positive multiple of 8"
        );
        let block = rng.bytes(len);
        let rest_sum = word_sum(&block[8..]);
        Self { block, rest_sum }
    }

    /// Task `seq`'s payload.
    pub fn make(&self, seq: u64) -> Vec<u8> {
        let mut p = self.block.clone();
        p[..8].copy_from_slice(&seq.to_le_bytes());
        p
    }

    /// The oracle's view of an echoed payload: its position and whether
    /// length and checksum match the reference.
    pub fn verify(&self, e: &Echo) -> (u64, bool) {
        (
            e.id,
            e.len == self.block.len() && e.sum == self.rest_sum.wrapping_add(e.id),
        )
    }

    /// Checksum of the generated block.
    pub fn hash(&self) -> u64 {
        fnv1a(&self.block)
    }
}

/// Starts `n` in-process loopback daemons and returns their endpoints.
pub fn loopback_endpoints(n: u32, secure: bool) -> Vec<Endpoint> {
    (0..n)
        .map(|_| {
            let addr = spawn_local("127.0.0.1:0")
                .expect("bind a loopback daemon")
                .to_string();
            if secure {
                Endpoint::secure(addr)
            } else {
                Endpoint::plain(addr)
            }
        })
        .collect()
}

/// Sensor snapshots polled through `sense()` during the traced phase.
pub type Polled = Arc<Mutex<Vec<SensorSnapshot>>>;

/// A 10 Hz poll closure that senses `ctl` on `clock` into `into`.
pub fn sense_poll(ctl: Arc<dyn FarmControl>, clock: Arc<RealClock>, into: Polled) -> impl FnMut() {
    move || {
        into.lock()
            .expect("poll buffer")
            .push(ctl.sense(clock.now()))
    }
}

/// The `net.*` per-layer metrics that are read off a pool-backed run.
pub fn net_layer<In: Send + 'static, Out: Send + 'static>(
    pool: &RemoteWorkerPool<In, Out>,
    pool_name: &str,
    coord: &Coordinated,
    polled: &[SensorSnapshot],
    reported: &WindowSummary,
) -> Vec<(String, f64)> {
    let cpu = &coord.cpu;
    let system = cpu.system_cpu_s().max(f64::MIN_POSITIVE);
    let client = |role: &str| cpu.cpu_of(|t| t == format!("{pool_name}-{role}")) / system;
    let switches = cpu.switches_of(|t| !procfs::is_harness_thread(t));
    let bean = |f: fn(&SensorSnapshot) -> f64| polled.iter().map(f).collect::<Vec<f64>>();
    let cost = pool.cost_report();
    vec![
        ("net.reactor_cpu_share".into(), client("reactor")),
        ("net.emitter_cpu_share".into(), client("emitter")),
        ("net.collector_cpu_share".into(), client("collector")),
        (
            "net.daemon_cpu_share".into(),
            cpu.cpu_of(|t| t.starts_with("bskel-workerd")) / system,
        ),
        (
            "net.ctx_switches_per_task".into(),
            switches as f64 / reported.delivered.max(1) as f64,
        ),
        (
            "net.reactor_lag_us".into(),
            stats::mean(&bean(|s| s.reactor_loop_lag_us)),
        ),
        (
            "net.sendq_depth_max".into(),
            bean(|s| s.net_send_queue_depth as f64)
                .into_iter()
                .fold(0.0, f64::max),
        ),
        (
            "net.rtt_us".into(),
            stats::mean(&bean(|s| s.net_rtt_ms)) * 1e3,
        ),
        (
            "net.cipher_ns_per_byte".into(),
            cost.per_byte_seconds() * 1e9,
        ),
        ("net.handshake_ms".into(), cost.handshake_seconds() * 1e3),
        ("net.tasks_retried".into(), pool.tasks_retried() as f64),
        (
            "net.duplicates_dropped".into(),
            pool.duplicates_dropped() as f64,
        ),
        ("net.workers_lost".into(), pool.workers_lost() as f64),
        ("net.threads_peak".into(), coord.threads_peak as f64),
        ("net.fds_peak".into(), coord.fds_peak as f64),
    ]
}

/// Runs one of the three pool workloads.
pub fn run(spec: &PoolSpec, args: &RunArgs) -> Outcome {
    let payloads = Arc::new(Payloads::new(
        &mut SplitMix64::new(args.seed).fork(spec.pool),
        spec.payload,
    ));
    let mut out = Outcome {
        input_hash: payloads.hash(),
        ..Outcome::default()
    };
    let shared = Shared::new(args.t0);

    let clock = Arc::new(RealClock::new());
    let mut builder = RemotePoolBuilder::new("echo", |p: Vec<u8>| p, decode_echo)
        .name(spec.pool)
        .initial_workers(spec.slots)
        .max_workers(spec.slots)
        .gather(GatherPolicy::Ordered)
        .clock(Arc::clone(&clock) as Arc<dyn Clock>);
    for e in loopback_endpoints(spec.slots, spec.secure) {
        builder = builder.endpoint(e);
    }
    let pool = builder.build().expect("every loopback daemon is reachable");
    let (tx, rx) = (pool.input(), pool.output());
    tx.send(StreamMsg::item(0, payloads.make(0)))
        .expect("pool accepts the first task");
    out.setup_s = shared.setup_s();
    if args.setup_only {
        return out;
    }

    let plan = Plan::new(args);
    let polled = Polled::default();
    let (make, verify) = (Arc::clone(&payloads), Arc::clone(&payloads));
    let run = drive_stream(
        &shared,
        plan,
        spec.mode,
        spec.stride,
        1,
        tx,
        rx,
        move |seq| make.make(seq),
        move |e: &Echo| verify.verify(e),
        None::<()>,
        sense_poll(pool.control(), clock, Arc::clone(&polled)),
    );

    let n = StreamNumbers::of(&run, &plan);
    out.attempted = 1 + run.gen.sent;
    out.breaches = run.breaches.clone();
    let (share, higher_is_better, headline): (f64, bool, fn(&WindowSummary) -> f64) =
        match spec.mode {
            Loop::Open { rate } => {
                let offered = (rate * n.reported.rates.len() as f64) as u64;
                out.invalid = crate::load::open_loop_verdict(
                    n.gen_lateness_p50_us * 1e3,
                    1e9 / rate,
                    offered,
                    n.reported.delivered,
                );
                (n.reported.share_at_least(0.9 * rate), false, |s| s.p50_us)
            }
            Loop::Closed { .. } => (n.reported.share_not_stalled(), true, |s| s.rate_median),
        };
    out.e2e = n.end_to_end(share);
    if args.trace {
        let rec = run.rec.as_ref();
        out.spans = trace::task_spans(
            &run.gen.stamps,
            rec.map_or(&[][..], |r| &r.delivered_stamps),
        );
        out.layer = net_layer(
            &pool,
            spec.pool,
            &run.coord,
            &polled.lock().expect("poll buffer"),
            &n.reported,
        );
        out.layer.extend(n.system_layer());
        out.layer.extend([
            (
                "skeletons.submit_ns".into(),
                trace::median_ns(&out.spans, "submit"),
            ),
            (
                "net.goodput_mbps".into(),
                n.reported.rate_median * spec.payload as f64 / 1e6,
            ),
            ("harness.gen_lateness_p99_us".into(), n.gen_lateness_p99_us),
            (
                "harness.trace_overhead_pct".into(),
                super::overhead_pct(
                    headline(&n.untraced),
                    headline(&n.reported),
                    higher_is_better,
                ),
            ),
            ("harness.spans".into(), out.spans.len() as f64),
        ]);
    }
    out.breaches.absorb(check_shutdown(&pool.shutdown(), false));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_reference_accepts_the_echo_and_rejects_a_flipped_byte() {
        let p = Payloads::new(&mut SplitMix64::new(3), 64);
        let mut bytes = p.make(41);
        assert_eq!(p.verify(&decode_echo(&bytes)), (41, true));
        bytes[20] ^= 1;
        assert_eq!(p.verify(&decode_echo(&bytes)), (41, false));
        assert_eq!(p.verify(&decode_echo(&bytes[..56])), (41, false));
    }
}

//! Deterministic fault injection for the distributed farm substrate.
//!
//! A [`ChaosProxy`] sits between a [`crate::pool::RemoteWorkerPool`] and a
//! `bskel-workerd` daemon, relaying the plain-channel frame stream in both
//! directions while injecting faults according to a [`ChaosPlan`]:
//!
//! * **connect refusal** — a scheduled number of connection attempts (or
//!   all of them, via [`ChaosProxy::set_refusing`]) are accepted and
//!   immediately closed, which the pool observes as a handshake failure;
//! * **frame drop / delay / duplication / corruption** — per-frame,
//!   per-direction decisions drawn from a seeded PRNG;
//! * **mid-stream disconnect** — both sockets severed after a configured
//!   number of forwarded frames;
//! * **stall** — the relay silently stops forwarding after a configured
//!   number of frames while keeping the sockets open: the silent-peer
//!   failure mode, distinct from a disconnect.
//!
//! **Determinism.** Every frame-level decision is a pure function of
//! `(plan.seed, connection id, direction, frame index)` — see
//! `frame_decision` — so a schedule replays exactly regardless of
//! thread interleaving or socket read chunking. What *varies* across runs
//! is only how the system under test reacts (retry timing, which slot a
//! speculative copy lands on); the injected-fault decision table itself
//! is fixed by the seed. [`ChaosProxy::log`] records the decisions that
//! were actually exercised.
//!
//! **Corruption model.** A corrupted frame always has its header magic
//! smashed (plus a sprinkle of payload mutations), so it can never parse
//! as a valid frame: corruption ≡ drop + garbage on the wire. This is
//! what makes the decoder-under-corruption property ("never emits a frame
//! that wasn't sent") checkable, and zero task loss provable — a
//! corrupted `Task`/`Result` is recovered by the pool's deadline retry,
//! not by guessing at damaged bytes. Payloads containing the frame magic
//! could in principle alias as an embedded frame after resync; the
//! property test keeps payload bytes below `0x80` to exclude it.
//!
//! The proxy decodes frames, so it only works on **plain** endpoints;
//! secure channels would need byte-level injection (which cannot target
//! frame classes). The soak tests run plain, which exercises the same
//! pool recovery machinery.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::proto::{encode_frame, FrameType, ProtoError};
use crate::wire::{FillStatus, FrameReader};

/// A small, fast, seedable PRNG (SplitMix64): good enough statistical
/// quality for fault schedules, trivially reproducible, dependency-free.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A uniform draw in `[lo, hi]` (inclusive; `lo` when the range is
    /// empty or inverted).
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Which way a relayed frame is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Pool → daemon (tasks, heartbeats, goodbyes).
    ToDaemon,
    /// Daemon → pool (results, sensor blobs, heartbeat acks).
    ToPool,
}

/// The fault classes the proxy can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A connection attempt was accepted and immediately closed.
    RefuseConnect,
    /// A frame was discarded instead of forwarded.
    Drop,
    /// A frame was forwarded after an injected delay.
    Delay,
    /// A frame was forwarded twice.
    Duplicate,
    /// A frame was forwarded with its header smashed and payload mutated.
    Corrupt,
    /// Both sockets of a connection were severed mid-stream.
    Disconnect,
    /// The relay stopped forwarding (sockets left open — a silent peer).
    Stall,
}

/// What [`frame_decision`] resolved for one relayed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// Forward unchanged.
    Forward,
    /// Discard.
    Drop,
    /// Forward with smashed header + mutated payload bytes.
    Corrupt,
    /// Forward twice.
    Duplicate,
    /// Forward after sleeping for the given duration.
    Delay(Duration),
}

/// Per-endpoint fault policy. Probabilities are per frame and per
/// direction; the `Default` policy injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosPolicy {
    /// Probability a frame is dropped.
    pub drop_p: f64,
    /// Probability a frame is corrupted (header smashed — see module
    /// docs; a corrupted frame is pure garbage to the receiving decoder).
    pub corrupt_p: f64,
    /// Probability a frame is duplicated.
    pub dup_p: f64,
    /// Probability a frame is delayed.
    pub delay_p: f64,
    /// Inclusive delay bounds, milliseconds.
    pub delay_ms: (u64, u64),
    /// Never inject frame faults into `Hello`/`HelloAck` frames, so the
    /// handshake of an accepted connection always completes (connect
    /// failures are exercised deliberately via `refuse_connects` /
    /// `disconnect_after` instead of by random handshake loss). Default
    /// `true`.
    pub spare_handshake: bool,
    /// Accept-and-immediately-close this many connection attempts…
    pub refuse_connects: u32,
    /// …but only after this many attempts succeeded (lets a pool `build`
    /// its initial slots before the endpoint starts flapping).
    pub healthy_connects: u32,
    /// Sever both sockets after this many frames were forwarded on a
    /// direction of a connection.
    pub disconnect_after: Option<u64>,
    /// Stop forwarding (but keep sockets open) after this many frames on
    /// a direction of a connection.
    pub stall_after: Option<u64>,
}

impl Default for ChaosPolicy {
    fn default() -> Self {
        Self {
            drop_p: 0.0,
            corrupt_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_ms: (1, 20),
            spare_handshake: true,
            refuse_connects: 0,
            healthy_connects: 0,
            disconnect_after: None,
            stall_after: None,
        }
    }
}

/// A seeded fault schedule for one proxied endpoint.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed fixing every frame-level decision (see module docs).
    pub seed: u64,
    /// The fault policy the seed drives.
    pub policy: ChaosPolicy,
}

impl ChaosPlan {
    /// A plan that injects nothing (useful as a pass-through baseline).
    pub fn inert(seed: u64) -> Self {
        Self {
            seed,
            policy: ChaosPolicy::default(),
        }
    }
}

/// One injected fault, as recorded in [`ChaosProxy::log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Proxy-local connection id (accept order, from 0).
    pub conn: u64,
    /// Relay direction the fault hit (refusals record `ToDaemon`).
    pub dir: Direction,
    /// Frame index within `(conn, dir)` (0 for refusals).
    pub frame: u64,
    /// The fault class.
    pub kind: FaultKind,
    /// Fault-specific detail: delay in ms, 0 otherwise.
    pub detail: u64,
}

/// Resolves the fate of frame `frame` of `(conn, dir)` under `plan` — a
/// pure function, so the same arguments always return the same fate.
///
/// Draw order is fixed (drop, corrupt, dup, delay) and every probability
/// is drawn even when an earlier one already hit, so a policy tweak to a
/// later probability never shifts the draws of an earlier one.
pub(crate) fn frame_decision(plan: &ChaosPlan, conn: u64, dir: Direction, frame: u64) -> FrameFate {
    let dir_tag: u64 = match dir {
        Direction::ToDaemon => 0x0D,
        Direction::ToPool => 0x1A,
    };
    let mut rng = ChaosRng::new(
        plan.seed
            ^ conn.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ dir_tag.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ frame.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    let p = &plan.policy;
    let drop = rng.chance(p.drop_p);
    let corrupt = rng.chance(p.corrupt_p);
    let dup = rng.chance(p.dup_p);
    let delay = rng.chance(p.delay_p);
    let delay_ms = rng.range_u64(p.delay_ms.0, p.delay_ms.1);
    if drop {
        FrameFate::Drop
    } else if corrupt {
        FrameFate::Corrupt
    } else if dup {
        FrameFate::Duplicate
    } else if delay {
        FrameFate::Delay(Duration::from_millis(delay_ms))
    } else {
        FrameFate::Forward
    }
}

/// Corrupts encoded frame bytes in place: the header magic is always
/// smashed (the frame can never re-parse), and a few payload bytes are
/// flipped for good measure. Exported for the decoder property test.
pub fn corrupt_frame_bytes(rng: &mut ChaosRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    // Guaranteed ≠ the magic's first byte, whatever it was.
    bytes[0] = bytes[0].wrapping_add(1);
    let flips = 1 + rng.range_u64(0, 3) as usize;
    for _ in 0..flips {
        let i = rng.range_u64(1, bytes.len() as u64 - 1) as usize;
        bytes[i] ^= (rng.next_u64() & 0xFF) as u8;
    }
}

struct ProxyShared {
    plan: ChaosPlan,
    upstream: String,
    log: Mutex<Vec<InjectedFault>>,
    conns: AtomicU64,
    connect_attempts: AtomicU64,
    refused: AtomicU64,
    refuse_all: AtomicBool,
}

impl ProxyShared {
    fn record(&self, fault: InjectedFault) {
        self.log.lock().push(fault);
    }
}

/// A fault-injecting TCP proxy in front of one daemon endpoint.
///
/// Spawn with [`ChaosProxy::spawn`], point the pool at
/// [`ChaosProxy::addr`]. The accept loop runs on a detached thread for
/// the life of the process (like [`crate::daemon::spawn_local`]).
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
}

impl ChaosProxy {
    /// Binds a loopback listener and relays every accepted connection to
    /// `upstream` under `plan`.
    pub fn spawn(upstream: impl Into<String>, plan: ChaosPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            plan,
            upstream: upstream.into(),
            log: Mutex::new(Vec::new()),
            conns: AtomicU64::new(0),
            connect_attempts: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            refuse_all: AtomicBool::new(false),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("chaos-proxy-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?;
        }
        Ok(Self { shared, addr })
    }

    /// The address the system under test should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The injected-fault log so far (accept order within a connection
    /// and direction; interleaving across connections is scheduling-
    /// dependent, the per-`(conn, dir, frame)` decisions are not).
    pub fn log(&self) -> Vec<InjectedFault> {
        self.shared.log.lock().clone()
    }

    /// Connection attempts observed (accepted + refused).
    pub fn connect_attempts(&self) -> u64 {
        self.shared.connect_attempts.load(Ordering::SeqCst)
    }

    /// Connection attempts refused so far.
    pub fn refused_connects(&self) -> u64 {
        self.shared.refused.load(Ordering::SeqCst)
    }

    /// Overrides the plan: refuse every connection attempt (`true`) or
    /// fall back to the scheduled refusals (`false`). This is the
    /// "endpoint flaps, then heals" lever for circuit-breaker tests.
    pub fn set_refusing(&self, refuse: bool) {
        self.shared.refuse_all.store(refuse, Ordering::SeqCst);
    }
}

/// Spawns an in-process daemon on an ephemeral loopback port plus a
/// chaos proxy in front of it; returns the proxy (connect to
/// [`ChaosProxy::addr`]) — the chaos-wrapped counterpart of
/// [`crate::daemon::spawn_local`].
pub fn spawn_chaos_local(plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
    let daemon = crate::daemon::spawn_local("127.0.0.1:0")?;
    ChaosProxy::spawn(daemon.to_string(), plan)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for stream in listener.incoming() {
        let client = match stream {
            Ok(client) => client,
            Err(e) => {
                eprintln!("chaos proxy: {}: accept: {e}", shared.upstream);
                continue;
            }
        };
        let attempt = shared.connect_attempts.fetch_add(1, Ordering::SeqCst);
        let p = &shared.plan.policy;
        let scheduled = attempt >= u64::from(p.healthy_connects)
            && attempt < u64::from(p.healthy_connects) + u64::from(p.refuse_connects);
        let refuse = shared.refuse_all.load(Ordering::SeqCst) || scheduled;
        if refuse {
            shared.refused.fetch_add(1, Ordering::SeqCst);
            shared.record(InjectedFault {
                conn: attempt,
                dir: Direction::ToDaemon,
                frame: 0,
                kind: FaultKind::RefuseConnect,
                detail: 0,
            });
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let upstream = match TcpStream::connect(&shared.upstream) {
            Ok(upstream) => upstream,
            Err(e) => {
                eprintln!("chaos proxy: {}: connect upstream: {e}", shared.upstream);
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
        };
        // Closing both sockets makes a relay that already runs see EOF,
        // so a half-set-up connection fails loudly at the pool instead of
        // relaying one way only.
        let sever = |why: &str| {
            eprintln!("chaos proxy: {}: {why}", shared.upstream);
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
        };
        // With Nagle's algorithm left on, unplanned delay would stack on
        // top of the planned ones.
        if let Err(e) = client.set_nodelay(true).and(upstream.set_nodelay(true)) {
            sever(&format!("cannot set TCP_NODELAY: {e}"));
            continue;
        }
        let conn = shared.conns.fetch_add(1, Ordering::SeqCst);
        let pairs = [
            (
                Direction::ToDaemon,
                client.try_clone(),
                upstream.try_clone(),
            ),
            (Direction::ToPool, upstream.try_clone(), client.try_clone()),
        ];
        for (dir, from, to) in pairs {
            let (from, to) = match (from, to) {
                (Ok(from), Ok(to)) => (from, to),
                (Err(e), _) | (_, Err(e)) => {
                    sever(&format!("conn {conn}: cannot clone a socket: {e}"));
                    break;
                }
            };
            let shared = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name(format!("chaos-relay-c{conn}"))
                .spawn(move || relay(from, to, dir, conn, &shared));
            if let Err(e) = spawned {
                sever(&format!("conn {conn}: cannot spawn its {dir:?} relay: {e}"));
                break;
            }
        }
    }
}

/// Relays one direction of one connection frame-by-frame, applying the
/// plan. Owns its own frame counter, so decisions depend only on
/// `(conn, dir, frame index)`.
fn relay(from: TcpStream, to: TcpStream, dir: Direction, conn: u64, shared: &Arc<ProxyShared>) {
    let mut reader = FrameReader::new(from);
    let mut frame_idx: u64 = 0;
    let mut forwarded: u64 = 0;
    let mut stalled = false;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let sever = |reader: &FrameReader, to: &TcpStream| {
        let _ = reader.stream().shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    };
    loop {
        let frame = loop {
            match reader.try_next() {
                Ok(Some(f)) => break f,
                Ok(None) => {}
                Err(ProtoError::Oversized { .. }) => {
                    sever(&reader, &to);
                    return;
                }
            }
            match reader.fill_once() {
                Ok(FillStatus::Bytes) | Ok(FillStatus::WouldBlock) => {}
                Ok(FillStatus::Eof) | Err(_) => {
                    sever(&reader, &to);
                    return;
                }
            }
        };
        let idx = frame_idx;
        frame_idx += 1;
        let policy = &shared.plan.policy;
        if stalled {
            // Silent peer: keep draining so the sender is not blocked by
            // backpressure, forward nothing.
            continue;
        }
        if let Some(n) = policy.disconnect_after {
            if forwarded >= n {
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Disconnect,
                    detail: 0,
                });
                sever(&reader, &to);
                return;
            }
        }
        if let Some(n) = policy.stall_after {
            if forwarded >= n {
                stalled = true;
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Stall,
                    detail: 0,
                });
                continue;
            }
        }
        let handshake =
            matches!(frame.ftype, FrameType::Hello | FrameType::HelloAck) && policy.spare_handshake;
        let fate = if handshake {
            FrameFate::Forward
        } else {
            frame_decision(&shared.plan, conn, dir, idx)
        };
        let wrote = match fate {
            FrameFate::Drop => {
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Drop,
                    detail: 0,
                });
                Ok(())
            }
            FrameFate::Corrupt => {
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Corrupt,
                    detail: 0,
                });
                buf.clear();
                encode_frame(&mut buf, frame.ftype, frame.seq, &frame.payload);
                // Deterministic mutation: keyed like frame_decision.
                let mut rng = ChaosRng::new(
                    shared.plan.seed.wrapping_add(0xC0DE)
                        ^ conn.wrapping_mul(0xA24B_AED4_963E_E407)
                        ^ idx.wrapping_mul(0xD6E8_FEB8_6659_FD93),
                );
                corrupt_frame_bytes(&mut rng, &mut buf);
                forwarded += 1;
                write_all(&to, &buf)
            }
            FrameFate::Duplicate => {
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Duplicate,
                    detail: 0,
                });
                buf.clear();
                encode_frame(&mut buf, frame.ftype, frame.seq, &frame.payload);
                forwarded += 1;
                write_all(&to, &buf).and_then(|()| write_all(&to, &buf))
            }
            FrameFate::Delay(d) => {
                shared.record(InjectedFault {
                    conn,
                    dir,
                    frame: idx,
                    kind: FaultKind::Delay,
                    detail: d.as_millis() as u64,
                });
                std::thread::sleep(d);
                buf.clear();
                encode_frame(&mut buf, frame.ftype, frame.seq, &frame.payload);
                forwarded += 1;
                write_all(&to, &buf)
            }
            FrameFate::Forward => {
                buf.clear();
                encode_frame(&mut buf, frame.ftype, frame.seq, &frame.payload);
                forwarded += 1;
                write_all(&to, &buf)
            }
        };
        if wrote.is_err() {
            sever(&reader, &to);
            return;
        }
    }
}

fn write_all(mut to: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    to.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaosRng::new(43);
        assert_ne!(ChaosRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn frame_decisions_are_pure() {
        let plan = ChaosPlan {
            seed: 7,
            policy: ChaosPolicy {
                drop_p: 0.2,
                corrupt_p: 0.2,
                dup_p: 0.2,
                delay_p: 0.2,
                ..ChaosPolicy::default()
            },
        };
        for conn in 0..4 {
            for frame in 0..256 {
                for dir in [Direction::ToDaemon, Direction::ToPool] {
                    assert_eq!(
                        frame_decision(&plan, conn, dir, frame),
                        frame_decision(&plan, conn, dir, frame)
                    );
                }
            }
        }
    }

    #[test]
    fn decision_schedule_varies_with_seed_and_covers_all_fates() {
        let mk = |seed| ChaosPlan {
            seed,
            policy: ChaosPolicy {
                drop_p: 0.1,
                corrupt_p: 0.1,
                dup_p: 0.1,
                delay_p: 0.1,
                ..ChaosPolicy::default()
            },
        };
        let schedule = |plan: &ChaosPlan| -> Vec<FrameFate> {
            (0..512)
                .map(|i| frame_decision(plan, 0, Direction::ToPool, i))
                .collect()
        };
        let a = schedule(&mk(1));
        assert_eq!(a, schedule(&mk(1)), "same seed, same schedule");
        assert_ne!(a, schedule(&mk(2)), "different seed, different schedule");
        for want in [FrameFate::Drop, FrameFate::Corrupt, FrameFate::Duplicate] {
            assert!(a.contains(&want), "{want:?} never drawn in 512 frames");
        }
        assert!(a.iter().any(|f| matches!(f, FrameFate::Delay(_))));
    }

    #[test]
    fn corruption_always_smashes_the_magic() {
        let mut rng = ChaosRng::new(9);
        for seq in 0..64u64 {
            let mut bytes = Vec::new();
            encode_frame(&mut bytes, FrameType::Task, seq, &seq.to_le_bytes());
            let original = bytes.clone();
            corrupt_frame_bytes(&mut rng, &mut bytes);
            assert_ne!(bytes[0], original[0], "magic byte must change");
            assert_ne!(bytes, original);
        }
    }
}

//! # bskel-net — the distributed farm substrate
//!
//! This crate extends the threaded skeleton runtime across machine
//! boundaries: a farm whose workers are *slots* hosted by remote
//! `bskel-workerd` daemons, speaking a dependency-free length-prefixed
//! binary protocol over `std::net::TcpStream`.
//!
//! The paper's behavioural-skeleton premise is that the management layer
//! must not care where the workers run: the pool here implements the
//! same `FarmControl` surface as the in-process farm, ships the remote
//! workers' sensor beans (service time, queue depth) piggybacked on
//! result frames, and merges them into the standard `SensorSnapshot` —
//! so the *unchanged* rule programs and contracts of the autonomic
//! manager drive remote elasticity (`ADD_EXECUTOR` connects a daemon
//! slot, `REMOVE_EXECUTOR` retires one) and self-healing (heartbeat
//! deadline → slot death → in-flight replay onto survivors).
//!
//! Modules:
//!
//! * [`proto`] — the wire format: framed, partial-read and garbage
//!   tolerant, with oversized-length rejection;
//! * [`wire`] — `FrameWriter`/`FrameReader` over a socket, with optional
//!   metered ciphering;
//! * [`secure`] — the *toy* secure channel (NOT cryptography): a
//!   keystream cipher and a deliberately expensive handshake whose cost
//!   meter calibrates the simulator's `SslCostModel`;
//! * [`daemon`] — the worker-daemon serve loop and workload registry;
//! * [`pool`] — [`RemoteWorkerPool`]: the distributed farm, with
//!   endpoint circuit breakers, backoff-with-jitter reconnects and
//!   soft task deadlines with speculative re-execution;
//! * [`chaos`] — seeded, deterministic fault injection (a frame-level
//!   proxy for drop/delay/dup/corrupt/refuse/disconnect/stall) that the
//!   soak tests drive the pool's resilience policies with;
//! * [`metrics`] — the ops plane's exposition endpoint: a single-thread
//!   epoll-hosted HTTP listener serving Prometheus text format
//!   (`GET /metrics`) and the ops journal (`GET /journal`);
//! * [`sys`] — dependency-free Linux readiness polling (`epoll` +
//!   `eventfd` via raw syscalls, no libc);
//! * [`reactor`] — the event loop's allocation/syscall-economy pieces:
//!   pooled frame buffers, a vectored-write send queue, a timer wheel.

#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod reactor;
pub mod secure;
pub mod sys;
pub mod wire;

pub use chaos::{
    corrupt_frame_bytes, frame_decision, spawn_chaos_local, ChaosPlan, ChaosPolicy, ChaosProxy,
    ChaosRng, Direction, FaultKind, FrameFate, InjectedFault,
};
pub use daemon::{serve, spawn_local, Workload};
pub use metrics::{count_kinds, parse_exposition, Exposition, MetricsHub, MetricsServer, Sample};
pub use pool::{DecodeFn, EncodeFn, Endpoint, RemotePoolBuilder, RemoteWorkerPool};
pub use proto::{
    encode_frame, Decoder, Frame, FrameType, FrameView, ProtoError, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use reactor::{BufferPool, SendQueue, TimerWheel, WriteOutcome};
pub use secure::{CostMeter, CostReport};
pub use sys::{raise_nofile_limit, Event, Interest, Poller, Waker};

// Convenience re-export: the statistic shipped in `proto::SensorBlob`.
pub use bskel_monitor::Welford;

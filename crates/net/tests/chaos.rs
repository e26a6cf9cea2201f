//! Chaos soak: seeded adversarial fault schedules against the
//! distributed pool's resilience policies.
//!
//! Every test routes a pool through a [`ChaosProxy`] whose injected
//! faults are fixed by a seed (see `bskel_net::chaos`), and asserts the
//! resilience acceptance properties end to end:
//!
//! * **zero task loss and ordered output** under frame drop, corruption,
//!   duplication, delay, mid-stream disconnect, silent stall, and
//!   connect refusal — via in-flight replay, heartbeat deadlines, and
//!   soft task deadlines with speculative re-execution;
//! * **no double delivery**: the ordered gather's reorder buffer panics
//!   on a duplicate sequence, so every soak run is itself a proof that
//!   the speculation registry deduplicates;
//! * **breaker quarantine**: a flapping endpoint stops receiving connect
//!   attempts while its circuit is Open, and a Half-Open probe restores
//!   it after the cooldown;
//! * **determinism**: the same seed replays the same injected-fault
//!   schedule for a scripted frame sequence.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bskel_net::proto::{encode_hello, FrameType, Hello};
use bskel_net::wire::{FillStatus, FrameReader, FrameWriter};
use bskel_net::{
    spawn_chaos_local, spawn_local, ChaosPlan, ChaosPolicy, ChaosProxy, Direction, Endpoint,
    FaultKind, InjectedFault, RemotePoolBuilder, RemoteWorkerPool,
};
use bskel_skel::farm::{FarmEventKind, ShutdownReport};
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;

// -- helpers ------------------------------------------------------------

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// A doubling pool with one chaos-proxied endpoint and one clean one —
/// the canonical soak topology: the clean slot is where speculation and
/// replay land, the chaotic slot is where faults strike.
fn chaos_pool(
    plan: ChaosPlan,
    task_deadline: Duration,
) -> (RemoteWorkerPool<u64, u64>, ChaosProxy) {
    let seed = plan.seed;
    let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
    let clean = spawn_local("127.0.0.1:0").expect("spawn clean daemon");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("chaos")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(400))
        .reconnect_backoff(Duration::from_millis(20), Duration::from_millis(200))
        .breaker_cooldown(Duration::from_millis(150))
        .task_deadline(task_deadline)
        .resilience_seed(seed)
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .endpoint(Endpoint::plain(clean.to_string()))
        .build()
        .expect("chaos + clean endpoints reachable");
    (pool, proxy)
}

/// Sends `0..n` and `End`, returns the ordered payloads received.
fn run_stream(pool: &RemoteWorkerPool<u64, u64>, n: u64) -> Vec<u64> {
    let tx = pool.input();
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let mut got = Vec::with_capacity(n as usize);
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { payload, .. } => got.push(payload),
            StreamMsg::End => break,
        }
    }
    producer.join().unwrap();
    got
}

/// A shutdown under chaos is acceptable when it is clean, or when every
/// blemish is an *explained* consequence of injected faults: no worker
/// panics ever (the soak workloads cannot panic), no loss notification
/// left undelivered, and every lost slot has a matching `worker:lost`
/// event naming why. Goodbye failures on severed sockets land in
/// `disconnects`, which is exactly what that field is for.
fn assert_clean_or_explained(report: &ShutdownReport) {
    if report.is_clean() {
        return;
    }
    assert!(
        report.worker_panics.is_empty(),
        "chaos must not manufacture panics: {report:?}"
    );
    assert!(
        report.lost_undelivered.is_empty(),
        "every loss notification must be delivered: {report:?}"
    );
    let lost_events = report
        .events
        .iter()
        .filter(|e| e.kind == FarmEventKind::WorkerLost)
        .count() as u64;
    assert_eq!(
        report.workers_lost, lost_events,
        "every lost slot must be evented: {report:?}"
    );
}

/// One soak run: `n` tasks through a chaos topology, asserting zero
/// loss, preserved order, and a clean-or-explained shutdown. Returns
/// the pool's shutdown report plus the proxy for extra assertions.
fn soak(plan: ChaosPlan, n: u64, deadline: Duration) -> (ShutdownReport, Vec<InjectedFault>) {
    let seed = plan.seed;
    let (pool, proxy) = chaos_pool(plan, deadline);
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got.len(), want.len(), "seed {seed:#x}: tasks lost");
    assert_eq!(got, want, "seed {seed:#x}: order broken");
    let report = pool.shutdown();
    assert_clean_or_explained(&report);
    (report, proxy.log())
}

// -- seeded soak schedules ----------------------------------------------

#[test]
fn soak_inert_plan_is_clean() {
    // The baseline: the relay forwards every frame untouched, so the
    // run must shut down clean with nothing in the fault log.
    let (report, log) = soak(ChaosPlan::inert(0xC4A05), 800, Duration::from_millis(150));
    assert!(
        report.is_clean(),
        "an inert relay must leave the shutdown clean: {report:?}"
    );
    assert!(log.is_empty(), "an inert plan injects nothing: {log:?}");
}

#[test]
fn soak_drop_heavy() {
    // Dropped Task/Result frames leave tasks in-flight forever on the
    // chaotic slot (heartbeats keep it alive) — only the task deadline
    // plus speculative re-execution can finish the stream.
    let plan = ChaosPlan {
        seed: 0xD1,
        policy: ChaosPolicy {
            drop_p: 0.04,
            ..ChaosPolicy::default()
        },
    };
    let (_, log) = soak(plan, 800, Duration::from_millis(150));
    assert!(
        log.iter().any(|f| f.kind == FaultKind::Drop),
        "the schedule must actually drop frames: {log:?}"
    );
}

#[test]
fn soak_drop_heavy_second_seed() {
    // A different seed is a genuinely different schedule (the chaos
    // module unit-tests that); the resilience properties must hold for
    // it all the same.
    let plan = ChaosPlan {
        seed: 0x7707,
        policy: ChaosPolicy {
            drop_p: 0.04,
            ..ChaosPolicy::default()
        },
    };
    soak(plan, 800, Duration::from_millis(150));
}

#[test]
fn soak_corrupt_heavy() {
    // Corrupted frames are garbage to the receiving decoder: the frame
    // is effectively dropped and the wire resyncs. Same recovery story
    // as drops, plus decoder resilience.
    let plan = ChaosPlan {
        seed: 0xC2,
        policy: ChaosPolicy {
            corrupt_p: 0.04,
            ..ChaosPolicy::default()
        },
    };
    let (_, log) = soak(plan, 800, Duration::from_millis(150));
    assert!(log.iter().any(|f| f.kind == FaultKind::Corrupt));
}

#[test]
fn soak_duplicate_storm() {
    // Duplicated Task frames make the daemon answer twice; duplicated
    // Result frames arrive twice. Either way the second answer finds no
    // in-flight entry and is dropped — the ordered gather would panic
    // on any double delivery, so completion is the proof.
    let plan = ChaosPlan {
        seed: 0xD3,
        policy: ChaosPolicy {
            dup_p: 0.15,
            ..ChaosPolicy::default()
        },
    };
    let (_, log) = soak(plan, 1000, Duration::from_millis(150));
    assert!(log.iter().any(|f| f.kind == FaultKind::Duplicate));
}

#[test]
fn soak_delay_makes_speculation_win_without_double_emit() {
    // Long injected delays push tasks past the soft deadline while the
    // original copy still completes eventually: both answers come home.
    // Exactly one may be delivered; the duplicate must be counted, not
    // emitted.
    let plan = ChaosPlan {
        seed: 0xD4,
        policy: ChaosPolicy {
            delay_p: 0.05,
            delay_ms: (120, 250),
            ..ChaosPolicy::default()
        },
    };
    let seed = plan.seed;
    let (pool, proxy) = chaos_pool(plan, Duration::from_millis(80));
    let got = run_stream(&pool, 150);
    let want: Vec<u64> = (0..150u64).map(|x| x * 2).collect();
    assert_eq!(got, want, "seed {seed:#x}: loss or disorder");
    assert!(
        pool.tasks_retried() > 0,
        "injected delays must trigger speculative retries"
    );
    let log = proxy.log();
    assert!(log.iter().any(|f| f.kind == FaultKind::Delay));
    let report = pool.shutdown();
    assert_clean_or_explained(&report);
}

#[test]
fn soak_mixed_storm() {
    // Everything at once: the composed fault classes must not interact
    // into a loss. Run the same policy under two seeds.
    for seed in [0xA5u64, 0xB6] {
        let plan = ChaosPlan {
            seed,
            policy: ChaosPolicy {
                drop_p: 0.02,
                corrupt_p: 0.02,
                dup_p: 0.05,
                delay_p: 0.05,
                delay_ms: (1, 20),
                ..ChaosPolicy::default()
            },
        };
        soak(plan, 1000, Duration::from_millis(150));
    }
}

#[test]
fn soak_stall_silent_peer() {
    // The stalled relay keeps draining but forwards nothing: a silent
    // peer with open sockets. The heartbeat deadline must declare the
    // slot dead and replay its harvest; nothing may be lost.
    let plan = ChaosPlan {
        seed: 0xE7,
        policy: ChaosPolicy {
            stall_after: Some(80),
            ..ChaosPolicy::default()
        },
    };
    let (report, log) = soak(plan, 600, Duration::from_millis(150));
    assert!(
        report.workers_lost >= 1,
        "a stalled slot must be declared dead: {report:?}"
    );
    assert!(log.iter().any(|f| f.kind == FaultKind::Stall));
}

#[test]
fn soak_disconnect_midstream() {
    // Severed sockets wake the reader into the death path immediately —
    // the fast-failure sibling of the stall.
    let plan = ChaosPlan {
        seed: 0xF8,
        policy: ChaosPolicy {
            disconnect_after: Some(60),
            ..ChaosPolicy::default()
        },
    };
    let (report, log) = soak(plan, 600, Duration::from_millis(150));
    assert!(
        report.workers_lost >= 1,
        "a severed slot must be declared dead: {report:?}"
    );
    assert!(log.iter().any(|f| f.kind == FaultKind::Disconnect));
}

// -- recovery, quarantine, determinism ----------------------------------

/// A single flaky endpoint that disconnects mid-stream *and* refuses the
/// first reconnect attempts: the pool must park the stranded tasks, ride
/// the backoff through the refusals, reconnect when the endpoint
/// accepts again, and finish the stream with zero loss.
#[test]
fn disconnect_then_refused_reconnects_recover() {
    const TASKS: u64 = 150;
    let plan = ChaosPlan {
        seed: 0x9E,
        policy: ChaosPolicy {
            disconnect_after: Some(40),
            refuse_connects: 2,
            healthy_connects: 1, // the build's initial connect succeeds
            ..ChaosPolicy::default()
        },
    };
    let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("flaky")
        .initial_workers(1)
        .max_workers(1)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(300))
        .reconnect_backoff(Duration::from_millis(10), Duration::from_millis(80))
        .breaker_threshold(3)
        .breaker_cooldown(Duration::from_millis(80))
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .build()
        .expect("initial connect is scheduled healthy");
    let ctl = pool.control();

    // A flow-controlled client: at most 8 tasks outstanding. Against a
    // link that severs every 40 frames, an unwindowed burst would put
    // the whole stream in flight before the first result could come
    // home, and every reconnect cycle would replay it from scratch.
    let received = Arc::new(AtomicU64::new(0));
    let tx = pool.input();
    let producer = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            for i in 0..TASKS {
                while i.saturating_sub(received.load(Ordering::SeqCst)) >= 8 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                tx.send(StreamMsg::item(i, i)).unwrap();
            }
            tx.send(StreamMsg::End).unwrap();
        })
    };
    let consumer = {
        let output = pool.output();
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            let mut got = Vec::with_capacity(TASKS as usize);
            for msg in output.iter() {
                match msg {
                    StreamMsg::Item { payload, .. } => {
                        got.push(payload);
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    StreamMsg::End => break,
                }
            }
            got
        })
    };

    // Stand-in for the autonomic manager's FT rule: keep trying to
    // restore capacity. Most calls fail fast ("worker limit reached"
    // while the slot lives, backoff/quarantine while it does not).
    let deadline = Instant::now() + Duration::from_secs(60);
    while !consumer.is_finished() {
        assert!(Instant::now() < deadline, "stream never completed");
        let _ = ctl.add_workers(1);
        std::thread::sleep(Duration::from_millis(10));
    }
    let got = consumer.join().unwrap();
    producer.join().unwrap();

    let want: Vec<u64> = (0..TASKS).map(|x| x * 2).collect();
    assert_eq!(got, want, "reconnect cycles must not lose or reorder");
    assert!(pool.workers_lost() >= 1, "the disconnect must be observed");
    assert_eq!(
        proxy.refused_connects(),
        2,
        "the scheduled refusals must be exercised"
    );
    let report = pool.shutdown();
    assert_clean_or_explained(&report);
}

/// The circuit breaker quarantines a flapping endpoint: once Open, no
/// connect attempts reach it until the cooldown elapses; afterwards a
/// single Half-Open probe restores it.
#[test]
fn breaker_quarantines_flapping_endpoint_and_probe_restores() {
    let proxy = spawn_chaos_local(ChaosPlan::inert(1)).expect("spawn proxy");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("breaker")
        .initial_workers(1)
        .max_workers(2)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(300))
        .reconnect_backoff(Duration::from_millis(10), Duration::from_millis(100))
        .breaker_threshold(3)
        .breaker_cooldown(Duration::from_millis(300))
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .build()
        .expect("proxy reachable");
    let ctl = pool.control();
    assert_eq!(pool.circuit_open_count(), 0);

    // The endpoint starts refusing; kill the live slot so its death
    // registers the first failure, then let add_workers fail into Open.
    proxy.set_refusing(true);
    ctl.kill_workers(1).expect("one live slot");
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.circuit_open_count() == 0 {
        assert!(Instant::now() < deadline, "circuit never opened");
        let _ = ctl.add_workers(1);
        std::thread::sleep(Duration::from_millis(10));
    }

    // Quarantine: while Open and before the cooldown, add_workers must
    // not generate a single connect attempt against the endpoint.
    let attempts_at_open = proxy.connect_attempts();
    for _ in 0..25 {
        let res = ctl.add_workers(1);
        assert!(res.is_err(), "no capacity may appear while quarantined");
    }
    assert_eq!(
        proxy.connect_attempts(),
        attempts_at_open,
        "an Open circuit must stop connect traffic entirely"
    );

    // Heal the endpoint and wait out the cooldown: the next add_workers
    // is the Half-Open probe, which closes the circuit and restores the
    // slot.
    proxy.set_refusing(false);
    std::thread::sleep(Duration::from_millis(450));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ctl.add_workers(1) {
            Ok(n) => {
                assert_eq!(n, 1);
                break;
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "probe never restored the slot");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    assert_eq!(
        pool.circuit_open_count(),
        0,
        "probe success closes the circuit"
    );
    assert_eq!(ctl.num_workers(), 1);

    // The restored slot must actually carry work (and the stream must
    // complete before shutdown joins the emitter).
    let got = run_stream(&pool, 8);
    assert_eq!(got, (0..8u64).map(|x| x * 2).collect::<Vec<_>>());
    let report = pool.shutdown();
    assert_clean_or_explained(&report);
}

/// Replays a fixed frame script through two proxies under the same plan
/// and asserts the injected-fault schedules are identical; a different
/// seed must produce a different schedule. The comparison covers the
/// pool→daemon direction, whose frame sequence the script fixes exactly
/// (the daemon→pool frame indices depend on the daemon's result
/// batching, which is timing, not seed).
#[test]
fn same_seed_replays_identical_fault_schedule() {
    fn scripted_session(proxy: &ChaosProxy) -> Vec<InjectedFault> {
        let stream = TcpStream::connect(proxy.addr()).expect("connect proxy");
        let mut w = FrameWriter::new(stream.try_clone().expect("clone"));
        let mut r = FrameReader::new(stream.try_clone().expect("clone"));
        w.send(
            FrameType::Hello,
            0,
            &encode_hello(&Hello {
                secure: false,
                nonce: 1,
                workload: "echo".into(),
            }),
        )
        .expect("hello");
        // Handshake frames are spared, so the ack always arrives.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(Some(f)) = r.try_next() {
                if f.ftype == FrameType::HelloAck {
                    break;
                }
            }
            match r.fill_once() {
                Ok(FillStatus::Bytes) => {}
                Ok(FillStatus::WouldBlock) => assert!(Instant::now() < deadline, "no ack"),
                Ok(FillStatus::Eof) | Err(_) => panic!("handshake severed"),
            }
        }
        for i in 0..200u64 {
            w.push(FrameType::Task, i, &i.to_le_bytes());
        }
        w.flush().expect("flush tasks");
        let _ = w.send(FrameType::Goodbye, 0, &[]);
        // Give the relay time to drain the script (injected delays are
        // bounded), then read the log.
        std::thread::sleep(Duration::from_millis(600));
        let mut log: Vec<InjectedFault> = proxy
            .log()
            .into_iter()
            .filter(|f| f.dir == Direction::ToDaemon)
            .collect();
        log.sort_by_key(|f| (f.conn, f.frame));
        log
    }

    let policy = ChaosPolicy {
        drop_p: 0.05,
        corrupt_p: 0.05,
        dup_p: 0.05,
        delay_p: 0.05,
        delay_ms: (1, 5),
        ..ChaosPolicy::default()
    };
    let plan = ChaosPlan {
        seed: 0x5EED,
        policy: policy.clone(),
    };
    let a = scripted_session(&spawn_chaos_local(plan.clone()).expect("proxy a"));
    let b = scripted_session(&spawn_chaos_local(plan).expect("proxy b"));
    assert!(!a.is_empty(), "the schedule must inject something");
    assert_eq!(a, b, "same seed must replay the same fault schedule");

    let other = scripted_session(
        &spawn_chaos_local(ChaosPlan {
            seed: 0x5EEE,
            policy,
        })
        .expect("proxy c"),
    );
    assert_ne!(a, other, "a different seed is a different schedule");
}

/// Regression (busy-pulse sidecar): a task longer than the failure
/// timeout used to read as a dead slot — the daemon answered heartbeats
/// only between tasks, so the detector severed the connection mid-
/// computation and the pool replayed the task onto nothing, forever.
/// The sidecar pulses during the busy window, so the slot survives.
#[test]
fn long_task_outlives_failure_timeout_via_busy_pulse() {
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    // 500ms spin per task vs a 200ms failure timeout: without the busy
    // pulse this configuration can never finish a single task.
    let pool = RemotePoolBuilder::new("spin:500000", enc, dec)
        .name("longtask")
        .initial_workers(1)
        .max_workers(2)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(200))
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");

    let got = run_stream(&pool, 2);
    assert_eq!(got, vec![0, 1], "long tasks must complete, in order");
    assert_eq!(
        pool.workers_lost(),
        0,
        "a busy slot is not a dead slot: the pulse must keep it alive"
    );
    let report = pool.shutdown();
    assert!(report.is_clean(), "unexpected faults: {report:?}");
}

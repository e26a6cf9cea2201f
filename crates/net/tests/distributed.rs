//! End-to-end distributed farm tests over loopback TCP.
//!
//! Covers the full acceptance path of the distributed substrate: a pool of
//! remote `bskel-workerd` slots completes an ordered stream; killing a
//! daemon process mid-run loses zero tasks while the autonomic manager
//! (running the unchanged FT rule program) senses the loss through the
//! `workersLost` bean and restores the pool; the heartbeat deadline
//! detects a peer that is connected but silent; the secure channel
//! roundtrips and meters its cost; and remote elasticity + sensor
//! plumbing work through the ordinary `FarmControl` surface.

use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bskel_core::contract::Contract;
use bskel_core::events::{EventKind, EventLog};
use bskel_core::manager::{AutonomicManager, ManagerConfig};
use bskel_monitor::{Clock, Journal, JournalEntry, ManualClock, RealClock};
use bskel_net::proto::{decode_hello, encode_hello_ack, FrameType, HelloAck};
use bskel_net::wire::{FrameReader, FrameWriter};
use bskel_net::{spawn_local, Endpoint, RemotePoolBuilder, RemoteWorkerPool};
use bskel_skel::abc_impl::FarmAbc;
use bskel_skel::farm::{FarmBuilder, FarmControl, FarmEventKind, ShutdownReport};
use bskel_skel::runtime::ManagerDriver;
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;
use crossbeam::channel::{Receiver, Sender};

// -- helpers ------------------------------------------------------------

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// A pool of `u64 -> u64` doubling workers over the given endpoints.
fn double_pool(endpoints: &[Endpoint], initial: u32) -> RemoteWorkerPool<u64, u64> {
    let mut b = RemotePoolBuilder::new("double", enc, dec)
        .name("dfarm")
        .initial_workers(initial)
        .max_workers(8)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(400));
    for e in endpoints {
        b = b.endpoint(e.clone());
    }
    b.build().expect("loopback daemons are reachable")
}

/// Spawns a real `bskel-workerd` child process on an OS-assigned port and
/// parses the bound address from its announcement line.
fn spawn_workerd() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bskel-workerd"))
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bskel-workerd");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable announcement: {line:?}"));
    (child, addr)
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

// -- tests --------------------------------------------------------------

/// Two in-process daemon slots complete a 10k-task ordered stream; the
/// plain channel meters no handshakes and shutdown is clean.
#[test]
fn loopback_pool_completes_ordered_stream() {
    let a = spawn_local("127.0.0.1:0").expect("bind daemon A");
    let b = spawn_local("127.0.0.1:0").expect("bind daemon B");
    let pool = double_pool(
        &[
            Endpoint::plain(a.to_string()),
            Endpoint::plain(b.to_string()),
        ],
        2,
    );
    assert_eq!(pool.num_workers(), 2);

    let got = run_stream(&pool, 10_000);
    let want: Vec<u64> = (0..10_000u64).map(|x| x * 2).collect();
    assert_eq!(got, want, "ordered gather must preserve stream order");

    let cost = pool.cost_report();
    assert_eq!(cost.handshakes, 0, "plain channels never handshake");
    assert_eq!(cost.bytes, 0, "plain channels never cipher");

    let report = pool.shutdown();
    assert!(report.is_clean(), "unexpected faults: {report:?}");
}

/// The secure channel produces identical results and a non-trivial cost
/// report (the numbers that calibrate the simulator's `SslCostModel`).
#[test]
fn secure_channel_roundtrips_and_meters_cost() {
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = double_pool(&[Endpoint::secure(addr.to_string())], 2);

    let got = run_stream(&pool, 2_000);
    let want: Vec<u64> = (0..2_000u64).map(|x| x * 2).collect();
    assert_eq!(got, want, "ciphering must be transparent to the stream");

    let cost = pool.cost_report();
    assert_eq!(cost.handshakes, 2, "one key-stretch per slot");
    assert!(cost.handshake_seconds() > 0.0);
    assert!(cost.bytes > 0, "every frame is ciphered");
    assert!(cost.per_byte_seconds() > 0.0);

    let report = pool.shutdown();
    assert!(report.is_clean(), "unexpected faults: {report:?}");
}

/// The acceptance test: ≥2 real worker daemons over loopback, 10k tasks,
/// one daemon killed mid-run. Zero tasks may be lost, the gather stays
/// ordered, and the AM — running the unchanged FT rule program over the
/// standard beans — senses the loss (`workersLost`) and restores the
/// pool to the `ftMinWorkers` floor by connecting a replacement slot.
#[test]
fn killing_a_workerd_mid_run_loses_zero_tasks_and_am_rebalances() {
    const TASKS: u64 = 10_000;
    const FT_FLOOR: u32 = 2;

    let (mut victim, addr_a) = spawn_workerd();
    let (mut survivor, addr_b) = spawn_workerd();

    let pool = RemotePoolBuilder::new("sleep:100", enc, dec)
        .name("healnet")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(400))
        .endpoint(Endpoint::plain(addr_a.to_string()))
        .endpoint(Endpoint::plain(addr_b.to_string()))
        .build()
        .expect("both daemons reachable");
    let ctl = pool.control();

    // The manager drives the pool exactly as it drives the threaded farm:
    // same ABC adapter, same rules, same beans.
    let mut cfg = ManagerConfig::farm("AM_NET");
    cfg.control_period = 0.005;
    cfg.extra_params.push((
        bskel_rules::stdlib::params::FT_MIN_WORKERS.to_owned(),
        f64::from(FT_FLOOR),
    ));
    let manager = AutonomicManager::new(
        cfg,
        Box::new(FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(FT_FLOOR)),
        EventLog::new(),
    )
    .with_rules(bskel_rules::stdlib::farm_rules_with_ft());
    manager.contract_slot().post(Contract::BestEffort);
    let driver = ManagerDriver::spawn(manager, Arc::new(RealClock::new()));

    let producer = {
        let tx = pool.input();
        std::thread::spawn(move || {
            for i in 0..TASKS {
                tx.send(StreamMsg::item(i, i)).unwrap();
            }
            tx.send(StreamMsg::End).unwrap();
        })
    };

    // Let the stream spread over both slots, then kill one daemon
    // process outright (SIGKILL: no goodbye, no flush).
    std::thread::sleep(Duration::from_millis(150));
    victim.kill().expect("kill daemon A");
    victim.wait().expect("reap daemon A");

    // The AM must sense the loss and restore the floor. The dead
    // endpoint is still in the endpoint list — reconnection round-robins
    // past the refused connect onto the survivor.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctl.num_workers() < FT_FLOOR as usize {
        assert!(
            Instant::now() < deadline,
            "AM never restored the pool: {} workers",
            ctl.num_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Zero loss, order preserved: the killed daemon's in-flight and
    // queued tasks were replayed onto the survivor.
    let mut got = Vec::with_capacity(TASKS as usize);
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { payload, .. } => got.push(payload),
            StreamMsg::End => break,
        }
    }
    producer.join().unwrap();
    let want: Vec<u64> = (0..TASKS).collect();
    assert_eq!(got.len(), want.len(), "tasks lost with the killed daemon");
    assert_eq!(got, want, "replay must preserve ordered gather");

    assert_eq!(pool.workers_lost(), 1);
    let lost = ctl
        .events()
        .iter()
        .filter(|e| e.kind == FarmEventKind::WorkerLost)
        .count();
    assert_eq!(lost, 1, "exactly one worker:lost event: {:?}", ctl.events());

    let manager = driver.stop();
    let sensed: u64 = manager
        .log()
        .of_kind(&EventKind::WorkerLost)
        .iter()
        .filter_map(|e| e.detail.as_deref()?.parse::<u64>().ok())
        .sum();
    assert_eq!(sensed, 1, "AM must sense the loss via workersLost");
    assert!(
        !manager.log().of_kind(&EventKind::AddWorker).is_empty(),
        "recovery must be logged as worker addition: {:?}",
        manager.log().snapshot()
    );

    let report = pool.shutdown();
    assert_eq!(report.workers_lost, 1);
    assert!(report.worker_panics.is_empty());
    survivor.kill().ok();
    survivor.wait().ok();
}

/// A mass loss is healed in one actuation: three of four slots die under
/// a floor of four, and the next control cycle recruits all three at once
/// instead of one slot per post-reconfiguration blackout.
#[test]
fn a_mass_loss_is_healed_by_one_recruitment() {
    const FT_FLOOR: u32 = 4;
    let clock = Arc::new(ManualClock::at(1.0));
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("massheal")
        .initial_workers(FT_FLOOR)
        .max_workers(8)
        .clock(clock.clone())
        .rate_window(0.2)
        // Injected kills are not endpoint faults: keep the circuit breaker
        // from quarantining the one endpoint the replacements come from.
        .breaker_threshold(1_000)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_secs(2))
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");
    let ctl = pool.control();

    let journal = Journal::shared();
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let mut cfg = ManagerConfig::farm("AM_MASS");
    cfg.extra_params.push((
        bskel_rules::stdlib::params::FT_MIN_WORKERS.to_owned(),
        f64::from(FT_FLOOR),
    ));
    let mut manager = AutonomicManager::new(
        cfg,
        Box::new(FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(FT_FLOOR)),
        log,
    )
    .with_rules(bskel_rules::stdlib::farm_rules_with_ft());
    manager.contract_slot().post(Contract::BestEffort);
    // Past the blackout the pool's initial recruitment started.
    clock.advance(0.5);
    manager.control_cycle(clock.now());

    assert_eq!(ctl.kill_workers(3), Ok(3));
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctl.workers_lost() < 3 || ctl.num_workers() != 1 {
        assert!(Instant::now() < deadline, "kill never took effect");
        std::thread::sleep(Duration::from_millis(2));
    }
    manager.control_cycle(clock.now());
    assert_eq!(ctl.num_workers(), FT_FLOOR as usize, "floor restored");

    // Through the blackout the recruitment started and past it: no
    // further add.
    for _ in 0..4 {
        clock.advance(0.1);
        manager.control_cycle(clock.now());
    }
    assert_eq!(ctl.num_workers(), FT_FLOOR as usize);
    let adds: Vec<String> = journal
        .entries()
        .into_iter()
        .filter_map(|r| match r.entry {
            JournalEntry::Actuation { op, .. } if op.starts_with("addWorkers") => Some(op),
            _ => None,
        })
        .collect();
    assert_eq!(adds, ["addWorkers(3)"]);
    // The healed pool serves.
    assert_eq!(
        feed_and_collect(&pool.input(), &pool.output(), 0..100).len(),
        100
    );
    assert_eq!(pool.shutdown().workers_lost, 3);
}

/// A peer that completes the handshake and then goes silent (socket open,
/// no heartbeat acks) is detected by the deadline sweep, and its tasks
/// are replayed onto the live slot.
#[test]
fn heartbeat_deadline_detects_silent_peer() {
    // A fake daemon: accepts, answers the Hello, then never speaks again.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let silent_addr = listener.local_addr().expect("bound");
    let _fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("pool connects");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        let hello = loop {
            match reader.next_blocking() {
                Ok(Some(f)) if f.ftype == FrameType::Hello => {
                    break decode_hello(&f.payload).expect("well-formed hello")
                }
                Ok(Some(_)) => continue,
                _ => return,
            }
        };
        let ack = HelloAck {
            ok: true,
            secure: hello.secure,
            nonce: 1,
            error: String::new(),
        };
        let mut writer = FrameWriter::new(stream.try_clone().expect("clone"));
        writer
            .send(FrameType::HelloAck, 0, &encode_hello_ack(&ack))
            .expect("ack the hello");
        // Hold the socket open, read nothing, say nothing: the pool's
        // writes succeed but the heartbeat deadline must still fire.
        std::thread::sleep(Duration::from_secs(30));
        drop(stream);
    });

    let live = spawn_local("127.0.0.1:0").expect("bind live daemon");
    let pool = double_pool(
        &[
            Endpoint::plain(silent_addr.to_string()),
            Endpoint::plain(live.to_string()),
        ],
        2,
    );
    assert_eq!(pool.num_workers(), 2);

    let got = run_stream(&pool, 1_000);
    let want: Vec<u64> = (0..1_000u64).map(|x| x * 2).collect();
    assert_eq!(got, want, "silent peer's tasks must be replayed in order");

    assert_eq!(
        pool.workers_lost(),
        1,
        "deadline must declare the peer dead"
    );
    let events = pool.control().events();
    let lost: Vec<_> = events
        .iter()
        .filter(|e| e.kind == FarmEventKind::WorkerLost)
        .collect();
    assert_eq!(lost.len(), 1);
    assert!(
        lost[0].detail.contains("heartbeat"),
        "loss must name the deadline: {:?}",
        lost[0].detail
    );

    let report = pool.shutdown();
    assert_eq!(report.workers_lost, 1);
}

/// Elasticity through the ordinary control surface: slots are added and
/// cooperatively retired mid-stream, sensors report remote beans, and no
/// task is lost across the reconfigurations.
#[test]
fn remote_elasticity_and_sensors() {
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = RemotePoolBuilder::new("spin:50", enc, dec)
        .name("elastic")
        .initial_workers(1)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(10))
        .failure_timeout(Duration::from_millis(500))
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");
    let ctl = pool.control();

    let producer = {
        let tx = pool.input();
        std::thread::spawn(move || {
            for i in 0..4_000u64 {
                tx.send(StreamMsg::item(i, i)).unwrap();
                std::thread::sleep(Duration::from_micros(50));
            }
            tx.send(StreamMsg::End).unwrap();
        })
    };

    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(ctl.add_workers(2).expect("room for 2 more"), 2);
    assert_eq!(ctl.num_workers(), 3);

    // Heartbeat acks populate RTT; task results populate service time.
    std::thread::sleep(Duration::from_millis(300));
    let snap = ctl.sense(0.5);
    assert_eq!(snap.num_workers, 3);
    assert_eq!(snap.remote_workers, 3);
    assert!(
        snap.net_rtt_ms > 0.0,
        "heartbeat acks must measure RTT: {snap:?}"
    );

    assert_eq!(ctl.remove_workers(2).expect("3 are alive"), 2);
    assert_eq!(ctl.num_workers(), 1);

    let got: Vec<u64> = pool
        .output()
        .iter()
        .take_while(|m| !matches!(m, StreamMsg::End))
        .map(|m| match m {
            StreamMsg::Item { payload, .. } => payload,
            StreamMsg::End => unreachable!(),
        })
        .collect();
    producer.join().unwrap();
    let want: Vec<u64> = (0..4_000u64).collect();
    assert_eq!(got, want, "elasticity must not lose or reorder tasks");

    assert_eq!(pool.workers_lost(), 0, "retirement is not a fault");
    let report = pool.shutdown();
    assert!(report.is_clean(), "unexpected faults: {report:?}");
}

/// A remote worker panic poisons exactly the task that caused it: the
/// daemon reports a `Lost` frame, the gather skips the hole with dense
/// renumbering, and the slot itself survives.
#[test]
fn remote_panic_poisons_only_that_task() {
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = RemotePoolBuilder::new("panic_on:13", enc, dec)
        .name("poison")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_millis(500))
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");

    let got = run_stream(&pool, 100);
    let want: Vec<u64> = (0..100u64).filter(|&x| x != 13).collect();
    assert_eq!(got, want, "exactly the poisoned task is missing");

    assert_eq!(pool.workers_lost(), 0, "a task panic is not a slot death");
    let events = pool.control().events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == FarmEventKind::WorkerPanic)
            .count(),
        1,
        "one worker:panic event: {events:?}"
    );

    let report = pool.shutdown();
    assert_eq!(report.worker_panics.len(), 1);
    assert_eq!(report.workers_lost, 0);
}

/// Runs a 10-item ordered stream through a two-slot `double` pool built
/// with the given codecs. The pool runs on a helper thread behind a 10 s
/// timeout, so a hang fails the test instead of stalling the suite.
fn run_with_codecs(
    encode: impl Fn(u64) -> Vec<u8> + Send + Sync + 'static,
    decode: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
) -> (Vec<(u64, u64)>, ShutdownReport) {
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = RemotePoolBuilder::new("double", encode, decode)
            .name("codec")
            .initial_workers(2)
            .gather(GatherPolicy::Ordered)
            .endpoint(Endpoint::plain(addr.to_string()))
            .build()
            .expect("daemon reachable");
        let tx = pool.input();
        for i in 0..10u64 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let got = collect(&pool.output());
        done_tx.send((got, pool.shutdown())).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stream and shutdown complete within 10 s")
}

/// Every `(seq, payload)` up to `End`.
fn collect(output: &Receiver<StreamMsg<u64>>) -> Vec<(u64, u64)> {
    output
        .iter()
        .map_while(|m| match m {
            StreamMsg::Item { seq, payload } => Some((seq, payload)),
            StreamMsg::End => None,
        })
        .collect()
}

/// Asserts the codec-panic outcome: the other nine items in dense order,
/// one `worker:panic` event and one `worker_panics` entry naming `why`.
fn assert_codec_panic_poisons_item_3(got: &[(u64, u64)], report: &ShutdownReport, why: &str) {
    let want: Vec<(u64, u64)> = (0..10u64)
        .filter(|&x| x != 3)
        .enumerate()
        .map(|(i, x)| (i as u64, x * 2))
        .collect();
    assert_eq!(got, want, "the other nine items, densely renumbered");
    assert_eq!(report.worker_panics.len(), 1, "{report:?}");
    assert!(report.worker_panics[0].contains(why), "{report:?}");
    let panics = report
        .events
        .iter()
        .filter(|e| e.kind == FarmEventKind::WorkerPanic)
        .count();
    assert_eq!(panics, 1, "one worker:panic event: {report:?}");
    assert_eq!(report.workers_lost, 0, "a codec panic is not a slot death");
    assert!(report.lost_undelivered.is_empty());
}

/// A panicking `encode` poisons that task only, like a panicking worker:
/// the emitter survives, the stream ends and `shutdown()` returns.
#[test]
fn encode_panic_poisons_only_that_task() {
    let (got, report) = run_with_codecs(
        |x| {
            assert!(x != 3, "encode refuses item 3");
            enc(x)
        },
        dec,
    );
    assert_codec_panic_poisons_item_3(&got, &report, "encode refuses item 3");
}

/// A panicking `decode` poisons that task only: the reactor survives,
/// the stream ends and `shutdown()` returns.
#[test]
fn decode_panic_poisons_only_that_task() {
    let (got, report) = run_with_codecs(enc, |b| {
        let v = dec(b);
        assert!(v != 6, "decode refuses the result of item 3");
        v
    });
    assert_codec_panic_poisons_item_3(&got, &report, "decode refuses the result of item 3");
}

/// `departureRate` is delivered throughput on both substrates: 100 tasks
/// with task 13 poisoned, all inside one 10 s window of a manual clock,
/// sense 99 departures.
#[test]
fn poisoned_task_is_not_a_departure_on_either_substrate() {
    const WINDOW: f64 = 10.0;
    let departures = |ctl: Arc<dyn FarmControl>, clock: &ManualClock| {
        ctl.sense(clock.now()).departure_rate * WINDOW
    };

    let clock = Arc::new(ManualClock::at(1.0));
    let farm = FarmBuilder::from_fn(|x: u64| {
        assert!(x != 13, "poisoned task");
        x
    })
    .initial_workers(2)
    .clock(clock.clone())
    .rate_window(WINDOW)
    .build();
    let got = feed_and_collect(&farm.input(), &farm.output(), 0..100);
    assert_eq!(got.len(), 99);
    let farm_departures = departures(farm.control(), &clock);
    farm.shutdown();

    let clock = Arc::new(ManualClock::at(1.0));
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = RemotePoolBuilder::new("panic_on:13", enc, dec)
        .initial_workers(2)
        .clock(clock.clone())
        .rate_window(WINDOW)
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");
    let got = feed_and_collect(&pool.input(), &pool.output(), 0..100);
    assert_eq!(got.len(), 99);
    let pool_departures = departures(pool.control(), &clock);
    pool.shutdown();

    assert!(
        (farm_departures - 99.0).abs() < 1e-9,
        "farm: {farm_departures}"
    );
    assert!(
        (pool_departures - 99.0).abs() < 1e-9,
        "pool: {pool_departures}"
    );
}

/// A control handle kept past shutdown cannot grow either substrate:
/// `add_workers` is refused and no worker appears.
#[test]
fn add_workers_after_shutdown_is_refused_on_either_substrate() {
    let refused = |who: &str, ctl: Arc<dyn FarmControl>| {
        assert!(ctl.add_workers(1).is_err(), "{who}");
        assert_eq!(ctl.num_workers(), 0, "{who}");
    };

    let farm = FarmBuilder::from_fn(|x: u64| x.wrapping_mul(2))
        .initial_workers(1)
        .max_workers(8)
        .build();
    let ctl = farm.control();
    assert_eq!(
        feed_and_collect(&farm.input(), &farm.output(), 0..10).len(),
        10
    );
    assert!(farm.shutdown().is_clean());
    refused("farm", ctl);

    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = double_pool(&[Endpoint::plain(addr.to_string())], 1);
    let ctl = pool.control();
    assert_eq!(
        feed_and_collect(&pool.input(), &pool.output(), 0..10).len(),
        10
    );
    assert!(pool.shutdown().is_clean());
    refused("pool", ctl);
}

/// Sends `items` (payload = seq) then `End`, returns what comes out.
fn feed_and_collect(
    input: &Sender<StreamMsg<u64>>,
    output: &Receiver<StreamMsg<u64>>,
    items: std::ops::Range<u64>,
) -> Vec<(u64, u64)> {
    for i in items {
        input.send(StreamMsg::item(i, i)).unwrap();
    }
    input.send(StreamMsg::End).unwrap();
    collect(output)
}

/// SplitMix64: seeded payloads without a dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams `payloads` through one substrate, making the same control
/// calls mid-stream, and checks what every substrate must report after
/// each. Returns the output stream.
fn conform(
    input: Sender<StreamMsg<u64>>,
    output: &Receiver<StreamMsg<u64>>,
    ctl: &Arc<dyn FarmControl>,
    clock: &ManualClock,
    payloads: &[u64],
) -> Vec<(u64, u64)> {
    let half = payloads.len() / 2;
    for (i, p) in payloads[..half].iter().enumerate() {
        input.send(StreamMsg::item(i as u64, *p)).unwrap();
    }

    assert_eq!(ctl.add_workers(2), Ok(2));
    assert_eq!(ctl.num_workers(), 4);
    assert!(
        ctl.sense(clock.now()).reconfiguring,
        "blacked out right after add_workers"
    );
    ctl.rebalance();
    assert_eq!(ctl.num_workers(), 4);
    assert_eq!(ctl.remove_workers(1), Ok(1));
    assert_eq!(ctl.num_workers(), 3);
    assert_eq!(ctl.kill_workers(1), Ok(1));
    // The pool runs its death path on the reactor: wait for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctl.workers_lost() < 1 || ctl.num_workers() != 2 {
        assert!(Instant::now() < deadline, "kill never took effect");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(ctl.num_workers(), 2);

    for (i, p) in payloads.iter().enumerate().skip(half) {
        input.send(StreamMsg::item(i as u64, *p)).unwrap();
    }
    input.send(StreamMsg::End).unwrap();
    let got = collect(output);

    clock.advance(1.0);
    let snap = ctl.sense(clock.now());
    assert!(
        snap.idle_for > 0.0,
        "idle once the clock passes the last arrival"
    );
    assert_eq!(snap.workers_lost, 1);
    assert_eq!(ctl.workers_lost(), 1);
    got
}

/// Both halves of a conformance run must close a clean ledger: one worker
/// lost to the injected kill and nothing else.
fn assert_clean_ledger(who: &str, report: &ShutdownReport) {
    assert_eq!(report.workers_lost, 1, "{who}: {report:?}");
    assert!(report.worker_panics.is_empty(), "{who}: {report:?}");
    assert!(report.lost_undelivered.is_empty(), "{who}: {report:?}");
    assert!(report.disconnects.is_empty(), "{who}: {report:?}");
}

/// The threaded farm and the distributed pool are one pattern: the same
/// seeded 2 000-task ordered stream under the same mid-stream actuations
/// (`add_workers(2)`, `rebalance()`, `remove_workers(1)`,
/// `kill_workers(1)`) yields the same dense output and the same sensed
/// structure on both.
#[test]
fn farm_and_pool_conform_under_the_same_actuations() {
    const TASKS: usize = 2_000;
    let mut seed = 0x5EED_F00D_u64;
    let payloads: Vec<u64> = (0..TASKS).map(|_| splitmix(&mut seed) >> 2).collect();
    let want: Vec<(u64, u64)> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.wrapping_mul(2)))
        .collect();

    let clock = Arc::new(ManualClock::at(1.0));
    let farm = FarmBuilder::from_fn(|x: u64| x.wrapping_mul(2))
        .name("conform")
        .initial_workers(2)
        .max_workers(8)
        .gather(GatherPolicy::Ordered)
        .clock(clock.clone())
        .rate_window(5.0)
        .build();
    let farm_out = conform(
        farm.input(),
        &farm.output(),
        &farm.control(),
        &clock,
        &payloads,
    );
    assert_clean_ledger("farm", &farm.shutdown());

    let clock = Arc::new(ManualClock::at(1.0));
    let addr = spawn_local("127.0.0.1:0").expect("bind daemon");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("conform")
        .initial_workers(2)
        .max_workers(8)
        .gather(GatherPolicy::Ordered)
        .clock(clock.clone())
        .rate_window(5.0)
        .heartbeat_period(Duration::from_millis(20))
        .failure_timeout(Duration::from_secs(2))
        .endpoint(Endpoint::plain(addr.to_string()))
        .build()
        .expect("daemon reachable");
    let pool_out = conform(
        pool.input(),
        &pool.output(),
        &pool.control(),
        &clock,
        &payloads,
    );
    assert_clean_ledger("pool", &pool.shutdown());

    assert_eq!(farm_out, want, "farm output");
    assert_eq!(pool_out, want, "pool output");
}

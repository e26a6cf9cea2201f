//! The isolated micro-timings of a traced run: every layer's public calls
//! timed on their own, in a child process of their own, before any load
//! starts. Each is a timing of a public function called from here; none
//! reaches inside the program.
//!
//! A timing is the median over batches of the batch's mean time per call,
//! so one preempted batch does not move it. The whole set takes about two
//! seconds.

use crate::seed::SplitMix64;
use crate::stats;
use crate::workloads::pool::{decode_echo, loopback_endpoints, Echo, Payloads};
use crate::workloads::storm;
use bskel_core::{standard_schema, Abc, Contract, EventLog};
use bskel_monitor::{
    expo, AtomicRateEstimator, Clock, Journal, RealClock, ScrapeSeries, SensorSnapshot,
};
use bskel_net::{
    encode_frame, BufferPool, Decoder, FrameType, RemotePoolBuilder, RemoteWorkerPool, SendQueue,
    Workload,
};
use bskel_rules::stdlib::{
    farm_params, farm_rules_with_ft, params, FARM_RULES_TEXT, FAULT_RULES_TEXT,
};
use bskel_rules::{parse_rules, Analyzer, RuleEngine, WorkingMemory};
use bskel_sim::ScriptedAbc;
use bskel_skel::stream::{ReorderBuffer, StreamMsg};
use bskel_skel::{FarmAbc, FarmBuilder, FarmControl, GatherPolicy};
use bskel_tenancy::{TenantFrontEnd, TenantMsg, TenantSpec};
use std::hint::black_box;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time spent on one cheap timing.
const BUDGET: Duration = Duration::from_millis(40);
/// Round trips or reconfigurations timed one by one.
const ROUNDS: usize = 400;

/// Median over batches of the mean ns per call of `f`, run in batches of
/// `batch` calls until [`BUDGET`] is spent (at least three batches).
fn per_call_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut means = Vec::new();
    while means.len() < 3 || started.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&means)
}

/// Times each call of `f` on its own, `rounds` times; the median, ns.
fn each_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

type Out = Vec<(String, f64)>;

fn put(out: &mut Out, name: &str, value: f64) {
    out.push((name.to_owned(), value));
}

/// A snapshot like the ones a loaded farm under contract produces.
fn busy_snapshot() -> SensorSnapshot {
    let mut s = SensorSnapshot::empty(1.0);
    s.arrival_rate = 1_700.0;
    s.departure_rate = 1_400.0;
    s.num_workers = 4;
    s.queue_variance = 1.5;
    s.queued_tasks = 12;
    s.service_time = 0.002;
    s.idle_for = 0.0;
    s.ft_min_workers = 4;
    s.remote_workers = 4;
    s.net_rtt_ms = 0.05;
    s
}

fn skeletons(rng: &SplitMix64, out: &mut Out) {
    let farm = FarmBuilder::from_fn(|x: u64| x)
        .name("mf")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .build();
    let (tx, rx, ctl) = (farm.input(), farm.output(), farm.control());
    let clock = RealClock::new();

    // A lone task on an idle farm: the submit call, and the round trip.
    let mut submit = Vec::with_capacity(ROUNDS);
    let mut transit = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS as u64 {
        let t = Instant::now();
        tx.send(StreamMsg::item(i, i))
            .expect("idle farm accepts a task");
        submit.push(t.elapsed().as_nanos() as f64);
        black_box(rx.recv().expect("idle farm returns the task"));
        transit.push(t.elapsed().as_nanos() as f64);
    }
    put(out, "skeletons.submit_ns", stats::median(&submit));
    put(out, "skeletons.transit_us", stats::median(&transit) / 1e3);

    put(
        out,
        "skeletons.sense_ns",
        per_call_ns(64, || drop(black_box(ctl.sense(clock.now())))),
    );
    put(
        out,
        "skeletons.rebalance_us",
        per_call_ns(64, || {
            black_box(ctl.rebalance());
        }) / 1e3,
    );
    let mut add = Vec::new();
    let mut remove = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        ctl.add_workers(1).expect("below the worker limit");
        add.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        ctl.remove_workers(1).expect("above one worker");
        remove.push(t.elapsed().as_nanos() as f64);
    }
    put(out, "skeletons.add_worker_us", stats::median(&add) / 1e3);
    put(
        out,
        "skeletons.remove_worker_us",
        stats::median(&remove) / 1e3,
    );
    tx.send(StreamMsg::End)
        .expect("farm accepts the end of its stream");
    farm.shutdown();

    // Two workers' completions interleaved: each stream ascending, the
    // pick between them seeded, the lag between them at most 32.
    let mut rng = rng.fork("reorder");
    let (mut even, mut odd) = (0u64, 1u64);
    let order: Vec<u64> = (0..4096)
        .map(|_| {
            let take_even = if even + 64 < odd {
                true
            } else if odd + 64 < even {
                false
            } else {
                rng.below(2) == 0
            };
            let next = if take_even { &mut even } else { &mut odd };
            let seq = *next;
            *next += 2;
            seq
        })
        .collect();
    let per_buffer = per_call_ns(1, || {
        let mut buf = ReorderBuffer::new();
        for &seq in &order {
            black_box(buf.push(seq, seq));
        }
    });
    put(
        out,
        "skeletons.reorder_push_ns",
        per_buffer / order.len() as f64,
    );
}

fn frames(rng: &SplitMix64, out: &mut Out) {
    for (suffix, len, batch) in [("64", 64usize, 1024usize), ("64k", 65_536, 16)] {
        let payload = rng.fork(suffix).bytes(len);
        let mut buf = Vec::with_capacity(len + 64);
        let encode = per_call_ns(batch, || {
            buf.clear();
            encode_frame(&mut buf, FrameType::Task, 7, black_box(&payload));
            black_box(&buf);
        });
        put(out, &format!("net.encode_ns_{suffix}"), encode);
        let mut decoder = Decoder::new();
        let decode = per_call_ns(batch, || {
            decoder.extend(black_box(&buf));
            black_box(
                decoder
                    .next_frame()
                    .expect("a frame this program encoded decodes"),
            );
        });
        put(out, &format!("net.decode_ns_{suffix}"), decode);
        let apply = per_call_ns(batch, || {
            drop(black_box(Workload::Echo.apply(black_box(&payload))))
        });
        put(out, &format!("net.daemon_apply_ns_{suffix}"), apply);
    }
}

/// `SendQueue::push` + `write_to` of 32-frame batches into a loopback
/// socket a `perf-drain` thread empties; ns per frame.
fn send_queue(rng: &SplitMix64, out: &mut Out) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let drain = std::thread::Builder::new()
        .name("perf-drain".into())
        .spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept the sender");
            let mut sink = vec![0u8; 1 << 16];
            while peer.read(&mut sink).is_ok_and(|n| n > 0) {}
        })
        .expect("spawn perf-drain");
    let mut stream = TcpStream::connect(addr).expect("connect to the loopback listener");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let payload = rng.fork("sendq").bytes(64);
    let mut queue = SendQueue::new();
    let mut pool = BufferPool::new(64, 4096);
    let per_batch = per_call_ns(8, || {
        for seq in 0..32 {
            let mut chunk = pool.get();
            encode_frame(&mut chunk, FrameType::Task, seq, &payload);
            queue.push(chunk, 1);
        }
        queue
            .write_to(&mut stream, &mut pool)
            .expect("loopback write");
    });
    put(out, "net.sendq_write_ns", per_batch / 32.0);
    drop(stream);
    drain.join().expect("perf-drain panicked");
}

fn echo_pool(name: &str, secure: bool) -> RemoteWorkerPool<Vec<u8>, Echo> {
    let mut builder = RemotePoolBuilder::new("echo", |p: Vec<u8>| p, decode_echo)
        .name(name)
        .initial_workers(1)
        .max_workers(2)
        .gather(GatherPolicy::Ordered)
        // Repeated connects to one endpoint are the measurement here,
        // not a fault.
        .breaker_threshold(1_000);
    for e in loopback_endpoints(2, secure) {
        builder = builder.endpoint(e);
    }
    builder.build().expect("the loopback daemons are reachable")
}

/// Median time of `add_workers(1)` (connect, handshake, slot registered), µs.
fn connect_us(ctl: &Arc<dyn FarmControl>) -> f64 {
    let mut connect = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        ctl.add_workers(1)
            .expect("a loopback endpoint accepts a slot");
        connect.push(t.elapsed().as_nanos() as f64);
        ctl.remove_workers(1).expect("two slots, one removable");
    }
    stats::median(&connect) / 1e3
}

fn pools(rng: &SplitMix64, out: &mut Out) {
    let clock = RealClock::new();
    let plain = echo_pool("mp", false);
    let ctl = plain.control();
    put(out, "net.connect_us", connect_us(&ctl));
    put(
        out,
        "net.sense_ns",
        per_call_ns(64, || drop(black_box(ctl.sense(clock.now())))),
    );
    let mut abc = FarmAbc::new(Arc::clone(&ctl)).with_ft_floor(1);
    put(
        out,
        "core.sense_us",
        per_call_ns(64, || drop(black_box(abc.sense(clock.now())))) / 1e3,
    );
    plain
        .input()
        .send(StreamMsg::End)
        .expect("pool accepts the end of its stream");
    plain.shutdown();

    let secure = echo_pool("ms", true);
    put(out, "net.connect_secure_us", connect_us(&secure.control()));
    // Enough bulk traffic for the cost meter's per-byte figure.
    let payloads = Payloads::new(&mut rng.fork("bulk"), 65_536);
    let (tx, rx) = (secure.input(), secure.output());
    for seq in 0..32 {
        tx.send(StreamMsg::item(seq, payloads.make(seq)))
            .expect("secure pool accepts a task");
        black_box(rx.recv().expect("secure pool returns the task"));
    }
    let cost = secure.cost_report();
    put(out, "net.cipher_ns_per_byte", cost.per_byte_seconds() * 1e9);
    put(out, "net.handshake_ms", cost.handshake_seconds() * 1e3);
    tx.send(StreamMsg::End)
        .expect("pool accepts the end of its stream");
    secure.shutdown();
}

fn tenancy(out: &mut Out) {
    let farm = FarmBuilder::from_fn(|x: u64| x)
        .name("mt")
        .initial_workers(2)
        .max_workers(2)
        .build();
    let front = TenantFrontEnd::over_farm(farm);
    let tenant = front
        .attach(TenantSpec::new("solo", Contract::BestEffort))
        .expect("first tenant attaches");
    let mut submit = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS as u64 {
        let t = Instant::now();
        black_box(tenant.submit(i));
        submit.push(t.elapsed().as_nanos() as f64);
        while !matches!(tenant.output().recv(), Ok(TenantMsg::Item { .. }) | Err(_)) {}
    }
    put(out, "tenancy.submit_ns", stats::median(&submit));
    put(
        out,
        "tenancy.stats_ns",
        per_call_ns(64, || drop(black_box(tenant.stats()))),
    );
    tenant.close();
    front.shutdown();
}

fn monitor_and_rules(out: &mut Out) {
    let snap = busy_snapshot();
    put(
        out,
        "monitor.to_beans_ns",
        per_call_ns(256, || drop(black_box(black_box(&snap).to_beans()))),
    );
    put(
        out,
        "monitor.bean_lookup_ns",
        per_call_ns(256, || {
            black_box(snap.bean(black_box("aimdCeiling")));
        }),
    );
    let journal = Journal::new(1024);
    put(
        out,
        "monitor.journal_snapshot_ns",
        per_call_ns(256, || journal.snapshot(1.0, "AM_M", black_box(&snap))),
    );
    put(
        out,
        "monitor.journal_event_ns",
        per_call_ns(256, || {
            journal.manager_event(1.0, "AM_M", "addWorker", Some("1"))
        }),
    );
    // The ring is full of the last kind recorded; refill it half and half.
    for i in 0..1024 {
        if i % 2 == 0 {
            journal.snapshot(1.0, "AM_M", &snap);
        } else {
            journal.manager_event(1.0, "AM_M", "addWorker", Some("1"));
        }
    }
    let jsonl = per_call_ns(4, || drop(black_box(journal.to_jsonl())));
    put(
        out,
        "monitor.jsonl_us_per_entry",
        jsonl / 1e3 / journal.len() as f64,
    );
    let series: Vec<ScrapeSeries> = (0..storm::MANAGERS)
        .map(|m| ScrapeSeries {
            tenant: "default".into(),
            manager: format!("AM_S{m}"),
            snapshot: snap.clone(),
            event_counts: Vec::new(),
        })
        .collect();
    put(
        out,
        "monitor.expo_render_us",
        per_call_ns(4, || drop(black_box(expo::render(black_box(&series))))) / 1e3,
    );
    let rate = AtomicRateEstimator::new(1.0);
    let mut t = 0.0;
    let record = per_call_ns(1024, || {
        t += 1e-6;
        rate.record(black_box(t));
    });
    put(out, "monitor.rate_record_ns", record);

    // `from_beans` consumes its input: build the inputs outside the timing.
    let mut wm_ns = Vec::new();
    let started = Instant::now();
    while wm_ns.len() < 3 || started.elapsed() < BUDGET {
        let inputs: Vec<_> = (0..256).map(|_| snap.to_beans()).collect();
        let t = Instant::now();
        for beans in inputs {
            black_box(WorkingMemory::from_beans(beans));
        }
        wm_ns.push(t.elapsed().as_nanos() as f64 / 256.0);
    }
    put(out, "rules.wm_build_ns", stats::median(&wm_ns));
    let wm = WorkingMemory::from_beans(snap.to_beans());
    let table = farm_params(1_500.0, 1e6, 1, 8, 4.0).with(params::FT_MIN_WORKERS, 4.0);
    let mut engine = RuleEngine::new(farm_rules_with_ft());
    let cycle = per_call_ns(256, || {
        drop(black_box(engine.cycle(black_box(&wm), &table)))
    });
    put(out, "rules.cycle_ns", cycle);
    put(
        out,
        "rules.firings",
        engine.firings() as f64 / engine.cycles().max(1) as f64,
    );
    let parse = per_call_ns(4, || {
        black_box(parse_rules(black_box(FARM_RULES_TEXT)).expect("farm.rules parses"));
        black_box(parse_rules(black_box(FAULT_RULES_TEXT)).expect("fault.rules parses"));
    });
    put(out, "rules.parse_us", parse / 1e3);
    let rules = farm_rules_with_ft();
    let analyzer = Analyzer::new(standard_schema());
    put(
        out,
        "rules.lint_us",
        per_call_ns(4, || drop(black_box(analyzer.analyze(&rules, None, None)))) / 1e3,
    );
}

fn control(seed: u64, out: &mut Out) {
    let inputs = storm::inputs(seed);
    let mut scripted = ScriptedAbc::new(inputs.scripts[0].clone());
    put(
        out,
        "harness.scripted_sense_ns",
        per_call_ns(storm::SCRIPT_LEN / 4, || {
            drop(black_box(scripted.sense(0.0)))
        }),
    );
    // One rules manager over its script, journal attached, as in
    // `control_storm` but alone.
    let log = EventLog::new();
    log.attach_journal(Journal::shared());
    let (mut manager, _) = storm::scripted_manager(&inputs, 0, log);
    let mut at = 0.0;
    let cycle = each_ns(storm::SCRIPT_LEN, || {
        at += 0.01;
        black_box(manager.control_cycle(at));
    });
    put(out, "core.cycle_us", cycle / 1e3);
}

/// Runs every isolated timing; inputs come from `seed`.
pub fn run(seed: u64) -> Out {
    let started = Instant::now();
    let rng = SplitMix64::new(seed).fork("micro");
    let mut out = Out::new();
    skeletons(&rng, &mut out);
    frames(&rng, &mut out);
    send_queue(&rng, &mut out);
    pools(&rng, &mut out);
    tenancy(&mut out);
    monitor_and_rules(&mut out);
    control(seed, &mut out);
    put(&mut out, "harness.micro_s", started.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_timing_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for _ in 0..n {
                    x = black_box(x.wrapping_mul(3));
                }
            }
        };
        let (small, large) = (per_call_ns(64, spin(100)), per_call_ns(64, spin(10_000)));
        assert!(large > 20.0 * small, "{small} ns vs {large} ns");
    }
}

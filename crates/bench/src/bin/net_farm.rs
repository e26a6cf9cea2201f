//! NET1 — throughput of the distributed farm substrate over loopback,
//! against the in-process threaded farm, plain vs secure channels.
//!
//! Four configurations, identical 20 µs spin workload, ordered gather:
//!
//! * **local** — the in-process threaded farm (`bskel_skel::farm`);
//! * **loopback plain** — `RemoteWorkerPool` slots on an in-process
//!   `bskel-workerd` over 127.0.0.1, clear channel;
//! * **loopback secure** — the same slots with the toy secure channel
//!   (handshake + per-byte keystream), whose cost meter yields the
//!   numbers that calibrate the simulator's `SslCostModel` (see
//!   `SslCostModel::calibrated_loopback` and EXPERIMENTS.md).
//!
//! Besides throughput each run records per-task latency (enqueue to
//! ordered delivery, so it includes queueing behind the burst producer —
//! p50/p99 over the whole stream) and the peak file-descriptor / OS
//! thread footprint of the hosting process, sampled during the drain.
//!
//! Results are printed and written to `BENCH_net_farm.json` at the
//! workspace root. `--quick` shrinks the stream for CI smoke runs.

use bskel_bench::procfs::{fd_count, thread_count};
use bskel_bench::{quantile, table};
use bskel_monitor::Journal;
use bskel_net::{spawn_local, CostReport, Endpoint, RemotePoolBuilder};
use bskel_skel::farm::{FarmBuilder, GatherPolicy};
use bskel_skel::stream::StreamMsg;
use crossbeam::channel::Receiver;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

const WORKERS: u32 = 4;
const SPIN_US: u64 = 20;
/// Wire bytes per task on this workload: one 24-byte Task frame out, one
/// 24-byte Result frame back (8-byte `u64` payload each way), amortised
/// batching overhead (heartbeats, sensor blobs) ignored.
const TASK_BYTES: f64 = 48.0;
/// Drain-side footprint sampling stride (procfs reads are not free).
const SAMPLE_EVERY: u64 = 512;

/// Process-wide ops journal shared by both loopback runs; flushed to
/// `JOURNAL_net_farm.jsonl` at the end of `main`.
fn ops_journal() -> Arc<Journal> {
    static JOURNAL: OnceLock<Arc<Journal>> = OnceLock::new();
    Arc::clone(JOURNAL.get_or_init(Journal::shared))
}

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

struct Run {
    elapsed_s: f64,
    delivered: u64,
    p50_us: f64,
    p99_us: f64,
    peak_fds: usize,
    peak_threads: usize,
}

impl Run {
    fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed_s
    }
}

/// Drains `output` until `End`, pairing each delivery with its send
/// timestamp (ordered gather: arrival order == send order) and sampling
/// the process footprint every [`SAMPLE_EVERY`] deliveries.
fn drain(output: &Receiver<StreamMsg<u64>>, sent_at: &mpsc::Receiver<Instant>, t0: Instant) -> Run {
    let mut delivered = 0u64;
    let mut latencies_us = Vec::new();
    let mut peak_fds = fd_count();
    let mut peak_threads = thread_count();
    let mut until_sample = SAMPLE_EVERY;
    for msg in output.iter() {
        match msg {
            StreamMsg::Item { .. } => {
                if let Ok(sent) = sent_at.try_recv() {
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                }
                delivered += 1;
                until_sample -= 1;
                if until_sample == 0 {
                    until_sample = SAMPLE_EVERY;
                    peak_fds = peak_fds.max(fd_count());
                    peak_threads = peak_threads.max(thread_count());
                }
            }
            StreamMsg::End => break,
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Run {
        elapsed_s,
        delivered,
        p50_us: quantile(&latencies_us, 0.50),
        p99_us: quantile(&latencies_us, 0.99),
        peak_fds,
        peak_threads,
    }
}

fn spin() {
    let t0 = Instant::now();
    while t0.elapsed().as_micros() < u128::from(SPIN_US) {
        std::hint::spin_loop();
    }
}

/// The local run, and whether its farm shut down loss-free (no worker
/// panicked, every loss notification delivered).
fn run_local(tasks: u64) -> (Run, bool) {
    let farm = FarmBuilder::from_fn(|x: u64| {
        spin();
        x
    })
    .name("net1-local")
    .initial_workers(WORKERS)
    .max_workers(WORKERS)
    .gather(GatherPolicy::Ordered)
    .build();
    let tx = farm.input();
    let (ts_tx, ts_rx) = mpsc::channel();
    let t0 = Instant::now();
    let producer = std::thread::spawn(move || {
        for i in 0..tasks {
            ts_tx.send(Instant::now()).unwrap();
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let run = drain(&farm.output(), &ts_rx, t0);
    producer.join().expect("producer");
    let report = farm.shutdown();
    let loss_free = report.worker_panics.is_empty() && report.lost_undelivered.is_empty();
    (run, loss_free)
}

fn run_remote(tasks: u64, secure: bool) -> (Run, CostReport) {
    let addr = spawn_local("127.0.0.1:0")
        .expect("bind loopback daemon")
        .to_string();
    let endpoint = if secure {
        Endpoint::secure(addr)
    } else {
        Endpoint::plain(addr)
    };
    let pool = RemotePoolBuilder::new(format!("spin:{SPIN_US}"), enc, dec)
        .name(if secure { "net1-sec" } else { "net1-plain" })
        .initial_workers(WORKERS)
        .max_workers(WORKERS)
        .gather(GatherPolicy::Ordered)
        .journal(ops_journal())
        .endpoint(endpoint)
        .build()
        .expect("loopback daemon reachable");
    // A fault-free run journals nothing on its own; mark the run so the
    // flushed artifact shows the soak happened (and stayed clean).
    ops_journal().note(
        0.0,
        if secure { "net1-sec" } else { "net1-plain" },
        &format!("loopback run starting: {tasks} tasks"),
    );
    let tx = pool.input();
    let (ts_tx, ts_rx) = mpsc::channel();
    let t0 = Instant::now();
    let producer = std::thread::spawn(move || {
        for i in 0..tasks {
            ts_tx.send(Instant::now()).unwrap();
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let run = drain(&pool.output(), &ts_rx, t0);
    producer.join().expect("producer");
    let cost = pool.cost_report();
    let report = pool.shutdown();
    assert!(
        report.is_clean(),
        "bench run must be fault-free: {report:?}"
    );
    (run, cost)
}

fn run_row(label: &str, r: &Run) -> Vec<(String, String)> {
    vec![
        (
            format!("{label}: throughput"),
            format!("{:.0} tasks/s", r.throughput()),
        ),
        (
            format!("{label}: latency"),
            format!("p50 {:.0} µs, p99 {:.0} µs", r.p50_us, r.p99_us),
        ),
        (
            format!("{label}: peak footprint"),
            format!("{} fds, {} threads", r.peak_fds, r.peak_threads),
        ),
    ]
}

/// The run's JSON fields, brace-less so callers can extend the object.
fn run_fields(r: &Run) -> String {
    format!(
        "\"elapsed_s\": {:.4}, \"throughput\": {:.1}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"peak_fds\": {}, \"peak_threads\": {}",
        r.elapsed_s,
        r.throughput(),
        r.p50_us,
        r.p99_us,
        r.peak_fds,
        r.peak_threads,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tasks: u64 = if quick { 2_000 } else { 20_000 };
    println!(
        "NET1: local vs loopback farm ({tasks} tasks, {WORKERS} workers, {SPIN_US} µs spin)\n"
    );

    let (local, local_loss_free) = run_local(tasks);
    let (plain, _) = run_remote(tasks, false);
    let (secure, cost) = run_remote(tasks, true);

    let per_byte_s = cost.per_byte_seconds();
    let handshake_s = cost.handshake_seconds();
    // The calibration the simulator consumes: per-task secure overhead in
    // seconds for this workload's wire footprint.
    let secure_per_task_s = per_byte_s * TASK_BYTES;

    let pass = local.delivered == tasks
        && local_loss_free
        && plain.delivered == tasks
        && secure.delivered == tasks;
    let mut rows = Vec::new();
    rows.extend(run_row("local", &local));
    rows.extend(run_row("loopback plain", &plain));
    rows.extend(run_row("loopback secure", &secure));
    rows.push((
        "secure: handshake".into(),
        format!(
            "{:.3} ms each ({} stretches)",
            handshake_s * 1e3,
            cost.handshakes
        ),
    ));
    rows.push((
        "secure: cipher".into(),
        format!("{:.2} ns/byte over {} bytes", per_byte_s * 1e9, cost.bytes),
    ));
    rows.push((
        "secure: per-task overhead".into(),
        format!("{:.3} µs ({TASK_BYTES:.0} B/task)", secure_per_task_s * 1e6),
    ));
    rows.push((
        "verdict".into(),
        if pass { "PASS".into() } else { "FAIL".into() },
    ));
    println!("{}", table("NET1 summary", &rows));

    let json = format!(
        "{{\n  \"bench\": \"net_farm\",\n  \"tasks\": {tasks},\n  \"quick\": {quick},\n  \
         \"workers\": {WORKERS},\n  \"spin_us\": {SPIN_US},\n  \
         \"local\": {{{}, \"loss_free\": {local_loss_free}}},\n  \
         \"loopback_plain\": {{{}}},\n  \
         \"loopback_secure\": {{{}, \
         \"handshakes\": {}, \"handshake_ms\": {:.4}, \"cipher_bytes\": {}, \
         \"per_byte_ns\": {:.3}, \"per_task_overhead_us\": {:.4}}},\n  \
         \"pass\": {pass}\n}}\n",
        run_fields(&local),
        run_fields(&plain),
        run_fields(&secure),
        cost.handshakes,
        handshake_s * 1e3,
        cost.bytes,
        per_byte_s * 1e9,
        secure_per_task_s * 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net_farm.json");
    std::fs::write(path, &json).expect("write BENCH_net_farm.json");
    println!("wrote {path}");

    let journal = ops_journal();
    let journal_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../JOURNAL_net_farm.jsonl");
    std::fs::write(journal_path, journal.to_jsonl()).expect("write JOURNAL_net_farm.jsonl");
    println!(
        "wrote {journal_path} ({} records, {} dropped)",
        journal.len(),
        journal.dropped()
    );

    if !pass {
        std::process::exit(1);
    }
}

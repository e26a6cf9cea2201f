//! NET2 — reactor fan-out scaling: per-slot cost of the single-reactor
//! distributed farm at 4 → 256 loopback daemons.
//!
//! The claim under test (DESIGN.md, `crates/net`): the pool's client
//! side costs a *constant* three threads (emitter, collector, reactor)
//! and one socket per slot no matter how many remote slots it fans out
//! to, because one epoll reactor multiplexes every connection. The old
//! thread-per-connection substrate cost ~3 OS threads per slot and fell
//! over long before 256 slots.
//!
//! For each scale `N` in {4, 16, 64, 128, 256} the bench:
//!
//! 1. samples the process footprint (fds, threads, RSS) as a baseline;
//! 2. spawns `N` in-process `bskel-workerd` daemons on 127.0.0.1 and
//!    builds a [`RemoteWorkerPool`](bskel_net::RemoteWorkerPool) with one slot on each;
//! 3. streams an `echo` workload through (substrate overhead only — no
//!    compute), recording throughput and the peak footprint;
//! 4. reports the per-slot deltas. Daemon-side costs (a listener thread
//!    plus 2 serve threads per slot) are in-process here, so total-thread
//!    counts include what would live on remote machines in a real
//!    deployment; the client-side numbers are isolated by thread-name
//!    prefix (`nsN-`).
//!
//! Gates (written into the JSON verdict): the reactor thread count is
//! the same at every scale, per-slot fd cost grows ≤1.25× from 16 to
//! 256 slots, and every run delivers its full stream loss-free.
//!
//! Results go to `BENCH_net_scale.json` at the workspace root.
//! `--quick` stops at 64 daemons for CI smoke runs.

use bskel_bench::procfs::{fd_count, rss_kb, thread_count, threads_named};
use bskel_bench::table;
use bskel_net::{raise_nofile_limit, spawn_local, Endpoint, RemotePoolBuilder};
use bskel_skel::farm::GatherPolicy;
use bskel_skel::stream::StreamMsg;
use std::time::Instant;

const SCALES: &[u32] = &[4, 16, 64, 128, 256];
const QUICK_SCALES: &[u32] = &[4, 16, 64];
/// Footprint sampling stride while draining results.
const SAMPLE_EVERY: u64 = 512;
/// Per-slot fd growth allowed from 16 to 256 slots ("flat" tolerance).
const FLATNESS_LIMIT: f64 = 1.25;

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

struct ScaleRun {
    slots: u32,
    tasks: u64,
    delivered: u64,
    elapsed_s: f64,
    reactor_threads: usize,
    client_threads: usize,
    peak_threads: usize,
    fds_base: usize,
    fds_peak: usize,
    rss_base_kb: u64,
    rss_peak_kb: u64,
}

impl ScaleRun {
    fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed_s
    }

    fn per_slot_fds(&self) -> f64 {
        self.fds_peak.saturating_sub(self.fds_base) as f64 / f64::from(self.slots)
    }

    fn per_slot_rss_kb(&self) -> f64 {
        self.rss_peak_kb.saturating_sub(self.rss_base_kb) as f64 / f64::from(self.slots)
    }
}

fn run_scale(slots: u32, tasks: u64) -> ScaleRun {
    let fds_base = fd_count();
    let rss_base_kb = rss_kb();

    let name = format!("ns{slots}");
    let mut builder = RemotePoolBuilder::new("echo", enc, dec)
        .name(&name)
        .initial_workers(slots)
        .max_workers(slots)
        .gather(GatherPolicy::Ordered);
    for _ in 0..slots {
        let addr = spawn_local("127.0.0.1:0").expect("bind loopback daemon");
        builder = builder.endpoint(Endpoint::plain(addr.to_string()));
    }
    let pool = builder.build().expect("all loopback daemons reachable");

    let mut fds_peak = fd_count();
    let mut rss_peak_kb = rss_kb();
    let mut peak_threads = thread_count();

    let tx = pool.input();
    let t0 = Instant::now();
    let producer = std::thread::spawn(move || {
        for i in 0..tasks {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let mut delivered = 0u64;
    let mut until_sample = SAMPLE_EVERY;
    // Thread names are sampled at the first few checkpoints only: right
    // after `build()` races thread start-up (a thread's `comm` is unset
    // until it first runs — guaranteed on a loaded box), by end-of-drain
    // the emitter has already exited, and scanning every task's `comm` at
    // every checkpoint would tax the very throughput being measured.
    let mut name_samples = 4u32;
    let mut reactor_threads = 0usize;
    let mut client_threads = 0usize;
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { .. } => {
                delivered += 1;
                until_sample -= 1;
                if until_sample == 0 {
                    until_sample = SAMPLE_EVERY;
                    fds_peak = fds_peak.max(fd_count());
                    rss_peak_kb = rss_peak_kb.max(rss_kb());
                    peak_threads = peak_threads.max(thread_count());
                    if name_samples > 0 {
                        name_samples -= 1;
                        reactor_threads =
                            reactor_threads.max(threads_named(&format!("{name}-reactor")));
                        client_threads = client_threads.max(threads_named(&format!("{name}-")));
                    }
                }
            }
            StreamMsg::End => break,
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    producer.join().expect("producer");
    let report = pool.shutdown();
    assert!(
        report.is_clean(),
        "scale run must be fault-free: {report:?}"
    );

    ScaleRun {
        slots,
        tasks,
        delivered,
        elapsed_s,
        reactor_threads,
        client_threads,
        peak_threads,
        fds_base,
        fds_peak,
        rss_base_kb,
        rss_peak_kb,
    }
}

fn scale_json(r: &ScaleRun) -> String {
    format!(
        "    {{\"slots\": {}, \"tasks\": {}, \"delivered\": {}, \"elapsed_s\": {:.4}, \
         \"throughput\": {:.1}, \"reactor_threads\": {}, \"client_threads\": {}, \
         \"peak_threads\": {}, \"fds_base\": {}, \"fds_peak\": {}, \"per_slot_fds\": {:.3}, \
         \"rss_base_kb\": {}, \"rss_peak_kb\": {}, \"per_slot_rss_kb\": {:.1}}}",
        r.slots,
        r.tasks,
        r.delivered,
        r.elapsed_s,
        r.throughput(),
        r.reactor_threads,
        r.client_threads,
        r.peak_threads,
        r.fds_base,
        r.fds_peak,
        r.per_slot_fds(),
        r.rss_base_kb,
        r.rss_peak_kb,
        r.per_slot_rss_kb(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scales = if quick { QUICK_SCALES } else { SCALES };
    let tasks: u64 = if quick { 2_000 } else { 20_000 };
    // 256 slots × (client socket + daemon socket + listener) plus slack:
    // well under the default hard limit, but make the soft limit explicit.
    let _ = raise_nofile_limit(8192);
    println!(
        "NET2: reactor fan-out scaling ({} tasks/scale, echo workload, scales {:?})\n",
        tasks, scales
    );

    let runs: Vec<ScaleRun> = scales.iter().map(|&n| run_scale(n, tasks)).collect();

    let mut rows = Vec::new();
    for r in &runs {
        rows.push((
            format!("{} slots", r.slots),
            format!(
                "{:.0} tasks/s, {} reactor thread(s), {} client threads, \
                 {:.2} fds/slot, {:.0} KiB/slot",
                r.throughput(),
                r.reactor_threads,
                r.client_threads,
                r.per_slot_fds(),
                r.per_slot_rss_kb(),
            ),
        ));
    }

    // Gates. Flatness compares 16 slots to the largest scale run (256,
    // or 64 under --quick).
    let reactor_constant = runs
        .iter()
        .all(|r| r.reactor_threads == runs[0].reactor_threads)
        && runs[0].reactor_threads >= 1;
    let lossless = runs.iter().all(|r| r.delivered == r.tasks);
    let at16 = runs.iter().find(|r| r.slots == 16).expect("16-slot run");
    let largest = runs.last().expect("at least one scale");
    let fd_ratio = largest.per_slot_fds() / at16.per_slot_fds();
    let rss_ratio = if at16.per_slot_rss_kb() > 0.0 {
        largest.per_slot_rss_kb() / at16.per_slot_rss_kb()
    } else {
        0.0
    };
    let flat = fd_ratio <= FLATNESS_LIMIT;
    let pass = reactor_constant && lossless && flat;

    rows.push((
        "reactor threads".into(),
        format!(
            "{} at every scale ({})",
            runs[0].reactor_threads,
            if reactor_constant {
                "constant"
            } else {
                "VARIES"
            }
        ),
    ));
    rows.push((
        format!("per-slot fds 16→{}", largest.slots),
        format!("{fd_ratio:.3}× (limit {FLATNESS_LIMIT}×)"),
    ));
    rows.push((
        format!("per-slot rss 16→{}", largest.slots),
        format!("{rss_ratio:.3}×"),
    ));
    rows.push((
        "verdict".into(),
        if pass { "PASS".into() } else { "FAIL".into() },
    ));
    println!("{}", table("NET2 summary", &rows));

    let scale_objs: Vec<String> = runs.iter().map(scale_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"net_scale\",\n  \"quick\": {quick},\n  \
         \"tasks_per_scale\": {tasks},\n  \"scales\": [\n{}\n  ],\n  \
         \"reactor_threads_constant\": {reactor_constant},\n  \
         \"per_slot_fd_ratio_16_to_largest\": {fd_ratio:.4},\n  \
         \"per_slot_rss_ratio_16_to_largest\": {rss_ratio:.4},\n  \
         \"flatness_limit\": {FLATNESS_LIMIT},\n  \"lossless\": {lossless},\n  \
         \"pass\": {pass}\n}}\n",
        scale_objs.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net_scale.json");
    std::fs::write(path, &json).expect("write BENCH_net_scale.json");
    println!("wrote {path}");
}

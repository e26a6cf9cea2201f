//! Reactor fan-out: the pool's client side costs a constant three threads
//! (emitter, collector, reactor) and a flat number of descriptors per slot,
//! however many remote slots it fans out to, because one epoll reactor
//! multiplexes every connection.
//!
//! Each scale `N` spawns `N` in-process daemons on 127.0.0.1, builds one
//! ordered `echo` pool with a slot on each, streams a workload through
//! and takes a census of this process from `/proc/self`: open fds, OS
//! threads, and the threads whose name carries the pool's prefix. The
//! daemons' own threads and sockets live in this process too, so only
//! the per-slot fd delta and the prefixed threads speak for the client.
//!
//! Only the two tests below may live in this file: a census counts every
//! descriptor of the process, so no other test may open any while they
//! run, and they take turns among themselves.

use bskel_net::{raise_nofile_limit, spawn_local, Endpoint, RemotePoolBuilder};
use bskel_skel::farm::GatherPolicy;
use bskel_skel::stream::StreamMsg;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Footprint sampling stride while draining results.
const SAMPLE_EVERY: u64 = 512;
/// Per-slot fd growth allowed from 16 slots to the largest scale.
const FLATNESS_LIMIT: f64 = 1.25;
/// The pool's client threads: emitter, collector and reactor.
const CLIENT_THREADS: usize = 3;

/// Serialises the two tests' censuses.
static CENSUS: Mutex<()> = Mutex::new(());

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// This process's entries under `/proc/self/<dir>`.
fn entries(dir: &str) -> std::fs::ReadDir {
    std::fs::read_dir(format!("/proc/self/{dir}")).expect("procfs is mounted")
}

/// Open fds, not counting the one the directory scan holds.
fn fd_count() -> usize {
    entries("fd").count() - 1
}

/// OS threads.
fn thread_count() -> usize {
    entries("task").count()
}

/// Threads whose name starts with `prefix`. The kernel keeps 15 bytes of
/// a name, so `<pool>-collector` survives only for a pool name of at
/// most five bytes.
fn threads_named(prefix: &str) -> usize {
    let named = |t: &std::fs::DirEntry| {
        std::fs::read_to_string(t.path().join("comm"))
            .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
    };
    entries("task").flatten().filter(named).count()
}

/// The prefixed thread count once two reads 10 ms apart agree.
fn settled_threads_named(prefix: &str) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = threads_named(prefix);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = threads_named(prefix);
        if now == last || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

struct ScaleRun {
    slots: u32,
    tasks: u64,
    delivered: u64,
    reactor_threads: usize,
    client_threads: usize,
    peak_threads: usize,
    fds_base: usize,
    fds_peak: usize,
}

impl ScaleRun {
    fn per_slot_fds(&self) -> f64 {
        self.fds_peak.saturating_sub(self.fds_base) as f64 / f64::from(self.slots)
    }
}

fn run_scale(slots: u32, tasks: u64) -> ScaleRun {
    let fds_base = fd_count();
    let name = format!("fo{slots}");
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
    let mut peak_threads = thread_count();

    // The input stays open until the client threads are counted: `End`
    // lets the emitter, then the collector, exit.
    let (counted_tx, counted_rx) = mpsc::channel::<()>();
    let tx = pool.input();
    let producer = std::thread::spawn(move || {
        for i in 0..tasks {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        counted_rx.recv().expect("the census ends");
        tx.send(StreamMsg::End).unwrap();
    });
    let mut delivered = 0u64;
    let mut reactor_threads = 0;
    let mut client_threads = 0;
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { .. } => {
                delivered += 1;
                if delivered == 1 {
                    // A result has crossed all three client threads, so
                    // each has started and carries its name.
                    client_threads = settled_threads_named(&format!("{name}-"));
                    reactor_threads = threads_named(&format!("{name}-reactor"));
                    counted_tx.send(()).expect("the producer waits");
                }
                if delivered.is_multiple_of(SAMPLE_EVERY) {
                    fds_peak = fds_peak.max(fd_count());
                    peak_threads = peak_threads.max(thread_count());
                }
            }
            StreamMsg::End => break,
        }
    }
    producer.join().expect("producer");
    let report = pool.shutdown();
    assert!(report.is_clean(), "{slots} slots: {report:?}");
    ScaleRun {
        slots,
        tasks,
        delivered,
        reactor_threads,
        client_threads,
        peak_threads,
        fds_base,
        fds_peak,
    }
}

/// Runs every scale in turn and asserts the fan-out gates.
fn sweep(scales: &[u32], tasks: u64) {
    let _census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    // Each slot holds a client socket, a daemon socket and a listener.
    raise_nofile_limit(8192).expect("query and raise RLIMIT_NOFILE");
    let runs: Vec<ScaleRun> = scales.iter().map(|&n| run_scale(n, tasks)).collect();
    for r in &runs {
        eprintln!(
            "{} slots: {} client threads ({} reactor), peak {} threads, \
             {:.3} fds/slot",
            r.slots,
            r.client_threads,
            r.reactor_threads,
            r.peak_threads,
            r.per_slot_fds()
        );
    }

    for r in &runs {
        assert_eq!(r.delivered, r.tasks, "{} slots: tasks lost", r.slots);
        assert_eq!(
            r.client_threads, CLIENT_THREADS,
            "{} slots: the client side is emitter, collector and reactor",
            r.slots
        );
        assert_eq!(
            r.reactor_threads, runs[0].reactor_threads,
            "{} slots: one reactor at every scale",
            r.slots
        );
    }
    assert!(runs[0].reactor_threads >= 1, "no reactor thread seen");

    let at16 = runs.iter().find(|r| r.slots == 16).expect("a 16-slot run");
    let largest = runs.last().expect("at least one scale");
    let fd_ratio = largest.per_slot_fds() / at16.per_slot_fds();
    assert!(
        fd_ratio <= FLATNESS_LIMIT,
        "per-slot fds grew {fd_ratio:.3}x from 16 to {} slots (limit {FLATNESS_LIMIT}x)",
        largest.slots
    );
}

#[test]
fn fan_out_to_64_slots_keeps_client_cost_flat() {
    sweep(&[4, 16, 64], 2_000);
}

#[test]
#[ignore = "the 256-slot run peaks at about 985 threads in this process \
            (in-process daemons included): run it on its own"]
fn fan_out_to_256_slots_keeps_client_cost_flat() {
    sweep(&[4, 16, 64, 128, 256], 20_000);
}

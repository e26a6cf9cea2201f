//! Payload copies per task on the data plane. A warm loopback
//! `RemoteWorkerPool` echo of 64 KiB payloads allocates exactly one
//! payload-sized block per task, plain or secure: the daemon's decoded
//! task frame. The daemon echoes into a result buffer its connection
//! reuses. The client moves each payload from its input stream onto the
//! wire and into the slot's in-flight map without a copy, and decodes
//! each result where it was read.
//!
//! The count comes from a global allocator that tallies blocks of exactly
//! the payload's size on every thread, the in-process daemons' included.
//! That is why this file holds a single test: another test running beside
//! it would add to the same count.

use bskel_net::{spawn_local, Endpoint, RemotePoolBuilder, RemoteWorkerPool};
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per task payload; no other block in the run has this size.
const PAYLOAD: usize = 64 * 1024;
/// Tasks run before counting: every slot connected, every decoder and
/// write buffer grown to its working size.
const WARM: u64 = 64;
/// Tasks counted.
const TASKS: u64 = 64;

/// Blocks of exactly [`PAYLOAD`] bytes allocated or reallocated so far.
static PAYLOAD_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every payload-sized block into [`PAYLOAD_BLOCKS`].
struct Counting;

fn count(size: usize) {
    if size == PAYLOAD {
        PAYLOAD_BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the blocks handed out are `System`'s and meet `GlobalAlloc`'s contract;
// `count` neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Task `id`'s payload: a fixed pattern whose first word is `id`.
fn payload(pattern: &[u8], id: u64) -> Vec<u8> {
    let mut p = pattern.to_vec();
    p[..8].copy_from_slice(&id.to_le_bytes());
    p
}

/// An echo pool over two loopback daemons. Its decode checks the echo
/// byte for byte in place and yields the task id, or `None` on a mismatch.
fn echo_pool(secure: bool, pattern: Arc<Vec<u8>>) -> RemoteWorkerPool<Vec<u8>, Option<u64>> {
    let decode = move |b: &[u8]| {
        let id = u64::from_le_bytes(b.get(..8)?.try_into().ok()?);
        (b.len() == PAYLOAD && b[8..] == pattern[8..]).then_some(id)
    };
    let mut builder = RemotePoolBuilder::new("echo", |p: Vec<u8>| p, decode)
        .name(if secure { "cs" } else { "cp" })
        .initial_workers(2)
        .max_workers(2)
        .gather(GatherPolicy::Ordered);
    for _ in 0..2 {
        let addr = spawn_local("127.0.0.1:0")
            .expect("bind a loopback daemon")
            .to_string();
        builder = builder.endpoint(if secure {
            Endpoint::secure(addr)
        } else {
            Endpoint::plain(addr)
        });
    }
    builder.build().expect("the loopback daemons are reachable")
}

/// Sends `payloads` as tasks `first..`, then receives every echo in order.
fn round(
    pool: &RemoteWorkerPool<Vec<u8>, Option<u64>>,
    first: u64,
    payloads: impl ExactSizeIterator<Item = Vec<u8>>,
) {
    let (tx, rx) = (pool.input(), pool.output());
    let n = payloads.len() as u64;
    for (seq, p) in (first..).zip(payloads) {
        tx.send(StreamMsg::item(seq, p))
            .expect("the pool accepts a task");
    }
    for seq in first..first + n {
        match rx.recv().expect("the pool returns every task") {
            StreamMsg::Item { seq: got, payload } => {
                assert_eq!((got, payload), (seq, Some(seq)), "echo of task {seq}");
            }
            StreamMsg::End => panic!("end of stream before task {seq}"),
        }
    }
}

/// Payload-sized blocks allocated while a warm pool echoes [`TASKS`] tasks.
fn payload_blocks(secure: bool) -> u64 {
    let pattern: Vec<u8> = (0..PAYLOAD).map(|i| (i * 131 % 251) as u8).collect();
    let pattern = Arc::new(pattern);
    let pool = echo_pool(secure, Arc::clone(&pattern));
    let mut payloads: Vec<Vec<u8>> = (0..WARM + TASKS).map(|id| payload(&pattern, id)).collect();
    round(&pool, 0, payloads.drain(..WARM as usize));

    let before = PAYLOAD_BLOCKS.load(Ordering::SeqCst);
    round(&pool, WARM, payloads.drain(..));
    let blocks = PAYLOAD_BLOCKS.load(Ordering::SeqCst) - before;

    pool.input()
        .send(StreamMsg::End)
        .expect("the pool accepts the end");
    assert!(matches!(pool.output().recv(), Ok(StreamMsg::End)));
    let report = pool.shutdown();
    assert!(report.is_clean(), "{report:?}");
    blocks
}

#[test]
fn a_warm_echo_allocates_one_payload_block_per_task() {
    for secure in [false, true] {
        assert_eq!(
            payload_blocks(secure),
            TASKS,
            "secure {secure}: the daemon's task frame, nothing else"
        );
    }
}

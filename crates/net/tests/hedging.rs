//! Hedged-dispatch correctness under a seeded slow-endpoint schedule.
//!
//! Topology: one endpoint behind a [`ChaosProxy`] that *delays* (never
//! drops) every frame, plus one clean endpoint. Delay-only chaos is the
//! point — without hedging every task still completes eventually, so
//! these tests isolate the hedging properties from loss recovery:
//!
//! * **first result wins, exactly once**: the ordered gather's reorder
//!   buffer panics on a duplicate sequence, so a completed soak proves
//!   the speculation-registry dedup holds for hedges too;
//! * **hedges actually launch and win** when the slow tail exceeds the
//!   rolling latency quantile;
//! * **an exhausted retry budget suppresses hedging entirely** (the
//!   always-empty `ratio: 0, min_tokens: 0` bucket) while the stream
//!   still completes via the delayed originals;
//! * **a retry budget brakes the retry storm**: with every endpoint
//!   delayed, an uncapped re-dispatch deadline amplifies load more than
//!   2×, while the same deadline or hedging under a budget stays below.

use std::time::Duration;

use bskel_net::{
    spawn_chaos_local, spawn_local, ChaosPlan, ChaosPolicy, Endpoint, RemotePoolBuilder,
    RemoteWorkerPool,
};
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// A delay-only chaos plan: a slice of the proxied endpoint's frames
/// wait `lo..=hi` ms, nothing is ever dropped or corrupted. The proxy
/// sleeps inline per delayed frame, so `p` stays well below 1.0 to keep
/// its forwarding threads from falling permanently behind the
/// heartbeat traffic.
fn slow_plan(seed: u64, p: f64, lo: u64, hi: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        policy: ChaosPolicy {
            delay_p: p,
            delay_ms: (lo, hi),
            ..ChaosPolicy::default()
        },
    }
}

/// Builds the two-endpoint pool (slow proxied + clean) with hedging at
/// the given quantile and an optional retry budget.
fn hedging_pool(
    plan: ChaosPlan,
    quantile: f64,
    budget: Option<(f64, f64)>,
) -> RemoteWorkerPool<u64, u64> {
    let seed = plan.seed;
    let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
    let clean = spawn_local("127.0.0.1:0").expect("spawn clean daemon");
    let mut b = RemotePoolBuilder::new("double", enc, dec)
        .name("hedge")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(100))
        .failure_timeout(Duration::from_secs(5))
        .hedge_quantile(quantile)
        .resilience_seed(seed)
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .endpoint(Endpoint::plain(clean.to_string()));
    if let Some((ratio, min_tokens)) = budget {
        b = b.retry_budget(ratio, min_tokens);
    }
    b.build().expect("both endpoints reachable")
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

#[test]
fn hedges_launch_win_and_never_double_emit() {
    // An aggressive quantile (0.3) sits below the slow endpoint's delay
    // band once the clean endpoint's fast deliveries fill the window, so
    // every slow-slot task in the tail gets hedged onto the clean slot.
    let pool = hedging_pool(slow_plan(0x4ED6E, 0.45, 40, 80), 0.3, None);
    let n = 300;
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got, want, "hedging lost, reordered or duplicated a task");
    let hedges = pool.hedges_launched();
    let wins = pool.hedge_wins();
    assert!(hedges > 0, "slow tail above the quantile never hedged");
    assert!(
        wins > 0,
        "a ~200ms-delayed original beat every ~1ms hedge ({hedges} hedges)"
    );
    assert!(wins <= hedges, "{wins} wins from {hedges} hedges");
    // No task deadline is configured: every duplicate must be a hedge.
    assert_eq!(
        pool.tasks_retried(),
        0,
        "speculation fired without a deadline"
    );
    let report = pool.shutdown();
    assert!(
        report.worker_panics.is_empty() && report.lost_undelivered.is_empty(),
        "delay-only chaos must not lose anything: {report:?}"
    );
}

#[test]
fn exhausted_budget_suppresses_hedging() {
    // ratio 0 / min 0 is the always-empty bucket: every discretionary
    // re-dispatch is refused. The stream still completes because delayed
    // frames are merely late, never lost.
    let pool = hedging_pool(slow_plan(0xB4D6E7, 0.4, 30, 60), 0.3, Some((0.0, 0.0)));
    let n = 150;
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got, want, "budget gating must not affect delivery");
    assert_eq!(
        pool.hedges_launched(),
        0,
        "hedged despite an exhausted retry budget"
    );
    assert_eq!(pool.hedge_wins(), 0);
    assert_eq!(
        pool.retry_budget_tokens(),
        Some(0.0),
        "the zero budget must stay empty"
    );
    pool.shutdown();
}

/// A pool re-dispatch policy under the retry-storm soak.
#[derive(Debug, Clone, Copy)]
enum Redispatch {
    /// Speculative re-dispatch after a 15 ms soft deadline, uncapped:
    /// the seed of the storm.
    Deadline,
    /// The same deadline, braked by a retry budget.
    DeadlineBudget,
    /// Quantile-triggered hedging, braked by a retry budget.
    HedgeBudget,
}

impl Redispatch {
    /// The chaos seed; each endpoint derives its own from it.
    fn seed(self) -> u64 {
        0xC0117
            + match self {
                Redispatch::Deadline => 0,
                Redispatch::DeadlineBudget => 2,
                Redispatch::HedgeBudget => 3,
            }
    }

    fn apply(self, b: RemotePoolBuilder<u64, u64>) -> RemotePoolBuilder<u64, u64> {
        let deadline = Duration::from_millis(15);
        match self {
            Redispatch::Deadline => b.task_deadline(deadline),
            Redispatch::DeadlineBudget => b.task_deadline(deadline).retry_budget(0.2, 5.0),
            Redispatch::HedgeBudget => b.hedge_quantile(0.5).retry_budget(0.2, 5.0),
        }
    }
}

/// Streams `n` tasks through four endpoints that all sit behind
/// delay-only chaos proxies (no clean escape hatch) and returns the
/// load amplification `(n + retried + hedges) / n`. Delay-only keeps
/// every frame arriving eventually, so a budget with no tokens left
/// cannot wedge the stream and the amplification is pure re-dispatch
/// policy. Without a brake, each delayed task is re-dispatched every
/// sweep and the duplicates slow the proxies further.
fn storm_amplification(policy: Redispatch, n: u64, (lo, hi): (u64, u64)) -> f64 {
    let seed = policy.seed();
    let mut b = policy.apply(
        RemotePoolBuilder::new("double", enc, dec)
            .name(format!("storm-{policy:?}"))
            .initial_workers(4)
            .max_workers(4)
            .gather(GatherPolicy::Ordered)
            .heartbeat_period(Duration::from_millis(250))
            .failure_timeout(Duration::from_secs(60))
            .resilience_seed(seed),
    );
    for i in 0..4u64 {
        let plan = slow_plan(seed ^ (0x9E37_79B9 * (i + 1)), 0.45, lo, hi);
        let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
        b = b.endpoint(Endpoint::plain(proxy.addr().to_string()));
    }
    let pool = b.build().expect("all four chaos endpoints reachable");
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got, want, "{policy:?}: lost, reordered or duplicated");
    let (retried, hedges) = (pool.tasks_retried(), pool.hedges_launched());
    assert!(
        pool.hedge_wins() <= hedges,
        "{policy:?}: more wins than hedges"
    );
    assert_eq!(
        pool.retry_budget_tokens().is_some(),
        !matches!(policy, Redispatch::Deadline),
        "{policy:?}: retry budget present iff configured"
    );
    let report = pool.shutdown();
    assert!(
        report.worker_panics.is_empty() && report.lost_undelivered.is_empty(),
        "{policy:?}: delay-only chaos must not lose anything: {report:?}"
    );
    (n + retried + hedges) as f64 / n as f64
}

/// The storm gate: the uncapped deadline amplifies load more than 2×,
/// and a retry budget holds both the deadline and hedging under 2×.
fn assert_storm_braked(n: u64, delay_ms: (u64, u64)) {
    for policy in [
        Redispatch::Deadline,
        Redispatch::DeadlineBudget,
        Redispatch::HedgeBudget,
    ] {
        let amp = storm_amplification(policy, n, delay_ms);
        eprintln!("{policy:?}, {n} tasks: amplification {amp:.2}x");
        if matches!(policy, Redispatch::Deadline) {
            assert!(amp > 2.0, "uncapped deadline did not storm: {amp:.2}x");
        } else {
            assert!(amp < 2.0, "{policy:?}: budget did not brake: {amp:.2}x");
        }
    }
}

#[test]
fn retry_budget_brakes_the_retry_storm() {
    assert_storm_braked(80, (80, 160));
}

#[test]
#[ignore = "full-size retry-storm soak: 3 x 240 tasks behind 150-300 ms delays, about 32 s"]
fn retry_budget_brakes_the_retry_storm_full() {
    assert_storm_braked(240, (150, 300));
}

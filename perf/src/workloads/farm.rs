//! `farm_fine`: the in-process farm on a task so small that the skeleton
//! itself (emitter, worker queues, collector, reorder buffer) is almost
//! all of the work.

use super::{drive_stream, Loop, Outcome, Plan, RunArgs, Shared, StreamNumbers};
use crate::check::check_shutdown;
use crate::seed::{fnv1a_word, SplitMix64};
use crate::trace;
use bskel_skel::stream::StreamMsg;
use bskel_skel::{FarmBuilder, GatherPolicy};

/// Workers (fixed: initial = max).
pub const WORKERS: u32 = 2;
/// Credit window of the closed loop.
pub const WINDOW: u64 = 4096;
/// Latency is sampled on every this-many-th task.
pub const STRIDE: u64 = 64;
/// LCG steps per task (a dependent multiply-add chain, about 50 ns).
pub const LCG_STEPS: u32 = 40;

const A: u64 = 6_364_136_223_846_793_005;
const C: u64 = 1_442_695_040_888_963_407;

/// The task: `LCG_STEPS` steps of a 64-bit LCG starting from `x`.
pub fn task(mut x: u64) -> u64 {
    for _ in 0..LCG_STEPS {
        x = std::hint::black_box(x.wrapping_mul(A).wrapping_add(C));
    }
    x
}

/// The reference: the same steps composed into one multiply-add.
fn reference() -> impl Fn(u64) -> u64 {
    let (mut a, mut c) = (1u64, 0u64);
    for _ in 0..LCG_STEPS {
        a = a.wrapping_mul(A);
        c = c.wrapping_mul(A).wrapping_add(C);
    }
    move |x| x.wrapping_mul(a).wrapping_add(c)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    // Input i is `i ^ salt`: distinct per seed, and its position is
    // recoverable from the echoed input.
    let salt = SplitMix64::new(args.seed).fork("farm_fine").next_u64();
    let mut out = Outcome {
        input_hash: fnv1a_word(0, salt),
        ..Outcome::default()
    };
    let shared = Shared::new(args.t0);

    let farm = FarmBuilder::from_fn(|x: u64| (x, task(x)))
        .name("ff")
        .initial_workers(WORKERS)
        .max_workers(WORKERS)
        .gather(GatherPolicy::Ordered)
        .build();
    let (tx, rx) = (farm.input(), farm.output());
    tx.send(StreamMsg::item(0, salt))
        .expect("farm accepts the first task");
    out.setup_s = shared.setup_s();
    if args.setup_only {
        return out;
    }

    let plan = Plan::new(args);
    let expect = reference();
    let run = drive_stream(
        &shared,
        plan,
        Loop::Closed { window: WINDOW },
        STRIDE,
        1,
        tx,
        rx,
        move |seq| seq ^ salt,
        move |&(x, y): &(u64, u64)| (x ^ salt, y == expect(x)),
        None::<()>,
        || {},
    );
    let report = farm.shutdown();

    let n = StreamNumbers::of(&run, &plan);
    out.attempted = 1 + run.gen.sent;
    out.breaches = run.breaches.clone();
    out.breaches.absorb(check_shutdown(&report, false));
    out.e2e = n.end_to_end(n.reported.share_not_stalled());
    if args.trace {
        let rec = run.rec.as_ref();
        out.spans = trace::task_spans(
            &run.gen.stamps,
            rec.map_or(&[][..], |r| &r.delivered_stamps),
        );
        let cpu = &run.coord.cpu;
        let system = cpu.system_cpu_s().max(f64::MIN_POSITIVE);
        let share = |suffix: &str| cpu.cpu_of(|t| t.ends_with(suffix)) / system;
        let switches = cpu.switches_of(|t| !crate::procfs::is_harness_thread(t));
        out.layer = n.system_layer();
        out.layer.extend([
            (
                "skeletons.submit_ns".into(),
                trace::median_ns(&out.spans, "submit"),
            ),
            ("skeletons.emitter_cpu_share".into(), share("-emitter")),
            ("skeletons.collector_cpu_share".into(), share("-collector")),
            ("skeletons.worker_cpu_share".into(), share("-worker")),
            (
                "skeletons.ctx_switches_per_task".into(),
                switches as f64 / n.reported.delivered.max(1) as f64,
            ),
            (
                "harness.trace_overhead_pct".into(),
                super::overhead_pct(n.untraced.rate_median, n.reported.rate_median, true),
            ),
            ("harness.spans".into(), out.spans.len() as f64),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_reference_equals_the_stepped_task() {
        let expect = reference();
        for x in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(task(x), expect(x));
        }
    }
}

//! The output oracle's negative tests: a sink that drops a task and one
//! that swaps two are both caught, and a caught breach fails the command.

mod common;

use bskel_perf::cli::{child_line, exit_code, RunResult};
use bskel_perf::workloads::{Loop, Outcome, StreamNumbers};
use common::{drive, forward};

const LOOP: Loop = Loop::Closed { window: 64 };

/// Runs a breaching stream's result through the same path a workload's
/// does — child line, parent merge, exit code — and returns the code.
fn command_exit_code(
    run: &bskel_perf::workloads::StreamRun<()>,
    plan: &bskel_perf::workloads::Plan,
) -> i32 {
    let n = StreamNumbers::of(run, plan);
    let out = Outcome {
        e2e: n.end_to_end(1.0),
        attempted: run.gen.sent,
        breaches: run.breaches.clone(),
        ..Outcome::default()
    };
    let result = RunResult::merge(
        "stub",
        1,
        false,
        vec![0.1],
        &[],
        &child_line("stub", &out, 1.0),
    )
    .expect("every metric reported");
    assert_eq!(result.failed, run.breaches.total());
    exit_code(Ok(result.correct))
}

#[test]
fn a_faithful_sink_is_clean() {
    let (run, plan) = drive(
        LOOP,
        1,
        Box::new(|seq, out| seq.into_iter().for_each(|s| forward(s, out))),
    );
    assert!(run.breaches.is_clean(), "{:?}", run.breaches);
    assert!(run.gen.sent > 1_000);
    assert_eq!(command_exit_code(&run, &plan), 0);
}

#[test]
fn a_sink_that_drops_a_task_is_caught() {
    let (run, plan) = drive(
        LOOP,
        1,
        Box::new(|seq, out| {
            if let Some(seq) = seq.filter(|&s| s != 500) {
                forward(seq, out);
            }
        }),
    );
    assert_eq!(run.breaches.missing, 1, "{:?}", run.breaches);
    assert_eq!(run.breaches.total(), 1);
    assert_eq!(command_exit_code(&run, &plan), 1);
}

#[test]
fn a_sink_that_swaps_two_tasks_is_caught() {
    let mut held = None;
    let (run, plan) = drive(
        LOOP,
        1,
        Box::new(move |seq, out| match seq {
            Some(500) => held = Some(500),
            Some(seq) => {
                forward(seq, out);
                if let Some(h) = held.take() {
                    forward(h, out);
                }
            }
            None => {}
        }),
    );
    assert_eq!(run.breaches.out_of_order, 1, "{:?}", run.breaches);
    assert_eq!(run.breaches.missing, 0);
    assert_eq!(command_exit_code(&run, &plan), 1);
}

#[test]
fn a_sink_that_repeats_or_corrupts_a_task_is_caught() {
    use bskel_perf::check::OrderedStream;
    let mut s = OrderedStream::new();
    s.observe(0, true);
    s.observe(0, true);
    s.observe(1, false);
    let b = s.finish(2);
    assert_eq!((b.duplicate, b.wrong, b.missing), (1, 1, 0));
}

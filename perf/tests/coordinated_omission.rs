//! Open-loop latency runs from the intended send time, so a stall is
//! charged to every task that was due during it; and a run the system
//! (or the generator) could not keep up with is reported invalid, not as
//! a number.

mod common;

use bskel_perf::load::open_loop_verdict;
use bskel_perf::workloads::{Loop, StreamNumbers};
use common::{drive, forward};
use std::time::{Duration, Instant};

const RATE: f64 = 1_000.0;

#[test]
fn a_stall_shows_on_every_task_due_during_it() {
    // The sink stops for 100 ms once task 300 (due at 0.3 s) arrives.
    let (run, plan) = drive(
        Loop::Open { rate: RATE },
        1,
        Box::new(|seq, out| {
            if let Some(seq) = seq {
                if seq == 300 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                forward(seq, out);
            }
        }),
    );
    assert!(run.breaches.is_clean(), "{:?}", run.breaches);
    let rec = run.rec.as_ref().expect("deliveries were recorded");
    let mut latencies_ms: Vec<f64> = rec.latencies_ns(0).iter().map(|ns| ns / 1e6).collect();
    assert!(latencies_ms.len() >= 990, "{} samples", latencies_ms.len());
    latencies_ms.sort_by(|a, b| b.total_cmp(a));
    // Task 300 + k was due k ms into the stall and waited out the rest:
    // the k-th largest latency is about 100 − k ms. Measured from the
    // actual send instead, one task would show the stall and 99 would not.
    for k in [0usize, 25, 50, 75, 90] {
        let expect = 100.0 - k as f64;
        assert!(
            (latencies_ms[k] - expect).abs() < 8.0,
            "the {k}-th largest latency is {} ms, expected about {expect} ms",
            latencies_ms[k]
        );
    }
    assert!(
        latencies_ms[150] < 10.0,
        "tasks due after the stall are unaffected: {} ms",
        latencies_ms[150]
    );
    let n = StreamNumbers::of(&run, &plan);
    assert!(
        n.reported.p99w_us > 80_000.0,
        "window p99 {} us hides the stall",
        n.reported.p99w_us
    );
}

#[test]
fn an_over_capacity_rate_is_invalid_not_a_number() {
    // The sink serves one task per 2 ms: half the offered rate.
    let started = Instant::now();
    let mut served = 0u32;
    let (run, plan) = drive(
        Loop::Open { rate: RATE },
        1,
        Box::new(move |seq, out| {
            if let Some(seq) = seq {
                served += 1;
                let due = started + Duration::from_millis(2) * served;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                forward(seq, out);
            }
        }),
    );
    assert!(
        run.breaches.is_clean(),
        "every task still arrives, late: {:?}",
        run.breaches
    );
    let n = StreamNumbers::of(&run, &plan);
    let offered = (RATE * n.reported.rates.len() as f64) as u64;
    let verdict = open_loop_verdict(
        n.gen_lateness_p50_us * 1e3,
        1e9 / RATE,
        offered,
        n.reported.delivered,
    );
    assert!(
        verdict
            .as_deref()
            .is_some_and(|v| v.contains("backlog grew")),
        "{verdict:?}"
    );
}

#[test]
fn a_late_generator_is_invalid_and_a_clean_run_is_not() {
    let gap_ns = 1e9 / RATE;
    assert!(open_loop_verdict(0.2 * gap_ns, gap_ns, 1_000, 1_000)
        .is_some_and(|v| v.contains("generator late")));
    assert_eq!(open_loop_verdict(0.05 * gap_ns, gap_ns, 1_000, 990), None);
}

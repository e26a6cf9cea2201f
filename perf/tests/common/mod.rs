//! A stand-in for the system under test: one thread that relays an
//! ordered stream, misbehaving the way a test asks it to.

use bskel_perf::workloads::{drive_stream, Loop, Plan, Shared, StreamRun};
use bskel_skel::stream::StreamMsg;
use crossbeam::channel::{unbounded, Sender};
use std::time::Instant;

/// What the relay does with each task: it gets the task's position and
/// the output side, and forwards (or not) as it sees fit. Called with
/// `None` once the stream has ended, before `End` is forwarded.
pub type Behaviour = Box<dyn FnMut(Option<u64>, &Sender<StreamMsg<u64>>) + Send>;

/// Drives a stream of `u64` tasks (payload = position) through a relay
/// thread with `behaviour`, for `seconds` measured seconds and no warm-up.
pub fn drive(mode: Loop, seconds: u64, mut behaviour: Behaviour) -> (StreamRun<()>, Plan) {
    let (tx_in, rx_in) = unbounded::<StreamMsg<u64>>();
    let (tx_out, rx_out) = unbounded::<StreamMsg<u64>>();
    let relay = std::thread::spawn(move || {
        for msg in rx_in.iter() {
            match msg {
                StreamMsg::Item { payload, .. } => behaviour(Some(payload), &tx_out),
                StreamMsg::End => {
                    behaviour(None, &tx_out);
                    let _ = tx_out.send(StreamMsg::End);
                    return;
                }
            }
        }
    });
    let plan = Plan {
        warmup_ns: 0,
        seconds,
        trace: false,
    };
    let shared = Shared::new(Instant::now());
    let run = drive_stream(
        &shared,
        plan,
        mode,
        1,
        0,
        tx_in,
        rx_out,
        |seq| seq,
        |&payload: &u64| (payload, true),
        None::<()>,
        || {},
    );
    relay.join().expect("relay panicked");
    (run, plan)
}

/// Forwards task `seq` unchanged.
pub fn forward(seq: u64, out: &Sender<StreamMsg<u64>>) {
    let _ = out.send(StreamMsg::item(seq, seq));
}

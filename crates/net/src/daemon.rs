//! The `bskel-workerd` daemon: hosts remote worker slots.
//!
//! Each accepted connection is one worker slot, served by its own thread:
//!
//! 1. **Handshake** (in clear): the client's `Hello` names the workload
//!    the slot should run and whether the channel is secured; the daemon
//!    answers `HelloAck` and, in secure mode, both sides derive session
//!    keys and cipher everything from the next byte on.
//! 2. **Serve loop**: tasks queue in a pending deque. An idle slot
//!    sleeps on the socket; when it wakes, it decodes every frame the
//!    read brought in, without a further syscall — that is one *wire
//!    batch*, usually one pool write. Heartbeats in the batch are
//!    answered there, before any task runs. Between tasks the daemon
//!    drains the socket with `recv` calls that cannot block (the socket
//!    itself stays blocking, so the writer never sees `WouldBlock`), but
//!    only once `LONG_TASK` has passed since it last read: a batch of
//!    short tasks runs straight out of the decode buffer, sleep-bound
//!    tasks still drain before every task, and a heartbeat that arrives
//!    mid-batch waits for `LONG_TASK` plus one task at most. A
//!    **busy-pulse sidecar thread** emits unsolicited `Heartbeat` frames
//!    *while a task is executing* — any frame refreshes the pool's
//!    liveness deadline, so a legitimately long task no longer reads as
//!    a dead slot and the pool's failure timeout can be chosen
//!    independently of worst-case service time. Results are buffered
//!    and flushed in one write when the last task of the wire batch has
//!    run or `FLUSH_EVERY` results wait, each write trailed by a
//!    `Sensors` frame carrying daemon-measured service time, queue
//!    depth, and the completed-task count. Tasks that the between-task drain brings in form the next
//!    batch, so a result never waits for work that arrived after it. A
//!    task that ran longer than a write costs (`LONG_TASK`) is flushed
//!    before the next one starts, so a finished result never waits
//!    behind a slow task.
//! 3. **Failure semantics**: a panicking workload poisons only its own
//!    task — the panic is caught and a `Lost` frame tells the pool that
//!    `seq` will never produce a result. `Goodbye` drains the pending
//!    queue, flushes, and closes.
//!
//! The daemon is workload-agnostic at deploy time: it hosts the small
//! registry in [`Workload`] and the client picks per connection.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bskel_monitor::Welford;
use parking_lot::Mutex;

use crate::proto::{
    decode_hello, encode_hello_ack, encode_sensors, Frame, FrameType, HelloAck, SensorBlob,
};
use crate::secure::{derive_session_keys, CostMeter, StreamCipher};
use crate::wire::{FillStatus, FrameReader, FrameWriter};

/// Results buffered before a flush forces them onto the wire.
const FLUSH_EVERY: usize = 32;
/// A task that ran at least this long has its result flushed before the
/// next task starts: a result held back behind a slow task would wait far
/// longer than the write it saves costs.
const LONG_TASK: Duration = Duration::from_micros(50);
/// Period of the busy pulse: how often the sidecar thread proves
/// liveness while a task is executing. Must sit well under any sane
/// pool failure timeout.
const BUSY_PULSE_PERIOD: Duration = Duration::from_millis(20);

/// The computations a worker slot can host, named on the wire in `Hello`
/// (see [`Workload::parse`] for the syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Returns the payload unchanged.
    Echo,
    /// Reads a little-endian `u64` from the payload head and returns its
    /// double, little-endian.
    DoubleU64,
    /// Busy-spins for the given number of microseconds, then echoes.
    SpinUs(u64),
    /// Sleeps for the given number of microseconds, then echoes.
    SleepUs(u64),
    /// Panics when the payload's leading `u64` equals the trigger value,
    /// echoes otherwise — exercises the `Lost`-frame path.
    PanicOn(u64),
}

impl Workload {
    /// Parses the wire name: `echo`, `double`, `spin:N`, `sleep:N`,
    /// `panic_on:N` (N in microseconds for spin/sleep).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "echo" => return Some(Workload::Echo),
            "double" => return Some(Workload::DoubleU64),
            _ => {}
        }
        let (name, arg) = s.split_once(':')?;
        let n: u64 = arg.parse().ok()?;
        match name {
            "spin" => Some(Workload::SpinUs(n)),
            "sleep" => Some(Workload::SleepUs(n)),
            "panic_on" => Some(Workload::PanicOn(n)),
            _ => None,
        }
    }

    fn lead_u64(input: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        let n = input.len().min(8);
        b[..n].copy_from_slice(&input[..n]);
        u64::from_le_bytes(b)
    }

    /// Runs the workload over one task payload.
    pub fn apply(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.apply_into(input, &mut out);
        out
    }

    /// Runs the workload over one task payload, appending the result to
    /// `out`, so a connection can reuse one result buffer for every task.
    fn apply_into(&self, input: &[u8], out: &mut Vec<u8>) {
        match *self {
            Workload::Echo => out.extend_from_slice(input),
            Workload::DoubleU64 => {
                let x = Self::lead_u64(input);
                out.extend_from_slice(&x.wrapping_mul(2).to_le_bytes());
            }
            Workload::SpinUs(us) => {
                let t0 = Instant::now();
                while t0.elapsed().as_micros() < u128::from(us) {
                    std::hint::spin_loop();
                }
                out.extend_from_slice(input);
            }
            Workload::SleepUs(us) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                out.extend_from_slice(input);
            }
            Workload::PanicOn(trigger) => {
                let x = Self::lead_u64(input);
                assert!(x != trigger, "workload trigger value {trigger} hit");
                out.extend_from_slice(input);
            }
        }
    }
}

struct Conn {
    reader: FrameReader,
    /// Shared with the busy-pulse sidecar: the mutex serialises frame
    /// writes (the cipher keystream is order-dependent and frames must
    /// not interleave), exactly like the pool's per-slot writer lock.
    writer: Arc<Mutex<FrameWriter>>,
    workload: Workload,
    /// True while a task executes; the sidecar pulses only then.
    busy: Arc<AtomicBool>,
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Every task's result is written here, so a warm connection
    /// allocates no result block per task.
    result: Vec<u8>,
    service: Welford,
    done: u64,
    finishing: bool,
    unflushed: usize,
    /// Tasks of the current wire batch not yet run: the front of
    /// `pending`. Its results go out together when it reaches 0; tasks
    /// that the between-task drain brings in form the next batch.
    batch_left: usize,
}

impl Conn {
    fn new(
        reader: FrameReader,
        writer: Arc<Mutex<FrameWriter>>,
        workload: Workload,
        busy: Arc<AtomicBool>,
    ) -> Self {
        Self {
            reader,
            writer,
            workload,
            busy,
            pending: VecDeque::new(),
            result: Vec::new(),
            service: Welford::new(),
            done: 0,
            finishing: false,
            unflushed: 0,
            batch_left: 0,
        }
    }

    fn sensor_blob(&self) -> Vec<u8> {
        encode_sensors(&SensorBlob {
            service: self.service,
            queue_depth: self.pending.len() as u32,
            done: self.done,
        })
    }

    fn handle_frame(&mut self, f: Frame) -> std::io::Result<()> {
        match f.ftype {
            FrameType::Task => self.pending.push_back((f.seq, f.payload)),
            FrameType::Heartbeat => {
                // Answer immediately — liveness must not wait for the
                // result batch to fill up.
                let blob = self.sensor_blob();
                let mut w = self.writer.lock();
                w.push(FrameType::HeartbeatAck, f.seq, &blob);
                w.flush()?;
            }
            FrameType::Goodbye => self.finishing = true,
            // A slot never receives the daemon-to-client or handshake
            // frame types mid-stream; drop them rather than die.
            _ => {}
        }
        Ok(())
    }

    /// Flushes buffered results, trailed by a fresh sensor reading.
    fn flush_results(&mut self) -> std::io::Result<()> {
        if self.unflushed == 0 {
            return self.writer.lock().flush();
        }
        let blob = self.sensor_blob();
        let mut w = self.writer.lock();
        w.push(FrameType::Sensors, 0, &blob);
        self.unflushed = 0;
        w.flush()
    }

    /// Handles every frame already in the decode buffer, without a
    /// syscall.
    fn decode_buffered(&mut self) -> std::io::Result<()> {
        loop {
            match self.reader.try_next() {
                Ok(Some(f)) => self.handle_frame(f)?,
                Ok(None) => return Ok(()),
                Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
            }
        }
    }

    /// Drains every frame currently available, one `recv` that cannot
    /// block at a time; the socket itself stays blocking. Returns `true`
    /// on EOF.
    fn drain_nonblocking(&mut self) -> std::io::Result<bool> {
        loop {
            self.decode_buffered()?;
            match self.reader.fill_nowait()? {
                FillStatus::Bytes => {}
                FillStatus::WouldBlock => return Ok(false),
                FillStatus::Eof => return Ok(true),
            }
        }
    }

    fn serve(&mut self) -> std::io::Result<()> {
        let mut last_read = Instant::now();
        loop {
            let eof = if self.pending.is_empty() && !self.finishing {
                // Idle: push out whatever is buffered, then sleep on the
                // socket until the client speaks, and take in the rest of
                // the batch its write carried.
                self.flush_results()?;
                let next = self.reader.next_blocking()?;
                last_read = Instant::now();
                match next {
                    None => true,
                    Some(f) => {
                        self.handle_frame(f)?;
                        self.decode_buffered()?;
                        self.batch_left = self.pending.len();
                        false
                    }
                }
            } else if last_read.elapsed() >= LONG_TASK {
                // Between tasks, look at the socket only once a frame
                // could have waited there about as long as a write costs:
                // a batch of short tasks runs straight out of the decode
                // buffer, and a heartbeat waits `LONG_TASK` plus one task
                // at most.
                let eof = self.drain_nonblocking()?;
                last_read = Instant::now();
                eof
            } else {
                false
            };

            if let Some((seq, bytes)) = self.pending.pop_front() {
                let t0 = Instant::now();
                // The busy window is what the pulse sidecar watches: a
                // long-running task keeps proving liveness from there.
                self.busy.store(true, Ordering::SeqCst);
                // Cleared first, so a task that panics leaves no bytes behind.
                self.result.clear();
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    self.workload.apply_into(&bytes, &mut self.result)
                }));
                self.busy.store(false, Ordering::SeqCst);
                let ran_for = t0.elapsed();
                match ran {
                    Ok(()) => {
                        self.service.update(ran_for.as_secs_f64());
                        self.done += 1;
                        self.writer
                            .lock()
                            .push(FrameType::Result, seq, &self.result);
                    }
                    Err(_) => self.writer.lock().push(FrameType::Lost, seq, &[]),
                }
                self.unflushed += 1;
                self.batch_left = self.batch_left.saturating_sub(1);
                if self.batch_left == 0 {
                    self.batch_left = self.pending.len();
                    self.flush_results()?;
                } else if self.unflushed >= FLUSH_EVERY || ran_for >= LONG_TASK {
                    self.flush_results()?;
                }
            }

            if eof {
                return Ok(());
            }
            if self.finishing && self.pending.is_empty() {
                self.flush_results()?;
                self.writer.lock().send(FrameType::Goodbye, 0, &[])?;
                return Ok(());
            }
        }
    }
}

/// Serves one accepted connection: handshake, then the slot loop.
fn handle_conn(stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = FrameWriter::new(stream.try_clone()?);

    let refuse = |writer: &mut FrameWriter, error: String| {
        let ack = HelloAck {
            ok: false,
            secure: false,
            nonce: 0,
            error,
        };
        writer.send(FrameType::HelloAck, 0, &encode_hello_ack(&ack))
    };
    let hello = match reader.next_blocking()? {
        Some(f) if f.ftype == FrameType::Hello => decode_hello(&f.payload),
        _ => None,
    };
    let Some(hello) = hello else {
        return refuse(&mut writer, "expected a Hello frame first".into());
    };
    let Some(workload) = Workload::parse(&hello.workload) else {
        return refuse(
            &mut writer,
            format!("unknown workload {:?}", hello.workload),
        );
    };
    if hello.secure && reader.buffered() > 0 {
        // Bytes pipelined behind a secure Hello were sent in the clear but
        // would be deciphered as keystream, i.e. silently skipped as
        // garbage. Refuse, as the client refuses a residue behind the ack.
        return refuse(&mut writer, "cleartext residue after a secure Hello".into());
    }

    // Not a secret: the nonce only varies the toy session keys per
    // connection (see crate::secure for why that is fine here).
    let server_nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED)
        ^ (std::process::id() as u64) << 32;
    writer.send(
        FrameType::HelloAck,
        0,
        &encode_hello_ack(&HelloAck {
            ok: true,
            secure: hello.secure,
            nonce: server_nonce,
            error: String::new(),
        }),
    )?;
    if hello.secure {
        let meter = Arc::new(CostMeter::new());
        let (c2s, s2c) = meter.time_handshake(|| derive_session_keys(hello.nonce, server_nonce));
        reader.secure(StreamCipher::new(c2s), Arc::clone(&meter));
        writer.secure(StreamCipher::new(s2c), meter);
    }

    let writer = Arc::new(Mutex::new(writer));
    let busy = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    // Busy-pulse sidecar: while the serve thread is inside a workload,
    // nobody drains the socket or answers heartbeats — historically a
    // task longer than the pool's failure timeout read as a dead slot
    // and got its connection severed mid-computation. The sidecar sends
    // unsolicited `Heartbeat` frames (seq 0, ignored by the pool's
    // frame handler beyond the liveness touch) for the duration of the
    // busy window, so silence once again implies death.
    let pulse = {
        let writer = Arc::clone(&writer);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("bskel-workerd-pulse".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if busy.load(Ordering::SeqCst)
                        && writer.lock().send(FrameType::Heartbeat, 0, &[]).is_err()
                    {
                        // The connection is going away; the serve thread
                        // finds out on its own. Stop pulsing the dead
                        // socket instead of spinning until the workload
                        // finishes.
                        break;
                    }
                    std::thread::sleep(BUSY_PULSE_PERIOD);
                }
            })?
    };

    let mut conn = Conn::new(reader, writer, workload, busy);
    let served = conn.serve();
    stop.store(true, Ordering::SeqCst);
    let pulsed = pulse
        .join()
        .map_err(|_| std::io::Error::other("the busy-pulse thread panicked"));
    served.and(pulsed)
}

/// The stderr line for a slot that ended with `res`, if it is worth one.
/// A peer that hung up is the pool's business (it sees the EOF or misses
/// a heartbeat), so the disconnect kinds stay quiet.
fn slot_failure(peer: &str, res: std::io::Result<()>) -> Option<String> {
    use std::io::ErrorKind::*;
    let e = res.err()?;
    match e.kind() {
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => None,
        _ => Some(format!("bskel-workerd: slot {peer}: {e}")),
    }
}

/// Accept loop: one thread per connection, forever. A slot's failure
/// other than a disconnect, a failed accept and a failed thread spawn
/// are reported on stderr; each costs at most its own connection.
pub fn serve(listener: TcpListener) {
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("bskel-workerd: accept: {e}");
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "?".to_string(), |a| a.to_string());
        let slot_peer = peer.clone();
        let spawned = std::thread::Builder::new()
            .name("bskel-workerd-slot".into())
            .spawn(move || {
                if let Some(line) = slot_failure(&slot_peer, handle_conn(stream)) {
                    eprintln!("{line}");
                }
            });
        if let Err(e) = spawned {
            eprintln!("bskel-workerd: slot {peer}: cannot spawn its thread: {e}");
        }
    }
}

/// Starts an in-process daemon on `addr` (use port 0 for an ephemeral
/// port) and returns the bound address. The accept loop runs on a
/// detached thread for the life of the process — intended for tests and
/// benches that want a loopback daemon without a child process.
pub fn spawn_local(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("bskel-workerd-local".into())
        .spawn(move || serve(listener))?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parse() {
        assert_eq!(Workload::parse("echo"), Some(Workload::Echo));
        assert_eq!(Workload::parse("double"), Some(Workload::DoubleU64));
        assert_eq!(Workload::parse("spin:250"), Some(Workload::SpinUs(250)));
        assert_eq!(Workload::parse("sleep:10"), Some(Workload::SleepUs(10)));
        assert_eq!(Workload::parse("panic_on:7"), Some(Workload::PanicOn(7)));
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::parse("spin:abc"), None);
    }

    #[test]
    fn workload_apply() {
        assert_eq!(Workload::Echo.apply(b"xyz"), b"xyz");
        assert_eq!(
            Workload::DoubleU64.apply(&21u64.to_le_bytes()),
            42u64.to_le_bytes()
        );
        assert_eq!(
            Workload::PanicOn(7).apply(&8u64.to_le_bytes()),
            8u64.to_le_bytes()
        );
        assert!(catch_unwind(|| Workload::PanicOn(7).apply(&7u64.to_le_bytes())).is_err());
    }

    /// Writes a `Hello` for `workload` and then `frames`, all in one
    /// write, and reads the ack. The reader is returned for whatever the
    /// daemon sends after it.
    fn pipelined_hello(
        secure: bool,
        workload: &str,
        frames: &[(FrameType, u64, &[u8])],
    ) -> (HelloAck, FrameReader) {
        use crate::proto::{decode_hello_ack, encode_frame, encode_hello, Hello};
        use std::io::Write;

        let addr = spawn_local("127.0.0.1:0").expect("bind a loopback daemon");
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        let hello = Hello {
            secure,
            nonce: 7,
            workload: workload.into(),
        };
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, FrameType::Hello, 0, &encode_hello(&hello));
        for &(ftype, seq, payload) in frames {
            encode_frame(&mut bytes, ftype, seq, payload);
        }
        (&stream).write_all(&bytes).expect("one write");
        let mut reader = FrameReader::new(stream);
        let ack = reader
            .next_blocking()
            .expect("the daemon answers")
            .expect("a frame before close");
        assert_eq!(ack.ftype, FrameType::HelloAck);
        let ack = decode_hello_ack(&ack.payload).expect("a well-formed HelloAck");
        (ack, reader)
    }

    const ONE_TASK: &[(FrameType, u64, &[u8])] = &[(FrameType::Task, 1, b"pipelined")];

    #[test]
    fn a_task_pipelined_behind_a_secure_hello_is_refused() {
        let (ack, _) = pipelined_hello(true, "echo", ONE_TASK);
        assert!(!ack.ok, "{ack:?}");
        assert!(ack.error.contains("cleartext residue"), "{ack:?}");
    }

    #[test]
    fn a_task_pipelined_behind_a_plain_hello_is_served() {
        let (ack, mut reader) = pipelined_hello(false, "echo", ONE_TASK);
        assert!(ack.ok, "{ack:?}");
        let result = reader
            .next_blocking()
            .expect("the daemon answers")
            .expect("the echo comes back");
        assert_eq!(
            (result.ftype, result.seq, &result.payload[..]),
            (FrameType::Result, 1, &b"pipelined"[..])
        );
    }

    /// Sends `tasks` tasks and a `Goodbye` behind a `Hello` in one write,
    /// and returns the seqs of the results in arrival order and the number
    /// of `Sensors` frames, read up to the daemon's `Goodbye`. Busy-pulse
    /// heartbeats may interleave, so they are not counted.
    fn one_batch(workload: &str, tasks: u64) -> (Vec<u64>, usize) {
        let mut frames: Vec<(FrameType, u64, &[u8])> = (1..=tasks)
            .map(|seq| (FrameType::Task, seq, &b"batch"[..]))
            .collect();
        frames.push((FrameType::Goodbye, 0, &[]));
        let (ack, mut reader) = pipelined_hello(false, workload, &frames);
        assert!(ack.ok, "{ack:?}");
        let (mut results, mut sensors) = (Vec::new(), 0);
        loop {
            let f = reader
                .next_blocking()
                .expect("the daemon answers")
                .expect("a Goodbye before close");
            match f.ftype {
                FrameType::Result => results.push(f.seq),
                FrameType::Sensors => sensors += 1,
                FrameType::Goodbye => return (results, sensors),
                _ => {}
            }
        }
    }

    #[test]
    fn a_batch_of_short_tasks_goes_back_in_one_write() {
        let (results, sensors) = one_batch("echo", 8);
        assert_eq!(results, (1..=8).collect::<Vec<_>>());
        assert_eq!(sensors, 1, "one Sensors frame trails the whole batch");
    }

    #[test]
    fn a_long_task_is_flushed_before_the_next_starts() {
        let (results, sensors) = one_batch("sleep:1000", 2);
        assert_eq!(results, [1, 2]);
        assert_eq!(sensors, 2, "each result of a long task is flushed alone");
    }

    #[test]
    fn a_batch_of_echoes_runs_on_at_most_two_socket_reads() {
        use crate::proto::encode_frame;
        use std::io::Write;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let mut bytes = Vec::new();
        for seq in 1..=8 {
            encode_frame(&mut bytes, FrameType::Task, seq, b"echo me");
        }
        encode_frame(&mut bytes, FrameType::Goodbye, 0, &[]);
        (&client).write_all(&bytes).expect("one write");

        let writer = FrameWriter::new(server.try_clone().expect("clone"));
        let mut conn = Conn::new(
            FrameReader::new(server),
            Arc::new(Mutex::new(writer)),
            Workload::Echo,
            Arc::new(AtomicBool::new(false)),
        );
        conn.serve().expect("a clean batch");

        let mut reader = FrameReader::new(client);
        let mut results = Vec::new();
        loop {
            let f = reader.next_blocking().expect("the daemon answers");
            match f.expect("a Goodbye before close") {
                f if f.ftype == FrameType::Result => results.push((f.seq, f.payload)),
                f if f.ftype == FrameType::Goodbye => break,
                _ => {}
            }
        }
        let want: Vec<_> = (1..=8).map(|seq| (seq, b"echo me".to_vec())).collect();
        assert_eq!(results, want);
        // The blocking read that takes the batch in, and at most one
        // drain should the batch outlast `LONG_TASK` on a busy host.
        assert!(conn.reader.reads <= 2, "{} reads", conn.reader.reads);
    }

    #[test]
    fn a_heartbeat_behind_long_tasks_is_answered_before_the_batch_ends() {
        let tasks: Vec<(FrameType, u64, &[u8])> = (1..=4)
            .map(|seq| (FrameType::Task, seq, &b"slow"[..]))
            .collect();
        let (ack, mut reader) = pipelined_hello(false, "sleep:1000", &tasks);
        assert!(ack.ok, "{ack:?}");
        let mut heartbeat = FrameWriter::new(reader.stream().try_clone().expect("clone"));
        let mut order = Vec::new();
        while !order.contains(&(FrameType::Result, 4)) {
            let f = reader
                .next_blocking()
                .expect("the daemon answers")
                .expect("a frame before close");
            if f.ftype == FrameType::Result && f.seq == 1 {
                // About 1 ms in: the heartbeat lands while task 2 runs.
                heartbeat
                    .send(FrameType::Heartbeat, 99, &[])
                    .expect("the daemon is open");
            }
            order.push((f.ftype, f.seq));
        }
        let acked = order
            .iter()
            .position(|&f| f == (FrameType::HeartbeatAck, 99));
        assert!(
            acked.is_some_and(|i| i < order.len() - 1),
            "the ack must precede the 4th result: {order:?}"
        );
    }

    #[test]
    fn only_failures_other_than_a_disconnect_are_reported() {
        use std::io::{Error, ErrorKind};

        assert_eq!(slot_failure("p", Ok(())), None);
        for kind in [
            ErrorKind::UnexpectedEof,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
        ] {
            assert_eq!(slot_failure("p", Err(Error::from(kind))), None, "{kind:?}");
        }
        assert_eq!(
            slot_failure(
                "127.0.0.1:9",
                Err(Error::other("the busy-pulse thread panicked"))
            ),
            Some("bskel-workerd: slot 127.0.0.1:9: the busy-pulse thread panicked".into())
        );
        assert!(slot_failure("p", Err(Error::from(ErrorKind::InvalidData))).is_some());
        assert!(slot_failure("p", Err(Error::from(ErrorKind::WouldBlock))).is_some());
    }
}

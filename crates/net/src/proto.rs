//! The `bskel_net` wire protocol: dependency-free, length-prefixed binary
//! frames.
//!
//! Every message between a [`crate::pool::RemoteWorkerPool`] and a
//! `bskel-workerd` daemon is one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     2  magic      0xB5E7, little-endian (resynchronisation mark)
//!      2     1  version    protocol version (currently 1)
//!      3     1  frame type (see FrameType)
//!      4     8  seq        u64 LE — task sequence number / heartbeat id
//!     12     4  len        u32 LE — payload length, <= MAX_PAYLOAD
//!     16   len  payload
//! ```
//!
//! The [`Decoder`] is incremental and tolerant by design:
//!
//! * **partial reads** — frames may arrive a byte at a time; the decoder
//!   buffers until a whole frame is present;
//! * **garbage** — bytes that do not parse as a frame header (wrong magic,
//!   unknown version or frame type) are skipped one position at a time
//!   until the magic realigns, and counted in
//!   [`Decoder::garbage_bytes`] so the connection owner can decide to cut
//!   a noisy peer loose;
//! * **oversized lengths** — a syntactically valid header announcing more
//!   than [`MAX_PAYLOAD`] bytes is rejected with
//!   [`ProtoError::Oversized`]; resynchronising past it is hopeless
//!   (the stream position is ambiguous), so callers must drop the
//!   connection.

use bskel_monitor::Welford;

/// Frame-start marker (little-endian on the wire: `E7 B5`).
pub(crate) const MAGIC: u16 = 0xB5E7;
/// Current protocol version byte.
pub(crate) const VERSION: u8 = 1;
/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Largest payload a frame may announce (16 MiB).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → daemon: open a worker slot (payload: [`Hello`]).
    Hello = 0,
    /// Daemon → client: accept/refuse a slot (payload: [`HelloAck`]).
    HelloAck = 1,
    /// Client → daemon: one task; `seq` is the stream sequence number,
    /// payload the encoded task.
    Task = 2,
    /// Daemon → client: one result; `seq` echoes the task's.
    Result = 3,
    /// Daemon → client: the task at `seq` is poisoned (the remote worker
    /// panicked computing it); no result will ever exist.
    Lost = 4,
    /// Client → daemon: liveness probe; `seq` is a ping id.
    Heartbeat = 5,
    /// Daemon → client: probe echo; `seq` echoes the ping id, payload is
    /// a [`SensorBlob`].
    HeartbeatAck = 6,
    /// Daemon → client: sensor beans piggybacked on a result batch
    /// (payload: [`SensorBlob`]).
    Sensors = 7,
    /// Either direction: cooperative close; the daemon finishes pending
    /// tasks, flushes, and closes the connection.
    Goodbye = 8,
    /// Client → tenancy front-end: attach as a tenant stream (payload:
    /// [`TenantAttach`]). Sent instead of [`FrameType::Hello`] when the
    /// peer is a multi-tenant front-end rather than a worker daemon.
    TenantAttach = 9,
    /// Front-end → client: accept/refuse the tenant (payload:
    /// [`TenantAck`]). After an accepting ack, the connection carries
    /// [`FrameType::Task`]/[`FrameType::Result`]/[`FrameType::Lost`]
    /// frames whose `seq` is the tenant-local sequence number.
    TenantAck = 10,
}

impl FrameType {
    /// Parses a wire byte; `None` for unknown types.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameType::Hello,
            1 => FrameType::HelloAck,
            2 => FrameType::Task,
            3 => FrameType::Result,
            4 => FrameType::Lost,
            5 => FrameType::Heartbeat,
            6 => FrameType::HeartbeatAck,
            7 => FrameType::Sensors,
            8 => FrameType::Goodbye,
            9 => FrameType::TenantAttach,
            10 => FrameType::TenantAck,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub ftype: FrameType,
    /// Sequence number / heartbeat id (frame-type dependent).
    pub seq: u64,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// A borrowed view of one decoded frame — the zero-copy twin of
/// [`Frame`]. The payload slice points into the decoder's buffer and is
/// valid until the next decoder call, so a hot read path (the pool's
/// reactor) can decode results without a per-frame allocation.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// What the frame carries.
    pub ftype: FrameType,
    /// Sequence number / heartbeat id (frame-type dependent).
    pub seq: u64,
    /// The payload bytes, borrowed from the decode buffer.
    pub payload: &'a [u8],
}

/// Connection-fatal protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A frame header announced a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: u32,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(f, "frame announces {len} payload bytes (max {MAX_PAYLOAD})")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Appends one encoded frame to `out`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — senders size their own
/// frames; only a *received* oversized length is a recoverable condition.
pub fn encode_frame(out: &mut Vec<u8>, ftype: FrameType, seq: u64, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "outgoing frame payload of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(ftype as u8);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Smallest read [`Decoder::read_from`] asks for: enough for a batch of
/// small frames in one syscall.
const READ_MIN: usize = 4 * 1024;
/// Largest read [`Decoder::read_from`] asks for, however much the frame
/// at the head still lacks.
const READ_MAX: usize = 64 * 1024;

/// What the bytes at the head of the decode buffer hold.
enum Head {
    /// Fewer than [`HEADER_LEN`] bytes: nothing can be told yet.
    Short,
    /// Not a frame header: skip this many bytes and look again.
    Garbage(usize),
    /// A header that validates; `len` may still exceed [`MAX_PAYLOAD`].
    Frame {
        ftype: FrameType,
        seq: u64,
        len: u32,
    },
}

impl Head {
    fn parse(b: &[u8]) -> Self {
        let magic = MAGIC.to_le_bytes();
        if b.len() < HEADER_LEN {
            return Head::Short;
        }
        if b[0] != magic[0] || b[1] != magic[1] {
            return Head::Garbage(1);
        }
        match FrameType::from_u8(b[3]) {
            Some(ftype) if b[2] == VERSION => Head::Frame {
                ftype,
                seq: u64::from_le_bytes(b[4..12].try_into().expect("8 bytes")),
                len: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
            },
            // A magic that fronts an unparseable header is line noise
            // that happened to contain the marker: step past it.
            _ => Head::Garbage(2),
        }
    }
}

/// Incremental, garbage-tolerant frame decoder (see module docs).
///
/// `buf[start..end]` holds the bytes not yet decoded. The rest of `buf`
/// is initialised spare room that later reads overwrite, so a warm
/// decoder neither allocates nor zero-fills per read.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    garbage: u64,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `want` writable bytes past `end` and returns them. The
    /// consumed prefix is reclaimed first, which moves only the bytes
    /// not yet decoded; the buffer grows only when that is not enough.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.end < want && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let need = self.end + want;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        &mut self.buf[self.end..need]
    }

    /// Feeds received bytes into the decode buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `src` straight into the decode buffer. Returns the
    /// bytes just read, for the caller to decipher in place; an empty
    /// slice means end of stream.
    ///
    /// The read asks for what the frame at the head still lacks, clamped
    /// to 4–64 KiB. An announced length counts only once its header
    /// validates, so garbage never sizes a read, and a header announcing
    /// up to [`MAX_PAYLOAD`] bytes adds at most 64 KiB per read.
    pub(crate) fn read_from(&mut self, mut src: impl std::io::Read) -> std::io::Result<&mut [u8]> {
        let head = &self.buf[self.start..self.end];
        let lacks = match Head::parse(head) {
            Head::Frame { len, .. } if len <= MAX_PAYLOAD => {
                (HEADER_LEN + len as usize).saturating_sub(head.len())
            }
            _ => 0,
        };
        let n = src.read(self.room(lacks.clamp(READ_MIN, READ_MAX)))?;
        let read = self.end..self.end + n;
        self.end += n;
        Ok(&mut self.buf[read])
    }

    /// Bytes skipped so far while resynchronising past garbage.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Pops the next complete frame, if any, copying the payload out.
    ///
    /// `Ok(None)` means "need more bytes" (truncated frame or empty
    /// buffer). Garbage is skipped silently (counted in
    /// [`Decoder::garbage_bytes`]); only an oversized length is an error,
    /// and it is sticky — the connection cannot be trusted afterwards.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        Ok(self.next_frame_view()?.map(|v| Frame {
            ftype: v.ftype,
            seq: v.seq,
            payload: v.payload.to_vec(),
        }))
    }

    /// Pops the next complete frame as a *borrowed* [`FrameView`] — no
    /// payload copy. Same contract as [`Decoder::next_frame`]; the view
    /// is consumed from the buffer immediately, so dropping it without
    /// reading the payload still advances the stream.
    pub fn next_frame_view(&mut self) -> Result<Option<FrameView<'_>>, ProtoError> {
        loop {
            let b = &self.buf[self.start..self.end];
            let (ftype, seq, len) = match Head::parse(b) {
                Head::Short => return Ok(None),
                Head::Garbage(skip) => {
                    self.start += skip;
                    self.garbage += skip as u64;
                    continue;
                }
                Head::Frame { ftype, seq, len } => (ftype, seq, len),
            };
            if len > MAX_PAYLOAD {
                return Err(ProtoError::Oversized { len });
            }
            let total = HEADER_LEN + len as usize;
            if b.len() < total {
                return Ok(None);
            }
            // Consume first, then borrow: the slice indices are pinned
            // before `start` moves, so the view covers exactly this frame.
            let payload_start = self.start + HEADER_LEN;
            let payload_end = self.start + total;
            self.start += total;
            return Ok(Some(FrameView {
                ftype,
                seq,
                payload: &self.buf[payload_start..payload_end],
            }));
        }
    }
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

/// The slot-opening request a client sends first (in clear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Whether the client wants the channel secured after the handshake.
    pub secure: bool,
    /// Client key-exchange nonce (secure mode).
    pub nonce: u64,
    /// Workload the slot should run (see `crate::daemon::Workload`).
    pub workload: String,
}

/// Encodes a [`Hello`] payload.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let wl = h.workload.as_bytes();
    let mut out = Vec::with_capacity(11 + wl.len());
    out.push(u8::from(h.secure));
    out.extend_from_slice(&h.nonce.to_le_bytes());
    out.extend_from_slice(&(wl.len() as u16).to_le_bytes());
    out.extend_from_slice(wl);
    out
}

/// Decodes a [`Hello`] payload.
pub fn decode_hello(b: &[u8]) -> Option<Hello> {
    if b.len() < 11 {
        return None;
    }
    let secure = b[0] != 0;
    let nonce = u64::from_le_bytes(b[1..9].try_into().ok()?);
    let wl_len = u16::from_le_bytes(b[9..11].try_into().ok()?) as usize;
    let wl = b.get(11..11 + wl_len)?;
    Some(Hello {
        secure,
        nonce,
        workload: String::from_utf8(wl.to_vec()).ok()?,
    })
}

/// The daemon's handshake reply (in clear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Whether the slot was accepted.
    pub ok: bool,
    /// Whether the channel is secured from the next byte on.
    pub secure: bool,
    /// Server key-exchange nonce (secure mode).
    pub nonce: u64,
    /// Refusal reason when `ok` is false.
    pub error: String,
}

/// Encodes a [`HelloAck`] payload.
pub fn encode_hello_ack(a: &HelloAck) -> Vec<u8> {
    let err = a.error.as_bytes();
    let mut out = Vec::with_capacity(12 + err.len());
    out.push(u8::from(a.ok));
    out.push(u8::from(a.secure));
    out.extend_from_slice(&a.nonce.to_le_bytes());
    out.extend_from_slice(&(err.len() as u16).to_le_bytes());
    out.extend_from_slice(err);
    out
}

/// Decodes a [`HelloAck`] payload.
pub(crate) fn decode_hello_ack(b: &[u8]) -> Option<HelloAck> {
    if b.len() < 12 {
        return None;
    }
    let ok = b[0] != 0;
    let secure = b[1] != 0;
    let nonce = u64::from_le_bytes(b[2..10].try_into().ok()?);
    let err_len = u16::from_le_bytes(b[10..12].try_into().ok()?) as usize;
    let err = b.get(12..12 + err_len)?;
    Some(HelloAck {
        ok,
        secure,
        nonce,
        error: String::from_utf8(err.to_vec()).ok()?,
    })
}

/// The sensor beans a remote worker ships back piggybacked on result
/// batches and heartbeat acks: its cumulative service-time statistic, its
/// local queue depth, and how many tasks it has completed.
#[derive(Debug, Clone)]
pub struct SensorBlob {
    /// Cumulative service-time statistic, daemon-measured (pure compute
    /// time: the network is excluded by construction).
    pub service: Welford,
    /// Tasks received but not yet computed at the daemon.
    pub queue_depth: u32,
    /// Cumulative tasks completed by this slot.
    pub done: u64,
}

/// Encodes a [`SensorBlob`] payload (52 bytes).
pub fn encode_sensors(s: &SensorBlob) -> Vec<u8> {
    let mut out = Vec::with_capacity(52);
    out.extend_from_slice(&s.service.count().to_le_bytes());
    out.extend_from_slice(&s.service.mean().to_le_bytes());
    out.extend_from_slice(&s.service.m2().to_le_bytes());
    out.extend_from_slice(&s.service.min().unwrap_or(f64::INFINITY).to_le_bytes());
    out.extend_from_slice(&s.service.max().unwrap_or(f64::NEG_INFINITY).to_le_bytes());
    out.extend_from_slice(&s.queue_depth.to_le_bytes());
    out.extend_from_slice(&s.done.to_le_bytes());
    out
}

/// Decodes a [`SensorBlob`] payload.
pub fn decode_sensors(b: &[u8]) -> Option<SensorBlob> {
    if b.len() < 52 {
        return None;
    }
    let f = |i: usize| f64::from_bits(u64::from_le_bytes(b[i..i + 8].try_into().expect("8")));
    let n = u64::from_le_bytes(b[0..8].try_into().expect("8"));
    let service = Welford::from_parts(n, f(8), f(16), f(24), f(32));
    let queue_depth = u32::from_le_bytes(b[40..44].try_into().expect("4"));
    let done = u64::from_le_bytes(b[44..52].try_into().expect("8"));
    Some(SensorBlob {
        service,
        queue_depth,
        done,
    })
}

/// The tenant-attachment request a remote client opens with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAttach {
    /// Tenant name (metrics label, journal key, event-log prefix).
    pub tenant: String,
    /// The tenant's QoS contract, in the contract grammar's JSON form
    /// (decoded by `bskel_core::contract::Contract`).
    pub contract_json: String,
    /// Admission bound: maximum queued tasks before shedding kicks in.
    pub queue_capacity: u32,
    /// Shed policy: 0 = shed-oldest, 1 = reject new arrivals.
    pub shed_policy: u8,
}

/// Encodes a [`TenantAttach`] payload.
pub fn encode_tenant_attach(t: &TenantAttach) -> Vec<u8> {
    let name = t.tenant.as_bytes();
    let contract = t.contract_json.as_bytes();
    let mut out = Vec::with_capacity(9 + name.len() + contract.len());
    out.extend_from_slice(&t.queue_capacity.to_le_bytes());
    out.push(t.shed_policy);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(contract.len() as u16).to_le_bytes());
    out.extend_from_slice(contract);
    out
}

/// Decodes a [`TenantAttach`] payload.
pub fn decode_tenant_attach(b: &[u8]) -> Option<TenantAttach> {
    if b.len() < 9 {
        return None;
    }
    let queue_capacity = u32::from_le_bytes(b[0..4].try_into().ok()?);
    let shed_policy = b[4];
    let name_len = u16::from_le_bytes(b[5..7].try_into().ok()?) as usize;
    let name = b.get(7..7 + name_len)?;
    let rest = 7 + name_len;
    let contract_len = u16::from_le_bytes(b.get(rest..rest + 2)?.try_into().ok()?) as usize;
    let contract = b.get(rest + 2..rest + 2 + contract_len)?;
    Some(TenantAttach {
        tenant: String::from_utf8(name.to_vec()).ok()?,
        contract_json: String::from_utf8(contract.to_vec()).ok()?,
        queue_capacity,
        shed_policy,
    })
}

/// The front-end's reply to a [`TenantAttach`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAck {
    /// Whether the tenant was admitted.
    pub ok: bool,
    /// The initial fair-share weight granted (0 when refused).
    pub share: f64,
    /// Refusal reason when `ok` is false.
    pub error: String,
}

/// Encodes a [`TenantAck`] payload.
pub fn encode_tenant_ack(a: &TenantAck) -> Vec<u8> {
    let err = a.error.as_bytes();
    let mut out = Vec::with_capacity(11 + err.len());
    out.push(u8::from(a.ok));
    out.extend_from_slice(&a.share.to_le_bytes());
    out.extend_from_slice(&(err.len() as u16).to_le_bytes());
    out.extend_from_slice(err);
    out
}

/// Decodes a [`TenantAck`] payload.
pub fn decode_tenant_ack(b: &[u8]) -> Option<TenantAck> {
    if b.len() < 11 {
        return None;
    }
    let ok = b[0] != 0;
    let share = f64::from_le_bytes(b[1..9].try_into().ok()?);
    let err_len = u16::from_le_bytes(b[9..11].try_into().ok()?) as usize;
    let err = b.get(11..11 + err_len)?;
    Some(TenantAck {
        ok,
        share,
        error: String::from_utf8(err.to_vec()).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(ftype: FrameType, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, ftype, seq, payload);
        out
    }

    #[test]
    fn roundtrip_single_frame() {
        let mut d = Decoder::new();
        d.extend(&frame_bytes(FrameType::Task, 42, b"payload"));
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.ftype, FrameType::Task);
        assert_eq!(f.seq, 42);
        assert_eq!(f.payload, b"payload");
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.garbage_bytes(), 0);
    }

    #[test]
    fn partial_feed_byte_by_byte() {
        let bytes = frame_bytes(FrameType::Result, 7, b"abc");
        let mut d = Decoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.extend(std::slice::from_ref(b));
            let got = d.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "frame complete early at byte {i}");
            } else {
                assert_eq!(got.unwrap().payload, b"abc");
            }
        }
    }

    #[test]
    fn garbage_prefix_is_skipped() {
        let mut d = Decoder::new();
        d.extend(&[0x00, 0xFF, 0xE7, 0x13, 0x37]); // noise, incl. a stray magic byte
        d.extend(&frame_bytes(FrameType::Heartbeat, 3, b""));
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.ftype, FrameType::Heartbeat);
        assert!(d.garbage_bytes() >= 5);
    }

    #[test]
    fn bad_version_resyncs() {
        let mut bytes = frame_bytes(FrameType::Task, 1, b"x");
        bytes[2] = 99; // corrupt the version byte
        let mut d = Decoder::new();
        d.extend(&bytes);
        d.extend(&frame_bytes(FrameType::Task, 2, b"y"));
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.seq, 2);
        assert!(d.garbage_bytes() > 0);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = frame_bytes(FrameType::Task, 1, b"x");
        bytes[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert_eq!(
            d.next_frame(),
            Err(ProtoError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn frame_view_matches_owned_decode_without_copy() {
        let mut owned = Decoder::new();
        let mut viewed = Decoder::new();
        for (seq, payload) in [(1u64, &b"alpha"[..]), (2, b""), (3, b"gamma")] {
            let bytes = frame_bytes(FrameType::Result, seq, payload);
            owned.extend(&bytes);
            viewed.extend(&bytes);
        }
        loop {
            let a = owned.next_frame().unwrap();
            let Some(a) = a else {
                assert!(viewed.next_frame_view().unwrap().is_none());
                break;
            };
            let b = viewed.next_frame_view().unwrap().expect("same stream");
            assert_eq!(a.ftype, b.ftype);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.payload.as_slice(), b.payload);
        }
    }

    impl Decoder {
        /// The decode buffer's allocation, for memory pins.
        pub(crate) fn capacity(&self) -> usize {
            self.buf.capacity()
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A source that hands out `data` in reads cut at seeded random
    /// points: a few bytes, up to 512, or all that is asked for.
    struct CutReads<'a> {
        data: &'a [u8],
        rng: u64,
    }

    impl std::io::Read for CutReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let r = splitmix(&mut self.rng);
            let most = match r % 3 {
                0 => 1 + (r >> 8) as usize % 16,
                1 => 1 + (r >> 8) as usize % 512,
                _ => usize::MAX,
            };
            let n = out.len().min(most).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A seeded stream of frames (payloads up to 70 KiB, past one read)
    /// with runs of garbage between them, some fronted by a magic.
    fn seeded_stream(rng: &mut u64) -> Vec<u8> {
        let mut out = Vec::new();
        for seq in 0..40 {
            let r = splitmix(rng);
            if r.is_multiple_of(4) {
                if r.is_multiple_of(8) {
                    out.extend_from_slice(&[0xE7, 0xB5, 99]);
                }
                // No 0xE7 in the noise, so no magic appears by chance.
                out.extend((0..r % 40).map(|_| (splitmix(rng) as u8).max(0xE8)));
            }
            let len = match (r >> 8) % 8 {
                0 => (r >> 16) as usize % 70_000,
                1..=3 => (r >> 16) as usize % 2_000,
                _ => (r >> 16) as usize % 100,
            };
            let payload: Vec<u8> = (0..len).map(|i| (i as u64 ^ seq) as u8).collect();
            encode_frame(&mut out, FrameType::Task, seq, &payload);
        }
        out
    }

    #[test]
    fn read_from_at_random_cuts_decodes_what_extend_decodes() {
        let mut rng = 0x46_u64;
        for _ in 0..64 {
            let stream = seeded_stream(&mut rng);
            let mut whole = Decoder::new();
            whole.extend(&stream);
            let want: Vec<Frame> = std::iter::from_fn(|| whole.next_frame().unwrap()).collect();

            let mut cut = Decoder::new();
            let mut src = CutReads {
                data: &stream,
                rng: splitmix(&mut rng),
            };
            let mut got = Vec::new();
            while !cut.read_from(&mut src).unwrap().is_empty() {
                got.extend(std::iter::from_fn(|| cut.next_frame().unwrap()));
            }
            assert_eq!(got, want);
            assert_eq!(cut.garbage_bytes(), whole.garbage_bytes());
            assert!(whole.garbage_bytes() > 0, "the stream carries garbage");
        }
    }

    /// Fills every read to the size asked for.
    struct Endless;

    impl std::io::Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            out.fill(0x42);
            Ok(out.len())
        }
    }

    #[test]
    fn only_a_validated_header_sizes_a_read_and_never_past_64_kib() {
        let mut huge = frame_bytes(FrameType::Task, 1, b"");
        huge[12..16].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        let mut d = Decoder::new();
        d.extend(&huge);
        for _ in 0..8 {
            let before = d.buffered();
            assert_eq!(d.read_from(Endless).unwrap().len(), READ_MAX);
            assert_eq!(d.buffered() - before, READ_MAX);
            assert!(d.capacity() <= 2 * d.buffered(), "grown by what arrived");
        }
        assert_eq!(d.next_frame(), Ok(None));

        let mut bad_magic = huge.clone();
        bad_magic[0] = 0;
        let mut bad_version = huge.clone();
        bad_version[2] = 99;
        let mut oversized = huge.clone();
        oversized[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        for head in [
            bad_magic,
            bad_version,
            oversized,
            huge[..HEADER_LEN - 1].to_vec(),
        ] {
            let mut d = Decoder::new();
            d.extend(&head);
            assert_eq!(d.read_from(Endless).unwrap().len(), READ_MIN, "{head:?}");
        }
    }

    #[test]
    fn hello_roundtrip() {
        let h = Hello {
            secure: true,
            nonce: 0xDEAD_BEEF,
            workload: "spin:250".into(),
        };
        assert_eq!(decode_hello(&encode_hello(&h)), Some(h));
        assert_eq!(decode_hello(b"xx"), None);
    }

    #[test]
    fn hello_ack_roundtrip() {
        let a = HelloAck {
            ok: false,
            secure: false,
            nonce: 1,
            error: "unknown workload".into(),
        };
        assert_eq!(decode_hello_ack(&encode_hello_ack(&a)), Some(a));
    }

    #[test]
    fn tenant_attach_roundtrip() {
        let t = TenantAttach {
            tenant: "victim".into(),
            contract_json: r#"{"throughputRange":{"lo":0.4,"hi":0.8}}"#.into(),
            queue_capacity: 64,
            shed_policy: 1,
        };
        assert_eq!(decode_tenant_attach(&encode_tenant_attach(&t)), Some(t));
        assert_eq!(decode_tenant_attach(b"short"), None);
    }

    #[test]
    fn tenant_attach_frame_decodes() {
        let t = TenantAttach {
            tenant: "hot".into(),
            contract_json: "\"bestEffort\"".into(),
            queue_capacity: 8,
            shed_policy: 0,
        };
        let mut d = Decoder::new();
        d.extend(&frame_bytes(
            FrameType::TenantAttach,
            0,
            &encode_tenant_attach(&t),
        ));
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.ftype, FrameType::TenantAttach);
        assert_eq!(decode_tenant_attach(&f.payload), Some(t));
    }

    #[test]
    fn tenant_ack_roundtrip() {
        let a = TenantAck {
            ok: true,
            share: 0.25,
            error: String::new(),
        };
        assert_eq!(decode_tenant_ack(&encode_tenant_ack(&a)), Some(a));
        let refused = TenantAck {
            ok: false,
            share: 0.0,
            error: "duplicate tenant name".into(),
        };
        assert_eq!(
            decode_tenant_ack(&encode_tenant_ack(&refused)),
            Some(refused)
        );
    }

    #[test]
    fn sensors_roundtrip() {
        let mut w = Welford::new();
        for x in [0.001, 0.004, 0.002] {
            w.update(x);
        }
        let s = SensorBlob {
            service: w,
            queue_depth: 5,
            done: 3,
        };
        let got = decode_sensors(&encode_sensors(&s)).unwrap();
        assert_eq!(got.queue_depth, 5);
        assert_eq!(got.done, 3);
        assert_eq!(got.service.count(), 3);
        assert!((got.service.mean() - w.mean()).abs() < 1e-12);
        assert!((got.service.variance() - w.variance()).abs() < 1e-12);
    }

    #[test]
    fn empty_sensors_roundtrip() {
        let s = SensorBlob {
            service: Welford::new(),
            queue_depth: 0,
            done: 0,
        };
        let got = decode_sensors(&encode_sensors(&s)).unwrap();
        assert_eq!(got.service.count(), 0);
        assert_eq!(got.service.mean(), 0.0);
    }
}

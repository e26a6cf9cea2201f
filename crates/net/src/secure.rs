//! Toy secure channel: a keystream cipher plus a deliberately expensive
//! handshake, with per-byte and per-handshake cost metering.
//!
//! **This is NOT cryptography.** The cipher is an xorshift64* keystream and
//! the "key exchange" is two nonces mixed through splitmix64 — trivially
//! breakable. Its purpose is to be a *measurable stand-in* for a real
//! secure channel so the simulator's `SslCostModel` (handshake latency +
//! per-byte throughput tax) can be calibrated against an implementation
//! with the same cost *shape*: a fixed up-front handshake cost and a
//! per-byte streaming cost on every frame. The key-stretch loop in
//! `derive_session_keys` exists purely to make the handshake cost
//! visible on a loopback benchmark.
//!
//! # The keystream kernel
//!
//! Byte *n* of a direction's keystream comes from the xorshift64 state
//! *n* + 1 steps after the key. Taken one byte at a time, every byte
//! waits on the previous byte's step, so the loop is bound by latency.
//! `StreamCipher::apply` instead ciphers each whole 1 KiB block as
//! sixteen 64-byte lanes whose states sit side by side in a `[u64; 16]`.
//! One step advances all sixteen chains and yields sixteen keystream
//! bytes into a `[u8; 16]`, which are then XORed into the block, one
//! byte per lane. The compiler turns the sixteen xorshift steps into
//! 128-bit vector shifts and XORs with baseline x86-64 SSE2 (the
//! keystream multiply stays scalar): no `unsafe`, target features or
//! runtime dispatch. Lane *j* must start
//! from the state 64·*j* steps ahead. The xorshift step is linear over
//! GF(2), so 64 steps are one 64×64 bit matrix. `JUMP` holds it
//! byte-sliced: for each of the state's 8 bytes, the image of all 256
//! values of that byte. A jump is then 8 lookups XORed together. A
//! `const fn` builds the 16 KiB table at compile time, so there is no
//! set-up cost and no lazy init. Each lane steps its own state exactly
//! as the serial loop would, and the state after a block is the last
//! lane's, 1 024 steps on. So the output and the state left behind are
//! the serial loop's, byte for byte, whatever the buffer sizes: old and
//! new peers interoperate. A tail under 1 KiB takes the serial step, and
//! so do small frames such as heartbeats. Alone on one core of a 2-vCPU
//! Xeon VM, the serial loop runs at about 2.3 ns/B and this kernel at
//! about 0.95 ns/B. Tests pin the
//! keystream to a recorded golden vector and compare `apply` against
//! the serial loop at every length up to 2 KiB, at cuts around every
//! lane and block boundary, and at random lengths and split points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// splitmix64 mixing step — used to scramble seeds and stretch keys.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iterations of the deliberate key-stretch loop. Tuned so a handshake
/// costs a measurable fraction of a millisecond — big enough to show up
/// in the benchmark's `net.handshake_ms`, small enough not to slow tests.
const KEY_STRETCH_ROUNDS: u64 = 250_000;

/// Derives the two directional session keys from the handshake nonces.
///
/// Returns `(client_to_server, server_to_client)`. Both sides call this
/// with the same nonce pair and get the same keys. The stretch loop is
/// the *point*: it models the asymmetric-crypto cost of a real TLS
/// handshake as CPU time.
pub(crate) fn derive_session_keys(client_nonce: u64, server_nonce: u64) -> (u64, u64) {
    let mut state = client_nonce ^ server_nonce.rotate_left(32) ^ 0xA5A5_5A5A_DEAD_F00D;
    let mut acc = 0u64;
    for _ in 0..KEY_STRETCH_ROUNDS {
        acc ^= splitmix64(&mut state);
    }
    let c2s = splitmix64(&mut state) ^ acc;
    let s2c = splitmix64(&mut state) ^ acc.rotate_left(17);
    (c2s, s2c)
}

/// Lanes the kernel steps side by side.
const LANES: usize = 16;
/// Keystream bytes per lane.
const LANE: usize = 64;
/// Bytes the kernel ciphers per round: every lane's bytes, lane after lane.
const BLOCK: usize = LANES * LANE;

/// One xorshift64 step: the cipher's state transition.
#[inline]
const fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// The keystream byte a freshly stepped state yields: the xorshift64*
/// multiply, whose high byte has good mixing.
#[inline]
fn keystream_byte(x: u64) -> u8 {
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
}

/// [`LANE`] xorshift steps as a byte-sliced GF(2) matrix: `JUMP[k][b]` is
/// where a state holding only byte value `b` at byte `k` lands after
/// `LANE` steps.
static JUMP: [[u64; 256]; 8] = jump_table();

const fn jump_table() -> [[u64; 256]; 8] {
    // Where each single-bit state lands: the matrix's columns.
    let mut column = [0u64; 64];
    let mut bit = 0;
    while bit < 64 {
        let mut x = 1u64 << bit;
        let mut step = 0;
        while step < LANE {
            x = xorshift(x);
            step += 1;
        }
        column[bit] = x;
        bit += 1;
    }
    // By linearity, `b`'s image is its lowest set bit's column XOR the
    // image of `b` without that bit, an entry already filled.
    let mut table = [[0u64; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 1usize;
        while b < 256 {
            table[k][b] = table[k][b & (b - 1)] ^ column[8 * k + b.trailing_zeros() as usize];
            b += 1;
        }
        k += 1;
    }
    table
}

/// The state [`LANE`] xorshift steps after `x`.
#[inline]
fn jump(x: u64) -> u64 {
    JUMP.iter()
        .zip(x.to_le_bytes())
        .fold(0, |y, (row, byte)| y ^ row[usize::from(byte)])
}

/// One direction of the toy stream cipher: an xorshift64* keystream XORed
/// over the byte stream. Order-dependent — all bytes of a direction must
/// pass through a single cipher instance in wire order.
#[derive(Debug)]
pub(crate) struct StreamCipher {
    state: u64,
}

impl StreamCipher {
    /// A cipher keyed from one of the [`derive_session_keys`] outputs.
    pub fn new(key: u64) -> Self {
        // Scramble once so a zero key doesn't produce a zero keystream;
        // only the advanced state is kept, not the step's output.
        let mut s = key ^ 0x6A09_E667_F3BC_C908;
        splitmix64(&mut s);
        Self {
            state: if s == 0 { 1 } else { s },
        }
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        self.state = xorshift(self.state);
        keystream_byte(self.state)
    }

    /// XORs the keystream over `buf` in place. Encryption and decryption
    /// are the same operation.
    ///
    /// Whole 1 KiB blocks run as sixteen interleaved lanes (see the
    /// module docs); a shorter tail takes one serial step per byte.
    pub fn apply(&mut self, buf: &mut [u8]) {
        let mut blocks = buf.chunks_exact_mut(BLOCK);
        for block in &mut blocks {
            let mut lanes = [self.state; LANES];
            for j in 1..LANES {
                lanes[j] = jump(lanes[j - 1]);
            }
            for i in 0..LANE {
                let mut keystream = [0u8; LANES];
                for (k, s) in keystream.iter_mut().zip(&mut lanes) {
                    *s = xorshift(*s);
                    *k = keystream_byte(*s);
                }
                for (j, k) in keystream.into_iter().enumerate() {
                    block[j * LANE + i] ^= k;
                }
            }
            // The last lane ends exactly BLOCK steps past the start.
            self.state = lanes[LANES - 1];
        }
        for b in blocks.into_remainder() {
            *b ^= self.next_byte();
        }
    }
}

/// Atomic accounting of secure-channel costs, shared across connections.
///
/// [`CostReport`] turns the raw totals into the two numbers the
/// simulator's `SslCostModel` wants: seconds per handshake and seconds
/// per ciphered byte.
#[derive(Debug, Default)]
pub(crate) struct CostMeter {
    bytes: AtomicU64,
    cipher_nanos: AtomicU64,
    handshakes: AtomicU64,
    handshake_nanos: AtomicU64,
}

impl CostMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cipher pass over `n` bytes taking `nanos`.
    fn record_cipher(&self, n: u64, nanos: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
        self.cipher_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one completed handshake taking `nanos`.
    pub(crate) fn record_handshake(&self, nanos: u64) {
        self.handshakes.fetch_add(1, Ordering::Relaxed);
        self.handshake_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Times `f` as a handshake and records it.
    pub(crate) fn time_handshake<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record_handshake(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Snapshot of the accumulated costs.
    pub fn report(&self) -> CostReport {
        CostReport {
            bytes: self.bytes.load(Ordering::Relaxed),
            cipher_nanos: self.cipher_nanos.load(Ordering::Relaxed),
            handshakes: self.handshakes.load(Ordering::Relaxed),
            handshake_nanos: self.handshake_nanos.load(Ordering::Relaxed),
        }
    }
}

/// One direction's keystream, charging every pass to a shared meter.
#[derive(Debug)]
pub(crate) struct MeteredCipher {
    pub(crate) cipher: StreamCipher,
    pub(crate) meter: Arc<CostMeter>,
}

impl MeteredCipher {
    /// Ciphers `buf` in place and records the pass's bytes and time.
    pub(crate) fn apply(&mut self, buf: &mut [u8]) {
        let t0 = Instant::now();
        self.cipher.apply(buf);
        self.meter
            .record_cipher(buf.len() as u64, t0.elapsed().as_nanos() as u64);
    }
}

/// Accumulated secure-channel costs (see `CostMeter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Total bytes passed through the cipher.
    pub bytes: u64,
    /// Total nanoseconds spent ciphering.
    pub cipher_nanos: u64,
    /// Handshakes completed.
    pub handshakes: u64,
    /// Total nanoseconds spent in handshakes.
    pub handshake_nanos: u64,
}

impl CostReport {
    /// Mean seconds of CPU per ciphered byte (0 if nothing ciphered).
    pub fn per_byte_seconds(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.cipher_nanos as f64 * 1e-9 / self.bytes as f64
        }
    }

    /// Mean seconds per handshake (0 if none).
    pub fn handshake_seconds(&self) -> f64 {
        if self.handshakes == 0 {
            0.0
        } else {
            self.handshake_nanos as f64 * 1e-9 / self.handshakes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cipher_roundtrip() {
        let (c2s, _) = derive_session_keys(11, 22);
        let mut enc = StreamCipher::new(c2s);
        let mut dec = StreamCipher::new(c2s);
        let original: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut buf = original.clone();
        enc.apply(&mut buf);
        assert_ne!(buf, original, "cipher must actually change the bytes");
        dec.apply(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn cipher_is_order_dependent_stream() {
        // Splitting the stream across two apply() calls must equal one
        // contiguous pass — that's what lets us cipher frame-by-frame.
        let mut one = StreamCipher::new(42);
        let mut two = StreamCipher::new(42);
        let mut a = [7u8; 64];
        let mut b = [7u8; 64];
        one.apply(&mut a);
        two.apply(&mut b[..20]);
        two.apply(&mut b[20..]);
        assert_eq!(a, b);
    }

    /// The byte-at-a-time keystream: the oracle `apply` must match.
    fn serial_apply(c: &mut StreamCipher, buf: &mut [u8]) {
        for b in buf {
            *b ^= c.next_byte();
        }
    }

    #[test]
    fn keystream_matches_the_recorded_golden_vector() {
        // The first 3 KiB of the client-to-server keystream for nonces
        // (11, 22), recorded from the serial loop: peers built before and
        // after the lane kernel must agree byte for byte.
        let hex: Vec<u8> = include_str!("../tests/fixtures/keystream_11_22_c2s.hex")
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        let golden: Vec<u8> = hex
            .chunks(2)
            .map(|pair| {
                u8::from_str_radix(std::str::from_utf8(pair).expect("ASCII"), 16)
                    .expect("a hex byte")
            })
            .collect();
        assert_eq!(golden.len(), 3 * 1024);
        let mut buf = vec![0u8; golden.len()];
        StreamCipher::new(derive_session_keys(11, 22).0).apply(&mut buf);
        assert_eq!(buf, golden);
    }

    /// Applies `data`'s keystream in the pieces `cuts` marks, and asserts
    /// that the output and the state left behind are the serial loop's.
    fn assert_apply_is_serial(key: u64, data: &[u8], cuts: &[usize]) {
        let mut lanes = StreamCipher::new(key);
        let mut got = data.to_vec();
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            lanes.apply(&mut got[from..cut]);
            from = cut;
        }
        let mut oracle = StreamCipher::new(key);
        let mut want = data.to_vec();
        serial_apply(&mut oracle, &mut want);
        let len = data.len();
        assert!(got == want, "len {len}, cuts {cuts:?}");
        assert_eq!(lanes.state, oracle.state, "len {len}, cuts {cuts:?}");
    }

    #[test]
    fn apply_equals_the_serial_keystream_at_every_length() {
        let mut rng = 0xC0DE_u64;
        for len in (0..=2 * BLOCK).chain([65_552, 1 << 20]) {
            let data: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
            assert_apply_is_serial(splitmix64(&mut rng), &data, &[]);
        }
    }

    #[test]
    fn apply_equals_the_serial_keystream_cut_around_every_lane_and_block() {
        let mut rng = 0xB10C_u64;
        let len = 3 * BLOCK;
        let data: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
        let key = splitmix64(&mut rng);
        // Every block boundary is a lane boundary too.
        for edge in (0..=len).step_by(LANE) {
            let (below, above) = (edge.saturating_sub(1), (edge + 1).min(len));
            for cuts in [[below].as_slice(), &[edge], &[above], &[below, above]] {
                assert_apply_is_serial(key, &data, cuts);
            }
        }
    }

    #[test]
    fn apply_equals_the_serial_keystream_at_random_lengths_and_splits() {
        let mut rng = 0x5EED_u64;
        for _ in 0..200 {
            let len = (splitmix64(&mut rng) % (3 * BLOCK as u64 + 1)) as usize;
            let key = splitmix64(&mut rng);
            let data: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
            let mut cuts: Vec<usize> = (0..splitmix64(&mut rng) % 4)
                .map(|_| (splitmix64(&mut rng) % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            assert_apply_is_serial(key, &data, &cuts);
        }
    }

    #[test]
    fn jump_table_equals_lane_serial_steps() {
        let mut rng = 7u64;
        for _ in 0..256 {
            let x = splitmix64(&mut rng);
            let serial = (0..LANE).fold(x, |s, _| xorshift(s));
            assert_eq!(jump(x), serial, "from {x:#018x}");
        }
    }

    #[test]
    fn keys_agree_and_directions_differ() {
        let (a1, b1) = derive_session_keys(1, 2);
        let (a2, b2) = derive_session_keys(1, 2);
        assert_eq!((a1, b1), (a2, b2));
        assert_ne!(a1, b1);
        assert_ne!(derive_session_keys(3, 4), (a1, b1));
    }

    #[test]
    fn meter_reports_sane_rates() {
        let m = CostMeter::new();
        m.record_cipher(1000, 2000);
        m.record_handshake(5_000_000);
        let r = m.report();
        assert!((r.per_byte_seconds() - 2e-9).abs() < 1e-15);
        assert!((r.handshake_seconds() - 5e-3).abs() < 1e-12);
        assert_eq!(CostMeter::new().report().per_byte_seconds(), 0.0);
    }
}

//! Framed, optionally ciphered I/O over a `TcpStream`.
//!
//! A connection owns one [`FrameWriter`] and one [`FrameReader`], each
//! holding its own clone of the socket. The writer buffers frames and
//! flushes them in one `write_all` — this is where wire batching happens:
//! a whole task batch (plus a trailing heartbeat or sensor frame) goes
//! out as a single syscall. Because the stream cipher is order-dependent,
//! all writes on a connection must serialize through its one
//! `FrameWriter`; callers wrap it in a mutex.
//!
//! The reader holds no read chunk of its own: each read lands straight in
//! its decoder's buffer, sized by the frame being received (see
//! `Decoder::read_from`), and a secure reader deciphers those bytes in
//! place. A connection carrying small frames so holds a few KiB of read
//! buffer, and one carrying large frames grows it to the frame size.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;

use crate::proto::{encode_frame, Decoder, Frame, FrameType, ProtoError};
use crate::secure::{CostMeter, MeteredCipher, StreamCipher};
use crate::sys;

/// Buffered frame encoder for one direction of a connection.
#[derive(Debug)]
pub struct FrameWriter {
    stream: TcpStream,
    cipher: Option<MeteredCipher>,
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A writer in the clear (handshake phase, or plain channels).
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            cipher: None,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Ciphers everything written from now on, metering the cost.
    ///
    /// Must be called at a frame boundary with the buffer empty (i.e.
    /// right after the handshake flush), otherwise already-buffered clear
    /// bytes would be ciphered.
    pub(crate) fn secure(&mut self, cipher: StreamCipher, meter: Arc<CostMeter>) {
        debug_assert!(self.buf.is_empty(), "secure() mid-frame");
        self.cipher = Some(MeteredCipher { cipher, meter });
    }

    /// Appends one frame to the outgoing buffer (no I/O yet).
    pub fn push(&mut self, ftype: FrameType, seq: u64, payload: &[u8]) {
        encode_frame(&mut self.buf, ftype, seq, payload);
    }

    /// Writes the whole buffer to the socket in one `write_all`.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if let Some(cipher) = &mut self.cipher {
            cipher.apply(&mut self.buf);
        }
        let res = self.stream.write_all(&self.buf);
        self.buf.clear();
        res?;
        self.stream.flush()
    }

    /// Convenience: push one frame and flush immediately.
    pub fn send(&mut self, ftype: FrameType, seq: u64, payload: &[u8]) -> std::io::Result<()> {
        self.push(ftype, seq, payload);
        self.flush()
    }
}

/// Outcome of one [`FrameReader::fill_once`] read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// Bytes arrived and were fed to the decoder.
    Bytes,
    /// Nothing available right now (nonblocking socket or read timeout).
    WouldBlock,
    /// The peer closed the connection.
    Eof,
}

/// A socket read through [`FrameReader::fill_nowait`].
struct NoWait<'a>(&'a TcpStream);

impl Read for NoWait<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        sys::recv_nowait(self.0.as_raw_fd(), buf)
    }
}

/// Decoding reader for one direction of a connection: reads go straight
/// into the decode buffer, 4–64 KiB at a time, and are deciphered there.
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    cipher: Option<MeteredCipher>,
    decoder: Decoder,
    /// Read syscalls made on the socket so far, including those that
    /// found nothing.
    pub(crate) reads: u64,
}

impl FrameReader {
    /// A reader in the clear.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            cipher: None,
            decoder: Decoder::new(),
            reads: 0,
        }
    }

    /// Deciphers everything read from now on.
    ///
    /// Must be called once the decoder holds no buffered bytes from the
    /// clear phase — i.e. immediately after the handshake frames were
    /// consumed and before any ciphered bytes arrive. A peer can break
    /// that by pipelining bytes behind its handshake, so callers check
    /// [`FrameReader::buffered`] first and refuse the connection.
    pub(crate) fn secure(&mut self, cipher: StreamCipher, meter: Arc<CostMeter>) {
        debug_assert_eq!(self.decoder.buffered(), 0, "secure() with clear residue");
        self.cipher = Some(MeteredCipher { cipher, meter });
    }

    /// Bytes read from the socket but not yet decoded into frames.
    pub fn buffered(&self) -> usize {
        self.decoder.buffered()
    }

    /// Pops the next frame already sitting in the decode buffer, without
    /// touching the socket.
    pub fn try_next(&mut self) -> Result<Option<Frame>, ProtoError> {
        self.decoder.next_frame()
    }

    /// One read attempt from the socket straight into the decoder, which
    /// sizes it (see `Decoder::read_from`); a secure reader deciphers
    /// exactly the bytes just read, in place.
    pub fn fill_once(&mut self) -> std::io::Result<FillStatus> {
        self.fill(false)
    }

    /// [`FrameReader::fill_once`] through one `recv` with `MSG_DONTWAIT`
    /// (`sys::recv_nowait`): it never blocks, and the socket, whose
    /// other clones may be writing, stays in blocking mode.
    pub(crate) fn fill_nowait(&mut self) -> std::io::Result<FillStatus> {
        self.fill(true)
    }

    fn fill(&mut self, nowait: bool) -> std::io::Result<FillStatus> {
        self.reads += 1;
        let read = if nowait {
            self.decoder.read_from(NoWait(&self.stream))
        } else {
            self.decoder.read_from(&self.stream)
        };
        match read {
            Ok([]) => Ok(FillStatus::Eof),
            Ok(read) => {
                if let Some(cipher) = &mut self.cipher {
                    cipher.apply(read);
                }
                Ok(FillStatus::Bytes)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(FillStatus::WouldBlock)
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks until a full frame is available (or EOF / error).
    ///
    /// `Ok(None)` means the peer closed the connection cleanly. Only
    /// meaningful on a blocking socket — `WouldBlock` would spin here.
    pub fn next_blocking(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            match self.try_next() {
                Ok(Some(f)) => return Ok(Some(f)),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
            }
            match self.fill_once()? {
                FillStatus::Eof => return Ok(None),
                FillStatus::Bytes | FillStatus::WouldBlock => {}
            }
        }
    }

    /// Bytes skipped resynchronising past garbage so far.
    pub fn garbage_bytes(&self) -> u64 {
        self.decoder.garbage_bytes()
    }

    /// The underlying socket (for `shutdown`).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback pair: the sending end and a reader on the receiving end.
    fn loopback() -> (TcpStream, FrameReader) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let tx = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        (tx, FrameReader::new(rx))
    }

    /// Writes `bytes` from another thread in pieces of `piece` bytes, so
    /// the reader sees reads cut across frames, then closes.
    fn send_in_pieces(
        mut tx: TcpStream,
        bytes: Vec<u8>,
        piece: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for p in bytes.chunks(piece) {
                tx.write_all(p).expect("the reader is open");
            }
        })
    }

    #[test]
    fn a_secure_reader_deciphers_the_serial_keystream_across_reads() {
        let key = 0x5EC_u64;
        let sent: Vec<(u64, Vec<u8>)> = (0..200u64)
            .map(|seq| (seq, vec![seq as u8; (seq as usize * 331) % 3_000]))
            .collect();
        let mut bytes = Vec::new();
        for (seq, payload) in &sent {
            encode_frame(&mut bytes, FrameType::Task, *seq, payload);
        }
        // The oracle: one keystream byte per step, in wire order.
        let mut serial = StreamCipher::new(key);
        for b in bytes.iter_mut() {
            serial.apply(std::slice::from_mut(b));
        }
        let total = bytes.len() as u64;

        let (tx, mut reader) = loopback();
        let meter = Arc::new(CostMeter::new());
        reader.secure(StreamCipher::new(key), Arc::clone(&meter));
        let sender = send_in_pieces(tx, bytes, 1_500);
        let mut got = Vec::new();
        while let Some(f) = reader.next_blocking().expect("a clean stream") {
            got.push((f.seq, f.payload));
        }
        sender.join().expect("the sender finishes");
        assert_eq!(got, sent);
        assert_eq!(reader.garbage_bytes(), 0);
        assert_eq!(
            meter.report().bytes,
            total,
            "each byte read is deciphered once"
        );
    }

    #[test]
    fn a_stream_of_small_frames_keeps_the_read_buffer_within_8_kib() {
        let mut bytes = Vec::new();
        for seq in 0..20_000u64 {
            encode_frame(&mut bytes, FrameType::Task, seq, &[seq as u8; 64]);
        }
        let (tx, mut reader) = loopback();
        let sender = send_in_pieces(tx, bytes, 7_000);
        let mut next = 0;
        while let Some(f) = reader.next_blocking().expect("a clean stream") {
            assert_eq!((f.seq, f.payload.len()), (next, 64));
            next += 1;
        }
        sender.join().expect("the sender finishes");
        assert_eq!(next, 20_000);
        let capacity = reader.decoder.capacity();
        assert!(capacity <= 8 * 1024, "read buffer grew to {capacity} bytes");
    }
}

//! Framed, optionally ciphered I/O over a `TcpStream`.
//!
//! A connection owns one [`FrameWriter`] and one [`FrameReader`], each
//! holding its own clone of the socket. The writer buffers frames and
//! flushes them in one `write_all` — this is where wire batching happens:
//! a whole task batch (plus a trailing heartbeat or sensor frame) goes
//! out as a single syscall. Because the stream cipher is order-dependent,
//! all writes on a connection must serialize through its one
//! `FrameWriter`; callers wrap it in a mutex.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crate::proto::{encode_frame, Decoder, Frame, FrameType, ProtoError};
use crate::secure::{CostMeter, StreamCipher};

/// Buffered frame encoder for one direction of a connection.
#[derive(Debug)]
pub struct FrameWriter {
    stream: TcpStream,
    cipher: Option<StreamCipher>,
    meter: Option<Arc<CostMeter>>,
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A writer in the clear (handshake phase, or plain channels).
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            cipher: None,
            meter: None,
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
        self.cipher = Some(cipher);
        self.meter = Some(meter);
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
            let t0 = Instant::now();
            cipher.apply(&mut self.buf);
            if let Some(m) = &self.meter {
                m.record_cipher(self.buf.len() as u64, t0.elapsed().as_nanos() as u64);
            }
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

/// Decoding reader for one direction of a connection.
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    cipher: Option<StreamCipher>,
    meter: Option<Arc<CostMeter>>,
    decoder: Decoder,
    chunk: Vec<u8>,
}

impl FrameReader {
    /// A reader in the clear.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            cipher: None,
            meter: None,
            decoder: Decoder::new(),
            chunk: vec![0u8; 64 * 1024],
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
        self.cipher = Some(cipher);
        self.meter = Some(meter);
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

    /// One read attempt from the socket into the decoder.
    pub fn fill_once(&mut self) -> std::io::Result<FillStatus> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Ok(FillStatus::Eof),
            Ok(n) => {
                if let Some(cipher) = &mut self.cipher {
                    let t0 = Instant::now();
                    cipher.apply(&mut self.chunk[..n]);
                    if let Some(m) = &self.meter {
                        m.record_cipher(n as u64, t0.elapsed().as_nanos() as u64);
                    }
                }
                self.decoder.extend(&self.chunk[..n]);
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

    /// The underlying socket (for `set_nonblocking` toggles).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

//! Dependency-free Linux readiness polling: `epoll` + `eventfd` via raw
//! syscalls, plus the daemon's non-blocking receive.
//!
//! The reactor in [`crate::pool`] multiplexes every remote slot on one
//! thread, which needs OS readiness notification — and this workspace
//! vendors no `libc`. The syscall surface required is tiny (six calls),
//! so this module invokes them directly with inline assembly on the two
//! architectures the project targets (x86_64, aarch64) and wraps the raw
//! file descriptors in [`std::os::fd::OwnedFd`] so std's Drop closes them.
//!
//! The sixth call, `recv_nowait`, is a `recvfrom` with `MSG_DONTWAIT`:
//! one read that cannot block, on a socket that stays blocking. The
//! alternative, toggling `O_NONBLOCK` around a read, costs two more
//! syscalls, and it flips a flag of the *open file description*, which
//! every `try_clone`d fd of the socket shares: a writer thread flushing
//! on another clone meanwhile would see `WouldBlock` on a full send
//! buffer. `MSG_DONTWAIT` applies to the one call only.
//!
//! Everything here is *level-triggered*: a socket with unread bytes (or
//! writable space) keeps reporting ready, so a reactor tick that stops
//! mid-drain — batch limits, fairness — simply sees the socket again on
//! the next wait. That forgiving contract is why the reactor needs no
//! edge-trigger bookkeeping and why spurious wakeups are harmless (see
//! `crates/net/tests/reactor.rs`).

#![allow(clippy::upper_case_acronyms)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

// -- syscall numbers ---------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub(crate) const EPOLL_CTL: usize = 233;
    pub(crate) const EPOLL_WAIT: usize = 232;
    pub(crate) const EVENTFD2: usize = 290;
    pub(crate) const EPOLL_CREATE1: usize = 291;
    pub(crate) const PRLIMIT64: usize = 302;
    pub(crate) const RECVFROM: usize = 45;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub(crate) const EPOLL_CREATE1: usize = 20;
    pub(crate) const EPOLL_CTL: usize = 21;
    /// aarch64 has no plain `epoll_wait`; `epoll_pwait` with a null
    /// sigmask is the same call.
    pub(crate) const EPOLL_WAIT: usize = 22;
    pub(crate) const EVENTFD2: usize = 19;
    pub(crate) const PRLIMIT64: usize = 261;
    pub(crate) const RECVFROM: usize = 207;
}

/// One raw syscall with up to six arguments. Unused trailing arguments
/// are ignored by the kernel, so every call site funnels through here.
///
/// # Safety
/// The caller must pass arguments valid for syscall `n` (live pointers
/// with correct lengths, valid fds); the kernel dereferences them.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: the `syscall` instruction with the Linux x86_64 calling
    // convention (nr in rax, args in rdi/rsi/rdx/r10/r8/r9; rcx and r11
    // clobbered by the instruction itself). Argument validity is the
    // caller's contract, per this function's safety docs.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

/// See the x86_64 variant; aarch64 passes the number in `x8`.
///
/// # Safety
/// Same contract: arguments must be valid for syscall `n`.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: the `svc 0` instruction with the Linux aarch64 calling
    // convention (nr in x8, args in x0..x5, result in x0). Argument
    // validity is the caller's contract, per this function's safety docs.
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") n,
            options(nostack)
        );
    }
    ret
}

/// Converts a raw syscall return into `io::Result<usize>` (negative
/// values are `-errno`).
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// -- epoll -------------------------------------------------------------

const EPOLL_CLOEXEC: usize = 0o2000000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the one ABI
/// where the kernel declares it `__attribute__((packed))`), naturally
/// aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// Manual impl: deriving Debug on a packed struct would take references
// to possibly-unaligned fields; copy them out instead.
impl std::fmt::Debug for EpollEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, data) = (self.events, self.data);
        f.debug_struct("EpollEvent")
            .field("events", &events)
            .field("data", &data)
            .finish()
    }
}

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — while a send queue has pending bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// Error / hangup condition — the owner should read until EOF/error
    /// to learn why (level-triggered `EPOLLIN` accompanies it anyway).
    pub closed: bool,
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
    /// Reused kernel-event buffer (one `wait` at a time: `&mut self`).
    buf: Box<[EpollEvent]>,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags word and no pointers.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Self {
            // SAFETY: a successful epoll_create1 returned this fd and
            // nothing else owns it; OwnedFd takes over closing it.
            epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
            buf: vec![EpollEvent::default(); 512].into_boxed_slice(),
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
        let ptr = ev
            .as_ref()
            .map_or(std::ptr::null(), |e| e as *const EpollEvent);
        // SAFETY: `ptr` is either null (DEL) or points at a live
        // EpollEvent on this stack frame for the duration of the call;
        // both fds are open.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.epfd.as_raw_fd() as usize,
                op,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Changes the interest set of an already-registered fd.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Deregisters `fd`. Harmless to call on an fd the kernel already
    /// dropped (closing an fd removes it from every epoll set).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until readiness or `timeout` (`None` = forever), appending
    /// the notifications to `out`. Returns how many arrived. `EINTR`
    /// retries internally; a zero return is a plain timeout.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: isize = match timeout {
            None => -1,
            // Round up so a 300µs deadline does not busy-spin at 0ms.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as isize,
        };
        let n = loop {
            // SAFETY: `buf` is a live, exclusively-borrowed allocation of
            // `buf.len()` epoll_event slots; the epoll fd is open. The
            // trailing null sigmask arg makes this epoll_pwait-compatible
            // on aarch64 and is ignored by x86_64 epoll_wait.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_WAIT,
                    self.epfd.as_raw_fd() as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    ms as usize,
                    0,
                    0,
                )
            };
            match check(ret) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) kernel struct by value.
            let bits = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

// -- eventfd waker -----------------------------------------------------

const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;

/// A cross-thread wakeup handle for a [`Poller`]: an `eventfd` registered
/// read-side in the epoll set. Any thread clones the waker and calls
/// [`Waker::wake`]; the reactor drains it and re-arms by level-triggered
/// nature. Wakes coalesce (the eventfd is a counter), so a burst of
/// producers costs one reactor tick.
#[derive(Debug, Clone)]
pub struct Waker {
    file: Arc<File>,
}

impl Waker {
    /// Creates the eventfd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd2 takes an initial counter and a flags word.
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: a successful eventfd2 returned this fd and nothing else
        // owns it; the File (via OwnedFd) takes over closing it.
        let owned = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
        Ok(Self {
            file: Arc::new(File::from(owned)),
        })
    }

    /// The fd to register in the poller (read interest).
    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Signals the poller. Never blocks: a saturated counter (`EAGAIN`)
    /// already guarantees a pending wakeup.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&*self.file).write(&one);
    }

    /// Consumes pending wakeups so the level-triggered fd goes quiet.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // One read resets an eventfd counter to zero; EAGAIN means it
        // already was.
        let _ = (&*self.file).read(&mut buf);
    }
}

// -- non-blocking receive ---------------------------------------------

const MSG_DONTWAIT: usize = 0x40;

/// One read of whatever `fd` (a connected socket) holds, up to
/// `buf.len()` bytes, that never blocks, whatever the fd's own mode:
/// `WouldBlock` when nothing is there, `Ok(0)` when the peer has closed.
/// `EINTR` retries.
pub(crate) fn recv_nowait(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a live, exclusively-borrowed slice the kernel
        // writes at most `buf.len()` bytes into; the null address and
        // address-length pointers mean "do not report the source".
        let ret = unsafe {
            syscall6(
                nr::RECVFROM,
                fd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                MSG_DONTWAIT,
                0,
                0,
            )
        };
        match check(ret) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            done => return done,
        }
    }
}

// -- rlimit ------------------------------------------------------------

const RLIMIT_NOFILE: usize = 7;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RLimit64 {
    cur: u64,
    max: u64,
}

/// Raises the soft open-files limit toward `target` (capped at the hard
/// limit) and returns the resulting soft limit. Benches opening hundreds
/// of loopback daemons call this instead of asking users to `ulimit -n`.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut old = RLimit64::default();
    // SAFETY: pid 0 = self; null new-limit pointer means "query"; `old`
    // is a live stack slot the kernel writes 16 bytes into.
    check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            0,
            &mut old as *mut RLimit64 as usize,
            0,
            0,
        )
    })?;
    if old.cur >= target {
        return Ok(old.cur);
    }
    let new = RLimit64 {
        cur: target.min(old.max),
        max: old.max,
    };
    // SAFETY: pid 0 = self; `new` is a live stack slot the kernel reads
    // 16 bytes from; null old-limit pointer means "don't report back".
    check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            &new as *const RLimit64 as usize,
            0,
            0,
            0,
        )
    })?;
    Ok(new.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn poller_reports_readable_after_write() {
        let (a, mut b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(a.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut evs = Vec::new();
        // Quiet socket: a short wait times out with nothing.
        assert_eq!(
            p.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(),
            0
        );
        b.write_all(b"ping").unwrap();
        p.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn poller_reports_hangup_as_readable_and_closed() {
        let (a, b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(a.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(b);
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        let ev = evs.iter().find(|e| e.token == 1).expect("hangup event");
        assert!(ev.readable, "EOF must be surfaced through the read path");
        assert!(ev.closed);
    }

    #[test]
    fn modify_toggles_write_interest() {
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.add(a.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut evs = Vec::new();
        // Read-only interest on an idle-but-writable socket: timeout.
        assert_eq!(
            p.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(),
            0
        );
        p.modify(a.as_raw_fd(), 3, Interest::READ_WRITE).unwrap();
        p.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == 3 && e.writable));
        // And back off again.
        evs.clear();
        p.modify(a.as_raw_fd(), 3, Interest::READ).unwrap();
        assert_eq!(
            p.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(),
            0
        );
        p.delete(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_and_drains() {
        let waker = Waker::new().unwrap();
        let mut p = Poller::new().unwrap();
        p.add(waker.raw_fd(), u64::MAX, Interest::READ).unwrap();
        let mut evs = Vec::new();
        assert_eq!(
            p.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(),
            0
        );
        // Wakes coalesce: three wakes, one readable event, one drain.
        waker.wake();
        waker.wake();
        waker.wake();
        p.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == u64::MAX && e.readable));
        waker.drain();
        evs.clear();
        assert_eq!(
            p.wait(&mut evs, Some(Duration::from_millis(10))).unwrap(),
            0,
            "drained waker goes quiet (no stuck level-triggered wakeups)"
        );
        // A wake from another thread lands too.
        let w2 = waker.clone();
        let t = std::thread::spawn(move || w2.wake());
        p.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(!evs.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn recv_nowait_returns_at_once_on_an_empty_socket() {
        let (_a, b) = pair();
        // Were the call to block, this timeout would end it as EAGAIN
        // too, so the elapsed time is what tells.
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let t0 = std::time::Instant::now();
        let err = recv_nowait(b.as_raw_fd(), &mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn recv_nowait_returns_buffered_bytes_exactly() {
        let (mut a, b) = pair();
        a.write_all(b"twelve bytes").unwrap();
        // A blocking peek waits until the bytes have landed.
        b.peek(&mut [0u8; 1]).unwrap();
        let mut buf = [0u8; 64];
        let n = recv_nowait(b.as_raw_fd(), &mut buf).unwrap();
        assert_eq!(&buf[..n], b"twelve bytes");
    }

    #[test]
    fn recv_nowait_reads_a_closed_peer_as_zero() {
        let (a, b) = pair();
        drop(a);
        assert_eq!(b.peek(&mut [0u8; 1]).unwrap(), 0, "the FIN has landed");
        assert_eq!(recv_nowait(b.as_raw_fd(), &mut [0u8; 16]).unwrap(), 0);
    }

    #[test]
    fn recv_nowait_leaves_the_socket_blocking() {
        let (_a, mut b) = pair();
        let err = recv_nowait(b.as_raw_fd(), &mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let t0 = std::time::Instant::now();
        assert!(b.read(&mut [0u8; 16]).is_err(), "nothing was sent");
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(40),
            "read returned after {waited:?}"
        );
    }

    #[test]
    fn nofile_limit_query_is_sane() {
        let cur = raise_nofile_limit(64).unwrap();
        assert!(cur >= 64, "soft limit {cur} below any sane floor");
    }
}

//! The ops plane's active half: a Prometheus text-exposition HTTP
//! listener hosted on the crate's own epoll primitives.
//!
//! [`MetricsHub`] is the registry: every observable component (a
//! manager + its farm/pool, the simulator, the reactor) registers a
//! closure-backed [`ScrapeSeries`] source; a scrape snapshots all of
//! them and renders one exposition document via `bskel_monitor::expo`.
//!
//! [`MetricsServer`] serves `GET /metrics` (and `GET /journal`, the
//! attached journal as JSONL) over HTTP/1.0 with *one* thread total —
//! accept and per-connection I/O are multiplexed on a [`Poller`], the
//! same readiness substrate the pool's reactor uses. A scrape therefore
//! costs zero thread spawns, no matter how many collectors poll it.

use crate::sys::{Event, Interest, Poller, Waker};
use bskel_monitor::expo::{self, Exposer, ScrapeSeries};
use bskel_monitor::{Journal, SensorSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most bytes of request head a connection may send before it is
/// dropped as malformed (we only ever need the request line).
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Poller token of the shutdown waker.
const WAKER_TOKEN: u64 = u64::MAX;

type SnapshotFn = Box<dyn Fn() -> SensorSnapshot + Send + Sync>;
type CountsFn = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

struct Source {
    tenant: String,
    manager: String,
    snapshot: SnapshotFn,
    counts: CountsFn,
}

/// The scrape-source registry shared between the running system and the
/// [`MetricsServer`].
///
/// Registration is closure-based so any layer can expose itself without
/// this crate depending on it: a manager registers a closure over its
/// ABC's last snapshot, a pool registers `FarmControl::sense`, the
/// simulator registers its scripted state.
#[derive(Default)]
pub struct MetricsHub {
    sources: Mutex<Vec<Source>>,
    journal: Mutex<Option<Arc<Journal>>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: an empty shared hub.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Registers one scrape source: `snapshot` yields the component's
    /// current beans, `counts` its cumulative per-kind event counts.
    pub fn register(
        &self,
        tenant: impl Into<String>,
        manager: impl Into<String>,
        snapshot: impl Fn() -> SensorSnapshot + Send + Sync + 'static,
        counts: impl Fn() -> Vec<(String, u64)> + Send + Sync + 'static,
    ) {
        self.sources.lock().push(Source {
            tenant: tenant.into(),
            manager: manager.into(),
            snapshot: Box::new(snapshot),
            counts: Box::new(counts),
        });
    }

    /// Attaches a journal: scrapes gain `bskel_journal_*` gauges and
    /// `GET /journal` serves its JSONL dump.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        *self.journal.lock() = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.lock().clone()
    }

    /// Number of registered scrape sources.
    pub fn len(&self) -> usize {
        self.sources.lock().len()
    }

    /// True when no source is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the full exposition document: every source's beans as
    /// gauges, its event counts as counters, plus journal health when a
    /// journal is attached.
    pub fn render(&self) -> String {
        let mut exposer = Exposer::new();
        {
            let sources = self.sources.lock();
            for s in sources.iter() {
                exposer.series(&ScrapeSeries {
                    tenant: s.tenant.clone(),
                    manager: s.manager.clone(),
                    snapshot: (s.snapshot)(),
                    event_counts: (s.counts)(),
                });
            }
        }
        if let Some(j) = self.journal() {
            exposer.counter(
                "bskel_journal_recorded_total",
                "Entries ever recorded in the ops journal.",
                &[],
                j.recorded() as f64,
            );
            exposer.counter(
                "bskel_journal_dropped_total",
                "Journal entries overwritten because the ring was full.",
                &[],
                j.dropped() as f64,
            );
            exposer.gauge(
                "bskel_journal_entries",
                "Entries currently held in the ops journal ring.",
                &[],
                j.len() as f64,
            );
        }
        exposer.render()
    }
}

/// Builds the standard `(kind, count)` event counters from a list of
/// event-kind labels (e.g. rendered off an `EventLog` snapshot), in
/// first-seen order.
pub fn count_kinds<I, S>(labels: I) -> Vec<(String, u64)>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out: Vec<(String, u64)> = Vec::new();
    for l in labels {
        let l = l.as_ref();
        if let Some(e) = out.iter_mut().find(|(k, _)| k == l) {
            e.1 += 1;
        } else {
            out.push((l.to_owned(), 1));
        }
    }
    out
}

/// One in-flight scrape connection's state.
struct ScrapeConn {
    stream: TcpStream,
    /// Request bytes read so far (until the blank line).
    head: Vec<u8>,
    /// Response bytes remaining to write; `Some` once routed.
    response: Option<Vec<u8>>,
    /// Write progress into `response`.
    written: usize,
}

/// The single-threaded exposition listener.
///
/// Dropping the server stops and joins its thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the serving
    /// thread. The chosen port is available via [`MetricsServer::addr`].
    pub fn start(addr: impl ToSocketAddrs, hub: Arc<MetricsHub>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let waker = waker.clone();
            std::thread::Builder::new()
                .name("bskel-metrics".into())
                .spawn(move || serve(listener, &mut poller, &waker, &stop, &hub))?
        };
        Ok(Self {
            addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The serve loop: accept + read + route + write, all readiness-driven
/// on one poller.
fn serve(
    listener: TcpListener,
    poller: &mut Poller,
    waker: &Waker,
    stop: &AtomicBool,
    hub: &MetricsHub,
) {
    let mut conns: HashMap<u64, ScrapeConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::with_capacity(16);
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        if poller.wait(&mut events, None).is_err() {
            // EINTR is retried inside `wait`; a real poller error leaves
            // nothing to multiplex on — stop serving (scrapes fail fast,
            // the monitored system is unaffected).
            return;
        }
        for ev in &events {
            match ev.token {
                WAKER_TOKEN => waker.drain(),
                LISTENER_TOKEN => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let token = next_token;
                            next_token += 1;
                            if poller
                                .add(stream.as_raw_fd(), token, Interest::READ)
                                .is_ok()
                            {
                                conns.insert(
                                    token,
                                    ScrapeConn {
                                        stream,
                                        head: Vec::with_capacity(256),
                                        response: None,
                                        written: 0,
                                    },
                                );
                            }
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                },
                token => {
                    let finished = match conns.get_mut(&token) {
                        Some(conn) => step_conn(conn, ev, hub),
                        None => continue,
                    };
                    let conn = conns.get_mut(&token).expect("stepped conn exists");
                    if finished {
                        let _ = poller.delete(conn.stream.as_raw_fd());
                        let _ = conn.stream.shutdown(Shutdown::Both);
                        conns.remove(&token);
                    } else if conn.response.is_some() {
                        // Routed: flip to write interest for the flush.
                        let _ = poller.modify(conn.stream.as_raw_fd(), token, Interest::READ_WRITE);
                    }
                }
            }
        }
    }
}

/// Advances one connection; returns `true` when it should be closed.
fn step_conn(conn: &mut ScrapeConn, ev: &Event, hub: &MetricsHub) -> bool {
    if ev.closed && conn.response.is_none() {
        return true;
    }
    if ev.readable && conn.response.is_none() {
        let mut buf = [0u8; 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return true, // peer closed before a full request
                Ok(n) => {
                    conn.head.extend_from_slice(&buf[..n]);
                    if conn.head.len() > MAX_REQUEST_HEAD {
                        return true;
                    }
                    if let Some(head_end) = find_head_end(&conn.head) {
                        let head = String::from_utf8_lossy(&conn.head[..head_end]).into_owned();
                        conn.response = Some(route(&head, hub));
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }
    if let Some(response) = &conn.response {
        // Try the flush opportunistically even before the WRITE-interest
        // flip lands: small responses usually go out in one call.
        loop {
            if conn.written == response.len() {
                return true;
            }
            match conn.stream.write(&response[conn.written..]) {
                Ok(0) => return true,
                Ok(n) => conn.written += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }
    false
}

/// Index one past the `\r\n\r\n` (or `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Routes a parsed request head to a full HTTP/1.0 response.
fn route(head: &str, hub: &MetricsHub) -> Vec<u8> {
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let path = path.split('?').next().unwrap_or_default();
    if method != "GET" {
        return http_response(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    match path {
        "/metrics" => http_response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &hub.render(),
        ),
        "/journal" => match hub.journal() {
            Some(j) => http_response(200, "application/x-ndjson", &j.to_jsonl()),
            None => http_response(404, "text/plain; charset=utf-8", "no journal attached\n"),
        },
        _ => http_response(404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn http_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut out = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
    out
}

// Re-export the parse-back API next to the server so conformance tests
// have one import surface.
pub use expo::{parse as parse_exposition, Exposition, Sample};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn hub_with_source() -> Arc<MetricsHub> {
        let hub = MetricsHub::shared();
        hub.register(
            "default",
            "AM_F",
            || {
                let mut s = SensorSnapshot::empty(1.0);
                s.arrival_rate = 5.0;
                s.num_workers = 3;
                s
            },
            || vec![("addWorker".into(), 2)],
        );
        hub
    }

    #[test]
    fn hub_renders_gauges_and_counters() {
        let hub = hub_with_source();
        let journal = Journal::shared();
        journal.note(0.0, "t", "x");
        hub.attach_journal(Arc::clone(&journal));
        let text = hub.render();
        let parsed = parse_exposition(&text).expect("conformant");
        assert_eq!(parsed.type_of("bskel_num_workers"), Some("gauge"));
        assert_eq!(parsed.type_of("bskel_events_total"), Some("counter"));
        assert_eq!(
            parsed.samples_of("bskel_journal_recorded_total")[0].value,
            1.0
        );
    }

    #[test]
    fn server_serves_metrics_and_journal_over_http() {
        let hub = hub_with_source();
        let journal = Journal::shared();
        journal.note(0.5, "pool", "hello");
        hub.attach_journal(Arc::clone(&journal));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub)).expect("bind");

        let fetch = |path: &str| -> (String, String) {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).expect("read response");
            let text = String::from_utf8(raw).expect("utf-8");
            let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
            (head.to_owned(), body.to_owned())
        };

        let (head, body) = fetch("/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        let parsed = parse_exposition(&body).expect("conformant body");
        assert!(!parsed.samples_of("bskel_arrival_rate").is_empty());

        let (head, body) = fetch("/journal");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let records = bskel_monitor::journal::parse_jsonl(&body).expect("jsonl body");
        assert_eq!(records.len(), 1);

        let (head, _) = fetch("/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    #[test]
    #[ignore = "counts the process's threads, which tests running beside it change; CI runs it alone with --ignored"]
    fn scrapes_spawn_no_threads() {
        // Thread census via /proc: the serving thread exists, scraping
        // twenty times must not add any.
        fn thread_count() -> usize {
            let f = std::fs::File::open("/proc/self/status").expect("procfs");
            for line in io::BufReader::new(f).lines().map_while(Result::ok) {
                if let Some(v) = line.strip_prefix("Threads:") {
                    return v.trim().parse().expect("thread count");
                }
            }
            panic!("no Threads: line");
        }
        let hub = hub_with_source();
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
        // Warm one scrape so lazy init doesn't skew the census.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut sink = String::new();
        let _ = s.read_to_string(&mut sink);
        let before = thread_count();
        for _ in 0..20 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut sink = String::new();
            let _ = s.read_to_string(&mut sink);
        }
        assert_eq!(thread_count(), before, "scrapes must not spawn threads");
    }

    #[test]
    fn count_kinds_orders_by_first_seen() {
        let counts = count_kinds(["a", "b", "a", "c", "a"]);
        assert_eq!(
            counts,
            vec![("a".into(), 3u64), ("b".into(), 1), ("c".into(), 1)]
        );
    }
}

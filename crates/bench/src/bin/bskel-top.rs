//! `bskel-top` — a terminal dashboard for the ops plane.
//!
//! Three data sources, same screen:
//!
//! * `--journal FILE` tails a JSONL ops journal (as flushed by
//!   [`bskel_monitor::Journal::to_jsonl`] or served at `/journal`),
//!   showing the latest sensor snapshot per source, cumulative event
//!   counts and the most recent event lines;
//! * `--url HOST:PORT` scrapes a live `/metrics` endpoint each frame
//!   and shows a per-tenant summary (share, queue, throughput, shed)
//!   followed by every `bskel_` series grouped by `(tenant, manager)`;
//! * `--prom FILE` renders a saved exposition document (e.g. the
//!   `METRICS_*.prom` CI artifact) through the same scrape view.
//!
//! By default the screen refreshes every `--interval` seconds (ANSI
//! clear, no curses dependency); `--once` prints a single frame and
//! exits, which is what CI uses to smoke-test the dashboard path.

use bskel_monitor::journal::parse_jsonl;
use bskel_monitor::{JournalEntry, JournalRecord};
use bskel_net::parse_exposition;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const RECENT_EVENTS: usize = 12;

/// Latest snapshot per source: time + borrowed bean list.
type LatestSnapshots<'a> = BTreeMap<&'a str, (f64, &'a [(Cow<'static, str>, f64)])>;
/// `(tenant, manager)` → `(name, extra-labels, value)` series rows.
type SeriesGroups = BTreeMap<(String, String), Vec<(String, String, f64)>>;

struct Options {
    journal: Option<String>,
    url: Option<String>,
    prom: Option<String>,
    once: bool,
    interval: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bskel-top (--journal FILE | --url HOST:PORT | --prom FILE) [--once] [--interval SECS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        journal: None,
        url: None,
        prom: None,
        once: false,
        interval: 1.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--journal" => opts.journal = Some(args.next().unwrap_or_else(|| usage())),
            "--url" => opts.url = Some(args.next().unwrap_or_else(|| usage())),
            "--prom" => opts.prom = Some(args.next().unwrap_or_else(|| usage())),
            "--once" => opts.once = true,
            "--interval" => {
                let raw = args.next().unwrap_or_else(|| usage());
                opts.interval = raw.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let sources = usize::from(opts.journal.is_some())
        + usize::from(opts.url.is_some())
        + usize::from(opts.prom.is_some());
    if sources != 1 {
        usage(); // exactly one source
    }
    opts
}

/// Renders one frame from a parsed journal.
fn render_journal(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    let mut latest_snapshot: LatestSnapshots = BTreeMap::new();
    let mut counts: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut events: Vec<(f64, &str, &str, String)> = Vec::new();
    for rec in records {
        match &rec.entry {
            JournalEntry::Snapshot { at, source, beans } => {
                latest_snapshot.insert(source, (*at, beans));
            }
            JournalEntry::Manager {
                at,
                manager,
                kind,
                detail,
            } => {
                *counts.entry((manager, kind)).or_default() += 1;
                events.push((*at, manager, kind, detail.clone().unwrap_or_default()));
            }
            JournalEntry::Farm {
                at,
                source,
                kind,
                detail,
            } => {
                *counts.entry((source, kind)).or_default() += 1;
                events.push((*at, source, kind, detail.clone()));
            }
            JournalEntry::Note { at, source, text } => {
                events.push((*at, source, "note", text.clone()));
            }
            JournalEntry::Actuation {
                at,
                manager,
                op,
                outcome,
                ..
            } => {
                *counts.entry((manager, "actuation")).or_default() += 1;
                events.push((*at, manager, "actuation", format!("{op} -> {outcome}")));
            }
        }
    }
    out.push_str(&format!("journal: {} records\n\n", records.len()));
    for (source, (at, beans)) in &latest_snapshot {
        out.push_str(&format!("[{source}] snapshot @ t={at:.3}s\n"));
        for (bean, value) in beans.iter() {
            out.push_str(&format!("  {bean:<24} {value:>14.4}\n"));
        }
        out.push('\n');
    }
    if !counts.is_empty() {
        out.push_str("event counts:\n");
        for ((source, kind), n) in &counts {
            out.push_str(&format!("  {source:<12} {kind:<20} {n:>8}\n"));
        }
        out.push('\n');
    }
    if !events.is_empty() {
        out.push_str(&format!("last {RECENT_EVENTS} events:\n"));
        let tail = events.len().saturating_sub(RECENT_EVENTS);
        for (at, source, kind, detail) in &events[tail..] {
            out.push_str(&format!(
                "  t={at:<10.3} {source:<12} {kind:<20} {detail}\n"
            ));
        }
    }
    out
}

/// The per-tenant summary table: one line per distinct `tenant` label,
/// keyed off the tenancy gauges the multi-tenant front-end exports.
fn render_tenant_summary(expo: &bskel_net::Exposition) -> String {
    let mut rows: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
    let columns = [
        ("bskel_tenant_share", 0usize),
        ("bskel_tenant_queue_depth", 1),
        ("bskel_tenant_throughput", 2),
        ("bskel_tasks_shed", 3),
    ];
    for (metric, slot) in columns {
        for sample in expo.samples_of(metric) {
            if let Some(tenant) = sample.label("tenant") {
                rows.entry(tenant).or_default()[slot] = sample.value;
            }
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>8} {:>12} {:>10}\n",
        "tenant", "share", "queued", "tasks/s", "shed"
    ));
    for (tenant, [share, queued, thr, shed]) in &rows {
        out.push_str(&format!(
            "{tenant:<16} {share:>8.3} {queued:>8.0} {thr:>12.2} {shed:>10.0}\n"
        ));
    }
    out.push('\n');
    out
}

/// Renders one frame from a live `/metrics` scrape body.
fn render_scrape(body: &str) -> Result<String, String> {
    let expo = parse_exposition(body)?;
    let mut out = String::new();
    out.push_str(&render_tenant_summary(&expo));
    // Group by (tenant, manager); unlabeled series go under a blank key.
    let mut groups: SeriesGroups = BTreeMap::new();
    for sample in &expo.samples {
        let tenant = sample.label("tenant").unwrap_or("").to_string();
        let manager = sample.label("manager").unwrap_or("").to_string();
        let extra = sample
            .labels
            .iter()
            .filter(|(k, _)| k != "tenant" && k != "manager")
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        groups.entry((tenant, manager)).or_default().push((
            sample.name.clone(),
            extra,
            sample.value,
        ));
    }
    out.push_str(&format!("{} series\n\n", expo.samples.len()));
    for ((tenant, manager), series) in &groups {
        if tenant.is_empty() && manager.is_empty() {
            out.push_str("[process]\n");
        } else {
            out.push_str(&format!("[{tenant}/{manager}]\n"));
        }
        for (name, extra, value) in series {
            let label = if extra.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{extra}}}")
            };
            out.push_str(&format!("  {label:<44} {value:>14.4}\n"));
        }
        out.push('\n');
    }
    Ok(out)
}

fn fetch_metrics(url: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(url).map_err(|e| format!("connect {url}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bskel\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("scrape returned {status:?}"));
    }
    Ok(body.to_string())
}

fn frame(opts: &Options) -> Result<String, String> {
    if let Some(path) = &opts.journal {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let records = parse_jsonl(&text)?;
        Ok(render_journal(&records))
    } else if let Some(url) = &opts.url {
        render_scrape(&fetch_metrics(url)?)
    } else if let Some(path) = &opts.prom {
        let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        render_scrape(&body)
    } else {
        unreachable!("parse_args enforces one source")
    }
}

fn main() {
    let opts = parse_args();
    loop {
        match frame(&opts) {
            Ok(text) => {
                if !opts.once {
                    print!("\x1b[2J\x1b[H"); // clear + home
                }
                print!("{text}");
                std::io::stdout().flush().ok();
            }
            Err(e) => {
                eprintln!("bskel-top: {e}");
                if opts.once {
                    std::process::exit(1);
                }
            }
        }
        if opts.once {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(opts.interval.max(0.1)));
    }
}

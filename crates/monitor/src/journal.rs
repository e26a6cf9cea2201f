//! Ring-buffered structured event journal with JSONL flush/parse.
//!
//! The paper's evaluation is read off event lines; a production system
//! additionally needs those lines to be *durable* and *replayable*. A
//! [`Journal`] is a fixed-capacity, lock-light ring that every layer of
//! the stack records into — manager events (mirrored from the core
//! `EventLog`), farm substrate fault events, per-control-cycle sensor
//! snapshots and free-form operational notes — and that can be flushed
//! to JSON-lines text and parsed back bit-exactly. A recorded journal is
//! the input of the simulator's deterministic replay path
//! (`bskel_sim::replay`): a chaos soak or a production incident becomes
//! a file that re-runs step-for-step against the production manager.
//!
//! The encoding is a deliberately tiny hand-rolled JSON subset (the
//! monitor crate stays dependency-light), with one extension: non-finite
//! floats — `idleFor` is `+inf` before the first arrival — encode as the
//! strings `"inf"`, `"-inf"` and `"nan"`, since JSON numbers cannot
//! carry them. Finite floats round-trip exactly through Rust's
//! shortest-representation `Display`.

use crate::clock::Time;
use crate::snapshot::SensorSnapshot;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity (entries) of [`Journal::new`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One structured record in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A manager (MAPE control loop) event, mirrored from the event log.
    Manager {
        /// Event time (seconds since run origin).
        at: Time,
        /// Emitting manager's name (e.g. `AM_F`).
        manager: String,
        /// Event-line label (`addWorker`, `contrLow`, …).
        kind: String,
        /// Optional detail (violation datum, worker count, …).
        detail: Option<String>,
    },
    /// A substrate fault event (worker panic/loss) from a farm or pool.
    Farm {
        /// Event time.
        at: Time,
        /// Recording substrate (farm/pool name).
        source: String,
        /// Substrate event label (`worker:lost`, `worker:panic`).
        kind: String,
        /// Human-readable cause.
        detail: String,
    },
    /// A full sensor snapshot, flattened to beans — the deterministic
    /// replay input.
    Snapshot {
        /// Monitoring timestamp.
        at: Time,
        /// The manager (or substrate) the snapshot was sensed for.
        source: String,
        /// `(bean, value)` pairs in `SensorSnapshot::beans` order. A
        /// recorded row borrows the standard beans' names; a parsed one
        /// owns every name.
        beans: Vec<(Cow<'static, str>, f64)>,
    },
    /// A free-form operational note (shutdown accounting, escalations).
    Note {
        /// Note time.
        at: Time,
        /// Recording component.
        source: String,
        /// The note text.
        text: String,
    },
    /// An actuation ordered by a manager and the plant's response. The
    /// outcome is a control-loop *input* (a `NoOp` emits no event line
    /// but still shapes the manager's state), so deterministic replay
    /// needs it recorded alongside the sensed snapshots.
    Actuation {
        /// Actuation time.
        at: Time,
        /// Ordering manager's name.
        manager: String,
        /// The ordered operation, rendered (`addWorkers(2)`, …).
        op: String,
        /// The plant's response: `applied`, `noop`, `refused:<reason>`
        /// or `error:<message>`.
        outcome: String,
        /// The control law that ordered the op (`rules`, `aimd`,
        /// `retry_budget`, `hedge`). Journals written before this field
        /// existed parse as `rules`.
        controller: String,
    },
}

impl JournalEntry {
    /// The entry's timestamp.
    pub fn at(&self) -> Time {
        match self {
            JournalEntry::Manager { at, .. }
            | JournalEntry::Farm { at, .. }
            | JournalEntry::Snapshot { at, .. }
            | JournalEntry::Note { at, .. }
            | JournalEntry::Actuation { at, .. } => *at,
        }
    }

    /// The entry's originating component (manager name or source).
    pub fn source(&self) -> &str {
        match self {
            JournalEntry::Manager { manager, .. } | JournalEntry::Actuation { manager, .. } => {
                manager
            }
            JournalEntry::Farm { source, .. }
            | JournalEntry::Snapshot { source, .. }
            | JournalEntry::Note { source, .. } => source,
        }
    }
}

/// A journal entry plus its global sequence number. Sequence numbers are
/// assigned under the ring lock and never reused, so they increase along
/// the ring and a reader can detect ring overwrite (a gap in `seq`) in a
/// flushed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Global record sequence number (0-based, monotonic).
    pub seq: u64,
    /// The recorded entry.
    pub entry: JournalEntry,
}

/// A fixed-capacity, shared, append-only-until-full event ring.
///
/// Recording is one short mutex hold (the ring) plus two relaxed atomic
/// bumps; when the ring is full the oldest entry is dropped and counted
/// in [`Journal::dropped`], so a runaway producer degrades to "recent
/// history only" instead of unbounded memory. Handles are shared by
/// cloning the `Arc` the journal is normally held in.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    ring: Mutex<VecDeque<JournalRecord>>,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Convenience: a shared default-capacity journal.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one entry, dropping the oldest when the ring is full.
    pub fn record(&self, entry: JournalEntry) {
        let mut ring = self.ring.lock();
        // Taken under the lock, so ring order is `seq` order.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(JournalRecord { seq, entry });
    }

    /// Records a manager event.
    pub fn manager_event(&self, at: Time, manager: &str, kind: &str, detail: Option<&str>) {
        self.record(JournalEntry::Manager {
            at,
            manager: manager.to_owned(),
            kind: kind.to_owned(),
            detail: detail.map(str::to_owned),
        });
    }

    /// Records a substrate fault event.
    pub fn farm_event(&self, at: Time, source: &str, kind: &str, detail: &str) {
        self.record(JournalEntry::Farm {
            at,
            source: source.to_owned(),
            kind: kind.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// Records a sensor snapshot (flattened to beans).
    pub fn snapshot(&self, at: Time, source: &str, snap: &SensorSnapshot) {
        self.record(JournalEntry::Snapshot {
            at,
            source: source.to_owned(),
            beans: snap.to_beans(),
        });
    }

    /// Records an ordered actuation and the plant's response.
    pub fn actuation(&self, at: Time, manager: &str, op: &str, outcome: &str) {
        self.actuation_by(at, manager, op, outcome, "rules");
    }

    /// Records an ordered actuation attributed to a specific control law.
    pub fn actuation_by(&self, at: Time, manager: &str, op: &str, outcome: &str, controller: &str) {
        self.record(JournalEntry::Actuation {
            at,
            manager: manager.to_owned(),
            op: op.to_owned(),
            outcome: outcome.to_owned(),
            controller: controller.to_owned(),
        });
    }

    /// Records a free-form operational note.
    pub fn note(&self, at: Time, source: &str, text: &str) {
        self.record(JournalEntry::Note {
            at,
            source: source.to_owned(),
            text: text.to_owned(),
        });
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries ever recorded (including since-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Entries overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the current contents, oldest first.
    pub fn entries(&self) -> Vec<JournalRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Renders the current contents as JSON-lines text (one entry per
    /// line, oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.ring.lock().iter() {
            encode_record(&mut out, rec);
            out.push('\n');
        }
        out
    }

    /// Writes the current contents to `path` as JSON-lines.
    pub fn flush_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Parses JSON-lines text produced by [`Journal::to_jsonl`] back into
/// records. Blank lines are skipped; any malformed line is an error
/// naming its (1-based) line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_record(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

// -- encoding ---------------------------------------------------------

fn encode_record(out: &mut String, rec: &JournalRecord) {
    out.push('{');
    let _ = write!(out, "\"seq\":{}", rec.seq);
    match &rec.entry {
        JournalEntry::Manager {
            at,
            manager,
            kind,
            detail,
        } => {
            out.push_str(",\"t\":\"manager\",\"at\":");
            encode_f64(out, *at);
            out.push_str(",\"manager\":");
            encode_str(out, manager);
            out.push_str(",\"kind\":");
            encode_str(out, kind);
            if let Some(d) = detail {
                out.push_str(",\"detail\":");
                encode_str(out, d);
            }
        }
        JournalEntry::Farm {
            at,
            source,
            kind,
            detail,
        } => {
            out.push_str(",\"t\":\"farm\",\"at\":");
            encode_f64(out, *at);
            out.push_str(",\"source\":");
            encode_str(out, source);
            out.push_str(",\"kind\":");
            encode_str(out, kind);
            out.push_str(",\"detail\":");
            encode_str(out, detail);
        }
        JournalEntry::Snapshot { at, source, beans } => {
            out.push_str(",\"t\":\"snapshot\",\"at\":");
            encode_f64(out, *at);
            out.push_str(",\"source\":");
            encode_str(out, source);
            out.push_str(",\"beans\":[");
            for (i, (name, v)) in beans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                encode_str(out, name);
                out.push(',');
                encode_f64(out, *v);
                out.push(']');
            }
            out.push(']');
        }
        JournalEntry::Note { at, source, text } => {
            out.push_str(",\"t\":\"note\",\"at\":");
            encode_f64(out, *at);
            out.push_str(",\"source\":");
            encode_str(out, source);
            out.push_str(",\"text\":");
            encode_str(out, text);
        }
        JournalEntry::Actuation {
            at,
            manager,
            op,
            outcome,
            controller,
        } => {
            out.push_str(",\"t\":\"actuation\",\"at\":");
            encode_f64(out, *at);
            out.push_str(",\"manager\":");
            encode_str(out, manager);
            out.push_str(",\"op\":");
            encode_str(out, op);
            out.push_str(",\"outcome\":");
            encode_str(out, outcome);
            out.push_str(",\"controller\":");
            encode_str(out, controller);
        }
    }
    out.push('}');
}

/// Finite floats use Rust's shortest round-trip `Display`; non-finite
/// values (JSON has no literal for them) encode as marker strings.
fn encode_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// -- decoding ---------------------------------------------------------

/// Minimal JSON value tree (only what the journal encoding emits).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_of(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    /// A float field, honouring the `"inf"`/`"-inf"`/`"nan"` markers.
    fn f64_of(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(v) => json_f64(v).ok_or_else(|| format!("field {key:?} is not a number")),
            None => Err(format!("missing number field {key:?}")),
        }
    }

    fn u64_of(&self, key: &str) -> Result<u64, String> {
        let v = self.f64_of(key)?;
        if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
            Ok(v as u64)
        } else {
            Err(format!("field {key:?} is not a u64"))
        }
    }
}

fn json_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let v = parse_json(line)?;
    let seq = v.u64_of("seq")?;
    let at = v.f64_of("at")?;
    let entry = match v.str_of("t")? {
        "manager" => JournalEntry::Manager {
            at,
            manager: v.str_of("manager")?.to_owned(),
            kind: v.str_of("kind")?.to_owned(),
            detail: match v.get("detail") {
                Some(Json::Str(s)) => Some(s.clone()),
                Some(Json::Null) | None => None,
                Some(_) => return Err("detail is not a string".into()),
            },
        },
        "farm" => JournalEntry::Farm {
            at,
            source: v.str_of("source")?.to_owned(),
            kind: v.str_of("kind")?.to_owned(),
            detail: v.str_of("detail")?.to_owned(),
        },
        "snapshot" => {
            let beans = match v.get("beans") {
                Some(Json::Arr(items)) => {
                    let mut beans = Vec::with_capacity(items.len());
                    for item in items {
                        let Json::Arr(pair) = item else {
                            return Err("bean entry is not a pair".into());
                        };
                        let (Some(Json::Str(name)), Some(value)) = (pair.first(), pair.get(1))
                        else {
                            return Err("bean pair is not [name, value]".into());
                        };
                        let value = json_f64(value)
                            .ok_or_else(|| "bean value is not a number".to_owned())?;
                        beans.push((Cow::Owned(name.clone()), value));
                    }
                    beans
                }
                _ => return Err("missing beans array".into()),
            };
            JournalEntry::Snapshot {
                at,
                source: v.str_of("source")?.to_owned(),
                beans,
            }
        }
        "note" => JournalEntry::Note {
            at,
            source: v.str_of("source")?.to_owned(),
            text: v.str_of("text")?.to_owned(),
        },
        "actuation" => JournalEntry::Actuation {
            at,
            manager: v.str_of("manager")?.to_owned(),
            op: v.str_of("op")?.to_owned(),
            outcome: v.str_of("outcome")?.to_owned(),
            controller: match v.get("controller") {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Null) | None => "rules".to_owned(),
                Some(_) => return Err("controller is not a string".into()),
            },
        },
        other => return Err(format!("unknown entry type {other:?}")),
    };
    Ok(JournalRecord { seq, entry })
}

/// Parses one JSON document (recursive descent over the subset the
/// journal writes: objects, arrays, strings, numbers, literals).
fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err("object key is not a string".into());
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|()| Json::Null),
        Some(_) => parse_number(b, pos).map(Json::Num),
        None => Err("unexpected end of input".into()),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // The journal only ever emits \u for control
                        // chars (< 0x20), so surrogate pairs never occur.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| "invalid utf-8 in string".to_owned())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SensorSnapshot {
        let mut s = SensorSnapshot::empty(2.5);
        s.arrival_rate = 0.1 + 0.2; // deliberately non-representable
        s.num_workers = 4;
        s.workers_lost = 2;
        s.extra.push(("speedGainRatio".into(), 1.75));
        s
    }

    #[test]
    fn roundtrip_all_entry_kinds() {
        let j = Journal::new(64);
        j.manager_event(1.0, "AM_F", "addWorker", Some("2"));
        j.manager_event(1.5, "AM_F", "contrLow", None);
        j.farm_event(2.0, "rfarm", "worker:lost", "slot 3 died: \"refused\"\n");
        j.snapshot(2.5, "AM_F", &sample_snapshot());
        j.note(3.0, "pool", "poller escalation");
        j.actuation(3.5, "AM_F", "addWorkers(2)", "refused:no resources");
        let text = j.to_jsonl();
        let parsed = parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, j.entries());
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        let j = Journal::new(8);
        // An empty snapshot carries idleFor = +inf.
        j.snapshot(0.0, "m", &SensorSnapshot::empty(0.0));
        let parsed = parse_jsonl(&j.to_jsonl()).unwrap();
        let JournalEntry::Snapshot { beans, .. } = &parsed[0].entry else {
            panic!("not a snapshot");
        };
        let idle = beans
            .iter()
            .find(|(n, _)| n == crate::snapshot::beans::IDLE_FOR)
            .unwrap()
            .1;
        assert!(idle.is_infinite() && idle > 0.0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let j = Journal::new(3);
        for i in 0..5 {
            j.note(i as f64, "s", "x");
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.recorded(), 5);
        let entries = j.entries();
        assert_eq!(entries.first().unwrap().seq, 2, "oldest two dropped");
        assert_eq!(entries.last().unwrap().seq, 4);
    }

    #[test]
    fn concurrent_recorders_keep_seq_in_ring_order() {
        let j = Journal::new(1 << 16);
        std::thread::scope(|s| {
            for t in 0..8 {
                let j = &j;
                s.spawn(move || {
                    for i in 0..5_000 {
                        j.note(f64::from(i), "s", if t % 2 == 0 { "even" } else { "odd" });
                    }
                });
            }
        });
        let entries = j.entries();
        assert_eq!(entries.len(), 40_000);
        let inversions = entries.windows(2).filter(|w| w[0].seq >= w[1].seq).count();
        assert_eq!(inversions, 0, "seq must increase along the ring");
    }

    #[test]
    fn float_values_roundtrip_exactly() {
        for v in [0.30000000000000004, 1e-300, -2.5e17, 43.51234567891234] {
            let mut s = String::new();
            encode_f64(&mut s, v);
            let parsed = parse_json(&s).unwrap();
            assert_eq!(json_f64(&parsed), Some(v), "{v} mangled via {s}");
        }
    }

    #[test]
    fn hostile_strings_roundtrip() {
        let j = Journal::new(4);
        j.note(
            0.0,
            "s",
            "quotes \" backslash \\ newline \n unicode é \u{1} end",
        );
        let parsed = parse_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(parsed, j.entries());
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(parse_jsonl("{\"seq\":0}").is_err());
        let err = parse_jsonl(
            "{\"seq\":0,\"t\":\"note\",\"at\":0,\"source\":\"s\",\"text\":\"x\"}\nnot json",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}

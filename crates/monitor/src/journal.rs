//! Ring-buffered structured event journal with JSONL flush/parse.
//!
//! The paper's evaluation is read off event lines; a production system
//! additionally needs those lines to be *durable* and *replayable*. A
//! [`Journal`] is a fixed-capacity, lock-light ring that every layer of
//! the stack records into — manager events (the only store of the core
//! `EventLog`, which reads them back), farm substrate fault events,
//! per-control-cycle sensor snapshots and free-form operational notes —
//! and that can be flushed to JSON-lines text and parsed back
//! bit-exactly. A recorded journal is
//! the input of the simulator's deterministic replay path
//! (`bskel_sim::replay`): a chaos soak or a production incident becomes
//! a file that re-runs step-for-step against the production manager.
//!
//! The ring holds compact records, so that recording costs no more than
//! the decision it records: names and labels are [`Text`]s — static
//! labels or shared names the caller holds — and a snapshot is the bean
//! table's value row plus its extras. Each record kind has one recorder,
//! and each takes its names as `impl Into<Text>`: a `&'static str` is
//! stored as is, and an `Arc<str>` is shared. Other text — a `String`, a
//! borrowed `&Arc<str>` name, notes, details, extra bean names — is copied
//! once per record: into the record itself when short (a manager's name,
//! an `addWorker`'s `"3"`), into a shared string otherwise.
//! [`JournalEntry`] is the read side, built from the compact records by
//! [`Journal::entries`] and [`parse_jsonl`].
//!
//! The encoding is a deliberately tiny hand-rolled JSON subset (the
//! monitor crate stays dependency-light), with one extension: non-finite
//! floats — `idleFor` is `+inf` before the first arrival — encode as the
//! strings `"inf"`, `"-inf"` and `"nan"`, since JSON numbers cannot
//! carry them. Finite floats round-trip exactly through Rust's
//! shortest-representation `Display`.

use crate::clock::Time;
use crate::push_fmt;
use crate::snapshot::{SensorSnapshot, BEAN_TABLE};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// Default ring capacity (entries) of [`Journal::new`].
pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

/// A snapshot's table beans as values, in bean-table order.
type Row = [f64; BEAN_TABLE.len()];

/// A string a journal record holds without an allocation of its own.
#[derive(Debug, Clone)]
pub enum Text {
    /// A label with static lifetime (`applied`, `addWorker`, `rules`).
    Static(&'static str),
    /// A shared string: a name the caller holds (a manager's, a cached
    /// operation form), or long text allocated once for its record.
    Shared(Arc<str>),
    /// Short text copied into the record itself.
    Inline(ShortText),
}

/// Bytes a [`ShortText`] holds: as many as keep a [`Text`] the size of
/// its other variants (three words).
const SHORT: usize = 22;

/// Up to 22 bytes of UTF-8 held by value.
#[derive(Clone, Copy)]
pub struct ShortText {
    len: u8,
    bytes: [u8; SHORT],
}

impl ShortText {
    /// `s` copied, when it fits.
    fn new(s: &str) -> Option<Self> {
        let mut bytes = [0; SHORT];
        bytes.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        Some(Self {
            len: s.len() as u8,
            bytes,
        })
    }

    fn as_str(&self) -> &str {
        // Copied from a `&str` whole, so the bytes are UTF-8.
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("copied from a str")
    }
}

impl std::fmt::Debug for ShortText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

impl From<&'static str> for Text {
    fn from(s: &'static str) -> Self {
        Text::Static(s)
    }
}

impl From<Arc<str>> for Text {
    fn from(s: Arc<str>) -> Self {
        Text::Shared(s)
    }
}

/// A name the caller keeps sharing: copied into the record when short,
/// which costs less than counting one more reference to it (and one less
/// when the record is dropped), else shared.
impl From<&Arc<str>> for Text {
    fn from(s: &Arc<str>) -> Self {
        ShortText::new(s).map_or_else(|| Text::Shared(Arc::clone(s)), Text::Inline)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        text(&s)
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Shared(s) => s,
            Text::Inline(s) => s.as_str(),
        }
    }
}

/// Free-form text, copied once for its record: inline when it fits.
fn text(s: &str) -> Text {
    ShortText::new(s).map_or_else(|| Text::Shared(s.into()), Text::Inline)
}

/// One structured record in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A manager (MAPE control loop) event: the event log records its
    /// events here and nowhere else.
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
        /// The control law that ordered the op (`rules` or `aimd`; older
        /// journals may hold the retired `retry_budget` and `hedge`, which
        /// parse like any other string). Journals written before this
        /// field existed parse as `rules`.
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

/// One record as the ring holds it: no `String` or bean vector of its own.
#[derive(Debug, Clone)]
enum Compact {
    Manager {
        manager: Text,
        kind: Text,
        detail: Option<Text>,
    },
    Farm {
        source: Text,
        kind: Text,
        detail: Text,
    },
    /// With `table`, the snapshot has the bean table's layout: its
    /// table beans are a row of [`Ring::rows`] and `extra` holds the beans
    /// after them. Without (a parsed foreign snapshot), `extra` holds
    /// every bean.
    Snapshot {
        source: Text,
        table: bool,
        extra: Vec<(Text, f64)>,
    },
    Note {
        source: Text,
        text: Text,
    },
    Actuation {
        manager: Text,
        op: Text,
        outcome: Text,
        controller: Text,
    },
}

/// A compact record with its sequence number and time.
#[derive(Debug, Clone)]
struct Slot {
    seq: u64,
    at: Time,
    rec: Compact,
}

impl Slot {
    /// Whether the slot's snapshot owns a row of [`Ring::rows`].
    fn has_row(&self) -> bool {
        matches!(self.rec, Compact::Snapshot { table: true, .. })
    }

    /// The read-side record; `row` is the slot's own.
    fn materialise(&self, row: Option<&Row>) -> JournalRecord {
        let at = self.at;
        let entry = match &self.rec {
            Compact::Manager {
                manager,
                kind,
                detail,
            } => JournalEntry::Manager {
                at,
                manager: manager.to_string(),
                kind: kind.to_string(),
                detail: detail.as_ref().map(|d| d.to_string()),
            },
            Compact::Farm {
                source,
                kind,
                detail,
            } => JournalEntry::Farm {
                at,
                source: source.to_string(),
                kind: kind.to_string(),
                detail: detail.to_string(),
            },
            Compact::Snapshot { source, extra, .. } => {
                let table = row.into_iter().flat_map(|row| {
                    BEAN_TABLE
                        .iter()
                        .zip(row)
                        .map(|(def, v)| (Cow::Borrowed(def.name), *v))
                });
                JournalEntry::Snapshot {
                    at,
                    source: source.to_string(),
                    beans: table
                        .chain(extra.iter().map(|(n, v)| (Cow::Owned(n.to_string()), *v)))
                        .collect(),
                }
            }
            Compact::Note { source, text } => JournalEntry::Note {
                at,
                source: source.to_string(),
                text: text.to_string(),
            },
            Compact::Actuation {
                manager,
                op,
                outcome,
                controller,
            } => JournalEntry::Actuation {
                at,
                manager: manager.to_string(),
                op: op.to_string(),
                outcome: outcome.to_string(),
                controller: controller.to_string(),
            },
        };
        JournalRecord {
            seq: self.seq,
            entry,
        }
    }
}

/// What the ring lock guards.
#[derive(Debug, Default)]
struct Ring {
    slots: VecDeque<Slot>,
    /// The rows of the table-layout snapshots among `slots`, in the same
    /// order: kept apart so that every other record stays small.
    rows: VecDeque<Row>,
    /// The next record's `seq`, taken under the lock so that ring order
    /// is `seq` order.
    next_seq: u64,
}

/// A fixed-capacity, shared, append-only-until-full event ring.
///
/// Recording is one short mutex hold (the ring); when the ring is full the
/// oldest entry is dropped and counted in [`Journal::dropped`], so a
/// runaway producer degrades to "recent history only" instead of
/// unbounded memory. Handles are shared by cloning the `Arc` the journal
/// is normally held in.
///
/// Each record kind has exactly one recorder — [`Journal::manager_event`],
/// [`Journal::farm_event`], [`Journal::snapshot`], [`Journal::actuation`]
/// and [`Journal::note`] — plus [`Journal::record`] for parsed entries.
/// Names are taken as `impl Into<Text>` and stored without a lookup.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    ring: Mutex<Ring>,
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
            ring: Mutex::new(Ring {
                slots: VecDeque::with_capacity(capacity.min(1024)),
                ..Ring::default()
            }),
        }
    }

    /// Convenience: a shared default-capacity journal.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Appends `rec` (with `row`, the table beans of a table-layout
    /// snapshot), dropping the oldest record when the ring is full.
    fn push(&self, at: Time, rec: Compact, row: Option<Row>) {
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.slots.len() == self.capacity
            && ring.slots.pop_front().is_some_and(|old| old.has_row())
        {
            ring.rows.pop_front();
        }
        ring.rows.extend(row);
        ring.slots.push_back(Slot { seq, at, rec });
    }

    /// Records one entry (a parsed or external one), dropping the oldest
    /// when the ring is full.
    pub fn record(&self, entry: JournalEntry) {
        match entry {
            JournalEntry::Manager {
                at,
                manager,
                kind,
                detail,
            } => self.manager_event(at, manager, kind, detail.as_deref()),
            JournalEntry::Farm {
                at,
                source,
                kind,
                detail,
            } => self.farm_event(at, source, kind, &detail),
            JournalEntry::Snapshot { at, source, beans } => {
                // Only the table's layout has a row; a foreign snapshot
                // keeps every bean by name.
                let table = beans.len() >= BEAN_TABLE.len()
                    && beans
                        .iter()
                        .zip(BEAN_TABLE)
                        .all(|((n, _), def)| n == def.name);
                let mut rest = beans.iter();
                let row = table.then(|| {
                    let mut row = [0.0; BEAN_TABLE.len()];
                    for (v, (_, bean)) in row.iter_mut().zip(&mut rest) {
                        *v = *bean;
                    }
                    row
                });
                let rec = Compact::Snapshot {
                    source: source.into(),
                    table,
                    extra: rest.map(|(n, v)| (text(n), *v)).collect(),
                };
                self.push(at, rec, row);
            }
            JournalEntry::Note { at, source, text } => self.note(at, source, &text),
            JournalEntry::Actuation {
                at,
                manager,
                op,
                outcome,
                controller,
            } => self.actuation(at, manager, op, outcome, controller),
        }
    }

    /// Records a manager event; only the detail is copied.
    pub fn manager_event(
        &self,
        at: Time,
        manager: impl Into<Text>,
        kind: impl Into<Text>,
        detail: Option<&str>,
    ) {
        let rec = Compact::Manager {
            manager: manager.into(),
            kind: kind.into(),
            detail: detail.map(text),
        };
        self.push(at, rec, None);
    }

    /// Records a substrate fault event; only the detail is copied.
    pub fn farm_event(
        &self,
        at: Time,
        source: impl Into<Text>,
        kind: impl Into<Text>,
        detail: &str,
    ) {
        let rec = Compact::Farm {
            source: source.into(),
            kind: kind.into(),
            detail: text(detail),
        };
        self.push(at, rec, None);
    }

    /// Records a sensor snapshot: its table beans as a value row, its
    /// extras copied by name. Without extras nothing is allocated.
    pub fn snapshot(&self, at: Time, source: impl Into<Text>, snap: &SensorSnapshot) {
        let rec = Compact::Snapshot {
            source: source.into(),
            table: true,
            extra: snap.extra.iter().map(|(n, v)| (text(n), *v)).collect(),
        };
        self.push(at, rec, Some(snap.values()));
    }

    /// Records an actuation ordered by `controller` (`rules`, `aimd`, …)
    /// and the plant's response (`applied`, `noop`, `refused:<reason>` or
    /// `error:<message>`).
    pub fn actuation(
        &self,
        at: Time,
        manager: impl Into<Text>,
        op: impl Into<Text>,
        outcome: impl Into<Text>,
        controller: impl Into<Text>,
    ) {
        let rec = Compact::Actuation {
            manager: manager.into(),
            op: op.into(),
            outcome: outcome.into(),
            controller: controller.into(),
        };
        self.push(at, rec, None);
    }

    /// Records a free-form operational note; the text is copied.
    pub fn note(&self, at: Time, source: impl Into<Text>, text: &str) {
        let rec = Compact::Note {
            source: source.into(),
            text: self::text(text),
        };
        self.push(at, rec, None);
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().slots.len()
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
        self.ring.lock().next_seq
    }

    /// Entries overwritten because the ring was full: the ring holds the
    /// latest records, so every earlier one was dropped.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock();
        ring.next_seq - ring.slots.len() as u64
    }

    /// Calls `f` on every current record with its row, oldest first.
    /// Only a copy is made under the ring lock, and names are shared, so
    /// the copy holds no string of its own.
    fn for_each_record(&self, mut f: impl FnMut(&Slot, Option<&Row>)) {
        let (slots, rows): (Vec<Slot>, Vec<Row>) = {
            let ring = self.ring.lock();
            (
                ring.slots.iter().cloned().collect(),
                ring.rows.iter().copied().collect(),
            )
        };
        let mut rows = rows.iter();
        for slot in &slots {
            let row = slot
                .has_row()
                .then(|| rows.next().expect("every table snapshot has a row"));
            f(slot, row);
        }
    }

    /// A copy of the current contents, oldest first.
    pub fn entries(&self) -> Vec<JournalRecord> {
        let mut out = Vec::new();
        self.for_each_record(|slot, row| out.push(slot.materialise(row)));
        out
    }

    /// Renders the current contents as JSON-lines text (one entry per
    /// line, oldest first). Records are encoded after the ring lock is
    /// released, so a scrape holds recorders up only for the copy.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.for_each_record(|slot, row| {
            encode_record(&mut out, &slot.materialise(row));
            out.push('\n');
        });
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
    push_fmt(out, format_args!("\"seq\":{}", rec.seq));
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
        push_fmt(out, format_args!("{v}"));
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
                push_fmt(out, format_args!("\\u{:04x}", c as u32));
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
        j.actuation(
            3.5,
            "AM_F",
            "addWorkers(2)",
            "refused:no resources",
            "rules",
        );
        let text = j.to_jsonl();
        let parsed = parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, j.entries());
    }

    #[test]
    fn short_text_is_held_inline_and_reads_back_whole() {
        let fits = "ä".repeat(SHORT / 2);
        let long = format!("{fits}x");
        assert!(matches!(text(""), Text::Inline(_)));
        assert!(matches!(text(&fits), Text::Inline(_)));
        assert!(matches!(text(&long), Text::Shared(_)));
        for s in ["", "3", &fits, &long] {
            assert_eq!(&*text(s), s);
        }
        assert!(std::mem::size_of::<Text>() <= 24);
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
    fn full_ring_keeps_the_last_records_with_their_seq() {
        let j = Journal::new(4);
        let mut odd = sample_snapshot();
        odd.extra.push(("nodeLoad".into(), f64::NAN));
        odd.extra.push(("tail".into(), f64::NEG_INFINITY));
        odd.service_time = f64::INFINITY;
        let foreign = JournalEntry::Snapshot {
            at: 9.0,
            source: "sim".into(),
            beans: vec![("nodeLoad".into(), f64::NAN), ("arrivalRate".into(), 1.0)],
        };
        let mut want = Vec::new();
        for i in 0..10u32 {
            let at = f64::from(i);
            match i % 5 {
                0 => j.snapshot(at, "AM_F", &odd),
                1 => j.manager_event(at, "AM_F", "addWorker", Some(&i.to_string())),
                2 => j.actuation(at, "AM_F", "addWorkers(1)", format!("refused:{i}"), "rules"),
                3 => j.note(at, "pool", "escalation"),
                _ => j.record(foreign.clone()),
            }
            want.push(j.entries().pop().expect("just recorded"));
        }
        assert_eq!(j.dropped(), 6);
        let got = j.entries();
        let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        // `Debug` compares the NaNs too.
        assert_eq!(format!("{got:?}"), format!("{:?}", &want[6..]));
    }

    /// Every recorder, each with a `&'static str`, an `Arc<str>` and a
    /// `String` for its names, re-records byte for byte.
    #[test]
    fn recording_methods_and_record_agree() {
        let fast = Journal::new(64);
        let arc = |s: &str| -> Arc<str> { s.into() };
        let own = |s: &str| s.to_owned();
        fast.manager_event(1.0, "AM_F", "addWorker", Some("2"));
        fast.manager_event(1.0, arc("AM_F"), arc("contrLow"), None);
        fast.manager_event(1.0, own("AM_F"), own("abcError:gone"), Some("3"));
        fast.farm_event(2.0, "rfarm", "worker:lost", "slot 3 died");
        fast.farm_event(2.0, arc("rfarm"), arc("worker:panic"), "slot 1");
        fast.farm_event(2.0, own("rfarm"), own("worker:lost"), "slot 2");
        fast.snapshot(2.5, "AM_F", &sample_snapshot());
        fast.snapshot(2.5, arc("AM_F"), &SensorSnapshot::empty(2.5));
        fast.snapshot(2.5, own("AM_F"), &sample_snapshot());
        fast.actuation(3.5, "AM_F", "addWorkers(2)", "applied", "rules");
        fast.actuation(
            3.5,
            arc("AM_F"),
            arc("balanceLoad"),
            arc("error:gone"),
            arc("aimd"),
        );
        fast.actuation(
            3.5,
            own("AM_F"),
            own("removeWorkers(1)"),
            own("noop"),
            own("hedge"),
        );
        fast.note(4.0, "pool", "poller escalation");
        fast.note(4.0, arc("pool"), "escalated");
        fast.note(4.0, own("pool"), "shut down");
        let replayed = Journal::new(64);
        for r in fast.entries() {
            replayed.record(r.entry);
        }
        assert_eq!(replayed.to_jsonl(), fast.to_jsonl());
    }

    #[test]
    fn jsonl_scrapes_race_recorders_cleanly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let j = Journal::new(4_096);
        for i in 0..4_096 {
            j.snapshot(f64::from(i), "AM_F", &sample_snapshot());
        }
        let done = AtomicBool::new(false);
        let scrapes = std::thread::scope(|s| {
            let scraper = s.spawn(|| {
                let mut scrapes = 0;
                while !done.load(Ordering::Acquire) || scrapes == 0 {
                    let records = parse_jsonl(&j.to_jsonl()).expect("a scrape parses");
                    assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
                    scrapes += 1;
                }
                scrapes
            });
            for i in 0..10_000 {
                j.manager_event(f64::from(i), "AM_F", "addWorker", Some("1"));
            }
            done.store(true, Ordering::Release);
            scraper.join().expect("scraper panicked")
        });
        assert!(scrapes > 0);
        assert_eq!(j.recorded(), 14_096);
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

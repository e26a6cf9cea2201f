//! Prometheus text-exposition (format 0.0.4) rendering and parse-back.
//!
//! The ops plane exposes every [`SensorSnapshot`] bean as a gauge and
//! every event-line kind as a monotone counter, labelled with the
//! owning `tenant` and `manager`. This module is pure string-shuffling:
//! the actual HTTP listener lives in the net crate (on the epoll
//! reactor primitives), and hands rendering to [`render`].
//!
//! A small [`parse`] function reads an exposition back into samples —
//! used by the conformance tests ("every `standard_schema` bean appears
//! exactly once, correctly typed") and by the `bskel-top` dashboard
//! when tailing a live endpoint.

use crate::push_fmt;
use crate::snapshot::{SensorSnapshot, BEAN_TABLE};

/// One labelled time-series to scrape: a manager's latest snapshot plus
/// its cumulative event counts.
#[derive(Debug, Clone)]
pub struct ScrapeSeries {
    /// Tenant label. The multi-tenant front-end registers one series per
    /// attached tenant under its real name (plus the aggregate pool as
    /// `_pool`); single-tenant substrates use `"default"`.
    pub tenant: String,
    /// Manager (or substrate) name label.
    pub manager: String,
    /// Latest sensor snapshot.
    pub snapshot: SensorSnapshot,
    /// Cumulative `(event kind label, count)` pairs.
    pub event_counts: Vec<(String, u64)>,
}

/// Maps a camelCase bean name to its Prometheus metric name:
/// `arrivalRate` → `bskel_arrival_rate`. Non-alphanumeric characters
/// are folded to `_` so extra beans with exotic names stay legal.
pub fn metric_name(bean: &str) -> String {
    let mut out = String::with_capacity(bean.len() + 12);
    push_metric_name(&mut out, bean);
    out
}

/// Appends [`metric_name`]`(bean)` to `out`.
fn push_metric_name(out: &mut String, bean: &str) {
    out.push_str("bskel_");
    let mut prev_lower = false;
    for c in bean.chars() {
        if c.is_ascii_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
            prev_lower = false;
        } else if c.is_ascii_alphanumeric() {
            out.push(c);
            prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
        } else {
            if !out.ends_with('_') {
                out.push('_');
            }
            prev_lower = false;
        }
    }
}

/// HELP text for extra beans; standard beans carry their table row's.
const EXTRA_HELP: &str = "Sensor bean exported by a behavioural-skeleton manager.";

/// Ends a sample line: a space, the value the Prometheus way
/// (`+Inf`/`-Inf`/`NaN`), a newline.
fn end_line(out: &mut String, v: f64) {
    out.push(' ');
    if v.is_finite() {
        push_fmt(out, format_args!("{v}"));
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
    out.push('\n');
}

/// Appends `key="value"`, escaping the value per the exposition format
/// (`\\`, `\"`, `\n`).
fn push_label(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str("=\"");
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A rendered-metric accumulator that writes each `# HELP`/`# TYPE`
/// header once and groups all samples of a metric under it. Each sample
/// is rendered into its family's text as it is added, so a sample
/// allocates nothing beyond the growth of that text.
#[derive(Debug, Default)]
pub struct Exposer {
    families: Vec<MetricFamily>,
    /// Family index of each [`BEAN_TABLE`] row, in row order, once a
    /// series has added it.
    rows: Vec<usize>,
}

#[derive(Debug)]
struct MetricFamily {
    name: String,
    help: String,
    kind: &'static str,
    /// The rendered sample lines.
    samples: String,
}

impl MetricFamily {
    /// Starts a sample line; the caller appends labels and the value.
    fn line(&mut self) -> &mut String {
        self.samples.push_str(&self.name);
        &mut self.samples
    }
}

impl Exposer {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the family called `name`, added if new.
    fn family(&mut self, name: &str, help: &str, kind: &'static str) -> usize {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return i;
        }
        self.families.push(MetricFamily {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
            samples: String::new(),
        });
        self.families.len() - 1
    }

    /// Index of the family of bean-table row `row`. Every series adds
    /// all rows in order, so a row not yet mapped is the next one.
    fn row_family(&mut self, row: usize) -> usize {
        if let Some(&f) = self.rows.get(row) {
            return f;
        }
        debug_assert_eq!(self.rows.len(), row);
        let def = &BEAN_TABLE[row];
        let f = self.family(&metric_name(def.name), def.help, "gauge");
        self.rows.push(f);
        f
    }

    fn sample(
        &mut self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let f = self.family(name, help, kind);
        let out = self.families[f].line();
        if !labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_label(out, k, v);
            }
            out.push('}');
        }
        end_line(out, value);
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.sample(name, help, "gauge", labels, value);
    }

    /// Adds a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.sample(name, help, "counter", labels, value);
    }

    /// Adds one scrape series: every bean as a gauge plus the event
    /// counters.
    pub fn series(&mut self, s: &ScrapeSeries) {
        let mut labels = String::new();
        push_label(&mut labels, "tenant", &s.tenant);
        labels.push(',');
        push_label(&mut labels, "manager", &s.manager);
        let mut extra_name = String::new();
        // `beans` lists the table's rows first, in order, then extras.
        for (i, (bean, value)) in s.snapshot.beans().enumerate() {
            let f = if i < BEAN_TABLE.len() {
                self.row_family(i)
            } else {
                extra_name.clear();
                push_metric_name(&mut extra_name, bean);
                self.family(&extra_name, EXTRA_HELP, "gauge")
            };
            let out = self.families[f].line();
            out.push('{');
            out.push_str(&labels);
            out.push('}');
            end_line(out, value);
        }
        if s.event_counts.is_empty() {
            return;
        }
        let f = self.family(
            "bskel_events_total",
            "Cumulative manager event lines by kind.",
            "counter",
        );
        for (kind, count) in &s.event_counts {
            let out = self.families[f].line();
            out.push('{');
            out.push_str(&labels);
            out.push(',');
            push_label(out, "kind", kind);
            out.push('}');
            end_line(out, *count as f64);
        }
    }

    /// Renders the accumulated families as exposition text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            push_fmt(&mut out, format_args!("# HELP {} {}\n", f.name, f.help));
            push_fmt(&mut out, format_args!("# TYPE {} {}\n", f.name, f.kind));
            out.push_str(&f.samples);
        }
        out
    }
}

/// Renders a set of scrape series as a complete exposition document.
pub fn render(series: &[ScrapeSeries]) -> String {
    let mut e = Exposer::new();
    for s in series {
        e.series(s);
    }
    e.render()
}

// -- parse-back -------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in order of appearance.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Looks up a label value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `(metric name, type)` pairs from `# TYPE` lines, in order.
    pub types: Vec<(String, String)>,
    /// All sample lines, in order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The declared type of a metric, if any.
    pub fn type_of(&self, name: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }

    /// All samples of one metric.
    pub fn samples_of(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }
}

/// Parses exposition text, validating the 0.0.4 shape: `# TYPE` must
/// precede its samples, types must be known, label syntax must be
/// well-formed, values must parse (including `+Inf`/`-Inf`/`NaN`).
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let kind = it
                .next()
                .ok_or(format!("line {lineno}: TYPE missing kind"))?;
            if !matches!(
                kind,
                "gauge" | "counter" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if out.types.iter().any(|(n, _)| n == name) {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            if out.samples.iter().any(|s| s.name == name) {
                return Err(format!("line {lineno}: TYPE for {name} after its samples"));
            }
            out.types.push((name.to_owned(), kind.to_owned()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        out.samples
            .push(parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ']).ok_or("no value on sample line")?;
    let name = &line[..name_end];
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let b = line.as_bytes();
    let mut pos = name_end;
    if b[pos] == b'{' {
        // Label values may hold `}` and `,`: the set ends at the first
        // `}` outside a quoted value.
        pos += 1;
        while b.get(pos) != Some(&b'}') {
            let eq = line[pos..].find('=').ok_or("label missing '='")? + pos;
            let key = line[pos..eq].trim().to_owned();
            if b.get(eq + 1) != Some(&b'"') {
                return Err("label value not quoted".into());
            }
            let mut v = String::new();
            let mut j = eq + 2;
            loop {
                match b.get(j) {
                    None => return Err("unterminated label value".into()),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        match b.get(j + 1) {
                            Some(b'\\') => v.push('\\'),
                            Some(b'"') => v.push('"'),
                            Some(b'n') => v.push('\n'),
                            _ => return Err("bad label escape".into()),
                        }
                        j += 2;
                    }
                    Some(_) => {
                        let c = line[j..].chars().next().ok_or("bad utf-8")?;
                        v.push(c);
                        j += c.len_utf8();
                    }
                }
            }
            labels.push((key, v));
            pos = j + 1;
            match b.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {}
                _ => return Err("unterminated label set".into()),
            }
        }
        pos += 1;
    }
    let mut parts = line[pos..].split_whitespace();
    let raw = parts.next().ok_or("no value on sample line")?;
    let value = match raw {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        _ => raw
            .parse::<f64>()
            .map_err(|_| format!("bad value {raw:?}"))?,
    };
    // An optional timestamp may follow; anything further is an error.
    if parts.next().is_some() && parts.next().is_some() {
        return Err("trailing garbage after timestamp".into());
    }
    Ok(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fold_camel_case() {
        assert_eq!(metric_name("arrivalRate"), "bskel_arrival_rate");
        assert_eq!(metric_name("netRttMs"), "bskel_net_rtt_ms");
        assert_eq!(metric_name("numWorkers"), "bskel_num_workers");
        assert_eq!(metric_name("weird bean!"), "bskel_weird_bean_");
    }

    #[test]
    fn render_and_parse_back() {
        let mut snap = SensorSnapshot::empty(1.0);
        snap.arrival_rate = 12.5;
        snap.num_workers = 4;
        let series = ScrapeSeries {
            tenant: "default".into(),
            manager: "AM_F".into(),
            snapshot: snap,
            event_counts: vec![("addWorker".into(), 3), ("contrLow".into(), 2)],
        };
        let text = render(std::slice::from_ref(&series));
        let parsed = parse(&text).expect("conformant output");
        assert_eq!(parsed.type_of("bskel_arrival_rate"), Some("gauge"));
        assert_eq!(parsed.type_of("bskel_events_total"), Some("counter"));
        let s = parsed.samples_of("bskel_arrival_rate");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].label("manager"), Some("AM_F"));
        assert_eq!(s[0].value, 12.5);
        // idleFor is +Inf in an empty snapshot and must survive.
        assert!(parsed.samples_of("bskel_idle_for")[0].value.is_infinite());
        let ev = parsed.samples_of("bskel_events_total");
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].label("kind"), Some("addWorker"));
        assert_eq!(ev[0].value, 3.0);
    }

    #[test]
    fn every_table_bean_gets_its_row_help() {
        let series = ScrapeSeries {
            tenant: "default".into(),
            manager: "AM_F".into(),
            snapshot: SensorSnapshot::empty(0.0).with_extra("nodeLoad", 0.5),
            event_counts: Vec::new(),
        };
        let text = render(&[series]);
        for def in BEAN_TABLE {
            assert_ne!(def.help, EXTRA_HELP, "{}", def.name);
            let line = format!("# HELP {} {}\n", metric_name(def.name), def.help);
            assert!(text.contains(&line), "missing {line:?}");
        }
        assert!(text.contains(&format!("# HELP bskel_node_load {EXTRA_HELP}\n")));
    }

    #[test]
    fn label_values_escape() {
        let mut e = Exposer::new();
        e.gauge("m", "h", &[("k", "a\"b\\c\nd")], 1.0);
        let text = e.render();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.samples[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn type_after_samples_is_rejected() {
        let text = "m 1\n# TYPE m gauge\n";
        assert!(parse(text).is_err());
    }
}

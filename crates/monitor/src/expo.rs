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

use crate::snapshot::{SensorSnapshot, BEAN_TABLE};
use std::fmt::Write as _;

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
    out
}

/// HELP text for extra beans; standard beans carry their table row's.
const EXTRA_HELP: &str = "Sensor bean exported by a behavioural-skeleton manager.";

/// Formats a sample value the Prometheus way (`+Inf`/`-Inf`/`NaN`).
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_owned()
    } else if v > 0.0 {
        "+Inf".to_owned()
    } else {
        "-Inf".to_owned()
    }
}

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A rendered-metric accumulator that writes each `# HELP`/`# TYPE`
/// header once and groups all samples of a metric under it.
#[derive(Debug, Default)]
pub struct Exposer {
    families: Vec<MetricFamily>,
}

#[derive(Debug)]
struct MetricFamily {
    name: String,
    help: String,
    kind: &'static str,
    samples: Vec<(Vec<(String, String)>, f64)>,
}

impl Exposer {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &'static str) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            &mut self.families[i]
        } else {
            self.families.push(MetricFamily {
                name: name.to_owned(),
                help: help.to_owned(),
                kind,
                samples: Vec::new(),
            });
            self.families.last_mut().expect("just pushed")
        }
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, "gauge").samples.push((
            labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            value,
        ));
    }

    /// Adds a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, "counter").samples.push((
            labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            value,
        ));
    }

    /// Adds one scrape series: every bean as a gauge plus the event
    /// counters.
    pub fn series(&mut self, s: &ScrapeSeries) {
        let tenant = s.tenant.clone();
        let manager = s.manager.clone();
        // `to_beans` lists the table's rows first, in order, then extras.
        for (i, (bean, value)) in s.snapshot.to_beans().into_iter().enumerate() {
            self.gauge(
                &metric_name(&bean),
                BEAN_TABLE.get(i).map_or(EXTRA_HELP, |d| d.help),
                &[("tenant", &tenant), ("manager", &manager)],
                value,
            );
        }
        for (kind, count) in &s.event_counts {
            self.counter(
                "bskel_events_total",
                "Cumulative manager event lines by kind.",
                &[("tenant", &tenant), ("manager", &manager), ("kind", kind)],
                *count as f64,
            );
        }
    }

    /// Renders the accumulated families as exposition text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for (labels, value) in &f.samples {
                out.push_str(&f.name);
                if !labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", format_value(*value));
            }
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
    let rest = if line.as_bytes()[name_end] == b'{' {
        let close = line[name_end..].find('}').ok_or("unterminated label set")? + name_end;
        let body = &line[name_end + 1..close];
        let mut pos = 0usize;
        let b = body.as_bytes();
        while pos < b.len() {
            let eq = body[pos..].find('=').ok_or("label missing '='")? + pos;
            let key = body[pos..eq].trim().to_owned();
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
                        let c = body[j..].chars().next().ok_or("bad utf-8")?;
                        v.push(c);
                        j += c.len_utf8();
                    }
                }
            }
            labels.push((key, v));
            pos = j + 1;
            if b.get(pos) == Some(&b',') {
                pos += 1;
            }
        }
        &line[close + 1..]
    } else {
        &line[name_end..]
    };
    let mut parts = rest.split_whitespace();
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

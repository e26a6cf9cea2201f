//! Spans recorded by a traced run, kept in memory and written at exit.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer. Every traced task has a root span `task` whose id is
//! the task's position in the stream, with children `due` (due time to
//! the entry into submit: generator lateness or credit wait), `submit`
//! (entry to return of the submit call) and `deliver` (return of submit
//! to ordered delivery). Control workloads record one `control_cycle`
//! root per traced cycle, with the isolated layer calls replayed on that
//! cycle's snapshot as children. A span's self time is its duration minus
//! its children's.

use crate::load::GenStamp;
use crate::stats;
use serde::Value;
use std::collections::HashMap;

/// One span. Times are ns from the child process's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier shared by all spans of one task or cycle.
    pub trace: u64,
    /// What the span covers.
    pub name: &'static str,
    /// Name of the parent span within the same trace, if any.
    pub parent: Option<&'static str>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Joins the generator's stamps with the drain's delivery times into the
/// four spans of each traced task. Tasks still undelivered when the run
/// ended get no spans.
pub fn task_spans(stamps: &[GenStamp], delivered: &[(u64, u64)]) -> Vec<Span> {
    let delivered: HashMap<u64, u64> = delivered.iter().copied().collect();
    let mut spans = Vec::with_capacity(stamps.len() * 4);
    for s in stamps {
        let Some(&done_ns) = delivered.get(&s.seq) else {
            continue;
        };
        let child = |name, start_ns, end_ns| Span {
            trace: s.seq,
            name,
            parent: Some("task"),
            start_ns,
            end_ns,
        };
        spans.push(Span {
            trace: s.seq,
            name: "task",
            parent: None,
            start_ns: s.due_ns,
            end_ns: done_ns,
        });
        spans.push(child("due", s.due_ns, s.enter_ns));
        spans.push(child("submit", s.enter_ns, s.return_ns));
        spans.push(child("deliver", s.return_ns, done_ns));
    }
    spans
}

/// Median duration of the spans called `name`, ns; 0 when there are none.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    stats::median(&d)
}

/// Median self time (duration minus children) of root spans `name`, ns.
pub fn median_self_ns(spans: &[Span], name: &'static str) -> f64 {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(name)) {
        *children.entry(s.trace).or_default() += s.dur_ns();
    }
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_none())
        .map(|s| {
            s.dur_ns()
                .saturating_sub(children.get(&s.trace).copied().unwrap_or(0)) as f64
        })
        .collect();
    stats::median(&d)
}

/// The span file's JSON: an array of objects.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("trace".into(), Value::Number(s.trace as f64)),
                    ("name".into(), Value::String(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::String(p.into())),
                    ),
                    ("start_ns".into(), Value::Number(s.start_ns as f64)),
                    ("end_ns".into(), Value::Number(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_spans_nest_and_self_time_is_the_remainder() {
        let stamps = [
            GenStamp {
                seq: 64,
                due_ns: 100,
                enter_ns: 110,
                return_ns: 150,
            },
            GenStamp {
                seq: 128,
                due_ns: 200,
                enter_ns: 200,
                return_ns: 210,
            },
        ];
        let spans = task_spans(&stamps, &[(64, 400)]);
        assert_eq!(spans.len(), 4, "the undelivered task has no spans");
        assert_eq!(median_ns(&spans, "submit"), 40.0);
        assert_eq!(median_ns(&spans, "task"), 300.0);
        // due 10 + submit 40 + deliver 250 cover the task exactly.
        assert_eq!(median_self_ns(&spans, "task"), 0.0);
        assert!(matches!(to_json(&spans), Value::Array(a) if a.len() == 4));
    }
}

//! Structured simulation tracing.
//!
//! Every experiment-facing question about *where time goes* — the
//! four-way latency breakdown, queueing effects, cold-start storms —
//! needs event-level visibility that end-of-run summaries cannot give.
//! This module provides it:
//!
//! * [`TraceEvent`] — one structured span / instant / counter sample,
//!   stamped with virtual time and a resource track.
//! * [`TraceHandle`] — the sink: a cheaply clonable handle shared by
//!   every component of one simulation. When disabled it holds no buffer and
//!   every emission is a single predictable branch — **zero-cost when
//!   disabled**: no allocation, no formatting, no locking.
//! * [`Trace`] — the finished, time-sorted event list with two
//!   exporters: line-delimited JSON ([`Trace::to_jsonl`]) and the Chrome
//!   `trace_event` format ([`Trace::to_chrome_trace`]), loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Tracing never draws from any random stream and never influences
//! simulation state, so enabling it cannot change a single metric; and
//! because events are emitted in deterministic engine order, two runs of
//! the same seed produce byte-identical exports regardless of host
//! thread count.
//!
//! # Examples
//!
//! ```rust
//! use hivemind_sim::time::{SimDuration, SimTime};
//! use hivemind_sim::trace::{ArgValue, TraceHandle};
//!
//! let tracer = TraceHandle::enabled();
//! tracer.instant("sched", "placement", 3, SimTime::ZERO, vec![("server", ArgValue::U64(3))]);
//! tracer.span(
//!     "task",
//!     "exec",
//!     0,
//!     SimTime::ZERO,
//!     SimDuration::from_millis(250),
//!     vec![],
//! );
//! let trace = tracer.finish().expect("enabled handle yields a trace");
//! assert_eq!(trace.len(), 2);
//! assert!(trace.to_chrome_trace().contains("\"ph\":\"X\""));
//!
//! // A disabled handle costs one branch and produces nothing.
//! let off = TraceHandle::disabled();
//! off.counter("net", "link.load", 0, SimTime::ZERO, 1.0);
//! assert!(off.finish().is_none());
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A typed argument value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (serialized with shortest round-trip formatting).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text (JSON-escaped on export).
    Str(String),
}

impl ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::I64(v) => out.push_str(&v.to_string()),
            ArgValue::F64(v) => out.push_str(&format!("{v:?}")),
            ArgValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            ArgValue::Str(s) => write_json_string(out, s),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: something with a start time and a duration
    /// (Chrome phase `X`).
    Span,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
    /// A sampled counter value; the timeline of samples for one
    /// `(name, track)` pair forms a step function (Chrome phase `C`).
    Counter,
}

impl EventKind {
    fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual start time.
    pub ts: SimTime,
    /// Span duration (zero for instants and counters).
    pub dur: SimDuration,
    /// Record kind.
    pub kind: EventKind,
    /// Category (subsystem): `"task"`, `"sched"`, `"container"`,
    /// `"net"`, `"faas"`, `"edge"`, …
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Resource lane the event belongs to (device id, server id, link
    /// index…). Rendered as the Chrome `tid` so each resource gets its
    /// own row in the viewer.
    pub track: u32,
    /// Typed key/value details.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A cheaply clonable tracing handle shared across one simulation's
/// components.
///
/// Disabled handles (the default) carry no buffer: every emission
/// helper checks [`TraceHandle::is_enabled`] first and returns
/// immediately, so the cost of compiled-in tracing is one branch per
/// potential event. Enabled handles append to a shared event list
/// through interior mutability, which is sound because each simulation
/// replicate runs on exactly one thread.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    buf: Option<Rc<RefCell<Vec<TraceEvent>>>>,
}

impl TraceHandle {
    /// A handle that discards everything (the default).
    pub fn disabled() -> TraceHandle {
        TraceHandle { buf: None }
    }

    /// A handle that collects into a fresh shared buffer.
    pub fn enabled() -> TraceHandle {
        TraceHandle {
            buf: Some(Rc::default()),
        }
    }

    /// Whether this handle keeps events.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records a pre-built event (no-op when disabled).
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().push(ev);
        }
    }

    /// Emits a complete span.
    pub fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts: SimTime,
        dur: SimDuration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(TraceEvent {
            ts,
            dur,
            kind: EventKind::Span,
            cat,
            name,
            track,
            args,
        });
    }

    /// Emits an instant marker.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(TraceEvent {
            ts,
            dur: SimDuration::ZERO,
            kind: EventKind::Instant,
            cat,
            name,
            track,
            args,
        });
    }

    /// Emits a counter sample.
    pub fn counter(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts: SimTime,
        value: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(TraceEvent {
            ts,
            dur: SimDuration::ZERO,
            kind: EventKind::Counter,
            cat,
            name,
            track,
            args: vec![("value", ArgValue::F64(value))],
        });
    }

    /// Drains the shared buffer into a finished [`Trace`], or `None`
    /// when the handle is disabled. Other clones of the handle remain
    /// valid (and start filling a now-empty buffer).
    pub fn finish(&self) -> Option<Trace> {
        self.buf.as_ref().map(|buf| Trace::new(buf.take()))
    }
}

/// A finished, time-ordered trace.
///
/// Construction stably sorts events by start time, so records emitted
/// by different components during the same engine tick keep their
/// deterministic emission order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from raw events (stable-sorted by start time).
    pub fn new(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| e.ts);
        Trace { events }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of span durations for one `(cat, name)` pair — the bridge
    /// between a trace and the run's summary statistics.
    pub fn span_total(&self, cat: &str, name: &str) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.cat == cat && e.name == name)
            .map(|e| e.dur)
            .sum()
    }

    /// Number of events matching `(cat, name)` of any kind.
    pub fn count(&self, cat: &str, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .count()
    }

    /// Serializes to line-delimited JSON: one event object per line,
    /// timestamps and durations in integer nanoseconds. Byte-
    /// deterministic for a given event sequence.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&format!(
                "{{\"ts\":{},\"dur\":{},\"kind\":\"{}\",\"cat\":\"{}\",\"name\":\"{}\",\"track\":{},\"args\":{{",
                e.ts.as_nanos(),
                e.dur.as_nanos(),
                e.kind.label(),
                e.cat,
                e.name,
                e.track,
            ));
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":"));
                v.write_json(&mut out);
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Serializes to the Chrome `trace_event` JSON format (an object
    /// with a `traceEvents` array), loadable in `chrome://tracing` and
    /// Perfetto. Timestamps are microseconds as required by the format;
    /// all events share `pid` 0 and use [`TraceEvent::track`] as `tid`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = e.ts.as_nanos() as f64 / 1e3;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:?},",
                e.name,
                e.cat,
                match e.kind {
                    EventKind::Span => "X",
                    EventKind::Instant => "i",
                    EventKind::Counter => "C",
                },
                ts_us,
            ));
            if e.kind == EventKind::Span {
                out.push_str(&format!("\"dur\":{:?},", e.dur.as_nanos() as f64 / 1e3));
            }
            if e.kind == EventKind::Instant {
                out.push_str("\"s\":\"t\",");
            }
            out.push_str(&format!("\"pid\":0,\"tid\":{},\"args\":{{", e.track));
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":"));
                v.write_json(&mut out);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.span("task", "exec", 0, t(0), SimDuration::from_secs(1), vec![]);
        h.instant("sched", "placement", 0, t(0), vec![]);
        h.counter("net", "load", 0, t(0), 3.0);
        assert!(h.finish().is_none());
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = TraceHandle::enabled();
        let b = a.clone();
        a.counter("x", "c", 0, t(1), 1.0);
        b.counter("x", "c", 0, t(2), 2.0);
        let trace = a.finish().unwrap();
        assert_eq!(trace.len(), 2);
        // finish() drained the shared buffer.
        assert_eq!(b.finish().unwrap().len(), 0);
    }

    #[test]
    fn trace_sorts_stably_by_time() {
        let h = TraceHandle::enabled();
        h.instant("a", "late", 0, t(5), vec![]);
        h.instant("a", "early", 0, t(1), vec![]);
        h.instant("b", "tied-first", 0, t(1), vec![]);
        let trace = h.finish().unwrap();
        let names: Vec<&str> = trace.events().iter().map(|e| e.name).collect();
        // Stable: "early" (emitted before "tied-first" at the same ts)
        // keeps emission order.
        assert_eq!(names, vec!["early", "tied-first", "late"]);
    }

    #[test]
    fn span_totals_and_counts() {
        let h = TraceHandle::enabled();
        h.span(
            "task",
            "exec",
            0,
            t(0),
            SimDuration::from_millis(100),
            vec![],
        );
        h.span(
            "task",
            "exec",
            1,
            t(1),
            SimDuration::from_millis(250),
            vec![],
        );
        h.span(
            "task",
            "network",
            0,
            t(2),
            SimDuration::from_millis(40),
            vec![],
        );
        let trace = h.finish().unwrap();
        assert_eq!(
            trace.span_total("task", "exec"),
            SimDuration::from_millis(350)
        );
        assert_eq!(trace.count("task", "exec"), 2);
        assert_eq!(trace.count("task", "nope"), 0);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let h = TraceHandle::enabled();
        h.instant(
            "sched",
            "placement",
            7,
            t(1),
            vec![("server", ArgValue::U64(7))],
        );
        h.counter("net", "link.load", 2, t(2), 1.5);
        let jsonl = h.finish().unwrap().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ts\":1000000000,\"dur\":0,\"kind\":\"instant\",\"cat\":\"sched\",\"name\":\"placement\",\"track\":7,\"args\":{\"server\":7}}"
        );
        assert!(lines[1].contains("\"value\":1.5"));
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let h = TraceHandle::enabled();
        h.span(
            "task",
            "exec",
            3,
            t(1),
            SimDuration::from_millis(250),
            vec![("task", ArgValue::U64(9))],
        );
        h.instant("container", "cold_start", 1, t(1), vec![]);
        h.counter("faas", "running", 0, t(2), 12.0);
        let chrome = h.finish().unwrap().to_chrome_trace();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"X\",\"ts\":1000000.0,\"dur\":250000.0"));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("\"tid\":3"));
    }

    #[test]
    fn exporters_write_exact_bytes() {
        // A span carrying every `ArgValue` kind, an instant at the same
        // timestamp, and an earlier counter emitted last.
        let h = TraceHandle::enabled();
        h.span(
            "task",
            "exec",
            3,
            SimTime::from_nanos(1_250_000_000),
            SimDuration::from_micros(250_500),
            vec![
                ("task", ArgValue::U64(9)),
                ("delta", ArgValue::I64(-4)),
                ("ratio", ArgValue::F64(0.1)),
                ("warm", ArgValue::Bool(true)),
                ("label", ArgValue::Str("a\"b\\c\nd\u{1}".to_string())),
            ],
        );
        h.instant(
            "sched",
            "placement",
            7,
            SimTime::from_nanos(1_250_000_000),
            vec![("server", ArgValue::Bool(false))],
        );
        h.counter("net", "link.load", 0, SimTime::from_nanos(1_500), 1e21);
        let trace = h.finish().unwrap();
        assert_eq!(
            trace.to_jsonl(),
            concat!(
                r#"{"ts":1500,"dur":0,"kind":"counter","cat":"net","name":"link.load","track":0,"args":{"value":1e21}}"#,
                "\n",
                r#"{"ts":1250000000,"dur":250500000,"kind":"span","cat":"task","name":"exec","track":3,"args":{"task":9,"delta":-4,"ratio":0.1,"warm":true,"label":"a\"b\\c\nd\u0001"}}"#,
                "\n",
                r#"{"ts":1250000000,"dur":0,"kind":"instant","cat":"sched","name":"placement","track":7,"args":{"server":false}}"#,
                "\n",
            )
        );
        assert_eq!(
            trace.to_chrome_trace(),
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"link.load","cat":"net","ph":"C","ts":1.5,"pid":0,"tid":0,"args":{"value":1e21}},"#,
                r#"{"name":"exec","cat":"task","ph":"X","ts":1250000.0,"dur":250500.0,"pid":0,"tid":3,"args":{"task":9,"delta":-4,"ratio":0.1,"warm":true,"label":"a\"b\\c\nd\u0001"}},"#,
                r#"{"name":"placement","cat":"sched","ph":"i","ts":1250000.0,"s":"t","pid":0,"tid":7,"args":{"server":false}}"#,
                "]}",
            )
        );
    }

    #[test]
    fn strings_are_json_escaped() {
        let mut out = String::new();
        ArgValue::Str("a\"b\\c\nd\u{1}".to_string()).write_json(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}

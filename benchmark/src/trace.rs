//! Spans recorded by hivebench around the public calls it makes. They live
//! in memory and are written as JSONL when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, start and end in nanoseconds since the recorder
/// was created, and the span that was open when it started.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder. A disabled recorder keeps nothing.
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an entered span.
#[must_use = "pass the handle to `Spans::exit`"]
pub struct Entered(Option<usize>);

impl Spans {
    /// A recorder that keeps every span.
    pub fn on() -> Spans {
        Spans {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing (the timed repetitions).
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &str) -> Entered {
        if !self.on {
            return Entered(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Entered(Some(id))
    }

    /// Closes a span and every span opened inside it.
    pub fn exit(&mut self, entered: Entered) {
        let Some(id) = entered.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (an id or `null`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String never fails");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut spans = Spans::on();
        let outer = spans.enter("run");
        let inner = spans.enter("probe.net");
        spans.exit(inner);
        spans.exit(outer);
        let s = &spans.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let jsonl = spans.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"run\","));
        assert!(lines[0].ends_with("\"parent\":null}"));
        assert!(lines[1].ends_with("\"parent\":0}"));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut spans = Spans::off();
        let e = spans.enter("run");
        spans.exit(e);
        assert!(spans.to_jsonl().is_empty());
    }
}

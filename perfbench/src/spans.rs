//! In-memory spans recorded by the benchmark around public calls.
//!
//! A span has a name, a start, an end and a parent. Every span of one
//! operation (one pipeline run, or one replayed fleet submission) carries
//! that operation's id. Spans are kept in memory while the run measures
//! and written out as JSON when it ends, so writing them never lands inside
//! a timed region.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of this span in the log.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer or call name, e.g. `middleware.trace`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle for a span that has been entered but not yet exited.
#[must_use = "a span must be closed with SpanLog::exit"]
pub struct Open(usize);

/// A single-threaded span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new operation; later spans carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span. Returns its
    /// wall time in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        self.exit_as(open, None)
    }

    /// Closes `open` and, when `rename` is given, renames it — for calls
    /// whose span name depends on their outcome (a cache hit or a miss).
    pub fn exit_as(&mut self, open: Open, rename: Option<&'static str>) -> f64 {
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        if let Some(name) = rename {
            span.name = name;
        }
        span.secs()
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        let secs = self.exit(open);
        (out, secs)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed wall time of the direct children of span `id`.
    pub fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// The spans as a JSON document (`{"spans": [...]}`), one object per
    /// span with `op`, `id`, `parent`, `name`, `start_ns` and `end_ns`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_ops() {
        let mut log = SpanLog::new();
        let op = log.begin_op();
        let root = log.enter("pipeline");
        let ((), _) = log.time("child", || ());
        let inner = log.enter("other");
        let _ = log.exit_as(inner, Some("renamed"));
        let _ = log.exit(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == op));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "renamed");
        assert!(log.children_secs(0) <= spans[0].secs());
        assert!(log.to_json().contains("\"name\": \"renamed\""));
    }
}

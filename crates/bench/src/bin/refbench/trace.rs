//! Spans recorded around calls into each layer, kept in memory and
//! written as JSONL when the benchmark ends.
//!
//! A disabled [`Tracer`] records nothing and reads no clock, so the
//! untraced measurements run the same code with tracing off.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `count` is the number of layer calls the
/// span covers (4096 for a full driver batch, 1 for a single call).
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Which request the span belongs to: `<workload>/<repetition>`.
    pub trace: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Collects spans for one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trace: String,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            trace: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from now.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the trace id stamped on spans recorded from now on.
    pub fn set_trace(&mut self, trace: impl Into<String>) {
        if self.enabled {
            self.trace = trace.into();
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.push(name, now, now, 0);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, crediting it with `count` calls.
    pub fn end(&mut self, count: u64) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let i = self.open.pop().expect("span end without a matching begin");
        self.spans[i].end_ns = now;
        self.spans[i].count = count;
    }

    /// Records an already-timed interval as a child of the innermost
    /// open span (driver batches time themselves; this reuses their
    /// clock reads instead of adding two more).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, count: u64) {
        if self.enabled {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, s, e, count);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per line, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{own}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, count: u64) {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            id: self.spans.len() as u64,
            parent,
            trace: self.trace.clone(),
            name: name.to_owned(),
            start_ns,
            end_ns,
            count,
        });
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: "t".into(),
            name: "s".into(),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50), // overlaps span 1
            span(3, Some(1), 15, 20),
            span(4, None, 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 20, 5, 10]);
        // The self times of a nested tree sum to the root's wall.
        let tree = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 15, 20),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin("a");
        t.record("b", Instant::now(), Instant::now(), 4096);
        t.end(1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::on();
        t.set_trace("w/0");
        t.begin("outer");
        t.begin("inner");
        t.end(1);
        let now = Instant::now();
        t.record("batch", now, now, 4096);
        t.end(2);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((s[0].count, s[1].count, s[2].count), (2, 1, 4096));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"trace\":\"w/0\""));
        assert!(jsonl.lines().next().unwrap().contains("\"parent\":null"));
    }
}

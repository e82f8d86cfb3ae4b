//! In-memory spans recorded around the benchmark's calls into the
//! program, written out when the run ends.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! an id shared by every span of one query, commit or set-up. A span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Id shared by the spans of one query, commit or set-up.
    pub id: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// A span with no parent.
    pub fn root(name: &'static str, id: u64, start: Instant, end: Instant) -> Self {
        Span { name, id, parent: None, start, end }
    }

    /// A span caused by the span at index `parent`.
    pub fn child(name: &'static str, id: u64, parent: usize, start: Instant, end: Instant) -> Self {
        Span { name, id, parent: Some(parent), start, end }
    }

    fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Collects spans while enabled; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every push a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), next_id: 0 }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id for the spans of one query, commit or set-up.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records `span` and returns its index (for children).
    pub fn push(&mut self, span: Span) -> usize {
        if self.enabled {
            self.spans.push(span);
        }
        self.spans.len().saturating_sub(1)
    }

    /// Records a root span and returns its index.
    pub fn root(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) -> usize {
        self.push(Span::root(name, id, start, end))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut cover: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start.max(s.start), self.spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort();
            let mut covered = Duration::ZERO;
            let mut reach: Option<Instant> = None;
            for (a, b) in cover {
                let a = reach.map_or(a, |r| a.max(r));
                if b > a {
                    covered += b - a;
                }
                reach = Some(reach.map_or(b, |r| r.max(b)));
            }
            let e = out.entry(s.name).or_default();
            e.0 += s.duration().saturating_sub(covered);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line: name, id,
    /// parent index, start and end in microseconds since the tracer
    /// was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.id,
                us(s.start),
                us(s.end)
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let mut tr = Tracer::new(true);
        let root = tr.root("query", 1, ms(0), ms(10));
        tr.push(Span::child("a", 1, root, ms(1), ms(4)));
        tr.push(Span::child("b", 1, root, ms(3), ms(6)));
        let st = tr.self_times();
        assert_eq!(st["query"], (Duration::from_millis(5), 1));
        assert_eq!(st["a"], (Duration::from_millis(3), 1));
        assert_eq!(st["b"], (Duration::from_millis(3), 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = Instant::now();
        tr.root("query", 1, t, t);
        assert!(tr.spans().is_empty());
    }
}

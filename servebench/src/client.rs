//! The closed-loop client.
//!
//! One thread issues every query from a fixed number of slots, each
//! with at most one query outstanding: a slot submits its next query
//! only when its last one has replied, at once or after a fixed think
//! time. Latency runs from just before the `submit` call to the moment
//! the reply is available:
//!
//! * a reply that is ready when `submit` returns (a cache hit, an
//!   index-only answer, a refusal) is stamped by the client right
//!   after `submit`, with one non-blocking `try_wait`;
//! * any other ticket goes to the watcher thread that owns the query's
//!   outstanding slot. The watcher blocks in `wait` and stamps the
//!   reply the instant it returns.
//!
//! Each outstanding slot has its own watcher, so no reply ever waits
//! behind another query's: a hit is never charged for the traversal
//! queued ahead of it, whatever order the client collects replies in.

use crate::inputs::K;
use crate::trace::{Span, Tracer};
use cgraph_core::{KhopQuery, QueryResult, QueryTicket, ServiceError, ServiceGroup};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Queries kept outstanding by the client.
pub const OUTSTANDING: usize = 64;

/// Records reserved up front: untouched capacity costs address space,
/// not resident memory, and the record array never moves while a run
/// is measured.
const RESERVED_RECORDS: usize = 1 << 20;

/// Every name [`error_kind`] returns.
pub const ERROR_KINDS: [&str; 6] =
    ["ShutDown", "BatchFailed", "DeadlineExceeded", "InvalidQuery", "InvalidConfig", "Durability"];

/// The `ServiceError` variant name, for failure accounting.
pub fn error_kind(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::ShutDown => "ShutDown",
        ServiceError::BatchFailed(_) => "BatchFailed",
        ServiceError::DeadlineExceeded => "DeadlineExceeded",
        ServiceError::InvalidQuery(_) => "InvalidQuery",
        ServiceError::InvalidConfig(_) => "InvalidConfig",
        ServiceError::Durability(_) => "Durability",
    }
}

/// One distinct served answer: what a `(source, epoch)` returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Source vertex.
    pub source: u64,
    /// Epoch the answer is stamped with.
    pub epoch: u64,
    /// Vertices reached.
    pub visited: u64,
    /// Vertices first reached per hop.
    pub per_level: Vec<u64>,
}

/// The distinct answers of a run. Every later answer for the same
/// `(source, epoch)` is compared with the first one on arrival, so the
/// memory held grows with the distinct answers, not with the queries.
#[derive(Default)]
pub struct Answers {
    index: HashMap<(u64, u64), u32>,
    /// Distinct answers, in arrival order.
    pub list: Vec<Answer>,
    /// Answers that differed from an earlier answer to the same
    /// `(source, epoch)`.
    pub conflicts: Vec<String>,
}

impl Answers {
    fn record(&mut self, source: u64, r: QueryResult) -> u32 {
        if let Some(&i) = self.index.get(&(source, r.epoch)) {
            let a = &self.list[i as usize];
            if a.visited != r.visited || a.per_level != r.per_level {
                self.conflicts.push(format!(
                    "source {source} epoch {}: answered visited {} levels {:?}, earlier {} {:?}",
                    r.epoch, r.visited, r.per_level, a.visited, a.per_level
                ));
            }
            return i;
        }
        let i = u32::try_from(self.list.len()).expect("fewer than 2^32 distinct answers");
        self.index.insert((source, r.epoch), i);
        self.list.push(Answer {
            source,
            epoch: r.epoch,
            visited: r.visited,
            per_level: r.per_level,
        });
        i
    }
}

/// What one query returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// An answer: its index in [`Answers::list`].
    Answer(u32),
    /// The `ServiceError` kind that failed or refused the query: an
    /// index into [`ERROR_KINDS`].
    Failed(u8),
}

impl Outcome {
    /// The failure kind, if the query failed.
    pub fn failure(self) -> Option<&'static str> {
        match self {
            Outcome::Answer(_) => None,
            Outcome::Failed(k) => Some(ERROR_KINDS[usize::from(k)]),
        }
    }
}

/// One query as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct QueryRec {
    /// Just before `submit` was called, in ns since the recorder's origin.
    submit_ns: u64,
    /// Time inside the `submit` call, in ns.
    submit_call_ns: u64,
    /// From `submit_ns` to the moment the reply was available, in ns.
    latency_ns: u64,
    /// The reply.
    pub outcome: Outcome,
    /// Whether the query was submitted while tracing was on.
    pub traced: bool,
}

impl QueryRec {
    /// Client-observed latency.
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns)
    }

    /// Time spent inside the `submit` call.
    pub fn submit_time(&self) -> Duration {
        Duration::from_nanos(self.submit_call_ns)
    }

    /// Whether the query was answered.
    pub fn answered(&self) -> bool {
        matches!(self.outcome, Outcome::Answer(_))
    }
}

/// Every query of a run, kept compact, and the run's distinct answers.
pub struct Recorder {
    origin: Instant,
    /// Queries in completion order.
    pub recs: Vec<QueryRec>,
    /// Distinct answers.
    pub answers: Answers,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            recs: Vec::with_capacity(RESERVED_RECORDS),
            answers: Answers::default(),
        }
    }

    /// When `r` was submitted.
    pub fn submitted_at(&self, r: &QueryRec) -> Instant {
        self.origin + Duration::from_nanos(r.submit_ns)
    }

    /// When `r`'s reply was available.
    pub fn done_at(&self, r: &QueryRec) -> Instant {
        self.origin + Duration::from_nanos(r.submit_ns + r.latency_ns)
    }

    fn finish(&mut self, p: &Pending, done: Instant, result: Result<QueryResult, ServiceError>) {
        let outcome = match result {
            Ok(r) => Outcome::Answer(self.answers.record(p.source, r)),
            Err(e) => {
                let kind = ERROR_KINDS.iter().position(|&k| k == error_kind(&e));
                Outcome::Failed(kind.expect("error_kind returns a listed kind") as u8)
            }
        };
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.recs.push(QueryRec {
            submit_ns: ns(p.submit - self.origin),
            submit_call_ns: ns(p.submitted - p.submit),
            latency_ns: ns(done - p.submit),
            outcome,
            traced: p.traced,
        });
    }
}

/// When a phase stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many queries.
    Count(usize),
    /// At this instant.
    At(Instant),
}

/// A cursor over a pre-drawn source stream, wrapping at its end.
pub struct Stream<'a> {
    sources: &'a [u64],
    pos: usize,
}

impl<'a> Stream<'a> {
    /// A cursor at position `pos` of `sources` (non-empty).
    pub fn new(sources: &'a [u64], pos: usize) -> Self {
        assert!(!sources.is_empty(), "query stream is empty");
        Self { sources, pos }
    }

    fn next(&mut self) -> u64 {
        let s = self.sources[self.pos % self.sources.len()];
        self.pos += 1;
        s
    }
}

struct Reply {
    slot: usize,
    done: Instant,
    result: Result<QueryResult, ServiceError>,
}

struct Pending {
    source: u64,
    submit: Instant,
    submitted: Instant,
    traced: bool,
}

/// Runs one closed-loop phase against `group`, appends every query it
/// submitted to `rec` in completion order, and returns their index
/// range. A slot whose query replied submits its next query `think`
/// later (at once when `think` is zero). Queries submitted while
/// `traced(elapsed)` holds are traced: their spans go to `tracer`. The
/// phase ends when `stop` is reached and every outstanding query has
/// replied.
pub fn run_phase(
    group: &ServiceGroup,
    stream: &mut Stream<'_>,
    stop: Stop,
    think: Duration,
    traced: &dyn Fn(Duration) -> bool,
    tracer: &mut Tracer,
    rec: &mut Recorder,
) -> Range<usize> {
    let first_rec = rec.recs.len();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    std::thread::scope(|scope| {
        let mut watchers: Vec<mpsc::Sender<QueryTicket>> = Vec::with_capacity(OUTSTANDING);
        for slot in 0..OUTSTANDING {
            let (tx, rx) = mpsc::channel::<QueryTicket>();
            let reply_tx = reply_tx.clone();
            std::thread::Builder::new()
                .name(format!("watch-{slot}"))
                .stack_size(64 << 10)
                .spawn_scoped(scope, move || {
                    for ticket in rx {
                        let result = ticket.wait();
                        let done = Instant::now();
                        if reply_tx.send(Reply { slot, done, result }).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn watcher thread");
            watchers.push(tx);
        }
        drop(reply_tx);

        let start = Instant::now();
        let mut pending: Vec<Option<Pending>> = (0..OUTSTANDING).map(|_| None).collect();
        // Slots by the instant they may submit again, earliest first.
        let mut ready: BinaryHeap<Reverse<(Instant, usize)>> =
            (0..OUTSTANDING).map(|slot| Reverse((start, slot))).collect();
        let mut issued = 0usize;
        let mut in_flight = 0usize;
        let mut stopped = false;
        let mut finish = |p: Pending, done: Instant, result, tracer: &mut Tracer| {
            if p.traced {
                let id = tracer.next_id();
                let root = tracer.push(Span::root("query", id, p.submit, done));
                tracer.push(Span::child("service.submit", id, root, p.submit, p.submitted));
                tracer.push(Span::child("reply.wait", id, root, p.submitted, done));
            }
            rec.finish(&p, done, result);
        };
        loop {
            while !stopped {
                let Some(&Reverse((at, slot))) = ready.peek() else { break };
                if at > Instant::now() {
                    break;
                }
                ready.pop();
                let source = stream.next();
                let submit = Instant::now();
                stopped = match stop {
                    Stop::Count(n) => issued + 1 >= n,
                    Stop::At(t) => submit >= t,
                };
                if matches!(stop, Stop::At(_)) && stopped {
                    break;
                }
                let is_traced = traced(submit - start);
                let id = issued;
                issued += 1;
                let res = group.submit(KhopQuery::single(id, source, K));
                let submitted = Instant::now();
                let p = Pending { source, submit, submitted, traced: is_traced };
                match res {
                    Err(e) => {
                        finish(p, submitted, Err(e), tracer);
                        ready.push(Reverse((submitted + think, slot)));
                    }
                    Ok(ticket) => match ticket.try_wait() {
                        Some(r) => {
                            let done = Instant::now();
                            finish(p, done, r, tracer);
                            ready.push(Reverse((done + think, slot)));
                        }
                        None => {
                            pending[slot] = Some(p);
                            in_flight += 1;
                            watchers[slot].send(ticket).expect("watcher thread is alive");
                        }
                    },
                }
            }
            // The next slot to come out of its think time, if any.
            let due = ready.peek().filter(|_| !stopped).map(|r| r.0 .0);
            if in_flight == 0 {
                match due {
                    None => break,
                    Some(at) => std::thread::sleep(at.saturating_duration_since(Instant::now())),
                }
                continue;
            }
            let first = match due {
                None => reply_rx.recv().expect("a watcher holds an outstanding query"),
                Some(at) => {
                    match reply_rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                        Ok(r) => r,
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(e) => panic!("a watcher holds an outstanding query: {e}"),
                    }
                }
            };
            let mut next = Some(first);
            while let Some(r) = next {
                let p = pending[r.slot].take().expect("reply for an outstanding slot");
                in_flight -= 1;
                finish(p, r.done, r.result, tracer);
                ready.push(Reverse((r.done + think, r.slot)));
                next = reply_rx.try_recv().ok();
            }
        }
        drop(watchers);
    });
    first_rec..rec.recs.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(epoch: u64, visited: u64) -> QueryResult {
        QueryResult {
            id: 0,
            visited,
            per_level: vec![1, visited - 1],
            response_time: Duration::ZERO,
            exec_time: Duration::ZERO,
            epoch,
        }
    }

    #[test]
    fn records_stay_small() {
        assert!(std::mem::size_of::<QueryRec>() <= 40);
    }

    #[test]
    fn answers_keep_one_copy_per_source_and_epoch() {
        let mut a = Answers::default();
        let i = a.record(7, result(0, 5));
        assert_eq!(a.record(7, result(0, 5)), i);
        assert_ne!(a.record(7, result(1, 5)), i);
        assert_eq!(a.list.len(), 2);
        assert!(a.conflicts.is_empty());
        a.record(7, result(0, 6));
        assert_eq!(a.conflicts.len(), 1, "a differing repeat answer is a conflict");
    }
}

//! Spans: what one is, where they are kept until the run ends, the two
//! decorators that record them from inside the program's own calls, and
//! the statistics taken over them.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use proxy_storage::{Recovered, Storage, StorageError, Ticket};
use restricted_proxy::prelude::{PrincipalId, ReplayCache, ReplayGuard, Timestamp};

use crate::stats::median;

/// The only span that is time off the CPU; the host-speed correction
/// leaves it (and its share of any enclosing span) as measured.
pub const WAIT_SPAN: &str = "storage.wait_durable";

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span this one ran inside, or [`NO_PARENT`].
    parent: u32,
    /// Identifier shared by the spans of one request (for a batched
    /// span, the first request of the batch).
    req: u64,
    /// Operations the span covers.
    ops: u32,
}

/// Spans in memory until the run ends.
#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans begun and not yet ended, innermost last.
    open: Vec<u32>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The recorder as the decorators share it. They run on the replaying
/// thread only, so the lock is never contended.
#[derive(Clone, Debug)]
pub struct Sink(Arc<Mutex<Recorder>>);

impl Sink {
    pub fn new() -> Sink {
        Sink(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        })))
    }

    fn lock(&self) -> MutexGuard<'_, Recorder> {
        // Spans are plain data: a panic elsewhere cannot tear them.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `work` inside a span. `req` of `None` inherits the
    /// enclosing span's request. The lock is not held while `work`
    /// runs, so `work` may record child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: Option<u64>,
        ops: usize,
        work: impl FnOnce() -> T,
    ) -> T {
        let index = {
            let mut rec = self.lock();
            let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
            let req = req
                .or_else(|| rec.spans.get(parent as usize).map(|p| p.req))
                .unwrap_or(0);
            let index = rec.spans.len() as u32;
            rec.open.push(index);
            let start_ns = rec.now_ns();
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
                ops: ops as u32,
            });
            index
        };
        let out = work();
        let mut rec = self.lock();
        let end_ns = rec.now_ns();
        rec.spans[index as usize].end_ns = end_ns;
        rec.open.pop();
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Records one `net.rtt` span per round trip of a latency slice:
    /// when each call began and how long it took. The calls are
    /// numbered from `first_req`.
    pub fn push_round_trips(&self, first_req: u64, started: &[Instant], latencies_ns: &[f64]) {
        let mut rec = self.lock();
        let epoch = rec.epoch;
        for (i, (start, latency)) in started.iter().zip(latencies_ns).enumerate() {
            let start_ns = start.saturating_duration_since(epoch).as_nanos() as u64;
            rec.spans.push(Span {
                name: "net.rtt",
                start_ns,
                end_ns: start_ns + *latency as u64,
                parent: NO_PARENT,
                req: first_req + i as u64,
                ops: 1,
            });
        }
    }

    /// Takes every span out, at the end of the run.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// The benchmark-owned [`Storage`] decorator: real child spans of
/// whatever called into storage, and the bytes staged.
pub struct SpanStorage {
    inner: Arc<dyn Storage>,
    sink: Sink,
    staged_bytes: Arc<AtomicU64>,
}

impl SpanStorage {
    /// Wraps `inner`; every byte staged is also added to `staged_bytes`.
    pub fn new(inner: Arc<dyn Storage>, sink: Sink, staged_bytes: Arc<AtomicU64>) -> SpanStorage {
        SpanStorage {
            inner,
            sink,
            staged_bytes,
        }
    }
}

impl fmt::Debug for SpanStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanStorage")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Storage for SpanStorage {
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
        self.staged_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        self.sink
            .span("storage.stage", None, 1, || self.inner.stage(record))
    }

    fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
        self.sink
            .span(WAIT_SPAN, None, 1, || self.inner.wait_durable(ticket))
    }

    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        self.sink.span("storage.install_snapshot", None, 1, || {
            self.inner.install_snapshot(state)
        })
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        self.inner.load()
    }
}

/// The timing [`ReplayGuard`] decorator: the accept-once probe as a
/// child span of `Verifier::verify`.
pub struct TimedReplay<'a> {
    inner: &'a ReplayCache,
    sink: &'a Sink,
}

impl<'a> TimedReplay<'a> {
    /// A guard over `inner` recording into `sink`.
    pub fn new(inner: &'a ReplayCache, sink: &'a Sink) -> TimedReplay<'a> {
        TimedReplay { inner, sink }
    }
}

impl ReplayGuard for TimedReplay<'_> {
    fn accept_once(
        &mut self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool {
        self.sink.span("proxy.replay_check", None, 1, || {
            self.inner.check_and_mark(grantor, id, now, expires)
        })
    }

    fn expire(&mut self, now: Timestamp) {
        self.inner.sweep(now);
    }
}

/// The spans one replay round recorded and its host-speed factor.
pub struct Round {
    /// Indices of the spans the round recorded.
    pub spans: std::ops::Range<usize>,
    /// `CALIB_REF_NS / calib_ns`: scales time on the CPU.
    pub cpu_scale: f64,
}

/// Per round and span name, corrected per-operation durations in
/// microseconds.
pub struct Durations(Vec<Vec<(&'static str, Vec<f64>)>>);

impl Durations {
    /// The same correction as the end-to-end rule, with the on-CPU
    /// share known exactly: the part of a span spent waiting for
    /// durability is left as measured, the rest scales with the CPU.
    pub fn from_spans(spans: &[Span], rounds: &[Round]) -> Durations {
        let mut waiting = vec![0u64; spans.len()];
        for span in spans.iter().filter(|s| s.name == WAIT_SPAN) {
            let mut up = span.parent;
            while let Some(ancestor) = spans.get(up as usize) {
                waiting[up as usize] += span.end_ns - span.start_ns;
                up = ancestor.parent;
            }
        }
        let per_round = |round: &Round| {
            let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
            for index in round.spans.clone() {
                let span = &spans[index];
                let total = (span.end_ns - span.start_ns) as f64;
                let wait = if span.name == WAIT_SPAN {
                    total
                } else {
                    waiting[index] as f64
                };
                let corrected = (total - wait) * round.cpu_scale + wait;
                let per_op = corrected / f64::from(span.ops.max(1)) / 1e3;
                match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                    Some((_, values)) => values.push(per_op),
                    None => by_name.push((span.name, vec![per_op])),
                }
            }
            by_name
        };
        Durations(rounds.iter().map(per_round).collect())
    }

    /// Every duration recorded under `name`, all rounds together.
    pub fn all(&self, name: &str) -> Vec<f64> {
        let named = self.0.iter().flatten().filter(|(n, _)| *n == name);
        named.flat_map(|(_, v)| v.iter().copied()).collect()
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        let named = self.0.iter().flatten().filter(|(n, _)| *n == name);
        named.map(|(_, v)| v.len()).sum()
    }

    /// The median across rounds of the span's median within each
    /// round, as for the end-to-end slices; zero for a span never
    /// recorded.
    pub fn p50(&self, name: &str) -> f64 {
        let named = self.0.iter().flatten().filter(|(n, _)| *n == name);
        let medians: Vec<f64> = named.map(|(_, v)| median(v)).collect();
        median(&medians)
    }

    /// Spans named `name` per span named in `per`.
    pub fn count_ratio(&self, name: &str, per: &[&str]) -> f64 {
        let ops: usize = per.iter().map(|p| self.count(p)).sum();
        if ops == 0 {
            0.0
        } else {
            self.count(name) as f64 / ops as f64
        }
    }
}

pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = if span.parent == NO_PARENT {
            "null".to_owned()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"req\": {}, \"ops\": {}}}",
            span.name, span.start_ns, span.end_ns, span.req, span.ops
        )?;
    }
    out.flush()
}

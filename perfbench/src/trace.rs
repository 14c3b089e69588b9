//! Spans recorded from outside the program.
//!
//! Every span is taken around a call the benchmark itself makes into a
//! crate's public API: the client operation, the transport calls that
//! operation makes (through [`TimedTransport`]), the coordinator polls
//! (through [`TimedLink`]), and each balance epoch. Spans stay in
//! thread-local buffers while the run is hot and are collected when the
//! owning thread finishes.

use mbal_balancer::coordinator::{Coordinator, HeartbeatReply};
use mbal_client::CoordinatorLink;
use mbal_core::types::WorkerAddr;
use mbal_proto::{Request, Response};
use mbal_ring::MappingTable;
use mbal_server::transport::{Transport, TransportError};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The schedule operation this span belongs to; 0 for work that is
    /// not an operation (balance epochs, client construction).
    pub op: u64,
    /// Layer boundary, e.g. `client.get` or `transport.call`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `t` as ns since the process epoch.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct ThreadTrace {
    base: u64,
    next: u64,
    op: u64,
    parent: u64,
    spans: Vec<Span>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Starts recording spans on the calling thread.
pub fn enable() {
    let base = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 40;
    CTX.with(|c| {
        *c.borrow_mut() = Some(ThreadTrace {
            base,
            next: 1,
            op: 0,
            parent: 0,
            spans: Vec::new(),
        })
    });
}

/// Stops recording on the calling thread and returns its spans.
pub fn take() -> Vec<Span> {
    CTX.with(|c| c.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Opens a root span for operation `op` and makes it the parent of the
/// spans recorded until [`close`]. Returns 0 when tracing is off.
pub fn open(op: u64) -> u64 {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let Some(t) = c.as_mut() else { return 0 };
        let id = t.base | t.next;
        t.next += 1;
        t.op = op;
        t.parent = id;
        id
    })
}

/// Closes the span `id` opened by [`open`], recording it as `name` over
/// `[start, end]`.
pub fn close(id: u64, name: &'static str, start: Instant, end: Instant) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let Some(t) = c.as_mut() else { return };
        t.spans.push(Span {
            id,
            parent: 0,
            op: t.op,
            name,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
        t.op = 0;
        t.parent = 0;
    })
}

/// Records a child of the currently open span (or a root when none is
/// open).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let Some(t) = c.as_mut() else { return };
        let id = t.base | t.next;
        t.next += 1;
        t.spans.push(Span {
            id,
            parent: t.parent,
            op: t.op,
            name,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
    })
}

/// Records a root span for operation `op`.
pub fn root(name: &'static str, op: u64, start: Instant, end: Instant) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let Some(t) = c.as_mut() else { return };
        let id = t.base | t.next;
        t.next += 1;
        t.spans.push(Span {
            id,
            parent: 0,
            op,
            name,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
    })
}

/// Records a span on a thread that did not [`enable`] tracing (balance
/// tickers): the span is returned instead of buffered.
pub fn detached(name: &'static str, op: u64, start: Instant, end: Instant) -> Span {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    Span {
        id: (0xFFFF << 40) | NEXT.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        op,
        name,
        start_ns: ns_of(start),
        end_ns: ns_of(end),
    }
}

/// Timing decorator around the transport the clients use: every call
/// becomes a `transport.call` span under the client operation that made
/// it, and transport errors are counted.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    errors: AtomicU64,
}

impl TimedTransport {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            errors: AtomicU64::new(0),
        })
    }

    /// Timeouts, resets and unreachable routes seen so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn timed(
        &self,
        f: impl FnOnce() -> Result<Response, TransportError>,
    ) -> Result<Response, TransportError> {
        let start = Instant::now();
        let r = f();
        record("transport.call", start, Instant::now());
        if r.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

impl Transport for TimedTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.timed(|| self.inner.call(addr, req))
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError> {
        self.timed(|| self.inner.call_with_deadline(addr, req, deadline))
    }

    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        deadline: Duration,
    ) -> Vec<Result<Response, TransportError>> {
        let start = Instant::now();
        let out = self.inner.call_many(addr, reqs, deadline);
        record("transport.call", start, Instant::now());
        let errs = out.iter().filter(|r| r.is_err()).count() as u64;
        self.errors.fetch_add(errs, Ordering::Relaxed);
        out
    }

    /// Forwarded untimed: the trait's default would turn the
    /// fire-and-forget send into a blocking call.
    fn cast(&self, addr: WorkerAddr, req: Request) {
        self.inner.cast(addr, req);
    }
}

/// Timing wrapper around the coordinator link: heartbeats and table
/// fetches become `client.poll` spans.
pub struct TimedLink(pub Arc<Coordinator>);

impl CoordinatorLink for TimedLink {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        let start = Instant::now();
        let r = self.0.heartbeat(version);
        record("client.poll", start, Instant::now());
        r
    }

    fn full_table(&self) -> MappingTable {
        let start = Instant::now();
        let r = self.0.mapping_snapshot();
        record("client.poll", start, Instant::now());
        r
    }
}

/// Writes `spans` as CSV (`id,parent,op,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_the_open_span() {
        enable();
        let t = Instant::now();
        let id = open(7);
        record("transport.call", t, t);
        record("transport.call", t, t);
        close(id, "client.get", t, t);
        record("client.poll", t, t);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert!(spans[..2].iter().all(|s| s.parent == id && s.op == 7));
        assert_eq!(spans[2].id, id);
        assert_eq!((spans[3].parent, spans[3].op), (0, 0));
        assert_eq!(open(1), 0, "tracing is off after take");
    }
}

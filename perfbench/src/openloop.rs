//! The open-loop load generator.
//!
//! Each sender owns one synchronous [`Client`] and a fixed schedule:
//! every operation is due at a fixed instant whether or not earlier ones
//! have finished, and its latency runs from that instant, so a stall is
//! charged to every operation queued behind it. A phase has a wall-clock
//! deadline; an operation that has not finished by then counts as
//! failed, and a sender still blocked in a call shortly after it is
//! abandoned, so a phase always ends.

use crate::stats::{quantile, quantile_of, ratio};
use crate::trace::{self, Span};
use crate::workload::{is_write, Oracle, Sched};
use mbal_client::{Client, ClientStats, SetOptions};
use mbal_core::clock::Clock;
use mbal_core::Value;
use mbal_workload::{Op, OpKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The p99 latency limit a sweep step must meet.
pub const LIMIT_NS: u64 = 5_000_000;

/// Ops per latency window of the report's diagnostic line: a window's
/// p99 rests on 10 samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// Pacing error is the send lag of ops whose sender was idle before
/// their due time: the harness's own lateness. A phase whose pacing
/// error has a p99 above this has tail figures (p90, p99) that are not
/// the system's alone.
pub const PACING_TAIL_BOUND_NS: u64 = 500_000;
/// A pass whose pacing error has a median above this is invalid: the
/// harness was late for most ops, so not even `p50_us` is the system's.
pub const PACING_MEDIAN_BOUND_NS: u64 = 20_000;

/// Latency charged to a failed operation when it is shorter: a failure
/// always counts as over the limit.
const FAILED_NS: u64 = LIMIT_NS + 1_000;

/// The canary thread of a phase sleeps this long at a time.
pub const CANARY_TICK: Duration = Duration::from_millis(1);

/// Pacing sleeps until this close to the due time, then spins: even
/// with the timer slack tightened, a sleep oversleeps by a few µs.
const SPIN: Duration = Duration::from_micros(20);

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// GET found a value.
    Hit,
    /// GET found nothing.
    Miss,
    /// A write was answered.
    Written,
    /// The client returned an error.
    Failed,
    /// Not finished by the deadline (never sent, still in flight, or
    /// answered too late).
    Unfinished,
}

/// One attempted operation; times are ns from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    /// Sender that issued it.
    pub sender: u16,
    /// Position in the sender's schedule.
    pub idx: u32,
    /// Due time.
    pub due_ns: u64,
    /// Actual send time.
    pub send_ns: u64,
    /// Completion time.
    pub done_ns: u64,
    /// The sender was idle, waiting for this op's due time, so its send
    /// lag is the pacing error alone.
    pub paced: bool,
    /// How it ended.
    pub outcome: Outcome,
}

#[derive(Default)]
struct SenderLog {
    recs: Vec<OpRec>,
    hits: Vec<(u32, Value)>,
}

struct SenderOut {
    stats: ClientStats,
    spans: Vec<Span>,
}

/// One scheduled op's latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due time, ns from the phase start.
    pub due_ns: u64,
    /// Due time → completion (or the deadline), ns.
    pub lat_ns: u64,
    /// SET, TOUCH or DELETE.
    pub write: bool,
}

/// Which ops a latency statistic covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sel {
    /// Every op.
    All,
    /// GETs.
    Gets,
    /// SET, TOUCH and DELETE.
    Writes,
}

impl Sel {
    /// Whether `s` is in the class.
    pub fn covers(self, s: &Sample) -> bool {
        match self {
            Sel::All => true,
            Sel::Gets => !s.write,
            Sel::Writes => s.write,
        }
    }
}

/// Phase timing knobs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Time after the last due instant before unfinished ops fail.
    pub grace: Duration,
    /// Time after the deadline before a sender still in a call is
    /// abandoned.
    pub abandon_after: Duration,
    /// Ops due before this are executed and checked, and count when
    /// they fail, but are left out of every latency, rate and hit
    /// figure: the cluster warms up after its load phase.
    pub warmup: Duration,
    /// Record spans.
    pub trace: bool,
}

/// Everything measured in one open-loop phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Offered rate, ops/s.
    pub rate: u64,
    /// Scheduled operations, warm-up included.
    pub attempted: u64,
    /// Measured operations answered without error before the deadline.
    pub ok: u64,
    /// Operations that failed or did not finish, warm-up included.
    pub failed: u64,
    /// Latency from due time of every scheduled op, by due time;
    /// failures count as over the limit.
    pub samples: Vec<Sample>,
    /// Send time − due time of every sent op, ascending.
    pub lag_ns: Vec<u64>,
    /// The same for ops whose sender was idle before their due time: the
    /// harness's own pacing error.
    pub pacing_lag_ns: Vec<u64>,
    /// GETs answered.
    pub gets: u64,
    /// GETs that found a value.
    pub hits: u64,
    /// GET hits whose value no writer wrote for that key.
    pub bad_values: u64,
    /// End of the warm-up → last completion.
    pub wall_ns: u64,
    /// Client counters summed over senders that finished.
    pub stats: ClientStats,
    /// Senders abandoned while blocked in a call.
    pub abandoned: usize,
    /// Every attempted op.
    pub recs: Vec<OpRec>,
    /// Spans recorded by the senders.
    pub spans: Vec<Span>,
    /// CPU time the whole process used during the phase, warm-up
    /// included, ns.
    pub cpu_ns: u64,
    /// Operations answered without error, warm-up included.
    pub answered: u64,
    /// Intervals, ns from the phase start, in which the canary thread
    /// woke over a tick late, so the process could not run (the host
    /// preempted it, or every CPU was busy).
    pub pauses: Vec<(u64, u64)>,
}

impl PhaseResult {
    /// Completions per second of wall time.
    pub fn achieved(&self) -> f64 {
        ratio(self.ok as f64 * 1e9, self.wall_ns as f64)
    }

    /// Process CPU time per answered op, µs: what an op costs the
    /// cluster and its clients together, whatever else the host runs.
    pub fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_ns as f64 / 1e3, self.answered as f64)
    }

    /// Whether the harness sent its tail on time (see
    /// [`PACING_TAIL_BOUND_NS`]).
    pub fn paced_on_time(&self) -> bool {
        quantile(&self.pacing_lag_ns, 0.99) <= PACING_TAIL_BOUND_NS
    }

    /// Ascending latencies of the ops `sel` covers, ns.
    pub fn lat_ns(&self, sel: Sel) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| sel.covers(s))
            .map(|s| s.lat_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// `q`-quantile latency over the ops `sel` covers, µs.
    pub fn lat_us(&self, sel: Sel, q: f64) -> f64 {
        quantile(&self.lat_ns(sel), q) as f64 / 1e3
    }

    /// The ops `sel` covers, by due time, cut into [`WINDOW_OPS`]-op
    /// windows; a short tail joins the last window.
    fn windows(&self, sel: Sel) -> Vec<Vec<Sample>> {
        let mut v: Vec<Sample> = self
            .samples
            .iter()
            .copied()
            .filter(|s| sel.covers(s))
            .collect();
        v.sort_unstable_by_key(|s| s.due_ns);
        let mut out: Vec<Vec<Sample>> = v.chunks(WINDOW_OPS).map(<[Sample]>::to_vec).collect();
        if out.len() > 1 && out.last().is_some_and(|w| w.len() < WINDOW_OPS) {
            let tail = out.pop().expect("checked above");
            out.last_mut().expect("checked above").extend(tail);
        }
        out
    }

    /// `q`-quantile latency of each window of `sel` ops, µs.
    pub fn window_lat_us(&self, sel: Sel, q: f64) -> Vec<f64> {
        self.windows(sel)
            .iter()
            .map(|w| {
                quantile_of(&mut w.iter().map(|s| s.lat_ns).collect::<Vec<_>>(), q) as f64 / 1e3
            })
            .collect()
    }
}

/// p99 latency from due time over all the ops of `runs`, ns.
pub fn p99_over(runs: &[&PhaseResult]) -> u64 {
    let mut lat: Vec<u64> = runs.iter().flat_map(|r| r.lat_ns(Sel::All)).collect();
    quantile_of(&mut lat, 0.99)
}

/// The sweep's bar for the runs of one step at one offered rate: no op
/// failed or went unfinished, the p99 latency over all their ops is
/// within the limit, and completions reach ≥ 95% of the offered rate.
pub fn meets_bar(runs: &[&PhaseResult]) -> bool {
    let ok: u64 = runs.iter().map(|r| r.ok).sum();
    let wall: u64 = runs.iter().map(|r| r.wall_ns).sum();
    let rate = runs.first().map_or(0, |r| r.rate);
    runs.iter().all(|r| r.failed == 0)
        && p99_over(runs) <= LIMIT_NS
        && ratio(ok as f64 * 1e9, wall as f64) >= 0.95 * rate as f64
}

/// Adds `b`'s counters into `a`.
pub fn add_stats(a: &mut ClientStats, b: &ClientStats) {
    a.gets += b.gets;
    a.hits += b.hits;
    a.sets += b.sets;
    a.deletes += b.deletes;
    a.moved += b.moved;
    a.replica_reads += b.replica_reads;
    a.busy_retries += b.busy_retries;
    a.transport_retries += b.transport_retries;
    a.backoff_skips += b.backoff_skips;
    a.failures += b.failures;
    a.front_hits += b.front_hits;
    a.front_stale_rejected += b.front_stale_rejected;
    a.sketch_promotions += b.sketch_promotions;
    a.sketch_decays += b.sketch_decays;
}

/// Makes the calling thread's sleeps end within about a µs of their
/// deadline instead of the default 50 µs timer slack.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument by value and
    // only changes the calling thread's timer slack; no memory is shared.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// CPU time used so far by every thread of the process, ns. Time the
/// host's hypervisor takes from the VM (steal) is not counted.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // every 64-bit Linux target) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// Sleeps, then spins (yielding the core), until `due`.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "client.get",
        OpKind::Set => "client.set",
        OpKind::Touch => "client.touch",
        OpKind::Delete => "client.delete",
    }
}

/// Issues `op`; relative TTLs become absolute expiries on the cluster
/// clock at send time.
fn issue(client: &mut Client, clock: &dyn Clock, op: &Op) -> (Outcome, Option<Value>) {
    let written = |ok: bool| {
        if ok {
            Outcome::Written
        } else {
            Outcome::Failed
        }
    };
    match op.kind {
        OpKind::Get => match client.get(&op.key) {
            Ok(Some(v)) => (Outcome::Hit, Some(v)),
            Ok(None) => (Outcome::Miss, None),
            Err(_) => (Outcome::Failed, None),
        },
        OpKind::Set => {
            let opts = if op.ttl_ms > 0 {
                SetOptions::new().expiry_ms(clock.now_millis() + op.ttl_ms)
            } else {
                SetOptions::new()
            };
            (
                written(client.set_opts(&op.key, &op.value, opts).is_ok()),
                None,
            )
        }
        OpKind::Touch => {
            let at = clock.now_millis() + op.ttl_ms;
            (written(client.touch_opts(&op.key, at).is_ok()), None)
        }
        OpKind::Delete => (written(client.delete(&op.key).is_ok()), None),
    }
}

/// Sleeps [`CANARY_TICK`] at a time until `stop`; returns every
/// interval, ns from `start`, in which it woke over a tick late.
fn canary(start: Instant, stop: &AtomicBool) -> Vec<(u64, u64)> {
    tighten_timer_slack();
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut pauses = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let before = Instant::now();
        std::thread::sleep(CANARY_TICK);
        let after = Instant::now();
        if after - before > 2 * CANARY_TICK {
            pauses.push((since(before + CANARY_TICK), since(after)));
        }
    }
    pauses
}

struct SenderCtx {
    id: u16,
    sched: Arc<Vec<Sched>>,
    clock: Arc<dyn Clock>,
    start: Instant,
    deadline: Instant,
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<SenderLog>>,
    trace: bool,
}

fn sender(mut client: Client, cx: SenderCtx) -> SenderOut {
    if cx.trace {
        trace::enable();
    }
    tighten_timer_slack();
    let since = |t: Instant| t.saturating_duration_since(cx.start).as_nanos() as u64;
    for (i, s) in cx.sched.iter().enumerate() {
        if cx.stop.load(Ordering::Relaxed) {
            break;
        }
        let due = cx.start + Duration::from_nanos(s.due_ns);
        let paced = Instant::now() < due;
        pace(due);
        let send = Instant::now();
        if send >= cx.deadline {
            break;
        }
        let op_id = ((cx.id as u64) << 32) | (i as u64 + 1);
        let span = trace::open(op_id);
        let (mut outcome, value) = issue(&mut client, &*cx.clock, &s.op);
        let done = Instant::now();
        trace::close(span, op_name(s.op.kind), send, done);
        trace::root("harness.lag", op_id, due, send);
        if done > cx.deadline {
            outcome = Outcome::Unfinished;
        }
        let mut log = cx.log.lock();
        log.recs.push(OpRec {
            sender: cx.id,
            idx: i as u32,
            due_ns: s.due_ns,
            send_ns: since(send),
            done_ns: since(done),
            paced,
            outcome,
        });
        if let (Outcome::Hit, Some(v)) = (outcome, value) {
            log.hits.push((i as u32, v));
        }
    }
    SenderOut {
        stats: client.stats(),
        spans: trace::take(),
    }
}

/// Runs one open-loop phase: sender `t` drives `clients[t]` through
/// `scheds[t]`. GET hits are checked against `oracle` after the phase.
pub fn run(
    clients: Vec<Client>,
    scheds: &[Arc<Vec<Sched>>],
    rate: u64,
    clock: Arc<dyn Clock>,
    oracle: &Oracle,
    plan: Plan,
) -> PhaseResult {
    let last_due = scheds
        .iter()
        .filter_map(|s| s.last().map(|o| o.due_ns))
        .max()
        .unwrap_or(0);
    let cpu0 = process_cpu_ns();
    // A short lead so every sender is parked before the first op is due.
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_nanos(last_due) + plan.grace;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    let mut logs = Vec::new();
    let canary = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || canary(start, &stop))
    };
    for (t, (client, sched)) in clients.into_iter().zip(scheds).enumerate() {
        let log = Arc::new(Mutex::new(SenderLog::default()));
        logs.push(Arc::clone(&log));
        let cx = SenderCtx {
            id: t as u16,
            sched: Arc::clone(sched),
            clock: Arc::clone(&clock),
            start,
            deadline,
            stop: Arc::clone(&stop),
            log,
            trace: plan.trace,
        };
        let tx = tx.clone();
        handles.push(Some(std::thread::spawn(move || {
            let out = sender(client, cx);
            let _ = tx.send(t);
            out
        })));
    }

    // Wait for the senders until the deadline, then stop them; one still
    // blocked in a call after `abandon_after` is left behind.
    let mut finished = vec![false; handles.len()];
    let mut left = handles.len();
    let mut wait_until = deadline;
    while left > 0 {
        let now = Instant::now();
        if now >= wait_until {
            if wait_until == deadline {
                stop.store(true, Ordering::Relaxed);
                wait_until = deadline + plan.abandon_after;
                continue;
            }
            break;
        }
        if let Ok(t) = rx.recv_timeout(wait_until - now) {
            finished[t] = true;
            left -= 1;
        }
    }
    stop.store(true, Ordering::Relaxed);

    let mut r = PhaseResult {
        rate,
        pauses: canary.join().expect("canary thread"),
        cpu_ns: process_cpu_ns().saturating_sub(cpu0),
        ..PhaseResult::default()
    };
    let deadline_ns = deadline.duration_since(start).as_nanos() as u64;
    let warm_ns = plan.warmup.as_nanos() as u64;
    // A phase with ops still unfinished at the deadline lasted until it.
    let mut unfinished = false;
    for (t, h) in handles.iter_mut().enumerate() {
        if finished[t] {
            let out = h
                .take()
                .expect("joined once")
                .join()
                .expect("sender thread");
            add_stats(&mut r.stats, &out.stats);
            r.spans.extend(out.spans);
        } else {
            // Dropping the handle detaches the blocked sender; it stops
            // at its next op because `stop` is set.
            r.abandoned += 1;
        }
        let log = std::mem::take(&mut *logs[t].lock());
        let sched = &scheds[t];
        for (idx, v) in &log.hits {
            if !oracle.admissible(&sched[*idx as usize].op.key, v) {
                r.bad_values += 1;
            }
        }
        unfinished |= log.recs.len() < sched.len()
            || log.recs.iter().any(|x| x.outcome == Outcome::Unfinished);
        for rec in &log.recs {
            let failed = matches!(rec.outcome, Outcome::Failed | Outcome::Unfinished);
            r.answered += !failed as u64;
            if rec.due_ns < warm_ns {
                r.failed += failed as u64;
                continue;
            }
            let write = is_write(&sched[rec.idx as usize].op);
            let mut lat = rec.done_ns.saturating_sub(rec.due_ns);
            if rec.outcome != Outcome::Unfinished {
                r.wall_ns = r.wall_ns.max(rec.done_ns);
            }
            if failed {
                r.failed += 1;
                lat = lat.max(FAILED_NS);
            } else {
                r.ok += 1;
                if !write {
                    r.gets += 1;
                    r.hits += (rec.outcome == Outcome::Hit) as u64;
                }
            }
            let lag = rec.send_ns.saturating_sub(rec.due_ns);
            r.lag_ns.push(lag);
            if rec.paced {
                r.pacing_lag_ns.push(lag);
            }
            r.samples.push(Sample {
                due_ns: rec.due_ns,
                lat_ns: lat,
                write,
            });
        }
        // Never sent, or still in flight when abandoned.
        for s in &sched[log.recs.len()..] {
            r.failed += 1;
            if s.due_ns < warm_ns {
                continue;
            }
            r.samples.push(Sample {
                due_ns: s.due_ns,
                lat_ns: deadline_ns.saturating_sub(s.due_ns).max(FAILED_NS),
                write: is_write(&s.op),
            });
        }
        r.attempted += sched.len() as u64;
        r.recs
            .extend(log.recs.into_iter().filter(|x| x.due_ns >= warm_ns));
    }
    if unfinished {
        r.wall_ns = r.wall_ns.max(deadline_ns);
    }
    r.wall_ns = r.wall_ns.saturating_sub(warm_ns);
    r.lag_ns.sort_unstable();
    r.pacing_lag_ns.sort_unstable();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{schedule, Workload, SENDERS};
    use mbal_balancer::coordinator::Coordinator;
    use mbal_balancer::BalancerConfig;
    use mbal_core::clock::RealClock;
    use mbal_core::types::WorkerAddr;
    use mbal_proto::{Request, Response};
    use mbal_server::transport::{Transport, TransportError};
    use std::sync::atomic::AtomicU64;

    /// Answers every request after sleeping `service` and then spinning
    /// `spin`; from call number `hang_from` on, it never answers within
    /// the caller's deadline.
    struct FakeTransport {
        calls: AtomicU64,
        service: Duration,
        spin: Duration,
        hang_from: u64,
    }

    impl Transport for FakeTransport {
        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, Duration::from_secs(5))
        }

        fn call_with_deadline(
            &self,
            addr: WorkerAddr,
            req: Request,
            deadline: Duration,
        ) -> Result<Response, TransportError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) >= self.hang_from {
                std::thread::sleep(deadline);
                return Err(TransportError::Timeout(addr));
            }
            std::thread::sleep(self.service);
            let t = Instant::now();
            while t.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            Ok(match req {
                Request::Get { .. } => Response::NotFound,
                _ => Response::Stored,
            })
        }
    }

    /// One open-loop phase of the zipf-balance mix against `transport`.
    fn run_fake(
        transport: FakeTransport,
        rate: u64,
        secs: f64,
        plan: Plan,
    ) -> (PhaseResult, Duration) {
        let w = Workload::by_name("zipf-balance").expect("known workload");
        let transport: Arc<dyn Transport> = Arc::new(transport);
        let coordinator = Arc::new(Coordinator::new(
            crate::cluster::initial_mapping(),
            BalancerConfig::default(),
        ));
        let scheds: Vec<Arc<Vec<Sched>>> = schedule(&w, 9, 0, rate, secs)
            .into_iter()
            .map(Arc::new)
            .collect();
        let clients = scheds
            .iter()
            .map(|_| Client::builder(Arc::clone(&transport), coordinator.clone()).build())
            .collect();
        let t0 = Instant::now();
        let r = run(
            clients,
            &scheds,
            rate,
            Arc::new(RealClock::new()),
            &Oracle::new(&w, 9),
            plan,
        );
        (r, t0.elapsed())
    }

    #[test]
    fn a_stalling_transport_falls_behind_and_is_charged_from_the_due_time() {
        // Each call takes 2 ms, but each sender is offered one op per
        // 1 ms: the backlog grows for the whole phase.
        let slow = FakeTransport {
            calls: AtomicU64::new(0),
            service: Duration::from_millis(2),
            spin: Duration::ZERO,
            hang_from: u64::MAX,
        };
        let plan = Plan {
            grace: Duration::from_secs(3),
            abandon_after: Duration::from_secs(1),
            warmup: Duration::ZERO,
            trace: false,
        };
        let (r, _) = run_fake(slow, 2_000, 0.4, plan);
        assert_eq!(r.attempted, 800);
        assert_eq!((r.failed, r.ok), (0, 800));
        assert!(
            r.achieved() < 0.6 * 2_000.0,
            "achieved {} of 2000 offered",
            r.achieved()
        );
        // The last op of a sender is due at ~0.4 s and done at ~0.8 s:
        // the wait behind the stall is part of its latency.
        assert!(
            r.lat_us(Sel::All, 1.0) > 300_000.0,
            "{}",
            r.lat_us(Sel::All, 1.0)
        );
        assert!(quantile(&r.lag_ns, 0.99) > 300_000_000, "send lag grows");
        assert!(!meets_bar(&[&r]));
    }

    #[test]
    fn a_call_that_never_answers_fails_within_the_deadline() {
        let hanging = FakeTransport {
            calls: AtomicU64::new(0),
            service: Duration::ZERO,
            spin: Duration::ZERO,
            hang_from: 50,
        };
        let plan = Plan {
            grace: Duration::from_millis(100),
            abandon_after: Duration::from_millis(100),
            warmup: Duration::ZERO,
            trace: false,
        };
        let (r, took) = run_fake(hanging, 1_000, 0.2, plan);
        assert!(took < Duration::from_secs(2), "phase took {took:?}");
        assert_eq!(r.abandoned, SENDERS, "both senders are stuck in a call");
        assert_eq!(r.attempted, 200);
        assert_eq!(r.ok, 50);
        assert_eq!(r.failed, 150, "the hung call and everything after it");
        assert_eq!(r.samples.len(), 200);
        assert!(r.lat_us(Sel::All, 0.99) * 1e3 > LIMIT_NS as f64);
        assert!(!meets_bar(&[&r]));
    }

    /// A finished phase at 1000 ops/s whose ops took `lat_ns`.
    fn phase_of(lat_ns: impl IntoIterator<Item = u64>) -> PhaseResult {
        let mut r = PhaseResult {
            rate: 1_000,
            ..PhaseResult::default()
        };
        for (i, lat) in lat_ns.into_iter().enumerate() {
            r.samples.push(Sample {
                due_ns: i as u64 * 1_000_000,
                lat_ns: lat,
                write: false,
            });
            r.ok += 1;
            r.attempted += 1;
        }
        r.wall_ns = r.ok * 1_000_000;
        r
    }

    #[test]
    fn a_step_is_judged_over_all_its_ops_and_fails_on_any_failure() {
        let fast = phase_of(std::iter::repeat_n(50_000, 1_000));
        // 3% of this run's ops stalled for 10 ms: 1.5% of the step's.
        let stalled =
            phase_of((0..1_000u64).map(|i| if i % 33 == 0 { 10_000_000 } else { 50_000 }));
        assert!(meets_bar(&[&fast, &fast]));
        assert!(meets_bar(&[&fast]));
        assert!(
            !meets_bar(&[&fast, &stalled]),
            "the stall is over 1% of the step's ops"
        );
        let mut failed = phase_of(std::iter::repeat_n(50_000, 1_000));
        failed.failed = 1;
        assert!(
            !meets_bar(&[&fast, &failed]),
            "one failed op fails the step"
        );
        let mut behind = phase_of(std::iter::repeat_n(50_000, 1_000));
        behind.wall_ns *= 2;
        assert!(!meets_bar(&[&behind]), "completions below 95% of offered");
    }

    #[test]
    fn warm_up_ops_are_run_but_not_measured() {
        let fast = FakeTransport {
            calls: AtomicU64::new(0),
            service: Duration::ZERO,
            spin: Duration::ZERO,
            hang_from: u64::MAX,
        };
        let plan = Plan {
            grace: Duration::from_millis(500),
            abandon_after: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            trace: false,
        };
        let (r, _) = run_fake(fast, 2_000, 0.3, plan);
        assert_eq!(r.attempted, 600);
        assert_eq!(r.ok, 400, "ops due in the first 100 ms are not measured");
        assert_eq!(r.samples.len(), 400);
        assert!((r.achieved() - 2_000.0).abs() < 200.0, "{}", r.achieved());
    }

    #[test]
    fn cpu_per_op_counts_the_work_done_in_calls() {
        // Each call spins 300 µs; sleeping costs no CPU.
        let busy = FakeTransport {
            calls: AtomicU64::new(0),
            service: Duration::from_micros(200),
            spin: Duration::from_micros(300),
            hang_from: u64::MAX,
        };
        let plan = Plan {
            grace: Duration::from_millis(500),
            abandon_after: Duration::from_millis(500),
            warmup: Duration::ZERO,
            trace: false,
        };
        let (r, _) = run_fake(busy, 400, 0.5, plan);
        assert_eq!(r.answered, 200);
        let cpu = r.cpu_us_per_op();
        assert!((300.0..1_500.0).contains(&cpu), "{cpu} us per op");
    }
}

//! One measuring pass: three loaded clusters, a fixed-rate segment on
//! each, then a capacity sweep whose every step runs on the clusters in
//! turn and is judged over all the ops it ran.
//!
//! Three clusters rather than one, because where the scheduler places a
//! cluster's threads on a small box moves its latency by tens of percent
//! for the cluster's whole life: the fixed-rate figures are the median
//! over the clusters, and a sweep step spreads its ops over all three.

use crate::cluster::{Cluster, SetupTime, TickLog};
use crate::openloop::{self, meets_bar, PhaseResult, Plan, Sel};
use crate::trace::{TimedLink, TimedTransport};
use crate::workload::{digest, schedule, sender_seed, Oracle, Sched, Workload, SENDERS};
use mbal_client::Client;
use mbal_server::Transport;
use mbal_telemetry::StatsReport;
use std::sync::Arc;
use std::time::Duration;

/// Clusters per pass.
pub const CLUSTERS: usize = 3;
/// After the sweep, an untraced pass sets up throwaway clusters (each
/// shut down at once) until this many set-ups were timed in all, or the
/// throwaway ones took [`EXTRA_SETUP_BUDGET`]; `setup_s` is the median
/// of every timed set-up.
const SETUPS: usize = 7;
const EXTRA_SETUP_BUDGET: Duration = Duration::from_secs(2);
/// The sweep doubles the rate from the fixed rate until a step fails
/// (at most this many steps), then bisects this many times.
const MAX_RAMP: usize = 7;
const BISECT: usize = 4;
/// Phase numbers of sweep sub-steps start here (fixed-rate segments
/// use 0..CLUSTERS), so every sub-step has its own schedule.
const SWEEP_PHASES: u64 = 100;

/// Unmeasured fixed-rate warm-up before each segment: the first second
/// after a load phase is slower on every cluster.
const WARMUP: Duration = Duration::from_secs(1);
/// A fixed-rate segment whose tail the harness paced late (see
/// [`PhaseResult::paced_on_time`]) is run again on its cluster; a pass
/// makes at most this many such re-runs in all, and the report flags a
/// segment whose last run was late too.
const PACING_RETRIES: u32 = 3;

/// How long each part of a pass measures, from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Measured fixed-rate segment per cluster.
    pub segment_secs: f64,
    /// One sweep sub-step (one cluster at one rate).
    pub sub_step_secs: f64,
}

impl Timing {
    /// Splits `seconds` into three fixed-rate segments (60%, each after
    /// its own warm-up) and a sweep of about 8 steps of 3 sub-steps.
    pub fn of(seconds: f64) -> Self {
        Self {
            segment_secs: seconds * 0.2,
            sub_step_secs: (seconds * 0.024).max(0.25),
        }
    }

    /// Length of a fixed-rate segment's schedule, warm-up included.
    pub fn fixed_schedule_secs(&self) -> f64 {
        WARMUP.as_secs_f64() + self.segment_secs
    }
}

/// A loaded cluster with balance epochs running.
struct Live {
    c: Cluster,
    timed: Option<Arc<TimedTransport>>,
}

impl Live {
    fn new(w: &Workload, seed: u64, trace: bool) -> (Self, SetupTime) {
        let (mut c, took) = Cluster::setup(w, seed);
        c.start_ticks();
        let timed = trace.then(|| TimedTransport::new(c.transport()));
        (Self { c, timed }, took)
    }

    /// Runs phase `phase` at `rate` for `secs`, registering its writers
    /// with `oracle` first.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        w: &Workload,
        seed: u64,
        phase: u64,
        rate: u64,
        secs: f64,
        oracle: &mut Oracle,
        plan: Plan,
    ) -> (PhaseResult, u64) {
        let scheds = schedule(w, seed, phase, rate, secs);
        let dig = digest(&scheds);
        for t in 0..SENDERS {
            oracle.add_writer(sender_seed(seed, phase, t));
        }
        let scheds: Vec<Arc<Vec<Sched>>> = scheds.into_iter().map(Arc::new).collect();
        let clients = (0..SENDERS)
            .map(|_| match &self.timed {
                Some(t) => Client::builder(
                    Arc::clone(t) as Arc<dyn Transport>,
                    Arc::new(TimedLink(self.c.coordinator())),
                )
                .build(),
                None => self.c.client(),
            })
            .collect();
        let r = openloop::run(clients, &scheds, rate, self.c.clock(), oracle, plan);
        (r, dig)
    }

    /// Swaps in a fresh cluster for one a blocked sender wedged, which
    /// is left to the process exit.
    fn replace(&mut self, w: &Workload, seed: u64) {
        let (next, _) = Live::new(w, seed, self.timed.is_some());
        let old = std::mem::replace(self, next);
        old.c.shutdown(Duration::ZERO);
    }
}

/// The fixed-rate segment on one cluster and what the cluster reported
/// after it.
pub struct Round {
    /// Set-up (spawn + load) time of the cluster.
    pub setup: SetupTime,
    /// The segment (its last run, if it was run again).
    pub fixed: PhaseResult,
    /// Runs of the segment: more than one when the harness paced late.
    pub tries: u32,
    /// Digest of the segment's schedule.
    pub digest: u64,
    /// Per-worker server stats after the segment (empty when a sender
    /// was abandoned).
    pub reports: Vec<StatsReport>,
    /// Balance epochs up to the end of the segment.
    pub ticks: TickLog,
    /// Coordinated migrations completed during the segment.
    pub migrations: u64,
    /// Mapping version bumps during the segment.
    pub mapping_bumps: u64,
    /// Transport errors seen by the timed transport (traced passes).
    pub transport_errors: u64,
}

/// One cluster's run of a sweep step.
pub struct SubStep {
    /// p99 latency from due time, µs.
    pub p99_us: f64,
    /// Completions per second.
    pub achieved: f64,
    /// Failed or unfinished ops.
    pub failed: u64,
    /// Scheduled ops.
    pub attempted: u64,
    /// Senders abandoned (the cluster was replaced).
    pub abandoned: usize,
}

/// One sweep step.
pub struct Step {
    /// Offered rate.
    pub rate: u64,
    /// Met the bar over all its ops (see [`meets_bar`]).
    pub pass: bool,
    /// p99 latency from due time over all its ops, µs.
    pub p99_us: f64,
    /// Runs on clusters 0, 1, …; one with a failed op ends the step.
    pub subs: Vec<SubStep>,
}

/// The capacity sweep's outcome.
#[derive(Default)]
pub struct Sweep {
    /// Steps in the order run.
    pub steps: Vec<Step>,
    /// Highest offered rate that passed, ops/s.
    pub capacity: f64,
    /// Scheduled ops over every sub-step.
    pub attempted: u64,
    /// Failed or unfinished ops over every sub-step.
    pub failed: u64,
    /// GET hits checked.
    pub hits_checked: u64,
    /// GET hits with a value no writer wrote.
    pub bad_values: u64,
    /// Clusters wedged by a sub-step and left behind.
    pub wedged: usize,
}

/// Everything one pass measured.
pub struct Pass {
    /// Every timed set-up (spawn + load), measured clusters first.
    pub setups: Vec<SetupTime>,
    /// One fixed-rate segment per cluster.
    pub rounds: Vec<Round>,
    /// The sweep.
    pub sweep: Sweep,
}

impl Pass {
    /// Median over the clusters of each cluster's `q`-quantile latency
    /// over all its measured `sel` ops, µs.
    pub fn lat_us(&self, sel: Sel, q: f64) -> f64 {
        let mut per_cluster: Vec<f64> =
            self.rounds.iter().map(|r| r.fixed.lat_us(sel, q)).collect();
        crate::stats::median(&mut per_cluster)
    }

    /// `f`'s samples pooled over the fixed-rate segments, ascending.
    pub fn pooled(&self, f: impl Fn(&PhaseResult) -> &Vec<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .rounds
            .iter()
            .flat_map(|r| f(&r.fixed).iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Fixed-rate completions per second of wall time, over all rounds.
    pub fn achieved(&self) -> f64 {
        let ok: u64 = self.rounds.iter().map(|r| r.fixed.ok).sum();
        let wall: u64 = self.rounds.iter().map(|r| r.fixed.wall_ns).sum();
        crate::stats::ratio(ok as f64 * 1e9, wall as f64)
    }

    /// Sums `f` over the fixed-rate segments.
    pub fn total(&self, f: impl Fn(&PhaseResult) -> u64) -> u64 {
        self.rounds.iter().map(|r| f(&r.fixed)).sum()
    }

    /// Median over the clusters of the process CPU time per answered
    /// op of each fixed-rate segment, µs.
    pub fn cpu_us_per_op(&self) -> f64 {
        let mut v: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.fixed.cpu_us_per_op())
            .collect();
        crate::stats::median(&mut v)
    }

    /// Median over every timed set-up of `f` of it, s.
    pub fn setup_s(&self, f: fn(&SetupTime) -> f64) -> f64 {
        crate::stats::median(&mut self.setups.iter().map(f).collect::<Vec<_>>())
    }

    /// Ops that failed or never finished, and ops attempted, over both
    /// phases.
    pub fn errors(&self) -> (u64, u64) {
        (
            self.total(|f| f.failed) + self.sweep.failed,
            self.total(|f| f.attempted) + self.sweep.attempted,
        )
    }

    /// Failed ÷ attempted over both phases.
    pub fn error_ratio(&self) -> f64 {
        let (failed, attempted) = self.errors();
        crate::stats::ratio(failed as f64, attempted as f64)
    }
}

/// Runs a pass: `CLUSTERS` set-ups each followed by a fixed-rate
/// segment, then the capacity sweep over the same clusters.
pub fn run_pass(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Pass {
    let t = Timing::of(seconds);
    let mut oracle = Oracle::new(w, seed);
    let plan = Plan {
        grace: Duration::from_secs(1),
        abandon_after: Duration::from_secs(1),
        warmup: Duration::ZERO,
        trace,
    };
    let mut lives: Vec<Live> = Vec::new();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut retries_left = PACING_RETRIES;
    for r in 0..CLUSTERS {
        for l in &lives {
            l.c.pause_ticks(true);
        }
        let (mut live, took) = Live::new(w, seed, trace);
        setups.push(took);
        let coord = live.c.coordinator();
        let (v0, (_, m0)) = (
            coord.mapping_snapshot().version(),
            coord.migration_counters(),
        );
        let mut tries = 0;
        let (fixed, dig) = loop {
            tries += 1;
            let (fixed, dig) = live.run(
                w,
                seed,
                r as u64,
                w.fixed_rate,
                t.fixed_schedule_secs(),
                &mut oracle,
                Plan {
                    warmup: WARMUP,
                    ..plan
                },
            );
            // A run with a failed op or a wrong value is kept, so that a
            // re-run never hides what the program did.
            if fixed.paced_on_time()
                || fixed.failed > 0
                || fixed.bad_values > 0
                || retries_left == 0
            {
                break (fixed, dig);
            }
            retries_left -= 1;
            // The ledger compares the last run's client counters with
            // the servers'.
            let _ = live.c.client().server_stats(true);
        };
        let reports = if fixed.abandoned == 0 {
            live.c.client().server_stats(false).unwrap_or_default()
        } else {
            Vec::new()
        };
        let (v1, (_, m1)) = (
            coord.mapping_snapshot().version(),
            coord.migration_counters(),
        );
        let wedged = fixed.abandoned > 0;
        rounds.push(Round {
            setup: took,
            tries,
            digest: dig,
            reports,
            ticks: live.c.ticks(),
            migrations: m1 - m0,
            mapping_bumps: v1 - v0,
            transport_errors: live.timed.as_ref().map_or(0, |t| t.errors()),
            fixed,
        });
        if wedged {
            live.replace(w, seed);
        }
        lives.push(live);
    }
    let step_plan = Plan {
        grace: Duration::from_millis(500),
        abandon_after: Duration::from_millis(500),
        ..plan
    };
    let mut sweep = Sweep::default();
    let mut step = |rate: u64, sweep: &mut Sweep| -> bool {
        let k = sweep.steps.len();
        let mut runs: Vec<PhaseResult> = Vec::new();
        let mut subs: Vec<SubStep> = Vec::new();
        for i in 0..lives.len() {
            for (j, other) in lives.iter().enumerate() {
                other.c.pause_ticks(j != i);
            }
            let live = &mut lives[i];
            let phase = SWEEP_PHASES + (k * CLUSTERS + i) as u64;
            let (r, _) = live.run(
                w,
                seed,
                phase,
                rate,
                t.sub_step_secs,
                &mut oracle,
                step_plan,
            );
            sweep.attempted += r.attempted;
            sweep.failed += r.failed;
            sweep.hits_checked += r.hits;
            sweep.bad_values += r.bad_values;
            if r.abandoned > 0 {
                sweep.wedged += 1;
                live.replace(w, seed);
            }
            subs.push(SubStep {
                p99_us: r.lat_us(Sel::All, 0.99),
                achieved: r.achieved(),
                failed: r.failed,
                attempted: r.attempted,
                abandoned: r.abandoned,
            });
            let failed = r.failed > 0;
            runs.push(r);
            // A failed op fails the step; the other clusters need not run.
            if failed {
                break;
            }
        }
        let runs: Vec<&PhaseResult> = runs.iter().collect();
        let pass = meets_bar(&runs);
        sweep.steps.push(Step {
            rate,
            pass,
            p99_us: openloop::p99_over(&runs) as f64 / 1e3,
            subs,
        });
        pass
    };
    let mut lo = 0u64;
    let mut hi = None;
    let mut rate = w.fixed_rate;
    for _ in 0..MAX_RAMP {
        if step(rate, &mut sweep) {
            lo = rate;
            rate *= 2;
        } else {
            hi = Some(rate);
            break;
        }
    }
    if let Some(mut hi) = hi {
        for _ in 0..BISECT {
            let mid = (lo + hi) / 2 / 50 * 50;
            if mid <= lo || mid >= hi {
                break;
            }
            if step(mid, &mut sweep) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    sweep.capacity = lo as f64;
    for live in lives {
        if !live.c.shutdown(Duration::from_secs(5)) {
            sweep.wedged += 1;
        }
    }
    // After measuring, so what a throwaway cluster leaves running (TCP
    // serving threads live until the process exits) cannot disturb it.
    let mut extra = Duration::ZERO;
    while !trace && setups.len() < SETUPS && extra < EXTRA_SETUP_BUDGET {
        let (c, took) = Cluster::setup(w, seed);
        c.shutdown(Duration::from_secs(5));
        setups.push(took);
        extra += Duration::from_secs_f64(took.wall_s);
    }
    Pass {
        setups,
        rounds,
        sweep,
    }
}

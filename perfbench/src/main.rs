//! `mbal-perfbench`: the MBal benchmark.
//!
//! ```text
//! mbal-perfbench --workload <hotspot-tcp|zipf-balance|session-seg>
//!                --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! A run spawns and loads the real in-process cluster (2 servers × 2
//! workers × 4 cachelets) three times, runs a fixed-rate open-loop
//! segment on each, then a capacity sweep over the three, checks every
//! value read back, and prints its report; the last line is one JSON
//! object. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! repeats the pass with every layer boundary timed from outside the
//! program and reports the per-layer metrics instead.

mod cluster;
mod layers;
mod openloop;
mod pass;
mod stats;
mod trace;
mod workload;

use cluster::SetupTime;
use mbal_client::ClientStats;
use mbal_telemetry::{Counter, MetricsSnapshot, StatsReport};
use openloop::{Sel, LIMIT_NS, PACING_MEDIAN_BOUND_NS, PACING_TAIL_BOUND_NS};
use pass::{run_pass, Pass, Round, Timing};
use stats::{median, quantile, quantile_of, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Span;
use workload::{digest, load_seed, schedule, Sched, Workload, SENDERS};

/// Latency above which an op counts as a stall in the trace attribution.
const STALL_NS: u64 = 1_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_dir) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = val()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
    })
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Server counters and latency histograms merged over every worker.
fn merged<'a>(reports: impl IntoIterator<Item = &'a StatsReport>) -> MetricsSnapshot {
    let mut all = MetricsSnapshot::default();
    for r in reports {
        all.merge(&r.load.metrics);
    }
    all
}

/// Client-minus-server GET and SET counts of one fixed-rate segment.
fn ledger(stats: &ClientStats, reports: &[StatsReport]) -> (i64, i64) {
    let s = merged(reports);
    let server_gets = s.get(Counter::Gets) + s.get(Counter::ReplicaReads);
    let client_gets = stats.gets - stats.front_hits;
    (
        client_gets as i64 - server_gets as i64,
        stats.sets as i64 - s.get(Counter::Sets) as i64,
    )
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn join(v: impl IntoIterator<Item = f64>) -> String {
    v.into_iter()
        .map(|x| format!("{x:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints the pass's end-to-end figures and output checks; returns
/// whether every output check held and the pass is valid.
fn report_pass(label: &str, w: &Workload, seed: u64, seconds: f64, p: &Pass) -> bool {
    let t = Timing::of(seconds);
    let (lag, pacing) = (p.pooled(|f| &f.lag_ns), p.pooled(|f| &f.pacing_lag_ns));
    let (ops, failed) = (p.total(|f| f.attempted), p.total(|f| f.failed));
    let (gets, hits) = (p.total(|f| f.gets), p.total(|f| f.hits));
    let each = |f: fn(&SetupTime) -> f64| {
        p.setups
            .iter()
            .map(|x| format!("{:.3}", f(x)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "[{label}] set-up (spawn + load): {} timed, the first {} measured, the others thrown away after the sweep; CPU median {:.3} s ({}); wall median {:.3} s ({})",
        p.setups.len(),
        p.rounds.len(),
        p.setup_s(|x| x.cpu_s),
        each(|x| x.cpu_s),
        p.setup_s(|x| x.wall_s),
        each(|x| x.wall_s)
    );
    println!(
        "[{label}] fixed rate: open loop, {SENDERS} senders, {} ops/s offered for {:.1} s (the first {:.1} s unmeasured warm-up) on each of {} clusters: {ops} ops, {failed} failed",
        w.fixed_rate,
        t.fixed_schedule_secs(),
        t.fixed_schedule_secs() - t.segment_secs,
        p.rounds.len()
    );
    for (i, r) in p.rounds.iter().enumerate() {
        let f = &r.fixed;
        println!(
            "[{label}]   cluster {i}: set up in {:.3} s wall, {:.3} s CPU; digest {:016x}; run {} time(s); achieved {:.1} ops/s; over all {} ops p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; p99 of {}-op windows min/median/max {}; process CPU {:.2} us per op; canary late {} times, {:.1} ms in all",
            r.setup.wall_s,
            r.setup.cpu_s,
            r.digest,
            r.tries,
            f.achieved(),
            f.samples.len(),
            f.lat_us(Sel::All, 0.5),
            f.lat_us(Sel::All, 0.9),
            f.lat_us(Sel::All, 0.99),
            openloop::WINDOW_OPS,
            join({
                let mut w = f.window_lat_us(Sel::All, 0.99);
                let (lo, hi) = (w.iter().copied().fold(f64::MAX, f64::min), w.iter().copied().fold(0.0, f64::max));
                [lo, median(&mut w), hi]
            }),
            f.cpu_us_per_op(),
            f.pauses.len(),
            f.pauses.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e6
        );
    }
    println!(
        "[{label}]   median of the clusters, over all measured ops: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, get p99 {:.1} us, write p99 {:.1} us; hit ratio {:.4} ({hits} of {gets} GETs)",
        p.lat_us(Sel::All, 0.5),
        p.lat_us(Sel::All, 0.9),
        p.lat_us(Sel::All, 0.99),
        p.lat_us(Sel::Gets, 0.99),
        p.lat_us(Sel::Writes, 0.99),
        ratio(hits as f64, gets as f64)
    );
    let valid = quantile(&pacing, 0.5) <= PACING_MEDIAN_BOUND_NS;
    println!(
        "[{label}] harness: send lag p50 {:.1} us, p99 {:.1} us; pacing error p50 {:.1} us (bound {:.0} us), p99 {:.1} us over {} idle sends: {}",
        us(quantile(&lag, 0.5)),
        us(quantile(&lag, 0.99)),
        us(quantile(&pacing, 0.5)),
        us(PACING_MEDIAN_BOUND_NS),
        us(quantile(&pacing, 0.99)),
        pacing.len(),
        if valid {
            "VALID"
        } else {
            "INVALID: the harness was late for most ops, these numbers are not the system's"
        }
    );
    let late: Vec<String> = p
        .rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.fixed.paced_on_time())
        .map(|(i, r)| format!("cluster {i} (run {} times)", r.tries))
        .collect();
    if !late.is_empty() {
        println!(
            "[{label}] harness: pacing error p99 over {:.0} us in the last run of {}: the p90/p99 figures include the harness's lateness",
            us(PACING_TAIL_BOUND_NS),
            late.join(", ")
        );
    }
    println!(
        "[{label}] capacity sweep: {:.2} s per cluster per step; a step passes when no op failed, p99 over all its ops <= {} ms and completions >= 95% of offered",
        t.sub_step_secs,
        LIMIT_NS / 1_000_000
    );
    for s in &p.sweep.steps {
        let subs: Vec<String> = s
            .subs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                format!(
                    "c{i} p99 {:.0} us {:.0} ops/s{}{}",
                    x.p99_us,
                    x.achieved,
                    if x.failed > 0 {
                        format!(" failed {}/{}", x.failed, x.attempted)
                    } else {
                        String::new()
                    },
                    if x.abandoned > 0 {
                        " WEDGED, replaced"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        println!(
            "[{label}]   {:>7} ops/s: {} p99 {:.0} us | {}",
            s.rate,
            if s.pass { "pass" } else { "FAIL" },
            s.p99_us,
            subs.join(" | ")
        );
    }
    let (all_failed, all_ops) = p.errors();
    println!(
        "[{label}]   capacity {} ops/s; error ratio {:.6} ({all_failed} of {all_ops} ops over both phases){}",
        p.sweep.capacity,
        p.error_ratio(),
        if p.sweep.wedged > 0 {
            format!(
                "; {} wedged cluster(s) left to the process exit",
                p.sweep.wedged
            )
        } else {
            String::new()
        }
    );

    // Output checks.
    let bad = p.total(|f| f.bad_values) + p.sweep.bad_values;
    println!(
        "[{label}] check values: {} GET hits checked, {bad} returned a value no writer wrote for the key{}",
        hits + p.sweep.hits_checked,
        if bad > 0 { "  <-- WRONG VALUES" } else { "" }
    );
    let replay = digest(&schedule(w, seed, 0, w.fixed_rate, t.fixed_schedule_secs()));
    let same = replay == p.rounds[0].digest;
    println!(
        "[{label}] check schedule: regenerated digest {replay:016x} {}",
        if same {
            "matches"
        } else {
            "DIFFERS  <-- the schedule is not a function of the seed"
        }
    );
    for (i, r) in p.rounds.iter().enumerate() {
        if r.reports.is_empty() {
            println!("[{label}] check ledger: cluster {i} not scraped (a sender was abandoned)");
            continue;
        }
        let (dg, ds) = ledger(&r.fixed.stats, &r.reports);
        let flag = |d: i64, name: &str| {
            if d == 0 {
                String::new()
            } else {
                format!("  <-- LEDGER MISMATCH on {name}")
            }
        };
        println!(
            "[{label}] check ledger: cluster {i} worker.ledger_diff gets {dg}{}, sets {ds}{}",
            flag(
                dg,
                "gets: client gets - front hits vs server gets + replica_reads"
            ),
            flag(ds, "sets")
        );
    }
    bad == 0 && same && valid
}

fn e2e_metrics(p: &Pass) -> Vec<Metric> {
    let (gets, hits) = (p.total(|f| f.gets), p.total(|f| f.hits));
    vec![
        m("setup_s", p.setup_s(|x| x.cpu_s), "s"),
        m("achieved_ops_s", p.achieved(), "ops/s"),
        m("cpu_us_per_op", p.cpu_us_per_op(), "us"),
        m("hit_ratio", ratio(hits as f64, gets as f64), "ratio"),
    ]
}

/// Client op spans of one segment and, per op span id, the count and
/// total time of the transport calls under it.
fn op_spans(spans: &[Span]) -> (Vec<&Span>, BTreeMap<u64, (u64, u64)>) {
    let mut children: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "transport.call" && s.parent != 0)
    {
        let e = children.entry(s.parent).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    let ops = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with("client.") && s.name != "client.poll")
        .collect();
    (ops, children)
}

/// Per-layer metrics from the traced pass `t`, against the untraced `u`.
fn layer_metrics(w: &Workload, seed: u64, seconds: f64, u: &Pass, t: &Pass) -> Vec<Metric> {
    let (mut op_ns, mut self_ns, mut transport, mut polls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut calls = 0u64;
    let mut stats = ClientStats::default();
    let mut ledger_diff = 0i64;
    let mut imbalance = Vec::new();
    let (mut tick_ns, mut phases) = (Vec::new(), [0u64; 4]);
    for r in &t.rounds {
        let f = &r.fixed;
        let (ops, children) = op_spans(&f.spans);
        for s in &ops {
            let (n, ns) = children.get(&s.id).copied().unwrap_or((0, 0));
            calls += n;
            op_ns.push(s.dur_ns());
            self_ns.push(s.dur_ns().saturating_sub(ns));
        }
        for s in &f.spans {
            match s.name {
                "transport.call" => transport.push(s.dur_ns()),
                "client.poll" => polls.push(s.dur_ns()),
                _ => {}
            }
        }
        openloop::add_stats(&mut stats, &f.stats);
        // A round whose sender was abandoned scraped no server stats.
        if !r.reports.is_empty() {
            let (dg, ds) = ledger(&f.stats, &r.reports);
            ledger_diff += dg.abs() + ds.abs();
            let ops: Vec<f64> = r
                .reports
                .iter()
                .map(|x| x.load.metrics.get(Counter::Ops) as f64)
                .collect();
            let mean = ratio(ops.iter().sum(), ops.len() as f64);
            imbalance.push(ratio(ops.iter().copied().fold(0.0, f64::max), mean));
        }
        tick_ns.extend(r.ticks.spans.iter().map(|s| s.dur_ns()));
        for (a, b) in phases.iter_mut().zip(r.ticks.phases) {
            *a += b;
        }
    }
    tick_ns.sort_unstable();
    let srv = merged(t.rounds.iter().flat_map(|r| &r.reports));
    let read = srv.read_latency();
    let write = srv.write_latency();
    let transport_p50 = us(quantile_of(&mut transport, 0.5));

    // Offline replays of the first segment's ops.
    let seg = Timing::of(seconds).fixed_schedule_secs();
    let ops: Vec<Sched> = schedule(w, seed, 0, w.fixed_rate, seg)
        .into_iter()
        .flatten()
        .collect();
    let mapping = cluster::initial_mapping();
    let proto = layers::proto(w, &ops, &mapping);
    let route_ns = layers::ring(&ops, &mapping);
    let core = layers::core(w, &ops, &mapping, load_seed(seed));
    if !ops
        .iter()
        .any(|s| s.op.kind == mbal_workload::OpKind::Touch)
    {
        println!("[traced] note: core.touch_ns is 0: this workload issues no TOUCH");
    }

    let lag = t.pooled(|f| &f.lag_ns);
    let sum = |f: fn(&Round) -> u64| t.rounds.iter().map(f).sum::<u64>() as f64;
    let c = |k: Counter| srv.get(k) as f64;
    vec![
        m("client.op_us.p50", us(quantile_of(&mut op_ns, 0.5)), "us"),
        m("client.op_us.p99", us(quantile(&op_ns, 0.99)), "us"),
        m(
            "client.self_us.p50",
            us(quantile_of(&mut self_ns, 0.5)),
            "us",
        ),
        m(
            "client.calls_per_op",
            ratio(calls as f64, op_ns.len() as f64),
            "calls/op",
        ),
        m(
            "client.retries",
            (stats.busy_retries + stats.transport_retries) as f64,
            "count",
        ),
        m("client.failures", stats.failures as f64, "count"),
        m("client.replica_reads", stats.replica_reads as f64, "count"),
        m("client.polls", polls.len() as f64, "count"),
        m(
            "client.poll_us.p99",
            us(quantile_of(&mut polls, 0.99)),
            "us",
        ),
        m("transport.call_us.p50", transport_p50, "us"),
        m(
            "transport.call_us.p99",
            us(quantile(&transport, 0.99)),
            "us",
        ),
        m("transport.errors", sum(|r| r.transport_errors), "count"),
        m(
            "transport.hop_us.p50",
            transport_p50 - read.p50_us as f64,
            "us",
        ),
        m("worker.read_us.p50", read.p50_us as f64, "us"),
        m("worker.read_us.p99", read.p99_us as f64, "us"),
        m("worker.write_us.p50", write.p50_us as f64, "us"),
        m("worker.write_us.p99", write.p99_us as f64, "us"),
        m("worker.imbalance", median(&mut imbalance), "ratio"),
        m(
            "worker.moved_redirects",
            c(Counter::MovedRedirects),
            "count",
        ),
        m(
            "worker.not_owner_errors",
            c(Counter::NotOwnerErrors),
            "count",
        ),
        m("worker.ledger_diff", ledger_diff as f64, "count"),
        m("proto.encode_ns", proto.encode_ns, "ns"),
        m("proto.decode_ns", proto.decode_ns, "ns"),
        m("proto.bytes_per_op", proto.bytes_per_op, "bytes"),
        m("ring.route_ns", route_ns, "ns"),
        m("core.get_ns", core.get_ns, "ns"),
        m("core.set_ns", core.set_ns, "ns"),
        m("core.touch_ns", core.touch_ns, "ns"),
        m("core.evictions", c(Counter::Evictions), "count"),
        m("core.expirations", c(Counter::Expirations), "count"),
        m("core.evicted_bytes", c(Counter::EvictedBytes), "bytes"),
        m("core.seg_merges", c(Counter::SegMerges), "count"),
        m(
            "core.segments_expired",
            c(Counter::SegmentsExpired),
            "count",
        ),
        m("balancer.tick_us.p50", us(quantile(&tick_ns, 0.5)), "us"),
        m("balancer.tick_us.max", us(quantile(&tick_ns, 1.0)), "us"),
        m("balancer.epochs_p1", phases[1] as f64, "count"),
        m("balancer.epochs_p2", phases[2] as f64, "count"),
        m("balancer.epochs_p3", phases[3] as f64, "count"),
        m(
            "balancer.replica_installs",
            c(Counter::ReplicaInstalls),
            "count",
        ),
        m(
            "balancer.replica_updates",
            c(Counter::ReplicaUpdates),
            "count",
        ),
        m(
            "balancer.replica_read_share",
            ratio(stats.replica_reads as f64, stats.gets as f64),
            "ratio",
        ),
        m("balancer.migrations", sum(|r| r.migrations), "count"),
        m("balancer.mapping_bumps", sum(|r| r.mapping_bumps), "count"),
        m("harness.lag_us.p50", us(quantile(&lag, 0.5)), "us"),
        m("harness.lag_us.p99", us(quantile(&lag, 0.99)), "us"),
        m(
            "harness.pacing_us.p99",
            us(quantile(&u.pooled(|f| &f.pacing_lag_ns), 0.99)),
            "us",
        ),
        m(
            "harness.trace_overhead.p50",
            ratio(t.lat_us(Sel::All, 0.5), u.lat_us(Sel::All, 0.5)),
            "ratio",
        ),
        m(
            "harness.trace_overhead.capacity",
            ratio(t.sweep.capacity, u.sweep.capacity),
            "ratio",
        ),
        m("error_ratio", u.error_ratio(), "ratio"),
        m("capacity_ops_s", u.sweep.capacity, "ops/s"),
        m("setup_wall_s", u.setup_s(|x| x.wall_s), "s"),
        m("p50_us", u.lat_us(Sel::All, 0.5), "us"),
        m("p90_us", u.lat_us(Sel::All, 0.9), "us"),
        m("p99_us", u.lat_us(Sel::All, 0.99), "us"),
        m("get_p99_us", u.lat_us(Sel::Gets, 0.99), "us"),
        m("write_p99_us", u.lat_us(Sel::Writes, 0.99), "us"),
    ]
}

/// Splits the latency of every op over the stall threshold between the
/// harness side (send lag: waiting behind earlier ops or the pacer) and
/// the program (time inside the client call, and the part of it inside
/// transport calls), and counts the stalled ops during which the canary
/// thread could not run either.
fn attribute_stalls(p: &Pass) {
    let (mut n, mut lag, mut client, mut wire) = (0u64, 0u64, 0u64, 0u64);
    let (mut paused, mut pauses, mut pause_ns) = (0u64, 0usize, 0u64);
    for r in &p.rounds {
        let f = &r.fixed;
        pauses += f.pauses.len();
        pause_ns += f.pauses.iter().map(|(a, b)| b - a).sum::<u64>();
        let (ops, children) = op_spans(&f.spans);
        let in_transport: BTreeMap<u64, u64> = ops
            .iter()
            .map(|s| (s.op, children.get(&s.id).map_or(0, |c| c.1)))
            .collect();
        for x in &f.recs {
            if x.done_ns.saturating_sub(x.due_ns) <= STALL_NS {
                continue;
            }
            n += 1;
            lag += x.send_ns.saturating_sub(x.due_ns);
            client += x.done_ns.saturating_sub(x.send_ns);
            let op = ((x.sender as u64) << 32) | (x.idx as u64 + 1);
            wire += in_transport.get(&op).copied().unwrap_or(0);
            paused += f.pauses.iter().any(|&(a, b)| a < x.done_ns && b > x.due_ns) as u64;
        }
    }
    let total = (lag + client) as f64;
    println!(
        "[traced] stalls: {n} ops over {:.0} us; of their latency {:.1}% was send lag behind earlier ops or the pacer, {:.1}% inside client calls ({:.1}% inside transport calls)",
        us(STALL_NS),
        100.0 * ratio(lag as f64, total),
        100.0 * ratio(client as f64, total),
        100.0 * ratio(wire as f64, total)
    );
    println!(
        "[traced] stalls: a canary thread sleeping {} ms at a time woke over a tick late {pauses} times ({:.1} ms in all); {paused} of the {n} stalled ops overlap such a pause, when the whole process could not run (host preemption, or every CPU busy); the other {} stalled with the canary running",
        openloop::CANARY_TICK.as_millis(),
        pause_ns as f64 / 1e6,
        n - paused
    );
}

fn print_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, v, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbal-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "mbal-perfbench: workload {} ({:?}, {:?} engine, phases {}, {} records), seed {}, {} s, trace {}, {} cores",
        w.name,
        w.net,
        w.engine,
        w.phases.label(),
        w.base().records,
        args.seed,
        args.seconds,
        args.trace as u8,
        cores
    );

    let untraced = run_pass(w, args.seed, args.seconds, false);
    let mut correct = report_pass("untraced", w, args.seed, args.seconds, &untraced);
    let metrics = if args.trace {
        let traced = run_pass(w, args.seed, args.seconds, true);
        correct &= report_pass("traced", w, args.seed, args.seconds, &traced);
        attribute_stalls(&traced);
        if let Some(dir) = &args.trace_dir {
            let mut spans: Vec<Span> = traced
                .rounds
                .iter()
                .flat_map(|r| r.fixed.spans.iter().chain(&r.ticks.spans).copied())
                .collect();
            spans.sort_by_key(|s| s.start_ns);
            let path = dir.join(format!("{}-seed{}.csv", w.name, args.seed));
            match trace::write_csv(&path, &spans) {
                Ok(()) => println!(
                    "[traced] {} spans written to {}",
                    spans.len(),
                    path.display()
                ),
                Err(e) => println!("[traced] spans not written to {}: {e}", path.display()),
            }
        }
        layer_metrics(w, args.seed, args.seconds, &untraced, &traced)
    } else {
        e2e_metrics(&untraced)
    };
    let tag = if args.trace { "[traced] " } else { "" };
    for x in &metrics {
        println!("{tag}{:<34} {:>14.3} {}", x.name, x.value, x.unit);
    }
    println!(
        "output checks: {}",
        if correct { "all hold" } else { "FAILED" }
    );
    print_json(
        correct,
        untraced.total(|f| f.attempted),
        untraced.total(|f| f.failed),
        &metrics,
    );
}

//! Per-layer costs measured by replaying a workload's operations through
//! one crate's public functions in isolation: the wire codec, the
//! mapping table, and a storage engine behind a cachelet.

use crate::cluster::{CACHELETS, SERVER_BYTES, WORKERS};
use crate::stats::median;
use crate::workload::{Sched, Workload};
use mbal_core::engine::build_engine;
use mbal_core::{Cachelet, CacheletId, Value};
use mbal_proto::codec::{encode_response_frags, opcode_of};
use mbal_proto::{decode_request, decode_response, encode_request, Request, Response};
use mbal_ring::MappingTable;
use mbal_workload::OpKind;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes over the replayed ops; the median pass is reported.
const PASSES: usize = 5;

/// Codec cost per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoCost {
    /// Request + response encode, ns/op.
    pub encode_ns: f64,
    /// Request + response decode, ns/op.
    pub decode_ns: f64,
    /// Request + response bytes per op.
    pub bytes_per_op: f64,
}

/// The request and response each op puts on the wire.
fn wire_pair(s: &Sched, mapping: &MappingTable, load_value: &Value) -> (Request, Response) {
    let (cachelet, _) = mapping.route(&s.op.key).expect("every key routes");
    let key = s.op.key.clone();
    match s.op.kind {
        OpKind::Get => (
            Request::Get { cachelet, key },
            Response::Value {
                value: load_value.clone(),
                replicas: Vec::new(),
            },
        ),
        OpKind::Set => (
            Request::Set {
                cachelet,
                key,
                value: Value::from(s.op.value.clone()),
                expiry_ms: s.op.ttl_ms,
            },
            Response::Stored,
        ),
        OpKind::Touch => (
            Request::Touch {
                cachelet,
                key,
                expiry_ms: s.op.ttl_ms,
            },
            Response::Touched,
        ),
        OpKind::Delete => (Request::Delete { cachelet, key }, Response::Deleted),
    }
}

/// Replays `ops` through `encode_request`/`decode_request` and
/// `encode_response_frags`/`decode_response`. GET responses carry a
/// value of the workload's load size.
pub fn proto(w: &Workload, ops: &[Sched], mapping: &MappingTable) -> ProtoCost {
    let load_value = Value::from(vec![0x5a; w.base().value_len]);
    let pairs: Vec<(Request, Response)> = ops
        .iter()
        .map(|s| wire_pair(s, mapping, &load_value))
        .collect();
    let n = pairs.len().max(1) as f64;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let frames: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (req, resp))| {
                let q = encode_request(req, i as u32).expect("encodable request");
                let frags = encode_response_frags(resp, opcode_of(req), i as u32)
                    .expect("encodable response");
                (q, frags.concat())
            })
            .collect();
        let t1 = Instant::now();
        for (q, r) in &frames {
            black_box(decode_request(q).expect("decodable request"));
            black_box(decode_response(r).expect("decodable response"));
        }
        let t2 = Instant::now();
        // The frags are joined for decoding; charge the join to neither.
        enc.push((t1 - t0).as_nanos() as f64 / n);
        dec.push((t2 - t1).as_nanos() as f64 / n);
        bytes = frames.iter().map(|(q, r)| q.len() + r.len()).sum();
    }
    ProtoCost {
        encode_ns: median(&mut enc),
        decode_ns: median(&mut dec),
        bytes_per_op: bytes as f64 / n,
    }
}

/// `MappingTable::route` over the ops' keys, ns per lookup.
pub fn ring(ops: &[Sched], mapping: &MappingTable) -> f64 {
    let n = ops.len().max(1) as f64;
    let mut passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for s in ops {
                black_box(mapping.route(black_box(&s.op.key)));
            }
            t0.elapsed().as_nanos() as f64 / n
        })
        .collect();
    median(&mut passes)
}

/// Engine cost per operation kind, ns (median over ops of that kind).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCost {
    /// GET, ns.
    pub get_ns: f64,
    /// SET, ns.
    pub set_ns: f64,
    /// TOUCH, ns; 0 when the workload issues none.
    pub touch_ns: f64,
}

/// Replays the ops that route to one cachelet through a
/// `Cachelet::with_engine` of the workload's engine, sized like one
/// cache unit of the cluster and loaded with that cachelet's share of
/// the load phase. `load_seed` names the load phase.
pub fn core(w: &Workload, ops: &[Sched], mapping: &MappingTable, load_seed: u64) -> CoreCost {
    let unit_bytes = SERVER_BYTES / (WORKERS as usize * CACHELETS);
    let target = mapping.route(&ops[0].op.key).expect("routes").0;
    let mine = |k: &[u8]| mapping.route(k).map(|r| r.0) == Some(target);
    let mut c = Cachelet::with_engine(CacheletId(target.0), build_engine(w.engine, unit_bytes));
    let load = w.load_gen(load_seed);
    for (k, v) in load.load_phase().filter(|(k, _)| mine(k)) {
        let _ = c.set(&k, &v, 0, 0);
    }
    // The cost of reading the clock twice, subtracted from every sample.
    let clock_ns = {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / 10_000.0
    };
    let (mut get, mut set, mut touch) = (Vec::new(), Vec::new(), Vec::new());
    for s in ops.iter().filter(|s| mine(&s.op.key)) {
        let now_ms = s.due_ns / 1_000_000;
        let expiry = if s.op.ttl_ms > 0 {
            now_ms + s.op.ttl_ms
        } else {
            0
        };
        let t0 = Instant::now();
        match s.op.kind {
            OpKind::Get => {
                black_box(c.get(&s.op.key, now_ms));
            }
            OpKind::Set => {
                let _ = black_box(c.set(&s.op.key, &s.op.value, now_ms, expiry));
            }
            OpKind::Touch => {
                black_box(c.touch(&s.op.key, now_ms, expiry));
            }
            OpKind::Delete => {
                black_box(c.delete(&s.op.key, now_ms));
            }
        }
        let ns = (t0.elapsed().as_nanos() as f64 - clock_ns).max(0.0);
        match s.op.kind {
            OpKind::Get => get.push(ns),
            OpKind::Set => set.push(ns),
            OpKind::Touch => touch.push(ns),
            OpKind::Delete => {}
        }
    }
    CoreCost {
        get_ns: median(&mut get),
        set_ns: median(&mut set),
        touch_ns: median(&mut touch),
    }
}

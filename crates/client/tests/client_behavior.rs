//! Client behavior tests against a scriptable mock transport: Moved
//! redirects, Busy retries, replica round-robin, NotOwner resync, and
//! the migration poller.

use mbal_balancer::coordinator::{Coordinator, HeartbeatReply};
use mbal_balancer::BalancerConfig;
use mbal_client::{Client, ClientError, CoordinatorLink, SetOptions, StoreOutcome};
use mbal_core::types::{CacheletId, WorkerAddr};
use mbal_proto::{Request, Response, Status};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::transport::{Transport, TransportError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A transport that replays scripted responses and records the calls.
/// Batches (`call_many`) are recorded whole and answered dynamically
/// with full hits, so grouping nondeterminism cannot skew scripted
/// tests; `batch_fail_from` injects per-op failures from that batch
/// index on (a mid-batch connection drop, as the TCP transport reports
/// it).
#[derive(Default)]
struct MockTransport {
    script: Mutex<VecDeque<Response>>,
    calls: Mutex<Vec<(WorkerAddr, Request)>>,
    batches: Mutex<Vec<(WorkerAddr, Vec<Request>)>>,
    batch_fail_from: Mutex<Option<usize>>,
}

impl MockTransport {
    fn new(script: Vec<Response>) -> Arc<Self> {
        Arc::new(Self {
            script: Mutex::new(script.into()),
            calls: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
            batch_fail_from: Mutex::new(None),
        })
    }

    fn calls(&self) -> Vec<(WorkerAddr, Request)> {
        self.calls.lock().clone()
    }
}

impl Transport for MockTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.calls.lock().push((addr, req));
        self.script
            .lock()
            .pop_front()
            .ok_or(TransportError::Timeout(addr))
    }

    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        _deadline: std::time::Duration,
    ) -> Vec<Result<Response, TransportError>> {
        let fail_from = *self.batch_fail_from.lock();
        let out = reqs
            .iter()
            .enumerate()
            .map(|(i, _)| match fail_from {
                Some(f) if i >= f => Err(TransportError::Broken("mid-batch drop".into())),
                _ => Ok(Response::Value {
                    value: b"v".to_vec().into(),
                    replicas: vec![],
                }),
            })
            .collect();
        self.batches.lock().push((addr, reqs));
        out
    }
}

fn mapping(servers: u16, workers: u16) -> MappingTable {
    let mut ring = ConsistentRing::new();
    for s in 0..servers {
        for w in 0..workers {
            ring.add_worker(WorkerAddr::new(s, w));
        }
    }
    MappingTable::build(&ring, 4, 64)
}

struct StaticCoordinator(MappingTable);

impl CoordinatorLink for StaticCoordinator {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        HeartbeatReply {
            version: self.0.version().max(version),
            deltas: vec![],
            full_refetch: false,
        }
    }

    fn full_table(&self) -> MappingTable {
        self.0.clone()
    }
}

fn client_with(script: Vec<Response>) -> (Client, Arc<MockTransport>, MappingTable) {
    let map = mapping(2, 2);
    let transport = MockTransport::new(script);
    let client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::new(StaticCoordinator(map.clone())) as Arc<dyn CoordinatorLink>,
    )
    .build();
    (client, transport, map)
}

#[test]
fn moved_response_updates_mapping_and_retries() {
    let (mut client, transport, map) = client_with(vec![]);
    let key = b"redirected".to_vec();
    let (cachelet, old_owner) = map.route(&key).expect("routed");
    let new_owner = map
        .workers()
        .into_iter()
        .find(|&w| w != old_owner)
        .expect("other");
    *transport.script.lock() = vec![
        Response::Moved {
            cachelet,
            new_owner,
        },
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![],
        },
    ]
    .into();
    assert_eq!(client.get(&key).expect("get"), Some(b"v".to_vec().into()));
    let calls = transport.calls();
    assert_eq!(calls.len(), 2);
    assert_eq!(calls[0].0, old_owner);
    assert_eq!(calls[1].0, new_owner, "retry must follow the redirect");
    assert_eq!(client.stats().moved, 1);
    // Subsequent requests for the same key go straight to the new owner.
    transport.script.lock().push_back(Response::NotFound);
    let _ = client.get(&key);
    assert_eq!(transport.calls()[2].0, new_owner);
}

#[test]
fn busy_is_retried_until_success() {
    let busy = || Response::Fail {
        status: Status::Busy,
        message: "bucket migrating".into(),
    };
    // Each op with the response that ends its retries.
    type Op = fn(&mut Client) -> bool;
    let ops: [(&str, Response, Op); 2] = [
        ("set", Response::Stored, |c| {
            c.set_opts(b"k", b"v", SetOptions::new()) == Ok(StoreOutcome::Stored)
        }),
        ("delete", Response::Deleted, |c| c.delete(b"k") == Ok(true)),
    ];
    for (name, done, op) in ops {
        let (mut client, transport, _map) = client_with(vec![busy(), busy(), done]);
        assert!(op(&mut client), "{name} eventually succeeds");
        assert_eq!(client.stats().busy_retries, 2, "{name}");
        assert_eq!(transport.calls().len(), 3, "{name}");
    }
}

#[test]
fn persistent_busy_exhausts_retries() {
    let script = (0..16)
        .map(|_| Response::Fail {
            status: Status::Busy,
            message: "stuck".into(),
        })
        .collect();
    let (mut client, _transport, _map) = client_with(script);
    assert_eq!(
        client.set_opts(b"k", b"v", SetOptions::new()),
        Err(ClientError::RetriesExhausted)
    );
    assert_eq!(client.stats().failures, 1);
}

#[test]
fn replica_hints_round_robin_reads() {
    let (mut client, transport, map) = client_with(vec![]);
    let key = b"celebrity".to_vec();
    let (_, home) = map.route(&key).expect("routed");
    let shadow = map
        .workers()
        .into_iter()
        .find(|w| w.server != home.server)
        .expect("shadow");
    *transport.script.lock() = vec![
        // First read: home returns the value plus the replica hint.
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![shadow],
        },
        // Second read: client should pick the shadow (ReplicaRead).
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![],
        },
        // Third read: back to home (round robin).
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![shadow],
        },
    ]
    .into();
    for _ in 0..3 {
        assert_eq!(client.get(&key).expect("get"), Some(b"v".to_vec().into()));
    }
    let calls = transport.calls();
    assert_eq!(calls[0].0, home);
    assert_eq!(calls[1].0, shadow);
    assert!(matches!(calls[1].1, Request::ReplicaRead { .. }));
    assert_eq!(calls[2].0, home);
    assert_eq!(client.stats().replica_reads, 1);
    assert_eq!(client.replicated_keys(), 1);
}

#[test]
fn dead_replica_falls_back_to_home() {
    let (mut client, transport, map) = client_with(vec![]);
    let key = b"hot".to_vec();
    let (_, home) = map.route(&key).expect("routed");
    let shadow = map
        .workers()
        .into_iter()
        .find(|&w| w != home)
        .expect("shadow");
    *transport.script.lock() = vec![
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![shadow],
        },
        // Replica read misses (lease lapsed) → client falls back home.
        Response::NotFound,
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![],
        },
    ]
    .into();
    assert_eq!(client.get(&key).expect("get"), Some(b"v".to_vec().into()));
    assert_eq!(client.get(&key).expect("get"), Some(b"v".to_vec().into()));
    assert_eq!(
        client.replicated_keys(),
        0,
        "dead replica set must be forgotten"
    );
}

#[test]
fn writes_never_target_replicas() {
    let (mut client, transport, map) = client_with(vec![]);
    let key = b"hot".to_vec();
    let (_, home) = map.route(&key).expect("routed");
    let shadow = map.workers().into_iter().find(|&w| w != home).expect("s");
    *transport.script.lock() = vec![
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![shadow],
        },
        Response::Stored,
        Response::Stored,
    ]
    .into();
    let _ = client.get(&key).expect("get");
    client
        .set_opts(&key, b"v2", SetOptions::new())
        .expect("set");
    client
        .set_opts(&key, b"v3", SetOptions::new())
        .expect("set");
    for (addr, req) in transport.calls().into_iter().skip(1) {
        assert_eq!(addr, home, "write routed to a replica");
        assert!(matches!(req, Request::Set { .. }));
    }
}

#[test]
fn coordinator_poll_applies_real_deltas() {
    // Use the real coordinator for the poller path.
    let map = mapping(2, 1);
    let coordinator = Arc::new(Coordinator::new(map.clone(), BalancerConfig::default()));
    let transport = MockTransport::new(vec![]);
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn CoordinatorLink>,
    )
    .build();
    let v0 = client.mapping_version();
    // Server-side move.
    let c = CacheletId(0);
    let cur = map.worker_of_cachelet(c).expect("owned");
    let other = map.workers().into_iter().find(|&w| w != cur).expect("o");
    coordinator.report_local_move(&mbal_balancer::plan::Migration {
        cachelet: c,
        from: cur,
        to: other,
        load: 0.0,
    });
    let applied = client.poll_coordinator();
    assert_eq!(applied, 1);
    assert!(client.mapping_version() > v0);
}

#[test]
fn multi_get_batches_by_worker() {
    let (mut client, transport, map) = client_with(vec![]);
    // Gather keys until two distinct workers are covered.
    let mut keys = Vec::new();
    let mut workers_seen = std::collections::HashSet::new();
    let mut i = 0u32;
    while workers_seen.len() < 2 || keys.len() < 6 {
        let k = format!("batch:{i}").into_bytes();
        workers_seen.insert(map.route(&k).expect("routed").1);
        keys.push(k);
        i += 1;
    }
    let mut per_worker: std::collections::HashMap<WorkerAddr, usize> = Default::default();
    for k in &keys {
        *per_worker.entry(map.route(k).expect("r").1).or_insert(0) += 1;
    }
    let got = client.multi_get(&keys).expect("multi_get");
    assert_eq!(got.len(), keys.len());
    assert!(got.iter().all(|v| v.is_some()));
    assert_eq!(transport.calls().len(), 0, "no singleton calls on success");
    let batches = transport.batches.lock();
    assert_eq!(batches.len(), per_worker.len(), "one call_many per worker");
    for (worker, reqs) in batches.iter() {
        assert_eq!(reqs.len(), per_worker[worker], "whole group in one batch");
        assert!(reqs.iter().all(|r| matches!(r, Request::Get { .. })));
    }
}

#[test]
fn multi_get_mid_batch_failure_degrades_per_key() {
    let (mut client, transport, map) = client_with(vec![]);
    // Keys all owned by one worker, so the batch layout is known.
    let target = map.workers()[0];
    let mut keys = Vec::new();
    let mut i = 0u32;
    while keys.len() < 4 {
        let k = format!("one:{i}").into_bytes();
        if map.route(&k).expect("routed").1 == target {
            keys.push(k);
        }
        i += 1;
    }
    // Ops 2.. of the batch fail (connection dropped mid-batch); the two
    // failed keys fall back to singleton gets, scripted as hits.
    *transport.batch_fail_from.lock() = Some(2);
    *transport.script.lock() = vec![
        Response::Value {
            value: b"f".to_vec().into(),
            replicas: vec![],
        },
        Response::Value {
            value: b"f".to_vec().into(),
            replicas: vec![],
        },
    ]
    .into();
    let got = client.multi_get(&keys).expect("multi_get");
    assert_eq!(got.len(), 4);
    assert_eq!(got[0], Some(b"v".to_vec().into()));
    assert_eq!(got[1], Some(b"v".to_vec().into()));
    assert_eq!(
        got[2],
        Some(b"f".to_vec().into()),
        "failed op recovered per-key"
    );
    assert_eq!(
        got[3],
        Some(b"f".to_vec().into()),
        "failed op recovered per-key"
    );
    assert_eq!(transport.batches.lock().len(), 1, "batch issued once");
    assert_eq!(
        transport.calls().len(),
        2,
        "one fallback call per failed op"
    );
}

#[test]
fn transport_failures_surface_as_errors() {
    let (mut client, _transport, _map) = client_with(vec![]);
    match client.get(b"k") {
        Err(ClientError::Transport(TransportError::Timeout(_))) => {}
        other => panic!("expected transport error, got {other:?}"),
    }
}

#[test]
fn extended_ops_follow_moved_redirects() {
    let (mut client, transport, map) = client_with(vec![]);
    let key = b"counter".to_vec();
    let (cachelet, old_owner) = map.route(&key).expect("routed");
    let new_owner = map
        .workers()
        .into_iter()
        .find(|&w| w != old_owner)
        .expect("other");
    *transport.script.lock() = vec![
        Response::Moved {
            cachelet,
            new_owner,
        },
        Response::Counter { value: 7 },
    ]
    .into();
    assert_eq!(client.incr(&key, 1).expect("incr"), Some(7));
    let calls = transport.calls();
    assert_eq!(calls[1].0, new_owner, "incr retry must follow redirect");
    assert!(matches!(calls[1].1, Request::Incr { .. }));
}

#[test]
fn add_exists_and_replace_miss_are_not_errors() {
    let (mut client, transport, _map) = client_with(vec![
        Response::Fail {
            status: Status::Exists,
            message: "key exists".into(),
        },
        Response::NotFound,
        Response::Touched,
        Response::NotFound,
    ]);
    assert_eq!(
        client.set_opts(b"k", b"v", SetOptions::add()).expect("add"),
        StoreOutcome::Exists
    );
    assert_eq!(
        client
            .set_opts(b"k", b"v", SetOptions::replace())
            .expect("replace"),
        StoreOutcome::NotStored
    );
    assert_eq!(
        client.touch_opts(b"k", 99).expect("touch"),
        StoreOutcome::Stored
    );
    assert_eq!(
        client.touch_opts(b"k", 99).expect("touch"),
        StoreOutcome::Missed
    );
    assert_eq!(transport.calls().len(), 4);
}

#[test]
fn incr_on_non_numeric_is_rejected() {
    let (mut client, _transport, _map) = client_with(vec![Response::Fail {
        status: Status::NotNumeric,
        message: "value is not a decimal counter".into(),
    }]);
    match client.incr(b"text", 1) {
        Err(ClientError::Rejected { status, message }) => {
            assert_eq!(status, Status::NotNumeric);
            assert!(message.contains("decimal"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

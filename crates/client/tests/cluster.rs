//! End-to-end client ↔ server ↔ coordinator integration over the
//! in-process transport: basic ops, hot-key replication (Phase 1),
//! server-local migration (Phase 2), and coordinated migration (Phase 3).

use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::plan::Migration;
use mbal_balancer::BalancerConfig;
use mbal_client::{Client, SetOptions};
use mbal_core::clock::{Clock, ManualClock};
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::{InProcRegistry, Server, ServerConfig};
use mbal_telemetry::Counter;
use std::sync::Arc;

struct Cluster {
    registry: Arc<InProcRegistry>,
    coordinator: Arc<Coordinator>,
    servers: Vec<Server>,
    clock: ManualClock,
}

fn build_cluster(n_servers: u16, workers: u16) -> Cluster {
    let mut ring = ConsistentRing::new();
    for s in 0..n_servers {
        for w in 0..workers {
            ring.add_worker(WorkerAddr::new(s, w));
        }
    }
    let mapping = MappingTable::build(&ring, 4, 256);
    let bal = BalancerConfig::aggressive();
    let coordinator = Arc::new(Coordinator::new(mapping.clone(), bal.clone()));
    let registry = InProcRegistry::new();
    let clock = ManualClock::new();
    let servers = (0..n_servers)
        .map(|s| {
            let cfg = ServerConfig::new(ServerId(s), workers, 32 << 20)
                .cachelets_per_worker(4)
                .balancer(bal.clone())
                .worker_capacity(1_000.0);
            Server::spawn(
                cfg,
                &mapping,
                &registry,
                Arc::clone(&coordinator),
                Arc::new(clock.clone()),
            )
        })
        .collect();
    Cluster {
        registry,
        coordinator,
        servers,
        clock,
    }
}

impl Cluster {
    fn client(&self) -> Client {
        Client::builder(
            Arc::clone(&self.registry) as Arc<dyn mbal_server::Transport>,
            Arc::clone(&self.coordinator) as Arc<dyn mbal_client::CoordinatorLink>,
        )
        .build()
    }

    fn tick_all(&mut self) {
        self.clock.advance(200_000); // 200 ms
        let now = self.clock.now_millis();
        for s in &mut self.servers {
            s.tick(now);
        }
    }

    fn shutdown(mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}

#[test]
fn basic_set_get_delete_across_cluster() {
    let cluster = build_cluster(3, 2);
    let mut c = cluster.client();
    for i in 0..500u32 {
        let key = format!("obj:{i}");
        c.set_opts(key.as_bytes(), &i.to_le_bytes(), SetOptions::new())
            .expect("set");
    }
    for i in 0..500u32 {
        let key = format!("obj:{i}");
        assert_eq!(
            c.get(key.as_bytes()).expect("get").expect("hit"),
            i.to_le_bytes()
        );
    }
    assert!(c.delete(b"obj:0").expect("delete"));
    assert_eq!(c.get(b"obj:0").expect("get"), None);
    let st = c.stats();
    assert_eq!(st.sets, 500);
    assert_eq!(st.hits, 500);
    cluster.shutdown();
}

#[test]
fn multi_get_spans_workers() {
    let cluster = build_cluster(2, 2);
    let mut c = cluster.client();
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("batch:{i}").into_bytes())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        c.set_opts(k, &(i as u32).to_le_bytes(), SetOptions::new())
            .expect("set");
    }
    let got = c.multi_get(&keys).expect("multi_get");
    assert_eq!(got.len(), 200);
    for (i, v) in got.iter().enumerate() {
        assert_eq!(
            v.as_deref().expect("hit"),
            (i as u32).to_le_bytes(),
            "key {i}"
        );
    }
    // Misses are positional Nones.
    let mixed = c
        .multi_get(&[b"batch:0".to_vec(), b"missing".to_vec()])
        .expect("multi_get");
    assert!(mixed[0].is_some());
    assert!(mixed[1].is_none());
    cluster.shutdown();
}

#[test]
fn hot_key_gets_replicated_and_replica_reads_flow() {
    let mut cluster = build_cluster(3, 2);
    let mut c = cluster.client();
    c.set_opts(b"celebrity", b"profile-data", SetOptions::new())
        .expect("set");
    // Hammer the key so the tracker flags it (sample rate 5% → need
    // hundreds of hits), then run balance epochs.
    for _ in 0..4 {
        for _ in 0..2_000 {
            let v = c.get(b"celebrity").expect("get").expect("hit");
            assert!(v == b"profile-data");
        }
        cluster.tick_all();
    }
    // Eventually the GET response carries replica locations and the
    // client starts spreading reads.
    for _ in 0..64 {
        let _ = c.get(b"celebrity").expect("get").expect("hit");
    }
    assert!(
        c.replicated_keys() >= 1,
        "client never learned about replicas"
    );
    assert!(
        c.stats().replica_reads > 0,
        "no reads went to replicas: {:?}",
        c.stats()
    );
    // Writes still land at the home worker and propagate.
    c.set_opts(b"celebrity", b"updated", SetOptions::new())
        .expect("set");
    for _ in 0..8 {
        assert_eq!(
            c.get(b"celebrity").expect("get").expect("hit"),
            b"updated",
            "stale replica read with synchronous replication"
        );
    }
    // Let every replica lease lapse without a balance epoch to renew
    // it: the next replica reads are refused, and the client falls back
    // to the home worker.
    cluster.clock.advance(10_000_000);
    for _ in 0..8 {
        assert_eq!(c.get(b"celebrity").expect("get").expect("hit"), b"updated");
    }
    let server = |counter| {
        cluster
            .servers
            .iter()
            .map(|s| s.metrics_snapshot().get(counter))
            .sum::<u64>()
    };
    assert!(
        server(Counter::StaleReadsRejected) >= 1,
        "no replica read was refused"
    );
    // Exact op ledger: every client GET not served by the front tier is
    // counted once on the server, as a home GET or a served replica
    // read. Neither the balancer's own reads nor refused replica reads
    // may add to it.
    let st = c.stats();
    assert_eq!(
        st.gets - st.front_hits,
        server(Counter::Gets) + server(Counter::ReplicaReads),
        "client/server GET ledger: {st:?}"
    );
    cluster.shutdown();
}

#[test]
fn coordinated_migration_preserves_data_and_redirects() {
    let mut cluster = build_cluster(2, 1);
    let mut c = cluster.client();
    for i in 0..400u32 {
        c.set_opts(
            format!("mig:{i}").as_bytes(),
            &i.to_le_bytes(),
            SetOptions::new(),
        )
        .expect("set");
    }
    // Report stats so the coordinator has a view, then force a
    // coordinated migration of one cachelet from server 0 to server 1.
    cluster.tick_all();
    let mapping = cluster.coordinator.mapping_snapshot();
    let src = WorkerAddr::new(0, 0);
    let victim = mapping.cachelets_of_worker(src)[0];
    let dest = WorkerAddr::new(1, 0);
    cluster.coordinator.report_local_move(&Migration {
        cachelet: victim,
        from: src,
        to: dest,
        load: 0.0,
    });
    cluster.servers[0].migrate_out(&Migration {
        cachelet: victim,
        from: src,
        to: dest,
        load: 0.0,
    });
    // Every key must still be readable: keys in the migrated cachelet
    // through redirects/poller, the rest untouched.
    let mut via_new_owner = 0;
    for i in 0..400u32 {
        let key = format!("mig:{i}");
        let v = c
            .get(key.as_bytes())
            .expect("get")
            .expect("hit after migration");
        assert_eq!(v, i.to_le_bytes());
        if mapping.cachelet_of_vn(mapping.vn_of(key.as_bytes())) == victim {
            via_new_owner += 1;
        }
    }
    assert!(
        via_new_owner > 0,
        "victim cachelet held no keys (resize VNs)"
    );
    cluster.shutdown();
}

#[test]
fn poller_catches_up_after_local_migration() {
    let mut cluster = build_cluster(1, 4);
    let mut stale = cluster.client();
    let mut writer = cluster.client();
    for i in 0..200u32 {
        writer
            .set_opts(format!("skew:{i}").as_bytes(), b"v", SetOptions::new())
            .expect("set");
    }
    // Drive a skewed load against one worker's keys so Phase 2 fires.
    let mapping = cluster.coordinator.mapping_snapshot();
    let hot_worker = WorkerAddr::new(0, 0);
    let hot_keys: Vec<String> = (0..10_000u32)
        .map(|i| format!("skew:{}", i % 200))
        .filter(|k| mapping.route(k.as_bytes()).map(|(_, w)| w) == Some(hot_worker))
        .take(50)
        .collect();
    if hot_keys.is_empty() {
        cluster.shutdown();
        return; // pathological mapping; nothing to exercise
    }
    for _ in 0..3 {
        for k in &hot_keys {
            for _ in 0..40 {
                let _ = writer.get(k.as_bytes());
            }
        }
        cluster.tick_all();
    }
    // Whether or not migration fired, the stale client must still reach
    // every key (Moved redirects or NotOwner → poller resync).
    for i in 0..200u32 {
        let key = format!("skew:{i}");
        assert!(
            stale.get(key.as_bytes()).expect("get").is_some(),
            "lost key {key}"
        );
    }
    let _ = stale.poll_coordinator();
    assert_eq!(
        stale.mapping_version(),
        cluster.coordinator.mapping_version()
    );
    cluster.shutdown();
}

#[test]
fn clock_is_shared_across_components() {
    let cluster = build_cluster(1, 1);
    let t0 = cluster.clock.now_micros();
    cluster.clock.advance(5);
    assert_eq!(cluster.clock.now_micros(), t0 + 5);
    cluster.shutdown();
}

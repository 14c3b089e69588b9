//! The in-process cluster under test: 2 servers × 2 workers × 4
//! cachelets, the coordinator, the client transport, and balance epochs
//! driven by the benchmark itself.

use crate::openloop::process_cpu_ns;
use crate::trace::{self, Span};
use crate::workload::{load_seed, Net, Workload, SENDERS};
use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::{BalancerConfig, Phase};
use mbal_client::{Client, SetOptions};
use mbal_core::clock::{Clock, RealClock};
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::tcp::{serve_tcp, TcpTransport};
use mbal_server::{InProcRegistry, Server, ServerConfig, Transport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// Wall time, s.
    pub wall_s: f64,
    /// CPU time of every thread of the process, s: unlike wall time, it
    /// does not count time the host's hypervisor takes from the VM.
    pub cpu_s: f64,
}

/// Servers in the cluster.
pub const SERVERS: u16 = 2;
/// Worker threads per server.
pub const WORKERS: u16 = 2;
/// Cachelets per worker.
pub const CACHELETS: usize = 4;
/// Cache memory per server.
pub const SERVER_BYTES: usize = 64 << 20;

/// Balance epochs run so far: one span per `Server::tick`, plus the
/// phase each returned.
#[derive(Debug, Clone, Default)]
pub struct TickLog {
    /// `balancer.tick` spans.
    pub spans: Vec<Span>,
    /// Ticks per returned phase: normal, P1, P2, P3.
    pub phases: [u64; 4],
}

/// A running cluster.
pub struct Cluster {
    servers: Vec<Arc<Mutex<Server>>>,
    coordinator: Arc<Coordinator>,
    transport: Arc<dyn Transport>,
    clock: Arc<RealClock>,
    epoch_ms: u64,
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    tickers: Vec<JoinHandle<()>>,
    ticks: Arc<Mutex<TickLog>>,
}

/// The cluster's mapping before any balancing.
pub fn initial_mapping() -> MappingTable {
    let mut ring = ConsistentRing::new();
    for s in 0..SERVERS {
        for k in 0..WORKERS {
            ring.add_worker(WorkerAddr::new(s, k));
        }
    }
    let vns = (SERVERS as usize * WORKERS as usize * CACHELETS * 16).next_power_of_two();
    MappingTable::build(&ring, CACHELETS, vns)
}

impl Cluster {
    /// Spawns the cluster for `w` (no data yet, no balance epochs).
    pub fn spawn(w: &Workload) -> Self {
        let workers_total = (SERVERS * WORKERS) as usize;
        let mapping = initial_mapping();
        let bal = BalancerConfig {
            phases: w.phases,
            ..BalancerConfig::aggressive()
        };
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), bal.clone()));
        let registry = InProcRegistry::new();
        let clock = Arc::new(RealClock::new());
        let mut routes = std::collections::HashMap::new();
        let mut servers = Vec::new();
        for s in 0..SERVERS {
            let server = Server::spawn(
                ServerConfig::new(ServerId(s), WORKERS, SERVER_BYTES)
                    .cachelets_per_worker(CACHELETS)
                    .balancer(bal.clone())
                    .worker_capacity(w.fixed_rate as f64 / workers_total as f64)
                    .engine(w.engine),
                &mapping,
                &registry,
                Arc::clone(&coordinator),
                Arc::clone(&clock) as Arc<dyn Clock>,
            );
            let bound = (w.net == Net::Tcp).then(|| {
                serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind loopback")
            });
            routes.extend(bound.into_iter().flatten());
            servers.push(Arc::new(Mutex::new(server)));
        }
        let transport: Arc<dyn Transport> = match w.net {
            Net::InProc => registry,
            Net::Tcp => TcpTransport::new(routes),
        };
        Self {
            servers,
            coordinator,
            transport,
            clock,
            epoch_ms: bal.epoch_ms,
            stop: Arc::new(AtomicBool::new(false)),
            paused: Arc::new(AtomicBool::new(false)),
            tickers: Vec::new(),
            ticks: Arc::new(Mutex::new(TickLog::default())),
        }
    }

    /// Spawns the cluster and runs the load phase: every record of the
    /// workload written by [`SENDERS`] loader clients, then every server
    /// counter zeroed. Returns the cluster and the time it took.
    pub fn setup(w: &Workload, seed: u64) -> (Self, SetupTime) {
        let (t0, cpu0) = (Instant::now(), process_cpu_ns());
        let c = Self::spawn(w);
        let records = w.base().records;
        std::thread::scope(|s| {
            for t in 0..SENDERS as u64 {
                let mut client = c.client();
                let gen = w.load_gen(load_seed(seed));
                s.spawn(move || {
                    for i in (t..records).step_by(SENDERS) {
                        let key = gen.spec().key_of(i);
                        client
                            .set_opts(&key, &gen.make_value(i), SetOptions::new())
                            .expect("load-phase set");
                    }
                });
            }
        });
        c.client()
            .server_stats(true)
            .expect("stats reset after load");
        let took = SetupTime {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9,
        };
        (c, took)
    }

    /// The clock every server and sender shares.
    pub fn clock(&self) -> Arc<RealClock> {
        Arc::clone(&self.clock)
    }

    /// The coordinator.
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coordinator)
    }

    /// The transport clients use.
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.transport)
    }

    /// A client over the cluster's own transport and coordinator.
    pub fn client(&self) -> Client {
        Client::builder(self.transport(), self.coordinator()).build()
    }

    /// Starts one balance thread per server with the cadence and locking
    /// of `Server::start_balance_thread`, timing every `Server::tick`.
    pub fn start_ticks(&mut self) {
        for server in &self.servers {
            let server = Arc::clone(server);
            let stop = Arc::clone(&self.stop);
            let paused = Arc::clone(&self.paused);
            let clock = Arc::clone(&self.clock);
            let ticks = Arc::clone(&self.ticks);
            let epoch = Duration::from_millis(self.epoch_ms);
            self.tickers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(epoch);
                    if paused.load(Ordering::Relaxed) {
                        continue;
                    }
                    let now = clock.now_millis();
                    let start = Instant::now();
                    let phase = server.lock().tick(now);
                    let span = trace::detached("balancer.tick", 0, start, Instant::now());
                    let mut log = ticks.lock();
                    log.spans.push(span);
                    log.phases[match phase {
                        Phase::Normal => 0,
                        Phase::KeyReplication => 1,
                        Phase::LocalMigration => 2,
                        Phase::CoordinatedMigration => 3,
                    }] += 1;
                }
            }));
        }
    }

    /// Suspends (or resumes) balance epochs while another cluster is
    /// measured, so an idle cluster's epoch work does not compete with it.
    pub fn pause_ticks(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    /// The balance epochs run so far.
    pub fn ticks(&self) -> TickLog {
        self.ticks.lock().clone()
    }

    /// Stops balance epochs and workers. Waits at most `wait`; a cluster
    /// that has not stopped by then (a worker blocked on a peer) is left
    /// to the process exit and `false` is returned.
    pub fn shutdown(self, wait: Duration) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let servers = self.servers;
        let tickers = self.tickers;
        let reaper = std::thread::spawn(move || {
            for t in tickers {
                let _ = t.join();
            }
            for s in &servers {
                s.lock().shutdown();
            }
            let _ = tx.send(());
        });
        if rx.recv_timeout(wait).is_ok() {
            reaper.join().expect("cluster reaper");
            true
        } else {
            false
        }
    }
}

//! The worker mailbox protocol.
//!
//! Workers receive exactly two kinds of traffic: client RPCs (routed
//! directly to the owning worker, §2.3) and control messages from the
//! server's balance/migration machinery. Replies travel over bounded
//! crossbeam channels.

use crate::event_loop::LoopWaker;
use crate::unit::CacheUnit;
use crossbeam_channel::Sender;
use mbal_balancer::WorkerLoad;
use mbal_core::hotkey::HotKey;
use mbal_core::types::{CacheletId, TenantId, Value, WorkerAddr, WorkerId};
use mbal_proto::codec::Opcode;
use mbal_proto::{Request, Response};
use std::sync::Arc;

/// A drained migration batch: `(key, value, expiry_ms)` triples. Values
/// are refcounted [`Value`]s, so shipping a batch through channels and
/// the codec never copies payload bytes.
pub type MigrationBatch = Vec<(Vec<u8>, Value, u64)>;

/// Correlates a tagged RPC batch back to the connection (and wire
/// frames) it came from. The worker echoes the tag untouched, so the
/// event loop needs no in-flight bookkeeping beyond a per-connection
/// count.
#[derive(Debug)]
pub struct RpcTag {
    /// Event-loop token of the originating connection.
    pub conn: u64,
    /// `(request opcode, wire opaque)` per request, in order — exactly
    /// what response encoding needs.
    pub meta: Vec<(Opcode, u32)>,
}

/// Everything a worker can receive.
pub enum WorkerMsg {
    /// A client (or peer-server) RPC.
    Rpc {
        /// The request.
        req: Request,
        /// Where to send the response.
        reply: Sender<Response>,
    },
    /// A pipelined batch of RPCs: one mailbox enqueue, one reply carrying
    /// a response per request in order. The worker drains the whole batch
    /// through its fast path before replying, so a batch costs one
    /// channel round-trip instead of `n`.
    RpcBatch {
        /// The requests, answered in order.
        reqs: Vec<Request>,
        /// Where to send the responses (same length and order as `reqs`).
        reply: Sender<Vec<Response>>,
    },
    /// RPCs from the nonblocking event-loop transport: like
    /// [`WorkerMsg::RpcBatch`], but the reply channel is shared by every
    /// connection on the loop (the [`RpcTag`] says which), and the
    /// worker rings `notify` after replying so the parked loop wakes.
    RpcTagged {
        /// The requests, answered in order.
        reqs: Vec<Request>,
        /// Echoed verbatim alongside the responses.
        tag: RpcTag,
        /// The event loop's completion queue.
        reply: Sender<(RpcTag, Vec<Response>)>,
        /// Wakes the event loop out of `epoll_wait`.
        notify: Arc<LoopWaker>,
    },
    /// A control-plane message.
    Control(Control),
}

/// Control-plane messages from the server runtime.
pub enum Control {
    /// Take ownership of a cachelet (initial placement, Phase 2 adopt,
    /// or lease return).
    Adopt {
        /// The unit, moved between threads.
        unit: Box<CacheUnit>,
        /// For Phase 2 leases: `(home worker, lease expiry ms)`.
        lease: Option<(WorkerId, u64)>,
        /// Ack channel.
        reply: Sender<()>,
    },
    /// Give up a cachelet (Phase 2 move-out or lease return). Replies
    /// `None` if this worker does not own it.
    Release {
        /// Which cachelet.
        id: CacheletId,
        /// Where the cachelet is going (recorded for Moved redirects).
        new_owner: WorkerAddr,
        /// Reply carrying the unit.
        reply: Sender<Option<Box<CacheUnit>>>,
    },
    /// Close the epoch: report loads + hot keys, reset samplers.
    EpochEnd {
        /// Epoch length in seconds (for rate computation).
        epoch_secs: f64,
        /// Reply channel.
        reply: Sender<EpochReport>,
    },
    /// Record that `key` now has replicas at `shadows` (home side).
    SetReplicated {
        /// The replicated key.
        key: Vec<u8>,
        /// Shadow workers holding replicas.
        shadows: Vec<WorkerAddr>,
    },
    /// Read the current values of hot keys for Phase-1 replica installs.
    /// Served off the client path, so the balancer's own reads never
    /// count as client traffic (ops, GETs, read latency, hot-key
    /// samples). Replies one slot per key, in order: `None` when the key
    /// is absent, its cachelet is not owned here, or the key has
    /// migrated away.
    ReadForReplicas {
        /// `(cachelet, raw key)` pairs.
        keys: Vec<(CacheletId, Vec<u8>)>,
        /// Reply carrying the values.
        reply: Sender<Vec<Option<Value>>>,
    },
    /// Forget replication state for `key` (retired or migrated away).
    UnsetReplicated {
        /// The key.
        key: Vec<u8>,
    },
    /// Apply a hot-key sampling backoff factor (Phase 1 pressure).
    SetSamplingBackoff(u64),
    /// Apply arbitrated per-unit tenant memory budgets: each entry is
    /// `(tenant, bytes per cache unit)`, applied to every unit the
    /// worker owns. A tenant now over its shrunk budget evicts its own
    /// coldest entries; no other tenant is touched.
    SetTenantBudgets(Vec<(TenantId, u64)>),
    /// Begin outbound coordinated migration of `id` towards `dest`.
    /// Replies `false` if the cachelet is not owned here.
    BeginMigration {
        /// The cachelet.
        id: CacheletId,
        /// The destination worker (on another server).
        dest: WorkerAddr,
        /// Ack channel.
        reply: Sender<bool>,
    },
    /// Drain the next bucket of a migrating cachelet.
    DrainBucket {
        /// The cachelet.
        id: CacheletId,
        /// `Some(entries)` to forward; `None` when fully drained.
        reply: Sender<Option<MigrationBatch>>,
    },
    /// Roll back a failed outbound migration (source side): clear the
    /// migration state and re-install the already-drained entries so no
    /// acknowledged write is lost.
    AbortMigration {
        /// The cachelet.
        id: CacheletId,
        /// Entries drained (and possibly shipped) before the failure.
        entries: MigrationBatch,
        /// Ack channel.
        reply: Sender<()>,
    },
    /// Drop the fully-drained cachelet and start forwarding (source
    /// side, after the coordinator confirms clients have re-mapped).
    FinishMigration {
        /// The cachelet.
        id: CacheletId,
        /// Ack channel.
        reply: Sender<()>,
    },
    /// Enter or leave drain mode. While draining, client value-writes
    /// are refused with `Status::Draining`; reads, deletes (the
    /// Write-Invalidate vehicle), replica ops, and migration traffic
    /// stay open so the evacuation itself can complete.
    SetDrain(bool),
    /// Cache the serialized cluster-membership view, so the worker can
    /// answer `ClusterStatus` RPCs without a coordinator round-trip.
    SetMembershipView(Vec<u8>),
    /// Materialize a cachelet reassigned to this worker after a node
    /// failure, promoting any live shadow replicas of its keys into the
    /// fresh unit (the Phase-1 copies are the only survivors).
    /// `num_vns` and `num_cachelets` let the worker recompute
    /// `key → cachelet` without a mapping table. Replies with the number
    /// of promoted entries.
    PromoteReplicas {
        /// The reassigned cachelet.
        cachelet: CacheletId,
        /// Cluster VN count (static after the mapping is built).
        num_vns: u64,
        /// Cluster cachelet count (static after the mapping is built).
        num_cachelets: u64,
        /// Reply carrying how many replicas were promoted.
        reply: Sender<usize>,
    },
    /// Stop the worker loop.
    Shutdown,
}

/// A worker's end-of-epoch report. Cumulative counters (ops, hits,
/// latency histograms, …) live in `load.metrics`, the worker's
/// telemetry snapshot — the same type served over the `Stats` RPC.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Balancer-facing load snapshot, including the metrics snapshot
    /// and (under multi-tenancy) the per-tenant accounting rows the
    /// memory arbiter consumes.
    pub load: WorkerLoad,
    /// Hot keys observed this epoch.
    pub hot_keys: Vec<HotKey>,
    /// Replica-table size in bytes (Table 2's duplicate-space cost).
    pub replica_bytes: usize,
}

//! Data exchange between dependent serverless functions.
//!
//! OpenWhisk (like AWS Lambda with S3) forbids direct function-to-function
//! communication: a parent's output goes to CouchDB and the child fetches
//! it through the controller. Fig. 6c compares that default against direct
//! RPC and in-memory exchange; HiveMind's remote-memory fabric (Sec. 4.4)
//! replaces the database with FPGA-served RDMA while *preserving* the
//! serverless abstraction — the child addresses a virtualized object, not
//! a physical host.

use hivemind_accel::remote_mem::{RemoteMemoryFabric, RemoteMemoryParams};
use hivemind_net::rpc::RpcProfile;
use hivemind_sim::dist::Dist;
use hivemind_sim::time::{SimDuration, SimTime};
use rand::Rng;

// The retry/backoff policy governing failed data-plane attempts is part
// of the fault-injection vocabulary; re-exported here because the data
// plane (input fetch / execution / output store) is where it applies.
pub use hivemind_sim::faults::{RetryDecision, RetryPolicy};

/// The protocol used for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeProtocol {
    /// OpenWhisk default: write to + read from CouchDB via the controller.
    CouchDb,
    /// Direct RPC between the two containers (requires knowing the peer —
    /// breaks the pure serverless abstraction; shown in Fig. 6c).
    DirectRpc,
    /// Child colocated in the parent's container: shared virtual memory.
    InMemory,
    /// HiveMind's FPGA remote-memory fabric.
    RemoteMemory,
}

/// A single-server CouchDB instance with FIFO queueing.
///
/// Every exchange performs a controller round-trip to obtain the object
/// handle, then a store operation whose duration scales with object size.
/// Because one database serves the whole cluster, concurrent multi-tier
/// jobs queue up — the source of the protocol's tail blow-up in Fig. 6c.
#[derive(Debug, Clone, PartialEq)]
pub struct CouchDbModel {
    /// Controller round-trip to resolve the object handle.
    pub controller_rtt: Dist,
    /// Fixed per-operation DB cost (indexing, MVCC bookkeeping).
    pub op_overhead: Dist,
    /// Effective storage bandwidth, bytes/s.
    pub bytes_per_sec: f64,
    busy_until: SimTime,
}

impl Default for CouchDbModel {
    fn default() -> Self {
        CouchDbModel {
            controller_rtt: Dist::lognormal_median_sigma(1.2e-3, 0.35),
            op_overhead: Dist::lognormal_median_sigma(1.0e-3, 0.40),
            // A production (clustered, Cloudant-style) CouchDB deployment:
            // three data nodes behind the controller.
            bytes_per_sec: 600e6,
            busy_until: SimTime::ZERO,
        }
    }
}

impl CouchDbModel {
    /// Performs one store-or-fetch of `bytes` at `now`, returning its
    /// latency including queueing behind other operations.
    pub fn operate<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        bytes: u64,
        rng: &mut R,
    ) -> SimDuration {
        let service = self.op_overhead.sample(rng)
            + SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let start = self.busy_until.max(now);
        self.busy_until = start + service;
        let rtt = self.controller_rtt.sample(rng);
        (self.busy_until - now) + rtt
    }
}

/// The function-to-function data plane.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::dataplane::{DataPlane, ExchangeProtocol};
/// use hivemind_sim::rng::RngForge;
/// use hivemind_sim::time::SimTime;
///
/// let mut plane = DataPlane::new();
/// let mut rng = RngForge::new(1).stream("dp");
/// let db = plane.exchange(SimTime::ZERO, ExchangeProtocol::CouchDb, 100_000, &mut rng);
/// let mem = plane.exchange(SimTime::ZERO, ExchangeProtocol::InMemory, 100_000, &mut rng);
/// assert!(db > mem * 10); // Fig. 6c ordering
/// ```
#[derive(Debug)]
pub struct DataPlane {
    couchdb: CouchDbModel,
    rpc: RpcProfile,
    remote: RemoteMemoryFabric,
    /// Intra-cluster wire bandwidth for direct RPC payloads (10 GbE).
    rpc_wire_bytes_per_sec: f64,
    /// Shared-memory copy bandwidth for the in-memory path.
    mem_bytes_per_sec: f64,
}

impl Default for DataPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl DataPlane {
    /// Creates a data plane with paper-calibrated defaults (single-board
    /// remote-memory fabric).
    pub fn new() -> Self {
        Self::for_cluster(1)
    }

    /// Creates a data plane for a cluster of `servers`, each carrying its
    /// own FPGA board (the remote-memory fabric's concurrency scales with
    /// the fleet; the CouchDB instance deliberately does not — it is the
    /// centralized bottleneck the paper identifies).
    pub fn for_cluster(servers: u32) -> Self {
        DataPlane {
            couchdb: CouchDbModel::default(),
            rpc: RpcProfile::software(),
            remote: RemoteMemoryFabric::new(RemoteMemoryParams {
                max_concurrent: 8 * servers.max(1),
                ..RemoteMemoryParams::default()
            }),
            rpc_wire_bytes_per_sec: 10e9 / 8.0,
            mem_bytes_per_sec: 20e9,
        }
    }

    /// Latency of exchanging an object of `bytes` over `protocol` at `now`.
    pub fn exchange<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        protocol: ExchangeProtocol,
        bytes: u64,
        rng: &mut R,
    ) -> SimDuration {
        match protocol {
            ExchangeProtocol::CouchDb => {
                // Parent stores, child fetches: two back-to-back DB
                // operations, entered as one queue visit so the shared
                // DB's backlog accounting stays chronological.
                let store = self.couchdb.operate(now, bytes, rng);
                let fetch = self.couchdb.operate(now, bytes, rng);
                store.max(fetch) + self.couchdb.controller_rtt.sample(rng)
            }
            ExchangeProtocol::DirectRpc => {
                let host = self.rpc.send_cost(rng, bytes) + self.rpc.recv_cost(rng, bytes);
                host + SimDuration::from_secs_f64(bytes as f64 / self.rpc_wire_bytes_per_sec)
            }
            ExchangeProtocol::InMemory => {
                // The child reads the parent's pages in place; charge one
                // pass of memory bandwidth plus a scheduling epsilon.
                SimDuration::from_micros(20)
                    + SimDuration::from_secs_f64(bytes as f64 / self.mem_bytes_per_sec)
            }
            ExchangeProtocol::RemoteMemory => self.remote.access(now, bytes, rng),
        }
    }

    /// The CouchDB model (e.g. to inspect queueing state in tests).
    pub fn couchdb(&self) -> &CouchDbModel {
        &self.couchdb
    }

    /// A logical exchange session over `protocol`: CouchDB persists the
    /// stored object across store-node crashes; the in-memory, RPC and
    /// remote-memory paths hold it in volatile state that a crash wipes.
    pub fn session(protocol: ExchangeProtocol, retry: RetryPolicy) -> ExchangeSession {
        ExchangeSession::new(retry, protocol == ExchangeProtocol::CouchDb)
    }
}

/// A message on the wire between parent, store and child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExchangeMsg {
    /// Parent → store: persist the output object.
    StoreReq,
    /// Store → parent: object persisted.
    StoreAck,
    /// Child → store: fetch the input object.
    FetchReq,
    /// Store → child: the object.
    FetchResp,
    /// Store → child: not stored (yet).
    FetchMiss,
}

/// A side effect requested by [`ExchangeSession::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeEffect {
    /// Put a message on the wire (the environment decides its fate:
    /// deliver, duplicate, drop).
    Send(ExchangeMsg),
    /// Launch the child function with the fetched input.
    RunChild,
}

/// An input the environment feeds into the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeInput {
    /// A message arrived (possibly duplicated or reordered).
    Deliver(ExchangeMsg),
    /// The parent's retransmit timer fired (no ack yet).
    ParentTimer,
    /// The child's retransmit timer fired (no response yet).
    ChildTimer,
    /// The storage node crashed and restarted.
    StoreCrash,
}

/// One parent→child data handoff lifted to a pure message-passing state
/// machine.
///
/// The latency models above price an exchange; this machine captures its
/// *logic* — store, ack, fetch, retransmit, give-up — as a step function
/// with no RNG and no clock, so the same protocol code runs under the
/// DES engine and under exhaustive exploration by the model checker
/// (`hivemind_sim::mc`). The invariant that matters is exactly-once
/// execution: however the environment interleaves, duplicates or drops
/// messages and crashes the store, the child must run at most once (and,
/// absent give-up, at least once eventually).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExchangeSession {
    retry: RetryPolicy,
    /// The store survives [`ExchangeInput::StoreCrash`] (CouchDB); a
    /// volatile store loses the object.
    durable: bool,
    /// Deduplicate redundant `FetchResp` deliveries (the correct
    /// protocol). Disabled only by the planted-bug mutation hook.
    dedup: bool,
    stored: bool,
    acked: bool,
    delivered: bool,
    executed: u32,
    store_sends: u32,
    fetch_sends: u32,
    failed: bool,
}

impl ExchangeSession {
    /// A fresh session governed by `retry`; `durable` selects whether
    /// the store survives crashes.
    pub fn new(retry: RetryPolicy, durable: bool) -> ExchangeSession {
        ExchangeSession {
            retry,
            durable,
            dedup: true,
            stored: false,
            acked: false,
            delivered: false,
            executed: 0,
            store_sends: 0,
            fetch_sends: 0,
            failed: false,
        }
    }

    /// Planted-bug mutation hook: disables `FetchResp` deduplication so
    /// a duplicated response runs the child twice. Exists to prove the
    /// model-checking lane has teeth — the checker must produce a
    /// counterexample for this variant.
    pub fn without_dedup(mut self) -> ExchangeSession {
        self.dedup = false;
        self
    }

    /// Emits the opening sends (parent stores, child fetches — the fetch
    /// can race ahead of the store, which is why `FetchMiss` exists).
    pub fn start(&mut self, out: &mut Vec<ExchangeEffect>) {
        self.store_sends = 1;
        self.fetch_sends = 1;
        out.push(ExchangeEffect::Send(ExchangeMsg::StoreReq));
        out.push(ExchangeEffect::Send(ExchangeMsg::FetchReq));
    }

    /// Advances the machine by one input, appending requested effects.
    pub fn step(&mut self, input: ExchangeInput, out: &mut Vec<ExchangeEffect>) {
        if self.failed {
            return;
        }
        match input {
            ExchangeInput::Deliver(ExchangeMsg::StoreReq) => {
                self.stored = true;
                out.push(ExchangeEffect::Send(ExchangeMsg::StoreAck));
            }
            ExchangeInput::Deliver(ExchangeMsg::StoreAck) => {
                self.acked = true;
            }
            ExchangeInput::Deliver(ExchangeMsg::FetchReq) => {
                let reply = if self.stored {
                    ExchangeMsg::FetchResp
                } else {
                    ExchangeMsg::FetchMiss
                };
                out.push(ExchangeEffect::Send(reply));
            }
            ExchangeInput::Deliver(ExchangeMsg::FetchResp) => {
                if self.delivered && self.dedup {
                    return; // redundant retransmission: drop it
                }
                self.delivered = true;
                self.executed += 1;
                out.push(ExchangeEffect::RunChild);
            }
            ExchangeInput::Deliver(ExchangeMsg::FetchMiss) => {
                self.retransmit_fetch(out);
            }
            ExchangeInput::ParentTimer => {
                if !self.acked {
                    match self.retry.on_fault(self.store_sends.saturating_sub(1)) {
                        RetryDecision::Retry { .. } | RetryDecision::ForceSuccess => {
                            self.store_sends += 1;
                            out.push(ExchangeEffect::Send(ExchangeMsg::StoreReq));
                        }
                        RetryDecision::GiveUp => self.failed = true,
                    }
                }
            }
            ExchangeInput::ChildTimer => {
                if !self.delivered {
                    self.retransmit_fetch(out);
                }
            }
            ExchangeInput::StoreCrash => {
                if !self.durable {
                    self.stored = false;
                }
            }
        }
    }

    fn retransmit_fetch(&mut self, out: &mut Vec<ExchangeEffect>) {
        if self.delivered {
            return;
        }
        match self.retry.on_fault(self.fetch_sends.saturating_sub(1)) {
            RetryDecision::Retry { .. } | RetryDecision::ForceSuccess => {
                self.fetch_sends += 1;
                out.push(ExchangeEffect::Send(ExchangeMsg::FetchReq));
            }
            RetryDecision::GiveUp => self.failed = true,
        }
    }

    /// Times the child has been launched (the exactly-once invariant is
    /// `executed() <= 1`).
    pub fn executed(&self) -> u32 {
        self.executed
    }

    /// Whether the object is currently in the store.
    pub fn stored(&self) -> bool {
        self.stored
    }

    /// Whether the parent has seen its ack.
    pub fn acked(&self) -> bool {
        self.acked
    }

    /// Whether the child has received the object.
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// Whether a bounded policy exhausted its attempts and gave up.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// `StoreReq` transmissions so far.
    pub fn store_sends(&self) -> u32 {
        self.store_sends
    }

    /// `FetchReq` transmissions so far.
    pub fn fetch_sends(&self) -> u32 {
        self.fetch_sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::rng::RngForge;

    fn mean_latency(p: ExchangeProtocol, bytes: u64, contended: bool) -> f64 {
        let mut plane = DataPlane::new();
        let mut rng = RngForge::new(11).stream("dp");
        let n = 100;
        let mut total = 0.0;
        for i in 0..n {
            // Contended: all at t=0. Uncontended: spaced 1 s apart.
            let t = if contended {
                SimTime::ZERO
            } else {
                SimTime::from_secs(i)
            };
            total += plane.exchange(t, p, bytes, &mut rng).as_secs_f64();
        }
        total / n as f64
    }

    #[test]
    fn fig6c_protocol_ordering() {
        let db = mean_latency(ExchangeProtocol::CouchDb, 100_000, false);
        let rpc = mean_latency(ExchangeProtocol::DirectRpc, 100_000, false);
        let mem = mean_latency(ExchangeProtocol::InMemory, 100_000, false);
        let rdma = mean_latency(ExchangeProtocol::RemoteMemory, 100_000, false);
        assert!(db > rpc, "CouchDB {db} should exceed RPC {rpc}");
        assert!(rpc > mem, "RPC {rpc} should exceed in-memory {mem}");
        assert!(rdma < db / 10.0, "remote memory {rdma} ≪ CouchDB {db}");
        assert!(rdma < rpc, "remote memory {rdma} < RPC {rpc}");
    }

    #[test]
    fn couchdb_contention_inflates_tail() {
        let calm = mean_latency(ExchangeProtocol::CouchDb, 500_000, false);
        let storm = mean_latency(ExchangeProtocol::CouchDb, 500_000, true);
        assert!(storm > calm * 3.0, "contended {storm} vs calm {calm}");
    }

    #[test]
    fn in_memory_is_sub_millisecond_for_small_objects() {
        let mem = mean_latency(ExchangeProtocol::InMemory, 10_000, false);
        assert!(mem < 1e-3);
    }

    #[test]
    fn mean_model_tracks_simulation_unloaded() {
        // Each protocol's unloaded mean, from the plane's own parameters:
        // CouchDB is a store plus a fetch, each a controller round-trip,
        // an operation overhead and the bytes at storage bandwidth.
        let plane = DataPlane::new();
        let bytes = 100_000;
        let b = bytes as f64;
        let db = &plane.couchdb;
        let remote = RemoteMemoryParams::default();
        for (p, analytic) in [
            (
                ExchangeProtocol::CouchDb,
                2.0 * (db.controller_rtt.mean_secs()
                    + db.op_overhead.mean_secs()
                    + b / db.bytes_per_sec),
            ),
            (
                ExchangeProtocol::DirectRpc,
                plane.rpc.mean_one_way_secs(bytes) + b / plane.rpc_wire_bytes_per_sec,
            ),
            (
                ExchangeProtocol::InMemory,
                20e-6 + b / plane.mem_bytes_per_sec,
            ),
            (
                ExchangeProtocol::RemoteMemory,
                remote.setup.mean_secs()
                    + (b / remote.bytes_per_sec).max(remote.floor.as_secs_f64()),
            ),
        ] {
            let simulated = mean_latency(p, bytes, false);
            let ratio = simulated / analytic;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{p:?}: analytic {analytic} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn couchdb_scales_with_bytes() {
        let small = mean_latency(ExchangeProtocol::CouchDb, 1_000, false);
        let large = mean_latency(ExchangeProtocol::CouchDb, 50_000_000, false);
        assert!(large > small + 0.15, "50 MB should add ~0.17 s at 600 MB/s");
    }

    #[test]
    fn session_happy_path_runs_child_once() {
        let mut s = DataPlane::session(ExchangeProtocol::CouchDb, RetryPolicy::default());
        let mut out = Vec::new();
        s.start(&mut out);
        assert_eq!(
            out,
            vec![
                ExchangeEffect::Send(ExchangeMsg::StoreReq),
                ExchangeEffect::Send(ExchangeMsg::FetchReq),
            ]
        );
        out.clear();
        s.step(ExchangeInput::Deliver(ExchangeMsg::StoreReq), &mut out);
        assert_eq!(out, vec![ExchangeEffect::Send(ExchangeMsg::StoreAck)]);
        out.clear();
        s.step(ExchangeInput::Deliver(ExchangeMsg::StoreAck), &mut out);
        s.step(ExchangeInput::Deliver(ExchangeMsg::FetchReq), &mut out);
        assert_eq!(out, vec![ExchangeEffect::Send(ExchangeMsg::FetchResp)]);
        out.clear();
        s.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        assert_eq!(out, vec![ExchangeEffect::RunChild]);
        assert_eq!(s.executed(), 1);
        assert!(s.acked() && s.delivered() && !s.failed());
    }

    #[test]
    fn session_dedup_absorbs_duplicate_response() {
        let mut s = DataPlane::session(ExchangeProtocol::CouchDb, RetryPolicy::default());
        let mut out = Vec::new();
        s.start(&mut out);
        s.step(ExchangeInput::Deliver(ExchangeMsg::StoreReq), &mut out);
        out.clear();
        s.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        s.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        assert_eq!(out, vec![ExchangeEffect::RunChild], "one launch only");
        assert_eq!(s.executed(), 1);
        // The planted-bug variant runs the child twice.
        let mut buggy = ExchangeSession::new(RetryPolicy::default(), true).without_dedup();
        out.clear();
        buggy.start(&mut out);
        out.clear();
        buggy.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        buggy.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        assert_eq!(buggy.executed(), 2);
    }

    #[test]
    fn session_crash_loses_volatile_store_but_not_durable() {
        for (proto, survives) in [
            (ExchangeProtocol::CouchDb, true),
            (ExchangeProtocol::InMemory, false),
            (ExchangeProtocol::RemoteMemory, false),
        ] {
            let mut s = DataPlane::session(proto, RetryPolicy::default());
            let mut out = Vec::new();
            s.start(&mut out);
            s.step(ExchangeInput::Deliver(ExchangeMsg::StoreReq), &mut out);
            assert!(s.stored());
            s.step(ExchangeInput::StoreCrash, &mut out);
            assert_eq!(s.stored(), survives, "{proto:?}");
            // A fetch after the crash misses on volatile stores.
            out.clear();
            s.step(ExchangeInput::Deliver(ExchangeMsg::FetchReq), &mut out);
            let expect = if survives {
                ExchangeMsg::FetchResp
            } else {
                ExchangeMsg::FetchMiss
            };
            assert_eq!(out, vec![ExchangeEffect::Send(expect)]);
        }
    }

    #[test]
    fn session_bounded_policy_gives_up_after_exhausting_fetches() {
        let rp = RetryPolicy::bounded(3, SimDuration::ZERO);
        let mut s = ExchangeSession::new(rp, false);
        let mut out = Vec::new();
        s.start(&mut out); // fetch_sends = 1
        out.clear();
        s.step(ExchangeInput::ChildTimer, &mut out); // 2
        s.step(ExchangeInput::ChildTimer, &mut out); // 3
        assert_eq!(out.len(), 2, "two retransmissions within budget");
        assert!(!s.failed());
        out.clear();
        s.step(ExchangeInput::ChildTimer, &mut out); // exhausted
        assert!(s.failed());
        assert!(out.is_empty());
        // A failed session is inert: even a late response is ignored.
        s.step(ExchangeInput::Deliver(ExchangeMsg::FetchResp), &mut out);
        assert_eq!(s.executed(), 0);
        assert!(out.is_empty());
    }
}

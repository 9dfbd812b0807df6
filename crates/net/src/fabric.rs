//! Multi-hop transfer routing over a [`Topology`].
//!
//! The [`Fabric`] moves [`Transfer`]s hop by hop across FIFO links,
//! preserving global arrival order (the earliest in-flight hop completion
//! anywhere in the fabric is always processed first), and meters traffic
//! that crosses the edge↔cloud wireless boundary for the bandwidth figures.
//!
//! Each transfer's state lives once in a recycled slab; queues carry only
//! its slot. A hop onto a link that never starts a path and alone feeds
//! every link after it (the ToR switch and each server NIC's receive
//! side) is served at arrival and the transfer routes on from the exit
//! instant, so a device→server transfer takes two queued hops (wireless
//! medium, trunk uplink) and a server→device transfer three (NIC transmit
//! side, trunk downlink, wireless medium), with the same delivery times a
//! queue on every hop gives.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hivemind_sim::faults::{self, NetFaults};
use hivemind_sim::overload::{NetBackpressure, INGRESS_RETRY_DELAY};
use hivemind_sim::stats::Meter;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::{ArgValue, TraceHandle};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::link::Link;
use crate::topology::{LinkClass, Node, Path, Topology};

/// Unique id of a transfer within one fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// A payload to move across the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Source node.
    pub src: Node,
    /// Destination node.
    pub dst: Node,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Opaque correlation tag chosen by the caller.
    pub tag: u64,
}

/// A completed transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Id assigned at send time.
    pub id: TransferId,
    /// Caller's correlation tag.
    pub tag: u64,
    /// Source node.
    pub src: Node,
    /// Destination node.
    pub dst: Node,
    /// Payload size in bytes.
    pub bytes: u64,
    /// When the transfer entered the fabric.
    pub sent_at: SimTime,
    /// When the last hop delivered it.
    pub delivered_at: SimTime,
}

impl Delivery {
    /// End-to-end network latency of this transfer.
    pub fn latency(&self) -> SimDuration {
        self.delivered_at - self.sent_at
    }
}

/// Counters describing what the fault plane did to this fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaultStats {
    /// Retransmission rounds forced by packet loss.
    pub packets_lost: u64,
    /// Transfers held back by a partition.
    pub transfers_held: u64,
    /// Most transfers simultaneously held behind partition windows.
    pub held_high_water: u64,
    /// Transfers tail-dropped because a hold would have exceeded
    /// `NetFaults::hold_bound` (0 when the bound is unset).
    pub transfers_dropped: u64,
}

/// Per-transfer fault state: the plan's network knobs plus a private RNG
/// drawn from the dedicated fault lane of the seed chain. Absent (`None`
/// on the fabric) unless the experiment's `FaultPlan` asks for loss or
/// partitions, so fault-free runs make zero extra draws.
#[derive(Debug)]
struct FabricFaults {
    cfg: NetFaults,
    rng: SmallRng,
    stats: NetFaultStats,
    /// Transfers currently held behind partition windows; bounded by
    /// `cfg.hold_bound` when set.
    held_now: u64,
}

/// Bounded-ingress backpressure state: the policy knobs plus a counter of
/// hold decisions. Absent (`None` on the fabric) unless an
/// [`OverloadPolicy`](hivemind_sim::overload::OverloadPolicy) arms it, so
/// the default path is byte-identical to a fabric without the feature.
/// Decisions are pure functions of link occupancy and event time — no RNG.
#[derive(Debug)]
struct Backpressure {
    cfg: NetBackpressure,
    /// Hold decisions made (a transfer re-held at each re-offer counts
    /// once per hold).
    holds: u64,
}

/// A transfer in flight. It lives in the fabric's slab from entry to
/// delivery while only its slot index moves through the queues.
#[derive(Debug)]
struct HopState {
    id: TransferId,
    tag: u64,
    src: Node,
    dst: Node,
    bytes: u64,
    sent_at: SimTime,
    path: Path,
    next_hop: usize,
}

/// A transfer waiting out a partition window, a retransmit pause or an
/// ingress re-offer: `(release time, id, slot, fault_hold)`, where
/// `fault_hold` is `true` when a partition window held it (the hold is
/// charged against `hold_bound` and released on re-entry). Ids are
/// unique, so the heap pops in `(release time, id)` order.
type Delayed = (SimTime, TransferId, u32, bool);

/// The network fabric component.
///
/// # Examples
///
/// ```rust
/// use hivemind_net::fabric::{Fabric, Transfer};
/// use hivemind_net::topology::{Node, Topology, TopologyParams};
/// use hivemind_sim::time::SimTime;
///
/// let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
/// fabric.send(
///     SimTime::ZERO,
///     Transfer { src: Node::Device(0), dst: Node::Server(0), bytes: 2_000_000, tag: 1 },
/// );
/// let mut deliveries = Vec::new();
/// while let Some(wake) = fabric.next_wakeup() {
///     fabric.advance_into(wake, &mut deliveries);
/// }
/// assert_eq!(deliveries.len(), 1);
/// assert!(deliveries[0].latency().as_millis_f64() > 18.0); // 2 MB over ~108 MB/s WiFi
/// ```
#[derive(Debug)]
pub struct Fabric {
    topology: Topology,
    /// One FIFO per link, queueing slab slots. Links the topology lets
    /// the fabric pass (`Topology::passes_through`) never queue.
    links: Vec<Link<u32>>,
    /// Every transfer in flight, indexed by slot; a slot is recycled
    /// through `free` once its delivery is emitted, so the slab stays at
    /// the in-flight high water and steady state never allocates.
    slab: Vec<HopState>,
    free: Vec<u32>,
    next_id: u64,
    /// Deliveries waiting to be emitted as `(delivered_at, id, slot)`,
    /// min-ordered so draining pops them already chronological. A
    /// transfer whose last hop is passed lands here future-dated.
    local: BinaryHeap<Reverse<(SimTime, TransferId, u32)>>,
    /// Delay applied to same-node "transfers" (loopback copy).
    local_delay: SimDuration,
    edge_meter: Meter,
    total_meter: Meter,
    /// Wake-up index: one `(head delivery time, link)` entry per busy
    /// link. Keeps `next_wakeup`/`advance_into` away from O(links) scans so
    /// thousand-device topologies stay fast.
    wake: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Exit instants of transfers passed through the switch, which a
    /// queue-every-hop fabric would still report as pending hops. They
    /// pop as no-op internal events, so [`Fabric::next_wakeup`] — and
    /// the epoch grid a caller builds from it — stays what per-hop
    /// queueing gives. The switch is FIFO, so the ring is sorted.
    switch_exits: VecDeque<SimTime>,
    tracer: TraceHandle,
    /// Fault-plan state; `None` unless the experiment injects network
    /// faults (the inert path makes no extra RNG draws).
    faults: Option<FabricFaults>,
    /// Bounded-ingress backpressure; `None` unless armed by an overload
    /// policy.
    backpressure: Option<Backpressure>,
    /// Transfers held back by a partition, a retransmit pause or an
    /// ingress re-offer, released in `(time, id)` order interleaved with
    /// hop completions.
    delayed: BinaryHeap<Reverse<Delayed>>,
}

impl Fabric {
    /// Creates a fabric over `topology` with a 1-second metering window.
    pub fn new(topology: Topology) -> Self {
        let links = topology
            .links()
            .iter()
            .map(|spec| Link::new(spec.bytes_per_sec, spec.propagation))
            .collect();
        Fabric {
            topology,
            links,
            slab: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            local: BinaryHeap::new(),
            local_delay: SimDuration::from_micros(50),
            edge_meter: Meter::new(SimDuration::from_secs(1)),
            total_meter: Meter::new(SimDuration::from_secs(1)),
            wake: BinaryHeap::new(),
            switch_exits: VecDeque::new(),
            tracer: TraceHandle::disabled(),
            faults: None,
            backpressure: None,
            delayed: BinaryHeap::new(),
        }
    }

    /// Arms the per-transfer fault pass (packet loss, partitions). `rng` must come from the dedicated `"faults"` lane of
    /// the replicate's seed chain so arming it never perturbs the
    /// fault-free streams.
    pub fn set_faults(&mut self, cfg: NetFaults, rng: SmallRng) {
        if cfg.per_transfer() {
            self.faults = Some(FabricFaults {
                cfg,
                rng,
                stats: NetFaultStats::default(),
                held_now: 0,
            });
        }
    }

    /// Transfers currently held behind partition windows.
    pub fn held_transfers_now(&self) -> u64 {
        self.faults.as_ref().map(|f| f.held_now).unwrap_or(0)
    }

    /// What the fault plane did so far (zeros when no faults are armed).
    pub fn fault_stats(&self) -> NetFaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Arms bounded-ingress backpressure: a transfer whose first hop's
    /// link already holds `ingress_bound` items is held and re-offered
    /// after [`INGRESS_RETRY_DELAY`] instead of joining the queue. Unlike
    /// [`Fabric::set_faults`] this needs no RNG — every hold decision is
    /// a pure function of link occupancy at the offer instant, so arming
    /// an inactive policy changes nothing.
    pub fn set_backpressure(&mut self, cfg: NetBackpressure) {
        if cfg.ingress_bound.is_some() {
            self.backpressure = Some(Backpressure { cfg, holds: 0 });
        }
    }

    /// Hold decisions made by ingress backpressure so far (0 when the
    /// feature is not armed).
    pub fn backpressure_holds(&self) -> u64 {
        self.backpressure.as_ref().map(|b| b.holds).unwrap_or(0)
    }

    /// Installs a tracing handle; the fabric then emits a `net/link.load`
    /// counter sample (track = link index) whenever a link's occupancy
    /// changes, plus a `net/send` instant per injected transfer.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Injects a transfer at time `now`, returning its id, or `None` when
    /// the transfer is tail-dropped at the partition hold bound and will
    /// never be delivered.
    pub fn send(&mut self, now: SimTime, transfer: Transfer) -> Option<TransferId> {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        let path = self.topology.path(transfer.src, transfer.dst);
        self.total_meter.add(now, transfer.bytes as f64);
        let wireless = path
            .iter()
            .any(|l| self.topology.links()[l.index()].class == LinkClass::WirelessMedium);
        if wireless {
            self.edge_meter.add(now, transfer.bytes as f64);
        }
        if self.tracer.is_enabled() {
            self.tracer.instant(
                "net",
                "send",
                0,
                now,
                vec![
                    ("id", ArgValue::U64(id.0)),
                    ("src", ArgValue::Str(format!("{:?}", transfer.src))),
                    ("dst", ArgValue::Str(format!("{:?}", transfer.dst))),
                    ("bytes", ArgValue::U64(transfer.bytes)),
                    ("hops", ArgValue::U64(path.len() as u64)),
                ],
            );
        }
        // A transfer tail-dropped at the hold bound spends its id but
        // never enters the fabric.
        let (start, fault_hold) = if wireless {
            self.apply_faults(now, id)?
        } else {
            (now, false)
        };
        let state = HopState {
            id,
            tag: transfer.tag,
            src: transfer.src,
            dst: transfer.dst,
            bytes: transfer.bytes,
            sent_at: now,
            path,
            next_hop: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = state;
                slot
            }
            None => {
                self.slab.push(state);
                (self.slab.len() - 1) as u32
            }
        };
        if start > now {
            self.delayed.push(Reverse((start, id, slot, fault_hold)));
        } else {
            self.route(now, slot);
        }
        Some(id)
    }

    /// Applies the armed fault plan to a wireless-crossing transfer.
    /// Returns `Some((start, fault_hold))` — the instant the transfer may
    /// actually enter the fabric, and whether a partition window held
    /// it (charged against `hold_bound`) — or `None` when the hold
    /// bound is full and the transfer is tail-dropped. No-op (and zero
    /// RNG draws) when no faults are armed.
    fn apply_faults(&mut self, now: SimTime, id: TransferId) -> Option<(SimTime, bool)> {
        let Some(f) = self.faults.as_mut() else {
            return Some((now, false));
        };
        // Hold the transfer while a partition covers its start instant,
        // until the (possibly chained) windows heal: the same fold the
        // disconnect plane's autonomy decision reads.
        let mut start = match f.cfg.partition_until(now.as_secs_f64()) {
            Some(heal) => SimTime::ZERO + SimDuration::from_secs_f64(heal),
            None => now,
        };
        let fault_hold = start > now;
        if fault_hold {
            // Bounded hold accounting: a full hold buffer tail-drops the
            // newest transfer instead of growing silently.
            if let Some(bound) = f.cfg.hold_bound {
                if f.held_now >= bound as u64 {
                    f.stats.transfers_dropped += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.instant(
                            "net",
                            "held.drop",
                            0,
                            now,
                            vec![
                                ("transfer", ArgValue::U64(id.0)),
                                ("held", ArgValue::U64(f.held_now)),
                            ],
                        );
                    }
                    return None;
                }
            }
            f.held_now += 1;
            f.stats.transfers_held += 1;
            f.stats.held_high_water = f.stats.held_high_water.max(f.held_now);
            if self.tracer.is_enabled() {
                // The kind stays `link_outage` so partition traces keep
                // their bytes.
                self.tracer
                    .counter("net", "held_transfers", 0, now, f.held_now as f64);
                self.tracer.instant(
                    faults::TRACE_CAT,
                    faults::EV_INJECTED,
                    0,
                    now,
                    vec![
                        ("kind", ArgValue::Str("link_outage".into())),
                        ("transfer", ArgValue::U64(id.0)),
                    ],
                );
                self.tracer.instant(
                    faults::TRACE_CAT,
                    faults::EV_RECOVERED,
                    0,
                    start,
                    vec![
                        ("kind", ArgValue::Str("link_outage".into())),
                        ("transfer", ArgValue::U64(id.0)),
                    ],
                );
            }
        }
        // Packet loss: each lost round costs one retransmission delay.
        // Capped so a pathological loss rate of 1.0 still terminates
        // (models the transport giving up on backoff and pushing through).
        if f.cfg.packet_loss > 0.0 {
            let mut rounds: u64 = 0;
            while rounds < 50 && f.rng.gen::<f64>() < f.cfg.packet_loss {
                rounds += 1;
            }
            if rounds > 0 {
                f.stats.packets_lost += rounds;
                start += faults::RETRANSMIT * rounds;
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        faults::TRACE_CAT,
                        faults::EV_INJECTED,
                        0,
                        now,
                        vec![
                            ("kind", ArgValue::Str("packet_loss".into())),
                            ("transfer", ArgValue::U64(id.0)),
                            ("retransmits", ArgValue::U64(rounds)),
                        ],
                    );
                }
            }
        }
        Some((start, fault_hold))
    }

    /// Moves the transfer in `slot` on from its next hop, which it
    /// reaches at `now`. A link the topology lets the fabric pass serves
    /// the transfer at once and routing continues from that link's exit
    /// instant, so a transfer waits in a queue only where another feeder
    /// can still interleave with it: on a shared link, or in `local` as a
    /// (possibly future-dated) delivery.
    fn route(&mut self, mut now: SimTime, slot: u32) {
        let HopState {
            id,
            bytes,
            path,
            mut next_hop,
            ..
        } = self.slab[slot as usize];
        loop {
            let Some(&link) = path.get(next_hop) else {
                let at = if path.is_empty() {
                    now + self.local_delay
                } else {
                    now
                };
                self.local.push(Reverse((at, id, slot)));
                return;
            };
            let idx = link.index();
            if next_hop == 0 && self.ingress_full(now, idx, id) {
                self.delayed
                    .push(Reverse((now + INGRESS_RETRY_DELAY, id, slot, false)));
                return;
            }
            next_hop += 1;
            if self.topology.passes_through(link) {
                now = self.links[idx].pass(now, bytes);
                if next_hop < path.len() {
                    debug_assert!(
                        self.switch_exits.back().is_none_or(|&t| t <= now),
                        "switch exits must not decrease"
                    );
                    self.switch_exits.push_back(now);
                }
                continue;
            }
            self.slab[slot as usize].next_hop = next_hop;
            // Index only the link's head, which a FIFO link changes only
            // when an enqueue finds it empty: pushing an entry per enqueue
            // would pile thousands of duplicates onto a saturated link
            // (quadratic).
            let was_idle = self.links[idx].load() == 0;
            self.links[idx].enqueue(now, bytes, slot);
            if was_idle {
                let head = self.links[idx].next_delivery().expect("just enqueued");
                self.wake.push(Reverse((head, idx as u32)));
            }
            self.sample_link(now, idx);
            return;
        }
    }

    /// Bounded ingress: a transfer about to take its *first* hop onto a
    /// link already at the bound is held and re-offered later instead of
    /// deepening the queue. Each re-offer re-checks, and time advances
    /// every hold, so the transfer eventually enters once the link drains
    /// — deterministic backpressure with no drops. Returns whether link
    /// `idx` is at the bound, counting (and tracing) the hold if so.
    fn ingress_full(&mut self, now: SimTime, idx: usize, id: TransferId) -> bool {
        let Some(bp) = self.backpressure.as_mut() else {
            return false;
        };
        let load = self.links[idx].load();
        if bp
            .cfg
            .ingress_bound
            .is_none_or(|bound| load < bound as usize)
        {
            return false;
        }
        bp.holds += 1;
        if self.tracer.is_enabled() {
            self.tracer.instant(
                "net",
                "backpressure.hold",
                idx as u32,
                now,
                vec![
                    ("transfer", ArgValue::U64(id.0)),
                    ("load", ArgValue::U64(load as u64)),
                ],
            );
        }
        true
    }

    /// Emits a queue-depth counter sample for link `idx` (no-op when
    /// tracing is disabled).
    fn sample_link(&self, now: SimTime, idx: usize) {
        if self.tracer.is_enabled() {
            self.tracer.counter(
                "net",
                "link.load",
                idx as u32,
                now,
                self.links[idx].load() as f64,
            );
        }
    }

    /// The earliest instant at which the fabric has a delivery to report or
    /// a hop to advance.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        earliest(
            self.next_internal(),
            self.local.peek().map(|&Reverse((t, ..))| t),
        )
    }

    /// The earliest internal event: a hop completion, a held transfer's
    /// release or a passed switch exit.
    fn next_internal(&self) -> Option<SimTime> {
        earliest(
            earliest(
                self.wake.peek().map(|&Reverse((t, _))| t),
                self.delayed.peek().map(|&Reverse((t, ..))| t),
            ),
            self.switch_exits.front().copied(),
        )
    }

    /// Processes the earliest internal event. A switch exit due no later
    /// than the rest only pops; a held transfer released at the same
    /// instant as a hop completion goes first.
    fn step(&mut self) {
        let wake_head = self.wake.peek().map(|&Reverse((t, _))| t);
        let delayed_head = self.delayed.peek().map(|&Reverse((t, ..))| t);
        if self
            .switch_exits
            .front()
            .is_some_and(|&exit| earliest(wake_head, delayed_head).is_none_or(|t| exit <= t))
        {
            self.switch_exits.pop_front();
            return;
        }
        if delayed_head.is_some_and(|dt| wake_head.is_none_or(|wt| dt <= wt)) {
            let Some(Reverse((at, _, slot, fault_hold))) = self.delayed.pop() else {
                unreachable!("peeked head vanished")
            };
            if fault_hold {
                if let Some(f) = self.faults.as_mut() {
                    f.held_now = f.held_now.saturating_sub(1);
                    if self.tracer.is_enabled() {
                        self.tracer
                            .counter("net", "held_transfers", 0, at, f.held_now as f64);
                    }
                }
            }
            self.route(at, slot);
            return;
        }
        let Some(Reverse((t, idx))) = self.wake.pop() else {
            return;
        };
        let idx = idx as usize;
        let (at, slot) = self.links[idx]
            .pop_ready(t)
            .expect("a wake entry is its link's exact head");
        if let Some(next) = self.links[idx].next_delivery() {
            self.wake.push(Reverse((next, idx as u32)));
        }
        self.sample_link(at, idx);
        self.route(at, slot);
    }

    /// Processes internal events (intermediate hops, held-transfer
    /// releases and passed switch exits) due strictly before `bound`, the
    /// earliest instant a new [`Fabric::send`] can arrive, and strictly
    /// before the first pending delivery, since the caller may answer a
    /// delivery with a send.
    ///
    /// Strictness keeps same-instant ties in the order a caller gets by
    /// sending first and then calling [`Fabric::advance_into`]: a send at
    /// `bound` still precedes the hops due at `bound`. Deliveries are
    /// only reported by `advance_into`, so running ahead changes how few
    /// wake-ups a caller needs, never what it sees.
    pub fn run_ahead(&mut self, bound: SimTime) {
        while self.next_internal().is_some_and(|t| {
            t < bound
                && self
                    .local
                    .peek()
                    .is_none_or(|&Reverse((delivered_at, ..))| t < delivered_at)
        }) {
            self.step();
        }
    }

    /// Advances the fabric to `now`, appending all deliveries that
    /// completed at or before `now` to `out` in chronological order.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Delivery>) {
        // Process hop completions in global time order (the wake index is
        // conservative: every pending delivery has an entry at or before
        // its true time) so FIFO queues see arrivals chronologically.
        // Fault-delayed transfers are released interleaved at their exact
        // instants so link FIFOs still see arrivals in time order.
        while self.next_internal().is_some_and(|t| t <= now) {
            self.step();
        }
        // Emit due deliveries; the heap pops them in (delivered_at, id)
        // order, so no sort pass, and each frees its slab slot.
        while let Some(&Reverse((delivered_at, _, slot))) = self.local.peek() {
            if delivered_at > now {
                break;
            }
            self.local.pop();
            let s = &self.slab[slot as usize];
            out.push(Delivery {
                id: s.id,
                tag: s.tag,
                src: s.src,
                dst: s.dst,
                bytes: s.bytes,
                sent_at: s.sent_at,
                delivered_at,
            });
            self.free.push(slot);
        }
    }

    /// Bytes that crossed the wireless edge↔cloud boundary, total.
    pub fn edge_bytes_total(&self) -> f64 {
        self.edge_meter.total()
    }

    /// Closes the meters at `end` and returns `(edge, total)` meters.
    pub fn finish_meters(&mut self, end: SimTime) -> (&Meter, &Meter) {
        self.edge_meter.finish(end);
        self.total_meter.finish(end);
        (&self.edge_meter, &self.total_meter)
    }

    /// Read-only access to the edge meter (traffic over wireless links).
    pub fn edge_meter(&self) -> &Meter {
        &self.edge_meter
    }
}

/// The earlier of two optional instants (`None` means "never").
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyParams;

    fn fabric() -> Fabric {
        Fabric::new(Topology::new(TopologyParams::default()))
    }

    fn drain(f: &mut Fabric) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(t) = f.next_wakeup() {
            f.advance_into(t, &mut out);
        }
        out
    }

    #[test]
    fn uplink_transfer_latency_scales_with_size() {
        let mut f = fabric();
        f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Device(0),
                dst: Node::Server(0),
                bytes: 2_000_000,
                tag: 0,
            },
        );
        let d = drain(&mut f);
        assert_eq!(d.len(), 1);
        let lat = d[0].latency().as_secs_f64();
        // 2 MB over 108.375 MB/s WiFi ≈ 18.5 ms, plus store-and-forward
        // serialization on the trunk/switch/NIC hops ≈ 18 ms more.
        assert!(lat > 0.018 && lat < 0.060, "latency {lat}");
    }

    #[test]
    fn wireless_contention_serializes_same_router() {
        let mut f = fabric();
        // Devices 0 and 2 share router 0; send two 2 MB frames at once.
        for (dev, tag) in [(0u32, 1u64), (2, 2)] {
            f.send(
                SimTime::ZERO,
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(0),
                    bytes: 2_000_000,
                    tag,
                },
            );
        }
        let d = drain(&mut f);
        assert_eq!(d.len(), 2);
        let gap = d[1].delivered_at - d[0].delivered_at;
        // Second frame waits a full transmission slot (~18.5 ms) on WiFi.
        assert!(gap.as_millis_f64() > 15.0, "gap {gap}");
    }

    #[test]
    fn different_routers_do_not_contend() {
        let mut f = fabric();
        // Devices 0 and 1 use different routers under round-robin.
        for (dev, tag) in [(0u32, 1u64), (1, 2)] {
            f.send(
                SimTime::ZERO,
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(0),
                    bytes: 2_000_000,
                    tag,
                },
            );
        }
        let d = drain(&mut f);
        let gap = (d[1].delivered_at - d[0].delivered_at).as_millis_f64();
        // Only the shared 10 GbE NIC-rx serializes (~1.6 ms for 2 MB),
        // far below the ~18.5 ms WiFi slot seen on a shared router.
        assert!(gap < 5.0, "gap {gap} ms");
    }

    #[test]
    fn server_to_server_is_fast() {
        let mut f = fabric();
        f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Server(0),
                dst: Node::Server(1),
                bytes: 1_000_000,
                tag: 0,
            },
        );
        let d = drain(&mut f);
        // 1 MB at 10 Gb/s ≈ 0.8 ms + small switch time.
        assert!(d[0].latency().as_millis_f64() < 3.0);
    }

    #[test]
    fn local_transfer_uses_loopback_delay() {
        let mut f = fabric();
        f.send(
            SimTime::from_secs(1),
            Transfer {
                src: Node::Server(0),
                dst: Node::Server(0),
                bytes: 123,
                tag: 9,
            },
        );
        let d = drain(&mut f);
        assert_eq!(d[0].latency(), SimDuration::from_micros(50));
    }

    #[test]
    fn edge_meter_only_counts_wireless_paths() {
        let mut f = fabric();
        f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Server(0),
                dst: Node::Server(1),
                bytes: 5_000,
                tag: 0,
            },
        );
        f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Device(0),
                dst: Node::Server(1),
                bytes: 7_000,
                tag: 0,
            },
        );
        assert_eq!(f.edge_bytes_total(), 7_000.0);
    }

    #[test]
    fn deliveries_are_chronological() {
        let mut f = fabric();
        for i in 0..20u32 {
            f.send(
                SimTime::ZERO,
                Transfer {
                    src: Node::Device(i % 16),
                    dst: Node::Server(i % 12),
                    bytes: 500_000 + (i as u64) * 10_000,
                    tag: i as u64,
                },
            );
        }
        let d = drain(&mut f);
        assert_eq!(d.len(), 20);
        for pair in d.windows(2) {
            assert!(pair[0].delivered_at <= pair[1].delivered_at);
        }
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut f = fabric();
        let a = f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Device(0),
                dst: Node::Server(0),
                bytes: 1,
                tag: 0,
            },
        );
        let b = f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Device(1),
                dst: Node::Server(0),
                bytes: 1,
                tag: 0,
            },
        );
        assert!(b > a);
    }

    #[test]
    fn backpressure_holds_but_never_drops() {
        let mut bounded = fabric();
        bounded.set_backpressure(NetBackpressure {
            ingress_bound: Some(1),
        });
        // Device 0 and 2 share router 0: a burst of frames overflows the
        // one-deep ingress bound immediately.
        for tag in 0..8u64 {
            bounded.send(
                SimTime::ZERO,
                Transfer {
                    src: Node::Device((tag % 2) as u32 * 2),
                    dst: Node::Server(0),
                    bytes: 2_000_000,
                    tag,
                },
            );
        }
        let d = drain(&mut bounded);
        assert_eq!(d.len(), 8, "backpressure must hold, not drop");
        assert!(
            bounded.backpressure_holds() > 0,
            "burst past the bound must record holds"
        );
        for pair in d.windows(2) {
            assert!(pair[0].delivered_at <= pair[1].delivered_at);
        }
    }

    #[test]
    fn inactive_backpressure_is_inert() {
        let mut plain = fabric();
        let mut armed = fabric();
        armed.set_backpressure(NetBackpressure::default());
        for f in [&mut plain, &mut armed] {
            for tag in 0..6u64 {
                f.send(
                    SimTime::ZERO,
                    Transfer {
                        src: Node::Device(0),
                        dst: Node::Server(0),
                        bytes: 1_000_000,
                        tag,
                    },
                );
            }
        }
        assert_eq!(drain(&mut plain), drain(&mut armed));
        assert_eq!(armed.backpressure_holds(), 0);
    }

    #[test]
    fn partition_holds_are_accounted_and_released() {
        use hivemind_sim::rng::RngForge;

        let mut f = fabric();
        let cfg = hivemind_sim::faults::FaultPlan::default()
            .partition(1.0, 2.0)
            .net;
        f.set_faults(cfg, RngForge::new(7).child("faults").stream("net"));
        // Two transfers inside the window are held; one before it is not.
        f.send(
            SimTime::ZERO,
            Transfer {
                src: Node::Device(0),
                dst: Node::Server(0),
                bytes: 1_000,
                tag: 0,
            },
        );
        for tag in 1..3u64 {
            f.send(
                SimTime::from_secs(1),
                Transfer {
                    src: Node::Device(tag as u32),
                    dst: Node::Server(0),
                    bytes: 1_000,
                    tag,
                },
            );
        }
        assert_eq!(f.held_transfers_now(), 2);
        assert_eq!(f.fault_stats().held_high_water, 2);
        assert_eq!(f.fault_stats().transfers_dropped, 0);
        let d = drain(&mut f);
        assert_eq!(d.len(), 3, "unbounded holds never drop");
        assert_eq!(f.held_transfers_now(), 0, "releases drain the ledger");
        assert_eq!(f.fault_stats().held_high_water, 2);
    }

    #[test]
    fn hold_bound_tail_drops_past_capacity() {
        use hivemind_sim::rng::RngForge;

        let mut f = fabric();
        let cfg = hivemind_sim::faults::FaultPlan::default()
            .partition(1.0, 2.0)
            .partition_hold_bound(2)
            .net;
        f.set_faults(cfg, RngForge::new(7).child("faults").stream("net"));
        for tag in 0..5u64 {
            let transfer = Transfer {
                src: Node::Device(tag as u32),
                dst: Node::Server(0),
                bytes: 1_000,
                tag,
            };
            let sent = f.send(SimTime::from_secs(1), transfer).is_some();
            assert_eq!(sent, tag < 2, "send reports the drop of transfer {tag}");
        }
        assert_eq!(f.held_transfers_now(), 2, "bound caps the hold buffer");
        assert_eq!(f.fault_stats().transfers_dropped, 3);
        assert_eq!(f.fault_stats().held_high_water, 2);
        let d = drain(&mut f);
        // Oldest two (held before the bound filled) survive the window.
        assert_eq!(d.len(), 2);
        let tags: Vec<u64> = d.iter().map(|x| x.tag).collect();
        assert_eq!(tags, vec![0, 1]);
        assert_eq!(f.held_transfers_now(), 0);
    }

    /// Queued hops per path shape: each queued hop leaves two
    /// `net/link.load` samples (enqueue and pop), a passed hop none.
    #[test]
    fn passed_links_leave_only_the_shared_hops_queued() {
        let queued_hops = |src: Node, dst: Node| {
            let mut f = fabric();
            let tracer = TraceHandle::enabled();
            f.set_tracer(tracer.clone());
            f.send(
                SimTime::ZERO,
                Transfer {
                    src,
                    dst,
                    bytes: 10_000,
                    tag: 0,
                },
            );
            assert_eq!(drain(&mut f).len(), 1);
            assert!(f.switch_exits.is_empty() && f.free.len() == f.slab.len());
            tracer.finish().unwrap().count("net", "link.load") / 2
        };
        let (dev, srv) = (Node::Device(0), Node::Server(3));
        assert_eq!(queued_hops(dev, srv), 2, "wifi, trunk-up");
        assert_eq!(queued_hops(srv, dev), 3, "nic-tx, trunk-down, wifi");
        assert_eq!(queued_hops(srv, Node::Server(4)), 1, "nic-tx");
        assert_eq!(queued_hops(dev, Node::Device(2)), 2, "wifi twice");
        assert_eq!(queued_hops(dev, Node::Device(1)), 4, "all but the switch");
        assert_eq!(queued_hops(srv, srv), 0, "loopback");
    }

    #[test]
    fn saturation_grows_queues() {
        let mut f = fabric();
        // Offer ~16 drones * 8 fps * 2 MB = 256 MB/s against ~217 MB/s of
        // aggregate WiFi capacity -> queues must grow.
        let mut t = SimTime::ZERO;
        for round in 0..40 {
            for dev in 0..16u32 {
                f.send(
                    t,
                    Transfer {
                        src: Node::Device(dev),
                        dst: Node::Server(dev % 12),
                        bytes: 2_000_000,
                        tag: round,
                    },
                );
            }
            t += SimDuration::from_millis(125);
        }
        let d = drain(&mut f);
        let first = d.first().unwrap().latency().as_secs_f64();
        let last = d.last().unwrap().latency().as_secs_f64();
        assert!(
            last > first * 2.0,
            "latency should inflate under saturation: first {first}, last {last}"
        );
    }
}

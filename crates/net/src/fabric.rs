//! Multi-hop transfer routing over a [`Topology`].
//!
//! The [`Fabric`] moves [`Transfer`]s hop by hop across FIFO links,
//! preserving global arrival order (the earliest in-flight hop completion
//! anywhere in the fabric is always processed first), and meters traffic
//! that crosses the edge↔cloud wireless boundary for the bandwidth figures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hivemind_sim::faults::{self, NetFaults};
use hivemind_sim::overload::NetBackpressure;
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
    /// Transfers held back by a disconnect window or partition.
    pub transfers_held: u64,
    /// Most transfers simultaneously held behind outage/partition windows.
    pub held_high_water: u64,
    /// Transfers tail-dropped because a hold would have exceeded
    /// `NetFaults::hold_bound` (0 when the bound is unset).
    pub transfers_dropped: u64,
}

/// Per-transfer fault state: the plan's network knobs plus a private RNG
/// drawn from the dedicated fault lane of the seed chain. Absent (`None`
/// on the fabric) unless the experiment's `FaultPlan` asks for loss or
/// outages, so fault-free runs make zero extra draws.
#[derive(Debug)]
struct FabricFaults {
    cfg: NetFaults,
    rng: SmallRng,
    stats: NetFaultStats,
    /// Transfers currently held behind outage/partition windows; bounded
    /// by `cfg.hold_bound` when set.
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

#[derive(Debug, PartialEq, Eq)]
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

/// A fault-held transfer queued for release, min-ordered by
/// `(release time, transfer id)` — the same total order the old linear
/// scan selected, now O(log n) per release.
#[derive(Debug)]
struct Delayed {
    at: SimTime,
    /// `true` when the delay came from an outage/partition window (the
    /// hold is charged against `hold_bound` and released on re-entry);
    /// `false` for backpressure re-offers and retransmit pauses.
    fault_hold: bool,
    state: HopState,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.state.id == other.state.id
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.state.id).cmp(&(other.at, other.state.id))
    }
}

/// A completed delivery awaiting emission, min-ordered by
/// `(delivered_at, id)`, so popping due entries yields them in delivery
/// order with no sort pass and no clone.
#[derive(Debug)]
struct PendingDelivery(Delivery);

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.0.delivered_at == other.0.delivered_at && self.0.id == other.0.id
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.delivered_at, self.0.id).cmp(&(other.0.delivered_at, other.0.id))
    }
}

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
    links: Vec<Link<HopState>>,
    next_id: u64,
    /// Completed deliveries waiting to be emitted, min-ordered by
    /// `(delivered_at, id)` so draining pops them already chronological.
    local: BinaryHeap<Reverse<PendingDelivery>>,
    /// Delay applied to same-node "transfers" (loopback copy).
    local_delay: SimDuration,
    edge_meter: Meter,
    total_meter: Meter,
    /// Wake-up index: one `(head delivery time, link)` entry per busy
    /// link. Keeps `next_wakeup`/`advance_into` away from O(links) scans so
    /// thousand-device topologies stay fast.
    wake: BinaryHeap<Reverse<(SimTime, u32)>>,
    tracer: TraceHandle,
    /// Fault-plan state; `None` unless the experiment injects network
    /// faults (the inert path makes no extra RNG draws).
    faults: Option<FabricFaults>,
    /// Bounded-ingress backpressure; `None` unless armed by an overload
    /// policy.
    backpressure: Option<Backpressure>,
    /// Transfers held back by an outage/partition, min-ordered by release
    /// time. Released in `(time, id)` order interleaved with hop
    /// completions.
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
            next_id: 0,
            local: BinaryHeap::new(),
            local_delay: SimDuration::from_micros(50),
            edge_meter: Meter::new(SimDuration::from_secs(1)),
            total_meter: Meter::new(SimDuration::from_secs(1)),
            wake: BinaryHeap::new(),
            tracer: TraceHandle::disabled(),
            faults: None,
            backpressure: None,
            delayed: BinaryHeap::new(),
        }
    }

    /// Arms the per-transfer fault pass (packet loss, disconnect windows,
    /// partitions). `rng` must come from the dedicated `"faults"` lane of
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

    /// Transfers currently held behind outage/partition windows.
    pub fn held_transfers_now(&self) -> u64 {
        self.faults.as_ref().map(|f| f.held_now).unwrap_or(0)
    }

    /// What the fault plane did so far (zeros when no faults are armed).
    pub fn fault_stats(&self) -> NetFaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Arms bounded-ingress backpressure: a transfer whose first hop's
    /// link already holds `ingress_bound` items is held and re-offered
    /// after `retry_delay` instead of joining the queue. Unlike
    /// [`Fabric::set_faults`] this needs no RNG — every hold decision is
    /// a pure function of link occupancy at the offer instant, so arming
    /// an inactive policy changes nothing.
    pub fn set_backpressure(&mut self, cfg: NetBackpressure) {
        if cfg.is_active() {
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

    /// Injects a transfer at time `now`, returning its id.
    pub fn send(&mut self, now: SimTime, transfer: Transfer) -> TransferId {
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
        let (start, fault_hold) = if wireless {
            match self.apply_faults(now, &state) {
                Some(v) => v,
                // Tail-dropped at the hold bound: the id is spent but the
                // transfer never enters the fabric.
                None => return id,
            }
        } else {
            (now, false)
        };
        if start > now {
            self.delayed.push(Reverse(Delayed {
                at: start,
                fault_hold,
                state,
            }));
        } else {
            self.route(now, state);
        }
        id
    }

    /// Applies the armed fault plan to a wireless-crossing transfer.
    /// Returns `Some((start, fault_hold))` — the instant the transfer may
    /// actually enter the fabric, and whether an outage/partition window
    /// held it (charged against `hold_bound`) — or `None` when the hold
    /// bound is full and the transfer is tail-dropped. No-op (and zero
    /// RNG draws) when no faults are armed.
    fn apply_faults(&mut self, now: SimTime, state: &HopState) -> Option<(SimTime, bool)> {
        let Some(f) = self.faults.as_mut() else {
            return Some((now, false));
        };
        let mut start = now;
        // Hold the transfer while any partition, or a disconnect window of
        // an endpoint device, covers its start instant. Windows may chain
        // (release into a later window), hence the loop.
        loop {
            let t = start.as_secs_f64();
            let mut release: Option<f64> = None;
            for p in &f.cfg.partitions {
                if t >= p.from_secs && t < p.until_secs {
                    release = Some(release.map_or(p.until_secs, |r: f64| r.max(p.until_secs)));
                }
            }
            for o in &f.cfg.disconnects {
                let hit =
                    state.src == Node::Device(o.device) || state.dst == Node::Device(o.device);
                if hit && t >= o.from_secs && t < o.until_secs {
                    release = Some(release.map_or(o.until_secs, |r: f64| r.max(o.until_secs)));
                }
            }
            match release {
                Some(r) => start = SimTime::ZERO + SimDuration::from_secs_f64(r),
                None => break,
            }
        }
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
                                ("transfer", ArgValue::U64(state.id.0)),
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
                self.tracer
                    .counter("net", "held_transfers", 0, now, f.held_now as f64);
                self.tracer.instant(
                    faults::TRACE_CAT,
                    faults::EV_INJECTED,
                    0,
                    now,
                    vec![
                        ("kind", ArgValue::Str("link_outage".into())),
                        ("transfer", ArgValue::U64(state.id.0)),
                    ],
                );
                self.tracer.instant(
                    faults::TRACE_CAT,
                    faults::EV_RECOVERED,
                    0,
                    start,
                    vec![
                        ("kind", ArgValue::Str("link_outage".into())),
                        ("transfer", ArgValue::U64(state.id.0)),
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
                start += f.cfg.retransmit * rounds;
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        faults::TRACE_CAT,
                        faults::EV_INJECTED,
                        0,
                        now,
                        vec![
                            ("kind", ArgValue::Str("packet_loss".into())),
                            ("transfer", ArgValue::U64(state.id.0)),
                            ("retransmits", ArgValue::U64(rounds)),
                        ],
                    );
                }
            }
        }
        Some((start, fault_hold))
    }

    fn route(&mut self, now: SimTime, mut state: HopState) {
        if state.next_hop >= state.path.len() {
            self.local.push(Reverse(PendingDelivery(Delivery {
                id: state.id,
                tag: state.tag,
                src: state.src,
                dst: state.dst,
                bytes: state.bytes,
                sent_at: state.sent_at,
                delivered_at: if state.path.is_empty() {
                    now + self.local_delay
                } else {
                    now
                },
            })));
            return;
        }
        let link = state.path[state.next_hop];
        let idx = link.index();
        // Bounded ingress: a transfer about to take its *first* hop onto a
        // link already at the bound is held and re-offered later instead
        // of deepening the queue. Each re-offer re-checks, and time
        // advances every hold, so the transfer eventually enters once the
        // link drains — deterministic backpressure with no drops.
        if state.next_hop == 0 {
            if let Some(bp) = self.backpressure.as_mut() {
                if let Some(bound) = bp.cfg.ingress_bound {
                    if self.links[idx].load() >= bound as usize {
                        bp.holds += 1;
                        if self.tracer.is_enabled() {
                            self.tracer.instant(
                                "net",
                                "backpressure.hold",
                                idx as u32,
                                now,
                                vec![
                                    ("transfer", ArgValue::U64(state.id.0)),
                                    ("load", ArgValue::U64(self.links[idx].load() as u64)),
                                ],
                            );
                        }
                        self.delayed.push(Reverse(Delayed {
                            at: now + bp.cfg.retry_delay,
                            fault_hold: false,
                            state,
                        }));
                        return;
                    }
                }
            }
        }
        state.next_hop += 1;
        let bytes = state.bytes;
        // Index only the link's head, which a FIFO link changes only when
        // an enqueue finds it empty: pushing an entry per enqueue would
        // pile thousands of duplicates onto a saturated link (quadratic).
        let was_idle = self.links[idx].load() == 0;
        self.links[idx].enqueue(now, bytes, state);
        if was_idle {
            let head = self.links[idx].next_delivery().expect("just enqueued");
            self.wake.push(Reverse((head, idx as u32)));
        }
        self.sample_link(now, idx);
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
            self.local.peek().map(|Reverse(p)| p.0.delivered_at),
        )
    }

    /// The earliest internal event: a hop completion or a held
    /// transfer's release.
    fn next_internal(&self) -> Option<SimTime> {
        earliest(
            self.wake.peek().map(|Reverse((t, _))| *t),
            self.delayed.peek().map(|Reverse(d)| d.at),
        )
    }

    /// Processes the earliest internal event. A held transfer released
    /// at the same instant as a hop completion goes first.
    fn step(&mut self) {
        let wake_head = self.wake.peek().map(|Reverse((t, _))| *t);
        if self
            .delayed
            .peek()
            .is_some_and(|Reverse(d)| wake_head.is_none_or(|wt| d.at <= wt))
        {
            let Some(Reverse(d)) = self.delayed.pop() else {
                unreachable!("peeked head vanished")
            };
            if d.fault_hold {
                if let Some(f) = self.faults.as_mut() {
                    f.held_now = f.held_now.saturating_sub(1);
                    if self.tracer.is_enabled() {
                        self.tracer
                            .counter("net", "held_transfers", 0, d.at, f.held_now as f64);
                    }
                }
            }
            self.route(d.at, d.state);
            return;
        }
        let Some(Reverse((t, idx))) = self.wake.pop() else {
            return;
        };
        let idx = idx as usize;
        let (at, state) = self.links[idx]
            .pop_ready(t)
            .expect("a wake entry is its link's exact head");
        if let Some(next) = self.links[idx].next_delivery() {
            self.wake.push(Reverse((next, idx as u32)));
        }
        self.sample_link(at, idx);
        self.route(at, state);
    }

    /// Processes internal events (intermediate hops and held-transfer
    /// releases) due strictly before `bound`, the earliest instant a new
    /// [`Fabric::send`] can arrive, and strictly before the first pending
    /// delivery, since the caller may answer a delivery with a send.
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
                    .is_none_or(|Reverse(p)| t < p.0.delivered_at)
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
        // order, so no sort pass and no per-delivery clone.
        while let Some(Reverse(p)) = self.local.peek() {
            if p.0.delivered_at > now {
                break;
            }
            let Some(Reverse(p)) = self.local.pop() else {
                unreachable!("peeked head vanished")
            };
            out.push(p.0);
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
            retry_delay: SimDuration::from_millis(5),
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

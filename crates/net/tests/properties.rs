//! Property-based tests for the network substrate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use hivemind_net::fabric::{Delivery, Fabric, NetFaultStats, Transfer, TransferId};
use hivemind_net::link::Link;
use hivemind_net::rpc::RateGate;
use hivemind_net::topology::{LinkClass, Node, Path, Topology, TopologyParams};
use hivemind_sim::faults::{self, FaultPlan, NetFaults};
use hivemind_sim::overload::{NetBackpressure, INGRESS_RETRY_DELAY};
use hivemind_sim::rng::RngForge;
use hivemind_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// A transfer in the reference fabric, moved whole from hop to hop.
#[derive(Debug, Clone, Copy)]
struct RefHop {
    id: u64,
    tag: u64,
    src: Node,
    dst: Node,
    bytes: u64,
    sent_at: SimTime,
    path: Path,
    next_hop: usize,
}

/// The fabric as a queue on every hop: each transfer waits in the FIFO
/// of every link on its path, and each hop completion is one event popped
/// in `(time, link)` order. It keeps the fault and backpressure rules of
/// [`Fabric`] but no tracing or metering, and serves as the oracle that
/// queueing fewer hops changes nothing a caller sees.
struct RefFabric {
    topology: Topology,
    links: Vec<Link<RefHop>>,
    next_id: u64,
    local: BTreeMap<(SimTime, u64), Delivery>,
    wake: BinaryHeap<Reverse<(SimTime, u32)>>,
    delayed: BTreeMap<(SimTime, u64), (bool, RefHop)>,
    faults: Option<(NetFaults, SmallRng)>,
    held_now: u64,
    stats: NetFaultStats,
    ingress_bound: Option<u32>,
    holds: u64,
}

impl RefFabric {
    fn new(topology: Topology) -> RefFabric {
        let links = topology
            .links()
            .iter()
            .map(|spec| Link::new(spec.bytes_per_sec, spec.propagation))
            .collect();
        RefFabric {
            topology,
            links,
            next_id: 0,
            local: BTreeMap::new(),
            wake: BinaryHeap::new(),
            delayed: BTreeMap::new(),
            faults: None,
            held_now: 0,
            stats: NetFaultStats::default(),
            ingress_bound: None,
            holds: 0,
        }
    }

    fn send(&mut self, now: SimTime, transfer: Transfer) {
        let id = self.next_id;
        self.next_id += 1;
        let path = self.topology.path(transfer.src, transfer.dst);
        let wireless = path
            .iter()
            .any(|l| self.topology.links()[l.index()].class == LinkClass::WirelessMedium);
        let (mut start, mut fault_hold) = (now, false);
        if let Some((cfg, rng)) = self.faults.as_mut().filter(|_| wireless) {
            if let Some(heal) = cfg.partition_until(now.as_secs_f64()) {
                start = SimTime::ZERO + SimDuration::from_secs_f64(heal);
            }
            fault_hold = start > now;
            if fault_hold {
                if cfg.hold_bound.is_some_and(|b| self.held_now >= b as u64) {
                    self.stats.transfers_dropped += 1;
                    return;
                }
                self.held_now += 1;
                self.stats.transfers_held += 1;
                self.stats.held_high_water = self.stats.held_high_water.max(self.held_now);
            }
            if cfg.packet_loss > 0.0 {
                let mut rounds = 0;
                while rounds < 50 && rng.gen::<f64>() < cfg.packet_loss {
                    rounds += 1;
                }
                self.stats.packets_lost += rounds;
                start += faults::RETRANSMIT * rounds;
            }
        }
        let hop = RefHop {
            id,
            tag: transfer.tag,
            src: transfer.src,
            dst: transfer.dst,
            bytes: transfer.bytes,
            sent_at: now,
            path,
            next_hop: 0,
        };
        if start > now {
            self.delayed.insert((start, id), (fault_hold, hop));
        } else {
            self.route(now, hop);
        }
    }

    fn route(&mut self, now: SimTime, mut hop: RefHop) {
        let Some(&link) = hop.path.get(hop.next_hop) else {
            let delivered_at = if hop.path.is_empty() {
                now + SimDuration::from_micros(50)
            } else {
                now
            };
            let delivery = Delivery {
                id: TransferId(hop.id),
                tag: hop.tag,
                src: hop.src,
                dst: hop.dst,
                bytes: hop.bytes,
                sent_at: hop.sent_at,
                delivered_at,
            };
            self.local.insert((delivered_at, hop.id), delivery);
            return;
        };
        let idx = link.index();
        if hop.next_hop == 0
            && self
                .ingress_bound
                .is_some_and(|b| self.links[idx].load() >= b as usize)
        {
            self.holds += 1;
            self.delayed
                .insert((now + INGRESS_RETRY_DELAY, hop.id), (false, hop));
            return;
        }
        hop.next_hop += 1;
        let was_idle = self.links[idx].load() == 0;
        self.links[idx].enqueue(now, hop.bytes, hop);
        if was_idle {
            let head = self.links[idx].next_delivery().expect("just enqueued");
            self.wake.push(Reverse((head, idx as u32)));
        }
    }

    fn next_internal(&self) -> Option<SimTime> {
        let wake = self.wake.peek().map(|&Reverse((t, _))| t);
        let delayed = self.delayed.keys().next().map(|&(t, _)| t);
        wake.into_iter().chain(delayed).min()
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let local = self.local.keys().next().map(|&(t, _)| t);
        self.next_internal().into_iter().chain(local).min()
    }

    fn step(&mut self) {
        let wake = self.wake.peek().map(|&Reverse((t, _))| t);
        if let Some(entry) = self
            .delayed
            .first_entry()
            .filter(|e| wake.is_none_or(|w| e.key().0 <= w))
        {
            let ((at, _), (fault_hold, hop)) = entry.remove_entry();
            if fault_hold {
                self.held_now -= 1;
            }
            self.route(at, hop);
            return;
        }
        let Reverse((t, idx)) = self.wake.pop().expect("an internal event is due");
        let idx = idx as usize;
        let (at, hop) = self.links[idx]
            .pop_ready(t)
            .expect("wake entry is the head");
        if let Some(next) = self.links[idx].next_delivery() {
            self.wake.push(Reverse((next, idx as u32)));
        }
        self.route(at, hop);
    }

    fn run_ahead(&mut self, bound: SimTime) {
        while self
            .next_internal()
            .is_some_and(|t| t < bound && self.local.keys().next().is_none_or(|&(d, _)| t < d))
        {
            self.step();
        }
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Delivery>) {
        while self.next_internal().is_some_and(|t| t <= now) {
            self.step();
        }
        while let Some(entry) = self.local.first_entry().filter(|e| e.key().0 <= now) {
            out.push(entry.remove());
        }
    }
}

/// An oracle input: `(sent at, src, dst, bytes)`.
type Send = (SimTime, Node, Node, u64);

/// Maps a generated `(µs, kind, a, b, bytes)` onto one of the five path
/// shapes of the default 16-device, 2-router, 12-server topology.
fn oracle_send(&(us, kind, a, b, bytes): &(u64, u32, u32, u32, u64)) -> Send {
    let (dev, srv) = (Node::Device(a % 16), Node::Server(b % 12));
    let (src, dst) = match kind % 5 {
        0 => (dev, srv),
        1 => (srv, dev),
        2 => (Node::Server(a % 12), srv),
        // Devices `a` and `a + 2k` share a router, `a` and `a + 2k + 1`
        // do not.
        3 => (dev, Node::Device((a + 2 * (1 + b % 7)) % 16)),
        _ => (dev, Node::Device((a + 1 + 2 * (b % 8)) % 16)),
    };
    (
        SimTime::ZERO + SimDuration::from_micros(us),
        src,
        dst,
        bytes,
    )
}

/// Fault and backpressure settings armed on both fabrics alike.
#[derive(Debug, Clone)]
struct OracleArms {
    faults: NetFaults,
    ingress_bound: Option<u32>,
}

/// Drives [`Fabric`] and [`RefFabric`] through the same calls: every
/// input is sent at its instant, every upload to a server is answered
/// with a response back at the delivery instant, and with `run_ahead`
/// both run ahead to the next input before each wake-up. After every
/// call the two must report the same `next_wakeup`, and every
/// `advance_into` batch must match; every transfer not tail-dropped at
/// the hold bound is delivered. Returns the delivery stream and the
/// wake-up instants visited.
fn oracle_lockstep(
    sends: &[Send],
    arms: &OracleArms,
    run_ahead: bool,
) -> Result<(Vec<Delivery>, Vec<SimTime>), TestCaseError> {
    let topology = Topology::new(TopologyParams::default());
    let mut fabric = Fabric::new(topology.clone());
    let mut reference = RefFabric::new(topology);
    let rng = || RngForge::new(11).child("faults").stream("net");
    fabric.set_faults(arms.faults.clone(), rng());
    if arms.faults.per_transfer() {
        reference.faults = Some((arms.faults.clone(), rng()));
    }
    fabric.set_backpressure(NetBackpressure {
        ingress_bound: arms.ingress_bound,
    });
    reference.ingress_bound = arms.ingress_bound;
    let (mut out, mut visited) = (Vec::new(), Vec::new());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut next, mut sent) = (0, 0u64);
    macro_rules! same_wakeup {
        ($call:expr) => {
            prop_assert_eq!(
                fabric.next_wakeup(),
                reference.next_wakeup(),
                "next_wakeup differs after {}",
                $call
            );
        };
    }
    loop {
        let send_at = sends.get(next).map(|s| s.0);
        if run_ahead {
            let bound = send_at.unwrap_or(SimTime::MAX);
            fabric.run_ahead(bound);
            reference.run_ahead(bound);
            same_wakeup!("run_ahead");
        }
        let Some(t) = send_at.into_iter().chain(fabric.next_wakeup()).min() else {
            break;
        };
        visited.push(t);
        while let Some(&(at, src, dst, bytes)) = sends.get(next).filter(|s| s.0 <= t) {
            let transfer = Transfer {
                src,
                dst,
                bytes,
                tag: next as u64,
            };
            fabric.send(at, transfer.clone());
            reference.send(at, transfer);
            same_wakeup!("send");
            next += 1;
            sent += 1;
        }
        fabric.advance_into(t, &mut got);
        reference.advance_into(t, &mut want);
        same_wakeup!("advance_into");
        prop_assert!(got == want, "delivery batches differ at {:?}", t);
        want.clear();
        for d in got.drain(..) {
            if let (Node::Device(_), Node::Server(_)) = (d.src, d.dst) {
                let response = Transfer {
                    src: d.dst,
                    dst: d.src,
                    bytes: d.bytes / 3,
                    tag: d.tag,
                };
                fabric.send(t, response.clone());
                reference.send(t, response);
                same_wakeup!("response send");
                sent += 1;
            }
            out.push(d);
        }
    }
    prop_assert_eq!(fabric.fault_stats(), reference.stats);
    prop_assert_eq!(fabric.backpressure_holds(), reference.holds);
    prop_assert_eq!(
        out.len() as u64,
        sent - fabric.fault_stats().transfers_dropped
    );
    Ok((out, visited))
}

proptest! {
    /// FIFO links deliver in arrival order, never faster than the wire
    /// allows, and conserve every byte.
    #[test]
    fn link_is_fifo_and_work_conserving(
        arrivals in prop::collection::vec((0u64..5_000_000, 1u64..2_000_000), 1..100),
        bw_mbps in 1.0f64..1000.0,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|&(t, _)| t);
        let bytes_per_sec = bw_mbps * 1e6;
        let mut link: Link<usize> = Link::new(bytes_per_sec, SimDuration::from_micros(10));
        let mut total_bytes = 0u64;
        for (i, &(t_us, bytes)) in arrivals.iter().enumerate() {
            link.enqueue(SimTime::ZERO + SimDuration::from_micros(t_us), bytes, i);
            total_bytes += bytes;
        }
        let mut deliveries = Vec::new();
        while let Some((t, id)) = link.pop_ready(SimTime::MAX) {
            deliveries.push((t, id));
        }
        prop_assert_eq!(deliveries.len(), arrivals.len());
        prop_assert_eq!(link.bytes_carried(), total_bytes);
        // FIFO: delivery order equals arrival order.
        for (pos, &(_, id)) in deliveries.iter().enumerate() {
            prop_assert_eq!(id, pos);
        }
        // Work conservation: the last delivery is no earlier than
        // first-arrival + total transmission time, and no later than
        // last-arrival + total transmission time (+propagation).
        let tx_total = SimDuration::from_secs_f64(total_bytes as f64 / bytes_per_sec);
        let first_in = SimTime::ZERO + SimDuration::from_micros(arrivals[0].0);
        let last_in = SimTime::ZERO + SimDuration::from_micros(arrivals.last().unwrap().0);
        let last_out = deliveries.last().unwrap().0;
        prop_assert!(last_out >= first_in + tx_total);
        prop_assert!(
            last_out <= last_in + tx_total + SimDuration::from_micros(10) + SimDuration::from_nanos(arrivals.len() as u64)
        );
    }

    /// Over any schedule of enqueues and pops, the FIFO link pops exactly
    /// what a `(deliver_at, seq)` min-heap over the same delivery times
    /// pops: delivery times never decrease, so arrival order is heap order
    /// (zero-byte items make equal delivery times common).
    #[test]
    fn link_pops_in_reference_heap_order(
        ops in prop::collection::vec((any::<bool>(), 0u64..3_000, 0u64..400_000), 1..200),
        bw_kbps in 1.0f64..100_000.0,
    ) {
        let bytes_per_sec = bw_kbps * 1e3;
        let propagation = SimDuration::from_micros(250);
        let mut link: Link<u64> = Link::new(bytes_per_sec, propagation);
        let mut heap = BinaryHeap::new();
        let mut busy_until = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for (seq, &(enqueue, gap_us, bytes)) in ops.iter().enumerate() {
            now += SimDuration::from_micros(gap_us);
            if enqueue {
                let bytes = if bytes % 4 == 0 { 0 } else { bytes };
                let start = busy_until.max(now);
                busy_until = start + SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec);
                heap.push(Reverse((busy_until + propagation, seq as u64)));
                link.enqueue(now, bytes, seq as u64);
            } else {
                let want = match heap.peek() {
                    Some(&Reverse(head)) if head.0 <= now => heap.pop().map(|Reverse(h)| h),
                    _ => None,
                };
                prop_assert_eq!(link.pop_ready(now), want);
            }
            prop_assert_eq!(link.load(), heap.len());
        }
        while let Some(Reverse(want)) = heap.pop() {
            prop_assert_eq!(link.pop_ready(SimTime::MAX), Some(want));
        }
        prop_assert_eq!(link.pop_ready(SimTime::MAX), None);
    }

    /// The multi-hop fabric preserves per-(src,dst) pair ordering: two
    /// transfers between the same endpoints arrive in send order.
    #[test]
    fn fabric_preserves_flow_order(
        sends in prop::collection::vec((0u64..1_000_000, 1u64..3_000_000), 2..60),
        dev in 0u32..16,
        srv in 0u32..12,
    ) {
        let mut sends = sends;
        sends.sort_by_key(|&(t, _)| t);
        let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
        for (i, &(t_us, bytes)) in sends.iter().enumerate() {
            fabric.send(
                SimTime::ZERO + SimDuration::from_micros(t_us),
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(srv),
                    bytes,
                    tag: i as u64,
                },
            );
        }
        let mut deliveries = Vec::new();
        while let Some(t) = fabric.next_wakeup() {
            fabric.advance_into(t, &mut deliveries);
        }
        prop_assert_eq!(deliveries.len(), sends.len());
        for (pos, d) in deliveries.iter().enumerate() {
            prop_assert_eq!(d.tag, pos as u64, "same-flow transfers stay ordered");
        }
    }

    /// Rate gates never admit above their configured rate, and delays are
    /// monotone within a burst.
    #[test]
    fn rate_gate_enforces_rate(rps in 1.0f64..1e6, burst in 2usize..50) {
        let mut gate = RateGate::new(rps);
        let mut last = SimDuration::ZERO;
        for i in 0..burst {
            let delay = gate.admit(SimTime::ZERO);
            prop_assert!(delay >= last);
            let expected = i as f64 / rps;
            // The gate quantizes its interval to whole nanoseconds, so
            // allow up to a nanosecond of drift per admitted message.
            prop_assert!(
                (delay.as_secs_f64() - expected).abs() <= (i as f64 + 1.0) * 1e-9
            );
            last = delay;
        }
    }

    /// Every route in every topology size starts and ends at the right
    /// link classes and stays in bounds.
    #[test]
    fn topology_routes_are_wellformed(devices in 1u32..200, servers in 1u32..24, d in 0u32..200, s in 0u32..24) {
        prop_assume!(d < devices && s < servers);
        let topo = Topology::new(TopologyParams {
            devices,
            servers,
            ..TopologyParams::default()
        });
        let up = topo.path(Node::Device(d), Node::Server(s));
        prop_assert!(!up.is_empty());
        for link in &up {
            prop_assert!(link.index() < topo.links().len());
        }
        use hivemind_net::topology::LinkClass;
        prop_assert_eq!(topo.links()[up[0].index()].class, LinkClass::WirelessMedium);
        prop_assert_eq!(
            topo.links()[up.last().unwrap().index()].class,
            LinkClass::ServerNic
        );
        let down = topo.path(Node::Server(s), Node::Device(d));
        prop_assert_eq!(up.len(), down.len());
    }

    /// The fabric, which queues a transfer only on the hops where FIFO
    /// order can still change, gives a caller exactly what a queue on
    /// every hop gives: the same deliveries, in the same order and at the
    /// same instants, and the same `next_wakeup` after every call. Inputs
    /// cover every path shape, packet loss, a partition window with or
    /// without a hold bound and ingress backpressure, and are injected
    /// again at the instants a first drive woke at — the run-ahead bounds
    /// where a hop run one event too far would reorder a link's arrivals —
    /// and running ahead to each next send changes nothing a caller sees.
    #[test]
    fn fabric_matches_per_hop_reference(
        base in prop::collection::vec((0u64..200_000, 0u32..5, any::<u32>(), any::<u32>(), 0u64..3_000_000), 1..30),
        loss in 0u32..3,
        window in (any::<bool>(), 0u64..150_000, 1u64..120_000),
        hold_bound in 0u32..4,
        ingress_bound in 0u32..4,
        stride in 1usize..4,
    ) {
        let mut plan = FaultPlan::default().packet_loss(0.15 * loss as f64);
        let (partitioned, from_us, len_us) = window;
        if partitioned {
            plan = plan.partition(from_us as f64 / 1e6, (from_us + len_us) as f64 / 1e6);
            if hold_bound > 0 {
                plan = plan.partition_hold_bound(hold_bound);
            }
        }
        let arms = OracleArms {
            faults: plan.net,
            ingress_bound: (ingress_bound > 0).then_some(ingress_bound),
        };
        let mut sends: Vec<Send> = base.iter().map(oracle_send).collect();
        sends.sort_by_key(|s| s.0);
        let (_, visited) = oracle_lockstep(&sends, &arms, false)?;
        for (i, &t) in visited.iter().step_by(stride).take(60).enumerate() {
            let i = i as u32;
            let (_, src, dst, bytes) = oracle_send(&(0, i, i, i / 5, 200_000 + 10_000 * i as u64));
            sends.push((t, src, dst, bytes));
        }
        sends.sort_by_key(|s| s.0);
        let (stepped, _) = oracle_lockstep(&sends, &arms, false)?;
        let (ahead, _) = oracle_lockstep(&sends, &arms, true)?;
        prop_assert!(stepped == ahead, "run-ahead changed the delivery stream");
    }
}

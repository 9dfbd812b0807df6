//! Property-based tests for the network substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hivemind_net::fabric::{Delivery, Fabric, Transfer};
use hivemind_net::link::Link;
use hivemind_net::rpc::RateGate;
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::overload::NetBackpressure;
use hivemind_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// An external upload: `(sent at, device, server, bytes)`.
type Upload = (SimTime, u32, u32, u64);

/// Drives a fabric through `uploads`, answering every upload with a
/// response sent back at its delivery instant. With `run_ahead` the
/// driver calls [`Fabric::run_ahead`] up to the next upload before each
/// wake-up; without it, it steps `advance_into` at every `next_wakeup`.
/// Returns the delivery stream and every wake-up instant visited.
fn drive_fabric(
    uploads: &[Upload],
    backpressure: bool,
    run_ahead: bool,
) -> (Vec<Delivery>, Vec<SimTime>) {
    let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
    if backpressure {
        fabric.set_backpressure(NetBackpressure {
            ingress_bound: Some(2),
        });
    }
    let (mut out, mut batch, mut visited) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    loop {
        let upload_at = uploads.get(next).map(|u| u.0);
        if run_ahead {
            fabric.run_ahead(upload_at.unwrap_or(SimTime::MAX));
        }
        let Some(t) = [upload_at, fabric.next_wakeup()]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        visited.push(t);
        while let Some(&(at, device, server, bytes)) = uploads.get(next).filter(|u| u.0 <= t) {
            let tag = next as u64;
            fabric.send(
                at,
                Transfer {
                    src: Node::Device(device),
                    dst: Node::Server(server),
                    bytes,
                    tag,
                },
            );
            next += 1;
        }
        fabric.advance_into(t, &mut batch);
        for d in batch.drain(..) {
            if let Node::Device(_) = d.src {
                let response = Transfer {
                    src: d.dst,
                    dst: d.src,
                    bytes: d.bytes / 3,
                    tag: d.tag,
                };
                fabric.send(t, response);
            }
            out.push(d);
        }
    }
    (out, visited)
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

    /// Running the fabric ahead to the next send changes nothing a caller
    /// sees. Sends are injected exactly at the run-ahead bound, at the
    /// instants the stepping driver found hops completing, and at every
    /// delivery (the responses), so any hop run at or past its bound
    /// would reorder a link's same-instant arrivals.
    #[test]
    fn fabric_run_ahead_matches_stepping(
        base in prop::collection::vec((0u64..200_000, 0u32..16, 0u32..12, 1u64..3_000_000), 1..30),
        stride in 1usize..4,
        backpressure in any::<bool>(),
    ) {
        let mut uploads: Vec<Upload> = base
            .iter()
            .map(|&(us, d, s, b)| (SimTime::ZERO + SimDuration::from_micros(us), d, s, b))
            .collect();
        uploads.sort_by_key(|u| u.0);
        let (_, visited) = drive_fabric(&uploads, backpressure, false);
        for (i, &t) in visited.iter().step_by(stride).take(60).enumerate() {
            uploads.push((t, i as u32 % 16, i as u32 % 12, 500_000 + 10_000 * i as u64));
        }
        uploads.sort_by_key(|u| u.0);
        let (stepped, _) = drive_fabric(&uploads, backpressure, false);
        let (ahead, _) = drive_fabric(&uploads, backpressure, true);
        prop_assert_eq!(stepped.len(), 2 * uploads.len());
        prop_assert!(stepped == ahead, "run-ahead changed the delivery stream");
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
}

//! The composable-DES claim: the network fabric and the serverless cluster
//! expose the same three inherent operations (`send`/`submit`,
//! `next_wakeup`, `advance_into`), so an orchestrator that knows nothing
//! about their internals can co-simulate them in exact global time order —
//! frames flow through the wireless fabric, arrivals become invocations,
//! completions flow back.

use hivemind::faas::cluster::{Cluster, ClusterParams};
use hivemind::faas::types::{AppId, AppProfile, Completion, Invocation};
use hivemind::net::fabric::{Delivery, Fabric, Transfer};
use hivemind::net::topology::{Node, Topology, TopologyParams};
use hivemind::sim::rng::RngForge;
use hivemind::sim::time::{SimDuration, SimTime};

#[test]
fn fabric_and_cluster_compose_in_global_time_order() {
    let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
    let mut cluster = Cluster::new(ClusterParams::default(), RngForge::new(5));
    cluster.register_app(AppId(0), AppProfile::test_profile(80.0));

    // Stimulus: every device uploads one frame per second for 10 seconds.
    let n_frames = 16 * 10;
    let mut tag = 0u64;
    for second in 0..10u64 {
        for dev in 0..16u32 {
            fabric.send(
                SimTime::from_secs(second),
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(dev % 12),
                    bytes: 2_000_000,
                    tag,
                },
            );
            tag += 1;
        }
    }

    // Orchestration loop: always advance to the earliest wake-up.
    let mut completions: Vec<Completion> = Vec::new();
    let mut delivered: Vec<Delivery> = Vec::new();
    let mut deliveries = 0usize;
    loop {
        let next = [fabric.next_wakeup(), cluster.next_wakeup()];
        let Some(t) = next.into_iter().flatten().min() else {
            break;
        };

        fabric.advance_into(t, &mut delivered);
        for d in delivered.drain(..) {
            deliveries += 1;
            // Route: network arrival -> function invocation.
            cluster.submit(d.delivered_at, Invocation::root(AppId(0), d.tag));
        }
        cluster.advance_into(t, &mut completions);
    }

    assert_eq!(deliveries, n_frames, "every frame crossed the network");
    assert_eq!(completions.len(), n_frames, "every frame was processed");
    // Causality across the component boundary: a function never finishes
    // before its frame was even sent.
    for c in &completions {
        let sent_second = c.tag / 16;
        assert!(c.finished > SimTime::from_secs(sent_second));
        assert!(c.latency() >= SimDuration::from_millis(80));
    }
    // Chronological completion stream.
    for pair in completions.windows(2) {
        assert!(pair[0].finished <= pair[1].finished);
    }
}

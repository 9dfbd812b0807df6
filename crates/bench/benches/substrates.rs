//! Substrate throughput benchmarks: how fast the simulator itself runs —
//! network fabric, serverless cluster, data plane.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hivemind_faas::cluster::{Cluster, ClusterParams};
use hivemind_faas::dataplane::{DataPlane, ExchangeProtocol};
use hivemind_faas::types::{AppId, AppProfile, Invocation};
use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::rng::RngForge;
use hivemind_sim::time::SimTime;

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("fabric_1k_uplink_transfers", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
            for i in 0..1000u64 {
                fabric.send(
                    SimTime::from_nanos(i * 1_000_000),
                    Transfer {
                        src: Node::Device((i % 16) as u32),
                        dst: Node::Server((i % 12) as u32),
                        bytes: 100_000,
                        tag: i,
                    },
                );
            }
            let mut n = 0;
            while let Some(t) = fabric.next_wakeup() {
                n += fabric.advance_to(t).len();
            }
            assert_eq!(n, 1000);
            n
        })
    });
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("cluster_1k_invocations", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(ClusterParams::default(), RngForge::new(1));
            cluster.register_app(AppId(0), AppProfile::test_profile(50.0));
            for i in 0..1000u64 {
                cluster.submit(
                    SimTime::from_nanos(i * 10_000_000),
                    Invocation::root(AppId(0), i),
                );
            }
            let mut n = 0;
            while let Some(t) = cluster.next_wakeup() {
                n += cluster.advance_to(t).len();
            }
            assert_eq!(n, 1000);
            n
        })
    });
}

fn bench_dataplane(c: &mut Criterion) {
    for (name, proto) in [
        ("dataplane_couchdb", ExchangeProtocol::CouchDb),
        ("dataplane_remote_memory", ExchangeProtocol::RemoteMemory),
    ] {
        c.bench_function(name, |b| {
            let mut plane = DataPlane::new();
            let mut rng = RngForge::new(2).stream("bench");
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                plane.exchange(
                    SimTime::from_nanos(i * 1_000_000),
                    black_box(proto),
                    200_000,
                    &mut rng,
                )
            })
        });
    }
}

criterion_group! {
    name = substrates;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_fabric,
        bench_cluster,
        bench_dataplane
}
criterion_main!(substrates);

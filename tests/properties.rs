//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use hivemind::apps::kernels::dedup::{deduplicate, Observation, UnionFind};
use hivemind::apps::kernels::embedding::observe;
use hivemind::apps::kernels::ocr::{recognize, SignImage};
use hivemind::net::fabric::{Fabric, Transfer};
use hivemind::net::topology::{Node, Topology, TopologyParams};
use hivemind::sim::rng::RngForge;
use hivemind::sim::shard::{merge_keyed_into, EffectKey, ShardMap};
use hivemind::sim::stats::Summary;
use hivemind::sim::time::{SimDuration, SimTime};
use hivemind::swarm::geometry::{partition_field, Rect};
use hivemind::swarm::maze::{wall_follower, Maze};
use proptest::prelude::*;

proptest! {
    /// Partitioning any field among any swarm conserves area exactly and
    /// produces one region per device.
    #[test]
    fn partition_conserves_area(
        w in 10.0f64..2000.0,
        h in 10.0f64..2000.0,
        n in 1u32..300,
    ) {
        let field = Rect::new(0.0, 0.0, w, h);
        let regions = partition_field(&field, n);
        prop_assert_eq!(regions.len(), n as usize);
        let total: f64 = regions.iter().map(|r| r.area()).sum();
        prop_assert!((total - field.area()).abs() < 1e-6 * field.area().max(1.0));
        for r in &regions {
            prop_assert!(field.contains(r.center()));
        }
    }

    /// Every transfer injected into the fabric is delivered exactly once,
    /// never before its send time, and deliveries are chronological.
    #[test]
    fn fabric_conserves_transfers(
        sends in prop::collection::vec(
            (0u64..5_000_000_000, 0u32..16, 0u32..12, 1u64..5_000_000),
            1..60,
        ),
    ) {
        let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
        let mut sends = sends;
        sends.sort_by_key(|&(t, ..)| t);
        for &(t, dev, srv, bytes) in &sends {
            fabric.send(
                SimTime::from_nanos(t),
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(srv),
                    bytes,
                    tag: t,
                },
            );
        }
        let mut deliveries = Vec::new();
        while let Some(wake) = fabric.next_wakeup() {
            fabric.advance_into(wake, &mut deliveries);
        }
        prop_assert_eq!(deliveries.len(), sends.len());
        for d in &deliveries {
            prop_assert!(d.delivered_at > d.sent_at);
        }
        for pair in deliveries.windows(2) {
            prop_assert!(pair[0].delivered_at <= pair[1].delivered_at);
        }
        // Ids unique.
        let mut ids: Vec<_> = deliveries.iter().map(|d| d.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), deliveries.len());
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn summary_quantiles_monotone(samples in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let s: Summary = samples.iter().copied().collect();
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.5);
        let q99 = s.quantile(0.99);
        prop_assert!(q25 <= q50 && q50 <= q99);
        prop_assert!(s.min() <= q25 && q99 <= s.max());
    }

    /// Every generated maze is perfect (n−1 passages) and solvable by the
    /// wall follower.
    #[test]
    fn mazes_are_perfect_and_solvable(w in 2u32..20, h in 2u32..20, seed in 0u64..500) {
        let maze = Maze::generate(w, h, RngForge::new(seed));
        prop_assert_eq!(maze.passage_count(), (w * h - 1) as usize);
        let t = wall_follower(&maze);
        prop_assert!(t.reached);
    }

    /// Union-find set counts never increase, and dedup's unique count is
    /// bounded by the observation count.
    #[test]
    fn union_find_monotone(ops in prop::collection::vec((0usize..30, 0usize..30), 0..100)) {
        let mut uf = UnionFind::new(30);
        let mut last = uf.set_count();
        for &(a, b) in &ops {
            uf.union(a, b);
            let now = uf.set_count();
            prop_assert!(now <= last);
            prop_assert!(now >= 1);
            last = now;
        }
    }

    /// Deduplication with a sane threshold never invents more people than
    /// observations and never returns zero for non-empty input.
    #[test]
    fn dedup_count_bounds(people in 1u32..12, reps in 1u32..4, seed in 0u64..50) {
        let mut rng = RngForge::new(seed).stream("prop");
        let obs: Vec<Observation> = (0..people)
            .flat_map(|p| {
                (0..reps).map(move |r| (p, r))
            })
            .map(|(p, r)| Observation {
                device: r,
                embedding: observe(p, 0.03, &mut rng),
                truth: p,
            })
            .collect();
        let result = deduplicate(&obs, 0.8);
        prop_assert!(result.unique_count >= 1);
        prop_assert!(result.unique_count <= obs.len());
        // At tight noise the count is exact.
        prop_assert_eq!(result.unique_count, people as usize);
    }

    /// The sharded engine's exchange order is partition-invariant: for
    /// any set of keyed events and any shard count, merging the
    /// per-shard batches yields exactly the single-shard (globally
    /// sorted) stream. This is the data-structure core of the
    /// `HIVEMIND_SHARDS` byte-determinism contract.
    #[test]
    fn shard_merge_equals_single_shard_order(
        events in prop::collection::vec((0u64..50_000_000, 0u32..16), 1..120),
        shards in 1u32..9,
    ) {
        // Stamp per-lane monotone sequence numbers, as the engine does.
        let mut seq = [0u64; 16];
        let mut keyed: Vec<(EffectKey, usize)> = events
            .iter()
            .enumerate()
            .map(|(i, &(nanos, lane))| {
                seq[lane as usize] += 1;
                (
                    EffectKey::new(SimTime::from_nanos(nanos), lane, seq[lane as usize]),
                    i,
                )
            })
            .collect();

        // Reference: the single-shard semantics — one global sort.
        let mut reference = keyed.clone();
        reference.sort_by_key(|&(k, _)| k);

        // Partition lanes into shard batches (each batch sorted, as
        // shards emit), merge, and demand the identical stream.
        let map = ShardMap::new(16, shards);
        let mut batches: Vec<Vec<(EffectKey, usize)>> =
            (0..map.shards()).map(|_| Vec::new()).collect();
        keyed.sort_by_key(|&(k, _)| k);
        for (k, v) in keyed {
            batches[map.shard_of(k.lane) as usize].push((k, v));
        }
        let runs: Vec<&[(EffectKey, usize)]> = batches.iter().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        merge_keyed_into(&runs, &mut merged);
        prop_assert_eq!(merged, reference);
    }

    /// A shard map tiles the device range exactly: every device belongs
    /// to one shard, blocks are contiguous, and sizes differ by at most
    /// one.
    #[test]
    fn shard_map_tiles_the_fleet(devices in 1u32..5000, shards in 1u32..64) {
        let map = ShardMap::new(devices, shards);
        let mut covered = 0u32;
        let mut sizes = Vec::new();
        for s in 0..map.shards() {
            let range = map.range(s);
            prop_assert_eq!(range.start, covered, "blocks must be contiguous");
            for d in range.clone() {
                prop_assert_eq!(map.shard_of(d), s);
            }
            sizes.push(range.len());
            covered = range.end;
        }
        prop_assert_eq!(covered, devices);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "block sizes differ by more than one");
    }

    /// OCR round-trips any string over its alphabet when noise-free.
    #[test]
    fn ocr_roundtrips_clean_text(chars in prop::collection::vec(0usize..15, 1..8)) {
        use hivemind::apps::kernels::ocr::ALPHABET;
        let text: String = chars.iter().map(|&i| ALPHABET[i]).collect();
        let img = SignImage::render(&text);
        prop_assert_eq!(recognize(&img), text);
    }

    /// Durations never go negative through the sampling pipeline.
    #[test]
    fn distributions_sample_non_negative(median in 1e-6f64..10.0, sigma in 0.0f64..2.0, seed in 0u64..100) {
        use hivemind::sim::dist::Dist;
        let d = Dist::lognormal_median_sigma(median, sigma);
        let mut rng = RngForge::new(seed).stream("prop");
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= SimDuration::ZERO);
        }
        prop_assert!(d.mean_secs() >= median * 0.99);
    }
}

proptest! {
    // Each case runs three full experiments on a 16-device fleet.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Task conservation with every run-control plane armed at once:
    /// function faults under bounded retry, packet loss, a server crash,
    /// a controller failover, an SLO, one or two disjoint partitions
    /// behind a hold bound, a bounded admission queue with a deadline,
    /// the circuit breaker, spillover, ingress backpressure, and
    /// autonomy on or off. Nothing panics;
    /// every task the app issues completes or is counted lost, shed, or
    /// dropped at the hold bound — nothing silently vanishes; and the
    /// outcome is byte-identical at 1 and 2 shards. With the paper's
    /// retry-forever default and only loss and function faults armed,
    /// nothing is lost.
    #[test]
    fn tasks_are_conserved_under_faults(
        fault_rate in 0.0f64..0.3,
        loss in 0.0f64..0.15,
        seed in 0u64..64,
        // (servers, rate scale, HiveMind rather than centralized FaaS)
        load in (1u32..3, 1.0f64..6.0, any::<bool>()),
        // (max attempts, backoff base in ms)
        retry in (1u32..5, 0u64..60),
        // (server, crash instant, downtime, failover instant, SLO in ms)
        crash in (0u32..3, 0.0f64..8.0, 0.1f64..4.0, 0.0f64..8.0, 1u64..2000),
        // (start, length, gap, second length, second window, hold bound)
        windows in (0.0f64..6.0, 0.1f64..4.0, 0.0f64..2.0, 0.1f64..3.0, any::<bool>(), 1u32..64),
        // (queue bound, deadline, breaker open-after, breaker cooldown)
        admission in (0u32..32, 0.05f64..3.0, 1u32..6, 0.05f64..2.0),
        // (spillover, ingress bound, autonomy)
        flags in (any::<bool>(), 1u32..8, any::<bool>()),
    ) {
        use hivemind::core::prelude::*;

        let (servers, rate_scale, hivemind) = load;
        let platform = if hivemind { Platform::HiveMind } else { Platform::CentralizedFaaS };
        let (from, len, gap, len2, two, hold_bound) = windows;
        let mut faults = FaultPlan::default()
            .function_fault_rate(fault_rate.max(1e-3))
            .packet_loss(loss)
            .retry(RetryPolicy::bounded(retry.0, SimDuration::from_millis(retry.1)))
            .server_crash(crash.0 % servers, crash.1, crash.2)
            .controller_failover(crash.3)
            .slo(SimDuration::from_millis(crash.4))
            .partition(from, from + len)
            .partition_hold_bound(hold_bound);
        if two {
            let second = from + len + gap;
            faults = faults.partition(second, second + len2);
        }
        let (queue_bound, deadline, open_after, cooldown) = admission;
        let (spillover, ingress_bound, autonomy) = flags;
        let mut overload = OverloadPolicy::default()
            .queue_bound(queue_bound)
            .queue_deadline(SimDuration::from_secs_f64(deadline))
            .breaker(open_after, SimDuration::from_secs_f64(cooldown))
            .net_ingress_bound(ingress_bound);
        if spillover {
            overload = overload.spillover();
        }
        let disconnect = if autonomy {
            DisconnectPolicy::default().autonomous()
        } else {
            DisconnectPolicy::default()
        };
        let cfg = ExperimentConfig::single_app(
            hivemind::apps::suite::App::FaceRecognition,
        )
        .platform(platform)
        .servers(servers)
        .rate_scale(rate_scale)
        .duration(SimDuration::from_secs(8))
        .seed(seed);
        let armed = RunPlan::new()
            .trace(true)
            .faults(faults)
            .overload(overload)
            .disconnect(disconnect);

        let mut json = Vec::new();
        for shards in [1u32, 2] {
            let o = Experiment::new(cfg.clone().plan(armed.clone().shards(shards))).run();
            let trace = o.trace.as_ref().expect("tracing enabled");
            let issued = trace.count("task", "submit");
            let completed = o.tasks.len();
            let lost = trace.count("task", "lost");
            let shed = trace.count("task", "shed");
            let dropped = trace.count("net", "held.drop");
            prop_assert_eq!(issued, completed + lost + shed + dropped,
                "{} shards: issued {} != completed {} + lost {} + shed {} + dropped {}",
                shards, issued, completed, lost, shed, dropped);
            json.push(o.to_json());
        }
        prop_assert_eq!(&json[0], &json[1], "outcome differs between 1 and 2 shards");

        // Retry-forever (the paper's respawn semantics): nothing is lost
        // and every issued task completes.
        let forever = FaultPlan::default()
            .function_fault_rate(fault_rate.max(1e-3))
            .packet_loss(loss);
        let forever = Experiment::new(
            cfg.plan(RunPlan::new().trace(true).faults(forever)),
        )
        .run();
        let issued = forever
            .trace
            .as_ref()
            .expect("tracing enabled")
            .count("task", "submit") as u64;
        prop_assert_eq!(forever.recovery.map(|r| r.tasks_lost).unwrap_or(0), 0);
        prop_assert_eq!(issued, forever.tasks.len() as u64);
    }
}

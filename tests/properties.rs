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
    // Each case runs two full experiments; keep the fleet small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Task conservation under injected chaos: every task the app issues
    /// either completes (possibly after retries) or is counted lost —
    /// nothing silently vanishes. With the paper's retry-forever default
    /// the lost count is exactly zero.
    #[test]
    fn tasks_are_conserved_under_faults(
        fault_rate in 0.0f64..0.3,
        loss in 0.0f64..0.15,
        seed in 0u64..64,
    ) {
        use hivemind::core::prelude::*;

        let plan = FaultPlan::default()
            .function_fault_rate(fault_rate.max(1e-3))
            .packet_loss(loss)
            .retry(RetryPolicy::bounded(3, SimDuration::from_millis(20)));
        let cfg = ExperimentConfig::single_app(
            hivemind::apps::suite::App::FaceRecognition,
        )
        .platform(Platform::CentralizedFaaS)
        .duration(SimDuration::from_secs(8))
        .seed(seed)
        .plan(RunPlan::new().trace(true));

        // Bounded give-up retry: issued = completed + lost.
        let chaotic =
            Experiment::new(cfg.clone().plan(RunPlan::new().trace(true).faults(plan.clone()))).run();
        let issued = chaotic
            .trace
            .as_ref()
            .expect("tracing enabled")
            .count("task", "submit") as u64;
        let completed = chaotic.tasks.len() as u64;
        let lost = chaotic.recovery.map(|r| r.tasks_lost).unwrap_or(0);
        prop_assert_eq!(issued, completed + lost,
            "issued {} != completed {} + lost {}", issued, completed, lost);

        // Retry-forever (the paper's respawn semantics): nothing is lost
        // and every issued task completes.
        let forever = Experiment::new(
            cfg.plan(RunPlan::new().trace(true).faults(plan.retry(RetryPolicy::default()))),
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

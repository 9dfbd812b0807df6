//! Property-based tests for the simulation primitives.

use hivemind_sim::dist::Dist;
use hivemind_sim::mc::BreakerMonitor;
use hivemind_sim::overload::{
    BreakerConfig, BreakerDecision, BreakerEvent, BreakerState, CircuitBreaker,
};
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::{Histogram, Meter, Summary};
use hivemind_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Meter totals equal the sum of window rates × window length,
    /// regardless of how adds are spread.
    #[test]
    fn meter_conserves_mass(adds in prop::collection::vec((0u64..120, 0.0f64..1e6), 1..100)) {
        let mut adds = adds;
        adds.sort_by_key(|&(t, _)| t);
        let mut meter = Meter::new(SimDuration::from_secs(1));
        let mut expected = 0.0;
        for &(t, amount) in &adds {
            meter.add(SimTime::from_secs(t), amount);
            expected += amount;
        }
        meter.finish(SimTime::from_secs(121));
        let windowed: f64 = meter.rates_per_sec().iter().sum();
        prop_assert!((windowed - expected).abs() < 1e-6 * expected.max(1.0));
        prop_assert!((meter.total() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// Histograms bin every sample exactly once.
    #[test]
    fn histogram_conserves_samples(
        samples in prop::collection::vec(-1e6f64..1e6, 1..300),
        bins in 1usize..40,
    ) {
        let h = Histogram::from_samples(&samples, bins);
        prop_assert_eq!(h.total(), samples.len() as u64);
        prop_assert_eq!(h.counts().len(), bins);
    }

    /// Merging summaries equals recording everything into one.
    #[test]
    fn summary_merge_is_concat(
        a in prop::collection::vec(0.0f64..1e6, 0..100),
        b in prop::collection::vec(0.0f64..1e6, 1..100),
    ) {
        let mut merged: Summary = a.iter().copied().collect();
        let other: Summary = b.iter().copied().collect();
        merged.merge(&other);
        let direct: Summary = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.len(), direct.len());
        prop_assert!((merged.mean() - direct.mean()).abs() < 1e-9 * direct.mean().max(1.0));
        prop_assert_eq!(merged.median(), direct.median());
        prop_assert_eq!(merged.p99(), direct.p99());
    }

    /// Scaling a distribution scales its mean linearly and never breaks
    /// sampling.
    #[test]
    fn dist_scaling_is_linear(
        median in 1e-6f64..100.0,
        sigma in 0.0f64..1.5,
        factor in 0.01f64..100.0,
    ) {
        let d = Dist::lognormal_median_sigma(median, sigma);
        let scaled = d.scaled(factor);
        prop_assert!((scaled.mean_secs() - d.mean_secs() * factor).abs()
            < 1e-9 * (d.mean_secs() * factor).max(1e-12));
        let mut rng = RngForge::new(1).stream("prop");
        for _ in 0..20 {
            prop_assert!(scaled.sample(&mut rng) >= SimDuration::ZERO);
        }
    }

    /// Named streams are reproducible and index-decorrelated.
    #[test]
    fn rng_streams_reproducible(seed in 0u64..u64::MAX, idx in 0u64..10_000) {
        use rand::Rng;
        let forge = RngForge::new(seed);
        let a: u64 = forge.indexed_stream("x", idx).gen();
        let b: u64 = forge.indexed_stream("x", idx).gen();
        prop_assert_eq!(a, b);
        let c: u64 = forge.indexed_stream("x", idx.wrapping_add(1)).gen();
        prop_assert_ne!(a, c);
    }

    /// Merging per-replicate summaries in any order yields identical
    /// order statistics — the runner may hand back replicate summaries
    /// in replicate order, but nothing downstream may depend on it.
    #[test]
    fn summary_merge_is_permutation_invariant(
        chunks in prop::collection::vec(
            prop::collection::vec(0.0f64..1e6, 1..40), 2..8),
        seed in 0u64..u64::MAX,
    ) {
        use rand::Rng;
        let summaries: Vec<Summary> =
            chunks.iter().map(|c| c.iter().copied().collect()).collect();

        let merge_all = |order: &[usize]| {
            let mut out = Summary::new();
            for &i in order {
                out.merge(&summaries[i]);
            }
            out
        };
        let natural: Vec<usize> = (0..summaries.len()).collect();
        let mut shuffled = natural.clone();
        let mut rng = RngForge::new(seed).stream("perm");
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }

        let a = merge_all(&natural);
        let b = merge_all(&shuffled);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!((a.mean() - b.mean()).abs() < 1e-9 * a.mean().max(1.0));
        prop_assert_eq!(a.median(), b.median());
        prop_assert_eq!(a.p99(), b.p99());
        prop_assert_eq!(a.min(), b.min());
        prop_assert_eq!(a.max(), b.max());
    }

    /// The circuit breaker never diverges from its specification mirror
    /// under arbitrary interleavings of admissions, outcome reports
    /// (resolved oldest-first or newest-first), vanished probes, and
    /// time advances.
    #[test]
    fn breaker_matches_specification_mirror(
        open_after in 1u32..5,
        half_open_probes in 1u32..4,
        cooldown_ms in 1u64..3_000,
        ops in prop::collection::vec((0u64..2_000, 0u8..8), 1..200),
    ) {
        let cfg = BreakerConfig {
            open_after,
            half_open_probes,
            cooldown: SimDuration::from_millis(cooldown_ms),
        };
        let mut breaker = CircuitBreaker::new(cfg);
        let mut monitor = BreakerMonitor::new(cfg);
        let mut now = SimTime::ZERO;
        // Admitted attempts not yet resolved (probe flags).
        let mut inflight: Vec<bool> = Vec::new();
        for &(dt_ms, op) in &ops {
            now += SimDuration::from_millis(dt_ms);
            match op {
                0..=2 => {
                    let (decision, event) = breaker.admit_traced(now);
                    let checked = monitor.on_admit(now, decision, event);
                    prop_assert!(checked.is_ok(), "admit diverged: {:?}", checked);
                    if decision != BreakerDecision::Reject {
                        inflight.push(decision == BreakerDecision::Probe);
                    }
                }
                3..=6 => {
                    let probe = if op < 5 {
                        (!inflight.is_empty()).then(|| inflight.remove(0))
                    } else {
                        inflight.pop()
                    };
                    if let Some(probe) = probe {
                        let success = op % 2 == 1;
                        let event = if success {
                            breaker.record_success(now, probe)
                        } else {
                            breaker.record_failure(now, probe)
                        };
                        let checked = monitor.on_outcome(now, success, probe, event);
                        prop_assert!(checked.is_ok(), "outcome diverged: {:?}", checked);
                    }
                }
                _ => {
                    // A probe's invocation vanishes without resolving.
                    if let Some(pos) = inflight.iter().position(|&p| p) {
                        inflight.remove(pos);
                        breaker.release_probe();
                        monitor.on_release();
                    }
                }
            }
            prop_assert_eq!(breaker.state(), monitor.state());
        }
    }

    /// Closed → open after exactly `open_after` consecutive final
    /// failures; a success while closed resets the streak.
    #[test]
    fn breaker_opens_after_exact_streak(open_after in 1u32..8, warmup in 0u32..3) {
        let cfg = BreakerConfig {
            open_after,
            half_open_probes: 1,
            cooldown: SimDuration::from_secs(1),
        };
        let mut b = CircuitBreaker::new(cfg);
        let now = SimTime::ZERO;
        for _ in 0..warmup {
            prop_assert_eq!(b.admit(now), BreakerDecision::Admit);
            prop_assert_eq!(b.record_success(now, false), None);
        }
        // One short of the threshold, broken by a success: still closed.
        for _ in 1..open_after {
            prop_assert_eq!(b.admit(now), BreakerDecision::Admit);
            prop_assert_eq!(b.record_failure(now, false), None);
        }
        prop_assert_eq!(b.record_success(now, false), None);
        prop_assert_eq!(b.state(), BreakerState::Closed);
        prop_assert_eq!(b.consecutive_failures(), 0);
        // A full uninterrupted streak: the final failure, and only it,
        // trips the breaker.
        let mut last = None;
        for i in 0..open_after {
            prop_assert_eq!(b.admit(now), BreakerDecision::Admit);
            last = b.record_failure(now, false);
            if i + 1 < open_after {
                prop_assert_eq!(last, None);
            }
        }
        prop_assert_eq!(last, Some(BreakerEvent::Opened));
        prop_assert_eq!(b.state(), BreakerState::Open);
        prop_assert_eq!(b.admit(now), BreakerDecision::Reject);
    }

    /// Open → half-open at exactly the cool-down boundary: one
    /// nanosecond early still rejects, the boundary instant admits the
    /// first probe.
    #[test]
    fn breaker_half_opens_exactly_at_cooldown(
        cooldown_ms in 1u64..10_000,
        trip_at_ms in 0u64..5_000,
    ) {
        let cooldown = SimDuration::from_millis(cooldown_ms);
        let cfg = BreakerConfig { open_after: 1, half_open_probes: 1, cooldown };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO + SimDuration::from_millis(trip_at_ms);
        prop_assert_eq!(b.admit(t0), BreakerDecision::Admit);
        prop_assert_eq!(b.record_failure(t0, false), Some(BreakerEvent::Opened));
        let just_before = t0 + (cooldown - SimDuration::from_nanos(1));
        prop_assert_eq!(b.admit_traced(just_before), (BreakerDecision::Reject, None));
        let boundary = t0 + cooldown;
        prop_assert_eq!(
            b.admit_traced(boundary),
            (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
        );
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    /// Half-open probe slots are conserved: exactly `half_open_probes`
    /// concurrent probes, a vanished probe frees its slot, a probe
    /// success closes (clearing the streak), a probe failure re-opens
    /// for a fresh cool-down.
    #[test]
    fn breaker_probe_slots_are_conserved(half_open_probes in 1u32..5, succeed in 0u8..2) {
        let cooldown = SimDuration::from_secs(1);
        let cfg = BreakerConfig { open_after: 1, half_open_probes, cooldown };
        let mut b = CircuitBreaker::new(cfg);
        prop_assert_eq!(b.admit(SimTime::ZERO), BreakerDecision::Admit);
        prop_assert_eq!(b.record_failure(SimTime::ZERO, false), Some(BreakerEvent::Opened));
        let t1 = SimTime::ZERO + cooldown;
        prop_assert_eq!(
            b.admit_traced(t1),
            (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
        );
        for _ in 1..half_open_probes {
            prop_assert_eq!(b.admit_traced(t1), (BreakerDecision::Probe, None));
        }
        prop_assert_eq!(b.probes_in_flight(), half_open_probes);
        prop_assert_eq!(b.admit(t1), BreakerDecision::Reject);
        // A vanished probe frees exactly one slot.
        b.release_probe();
        prop_assert_eq!(b.admit_traced(t1), (BreakerDecision::Probe, None));
        prop_assert_eq!(b.admit(t1), BreakerDecision::Reject);
        if succeed == 1 {
            prop_assert_eq!(b.record_success(t1, true), Some(BreakerEvent::Closed));
            prop_assert_eq!(b.state(), BreakerState::Closed);
            prop_assert_eq!(b.consecutive_failures(), 0);
            prop_assert_eq!(b.probes_in_flight(), 0);
        } else {
            prop_assert_eq!(b.record_failure(t1, true), Some(BreakerEvent::Opened));
            prop_assert_eq!(b.state(), BreakerState::Open);
            prop_assert_eq!(b.probes_in_flight(), 0);
            // The re-open runs a full fresh cool-down from the failure.
            let just_before = t1 + (cooldown - SimDuration::from_nanos(1));
            prop_assert_eq!(b.admit(just_before), BreakerDecision::Reject);
            prop_assert_eq!(
                b.admit_traced(t1 + cooldown),
                (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
            );
        }
    }

    /// Derived replicate seeds never collide with each other (or the
    /// root) for any realistic replicate count.
    #[test]
    fn replicate_seeds_unique_up_to_8192(root in 0u64..u64::MAX) {
        use hivemind_sim::rng::replicate_seed;
        let mut seen = std::collections::HashSet::with_capacity(8192);
        for index in 0..8192u64 {
            let seed = replicate_seed(root, index);
            prop_assert!(seen.insert(seed), "collision at replicate {}", index);
            prop_assert_ne!(seed, root, "replicate {} reuses the root seed", index);
        }
    }
}

proptest! {
    /// For any interleaving of pushes and pops over arbitrary keys, the
    /// calendar queue pops in exactly the reference `BinaryHeap` order.
    /// This is the queue-order invariant the engines' byte-determinism
    /// rests on, pinned independently of the debug-build shadow heap.
    #[test]
    fn calendar_pop_order_matches_reference_heap(
        ops in prop::collection::vec((any::<bool>(), 0u64..5_000_000_000, 0u64..64), 1..400),
    ) {
        use hivemind_sim::calendar::CalendarQueue;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut cal: CalendarQueue<(SimTime, u64), u64> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        // The lane leg keeps keys unique (`lane * cap + seq`), so the
        // reference heap's order is total and the comparison is exact.
        let mut seq = 0u64;
        for &(push, t, lane) in &ops {
            if push || cal.is_empty() {
                let key = (SimTime::from_nanos(t), lane * 1_000 + seq);
                seq += 1;
                cal.push(key, seq);
                heap.push(Reverse(key));
            } else {
                let got = cal.pop().map(|(k, _)| k);
                let want = heap.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
            }
        }
        while let Some((k, _)) = cal.pop() {
            let Reverse(want) = heap.pop().expect("heap tracks the calendar's len");
            prop_assert_eq!(k, want);
        }
        prop_assert!(heap.is_empty());
    }
}

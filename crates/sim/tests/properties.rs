//! Property-based tests for the simulation primitives.

use hivemind_sim::dist::Dist;
use hivemind_sim::mc::BreakerMonitor;
use hivemind_sim::overload::{
    BreakerConfig, BreakerDecision, BreakerEvent, BreakerState, CircuitBreaker,
};
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::{DurationSummary, Histogram, Meter, Summary};
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

/// The rounding `SimDuration::from_secs_f64` must reproduce bit for bit.
fn reference_nanos(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

proptest! {
    /// `from_secs_f64` rounds exactly like `f64::round`, over arbitrary
    /// bit patterns (NaN, infinities, negatives, subnormals, values past
    /// `u64::MAX` ns), exact `.5` nanosecond fractions, and values at
    /// and around 2^52 and 2^53 ns, where the fraction vanishes.
    #[test]
    fn from_secs_f64_matches_round(
        bits in any::<u64>(),
        whole in 0u64..1 << 54,
        ulps in 0u64..16,
        exp in 50u32..56,
    ) {
        let half = (whole as f64 + 0.5) / 1e9;
        let near_pow2 = (1u64 << exp) as f64 / 1e9;
        for secs in [
            f64::from_bits(bits),
            half,
            f64::from_bits(half.to_bits() + ulps),
            f64::from_bits(half.to_bits().saturating_sub(ulps)),
            f64::from_bits(near_pow2.to_bits() + ulps),
            f64::from_bits(near_pow2.to_bits() - ulps),
        ] {
            prop_assert_eq!(
                SimDuration::from_secs_f64(secs).as_nanos(),
                reference_nanos(secs),
                "secs = {:e} ({:#x})",
                secs,
                secs.to_bits()
            );
        }
    }
}

#[test]
fn from_secs_f64_matches_round_at_the_edges() {
    let max_secs = u64::MAX as f64 / 1e9;
    for secs in [
        0.0,
        -0.0,
        -1.0,
        -0.5e-9,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        0.5e-9,
        1.5e-9,
        2.5e-9,
        0.499_999_999_999e-9,
        max_secs,
        f64::from_bits(max_secs.to_bits() - 1),
        f64::from_bits(max_secs.to_bits() + 1),
        f64::MAX,
    ] {
        assert_eq!(
            SimDuration::from_secs_f64(secs).as_nanos(),
            reference_nanos(secs),
            "secs = {secs:e}"
        );
    }
    // Inputs whose product lands exactly on a half nanosecond round away
    // from zero; found by walking a few ulps around the quotient.
    let mut halves = 0;
    for whole in [
        0u64,
        1,
        2,
        3,
        1_000_001,
        123_456_789_012,
        (1 << 51) - 1,
        (1 << 52) - 1,
    ] {
        let target = whole as f64 + 0.5;
        let guess = (target / 1e9).to_bits();
        for bits in guess - 4..=guess + 4 {
            let secs = f64::from_bits(bits);
            if secs * 1e9 == target {
                halves += 1;
                assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), whole + 1);
                assert_eq!(reference_nanos(secs), whole + 1);
            }
        }
    }
    assert!(halves > 0, "no exact half-nanosecond input found");
}

/// A duration drawn across `DurationSummary`'s 4-byte/8-byte boundary:
/// `kind` picks 0 ns, `u32::MAX - 1`, `u32::MAX`, `SimDuration::MAX`, a
/// small value (so samples repeat), any value under `u32::MAX`, one just
/// above it, or any value at all.
fn boundary_duration((kind, bits): (u8, u64)) -> SimDuration {
    let narrow_max = u64::from(u32::MAX);
    SimDuration::from_nanos(match kind {
        0 => 0,
        1 => narrow_max - 1,
        2 => narrow_max,
        3 => u64::MAX,
        4 => bits % 1_000,
        5 => bits % narrow_max,
        6 => narrow_max + bits % (1 << 40),
        _ => bits,
    })
}

/// Fails unless `d` and `s` agree bit for bit on every statistic.
fn agree_bitwise(d: &DurationSummary, s: &Summary, qs: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.len(), s.len());
    prop_assert_eq!(d.is_empty(), s.is_empty());
    prop_assert_eq!(d.mean().to_bits(), s.mean().to_bits());
    prop_assert_eq!(d.min().to_bits(), s.min().to_bits());
    prop_assert_eq!(d.max().to_bits(), s.max().to_bits());
    for &q in qs {
        let (dq, sq) = (d.quantile(q), s.quantile(q));
        prop_assert_eq!(dq.to_bits(), sq.to_bits(), "q = {}: {} vs {}", q, dq, sq);
    }
    let qs = [0.5, 0.99];
    prop_assert_eq!(
        d.quantiles(qs).map(f64::to_bits),
        s.quantiles(qs).map(f64::to_bits)
    );
    Ok(())
}

proptest! {
    /// `DurationSummary` answers exactly what a `Summary` fed the same
    /// durations in seconds answers, before and after a merge, including
    /// samples at and past the 4-byte boundary.
    #[test]
    fn duration_summary_matches_summary_bit_for_bit(
        a in prop::collection::vec((0u8..8, any::<u64>()), 0..120),
        b in prop::collection::vec((0u8..8, any::<u64>()), 0..120),
        qs in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let mut qs = qs;
        qs.extend([0.0, 1.0]);
        let (mut d, mut s) = (DurationSummary::new(), Summary::new());
        for &x in &a {
            d.record(boundary_duration(x));
            s.record(boundary_duration(x).as_secs_f64());
        }
        agree_bitwise(&d, &s, &qs)?;
        let (mut d2, mut s2) = (DurationSummary::new(), Summary::new());
        for &x in &b {
            d2.record(boundary_duration(x));
            s2.record(boundary_duration(x).as_secs_f64());
        }
        agree_bitwise(&d2, &s2, &qs)?;
        d.merge(&d2);
        s.merge(&s2);
        agree_bitwise(&d, &s, &qs)?;
        // Merging equals recording everything into one.
        let mut direct = DurationSummary::new();
        for &x in a.iter().chain(&b) {
            direct.record(boundary_duration(x));
        }
        prop_assert!(d == direct, "merge differs from one summary of both");
    }
}

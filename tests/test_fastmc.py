"""Tests for the vectorized Monte-Carlo engine (fastmc)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EquivalenceError
from repro.reliability import fastmc, montecarlo
from repro.reliability.fastmc import (
    CORRECTED,
    DUE,
    MISCORRECTED,
    build_cache_image,
    classify_batch,
    cross_check_live,
    estimate_double_fault_failure_fast,
    replay_pairs_live,
    sample_fault_pairs,
)


class TestCacheImage:
    def test_matches_live_cache_columns(self):
        """Every image column must agree with a live walk of its twin."""
        image = build_cache_image(2, 8, seed=5, cache_bytes=512)
        cache = image.to_cache()
        for u, (loc, value, dirty) in enumerate(cache.iter_units()):
            assert dirty, "the experiment cache must be fully dirty"
            assert value == int(image.values[u])
            assert loc == image.location_of(u)
            assert loc.way == int(image.way[u])
            stored_value, check, _ = cache.peek_unit(loc)
            assert stored_value == value
            assert check == int(image.checks[u])
            cls = cache.protection.class_of(loc)
            assert cls == int(image.rotation_class[u])

    @pytest.mark.parametrize("parity_ways", [1, 2, 4, 8])
    def test_checks_match_scalar_encoder(self, parity_ways):
        from repro.coding.parity import InterleavedParity

        image = build_cache_image(1, parity_ways, seed=1, cache_bytes=256)
        code = InterleavedParity(data_bits=64, ways=parity_ways)
        for u in range(image.num_units):
            assert int(image.checks[u]) == code.encode(int(image.values[u]))

    def test_register_xor_matches_live_pairs(self):
        for num_pairs in (1, 2, 4, 8):
            image = build_cache_image(num_pairs, 8, seed=3, cache_bytes=512)
            cache = image.to_cache()
            for index, pair in enumerate(cache.protection.registers.pairs):
                assert pair.dirty_xor == int(image.register_xor[index])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_cache_image(3, 8, seed=0)
        with pytest.raises(ConfigurationError):
            build_cache_image(1, 5, seed=0)
        with pytest.raises(ConfigurationError):
            build_cache_image(1, 8, seed=0, cache_bytes=100)


class TestSampleFaultPairs:
    def test_shard_concatenation_is_the_unsharded_stream(self):
        """The Philox counter convention: [0, 100) == [0, 37) + [37, 100)."""
        whole = sample_fault_pairs(9, 0, 100, 128)
        head = sample_fault_pairs(9, 0, 37, 128)
        tail = sample_fault_pairs(9, 37, 100, 128)
        for field in ("unit_a", "unit_b", "bit_a", "bit_b"):
            joined = np.concatenate([getattr(head, field), getattr(tail, field)])
            assert np.array_equal(joined, getattr(whole, field)), field

    def test_pairs_are_distinct_and_in_range(self):
        batch = sample_fault_pairs(0, 0, 5000, 64)
        assert np.all(batch.unit_a != batch.unit_b)
        assert batch.unit_a.max() < 64 and batch.unit_b.max() < 64
        assert batch.unit_a.min() >= 0 and batch.unit_b.min() >= 0
        assert batch.bit_a.max() < 64 and batch.bit_b.max() < 64

    def test_empty_and_invalid_ranges(self):
        assert len(sample_fault_pairs(0, 10, 10, 64)) == 0
        with pytest.raises(ConfigurationError):
            sample_fault_pairs(0, 5, 2, 64)
        with pytest.raises(ConfigurationError):
            sample_fault_pairs(0, 0, 10, 1)


class TestLiveEquivalence:
    @pytest.mark.parametrize("num_pairs", [1, 2, 4, 8])
    @pytest.mark.parametrize("parity_ways", [4, 8])
    def test_kernel_matches_live_recovery(self, num_pairs, parity_ways):
        summary = cross_check_live(
            samples=192,
            subset=12,
            num_pairs=num_pairs,
            parity_ways=parity_ways,
            seed=17 * num_pairs + parity_ways,
            cache_bytes=512,
        )
        assert summary["checked"] == 12

    def test_corner_cases_replay_identically(self):
        """Force the spatial-mimicry corner (same pair, group, way, and
        row within rotation range) and require the kernel's locator
        verdicts to match a live replay sample for sample."""
        image = build_cache_image(1, 8, seed=2, cache_bytes=512)
        candidates = []
        for a in range(24):
            for b in range(a + 1, image.num_units):
                if image.way[a] != image.way[b]:
                    continue
                if image.rotation_class[a] == image.rotation_class[b]:
                    continue
                if abs(int(image.row[a]) - int(image.row[b])) < 8:
                    candidates.append((a, b))
        same_group = candidates[:16]
        assert same_group, "geometry must offer same-way close-row pairs"
        unit_a = np.array([p[0] for p in same_group], dtype=np.int64)
        unit_b = np.array([p[1] for p in same_group], dtype=np.int64)
        # Put both faults in parity group 0: MSB-first bit index g of a
        # 64-bit word belongs to group g % 8, so LSB-first bit 63 and 55.
        bits_a = np.full(len(same_group), 63, dtype=np.uint8)
        bits_b = np.full(len(same_group), 55, dtype=np.uint8)
        batch = fastmc.FaultPairBatch(
            0, len(same_group), unit_a, unit_b, bits_a, bits_b
        )
        outcomes = classify_batch(image, batch)
        live = replay_pairs_live(image, batch, range(len(same_group)))
        for i in range(len(same_group)):
            assert int(outcomes[i]) == live[i]
        # These collisions hit the locator path: some verdict other than
        # blanket correction must appear, or the corner was not reached.
        assert set(int(o) for o in outcomes) <= {CORRECTED, DUE, MISCORRECTED}
        assert any(int(o) != CORRECTED for o in outcomes)

    def test_divergence_raises_equivalence_error(self):
        image = build_cache_image(1, 8, seed=0, cache_bytes=512)
        batch = sample_fault_pairs(0, 0, 64, image.num_units)
        outcomes = classify_batch(image, batch)
        live = replay_pairs_live(image, batch, range(64))
        assert all(int(outcomes[i]) == live[i] for i in range(64))
        # Sabotage the image's register column: the live R1^R2 check in
        # replay_pairs_live must catch it.
        bad = image.register_xor.copy()
        bad[0] ^= np.uint64(1)
        import dataclasses

        broken = dataclasses.replace(image, register_xor=bad)
        with pytest.raises(EquivalenceError):
            replay_pairs_live(broken, batch, [0])


class TestStatistics:
    def test_outcomes_partition_samples(self):
        est = estimate_double_fault_failure_fast(samples=2500, seed=6)
        assert est.corrected + est.due + est.miscorrected == est.samples

    def test_rate_tracks_analytic(self):
        for num_pairs in (1, 2, 4, 8):
            est = estimate_double_fault_failure_fast(
                samples=20_000, num_pairs=num_pairs, seed=0
            )
            analytic = montecarlo.analytical_collision_probability(8, num_pairs)
            assert abs(est.failure_rate - analytic) < 0.02
            ci_low, ci_high = est.failure_rate_ci()
            assert 0.0 <= ci_low <= est.failure_rate <= ci_high <= 1.0

    def test_sdc_vanishes_at_eight_pairs(self):
        est = estimate_double_fault_failure_fast(samples=30_000, num_pairs=8, seed=1)
        assert est.miscorrected == 0

    def test_fast_and_scalar_agree_statistically(self):
        """Independent streams, same estimator: the scalar measurement
        must land inside the fast engine's (tight) confidence interval
        widened by its own binomial noise."""
        fast = estimate_double_fault_failure_fast(samples=50_000, seed=9)
        scalar = montecarlo.estimate_double_fault_failure(samples=120, seed=9)
        s_low, s_high = scalar.failure_rate_ci()
        assert s_low <= fast.failure_rate <= s_high

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_double_fault_failure_fast(samples=0)

"""Tests for the analytical MTTF models (paper Table 3 and Section 4.7)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.reliability import (
    PAPER_AVF,
    ReliabilityInputs,
    aliasing_vulnerable_bits,
    mttf_aliasing_years,
    mttf_cppc_years,
    mttf_domain_pair_years,
    mttf_parity_years,
    mttf_secded_years,
)

# The paper's Table 2 inputs.
L1 = ReliabilityInputs(size_bits=32 * 1024 * 8, dirty_fraction=0.16,
                       tavg_cycles=1828)
L2 = ReliabilityInputs(size_bits=1024 * 1024 * 8, dirty_fraction=0.35,
                       tavg_cycles=378997)


def within_factor(value, target, factor):
    return target / factor <= value <= target * factor


class TestInputs:
    def test_defaults_match_paper(self):
        assert L1.seu_fit_per_bit == 0.001
        assert L1.avf == PAPER_AVF == 0.7
        assert L1.frequency_hz == 3.0e9

    def test_derived_quantities(self):
        assert L1.dirty_bits == pytest.approx(32 * 1024 * 8 * 0.16)
        assert L1.tavg_hours == pytest.approx(1828 / 3e9 / 3600)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReliabilityInputs(size_bits=0, dirty_fraction=0.1, tavg_cycles=1)
        with pytest.raises(ConfigurationError):
            ReliabilityInputs(size_bits=8, dirty_fraction=0.0, tavg_cycles=1)
        with pytest.raises(ConfigurationError):
            ReliabilityInputs(size_bits=8, dirty_fraction=0.1, tavg_cycles=0)
        with pytest.raises(ConfigurationError):
            ReliabilityInputs(size_bits=8, dirty_fraction=0.1, tavg_cycles=1,
                              avf=0)


class TestPaperTable3Regression:
    """Measured values must land within 2x of every paper Table 3 entry
    (the residual gap is the [22] model's internal details)."""

    def test_parity_l1(self):
        assert within_factor(mttf_parity_years(L1), 4490, 2)

    def test_parity_l2(self):
        assert within_factor(mttf_parity_years(L2), 64, 2)

    def test_cppc_l1(self):
        assert within_factor(mttf_cppc_years(L1), 8.02e21, 2)

    def test_cppc_l2(self):
        assert within_factor(mttf_cppc_years(L2), 8.07e15, 2)

    def test_secded_l1(self):
        assert within_factor(mttf_secded_years(L1, 64), 6.2e23, 2)

    def test_secded_l2(self):
        assert within_factor(mttf_secded_years(L2, 256), 1.1e19, 2)

    def test_aliasing_l2(self):
        assert within_factor(mttf_aliasing_years(L2), 4.19e20, 2)

    def test_aliasing_is_negligible_vs_due(self):
        """Section 4.7: aliasing MTTF is orders of magnitude beyond the
        temporal-DUE MTTF."""
        assert mttf_aliasing_years(L2) > 1e3 * mttf_cppc_years(L2)


class TestOrderingAndMonotonicity:
    def test_scheme_ordering(self):
        """parity << CPPC < SECDED at both levels (Table 3)."""
        for inputs, unit_bits in ((L1, 64), (L2, 256)):
            parity = mttf_parity_years(inputs)
            cppc = mttf_cppc_years(inputs)
            secded = mttf_secded_years(inputs, unit_bits)
            assert parity < cppc < secded
            assert cppc / parity > 1e10  # "improves the MTTF very much"

    def test_more_register_pairs_improve_mttf(self):
        values = [mttf_cppc_years(L1, num_pairs=p) for p in (1, 2, 4, 8)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_more_parity_bits_improve_mttf(self):
        one = mttf_cppc_years(L1, parity_ways=1)
        eight = mttf_cppc_years(L1, parity_ways=8)
        assert eight > one

    def test_smaller_tavg_improves_two_fault_mttf(self):
        fast = ReliabilityInputs(size_bits=L1.size_bits, dirty_fraction=0.16,
                                 tavg_cycles=100)
        assert mttf_cppc_years(fast) > mttf_cppc_years(L1)

    def test_bigger_cache_hurts(self):
        assert mttf_parity_years(L2) < mttf_parity_years(L1)

    def test_domain_pair_validation(self):
        with pytest.raises(ConfigurationError):
            mttf_domain_pair_years(L1, 0, 8)
        with pytest.raises(ConfigurationError):
            mttf_cppc_years(L1, num_pairs=0)
        with pytest.raises(ConfigurationError):
            mttf_secded_years(L1, 0)


class TestAliasing:
    def test_vulnerable_bits_per_pairs(self):
        """Section 4.7: 7 bits with one pair, 3 with two, 1 with four,
        0 (eliminated) with eight."""
        assert aliasing_vulnerable_bits(8, 1) == 7
        assert aliasing_vulnerable_bits(8, 2) == 3
        assert aliasing_vulnerable_bits(8, 4) == 1
        assert aliasing_vulnerable_bits(8, 8) == 0

    def test_eight_pairs_infinite_mttf(self):
        assert mttf_aliasing_years(L2, num_pairs=8) == math.inf

    def test_more_pairs_reduce_hazard(self):
        values = [mttf_aliasing_years(L2, num_pairs=p) for p in (1, 2, 4)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            aliasing_vulnerable_bits(8, 3)

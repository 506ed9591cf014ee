"""Monte-Carlo cross-validation of the analytical MTTF model.

The Table 3 model rests on one structural claim: CPPC fails on a temporal
double fault only when both upsets land in the *same protection domain* —
the same register pair AND the same interleaved parity group — before the
first is scrubbed.  With ``p`` pairs and ``w`` parity bits the chance that
two uniformly-placed faults collide is ``1 / (p * w)``.

:func:`estimate_double_fault_failure` measures that probability directly:
it builds a dirty CPPC cache, injects two random single-bit faults into
distinct dirty words, triggers recovery, and classifies the outcome.  The
measured failure fraction must track ``1 / (p * w)`` (up to the rare
aliasing/spatial corner cases, which it also reports), validating the
analytical model's core assumption with live machinery instead of algebra.

This is the scalar *reference*; :mod:`repro.reliability.fastmc` is the
vectorized engine that runs the same experiment at field-study sample
counts and cross-checks itself against this machinery per sample.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Dict, Tuple

from ..cppc import CppcProtection
from ..errors import ConfigurationError, UncorrectableError
from ..memsim import Cache, MainMemory
from ..memsim.snapshot import restore_cache, snapshot_cache
from ..util import make_rng


@dataclasses.dataclass
class DoubleFaultEstimate:
    """Outcome histogram of the double-fault experiment."""

    samples: int
    corrected: int = 0
    due: int = 0
    miscorrected: int = 0

    def __post_init__(self):
        # A zero-sample estimate has no rates; fail with a typed error at
        # construction instead of a ZeroDivisionError at first use.
        if self.samples < 1:
            raise ConfigurationError(
                f"a double-fault estimate needs samples >= 1, got {self.samples}"
            )

    @property
    def failure_rate(self) -> float:
        """Fraction of double faults the scheme could not repair."""
        return (self.due + self.miscorrected) / self.samples

    @property
    def sdc_rate(self) -> float:
        """Fraction silently miscorrected (the aliasing hazard)."""
        return self.miscorrected / self.samples

    def failure_rate_ci(self, level: float = 0.95) -> Tuple[float, float]:
        """Wilson score interval for :attr:`failure_rate`.

        The Wilson interval stays honest at the extremes this experiment
        lives in — rates near zero (high pair counts) and small sample
        budgets (the fuzzer's scenarios) — where the naive normal
        interval collapses to a zero-width band around 0 or escapes
        ``[0, 1]``.
        """
        if not 0.0 < level < 1.0:
            raise ConfigurationError(f"confidence level must be in (0, 1), got {level}")
        z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
        n = self.samples
        p = self.failure_rate
        denominator = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denominator
        half_width = (z / denominator) * math.sqrt(
            p * (1.0 - p) / n + z * z / (4.0 * n * n)
        )
        return (max(0.0, center - half_width), min(1.0, center + half_width))


def analytical_collision_probability(parity_ways: int = 8, num_pairs: int = 1) -> float:
    """P(two uniform faults share a protection domain) = 1 / (p * w)."""
    if parity_ways < 1 or num_pairs < 1:
        raise ConfigurationError("parity_ways and num_pairs must be >= 1")
    return 1.0 / (parity_ways * num_pairs)


def _empty_cache(num_pairs: int, parity_ways: int, cache_bytes: int) -> Cache:
    """Fresh, pristine experiment cache (the Table 3 geometry)."""
    return Cache(
        "L1D",
        cache_bytes,
        2,
        32,
        unit_bytes=8,
        protection=CppcProtection(
            data_bits=64,
            parity_ways=parity_ways,
            num_pairs=num_pairs,
            byte_shifting=(parity_ways == 8),
        ),
        next_level=MainMemory(block_bytes=32),
    )


def _build_dirty_cache(
    num_pairs: int, parity_ways: int, seed, cache_bytes: int = 8192
) -> Cache:
    cache = _empty_cache(num_pairs, parity_ways, cache_bytes)
    rng = make_rng(seed)
    for addr in range(0, cache_bytes, 8):
        cache.store(addr, rng.getrandbits(64).to_bytes(8, "big"))
    return cache


def estimate_double_fault_failure(
    *,
    samples: int = 200,
    parity_ways: int = 8,
    num_pairs: int = 1,
    seed: int = 0,
    cache_bytes: int = 8192,
) -> DoubleFaultEstimate:
    """Empirical outcome distribution of two concurrent temporal faults.

    Each sample: fresh fully-dirty CPPC cache, two single-bit flips in two
    distinct dirty words, recovery triggered by a load of the first word.
    ``cache_bytes`` scales the dirty cache (the collision probability is
    a property of the code geometry, not the capacity; the fuzzer uses
    small caches to afford many samples).

    The dirty image is built *once* per call and forked per sample via
    :mod:`repro.memsim.snapshot` — the ~1,000 scalar stores that used to
    rebuild an identical geometry every sample were pure overhead.  For
    two single-bit faults in distinct dirty words the recovery outcome is
    a pure function of the fault geometry (the random contents cancel out
    of every XOR in the recovery algebra), so forking one image draws the
    same outcome per sample as rebuilding with a fresh per-sample seed;
    the regression test in ``tests/test_montecarlo.py`` pins this against
    an inline copy of the rebuild-per-sample loop.
    """
    estimate = DoubleFaultEstimate(samples=samples)
    if cache_bytes < 256 or cache_bytes % 64:
        raise ConfigurationError(
            "cache_bytes must be a multiple of 64 and at least 256"
        )
    rng = make_rng((seed, "double-fault"))

    base = _build_dirty_cache(num_pairs, parity_ways, (seed, "base"), cache_bytes)
    golden: Dict = {loc: value for loc, value, _d in base.iter_units()}
    locations = list(golden)
    snap = snapshot_cache(base)

    for _sample in range(samples):
        cache = restore_cache(snap, _empty_cache(num_pairs, parity_ways, cache_bytes))
        loc_a, loc_b = rng.sample(locations, 2)
        cache.corrupt_data(loc_a, 1 << rng.randrange(64))
        cache.corrupt_data(loc_b, 1 << rng.randrange(64))
        try:
            cache.load(cache.address_of(loc_a), 8)
            cache.load(cache.address_of(loc_b), 8)
        except UncorrectableError:
            estimate.due += 1
            continue
        clean = all(cache.peek_unit(loc)[0] == value for loc, value in golden.items())
        if clean:
            estimate.corrected += 1
        else:
            estimate.miscorrected += 1
    return estimate

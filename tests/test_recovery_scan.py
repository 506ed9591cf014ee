"""CPPC's bulk dirty scan against the unit-by-unit walk it replaced.

``recover``, ``CppcProtection.repair_register`` and
``CppcProtection.dirty_xor_expected`` read the cache's dirty units
through :class:`repro.cppc.recovery.DirtyScan`, one NumPy pass.  The
reference here is the old walk: ``iter_dirty_units``, then ``class_of``,
``pair_index_of_class``, ``inspect`` and ``rotate_in`` on every dirty
unit.  Both run on identically built caches with data, check-bit,
out-of-range check-word, spatial and register faults planted, and must
return equal reports, audit payloads and register values, emit the same
trace events (register repairs; ``recover`` itself emits none), leave
identical caches and raise the same exception text.
"""

import dataclasses
import random
import re

import pytest

from repro.cppc import CppcProtection, FaultyUnit
from repro.cppc.recovery import PairAudit, RecoveryReport, _resolve_pair, recover
from repro.errors import ReproError, SimulationError, UncorrectableError
from repro.faults import FaultInjector, SpatialFault
from repro.memsim import Cache, MainMemory
from repro.memsim.types import UnitLocation
from repro.obs.trail import audit_payload
from repro.util import parity, xor_reduce

from conftest import ListSink

# ----------------------------------------------------------------------
# The reference: the per-unit walk
# ----------------------------------------------------------------------


def per_unit_repair_register(scheme, pair_index, which):
    """``CppcProtection.repair_register`` over the per-unit walk."""
    pair = scheme.registers.pairs[pair_index]
    dirty_xor = 0
    stored_check = scheme.cache.stored_check
    for loc, value in scheme.cache.iter_dirty_units():
        cls = scheme.class_of(loc)
        if scheme.registers.pair_index_of_class(cls) != pair_index:
            continue
        if scheme.inspect(value, stored_check(loc)).detected:
            raise UncorrectableError(
                "cppc: cannot rebuild a faulty register while dirty "
                f"word {loc} is itself faulty (Section 4.9 caveat)",
                detail=loc,
            )
        dirty_xor ^= scheme.rotation.rotate_in(value, cls)
    if which == "r1":
        pair.r1 = dirty_xor ^ pair.r2
        pair.r1_parity = parity(pair.r1)
    else:
        pair.r2 = dirty_xor ^ pair.r1
        pair.r2_parity = parity(pair.r2)
    scheme.register_repairs += 1
    if scheme._obs_on:
        scheme._obs.emit(
            "cppc.registers", "repair", {"pair": pair_index, "register": which}
        )


def per_unit_dirty_xor_expected(scheme, pair_index):
    """``CppcProtection.dirty_xor_expected`` over the per-unit walk."""
    acc = 0
    for loc, value in scheme.cache.iter_dirty_units():
        cls = scheme.class_of(loc)
        if scheme.registers.pair_index_of_class(cls) == pair_index:
            acc ^= scheme.rotation.rotate_in(value, cls)
    return acc


def per_unit_recover(scheme, trigger):
    """``recover`` with the per-unit scan and residue loop."""
    cache = scheme.cache
    repairs_before = scheme.register_repairs
    for pair_index, pair in enumerate(scheme.registers.pairs):
        if not pair.r1_intact():
            per_unit_repair_register(scheme, pair_index, "r1")
        if not pair.r2_intact():
            per_unit_repair_register(scheme, pair_index, "r2")
    report = RecoveryReport(
        trigger=trigger,
        units_scanned=cache.resident_unit_count(),
        register_repairs=scheme.register_repairs - repairs_before,
    )
    dirty_by_pair = {}
    faulty_by_pair = {}
    stored_check = cache.stored_check
    for loc, value in cache.iter_dirty_units():
        cls = scheme.class_of(loc)
        pair_index = scheme.registers.pair_index_of_class(cls)
        dirty_by_pair.setdefault(pair_index, []).append((loc, value, cls))
        inspection = scheme.inspect(value, stored_check(loc))
        if inspection.detected:
            faulty_by_pair.setdefault(pair_index, []).append(
                FaultyUnit(
                    loc=loc,
                    rotation_class=cls,
                    row=scheme.geometry.row_of(loc),
                    stored_value=value,
                    faulty_parities=inspection.faulty_parities,
                )
            )
            report.faulty_units.append(loc)
    if not any(u.loc == trigger for units in faulty_by_pair.values() for u in units):
        raise SimulationError(
            f"recovery triggered by {trigger} but the scan does not see it "
            "as a faulty dirty unit"
        )
    for pair_index, faulty in faulty_by_pair.items():
        pair = scheme.registers.pairs[pair_index]
        rotated_dirty = (
            scheme.rotation.rotate_in(value, cls)
            for _loc, value, cls in dirty_by_pair.get(pair_index, [])
        )
        r3 = pair.dirty_xor ^ xor_reduce(rotated_dirty)
        deltas = _resolve_pair(scheme, faulty, r3, report)
        report.pair_audits.append(
            PairAudit(
                pair_index=pair_index,
                r1=pair.r1,
                r2=pair.r2,
                residue=r3,
                method=report.methods[-1],
                faulty=list(faulty),
            )
        )
        for unit in faulty:
            corrected = unit.stored_value ^ deltas[unit.loc]
            residual = scheme.inspect(corrected, stored_check(unit.loc))
            if residual.detected and not (
                residual.faulty_parities <= unit.faulty_parities
            ):
                raise UncorrectableError(
                    f"cppc: recovered value for {unit.loc} fails parity in "
                    "unflagged groups — fault exceeds correction capability",
                    detail=unit.loc,
                )
            report.corrections[unit.loc] = (unit.stored_value, corrected)
    for loc, (_old, new) in report.corrections.items():
        if loc != trigger:
            cache.repair_unit(loc, new)
    return report


# ----------------------------------------------------------------------
# Randomized dirty caches
# ----------------------------------------------------------------------

#: (num_pairs, byte_shifting, parity_ways); byte shifting needs 8 ways.
CODES = (
    [(pairs, True, 8) for pairs in (1, 2, 4, 8)]
    + [(pairs, False, 8) for pairs in (1, 2, 4, 8)]
    + [(pairs, False, ways) for ways in (1, 2, 4, 16) for pairs in (1, 4)]
)

#: 64-bit units (four per 32-byte line, as in an L1) and 256-bit units
#: (one per line, as in an L2).
UNIT_BYTES = (8, 32)

SEEDS = range(12)


def code_id(code):
    pairs, shifting, ways = code
    return f"p{pairs}-{'shift' if shifting else 'flat'}-w{ways}"


def build_cache(code, unit_bytes, seed, references=None):
    """A 2 KB, 2-way cache with dirty and clean lines from ``seed``: an
    empty, sparse, partly or mostly dirty cache unless ``references``
    fixes the trace length."""
    pairs, shifting, ways = code
    cache = Cache(
        "L1D",
        2048,
        2,
        32,
        unit_bytes=unit_bytes,
        protection=CppcProtection(
            data_bits=unit_bytes * 8,
            parity_ways=ways,
            num_pairs=pairs,
            byte_shifting=shifting,
        ),
        next_level=MainMemory(block_bytes=32),
    )
    rng = random.Random(seed)
    if references is None:
        references = rng.choice((0, 5, 60, 300, 300))
    for _ in range(references):
        addr = rng.randrange(4096 // 8) * 8
        if rng.random() < 0.6:
            cache.store(addr, rng.getrandbits(64).to_bytes(8, "big"))
        else:
            cache.load(addr, 8)
    cache.set_observer(ListSink())
    return cache


def plant_faults(cache, rng):
    """Faults a recovery can meet: flipped data and check bits in dirty
    units, a check word wider than the code, a spatial strike, and
    flipped register bits."""
    scheme = cache.protection
    ways = scheme.code.ways
    dirty = [loc for loc, _value in cache.iter_dirty_units()]
    if dirty:
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            bits = rng.choice((1, 1, 2, 5))
            mask = 0
            for _ in range(bits):
                mask |= 1 << rng.randrange(cache.unit_bits)
            cache.corrupt_data(rng.choice(dirty), mask)
        if rng.random() < 0.3:
            cache.corrupt_check(rng.choice(dirty), 1 << rng.randrange(ways))
        if rng.random() < 0.1:
            cache.corrupt_check(rng.choice(dirty), 1 << (ways + rng.randrange(3)))
    if rng.random() < 0.3 and cache.resident_unit_count():
        injector = FaultInjector(cache, seed=0)
        injector.inject_spatial(
            SpatialFault(
                way=rng.randrange(cache.ways),
                top_row=rng.randrange(injector.geometry.rows_per_way),
                left_col=rng.randrange(cache.unit_bits),
                height=rng.randrange(1, 9),
                width=rng.randrange(1, 9),
            ),
        )
    if rng.random() < 0.15:
        pair = rng.choice(scheme.registers.pairs)
        flip = 1 << rng.randrange(pair.width_bits)
        if rng.random() < 0.5:
            pair.corrupt_r1(flip)
        else:
            pair.corrupt_r2(flip)


def pick_trigger(cache, rng):
    """A faulty dirty unit when there is one, else any dirty unit (which
    recovery must refuse), else a unit that is not dirty."""
    scheme = cache.protection
    faulty, dirty = [], []
    for loc, value in cache.iter_dirty_units():
        dirty.append(loc)
        try:
            if scheme.inspect(value, cache.stored_check(loc)).detected:
                faulty.append(loc)
        except ReproError:
            faulty.append(loc)
    return rng.choice(faulty or dirty or [UnitLocation(0, 0, 0)])


def cache_state(cache):
    scheme = cache.protection
    return {
        "data": bytes(cache._data),
        "check": list(cache._check),
        "dirty": list(cache._dirty),
        "stats": dataclasses.asdict(cache.stats),
        "pairs": [vars(pair) for pair in scheme.registers.pairs],
        "register_repairs": scheme.register_repairs,
        "events": list(cache._obs.events),
    }


def outcome(call):
    """``("ok", result)`` or ``("error", exception type, text)``."""
    try:
        return ("ok", call())
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


def twin_caches(code, unit_bytes, seed):
    """Two identical faulty caches and the trigger both recover from."""
    key = f"{code_id(code)}-{unit_bytes}-{seed}"
    caches = [build_cache(code, unit_bytes, key) for _ in range(2)]
    for cache in caches:
        plant_faults(cache, random.Random(f"{key}-faults"))
    return caches, pick_trigger(caches[0], random.Random(f"{key}-trigger"))


# ----------------------------------------------------------------------
# The comparisons
# ----------------------------------------------------------------------


@pytest.mark.parametrize("unit_bytes", UNIT_BYTES)
@pytest.mark.parametrize("code", CODES, ids=code_id)
class TestScanMatchesPerUnitWalk:
    def test_recover(self, code, unit_bytes):
        for seed in SEEDS:
            (bulk, walk), trigger = twin_caches(code, unit_bytes, seed)

            def run(recovery, cache):
                report = recovery(cache.protection, trigger)
                return report, audit_payload(report, cache.protection)

            got = outcome(lambda: run(recover, bulk))
            want = outcome(lambda: run(per_unit_recover, walk))
            assert got == want, seed
            assert cache_state(bulk) == cache_state(walk), seed

    def test_repair_register(self, code, unit_bytes):
        for seed in SEEDS:
            (bulk, walk), _trigger = twin_caches(code, unit_bytes, seed)
            rng = random.Random(f"{code_id(code)}-{unit_bytes}-{seed}-pair")
            pair_index = rng.randrange(code[0])
            which = rng.choice(("r1", "r2"))
            got = outcome(lambda: bulk.protection.repair_register(pair_index, which))
            want = outcome(
                lambda: per_unit_repair_register(walk.protection, pair_index, which)
            )
            assert got == want, seed
            assert cache_state(bulk) == cache_state(walk), seed

    def test_dirty_xor_expected(self, code, unit_bytes):
        for seed in SEEDS:
            (cache, _twin), _trigger = twin_caches(code, unit_bytes, seed)
            scheme = cache.protection
            for pair_index in range(code[0]):
                assert scheme.dirty_xor_expected(
                    pair_index
                ) == per_unit_dirty_xor_expected(scheme, pair_index), seed


class TestScanEdges:
    """Cases the randomized caches reach only by chance."""

    def dirty_cache(self, code=(1, True, 8), unit_bytes=8):
        cache = build_cache(code, unit_bytes, seed=3, references=300)
        assert cache.dirty_unit_count() > 20
        return cache

    def test_no_faulty_unit_is_refused(self):
        cache = self.dirty_cache()
        trigger = next(cache.iter_dirty_units())[0]
        with pytest.raises(SimulationError, match="does not see it"):
            recover(cache.protection, trigger)

    @pytest.mark.parametrize("ways", (4, 8, 16))
    def test_wide_check_word_raises_at_its_unit(self, ways):
        """The first dirty unit whose stored check is wider than the code
        raises ``inspect``'s error, even behind an ordinary fault."""
        code = (1, ways == 8, ways)
        caches = [self.dirty_cache(code) for _ in range(2)]
        for cache in caches:
            dirty = [loc for loc, _value in cache.iter_dirty_units()]
            cache.corrupt_data(dirty[2], 1 << 5)
            cache.corrupt_check(dirty[7], 1 << ways)
            cache.corrupt_check(dirty[9], 1 << (ways + 2))
        got = outcome(lambda: recover(caches[0].protection, dirty[2]))
        want = outcome(lambda: per_unit_recover(caches[1].protection, dirty[2]))
        assert got[:2] == ("error", "ConfigurationError")
        assert got == want

    def test_check_bit_fault_is_corrected_in_place(self):
        cache = self.dirty_cache()
        loc = list(cache.iter_dirty_units())[4][0]
        value = cache.peek_unit(loc)[0]
        cache.corrupt_check(loc, 1 << 3)
        report = recover(cache.protection, loc)
        assert report.faulty_units == [loc]
        assert report.corrections[loc] == (value, value)

    def test_register_repair_refuses_a_faulty_dirty_word(self):
        cache = self.dirty_cache(code=(2, True, 8))
        scheme = cache.protection
        dirty = [loc for loc, _value in cache.iter_dirty_units()]
        pair_1 = [loc for loc in dirty if scheme.class_of(loc) >= 4]
        cache.corrupt_data(pair_1[1], 1)
        scheme.repair_register(0, "r1")  # the other pair rebuilds fine
        with pytest.raises(UncorrectableError, match=re.escape(str(pair_1[1]))):
            scheme.repair_register(1, "r2")

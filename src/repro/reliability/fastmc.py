"""Vectorized, shardable Monte-Carlo double-fault engine.

:mod:`repro.reliability.montecarlo` validates the paper's ``1/(p*w)``
collision claim with live machinery — a scalar loop that forks a dirty
cache and drives :class:`~repro.cppc.protection.CppcProtection` recovery
per sample.  That is the reference; this module is its fast path.  The
key observation making vectorization *exact* rather than approximate:
for two single-bit faults in distinct dirty words, the recovery outcome
is a pure function of the fault **geometry** (register pair, parity
group, way, row distance) — the random cache contents cancel out of
every XOR in the recovery algebra.  Concretely:

* different register pairs → each pair sees one faulty unit, the
  ``single`` method reconstructs it exactly → *corrected*;
* same pair, different parity groups → byte rotation never moves a bit
  out of its parity group, so the ``disjoint-parity`` method separates
  the two patterns exactly → *corrected*;
* same pair **and** same parity group → the spatial path: different
  ways, or rows further apart than the rotation period, are immediate
  DUEs; the remaining sliver (same way, row distance < ``num_classes``)
  goes to the :class:`~repro.cppc.locator.FaultLocator`, whose verdict
  (corrected / miscorrected / DUE) this engine obtains by running the
  *real* locator on the sampled evidence — never a re-derivation.

The engine therefore materializes the dirty-cache image **once per
geometry** as columnar NumPy arrays (:class:`CacheImage`), samples every
fault pair of a shard in one batch (:func:`sample_fault_pairs`, a
counter-based Philox convention that makes the merged estimate
bit-independent of the shard count), classifies the common cases with
array algebra — parity syndromes via
:func:`repro.memsim.batch._fold_check_words` against the actual stored
check words, register images via
:func:`repro.memsim.batch._rotl_bytes_u64` — and resolves the rare
spatial corner through the live locator.

:func:`cross_check_live` is the equivalence mode: it rebuilds the same
image inside a real :class:`~repro.memsim.cache.Cache`, verifies the
vectorized register image against the live R1^R2 pairs, then replays a
randomized subset of the sampled fault pairs through full
``Cache``/``CppcProtection`` recovery and asserts **per-sample outcome
identity** with the vector kernel, raising
:class:`~repro.errors.EquivalenceError` on any divergence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Philox

from ..coding.parity import InterleavedParity
from ..cppc import CppcProtection
from ..cppc.locator import FaultLocator, FaultyUnit
from ..cppc.registers import RegisterFile
from ..cppc.shifting import RotationScheme
from ..errors import (
    ConfigurationError,
    EquivalenceError,
    FaultLocatorError,
    UncorrectableError,
    raise_mismatches,
)
from ..memsim import Cache, MainMemory
from ..memsim.batch import _fold_check_words, _rotl_bytes_u64
from ..memsim.snapshot import restore_cache, snapshot_cache
from ..memsim.types import UnitLocation
from ..util import make_rng
from ..util.rng import split_seed
from .montecarlo import DoubleFaultEstimate

__all__ = [
    "CORRECTED",
    "DUE",
    "MISCORRECTED",
    "RAWS_PER_SAMPLE",
    "CacheImage",
    "FaultPairBatch",
    "build_cache_image",
    "sample_fault_pairs",
    "classify_batch",
    "estimate_double_fault_failure_fast",
    "cross_check_live",
    "replay_pairs_live",
]

#: Per-sample outcome codes (values of :func:`classify_batch` arrays).
CORRECTED, DUE, MISCORRECTED = 0, 1, 2

#: Raw 64-bit Philox draws consumed per sample: unit_a, unit_b, bit_a,
#: bit_b.  ``Philox.advance(n)`` skips exactly ``4 * n`` raw outputs
#: (one counter increment yields one four-word block), so a shard
#: starting at global sample ``lo`` positions its stream with
#: ``advance(lo)`` — the draw for sample ``i`` is identical no matter
#: how the sample range is partitioned into shards.
RAWS_PER_SAMPLE = 4

#: Geometry constants mirrored from ``montecarlo._build_dirty_cache``:
#: a 2-way cache of 32-byte blocks and 64-bit protection units.
_WAYS = 2
_BLOCK_BYTES = 32
_UNIT_BYTES = 8
_UNITS_PER_BLOCK = _BLOCK_BYTES // _UNIT_BYTES
_NUM_CLASSES = 8


def _validate_geometry(parity_ways: int, num_pairs: int, cache_bytes: int):
    if parity_ways not in (1, 2, 4, 8):
        raise ConfigurationError(
            f"fastmc supports parity_ways in (1, 2, 4, 8), got {parity_ways}"
        )
    if num_pairs not in RegisterFile.VALID_PAIR_COUNTS:
        raise ConfigurationError(
            f"num_pairs must be one of {RegisterFile.VALID_PAIR_COUNTS}, "
            f"got {num_pairs}"
        )
    if cache_bytes < 256 or cache_bytes % 64:
        raise ConfigurationError(
            "cache_bytes must be a multiple of 64 and at least 256"
        )


def _fold_parity_words(values: np.ndarray, ways: int) -> np.ndarray:
    """Vectorized ``InterleavedParity(ways).encode`` over 64-bit words.

    Starts from the 8-way byte fold (bit ``7 - g`` of the folded byte is
    group ``g``'s parity) and keeps halving: each fold XORs 8-way groups
    congruent modulo the next width, landing group ``g`` of the
    ``ways``-way code at bit ``ways - 1 - g`` — exactly the scalar
    encode's check-word layout.
    """
    folded = _fold_check_words(values)
    width = 8
    while width > ways:
        width //= 2
        folded = (folded ^ (folded >> np.uint64(width))) & np.uint64((1 << width) - 1)
    return folded


@dataclasses.dataclass(frozen=True)
class CacheImage:
    """Columnar image of the fully-dirty experiment cache.

    One instance per ``(num_pairs, parity_ways, cache_bytes, seed)``
    geometry; every array is indexed by the flat unit index ``u`` in
    ``Cache.iter_units`` order (set ascending, way ascending, unit
    ascending), so ``u`` doubles as an index into the live cache's
    location list during equivalence replay.
    """

    num_pairs: int
    parity_ways: int
    cache_bytes: int
    seed: object
    byte_shifting: bool
    num_sets: int
    values: np.ndarray  #: uint64 stored value per unit
    checks: np.ndarray  #: uint64 stored check word per unit
    way: np.ndarray  #: uint8 way of each unit
    row: np.ndarray  #: uint32 physical row (within its way)
    rotation_class: np.ndarray  #: uint8 ``row % num_classes``
    pair: np.ndarray  #: uint8 register pair owning the unit's class
    register_xor: np.ndarray  #: uint64 per-pair XOR of rotated values

    @property
    def num_units(self) -> int:
        """Units in the image (all dirty by construction)."""
        return len(self.values)

    def location_of(self, unit: int) -> UnitLocation:
        """Live-cache location of flat unit index ``unit``."""
        per_set = _WAYS * _UNITS_PER_BLOCK
        return UnitLocation(
            unit // per_set,
            (unit % per_set) // _UNITS_PER_BLOCK,
            unit % _UNITS_PER_BLOCK,
        )

    def to_cache(self) -> Cache:
        """Materialize the image as a live fully-dirty CPPC cache.

        Stores walk the address space in the same order as
        ``montecarlo._build_dirty_cache`` (so way fill matches), writing
        this image's values — the returned cache's units, check words
        and R1^R2 registers are the scalar twin of the columns here.
        """
        memory = MainMemory(block_bytes=_BLOCK_BYTES)
        cache = Cache(
            "L1D",
            self.cache_bytes,
            _WAYS,
            _BLOCK_BYTES,
            unit_bytes=_UNIT_BYTES,
            protection=CppcProtection(
                data_bits=64,
                parity_ways=self.parity_ways,
                num_pairs=self.num_pairs,
                byte_shifting=self.byte_shifting,
            ),
            next_level=memory,
        )
        for addr in range(0, self.cache_bytes, _UNIT_BYTES):
            block = addr // _BLOCK_BYTES
            way, set_index = divmod(block, self.num_sets)
            unit_index = (addr % _BLOCK_BYTES) // _UNIT_BYTES
            flat = (set_index * _WAYS + way) * _UNITS_PER_BLOCK + unit_index
            cache.store(addr, int(self.values[flat]).to_bytes(_UNIT_BYTES, "big"))
        return cache


def build_cache_image(
    num_pairs: int,
    parity_ways: int,
    seed,
    cache_bytes: int = 8192,
) -> CacheImage:
    """Build the columnar dirty-cache image for one geometry.

    Values are drawn from a counter-based Philox stream keyed by
    ``split_seed(seed, "fastmc", "image")``; the per-unit way/row/class/
    pair columns are derived from the same flat-index convention the
    live cache's ``iter_units`` walks.  The per-pair register image is
    the XOR of every unit's byte-rotated value, computed class-by-class
    with :func:`~repro.memsim.batch._rotl_bytes_u64` — equivalence mode
    checks it against the live R1^R2 pairs bit-for-bit.
    """
    _validate_geometry(parity_ways, num_pairs, cache_bytes)
    num_sets = cache_bytes // (_WAYS * _BLOCK_BYTES)
    num_units = num_sets * _WAYS * _UNITS_PER_BLOCK
    byte_shifting = parity_ways == 8

    gen = Philox(key=split_seed(seed, "fastmc", "image"))
    values = gen.random_raw(num_units).astype(np.uint64)
    checks = _fold_parity_words(values, parity_ways)

    flat = np.arange(num_units, dtype=np.int64)
    per_set = _WAYS * _UNITS_PER_BLOCK
    set_index = flat // per_set
    way = ((flat % per_set) // _UNITS_PER_BLOCK).astype(np.uint8)
    unit_index = flat % _UNITS_PER_BLOCK
    row = (set_index * _UNITS_PER_BLOCK + unit_index).astype(np.uint32)
    rotation_class = (row % _NUM_CLASSES).astype(np.uint8)
    pair = (rotation_class // (_NUM_CLASSES // num_pairs)).astype(np.uint8)

    register_xor = np.zeros(num_pairs, dtype=np.uint64)
    for cls in range(_NUM_CLASSES):
        members = values[rotation_class == cls]
        if not len(members):
            continue
        rotated = _rotl_bytes_u64(members, cls) if byte_shifting else members
        pair_of_cls = cls // (_NUM_CLASSES // num_pairs)
        register_xor[pair_of_cls] ^= np.bitwise_xor.reduce(rotated)

    return CacheImage(
        num_pairs=num_pairs,
        parity_ways=parity_ways,
        cache_bytes=cache_bytes,
        seed=seed,
        byte_shifting=byte_shifting,
        num_sets=num_sets,
        values=values,
        checks=checks,
        way=way,
        row=row,
        rotation_class=rotation_class,
        pair=pair,
        register_xor=register_xor,
    )


@dataclasses.dataclass(frozen=True)
class FaultPairBatch:
    """Columnar fault-pair draws for global sample indices ``[lo, hi)``."""

    lo: int
    hi: int
    unit_a: np.ndarray  #: int64 flat index of the first faulty unit
    unit_b: np.ndarray  #: int64 flat index of the second (distinct)
    bit_a: np.ndarray  #: uint8 LSB-first flipped bit of the first fault
    bit_b: np.ndarray  #: uint8 LSB-first flipped bit of the second

    def __len__(self) -> int:
        return self.hi - self.lo


def sample_fault_pairs(seed, lo: int, hi: int, num_units: int) -> FaultPairBatch:
    """Draw the fault pairs for global sample indices ``[lo, hi)``.

    The stream is counter-based: sample ``i`` always consumes raw words
    ``4*i .. 4*i+3`` of the Philox stream keyed by
    ``split_seed(seed, "double-fault", "fastmc")``, so any partition of
    ``[0, samples)`` into shards draws the identical per-sample faults
    and the merged outcome counts are bit-independent of the shard
    count.  ``unit_b`` is drawn over ``num_units - 1`` and shifted past
    ``unit_a``, giving a uniform ordered pair of *distinct* units (the
    same sample space as the scalar path's ``rng.sample(locations, 2)``,
    under an independent stream).
    """
    if num_units < 2:
        raise ConfigurationError("need at least two units to sample pairs")
    if not 0 <= lo <= hi:
        raise ConfigurationError(f"bad sample range [{lo}, {hi})")
    count = hi - lo
    if count == 0:
        empty64 = np.empty(0, dtype=np.int64)
        empty8 = np.empty(0, dtype=np.uint8)
        return FaultPairBatch(lo, hi, empty64, empty64, empty8, empty8)
    gen = Philox(key=split_seed(seed, "double-fault", "fastmc"))
    if lo:
        gen.advance(lo)
    raw = gen.random_raw(RAWS_PER_SAMPLE * count).astype(np.uint64)
    raw = raw.reshape(-1, RAWS_PER_SAMPLE)
    unit_a = (raw[:, 0] % np.uint64(num_units)).astype(np.int64)
    unit_b = (raw[:, 1] % np.uint64(num_units - 1)).astype(np.int64)
    unit_b = np.where(unit_b >= unit_a, unit_b + 1, unit_b)
    bit_a = (raw[:, 2] & np.uint64(63)).astype(np.uint8)
    bit_b = (raw[:, 3] & np.uint64(63)).astype(np.uint8)
    return FaultPairBatch(lo, hi, unit_a, unit_b, bit_a, bit_b)


def _syndrome_groups(image: CacheImage, units, bits) -> np.ndarray:
    """Flagged parity group per fault, via the stored image.

    Recomputes what the live scan sees: fold the corrupted value and
    XOR with the stored check word.  A single-bit fault flags exactly
    one group; the lookup maps the one-hot syndrome to its index.
    """
    ways = image.parity_ways
    errors = np.uint64(1) << bits.astype(np.uint64)
    folded = _fold_parity_words(image.values[units] ^ errors, ways)
    syndromes = folded ^ image.checks[units]
    lut = np.full(1 << ways, 255, dtype=np.uint8)
    for g in range(ways):
        lut[1 << (ways - 1 - g)] = g
    groups = lut[syndromes.astype(np.int64)]
    if groups.max(initial=0) == 255:
        raise ConfigurationError(
            "single-bit fault produced a non-one-hot parity syndrome"
        )
    return groups


def _corner_outcome(
    image: CacheImage,
    code: InterleavedParity,
    rotation: RotationScheme,
    locator: FaultLocator,
    unit_a: int,
    unit_b: int,
    bit_a: int,
    bit_b: int,
) -> int:
    """Resolve one spatial-corner sample through the live locator.

    Reached only for faults sharing pair, parity group and way with a
    row distance inside the rotation period — exactly the cases
    ``repro.cppc.recovery`` hands to :class:`FaultLocator`.  The checks
    recovery performs *before* the locator (zero residue, shared ways,
    row span) and *after* it (the residual-parity sanity check) are
    reproduced here on the same evidence, so the verdict matches the
    live path per sample.
    """
    faulty: List[FaultyUnit] = []
    errors: Dict[UnitLocation, int] = {}
    checks: Dict[UnitLocation, int] = {}
    r3 = 0
    for unit, bit in ((unit_a, bit_a), (unit_b, bit_b)):
        error = 1 << int(bit)
        stored = int(image.values[unit]) ^ error
        check = int(image.checks[unit])
        cls = int(image.rotation_class[unit])
        loc = image.location_of(unit)
        inspection = code.inspect(stored, check)
        faulty.append(
            FaultyUnit(
                loc=loc,
                rotation_class=cls,
                row=int(image.row[unit]),
                stored_value=stored,
                faulty_parities=inspection.faulty_parities,
            )
        )
        errors[loc] = error
        checks[loc] = check
        r3 ^= rotation.rotate_in(error, cls)
    try:
        deltas = locator.locate(faulty, r3)
    except FaultLocatorError:
        return DUE
    for unit in faulty:
        corrected = unit.stored_value ^ deltas[unit.loc]
        residual = code.inspect(corrected, checks[unit.loc])
        if residual.detected and not (residual.faulty_parities <= unit.faulty_parities):
            return DUE
    exact = all(deltas[loc] == error for loc, error in errors.items())
    return CORRECTED if exact else MISCORRECTED


def classify_batch(image: CacheImage, batch: FaultPairBatch) -> np.ndarray:
    """Per-sample outcomes (``CORRECTED``/``DUE``/``MISCORRECTED``).

    Vectorized protection-domain algebra for the common cases; the rare
    spatial corner (same pair, same parity group, same way, row
    distance inside the rotation period) runs through the live
    :class:`FaultLocator` sample by sample.
    """
    ua, ub = batch.unit_a, batch.unit_b
    groups_a = _syndrome_groups(image, ua, batch.bit_a)
    groups_b = _syndrome_groups(image, ub, batch.bit_b)
    collide = (image.pair[ua] == image.pair[ub]) & (groups_a == groups_b)
    same_way = image.way[ua] == image.way[ub]
    span = np.abs(image.row[ua].astype(np.int64) - image.row[ub].astype(np.int64))
    corner = collide & same_way & (span < _NUM_CLASSES)

    outcomes = np.zeros(len(batch), dtype=np.uint8)
    outcomes[collide & ~corner] = DUE
    corner_indices = np.flatnonzero(corner)
    if len(corner_indices):
        code = InterleavedParity(data_bits=64, ways=image.parity_ways)
        rotation = RotationScheme(
            unit_bytes=_UNIT_BYTES,
            num_classes=_NUM_CLASSES,
            enabled=image.byte_shifting,
        )
        locator = FaultLocator(rotation)
        for i in corner_indices:
            outcomes[i] = _corner_outcome(
                image,
                code,
                rotation,
                locator,
                int(ua[i]),
                int(ub[i]),
                int(batch.bit_a[i]),
                int(batch.bit_b[i]),
            )
    return outcomes


def _shard_bounds(samples: int, shards: int) -> List[Tuple[int, int]]:
    """Even partition of ``[0, samples)`` into ``shards`` ranges."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    step, extra = divmod(samples, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + step + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return [b for b in bounds if b[0] != b[1]]


def _shard_counts(
    lo: int,
    hi: int,
    parity_ways: int,
    num_pairs: int,
    seed,
    cache_bytes: int,
) -> Tuple[int, int, int]:
    """Outcome counts of one sample shard (picklable worker entry)."""
    image = build_cache_image(num_pairs, parity_ways, seed, cache_bytes)
    batch = sample_fault_pairs(seed, lo, hi, image.num_units)
    outcomes = classify_batch(image, batch)
    return (
        int(np.count_nonzero(outcomes == CORRECTED)),
        int(np.count_nonzero(outcomes == DUE)),
        int(np.count_nonzero(outcomes == MISCORRECTED)),
    )


def estimate_double_fault_failure_fast(
    *,
    samples: int = 200_000,
    parity_ways: int = 8,
    num_pairs: int = 1,
    seed: int = 0,
    cache_bytes: int = 8192,
    shards: int = 1,
    jobs: Optional[int] = None,
) -> DoubleFaultEstimate:
    """Vectorized counterpart of ``estimate_double_fault_failure``.

    Same estimator (outcome histogram of two concurrent single-bit
    faults in distinct dirty words of a fully-dirty CPPC cache), under
    an independent deterministic sample stream, at four to five orders
    of magnitude more samples per second.  ``shards`` splits the sample
    range; the counter-based stream guarantees the merged estimate is
    bit-identical for any shard count.  ``jobs`` (> 1) fans the shards
    out across worker processes via the
    :class:`~repro.runtime.TrialExecutor`; per-shard seeds still come
    from the same global stream, so results are also independent of
    *where* a shard ran.
    """
    estimate = DoubleFaultEstimate(samples=samples)
    _validate_geometry(parity_ways, num_pairs, cache_bytes)
    bounds = _shard_bounds(samples, shards)
    argses = [(lo, hi, parity_ways, num_pairs, seed, cache_bytes) for lo, hi in bounds]
    if jobs is not None and jobs > 1 and len(argses) > 1:
        from ..runtime import TrialExecutor

        with TrialExecutor(jobs=min(jobs, len(argses))) as executor:
            results = executor.map(_shard_counts, argses, seed=seed)
    else:
        results = [_shard_counts(*args) for args in argses]
    for corrected, due, miscorrected in results:
        estimate.corrected += corrected
        estimate.due += due
        estimate.miscorrected += miscorrected
    return estimate


def replay_pairs_live(
    image: CacheImage,
    batch: FaultPairBatch,
    indices: Sequence[int],
) -> Dict[int, int]:
    """Replay selected samples through live ``Cache`` recovery.

    Builds the image's live twin once, snapshots it, and forks a fresh
    cache per selected sample: corrupt both sampled units, load both
    addresses (triggering recovery), classify DUE on
    :class:`UncorrectableError` else corrected/miscorrected against the
    golden contents — the exact procedure of the scalar reference loop.
    Returns ``{sample_position: outcome_code}``.

    Also asserts, before any replay, that the vectorized register image
    matches the live R1^R2 pairs — the ``_rotl_bytes_u64`` algebra
    against the scalar register path.
    """
    base = image.to_cache()
    scheme: CppcProtection = base.protection
    for index, pair in enumerate(scheme.registers.pairs):
        expected = int(image.register_xor[index])
        if pair.dirty_xor != expected:
            raise EquivalenceError(
                f"vectorized register image disagrees with the live "
                f"R1^R2 of pair {index}: image {expected:#x}, "
                f"live {pair.dirty_xor:#x}",
                mismatches=[f"pair {index}"],
            )
    golden = {loc: value for loc, value, _d in base.iter_units()}
    locations = list(golden)
    snap = snapshot_cache(base)

    outcomes: Dict[int, int] = {}
    for position in indices:
        fresh = restore_cache(
            snap,
            Cache(
                "L1D",
                image.cache_bytes,
                _WAYS,
                _BLOCK_BYTES,
                unit_bytes=_UNIT_BYTES,
                protection=CppcProtection(
                    data_bits=64,
                    parity_ways=image.parity_ways,
                    num_pairs=image.num_pairs,
                    byte_shifting=image.byte_shifting,
                ),
                next_level=MainMemory(block_bytes=_BLOCK_BYTES),
            ),
        )
        loc_a = locations[int(batch.unit_a[position])]
        loc_b = locations[int(batch.unit_b[position])]
        fresh.corrupt_data(loc_a, 1 << int(batch.bit_a[position]))
        fresh.corrupt_data(loc_b, 1 << int(batch.bit_b[position]))
        try:
            fresh.load(fresh.address_of(loc_a), _UNIT_BYTES)
            fresh.load(fresh.address_of(loc_b), _UNIT_BYTES)
        except UncorrectableError:
            outcomes[position] = DUE
            continue
        clean = all(fresh.peek_unit(loc)[0] == value for loc, value in golden.items())
        outcomes[position] = CORRECTED if clean else MISCORRECTED
    return outcomes


def cross_check_live(
    *,
    samples: int = 512,
    subset: int = 48,
    parity_ways: int = 8,
    num_pairs: int = 1,
    seed: int = 0,
    cache_bytes: int = 1024,
) -> dict:
    """Equivalence mode: vector kernel vs. live recovery, per sample.

    Samples ``samples`` fault pairs with the kernel's stream, classifies
    them vectorized, then replays a randomized ``subset`` through the
    live machinery (always including every non-corrected sample first —
    the interesting DUE/SDC verdicts — topped up with uniformly chosen
    corrected ones) and asserts per-sample outcome identity.  Raises
    :class:`EquivalenceError` on any divergence; returns a summary dict.
    """
    image = build_cache_image(num_pairs, parity_ways, seed, cache_bytes)
    batch = sample_fault_pairs(seed, 0, samples, image.num_units)
    outcomes = classify_batch(image, batch)

    interesting = [int(i) for i in np.flatnonzero(outcomes != CORRECTED)]
    rng = make_rng((seed, "fastmc-equivalence-subset"))
    rng.shuffle(interesting)
    chosen = interesting[:subset]
    if len(chosen) < min(subset, samples):
        boring = [int(i) for i in np.flatnonzero(outcomes == CORRECTED)]
        chosen += rng.sample(boring, min(subset - len(chosen), len(boring)))
    live = replay_pairs_live(image, batch, chosen)

    names = {CORRECTED: "corrected", DUE: "due", MISCORRECTED: "miscorrected"}
    mismatches = [
        f"sample {position}: kernel={names[int(outcomes[position])]} "
        f"live={names[live[position]]} "
        f"(units {int(batch.unit_a[position])}/{int(batch.unit_b[position])}, "
        f"bits {int(batch.bit_a[position])}/{int(batch.bit_b[position])})"
        for position in chosen
        if int(outcomes[position]) != live[position]
    ]
    raise_mismatches(
        "vector kernel diverged from live recovery on "
        f"{len(mismatches)}/{len(chosen)} replayed sample(s)",
        mismatches,
    )
    return {
        "samples": samples,
        "checked": len(chosen),
        "non_corrected_checked": len([i for i in chosen if outcomes[i]]),
        "parity_ways": parity_ways,
        "num_pairs": num_pairs,
        "cache_bytes": cache_bytes,
    }

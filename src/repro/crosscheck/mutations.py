"""Seeded bugs for the fuzzer's self-test (``run_fuzz --mutate``).

A differential harness that never fires is indistinguishable from one
that works, so its detection power must itself be tested.  Each
:class:`Mutation` here plants one deliberate, realistic bug into exactly
ONE side of a differential pair — the scalar cache but not the batch
engine, the fast campaign path but not the legacy loop, the audit
recorder but not the live recovery — and the self-test asserts the
fuzzer reports a divergence within budget.

The patches are namespace-aware: ``audit_payload`` is imported *by
name* into :mod:`repro.cppc.protection`, so the mutation rebinds it
there (patching the defining module would silently miss the call site).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict, Iterator, List, Tuple

from ..errors import ConfigurationError

#: One attribute rebinding: (owner object, attribute name, replacement).
Patch = Tuple[object, str, object]


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One seeded bug.

    Attributes:
        name: CLI identifier.
        description: what the bug breaks, in one line.
        kinds: scenario kinds able to observe it — the self-test fuzzes
            only these, so every second of budget exercises the one
            oracle that must fire.
        build: returns the patch list (built lazily so importing this
            module never imports numpy et al. eagerly).
    """

    name: str
    description: str
    kinds: Tuple[str, ...]
    build: Callable[[], List[Patch]]


def _skip_byte_rotation() -> List[Patch]:
    """Scalar registers stop byte-rotating values (batch still does)."""
    from ..cppc.shifting import RotationScheme

    def rotate_in(self, value: int, rotation_class: int) -> int:
        return value

    return [(RotationScheme, "rotate_in", rotate_in)]


def _drop_evict_r2() -> List[Patch]:
    """Scalar CPPC forgets to retire evicted words from its registers."""
    from ..cppc.protection import CppcProtection

    def on_evict(self, set_index, way, *args, **kwargs):
        return None

    return [(CppcProtection, "on_evict", on_evict)]


def _rotl_off_by_one() -> List[Patch]:
    """Batch register rotation over-rotates every word by one byte."""
    from ..memsim import batch

    original = batch._rotl_bytes_u64

    def rotl(values, count):
        return original(values, count + 1)

    return [(batch, "_rotl_bytes_u64", rotl)]


def _lru_evicts_second_least_recent() -> List[Patch]:
    """The LRU residency kernel points each full-set miss of a cache with
    three or more ways at the second-least-recent block, so the batch
    engine and the timing path's L2 retire the wrong line."""
    import numpy as np

    from ..memsim import batch

    original = batch.lru_residency

    def lru_residency(sets, blocks, ways):
        resolved = original(sets, blocks, ways)
        if ways < 3:
            return resolved
        # A (ways-1)-way cache's victim is the full one's second-least-
        # recent block wherever the full one evicts.
        shallow = original(sets, blocks, ways - 1).evict
        full = resolved.evict >= 0
        return resolved._replace(evict=np.where(full, shallow, resolved.evict))

    return [(batch, "lru_residency", lru_residency)]


def _late_dirty_stamps() -> List[Patch]:
    """The batch engine stamps each dirty unit one cycle after its last
    access, so a cache restored from its snapshot measures every later
    Tavg interval one cycle short."""
    from ..memsim.batch import BatchReplayEngine

    original = BatchReplayEngine.replay

    def replay(self, trace, **kwargs):
        result = original(self, trace, **kwargs)
        stamps = [
            None if cycle is None else cycle + 1
            for cycle in result.cache.last_dirty_access
        ]
        cache = dataclasses.replace(result.cache, last_dirty_access=stamps)
        return result._replace(cache=cache)

    return [(BatchReplayEngine, "replay", replay)]


def _fast_campaign_seed_skew() -> List[Patch]:
    """Snapshot-fork path injects with the NEXT trial's fault seed."""
    from ..faults.campaign import FaultCampaign

    original = FaultCampaign._classify_trial_fast

    def classify_fast(self, trial, warm=None):
        return original(self, trial + 1, warm)

    return [(FaultCampaign, "_classify_trial_fast", classify_fast)]


def _golden_touch_skips_hits() -> List[Patch]:
    """The golden suffix pass treats every access as a miss, so a unit
    only counts as touched when its line is evicted: trials whose fault
    a load would have found skip the suffix."""
    from ..faults.warmstate import _TouchRecorder

    original = _TouchRecorder._access

    def access(self, cache, addr, size, hit):
        return original(self, cache, addr, size, False)

    return [(_TouchRecorder, "_access", access)]


def _golden_touch_skips_evictions() -> List[Patch]:
    """The golden suffix pass counts no eviction as a touch, so a trial
    whose struck line the suffix evicts resumes at the end of the suffix
    as if its units were never touched."""
    from ..faults.warmstate import _TouchRecorder

    def evict(self, cache, set_index, way):
        return None

    return [(_TouchRecorder, "_evict", evict)]


def _flush_touch_skips_upper_levels() -> List[Patch]:
    """The golden pass records no touches during an upper level's drain,
    so a trial whose struck L2 unit the L1 drain reaches still settles
    its flush at its struck lines."""
    from ..faults import warmstate

    def drain(hierarchy):
        hierarchy.flush()
        return {level.name: frozenset() for level in hierarchy.levels()}

    return [(warmstate, "_golden_drain", drain)]


def _fork_forgets_reached_sets() -> List[Patch]:
    """A finished trial hands its hierarchy back without the sets its own
    replay reached, so the next fork keeps what the trial changed there
    beyond the golden run's resume and its struck units."""
    from ..faults.warmstate import GoldenRecord

    original = GoldenRecord.changed_sets

    def changed_sets(self, hierarchy, resumed, reached, *args):
        return original(self, hierarchy, resumed, [()] * len(reached), *args)

    return [(GoldenRecord, "changed_sets", changed_sets)]


def _audit_zero_residue() -> List[Patch]:
    """Every audit record (``audit_payload``) reports residue 0 for every
    register pair, in ``CppcProtection.audits()`` and in the stream."""
    from ..cppc import protection

    original = protection.audit_payload

    def zeroed(report, scheme):
        payload = original(report, scheme)
        for pair in payload["pairs"]:
            pair["residue"] = 0
        return payload

    return [(protection, "audit_payload", zeroed)]


def _scan_rotl_off_by_one() -> List[Patch]:
    """The recovery scan rotates each class's XOR one byte too far, so
    every residue carries the dirty words' misrotated fold."""
    from ..cppc import recovery

    original = recovery._rotl_row

    def rotl(row, count):
        return original(row, count + 1)

    return [(recovery, "_rotl_row", rotl)]


def _fast_timing_shadow_leak() -> List[Patch]:
    """Fast backlog resolver drops the miss-shadow drain (scalar keeps it)."""
    from ..timing import fast

    original = fast._resolve_backlog

    def no_shadow(cap, drain, supply, store_demand, miss_demand, miss, shadow):
        return original(
            cap, drain, supply, store_demand, miss_demand, miss, shadow * 0.0
        )

    return [(fast, "_resolve_backlog", no_shadow)]


def _analytic_inflate() -> List[Patch]:
    """The analytical collision model overstates 1/(p*w) eightfold."""
    from ..reliability import montecarlo

    original = montecarlo.analytical_collision_probability

    def inflated(parity_ways: int = 8, num_pairs: int = 1) -> float:
        return min(1.0, 8.0 * original(parity_ways, num_pairs))

    return [(montecarlo, "analytical_collision_probability", inflated)]


MUTATIONS: Dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "skip-byte-rotation",
            "scalar RotationScheme.rotate_in becomes the identity",
            ("replay",),
            _skip_byte_rotation,
        ),
        Mutation(
            "drop-evict-r2",
            "scalar CppcProtection.on_evict is a no-op",
            ("replay", "recovery"),
            _drop_evict_r2,
        ),
        Mutation(
            "rotl-off-by-one",
            "batch _rotl_bytes_u64 rotates count+1 bytes",
            ("replay",),
            _rotl_off_by_one,
        ),
        Mutation(
            "lru-evicts-second-least-recent",
            "LRU kernel evicts the second-least-recent block at >= 3 ways",
            ("replay", "timing"),
            _lru_evicts_second_least_recent,
        ),
        Mutation(
            "batch-stamps-one-cycle-late",
            "batch engine's final dirty-cycle stamps are one cycle late",
            ("replay",),
            _late_dirty_stamps,
        ),
        Mutation(
            "fast-campaign-seed-skew",
            "fast campaign path uses trial+1's injection seed",
            ("campaign",),
            _fast_campaign_seed_skew,
        ),
        Mutation(
            "golden-touch-skips-hits",
            "golden suffix pass does not count hits as touches",
            ("campaign",),
            _golden_touch_skips_hits,
        ),
        Mutation(
            "golden-touch-skips-evictions",
            "golden suffix pass does not count evictions as touches",
            ("campaign",),
            _golden_touch_skips_evictions,
        ),
        Mutation(
            "flush-touch-skips-upper-levels",
            "golden pass records no touches during an upper level's drain",
            ("campaign",),
            _flush_touch_skips_upper_levels,
        ),
        Mutation(
            "fork-forgets-reached-sets",
            "a recycled fork is reset without the sets its last trial reached",
            ("campaign",),
            _fork_forgets_reached_sets,
        ),
        Mutation(
            "audit-zero-residue",
            "audit_payload records residue=0 for every pair",
            ("recovery",),
            _audit_zero_residue,
        ),
        Mutation(
            "scan-rotl-off-by-one",
            "recovery scan rotates each class's XOR count+1 bytes",
            ("recovery",),
            _scan_rotl_off_by_one,
        ),
        Mutation(
            "analytic-inflate",
            "analytical_collision_probability returns 8x the truth",
            ("doublefault",),
            _analytic_inflate,
        ),
        Mutation(
            "fast-timing-shadow-leak",
            "fast backlog resolver ignores the miss-shadow drain",
            ("timing",),
            _fast_timing_shadow_leak,
        ),
    )
}


def resolve_mutations(selector: str) -> List[Mutation]:
    """``"all"`` or a comma-separated list of mutation names."""
    if selector == "all":
        return list(MUTATIONS.values())
    chosen = []
    for name in selector.split(","):
        name = name.strip()
        if name not in MUTATIONS:
            raise ConfigurationError(
                f"unknown mutation {name!r}; known: "
                f"{', '.join(sorted(MUTATIONS))} (or 'all')"
            )
        chosen.append(MUTATIONS[name])
    return chosen


@contextlib.contextmanager
def active(mutation: Mutation) -> Iterator[None]:
    """Install ``mutation``'s patches for the duration of the block."""
    saved: List[Patch] = []
    for owner, attr, replacement in mutation.build():
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

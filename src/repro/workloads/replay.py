"""Trace replay: drive a memory hierarchy from a trace.

The replayer advances a logical cycle clock by each record's instruction
gap (one instruction per cycle, the bookkeeping basis for the Table 2
``Tavg`` metric) and can maintain a byte-granular golden memory image so
fault-injection campaigns can detect silent data corruption.

:class:`FastReplay` fronts the NumPy batch engine
(:mod:`repro.memsim.batch`): same single-cache semantics, orders of
magnitude faster, with an automatic equivalence mode that replays small
traces through the scalar :class:`~repro.memsim.cache.Cache` as well and
compares the two final states field for field
(:func:`replay_mismatches`), CPPC's R1^R2 invariant included.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional

from ..cppc.protection import CppcProtection
from ..errors import (
    SimulationError,
    check_equivalence_mode,
    cross_checks,
    raise_mismatches,
)
from ..memsim.batch import BatchReplayEngine, BatchReplayResult, BatchTrace
from ..memsim.cache import Cache
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.mainmem import MainMemory
from ..memsim.snapshot import (
    restore_cache,
    restore_memory,
    snapshot_cache,
    snapshot_memory,
)
from ..memsim.types import AccessType
from .trace import TraceRecord, materialize


class GoldenMemory:
    """Byte-granular reference image of what memory *should* contain."""

    def __init__(self):
        self._bytes: Dict[int, int] = {}

    def store(self, addr: int, data: bytes) -> None:
        """Record an architectural store."""
        self._bytes.update(zip(range(addr, addr + len(data)), data))

    def read(self, addr: int, size: int) -> bytes:
        """Expected bytes at ``addr`` (unwritten bytes read as zero)."""
        get = self._bytes.get
        return bytes([get(a, 0) for a in range(addr, addr + size)])

    def items(self):
        """Iterate ``(address, expected_byte)`` over every written byte."""
        return self._bytes.items()

    def snapshot(self) -> Dict[int, int]:
        """A copy of the full per-byte image (for campaign warm states)."""
        return dict(self._bytes)

    def restore(self, image: Dict[int, int]) -> None:
        """Replace the image with a previously captured snapshot."""
        self._bytes = dict(image)

    def update(self, image: Dict[int, int]) -> None:
        """Overwrite or add the bytes of ``image``, in its order: a
        captured run of stores, replayed at once."""
        self._bytes.update(image)

    def __len__(self) -> int:
        return len(self._bytes)


@dataclasses.dataclass
class ReplayResult:
    """Summary of one trace replay."""

    references: int = 0
    loads: int = 0
    stores: int = 0
    instructions: int = 0
    mismatches: int = 0
    detected_faults: int = 0

    @property
    def cycles(self) -> int:
        """Logical cycles elapsed (1 instruction per cycle basis)."""
        return self.instructions


class TraceReplayer:
    """Feeds trace records into a hierarchy, with optional golden checking."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        *,
        golden: Optional[GoldenMemory] = None,
        check_loads: bool = False,
        start_cycle: int = 0,
    ):
        if check_loads and golden is None:
            raise SimulationError("check_loads requires a golden memory")
        self.hierarchy = hierarchy
        self.golden = golden
        self.check_loads = check_loads
        self.cycle = start_cycle
        self.result = ReplayResult()

    def step(self, record: TraceRecord) -> bool:
        """Execute one record.  Returns True when a load mismatched golden."""
        self.cycle += record.instructions
        self.result.instructions += record.instructions
        self.result.references += 1
        mismatch = False
        if record.op is AccessType.STORE:
            self.result.stores += 1
            outcome = self.hierarchy.store(record.addr, record.value, cycle=self.cycle)
            if self.golden is not None:
                self.golden.store(record.addr, record.value)
        else:
            self.result.loads += 1
            outcome = self.hierarchy.load(record.addr, record.size, cycle=self.cycle)
            if self.check_loads:
                expected = self.golden.read(record.addr, record.size)
                if outcome.data != expected:
                    mismatch = True
                    self.result.mismatches += 1
        if outcome.detected_fault:
            self.result.detected_faults += 1
        return mismatch

    def run(self, records: Iterable[TraceRecord]) -> ReplayResult:
        """Execute every record; returns the accumulated summary."""
        for record in records:
            self.step(record)
        return self.result


def _field_mismatches(mine, theirs) -> List[str]:
    """One line per field in which two snapshots of one type differ: per
    key of a dict, per field of a nested snapshot, the first differing
    slot of a sequence."""
    problems: List[str] = []
    for field in dataclasses.fields(mine):
        name = field.name
        a, b = getattr(mine, name), getattr(theirs, name)
        if a == b:
            continue
        if isinstance(a, dict):
            problems += [
                f"{name}[{key!r}]: batch={a.get(key)!r} scalar={b.get(key)!r}"
                for key in sorted(a.keys() | b.keys())
                if a.get(key) != b.get(key)
            ]
        elif dataclasses.is_dataclass(a):
            problems += [f"{name}.{p}" for p in _field_mismatches(a, b)]
        elif isinstance(a, (bytes, list)) and len(a) == len(b):
            slots = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            i = slots[0]
            problems.append(
                f"{name}: {len(slots)} slots differ, first [{i}]: "
                f"batch={a[i]!r} scalar={b[i]!r}"
            )
        else:
            problems.append(f"{name}: batch={a!r} scalar={b!r}")
    return problems


def replay_mismatches(batch: BatchReplayResult, cache: Cache) -> List[str]:
    """How a batch replay differs from a scalar replay of the same trace.

    ``cache`` replayed the trace from empty over an empty
    :class:`~repro.memsim.mainmem.MainMemory`.  ``batch.cache`` is
    compared with :func:`~repro.memsim.snapshot.snapshot_cache` of it and
    ``batch.memory`` with :func:`~repro.memsim.snapshot.snapshot_memory`
    of its memory, field for field: lines, data, dirty bits, check words,
    dirty-cycle stamps, LRU orders, the clock, every
    :class:`~repro.memsim.stats.CacheStats` field, the CPPC registers,
    the written blocks and memory's counts.  Then CPPC's invariant: each
    pair's R1 ^ R2 in ``batch.cache`` must equal the XOR of the rotated
    dirty words ``cache`` holds.  Returns one line per difference, empty
    when the two agree.
    """
    problems = _field_mismatches(batch.cache, snapshot_cache(cache))
    problems += _field_mismatches(batch.memory, snapshot_memory(cache.next_level))
    for i, (r1, r2, _, _) in enumerate(batch.cache.protection["pairs"]):
        expected = cache.protection.dirty_xor_expected(i)
        if r1 ^ r2 != expected:
            problems.append(
                f"pair {i} R1^R2 {r1 ^ r2:#x} != XOR of rotated dirty words "
                f"{expected:#x}"
            )
    return problems


@dataclasses.dataclass
class FastReplayResult:
    """Outcome of one :class:`FastReplay` run.

    Attributes:
        replay: the scalar-compatible reference/cycle summary.
        cache: the engine's final cache over the memory it wrote back,
            restored into a scalar twin (:meth:`FastReplay.scalar_cache`).
        checked: whether the scalar cross-check ran (and passed — a
            failing check raises :class:`~repro.errors.EquivalenceError`).
    """

    replay: ReplayResult
    cache: Cache
    checked: bool

    @property
    def stats(self):
        """The batch run's :class:`~repro.memsim.stats.CacheStats`."""
        return self.cache.stats

    @property
    def registers(self):
        """The batch run's CPPC :class:`~repro.cppc.registers.RegisterFile`."""
        return self.cache.protection.registers


class FastReplay:
    """Batch-engine trace replay with automatic scalar cross-checking.

    Models one CPPC-protected write-back cache over main memory (the
    configuration :mod:`repro.memsim.batch` vectorizes).  Equivalence
    modes:

    * ``"auto"`` (default) — traces of at most
      :data:`~repro.errors.DEFAULT_EQUIVALENCE_LIMIT` references are
      *also* replayed through the scalar ``Cache`` and the
      results compared word-for-word; longer traces run batch-only.
    * ``"always"`` / ``"never"`` — force either behaviour.

    Args:
        size_bytes / ways / block_bytes: cache geometry.
        num_pairs / byte_shifting / num_classes: CPPC register
            configuration (as :class:`~repro.cppc.CppcProtection`).
        equivalence: cross-check mode.
        obs: optional :class:`repro.obs.TraceSink`; the engine emits
            per-chunk spans into it, and the run/cross-check phases get
            spans of their own.  Trace emission never feeds back into
            simulation state, so equivalence results are unchanged.
    """

    def __init__(
        self,
        size_bytes: int = 32 * 1024,
        ways: int = 2,
        block_bytes: int = 32,
        *,
        num_pairs: int = 1,
        byte_shifting: bool = True,
        num_classes: int = 8,
        equivalence: str = "auto",
        obs=None,
    ):
        check_equivalence_mode(equivalence)
        self.engine = BatchReplayEngine(
            size_bytes,
            ways,
            block_bytes,
            num_pairs=num_pairs,
            byte_shifting=byte_shifting,
            num_classes=num_classes,
        )
        self.engine.obs = obs
        self.obs = obs
        self.num_pairs = num_pairs
        self.byte_shifting = byte_shifting
        self.num_classes = num_classes
        self.equivalence = equivalence

    def scalar_cache(self) -> Cache:
        """A fresh scalar cache configured identically to the engine,
        and named as its snapshots are."""
        return Cache(
            "L1D",
            self.engine.size_bytes,
            self.engine.ways,
            self.engine.block_bytes,
            unit_bytes=self.engine.unit_bytes,
            protection=CppcProtection(
                data_bits=self.engine.unit_bytes * 8,
                num_pairs=self.num_pairs,
                byte_shifting=self.byte_shifting,
                num_classes=self.num_classes,
            ),
            next_level=MainMemory(block_bytes=self.engine.block_bytes),
        )

    def run(self, source) -> FastReplayResult:
        """Replay a trace; cross-check against the scalar cache when the
        equivalence mode says so.

        ``source`` may be an iterable of :class:`TraceRecord` or an
        already-packed :class:`~repro.memsim.batch.BatchTrace`.
        Cross-checking a ``BatchTrace`` decodes records back out of its
        columns (:meth:`~repro.memsim.batch.BatchTrace.to_records`), so
        the scalar twin replays word-for-word the same stream.
        """
        obs = self.obs if self.obs is not None and self.obs.enabled else None
        t0 = time.perf_counter() if obs is not None else 0.0
        if isinstance(source, BatchTrace):
            trace, records = source, None
        else:
            records = materialize(source)
            trace = BatchTrace.from_records(records)
        batch = self.engine.replay(trace)
        cache = restore_cache(batch.cache, self.scalar_cache())
        restore_memory(batch.memory, cache.next_level)
        stores = int(trace.is_store.sum())
        summary = ReplayResult(
            references=len(trace),
            loads=len(trace) - stores,
            stores=stores,
            instructions=trace.instructions,
        )
        check = cross_checks(self.equivalence, summary.references)
        if obs is not None:
            obs.span(
                "replay",
                "fast-replay",
                t0,
                time.perf_counter() - t0,
                {"references": summary.references, "checked": check},
            )
        if check:
            t0 = time.perf_counter() if obs is not None else 0.0
            if records is None:
                records = trace.to_records()
            problems = self._cross_check(records, batch)
            if obs is not None:
                obs.span(
                    "replay",
                    "cross-check",
                    t0,
                    time.perf_counter() - t0,
                    {"problems": len(problems)},
                )
            raise_mismatches("batch replay diverged from the scalar cache", problems)
        return FastReplayResult(replay=summary, cache=cache, checked=check)

    def _cross_check(self, records, batch) -> List[str]:
        """Scalar replay of the same records plus the full comparison."""
        cache = self.scalar_cache()
        TraceReplayer(cache).run(records)
        return replay_mismatches(batch, cache)

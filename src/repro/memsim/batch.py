"""NumPy-vectorized batch trace replay — the scalar ``Cache`` fast path.

The object-model :class:`~repro.memsim.cache.Cache` walks every access one
word at a time, which caps fault-injection campaigns and dirty-data sweeps
at toy trace sizes.  This module replays a *whole trace* through a
single-level write-back cache in bulk phases:

1. **Decompose** — the trace becomes structured arrays
   (:class:`BatchTrace`) and every address is split into tag / set / unit
   / byte-offset fields with vectorized shifts and masks, mirroring
   :class:`~repro.memsim.address.AddressMapper`.
2. **Resolve** — accesses are grouped by set (``np.argsort``) and each
   set's hit / miss / eviction / LRU sequence is resolved over flat array
   state, logging dirty-word movement as event streams instead of
   mutating Python objects.
3. **Accumulate** — CPPC's R1/R2 registers (including the byte rotation
   by ``row mod num_classes`` of :mod:`repro.cppc.shifting`), the
   dirty-occupancy integral, and the Tavg interval histogram are reduced
   from the event streams with ``np.bitwise_xor.reduce`` / ``np.cumsum``
   / ``np.bincount``.

The engine reproduces the scalar semantics *exactly* — same hit/miss
stream, same statistics (including the Table 2 dirty-data metrics), same
final data, dirty bits and check words, and bit-identical R1/R2 register
contents — which :func:`cross_check_scalar` verifies word-for-word
against a real :class:`~repro.memsim.cache.Cache`.

Scope: fault-free replay of 64-bit-unit caches (the paper's L1 shape)
under LRU with write-allocate.  Fault injection, wider units and other
policies stay on the scalar path; :class:`repro.workloads.replay.FastReplay`
enforces the boundary.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cppc.registers import RegisterFile
from ..errors import AlignmentError, ConfigurationError, TraceFormatError
from ..util import WORD_BYTES, parity
from .address import AddressMapper
from .stats import CacheStats
from .types import AccessType

#: Power-of-two boundaries used to bucket Tavg intervals exactly
#: (``searchsorted`` beats float ``log2`` because it cannot misround).
_POW2 = np.array([1 << b for b in range(63)], dtype=np.int64)

#: All-ones byte masks indexed by access size (0..8 bytes).
_SIZE_MASKS = np.array(
    [(1 << (8 * s)) - 1 for s in range(WORD_BYTES + 1)], dtype=np.uint64
)


def _fold_check_words(values: np.ndarray) -> np.ndarray:
    """8-way interleaved parity of 64-bit words, vectorized.

    Folding the eight bytes of a word with XOR leaves parity group ``i``
    (MSB-first bit ``i`` of every byte) in check-bit position ``i`` —
    exactly :meth:`repro.coding.InterleavedParity.encode` for the
    ``data_bits=64, ways=8`` configuration.
    """
    v = values.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(32)
    v ^= v >> np.uint64(16)
    v ^= v >> np.uint64(8)
    return v & np.uint64(0xFF)


def _rotl_bytes_u64(values: np.ndarray, count: int) -> np.ndarray:
    """Rotate 64-bit words left by ``count`` bytes (vectorized)."""
    count %= 8
    if count == 0:
        return values
    shift = np.uint64(8 * count)
    inv = np.uint64(64 - 8 * count)
    return (values << shift) | (values >> inv)


@dataclasses.dataclass(frozen=True)
class BatchTrace:
    """A memory trace as structured arrays (one row per reference).

    Attributes:
        addr: byte addresses (``int64``).
        size: access sizes in bytes (``int64``, powers of two ≤ 8).
        is_store: store flags (``bool``).
        gap: non-memory instruction gaps (``int64``).
        value_word: store bytes positioned inside their 64-bit unit
            (``uint64``, zero for loads).
        value_mask: byte mask of the store inside its unit (``uint64``).
    """

    addr: np.ndarray
    size: np.ndarray
    is_store: np.ndarray
    gap: np.ndarray
    value_word: np.ndarray
    value_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.addr)

    @property
    def instructions(self) -> int:
        """Instructions the trace accounts for (gaps plus references)."""
        return int(self.gap.sum()) + len(self)

    @classmethod
    def from_records(cls, records: Iterable) -> "BatchTrace":
        """Pack :class:`~repro.workloads.trace.TraceRecord` objects.

        Every access must stay inside one 64-bit unit (size a power of
        two ≤ 8, naturally aligned) — the precondition of the batch
        engine's single-unit access path.  Store bytes are positioned
        inside their unit with vectorized shifts; only the raw field
        extraction walks the record objects.
        """
        records = list(records)
        n = len(records)
        store_op = AccessType.STORE
        is_store = np.fromiter(
            (r.op is store_op for r in records),
            dtype=bool,
            count=n,
        )
        addr = np.fromiter((r.addr for r in records), dtype=np.int64, count=n)
        size = np.fromiter((r.size for r in records), dtype=np.int64, count=n)
        gap = np.fromiter((r.gap for r in records), dtype=np.int64, count=n)
        raw = np.fromiter(
            (int.from_bytes(r.value, "big") for r in records),
            dtype=np.uint64,
            count=n,
        )
        return cls.from_columns(addr, size, is_store, gap, raw)

    @classmethod
    def from_columns(
        cls,
        addr: np.ndarray,
        size: np.ndarray,
        is_store: np.ndarray,
        gap: np.ndarray,
        raw: np.ndarray,
    ) -> "BatchTrace":
        """Build a trace straight from column arrays (no record objects).

        ``raw`` carries each store's value bytes as a right-aligned
        big-endian integer (zero for loads); :meth:`from_records` packs
        through here.  Input arrays of the right dtype are adopted
        without copying.  Besides :meth:`validate`'s checks, a load
        with a value or a store value wider than its size raises
        :class:`~repro.errors.TraceFormatError`.
        """
        addr = np.asarray(addr, dtype=np.int64)
        size = np.asarray(size, dtype=np.int64)
        is_store = np.asarray(is_store, dtype=bool)
        gap = np.asarray(gap, dtype=np.int64)
        raw = np.asarray(raw, dtype=np.uint64)
        n = len(addr)
        trace = cls(
            addr=addr,
            size=size,
            is_store=is_store,
            gap=gap,
            value_word=np.zeros(n, dtype=np.uint64),
            value_mask=np.zeros(n, dtype=np.uint64),
        )
        trace.validate()
        if bool(np.any(raw[~is_store])):
            raise TraceFormatError("load records carry no value")
        if bool(np.any(raw & ~_SIZE_MASKS[size])):
            raise TraceFormatError("store value is wider than its access size")
        # A store of `size` bytes lands at byte offset `addr mod 8` of its
        # big-endian unit: left-shift the value and an all-ones byte mask
        # into position, in bulk.
        shift = (8 * (WORD_BYTES - (addr & 7) - size)).astype(np.uint64)
        trace.value_word[:] = raw << shift
        np.copyto(
            trace.value_mask,
            _SIZE_MASKS[size] << shift,
            where=is_store,
        )
        return trace

    def slice(self, start: int, stop: int) -> "BatchTrace":
        """A zero-copy view of rows ``[start:stop)``."""
        return BatchTrace(
            addr=self.addr[start:stop],
            size=self.size[start:stop],
            is_store=self.is_store[start:stop],
            gap=self.gap[start:stop],
            value_word=self.value_word[start:stop],
            value_mask=self.value_mask[start:stop],
        )

    def to_records(self) -> List:
        """The exact :class:`~repro.workloads.trace.TraceRecord` list.

        Inverse of :meth:`from_records`: store values are recovered by
        shifting each positioned unit word back down to its raw bytes,
        so ``BatchTrace.from_records(t.to_records())`` is bit-identical
        to ``t``.  The columns pass :meth:`validate` first, which covers
        every check of ``TraceRecord.__post_init__`` (a store's value
        has its size in bytes by construction), so each record's fields
        are set as the dataclass's ``__init__`` sets them, without
        running those checks again per record.
        """
        from ..workloads.trace import TraceRecord

        self.validate()
        shift = (8 * (WORD_BYTES - (self.addr & 7) - self.size)).astype(
            np.uint64
        )
        new = object.__new__
        put = object.__setattr__
        load, store = AccessType.LOAD, AccessType.STORE
        records = []
        append = records.append
        for a, s, st, g, v in zip(
            self.addr.tolist(),
            self.size.tolist(),
            self.is_store.tolist(),
            self.gap.tolist(),
            (self.value_word >> shift).tolist(),
        ):
            record = new(TraceRecord)
            put(record, "op", store if st else load)
            put(record, "addr", a)
            put(record, "size", s)
            put(record, "gap", g)
            put(record, "value", v.to_bytes(s, "big") if st else b"")
            append(record)
        return records

    def validate(self) -> None:
        """Bulk-check the single-unit access preconditions and the
        gaps."""
        if len(self) and int(self.addr.min()) < 0:
            raise TraceFormatError("batch trace addresses must be non-negative")
        if len(self) and int(self.gap.min()) < 0:
            raise TraceFormatError("record gap must be non-negative")
        sizes = self.size
        if len(self) and (
            int(sizes.min()) < 1
            or int(sizes.max()) > WORD_BYTES
            or bool(np.any(sizes & (sizes - 1)))
        ):
            raise AlignmentError(
                "batch replay needs power-of-two access sizes of at most "
                f"{WORD_BYTES} bytes"
            )
        if len(self) and bool(np.any(self.addr % sizes)):
            raise AlignmentError("batch replay needs naturally aligned accesses")


class ReplayCapture:
    """Side-channel record of everything :class:`BatchReplayResult` omits.

    A campaign warm-up replayed through the batch engine must afterwards
    be *rehydrated* into a full scalar hierarchy (see
    :mod:`repro.faults.warmstate`).  The result bundle carries final L1
    lines, stats and registers, but not the next-level traffic (needed to
    warm the L2 behind it), the per-unit ``Tavg`` timestamps, or the
    final LRU orders.  Passing a capture to :meth:`BatchReplayEngine.replay`
    collects them:

    Attributes:
        events: next-level block traffic, one tuple per miss read /
            dirty write-back — ``(access_index, kind, mem_slot, cycle,
            block_words)`` with ``kind`` 0 for a read (``block_words``
            None) and 1 for a write.  Sorted into global access order
            (stable, so a miss's read precedes its victim's write-back,
            exactly the scalar ``Cache`` order).
        lru: final MRU-to-LRU way order per touched set.
        line_last: final last-dirty cycle of every unit, flat —
            unit ``u`` of (set, way) at ``(set * ways + way) *
            units_per_block + u`` (None where no dirty stamp is live).
        slot_addr: byte address of each memory-image slot.
        final_cycle: cycle of the last access (0 for an empty trace).
        dirty_stores: access indices of stores that hit an already-dirty
            unit (sorted) — the per-access view of the
            ``stores_to_dirty`` counter, which the timing fast path
            turns into ``AccessEvent.was_dirty``.
    """

    def __init__(self):
        self.events: List[tuple] = []
        self.lru: Dict[int, List[int]] = {}
        self.line_last: Optional[list] = None
        self.slot_addr: Optional[List[int]] = None
        self.final_cycle: int = 0
        self.dirty_stores: List[int] = []


@dataclasses.dataclass(frozen=True)
class LineState:
    """Final contents of one cache line after a batch replay."""

    tag: int
    data: bytes
    dirty: Tuple[bool, ...]
    check: Tuple[int, ...]


@dataclasses.dataclass
class BatchReplayResult:
    """Everything a batch replay produced.

    ``stats`` and ``registers`` are the *same types* the scalar simulator
    uses (:class:`~repro.memsim.stats.CacheStats`,
    :class:`~repro.cppc.registers.RegisterFile`), populated to be
    field-for-field comparable.
    """

    references: int
    loads: int
    stores: int
    instructions: int
    stats: CacheStats
    registers: RegisterFile
    lines: Dict[Tuple[int, int], LineState]
    memory: Dict[int, bytes]
    memory_reads: int
    memory_writes: int

    @property
    def dirty_xor(self) -> Dict[int, int]:
        """R1 ^ R2 per register pair (the recovery invariant)."""
        return {i: p.dirty_xor for i, p in enumerate(self.registers.pairs)}


class BatchReplayEngine:
    """Vectorized single-level cache replay with CPPC register tracking.

    Mirrors a :class:`~repro.memsim.cache.Cache` built with
    ``unit_bytes=8``, LRU replacement, write-back / write-allocate, a
    :class:`~repro.cppc.CppcProtection` scheme and a
    :class:`~repro.memsim.mainmem.MainMemory` next level.

    Args:
        size_bytes: total data capacity.
        ways: associativity.
        block_bytes: line size.
        num_pairs: CPPC (R1, R2) register pairs (1, 2, 4 or 8).
        byte_shifting: rotate values by their row's class before XORing.
        num_classes: rotation classes (``row mod num_classes``).
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        block_bytes: int,
        *,
        unit_bytes: int = 8,
        num_pairs: int = 1,
        byte_shifting: bool = True,
        num_classes: int = 8,
    ):
        if unit_bytes != WORD_BYTES:
            raise ConfigurationError(
                "the batch engine replays 64-bit protection units only "
                f"(unit_bytes=8); got {unit_bytes}",
                reason="unit_bytes",
            )
        if size_bytes % (ways * block_bytes):
            raise ConfigurationError(
                f"size {size_bytes} not divisible by ways*block "
                f"({ways}*{block_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.unit_bytes = unit_bytes
        self.num_sets = size_bytes // (ways * block_bytes)
        self.mapper = AddressMapper(
            block_bytes=block_bytes, num_sets=self.num_sets, unit_bytes=unit_bytes
        )
        self.units_per_block = self.mapper.units_per_block
        self.num_pairs = num_pairs
        self.byte_shifting = byte_shifting
        self.num_classes = num_classes
        # Validates the pair/class geometry exactly like CppcProtection.
        RegisterFile(64, num_pairs=num_pairs, num_classes=num_classes)
        #: Optional :class:`repro.obs.TraceSink`.  When absent or
        #: disabled, :meth:`replay` runs the single-chunk uninstrumented
        #: path — no timing calls, no extra per-set work.
        self.obs = None

    #: Set-range chunks per replay when a sink is attached (each chunk
    #: becomes one span in the trace).
    OBS_CHUNKS = 8

    # ------------------------------------------------------------------
    # Phase 1 — bulk address decomposition
    # ------------------------------------------------------------------
    def decompose(
        self, trace: BatchTrace
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split every address into (set, tag, unit, rotation class)."""
        block_shift = self.block_bytes.bit_length() - 1
        set_bits = self.num_sets.bit_length() - 1
        blocks = trace.addr >> block_shift
        set_idx = blocks & (self.num_sets - 1)
        tags = blocks >> set_bits
        units = (trace.addr & (self.block_bytes - 1)) >> 3
        classes = (set_idx * self.units_per_block + units) % self.num_classes
        return set_idx, tags, units, classes

    # ------------------------------------------------------------------
    # Phases 2+3 — per-set resolution and bulk reduction
    # ------------------------------------------------------------------
    def replay(
        self,
        trace: BatchTrace,
        capture: Optional[ReplayCapture] = None,
    ) -> BatchReplayResult:
        """Replay ``trace`` and return the full result bundle.

        With a :class:`ReplayCapture`, the next-level traffic and final
        microarchitectural details needed to rebuild a scalar hierarchy
        are recorded as a side effect (simulation outcomes unchanged).
        """
        state = _ReplayState(self, capture)
        self._feed(state, trace)
        return self._finish(state)

    # ------------------------------------------------------------------
    # Incremental streaming API
    # ------------------------------------------------------------------
    def begin(self, capture: Optional[ReplayCapture] = None) -> "_ReplayState":
        """Open a persistent replay: feed chunks, then :meth:`finish`.

        Cache, register and statistics state persist across chunk
        boundaries, so feeding a trace in pieces is bit-identical to one
        :meth:`replay` of the whole.  The caller holds the state between
        chunks and may observe it mid-stream (via
        :meth:`_ReplayState.checkpoint`) — how the timing fast path
        splits one replay into a warmup and a measured window without
        replaying anything twice.
        """
        return _ReplayState(self, capture)

    def feed(self, state: "_ReplayState", trace: BatchTrace) -> None:
        """Advance an open replay by one :class:`BatchTrace` chunk."""
        self._feed(state, trace)

    def finish(self, state: "_ReplayState") -> BatchReplayResult:
        """Close an open replay and fold it into the result bundle."""
        return self._finish(state)

    def close(self, state: "_ReplayState") -> None:
        """Seal an open replay's capture without building a result.

        The timing fast path reads its statistics from checkpoints and
        only needs the capture finalized; skipping the line/register/
        memory snapshots :meth:`finish` performs removes the dominant
        fixed cost at that call site.
        """
        self._seal_capture(state)

    def _feed(self, state: "_ReplayState", trace: BatchTrace) -> None:
        """Resolve one chunk of accesses against the persistent state."""
        trace.validate()
        n = len(trace)
        if n == 0:
            return
        obs = self.obs if self.obs is not None and self.obs.enabled else None
        t_phase = time.perf_counter() if obs is not None else 0.0
        offset = state.references
        set_idx, tags, units, classes = self.decompose(trace)
        cycles = state.last_cycle + np.cumsum(trace.gap + 1)
        # Every block the chunk can touch, mapped to a persistent dense
        # memory-image slot so the replay loop never hashes an address.
        block_addrs = trace.addr >> (self.block_bytes.bit_length() - 1)
        unique_blocks, inverse = np.unique(block_addrs, return_inverse=True)
        block_slot = state.block_slot
        slot_blocks = state.slot_blocks
        blocks = unique_blocks.tolist()
        for block in blocks:
            if block not in block_slot:
                block_slot[block] = len(slot_blocks)
                slot_blocks.append(block)
        grow = self.units_per_block * len(slot_blocks) - len(state.memimg)
        state.memimg.extend([0] * grow)
        lookup = [block_slot[block] for block in blocks]
        mem_slot = np.array(lookup, dtype=np.int64)[inverse]

        r1_vals: List[int] = []
        r1_cls: List[int] = []
        r2_vals: List[int] = []
        r2_cls: List[int] = []
        intervals: List[int] = []
        delta_idx: List[int] = []
        delta_val: List[int] = []

        order = np.argsort(set_idx, kind="stable")
        bounds = np.searchsorted(set_idx[order], np.arange(self.num_sets + 1)).tolist()
        # Every column in set order once, so each set below takes plain
        # slices (views) instead of gathering its own rows.
        columns = (
            order + offset,
            tags[order],
            units[order],
            classes[order],
            trace.is_store[order],
            cycles[order],
            mem_slot[order],
            trace.value_word[order],
            trace.value_mask[order],
        )
        del tags, units, classes, mem_slot  # only the set-ordered copies live on
        lines = (
            state.line_tag,
            state.line_data,
            state.line_dirty,
            state.line_last,
            state.line_slot,
            state.line_ndirty,
            state.lru,
        )
        if obs is None:
            # Uninstrumented path: one span, zero timing calls.
            set_ranges = [(0, self.num_sets)]
        else:
            obs.span(
                "batch",
                "decompose",
                t_phase,
                time.perf_counter() - t_phase,
                {"references": n, "offset": offset},
            )
            step = -(-self.num_sets // self.OBS_CHUNKS)
            set_ranges = [
                (c0, min(c0 + step, self.num_sets))
                for c0 in range(0, self.num_sets, step)
            ]
        for c0, c1 in set_ranges:
            t_chunk = time.perf_counter() if obs is not None else 0.0
            for s in range(c0, c1):
                lo, hi = bounds[s], bounds[s + 1]
                if lo == hi:
                    continue
                state.touched.add(s)
                self._replay_set(
                    s,
                    *[column[lo:hi].tolist() for column in columns],
                    state.memimg,
                    lines,
                    state.counters,
                    r1_vals,
                    r1_cls,
                    r2_vals,
                    r2_cls,
                    intervals,
                    delta_idx,
                    delta_val,
                    capture=state.capture,
                )
            if obs is not None:
                obs.span(
                    "batch",
                    f"resolve-sets[{c0}:{c1}]",
                    t_chunk,
                    time.perf_counter() - t_chunk,
                    {
                        "sets": c1 - c0,
                        "references": int(bounds[c1] - bounds[c0]),
                    },
                )

        t_phase = time.perf_counter() if obs is not None else 0.0
        # Dirty-occupancy integral: the count in force over the interval
        # ending at access i is the cumulative delta through access i-1
        # (the scalar cache integrates *before* applying an access's
        # dirty-bit changes).  The per-chunk increment telescopes to the
        # one-shot reduction exactly because both are integer sums.
        deltas = np.zeros(n, dtype=np.int64)
        if delta_idx:
            np.add.at(
                deltas,
                np.array(delta_idx, dtype=np.int64) - offset,
                np.array(delta_val, dtype=np.int64),
            )
        counts = state.dirty_count + np.cumsum(deltas)
        prev_counts = np.concatenate(([state.dirty_count], counts[:-1]))
        spans = np.diff(np.concatenate(([state.last_cycle], cycles)))
        state.integral += int(np.dot(spans, prev_counts))
        state.dirty_count = int(counts[-1])
        state.last_cycle = int(cycles[-1])
        if intervals:
            arr = np.array(intervals, dtype=np.int64)
            state.interval_sum += int(arr.sum())
            state.interval_count += len(arr)
            buckets = np.maximum(
                np.searchsorted(_POW2, arr, side="right") - 1, 0
            )
            hist = state.interval_hist
            for b, count in enumerate(np.bincount(buckets)):
                if count:
                    hist[int(b)] = hist.get(int(b), 0) + int(count)
        self._fold_stream(state.r1_acc, r1_vals, r1_cls)
        self._fold_stream(state.r2_acc, r2_vals, r2_cls)
        state.references += n
        state.stores += int(trace.is_store.sum())
        state.instructions += int(trace.gap.sum()) + n
        if obs is not None:
            obs.span(
                "batch",
                "accumulate",
                t_phase,
                time.perf_counter() - t_phase,
                {"references": n},
            )

    def _seal_capture(self, state: "_ReplayState") -> None:
        """Finalize the capture attached to an open replay, if any."""
        capture = state.capture
        bb = self.block_bytes
        if capture is not None:
            # Stable sort: within one access the miss read was appended
            # before the victim write-back, matching the scalar order.
            capture.events.sort(key=lambda e: e[0])
            capture.dirty_stores.sort()
            capture.line_last = state.line_last
            capture.slot_addr = [int(b) * bb for b in state.slot_blocks]
            capture.final_cycle = state.last_cycle
            ways = self.ways
            for s in sorted(state.touched):
                base = s * ways
                capture.lru[s] = [ln - base for ln in state.lru[base : base + ways]]

    def _finish(self, state: "_ReplayState") -> BatchReplayResult:
        """Fold the accumulated state into the result bundle."""
        self._seal_capture(state)
        bb = self.block_bytes
        capture = state.capture
        stats = CacheStats()
        stats.configure(self.num_sets * self.ways * self.units_per_block)
        c = state.counters
        stats.read_hits = c.read_hits
        stats.read_misses = c.read_misses
        stats.write_hits = c.write_hits
        stats.write_misses = c.write_misses
        stats.fills = c.fills
        stats.writebacks = c.writebacks
        stats.evictions_clean = c.evictions_clean
        stats.evictions_dirty = c.evictions_dirty
        stats.read_before_writes = c.read_before_writes
        stats.stores_to_dirty_units = c.stores_to_dirty
        if state.references:
            stats.dirty_time_integral = float(state.integral)
            stats.observed_cycles = float(state.last_cycle)
            stats._last_event_cycle = float(state.last_cycle)
            stats._current_dirty_units = state.dirty_count
        if state.interval_count:
            stats.dirty_interval_sum = float(state.interval_sum)
            stats.dirty_interval_count = state.interval_count
            stats.dirty_interval_histogram = dict(
                sorted(state.interval_hist.items())
            )
        registers = RegisterFile(
            64, num_pairs=self.num_pairs, num_classes=self.num_classes
        )
        classes_per_pair = self.num_classes // self.num_pairs
        for pair_index, pair in enumerate(registers.pairs):
            for rotation_class in range(
                pair_index * classes_per_pair,
                (pair_index + 1) * classes_per_pair,
            ):
                pair.r1 ^= state.r1_acc[rotation_class]
                pair.r2 ^= state.r2_acc[rotation_class]
            # Incremental event parity telescopes to the parity of the
            # final register value (popcount is linear over XOR mod 2).
            pair.r1_parity = parity(pair.r1)
            pair.r2_parity = parity(pair.r2)
        lines = self._snapshot_lines(
            state.line_tag, state.line_data, state.line_dirty
        )
        if state.memimg:
            raw = np.array(state.memimg, dtype=np.uint64).astype(">u8").tobytes()
        else:
            raw = b""
        memory = {
            int(block) * bb: raw[slot * bb : (slot + 1) * bb]
            for slot, block in enumerate(state.slot_blocks)
        }
        return BatchReplayResult(
            references=state.references,
            loads=state.references - state.stores,
            stores=state.stores,
            instructions=state.instructions,
            stats=stats,
            registers=registers,
            lines=lines,
            memory=memory,
            memory_reads=c.mem_reads,
            memory_writes=c.mem_writes,
        )

    def _fold_stream(
        self,
        acc: List[int],
        values: List[int],
        stream_classes: List[int],
    ) -> None:
        """XOR one chunk's rotated value stream into the per-class accs."""
        if not values:
            return
        vals = np.array(values, dtype=np.uint64)
        cls = np.array(stream_classes, dtype=np.int64)
        for rotation_class in range(self.num_classes):
            selected = vals[cls == rotation_class]
            if not len(selected):
                continue
            if self.byte_shifting:
                selected = _rotl_bytes_u64(selected, rotation_class)
            acc[rotation_class] ^= int(np.bitwise_xor.reduce(selected))

    # ------------------------------------------------------------------
    def _replay_set(
        self,
        s: int,
        idxs: List[int],
        tags: List[int],
        units: List[int],
        classes: List[int],
        is_store: List[bool],
        cycles: List[int],
        slots: List[int],
        words: List[int],
        masks: List[int],
        memimg: List[int],
        lines,
        c: "_Counters",
        r1_vals: List[int],
        r1_cls: List[int],
        r2_vals: List[int],
        r2_cls: List[int],
        intervals: List[int],
        delta_idx: List[int],
        delta_val: List[int],
        capture: Optional[ReplayCapture] = None,
    ) -> None:
        """Resolve one set's access sequence over flat list state.

        Sets are independent subproblems — a block address maps to
        exactly one set, so cache *and* memory-image state touched here
        is disjoint from every other set's.  The per-access work is a
        handful of integer operations; everything reducible is deferred
        to the bulk phases.  ``lines`` (including the LRU order) is the
        caller's flat :class:`_ReplayState` storage, so consecutive
        chunks of one streamed trace resume exactly where the previous
        chunk stopped.
        """
        ltag, ldata, ldirty, llast, lslot, lndirty, lru = lines
        ways = self.ways
        base = s * ways
        lru_tail = base + ways - 1
        line_range = range(base, base + ways)
        upb = self.units_per_block
        clean = [False] * upb
        unstamped = [None] * upb
        num_classes = self.num_classes
        cls_base = (s * upb) % num_classes
        r1v = r1_vals.append
        r1c = r1_cls.append
        r2v = r2_vals.append
        r2c = r2_cls.append
        iva = intervals.append
        dia = delta_idx.append
        dva = delta_val.append
        ev = capture.events.append if capture is not None else None
        dsa = capture.dirty_stores.append if capture is not None else None

        for i, t, u, cls_i, st, now, slot, word, msk in zip(
            idxs, tags, units, classes, is_store, cycles, slots, words, masks
        ):
            # Tag match across the ways (scalar Cache._find order).
            w = -1
            for cand in line_range:
                if ltag[cand] == t:
                    w = cand
                    break
            if w >= 0:
                if st:
                    c.write_hits += 1
                else:
                    c.read_hits += 1
            else:
                if st:
                    c.write_misses += 1
                else:
                    c.read_misses += 1
                c.mem_reads += 1
                if ev is not None:
                    ev((i, 0, slot, now, None))
                # Victim: first invalid way, else LRU tail.
                v = -1
                for cand in line_range:
                    if ltag[cand] == -1:
                        v = cand
                        break
                if v < 0:
                    v = lru[lru_tail]
                    nd = lndirty[v]
                    if nd:
                        d0 = v * upb
                        victim_data = ldata[d0 : d0 + upb]
                        for uu in range(upb):
                            if ldirty[d0 + uu]:
                                r2v(victim_data[uu])
                                r2c((cls_base + uu) % num_classes)
                        m0 = lslot[v] * upb
                        memimg[m0 : m0 + upb] = victim_data
                        if ev is not None:
                            ev((i, 1, lslot[v], now, victim_data))
                        c.mem_writes += 1
                        c.writebacks += 1
                        c.evictions_dirty += 1
                        dia(i)
                        dva(-nd)
                    else:
                        c.evictions_clean += 1
                ltag[v] = t
                d0 = v * upb
                m0 = slot * upb
                ldata[d0 : d0 + upb] = memimg[m0 : m0 + upb]
                ldirty[d0 : d0 + upb] = clean
                llast[d0 : d0 + upb] = unstamped
                lslot[v] = slot
                lndirty[v] = 0
                c.fills += 1
                w = v
            ui = w * upb + u
            was_dirty = ldirty[ui]
            if st:
                old = ldata[ui]
                if was_dirty:
                    c.stores_to_dirty += 1
                    c.read_before_writes += 1
                    if dsa is not None:
                        dsa(i)
                    r2v(old)
                    r2c(cls_i)
                new = (old & ~msk) | word
                r1v(new)
                r1c(cls_i)
                ldata[ui] = new
                if not was_dirty:
                    ldirty[ui] = True
                    lndirty[w] += 1
                    dia(i)
                    dva(1)
                last = llast[ui]
                if last is not None:
                    iva(now - last)
                llast[ui] = now
            elif was_dirty:
                iva(now - llast[ui])
                llast[ui] = now
            if lru[base] != w:
                pos = lru.index(w, base)
                while pos > base:
                    lru[pos] = lru[pos - 1]
                    pos -= 1
                lru[base] = w

    def _snapshot_lines(
        self, line_tag, line_data, line_dirty
    ) -> Dict[Tuple[int, int], LineState]:
        """Final per-line state with check words re-encoded in bulk."""
        lines: Dict[Tuple[int, int], LineState] = {}
        upb = self.units_per_block
        for line, tag in enumerate(line_tag):
            if tag == -1:
                continue
            d0 = line * upb
            values = np.array(line_data[d0 : d0 + upb], dtype=np.uint64)
            # Fault-free replay of a linear code: the check word of
            # every unit equals a fresh encode of its value.
            checks = _fold_check_words(values)
            lines[divmod(line, self.ways)] = LineState(
                tag=tag,
                data=values.astype(">u8").tobytes(),
                dirty=tuple(line_dirty[d0 : d0 + upb]),
                check=tuple(int(x) for x in checks),
            )
        return lines


class _Counters:
    """Scalar event counters accumulated by the replay loop."""

    __slots__ = (
        "read_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "fills",
        "writebacks",
        "evictions_clean",
        "evictions_dirty",
        "read_before_writes",
        "stores_to_dirty",
        "mem_reads",
        "mem_writes",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class _ReplayState:
    """Cache state and reduction accumulators carried across chunks.

    One instance spans one logical trace; :meth:`BatchReplayEngine._feed`
    advances it by a chunk at a time and
    :meth:`BatchReplayEngine._finish` folds it into a
    :class:`BatchReplayResult`.  Everything whose size would otherwise
    grow with the *trace* (event streams, interval lists, delta lists)
    is reduced per chunk, so peak memory is one chunk of columns plus
    the cache-sized state.
    """

    __slots__ = (
        "capture",
        "counters",
        "line_tag",
        "line_data",
        "line_dirty",
        "line_last",
        "line_slot",
        "line_ndirty",
        "lru",
        "touched",
        "block_slot",
        "slot_blocks",
        "memimg",
        "references",
        "stores",
        "instructions",
        "last_cycle",
        "integral",
        "dirty_count",
        "interval_sum",
        "interval_count",
        "interval_hist",
        "r1_acc",
        "r2_acc",
    )

    def __init__(self, engine: BatchReplayEngine, capture):
        num_sets, ways = engine.num_sets, engine.ways
        lines = num_sets * ways
        units = lines * engine.units_per_block
        self.capture = capture
        self.counters = _Counters()
        # Flat line state laid out like the scalar Cache's: line
        # ``set * ways + way`` (tag -1 while never filled), unit
        # ``line * units_per_block + unit``; each set's lines in
        # MRU-to-LRU order at ``lru[set * ways : (set + 1) * ways]``.
        self.line_tag = [-1] * lines
        self.line_data = [0] * units
        self.line_dirty = [False] * units
        self.line_last = [None] * units
        self.line_slot = [-1] * lines
        self.line_ndirty = [0] * lines
        self.lru = list(range(lines))
        self.touched = set()
        # Dense memory image, grown as new blocks appear: block slot
        # ``k`` holds its words at ``memimg[k * units_per_block:]``.
        self.block_slot = {}
        self.slot_blocks = []
        self.memimg = []
        # Reduction carries.
        self.references = 0
        self.stores = 0
        self.instructions = 0
        self.last_cycle = 0
        self.integral = 0
        self.dirty_count = 0
        self.interval_sum = 0
        self.interval_count = 0
        self.interval_hist = {}
        self.r1_acc = [0] * engine.num_classes
        self.r2_acc = [0] * engine.num_classes

    def checkpoint(self) -> dict:
        """Copy of the reduction accumulators at the current position.

        Two checkpoints bracket a window of the replay: subtracting
        them yields that window's counters, dirty-occupancy integral and
        interval sums — exactly what a scalar ``reset_stats`` at the
        window boundary would have measured, because the integral
        restarts from the live dirty count and every per-unit
        ``last_dirty_access`` survives the boundary in both models.
        """
        c = self.counters
        return {
            "counters": {name: getattr(c, name) for name in _Counters.__slots__},
            "references": self.references,
            "stores": self.stores,
            "instructions": self.instructions,
            "last_cycle": self.last_cycle,
            "integral": self.integral,
            "dirty_count": self.dirty_count,
            "interval_sum": self.interval_sum,
            "interval_count": self.interval_count,
            "interval_hist": dict(self.interval_hist),
        }


# ----------------------------------------------------------------------
# Equivalence cross-check against the scalar object model
# ----------------------------------------------------------------------
def snapshot_scalar_cache(cache) -> Dict[Tuple[int, int], LineState]:
    """The scalar :class:`Cache`'s lines in :class:`LineState` form."""
    lines: Dict[Tuple[int, int], LineState] = {}
    for s, w in cache.resident_lines():
        ln = cache.line(s, w)
        lines[(s, w)] = LineState(
            tag=ln.tag,
            data=ln.data,
            dirty=tuple(ln.dirty),
            check=tuple(ln.check),
        )
    return lines


def cross_check_scalar(result: BatchReplayResult, cache, memory) -> List[str]:
    """Compare a batch result against a scalar replay of the same trace.

    Returns a list of human-readable mismatch descriptions (empty when
    the two engines agree on cache contents, dirty bits, check words,
    statistics, memory image and register state).
    """
    problems: List[str] = []
    scalar_lines = snapshot_scalar_cache(cache)
    for key in sorted(set(scalar_lines) | set(result.lines)):
        mine = result.lines.get(key)
        theirs = scalar_lines.get(key)
        if mine != theirs:
            problems.append(f"line {key}: batch={mine!r} scalar={theirs!r}")
    batch_stats = result.stats.snapshot()
    scalar_stats = cache.stats.snapshot()
    for name in sorted(set(batch_stats) | set(scalar_stats)):
        if batch_stats.get(name) != scalar_stats.get(name):
            problems.append(
                f"stats[{name}]: batch={batch_stats.get(name)!r} "
                f"scalar={scalar_stats.get(name)!r}"
            )
    if result.stats.dirty_interval_histogram != cache.stats.dirty_interval_histogram:
        problems.append(
            f"interval histogram: batch={result.stats.dirty_interval_histogram!r} "
            f"scalar={cache.stats.dirty_interval_histogram!r}"
        )
    protection = cache.protection
    scalar_registers = getattr(protection, "registers", None)
    if scalar_registers is not None:
        for i, (mine, theirs) in enumerate(
            zip(result.registers.pairs, scalar_registers.pairs)
        ):
            for field in ("r1", "r2", "r1_parity", "r2_parity"):
                if getattr(mine, field) != getattr(theirs, field):
                    problems.append(
                        f"pair {i} {field}: batch={getattr(mine, field):#x} "
                        f"scalar={getattr(theirs, field):#x}"
                    )
            expected = protection.dirty_xor_expected(i)
            if mine.dirty_xor != expected:
                problems.append(
                    f"pair {i} R1^R2 {mine.dirty_xor:#x} != XOR of rotated "
                    f"dirty words {expected:#x}"
                )
    for block_addr, data in sorted(result.memory.items()):
        theirs = memory.peek(block_addr, len(data))
        if data != theirs:
            problems.append(
                f"memory block {block_addr:#x}: batch={data.hex()} "
                f"scalar={theirs.hex()}"
            )
    if result.memory_reads != memory.reads:
        problems.append(
            f"memory reads: batch={result.memory_reads} scalar={memory.reads}"
        )
    if result.memory_writes != memory.writes:
        problems.append(
            f"memory writes: batch={result.memory_writes} scalar={memory.writes}"
        )
    return problems

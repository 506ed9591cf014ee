"""NumPy-vectorized batch replay — the scalar ``Cache`` fast path.

The object-model :class:`~repro.memsim.cache.Cache` walks every access one
word at a time, which caps fault-injection campaigns and dirty-data sweeps
at toy trace sizes.  This module replays a whole access stream through a
single-level write-back cache in three bulk phases.  The stream is a trace
of references into 64-bit protection units (the L1), or the block traffic
such a replay hands the level below, into a level whose protection unit is
its whole line (the L2 of paper Section 3.5):

1. **Decompose** — the trace becomes structured arrays
   (:class:`BatchTrace`) and every address is split into block / set /
   unit fields with vectorized shifts and masks, mirroring
   :class:`~repro.memsim.address.AddressMapper`; line traffic
   (:class:`LineTraffic`) splits its block addresses the same way.
2. **Resolve** — :func:`lru_residency` settles every access of every set
   at once from the stack property of LRU: an access hits a W-way set
   exactly when fewer than W distinct blocks touched the set since its
   block's previous access.  It yields each access's hit flag, way and
   residency, and for a miss in a full set the block it evicts;
   :class:`ResolvedStream` adds each residency's dirty units.
3. **Derive** — everything else is a reduction of those columns, the
   same for both streams with a unit held as ``unit_bytes // 8`` 64-bit
   words: unit values by a per-byte latest-writer fold (a write-back
   writes its whole line), CPPC's R1/R2 registers as per-class XOR
   reductions (including the byte rotation by ``row mod num_classes`` of
   :mod:`repro.cppc.shifting`), write-backs with their words, counters,
   the dirty-occupancy integral and Tavg intervals by segmented cumsums,
   final lines, check words, dirty-cycle stamps, LRU orders and the
   written-back blocks.

The engine reproduces the scalar semantics *exactly*.  It returns the
final cache and memory in the format :mod:`repro.memsim.snapshot` gives
a scalar :class:`~repro.memsim.cache.Cache`, and each snapshot equals,
field for field, the one a scalar replay of the same stream leaves: hit
and miss counts, statistics (the Table 2 dirty-data metrics included),
data, dirty bits, check words, dirty-cycle stamps, LRU orders, the clock
and bit-identical R1/R2 registers.
:func:`repro.workloads.replay.replay_mismatches` makes that comparison,
and :func:`~repro.memsim.snapshot.restore_cache` turns a snapshot into a
live cache.  The campaign warm build (:mod:`repro.faults.warmstate`)
replays an L1 and its L2 this way, and the Figure-10 timing path
(:mod:`repro.timing.fast`) runs :class:`ResolvedStream` over both cache
levels.

Scope: fault-free replay under LRU with write-allocate, of a trace into
64-bit units or of line traffic into one unit per line, with a
:class:`~repro.cppc.CppcProtection` scheme over 8-way interleaved
parity.  Fault injection, other units and other policies and schemes
stay on the scalar path; :class:`repro.workloads.replay.FastReplay`,
:func:`repro.timing.fast.collect_run_fast` and the warm build enforce
the boundary.
"""

from __future__ import annotations

import dataclasses
import time
from functools import reduce
from operator import xor
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..cppc.registers import RegisterFile
from ..errors import AlignmentError, ConfigurationError, TraceFormatError
from ..util import WORD_BYTES, parity
from .address import AddressMapper
from .snapshot import CacheSnapshot, MemorySnapshot, PolicySnapshot
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


def _rotl_unit(words: np.ndarray, count: int) -> np.ndarray:
    """Rotate one unit, held as big-endian 64-bit ``words``, left by
    ``count`` bytes.

    Whole words rotate by position; each word then takes its own bytes
    rotated, with the bytes that left its top refilled from the next
    word's.
    """
    whole, part = divmod(count % (WORD_BYTES * len(words)), WORD_BYTES)
    rotated = _rotl_bytes_u64(np.roll(words, -whole), part)
    low = np.uint64((1 << 8 * part) - 1)
    return rotated & ~low | np.roll(rotated, -1) & low


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
        shift = (8 * (WORD_BYTES - (self.addr & 7) - self.size)).astype(np.uint64)
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


class LineTraffic(NamedTuple):
    """A batch replay's next-level block traffic, as aligned columns.

    One event per miss read and dirty write-back, in access order with a
    miss's read before its victim's write-back, exactly the scalar
    ``Cache`` order: the ``read_block``/``write_block`` calls the level
    below serves.  :meth:`BatchReplayEngine.replay` replays it into a
    level whose protection unit is its whole line.

    Attributes:
        kinds: each event's kind (``int8``), 0 for a read and 1 for a
            write-back.
        slots: the index into ``slot_addr`` of the block each event moves.
        cycles: the cycle of the access that caused each event
            (non-decreasing).
        words: the line each write-back carries, in event order: one row
            of ``block_bytes // 8`` big-endian 64-bit words (``uint64``)
            per write-back.
        slot_addr: byte address of each block the events move.
    """

    kinds: np.ndarray
    slots: np.ndarray
    cycles: np.ndarray
    words: np.ndarray
    slot_addr: np.ndarray


class BatchReplayResult(NamedTuple):
    """The state a batch replay leaves, in the scalar snapshot format.

    Attributes:
        cache: the final cache, named as the hierarchy's level it models
            (``"L1D"`` after a trace, ``"L2"`` after line traffic):
            :func:`~repro.memsim.snapshot.snapshot_cache` of that scalar
            level after the same stream from empty.
        memory: the blocks the cache wrote back, each as its last
            write-back left it and in the order of their first ones, with
            the reads and writes memory served:
            :func:`~repro.memsim.snapshot.snapshot_memory` of the scalar
            cache's :class:`~repro.memsim.mainmem.MainMemory`.  None when
            the caller asked for the traffic, whose write-backs go to the
            next level instead.
        traffic: the next-level block traffic, when the caller asked for
            it; else None.
    """

    cache: CacheSnapshot
    memory: Optional[MemorySnapshot]
    traffic: Optional[LineTraffic] = None


# ----------------------------------------------------------------------
# The LRU residency kernel
# ----------------------------------------------------------------------
def _index_dtype(bound: int):
    """int32 when every index below ``bound`` fits, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def _heads(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal ``keys`` starts."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def _stable_argsort(keys: np.ndarray, dtype) -> np.ndarray:
    """Indices (as ``dtype``) that sort non-negative ``keys``, equal keys
    in index order.

    Small keys take NumPy's radix sort; otherwise each key gets its
    index as a tiebreak, and NumPy's quicksort of the unique composite
    beats its stable merge sort several times over.
    """
    n = len(keys)
    top = int(keys.max()) if n else 0
    if top < 1 << 16:
        order = np.argsort(keys.astype(np.uint16), kind="stable")
    elif top < (1 << 62) // n:
        composite = keys.astype(np.int64)
        composite *= n
        composite += np.arange(n)
        order = np.argsort(composite)
    else:
        order = np.argsort(keys, kind="stable")
    return order.astype(dtype, copy=False)


def _run_starts(head: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``index`` of the first element of each element's run."""
    return np.maximum.accumulate(np.where(head, index, 0))


class LruResidency(NamedTuple):
    """Per-access outcome of a W-way LRU cache, in access order.

    Attributes:
        hit: the access found its block resident.
        way: the way that holds the block after the access.
        fill: access index of the miss that filled that way with the
            block (the access itself on a miss) — one id per residency.
        evict: for a miss in a full set, access index of the last access
            to the block it evicts; -1 everywhere else.
    """

    hit: np.ndarray
    way: np.ndarray
    fill: np.ndarray
    evict: np.ndarray


def lru_residency(sets: np.ndarray, blocks: np.ndarray, ways: int) -> LruResidency:
    """Resolve every access of a write-allocate LRU cache at once.

    ``sets`` and ``blocks`` give each access's set and block key in
    access order; a block belongs to one set.  Lines start invalid and a
    miss fills the first invalid way, else the LRU way — the scalar
    :class:`~repro.memsim.cache.Cache` order.

    LRU keeps the W most recently used distinct blocks of a set (the
    stack property of Mattson, Gecsei, Slutz and Traiger, 1970).  With
    ``q_m`` the last access to the m-th most recent distinct block
    before an access (in its set), the access hits exactly when its
    block's previous access is at or after ``q_W``, and a miss in a full
    set evicts the block last accessed at ``q_W``.  Accesses are sorted
    by set (stable) and linked to their block's previous and next
    access; ``q_1`` and ``q_2`` follow in closed form from runs of equal
    blocks, and each deeper ``q_m`` is the last position before
    ``q_(m-1)`` whose block recurs no earlier than the access, found by
    binary lifting over a max sparse table of the next-access links.
    Misses in sets not yet full take the next invalid way; a miss in a
    full set takes the way of the residency it evicts, found by pointer
    jumping along the chain of residencies each way held.
    """
    n = len(sets)
    it = _index_dtype(n + 1)
    if n == 0:
        empty = np.zeros(0, dtype=it)
        return LruResidency(np.zeros(0, dtype=bool), empty, empty, empty)
    # Positions: accesses grouped by set, in access order within a set.
    order = _stable_argsort(sets, it)
    pos = np.arange(n, dtype=it)
    head = _heads(sets[order])
    start = _run_starts(head, pos)
    blk = blocks[order]
    by_block = _stable_argsort(blk, it)
    sorted_blk = blk[by_block]
    same = sorted_blk[1:] == sorted_blk[:-1]
    del sorted_blk
    earlier, later = by_block[:-1][same], by_block[1:][same]
    del same
    prev = np.full(n, -1, dtype=it)
    prev[later] = earlier

    q = pos - 1
    q[head] = -1
    if ways > 1:
        # The run of equal blocks ending just before an access: the
        # block before that run is the second most recent.
        run_start = _run_starts(_heads(blk), pos)
        q = np.where(q >= 0, run_start[q] - 1, -1)
        q[q < start] = -1
        del run_start
    longest = int(np.diff(np.flatnonzero(head), append=n).max())
    del blk, head
    if ways > 2:
        nxt = np.full(n, n, dtype=it)
        nxt[earlier] = later
        # table[l][k] = max(nxt[k : k + 2**l]); a skip never leaves a set.
        table = [nxt]
        while 1 << len(table) < longest:
            step = 1 << (len(table) - 1)
            table.append(np.maximum(table[-1][:-step], table[-1][step:]))
        for _depth in range(2, ways):
            # A block at or after q_(m-1) is already known to hit.
            q[(q >= 0) & (prev >= q)] = -1
            live = np.flatnonzero(q >= 0).astype(it)
            if not len(live):
                break
            lo = start[live]
            cur = q[live]
            for level in range(len(table) - 1, -1, -1):
                step = 1 << level
                cand = cur - step
                ok = cand >= lo
                cand[~ok] = 0
                ok &= table[level][cand] < live
                cur[ok] -= step
            cur -= 1
            cur[cur < lo] = -1
            q[live] = cur
        del table, nxt
    del earlier, later

    hit = (prev >= 0) & (q <= prev)
    miss = ~hit
    full = miss & (q >= 0)
    # Each access's residency: the latest miss of its block so far (a
    # block's first access always misses).
    latest = _run_starts(miss[by_block], pos)
    fill = np.empty(n, dtype=it)
    fill[by_block] = by_block[latest]
    del latest, by_block
    # Ways, in miss space: a miss in a set not yet full takes the next
    # invalid way (lines fill in way order); a full-set miss points at
    # the miss that filled the residency it evicts, down to a root.
    missed = np.flatnonzero(miss).astype(it)
    rank = np.cumsum(miss, dtype=it) - 1
    firsts = np.cumsum(prev < 0, dtype=it)
    root_way = firsts[missed] - firsts[start[missed]]
    del firsts, prev
    chained = full[missed]
    link = np.arange(len(missed), dtype=it)
    link[chained] = rank[fill[q[missed[chained]]]]
    while True:
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    way = root_way[link][rank[fill]]
    del link, jumped, rank, root_way, missed, chained

    out_hit = np.empty(n, dtype=bool)
    out_hit[order] = hit
    out_way = np.empty(n, dtype=it)
    out_way[order] = way
    out_fill = np.empty(n, dtype=it)
    out_fill[order] = order[fill]
    out_evict = np.empty(n, dtype=it)
    out_evict[order] = np.where(full, order[q], -1)
    return LruResidency(out_hit, out_way, out_fill, out_evict)


# ----------------------------------------------------------------------
# Dirty-unit accounting over a resolved access stream
# ----------------------------------------------------------------------
class ResolvedStream:
    """One access stream through a write-back, write-allocate LRU cache.

    Runs :func:`lru_residency` over ``sets``/``blocks`` and accounts each
    residency's dirty units.  ``cycles`` is each access's clock
    (non-decreasing); ``units`` gives the protection unit each access
    touches inside its block (``None``: one unit per line, as in the
    L2).  A unit turns dirty at the first store of its residency and
    stays dirty until the residency is evicted.  Every array is in
    access order: the :class:`LruResidency` columns plus each access's
    dirty facts, from which :meth:`stats` sums any window that ends with
    the stream.

    Attributes:
        was_dirty: the access found its unit dirty (a store to the same
            unit of the same residency came first).
        interval: cycles since the unit's previous access where
            ``was_dirty`` (0 elsewhere) — the Tavg samples.
        victim_dirty: dirty units of the residency a full-set miss
            evicts (0 elsewhere); a write-back where positive.
        group_order, group_keys: accesses sorted by (residency, unit),
            stable, and their ``fill * units_per_block + unit`` keys.
    """

    def __init__(
        self,
        sets: np.ndarray,
        blocks: np.ndarray,
        is_store: np.ndarray,
        cycles: np.ndarray,
        ways: int,
        *,
        units: Optional[np.ndarray] = None,
        units_per_block: int = 1,
    ):
        self.hit, self.way, self.fill, self.evict = lru_residency(sets, blocks, ways)
        self.is_store = is_store
        self.cycles = cycles
        n = len(is_store)
        it = _index_dtype(n + 1)
        if units is None:
            keys = self.fill
        else:
            keys = self.fill.astype(_index_dtype((n + 1) * units_per_block))
            keys *= units_per_block
            keys += units
        order = _stable_argsort(keys, it)
        keys = keys[order]
        stored = is_store[order]
        # Stores earlier in each (residency, unit) group.
        before = np.cumsum(stored, dtype=it)
        before -= stored
        before -= before[_run_starts(_heads(keys), np.arange(n, dtype=it))]
        dirty = before > 0
        del before
        self.was_dirty = np.empty(n, dtype=bool)
        self.was_dirty[order] = dirty
        # A dirty access is never first in its group.
        at = np.flatnonzero(dirty)
        sorted_cycles = cycles[order]
        self.interval = np.zeros(n, dtype=np.int64)
        self.interval[order[at]] = sorted_cycles[at] - sorted_cycles[at - 1]
        del at, sorted_cycles
        # Dirty units per residency: one first store each.
        dirty_units = np.bincount(self.fill[order[stored & ~dirty]], minlength=n)
        del stored, dirty
        self.victim_dirty = np.zeros(n, dtype=it)
        full = self.evict >= 0
        self.victim_dirty[full] = dirty_units[self.fill[self.evict[full]]]
        self.group_order = order
        self.group_keys = keys

    def __len__(self) -> int:
        return len(self.hit)

    def traffic(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next-level block traffic, in the scalar cache's order.

        One read per miss and one write-back per dirty eviction, in
        access order with a miss's read before its victim's write-back.
        Returns each event's access index, whether it is a write-back,
        and the index of an access to the block it moves.
        """
        reads = np.flatnonzero(~self.hit)
        writes = np.flatnonzero(self.victim_dirty)
        at_read = np.arange(len(reads)) + np.searchsorted(writes, reads)
        at_write = np.searchsorted(reads, writes, side="right")
        at_write += np.arange(len(writes))
        access = np.empty(len(reads) + len(writes), dtype=np.int64)
        access[at_read] = reads
        access[at_write] = writes
        source = access.copy()
        source[at_write] = self.evict[writes]
        is_write = np.zeros(len(access), dtype=bool)
        is_write[at_write] = True
        return access, is_write, source

    def stats(self, start: int, total_units: int) -> CacheStats:
        """Statistics of accesses ``[start:]``, as the scalar cache
        reports them after ``reset_stats()`` before access ``start``.

        Counters are masked sums.  The dirty-occupancy integral and the
        interval sums are sums of integers, exact in float64 below
        2**53, so one integer sum converted once equals the scalar
        cache's running float sum.  ``read_before_writes`` stays 0 (a
        protection scheme's count).
        """
        stats = CacheStats()
        stats.configure(total_units)
        n = len(self)
        if not n:
            return stats
        hit = self.hit[start:]
        stored = self.is_store[start:]
        hits = int(np.count_nonzero(hit))
        stats.write_hits = int(np.count_nonzero(hit & stored))
        stats.read_hits = hits - stats.write_hits
        stats.write_misses = int(np.count_nonzero(stored)) - stats.write_hits
        stats.read_misses = len(hit) - hits - stats.write_misses
        stats.fills = len(hit) - hits
        victims = self.victim_dirty[start:]
        stats.evictions_dirty = int(np.count_nonzero(victims))
        stats.evictions_clean = (
            int(np.count_nonzero(self.evict[start:] >= 0)) - stats.evictions_dirty
        )
        stats.writebacks = stats.evictions_dirty
        dirty = self.was_dirty[start:]
        stats.stores_to_dirty_units = int(np.count_nonzero(dirty & stored))
        # Dirty units in force before each access: the scalar cache
        # integrates before applying an access's dirty-bit changes.
        count = (self.is_store & ~self.was_dirty).astype(np.int64)
        count -= self.victim_dirty
        np.cumsum(count, out=count)
        cycles = self.cycles
        # Access i integrates count[i - 1] over its span; access 0 finds
        # the cache clean.
        s = max(start, 1)
        integral = int(np.dot(np.diff(cycles[s - 1 :]), count[s - 1 : -1]))
        stats.dirty_time_integral = float(integral)
        first = int(cycles[start - 1]) if start else 0
        stats.observed_cycles = float(int(cycles[-1]) - first)
        stats._last_event_cycle = float(cycles[-1])
        stats._current_dirty_units = int(count[-1])
        intervals = self.interval[start:][dirty]
        if len(intervals):
            stats.dirty_interval_sum = float(intervals.sum())
            stats.dirty_interval_count = len(intervals)
            buckets = np.searchsorted(_POW2, intervals, side="right") - 1
            np.maximum(buckets, 0, out=buckets)
            stats.dirty_interval_histogram = {
                bucket: total
                for bucket, total in enumerate(np.bincount(buckets).tolist())
                if total
            }
        return stats


class _UnitHistory:
    """Every store's unit value, with point lookups by unit and time.

    A unit value is a row of 64-bit words.  Stores are grouped by memory
    unit (block slot and unit, stable, so in access order within a
    unit).  A store writes whole bytes, so the unit value after a store
    takes each byte from the latest store to that unit covering it (zero
    where none did): a per-byte latest-writer fold over the stores' byte
    ``masks``, or, with ``masks`` None, each store's own words, as when
    every store writes its whole unit.  A unit's value does not depend
    on residencies, because a clean eviction drops a copy of memory and
    a dirty one writes the line back.
    """

    def __init__(self, unit_keys, times, words, masks, n):
        self.n = n
        it = _index_dtype(len(times) + 1)
        order = _stable_argsort(unit_keys, np.int64)
        unit_keys = unit_keys[order]
        self.order = order
        #: Sort key: unit, then access index.
        self.keys = unit_keys * (n + 1) + times[order]
        words = words[order]
        #: Unit value after each store, in ``order``.
        self.values = words
        if masks is None:
            return
        index = np.arange(len(order), dtype=it)[:, None]
        group = _run_starts(_heads(unit_keys), index[:, 0])[:, None]
        del unit_keys
        masks = masks[order]
        columns = np.arange(words.shape[1])
        self.values = np.zeros_like(words)
        for shift in range(0, 64, 8):
            lane = np.uint64(0xFF << shift)
            writer = np.where(masks & lane, index, -1)
            np.maximum.accumulate(writer, axis=0, out=writer)
            self.values |= np.where(writer >= group, words[writer, columns] & lane, 0)

    def at(self, unit_keys, times):
        """Value of each unit before access ``times``, and the access
        index of the store that wrote it (-1 for none: zero)."""
        base = unit_keys * (self.n + 1)
        j = np.searchsorted(self.keys, base + times) - 1
        found = j >= 0
        found[found] = self.keys[j[found]] >= base[found]
        j = j[found]
        values = np.zeros((len(base), self.values.shape[1]), dtype=np.uint64)
        values[found] = self.values[j]
        written = np.full(len(base), -1, dtype=np.int64)
        written[found] = self.keys[j] - base[found]
        return values, written


class BatchReplayEngine:
    """Vectorized single-level cache replay with CPPC register tracking.

    Mirrors a :class:`~repro.memsim.cache.Cache` built with LRU
    replacement, write-back / write-allocate, a
    :class:`~repro.cppc.CppcProtection` scheme over 8-way interleaved
    parity and a :class:`~repro.memsim.mainmem.MainMemory` next level.
    Its protection unit is a 64-bit word (``unit_bytes=8``: the L1, which
    replays a trace) or its whole line (``unit_bytes=block_bytes``: the
    L2, which replays the line traffic of the level above).

    Args:
        size_bytes: total data capacity.
        ways: associativity.
        block_bytes: line size.
        unit_bytes: protection unit, 8 or ``block_bytes``.
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
        if unit_bytes % WORD_BYTES or unit_bytes not in (WORD_BYTES, block_bytes):
            raise ConfigurationError(
                "the batch engine replays 64-bit protection units or one "
                f"unit per line; got {unit_bytes}-byte units in "
                f"{block_bytes}-byte lines",
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
        RegisterFile(8 * unit_bytes, num_pairs=num_pairs, num_classes=num_classes)
        #: Optional :class:`repro.obs.TraceSink`.  When absent or
        #: disabled, :meth:`replay` makes no timing calls.
        self.obs = None

    def check_trace_units(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` (``reason``
        ``"unit_bytes"``) unless the protection unit is a 64-bit word,
        the unit a trace replays into."""
        if self.unit_bytes != WORD_BYTES:
            raise ConfigurationError(
                "the batch engine replays traces into 64-bit protection "
                f"units only (unit_bytes=8); got {self.unit_bytes}",
                reason="unit_bytes",
            )

    # ------------------------------------------------------------------
    # Phase 1 — bulk address decomposition
    # ------------------------------------------------------------------
    def decompose(self, trace: BatchTrace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split every address into (block, set, unit)."""
        blocks = trace.addr >> (self.block_bytes.bit_length() - 1)
        sets = blocks & (self.num_sets - 1)
        units = (trace.addr & (self.block_bytes - 1)) >> 3
        return blocks, sets, units

    def _decompose_lines(self, moved: LineTraffic) -> Tuple[np.ndarray, ...]:
        """(block, set, unit, is_store, cycles, words) of line traffic,
        after checking that it fits this level."""
        bb = self.block_bytes
        if self.units_per_block != 1:
            raise ConfigurationError(
                "line traffic replays into one protection unit per line; "
                f"this engine has {self.units_per_block}",
                reason="unit_bytes",
            )
        slot_addr = np.asarray(moved.slot_addr, dtype=np.int64)
        if len(slot_addr) and (int(slot_addr.min()) < 0 or np.any(slot_addr % bb)):
            raise AlignmentError(
                f"line traffic moves blocks at non-negative multiples of {bb}B"
            )
        is_store = np.asarray(moved.kinds) != 0
        words = np.asarray(moved.words, dtype=np.uint64)
        expected = (np.count_nonzero(is_store), bb // WORD_BYTES)
        if words.shape != expected:
            raise AlignmentError(
                f"write-backs carry one whole {bb}B line each: expected "
                f"{expected[0]} rows of {expected[1]} words, got {words.shape}"
            )
        blocks = slot_addr[moved.slots] >> (bb.bit_length() - 1)
        cycles = np.asarray(moved.cycles, dtype=np.int64)
        sets = blocks & (self.num_sets - 1)
        return blocks, sets, np.zeros_like(blocks), is_store, cycles, words

    # ------------------------------------------------------------------
    # Phases 2+3 — resolution and derivation
    # ------------------------------------------------------------------
    def replay(
        self, source: Union[BatchTrace, LineTraffic], *, traffic: bool = False
    ) -> BatchReplayResult:
        """Replay ``source`` into an empty cache over an empty memory.

        ``source`` is a :class:`BatchTrace`, replayed as loads and stores
        into 64-bit units (the hierarchy's ``"L1D"``), or the
        :class:`LineTraffic` of the level above, replayed as its
        ``read_block``/``write_block`` calls into one unit per line (the
        ``"L2"``).  Returns the final cache and the blocks it wrote back
        as the snapshots a scalar replay of the same stream leaves, or
        with ``traffic`` the final cache and the next-level block traffic
        (:class:`BatchReplayResult`).  With a live sink, each phase
        (``decompose``, ``resolve``, ``accumulate``) is one ``batch``
        span over every access.

        Raises:
            ConfigurationError: ``reason`` ``"unit_bytes"``, when the
                engine's unit is not the one ``source`` replays into.
            AlignmentError: for a trace access or a line-traffic block
                the scalar path rejects too, or a write-back that is not
                one whole line.
        """
        obs = self.obs if self.obs is not None and self.obs.enabled else None
        t_phase = time.perf_counter() if obs is not None else 0.0
        if isinstance(source, LineTraffic):
            name = "L2"
            blocks, sets, units, is_store, cycles, words = self._decompose_lines(source)
            masks = None
        else:
            self.check_trace_units()
            source.validate()
            name = "L1D"
            blocks, sets, units = self.decompose(source)
            is_store, cycles = source.is_store, np.cumsum(source.gap + 1)
            words = source.value_word[is_store, None]
            masks = source.value_mask[is_store, None]
        n = len(is_store)
        upb, ways, bb = self.units_per_block, self.ways, self.block_bytes
        lines = self.num_sets * ways
        if obs is not None:
            t_phase = self._span(obs, "decompose", t_phase, n)
        stream = ResolvedStream(
            sets,
            blocks,
            is_store,
            cycles,
            ways,
            units=units,
            units_per_block=upb,
        )
        if obs is not None:
            t_phase = self._span(obs, "resolve", t_phase, n)

        stats = stream.stats(0, lines * upb)
        stats.read_before_writes = stats.stores_to_dirty_units
        if n:
            # The scalar cache keeps the integer cycles it is given.
            stats._last_event_cycle = int(stats._last_event_cycle)
        slot_blocks, slot = np.unique(blocks, return_inverse=True)
        stores = np.flatnonzero(is_store)
        history = _UnitHistory(
            slot[stores] * upb + units[stores], stores, words, masks, n
        )
        del words, masks
        # R1 takes every stored value; R2 the old value of each store to
        # a dirty unit, and each dirty unit a write-back retires.  A
        # unit's row (set * units_per_block + unit) picks its class.
        stores = stores[history.order]
        rows = sets[stores] * upb + units[stores]
        r1_acc = self._fold(history.values, rows)
        redirtied = np.flatnonzero(stream.was_dirty[stores])
        del stores, units

        # Write-backs carry every unit of the evicted block as it stood.
        unit = np.arange(upb)
        wb = np.flatnonzero(stream.victim_dirty)
        victim = stream.evict[wb]
        wb_slot = slot[victim]
        values, written = history.at(
            (wb_slot[:, None] * upb + unit).ravel(), np.repeat(wb, upb)
        )
        wb_words = values.reshape(len(wb), bb // WORD_BYTES)
        retired = written >= np.repeat(stream.fill[victim], upb)
        retired_rows = (sets[victim][:, None] * upb + unit).ravel()[retired]
        r2_acc = self._fold(
            np.concatenate((history.values[redirtied - 1], values[retired])),
            np.concatenate((rows[redirtied], retired_rows)),
        )
        del victim, values, written, retired, retired_rows, rows, redirtied

        # Final lines: the residencies no miss evicted, and their units'
        # slots in the cache's flat layout.
        live = ~stream.hit
        live[stream.fill[stream.evict[stream.evict >= 0]]] = False
        live = np.flatnonzero(live)
        line = sets[live] * ways + stream.way[live]
        at = (line[:, None] * upb + unit).ravel()
        values, written = history.at(
            (slot[live][:, None] * upb + unit).ravel(), np.full(len(at), n)
        )
        data = np.zeros((lines * upb, self.unit_bytes // WORD_BYTES), np.uint64)
        data[at] = values
        check = np.zeros(lines * upb, dtype=np.uint64)
        check[at] = np.bitwise_xor.reduce(_fold_check_words(values), axis=1)
        live_dirty = written >= np.repeat(live, upb)
        dirty = np.zeros(lines * upb, dtype=bool)
        dirty[at] = live_dirty
        # The residency's last access to each unit, where it has one: a
        # dirty unit's stamp, and the line's recency.
        key = (live[:, None] * upb + unit).ravel()
        tail = np.searchsorted(stream.group_keys, key, side="right") - 1
        np.maximum(tail, 0, out=tail)
        last = np.where(stream.group_keys[tail] == key, stream.group_order[tail], -1)
        stamps = np.full(lines * upb, None, dtype=object)
        stamps[at[live_dirty]] = cycles[last[live_dirty]]
        recent = np.full(lines, -1, dtype=np.int64)
        recent[line] = last.reshape(len(live), upb).max(axis=1)
        # MRU-to-LRU: ways by their last access, latest first; ways never
        # filled keep their initial order behind them.
        order = np.argsort(-recent.reshape(self.num_sets, ways), axis=1, kind="stable")
        valid = np.zeros(lines, dtype=np.uint8)
        valid[line] = 1
        tags = np.zeros(lines, dtype=np.int64)
        tags[line] = blocks[live] >> (self.num_sets.bit_length() - 1)
        del history, values, written, live_dirty, key, tail, last, recent
        del live, line, at, blocks

        moved = None
        if traffic:
            access, is_write, source = stream.traffic()
            moved = LineTraffic(
                kinds=is_write.view(np.int8),
                slots=slot[source],
                cycles=cycles[access],
                words=wb_words,
                slot_addr=slot_blocks * bb,
            )
            del access, is_write, source
        del stream, slot, sets

        per_pair = self.num_classes // self.num_pairs
        pairs = []
        for lo in range(0, self.num_classes, per_pair):
            r1 = reduce(xor, r1_acc[lo : lo + per_pair])
            r2 = reduce(xor, r2_acc[lo : lo + per_pair])
            # Incremental event parity telescopes to the parity of the
            # final register value (popcount is linear over XOR mod 2).
            pairs.append((r1, r2, parity(r1), parity(r2)))
        cache = CacheSnapshot(
            name=name,
            size_bytes=self.size_bytes,
            ways=ways,
            block_bytes=bb,
            unit_bytes=self.unit_bytes,
            scheme="cppc",
            access_counter=int(cycles[-1]) if n else 0.0,
            valid=valid.tobytes(),
            tags=tags.tolist(),
            data=data.astype(">u8").tobytes(),
            dirty=dirty.tolist(),
            check=check.tolist(),
            last_dirty_access=stamps.tolist(),
            policy=PolicySnapshot(kind="lru", order=order.ravel().tolist()),
            stats=dataclasses.asdict(stats),
            protection={"pairs": pairs, "recoveries": 0, "register_repairs": 0},
        )

        memory = None
        if not traffic:
            # Memory: each written block as its last write-back left it,
            # in the order of the first write-backs, as memory gains them.
            _, first = np.unique(wb_slot, return_index=True)
            _, from_end = np.unique(wb_slot[::-1], return_index=True)
            by_first = np.argsort(first)
            raw = wb_words[len(wb) - 1 - from_end[by_first]].astype(">u8").tobytes()
            addrs = (slot_blocks[wb_slot[first[by_first]]] * bb).tolist()
            memory = MemorySnapshot(
                blocks={
                    addr: raw[k * bb : (k + 1) * bb] for k, addr in enumerate(addrs)
                },
                reads=stats.fills,
                writes=len(wb),
            )
        if obs is not None:
            self._span(obs, "accumulate", t_phase, n)
        return BatchReplayResult(cache, memory, moved)

    @staticmethod
    def _span(obs, name: str, began: float, references: int) -> float:
        now = time.perf_counter()
        obs.span("batch", name, began, now - began, {"references": references})
        return now

    def _fold(self, values, rows) -> List[int]:
        """Per-class XOR of unit ``values`` (rows of 64-bit words), each
        rotated by its row's class (``row mod num_classes``)."""
        acc = [0] * self.num_classes
        if not len(values):
            return acc
        classes = rows % self.num_classes
        for rotation_class in range(self.num_classes):
            selected = values[classes == rotation_class]
            if not len(selected):
                continue
            # Rotation is a bit permutation, so it commutes with XOR.
            folded = np.bitwise_xor.reduce(selected, axis=0)
            if self.byte_shifting:
                folded = _rotl_unit(folded, rotation_class)
            acc[rotation_class] = int.from_bytes(folded.astype(">u8").tobytes(), "big")
        return acc

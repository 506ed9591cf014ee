"""Synthetic workload generation.

The paper drives its evaluation with 100M-instruction SimPoints of SPEC
CPU2000.  Those traces are not redistributable, so this module provides
parametric generators whose knobs control exactly the behaviours the
paper's results depend on:

* temporal locality (a recency-weighted block-reuse pool) and spatial
  locality (sequential runs) -> L1/L2 miss rates,
* working-set size -> where capacity misses land in the hierarchy,
* store fraction and store re-write locality -> stores to dirty words
  (the CPPC read-before-write count) and dirty-data residency,
* instruction gaps between memory operations -> Tavg and CPI.

:mod:`repro.workloads.spec` instantiates fifteen named profiles standing
in for the paper's benchmarks.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import itertools
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..memsim.batch import BatchTrace
from ..util import Seed, make_rng
from .trace import TraceRecord

#: Access-size mix (bytes -> weight); dominated by 64-bit words with some
#: narrower accesses to exercise partial-store paths.
_SIZE_WEIGHTS = {8: 0.82, 4: 0.13, 1: 0.05}

_BLOCK_BYTES = 32  # paper Table 1 line size; spatial-locality granularity

#: Every drawn address goes into :class:`~repro.memsim.batch.BatchTrace`'s
#: ``int64`` address column, so the region must lie below this.
_ADDRESS_LIMIT = 1 << 63

#: References :meth:`SyntheticWorkload.records` synthesizes and decodes
#: at a time.
_RECORDS_CHUNK = 4096


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one synthetic benchmark.

    Attributes:
        name: benchmark label.
        working_set_bytes: span of the address region touched.
        hot_bytes: size of the frequently-targeted subset, at least one
            8-byte word (controls where capacity misses land: a multi-MB
            hot set defeats the L2).
        p_hot: probability that a *fresh* access targets the hot subset.
        p_reuse: probability that a non-sequential access revisits a
            recently-used block (temporal locality; sets the miss rate).
        reuse_window_blocks: how far back the reuse pool reaches.
        seq_fraction: probability of extending the current sequential run
            (spatial locality).
        store_fraction: stores as a fraction of memory references.
        p_store_rewrite: probability a store revisits a recently-stored
            address (drives stores-to-dirty-words).
        rewrite_window: how many recent store addresses stay revisitable.
        store_region_bytes: width of the *sliding* window fresh stores
            target (stack frames / output buffers).  Keeps the resident
            dirty footprint bounded while the drift spreads write-backs
            over the whole working set.  0 disables the window (stores
            roam like loads); otherwise it holds at least one 8-byte
            word.
        store_dwell: fresh stores per one-block advance of the sliding
            window (higher = dirtier lines linger longer).
        mean_gap: average non-memory instructions between references.
        base_address: start of the region (distinct per benchmark so
            multi-workload runs do not alias).  Every drawn address lies
            in ``[base_address, base_address + working_set_bytes)``,
            which must fit a non-negative ``int64``.
    """

    name: str
    working_set_bytes: int
    hot_bytes: int
    p_hot: float = 0.7
    p_reuse: float = 0.85
    reuse_window_blocks: int = 512
    seq_fraction: float = 0.3
    store_fraction: float = 0.35
    p_store_rewrite: float = 0.4
    rewrite_window: int = 256
    store_region_bytes: int = 0
    store_dwell: int = 8
    mean_gap: int = 2
    base_address: int = 0x1000_0000

    def __post_init__(self):
        if self.working_set_bytes < 2 * _BLOCK_BYTES:
            raise ConfigurationError("working set must span at least two blocks")
        if not 0 <= self.base_address <= _ADDRESS_LIMIT - self.working_set_bytes:
            raise ConfigurationError(
                "base_address must be >= 0 and base_address + "
                "working_set_bytes <= 2**63 (addresses are int64), got "
                f"base_address {self.base_address:#x}"
            )
        if not 8 <= self.hot_bytes <= self.working_set_bytes:
            raise ConfigurationError(
                "hot set must hold a word and fit inside the working set"
            )
        for field in (
            "p_hot", "p_reuse", "seq_fraction", "store_fraction", "p_store_rewrite"
        ):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{field} must be in [0, 1], got {value}")
        if self.rewrite_window < 1 or self.reuse_window_blocks < 1:
            raise ConfigurationError("history windows must be >= 1")
        if self.store_region_bytes < 0 or self.store_dwell < 1:
            raise ConfigurationError(
                "store_region_bytes must be >= 0 and store_dwell >= 1"
            )
        if 0 < self.store_region_bytes < 8:
            raise ConfigurationError(
                "a store region must hold a word (store_region_bytes >= 8, "
                "or 0 for none)"
            )
        if self.store_region_bytes > self.working_set_bytes:
            raise ConfigurationError("store region cannot exceed the working set")
        if self.mean_gap < 0:
            raise ConfigurationError("mean_gap must be >= 0")


class SyntheticWorkload:
    """Deterministic trace generator for one :class:`WorkloadProfile`."""

    def __init__(self, profile: WorkloadProfile, seed: Seed = 0):
        self.profile = profile
        self.seed = seed

    def records(self, n_references: int) -> Iterator[TraceRecord]:
        """Yield ``n_references`` trace records.

        They are the rows of :meth:`trace`: the same draw loop makes
        :data:`_RECORDS_CHUNK` references at a time, and each chunk is
        packed and decoded through
        :meth:`~repro.memsim.batch.BatchTrace.to_records`, so memory
        stays flat however long the trace.  :meth:`_draw` lists each
        ``random.Random`` helper the loop runs in place (``randrange``,
        ``choice``, ``expovariate`` and ``choices``).
        """
        for columns in self._draw(n_references, _RECORDS_CHUNK):
            yield from _pack(*columns).to_records()

    def trace(self, n_references: int) -> BatchTrace:
        """``n_references`` references drawn straight into the columns
        of one :class:`~repro.memsim.batch.BatchTrace`, with no
        :class:`TraceRecord` built."""
        (columns,) = self._draw(n_references, n_references)
        return _pack(*columns)

    def _draw(
        self, n_references: int, chunk: int
    ) -> Iterator[Tuple[List[int], List[int], List[bool], List[int], List[int]]]:
        """The synthesis loop: yield the column lists of ``chunk``
        references at a time (the last chunk may be shorter, and
        ``n_references == 0`` yields one empty chunk).

        Each chunk is ``(addr, size, is_store, gap, values)``, where
        ``values`` holds the stores' bytes as big-endian integers, in
        store order.  The trace is a fixed function of
        ``(seed, profile)``: every recorded result depends on the exact
        ``random.Random`` draw sequence, which ``tests/test_workloads.py``
        pins by digest.  For speed the loop binds profile fields and
        ``rng`` methods to locals and calls none of ``random.Random``'s
        helpers written in Python; each runs here as CPython runs it,
        so it consumes the generator exactly as the helper would:

        * ``randrange(n)`` (the store-window word, the reused block's
          word, the hot or working-set word and the alignment offset)
          and ``choice(seq)`` (the rewritten store address, as
          ``seq[randrange(len(seq))]``) are ``below(n)``:
          ``getrandbits(n.bit_length())``, redrawn while ``>= n``;
        * ``expovariate(rate)`` (the reuse rank) is
          ``-log(1.0 - random()) / rate``;
        * ``choices(sizes, weights)`` (the access size) bisects the
          cumulative weights at ``random() * total``.

        The gap (geometric, one ``random()`` per step) and the store
        bytes (one ``getrandbits(8)`` each) draw directly.
        ``tests/test_synthesis.py`` checks the loop against one that
        calls the helpers themselves.
        """
        p = self.profile
        rng = make_rng((self.seed, p.name))
        random = rng.random
        getrandbits = rng.getrandbits
        log = math.log
        from_bytes = int.from_bytes
        bisect_right = bisect.bisect_right

        def below(n: int) -> int:
            # CPython's ``Random._randbelow_with_getrandbits``, which
            # ``randrange(n)`` and ``choice`` call.
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        recent_blocks: collections.deque = collections.deque(
            maxlen=p.reuse_window_blocks
        )
        recent_stores: collections.deque = collections.deque(maxlen=p.rewrite_window)
        remember_block = recent_blocks.append
        remember_store = recent_stores.append
        seq_addr: Optional[int] = None
        # ``rng.choices(sizes, weights)`` draws one ``random()`` and
        # bisects the cumulative weights; doing that inline with the
        # weights accumulated once makes the very same draw.
        sizes = list(_SIZE_WEIGHTS)
        cum_weights = list(itertools.accumulate(_SIZE_WEIGHTS.values()))
        total = cum_weights[-1] + 0.0
        last_size = len(sizes) - 1
        # A store of ``size`` bytes draws one ``getrandbits(8)`` per byte.
        value_draws = {size: (8,) * size for size in sizes}
        base = p.base_address
        ws_bytes = p.working_set_bytes
        ws_end = base + ws_bytes
        ws_words = ws_bytes // 8
        hot_words = p.hot_bytes // 8
        store_region = p.store_region_bytes
        store_words = store_region // 8
        store_fraction = p.store_fraction
        p_store_rewrite = p.p_store_rewrite
        seq_fraction = p.seq_fraction
        p_reuse = p.p_reuse
        p_hot = p.p_hot
        store_dwell = p.store_dwell
        block_mask = ~(_BLOCK_BYTES - 1)
        block_words = _BLOCK_BYTES // 8
        # Recency bias of reuse: mean rank is a quarter of the window.
        reuse_rate = 4.0 / p.reuse_window_blocks
        # Instruction gaps are geometric with the profile's mean
        # (support >= 0), capped at 50x the mean.
        mean_gap = p.mean_gap
        p_gap = 1.0 / (mean_gap + 1.0)
        max_gap = 50 * mean_gap
        store_ptr = base
        fresh_stores = 0
        remaining = n_references

        while True:
            rows = min(chunk, remaining)
            remaining -= rows
            addrs: List[int] = []
            access_sizes: List[int] = []
            stores: List[bool] = []
            gaps: List[int] = []
            values: List[int] = []
            put_addr = addrs.append
            put_size = access_sizes.append
            put_store = stores.append
            put_gap = gaps.append
            put_value = values.append
            for _ in range(rows):
                is_store = random() < store_fraction
                # Store-stream addresses deliberately stay out of the load
                # reuse pool: once the sliding store window moves on, its
                # dirty lines cool down, age out of the cache and get
                # written back — that is what feeds the L2's dirty-data
                # population.
                if is_store and recent_stores and random() < p_store_rewrite:
                    addr = recent_stores[below(len(recent_stores))]
                elif is_store and store_region and random() < 0.95:
                    # Fresh store inside the sliding store window.
                    addr = store_ptr + below(store_words) * 8
                    if addr >= ws_end:
                        addr -= ws_bytes
                    fresh_stores += 1
                    if fresh_stores % store_dwell == 0:
                        store_ptr += _BLOCK_BYTES
                        if store_ptr >= ws_end:
                            store_ptr = base
                elif seq_addr is not None and random() < seq_fraction:
                    seq_addr += 8
                    if seq_addr >= ws_end:
                        seq_addr = base
                    addr = seq_addr
                    remember_block(addr & block_mask)
                elif recent_blocks and random() < p_reuse:
                    rank = min(
                        int(-log(1.0 - random()) / reuse_rate),
                        len(recent_blocks) - 1,
                    )
                    block = recent_blocks[-1 - rank]
                    addr = block + below(block_words) * 8
                    remember_block(block)
                else:
                    words = hot_words if random() < p_hot else ws_words
                    addr = base + below(words) * 8
                    seq_addr = addr
                    remember_block(addr & block_mask)
                size = sizes[bisect_right(cum_weights, random() * total, 0, last_size)]
                # Natural alignment inside the chosen word.
                addr = (addr & ~7) + below(8 // size) * size

                gap = 0
                if mean_gap:
                    while random() > p_gap and gap < max_gap:
                        gap += 1
                put_addr(addr)
                put_size(size)
                put_store(is_store)
                put_gap(gap)
                if is_store:
                    remember_store(addr & ~7)
                    value = bytes(map(getrandbits, value_draws[size]))
                    put_value(from_bytes(value, "big"))
            yield addrs, access_sizes, stores, gaps, values
            if not remaining:
                return


def _pack(
    addrs: List[int],
    sizes: List[int],
    stores: List[bool],
    gaps: List[int],
    values: List[int],
) -> BatchTrace:
    """One chunk of :meth:`SyntheticWorkload._draw` as a
    :class:`~repro.memsim.batch.BatchTrace`."""
    store_rows = np.array(stores, dtype=bool)
    raw = np.zeros(len(stores), dtype=np.uint64)
    raw[store_rows] = np.array(values, dtype=np.uint64)
    return BatchTrace.from_columns(addrs, sizes, store_rows, gaps, raw)

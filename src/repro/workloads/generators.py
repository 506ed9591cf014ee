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
from typing import Iterator, Optional

from ..errors import ConfigurationError
from ..memsim.types import AccessType
from ..util import Seed, make_rng
from .trace import TraceRecord

#: Access-size mix (bytes -> weight); dominated by 64-bit words with some
#: narrower accesses to exercise partial-store paths.
_SIZE_WEIGHTS = {8: 0.82, 4: 0.13, 1: 0.05}

_BLOCK_BYTES = 32  # paper Table 1 line size; spatial-locality granularity


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one synthetic benchmark.

    Attributes:
        name: benchmark label.
        working_set_bytes: span of the address region touched.
        hot_bytes: size of the frequently-targeted subset (controls where
            capacity misses land: a multi-MB hot set defeats the L2).
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
            roam like loads).
        store_dwell: fresh stores per one-block advance of the sliding
            window (higher = dirtier lines linger longer).
        mean_gap: average non-memory instructions between references.
        base_address: start of the region (distinct per benchmark so
            multi-workload runs do not alias).
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
        if not 0 < self.hot_bytes <= self.working_set_bytes:
            raise ConfigurationError("hot set must fit inside the working set")
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

        The trace is a fixed function of ``(seed, profile)``:
        :class:`~repro.workloads.store.TraceCache` keys and every
        recorded result depend on the exact ``random.Random`` draw
        sequence, which ``tests/test_workloads.py`` pins by digest.  For
        speed the loop binds profile fields and ``rng`` methods to
        locals and inlines the size and gap draws; each inlined draw
        consumes the generator exactly as the helper it replaces.
        """
        p = self.profile
        rng = make_rng((self.seed, p.name))
        random = rng.random
        randrange = rng.randrange
        choice = rng.choice
        expovariate = rng.expovariate
        getrandbits = rng.getrandbits
        bisect_right = bisect.bisect_right
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
        load_op, store_op = AccessType.LOAD, AccessType.STORE

        for _ in range(n_references):
            is_store = random() < store_fraction
            # Store-stream addresses deliberately stay out of the load
            # reuse pool: once the sliding store window moves on, its
            # dirty lines cool down, age out of the cache and get written
            # back — that is what feeds the L2's dirty-data population.
            if is_store and recent_stores and random() < p_store_rewrite:
                addr = choice(recent_stores)
            elif is_store and store_region and random() < 0.95:
                # Fresh store inside the sliding store window.
                addr = store_ptr + randrange(store_words) * 8
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
                rank = min(int(expovariate(reuse_rate)), len(recent_blocks) - 1)
                block = recent_blocks[-1 - rank]
                addr = block + randrange(block_words) * 8
                remember_block(block)
            else:
                words = hot_words if random() < p_hot else ws_words
                addr = base + randrange(words) * 8
                seq_addr = addr
                remember_block(addr & block_mask)
            size = sizes[bisect_right(cum_weights, random() * total, 0, last_size)]
            # Natural alignment inside the chosen word.
            addr = (addr & ~7) + randrange(8 // size) * size

            gap = 0
            if mean_gap:
                while random() > p_gap and gap < max_gap:
                    gap += 1
            if is_store:
                remember_store(addr & ~7)
                value = bytes([getrandbits(8) for _ in range(size)])
                yield TraceRecord(store_op, addr, size, gap, value)
            else:
                yield TraceRecord(load_op, addr, size, gap)

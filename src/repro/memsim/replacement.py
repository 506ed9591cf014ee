"""Replacement policies for set-associative caches.

All policies share one interface: ``touch`` on every hit or fill and
``victim`` to pick a way when a set is full.  The cache guarantees it only
asks for a victim among valid ways (it fills an empty way first), so a
removed line needs no policy update.
"""

from __future__ import annotations

import abc
from typing import List

from ..errors import ConfigurationError
from ..util import Seed, make_rng


class ReplacementPolicy(abc.ABC):
    """Per-cache replacement state across all sets."""

    def __init__(self, num_sets: int, ways: int):
        if num_sets < 1 or ways < 1:
            raise ConfigurationError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways

    @abc.abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Note a reference to ``way`` of ``set_index``."""

    @abc.abstractmethod
    def victim(self, set_index: int) -> int:
        """Pick the way to evict from a full set."""

    def fill(self, set_index: int, way: int) -> None:
        """Note that ``way`` was just filled (defaults to a touch)."""
        self.touch(set_index, way)


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used, the policy of the paper's SimpleScalar setup."""

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # One flat list: set s holds its ways from most- to least-recently
        # used at [s * ways, (s + 1) * ways).
        self._order: List[int] = list(range(ways)) * num_sets

    def touch(self, set_index: int, way: int) -> None:
        order = self._order
        base = set_index * self.ways
        if order[base] != way:
            # Shift the more recent ways down one slot (element by
            # element: cheaper than slicing for a handful of ways).
            pos = order.index(way, base)
            while pos > base:
                order[pos] = order[pos - 1]
                pos -= 1
            order[base] = way

    def victim(self, set_index: int) -> int:
        return self._order[(set_index + 1) * self.ways - 1]

    def recency_order(self, set_index: int) -> List[int]:
        """MRU-to-LRU order of a set."""
        base = set_index * self.ways
        return self._order[base : base + self.ways]


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out: eviction order follows fill order."""

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # One flat list: set s holds its ways oldest fill first at
        # [s * ways, (s + 1) * ways).
        self._queues: List[int] = list(range(ways)) * num_sets

    def touch(self, set_index: int, way: int) -> None:
        # Hits do not reorder a FIFO.
        pass

    def fill(self, set_index: int, way: int) -> None:
        queue = self._queues
        last = (set_index + 1) * self.ways - 1
        if queue[last] != way:
            pos = queue.index(way, set_index * self.ways)
            queue[pos:last] = queue[pos + 1 : last + 1]
            queue[last] = way

    def victim(self, set_index: int) -> int:
        return self._queues[set_index * self.ways]


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (deterministic under a seed)."""

    def __init__(self, num_sets: int, ways: int, seed: Seed = 0):
        super().__init__(num_sets, ways)
        self._rng = make_rng(seed)

    def touch(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.ways)


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_policy(
    name: str, num_sets: int, ways: int, seed: Seed = 0
) -> ReplacementPolicy:
    """Build a policy by name: ``lru``, ``fifo`` or ``random``."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(num_sets, ways, seed=seed)
    return cls(num_sets, ways)


def available_policies() -> List[str]:
    """Names accepted by :func:`make_policy`."""
    return sorted(_POLICIES)

"""Shared fixtures: small caches and hierarchies sized for fast tests."""

from __future__ import annotations

import random

import pytest

from repro.cppc import CppcProtection
from repro.memsim import (
    Cache,
    CacheGeometry,
    HierarchyConfig,
    MainMemory,
    MemoryHierarchy,
)
from repro.obs.sinks import TraceSink

#: A small hierarchy: 1KB/2-way/32B L1 over 8KB/4-way/32B L2.
TINY_CONFIG = HierarchyConfig(
    l1d=CacheGeometry(
        size_bytes=1024, ways=2, block_bytes=32, unit_bytes=8, latency_cycles=2
    ),
    l2=CacheGeometry(
        size_bytes=8192, ways=4, block_bytes=32, unit_bytes=32, latency_cycles=8
    ),
)


class ListSink(TraceSink):
    """Keeps every emitted event in memory."""

    def __init__(self):
        self.events = []

    def emit(self, category, name, args=None, ts=None):
        self.events.append((category, name, args))


def make_tiny_cache(protection=None, *, size=1024, ways=2, block=32, unit=8):
    """A small standalone cache backed directly by main memory."""
    memory = MainMemory(block_bytes=block)
    cache = Cache(
        "L1D",
        size,
        ways,
        block,
        unit_bytes=unit,
        protection=protection,
        next_level=memory,
    )
    return cache, memory


def make_cppc_cache(**cppc_kwargs):
    """A small cache protected by CPPC (64-bit units)."""
    protection = CppcProtection(data_bits=64, **cppc_kwargs)
    return make_tiny_cache(protection)


def cppc_hierarchy_factory(num_pairs=1, byte_shifting=True):
    """Protection factory for a tiny all-CPPC hierarchy."""

    def factory(level, unit_bits):
        return CppcProtection(
            data_bits=unit_bits, num_pairs=num_pairs, byte_shifting=byte_shifting
        )

    return factory


@pytest.fixture
def tiny_hierarchy():
    """Unprotected tiny hierarchy."""
    return MemoryHierarchy(TINY_CONFIG)


@pytest.fixture
def cppc_hierarchy():
    """Tiny hierarchy with CPPC at both levels."""
    return MemoryHierarchy(
        TINY_CONFIG, protection_factory=cppc_hierarchy_factory()
    )


@pytest.fixture
def rng():
    """Deterministic RNG for test-local randomness."""
    return random.Random(1234)


def fill_random(cache, memory, rng, n_stores=60, addr_space=4096):
    """Store random words through ``cache``; returns {addr: value_bytes}."""
    golden = {}
    for _ in range(n_stores):
        addr = rng.randrange(addr_space // 8) * 8
        value = rng.getrandbits(64).to_bytes(8, "big")
        cache.store(addr, value)
        golden[addr] = value
    return golden

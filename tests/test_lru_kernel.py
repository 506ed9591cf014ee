"""The vectorized LRU residency kernel against a per-set list LRU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.batch import lru_residency


def list_lru(sets, blocks, ways):
    """Reference: each set a list of [block, way, fill], MRU first."""
    state, last, out = {}, {}, []
    for i, (s, b) in enumerate(zip(sets, blocks)):
        lines = state.setdefault(s, [])
        found = [k for k, line in enumerate(lines) if line[0] == b]
        if found:
            line = lines.pop(found[0])
            out.append((True, line[1], line[2], -1))
        else:
            evicted = lines.pop() if len(lines) == ways else None
            way = len(lines) if evicted is None else evicted[1]
            line = [b, way, i]
            out.append((False, way, i, -1 if evicted is None else last[evicted[0]]))
        lines.insert(0, line)
        last[b] = i
    return out


def check(sets, tags, ways, num_sets):
    sets = np.asarray(sets, dtype=np.int64)
    blocks = np.asarray(tags, dtype=np.int64) * num_sets + sets
    got = lru_residency(sets, blocks, ways)
    rows = list(
        zip(got.hit.tolist(), got.way.tolist(), got.fill.tolist(), got.evict.tolist())
    )
    assert rows == list_lru(sets.tolist(), blocks.tolist(), ways)


WAYS = range(1, 9)


@pytest.mark.parametrize("ways", WAYS)
def test_cycle_one_past_the_ways(ways):
    # The classic LRU worst case: every access evicts the next block.
    n = 6 * (ways + 1)
    check([0] * n, [i % (ways + 1) for i in range(n)], ways, 1)


@pytest.mark.parametrize("ways", WAYS)
def test_cycle_that_fits(ways):
    n = 5 * ways
    check([0] * n, [i % ways for i in range(n)], ways, 1)


@pytest.mark.parametrize("ways", WAYS)
def test_alternating_pairs(ways):
    tags = [(i // 3) % 2 + 2 * ((i // 11) % 5) for i in range(200)]
    check([0] * len(tags), tags, ways, 1)


@pytest.mark.parametrize("ways", WAYS)
def test_one_hot_set_among_idle_ones(ways):
    rng = np.random.default_rng(ways)
    sets = np.where(rng.random(400) < 0.9, 3, rng.integers(0, 8, 400))
    tags = rng.integers(0, 2 * ways + 2, 400)
    check(sets, tags, ways, 8)


@pytest.mark.parametrize("ways", WAYS)
def test_all_distinct_blocks(ways):
    sets = [i % 4 for i in range(300)]
    check(sets, list(range(300)), ways, 4)


@pytest.mark.parametrize("ways", WAYS)
def test_repeated_block_runs(ways):
    # Runs of one block: the closed-form second stack position.
    tags = [t for t in (0, 1, 1, 1, 2, 0, 0, 3, 1, 2, 2, 0, 4, 4, 3) for _ in (0, 1)]
    check([0] * len(tags), tags, ways, 1)


def test_empty_stream():
    got = lru_residency(np.zeros(0, np.int64), np.zeros(0, np.int64), 4)
    assert all(len(column) == 0 for column in got)


@given(
    ways=st.integers(1, 8),
    num_sets=st.sampled_from([1, 2, 4, 16]),
    accesses=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 11)), max_size=300),
)
@settings(max_examples=200, deadline=None)
def test_matches_list_lru(ways, num_sets, accesses):
    sets = [s % num_sets for s, _ in accesses]
    check(sets, [t for _, t in accesses], ways, num_sets)

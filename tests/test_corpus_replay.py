"""Tier-1 replay of the fuzzing regression corpus.

Every ``tests/corpus/*.json`` reproducer is a minimal scenario that once
exposed (or guards against) a divergence between redundant
implementations.  This suite replays each through its differential
oracle and requires agreement — a regression in any fast path turns one
of these green files red with a word-level diff attached.
"""

import pathlib

import pytest

from repro.crosscheck import run_scenario
from repro.crosscheck.mutations import MUTATIONS, active
from repro.crosscheck.scenario import Scenario
from repro.crosscheck.shrink import (
    corpus_files,
    load_reproducer,
    reproducer_name,
    save_reproducer,
    shrink_scenario,
)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = corpus_files(CORPUS_DIR)


def test_corpus_is_populated():
    """At least one seed reproducer per oracle kind is committed."""
    kinds = {load_reproducer(path)[0].kind for path in CORPUS}
    assert kinds == {"replay", "recovery", "campaign", "doublefault"}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_reproducer_replays_clean(path):
    scenario, _recorded = load_reproducer(path)
    divergences = run_scenario(scenario)
    assert not divergences, [d.details for d in divergences]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_reproducer_round_trips(path):
    scenario, _recorded = load_reproducer(path)
    assert Scenario.from_json(scenario.to_json()) == scenario


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_reproducer_is_named_by_its_content(path):
    # A rediscovered case overwrites its file only if the committed name
    # is the digest save_reproducer would write.
    scenario, _recorded = load_reproducer(path)
    assert path.name == reproducer_name(scenario)


def test_find_shrink_save_replay_loop(tmp_path):
    """The full pipeline the nightly job runs, end to end.

    Under a seeded bug the fuzzer finds a divergence; the shrinker
    minimizes it; the reproducer file round-trips; the loaded scenario
    still fails under the bug and passes on the fixed (clean) tree —
    exactly the lifecycle of a real corpus entry.
    """
    from repro.crosscheck import ScenarioGenerator

    mutation = MUTATIONS["skip-byte-rotation"]
    generator = ScenarioGenerator(6, kind_weights={"replay": 1.0})
    with active(mutation):
        failing = None
        for index in range(20):
            scenario = generator.generate(index)
            if run_scenario(scenario):
                failing = scenario
                break
        assert failing is not None, "seeded bug never observed"
        shrunk = shrink_scenario(failing, run_scenario, max_seconds=20)
        assert len(shrunk.records) <= len(failing.records)
        divergences = run_scenario(shrunk)
        assert divergences
        path = save_reproducer(shrunk, divergences, tmp_path)
        loaded, _ = load_reproducer(path)
        assert loaded == shrunk
        assert run_scenario(loaded), "reproducer must fail under the bug"
    assert not run_scenario(loaded), "reproducer must pass once fixed"

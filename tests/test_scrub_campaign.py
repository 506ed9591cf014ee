"""Early-writeback scrubbing interacting with an in-flight campaign trial.

The scrubber changes *which* lines are dirty when the fault lands, so it
may legitimately change a trial's outcome — what it must never change is
determinism: the same seed, workload, and scrub schedule must classify
identically on every run, with byte-identical injections.
"""

import itertools

from repro.errors import UncorrectableError
from repro.faults import FaultInjector, scheme_factory
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.scrub import EarlyWritebackScrubber
from repro.workloads.replay import GoldenMemory, TraceReplayer
from repro.workloads.spec import make_workload

WARMUP = 400
POST = 300


def run_trial(seed, *, scrub_interval=None):
    """One campaign-style trial with an optional scrubber in the loop.

    Mirrors ``FaultCampaign._classify_trial``: warmup replay, inject one
    dirty-data fault, keep replaying, classify.  When ``scrub_interval``
    is set, the scrubber ticks on every warmup access and runs one full
    pass between warmup and injection — the window the satellite task
    cares about.
    """
    hierarchy = MemoryHierarchy(protection_factory=scheme_factory("parity"))
    golden = GoldenMemory()
    replayer = TraceReplayer(hierarchy, golden=golden, check_loads=True)
    workload = make_workload("gzip", seed=(seed, 0))
    records = workload.records(WARMUP + POST)
    scrubber = None
    if scrub_interval is not None:
        scrubber = EarlyWritebackScrubber(
            hierarchy.l1d,
            interval_accesses=scrub_interval,
            lines_per_pass=8,
        )

    for record in itertools.islice(records, WARMUP):
        replayer.step(record)
        if scrubber is not None:
            scrubber.tick()

    if scrubber is not None:
        scrubber.scrub_pass()  # scrub between warmup and injection

    injector = FaultInjector(hierarchy.l1d, seed=(seed, 0))
    injection = injector.random_temporal(dirty_only=True)
    flips = tuple(
        (flip.loc, flip.mask) for flip in (injection.flips if injection else ())
    )

    outcome = "benign"
    try:
        for record in records:
            if replayer.step(record):
                outcome = "sdc"
                break
        else:
            hierarchy.flush()
    except UncorrectableError:
        outcome = "due"

    cleaned = scrubber.stats.lines_cleaned if scrubber else 0
    return {
        "outcome": outcome,
        "flips": flips,
        "cleaned": cleaned,
        "detected": hierarchy.l1d.stats.detected_faults,
    }


class TestScrubbedTrialDeterminism:
    def test_scrubbed_trial_is_bit_identical_across_runs(self):
        for seed in range(3):
            first = run_trial(seed, scrub_interval=64)
            second = run_trial(seed, scrub_interval=64)
            assert first == second

    def test_scrubber_actually_cleans_during_warmup(self):
        result = run_trial(0, scrub_interval=64)
        assert result["cleaned"] > 0

    def test_unscrubbed_trial_is_deterministic_too(self):
        assert run_trial(1) == run_trial(1)

    def test_scrub_schedule_is_part_of_the_trial_definition(self):
        """Different scrub cadences may diverge, but each cadence is
        itself deterministic — outcome differences come only from the
        schedule, never from hidden state."""
        sparse = [run_trial(s, scrub_interval=256) for s in range(4)]
        dense = [run_trial(s, scrub_interval=16) for s in range(4)]
        assert sparse == [run_trial(s, scrub_interval=256) for s in range(4)]
        assert dense == [run_trial(s, scrub_interval=16) for s in range(4)]

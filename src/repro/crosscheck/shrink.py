"""Delta-debugging shrinker and reproducer (de)serialization.

A raw fuzz failure is a few hundred trace records plus a fault plan —
too big to eyeball.  :func:`shrink_scenario` minimizes it with the
classic ddmin algorithm (Zeller & Hildebrandt): first the trace, then
the fault plan, then the scalar cost knobs (trials, warmup lengths,
sample counts), re-running the failing predicate after every cut and
keeping only cuts that still fail.  The result serializes as a
self-contained JSON reproducer under ``tests/corpus/`` whose filename is
a digest of its canonical form — re-finding the same minimal case never
creates a duplicate file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .oracles import Divergence
from .scenario import FORMAT_VERSION, Scenario

#: Predicate fed to the shrinker: non-empty result == still failing.
FailureCheck = Callable[[Scenario], List[Divergence]]


class _Budget:
    """Caps shrinking by wall-clock and by predicate invocations."""

    def __init__(self, max_seconds: Optional[float], max_tests: int):
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.tests_left = max_tests

    def spent(self) -> bool:
        if self.tests_left <= 0:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline

    def charge(self) -> None:
        self.tests_left -= 1


def _ddmin(
    items: Sequence,
    still_fails: Callable[[List], bool],
    budget: _Budget,
) -> List:
    """Minimal failing sublist of ``items`` under ``still_fails``.

    Standard ddmin: partition into ``n`` chunks, try each chunk alone,
    then each complement; on progress reset granularity, otherwise
    double it until chunks are single items.  The budget bounds total
    predicate calls, so worst-case quadratic inputs degrade to a
    partially-shrunk (still failing) result instead of hanging.
    """
    items = list(items)
    n = 2
    while len(items) >= 2 and not budget.spent():
        chunk = max(1, len(items) // n)
        subsets = [items[i : i + chunk] for i in range(0, len(items), chunk)]
        progressed = False
        for i, subset in enumerate(subsets):
            if budget.spent():
                break
            complement = [x for j, s in enumerate(subsets) if j != i for x in s]
            # Try the complement first (drops the most per test); fall
            # back to the subset itself.
            for attempt in (complement, subset):
                if not attempt or len(attempt) == len(items):
                    continue
                if budget.spent():
                    break
                budget.charge()
                if still_fails(attempt):
                    items = attempt
                    n = max(2, len(subsets) - 1) if attempt is complement else 2
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            if chunk == 1:
                break
            n = min(len(items), n * 2)
    # Final single-item elimination pass (cheap polish).
    i = 0
    while i < len(items) and len(items) > 1 and not budget.spent():
        candidate = items[:i] + items[i + 1 :]
        budget.charge()
        if still_fails(candidate):
            items = candidate
        else:
            i += 1
    return items


def _shrink_int_field(
    scenario: Scenario,
    field: str,
    floor: int,
    fails: FailureCheck,
    budget: _Budget,
) -> Scenario:
    """Binary-search ``field`` down toward ``floor`` while still failing."""
    low, high = floor, getattr(scenario, field)
    best = scenario
    while low < high and not budget.spent():
        mid = (low + high) // 2
        candidate = dataclasses.replace(best, **{field: mid})
        budget.charge()
        if fails(candidate):
            best, high = candidate, mid
        else:
            low = mid + 1
    return best


#: Per-kind (field, floor) cost knobs the field pass may reduce.
_FIELD_FLOORS = {
    "campaign": (
        ("trials", 1),
        ("warmup_references", 16),
        ("post_fault_references", 8),
    ),
    "doublefault": (("samples", 8),),
}


def shrink_scenario(
    scenario: Scenario,
    fails: FailureCheck,
    *,
    max_seconds: Optional[float] = 30.0,
    max_tests: int = 250,
) -> Scenario:
    """Minimize a failing scenario; the result is guaranteed to fail.

    Args:
        scenario: a scenario for which ``fails(scenario)`` is non-empty.
        fails: the divergence predicate (usually
            :func:`~repro.crosscheck.oracles.run_scenario`, possibly
            under an active mutation).
        max_seconds / max_tests: shrinking budget; exhausting it returns
            the best (smallest still-failing) scenario found so far.
    """
    if not fails(scenario):
        raise ConfigurationError(
            "shrink_scenario needs a failing scenario to start from"
        )
    budget = _Budget(max_seconds, max_tests)
    best = scenario
    if best.records:
        records = _ddmin(
            best.records,
            lambda recs: bool(fails(dataclasses.replace(best, records=list(recs)))),
            budget,
        )
        best = dataclasses.replace(best, records=list(records))
    if len(best.faults) > 1:
        plan = _ddmin(
            best.faults,
            lambda ops: bool(fails(dataclasses.replace(best, faults=list(ops)))),
            budget,
        )
        best = dataclasses.replace(best, faults=list(plan))
    for field, floor in _FIELD_FLOORS.get(best.kind, ()):
        best = _shrink_int_field(best, field, floor, fails, budget)
    return best


# ----------------------------------------------------------------------
# Reproducer files
# ----------------------------------------------------------------------
def reproducer_payload(scenario: Scenario, divergences: Sequence[Divergence]) -> dict:
    """The JSON body of one corpus reproducer."""
    return {
        "format_version": FORMAT_VERSION,
        "scenario": scenario.to_json(),
        "divergences": [d.to_json() for d in divergences],
    }


def reproducer_name(scenario: Scenario) -> str:
    """Deterministic corpus filename for ``scenario``.

    A digest of the canonical scenario JSON: the same minimal case
    always maps to the same file, so nightly runs that rediscover a
    known failure overwrite rather than accumulate.
    """
    digest = hashlib.sha256(scenario.canonical_json().encode("ascii")).hexdigest()[:12]
    return f"repro-{scenario.kind}-{digest}.json"


def save_reproducer(
    scenario: Scenario,
    divergences: Sequence[Divergence],
    corpus_dir,
) -> Path:
    """Write (or overwrite) the reproducer file; returns its path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / reproducer_name(scenario)
    path.write_text(
        json.dumps(reproducer_payload(scenario, divergences), indent=2, sort_keys=True)
        + "\n"
    )
    return path


def load_reproducer(path) -> Tuple[Scenario, List[dict]]:
    """Parse one reproducer file into its scenario and recorded details."""
    data = json.loads(Path(path).read_text())
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported reproducer format version {version!r}"
        )
    scenario = Scenario.from_json(data["scenario"])
    return scenario, list(data.get("divergences", []))


def corpus_files(corpus_dir) -> List[Path]:
    """Every reproducer JSON under ``corpus_dir``, sorted by name."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return sorted(corpus_dir.glob("repro-*.json"))

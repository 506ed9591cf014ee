"""Monte-Carlo fault-injection campaigns with outcome classification.

Each trial builds a fresh hierarchy, warms it up with a workload prefix
(tracking a golden memory image), injects one fault, keeps executing, and
classifies the outcome:

* ``DUE`` — the protection scheme raised
  :class:`~repro.errors.UncorrectableError` (machine check);
* ``SDC`` — a load returned wrong data, or wrong data survived to memory
  after the final flush, without a DUE (includes miscorrections such as
  the Section 4.7 aliasing hazard);
* ``CORRECTED`` — a fault was detected and everything ended
  architecturally correct;
* ``BENIGN`` — the flipped bits were overwritten or discarded before any
  access noticed them.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    FORCED_EQUIVALENCE_MODES,
    ConfigurationError,
    EquivalenceError,
    TrialCrashError,
    UncorrectableError,
    check_equivalence_mode,
    cross_checks,
    raise_mismatches,
)
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.protection import CacheProtection
from ..util.rng import split_seed
from ..workloads.replay import GoldenMemory, TraceReplayer
from ..workloads.spec import make_workload
from .injector import FaultInjector, InjectionRecord


class Outcome(enum.Enum):
    """Architectural result of one injected fault."""

    BENIGN = "benign"
    CORRECTED = "corrected"
    DUE = "due"
    SDC = "sdc"


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one injection campaign.

    Attributes:
        scheme_factory: builds a fresh protection scheme per level per
            trial (signature: level name, unit bits).
        benchmark: workload profile name.
        trials: number of injections.
        warmup_references: references replayed before the injection.
        post_fault_references: references replayed after it.
        fault_kind: "temporal" (one bit) or "spatial" (a rectangle).
        spatial_shape: (height, width) for spatial faults.
        dirty_only: restrict temporal faults to dirty units.
        target_level: "L1D" or "L2".
        seed: base seed; trial ``i`` derives its own streams.
        shared_warmup: drive every trial with the *same* workload trace
            (seeded once per campaign) instead of a fresh trace per
            trial.  Injection seeds stay per-trial, so trials remain
            independent samples over fault sites; sharing the trace is
            what lets the snapshot-fork fast path warm up once (see
            :mod:`repro.faults.warmstate`).
    """

    scheme_factory: Callable[[str, int], CacheProtection]
    benchmark: str = "gcc"
    trials: int = 50
    warmup_references: int = 3000
    post_fault_references: int = 2000
    fault_kind: str = "temporal"
    spatial_shape: Tuple[int, int] = (8, 8)
    dirty_only: bool = False
    target_level: str = "L1D"
    seed: int = 0
    shared_warmup: bool = False

    def __post_init__(self):
        if self.fault_kind not in ("temporal", "spatial"):
            raise ConfigurationError(
                f"fault_kind must be 'temporal' or 'spatial', got {self.fault_kind}"
            )
        if self.target_level not in ("L1D", "L2"):
            raise ConfigurationError(
                f"target_level must be 'L1D' or 'L2', got {self.target_level}"
            )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")

    def trial_seed(self, trial: int) -> int:
        """Stable 64-bit identity of trial ``trial``'s seed material.

        Derived by :func:`repro.util.rng.split_seed`, so it is identical
        across processes and runs — checkpoints key on it, retry jitter
        derives from it, and resumed campaigns verify it before trusting
        a recorded trial.
        """
        return split_seed(self.seed, "trial", trial)

    def workload_seed(self, trial: int):
        """Seed material for trial ``trial``'s workload trace.

        Per-trial by default; one shared stream under ``shared_warmup``
        (the injection seed stays per-trial either way).
        """
        if self.shared_warmup:
            return (self.seed, "shared-warmup")
        return (self.seed, trial)


@dataclasses.dataclass
class TrialResult:
    """One injection's classification and evidence."""

    outcome: Outcome
    injected_bits: int = 0
    touched_units: int = 0
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """A trial the execution layer could not complete.

    Recorded after the retry policy is exhausted, so a campaign degrades
    to partial results with explicit accounting instead of dying.

    Attributes:
        trial_index: which trial failed.
        seed: the trial's derived seed identity
            (:meth:`CampaignConfig.trial_seed`).
        kind: ``"crash"``, ``"timeout"``, ``"hung"`` (heartbeat lost) or
            ``"quarantined"`` (circuit breaker tripped).
        attempts: how many attempts were made before giving up.
        message: last error message observed.
    """

    trial_index: int
    seed: int
    kind: str
    attempts: int
    message: str = ""


@dataclasses.dataclass
class CampaignResult:
    """Aggregated campaign outcome counts plus execution-layer failures.

    ``trials`` holds every *completed* trial; ``failures`` holds trials
    the runtime gave up on (crash/timeout after retries).  Outcome rates
    are over completed trials only, so partial campaigns stay valid
    estimates with an explicit denominator.

    ``degradation`` is the runtime's structured account of absorbed
    faults (chaos injections, lane kills, quarantined trials, checkpoint
    self-heals; see :class:`repro.runtime.health.DegradationReport`) —
    populated only by runtime-backed runs with a resilience feature
    active, None otherwise.
    """

    config: CampaignConfig
    trials: List[TrialResult] = dataclasses.field(default_factory=list)
    failures: List[TrialFailure] = dataclasses.field(default_factory=list)
    degradation: Optional[dict] = None

    @property
    def counts(self) -> Dict[Outcome, int]:
        """Outcome histogram."""
        out = {o: 0 for o in Outcome}
        for t in self.trials:
            out[t.outcome] += 1
        return out

    @property
    def completed(self) -> int:
        """Number of trials that ran to classification."""
        return len(self.trials)

    @property
    def failed(self) -> int:
        """Number of trials abandoned by the execution layer."""
        return len(self.failures)

    @property
    def complete(self) -> bool:
        """True when every configured trial produced an outcome."""
        return not self.failures and len(self.trials) == self.config.trials

    def rate(self, outcome: Outcome) -> float:
        """Fraction of completed trials ending in ``outcome``."""
        return self.counts[outcome] / len(self.trials) if self.trials else 0.0

    def summary(self) -> Dict[str, float]:
        """Outcome rates keyed by name."""
        return {o.value: self.rate(o) for o in Outcome}

    def snapshot(self) -> dict:
        """JSON-exact view of the campaign outcome (shared metrics schema)."""
        return {
            "benchmark": self.config.benchmark,
            "fault_kind": self.config.fault_kind,
            "target_level": self.config.target_level,
            "configured_trials": self.config.trials,
            "completed": self.completed,
            "failed": self.failed,
            "counts": {o.value: n for o, n in self.counts.items()},
            "rates": self.summary(),
        }

    def export_metrics(self, registry, prefix: str = "campaign.") -> None:
        """Fold outcome counts/rates into a :class:`repro.obs.MetricsRegistry`."""
        for outcome, count in self.counts.items():
            registry.counter(f"{prefix}{outcome.value}").inc(count)
        for outcome, rate in self.summary().items():
            registry.gauge(f"{prefix}{outcome}_rate").set(rate)
        registry.counter(f"{prefix}completed").inc(self.completed)
        registry.counter(f"{prefix}failed").inc(self.failed)


class FaultCampaign:
    """Runs the Monte-Carlo campaign described by a :class:`CampaignConfig`.

    Args:
        config: the campaign parameters.
        obs: optional :class:`repro.obs.TraceSink`.  Sequential runs
            attach it to every trial's hierarchy (hit/miss/recovery
            events stream out live) and wrap each trial in a span.
        fast: fork every trial from a cached warm snapshot instead of
            re-simulating the warmup prefix (requires
            ``config.shared_warmup``; see :mod:`repro.faults.warmstate`).
            Per-trial results are bit-identical to the legacy path.
        fast_equivalence: ``"never"`` (default) trusts the fast path;
            ``"always"`` *also* runs the legacy warm-every-trial path for
            every trial and raises :class:`~repro.errors.EquivalenceError`
            on any per-trial divergence (validation harness mode).
    """

    def __init__(
        self,
        config: CampaignConfig,
        obs=None,
        *,
        fast: bool = False,
        fast_equivalence: str = "never",
    ):
        if fast and not config.shared_warmup:
            raise ConfigurationError(
                "the snapshot-fork fast path needs shared_warmup=True: "
                "per-trial workload traces have nothing to share"
            )
        check_equivalence_mode(fast_equivalence, modes=FORCED_EQUIVALENCE_MODES)
        self.config = config
        self.obs = obs
        self.fast = fast
        self.fast_equivalence = fast_equivalence

    def _obs_or_none(self):
        return self.obs if self.obs is not None and self.obs.enabled else None

    def run(self, runtime=None) -> CampaignResult:
        """Execute every trial and return the aggregate.

        With ``runtime=None`` trials run sequentially in-process and any
        trial crash raises :class:`~repro.errors.TrialCrashError` (naming
        the trial) out of the sweep.  Passing a
        :class:`repro.runtime.CampaignRuntime` instead runs each trial in
        a worker subprocess with timeout/retry/checkpoint handling, and
        crashes degrade to :class:`TrialFailure` records.
        """
        if runtime is not None:
            from ..runtime.campaign import run_campaign

            return run_campaign(
                self.config,
                runtime,
                obs=self.obs,
                fast=self.fast,
                fast_equivalence=self.fast_equivalence,
            )
        obs = self._obs_or_none()
        result = CampaignResult(config=self.config)
        for trial in range(self.config.trials):
            start = time.perf_counter() if obs is not None else 0.0
            outcome = self._run_trial(trial)
            result.trials.append(outcome)
            if obs is not None:
                obs.span(
                    "campaign",
                    f"trial[{trial}]",
                    start,
                    time.perf_counter() - start,
                    {
                        "outcome": outcome.outcome.value,
                        "injected_bits": outcome.injected_bits,
                        "touched_units": outcome.touched_units,
                    },
                )
        return result

    # ------------------------------------------------------------------
    def _run_trial(self, trial: int, warm=None) -> TrialResult:
        """Run one trial; unexpected exceptions become structured crashes.

        ``KeyboardInterrupt`` is always re-raised (an interrupt is a user
        action, never an outcome); any other unexpected exception is
        wrapped in a :class:`TrialCrashError` carrying the trial index
        and derived seed so drivers can report *which* trial died.

        ``warm`` optionally supplies a pre-built
        :class:`~repro.faults.warmstate.WarmState` for the fast path
        (worker processes pass their digest-cached one); without it the
        fast path consults the module-level warm cache.
        """
        try:
            if self.fast:
                result = self._classify_trial_fast(trial, warm)
                if cross_checks(self.fast_equivalence):
                    raise_mismatches(
                        "snapshot-fork trial diverged from the legacy path",
                        trial_mismatches(
                            [result], [self._classify_trial(trial)], first=trial
                        ),
                    )
            else:
                result = self._classify_trial(trial)
            return result
        except KeyboardInterrupt:
            raise
        except EquivalenceError:
            raise
        except UncorrectableError as exc:
            # A DUE escaping the classification paths below would be a
            # harness bug; surface it as a crash, not a hang or mis-count.
            raise TrialCrashError(
                f"trial {trial}: unhandled machine check: {exc}",
                trial_index=trial,
                seed=self.config.trial_seed(trial),
            ) from exc
        except TrialCrashError:
            raise
        except Exception as exc:
            raise TrialCrashError(
                f"trial {trial} crashed: {type(exc).__name__}: {exc}",
                trial_index=trial,
                seed=self.config.trial_seed(trial),
            ) from exc

    def _classify_trial(self, trial: int) -> TrialResult:
        cfg = self.config
        obs = self._obs_or_none()
        hierarchy = MemoryHierarchy(protection_factory=cfg.scheme_factory)
        if obs is not None:
            hierarchy.set_observer(obs)
        golden = GoldenMemory()
        replayer = TraceReplayer(
            hierarchy, golden=golden, check_loads=True
        )
        workload = make_workload(cfg.benchmark, seed=cfg.workload_seed(trial))
        records = workload.records(
            cfg.warmup_references + cfg.post_fault_references
        )
        warmup = itertools.islice(records, cfg.warmup_references)

        try:
            for record in warmup:
                if replayer.step(record):
                    return TrialResult(
                        outcome=Outcome.SDC, detail="mismatch before injection"
                    )
        except UncorrectableError as exc:
            return TrialResult(outcome=Outcome.DUE, detail=f"warmup: {exc}")

        return self._finish_trial(trial, hierarchy, golden, replayer, records)

    def _classify_trial_fast(self, trial: int, warm=None) -> TrialResult:
        """Fork the cached warm state and simulate only the suffix.

        Bit-identical to :meth:`_classify_trial` under ``shared_warmup``:
        the restored hierarchy, golden image and cycle clock match the
        warmed-up originals exactly, and the injection RNG depends only
        on ``(seed, trial)`` plus the (identical) resident cache state.
        The observer, if any, sees injection/classification events but
        not the warmup prefix (simulated once, not per trial).
        """
        if warm is None:
            from .warmstate import warm_state_for

            warm = warm_state_for(self.config)
        hierarchy, golden, replayer = warm.fork()
        obs = self._obs_or_none()
        if obs is not None:
            hierarchy.set_observer(obs)
        return self._finish_trial(
            trial, hierarchy, golden, replayer, iter(warm.suffix_records)
        )

    def _finish_trial(
        self, trial: int, hierarchy, golden, replayer, records
    ) -> TrialResult:
        """Inject into a warmed-up hierarchy, replay the suffix, classify.

        ``records`` yields the post-warmup suffix only — the shared tail
        of the legacy and snapshot-fork paths.
        """
        cfg = self.config
        obs = self._obs_or_none()
        target = hierarchy.l1d if cfg.target_level == "L1D" else hierarchy.l2
        injector = FaultInjector(target, seed=(cfg.seed, trial))
        injection = self._inject(injector)
        if injection is None or not injection.flips:
            return TrialResult(outcome=Outcome.BENIGN, detail="no resident target")
        if obs is not None:
            obs.emit(
                "campaign",
                "inject",
                {
                    "trial": trial,
                    "level": cfg.target_level,
                    "kind": cfg.fault_kind,
                    "bits": injection.total_bits,
                    "units": len(injection.touched_units),
                },
            )

        detected_before = target.stats.detected_faults
        try:
            for record in records:  # the remaining post-fault slice
                if replayer.step(record):
                    return TrialResult(
                        outcome=Outcome.SDC,
                        injected_bits=injection.total_bits,
                        touched_units=len(injection.touched_units),
                        detail="load returned corrupted data",
                    )
            hierarchy.flush()
        except UncorrectableError as exc:
            return TrialResult(
                outcome=Outcome.DUE,
                injected_bits=injection.total_bits,
                touched_units=len(injection.touched_units),
                detail=str(exc),
            )

        byte_at = hierarchy.memory.byte_at
        for addr, expected in golden.items():
            if byte_at(addr) != expected:
                return TrialResult(
                    outcome=Outcome.SDC,
                    injected_bits=injection.total_bits,
                    touched_units=len(injection.touched_units),
                    detail=f"latent corruption at {addr:#x} after flush",
                )

        detected = target.stats.detected_faults > detected_before
        return TrialResult(
            outcome=Outcome.CORRECTED if detected else Outcome.BENIGN,
            injected_bits=injection.total_bits,
            touched_units=len(injection.touched_units),
        )

    def _inject(self, injector: FaultInjector) -> Optional[InjectionRecord]:
        cfg = self.config
        if cfg.fault_kind == "temporal":
            return injector.random_temporal(dirty_only=cfg.dirty_only)
        height, width = cfg.spatial_shape
        return injector.random_spatial(height=height, width=width)


def trial_mismatches(
    fast: Sequence[TrialResult], legacy: Sequence[TrialResult], first: int = 0
) -> List[str]:
    """How a snapshot-fork campaign diverges from the legacy loop.

    Compares the two runs' per-trial results (numbered from ``first``)
    and their trial counts; returns one line per mismatch, so an empty
    list means the runs are bit-identical.
    """
    problems = [
        f"trial {first + i}: fast={vars(b)!r} legacy={vars(a)!r}"
        for i, (a, b) in enumerate(zip(legacy, fast))
        if vars(a) != vars(b)
    ]
    if len(fast) != len(legacy):
        problems.append(f"trial count: fast={len(fast)} legacy={len(legacy)}")
    return problems

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
from ..memsim.cache import Cache
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.protection import CacheProtection
from ..memsim.snapshot import restore_hierarchy
from ..memsim.types import UnitLocation
from ..util.rng import split_seed
from ..workloads.replay import GoldenMemory, TraceReplayer
from ..workloads.spec import make_workload
from .injector import FaultInjector, InjectionRecord
from .models import BitFlip


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
        spatial_shape: (height, width) for spatial faults, both >= 1.
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
        for name in ("warmup_references", "post_fault_references"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        # Checked here so a bad shape fails before the warm-up is built,
        # not as a crash in every trial.
        shape = self.spatial_shape
        if not (
            isinstance(shape, tuple)
            and len(shape) == 2
            and all(isinstance(e, int) and e >= 1 for e in shape)
        ):
            raise ConfigurationError(
                "spatial_shape must be a (height, width) tuple of integers "
                f">= 1, got {shape!r}"
            )

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


#: How a trial was settled, in the order :class:`CampaignResult` reports
#: them: ``skipped`` replayed no suffix (it resumed at the end of the
#: golden suffix, as its struck units are never touched, or nothing was
#: resident to strike), ``rejoined`` replayed the suffix up to a golden
#: checkpoint where its state equals the golden run's (up to flips the
#: suffix never reads, which it then carries to the end of the golden
#: suffix, and whose lines alone leave in the flush) and not the rest,
#: ``replayed`` simulated the suffix from a golden checkpoint on, and
#: ``resumed`` was read back from a checkpoint.  Whether a trial then
#: ran the whole flush is counted apart (:attr:`TrialRun.flushed`).
SETTLE_PATHS = ("skipped", "rejoined", "replayed", "resumed")


@dataclasses.dataclass(frozen=True)
class TrialRun:
    """One finished trial: its result, plus how it was settled.

    The settle path is kept out of :class:`TrialResult`, which is what
    two runs of a trial are compared by.

    Attributes:
        result: the trial's classification.
        settled: one of :data:`SETTLE_PATHS` (never ``resumed``).
        replayed: suffix references the trial simulated.
        flushed: whether the trial ran the whole end-of-trial flush
            (:meth:`MemoryHierarchy.flush
            <repro.memsim.hierarchy.MemoryHierarchy.flush>`, a DUE
            included), rather than ending before it, rejoining the
            golden run, or settling it at its struck lines.
    """

    result: TrialResult
    settled: str = "replayed"
    replayed: int = 0
    flushed: bool = False


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """A trial the execution layer could not complete.

    Recorded after the retry policy is exhausted, so a campaign degrades
    to partial results with explicit accounting instead of dying.

    Attributes:
        trial_index: which trial failed.
        seed: the trial's derived seed identity
            (:meth:`CampaignConfig.trial_seed`).
        kind: ``"crash"`` or ``"timeout"``.
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

    ``settled`` counts the completed trials by :data:`SETTLE_PATHS`,
    ``replayed_references`` sums the suffix references they simulated,
    and ``flushed`` counts the trials that ran the whole end-of-trial
    flush (:attr:`TrialRun.flushed`).  The scalar reference and
    per-trial campaigns settle every trial as ``replayed`` and flush
    every trial that reaches the end of its suffix.

    ``warm_engine`` and ``warm_fallback`` say how the run's shared warmup
    was simulated (:attr:`WarmState.warm_engine
    <repro.faults.warmstate.WarmState.warm_engine>` and
    :attr:`~repro.faults.warmstate.WarmState.warm_fallback`); both are
    None when the run built no warm state: the scalar reference, a
    per-trial campaign, or a resumed one with no trial left to run.
    """

    config: CampaignConfig
    trials: List[TrialResult] = dataclasses.field(default_factory=list)
    failures: List[TrialFailure] = dataclasses.field(default_factory=list)
    settled: Dict[str, int] = dataclasses.field(
        default_factory=lambda: dict.fromkeys(SETTLE_PATHS, 0)
    )
    replayed_references: int = 0
    flushed: int = 0
    warm_engine: Optional[str] = None
    warm_fallback: Optional[str] = None

    def add(self, run: TrialRun) -> None:
        """Append a finished trial and count how it was settled."""
        self.trials.append(run.result)
        self.settled[run.settled] += 1
        self.replayed_references += run.replayed
        self.flushed += run.flushed

    def add_resumed(self, result: TrialResult) -> None:
        """Append a trial read back from a checkpoint."""
        self.trials.append(result)
        self.settled["resumed"] += 1

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
            "settled": dict(self.settled),
            "replayed_references": self.replayed_references,
            "flushed": self.flushed,
        }

    def export_metrics(self, registry, prefix: str = "campaign.") -> None:
        """Fold outcome counts/rates into a :class:`repro.obs.MetricsRegistry`."""
        for outcome, count in self.counts.items():
            registry.counter(f"{prefix}{outcome.value}").inc(count)
        for outcome, rate in self.summary().items():
            registry.gauge(f"{prefix}{outcome}_rate").set(rate)
        registry.counter(f"{prefix}completed").inc(self.completed)
        registry.counter(f"{prefix}failed").inc(self.failed)
        for path, count in self.settled.items():
            registry.counter(f"{prefix}settled.{path}").inc(count)
        registry.counter(f"{prefix}replayed_references").inc(
            self.replayed_references
        )
        registry.counter(f"{prefix}flushed").inc(self.flushed)


class FaultCampaign:
    """Runs the Monte-Carlo campaign described by a :class:`CampaignConfig`.

    The config chooses the engine.  Under ``config.shared_warmup`` every
    trial forks one warm snapshot, built once per run, and simulates
    only its post-warmup suffix (see :mod:`repro.faults.warmstate`);
    otherwise each trial warms its own hierarchy on its own trace.
    Per-trial results of the fork are bit-identical to the scalar
    reference, :meth:`run_scalar`, which warms every trial itself either
    way.

    Args:
        config: the campaign parameters.
        obs: optional :class:`repro.obs.TraceSink`.  Sequential runs
            attach it to every trial's hierarchy (hit/miss/recovery
            events stream out live) and wrap each trial in a span.
        equivalence: ``"never"`` (default) trusts the fork;
            ``"always"`` *also* runs the scalar reference for every
            trial and raises :class:`~repro.errors.EquivalenceError` on
            any per-trial divergence (validation harness mode).  Only a
            shared-warmup campaign forks, so only it can be checked.
    """

    def __init__(
        self,
        config: CampaignConfig,
        obs=None,
        *,
        equivalence: str = "never",
    ):
        check_equivalence_mode(equivalence, modes=FORCED_EQUIVALENCE_MODES)
        if cross_checks(equivalence) and not config.shared_warmup:
            raise ConfigurationError(
                "equivalence='always' needs shared_warmup=True: a per-trial "
                "campaign runs only the scalar reference, so there is "
                "nothing to compare"
            )
        self.config = config
        self.obs = obs
        self.equivalence = equivalence

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

        Under a shared warmup the run builds its warm state once, before
        the first trial (:func:`~repro.faults.warmstate.build_warm_state`,
        in the parent process on the runtime path), hands it to every
        trial and keeps nothing afterwards.  A failing build propagates as raised,
        as it does in :meth:`run_scalar`.
        """
        if runtime is not None:
            from ..runtime.campaign import run_campaign

            return run_campaign(
                self.config, runtime, obs=self.obs, equivalence=self.equivalence
            )
        warm = None
        if self.config.shared_warmup:
            from . import warmstate

            warm = warmstate.build_warm_state(self.config)
        result = self._run_sequential(lambda trial: self._run_trial(trial, warm))
        if warm is not None:
            result.warm_engine = warm.warm_engine
            result.warm_fallback = warm.warm_fallback
        return result

    def run_scalar(self) -> CampaignResult:
        """Execute every trial through the scalar reference, in-process.

        Each trial warms its own hierarchy and replays its whole trace
        (:meth:`_classify_trial`), whatever the config; no warm state is
        built.  This is what the fork is compared against, the campaign
        counterpart of
        :func:`repro.harness.experiments.run_benchmark_scalar`.  A trial
        crash propagates as raised.
        """
        return self._run_sequential(self._classify_trial)

    def _run_sequential(self, run_trial) -> CampaignResult:
        obs = self._obs_or_none()
        result = CampaignResult(config=self.config)
        for trial in range(self.config.trials):
            start = time.perf_counter() if obs is not None else 0.0
            run = run_trial(trial)
            result.add(run)
            if obs is not None:
                obs.span(
                    "campaign",
                    f"trial[{trial}]",
                    start,
                    time.perf_counter() - start,
                    {
                        "outcome": run.result.outcome.value,
                        "injected_bits": run.result.injected_bits,
                        "touched_units": run.result.touched_units,
                        "settled": run.settled,
                    },
                )
        return result

    # ------------------------------------------------------------------
    def _run_trial(self, trial: int, warm=None) -> TrialRun:
        """Run one trial; unexpected exceptions become structured crashes.

        ``KeyboardInterrupt`` is always re-raised (an interrupt is a user
        action, never an outcome); any other unexpected exception is
        wrapped in a :class:`TrialCrashError` carrying the trial index
        and derived seed so drivers can report *which* trial died.

        ``warm`` is the campaign's
        :class:`~repro.faults.warmstate.WarmState` under a shared warmup
        (built by :meth:`run`, or held by the worker that runs the trial)
        and None for a per-trial campaign.
        """
        try:
            if not self.config.shared_warmup:
                return self._classify_trial(trial)
            run = self._classify_trial_fast(trial, warm)
            if cross_checks(self.equivalence):
                raise_mismatches(
                    "snapshot-fork trial diverged from the legacy path",
                    trial_mismatches(
                        [run.result], [self._classify_trial(trial).result], first=trial
                    ),
                )
            return run
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

    def _classify_trial(self, trial: int) -> TrialRun:
        """The scalar reference: warm a fresh hierarchy on the trial's own
        trace, then inject, replay the whole suffix and flush."""
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
                    return TrialRun(
                        TrialResult(
                            outcome=Outcome.SDC, detail="mismatch before injection"
                        )
                    )
        except UncorrectableError as exc:
            return TrialRun(
                TrialResult(outcome=Outcome.DUE, detail=f"warmup: {exc}")
            )

        run, _changed = self._finish_trial(trial, hierarchy, golden, replayer, records)
        return run

    def _classify_trial_fast(self, trial: int, warm) -> TrialRun:
        """Fork the campaign's warm state ``warm`` and simulate only what
        the fault can change.

        Bit-identical to :meth:`_classify_trial` under ``shared_warmup``:
        the restored hierarchy, golden image and cycle clock match the
        warmed-up originals exactly, and the injection RNG depends only
        on ``(seed, trial)`` plus the (identical) resident cache state.
        The warm state's :class:`~repro.faults.warmstate.GoldenRecord`
        then settles the trial by the cheapest exact path
        (:meth:`_finish_trial`): every trial resumes at the golden
        checkpoint before its first touch, one the suffix never touches
        at the golden pre-flush state, where it drains only its struck
        lines, and any other trial replays from there and is classified
        where its state rejoins the golden one.

        The trial then hands its hierarchy back to ``warm``
        (:meth:`~repro.faults.warmstate.WarmState.release`) with the sets
        it may have changed, for the next fork to reset and reuse; one
        that raises drops it.

        The observer, if any, sees injection/classification events but
        not the warmup prefix (simulated once, not per trial), nor the
        suffix steps or the part of the flush a trial skips.
        """
        hierarchy, golden, replayer = warm.fork()
        obs = self._obs_or_none()
        if obs is not None:
            hierarchy.set_observer(obs)
        run, changed = self._finish_trial(
            trial,
            hierarchy,
            golden,
            replayer,
            warm.suffix_records,
            warm.golden_record,
        )
        warm.release(hierarchy, changed)
        return run

    def _finish_trial(
        self, trial: int, hierarchy, golden, replayer, records, golden_record=None
    ) -> Tuple[TrialRun, Optional[List[set]]]:
        """Inject into a warmed-up hierarchy, replay the suffix, classify.

        ``records`` yields the post-warmup suffix only — the shared tail
        of the legacy and snapshot-fork paths.  ``golden_record`` (the
        fork's :class:`~repro.faults.warmstate.GoldenRecord`, None for
        the scalar reference) lets the trial skip what its fault cannot
        change.  The fork resumes at the golden run's last checkpoint
        before the first touch of a struck unit
        (:meth:`~repro.faults.warmstate.GoldenRecord.checkpoints_for`,
        :meth:`~repro.faults.warmstate.GoldenRecord.resume`), and then:

        * a trial whose struck units the suffix never touches resumed at
          the end of the suffix, in the golden pre-flush state with its
          flips, which equals replaying the suffix: it is ``skipped``;
        * any other trial replays from its checkpoint.  If its state
          equals the golden one up to statistics at the first checkpoint
          after the last touch of a struck unit, or at the end of the
          suffix (:meth:`~repro.faults.warmstate.GoldenRecord.rejoins_at`),
          the rest of the suffix and the flush would repeat the golden
          run's, which loads correct data, leaves memory correct and
          detects nothing: the trial is CORRECTED when its target's
          ``detected_faults`` rose and BENIGN otherwise, exactly what
          the flush would conclude.  Only this classification reads the
          statistics the comparison leaves out.  If it equals the golden
          state only up to flips in struck units the suffix never
          touches, it is restored to the warm snapshot, flipped there
          again and resumed at the end of the suffix, like an untouched
          trial, a detection in the suffix counting toward CORRECTED.

        A trial in the golden pre-flush state with flips settles the
        flush at its struck lines (:func:`_flush_struck_lines`) if the
        golden flush was clean and no upper level's drain touches a
        struck unit
        (:meth:`~repro.faults.warmstate.GoldenRecord.settles_flush`);
        every other trial runs the whole flush.

        Returns the trial and, for a fork, the sets per level where its
        hierarchy may now differ from the warm snapshot
        (:meth:`~repro.faults.warmstate.GoldenRecord.changed_sets`), or
        None where it may differ anywhere: after the whole flush, a DUE
        or a replay without the golden record.
        """
        cfg = self.config
        obs = self._obs_or_none()
        target = hierarchy.l1d if cfg.target_level == "L1D" else hierarchy.l2
        injector = FaultInjector(target, seed=(cfg.seed, trial))
        injection = self._inject(injector)
        if injection is None or not injection.flips:
            run = TrialRun(
                TrialResult(outcome=Outcome.BENIGN, detail="no resident target"),
                "replayed" if golden_record is None else "skipped",
            )
            return run, [()] * len(hierarchy.levels())
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
        replayed_from = replayer.result.references
        struck = injection.touched_units
        path = "replayed"
        flushed = False
        # The flips a struck-line settle of the flush evicts, if any.
        inert = None
        detected_in_suffix = False
        # The golden checkpoint the fork last resumed at, and the sets
        # its own replay reached since the first.
        resumed = recorder = None
        # The flips whose lines the flush was settled at.
        flush_settled = []

        def changed() -> List[set]:
            return golden_record.changed_sets(
                hierarchy,
                resumed,
                recorder.reached(hierarchy),
                target,
                struck,
                [flip.loc for flip in flush_settled],
            )

        def settle(outcome, detail="") -> Tuple[TrialRun, Optional[List[set]]]:
            run = TrialRun(
                TrialResult(
                    outcome=outcome,
                    injected_bits=injection.total_bits,
                    touched_units=len(struck),
                    detail=detail,
                ),
                path,
                replayer.result.references - replayed_from,
                flushed,
            )
            if recorder is None or flushed or outcome is Outcome.DUE:
                return run, None
            return run, changed()

        def classify() -> Tuple[TrialRun, Optional[List[set]]]:
            """CORRECTED when the target detected a fault, else BENIGN."""
            detected = target.stats.detected_faults > detected_before
            return settle(
                Outcome.CORRECTED
                if detected or detected_in_suffix
                else Outcome.BENIGN
            )

        def replay(part) -> bool:
            """Replay ``part``; True when a load returned corrupted data."""
            return any(replayer.step(record) for record in part)

        try:
            if golden_record is None:
                if replay(records):  # the remaining post-fault slice
                    return settle(Outcome.SDC, "load returned corrupted data")
            else:
                from .warmstate import SetRecorder

                start, checks = golden_record.checkpoints_for(target, struck)
                end = golden_record.checkpoints[-1]
                golden_record.resume(start, hierarchy, golden, replayer)
                resumed = start
                recorder = SetRecorder(hierarchy, obs)
                hierarchy.set_observer(recorder)
                try:
                    step = start.step
                    for check in checks:
                        if replay(records[step : check.step]):
                            return settle(Outcome.SDC, "load returned corrupted data")
                        step = check.step
                        inert = golden_record.rejoins_at(
                            start,
                            check,
                            hierarchy,
                            recorder.reached(hierarchy),
                            target,
                            injection.flips,
                        )
                        if inert is not None:
                            break
                    else:
                        if replay(records[step:]):
                            return settle(Outcome.SDC, "load returned corrupted data")
                finally:
                    hierarchy.set_observer(obs)
                if start is end:
                    path = "skipped"
                    inert = injection.flips
                elif inert is not None:
                    path = "rejoined"
                    if not inert:
                        return classify()
                    detected_in_suffix = target.stats.detected_faults > detected_before
                    restore_hierarchy(golden_record.base, hierarchy, sets=changed())
                    for flip in inert:
                        target.corrupt_data(flip.loc, flip.mask)
                    golden_record.resume(end, hierarchy, golden, replayer)
                    resumed = end
            if inert is not None and golden_record.settles_flush(
                target, [flip.loc for flip in inert]
            ):
                flush_settled = inert
                addr = _flush_struck_lines(target, inert, golden)
            else:
                flushed = True
                hierarchy.flush()
                addr = hierarchy.memory.first_mismatch(golden.items())
        except UncorrectableError as exc:
            return settle(Outcome.DUE, str(exc))

        if addr is not None:
            return settle(Outcome.SDC, f"latent corruption at {addr:#x} after flush")
        return classify()

    def _inject(self, injector: FaultInjector) -> Optional[InjectionRecord]:
        cfg = self.config
        if cfg.fault_kind == "temporal":
            return injector.random_temporal(dirty_only=cfg.dirty_only)
        height, width = cfg.spatial_shape
        return injector.random_spatial(height=height, width=width)


def _flush_struck_lines(
    target: Cache, flips: Sequence[BitFlip], golden: GoldenMemory
) -> Optional[int]:
    """Settle a trial's flush at the lines ``flips`` strike: the first
    golden-image address the flush would leave corrupted, or None.

    Evicts, in line order, the struck lines the target's own flush reads
    (:meth:`Cache.flush_lines <repro.memsim.cache.Cache.flush_lines>`),
    and nothing else.  That is exact when the trial's pre-flush state is
    the golden one with ``flips`` (it skipped the suffix, or rejoined the
    golden run up to these inert flips) and
    :meth:`~repro.faults.warmstate.GoldenRecord.settles_flush` holds.
    The whole flush is the golden drain until it reads a struck unit,
    and from there on the eviction of a struck line reads the same state
    however far the drain got: evicting or storing fault-free words
    leaves CPPC's per-pair ``R1 ^ R2 ^ XOR(rotated dirty words)`` and
    2-D parity's ``vertical ^ XOR(resident units)`` as they are, and a
    refetch reads the next level's copy of the struck block, which no
    earlier drain step changes.  So the struck lines raise the flush's
    DUE, if any, and write back what the flush would.

    The rest of the flush reads only fault-free units, as the clean
    golden flush did, so it detects nothing more, and a written-back
    block that differs from its golden bytes (its bytes before eviction
    with the flips undone) reaches memory as it is.  Raises
    :class:`~repro.errors.UncorrectableError` on a DUE.
    """
    ways = target.ways
    ub = target.unit_bytes
    expected: Dict[int, bytearray] = {}
    for flip in flips:
        loc = flip.loc
        line = loc.set_index * ways + loc.way
        block = expected.get(line)
        if block is None:
            block = expected[line] = bytearray(target.line(loc.set_index, loc.way).data)
        off = loc.unit_index * ub
        value = int.from_bytes(block[off : off + ub], "big") ^ flip.mask
        block[off : off + ub] = value.to_bytes(ub, "big")
    corrupted = {
        target.address_of(UnitLocation(*divmod(line, ways), 0)): block
        for line, block in target.flush_lines(expected).items()
        if block != expected[line]
    }
    if not corrupted:
        return None
    # What memory.first_mismatch would find, over these blocks only.
    mask = target.block_bytes - 1
    for addr, value in golden.items():
        block = corrupted.get(addr & ~mask)
        if block is not None and block[addr & mask] != value:
            return addr
    return None


def trial_mismatches(
    run: Sequence[TrialResult],
    reference: Sequence[TrialResult],
    first: int = 0,
) -> List[str]:
    """How one campaign run's trials diverge from a reference run's.

    Compares the snapshot-fork run's per-trial results (numbered from
    ``first``) and trial count with the legacy loop's; returns one line
    per mismatch, so an empty list means the runs are bit-identical.
    """
    problems = [
        f"trial {first + i}: fast={vars(b)!r} legacy={vars(a)!r}"
        for i, (a, b) in enumerate(zip(reference, run))
        if vars(a) != vars(b)
    ]
    if len(run) != len(reference):
        problems.append(f"trial count: fast={len(run)} legacy={len(reference)}")
    return problems

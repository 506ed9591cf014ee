"""Exception hierarchy for the CPPC reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters.

    ``reason`` marks parameters that are valid but outside what a fast
    engine models: a short stable token (such as ``"unit_bytes"``) that
    a caller falling back to the scalar reference reports and counts.
    """

    def __init__(self, *args, reason: Optional[str] = None):
        super().__init__(*args)
        self.reason = reason


class AlignmentError(ReproError):
    """A memory access violated the alignment rules of the simulator."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class UncorrectableError(ReproError):
    """An error was detected that the active protection scheme cannot correct.

    This models a DUE (Detected Unrecoverable Error) — the machine-check
    exception of paper Section 4.4 step 7.  The simulator raises it so fault
    campaigns can classify the outcome.
    """

    def __init__(self, message: str, *, detail: object = None):
        super().__init__(message)
        self.detail = detail


class FaultLocatorError(UncorrectableError):
    """The spatial fault locator could not uniquely locate the faulty bits."""


class TraceFormatError(ReproError):
    """A trace record or trace file could not be parsed."""


class CampaignRuntimeError(ReproError, RuntimeError):
    """Base class for failures of the campaign *execution layer*.

    These errors are about running trials (worker processes, timeouts,
    checkpoints), never about the simulated architecture itself — an
    :class:`UncorrectableError` is a modeled machine check, a
    :class:`CampaignRuntimeError` is the harness breaking.  Instances
    cross process boundaries, so subclasses must stay picklable; the
    ``__reduce__`` here preserves keyword state through the round trip.
    """

    def __reduce__(self):
        return (_rebuild_error, (self.__class__, self.args, self.__dict__))


def _rebuild_error(cls, args, state):
    """Unpickle helper: rebuild a :class:`CampaignRuntimeError` subclass."""
    err = cls.__new__(cls)
    Exception.__init__(err, *args)
    err.__dict__.update(state)
    return err


class TrialCrashError(CampaignRuntimeError):
    """A campaign trial raised an unexpected exception (or its worker died).

    Carries the trial index and derived seed so drivers can report
    exactly which trial failed and reproduce it in isolation.
    """

    def __init__(self, message: str, *, trial_index=None, seed=None):
        super().__init__(message)
        self.trial_index = trial_index
        self.seed = seed


class TrialTimeoutError(CampaignRuntimeError):
    """A campaign trial exceeded its wall-clock budget and was killed."""

    def __init__(self, message: str, *, trial_index=None, seed=None,
                 timeout_s=None):
        super().__init__(message)
        self.trial_index = trial_index
        self.seed = seed
        self.timeout_s = timeout_s


class CheckpointCorruptError(CampaignRuntimeError):
    """A campaign checkpoint could not be trusted (bad digest, torn
    record in the middle of the log, or a manifest that does not match
    the campaign being resumed)."""


class CheckpointWarning(UserWarning):
    """A checkpoint survived an imperfection: a torn tail line dropped on
    load (its trial re-executes), or an append that failed once and was
    rolled back and retried."""


class SnapshotError(ReproError):
    """A simulator state snapshot could not be taken or restored.

    Raised by :mod:`repro.memsim.snapshot` when a cache uses a protection
    scheme or replacement policy the snapshot layer does not know how to
    serialize, or when a snapshot is restored into a hierarchy whose
    geometry or scheme does not match the one it was taken from.
    """


class EquivalenceError(SimulationError):
    """A fast path and its scalar reference disagreed.

    Raised when a cross-check finds any divergence, usually through
    :func:`raise_mismatches`; ``mismatches`` lists every mismatching
    line, statistic, register, event or trial.
    """

    def __init__(self, message: str, *, mismatches=None):
        super().__init__(message)
        self.mismatches = list(mismatches or [])


#: ``equivalence=`` modes of the fast paths.  ``"auto"`` cross-checks a
#: run of at most :data:`DEFAULT_EQUIVALENCE_LIMIT` references against
#: the scalar reference; ``"always"`` and ``"never"`` force either
#: behaviour.
EQUIVALENCE_MODES = ("auto", "always", "never")

#: The modes of a fast path with no run size for ``"auto"`` to gate on
#: (a fault campaign cross-checks trial by trial).
FORCED_EQUIVALENCE_MODES = EQUIVALENCE_MODES[1:]

#: ``"auto"`` cross-checks runs of at most this many references.
DEFAULT_EQUIVALENCE_LIMIT = 2048


def check_equivalence_mode(mode: str, modes: Sequence[str] = EQUIVALENCE_MODES) -> None:
    """Raise :class:`ConfigurationError` unless ``mode`` is one of ``modes``."""
    if mode not in modes:
        raise ConfigurationError(
            f"equivalence mode must be one of {modes}, got {mode!r}"
        )


def cross_checks(mode: str, references: int = 0) -> bool:
    """Whether a run of ``references`` references is cross-checked."""
    return mode == "always" or (
        mode == "auto" and references <= DEFAULT_EQUIVALENCE_LIMIT
    )


def raise_mismatches(message: str, mismatches: Sequence[str]) -> None:
    """Raise :class:`EquivalenceError` when ``mismatches`` is non-empty.

    The message is ``message`` followed by the first ten mismatches.
    """
    if mismatches:
        raise EquivalenceError(
            f"{message}:\n  " + "\n  ".join(mismatches[:10]),
            mismatches=mismatches,
        )

"""Trace sinks: where instrumented components send their events.

Two event shapes cover everything the simulator wants to say:

* an **instant** — a point event (``cache miss``, ``register repair``,
  ``recovery audit``) with a category, a name and a JSON-safe ``args``
  dict;
* a **span** — a named interval with a start timestamp and a duration
  (replay phases, campaign trials, recovery passes).

Timestamps are ``time.perf_counter()`` seconds.  Sinks are explicitly
*not* thread-safe; one sink belongs to one replay/campaign driver.

Emission sites throughout the simulator are guarded by a cached
``enabled`` predicate, so a :class:`NullSink` (or no sink at all) keeps
the hot paths on their uninstrumented branch — the property the
``run_bench --max-obs-overhead`` CI gate enforces.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..errors import ConfigurationError, ReproError
from ..util.jsonio import canonical_json, line_checksum, read_checked_lines


class TraceSink:
    """Protocol for event consumers.

    Subclasses override :meth:`emit` and :meth:`span`; the base class
    provides the lifecycle plumbing (``flush``/``close``/context
    manager) and the ``enabled`` flag the instrumented components cache.
    """

    #: Components skip their emission sites entirely when this is False.
    enabled: bool = True

    def emit(
        self,
        category: str,
        name: str,
        args: Optional[dict] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Record one instant event."""
        raise NotImplementedError

    def span(
        self,
        category: str,
        name: str,
        start: float,
        duration: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record one completed interval (``start``/``duration`` seconds)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events toward durable storage."""

    def close(self) -> None:
        """Flush and release resources; the sink is unusable afterwards."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """The disabled sink: every emission site is skipped."""

    enabled = False

    def emit(self, category, name, args=None, ts=None):  # pragma: no cover
        pass

    def span(self, category, name, start, duration, args=None):  # pragma: no cover
        pass


class JsonlSink(TraceSink):
    """One checksummed JSON line per event, append-only.

    Reuses the :mod:`repro.runtime.checkpoint` writer discipline: each
    line is canonical JSON carrying a content checksum, writes happen in
    order, and the file is flushed + fsync'd every ``fsync_every``
    events and on close — so a crash can tear at most the final line,
    which :func:`read_jsonl_trace` silently drops (corruption anywhere
    earlier is an error).
    """

    def __init__(self, path: Union[str, Path], *, fsync_every: int = 256):
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fsync_every = fsync_every
        self._pending = 0
        self.events_written = 0

    def _write(self, body: dict) -> None:
        if self._fh is None:
            raise ReproError(f"JsonlSink {self.path} is closed")
        line = canonical_json({**body, "crc": line_checksum(body)})
        self._fh.write(line + "\n")
        self.events_written += 1
        self._pending += 1
        if self._pending >= self._fsync_every:
            self.flush()

    def emit(self, category, name, args=None, ts=None):
        self._write(
            {
                "ph": "i",
                "ts": time.perf_counter() if ts is None else ts,
                "cat": category,
                "name": name,
                "args": args or {},
            }
        )

    def span(self, category, name, start, duration, args=None):
        self._write(
            {
                "ph": "X",
                "ts": start,
                "dur": duration,
                "cat": category,
                "name": name,
                "args": args or {},
            }
        )

    def flush(self):
        if self._fh is None or not self._pending:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self):
        if self._fh is None:
            return
        self._pending = self._pending or 1  # force the final fsync
        self.flush()
        self._fh.close()
        self._fh = None


class ChromeTraceSink(TraceSink):
    """Buffers events and writes a ``chrome://tracing``-loadable file.

    The output is the Trace Event Format's JSON-object form
    (``{"traceEvents": [...]}``), loadable in ``chrome://tracing`` and
    `Perfetto <https://ui.perfetto.dev>`_.  Spans become complete
    (``"ph": "X"``) events; instants become ``"ph": "i"``.  Timestamps
    are rebased to the first event and converted to microseconds.
    """

    def __init__(self, path: Union[str, Path], *, process_name: str = "repro"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.process_name = process_name
        self._events: List[dict] = []
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError(f"ChromeTraceSink {self.path} is closed")

    def emit(self, category, name, args=None, ts=None):
        self._check_open()
        self._events.append(
            {
                "ph": "i",
                "s": "t",
                "ts": time.perf_counter() if ts is None else ts,
                "cat": category,
                "name": name,
                "pid": 1,
                "tid": 1,
                "args": args or {},
            }
        )

    def span(self, category, name, start, duration, args=None):
        self._check_open()
        self._events.append(
            {
                "ph": "X",
                "ts": start,
                "dur": duration,
                "cat": category,
                "name": name,
                "pid": 1,
                "tid": 1,
                "args": args or {},
            }
        )

    def close(self):
        if self._closed:
            return
        base = min((e["ts"] for e in self._events), default=0.0)
        for event in self._events:
            event["ts"] = round((event["ts"] - base) * 1e6, 3)
            if "dur" in event:
                event["dur"] = round(event["dur"] * 1e6, 3)
        document = {
            "traceEvents": [
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": 1,
                    "tid": 1,
                    "args": {"name": self.process_name},
                }
            ]
            + self._events,
            "displayTimeUnit": "ms",
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._events = []
        self._closed = True


def make_sink(path: Union[str, Path, None]) -> TraceSink:
    """Build the right sink for ``path`` (CLI ``--trace-out`` helper).

    ``*.json`` → :class:`ChromeTraceSink`; anything else (conventionally
    ``*.jsonl``) → :class:`JsonlSink`; ``None`` → :class:`NullSink`.
    """
    if path is None:
        return NullSink()
    if str(path).endswith(".json"):
        return ChromeTraceSink(path)
    return JsonlSink(path)


def read_jsonl_trace(
    path: Union[str, Path], *, category: Optional[str] = None
) -> Iterator[dict]:
    """Yield verified events from a :class:`JsonlSink` file.

    Every line's checksum is validated
    (:func:`~repro.util.jsonio.read_checked_lines`); a torn *final* line
    (the one a crash can interrupt) is dropped, corruption anywhere
    earlier raises :class:`~repro.errors.ReproError`.  ``category``
    filters events.
    """
    events, _torn = read_checked_lines(
        path, lambda where: ReproError(f"corrupt trace event at {where}")
    )
    for body in events:
        if category is None or body.get("cat") == category:
            yield body

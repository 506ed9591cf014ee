"""Checksummed canonical-JSON line records and a self-healing appender.

The writer discipline shared by campaign checkpoints
(:class:`repro.runtime.checkpoint.CheckpointStore`) and trace sinks
(:class:`repro.obs.JsonlSink`): each record is one line of canonical JSON
(sorted keys, no whitespace) carrying a short content checksum, so a
reader can detect corruption and distinguish a torn tail line (crash
mid-append) from damage anywhere earlier.  :func:`read_checked_lines` is
that reader, shared by both.

:class:`JsonlAppender` is the durable writer half of that discipline —
append + flush + fsync per record, with a remembered *good offset* (the
end of the last record known durable) so an I/O error mid-append can be
rolled back by truncating to the good offset and retrying once.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..errors import CheckpointWarning


def canonical_json(payload: dict) -> str:
    """Canonical single-line JSON rendering of ``payload``."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def line_checksum(payload: dict) -> str:
    """Content checksum of one record (sha256 prefix of its canonical form)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def read_checked_lines(
    path, corrupt: Callable[[str], Exception]
) -> Tuple[List[dict], bool]:
    """Read the checksummed records of the JSONL file at ``path``.

    Each line must parse as a JSON object whose ``crc`` is the
    :func:`line_checksum` of the rest of it.  Only the final line can be
    torn by a crash mid-append, so a final line that fails is dropped;
    one that fails anywhere earlier raises ``corrupt(reason)``, where
    ``reason`` names the line (``path:lineno: why``).

    Returns every record without its ``crc``, in file order, and whether
    a torn final line was dropped (it was line ``len(records) + 1``).
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records = []
    for lineno, line in enumerate(lines, 1):
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise ValueError("record is not an object")
            body = {k: v for k, v in raw.items() if k != "crc"}
            if raw.get("crc") != line_checksum(body):
                raise ValueError("checksum mismatch")
        except ValueError as exc:
            if lineno == len(lines):
                return records, True
            raise corrupt(f"{path}:{lineno}: {exc}") from None
        records.append(body)
    return records, False


class JsonlAppender:
    """Append-only JSONL writer with fsync discipline and self-healing.

    Every :meth:`append` writes one line, flushes, and fsyncs before
    returning, so a record is durable (or the call raised) — the
    invariant :class:`~repro.runtime.checkpoint.CheckpointStore` builds
    its torn-tail tolerance on.  On an :class:`OSError` anywhere in that
    sequence (a full disk, a short write, a failed fsync) the file is
    truncated back to the last known-good offset (discarding any partial
    line the failed write left behind) and the append is retried once on
    a freshly opened handle, with a
    :class:`~repro.errors.CheckpointWarning`; a second failure
    propagates.

    Args:
        path: the JSONL file; created on first append.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._good_offset: Optional[int] = None

    # ------------------------------------------------------------------
    def _open(self):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._good_offset is None:
                self._good_offset = self._fh.tell()
        return self._fh

    def append(self, line: str) -> None:
        """Durably append ``line`` (newline added); self-heal one failure."""
        try:
            self._write(line)
        except OSError as exc:
            self._rollback()
            self._write(line)
            warnings.warn(
                f"append to {self.path} failed ({exc}); rolled back to the "
                "last durable record and retried",
                CheckpointWarning,
                stacklevel=2,
            )
        self._good_offset = self._fh.tell()

    def _write(self, line: str) -> None:
        fh = self._open()
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def _rollback(self) -> None:
        """Truncate back to the last durable record boundary."""
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # pragma: no cover - close-after-error race
                pass
        if self._good_offset is not None and self.path.exists():
            with open(self.path, "rb+") as raw:
                raw.truncate(self._good_offset)
                raw.flush()
                os.fsync(raw.fileno())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the handle (appended records are already durable)."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Crash-safe campaign checkpoints: append-only JSONL plus a manifest.

Layout of one checkpoint directory (one campaign configuration)::

    <dir>/MANIFEST.json   # written once, atomically (tmp + os.replace)
    <dir>/trials.jsonl    # one fsync'd record per finished trial

Every record carries the ``(config_digest, trial_index, seed)`` identity
of its trial plus a content checksum.  A SIGKILL can tear at most the
final record (appends are flushed and fsync'd in order), so ``load``
drops a torn *tail* line with a :class:`~repro.errors.CheckpointWarning`
but treats corruption anywhere earlier — or a manifest that does not
match the campaign being resumed — as
:class:`~repro.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Dict, Optional

from ..errors import (
    CheckpointCorruptError,
    CheckpointWarning,
    ConfigurationError,
)
from ..util.jsonio import (
    JsonlAppender,
    canonical_json,
    line_checksum,
    read_checked_lines,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
LOG_NAME = "trials.jsonl"


# The canonical-JSON + checksum line discipline lives in repro.util so
# trace sinks (repro.obs.sinks) share it without importing this package.
_canonical = canonical_json
_checksum = line_checksum


def _factory_token(factory) -> str:
    """Stable identity of a scheme factory for digest purposes."""
    qualname = getattr(factory, "__qualname__", None)
    if qualname is not None:
        return f"{getattr(factory, '__module__', '?')}.{qualname}"
    return repr(factory)


def campaign_digest(config) -> str:
    """Stable hex digest identifying one :class:`CampaignConfig`.

    Two processes building the same campaign must agree on this digest,
    so it hashes a canonical JSON view of the config — with the scheme
    factory reduced to its stable repr/qualified name — rather than any
    pickle bytes.
    """
    view = {
        "scheme": _factory_token(config.scheme_factory),
        "benchmark": config.benchmark,
        "trials": config.trials,
        "warmup_references": config.warmup_references,
        "post_fault_references": config.post_fault_references,
        "fault_kind": config.fault_kind,
        "spatial_shape": list(config.spatial_shape),
        "dirty_only": config.dirty_only,
        "target_level": config.target_level,
        "seed": repr(config.seed),
    }
    # Only stamped when set, so digests of pre-existing campaigns (and
    # their resumable checkpoints) are unchanged.
    if config.shared_warmup:
        view["shared_warmup"] = True
    return hashlib.sha256(_canonical(view).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """One durably recorded trial."""

    trial_index: int
    seed: int
    kind: str  # "result" or "failure"
    payload: dict


class CheckpointStore:
    """Append-only, fsync'd store of finished trials for one campaign."""

    def __init__(
        self,
        directory,
        *,
        config_digest: str,
        resume: bool = False,
    ):
        self.directory = Path(directory)
        self.config_digest = config_digest
        self._lock = threading.Lock()
        self._log: Optional[JsonlAppender] = None
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {self.directory} already exists; pass "
                    "resume=True (--resume) to continue it or point at a "
                    "fresh directory"
                )
            self._verify_manifest(manifest_path)
        else:
            if resume and self.directory.exists() and any(self.directory.iterdir()):
                raise CheckpointCorruptError(
                    f"checkpoint {self.directory} has no manifest but is "
                    "not empty"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            self._write_manifest(manifest_path)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _manifest_view(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config_digest": self.config_digest,
            "log": LOG_NAME,
        }

    def _write_manifest(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_canonical(self._manifest_view()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_directory()

    def _verify_manifest(self, path: Path) -> None:
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"unreadable checkpoint manifest {path}: {exc}"
            ) from exc
        if manifest.get("format_version") != FORMAT_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint {path} has format version "
                f"{manifest.get('format_version')!r}; expected "
                f"{FORMAT_VERSION}"
            )
        if manifest.get("config_digest") != self.config_digest:
            raise CheckpointCorruptError(
                f"checkpoint {self.directory} belongs to a different "
                f"campaign (digest {manifest.get('config_digest')!r} != "
                f"{self.config_digest!r})"
            )

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Log
    # ------------------------------------------------------------------
    @property
    def log_path(self) -> Path:
        """Path of the append-only trial log."""
        return self.directory / LOG_NAME

    def record(self, trial_index: int, seed: int, kind: str, payload: dict) -> None:
        """Durably append one finished trial (append + flush + fsync).

        Appends go through :class:`~repro.util.jsonio.JsonlAppender`, so
        a transient I/O failure is healed by rolling the log back to the
        last durable record and retrying once, with a
        :class:`~repro.errors.CheckpointWarning` — the record is durable
        when this returns, or it raised.
        """
        body = {
            "config_digest": self.config_digest,
            "trial_index": trial_index,
            "seed": seed,
            "kind": kind,
            "payload": payload,
        }
        line = _canonical({**body, "crc": _checksum(body)})
        with self._lock:
            if self._log is None:
                self._log = JsonlAppender(self.log_path)
            self._log.append(line)

    def load(self) -> Dict[int, CheckpointRecord]:
        """Read back every trustworthy record, keyed by trial index.

        A torn final line (the one write a SIGKILL or a failed disk can
        interrupt: it fails to parse or its checksum) is dropped with a
        :class:`~repro.errors.CheckpointWarning` — its trial simply
        re-executes on resume.  A bad line anywhere before it, or a whole
        record of another campaign anywhere, raises
        :class:`CheckpointCorruptError`.
        """
        records: Dict[int, CheckpointRecord] = {}
        if not self.log_path.exists():
            return records
        bodies, torn = read_checked_lines(
            self.log_path,
            lambda where: CheckpointCorruptError(
                f"corrupt checkpoint record at {where}"
            ),
        )
        for lineno, body in enumerate(bodies, 1):
            if body.get("config_digest") != self.config_digest:
                raise CheckpointCorruptError(
                    f"checkpoint record at {self.log_path}:{lineno} belongs "
                    "to a different campaign"
                )
            records[body["trial_index"]] = CheckpointRecord(
                trial_index=body["trial_index"],
                seed=body["seed"],
                kind=body["kind"],
                payload=body["payload"],
            )
        if torn:
            warnings.warn(
                f"dropping torn trailing checkpoint record at "
                f"{self.log_path}:{len(bodies) + 1}; its trial will "
                "re-execute on resume",
                CheckpointWarning,
                stacklevel=2,
            )
        return records

    def close(self) -> None:
        """Close the log file handle (records already durable)."""
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

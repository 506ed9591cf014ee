"""Tests for the crash-safe checkpoint store and config digests."""

import builtins
import errno
import json
import os
import warnings

import pytest

from repro.errors import (
    CheckpointCorruptError,
    CheckpointWarning,
    ConfigurationError,
)
from repro.faults import CampaignConfig, scheme_factory
from repro.runtime import CheckpointStore, campaign_digest
from repro.util import jsonio

DIGEST = "a" * 64


def make_store(directory, *, digest=DIGEST, resume=False):
    return CheckpointStore(directory, config_digest=digest, resume=resume)


class FaultyDisk:
    """Makes the next checkpoint writes raise :class:`OSError` on demand.

    ``enospc`` fails a write before a byte lands, ``torn`` after half the
    line reached the file, and ``fsync`` after the whole line did.
    """

    def __init__(self, monkeypatch):
        self.pending = []
        real_open, real_fsync = builtins.open, os.fsync

        def fsync(fd):
            if self.take("fsync"):
                raise OSError(errno.EIO, "Input/output error")
            return real_fsync(fd)

        def open_(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            return _FaultyFile(fh, self) if mode == "a" else fh

        monkeypatch.setattr(jsonio.os, "fsync", fsync)
        monkeypatch.setattr(jsonio, "open", open_, raising=False)

    def fail(self, fault, times=1):
        self.pending = [fault] * times

    def take(self, fault):
        if self.pending and self.pending[-1] == fault:
            self.pending.pop()
            return True
        return False


class _FaultyFile:
    """An append handle that fails the writes its :class:`FaultyDisk` arms."""

    def __init__(self, fh, disk):
        self._fh = fh
        self._disk = disk

    def write(self, data):
        if self._disk.take("enospc"):
            raise OSError(errno.ENOSPC, "No space left on device")
        if self._disk.take("torn"):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(errno.EIO, "Input/output error")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def disk(monkeypatch):
    return FaultyDisk(monkeypatch)


class TestRoundTrip:
    def test_record_then_load(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 111, "result", {"outcome": "benign"})
        store.record(2, 333, "failure", {"kind": "timeout"})
        store.close()
        records = make_store(tmp_path / "ckpt", resume=True).load()
        assert set(records) == {0, 2}
        assert records[0].seed == 111
        assert records[0].kind == "result"
        assert records[0].payload == {"outcome": "benign"}
        assert records[2].kind == "failure"

    def test_duplicate_trial_keeps_latest(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 1, "result", {"outcome": "benign"})
        store.record(0, 1, "result", {"outcome": "due"})
        store.close()
        records = make_store(tmp_path / "ckpt", resume=True).load()
        assert records[0].payload == {"outcome": "due"}

    def test_empty_store_loads_empty(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        assert store.load() == {}


class TestCrashSafety:
    def test_torn_tail_line_is_dropped_with_warning(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 1, "result", {"outcome": "benign"})
        store.record(1, 2, "result", {"outcome": "due"})
        store.close()
        log = tmp_path / "ckpt" / "trials.jsonl"
        lines = log.read_text().splitlines()
        log.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = make_store(tmp_path / "ckpt", resume=True)
        with pytest.warns(CheckpointWarning, match="re-execute"):
            records = resumed.load()
        # The torn trial is simply absent, so resume re-executes it.
        assert set(records) == {0}

    def test_clean_load_emits_no_warning(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 1, "result", {"outcome": "benign"})
        store.close()
        resumed = make_store(tmp_path / "ckpt", resume=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointWarning)
            records = resumed.load()
        assert set(records) == {0}

    def test_injected_io_fault_is_absorbed_and_counted(self, tmp_path, disk):
        store = make_store(tmp_path / "ckpt")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            disk.fail("enospc")
            store.record(0, 1, "result", {"outcome": "benign"})
            store.record(1, 2, "result", {"outcome": "due"})
            disk.fail("torn")
            store.record(2, 3, "result", {"outcome": "sdc"})
        store.close()
        # One warning per healed append is the count of absorbed faults.
        assert [w.category for w in caught] == [CheckpointWarning] * 2
        records = make_store(tmp_path / "ckpt", resume=True).load()
        assert set(records) == {0, 1, 2}
        assert records[2].payload == {"outcome": "sdc"}

    def test_corruption_before_tail_raises(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 1, "result", {"outcome": "benign"})
        store.record(1, 2, "result", {"outcome": "due"})
        store.close()
        log = tmp_path / "ckpt" / "trials.jsonl"
        lines = log.read_text().splitlines()
        log.write_text("garbage{{{\n" + lines[1] + "\n")
        with pytest.raises(CheckpointCorruptError):
            make_store(tmp_path / "ckpt", resume=True).load()

    @pytest.mark.parametrize("last", [True, False])
    def test_foreign_record_raises_wherever_it_sits(self, tmp_path, last):
        # A whole record of another campaign is never a torn tail.
        foreign = make_store(tmp_path / "other")
        foreign.record(1, 2, "result", {"outcome": "due"})
        foreign.close()
        store = make_store(tmp_path / "ckpt", digest="b" * 64)
        store.record(0, 1, "result", {"outcome": "benign"})
        store.close()
        log = tmp_path / "ckpt" / "trials.jsonl"
        lines = log.read_text().splitlines()
        stray = (tmp_path / "other" / "trials.jsonl").read_text().splitlines()
        lines.insert(len(lines) if last else 0, stray[0])
        log.write_text("\n".join(lines) + "\n")
        resumed = make_store(tmp_path / "ckpt", digest="b" * 64, resume=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointWarning)
            with pytest.raises(CheckpointCorruptError, match="different campaign"):
                resumed.load()

    def test_tampered_record_fails_checksum(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        store.record(0, 1, "result", {"outcome": "benign"})
        store.record(1, 2, "result", {"outcome": "due"})
        store.close()
        log = tmp_path / "ckpt" / "trials.jsonl"
        lines = log.read_text().splitlines()
        tampered = json.loads(lines[0])
        tampered["payload"]["outcome"] = "sdc"  # flip without re-checksumming
        log.write_text(json.dumps(tampered) + "\n" + lines[1] + "\n")
        with pytest.raises(CheckpointCorruptError):
            make_store(tmp_path / "ckpt", resume=True).load()


class TestSelfHeal:
    @pytest.mark.parametrize("fault", ["enospc", "torn", "fsync"])
    def test_failed_append_heals_once_and_warns(self, tmp_path, disk, fault):
        store = make_store(tmp_path / "ckpt")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.record(0, 1, "result", {"outcome": "benign"})
            disk.fail(fault)
            store.record(1, 2, "result", {"outcome": "due"})
            store.record(2, 3, "result", {"outcome": "sdc"})
        store.close()
        healed = [w for w in caught if issubclass(w.category, CheckpointWarning)]
        assert len(healed) == 1
        assert "retried" in str(healed[0].message)
        # Every record is durable exactly once, and no partial line of
        # the failed write survives the rollback.
        text = (tmp_path / "ckpt" / "trials.jsonl").read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert [json.loads(line)["trial_index"] for line in lines] == [0, 1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointWarning)
            records = make_store(tmp_path / "ckpt", resume=True).load()
        assert records[1].payload == {"outcome": "due"}

    def test_torn_write_leaves_no_partial_residue(self, tmp_path, disk):
        path = tmp_path / "records.jsonl"
        with jsonio.JsonlAppender(path) as appender:
            appender.append(json.dumps({"first": True}))
            disk.fail("torn")
            with pytest.warns(CheckpointWarning):
                appender.append(json.dumps({"payload": "x" * 200}))
        text = path.read_text()
        assert text.count("\n") == 2
        for line in text.splitlines():
            json.loads(line)  # every surviving line is whole

    def test_clean_appends_do_not_warn(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointWarning)
            with jsonio.JsonlAppender(path) as appender:
                appender.append("{}")
                appender.append("{}")
        assert path.read_text() == "{}\n{}\n"

    @pytest.mark.parametrize("fault", ["enospc", "torn", "fsync"])
    def test_second_failure_propagates(self, tmp_path, disk, fault):
        store = make_store(tmp_path / "ckpt")
        disk.fail(fault, times=2)
        try:
            with pytest.raises(OSError):
                store.record(0, 1, "result", {"outcome": "benign"})
        finally:
            store.close()


class TestManifest:
    def test_refuses_existing_dir_without_resume(self, tmp_path):
        make_store(tmp_path / "ckpt").close()
        with pytest.raises(ConfigurationError):
            make_store(tmp_path / "ckpt")

    def test_refuses_digest_mismatch(self, tmp_path):
        make_store(tmp_path / "ckpt", digest="a" * 64).close()
        with pytest.raises(CheckpointCorruptError):
            make_store(tmp_path / "ckpt", digest="b" * 64, resume=True)

    def test_refuses_manifestless_nonempty_dir(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "trials.jsonl").write_text("stale\n")
        with pytest.raises(CheckpointCorruptError):
            make_store(directory, resume=True)

    def test_record_from_other_campaign_is_rejected(self, tmp_path):
        store = make_store(tmp_path / "a", digest="a" * 64)
        store.record(0, 1, "result", {"outcome": "benign"})
        store.record(1, 2, "result", {"outcome": "benign"})
        store.close()
        foreign = tmp_path / "b"
        make_store(foreign, digest="b" * 64).close()
        (foreign / "trials.jsonl").write_text(
            (tmp_path / "a" / "trials.jsonl").read_text()
        )
        with pytest.raises(CheckpointCorruptError):
            make_store(foreign, digest="b" * 64, resume=True).load()


class TestCampaignDigest:
    def config(self, **overrides):
        params = dict(
            scheme_factory=scheme_factory("cppc"),
            benchmark="gzip",
            trials=5,
            seed=3,
        )
        params.update(overrides)
        return CampaignConfig(**params)

    def test_stable_across_equal_configs(self):
        assert campaign_digest(self.config()) == campaign_digest(self.config())

    def test_sensitive_to_every_knob(self):
        base = campaign_digest(self.config())
        assert campaign_digest(self.config(seed=4)) != base
        assert campaign_digest(self.config(trials=6)) != base
        assert campaign_digest(self.config(benchmark="gcc")) != base
        assert (
            campaign_digest(self.config(scheme_factory=scheme_factory("parity")))
            != base
        )

    def test_closure_factories_still_digest(self):
        def factory(level, unit_bits):
            return None

        digest = campaign_digest(self.config(scheme_factory=factory))
        assert digest == campaign_digest(self.config(scheme_factory=factory))

"""Tests for the CPPC recovery audit record: one per pass, bounded with
the recovery log, streamed, replayable."""

import copy
import json
import random

import pytest

from repro.cppc import CppcProtection
from repro.errors import ConfigurationError, UncorrectableError
from repro.memsim.types import UnitLocation
from repro.obs import (
    JsonlSink,
    read_jsonl_trace,
    reconstruct_corrections,
    verify_audit,
)

from conftest import ListSink, fill_random, make_cppc_cache, make_tiny_cache


def _trigger_recovery(cache, addr=0, mask=1 << 63):
    cache.store(addr, b"\x5a" * 8)
    cache.corrupt_data(cache.locate(addr), mask)
    assert cache.load(addr, 8).data == b"\x5a" * 8


def _recovery_events(sink):
    return [(name, args) for cat, name, args in sink.events if cat == "cppc.recovery"]


class TestBoundedRecoveryLog:
    def test_log_and_trail_stay_bounded(self):
        protection = CppcProtection(data_bits=64, audit_maxlen=3)
        cache, _ = make_tiny_cache(protection)
        for i in range(8):
            _trigger_recovery(cache, addr=i * 8)
        assert protection.recoveries == 8  # monotone, never truncated
        assert len(protection.recovery_log) == 3
        audits = protection.audits()
        assert len(audits) == 3
        # The resident entries are the newest ones, oldest first.
        assert [tuple(a["trigger"]) for a in audits] == [
            tuple(cache.locate(i * 8)) for i in (5, 6, 7)
        ]

    def test_trail_rejects_non_positive_maxlen(self):
        for maxlen in (0, -1):
            with pytest.raises(ConfigurationError, match="audit_maxlen"):
                CppcProtection(data_bits=64, audit_maxlen=maxlen)


class TestAuditPayload:
    def test_verifies_and_survives_json(self):
        cache, _ = make_cppc_cache()
        _trigger_recovery(cache)
        audit = cache.protection.audits()[-1]
        assert verify_audit(audit) == []
        round_tripped = json.loads(json.dumps(audit))
        assert round_tripped == audit
        assert verify_audit(round_tripped) == []

    def test_reconstructs_the_repaired_word(self):
        cache, _ = make_cppc_cache()
        _trigger_recovery(cache)
        audit = cache.protection.audits()[-1]
        corrections = reconstruct_corrections(audit)
        loc = tuple(cache.locate(0))
        assert corrections == {loc: int.from_bytes(b"\x5a" * 8, "big")}

    def test_tampered_delta_is_caught(self):
        cache, _ = make_cppc_cache()
        _trigger_recovery(cache)
        audit = copy.deepcopy(cache.protection.audits()[-1])
        audit["pairs"][0]["corrections"][0]["delta"] ^= 1
        assert verify_audit(audit)

    def test_tampered_residue_is_caught(self):
        cache, _ = make_cppc_cache()
        _trigger_recovery(cache)
        audit = copy.deepcopy(cache.protection.audits()[-1])
        audit["pairs"][0]["residue"] ^= 0xFF
        assert any("residue" in p for p in verify_audit(audit))


class TestOneRecordPerPass:
    @pytest.mark.parametrize("passes", (1, 3, 5))
    def test_each_pass_streams_its_one_audit(self, passes):
        """N passes stream N ``cppc.recovery`` events, all ``audit``; each
        equals the log's record while the log holds every pass, and the
        stream keeps all N once it wraps."""
        protection = CppcProtection(data_bits=64, audit_maxlen=3)
        cache, _ = make_tiny_cache(protection)
        sink = ListSink()
        cache.set_observer(sink)
        for i in range(passes):
            _trigger_recovery(cache, addr=i * 8)
        events = _recovery_events(sink)
        assert [name for name, _args in events] == ["audit"] * passes
        streamed = [args for _name, args in events]
        assert streamed[-3:] == protection.audits()
        assert [tuple(a["trigger"]) for a in streamed] == [
            tuple(cache.locate(i * 8)) for i in range(passes)
        ]

    def test_due_pass_leaves_no_record(self):
        """A pass that ends in a DUE leaves the ``fault-detected`` event
        and the error, and no recovery record anywhere."""
        cache, _ = make_cppc_cache()
        _trigger_recovery(cache, addr=24)
        protection = cache.protection
        sink = ListSink()
        cache.set_observer(sink)
        log = list(protection.recovery_log)
        # Two dirty words in the same way and rotation class (rows 0 and
        # 8), the same bit: one parity group, rows too far apart for a
        # spatial strike (test_cppc_recovery's far-apart DUE).
        geometry = protection.geometry
        a, b = geometry.loc_of(0, 0), geometry.loc_of(0, 8)
        addr_b = b.set_index * 32 + b.unit_index * 8
        cache.store(cache.mapper.rebuild_address(0, a.set_index), b"\x01" * 8)
        cache.store(addr_b, b"\x02" * 8)
        cache.corrupt_data(cache.locate(0), 1 << 63)
        cache.corrupt_data(cache.locate(addr_b), 1 << 63)
        with pytest.raises(UncorrectableError) as due:
            cache.load(0, 8)
        assert set(due.value.detail) == {a, b}
        assert protection.recoveries == 1
        assert list(protection.recovery_log) == log
        assert _recovery_events(sink) == []
        assert ("cache", "fault-detected") in {
            (cat, name) for cat, name, _args in sink.events
        }


class TestStreamedTrail:
    def test_sink_receives_every_audit_past_the_bound(self, tmp_path):
        protection = CppcProtection(data_bits=64, audit_maxlen=2)
        cache, _ = make_tiny_cache(protection)
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            cache.set_observer(sink)
            for i in range(5):
                _trigger_recovery(cache, addr=i * 8)
        events = list(read_jsonl_trace(path, category="cppc.recovery"))
        # The log wrapped, but the stream kept the full history.
        assert [e["name"] for e in events] == ["audit"] * 5
        assert len(protection.recovery_log) == 2
        assert [e["args"] for e in events[-2:]] == protection.audits()
        for event in events:
            assert verify_audit(event["args"]) == []

    def test_emitted_trail_reconstructs_every_repaired_word(self, tmp_path):
        """Acceptance: replay the JSONL trail against the live cache.

        Every correction in the emitted audit records must re-derive the
        exact repaired word, and the post-recovery registers must satisfy
        the R1^R2 invariant (``dirty_xor_expected``) — the trail is a
        faithful transcript of recovery, not a parallel bookkeeping path.
        """
        cache, _ = make_cppc_cache()
        rng = random.Random(7)
        golden = fill_random(cache, cache.next_level, rng, n_stores=40)
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            cache.set_observer(sink)
            victims = [loc for loc, _v in cache.iter_dirty_units()][:3]
            for bit, loc in enumerate(victims):
                cache.corrupt_data(loc, 1 << (40 + bit))
                cache.load(cache.address_of(loc), 8)
        audits = [
            e["args"]
            for e in read_jsonl_trace(path, category="cppc.recovery")
            if e["name"] == "audit"
        ]
        assert len(audits) == len(victims)
        repaired = {}
        for audit in audits:
            assert verify_audit(audit) == []
            repaired.update(reconstruct_corrections(audit))
        assert set(repaired) >= {tuple(loc) for loc in victims}
        for loc_tuple, value in repaired.items():
            loc = UnitLocation(*loc_tuple)
            stored, check, _ = cache.peek_unit(loc)
            assert stored == value
            assert not cache.protection.inspect(stored, check).detected
            addr = cache.address_of(loc)
            if addr in golden:
                assert value == int.from_bytes(golden[addr], "big")
        protection = cache.protection
        for i, pair in enumerate(protection.registers.pairs):
            assert pair.dirty_xor == protection.dirty_xor_expected(i)

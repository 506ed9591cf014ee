"""Tests for the command-line tools."""

import dataclasses
import functools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import run_all_benchmarks
from repro.memsim import PAPER_CONFIG, HierarchyConfig
from repro.obs import read_jsonl_trace
from repro.tools import gen_trace, run_campaign, run_experiment
from repro.workloads import load_trace


class TestGenTrace:
    def test_writes_requested_records(self, tmp_path):
        out = tmp_path / "t.trace"
        rc = gen_trace.main(["gzip", "-n", "50", "-o", str(out)])
        assert rc == 0
        with open(out) as fh:
            records = list(load_trace(fh))
        assert len(records) == 50

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_trace.main(["gcc", "-n", "30", "--seed", "4", "-o", str(a)])
        gen_trace.main(["gcc", "-n", "30", "--seed", "4", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            gen_trace.main(["linpack"])


class TestRunExperiment:
    def test_fig11_prints_table(self, capsys, tmp_path):
        rc = run_experiment.main([
            "fig11", "-n", "1200", "--benchmarks", "gzip", "eon",
            "-o", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert (tmp_path / "fig11.txt").exists()

    def test_table3_runs(self, capsys):
        rc = run_experiment.main([
            "table3", "-n", "800", "--benchmarks", "gzip",
        ])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_all_produces_every_table(self, capsys, tmp_path):
        rc = run_experiment.main([
            "all", "-n", "800", "--benchmarks", "gzip", "-o", str(tmp_path),
        ])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "fig10.txt", "fig11.txt", "fig12.txt", "table2.txt", "table3.txt",
            "table3mc.txt",
        }

    def test_engine_counters_and_spans(self, tmp_path):
        metrics, trace = tmp_path / "m.json", tmp_path / "t.jsonl"
        rc = run_experiment.main([
            "fig10", "-n", "800", "--benchmarks", "gzip", "eon",
            "--emit-metrics", str(metrics), "--trace-out", str(trace),
        ])
        assert rc == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["engine.batch"] == 2
        assert not [k for k in counters if k.startswith("engine.fallback")]
        spans = list(read_jsonl_trace(trace, category="experiment"))
        assert [s["args"]["engine"] for s in spans] == ["batch", "batch"]

    def test_scalar_fallback_is_counted(self, tmp_path, monkeypatch):
        # No CLI flag picks the hierarchy, so hand the CLI's simulation
        # step an L1 with 4-byte units, which the batch engine cannot
        # model.
        config = HierarchyConfig(
            l1d=dataclasses.replace(PAPER_CONFIG.l1d, unit_bytes=4),
            l2=PAPER_CONFIG.l2,
        )
        monkeypatch.setattr(
            run_experiment, "run_all_benchmarks",
            functools.partial(run_all_benchmarks, config=config),
        )
        metrics, trace = tmp_path / "m.json", tmp_path / "t.jsonl"
        rc = run_experiment.main([
            "table2", "-n", "600", "--benchmarks", "gcc",
            "--emit-metrics", str(metrics), "--trace-out", str(trace),
        ])
        assert rc == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["engine.fallback.l1_unit_bytes"] == 1
        assert "engine.batch" not in counters
        (span,) = read_jsonl_trace(trace, category="experiment")
        assert span["args"]["engine"] == "scalar"
        assert span["args"]["fallback_reason"] == "l1_unit_bytes"


class TestRunCampaign:
    def test_cppc_campaign_prints_outcomes(self, capsys):
        rc = run_campaign.main([
            "cppc", "--trials", "4", "--warmup", "400", "--post", "300",
            "--dirty-only",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corrected" in out and "sdc" in out

    def test_spatial_shape_argument(self, capsys):
        rc = run_campaign.main([
            "secded", "--trials", "3", "--fault", "spatial",
            "--shape", "4", "4", "--warmup", "400", "--post", "200",
        ])
        assert rc == 0
        assert "secded" in capsys.readouterr().out

    def test_json_summary(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        rc = run_campaign.main([
            "parity", "--trials", "3", "--warmup", "300", "--post", "200",
            "--dirty-only", "--json", str(out),
        ])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["scheme"] == "parity"
        assert summary["completed"] == 3
        assert summary["failed"] == 0
        assert summary["complete"] is True
        assert set(summary["rates"]) == {"benign", "corrected", "due", "sdc"}
        # A per-trial campaign replays every trial in full.
        assert summary["settled"] == {
            "skipped": 0, "rejoined": 0, "replayed": 3, "resumed": 0,
        }

    def test_fast_campaign_reports_how_trials_settled(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        metrics = tmp_path / "m.json"
        rc = run_campaign.main([
            "cppc", "--fast", "--trials", "4", "--warmup", "400",
            "--post", "300", "--json", str(out),
            "--emit-metrics", str(metrics),
        ])
        assert rc == 0
        summary = json.loads(out.read_text())
        settled = summary["settled"]
        assert sum(settled.values()) == 4
        assert settled["skipped"] > 0
        counters = json.loads(metrics.read_text())["counters"]
        assert {p: counters[f"campaign.settled.{p}"] for p in settled} == settled
        assert (
            counters["campaign.replayed_references"]
            == summary["replayed_references"]
        )
        # Trials that ran the whole flush: counted, but not on stdout.
        assert 0 <= summary["flushed"] <= 4
        assert counters["campaign.flushed"] == summary["flushed"]
        assert "flush" not in capsys.readouterr().out

    def test_runtime_flags_with_checkpoint_and_resume(self, capsys, tmp_path):
        args = [
            "parity", "--trials", "3", "--warmup", "300", "--post", "200",
            "--dirty-only", "--jobs", "1", "--timeout", "120",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert run_campaign.main(args) == 0
        first = capsys.readouterr().out
        # Same dir without --resume must refuse; with --resume it replays
        # the recorded trials and prints the identical histogram.
        assert run_campaign.main(args) == 1
        capsys.readouterr()
        assert run_campaign.main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first

    @pytest.mark.parametrize(
        "scheme,warmup,engine,fallback,runtime",
        [
            pytest.param(*row, runtime, id="-".join(map(str, row)) + suffix)
            # The runtime path builds the warm state in the parent process.
            for runtime, suffix in (([], ""), (["--jobs", "1"], "-jobs1"))
            for row in (
                ("cppc", "400", "batch", None),
                ("secded", "400", "scalar", "l1_scheme"),
                ("cppc", "0", "pristine", None),
            )
        ],
    )
    def test_fast_warm_engine_is_counted(
        self, tmp_path, scheme, warmup, engine, fallback, runtime
    ):
        metrics = tmp_path / "m.json"
        rc = run_campaign.main([
            scheme, "--fast", "--trials", "2", "--warmup", warmup,
            "--post", "200", "--benchmark", "gzip",
            "--emit-metrics", str(metrics), *runtime,
        ])
        assert rc == 0
        counters = json.loads(metrics.read_text())["counters"]
        engines = {k: v for k, v in counters.items() if k.startswith("engine.")}
        expected = {f"engine.warm.{engine}": 1}
        if fallback is not None:
            expected[f"engine.warm.fallback.{fallback}"] = 1
        assert engines == expected

    def test_impossible_timeout_exits_partial(self, capsys):
        rc = run_campaign.main([
            "parity", "--trials", "2", "--warmup", "20000", "--post", "200",
            "--dirty-only", "--jobs", "1", "--timeout", "0.05",
            "--retries", "0",
        ])
        assert rc == 3
        out = capsys.readouterr().out
        assert "abandoned after retries" in out
        assert "timeout" in out


class TestCliValidation:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["cppc", "--trials", "0"], "--trials"),
            (["cppc", "--trials", "-3"], "--trials"),
            (["cppc", "--jobs", "0"], "--jobs"),
            (["cppc", "--timeout", "-1"], "--timeout"),
            (["cppc", "--retries", "-1"], "--retries"),
            (["cppc", "--warmup", "-5"], "--warmup"),
            # Without --fast there is no fork to check.
            (
                ["cppc", "--fast-equivalence", "always", "--trials", "2",
                 "--warmup", "300", "--post", "200"],
                "--fast-equivalence",
            ),
        ],
    )
    def test_run_campaign_rejects_bad_flags(self, capsys, argv, flag):
        # Typed validation at the CLI boundary: exit 1 with the flag
        # named, not a traceback from deep inside the runtime.
        rc = run_campaign.main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid arguments" in err
        assert flag in err

    @pytest.mark.parametrize("runtime", [[], ["--jobs", "1", "--retries", "1"]])
    @pytest.mark.parametrize("shape", [["0", "8"], ["8", "0"], ["-2", "4"]])
    def test_run_campaign_rejects_bad_shape(self, capsys, monkeypatch, runtime, shape):
        # Refused before any campaign is built: no warm-up, no trial
        # crashing on the strike and no retries.
        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign built for an invalid shape")

        monkeypatch.setattr(run_campaign, "FaultCampaign", no_campaign)
        rc = run_campaign.main([
            "cppc", "--trials", "2", "--warmup", "300", "--post", "50",
            "--fault", "spatial", "--shape", *shape, *runtime,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid arguments" in err
        assert "spatial_shape" in err

    def test_run_sensitivity_rejects_bad_flags(self, capsys):
        from repro.tools import run_sensitivity

        for argv in (
            ["interleaving", "--jobs", "0"],
            ["interleaving", "--timeout", "-2"],
            ["interleaving", "--retries", "-1"],
            ["interleaving", "-n", "0"],
        ):
            rc = run_sensitivity.main(argv)
            assert rc == 1
            assert "invalid arguments" in capsys.readouterr().err

    def test_run_scorecard_rejects_bad_references(self, capsys):
        from repro.tools import run_scorecard

        rc = run_scorecard.main(["-n", "0"])
        assert rc == 1
        assert "--references" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["fig10", "-n", "0"], "--references"),
            (["fig10", "-n", "-5"], "--references"),
            (["table3mc", "--mc-samples", "0"], "--mc-samples"),
        ],
    )
    def test_run_experiment_rejects_bad_counts(self, capsys, argv, flag):
        rc = run_experiment.main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid arguments" in err
        assert flag in err

    def test_run_experiment_rejects_unusable_output_first(
        self, capsys, tmp_path, monkeypatch
    ):
        def simulate(**kwargs):
            raise AssertionError("simulated before checking --output")

        monkeypatch.setattr(run_experiment, "run_all_benchmarks", simulate)
        existing = tmp_path / "tables"
        existing.write_text("")
        rc = run_experiment.main(["table2", "--output", str(existing)])
        assert rc == 1
        assert str(existing) in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_gen_trace_rejects_bad_counts(self, capsys, count):
        rc = gen_trace.main(["gcc", "-n", count])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid arguments" in err
        assert "--references" in err

    def test_gen_trace_rejects_unwritable_output(self, capsys, tmp_path):
        rc = gen_trace.main(["gcc", "-n", "5", "-o", str(tmp_path)])
        assert rc == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_one_reference_stays_valid(self, capsys, tmp_path):
        out = tmp_path / "one.trace"
        assert gen_trace.main(["gcc", "-n", "1", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1
        rc = run_experiment.main(["fig10", "-n", "1", "--benchmarks", "gzip"])
        assert rc == 0

    def test_zero_retries_stays_valid(self):
        # --retries 0 means "no retry", which is a legal policy.
        rc = run_campaign.main([
            "parity", "--trials", "2", "--warmup", "60", "--post", "40",
            "--retries", "0",
        ])
        assert rc == 0


class TestRunSensitivity:
    def test_interleaving_sweep(self, capsys):
        from repro.tools import run_sensitivity

        rc = run_sensitivity.main(["interleaving"])
        assert rc == 0
        assert "interleav" in capsys.readouterr().out.lower()

    def test_l1_size_sweep(self, capsys):
        from repro.tools import run_sensitivity

        rc = run_sensitivity.main(
            ["l1-size", "-n", "1500", "--benchmark", "gzip"]
        )
        assert rc == 0
        assert "L1 capacity" in capsys.readouterr().out

    def test_l1_size_sweep_on_worker_lanes_matches_sequential(self, capsys):
        from repro.harness import sweep_l1_size
        from repro.tools import run_sensitivity

        rc = run_sensitivity.main(
            ["l1-size", "-n", "1500", "--benchmark", "gzip", "--jobs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        sequential = sweep_l1_size(
            benchmark="gzip", n_references=1500
        ).to_text()
        assert sequential in out

    def test_json_summary(self, capsys):
        from repro.tools import run_sensitivity

        rc = run_sensitivity.main(["interleaving", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "interleaving" in payload["sweeps"]
        assert payload["errors"] == {}


class TestGenDocs:
    def test_generates_markdown_for_every_subpackage(self, tmp_path):
        from repro.tools import gen_docs

        out = tmp_path / "API.md"
        rc = gen_docs.main(["-o", str(out)])
        assert rc == 0
        text = out.read_text()
        for name in gen_docs.SUBPACKAGES:
            assert f"## `{name}`" in text

    def test_documents_key_classes(self):
        from repro.tools import gen_docs

        text = gen_docs.generate()
        for symbol in ("CppcProtection", "MemoryHierarchy", "FaultLocator",
                       "RegisterPair", "CacheEnergyModel"):
            assert symbol in text

    def test_output_is_byte_stable(self):
        """Callable defaults render by name, not by memory address."""
        from repro.tools import gen_docs

        text = gen_docs.generate()
        assert " at 0x" not in text
        assert "protection_factory: 'ProtectionFactory' = _no_protection" in text
        # NamedTuple fields render as dataclass fields do.
        assert "ForwardRef(" not in text
        assert "BatchReplayResult(cache: 'CacheSnapshot'" in text
        # A NamedTuple subclass renders through its annotated ``__new__``.
        assert (
            "### class `TraceRecord(op: 'AccessType', addr: 'int', size: 'int', "
            "gap: 'int' = 0, value: 'bytes' = b'')`\n"
        ) in text


class TestRunScorecard:
    def test_scorecard_cli(self, capsys, monkeypatch):
        from repro.tools import run_scorecard

        rc = run_scorecard.main(["-n", "4000"])
        out = capsys.readouterr().out
        assert "scorecard" in out
        # Shared _cli convention: 0 complete, 3 partial (failing claims).
        # Small scale may miss a band or two, but never exits 1 (fatal).
        assert rc in (0, 3)

    def test_scorecard_json(self, capsys, tmp_path):
        from repro.tools import run_scorecard

        out = tmp_path / "card.json"
        rc = run_scorecard.main(["-n", "4000", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["claim_count"] == len(payload["claims"])
        assert payload["pass_count"] <= payload["claim_count"]
        assert (rc == 0) == payload["passed"]


class TestSharedCliConventions:
    def test_exit_codes(self):
        from repro.tools import _cli

        assert _cli.resolve_exit() == _cli.EXIT_OK == 0
        assert _cli.resolve_exit(partial=True) == _cli.EXIT_PARTIAL == 3
        assert _cli.resolve_exit(fatal=True) == _cli.EXIT_FATAL == 1
        assert _cli.resolve_exit(fatal=True, partial=True) == _cli.EXIT_FATAL

    def test_emit_json_noop_without_flag(self, capsys, tmp_path):
        from repro.tools import _cli

        _cli.emit_json(None, {"x": 1})
        assert capsys.readouterr().out == ""
        _cli.emit_json("-", {"x": 1})
        assert '"x": 1' in capsys.readouterr().out
        target = tmp_path / "out.json"
        _cli.emit_json(str(target), {"x": 2})
        assert '"x": 2' in target.read_text()

    def test_cli_launch_raises_no_runpy_warning(self):
        """The package imports no CLI, so ``-m`` finds none preloaded."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        command = [sys.executable, "-W", "error::RuntimeWarning", "-m"]
        proc = subprocess.run(
            command + ["repro.tools.gen_trace", "--help"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

"""The ``run_bench`` CLI contract, pinned for every mode at tiny sizes.

Each mode's report keeps exactly its key set (CI artifacts and
``BENCH_baseline.json`` read them) and its ``bench.*`` gauge names; a
clean run exits 0, a missed ratio gate 3, a mismatch reported by the
mode's fast-vs-reference comparison 1, and ``--compare-baseline`` only
ever warns.
"""

import importlib
import json

import pytest

from repro.memsim.batch import BatchReplayEngine
from repro.reliability import fastmc
from repro.tools.run_bench import main

#: mode -> (tiny-size argv, exact report keys, bench.* gauge names).
CASES = {
    "replay": (
        ["--trace-len", "1000", "--equivalence-len", "200", "--repeats", "1"],
        {
            "mode",
            "benchmark",
            "trace_len",
            "seed",
            "repeats",
            "equivalence_checked_references",
            "scalar_seconds",
            "batch_seconds",
            "scalar_ops_per_sec",
            "batch_ops_per_sec",
            "speedup",
            "disabled_sink_seconds",
            "obs_overhead_ratio",
        },
        {"bench.speedup", "bench.obs_overhead_ratio"},
    ),
    "campaign": (
        ["--trials", "2"],
        {
            "mode",
            "scheme",
            "benchmark",
            "trials",
            "warmup_references",
            "post_fault_references",
            "seed",
            "legacy_seconds",
            "fast_seconds",
            "legacy_trials_per_sec",
            "fast_trials_per_sec",
            "speedup",
            "outcomes",
            "identical_trials",
        },
        {"bench.campaign_speedup", "bench.campaign_fast_trials_per_sec"},
    ),
    "reliability": (
        ["--mc-samples", "4000", "--scalar-mc-samples", "8", "--repeats", "1"],
        {
            "mode",
            "mc_samples",
            "scalar_samples",
            "num_pairs",
            "parity_ways",
            "cache_bytes",
            "seed",
            "repeats",
            "vector_seconds",
            "scalar_seconds",
            "vector_samples_per_sec",
            "scalar_samples_per_sec",
            "mc_speedup",
            "failure_rate",
            "failure_rate_ci95",
            "sdc_rate",
            "analytic",
            "corrected",
            "due",
            "miscorrected",
            "equivalence",
        },
        {"bench.mc_speedup", "bench.mc_samples_per_sec"},
    ),
    "timing": (
        ["--trace-len", "400", "--repeats", "1"],
        {
            "mode",
            "benchmarks",
            "references",
            "warmup",
            "schemes",
            "seed",
            "repeats",
            "scalar_seconds",
            "fast_seconds",
            "speedup",
            "fast_references_per_sec",
            "equivalence",
        },
        {"bench.timing_speedup", "bench.timing_references_per_sec"},
    ),
}


def _report_mismatch(*args, **kwargs):
    return ["forced mismatch"]


def _live_always_corrects(image, batch, positions):
    # The replayed subset front-loads the kernel's DUE and miscorrected
    # verdicts, so a live path that corrects everything disagrees.
    return {position: fastmc.CORRECTED for position in positions}


#: mode -> (module, attribute, replacement) making the mode's
#: fast-vs-reference comparison report a mismatch.
FORCED_MISMATCH = {
    "replay": ("repro.workloads.replay", "replay_mismatches", _report_mismatch),
    "campaign": ("repro.faults.campaign", "trial_mismatches", _report_mismatch),
    "reliability": (
        "repro.reliability.fastmc",
        "replay_pairs_live",
        _live_always_corrects,
    ),
    "timing": ("repro.timing.fast", "timing_mismatches", _report_mismatch),
}


def run(mode, tmp_path, *extra):
    """``main`` on the mode's tiny argv; returns (exit code, report)."""
    out = tmp_path / f"BENCH_{mode}.json"
    argv = ["--mode", mode, *CASES[mode][0], "--output", str(out), *extra]
    code = main(argv)
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("mode", CASES)
def test_clean_run_keeps_keys_and_gauges(mode, tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    code, report = run(mode, tmp_path, "--emit-metrics", str(metrics))
    assert code == 0
    assert set(report) == CASES[mode][1]
    assert report["mode"] == mode
    gauges = json.loads(metrics.read_text())["gauges"]
    assert {name for name in gauges if name.startswith("bench.")} == CASES[mode][2]
    assert f"wrote {tmp_path / f'BENCH_{mode}.json'}" in capsys.readouterr().out


@pytest.mark.parametrize("mode", CASES)
def test_unreachable_speedup_gate_is_partial(mode, tmp_path):
    code, report = run(
        mode,
        tmp_path,
        "--min-speedup",
        "1e12",
        "--compare-baseline",
        str(tmp_path / "missing.json"),
    )
    assert code == 3
    assert report["baseline_comparison"]["status"] == "no-baseline"


def test_obs_overhead_gate_is_partial(tmp_path, capsys):
    code, report = run("replay", tmp_path, "--max-obs-overhead", "1e-9")
    assert code == 3
    assert "obs_overhead_ratio" in capsys.readouterr().err


def test_doubled_replay_behind_the_sink_fails_the_overhead_gate(
    tmp_path, monkeypatch, capsys
):
    # A replay with a sink attached that does twice the work must fail
    # CI's 1.05 bound, whatever the noise in single timings.
    original = BatchReplayEngine.replay

    def replay(self, trace, **kwargs):
        if self.obs is not None:
            original(self, trace, **kwargs)
        return original(self, trace, **kwargs)

    monkeypatch.setattr(BatchReplayEngine, "replay", replay)
    code, report = run("replay", tmp_path, "--max-obs-overhead", "1.05")
    assert code == 3
    assert report["obs_overhead_ratio"] > 1.5
    assert "obs_overhead_ratio" in capsys.readouterr().err


@pytest.mark.parametrize("mode", CASES)
def test_comparator_mismatch_is_fatal(mode, tmp_path, monkeypatch, capsys):
    module, attribute, replacement = FORCED_MISMATCH[mode]
    monkeypatch.setattr(importlib.import_module(module), attribute, replacement)
    code, report = run(mode, tmp_path)
    assert code == 1
    assert report is None
    assert "equivalence check FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("mode", CASES)
def test_regressed_baseline_only_warns(mode, tmp_path, capsys):
    # Every tracked ratio regresses: speedups against a huge baseline,
    # the overhead ratio against a tiny one.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                mode: {
                    "speedup": 1e12,
                    "mc_speedup": 1e12,
                    "obs_overhead_ratio": 1e-12,
                }
            }
        )
    )
    code, report = run(mode, tmp_path, "--compare-baseline", str(baseline))
    assert code == 0
    comparison = report["baseline_comparison"]
    assert comparison["status"] == "regressed"
    assert comparison["metrics"]
    assert all(entry["regressed"] for entry in comparison["metrics"].values())
    assert "WARNING" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [m for m in CASES if m != "replay"])
@pytest.mark.parametrize("flag", ["--trace-out", "--max-obs-overhead"])
def test_replay_only_flags_are_usage_errors(mode, flag, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["--mode", mode, flag, "2", "--output", str(tmp_path / "out.json")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "out.json").exists()

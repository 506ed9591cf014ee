"""Self-tests of the end-to-end benchmark: ``pytest bench/``.

They drive ``bench/run.py`` on the real CLIs at the test-only ``--smoke``
size (about a minute in all) and are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Spans each workload must record.  The fast-engine bindings of
#: ``timing.collect``/``timing.price`` are absent: the CLI default path
#: does not reach them, and installing them (every traced job does) is
#: what proves they still resolve.
FIRES = {
    "paper-cachefit": {
        "cli.import", "workloads.synth", "timing.collect", "timing.price",
        "energy.price", "reliability.mc", "harness.simulate", "harness.report",
    },
    "paper-membound": {
        "cli.import", "workloads.synth", "timing.collect", "timing.price",
        "harness.simulate", "harness.report",
    },
    "campaign-l1-temporal": {
        "cli.import", "workloads.synth", "workloads.replay", "faults.warm",
        "faults.fork", "memsim.restore", "faults.inject", "faults.campaign",
        "memsim.flush", "cppc.recover",
    },
    "campaign-l2-spatial": {
        "cli.import", "workloads.synth", "workloads.replay", "faults.warm",
        "faults.fork", "memsim.restore", "faults.inject", "faults.campaign",
        "memsim.flush",
    },
}


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


def _results(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("results: "))
    return Path(line.split(": ", 1)[1])


@pytest.fixture(scope="module")
def smoke():
    """Both phases on every workload, one traced job each."""
    path = _results(_bench("--seed", "0", "--seconds", "0", "--smoke"))
    spans = json.loads(path.with_name(path.stem + "-spans.json").read_text())
    return json.loads(path.read_text()), spans


def test_every_binding_fires(smoke):
    results, spans = smoke
    assert set().union(*FIRES.values()) == set(run.LAYERS)
    for workload, names in FIRES.items():
        fired = {s["name"] for s in spans[workload]}
        assert names <= fired, (workload, names - fired)
    per_layer = results["workloads"]["campaign-l1-temporal"]["per_layer"]
    assert per_layer["cppc.recoveries"]["value"] > 0


def test_results_carry_every_listed_metric(smoke):
    results, _ = smoke
    for workload, result in results["workloads"].items():
        assert result["correct"] and result["failed"] == 0, result["errors"]
        assert result["verified"] is False  # smoke sizes have no goldens
        for phase in ("end_to_end", "per_layer"):
            line = run.contract_line(result, phase)
            assert [m["name"] for m in SPEC[phase]] == list(line["metrics"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_json_line_matches_benchmark_json(trace):
    proc = _bench("--workload", "campaign-l1-temporal", "--seed", "0",
                  "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    phase = "end_to_end" if trace == "0" else "per_layer"
    assert {m["name"]: m["unit"] for m in SPEC[phase]} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }


def test_self_times_stay_within_traced_wall(smoke):
    results, spans = smoke
    for workload, records in spans.items():
        wall = results["workloads"][workload]["per_layer"]["trace.wall_s"]["value"]
        own = run.self_times(records)
        assert all(-1e-6 <= t <= wall for t in own.values()), (workload, own)
        top = sum(s["busy"] for s in records if s["parent"] is None)
        assert top <= wall


def test_two_smoke_runs_give_identical_digests(smoke):
    results, _ = smoke
    again = json.loads(
        _results(_bench("--seed", "0", "--seconds", "0", "--smoke", "--trace", "0"))
        .read_text()
    )
    for workload, result in results["workloads"].items():
        assert again["workloads"][workload]["digests"] == result["digests"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-membound",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_launch_prices_a_child_and_keeps_its_exit_code():
    code = "import sys; sum(i * i for i in range(2_000_000)); sys.exit(3)"
    child = run.launch([sys.executable, "-c", code],
                       subprocess.DEVNULL, subprocess.DEVNULL)
    assert child.returncode == 3
    assert child.loops > 0 and child.job_s > 0


def test_launch_kills_a_child_past_the_timeout(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.2)
    child = run.launch([sys.executable, "-c", "import time; time.sleep(30)"],
                       subprocess.DEVNULL, subprocess.DEVNULL)
    assert child.returncode == -9
    assert child.wall_s < 10


def test_self_times_subtract_children_of_aggregates():
    spans = [
        {"name": "campaign", "parent": None, "busy": 10.0},
        {"name": "replay", "parent": 0, "busy": 6.0},  # aggregate of many calls
        {"name": "recover", "parent": 1, "busy": 1.5},
        {"name": "flush", "parent": 0, "busy": 2.0},
        {"name": "recover", "parent": 3, "busy": 0.5},
    ]
    assert run.self_times(spans) == {
        "campaign": 2.0, "replay": 4.5, "recover": 2.0, "flush": 1.5,
    }


@pytest.mark.parametrize(
    "parent, change, status",
    [
        ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "gain"),
        ([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5], "regression"),
        ([10.0, 10.1, 9.9, 10.0], [10.0, 9.9, 10.1, 10.0], "no change"),
        ([8.0, 12.0, 9.0, 11.0], [9.5, 10.5, 10.0, 10.2], "unresolved"),
    ],
)
def test_verdict_applies_the_pairwise_rules(parent, change, status):
    assert run.verdict(parent, change, "lower", 0.1)["status"] == status


def test_goldens_refuse_a_resized_job():
    workload = run.WORKLOADS["paper-membound"]
    resized = run.Workload(
        workload.name, run.PaperJob("fig10", ("mcf",), 999), workload.smoke
    )
    with pytest.raises(run.BenchError):
        run.load_goldens(resized, 0, smoke=False)

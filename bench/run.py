#!/usr/bin/env python3
"""End-to-end benchmark of the paper-artifact and fault-campaign jobs.

::

    python bench/run.py --seed 0                  # every workload, both phases
    python bench/run.py --workload paper-cachefit --seed 3 --seconds 20 --trace 0
    python bench/run.py compare --parent P1.json P2.json ... --change C1.json ...
    python bench/run.py expected                  # regenerate bench/expected.json

Each job is a fresh subprocess of the real CLI (``python -m
repro.tools.<tool>``) with ``PYTHONPATH`` pinned to this checkout's
``src``.  One client runs one job at a time (a closed loop), and host
time is measured, not simulated time.

``--trace 0`` measures the end-to-end metrics with tracing off: one
untimed smoke job, then set-up time (median of seven fresh interpreters),
then the full job repeatedly for ``--seconds`` (at least three times),
reporting medians.  Times are read through :func:`launch`, which
discounts the slowdowns other tenants of a shared host cause; raw wall
time is kept in the table and the results file.  ``--trace 1``
alternates untraced and traced jobs (``bench/traced.py``) for
``--seconds`` and reports the per-layer
metrics.  Without ``--trace`` both phases run.  Every job's outputs are
digested and checked against ``bench/expected.json`` (seeds 0-4) or,
for other seeds, against the first job of the run.

With ``--workload`` and ``--trace``, the last line of standard output is
one JSON object with the metrics ``BENCHMARK.json`` lists for the phase.  Results (every
metric, its quartiles and sample count, the digests, and a header naming
the code revision and the machine) go to ``bench/results/``, the spans of
the first traced job of each workload to a sibling ``-spans.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from traced import BINDINGS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.json"
TRACED = BENCH / "traced.py"

#: Seeds ``python bench/run.py expected`` makes goldens for by default.
GOLDEN_SEEDS = range(5)
#: Fewest timed jobs per phase, however short ``--seconds`` is.
MIN_SAMPLES = 3
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 7
#: A job still running after this long is killed and counted as failed.
JOB_TIMEOUT_S = 120.0
#: Warmup the paper jobs simulate on top of ``-n``, as a share of it
#: (``run_benchmark``'s ``warmup_fraction``).
PAPER_WARMUP_FRACTION = 0.25
#: How often, in seconds, :func:`launch` times the reference loop while a
#: job runs.
PROBE_INTERVAL_S = 0.02
#: Iterations of the reference loop, so probing takes ~1.5% of the CPU.
PROBE_ITERATIONS = 3000
#: Seconds one reference loop stands for: its cost on an unloaded CPU of
#: the 2.0 GHz Xeon the benchmark was tuned on (Python 3.11).  ``job_s``
#: and ``setup_s`` are a job's work in loops times this, so they read as
#: seconds on that machine whatever the load of the one measuring.
REFERENCE_LOOP_S = 2.7e-4


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad goldens)."""


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PaperJob:
    """``run_experiment``: tables written with ``--output`` are digested."""

    experiment: str
    benchmarks: Tuple[str, ...]
    references: int
    mc_samples: int = 200_000
    tool = "run_experiment"

    def args(self) -> List[str]:
        args = [self.experiment, "--benchmarks", *self.benchmarks,
                "-n", str(self.references)]
        if "table3mc" in self.tables:
            args += ["--mc-samples", str(self.mc_samples)]
        return args

    def argv(self, seed: int, out: Path) -> List[str]:
        return self.args() + ["--seed", str(seed), "--output", str(out)]

    @property
    def tables(self) -> Tuple[str, ...]:
        if self.experiment == "all":
            return ("fig10", "fig11", "fig12", "table2", "table3", "table3mc")
        return (self.experiment,)

    @property
    def units(self) -> int:
        return len(self.tables)

    @property
    def refs(self) -> int:
        warmup = int(self.references * PAPER_WARMUP_FRACTION)
        return len(self.benchmarks) * (self.references + warmup)

    def read_outputs(self, out: Path) -> Tuple[Dict[str, Optional[str]], int]:
        """Per-table digests (None for a missing table), missing count."""
        digests = {}
        for table in self.tables:
            path = out / f"{table}.txt"
            digests[table] = _digest(path.read_bytes()) if path.exists() else None
        return digests, sum(d is None for d in digests.values())

    def mismatched_units(self, digests, reference) -> int:
        return sum(
            digests.get(t) is not None and digests.get(t) != reference.get(t)
            for t in self.tables
        )


@dataclasses.dataclass(frozen=True)
class CampaignJob:
    """``run_campaign --fast``: the ``--json`` outcome counts are digested."""

    fault: str
    level: str
    benchmark: str
    trials: int
    warmup: int = 2000
    post: int = 1500
    shape: Tuple[int, int] = (8, 8)
    tool = "run_campaign"

    def args(self) -> List[str]:
        return [
            "cppc", "--fast", "--trials", str(self.trials),
            "--fault", self.fault, "--level", self.level,
            "--benchmark", self.benchmark, "--warmup", str(self.warmup),
            "--post", str(self.post), "--shape", *map(str, self.shape),
        ]

    def argv(self, seed: int, out: Path) -> List[str]:
        return self.args() + ["--seed", str(seed), "--json", str(out / "campaign.json")]

    @property
    def units(self) -> int:
        return self.trials

    @property
    def refs(self) -> int:
        return self.warmup + self.trials * self.post

    def read_outputs(self, out: Path) -> Tuple[Dict[str, Optional[str]], int]:
        """Digest of the outcome counts; failed trials (all if no JSON)."""
        path = out / "campaign.json"
        if not path.exists():
            return {"outcome": None}, self.trials
        payload = json.loads(path.read_text())
        outcome = {k: payload[k] for k in ("counts", "completed", "failed")}
        return {"outcome": _digest(_canonical(outcome))}, payload["failed"]

    def mismatched_units(self, digests, reference) -> int:
        if digests["outcome"] is not None and digests != reference:
            return self.trials
        return 0


@dataclasses.dataclass(frozen=True)
class Workload:
    """A job at its measured size, and a tiny one for the self-tests."""

    name: str
    job: object
    smoke: object


_CACHEFIT = ("gzip", "crafty", "eon", "twolf", "vortex")
_MEMBOUND = ("mcf", "swim", "art")

#: The benchmark's workloads (why each: ``BENCHMARK.json``,
#: ``bench/README.md``).  Sizes are fixed; only the seed varies.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-cachefit",
            PaperJob("all", _CACHEFIT, 20_000),
            PaperJob("all", _CACHEFIT, 1_500, mc_samples=2_000),
        ),
        Workload(
            "paper-membound",
            PaperJob("fig10", _MEMBOUND, 20_000),
            PaperJob("fig10", _MEMBOUND, 1_500),
        ),
        Workload(
            "campaign-l1-temporal",
            CampaignJob("temporal", "L1D", "gcc", trials=40),
            CampaignJob("temporal", "L1D", "gcc", trials=4, warmup=500, post=300),
        ),
        Workload(
            "campaign-l2-spatial",
            CampaignJob("spatial", "L2", "mcf", trials=6, warmup=40_000),
            CampaignJob("spatial", "L2", "mcf", trials=2, warmup=3_000, post=300),
        ),
    )
}


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def describe(job) -> str:
    """The job's command line without seed and output paths."""
    return " ".join([job.tool, *job.args()])


# ----------------------------------------------------------------------
# Running one job
# ----------------------------------------------------------------------
def job_env() -> Dict[str, str]:
    """The environment every child runs in.

    ``PYTHONPATH`` is pinned to this checkout so an installed copy is never
    measured; ``REPRO_*`` is dropped (``REPRO_TRACE_CACHE`` would skip
    synthesis); numeric libraries get one thread; bytecode is cached
    inside the checkout so the smoke job pays for compilation.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
        and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def reference_loop() -> float:
    """CPU seconds this thread takes for a fixed piece of interpreter work."""
    start = time.thread_time()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    """Pin this process, and so every job it starts, to one CPU, so that
    :func:`launch` probes the CPU its child runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclasses.dataclass
class Launch:
    wall_s: float
    loops: float  # the child's work, in runs of the reference loop
    rss_mb: float
    returncode: int

    @property
    def job_s(self) -> float:
        return self.loops * REFERENCE_LOOP_S


def launch(cmd: Sequence[str], stdout, stderr) -> Launch:
    """Run ``cmd`` to completion and price its work in reference loops.

    Other tenants of a shared host slow a CPU by up to ~1.8x, for a few
    milliseconds or for minutes at a time, so a job's wall time says as
    much about them as about the program.  While the child runs, this
    process wakes every ``PROBE_INTERVAL_S`` on the child's CPU (see
    :func:`pin_to_one_cpu`) and times :func:`reference_loop` in its own
    CPU time.  Each slice of the child's wall time, divided by the loop's
    cost at that moment, is the child's work in loop runs, a count that
    moves far less with the host's load than wall time does.

    Peak RSS comes from this child's own ``wait4`` rusage (not
    ``RUSAGE_CHILDREN``, which keeps a running maximum over all
    children).  The child is reaped only after the last signal that could
    reach it, so none can hit a reused pid.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=job_env(), cwd=ROOT)
    loops, mark = 0.0, start
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                exited = select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]
                now = time.perf_counter()
                if not exited and now - start > JOB_TIMEOUT_S:
                    proc.kill()
                loops += (now - mark) / reference_loop()
                if exited:
                    break
                mark = time.perf_counter()
        finally:
            os.close(pidfd)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(now - start, loops, usage.ru_maxrss / 1024.0, proc.returncode)


@dataclasses.dataclass
class JobRun(Launch):
    digests: Dict[str, Optional[str]] = dataclasses.field(default_factory=dict)
    failed_units: int = 0
    stderr: str = ""
    trace: Optional[dict] = None


def run_job(job, seed: int, work: Path, *, traced: bool = False) -> JobRun:
    out = Path(tempfile.mkdtemp(prefix="job-", dir=work))
    argv = job.argv(seed, out)
    if traced:
        cmd = [sys.executable, str(TRACED), str(out / "spans.json"), job.tool, *argv]
    else:
        cmd = [sys.executable, "-m", f"repro.tools.{job.tool}", *argv]
    try:
        with open(out / "stderr.txt", "wb") as err:
            run = dataclasses.asdict(launch(cmd, subprocess.DEVNULL, err))
        run["stderr"] = (out / "stderr.txt").read_text(errors="replace")
        if run["returncode"] != 0:
            return JobRun(**run, failed_units=job.units)
        digests, failed = job.read_outputs(out)
        trace = json.loads((out / "spans.json").read_text()) if traced else None
        return JobRun(**run, digests=digests, failed_units=failed, trace=trace)
    finally:
        shutil.rmtree(out, ignore_errors=True)


SETUP_CODE = (
    "import importlib, sys; m = importlib.import_module(sys.argv[1]); "
    "m.build_parser(); print(m.__file__)"
)


def measure_setup(tool: str, work: Path) -> List[Launch]:
    """Fresh interpreters importing the entry module and building its
    parser; also proves ``repro`` resolves to this checkout."""
    runs = []
    cmd = [sys.executable, "-c", SETUP_CODE, f"repro.tools.{tool}"]
    for _ in range(SETUP_SAMPLES):
        with tempfile.TemporaryFile(dir=work) as out, \
                tempfile.TemporaryFile(dir=work) as err:
            run = launch(cmd, out, err)
            out.seek(0)
            err.seek(0)
            if run.returncode != 0:
                raise BenchError(
                    f"importing repro.tools.{tool} failed:\n{err.read().decode()}")
            module_file = Path(out.read().decode().strip()).resolve()
        if SRC.resolve() not in module_file.parents:
            raise BenchError(f"repro resolved outside {SRC}: {module_file}")
        runs.append(run)
    return runs


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


#: Layer span names, in report order.
LAYERS = tuple(dict.fromkeys(["cli.import", *(b[0] for b in BINDINGS)]))


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Seconds per span name, each span's busy time minus its children's."""
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["busy"]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["busy"] - children[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced job whose wall time was ``wall_s``."""
    spans = trace["spans"]
    totals = self_times(spans)
    counts = dict(trace["counts"])
    for span in spans:  # calls of a layer count its work where no counter does
        key = f"{span['name']}.calls"
        counts[key] = counts.get(key, 0) + span["calls"]

    def own(layer: str) -> float:
        return totals.get(layer, 0.0)

    def count(key: str) -> int:
        return counts.get(key, 0)

    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}_s"] = (own(layer), "s")
        m[f"{layer}_share"] = (_ratio(own(layer), wall_s), "fraction")
    unattributed = wall_s - sum(s["busy"] for s in spans if s["parent"] is None)
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.unattributed_share"] = (_ratio(unattributed, wall_s), "fraction")
    m["workloads.refs"] = (count("workloads.synth.items"), "count")
    m["workloads.replay_refs"] = (count("workloads.replay.calls"), "count")
    m["cppc.recoveries"] = (count("cppc.recover.calls"), "count")
    for name, layer, key, scale, unit in (
        ("workloads.synth_ns_per_ref", "workloads.synth", "workloads.synth.items",
         1e9, "ns/ref"),
        ("workloads.replay_ns_per_ref", "workloads.replay",
         "workloads.replay.calls", 1e9, "ns/ref"),
        ("timing.collect_ns_per_ref", "timing.collect", "timing.collect_refs",
         1e9, "ns/ref"),
        ("timing.price_ns_per_event", "timing.price", "timing.price_events",
         1e9, "ns/event"),
        ("cppc.recover_us_per_call", "cppc.recover", "cppc.recover.calls",
         1e6, "us/call"),
    ):
        m[name] = (_ratio(own(layer) * scale, count(key)), unit)
    m["reliability.mc_samples_per_s"] = (
        _ratio(count("reliability.mc_samples"), own("reliability.mc")), "samples/s")
    m["timing.collect_fast_frac"] = (
        _ratio(count("timing.collect_fast_calls"), count("timing.collect.calls")),
        "fraction")
    for level in ("l1", "l2"):
        accesses = count(f"memsim.{level}_accesses")
        m[f"memsim.{level}_accesses"] = (accesses, "count")
        m[f"memsim.{level}_miss_rate"] = (
            _ratio(count(f"memsim.{level}_misses"), accesses), "fraction")
    for outcome in ("corrected", "benign", "due", "sdc"):
        m[f"faults.{outcome}_frac"] = (
            _ratio(count(f"faults.{outcome}"), count("faults.completed")), "fraction")
    return m


# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------
class Checker:
    """Counts failed output units of every job against one reference.

    The reference is the golden digests for the seed when
    ``bench/expected.json`` has them (``verified``), otherwise the first
    job's digests, so later jobs must at least repeat it exactly.
    """

    def __init__(self, job, golden: Optional[dict]):
        self.job = job
        self.reference = golden
        self.verified = golden is not None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, run: JobRun, label: str) -> None:
        self.attempted += self.job.units
        if run.returncode != 0:
            self.failed += self.job.units
            tail = run.stderr.strip().splitlines()[-5:]
            self.errors.append(
                f"{label} job exited {run.returncode}: " + " | ".join(tail)
            )
            return
        if self.reference is None:
            self.reference = run.digests
        mismatched = self.job.mismatched_units(run.digests, self.reference)
        if mismatched:
            self.errors.append(
                f"{label} job digests {run.digests} != reference {self.reference}"
            )
        self.failed += min(self.job.units, run.failed_units + mismatched)


def load_goldens(workload: Workload, seed: int, smoke: bool) -> Optional[dict]:
    """The golden digests for ``seed``, or None where there are none."""
    if smoke or not EXPECTED.exists():
        return None
    expected = json.loads(EXPECTED.read_text())
    if str(seed) not in expected["seeds"]:
        return None
    made_for, job = expected["jobs"].get(workload.name), describe(workload.job)
    if made_for != job:
        raise BenchError(
            f"bench/expected.json was made for {made_for!r}, not {job!r}; "
            "regenerate it with `python bench/run.py expected`"
        )
    return expected["seeds"][str(seed)][workload.name]


def _keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    return done < minimum or time.perf_counter() - started < seconds


def measure_end_to_end(workload, job, seed, seconds, work, checker) -> dict:
    run_job(workload.smoke, seed, work)  # untimed: compiles and caches bytecode
    setup = measure_setup(job.tool, work)
    runs = []
    started, attempts = time.perf_counter(), 0
    while _keep_going(started, seconds, attempts, MIN_SAMPLES):
        attempts += 1
        run = run_job(job, seed, work)
        checker.check(run, "timed")
        if run.returncode == 0:
            runs.append(run)
    if not runs:
        raise BenchError(f"{workload.name}: no job succeeded: {checker.errors}")
    job_s = [r.job_s for r in runs]
    metrics = {
        "job_s": summarize(job_s, "s"),
        "sim_refs_per_s": summarize([job.refs / s for s in job_s], "refs/s"),
        "peak_rss_mb": summarize([r.rss_mb for r in runs], "MB"),
        "setup_s": summarize([r.job_s for r in setup], "s"),
        "wall_s": summarize([r.wall_s for r in runs], "s"),
    }
    if isinstance(job, CampaignJob):
        metrics["trials_per_s"] = summarize([job.trials / s for s in job_s], "trials/s")
    return metrics


def measure_layers(workload, job, seed, seconds, work, checker):
    """Alternate untraced and traced jobs; per-layer medians plus the spans
    of the first traced job."""
    run_job(workload.smoke, seed, work)
    pairs = []
    started = time.perf_counter()
    while _keep_going(started, seconds, len(pairs), 1):
        untraced = run_job(job, seed, work)
        checker.check(untraced, "untraced")
        traced = run_job(job, seed, work, traced=True)
        checker.check(traced, "traced")
        if untraced.returncode or traced.returncode:
            raise BenchError(f"{workload.name}: jobs failed: {checker.errors}")
        pairs.append((untraced, traced))
    per_run = [layer_metrics(t.trace, t.wall_s) for _, t in pairs]
    metrics = {
        name: summarize([m[name][0] for m in per_run], unit)
        for name, (_, unit) in per_run[0].items()
    }
    metrics["trace.overhead_frac"] = summarize(
        [t.loops / u.loops - 1.0 for u, t in pairs], "fraction"
    )
    return metrics, pairs[0][1].trace["spans"]


def measure(workload: Workload, seed: int, seconds: float, phases, smoke: bool,
            work: Path) -> Tuple[dict, Optional[list]]:
    job = workload.smoke if smoke else workload.job
    checker = Checker(job, load_goldens(workload, seed, smoke))
    result = {"job": describe(job), "end_to_end": {}, "per_layer": {}}
    spans = None
    if "end_to_end" in phases:
        result["end_to_end"] = measure_end_to_end(
            workload, job, seed, seconds, work, checker)
    if "per_layer" in phases:
        result["per_layer"], spans = measure_layers(
            workload, job, seed, seconds, work, checker)
    result["end_to_end"]["failed_frac"] = summarize(
        [_ratio(checker.failed, checker.attempted)], "fraction")
    result.update(
        verified=checker.verified,
        correct=checker.failed == 0 and not checker.errors,
        attempted=checker.attempted,
        failed=checker.failed,
        digests=checker.reference,
        errors=checker.errors,
    )
    return result, spans


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_line(result: dict, phase: str) -> dict:
    """The JSON line: exactly the metrics BENCHMARK.json lists for ``phase``."""
    names = [m["name"] for m in load_spec()[phase]]
    measured = result[phase]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
            for n in names
        },
    }


def _fmt(value: float) -> str:
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}"
    return f"{value:.3e}"


def print_table(results: Dict[str, dict]) -> None:
    print(f"{'workload':<22} {'metric':<34} {'median':>11} "
          f"{'q1 .. q3':>23} {'n':>3}  unit")
    for name, result in results.items():
        for phase in ("end_to_end", "per_layer"):
            for metric, s in result[phase].items():
                spread = f"{_fmt(s['q1'])} .. {_fmt(s['q3'])}"
                print(f"{name:<22} {metric:<34} {_fmt(s['value']):>11} "
                      f"{spread:>23} {s['n']:>3}  {s['unit']}")
        print(f"{name:<22} verified={str(result['verified']).lower()} "
              f"correct={str(result['correct']).lower()} "
              f"failed={result['failed']}/{result['attempted']}")
        for error in result["errors"]:
            print(f"{name:<22} error: {error}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def revision() -> str:
    """Git revision of this checkout, or a digest of ``src`` outside git."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "diff", "--quiet", "HEAD", "--", "src"]
            ).returncode
            return proc.stdout.strip() + ("-dirty" if dirty else "")
    return "src-" + source_digest()


def header(seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "revision": revision(),
        "source_digest": source_digest(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "closed_loop_clients": 1,
        "cpus": sorted(os.sched_getaffinity(0)),
        "reference_loop_s": REFERENCE_LOOP_S,
    }


def write_results(head: dict, results: dict, spans: dict, suffix: str) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{head['revision']}-seed{head['seed']}{suffix}"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps({"header": head, "workloads": results}, indent=1))
    if spans:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    return path


# ----------------------------------------------------------------------
# compare: the choosing-metrics section 8 rules
# ----------------------------------------------------------------------
def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """Compare one metric's per-run medians of two commits.

    Pairs are taken in the order given (run them alternating).  A gain
    needs the change to win at least 9/10 of the pairs and the medians to
    differ by more than the parent's interquartile range; a regression is
    a change median worse than the parent's by more than ``bound``; a
    parent spread wider than ``bound`` leaves the metric unresolved unless
    every change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(parent, ""), summarize(change, "")
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    win_frac = _ratio(wins, len(pairs))
    parent_iqr = p["q3"] - p["q1"]
    worse_by = _ratio(sign * (c["value"] - p["value"]), abs(p["value"]))
    all_better = (max(change) < min(parent)) if better == "lower" else (
        min(change) > max(parent))
    if worse_by > bound:
        status = "regression"
    elif _ratio(parent_iqr, abs(p["value"])) > bound and not all_better:
        status = "unresolved"
    elif win_frac >= 0.9 and abs(c["value"] - p["value"]) > parent_iqr:
        status = "gain"
    else:
        status = "no change"
    return {
        "parent": p, "change": c, "pairs": len(pairs), "win_frac": win_frac,
        "worse_by": worse_by, "status": status,
    }


def _entries(paths: Sequence[str], workload: str) -> List[Tuple[int, dict]]:
    """(seed, result) of every results file that measured ``workload``
    end to end, in the order given."""
    entries = []
    for path in paths:
        run = json.loads(Path(path).read_text())
        result = run["workloads"].get(workload)
        if result is not None and "job_s" in result["end_to_end"]:
            entries.append((run["header"]["seed"], result))
    return entries


def _spread(s: dict) -> str:
    return f"{_fmt(s['value'])} [{_fmt(s['q1'])}..{_fmt(s['q3'])}]"


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    """One row per workload; exit 1 on a regression, a digest that differs
    on a common seed, or more failures than the parent."""
    bad = False
    for name in WORKLOADS:
        parent, change = _entries(parent_paths, name), _entries(change_paths, name)
        if not parent or not change:
            continue
        digests: Dict[int, set] = {}
        for seed, result in parent + change:
            digests.setdefault(seed, set()).add(_canonical(result["digests"]))
        common = sorted({s for s, _ in parent} & {s for s, _ in change})
        equal = all(len(digests[s]) == 1 for s in common)
        failed = [
            _ratio(sum(r["failed"] for _, r in side),
                   sum(r["attempted"] for _, r in side))
            for side in (parent, change)
        ]
        bad |= not equal or failed[1] > failed[0]
        print(f"{name}: digests {'equal' if equal else 'DIFFER'} on common seeds "
              f"{common}; failed_frac {failed[0]:.4g} -> {failed[1]:.4g}")
        for metric in load_spec()["end_to_end"]:
            key = metric["name"]
            v = verdict(
                [r["end_to_end"][key]["value"] for _, r in parent],
                [r["end_to_end"][key]["value"] for _, r in change],
                metric["better"], metric["bound"],
            )
            bad |= v["status"] == "regression"
            print(f"  {key}: {v['status']}: {_spread(v['parent'])} -> "
                  f"{_spread(v['change'])} {metric['unit']}; change wins "
                  f"{v['win_frac']:.2f} of {v['pairs']} pairs; bound {metric['bound']}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# expected: regenerate the goldens
# ----------------------------------------------------------------------
def regenerate_expected(seeds: Sequence[int]) -> int:
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        expected = {
            "source_digest": source_digest(),
            "jobs": {w.name: describe(w.job) for w in WORKLOADS.values()},
            "seeds": {},
        }
        for seed in seeds:
            for workload in WORKLOADS.values():
                run = run_job(workload.job, seed, work)
                if run.returncode != 0 or run.failed_units:
                    raise BenchError(f"{workload.name} seed {seed}: {run.stderr}")
                expected["seeds"].setdefault(str(seed), {})[workload.name] = run.digests
                print(f"seed {seed} {workload.name}: {run.digests}", flush=True)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="End-to-end benchmark of the paper and campaign jobs.",
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per phase (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only "
                        "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job sizes, for the self-tests only")
    return parser


def run_main(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds < 0:
        raise BenchError("--seconds must be >= 0")
    if not (SRC / "repro" / "tools" / "run_experiment.py").exists():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    phases = {0: ("end_to_end",), 1: ("per_layer",)}.get(
        args.trace, ("end_to_end", "per_layer"))
    selected = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    pin_to_one_cpu()
    head = header(args.seed, args.seconds, args.smoke)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    results, spans = {}, {}
    try:
        for workload in selected:
            results[workload.name], spans[workload.name] = measure(
                workload, args.seed, args.seconds, phases, args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    head["loadavg_end"] = os.getloadavg()
    suffix = (f"-{args.workload}" if args.workload else "") + (
        "-smoke" if args.smoke else "") + (
        "" if args.trace is None else f"-trace{args.trace}")
    path = write_results(head, results, {k: v for k, v in spans.items() if v}, suffix)
    print_table(results)
    print(f"results: {path}")
    correct = all(r["correct"] for r in results.values())
    if args.workload and args.trace is not None:
        print(json.dumps(contract_line(results[args.workload], phases[0])))
    return 0 if correct else 1


def _terminate(signum, _frame):
    # Unwind through ``launch`` so the running job is killed and reaped.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if argv[:1] == ["compare"]:
            parser = argparse.ArgumentParser(prog="bench/run.py compare")
            parser.add_argument("--parent", nargs="+", required=True)
            parser.add_argument("--change", nargs="+", required=True)
            args = parser.parse_args(argv[1:])
            return compare(args.parent, args.change)
        if argv[:1] == ["expected"]:
            parser = argparse.ArgumentParser(prog="bench/run.py expected")
            parser.add_argument("--seeds", type=int, nargs="+",
                                default=list(GOLDEN_SEEDS))
            return regenerate_expected(parser.parse_args(argv[1:]).seeds)
        return run_main(argv)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

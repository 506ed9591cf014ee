"""Benchmark the repo's fast paths against their reference simulators.

Each ``--mode`` is one row of :data:`MODES`.  Its run function first
proves the fast path bit-identical to the scalar reference (a divergence
raises :class:`~repro.errors.EquivalenceError` and exits 1), then times
both paths and returns a JSON report (``BENCH_<mode>.json`` by default):

* ``replay`` (default) — the batch replay engine vs. the scalar
  ``Cache``, plus batch time with a *disabled* trace sink over the plain
  batch time (the zero-overhead-when-disabled property of
  :mod:`repro.obs`);
* ``tracestore`` — columnar load (:mod:`repro.workloads.store`) vs.
  text parsing, chunked replay straight off the reader, and the
  content-addressed trace cache;
* ``campaign`` — the snapshot-fork campaign
  (:mod:`repro.faults.warmstate`) vs. the legacy warm-every-trial loop;
* ``reliability`` — the vectorized double-fault Monte-Carlo engine
  (:mod:`repro.reliability.fastmc`) vs. the scalar loop;
* ``timing`` — the Figure-10 timing fast path (:mod:`repro.timing.fast`)
  vs. the scalar ``collect_events``/``time_events`` pipeline.

::

    python -m repro.tools.run_bench --trace-len 20000 --min-speedup 3
    python -m repro.tools.run_bench --mode campaign --trials 200 --min-speedup 3

``--min-speedup`` (and in replay mode ``--max-obs-overhead``) turn the
run into a gate on the mode's ratio metrics: a miss exits
``EXIT_PARTIAL`` (3), which keeps the fast paths honest without being
flaky about absolute timings.  ``--compare-baseline [PATH]`` compares
the same ratios against a committed ``BENCH_baseline.json`` and *warns*
(never fails) when one regressed past :data:`BASELINE_TOLERANCE`.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import pathlib
import sys
import tempfile
import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import EquivalenceError, raise_mismatches
from ..faults.schemes import scheme_factory
from ..memsim.batch import BatchTrace
from ..obs import NullSink, make_sink
from ..workloads import benchmark_names, make_workload, materialize
from ..workloads.replay import FastReplay, TraceReplayer
from ..workloads.store import (
    DEFAULT_CHUNK_RECORDS,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    TraceCache,
    write_trace,
)
from ..workloads.trace import load_trace, save_trace
from ._cli import add_obs_arguments, emit_metrics, fail, metrics_registry, resolve_exit

#: Trace prefix used to warm both engines before the timed runs.
WARMUP_REFERENCES = 5_000

#: Default committed baseline file (see ``--compare-baseline``).
DEFAULT_BASELINE = "BENCH_baseline.json"

#: A ratio regressed when it falls below this fraction of its baseline
#: (or, for an overhead, exceeds the baseline divided by it).
BASELINE_TOLERANCE = 0.8

#: Fault-pair geometry of the reliability mode: register pairs, parity
#: interleave ways and dirty-cache capacity.
MC_GEOMETRY = {"num_pairs": 1, "parity_ways": 8, "cache_bytes": 8192}


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(
    benchmark: str = "gcc",
    trace_len: int = 100_000,
    *,
    equivalence_len: int = 1_000,
    repeats: int = 3,
    seed: int = 0,
    trace_out: Optional[str] = None,
    registry=None,
) -> dict:
    """Run the replay comparison and return the report dictionary.

    ``trace_out`` additionally replays the trace once with a live sink
    attached (per-chunk spans land in the file); ``registry`` (a
    :class:`repro.obs.MetricsRegistry`) receives the batch run's cache
    statistics.
    """
    if trace_len < 1:
        raise ValueError("trace_len must be positive")
    records = materialize(make_workload(benchmark, seed=seed).records(trace_len))
    replayer = FastReplay(equivalence="never")

    # Correctness first: replay a short prefix through both engines and
    # compare final state word-for-word (raises EquivalenceError on any
    # divergence).
    checked = min(equivalence_len, trace_len)
    if checked:
        FastReplay(equivalence="always").run(records[:checked])

    # Pack the trace (and the warmup prefix) into columns exactly once:
    # the engines being timed both consume the same immutable BatchTrace,
    # so the measurement no longer includes redundant from_records packing
    # repeated per engine per repeat.
    trace = BatchTrace.from_records(records)
    warm_trace = trace.slice(0, min(WARMUP_REFERENCES, trace_len))
    warm = records[: len(warm_trace)]

    # Warm both paths so one-time NumPy/interpreter setup costs do not
    # pollute the measurement.
    replayer.engine.replay(warm_trace)
    TraceReplayer(replayer.scalar_cache()).run(warm)

    batch_result = {}

    def batch_once():
        batch_result["value"] = replayer.engine.replay(trace)

    # Zero-overhead-when-disabled: a NullSink attached to the engine must
    # keep the hot loop on its uninstrumented branch, so this ratio stays
    # ~1.0 regardless of machine speed.  The two batch variants are timed
    # in alternation (not in separate back-to-back blocks) so slow drift
    # on a noisy machine cancels out of the ratio.
    disabled = FastReplay(equivalence="never", obs=NullSink())
    disabled.engine.replay(warm_trace)

    def disabled_once():
        disabled.engine.replay(trace)

    batch_s = disabled_s = float("inf")
    for _ in range(max(1, repeats)):
        batch_s = min(batch_s, _time_best(batch_once, 1))
        disabled_s = min(disabled_s, _time_best(disabled_once, 1))

    scalar_s = _time_best(
        lambda: TraceReplayer(replayer.scalar_cache()).run(records),
        repeats,
    )

    report = {
        "mode": "replay",
        "benchmark": benchmark,
        "trace_len": trace_len,
        "seed": seed,
        "repeats": repeats,
        "equivalence_checked_references": checked,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_ops_per_sec": trace_len / scalar_s,
        "batch_ops_per_sec": trace_len / batch_s,
        "speedup": scalar_s / batch_s,
        "disabled_sink_seconds": disabled_s,
        "obs_overhead_ratio": disabled_s / batch_s,
    }
    if registry is not None:
        batch_result["value"].stats.export_metrics(registry, prefix="batch.")
    if trace_out is not None:
        with make_sink(trace_out) as sink:
            FastReplay(equivalence="never", obs=sink).run(trace)
        report["trace_out"] = str(trace_out)
    return report


def run_tracestore_bench(
    benchmark: str = "gcc",
    trace_len: int = 200_000,
    *,
    equivalence_len: int = 1_000,
    repeats: int = 3,
    seed: int = 0,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> dict:
    """Benchmark the columnar trace store and return the report.

    Writes the same generated trace in both formats under a temporary
    directory, then measures, best of ``repeats``:

    * columnar load (file → replay-ready :class:`BatchTrace` columns)
      against text parse (``load_trace`` → ``from_records``) — the
      ``load_speedup`` ratio this mode gates on;
    * chunked replay throughput straight off the reader;
    * trace-cache miss (generate + write) vs. hit (decode) latency.

    Correctness is asserted, not sampled: the columnar columns must be
    bit-identical to the text round-trip, and a ``trace_len``-capped
    prefix is replayed with ``FastReplay(equivalence="always")`` from
    the columnar file, so a format bug fails the bench rather than
    skewing it.  The writer streams from the generator; the report
    records its buffered high-water mark.
    """
    if trace_len < 1:
        raise ValueError("trace_len must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        col_path = base / f"{benchmark}-{trace_len}.coltrace"
        text_path = base / f"{benchmark}-{trace_len}.trace"

        # Streaming generation straight into chunks (bounded memory).
        start = time.perf_counter()
        with ColumnarTraceWriter(col_path, chunk_records=chunk_records) as writer:
            writer.extend(make_workload(benchmark, seed=seed).records(trace_len))
        gen_columnar_s = time.perf_counter() - start
        peak_buffered = writer.peak_buffered
        if peak_buffered > chunk_records:
            raise EquivalenceError(
                f"streaming writer buffered {peak_buffered} records "
                f"(more than one {chunk_records}-record chunk)"
            )

        start = time.perf_counter()
        with open(text_path, "w") as fh:
            save_trace(make_workload(benchmark, seed=seed).records(trace_len), fh)
        gen_text_s = time.perf_counter() - start

        def text_load():
            with open(text_path) as fh:
                return BatchTrace.from_records(list(load_trace(fh)))

        def columnar_load():
            with ColumnarTraceReader(col_path, use_mmap=False) as reader:
                return reader.batch_trace()

        text_load_s = _time_best(text_load, repeats)
        col_load_s = _time_best(columnar_load, repeats)

        # Bit-identity between the two load paths, checked on the real
        # files the timings used.
        text_trace = text_load()
        col_trace = columnar_load()
        raise_mismatches(
            "columnar load diverged from the text round-trip",
            [
                f"column {field.name!r}"
                for field in dataclasses.fields(BatchTrace)
                if not np.array_equal(
                    getattr(text_trace, field.name), getattr(col_trace, field.name)
                )
            ],
        )

        # Scalar equivalence through the full columnar path (chunked
        # replay + record decode for the scalar twin).
        checked = min(equivalence_len, trace_len)
        if checked:
            check_path = base / "equivalence-prefix.coltrace"
            with ColumnarTraceReader(col_path, use_mmap=False) as reader:
                prefix = list(itertools.islice(reader.records(), checked))
            write_trace(prefix, check_path, chunk_records=max(1, checked // 4))
            with ColumnarTraceReader(check_path) as reader:
                FastReplay(equivalence="always").run(reader)

        # Chunked replay throughput straight off the reader.
        engine_holder = FastReplay(equivalence="never")

        def replay_chunked():
            with ColumnarTraceReader(col_path, verify=False) as reader:
                engine_holder.engine.replay_chunks(reader.iter_chunks())

        replay_chunked()  # warm
        replay_s = _time_best(replay_chunked, repeats)

        # Content-addressed cache: first request generates and writes,
        # the second decodes the cached file.
        cache = TraceCache(base / "cache")
        start = time.perf_counter()
        cache.get_or_create(benchmark, seed, trace_len)
        cache_miss_s = time.perf_counter() - start
        start = time.perf_counter()
        cached_path = cache.get_or_create(benchmark, seed, trace_len)
        with ColumnarTraceReader(cached_path, use_mmap=False) as reader:
            reader.batch_trace()
        cache_hit_s = time.perf_counter() - start

        return {
            "mode": "tracestore",
            "benchmark": benchmark,
            "trace_len": trace_len,
            "seed": seed,
            "repeats": repeats,
            "chunk_records": chunk_records,
            "equivalence_checked_references": checked,
            "columnar_bytes": col_path.stat().st_size,
            "text_bytes": text_path.stat().st_size,
            "gen_columnar_seconds": gen_columnar_s,
            "gen_text_seconds": gen_text_s,
            "writer_peak_buffered": peak_buffered,
            "text_load_seconds": text_load_s,
            "columnar_load_seconds": col_load_s,
            "load_speedup": text_load_s / col_load_s,
            "chunked_replay_seconds": replay_s,
            "chunked_replay_ops_per_sec": trace_len / replay_s,
            "cache_miss_seconds": cache_miss_s,
            "cache_hit_seconds": cache_hit_s,
            "columns_identical": True,
        }


def run_campaign_bench(
    benchmark: str = "gcc", *, trials: int = 200, seed: int = 0
) -> dict:
    """Time the legacy vs. snapshot-fork campaign and return the report.

    Runs the same shared-warmup CPPC campaign (12,000 warmup and 250
    post-fault references per trial) twice — once through the legacy
    warm-every-trial loop, once through the snapshot-fork fast path —
    and verifies per-trial bit-identity before reporting throughput.
    The fast timing includes building the warm snapshot (the cache is
    cleared first), so the reported ratio is what a cold campaign sees.
    """
    from ..faults.campaign import (
        CampaignConfig,
        FaultCampaign,
        Outcome,
        trial_mismatches,
    )
    from ..faults.warmstate import clear_warm_cache

    if trials < 1:
        raise ValueError("trials must be positive")
    config = CampaignConfig(
        scheme_factory=scheme_factory("cppc"),
        benchmark=benchmark,
        trials=trials,
        warmup_references=12_000,
        post_fault_references=250,
        seed=seed,
        shared_warmup=True,
    )

    start = time.perf_counter()
    legacy = FaultCampaign(config).run()
    legacy_s = time.perf_counter() - start

    clear_warm_cache()
    start = time.perf_counter()
    fast = FaultCampaign(config, fast=True).run()
    fast_s = time.perf_counter() - start

    raise_mismatches(
        "snapshot-fork campaign diverged from the legacy loop",
        trial_mismatches(fast.trials, legacy.trials),
    )
    return {
        "mode": "campaign",
        "scheme": "cppc",
        "benchmark": benchmark,
        "trials": trials,
        "warmup_references": config.warmup_references,
        "post_fault_references": config.post_fault_references,
        "seed": seed,
        "legacy_seconds": legacy_s,
        "fast_seconds": fast_s,
        "legacy_trials_per_sec": trials / legacy_s,
        "fast_trials_per_sec": trials / fast_s,
        "speedup": legacy_s / fast_s,
        "outcomes": {o.value: legacy.counts[o] for o in Outcome},
        "identical_trials": True,
    }


def run_reliability_bench(
    *,
    mc_samples: int = 200_000,
    scalar_samples: int = 64,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time the vectorized vs. scalar double-fault engine; return report.

    Correctness first, following the other fast-path benches:

    * **live equivalence** — :func:`~repro.reliability.fastmc.cross_check_live`
      replays a randomized subset of the kernel's sampled fault pairs
      through full ``Cache``/``CppcProtection`` recovery and compares
      them *per sample* (the subset deliberately front-loads the rare
      DUE/miscorrection verdicts), for the benched geometry and a
      four-pair one;
    * **shard-merge determinism** — the same seed estimated through one
      shard and through four must produce the identical outcome
      histogram, bit for bit.

    Both paths are then timed (best of ``repeats``) on their own sample
    budgets and normalized to samples/sec before the ``mc_speedup``
    ratio; the collision probability is capacity- and value-independent,
    so the two budgets measure the same estimator at different scales.
    """
    from ..reliability import fastmc, montecarlo

    if mc_samples < 1 or scalar_samples < 1:
        raise ValueError("sample budgets must be positive")
    equivalence = [
        fastmc.cross_check_live(num_pairs=pairs, seed=seed)
        for pairs in (MC_GEOMETRY["num_pairs"], 4)
    ]

    probe = max(1, min(mc_samples, 20_000))
    single = fastmc.estimate_double_fault_failure_fast(
        samples=probe, seed=seed, **MC_GEOMETRY
    )
    sharded = fastmc.estimate_double_fault_failure_fast(
        samples=probe, shards=4, seed=seed, **MC_GEOMETRY
    )
    if vars(single) != vars(sharded):
        raise EquivalenceError(
            f"shard merge is not deterministic: 1 shard {vars(single)!r} "
            f"vs 4 shards {vars(sharded)!r}",
            mismatches=[f"{vars(single)!r} != {vars(sharded)!r}"],
        )

    estimate_holder = {}

    def vector_once():
        estimate_holder["value"] = fastmc.estimate_double_fault_failure_fast(
            samples=mc_samples, seed=seed, **MC_GEOMETRY
        )

    vector_once()  # warm NumPy / image construction
    vector_s = _time_best(vector_once, repeats)
    scalar_s = _time_best(
        lambda: montecarlo.estimate_double_fault_failure(
            samples=scalar_samples, seed=seed, **MC_GEOMETRY
        ),
        repeats,
    )

    estimate = estimate_holder["value"]
    ci_low, ci_high = estimate.failure_rate_ci()
    vector_sps = mc_samples / vector_s
    scalar_sps = scalar_samples / scalar_s
    return {
        "mode": "reliability",
        "mc_samples": mc_samples,
        "scalar_samples": scalar_samples,
        "shards": 1,
        **MC_GEOMETRY,
        "seed": seed,
        "repeats": repeats,
        "vector_seconds": vector_s,
        "scalar_seconds": scalar_s,
        "vector_samples_per_sec": vector_sps,
        "scalar_samples_per_sec": scalar_sps,
        "mc_speedup": vector_sps / scalar_sps,
        "failure_rate": estimate.failure_rate,
        "failure_rate_ci95": [ci_low, ci_high],
        "sdc_rate": estimate.sdc_rate,
        "analytic": montecarlo.analytical_collision_probability(
            MC_GEOMETRY["parity_ways"], MC_GEOMETRY["num_pairs"]
        ),
        "corrected": estimate.corrected,
        "due": estimate.due,
        "miscorrected": estimate.miscorrected,
        "shard_merge_deterministic": True,
        "equivalence": equivalence,
    }


def run_timing_bench(
    *, trace_len: int = 12_000, repeats: int = 3, seed: int = 0
) -> dict:
    """Time the Figure-10 timing fast path vs. the scalar pipeline.

    Correctness first, following the other fast-path benches: for every
    benchmark, :func:`repro.timing.fast.timing_mismatches` must find the
    batch collector's events, L1/L2 statistics and all four schemes'
    priced :class:`TimingResult` objects equal to the scalar
    ``collect_events``/``time_events`` outputs *bit for bit* before
    anything is timed.

    Each benchmark measures ``trace_len`` references after a quarter as
    many warmup references.  Both stages consume pre-generated traces
    (the scalar path a record list, the fast path the equivalent
    :class:`BatchTrace`) so the ratio measures simulation, not workload
    synthesis — the same convention the replay bench uses.  Each stage
    replays every benchmark and prices it under every scheme;
    best-of-``repeats`` wall times feed the ``speedup`` ratio.
    """
    from ..memsim import PAPER_CONFIG
    from ..timing import TIMING_POLICIES, time_events
    from ..timing.fast import (
        collect_run_fast,
        collect_scalar,
        time_events_fast,
        timing_mismatches,
    )

    if trace_len < 1:
        raise ValueError("timing reference count must be positive")
    names = benchmark_names()
    warmup = trace_len // 4
    policies = {name: factory() for name, factory in TIMING_POLICIES.items()}
    records = {
        name: list(make_workload(name, seed=seed).records(trace_len + warmup))
        for name in names
    }
    traces = {name: BatchTrace.from_records(recs) for name, recs in records.items()}

    problems = []
    for name in names:
        for problem in timing_mismatches(records[name], PAPER_CONFIG, warmup=warmup):
            problems.append(f"{name}: {problem}")
    raise_mismatches("timing fast path diverged from the scalar pipeline", problems)

    def scalar_stage():
        for name in names:
            events, hierarchy = collect_scalar(
                records[name], PAPER_CONFIG, warmup=warmup
            )
            for policy in policies.values():
                time_events(
                    events, policy, units_per_block=hierarchy.l1d.units_per_block
                )

    def fast_stage():
        for name in names:
            run = collect_run_fast(
                traces[name], PAPER_CONFIG, warmup=warmup, equivalence="never"
            )
            for policy in policies.values():
                time_events_fast(
                    run.events, policy, units_per_block=run.units_per_block
                )

    fast_stage()  # warm NumPy before the timed runs
    fast_s = _time_best(fast_stage, repeats)
    scalar_s = _time_best(scalar_stage, repeats)

    return {
        "mode": "timing",
        "benchmarks": names,
        "references": trace_len,
        "warmup": warmup,
        "schemes": list(policies),
        "seed": seed,
        "repeats": repeats,
        "scalar_seconds": scalar_s,
        "fast_seconds": fast_s,
        "speedup": scalar_s / fast_s,
        "fast_references_per_sec": len(names) * trace_len / fast_s,
        "equivalence": {
            "benchmarks": len(names),
            "schemes": len(policies),
            "status": "ok",
        },
    }


@dataclasses.dataclass(frozen=True)
class Mode:
    """One ``--mode``: what it runs and what its report promises."""

    #: Returns the report; raises ``EquivalenceError`` on a divergence.
    run: Callable[..., dict]
    #: Space-separated CLI values (plus ``registry``) passed to ``run``.
    inputs: str
    #: (report key, ``"min"`` for a speedup or ``"max"`` for an overhead,
    #: gauge name): gated, compared to the baseline, and exported.
    ratios: Tuple[Tuple[str, str, str], ...]
    #: One-line summary, formatted with the report.
    summary: str
    #: Further exported gauges: (gauge name, report key).
    gauges: Tuple[Tuple[str, str], ...] = ()
    #: Default ``--trace-len`` of the modes that take one.
    trace_len: Optional[int] = None


MODES = {
    "replay": Mode(
        run=run_bench,
        inputs="benchmark trace_len equivalence_len repeats seed trace_out registry",
        ratios=(
            ("speedup", "min", "bench.speedup"),
            ("obs_overhead_ratio", "max", "bench.obs_overhead_ratio"),
        ),
        summary="{benchmark}: {trace_len} refs  "
        "scalar {scalar_ops_per_sec:.0f} ops/s  "
        "batch {batch_ops_per_sec:.0f} ops/s  "
        "speedup {speedup:.1f}x  "
        "obs-overhead {obs_overhead_ratio:.3f}",
        trace_len=100_000,
    ),
    "tracestore": Mode(
        run=run_tracestore_bench,
        inputs="benchmark trace_len equivalence_len repeats seed",
        ratios=(("load_speedup", "min", "bench.tracestore_load_speedup"),),
        gauges=(("bench.tracestore_replay_ops_per_sec", "chunked_replay_ops_per_sec"),),
        summary="{benchmark}: {trace_len} refs  "
        "text-load {text_load_seconds:.3f}s  "
        "columnar-load {columnar_load_seconds:.3f}s  "
        "load-speedup {load_speedup:.1f}x  "
        "chunked-replay {chunked_replay_ops_per_sec:.0f} ops/s",
        trace_len=200_000,
    ),
    "campaign": Mode(
        run=run_campaign_bench,
        inputs="benchmark trials seed",
        ratios=(("speedup", "min", "bench.campaign_speedup"),),
        gauges=(("bench.campaign_fast_trials_per_sec", "fast_trials_per_sec"),),
        summary="{scheme}/{benchmark}: {trials} trials  "
        "legacy {legacy_trials_per_sec:.2f} trials/s  "
        "fast {fast_trials_per_sec:.2f} trials/s  "
        "speedup {speedup:.1f}x",
    ),
    "reliability": Mode(
        run=run_reliability_bench,
        inputs="mc_samples scalar_samples repeats seed",
        ratios=(("mc_speedup", "min", "bench.mc_speedup"),),
        gauges=(("bench.mc_samples_per_sec", "vector_samples_per_sec"),),
        summary="double-fault p={num_pairs} w={parity_ways}: "
        "scalar {scalar_samples_per_sec:.0f} samples/s  "
        "vector {vector_samples_per_sec:.0f} samples/s  "
        "speedup {mc_speedup:.0f}x  "
        "rate {failure_rate:.4f} (analytic {analytic:.4f})",
    ),
    "timing": Mode(
        run=run_timing_bench,
        inputs="trace_len repeats seed",
        ratios=(("speedup", "min", "bench.timing_speedup"),),
        gauges=(("bench.timing_references_per_sec", "fast_references_per_sec"),),
        summary="figure-10 timing, {equivalence[benchmarks]} benchmarks x "
        "{references} refs x {equivalence[schemes]} schemes: "
        "scalar {scalar_seconds:.2f}s  fast {fast_seconds:.2f}s  "
        "speedup {speedup:.1f}x",
        trace_len=12_000,
    ),
}


def _worse(value: float, bound: float, direction: str) -> bool:
    """Whether ``value`` is on the wrong side of ``bound``."""
    return value < bound if direction == "min" else value > bound


def compare_baseline(report: dict, mode: str, path) -> dict:
    """Compare ``report``'s ratio metrics against the baseline file.

    Returns a comparison record (also attached to the report by the
    caller): per metric the current and baseline values, the allowed
    bound, and whether it regressed.  A missing baseline file or mode
    section yields ``{"status": "no-baseline"}`` so fresh checkouts and
    new modes stay silent.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        return {"status": "no-baseline", "path": str(path)}
    baseline = json.loads(path.read_text()).get(mode)
    if not baseline:
        return {"status": "no-baseline", "path": str(path), "mode": mode}
    metrics = {}
    for key, direction, _ in MODES[mode].ratios:
        base, current = baseline.get(key), report[key]
        if base is None:
            continue
        if direction == "min":
            bound = base * BASELINE_TOLERANCE
        else:
            bound = base / BASELINE_TOLERANCE
        metrics[key] = {
            "current": current,
            "baseline": base,
            "bound": bound,
            "regressed": _worse(current, bound, direction),
        }
    regressed = any(entry["regressed"] for entry in metrics.values())
    return {
        "status": "regressed" if regressed else "ok",
        "path": str(path),
        "tolerance": BASELINE_TOLERANCE,
        "metrics": metrics,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-bench",
        description="Check a fast path bit-identical to its scalar reference, "
        "time both, and write a JSON report.",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="replay",
        help="fast path to benchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--benchmark",
        choices=benchmark_names(),
        default="gcc",
        help="workload profile of the replay, tracestore and campaign modes "
        "(default: %(default)s)",
    )
    trace_lens = ", ".join(
        f"{mode.trace_len} {name}" for name, mode in MODES.items() if mode.trace_len
    )
    parser.add_argument(
        "--trace-len",
        "-n",
        type=int,
        default=None,
        help="references in the timed trace; per benchmark, after a quarter "
        f"as many warmup references, in timing mode (default: {trace_lens})",
    )
    parser.add_argument(
        "--equivalence-len",
        type=int,
        default=1_000,
        help="trace prefix cross-checked word-for-word against the scalar "
        "cache in the replay and tracestore modes; 0 skips the check "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per path, best taken (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        "--trials", type=int, default=200, help="campaign trials (default: %(default)s)"
    )
    parser.add_argument(
        "--mc-samples",
        type=int,
        default=200_000,
        help="fault-pair samples per timed vectorized reliability run "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--scalar-mc-samples",
        dest="scalar_samples",
        type=int,
        default=64,
        help="samples per timed scalar reliability run; both timings are "
        "normalized to samples/sec before the ratio (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit 3 when the mode's fast/reference speedup is below this "
        "(default: no gate)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.0,
        help="replay mode: exit 3 when batch time with a disabled trace sink "
        "exceeds this ratio of the plain batch time (default: no gate)",
    )
    parser.add_argument(
        "--output",
        "-o",
        type=pathlib.Path,
        default=None,
        help="JSON report path (default: BENCH_<mode>.json)",
    )
    parser.add_argument(
        "--compare-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="PATH",
        help="warn on stderr, without changing the exit status, when a ratio "
        f"regressed against this baseline JSON (default: {DEFAULT_BASELINE})",
    )
    add_obs_arguments(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = MODES[args.mode]
    if args.trace_len is None:
        args.trace_len = spec.trace_len
    elif args.trace_len < 1:
        parser.error("--trace-len must be positive")
    if args.mode != "replay" and (args.trace_out or args.max_obs_overhead):
        parser.error("--trace-out and --max-obs-overhead apply to --mode replay only")
    registry = metrics_registry(args.emit_metrics)
    values = dict(vars(args), registry=registry)
    try:
        report = spec.run(**{name: values[name] for name in spec.inputs.split()})
    except EquivalenceError as exc:
        return fail(f"equivalence check FAILED:\n{exc}")

    if args.compare_baseline is not None:
        comparison = compare_baseline(report, args.mode, args.compare_baseline)
        report["baseline_comparison"] = comparison
        for key, entry in comparison.get("metrics", {}).items():
            if entry["regressed"]:
                print(
                    f"WARNING: {args.mode} {key} {entry['current']:.3f} "
                    f"regressed past the baseline bound {entry['bound']:.3f} "
                    f"(baseline {entry['baseline']:.3f}, "
                    f"tolerance {BASELINE_TOLERANCE})",
                    file=sys.stderr,
                )
    output = args.output or pathlib.Path(f"BENCH_{args.mode}.json")
    output.write_text(json.dumps(report, indent=2) + "\n")
    if registry is not None:
        for key, _, gauge in spec.ratios:
            registry.gauge(gauge).set(report[key])
        for gauge, key in spec.gauges:
            registry.gauge(gauge).set(report[key])
    emit_metrics(args.emit_metrics, registry)
    print(spec.summary.format(**report))
    print(f"wrote {output}")

    gate_failed = False
    for key, direction, _ in spec.ratios:
        limit = args.min_speedup if direction == "min" else args.max_obs_overhead
        if limit and _worse(report[key], limit, direction):
            verb = "is below the required" if direction == "min" else "exceeds"
            print(
                f"{args.mode} {key} {report[key]:.3f} {verb} {limit:.3f}",
                file=sys.stderr,
            )
            gate_failed = True
    return resolve_exit(partial=gate_failed)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

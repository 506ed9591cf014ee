"""Benchmark the repo's fast paths against their reference simulators.

Each ``--mode`` is one row of :data:`MODES`.  Its run function first
proves the fast path bit-identical to the scalar reference (a divergence
raises :class:`~repro.errors.EquivalenceError` and exits 1), then times
both paths and returns a JSON report (``BENCH_<mode>.json`` by default):

* ``replay`` (default) — the batch replay engine vs. the scalar
  ``Cache``, plus batch time with a *disabled* trace sink over the plain
  batch time, the median over alternated pairs (the
  zero-overhead-when-disabled property of :mod:`repro.obs`);
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
import json
import pathlib
import statistics
import sys
import time
from typing import Callable, Optional, Sequence, Tuple

from ..errors import EquivalenceError, raise_mismatches
from ..faults.schemes import scheme_factory
from ..memsim.snapshot import restore_cache
from ..obs import NullSink, make_sink
from ..workloads import benchmark_names, make_workload
from ..workloads.replay import FastReplay, TraceReplayer
from ._cli import add_obs_arguments, emit_metrics, fail, metrics_registry, resolve_exit

#: Trace prefix used to warm both engines before the timed runs.
WARMUP_REFERENCES = 5_000

#: Timed (plain, disabled-sink) batch replay pairs behind the replay
#: mode's ``obs_overhead_ratio``, the median of their time ratios.
OBS_OVERHEAD_PAIRS = 15

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
    trace = make_workload(benchmark, seed=seed).trace(trace_len)
    records = trace.to_records()
    replayer = FastReplay(equivalence="never")

    # Correctness first: replay a short prefix through both engines and
    # compare final state word-for-word (raises EquivalenceError on any
    # divergence).
    checked = min(equivalence_len, trace_len)
    if checked:
        FastReplay(equivalence="always").run(records[:checked])

    # The trace is synthesized into columns once, outside the timed
    # stages: the engines being timed both consume the same immutable
    # BatchTrace, and the scalar one its decoded records.
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
    # ~1.0 regardless of machine speed.  It is the median time ratio of
    # OBS_OVERHEAD_PAIRS pairs of a plain and a disabled-sink replay, each
    # pair run in the other order from the one before, so slow drift on
    # a noisy machine and the order within a pair cancel out.
    disabled = FastReplay(equivalence="never", obs=NullSink())
    disabled.engine.replay(warm_trace)

    def disabled_once():
        disabled.engine.replay(trace)

    batch_s = _time_best(batch_once, repeats)
    disabled_s = float("inf")
    ratios = []
    for pair in range(OBS_OVERHEAD_PAIRS):
        if pair % 2:
            disabled_pair = _time_best(disabled_once, 1)
            plain_pair = _time_best(batch_once, 1)
        else:
            plain_pair = _time_best(batch_once, 1)
            disabled_pair = _time_best(disabled_once, 1)
        ratios.append(disabled_pair / plain_pair)
        disabled_s = min(disabled_s, disabled_pair)

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
        "obs_overhead_ratio": statistics.median(ratios),
    }
    if registry is not None:
        final = restore_cache(batch_result["value"].cache, replayer.scalar_cache())
        final.stats.export_metrics(registry, prefix="batch.")
    if trace_out is not None:
        with make_sink(trace_out) as sink:
            FastReplay(equivalence="never", obs=sink).run(trace)
        report["trace_out"] = str(trace_out)
    return report


def run_campaign_bench(
    benchmark: str = "gcc", *, trials: int = 200, seed: int = 0
) -> dict:
    """Time the legacy vs. snapshot-fork campaign and return the report.

    Runs the same shared-warmup CPPC campaign (12,000 warmup and 250
    post-fault references per trial) twice — once through the legacy
    warm-every-trial loop (:meth:`FaultCampaign.run_scalar`), once
    through the snapshot-fork engine its shared warmup selects
    (:meth:`FaultCampaign.run`) — and verifies per-trial bit-identity
    before reporting throughput.
    The fast timing includes building the warm snapshot (every run
    builds its own), so the reported ratio is what a cold campaign sees.
    """
    from ..faults.campaign import (
        CampaignConfig,
        FaultCampaign,
        Outcome,
        trial_mismatches,
    )

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

    campaign = FaultCampaign(config)
    start = time.perf_counter()
    legacy = campaign.run_scalar()
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    fast = campaign.run()
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
    :func:`~repro.reliability.fastmc.cross_check_live` replays a
    randomized subset of the kernel's sampled fault pairs through full
    ``Cache``/``CppcProtection`` recovery and compares them *per sample*
    (the subset deliberately front-loads the rare DUE/miscorrection
    verdicts), for the benched geometry and a four-pair one.

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
    (the fast path each benchmark's
    :class:`~repro.memsim.batch.BatchTrace`, the scalar path its decoded
    records) so the ratio measures simulation, not workload
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
    traces = {
        name: make_workload(name, seed=seed).trace(trace_len + warmup)
        for name in names
    }
    records = {name: trace.to_records() for name, trace in traces.items()}

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
        help="workload profile of the replay and campaign modes "
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
        "cache in replay mode; 0 skips the check "
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

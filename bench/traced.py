"""Run one ``repro.tools`` CLI in this process with spans around each layer.

::

    python bench/traced.py SPANS_OUT TOOL [ARGS...]

``TOOL`` is a ``repro.tools`` entry module (``run_experiment`` or
``run_campaign``) and ``ARGS`` its command line.  Before calling the
tool's ``main`` this file wraps the public functions at each layer
boundary (:data:`BINDINGS`), replacing each at the place its caller looks
it up, so the program itself carries no tracing code.  Spans live in
memory and are written to ``SPANS_OUT`` as JSON when the tool returns:
one record per span (name, start, end, parent index, busy seconds,
calls) plus counters of the work each layer did.

A binding whose target no longer exists raises ``AttributeError`` at
install time, so a rename in the program fails loudly instead of reading
as zero.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time


class Tracer:
    """In-memory span stack.

    Ordinary spans get one record per call.  An *aggregate* span keeps one
    record per (parent, name) and adds each call's duration to ``busy``;
    it is meant for functions called once per simulated reference, where
    a record per call would cost more than the call.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._aggregates = {}

    def open(self, name: str, aggregate: bool = False):
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        index = self._aggregates.get((parent, name)) if aggregate else None
        if index is None:
            index = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "start": now - self.origin,
                    "end": now - self.origin,
                    "parent": parent,
                    "busy": 0.0,
                    "calls": 0,
                }
            )
            if aggregate:
                self._aggregates[(parent, name)] = index
        self._stack.append(index)
        return index, now

    def close(self, index: int, began: float) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span["end"] = now - self.origin
        span["busy"] += now - began
        span["calls"] += 1
        self._stack.pop()

    def wrap(self, name, func, *, aggregate=False, observe=None):
        """``func`` inside a span; ``observe(result, kwargs)`` returns
        counter increments for the work the call did."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index, began = self.open(name, aggregate)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index, began)
            if observe is not None:
                self.counts.update(observe(result, kwargs))
            return result

        return wrapper

    def wrap_generator(self, name, func):
        """``func`` returns a generator whose every step is charged to an
        aggregate span under whichever span consumes it.

        The steps stay interleaved with the consumer's work, as in an
        untraced run; draining the generator up front instead runs the
        paper jobs measurably faster than the program does.
        """

        def steps(iterator):
            items = 0
            try:
                while True:
                    index, began = self.open(name, aggregate=True)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.close(index, began)
                    items += 1
                    yield item
            finally:
                self.counts[f"{name}.items"] += items

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return steps(func(*args, **kwargs))

        return wrapper


def _collect(events, _kwargs):
    return {"timing.collect_refs": len(events)}


def _collect_fast(run, kwargs):
    return {
        "timing.collect_refs": run.references + kwargs.get("warmup", 0),
        "timing.collect_fast_calls": 1,
    }


def _price(result, _kwargs):
    return {"timing.price_events": result.references}


def _mc(_estimate, kwargs):
    return {"reliability.mc_samples": kwargs["samples"]}


def _simulate(runs, _kwargs):
    counts = collections.Counter()
    for run in runs:
        counts["memsim.l1_accesses"] += run.l1.accesses
        counts["memsim.l1_misses"] += run.l1.misses
        counts["memsim.l2_accesses"] += run.l2.accesses
        counts["memsim.l2_misses"] += run.l2.misses
    return counts


def _campaign(result, _kwargs):
    counts = {f"faults.{o.value}": n for o, n in result.counts.items()}
    counts["faults.completed"] = result.completed
    return counts


#: (span name, module, attribute path, wrap options).  Each target is
#: patched where its caller binds it: module-level functions in the
#: module that imported them, methods on their class.
BINDINGS = (
    ("workloads.synth", "repro.workloads.generators",
     "SyntheticWorkload.records", {"generator": True}),
    ("workloads.replay", "repro.workloads.replay",
     "TraceReplayer.step", {"aggregate": True}),
    ("timing.collect", "repro.harness.experiments",
     "collect_events", {"observe": _collect}),
    ("timing.collect", "repro.timing.fast",
     "collect_run_fast", {"observe": _collect_fast}),
    ("timing.price", "repro.harness.experiments",
     "time_events", {"observe": _price}),
    ("timing.price", "repro.timing.fast",
     "time_events_fast", {"observe": _price}),
    ("energy.price", "repro.harness.experiments", "normalized_energies", {}),
    ("reliability.mc", "repro.tools.run_experiment",
     "estimate_double_fault_failure_fast", {"observe": _mc}),
    ("harness.simulate", "repro.tools.run_experiment",
     "run_all_benchmarks", {"observe": _simulate}),
    ("harness.report", "repro.tools.run_experiment", "figure10", {}),
    ("harness.report", "repro.tools.run_experiment", "figure11", {}),
    ("harness.report", "repro.tools.run_experiment", "figure12", {}),
    ("harness.report", "repro.tools.run_experiment", "table2", {}),
    ("harness.report", "repro.tools.run_experiment", "table3", {}),
    ("harness.report", "repro.tools.run_experiment", "table3mc_text", {}),
    ("faults.warm", "repro.faults.warmstate", "build_warm_state", {}),
    ("faults.fork", "repro.faults.warmstate", "WarmState.fork", {}),
    ("memsim.restore", "repro.faults.warmstate", "restore_hierarchy", {}),
    ("faults.inject", "repro.faults.injector",
     "FaultInjector.random_temporal", {}),
    ("faults.inject", "repro.faults.injector",
     "FaultInjector.random_spatial", {}),
    ("faults.campaign", "repro.faults.campaign",
     "FaultCampaign.run", {"observe": _campaign}),
    ("memsim.flush", "repro.memsim.hierarchy", "MemoryHierarchy.flush", {}),
    ("cppc.recover", "repro.cppc.protection", "recover", {}),
)


def install(tracer: Tracer) -> None:
    """Replace every :data:`BINDINGS` target with its traced wrapper."""
    for name, module_name, path, options in BINDINGS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        target = getattr(owner, attr)
        if options.get("generator"):
            wrapped = tracer.wrap_generator(name, target)
        else:
            wrapped = tracer.wrap(name, target, **options)
        setattr(owner, attr, wrapped)


def main(argv) -> int:
    spans_out, tool, *tool_args = argv
    tracer = Tracer()
    index, began = tracer.open("cli.import")
    module = importlib.import_module(f"repro.tools.{tool}")
    tracer.close(index, began)
    install(tracer)
    try:
        return module.main(tool_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
